//! The metric catalogue and the one-line JSON result.
//!
//! An untraced run (`--trace 0`) reports exactly [`END_TO_END`]; a traced
//! run (`--trace 1`) reports exactly [`PER_LAYER`]. A per-layer metric of
//! a layer the workload does not exercise reads 0 (the sweep has no
//! sockets; the live workloads run no paper sweep).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("p50_us", "us"),
    ("cpu_us_per_req", "us"),
    ("origin_msgs_per_req", "count"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p99_us", "us"),
    ("max_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("origin_kb_per_req", "KB"),
    ("core.exp_ms.base", "ms"),
    ("core.exp_ms.optimized", "ms"),
    ("core.exp_ms.traced", "ms"),
    ("core.exp_ms.ablations", "ms"),
    ("core.exp_ms.other", "ms"),
    ("core.sim_ns_per_req.flat", "ns"),
    ("core.sim_ns_per_req.campus", "ns"),
    ("core.sim_ns_per_req.lru", "ns"),
    ("sweep.busy_frac", "frac"),
    ("webtrace.gen_ms", "ms"),
    ("alloc.per_sim_req", "count"),
    ("simcore.events_per_req", "count"),
    ("consistency.decides_per_req", "count"),
    ("consistency.validations_per_req", "count"),
    ("proxycache.evictions_per_req", "count"),
    ("originserver.ops_per_req", "count"),
    ("proxycache.op_ns.lru", "ns"),
    ("proxycache.op_ns.gds", "ns"),
    ("consistency.decide_ns", "ns"),
    ("simcore.queue_op_ns", "ns"),
    ("proxy.rtt_us.fresh_hit", "us"),
    ("proxy.rtt_us.miss", "us"),
    ("proxy.rtt_us.validated", "us"),
    ("proxy.miss_overhead_us", "us"),
    ("cache.fresh_hit_frac", "frac"),
    ("cache.miss_frac", "frac"),
    ("cache.validate_frac", "frac"),
    ("sync.contended_per_req", "count"),
    ("origin.rtt_us.get", "us"),
    ("origin.rtt_us.ims", "us"),
    ("origin.advance_us_per_req", "us"),
    ("pool.reuse_frac", "frac"),
    ("pool.saturations", "count"),
    ("control.invalidations_per_req", "count"),
    ("httpsim.encode_ns", "ns"),
    ("httpsim.decode_ns", "ns"),
    ("host.ctxsw_per_req", "count"),
    ("host.syscalls_per_req", "count"),
    ("host.allocs_per_req", "count"),
    ("host.runq_wait_us_per_req", "us"),
    ("load.late_p99_us", "us"),
    ("load.client_cpu_us_per_req", "us"),
    ("trace.overhead_frac", "frac"),
    ("fail_frac", "frac"),
    ("stale_frac", "frac"),
];

/// One run's result: metric values, request accounting and the
/// correctness gates.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (simulated points or offered requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    gates: Vec<(String, bool)>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: correctness gate FAILED: {name}");
        }
        self.gates.push((name, ok));
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|(_, ok)| *ok)
    }

    /// The result line for `catalogue`. End-to-end metrics must all have
    /// been measured; per-layer metrics the workload never touched read 0.
    /// Returns `Err` naming a missing or non-finite end-to-end value.
    pub fn render(
        &self,
        catalogue: &[(&'static str, &'static str)],
        traced: bool,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    /// One human-readable line per reported metric, for stderr.
    pub fn describe(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!("  {name:<34} {v:>16.6} {unit}\n")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and `BENCHMARK.json` at the repository root
    /// must name the same metrics with the same units, in the same
    /// order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let get = |k: &str| {
                        let at = obj.find(&format!("\"{k}\"")).expect("key present");
                        let rest = &obj[at + k.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes");
                        rest[open..open + close].to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    /// `record.json` says, for every per-layer metric and nothing else,
    /// which end-to-end metric and workload it should move.
    #[test]
    fn record_maps_every_per_layer_metric() {
        let record = include_str!("../record.json");
        let moves = &record[record.find("\"per_layer_moves\"").expect("section present")..];
        let named: Vec<&str> = moves
            .lines()
            .skip(1)
            .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
            .collect();
        let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(named, ours);
    }

    #[test]
    fn render_reports_every_metric_once() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.gate("ok", true);
        let line = r.render(END_TO_END, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            let needle = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            assert_eq!(line.matches(&needle).count(), 1, "{name}");
        }
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_but_layers_default_to_zero() {
        let r = Report::default();
        assert!(r.render(END_TO_END, false).is_err());
        let line = r.render(PER_LAYER, true).unwrap();
        assert!(line.contains("\"fail_frac\": {\"value\": 0, \"unit\": \"frac\"}"));
    }

    #[test]
    fn failed_gate_marks_the_run_incorrect() {
        let mut r = Report::default();
        r.gate("a", true);
        r.gate("b", false);
        assert!(!r.correct());
        assert!(r
            .render(PER_LAYER, true)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
