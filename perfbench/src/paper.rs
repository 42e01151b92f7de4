//! `paper_all`: the experiment calls `wcc all` makes, in its order,
//! through the library's public experiment functions — plus a pass over
//! the paper's sweep points on seeded inputs, timed point by point.
//!
//! * `sweep_s`: the `wcc all` call sequence (tables 1–2, figures 1–8 at
//!   `Scale::full()`, the ablations), median over repetitions. Its
//!   result digest is pinned, at every job count.
//! * The point pass runs the paper's sweep points — the Figure 2 sweep
//!   on a Worrell paper-size workload, the Figure 6 sweep on the three
//!   campus traces and the bounded-LRU capacity points — on inputs
//!   generated from `--seed`. Per simulated request it gives the
//!   latency percentiles (request-weighted per-point cost), throughput,
//!   CPU and the paper's origin load and bandwidth.

use std::time::Instant;

use wwwcache::simcore::SimDuration;
use wwwcache::webcache::experiments::failure::{resilience_comparison_with, Outage};
use wwwcache::webcache::experiments::report::{
    render_bandwidth_figure, render_figure1, render_missrate_figure, render_server_load_figure,
    render_table1, render_table2,
};
use wwwcache::webcache::experiments::{
    ablations, base::run_base_with, deployment::deployment_comparison_with,
    hierarchy_bias::run_figure1, optimized::run_optimized_with, tables, traced::run_traced_with,
    Scale,
};
use wwwcache::webcache::{
    generate_synthetic, Experiment, ExperimentStore, ProtocolSpec, SimConfig, SweepRunner,
    Workload, WorrellConfig,
};
use wwwcache::webtrace::campus::{generate_campus_trace, CampusProfile};
use wwwcache::webtrace::FileType;

use crate::alloc;
use crate::host;
use crate::layers::{replay, SimCounts};
use crate::report::Report;
use crate::stats::{fnv1a, median, per, FNV_OFFSET};

/// Digest of every result the `wcc all` sequence produces (rendered
/// tables and figures, `Debug` of the ablation results). Any change to
/// simulated behaviour changes it; a change of job count must not.
pub const PAPER_DIGEST: u64 = 0xd0cf_9426_d8d4_716f;

/// Set-up repetitions; the median is reported.
const SETUPS: usize = 7;

/// The seed `wcc all` uses for everything.
const PAPER_SEED: u64 = 1996;

/// Which family a sweep point belongs to (for per-family timings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Worrell workload, flat lifetimes, unbounded store.
    Flat,
    /// Campus traces, unbounded store.
    Campus,
    /// Campus trace, bounded LRU store.
    Lru,
}

struct Point {
    workload: usize,
    spec: ProtocolSpec,
    config: SimConfig,
    store: ExperimentStore,
    family: Family,
}

/// The seeded inputs of the point pass, plus the HCS trace the `wcc all`
/// ablations consume.
struct Inputs {
    /// `[flat, das, fas, hcs]`.
    workloads: Vec<Workload>,
    ablation_hcs: Workload,
}

fn generate(seed: u64) -> Inputs {
    let mut workloads = vec![generate_synthetic(&WorrellConfig::paper_run(), seed)];
    workloads.extend(
        CampusProfile::all()
            .iter()
            .map(|p| Workload::from_server_trace(&generate_campus_trace(p, seed).trace)),
    );
    let ablation_hcs = Workload::from_server_trace(
        &generate_campus_trace(&CampusProfile::hcs(), PAPER_SEED).trace,
    );
    Inputs {
        workloads,
        ablation_hcs,
    }
}

fn points(inputs: &Inputs) -> Vec<Point> {
    let scale = Scale::full();
    let sweep = |workload: usize, config: SimConfig, family: Family| {
        let mut specs: Vec<ProtocolSpec> = scale
            .alex_thresholds
            .iter()
            .map(|&p| ProtocolSpec::Alex(p))
            .collect();
        specs.extend(scale.ttl_hours.iter().map(|&h| ProtocolSpec::Ttl(h)));
        specs.push(ProtocolSpec::Invalidation);
        specs
            .into_iter()
            .map(move |spec| Point {
                workload,
                spec,
                config,
                store: ExperimentStore::Unbounded,
                family,
            })
            .collect::<Vec<_>>()
    };
    let mut pts = sweep(0, SimConfig::base(), Family::Flat);
    for w in 1..inputs.workloads.len() {
        pts.extend(sweep(w, SimConfig::optimized(), Family::Campus));
    }
    // The capacity ablation's points: HCS, Alex@30%, LRU at fractions of
    // the working set.
    let hcs = inputs.workloads.len() - 1;
    let wl = &inputs.workloads[hcs];
    let working_set: u64 = wl
        .population
        .iter()
        .filter_map(|(_, r)| r.version_at(wl.start).map(|v| v.size))
        .sum();
    for frac in [0.02, 0.1, 0.5, 2.0] {
        pts.push(Point {
            workload: hcs,
            spec: ProtocolSpec::Alex(30),
            config: SimConfig::optimized(),
            store: ExperimentStore::Lru(((working_set as f64 * frac) as u64).max(1)),
            family: Family::Lru,
        });
    }
    pts
}

/// One point's outcome in a pass.
struct PointRun {
    family: Family,
    ns: f64,
    requests: u64,
    server_ops: u64,
    bytes: u64,
    counts: SimCounts,
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    runs: Vec<PointRun>,
}

impl Pass {
    fn requests(&self) -> u64 {
        self.runs.iter().map(|p| p.requests).sum()
    }
}

fn point_pass(inputs: &Inputs, pts: &[Point], runner: &SweepRunner, probe: bool) -> Pass {
    let cpu0 = host::process_cpu_s();
    let started = Instant::now();
    let runs = runner.map(pts, |p| {
        let wl = &inputs.workloads[p.workload];
        let mut counts = SimCounts::default();
        let t = Instant::now();
        let experiment = Experiment::new(wl)
            .protocol(p.spec)
            .config(p.config)
            .store(p.store);
        let outcome = if probe {
            experiment.probe(&mut counts).run()
        } else {
            experiment.run()
        };
        let ns = t.elapsed().as_nanos() as f64;
        PointRun {
            family: p.family,
            ns,
            requests: outcome.result.cache.requests(),
            server_ops: outcome.result.server_ops(),
            bytes: outcome.result.traffic.total_bytes(),
            counts,
        }
    });
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - cpu0,
        runs,
    }
}

/// Request-weighted percentile of per-point cost (ns per simulated
/// request): every simulated request of a point costs that point's mean.
fn weighted_ns_per_req(runs: &[PointRun], q: f64) -> f64 {
    let mut costs: Vec<(f64, u64)> = runs
        .iter()
        .filter(|p| p.requests > 0)
        .map(|p| (p.ns / p.requests as f64, p.requests))
        .collect();
    costs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = costs.iter().map(|c| c.1).sum();
    let rank = ((q / 100.0) * total as f64).ceil() as u64;
    let mut seen = 0;
    for (cost, n) in costs {
        seen += n;
        if seen >= rank {
            return cost;
        }
    }
    0.0
}

/// Which span category an experiment call belongs to.
#[derive(Clone, Copy)]
enum Cat {
    Base,
    Optimized,
    Traced,
    Ablations,
    Other,
}

/// Per-category wall time of the experiment calls, seconds.
#[derive(Default)]
struct Spans([f64; 5]);

/// Run the `wcc all` sequence on `runner`; return its digest.
fn wcc_all(runner: &SweepRunner, hcs: &Workload, spans: &mut Spans) -> u64 {
    let mut digest = FNV_OFFSET;
    let mut call = |cat: Cat, f: &mut dyn FnMut() -> String| {
        let t = Instant::now();
        let out = f();
        spans.0[cat as usize] += t.elapsed().as_secs_f64();
        digest = fnv1a(digest, out.as_bytes());
    };
    let full = Scale::full();
    call(Cat::Other, &mut || {
        render_table1(&tables::table1_with(PAPER_SEED, runner))
    });
    call(Cat::Other, &mut || {
        render_table2(&tables::table2_with(PAPER_SEED, 150_000, runner))
    });
    call(Cat::Other, &mut || render_figure1(&run_figure1()));
    call(Cat::Base, &mut || {
        render_bandwidth_figure("Figure 2: bandwidth", &run_base_with(&full, runner))
    });
    call(Cat::Base, &mut || {
        render_missrate_figure("Figure 3: miss/stale rates", &run_base_with(&full, runner))
    });
    call(Cat::Optimized, &mut || {
        render_bandwidth_figure("Figure 4: bandwidth", &run_optimized_with(&full, runner))
    });
    call(Cat::Optimized, &mut || {
        render_missrate_figure(
            "Figure 5: miss/stale rates",
            &run_optimized_with(&full, runner),
        )
    });
    call(Cat::Traced, &mut || {
        render_bandwidth_figure(
            "Figure 6: bandwidth",
            &run_traced_with(&full, runner).averaged,
        )
    });
    call(Cat::Traced, &mut || {
        render_missrate_figure(
            "Figure 7: miss/stale rates",
            &run_traced_with(&full, runner).averaged,
        )
    });
    call(Cat::Traced, &mut || {
        render_server_load_figure(
            "Figure 8: server load",
            &run_traced_with(&full, runner).averaged,
        )
    });

    let alex20 = ProtocolSpec::Alex(20);
    let alex30 = ProtocolSpec::Alex(30);
    let a = Cat::Ablations;
    call(a, &mut || {
        format!(
            "{:?}",
            ablations::workload_ablation_with(800, 30_000, PAPER_SEED, runner)
        )
    });
    call(a, &mut || {
        format!(
            "{:?}",
            ablations::costing_ablation_with(hcs, alex20, runner)
        )
    });
    call(a, &mut || {
        let cgi = FileType::Cgi.class_index();
        format!(
            "{:?}",
            ablations::dynamic_content_ablation_with(hcs, alex20, cgi, runner)
        )
    });
    call(a, &mut || {
        format!(
            "{:?}",
            ablations::selftuning_comparison_with(hcs, &[5, 10, 20, 50, 100], runner)
        )
    });
    call(a, &mut || {
        format!(
            "{:?}",
            ablations::capacity_sweep_with(hcs, alex30, &[0.02, 0.1, 0.5, 2.0], runner)
        )
    });
    call(a, &mut || {
        format!(
            "{:?}",
            ablations::eviction_policy_comparison_with(hcs, alex30, 0.10, runner)
        )
    });
    call(a, &mut || {
        format!(
            "{:?}",
            ablations::latency_comparison_with(hcs, 150.0, 3_600.0, runner)
        )
    });
    call(a, &mut || {
        let outages = [Outage {
            from: hcs.start + SimDuration::from_days(5),
            until: hcs.start + SimDuration::from_days(5) + SimDuration::from_hours(12),
        }];
        format!(
            "{:?}",
            resilience_comparison_with(hcs, &outages, 10, runner)
        )
    });
    call(a, &mut || {
        format!("{:?}", ablations::severity_comparison_with(hcs, runner))
    });
    call(a, &mut || {
        format!(
            "{:?}",
            deployment_comparison_with(alex20, PAPER_SEED, 1, runner)
        )
    });
    call(a, &mut || {
        format!(
            "{:?}",
            wwwcache::webcache::run(hcs, ProtocolSpec::ClassTtlTable2, &SimConfig::optimized())
        )
    });
    digest
}

fn digest_gate(r: &mut Report, digest: u64, jobs: usize) {
    r.gate(
        format!(
            "paper_all digest {digest:#018x} at jobs {jobs} equals the pinned {PAPER_DIGEST:#018x}"
        ),
        digest == PAPER_DIGEST,
    );
}

/// Run `paper_all` for about `seconds`, filling `r`.
pub fn run(seed: u64, seconds: f64, traced: bool, r: &mut Report) {
    let t0 = Instant::now();
    let runner = SweepRunner::new(host::nproc());

    // Set-up: generating the inputs, several times; the median is the
    // set-up time.
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = Some(generate(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("generated at least once");
    let pts = points(&inputs);
    r.attempted = pts.len() as u64;

    if traced {
        traced_run(&inputs, &pts, &runner, setups[0], r);
        r.set("peak_rss_mb", host::peak_rss_mb());
        return;
    }
    r.set("setup_s", median(&setups).expect("at least one set-up"));

    // The `wcc all` sequence, repeated through ~55% of the run.
    let mut sweeps = Vec::new();
    while sweeps.len() < 3 || t0.elapsed().as_secs_f64() < 0.55 * seconds {
        let t = Instant::now();
        let digest = wcc_all(&runner, &inputs.ablation_hcs, &mut Spans::default());
        sweeps.push(t.elapsed().as_secs_f64());
        eprintln!(
            "perfbench: wcc all sequence {:.4}s",
            t.elapsed().as_secs_f64()
        );
        digest_gate(r, digest, runner.jobs());
    }
    r.set("sweep_s", median(&sweeps).expect("three sweeps"));

    // The point pass, repeated through the rest.
    let mut passes = Vec::new();
    while passes.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        let p = point_pass(&inputs, &pts, &runner, false);
        eprintln!(
            "perfbench: point pass {:.4}s p50 {:.2}ns cpu {:.2}ns/req",
            p.wall_s,
            weighted_ns_per_req(&p.runs, 50.0),
            1e9 * p.cpu_s / p.requests() as f64
        );
        passes.push(p);
    }
    let med = |f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).expect("passes")
    };
    r.set("p50_us", med(&|p| weighted_ns_per_req(&p.runs, 50.0) / 1e3));
    r.set(
        "cpu_us_per_req",
        med(&|p| 1e6 * p.cpu_s / p.requests() as f64),
    );
    // Simulated outcomes are deterministic per seed; any pass will do.
    let pass = &passes[0];
    let n = pass.requests() as f64;
    r.set(
        "origin_msgs_per_req",
        pass.runs.iter().map(|p| p.server_ops).sum::<u64>() as f64 / n,
    );
    r.gate(
        "every point pass simulated the same requests",
        passes.iter().all(|p| p.requests() == pass.requests()),
    );
}

fn traced_run(inputs: &Inputs, pts: &[Point], runner: &SweepRunner, gen_s: f64, r: &mut Report) {
    r.set("webtrace.gen_ms", 1e3 * gen_s);

    // Spans around each experiment call, at the measured job count.
    let mut spans = Spans::default();
    let digest = wcc_all(runner, &inputs.ablation_hcs, &mut spans);
    digest_gate(r, digest, runner.jobs());
    for (name, cat) in [
        ("core.exp_ms.base", Cat::Base),
        ("core.exp_ms.optimized", Cat::Optimized),
        ("core.exp_ms.traced", Cat::Traced),
        ("core.exp_ms.ablations", Cat::Ablations),
        ("core.exp_ms.other", Cat::Other),
    ] {
        r.set(name, 1e3 * spans.0[cat as usize]);
    }
    // The digest must not depend on the job count.
    for jobs in [1, 2] {
        if jobs != runner.jobs() {
            let d = wcc_all(
                &SweepRunner::new(jobs),
                &inputs.ablation_hcs,
                &mut Spans::default(),
            );
            digest_gate(r, d, jobs);
        }
    }

    // Point spans: per-family cost and the executor's busy fraction.
    let plain = point_pass(inputs, pts, runner, false);
    for (name, family) in [
        ("core.sim_ns_per_req.flat", Family::Flat),
        ("core.sim_ns_per_req.campus", Family::Campus),
        ("core.sim_ns_per_req.lru", Family::Lru),
    ] {
        let fam = plain.runs.iter().filter(|p| p.family == family);
        let ns: f64 = fam.clone().map(|p| p.ns).sum();
        let reqs: u64 = fam.map(|p| p.requests).sum();
        r.set(name, per(ns, reqs as f64));
    }
    r.set("p99_us", weighted_ns_per_req(&plain.runs, 99.0) / 1e3);
    let bytes: u64 = plain.runs.iter().map(|p| p.bytes).sum();
    r.set(
        "origin_kb_per_req",
        bytes as f64 / 1024.0 / plain.requests() as f64,
    );
    r.set("max_rps", plain.requests() as f64 / plain.wall_s);
    let busy: f64 = plain.runs.iter().map(|p| p.ns / 1e9).sum();
    r.set(
        "sweep.busy_frac",
        busy / (plain.wall_s * runner.jobs() as f64),
    );

    // Exact counts from a counting probe on the same points, and the
    // probe's cost against the plain pass.
    let probed = point_pass(inputs, pts, runner, true);
    let mut counts = SimCounts::default();
    for p in &probed.runs {
        counts.add(&p.counts);
    }
    r.gate(
        "the counting probe saw every simulated request",
        counts.requests == probed.requests(),
    );
    counts.report(r);
    r.set("trace.overhead_frac", probed.wall_s / plain.wall_s - 1.0);

    // Allocations per simulated request: exact at one job.
    alloc::start();
    let seq = point_pass(inputs, pts, &SweepRunner::sequential(), false);
    let allocs = alloc::stop();
    r.set(
        "alloc.per_sim_req",
        allocs.total as f64 / seq.requests() as f64,
    );

    // Replays of the HCS access stream as the simulator served it.
    let hcs = &inputs.workloads[inputs.workloads.len() - 1];
    let mut capture = SimCounts::capturing();
    Experiment::new(hcs)
        .protocol(ProtocolSpec::Alex(20))
        .probe(&mut capture)
        .run();
    replay(capture.stream.as_deref().unwrap_or_default(), hcs, r);
}
