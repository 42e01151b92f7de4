//! Per-layer measurements of the simulation substrates, taken from
//! outside: a counting [`Probe`] attached to `Experiment::run`, and
//! replays of a captured access stream through the public APIs of
//! `proxycache`, `consistency` and `simcore`.

use std::hint::black_box;
use std::time::Instant;

use wwwcache::consistency::{AdaptiveTtl, Policy, RequestCtx};
use wwwcache::proxycache::{EntryMeta, GdsStore, LruStore, Store};
use wwwcache::simcore::{EventQueue, FileId, SimTime};
use wwwcache::wcc_obs::{ObsEvent, Probe};
use wwwcache::webcache::Workload;

use crate::report::Report;
use crate::stats::{median, per};

/// Exact event counts of a simulation run, plus (optionally) the access
/// stream it served, in order.
#[derive(Debug, Default, Clone)]
pub struct SimCounts {
    /// Client requests classified.
    pub requests: u64,
    /// Events the engine dispatched.
    pub dispatched: u64,
    /// Freshness decisions the policy made.
    pub decisions: u64,
    /// Validation exchanges with the origin.
    pub validations: u64,
    /// Store evictions.
    pub evictions: u64,
    /// Accountable origin operations.
    pub server_ops: u64,
    /// `(instant, file)` of every request, when capturing.
    pub stream: Option<Vec<(SimTime, FileId)>>,
}

impl SimCounts {
    /// A counter that also captures the access stream.
    pub fn capturing() -> Self {
        SimCounts {
            stream: Some(Vec::new()),
            ..SimCounts::default()
        }
    }

    /// Field-wise sum (streams are not merged).
    pub fn add(&mut self, o: &SimCounts) {
        self.requests += o.requests;
        self.dispatched += o.dispatched;
        self.decisions += o.decisions;
        self.validations += o.validations;
        self.evictions += o.evictions;
        self.server_ops += o.server_ops;
    }

    /// Report the per-request counts.
    pub fn report(&self, r: &mut Report) {
        let n = self.requests as f64;
        r.set("simcore.events_per_req", per(self.dispatched as f64, n));
        r.set("consistency.decides_per_req", per(self.decisions as f64, n));
        r.set(
            "consistency.validations_per_req",
            per(self.validations as f64, n),
        );
        r.set(
            "proxycache.evictions_per_req",
            per(self.evictions as f64, n),
        );
        r.set("originserver.ops_per_req", per(self.server_ops as f64, n));
    }
}

impl Probe for SimCounts {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        match event {
            ObsEvent::Request { file, .. } => {
                self.requests += 1;
                if let Some(s) = &mut self.stream {
                    s.push((at, file));
                }
            }
            ObsEvent::Dispatched { .. } => self.dispatched += 1,
            ObsEvent::PolicyDecision { .. } => self.decisions += 1,
            ObsEvent::Validation { .. } => self.validations += 1,
            ObsEvent::Eviction { .. } => self.evictions += 1,
            ObsEvent::ServerOp { .. } => self.server_ops += 1,
            _ => {}
        }
    }
}

/// Nanoseconds per operation of `pass` (which performs `ops` operations),
/// as the median of repeated passes lasting at least ~40 ms in total.
fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || (started.elapsed().as_millis() < 40 && samples.len() < 200) {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples).unwrap_or(0.0)
}

/// Replay `stream` (served from `workload`'s file set) through an LRU
/// and a GreedyDual-Size store sized at a tenth of the working set, the
/// Alex 20% freshness decision, and the event queue; report ns per
/// operation.
pub fn replay(stream: &[(SimTime, FileId)], workload: &Workload, r: &mut Report) {
    if stream.is_empty() {
        return;
    }
    let meta = |t: SimTime, f: FileId| {
        let v = workload
            .population
            .get(f)
            .version_at(t)
            .expect("a requested file exists at its request instant");
        EntryMeta::fresh(v.size, v.modified_at, t)
    };
    let working_set: u64 = workload
        .population
        .iter()
        .filter_map(|(_, rec)| rec.version_at(workload.start).map(|v| v.size))
        .sum();
    let capacity = (working_set / 10).max(1);
    // Entry metadata is computed up front so the replays time the layer
    // under test, not the population lookup.
    let metas: Vec<EntryMeta> = stream.iter().map(|&(t, f)| meta(t, f)).collect();

    let lru = ns_per_op(stream.len(), || {
        let mut store = LruStore::new(capacity);
        for (&(t, f), m) in stream.iter().zip(&metas) {
            if store.access(f, t).is_none() {
                black_box(store.insert(f, *m));
            }
        }
        black_box(store.len());
    });
    let gds = ns_per_op(stream.len(), || {
        let mut store = GdsStore::new(capacity);
        for (&(t, f), m) in stream.iter().zip(&metas) {
            if store.access(f, t).is_none() {
                black_box(store.insert(f, *m));
            }
        }
        black_box(store.len());
    });

    // The decision sees each file's first-served copy, aging over the
    // stream — the mix of fresh and expired answers a cache meets.
    let mut first: Vec<Option<EntryMeta>> = vec![None; workload.population.len()];
    let entries: Vec<EntryMeta> = stream
        .iter()
        .zip(&metas)
        .map(|(&(_, f), m)| *first[f.index()].get_or_insert(*m))
        .collect();
    let policy = AdaptiveTtl::percent(20);
    let decide = ns_per_op(stream.len(), || {
        for (&(t, f), e) in stream.iter().zip(&entries) {
            let class = workload.classes.get(f.index()).copied().unwrap_or(0);
            black_box(policy.decide(e, &RequestCtx::new(t, class)));
        }
    });

    let queue = ns_per_op(2 * stream.len(), || {
        let mut q = EventQueue::new();
        for &(t, f) in stream {
            q.schedule(t, f);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    });

    r.set("proxycache.op_ns.lru", lru);
    r.set("proxycache.op_ns.gds", gds);
    r.set("consistency.decide_ns", decide);
    r.set("simcore.queue_op_ns", queue);
}
