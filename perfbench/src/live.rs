//! The live workloads: the real TCP origin + caching proxy
//! (`LiveStack`), driven open-loop by the benchmark's own client.
//!
//! * `live_hits`: a hit-dominated mix — 2,000 files, Zipf(1.0)
//!   popularity with the popular files the stable ones, 10% volatile,
//!   bodies of 256 B–20 KB, Alex 20%, unbounded store, warmed with one
//!   pass over the file set.
//! * `live_churn`: the paper's Worrell run (about 0.4 modifications per
//!   request, bodies of 256 B–1 MB) under invalidation, with an LRU store
//!   at 1/8 of the footprint.
//!
//! Every phase runs on a freshly spawned stack. An untraced run measures
//! nominal-rate phases — consecutive slices of the workload, so together
//! they replay most of it — for latency, stack CPU and origin load, then
//! lockstep passes (one connection, one request at a time) whose cache
//! counters must equal the simulator's. A traced run gives the per-layer
//! numbers, the tail latency and the `max_rps` knee search.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wwwcache::httpsim::{Request, Response};
use wwwcache::liveserve::{
    LivePolicy, LiveRunConfig, LiveStack, ProbeHandle, ProxySnapshot, StoreKind,
};
use wwwcache::simcore::{CacheStats, SimTime};
use wwwcache::wcc_obs::{ObsEvent, Probe, RequestOutcome};
use wwwcache::webcache::live::to_live_workload;
use wwwcache::webcache::{
    generate_synthetic, Experiment, ExperimentStore, LifetimeModel, PopularityModel, ProtocolSpec,
    SimConfig, Workload, WorkloadKnobs, WorrellConfig,
};

use crate::client::{get_bytes, length_ok, open_loop, Conn, Shot, Trial};
use crate::host;
use crate::layers::{replay, SimCounts};
use crate::report::Report;
use crate::stats::{median, per, percentile, KneeSearch};

/// Which live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hit-dominated: exercises the fresh-hit path.
    Hits,
    /// Miss- and invalidation-heavy: exercises upstream and control.
    Churn,
}

/// The latency objective `max_rps` is searched against, as a p99
/// sojourn: 2 ms on the hit workload. The churn workload's p99 is already
/// 1–4 ms unloaded (the invalidation and eviction tail), so a 2 ms
/// objective there would measure noise, not capacity; it gets 10 ms.
pub const SLO_P99_HITS: Duration = Duration::from_millis(2);
/// See [`SLO_P99_HITS`].
pub const SLO_P99_CHURN: Duration = Duration::from_millis(10);

/// Fixed nominal offered rates, req/s: a fifth (`live_hits`) and an
/// eighth (`live_churn`) of each workload's `max_rps` on the 2-vCPU
/// machine in `record.json`, below a quarter so that phases keep up,
/// without queueing, while other tenants of the host take CPU.
pub const NOMINAL_RPS_HITS: f64 = 8_000.0;
/// See [`NOMINAL_RPS_HITS`].
pub const NOMINAL_RPS_CHURN: f64 = 1_500.0;

/// Nominal-rate phases per run, each on a fresh stack and each its own
/// slice of the workload. A phase's latency and CPU depend on where the
/// scheduler happens to place the stack's threads on the shared host;
/// the median over several phases repeats far better from run to run
/// than one long phase does.
const NOMINAL_PHASES: usize = 8;

/// Share of the run the nominal phases take.
const NOMINAL_SHARE: f64 = 0.7;

/// The traced run's knee search stops starting trials at this share of
/// the run.
const SEARCH_END: f64 = 0.95;

/// A `max_rps` search trial lasts this long, and at least
/// [`TRIAL_WINDOWS`] windows of [`TRIAL_WINDOW`] requests.
const TRIAL_SECONDS: f64 = 0.5;
/// See [`TRIAL_SECONDS`].
const TRIAL_WINDOWS: usize = 5;
/// Requests per latency window of a search trial (p99 with ten samples
/// beyond it). A trial is judged by its median window, so one stall of
/// the host does not fail it.
const TRIAL_WINDOW: usize = 1_000;

/// Requests per lockstep pass.
const LOCKSTEP_REQUESTS: usize = 6_000;

/// Requests the hit workload generates: the nominal phases' slices at
/// 30 s runs.
const HITS_REQUESTS: usize = 200_000;

impl Kind {
    fn config(self) -> WorrellConfig {
        match self {
            Kind::Hits => WorrellConfig {
                files: 2_000,
                requests: HITS_REQUESTS,
                knobs: WorkloadKnobs {
                    lifetimes: LifetimeModel::Bimodal {
                        volatile_fraction: 0.10,
                        min_hours: 2.0,
                        max_hours: 280.0,
                    },
                    popularity: PopularityModel::Zipf {
                        exponent: 1.0,
                        correlate_stability: true,
                    },
                },
                size_max: 20_000.0,
                ..WorrellConfig::paper_run()
            },
            Kind::Churn => WorrellConfig::paper_run(),
        }
    }

    fn spec(self) -> ProtocolSpec {
        match self {
            Kind::Hits => ProtocolSpec::Alex(20),
            Kind::Churn => ProtocolSpec::Invalidation,
        }
    }

    fn policy(self) -> LivePolicy {
        match self {
            Kind::Hits => LivePolicy::Alex(20),
            Kind::Churn => LivePolicy::Invalidation,
        }
    }

    fn nominal_rps(self) -> f64 {
        match self {
            Kind::Hits => NOMINAL_RPS_HITS,
            Kind::Churn => NOMINAL_RPS_CHURN,
        }
    }

    fn slo_p99(self) -> Duration {
        match self {
            Kind::Hits => SLO_P99_HITS,
            Kind::Churn => SLO_P99_CHURN,
        }
    }

    /// Whether stacks are warmed with one pass over the file set.
    fn warm(self) -> bool {
        self == Kind::Hits
    }
}

/// A generated workload with everything the phases share.
struct Ctx {
    kind: Kind,
    workload: Workload,
    config: LiveRunConfig,
    store: ExperimentStore,
    /// Wire request per file.
    requests: Vec<Vec<u8>>,
    gen_s: f64,
    /// Set-up time of each nominal-rate phase: `gen_s` plus spawning
    /// the stack, bringing its clock to the slice and the warm pass.
    setups: Vec<f64>,
    clients: usize,
}

/// One phase: the trial as the client saw it, and what the stack
/// counted for it (the warm pass taken out).
struct Phase {
    trial: Trial,
    cache: CacheStats,
    snapshot: ProxySnapshot,
    origin_ops: u64,
    origin_bytes: u64,
}

impl Ctx {
    fn new(kind: Kind, seed: u64) -> Ctx {
        let t = Instant::now();
        let mut workload = generate_synthetic(&kind.config(), seed);
        // The simulator serves requests due at the same instant in file
        // order; the live replays use the same order, without which an
        // LRU store's recency (and so the lockstep comparison) differs.
        workload.requests.sort_unstable();
        let gen_s = t.elapsed().as_secs_f64();
        let (store, store_kind) = match kind {
            Kind::Hits => (ExperimentStore::Unbounded, StoreKind::Unbounded),
            Kind::Churn => {
                let footprint: u64 = workload
                    .population
                    .iter()
                    .filter_map(|(_, r)| r.version_at(workload.start).map(|v| v.size))
                    .sum();
                let cap = (footprint / 8).max(1);
                (ExperimentStore::Lru(cap), StoreKind::Lru(cap))
            }
        };
        let mut config = LiveRunConfig::new(kind.policy());
        config.store = store_kind;
        let requests = workload
            .population
            .iter()
            .map(|(_, r)| get_bytes(&r.path))
            .collect();
        Ctx {
            kind,
            workload,
            config,
            store,
            requests,
            gen_s,
            setups: Vec::new(),
            clients: host::nproc().clamp(1, 2),
        }
    }

    /// Spawn a stack with its clock at `at`, warmed if asked.
    fn spawn(&self, probe: &ProbeHandle, at: SimTime, warm: bool) -> io::Result<LiveStack> {
        let spec = to_live_workload(&self.workload).stack_spec();
        let stack = LiveStack::spawn(&spec, &self.config, probe)?;
        stack.advance_to(at);
        if warm {
            let mut conn = Conn::connect(stack.proxy_addr())?;
            for (id, _) in self.workload.population.iter() {
                let ex = conn.exchange(&self.requests[id.index()], false)?;
                if ex.status != 200 {
                    return Err(io::Error::other(format!("warm pass got {}", ex.status)));
                }
            }
        }
        Ok(stack)
    }

    /// One open-loop phase at `rate` on a fresh (warmed) stack: the `n`
    /// requests from index `from` on.
    fn phase(
        &mut self,
        rate: f64,
        from: usize,
        n: usize,
        probe: &ProbeHandle,
        count_allocs: bool,
    ) -> io::Result<Phase> {
        let slice = &self.workload.requests[from..(from + n).min(self.workload.requests.len())];
        let start = slice.first().map_or(self.workload.start, |&(at, _)| at);
        let shots: Vec<Shot> = slice
            .iter()
            .enumerate()
            .map(|(i, &(at, file))| Shot {
                due: Duration::from_secs_f64(i as f64 / rate),
                at,
                file,
            })
            .collect();
        let warm = self.kind.warm();
        // What the warm pass alone leaves in a stack's counters, to take
        // out of the phase's.
        let (warm_snap, warm_server) = if warm {
            self.spawn(&ProbeHandle::none(), start, true)?.shutdown()
        } else {
            Default::default()
        };
        let t = Instant::now();
        let stack = self.spawn(probe, start, warm)?;
        self.setups.push(self.gen_s + t.elapsed().as_secs_f64());
        let trial = open_loop(
            &stack,
            &self.workload.population,
            &self.requests,
            &shots,
            self.clients,
            count_allocs,
        )?;
        let (snapshot, server) = stack.shutdown();
        eprintln!(
            "perfbench: {rate:.0}/s x {}: completed {} failed {} p50 {:.1}us p99 {:.0}us cpu {:.2}us/req",
            shots.len(),
            trial.completed,
            trial.failed,
            pooled_us(&trial, 50.0).unwrap_or(f64::NAN),
            pooled_us(&trial, 99.0).unwrap_or(f64::NAN),
            per(trial.stack.cpu_ns as f64 / 1e3, trial.completed as f64),
        );
        Ok(Phase {
            trial,
            cache: minus_cache(&snapshot.cache, &warm_snap.cache),
            origin_ops: server.total_operations() - warm_server.total_operations(),
            origin_bytes: snapshot.traffic.total_bytes() - warm_snap.traffic.total_bytes(),
            snapshot,
        })
    }

    /// Requests in `seconds` at `rate`, at most `share` of the workload.
    fn phase_len(&self, rate: f64, seconds: f64, share: usize) -> usize {
        ((rate * seconds) as usize).clamp(1, self.workload.requests.len() / share)
    }

    /// The simulator's verdict on the lockstep prefix: the counters the
    /// live stack must reproduce exactly.
    fn sim_reference(&self, probe: Option<&mut SimCounts>) -> CacheStats {
        let prefix = self.prefix();
        let e = Experiment::new(&prefix)
            .protocol(self.kind.spec())
            .config(SimConfig::optimized().preload(false))
            .store(self.store);
        match probe {
            Some(p) => e.probe(p).run(),
            None => e.run(),
        }
        .result
        .cache
    }

    /// The workload cut to the lockstep pass's requests.
    fn prefix(&self) -> Workload {
        let n = LOCKSTEP_REQUESTS.min(self.workload.requests.len());
        Workload {
            requests: self.workload.requests[..n].to_vec(),
            ..self.workload.clone()
        }
    }
}

/// One lockstep pass: a fresh cold stack, one connection, the first
/// [`LOCKSTEP_REQUESTS`] requests one at a time in schedule order.
struct Lockstep {
    wall_s: f64,
    snapshot: ProxySnapshot,
    rtts: Vec<Duration>,
    advance: Duration,
    bad: u64,
    /// Captured `(request, response)` wire bytes, when traced.
    wire: Vec<(Vec<u8>, Vec<u8>)>,
    /// Origin-direct `(GET, IMS)` round trips, when traced.
    origin: Vec<(Duration, Duration)>,
}

fn lockstep(ctx: &Ctx, probe: &ProbeHandle, traced: bool) -> io::Result<Lockstep> {
    // Cold, as the simulator starts with pre-load off.
    let stack = ctx.spawn(probe, ctx.workload.start, false)?;
    let mut conn = Conn::connect(stack.proxy_addr())?;
    let n = LOCKSTEP_REQUESTS.min(ctx.workload.requests.len());
    let mut pass = Lockstep {
        wall_s: 0.0,
        snapshot: ProxySnapshot::default(),
        rtts: Vec::with_capacity(n),
        advance: Duration::ZERO,
        bad: 0,
        wire: Vec::new(),
        origin: Vec::new(),
    };
    let started = Instant::now();
    for &(at, file) in &ctx.workload.requests[..n] {
        let t = Instant::now();
        stack.advance_to(at);
        pass.advance += t.elapsed();
        let req = &ctx.requests[file.index()];
        let ex = conn.exchange(req, traced)?;
        if ex.status != 200 || !length_ok(&ex, &ctx.workload.population, file) {
            pass.bad += 1;
        }
        pass.rtts.push(ex.rtt);
        if let Some(w) = ex.wire {
            pass.wire.push((req.clone(), w));
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    if traced {
        pass.origin = origin_direct(&stack, ctx)?;
    }
    pass.snapshot = stack.shutdown().0;
    Ok(pass)
}

/// Round trips of requests sent straight to the origin for (up to 1,000
/// of) the files the lockstep pass touched: an unconditional `GET`, then
/// a conditional one carrying the `Last-Modified` it returned (answered
/// `304`).
fn origin_direct(stack: &LiveStack, ctx: &Ctx) -> io::Result<Vec<(Duration, Duration)>> {
    let mut conn = Conn::connect(stack.origin().data_addr())?;
    let mut seen = vec![false; ctx.workload.population.len()];
    let mut out = Vec::new();
    let n = LOCKSTEP_REQUESTS.min(ctx.workload.requests.len());
    for &(_, file) in &ctx.workload.requests[..n] {
        if std::mem::replace(&mut seen[file.index()], true) || out.len() >= 1_000 {
            continue;
        }
        let path = &ctx.workload.population.get(file).path;
        let get = conn.exchange(&get_bytes(path), false)?;
        let Some(lm) = get.last_modified.filter(|_| get.status == 200) else {
            return Err(io::Error::other(format!(
                "origin GET {path}: status {}",
                get.status
            )));
        };
        let ims = format!("GET {path} HTTP/1.0\r\nIf-Modified-Since: {lm}\r\n\r\n");
        let cond = conn.exchange(ims.as_bytes(), false)?;
        if cond.status != 304 {
            return Err(io::Error::other(format!(
                "origin IMS {path}: status {}",
                cond.status
            )));
        }
        out.push((get.rtt, cond.rtt));
    }
    Ok(out)
}

/// Request outcomes as the proxy decided them, in order.
#[derive(Default)]
struct Outcomes(Vec<RequestOutcome>);

impl Probe for Outcomes {
    fn record(&mut self, _at: SimTime, event: ObsEvent) {
        if let ObsEvent::Request { outcome, .. } = event {
            self.0.push(outcome);
        }
    }
}

/// Lock-contention events counted as they happen (a probe shared with
/// the stack's threads).
struct Contention(Arc<AtomicU64>);

impl Probe for Contention {
    fn record(&mut self, _at: SimTime, event: ObsEvent) {
        if let ObsEvent::LockContended { .. } = event {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median_us(ds: impl Iterator<Item = Duration>) -> f64 {
    median(&ds.map(micros).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn sorted_ns(ds: impl Iterator<Item = Duration>) -> Vec<u64> {
    let mut v: Vec<u64> = ds.map(|d| d.as_nanos() as u64).collect();
    v.sort_unstable();
    v
}

/// The `q`-th percentile sojourn over the whole trial, µs.
fn pooled_us(trial: &Trial, q: f64) -> Option<f64> {
    percentile(&sorted_ns(trial.sojourn.iter().map(|&(_, s)| s)), q).map(|ns| ns as f64 / 1e3)
}

/// Median over windows of [`TRIAL_WINDOW`] requests (in schedule order)
/// of each window's `q`-th percentile sojourn, µs.
fn windowed_us(trial: &Trial, q: f64) -> Option<f64> {
    let mut by_due = trial.sojourn.clone();
    by_due.sort_unstable_by_key(|&(due, _)| due);
    let per_window: Vec<f64> = by_due
        .chunks(TRIAL_WINDOW)
        .filter_map(|w| percentile(&sorted_ns(w.iter().map(|&(_, s)| s)), q))
        .map(|ns| ns as f64 / 1e3)
        .collect();
    median(&per_window)
}

/// Whether a search trial met the objective: nothing failed, the median
/// window's p99 within the SLO, and the generator kept up to the end (no
/// growing backlog).
fn meets_slo(trial: &Trial, slo: Duration) -> bool {
    let tail = &trial.late[trial.late.len() * 3 / 4..];
    let tail_late = median(&tail.iter().map(|d| micros(*d)).collect::<Vec<_>>());
    trial.failed == 0
        && trial.bad_length == 0
        && windowed_us(trial, 99.0).is_some_and(|p99| p99 <= micros(slo))
        && tail_late.is_some_and(|late| late <= micros(slo) / 2.0)
}

fn minus_cache(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        fresh_hits: a.fresh_hits - b.fresh_hits,
        stale_hits: a.stale_hits - b.stale_hits,
        misses: a.misses - b.misses,
        validations_not_modified: a.validations_not_modified - b.validations_not_modified,
        validations_modified: a.validations_modified - b.validations_modified,
    }
}

/// Requests served from the cache without contacting the origin.
fn fresh_share(c: &CacheStats) -> f64 {
    per(
        (c.fresh_hits - c.validations_not_modified) as f64,
        c.requests() as f64,
    )
}

/// Gates every nominal-rate phase must pass.
fn phase_gates(r: &mut Report, kind: Kind, p: &Phase) {
    let t = &p.trial;
    r.gate(
        "open-loop requests are conserved: offered = completed + failed",
        t.offered == t.completed + t.failed && p.cache.requests() == t.completed,
    );
    r.gate(
        "every 200 carries a Content-Length equal to its body and to a published size",
        t.bad_length == 0,
    );
    let fresh = fresh_share(&p.cache);
    match kind {
        Kind::Hits => r.gate(
            format!("live_hits fresh-hit share {fresh:.3} >= 0.90"),
            fresh >= 0.90,
        ),
        Kind::Churn => {
            r.gate(
                format!("live_churn fresh-hit share {fresh:.3} <= 0.60"),
                fresh <= 0.60,
            );
            r.gate(
                format!(
                    "live_churn serves no stale data under invalidation ({} stale)",
                    p.cache.stale_hits
                ),
                p.cache.stale_hits == 0,
            );
        }
    }
}

fn lockstep_gates(r: &mut Report, kind: Kind, pass: &Lockstep, sim: &CacheStats) {
    r.gate(
        "lockstep responses are all 200 with valid framing",
        pass.bad == 0,
    );
    r.gate(
        format!(
            "lockstep CacheStats equal the simulator's ({:?} vs {:?})",
            pass.snapshot.cache, sim
        ),
        pass.snapshot.cache == *sim,
    );
    if kind == Kind::Churn {
        r.gate(
            "lockstep serves no stale data under invalidation",
            pass.snapshot.cache.stale_hits == 0,
        );
    }
}

/// Run a live workload for about `seconds`, filling `r`.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, r: &mut Report) -> io::Result<()> {
    let t0 = Instant::now();
    let mut ctx = Ctx::new(kind, seed);
    let sim = ctx.sim_reference(None);
    if traced {
        return traced_run(&mut ctx, &sim, t0, seconds, r);
    }
    let none = ProbeHandle::none();

    // The nominal rate, a slice of the workload per phase.
    let rate = kind.nominal_rps();
    let n = ctx.phase_len(
        rate,
        NOMINAL_SHARE * seconds / NOMINAL_PHASES as f64,
        NOMINAL_PHASES,
    );
    let mut phases = Vec::with_capacity(NOMINAL_PHASES);
    for i in 0..NOMINAL_PHASES {
        let p = ctx.phase(rate, i * n, n, &none, false)?;
        phase_gates(r, kind, &p);
        phases.push(p);
    }
    let med = |f: &dyn Fn(&Phase) -> Option<f64>| {
        median(&phases.iter().filter_map(f).collect::<Vec<_>>())
            .ok_or_else(|| io::Error::other("no nominal phase had enough samples"))
    };
    r.set("p50_us", med(&|p| pooled_us(&p.trial, 50.0))?);
    r.set(
        "cpu_us_per_req",
        med(&|p| {
            Some(per(
                p.trial.stack.cpu_ns as f64 / 1e3,
                p.trial.completed as f64,
            ))
        })?,
    );
    let done: u64 = phases.iter().map(|p| p.trial.completed).sum();
    let ops: u64 = phases.iter().map(|p| p.origin_ops).sum();
    r.set("origin_msgs_per_req", per(ops as f64, done as f64));
    r.attempted = phases.iter().map(|p| p.trial.offered).sum();
    r.failed = phases.iter().map(|p| p.trial.failed).sum();

    // Lockstep passes through the rest of the run.
    let mut walls = Vec::new();
    while walls.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let pass = lockstep(&ctx, &none, false)?;
        lockstep_gates(r, kind, &pass, &sim);
        eprintln!("perfbench: lockstep pass {:.4}s", pass.wall_s);
        walls.push(pass.wall_s);
    }
    r.set("sweep_s", median(&walls).expect("two passes"));
    r.set("setup_s", median(&ctx.setups).expect("stacks were set up"));
    Ok(())
}

/// The highest rate whose trial meets the workload's objective: a fresh
/// stack per trial, each long enough for several latency windows. A
/// trial that misses is run once more, so a burst of contention from
/// outside cannot end the search early. Trials stop at `deadline`.
fn max_rps(ctx: &mut Ctx, deadline: impl Fn() -> bool) -> io::Result<f64> {
    let kind = ctx.kind;
    let mut search = KneeSearch::new(2.0 * kind.nominal_rps(), 1.5, 1.06);
    while let Some(rate) = search.next_rate() {
        if deadline() {
            break;
        }
        let secs = TRIAL_SECONDS.max((TRIAL_WINDOWS * TRIAL_WINDOW) as f64 / rate);
        let n = ctx.phase_len(rate, secs, 1);
        let mut pass = false;
        for _ in 0..2 {
            let trial = ctx.phase(rate, 0, n, &ProbeHandle::none(), false)?.trial;
            pass = meets_slo(&trial, kind.slo_p99());
            if pass {
                break;
            }
        }
        search.record(rate, pass);
    }
    Ok(search.best())
}

fn traced_run(
    ctx: &mut Ctx,
    sim: &CacheStats,
    t0: Instant,
    seconds: f64,
    r: &mut Report,
) -> io::Result<()> {
    let none = ProbeHandle::none();
    r.set("webtrace.gen_ms", 1e3 * ctx.gen_s);

    // The simulator on the lockstep prefix: exact counts, allocations,
    // and the access stream for the layer replays.
    let mut counts = SimCounts::capturing();
    crate::alloc::start();
    ctx.sim_reference(Some(&mut counts));
    let allocs = crate::alloc::stop().total;
    r.set(
        "alloc.per_sim_req",
        per(allocs as f64, counts.requests as f64),
    );
    counts.report(r);
    replay(
        counts.stream.as_deref().unwrap_or_default(),
        &ctx.prefix(),
        r,
    );

    // Lockstep, untraced then traced: the difference is the tracing
    // overhead; the traced pass pairs each round trip with the proxy's
    // decision.
    let plain = lockstep(ctx, &none, false)?;
    lockstep_gates(r, ctx.kind, &plain, sim);
    let handle = ProbeHandle::buffered(1 << 18);
    let pass = lockstep(ctx, &handle, true)?;
    lockstep_gates(r, ctx.kind, &pass, sim);
    let mut outcomes = Outcomes::default();
    let dropped = handle.with_buffer(|b| b.dropped()).unwrap_or(0);
    handle.drain_into(&mut outcomes);
    r.gate("the trace buffer kept every event", dropped == 0);
    r.gate(
        "one proxy decision per lockstep request",
        outcomes.0.len() == pass.rtts.len(),
    );
    r.set("trace.overhead_frac", pass.wall_s / plain.wall_s - 1.0);
    let rtt_of = |keep: fn(&RequestOutcome) -> bool| {
        median_us(
            outcomes
                .0
                .iter()
                .zip(&pass.rtts)
                .filter(|(o, _)| keep(o))
                .map(|(_, d)| *d),
        )
    };
    let miss = rtt_of(|o| matches!(o, RequestOutcome::Miss));
    r.set(
        "proxy.rtt_us.fresh_hit",
        rtt_of(|o| matches!(o, RequestOutcome::FreshHit)),
    );
    r.set("proxy.rtt_us.miss", miss);
    r.set(
        "proxy.rtt_us.validated",
        rtt_of(|o| {
            matches!(
                o,
                RequestOutcome::ValidatedFresh | RequestOutcome::ValidatedStale
            )
        }),
    );
    let get = median_us(pass.origin.iter().map(|o| o.0));
    r.set("origin.rtt_us.get", get);
    r.set(
        "origin.rtt_us.ims",
        median_us(pass.origin.iter().map(|o| o.1)),
    );
    r.set("proxy.miss_overhead_us", miss - get);
    let n = pass.rtts.len() as f64;
    r.set("origin.advance_us_per_req", micros(pass.advance) / n);
    r.set(
        "proxycache.evictions_per_req",
        pass.snapshot.evictions as f64 / n,
    );
    r.set(
        "control.invalidations_per_req",
        pass.snapshot.invalidations_delivered as f64 / n,
    );
    httpsim_timings(&pass.wire, r);

    // The nominal rate with host counters and allocation counting on the
    // stack's threads.
    let rate = ctx.kind.nominal_rps();
    let p = ctx.phase(rate, 0, ctx.phase_len(rate, 0.3 * seconds, 1), &none, true)?;
    phase_gates(r, ctx.kind, &p);
    r.set("p99_us", pooled_us(&p.trial, 99.0).unwrap_or(0.0));
    let (t, c) = (&p.trial, &p.cache);
    r.attempted = t.offered;
    r.failed = t.failed;
    let done = t.completed as f64;
    r.set("cache.fresh_hit_frac", fresh_share(c));
    r.set("cache.miss_frac", per(c.misses as f64, done));
    r.set(
        "cache.validate_frac",
        per(
            (c.validations_not_modified + c.validations_modified) as f64,
            done,
        ),
    );
    r.set("stale_frac", per(c.stale_hits as f64, done));
    r.set(
        "origin_kb_per_req",
        per(p.origin_bytes as f64 / 1024.0, done),
    );
    r.set("fail_frac", per(t.failed as f64, t.offered as f64));
    r.set("host.ctxsw_per_req", per(t.stack.ctxsw as f64, done));
    r.set("host.syscalls_per_req", per(t.stack.syscalls as f64, done));
    r.set("host.allocs_per_req", per(t.stack_allocs as f64, done));
    r.set(
        "host.runq_wait_us_per_req",
        per(t.stack.runq_ns as f64 / 1e3, done),
    );
    r.set(
        "load.client_cpu_us_per_req",
        per(t.clients.cpu_ns as f64 / 1e3, done),
    );
    let late = sorted_ns(t.late.iter().copied());
    r.set(
        "load.late_p99_us",
        percentile(&late, 99.0).map_or(0.0, |ns| ns as f64 / 1e3),
    );
    let s = &p.snapshot;
    let checkouts = s.upstream_reuses + s.upstream_dials;
    r.set(
        "pool.reuse_frac",
        per(s.upstream_reuses as f64, checkouts as f64),
    );
    r.set("pool.saturations", s.upstream_saturations as f64);

    // The nominal rate again with a counting probe: lock contention.
    let contended = Arc::new(AtomicU64::new(0));
    let probe = ProbeHandle::new(Box::new(Contention(Arc::clone(&contended))));
    let p = ctx.phase(
        rate,
        0,
        ctx.phase_len(rate, 0.2 * seconds, 1),
        &probe,
        false,
    )?;
    phase_gates(r, ctx.kind, &p);
    r.set(
        "sync.contended_per_req",
        per(
            contended.load(Ordering::Relaxed) as f64,
            p.trial.completed as f64,
        ),
    );

    let best = max_rps(ctx, || t0.elapsed().as_secs_f64() > SEARCH_END * seconds)?;
    r.set("max_rps", best);
    r.set("peak_rss_mb", host::peak_rss_mb());
    Ok(())
}

/// Encode and decode timings of the captured exchanges through
/// `httpsim`: the request and response of one exchange, ns per exchange.
fn httpsim_timings(wire: &[(Vec<u8>, Vec<u8>)], r: &mut Report) {
    let parsed: Vec<(Request, Response, Vec<u8>)> = wire
        .iter()
        .filter_map(|(req, resp)| {
            let (q, _) = Request::from_bytes(req).ok()??;
            let (p, body, _) = Response::from_bytes(resp).ok()??;
            Some((q, p, body))
        })
        .collect();
    r.gate(
        "httpsim parses every captured exchange",
        parsed.len() == wire.len() && !wire.is_empty(),
    );
    let ns_per_exchange = |f: &mut dyn FnMut()| {
        let mut samples = Vec::new();
        let t = Instant::now();
        while samples.len() < 3 || (t.elapsed() < Duration::from_millis(100) && samples.len() < 50)
        {
            let s = Instant::now();
            f();
            samples.push(s.elapsed().as_nanos() as f64 / wire.len().max(1) as f64);
        }
        median(&samples).unwrap_or(0.0)
    };
    let encode = ns_per_exchange(&mut || {
        for (q, p, body) in &parsed {
            std::hint::black_box(q.to_bytes());
            std::hint::black_box(p.to_bytes(body));
        }
    });
    let decode = ns_per_exchange(&mut || {
        for (req, resp) in wire {
            std::hint::black_box(Request::from_bytes(req).ok());
            std::hint::black_box(Response::from_bytes(resp).ok());
        }
    });
    r.set("httpsim.encode_ns", encode);
    r.set("httpsim.decode_ns", decode);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SLOs and nominal rates recorded in `record.json` are the ones
    /// the benchmark runs.
    #[test]
    fn record_matches_the_constants() {
        let record = include_str!("../record.json");
        let line = |key: &str| {
            record
                .lines()
                .find(|l| l.contains(&format!("\"{key}\"")))
                .expect("key present")
                .to_string()
        };
        let rates = line("nominal_rps");
        assert!(rates.contains(&format!("\"live_hits\": {}", NOMINAL_RPS_HITS)));
        assert!(rates.contains(&format!("\"live_churn\": {}", NOMINAL_RPS_CHURN)));
        let slo = line("slo_p99_ms");
        assert!(slo.contains(&format!("\"live_hits\": {}", SLO_P99_HITS.as_millis())));
        assert!(slo.contains(&format!("\"live_churn\": {}", SLO_P99_CHURN.as_millis())));
    }
}
