//! The live caching proxy.
//!
//! [`LiveProxy`] fronts a [`LiveOrigin`](crate::LiveOrigin) (or any
//! server speaking the same HTTP/1.0 subset): clients connect to its
//! data port, and each request is served from the in-memory cache or
//! fetched/revalidated upstream over a pooled persistent origin
//! connection. Each shard's cache is a `consistency::CacheNode` — the
//! one request path the simulators run too (DESIGN.md §16) — so a
//! single-threaded replay produces the optimized simulator's counters.
//! This module is the node's live driver: it resolves paths, performs
//! the upstream step the node asks for on a pooled socket, keeps bodies
//! and subscriptions in step with what the node holds, and layers
//! sharding and single-flight on top.
//!
//! **Sharding.** Cache state is split into `shards` independent
//! [`Shard`]s, routed by [`shard_for`] (`FileId` index modulo the shard
//! count). Each shard owns its own mutex, its own store and policy
//! instance, its own bounded [`UpstreamPool`] of keep-alive origin
//! connections, and — under the invalidation mechanism — its own
//! persistent control connection, so the proxy scales with cores
//! instead of serializing on one global lock and one origin socket.
//! Requests for different files on different shards never contend; the
//! run's totals are the merge of the per-shard counters. With one shard
//! the topology degenerates to exactly the pre-sharding proxy, which is
//! what keeps the single-threaded differential test counter-exact.
//!
//! **Single-flight.** Concurrent misses for the same file coalesce: the
//! first request registers the file as in flight and fetches; followers
//! wait on the shard's condvar and re-evaluate, finding the freshly
//! inserted copy. One cold file under a thundering herd costs one
//! upstream fetch, and the delayed-hit window is first-class instead of
//! N duplicate transfers.
//!
//! Under the invalidation policy each shard keeps one persistent
//! control connection to the origin: it subscribes a new entry before
//! committing it (the node flags the step), unsubscribes the entries a
//! commit removes, and a dedicated reader thread applies `INVALIDATE`
//! notices to the node before acknowledging. A file's subscriptions
//! always travel over its owning shard's channel, so
//! subscribe-before-insert and victim-unsubscribe ordering are
//! preserved per shard.
//!
//! **Threads.** Every request is decided on the reactor thread that read
//! it: one shard-lock acquisition resolves the single-flight check and
//! the node's decision, and a fresh hit is written back from there with
//! no hand-off. Only what blocks is deferred to the dispatch workers:
//! the pooled upstream exchange (checkout → exchange → checkin, with
//! the step already decided), the single-flight follower's wait, and
//! the control round-trips a commit needs.
//!
//! Locking: a shard's mutex guards that shard's state (node + bodies +
//! single-flight set) and is only ever held for in-memory work, which
//! is what lets a reactor thread take it. The node decides under the
//! lock, the exchange runs on a worker with the lock released, and the
//! reply is committed under it again. Checkouts, condvar waits and
//! control round-trips run on workers only.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use consistency::{
    AdaptiveTtl, CacheNode, Commit, Exchange, FixedTtl, LinkModel, NeverExpire, Policy,
    RenewableTtl, Reply, Step, UpdateRisk,
};
use httpsim::{Request, Response, Status};
use originserver::FilePopulation;
use proxycache::{shard_capacity, AnyStore, Evicted, Store};
use simcore::{CacheStats, FileId, SimDuration, SimTime, TrafficMeter};
use wcc_obs::{ObsEvent, ProbeHandle};
use wcc_sync::{RankedCondvar, RankedGuard, RankedMutex};

use crate::clock::{sim_instant, wall_date, LiveClock};
use crate::control::{write_msg, ControlMsg, LineConn};
use crate::netio::{log_conn_error, HttpConn, DEFAULT_READ_BUDGET_TICKS, POLL_TICK};
use crate::pool::UpstreamPool;
use crate::reactor::{Answer, Deferred, Dispatch, Reactor, ReactorConfig, Routed};

/// Keep-alive origin connections per shard. Misses and validations are
/// a minority of requests once the cache warms, so a few pooled sockets
/// per shard absorb them without the one-conn-per-client sprawl.
const UPSTREAM_CONNS_PER_SHARD: usize = 4;

/// Rank of the dynamic path⇄id table: taken before any shard state lock
/// (`resolve` runs at request entry, with nothing else held).
// wcc-lock-rank: proxy.dynamic_names 55
const DYNAMIC_NAMES_RANK: u32 = 55;

/// Rank of a shard's cache-state mutex. Below the upstream pool (75) —
/// never hold state across a checkout — and below the probe leaf (95).
// wcc-lock-rank: proxy.state 60
const STATE_RANK: u32 = 60;

/// Rank of a shard's control-channel writer. Above state: the control
/// reader applies an invalidation under the state lock, drops it, then
/// takes the writer to ACK.
// wcc-lock-rank: proxy.control.writer 65
const CONTROL_WRITER_RANK: u32 = 65;

/// Rank of a shard's `OK` receiver; taken after the writer in
/// `control_roundtrip`, never with state held.
// wcc-lock-rank: proxy.control.ok_rx 70
const CONTROL_OK_RANK: u32 = 70;

/// The shard owning `file`: a pure function of the id and the shard
/// count, so every thread (request workers, control readers) routes a
/// file to the same state without coordination.
pub fn shard_for(file: FileId, shards: usize) -> usize {
    file.index() % shards.max(1)
}

/// The consistency mechanisms the live stack runs — the paper's three
/// plus the delay-aware literature policies, as cache-side policies plus
/// the invalidation wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivePolicy {
    /// Fixed TTL in hours.
    Ttl(u64),
    /// The Alex protocol with an update threshold in percent.
    Alex(u32),
    /// Server-driven invalidation callbacks.
    Invalidation,
    /// Delay-aware renewable TTL (arXiv 2201.11577), horizon in hours.
    RenewableTtl(u64),
    /// Update-risk freshness bound (arXiv 2412.20221), in percent.
    UpdateRisk(u32),
}

impl LivePolicy {
    /// Instantiate the cache-side policy object. Each shard holds its
    /// own instance: the paper's three mechanisms are stateless (expiry
    /// is a function of the entry alone), so replication cannot change
    /// aggregate counts; the delay-aware policies learn per-class state
    /// from their own shard's exchanges, which is exact at one shard
    /// (the differential configuration) and shard-local beyond that.
    pub fn build(self) -> Box<dyn Policy + Send> {
        match self {
            LivePolicy::Ttl(hours) => Box::new(FixedTtl::hours(hours)),
            LivePolicy::Alex(pct) => Box::new(AdaptiveTtl::percent(pct)),
            LivePolicy::Invalidation => Box::new(NeverExpire),
            LivePolicy::RenewableTtl(hours) => Box::new(RenewableTtl::hours(hours)),
            LivePolicy::UpdateRisk(pct) => Box::new(UpdateRisk::percent(pct)),
        }
    }

    /// Whether this mechanism needs the control channel.
    pub fn uses_invalidation(self) -> bool {
        matches!(self, LivePolicy::Invalidation)
    }

    /// Report label, matching `ProtocolSpec::label`.
    pub fn label(self) -> String {
        match self {
            LivePolicy::Ttl(h) => format!("TTL {h}h"),
            LivePolicy::Alex(p) => format!("Alex {p}%"),
            LivePolicy::Invalidation => "Invalidation".to_string(),
            LivePolicy::RenewableTtl(h) => format!("RenewableTTL {h}h"),
            LivePolicy::UpdateRisk(p) => format!("UpdateRisk {p}%"),
        }
    }
}

/// Where the proxy gets the `delay` it hands to delay-aware policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelaySource {
    /// Price every exchange with a deterministic [`LinkModel`], exactly
    /// as the simulator does — the differential-test configuration, and
    /// the default.
    Modeled(LinkModel),
    /// Measure real wall-clock upstream round-trips (whole seconds).
    /// Decide-time delay is reported as zero so freshness decisions stay
    /// out of the timing loop; policies fall back to their per-class
    /// observed history fed by `on_fetch`.
    Measured,
}

impl Default for DelaySource {
    fn default() -> Self {
        DelaySource::Modeled(LinkModel::default())
    }
}

/// Which `proxycache` store backs the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// The paper's infinite cache.
    Unbounded,
    /// Byte-bounded LRU.
    Lru(u64),
    /// Byte-bounded FIFO.
    Fifo(u64),
    /// Byte-bounded GreedyDual-Size.
    Gds(u64),
    /// Byte-bounded score-gated LFU.
    Lfu(u64),
}

impl StoreKind {
    /// Shard `shard`'s store instance: unbounded stores are simply
    /// replicated; bounded stores split the byte budget evenly
    /// (`proxycache::shard_capacity`), trading global for per-shard
    /// eviction pressure.
    fn build_shard(self, shard: usize, shards: usize) -> AnyStore {
        match self {
            StoreKind::Unbounded => AnyStore::unbounded(),
            StoreKind::Lru(cap) => AnyStore::lru(shard_capacity(cap, shard, shards)),
            StoreKind::Fifo(cap) => AnyStore::fifo(shard_capacity(cap, shard, shards)),
            StoreKind::Gds(cap) => AnyStore::gds(shard_capacity(cap, shard, shards)),
            StoreKind::Lfu(cap) => AnyStore::lfu(shard_capacity(cap, shard, shards)),
        }
    }
}

/// Configuration for [`LiveProxy::spawn`].
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// The origin's HTTP data address.
    pub origin_data: SocketAddr,
    /// The origin's invalidation control address (dialled only when the
    /// policy uses invalidation).
    pub origin_control: SocketAddr,
    /// Consistency mechanism.
    pub policy: LivePolicy,
    /// Cache store.
    pub store: StoreKind,
    /// Cache shards (0 is treated as 1). Each shard gets its own lock,
    /// store, upstream pool, and control connection.
    pub shards: usize,
    /// The clock freshness decisions are made against.
    pub clock: LiveClock,
    /// When present, the origin's scripted population: ids/paths are
    /// prefilled from it and local hits are classified fresh-vs-stale
    /// against it (the simulator's omniscient-observer measurement).
    /// Without it every local hit counts as fresh.
    pub ground_truth: Option<Arc<FilePopulation>>,
    /// Per-file document class, indexed by [`FileId`] (empty ⇒ class 0).
    pub classes: Vec<usize>,
    /// Uncacheable-class bitmask, as in `SimConfig`.
    pub uncacheable_mask: u32,
    /// How fetch/validation delay is priced for delay-aware policies.
    pub delay: DelaySource,
    /// Bind address for the client-facing listener.
    pub bind: String,
    /// Observation hook for request decisions, validations, and
    /// evictions. Inactive by default; recording happens in memory only
    /// (never across socket IO).
    pub probe: ProbeHandle,
    /// Reactor (event-loop) threads serving the client listener.
    pub reactor_threads: usize,
    /// Worker threads for upstream work: the pooled exchanges of misses
    /// and validations and single-flight waits, which block and so never
    /// run on a reactor thread. Fresh hits are answered by the reactor.
    pub dispatch_threads: usize,
    /// Concurrent client-connection cap; accepts beyond it are shed.
    pub max_conns: usize,
}

impl ProxyConfig {
    /// A loopback proxy in front of the given origin addresses.
    pub fn new(
        origin_data: SocketAddr,
        origin_control: SocketAddr,
        policy: LivePolicy,
        clock: LiveClock,
    ) -> Self {
        ProxyConfig {
            origin_data,
            origin_control,
            policy,
            store: StoreKind::Unbounded,
            shards: 1,
            clock,
            ground_truth: None,
            classes: Vec::new(),
            uncacheable_mask: 0,
            delay: DelaySource::default(),
            bind: "127.0.0.1:0".to_string(),
            probe: ProbeHandle::none(),
            reactor_threads: 1,
            dispatch_threads: DEFAULT_DISPATCH_THREADS,
            max_conns: crate::origin::DEFAULT_MAX_CONNS,
        }
    }
}

/// Default worker count for upstream work. Upstream IO and
/// single-flight waits happen there; a handful of workers keeps the
/// reactor threads free to move bytes and answer hits.
pub(crate) const DEFAULT_DISPATCH_THREADS: usize = 4;

/// The counters a run accumulates, frozen at shutdown. For a sharded
/// proxy this is the merge of every shard's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxySnapshot {
    /// Hit/miss/validation classification (same type the simulator
    /// reports).
    pub cache: CacheStats,
    /// Proxy↔origin traffic. `message_bytes` counts real wire bytes
    /// (the simulator's `PaperConstant` costing charges 43 per message
    /// instead); message and file-transfer *counts* match the simulator.
    pub traffic: TrafficMeter,
    /// Total staleness-severity across stale hits.
    pub stale_age_total: SimDuration,
    /// `INVALIDATE` notices received and acknowledged.
    pub invalidations_delivered: u64,
    /// Entries evicted by a bounded store.
    pub evictions: u64,
    /// Upstream connections dialled across all shard pools.
    pub upstream_dials: u64,
    /// Upstream checkouts served by a pooled keep-alive connection.
    pub upstream_reuses: u64,
    /// Upstream checkouts refused because a shard pool's waiter cap was
    /// reached (a `PoolSaturated` error) — the signature of
    /// proxy→origin saturation under open-loop overload.
    pub upstream_saturations: u64,
}

/// Everything one shard's mutex guards: the shard's [`CacheNode`] plus
/// what only the live stack needs — the bodies and the single-flight set.
/// `bodies` holds exactly the node's resident entries: every commit
/// that changes residency is settled under this lock.
struct CacheState {
    node: CacheNode<AnyStore, ProbeHandle>,
    bodies: HashMap<FileId, Arc<Vec<u8>>>,
    /// Files with a single-flight upstream fetch in progress; misses on
    /// these wait on the shard condvar instead of fetching again.
    in_flight: HashSet<FileId>,
}

impl CacheState {
    /// The client response for the resident copy of `file`.
    fn serve_local(&self, file: FileId, now: SimTime) -> io::Result<Answer> {
        let (Some(entry), Some(body)) = (self.node.store().peek(file), self.bodies.get(&file))
        else {
            return Err(io::Error::other("resident entry without a body"));
        };
        let mut resp = Response::ok(
            wall_date(now),
            wall_date(entry.last_modified),
            body.len() as u64,
        );
        if let Some(exp) = entry.expires {
            resp = resp.with_expires(wall_date(exp));
        }
        Ok((resp, Arc::clone(body)))
    }
}

/// One cache shard: its state lock, the condvar miss-coalescing waits
/// on, its upstream pool, and (under invalidation) its control channel.
struct Shard {
    state: RankedMutex<CacheState>,
    /// Signalled whenever `in_flight` shrinks.
    flights: RankedCondvar,
    pool: UpstreamPool,
    control: Option<ControlHandle>,
}

/// Path ⇄ id mapping. Ground-truth paths are prefilled into an
/// immutable table read without any lock (the hot path); paths first
/// seen on the wire get ids past the prefilled range, behind a mutex.
#[derive(Default)]
struct Names {
    by_path: HashMap<String, FileId>,
    paths: Vec<String>,
}

/// A shard's half of its control channel: commands go out through the
/// shared writer; the reader thread forwards `OK`s to whichever
/// subscriber is waiting.
struct ControlHandle {
    writer: RankedMutex<TcpStream>,
    ok_rx: RankedMutex<mpsc::Receiver<()>>,
}

struct ProxyShared {
    shards: Vec<Shard>,
    static_names: Names,
    dynamic_names: RankedMutex<Names>,
    classes: Vec<usize>,
    delay: DelaySource,
    uses_invalidation: bool,
    clock: LiveClock,
    probe: ProbeHandle,
    shutdown: AtomicBool,
}

/// Clears a registered single-flight entry when the fetch concludes —
/// on *every* exit path, including errors and deferred work dropped
/// unrun at shutdown, so followers are never stranded waiting on a dead
/// flight. Owned by the leader's deferred work, not rebuilt inside it.
struct FlightGuard {
    shared: Arc<ProxyShared>,
    file: FileId,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        let shard = self.shared.shard(self.file);
        let mut st = shard.state.lock();
        st.in_flight.remove(&self.file);
        // Notify while the guard is live so a follower's predicate check
        // can never race the removal (wcc-analyze r7).
        shard.flights.notify_all(&st);
    }
}

/// One client request, resolved: what every decision about it needs.
struct Ask {
    file: FileId,
    class: usize,
    path: String,
    now: SimTime,
}

/// The outcome of one decision under a shard lock.
enum Decision<'a> {
    /// A local hit: the response for the resident copy.
    Serve(io::Result<Answer>),
    /// The upstream step the node asks for; a full fetch leads its
    /// single flight and carries the registration.
    Upstream(Step, Option<FlightGuard>),
    /// Another request leads a fetch of this file. The shard guard is
    /// handed over so a wait on the flight cannot miss its wakeup.
    Follow(&'a Shard, RankedGuard<'a, CacheState>),
}

impl ProxyShared {
    fn class_of(&self, file: FileId) -> usize {
        self.classes.get(file.index()).copied().unwrap_or(0)
    }

    fn shard(&self, file: FileId) -> &Shard {
        &self.shards[shard_for(file, self.shards.len())]
    }

    /// Path → id. Ground-truth paths resolve without taking any lock;
    /// only never-before-seen paths touch the dynamic table.
    fn resolve(&self, path: &str) -> FileId {
        if let Some(&id) = self.static_names.by_path.get(path) {
            return id;
        }
        let base = self.static_names.paths.len();
        let mut names = self.dynamic_names.lock();
        if let Some(&id) = names.by_path.get(path) {
            return id;
        }
        let id = FileId::from_index(base + names.paths.len());
        names.by_path.insert(path.to_string(), id);
        names.paths.push(path.to_string());
        id
    }

    fn path_of(&self, file: FileId) -> String {
        let idx = file.index();
        if let Some(path) = self.static_names.paths.get(idx) {
            return path.clone();
        }
        self.dynamic_names
            .lock()
            .paths
            .get(idx - self.static_names.paths.len())
            .cloned()
            .unwrap_or_default()
    }

    // --- control channel -------------------------------------------------

    /// Send one subscription command over `shard`'s control channel and
    /// wait for its `OK`. Never called with any state lock held (the
    /// reader thread needs the writer to `ACK` invalidations, and the
    /// shard lock to apply them).
    fn control_roundtrip(&self, shard: &Shard, msg: &ControlMsg) {
        let Some(control) = shard.control.as_ref() else {
            return;
        };
        if write_msg(&mut control.writer.lock(), msg).is_err() {
            return;
        }
        let ok_rx = control.ok_rx.lock();
        loop {
            match ok_rx.recv_timeout(POLL_TICK) {
                Ok(()) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Subscribe `file` over its owning shard's control channel.
    fn subscribe_sync(&self, file: FileId) {
        self.control_roundtrip(self.shard(file), &ControlMsg::Subscribe(self.path_of(file)));
    }

    fn unsubscribe_victims(&self, victims: &Evicted) {
        if !self.uses_invalidation {
            return;
        }
        for &(victim, _) in victims.iter() {
            self.control_roundtrip(
                self.shard(victim),
                &ControlMsg::Unsubscribe(self.path_of(victim)),
            );
        }
    }

    /// Shard `shard_idx`'s control reader thread: applies `INVALIDATE`
    /// notices to the owning shard's state, then acknowledges; forwards
    /// `OK`s to waiting subscribers.
    fn control_reader(&self, shard_idx: usize, mut conn: LineConn, ok_tx: mpsc::Sender<()>) {
        let result: io::Result<()> = (|| {
            while let Some(msg) = conn.read_msg(&self.shutdown)? {
                match msg {
                    ControlMsg::Invalidate(path) => {
                        let file = self.resolve(&path);
                        let inv_bytes = msg_len(&ControlMsg::Invalidate(path));
                        let ack_bytes = msg_len(&ControlMsg::Ack);
                        {
                            // The origin routes INVALIDATE over the
                            // subscribing shard's channel, so this is the
                            // reader's own shard; route by file anyway so
                            // a misdirected notice can never corrupt a
                            // foreign shard's accounting.
                            let mut st = self.shard(file).state.lock();
                            // One invalidation = one control message
                            // (notice + ack), as in the simulator's
                            // `invalidation_message` costing.
                            let now = self.clock.now();
                            st.node.on_invalidate(file, now, inv_bytes + ack_bytes);
                        }
                        // Ack only after the entry is marked: once the
                        // origin sees the ACK, no client can be served
                        // the stale copy. The ACK goes back on the
                        // connection the notice arrived on.
                        if let Some(control) = self
                            .shards
                            .get(shard_idx)
                            .and_then(|shard| shard.control.as_ref())
                        {
                            write_msg(&mut control.writer.lock(), &ControlMsg::Ack)?;
                        }
                    }
                    ControlMsg::Ok => {
                        let _ = ok_tx.send(());
                    }
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected control message at proxy: {other:?}"),
                        ));
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            // Channel death is handled by the run winding down; still
            // worth a log line so protocol violations are visible.
            log_conn_error("proxy-control", &e);
        }
    }

    // --- request path ----------------------------------------------------

    /// The delay charged to `Policy::on_fetch` for a completed upstream
    /// exchange that moved `bytes` of body. Modeled pricing is
    /// wall-clock independent; measured mode uses the elapsed time since
    /// `started` (captured before the request was written, with no
    /// locks held across the exchange).
    fn exchange_delay(&self, bytes: u64, started: std::time::Instant) -> SimDuration {
        match self.delay {
            DelaySource::Modeled(link) => link.delay_for(bytes),
            DelaySource::Measured => SimDuration::from_secs(started.elapsed().as_secs()),
        }
    }

    /// Wait (one tick at most) for `file`'s in-flight fetch to conclude.
    /// Consumes the shard guard; the caller decides again afterwards.
    fn wait_for_flight<'a>(
        &self,
        shard: &'a Shard,
        st: RankedGuard<'a, CacheState>,
    ) -> io::Result<()> {
        // wcc-allow: r7 one bounded tick per call; the follower decides again under a fresh guard after every wait
        let (guard, _timed_out) = shard.flights.wait_timeout(st, POLL_TICK);
        drop(guard);
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "shutdown while waiting on an in-flight fetch",
            ));
        }
        Ok(())
    }

    /// The one decision for a request: take its shard lock, check the
    /// single-flight set, and otherwise let the shard's [`CacheNode`]
    /// decide. Only in-memory work runs under the lock, so this is safe
    /// on a reactor thread.
    fn decide(self: &Arc<Self>, ask: &Ask) -> Decision<'_> {
        let shard = self.shard(ask.file);
        let mut st = shard.state.lock();
        if st.was_contended() {
            self.probe
                .record(ask.now, ObsEvent::LockContended { rank: STATE_RANK });
        }
        if st.in_flight.contains(&ask.file) {
            return Decision::Follow(shard, st);
        }
        match st.node.on_request(ask.file, ask.class, ask.now) {
            Step::Serve(_) => Decision::Serve(st.serve_local(ask.file, ask.now)),
            step @ Step::Get { .. } => {
                // This request leads the flight.
                st.in_flight.insert(ask.file);
                let flight = FlightGuard {
                    shared: Arc::clone(self),
                    file: ask.file,
                };
                Decision::Upstream(step, Some(flight))
            }
            // Uncacheable forwards and conditional validations are
            // never coalesced: each is its own upstream exchange.
            step => Decision::Upstream(step, None),
        }
    }

    /// Turn a decision into a route: a hit is answered at once, and
    /// everything that blocks — the upstream exchange, the wait on a
    /// leader's flight — is deferred to a worker. The flight
    /// registration moves into the deferred work, so it is released
    /// however that work ends, unrun included.
    fn settle(self: &Arc<Self>, decision: Decision<'_>, ask: Ask) -> io::Result<Routed> {
        let work: Deferred = match decision {
            Decision::Serve(answer) => return answer.map(Routed::Ready),
            Decision::Upstream(step, flight) => {
                let shared = Arc::clone(self);
                Box::new(move || {
                    let answer = shared.upstream(&ask, step);
                    drop(flight);
                    answer.map(Routed::Ready)
                })
            }
            Decision::Follow(_, st) => {
                drop(st);
                let shared = Arc::clone(self);
                Box::new(move || shared.follow(ask))
            }
        };
        Ok(Routed::Defer(work))
    }

    /// A single-flight follower's deferred work: wait for the leader's
    /// fetch, then decide again against the copy it installed. A flight
    /// still open after one tick yields the worker (the follow is
    /// deferred anew), so a leader queued behind its followers always
    /// gets a worker.
    fn follow(self: &Arc<Self>, ask: Ask) -> io::Result<Routed> {
        let decision = match self.decide(&ask) {
            Decision::Follow(shard, st) => {
                self.wait_for_flight(shard, st)?;
                self.decide(&ask)
            }
            decision => decision,
        };
        self.settle(decision, ask)
    }

    /// The deferred remainder of a request whose step needs the origin.
    /// One pooled connection serves the exchange and any step its commit
    /// asks for, so a request never checks out two sockets.
    fn upstream(&self, ask: &Ask, step: Step) -> io::Result<Answer> {
        let shard = self.shard(ask.file);
        let mut upstream = shard.pool.checkout(ask.now, &self.probe, &self.shutdown)?;
        let result = self.exchange(&mut upstream, ask, step);
        match &result {
            Ok(_) => shard.pool.checkin(upstream),
            Err(_) => shard.pool.discard(),
        }
        result
    }

    /// Perform `step` against the origin and commit the reply to the
    /// shard's node, until the node is done.
    fn exchange(&self, upstream: &mut HttpConn, ask: &Ask, mut step: Step) -> io::Result<Answer> {
        let Ask {
            file,
            class,
            ref path,
            now,
        } = *ask;
        let shard = self.shard(file);
        loop {
            let request = match step {
                Step::ConditionalGet { since } => {
                    Request::get_if_modified_since(path, wall_date(since))
                }
                _ => Request::get(path),
            };
            // wcc-allow: r1 exchange stopwatch for DelaySource::Measured; modeled runs never read it
            let started = std::time::Instant::now();
            let sent = upstream.write_request(&request)?;
            let (resp, body) = upstream.read_response()?;
            let body = Arc::new(body);
            let expires = resp.expires.map(sim_instant);
            let reply = match (resp.status, step) {
                (Status::Ok, _) => Reply::Body {
                    last_modified: sim_instant(require_last_modified(&resp)?),
                    size: body.len() as u64,
                    expires,
                },
                (Status::NotModified, Step::ConditionalGet { .. }) => {
                    Reply::NotModified { expires }
                }
                // The simulator never requests nonexistent files; pass
                // the origin's answer through and drop any cached copy.
                _ => Reply::Missing,
            };
            // New entries subscribe *before* insertion.
            if matches!(step, Step::Get { subscribe: true }) && matches!(reply, Reply::Body { .. })
            {
                self.subscribe_sync(file);
            }
            let cost = Exchange {
                message_bytes: sent + resp.header_size(),
                delay: self.exchange_delay(body.len() as u64, started),
            };
            let committed = {
                let mut st = shard.state.lock();
                match st.node.on_reply(file, class, now, step, reply, cost) {
                    Commit::Again(next) => Err(next),
                    Commit::Done(evicted) => {
                        for (victim, _) in evicted.iter() {
                            st.bodies.remove(victim);
                        }
                        let served = match reply {
                            Reply::NotModified { .. } => st.serve_local(file, now),
                            _ => {
                                if st.node.store().peek(file).is_some() {
                                    st.bodies.insert(file, Arc::clone(&body));
                                }
                                Ok((resp, body))
                            }
                        };
                        Ok((served, evicted))
                    }
                }
            };
            match committed {
                // The validated copy was evicted mid-exchange: refetch on
                // the connection already in hand.
                Err(next) => step = next,
                Ok((served, evicted)) => {
                    self.unsubscribe_victims(&evicted);
                    return served;
                }
            }
        }
    }
}

/// The proxy's reactor dispatcher. It decides every request on the
/// reactor thread (the shard lock guards in-memory work only), answers
/// fresh hits inline, and defers only the upstream exchange and the
/// single-flight wait to the worker pool.
struct ProxyDispatch {
    shared: Arc<ProxyShared>,
}

impl Dispatch for ProxyDispatch {
    fn dispatch(&self, req: Request) -> io::Result<Routed> {
        let shared = &self.shared;
        let file = shared.resolve(&req.path);
        let ask = Ask {
            file,
            class: shared.class_of(file),
            path: req.path,
            now: shared.clock.now(),
        };
        shared.settle(shared.decide(&ask), ask)
    }
}

fn msg_len(msg: &ControlMsg) -> u64 {
    msg.encode().len() as u64
}

/// Every well-formed `200` in this protocol carries `Last-Modified`; an
/// origin that omits it is speaking something else, and the connection
/// is closed rather than caching a copy with no version.
fn require_last_modified(resp: &Response) -> io::Result<httpsim::HttpDate> {
    resp.last_modified.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "200 response without Last-Modified",
        )
    })
}

/// A running proxy; stop it with [`LiveProxy::shutdown`] (or drop it).
pub struct LiveProxy {
    shared: Arc<ProxyShared>,
    addr: SocketAddr,
    reactor: Option<Reactor>,
    control_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for LiveProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveProxy")
            .field("addr", &self.addr)
            .field("shards", &self.shared.shards.len())
            .finish()
    }
}

impl LiveProxy {
    /// Dial one control connection per shard (when the policy needs
    /// them), bind the client listener, and start serving.
    pub fn spawn(config: ProxyConfig) -> io::Result<LiveProxy> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let shard_count = config.shards.max(1);

        let mut static_names = Names::default();
        if let Some(gt) = config.ground_truth.as_ref() {
            for (id, rec) in gt.iter() {
                debug_assert_eq!(id.index(), static_names.paths.len());
                static_names.by_path.insert(rec.path.clone(), id);
                static_names.paths.push(rec.path.clone());
            }
        }

        let uses_invalidation = config.policy.uses_invalidation();
        let mut shards = Vec::with_capacity(shard_count);
        let mut control_streams: Vec<Option<(LineConn, mpsc::Sender<()>)>> =
            Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let control = if uses_invalidation {
                let stream = TcpStream::connect(config.origin_control)?;
                let writer = stream.try_clone()?;
                // wcc-allow: r5 OK channel — bounded by in-flight control commands, one per worker
                let (ok_tx, ok_rx) = mpsc::channel();
                control_streams.push(Some((LineConn::new(stream)?, ok_tx)));
                Some(ControlHandle {
                    writer: RankedMutex::new(CONTROL_WRITER_RANK, "proxy.control.writer", writer),
                    ok_rx: RankedMutex::new(CONTROL_OK_RANK, "proxy.control.ok_rx", ok_rx),
                })
            } else {
                control_streams.push(None);
                None
            };
            let mut node = CacheNode::new(
                config.store.build_shard(i, shard_count),
                config.policy.build(),
                config.probe.clone(),
            )
            .with_invalidation(uses_invalidation)
            .with_uncacheable(config.uncacheable_mask);
            if let DelaySource::Modeled(link) = config.delay {
                node = node.with_link(link);
            }
            if let Some(gt) = config.ground_truth.as_ref() {
                node = node.with_oracle(Arc::clone(gt));
            }
            shards.push(Shard {
                state: RankedMutex::new(
                    STATE_RANK,
                    "proxy.state",
                    CacheState {
                        node,
                        bodies: HashMap::new(),
                        in_flight: HashSet::new(),
                    },
                ),
                flights: RankedCondvar::new(),
                pool: UpstreamPool::new(config.origin_data, i as u32, UPSTREAM_CONNS_PER_SHARD),
                control,
            });
        }

        let shared = Arc::new(ProxyShared {
            shards,
            static_names,
            dynamic_names: RankedMutex::new(
                DYNAMIC_NAMES_RANK,
                "proxy.dynamic_names",
                Names::default(),
            ),
            classes: config.classes,
            delay: config.delay,
            uses_invalidation,
            clock: config.clock,
            probe: config.probe,
            shutdown: AtomicBool::new(false),
        });

        let mut control_threads = Vec::with_capacity(shard_count);
        for (i, slot) in control_streams.into_iter().enumerate() {
            let Some((conn, ok_tx)) = slot else { continue };
            let shared = Arc::clone(&shared);
            control_threads.push(thread::spawn(move || {
                shared.control_reader(i, conn, ok_tx);
            }));
        }

        // The client data path and every request decision run on the
        // epoll reactor; upstream work runs on the dispatch worker pool.
        let reactor = Reactor::spawn(
            listener,
            Arc::new(ProxyDispatch {
                shared: Arc::clone(&shared),
            }),
            ReactorConfig {
                reactor_threads: config.reactor_threads,
                dispatch_threads: config.dispatch_threads.max(1),
                max_conns: config.max_conns,
                budget_ticks: DEFAULT_READ_BUDGET_TICKS,
                role: "proxy-data",
                probe: shared.probe.clone(),
                clock: shared.clock.clone(),
            },
        )?;

        Ok(LiveProxy {
            shared,
            addr,
            reactor: Some(reactor),
            control_threads,
        })
    }

    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open on the client reactor (for the soak
    /// driver and tests).
    pub fn open_conns(&self) -> usize {
        self.reactor.as_ref().map_or(0, Reactor::open_conns)
    }

    /// Client accepts shed at the connection cap.
    pub fn dropped_accepts(&self) -> u64 {
        self.reactor.as_ref().map_or(0, Reactor::dropped_accepts)
    }

    /// Jobs handed to the upstream worker pool: one per miss or
    /// validation (plus a follower's re-queues); a fresh hit queues none.
    pub fn jobs_queued(&self) -> u64 {
        self.reactor.as_ref().map_or(0, Reactor::jobs_queued)
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(mut r) = self.reactor.take() {
            r.stop();
        }
        for h in self.control_threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Stop serving and return the merged per-shard counters.
    pub fn shutdown(mut self) -> ProxySnapshot {
        self.stop();
        let mut snap = ProxySnapshot::default();
        for shard in &self.shared.shards {
            let st = shard.state.lock();
            snap.cache.merge(st.node.stats());
            snap.traffic.merge(st.node.traffic());
            snap.stale_age_total = snap
                .stale_age_total
                .saturating_add(st.node.stale_age_total());
            snap.invalidations_delivered += st.node.invalidations();
            snap.evictions += st.node.evictions();
            drop(st);
            snap.upstream_dials += shard.pool.dials();
            snap.upstream_reuses += shard.pool.reuses();
            snap.upstream_saturations += shard.pool.saturations();
        }
        snap
    }
}

impl Drop for LiveProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::wall_date;
    use crate::origin::{LiveOrigin, OriginConfig};
    use originserver::FileRecord;
    use std::io::{Read as _, Write as _};
    use std::sync::Barrier;
    use std::time::Duration;

    /// A one-shard TTL proxy over a fresh origin serving `pop`.
    fn spawn_ttl_proxy(pop: &Arc<FilePopulation>) -> (LiveOrigin, LiveProxy, LiveClock) {
        let clock = LiveClock::virtual_at(SimTime::from_secs(10));
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::clone(pop), clock.clone())).unwrap();
        let mut cfg = ProxyConfig::new(
            origin.data_addr(),
            origin.control_addr(),
            LivePolicy::Ttl(24),
            clock.clone(),
        );
        cfg.ground_truth = Some(Arc::clone(pop));
        let proxy = LiveProxy::spawn(cfg).unwrap();
        (origin, proxy, clock)
    }

    fn get_ok(conn: &mut HttpConn, path: &str) -> Vec<u8> {
        conn.write_request(&Request::get(path)).unwrap();
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok, "{path}");
        body
    }

    /// A fresh hit is answered on the reactor thread: lockstep hits on a
    /// warmed one-shard proxy queue no worker job, a miss exactly one.
    #[test]
    fn fresh_hits_queue_no_jobs_and_each_miss_one() {
        const FILES: usize = 4;
        const ROUNDS: usize = 25;
        let mut pop = FilePopulation::new();
        for i in 0..FILES {
            pop.add(FileRecord::new(format!("/f{i}.html"), SimTime::ZERO, 100));
        }
        let pop = Arc::new(pop);
        let (origin, proxy, _clock) = spawn_ttl_proxy(&pop);
        let mut conn = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
        for i in 0..FILES {
            get_ok(&mut conn, &format!("/f{i}.html"));
            assert_eq!(proxy.jobs_queued(), i as u64 + 1, "one job per miss");
        }
        for _ in 0..ROUNDS {
            for i in 0..FILES {
                assert_eq!(get_ok(&mut conn, &format!("/f{i}.html")).len(), 100);
            }
        }
        assert_eq!(
            proxy.jobs_queued(),
            FILES as u64,
            "fresh hits queue no jobs"
        );
        let snap = proxy.shutdown();
        assert_eq!(snap.cache.misses, FILES as u64);
        assert_eq!(snap.cache.fresh_hits, (FILES * ROUNDS) as u64);
        drop(origin);
    }

    /// With the only upstream worker stuck on an exchange the origin
    /// never answers, a fresh hit on another connection is still served
    /// at once: hits do not queue behind upstream work.
    #[test]
    fn fresh_hit_does_not_wait_behind_upstream_work() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let (saw_slow_tx, saw_slow) = mpsc::channel::<()>();
        let (release, release_rx) = mpsc::channel::<()>();
        // The proxy's one pooled connection: answers `/a`, never `/slow`,
        // which holds the connection until the test releases it and then
        // gets EOF.
        let origin = thread::spawn(move || {
            let (stream, _) = upstream.accept().unwrap();
            let mut conn = HttpConn::new(stream).unwrap();
            let idle = AtomicBool::new(false);
            while let Some(req) = conn.read_request(&idle).unwrap() {
                if req.path == "/slow" {
                    saw_slow_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    return;
                }
                let resp = Response::ok(
                    wall_date(SimTime::from_secs(10)),
                    wall_date(SimTime::ZERO),
                    64,
                );
                conn.write_response(&resp, &[b'a'; 64]).unwrap();
            }
        });
        let mut cfg = ProxyConfig::new(
            upstream_addr,
            upstream_addr,
            LivePolicy::Ttl(24),
            LiveClock::virtual_at(SimTime::from_secs(10)),
        );
        cfg.dispatch_threads = 1;
        let proxy = LiveProxy::spawn(cfg).unwrap();
        let mut warm = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
        get_ok(&mut warm, "/a");

        let mut slow = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
        slow.write_request(&Request::get("/slow")).unwrap();
        saw_slow
            .recv_timeout(Duration::from_secs(10))
            .expect("the upstream saw /slow");

        let mut hit = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
        hit.set_read_budget_ticks(80); // 2 s
        assert_eq!(get_ok(&mut hit, "/a"), [b'a'; 64]);

        release.send(()).unwrap();
        origin.join().unwrap();
        assert!(slow.read_response().is_err(), "/slow fails once cut off");
        assert_eq!(proxy.jobs_queued(), 2, "the two misses, not the hit");
        let snap = proxy.shutdown();
        assert_eq!(snap.cache.fresh_hits, 1);
        // A miss is counted when its reply commits; `/slow` never got one.
        assert_eq!(snap.cache.misses, 1);
    }

    /// A leader's flight registration is owned by its deferred work:
    /// dropping that work unrun (as the reactor does at shutdown)
    /// releases the file, and the next request leads a new flight.
    #[test]
    fn unrun_leader_work_releases_its_flight() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/cold.html", SimTime::ZERO, 100));
        let pop = Arc::new(pop);
        let (origin, proxy, clock) = spawn_ttl_proxy(&pop);
        let shared = &proxy.shared;
        let ask = || {
            let file = shared.resolve("/cold.html");
            Ask {
                file,
                class: 0,
                path: "/cold.html".to_string(),
                now: clock.now(),
            }
        };
        let in_flight = |a: &Ask| {
            shared
                .shard(a.file)
                .state
                .lock()
                .in_flight
                .contains(&a.file)
        };
        let leader = ask();
        let Ok(Routed::Defer(work)) = shared.settle(shared.decide(&leader), ask()) else {
            panic!("a cold miss defers its fetch");
        };
        assert!(in_flight(&leader));
        assert!(matches!(shared.decide(&ask()), Decision::Follow(..)));
        drop(work);
        assert!(!in_flight(&leader), "dropped work released the flight");
        assert!(matches!(
            shared.decide(&ask()),
            Decision::Upstream(Step::Get { .. }, Some(_))
        ));
        drop(proxy);
        drop(origin);
    }

    #[test]
    fn malformed_client_request_kills_only_that_connection() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a.html", SimTime::from_secs(0), 100));
        let pop = Arc::new(pop);
        let clock = LiveClock::virtual_at(SimTime::from_secs(10));
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::clone(&pop), clock.clone())).unwrap();
        let mut cfg = ProxyConfig::new(
            origin.data_addr(),
            origin.control_addr(),
            LivePolicy::Ttl(24),
            clock,
        );
        cfg.ground_truth = Some(Arc::clone(&pop));
        let proxy = LiveProxy::spawn(cfg).unwrap();

        // Garbage in: the proxy logs, closes that connection (EOF on our
        // side, no response bytes), and keeps serving everyone else.
        let mut bad = TcpStream::connect(proxy.addr()).unwrap();
        bad.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
        assert!(sink.is_empty(), "no response to an unparseable request");

        // A well-formed client is still served (miss → fetch → hit).
        let mut conn = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
        conn.write_request(&Request::get("/a.html")).unwrap();
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(body.len(), 100);
        conn.write_request(&Request::get("/a.html")).unwrap();
        assert_eq!(conn.read_response().unwrap().0.status, Status::Ok);

        let snap = proxy.shutdown();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.fresh_hits, 1);
        assert_eq!(
            snap.upstream_dials, 1,
            "both exchanges share one pooled conn"
        );
        drop(origin);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for idx in 0..64usize {
                let file = FileId::from_index(idx);
                let s = shard_for(file, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(file, shards), "routing must be pure");
            }
        }
        assert_eq!(shard_for(FileId::from_index(7), 0), 0, "0 shards ⇒ shard 0");
    }

    /// The ISSUE's miss-coalescing contract: N concurrent requests for
    /// one cold file produce exactly one upstream fetch and N responses.
    #[test]
    fn concurrent_cold_misses_coalesce_into_one_fetch() {
        const N: usize = 8;
        const BODY: u64 = 512 * 1024;
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/cold.html", SimTime::from_secs(0), BODY));
        let pop = Arc::new(pop);
        // The default topology, and two reactors sharing one upstream
        // worker: followers queued ahead of their leader must yield it.
        for (reactor_threads, dispatch_threads) in [(1, DEFAULT_DISPATCH_THREADS), (2, 1)] {
            let clock = LiveClock::virtual_at(SimTime::from_secs(10));
            let origin =
                LiveOrigin::spawn(OriginConfig::new(Arc::clone(&pop), clock.clone())).unwrap();
            let mut cfg = ProxyConfig::new(
                origin.data_addr(),
                origin.control_addr(),
                LivePolicy::Ttl(24),
                clock,
            );
            cfg.ground_truth = Some(Arc::clone(&pop));
            cfg.shards = 4;
            cfg.reactor_threads = reactor_threads;
            cfg.dispatch_threads = dispatch_threads;
            let proxy = LiveProxy::spawn(cfg).unwrap();

            let barrier = Barrier::new(N);
            thread::scope(|s| {
                for _ in 0..N {
                    s.spawn(|| {
                        let mut conn =
                            HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
                        barrier.wait();
                        conn.write_request(&Request::get("/cold.html")).unwrap();
                        let (resp, body) = conn.read_response().unwrap();
                        assert_eq!(resp.status, Status::Ok);
                        assert_eq!(body.len() as u64, BODY);
                    });
                }
            });

            let snap = proxy.shutdown();
            let load = origin.shutdown();
            assert_eq!(
                snap.cache.misses, 1,
                "followers must not duplicate the fetch"
            );
            assert_eq!(snap.cache.fresh_hits as usize, N - 1);
            assert_eq!(snap.traffic.file_transfers, 1);
            assert_eq!(load.document_requests, 1, "origin saw exactly one GET");
        }
    }
}
