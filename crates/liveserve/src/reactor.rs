//! The nonblocking epoll reactor behind both live data paths.
//!
//! `reactor_threads` event-loop threads each own one epoll instance, a
//! slab of [`Conn`] state machines, and an eventfd wakeup. All reactors
//! register (a clone of) the shared nonblocking listener level-triggered:
//! whichever thread wakes drains a bounded accept burst and **owns** the
//! connections it accepted — partitioning happens at accept time and a
//! connection never migrates. Client sockets are registered
//! edge-triggered (`EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP`) with a
//! generation-tagged token, and every readiness notification drives the
//! state machine to `WouldBlock` in both directions, as edge-triggering
//! requires.
//!
//! Request dispatch is pluggable via [`Dispatch`]. The reactor thread
//! routes every request: the dispatcher either answers it at once
//! ([`Routed::Ready`]), and the reactor writes the response inline on the
//! same connection with no queue and no wakeup, or hands back the
//! blocking remainder ([`Routed::Defer`]), which runs on a small worker
//! pool (`dispatch_threads`) fed by a queue bounded by the connection cap
//! (at most one outstanding request per connection, enforced by the
//! state machine). Workers push completions onto the owning reactor's
//! completion queue and nudge its eventfd.
//!
//! * the **origin** answers from memory (no IO, no blocking waits), so
//!   every request is `Ready`;
//! * the **proxy** decides on the reactor thread under the shard lock
//!   (in-memory work only) and defers only the upstream exchange and the
//!   single-flight wait: checkout, condvar waits and control round-trips
//!   never run on a reactor thread.
//!
//! The slow-loris read budget is tick-counted, never clock-read (§r1):
//! each `epoll_wait` timeout is one idle tick swept over every mid-frame
//! or mid-write connection. A saturated reactor therefore defers
//! reaping — the memory cost is bounded by `max_conns × MAX_FRAME`
//! either way — and an idle keep-alive connection is never reaped.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use httpsim::{Request, Response};
use wcc_obs::{ConnCloseReason, ObsEvent, ProbeHandle};
use wcc_sync::{RankedCondvar, RankedMutex};

use crate::clock::LiveClock;
use crate::conn::{Conn, ConnEvent};
use crate::netio::{log_conn_error, POLL_TICK};
use crate::sys::{
    Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Epoll token of the shared listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the per-reactor eventfd.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Readiness entries fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// Accepts drained per listener readiness notification, so one thread
/// can't monopolise its loop on a connect flood.
const ACCEPT_BATCH: usize = 64;

/// Rank of the dispatch job queue: below every proxy/origin lock a
/// dispatched handler may take, and never held across dispatch itself.
// wcc-lock-rank: reactor.jobs.inner 20
const JOBS_RANK: u32 = 20;

/// Rank of a reactor's completion queue; workers push with no other
/// lock held, the reactor drains it with a `mem::take` under the guard.
// wcc-lock-rank: reactor.completions.queue 25
const COMPLETIONS_RANK: u32 = 25;

/// A finished response: the head plus the body it frames.
pub(crate) type Answer = (Response, Arc<Vec<u8>>);

/// Blocking work a dispatcher hands to the worker pool. Running it
/// yields another [`Routed`]: `Ready` completes the request, `Defer`
/// yields the worker and queues the returned work again, behind
/// everything queued meanwhile.
pub(crate) type Deferred = Box<dyn FnOnce() -> io::Result<Routed> + Send>;

/// How a request is answered.
pub(crate) enum Routed {
    /// The response, written by the reactor thread at once.
    Ready(Answer),
    /// Work that may block, run on a dispatch worker.
    Defer(Deferred),
}

/// Routes one parsed request. `dispatch` runs on a reactor thread, so it
/// must not block: anything that waits on IO or on another thread goes
/// into the deferred work it returns.
pub(crate) trait Dispatch: Send + Sync + 'static {
    /// Answer the request or defer it. An error closes the client
    /// connection (matching the blocking path's behaviour).
    fn dispatch(&self, req: Request) -> io::Result<Routed>;
}

/// Reactor sizing and instrumentation.
pub(crate) struct ReactorConfig {
    /// Event-loop threads (each owns an epoll instance).
    pub reactor_threads: usize,
    /// Worker threads for deferred work; `0` only for dispatchers that
    /// never defer.
    pub dispatch_threads: usize,
    /// Connection cap across all reactor threads; accepts beyond it
    /// are shed (accepted, counted, closed).
    pub max_conns: usize,
    /// Slow-loris budget in poll ticks.
    pub budget_ticks: u32,
    /// Label for connection-error logging ("origin-data" / "proxy-data").
    pub role: &'static str,
    /// Observability sink.
    pub probe: ProbeHandle,
    /// Clock used only to stamp probe events.
    pub clock: LiveClock,
}

struct Job {
    reactor: usize,
    slot: usize,
    gen: u32,
    work: Deferred,
}

struct Completion {
    slot: usize,
    gen: u32,
    result: io::Result<Answer>,
}

/// Hand-rolled bounded-by-construction job queue: the state machine
/// allows at most one outstanding request per connection, so the queue
/// never holds more than `max_conns` jobs.
struct JobQueue {
    inner: RankedMutex<VecDeque<Job>>,
    cond: RankedCondvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut q = self.inner.lock();
        q.push_back(job);
        // Notify while the guard is live so a worker's empty-queue check
        // can never race the push (wcc-analyze r7).
        self.cond.notify_one(&q);
    }

    fn pop(&self, shutdown: &AtomicBool) -> Option<Job> {
        let mut q = self.inner.lock();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _timed_out) = self.cond.wait_timeout(q, POLL_TICK);
            q = guard;
        }
    }
}

struct CompletionQueue {
    queue: RankedMutex<Vec<Completion>>,
    wake: WakeFd,
}

struct Shared {
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    dropped_accepts: AtomicU64,
    jobs_queued: AtomicU64,
    jobs: JobQueue,
    completions: Vec<CompletionQueue>,
    dispatch: Arc<dyn Dispatch>,
    probe: ProbeHandle,
    clock: LiveClock,
    role: &'static str,
    max_conns: usize,
    budget_ticks: u32,
}

impl Shared {
    fn record(&self, event: ObsEvent) {
        self.probe.record(self.clock.now(), event);
    }

    fn defer(&self, job: Job) {
        self.jobs_queued.fetch_add(1, Ordering::SeqCst);
        self.jobs.push(job);
    }
}

/// A generation-tagged slab slot. The generation is baked into the
/// epoll token and into queued jobs, so readiness or completions for a
/// connection that has since been closed (and its slot reused) are
/// recognised as stale and dropped.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(slot: usize, gen: u32) -> u64 {
    (slot as u64) | (u64::from(gen) << 32)
}

/// The running reactor: `reactor_threads` event loops plus
/// `dispatch_threads` workers, all joined on [`Reactor::stop`].
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("open_conns", &self.open_conns())
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl Reactor {
    /// Take ownership of `listener`'s accept stream and serve it on
    /// the reactor.
    pub(crate) fn spawn(
        listener: TcpListener,
        dispatch: Arc<dyn Dispatch>,
        cfg: ReactorConfig,
    ) -> io::Result<Reactor> {
        let reactors = cfg.reactor_threads.max(1);
        listener.set_nonblocking(true)?;
        let mut completions = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            completions.push(CompletionQueue {
                queue: RankedMutex::new(COMPLETIONS_RANK, "reactor.completions.queue", Vec::new()),
                wake: WakeFd::new()?,
            });
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            dropped_accepts: AtomicU64::new(0),
            jobs_queued: AtomicU64::new(0),
            jobs: JobQueue {
                inner: RankedMutex::new(JOBS_RANK, "reactor.jobs.inner", VecDeque::new()),
                cond: RankedCondvar::new(),
            },
            completions,
            dispatch,
            probe: cfg.probe,
            clock: cfg.clock,
            role: cfg.role,
            max_conns: cfg.max_conns,
            budget_ticks: cfg.budget_ticks,
        });
        let mut threads = Vec::with_capacity(reactors + cfg.dispatch_threads);
        for idx in 0..reactors {
            let shared = Arc::clone(&shared);
            // Every reactor registers its own dup of the listener fd in
            // its epoll; the original is dropped when spawn returns.
            let listener = listener.try_clone()?;
            threads.push(std::thread::spawn(move || {
                reactor_loop(shared, idx, listener)
            }));
        }
        for _ in 0..cfg.dispatch_threads {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(shared)));
        }
        Ok(Reactor { shared, threads })
    }

    /// Connections currently open across all reactor threads.
    pub(crate) fn open_conns(&self) -> usize {
        self.shared.open_conns.load(Ordering::SeqCst)
    }

    /// Accepts shed at the connection cap.
    pub(crate) fn dropped_accepts(&self) -> u64 {
        self.shared.dropped_accepts.load(Ordering::SeqCst)
    }

    /// Jobs handed to the worker pool, yields included.
    pub(crate) fn jobs_queued(&self) -> u64 {
        self.shared.jobs_queued.load(Ordering::SeqCst)
    }

    /// Signal shutdown, wake every thread, and join them. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Take the queue lock to notify: a worker between its
            // shutdown check and its wait would otherwise sleep through
            // the wakeup for a full tick. Dropped before the joins.
            let q = self.shared.jobs.inner.lock();
            self.shared.jobs.cond.notify_all(&q);
        }
        for cq in &self.shared.completions {
            cq.wake.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Work queued after the workers left is dropped unrun, outside
        // the queue lock: dropping it releases whatever it owns (the
        // proxy's single-flight registrations).
        let unrun = std::mem::take(&mut *self.shared.jobs.inner.lock());
        drop(unrun);
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.jobs.pop(&shared.shutdown) {
        let result = match (job.work)() {
            Ok(Routed::Ready(answer)) => Ok(answer),
            Ok(Routed::Defer(work)) => {
                // A yield; at shutdown the work is dropped unrun instead.
                if !shared.shutdown.load(Ordering::SeqCst) {
                    shared.defer(Job { work, ..job });
                }
                continue;
            }
            Err(e) => Err(e),
        };
        let cq = &shared.completions[job.reactor];
        {
            let mut q = cq.queue.lock();
            q.push(Completion {
                slot: job.slot,
                gen: job.gen,
                result,
            });
        }
        cq.wake.wake();
    }
}

fn reactor_loop(shared: Arc<Shared>, idx: usize, listener: TcpListener) {
    if let Err(e) = run_reactor(&shared, idx, &listener) {
        log_conn_error(shared.role, &e);
    }
}

fn run_reactor(shared: &Arc<Shared>, idx: usize, listener: &TcpListener) -> io::Result<()> {
    let ep = Epoll::new()?;
    // The listener is level-triggered: if one thread's accept burst
    // doesn't drain the backlog, every reactor keeps getting told.
    ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    ep.add(shared.completions[idx].wake.fd(), EPOLLIN, WAKE_TOKEN)?;
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
    let timeout_ms = POLL_TICK.as_millis() as i32;
    loop {
        let n = ep.epoll_wait(&mut events, timeout_ms)?;
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        apply_completions(shared, idx, &ep, &mut slots, &mut free);
        for event in events.iter().take(n) {
            let (mask, token) = (event.events(), event.token());
            match token {
                WAKE_TOKEN => shared.completions[idx].wake.drain(),
                LISTENER_TOKEN => accept_burst(shared, idx, listener, &ep, &mut slots, &mut free),
                _ => {
                    let slot = (token & u64::from(u32::MAX)) as usize;
                    let gen = (token >> 32) as u32;
                    if slots.get(slot).map(|s| s.gen) != Some(gen) {
                        continue; // stale readiness for a reused slot
                    }
                    let readable = mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
                    let writable = mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
                    drive(
                        shared, idx, &ep, &mut slots, &mut free, slot, readable, writable,
                    );
                }
            }
        }
        if n == 0 {
            tick_sweep(shared, idx, &ep, &mut slots, &mut free);
        }
    }
    // Shutdown: close every remaining connection.
    for slot in 0..slots.len() {
        close_conn(
            shared,
            idx,
            &ep,
            &mut slots,
            &mut free,
            slot,
            ConnCloseReason::Shutdown,
        );
    }
    Ok(())
}

fn accept_burst(
    shared: &Arc<Shared>,
    idx: usize,
    listener: &TcpListener,
    ep: &Epoll,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
) {
    let mut depth = 0u32;
    for _ in 0..ACCEPT_BATCH {
        match listener.accept() {
            Ok((stream, _)) => {
                depth += 1;
                if shared.open_conns.load(Ordering::SeqCst) >= shared.max_conns {
                    // Shed: accept-then-close so the backlog drains and
                    // the peer sees a deterministic reset, not a hang.
                    shared.dropped_accepts.fetch_add(1, Ordering::SeqCst);
                    shared.record(ObsEvent::ConnClosed {
                        reactor: idx as u32,
                        reason: ConnCloseReason::AtCapacity,
                    });
                    continue;
                }
                if let Err(e) = register_conn(shared, idx, ep, slots, free, stream) {
                    shared.dropped_accepts.fetch_add(1, Ordering::SeqCst);
                    log_conn_error(shared.role, &e);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                log_conn_error(shared.role, &e);
                break;
            }
        }
    }
    if depth > 0 {
        shared.record(ObsEvent::AcceptBacklog {
            reactor: idx as u32,
            depth,
        });
    }
}

fn register_conn(
    shared: &Arc<Shared>,
    idx: usize,
    ep: &Epoll,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    let slot = match free.pop() {
        Some(s) => s,
        None => {
            // Slot-table growth is bounded by max_conns: a conn only
            // occupies a slot while counted against the cap.
            slots.push(Slot { gen: 0, conn: None });
            slots.len() - 1
        }
    };
    let gen = slots[slot].gen;
    let fd = stream.as_raw_fd();
    if let Err(e) = ep.add(
        fd,
        EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
        token_of(slot, gen),
    ) {
        free.push(slot);
        return Err(e);
    }
    slots[slot].conn = Some(Conn::new(stream, shared.budget_ticks));
    let open = shared.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
    shared.record(ObsEvent::ConnAccepted {
        reactor: idx as u32,
        open: open as u32,
    });
    // Bytes may have arrived before registration; with edge-triggered
    // delivery the add itself reports initial readiness, but driving
    // once here keeps latency off the first request either way.
    drive(shared, idx, ep, slots, free, slot, true, false);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn drive(
    shared: &Arc<Shared>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    slot: usize,
    readable: bool,
    writable: bool,
) {
    if writable {
        let ev = match slots[slot].conn.as_mut() {
            Some(c) => c.on_writable(shared.role),
            None => return,
        };
        handle_event(shared, idx, ep, slots, free, slot, ev);
    }
    if readable {
        let ev = match slots[slot].conn.as_mut() {
            Some(c) => c.on_readable(shared.role),
            None => return,
        };
        handle_event(shared, idx, ep, slots, free, slot, ev);
    }
}

/// Run one state-machine outcome to quiescence. A ready answer can
/// chain (response written → pipelined request parsed → dispatched
/// again), hence the loop.
fn handle_event(
    shared: &Arc<Shared>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    slot: usize,
    mut ev: ConnEvent,
) {
    loop {
        let req = match ev {
            ConnEvent::Idle => return,
            ConnEvent::Close(reason) => {
                close_conn(shared, idx, ep, slots, free, slot, reason);
                return;
            }
            ConnEvent::Dispatch(req) => req,
        };
        let answer = match shared.dispatch.dispatch(req) {
            Ok(Routed::Ready(answer)) => Ok(answer),
            Ok(Routed::Defer(work)) => {
                shared.defer(Job {
                    reactor: idx,
                    slot,
                    gen: slots[slot].gen,
                    work,
                });
                return;
            }
            Err(e) => Err(e),
        };
        ev = match answer {
            Ok((resp, body)) => match slots[slot].conn.as_mut() {
                Some(c) => c.on_response(&resp, body, shared.role),
                None => return,
            },
            Err(e) => {
                log_conn_error(shared.role, &e);
                close_conn(shared, idx, ep, slots, free, slot, ConnCloseReason::Error);
                return;
            }
        };
    }
}

fn apply_completions(
    shared: &Arc<Shared>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
) {
    let done = {
        let mut q = shared.completions[idx].queue.lock();
        std::mem::take(&mut *q)
    };
    for c in done {
        if slots.get(c.slot).map(|s| s.gen) != Some(c.gen) {
            continue; // the connection closed while its request was in flight
        }
        match c.result {
            Ok((resp, body)) => {
                let ev = match slots[c.slot].conn.as_mut() {
                    Some(conn) => conn.on_response(&resp, body, shared.role),
                    None => continue,
                };
                handle_event(shared, idx, ep, slots, free, c.slot, ev);
            }
            Err(e) => {
                log_conn_error(shared.role, &e);
                close_conn(shared, idx, ep, slots, free, c.slot, ConnCloseReason::Error);
            }
        }
    }
}

fn tick_sweep(
    shared: &Arc<Shared>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
) {
    for slot in 0..slots.len() {
        let ev = match slots[slot].conn.as_mut() {
            Some(c) => c.on_tick(),
            None => continue,
        };
        if let ConnEvent::Close(reason) = ev {
            close_conn(shared, idx, ep, slots, free, slot, reason);
        }
    }
}

fn close_conn(
    shared: &Arc<Shared>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    slot: usize,
    reason: ConnCloseReason,
) {
    let Some(entry) = slots.get_mut(slot) else {
        return;
    };
    if let Some(conn) = entry.conn.take() {
        let _ = ep.del(conn.stream().as_raw_fd());
        drop(conn);
        entry.gen = entry.gen.wrapping_add(1);
        free.push(slot);
        shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        shared.record(ObsEvent::ConnClosed {
            reactor: idx as u32,
            reason,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netio::{HttpConn, MAX_FRAME};
    use httpsim::{HttpDate, Status};
    use simcore::SimTime;
    use std::io::{Read, Write};
    use std::net::SocketAddr;
    use std::time::{Duration, Instant};

    /// Answers with a body echoing the path: inline, except paths under
    /// `/d/`, which are deferred to a worker. `/d/twice` yields its
    /// worker once before answering; `/d/gate` waits for the test to
    /// release `Gate::open`.
    struct Canned {
        gate: Arc<Gate>,
    }

    #[derive(Default)]
    struct Gate {
        /// Held by a test to keep `/d/gate`'s work from finishing.
        open: std::sync::Mutex<()>,
        /// Deferred works run to completion.
        ran: AtomicUsize,
    }

    fn canned(path: &str) -> Routed {
        let body = format!("canned:{path}").into_bytes();
        let resp = Response::ok(HttpDate(2), HttpDate(1), body.len() as u64);
        Routed::Ready((resp, Arc::new(body)))
    }

    fn deferred(gate: Arc<Gate>, path: String, yields: bool) -> Deferred {
        Box::new(move || {
            if yields {
                return Ok(Routed::Defer(deferred(gate, path, false)));
            }
            if path == "/d/gate" {
                drop(gate.open.lock().unwrap());
            }
            gate.ran.fetch_add(1, Ordering::SeqCst);
            Ok(canned(&path))
        })
    }

    impl Dispatch for Canned {
        fn dispatch(&self, req: Request) -> io::Result<Routed> {
            if !req.path.starts_with("/d/") {
                return Ok(canned(&req.path));
            }
            let yields = req.path == "/d/twice";
            Ok(Routed::Defer(deferred(
                Arc::clone(&self.gate),
                req.path,
                yields,
            )))
        }
    }

    fn spawn_reactor(
        max_conns: usize,
        budget_ticks: u32,
        dispatch_threads: usize,
    ) -> (Reactor, SocketAddr, Arc<Gate>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let gate = Arc::new(Gate::default());
        let reactor = Reactor::spawn(
            listener,
            Arc::new(Canned {
                gate: Arc::clone(&gate),
            }),
            ReactorConfig {
                reactor_threads: 1,
                dispatch_threads,
                max_conns,
                budget_ticks,
                role: "test-data",
                probe: ProbeHandle::none(),
                clock: LiveClock::virtual_at(SimTime::ZERO),
            },
        )
        .unwrap();
        (reactor, addr, gate)
    }

    fn await_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn read_answer(conn: &mut HttpConn, path: &str) {
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(body, format!("canned:{path}").into_bytes(), "for {path}");
    }

    fn exchange(conn: &mut HttpConn, path: &str) {
        conn.write_request(&Request::get(path)).unwrap();
        read_answer(conn, path);
    }

    /// Both routes, one request at a time and pipelined in one segment:
    /// every answer arrives in request order, and only deferred routes
    /// (and yields) reach the job queue.
    #[test]
    fn requests_round_trip_inline_and_via_workers() {
        let cases: [(usize, &[&str], bool); 4] = [
            (0, &["/f0", "/f1", "/f2"], false),
            (2, &["/f0", "/f1", "/f2"], false),
            (2, &["/d/a", "/b", "/d/twice", "/c", "/d/e"], false),
            (
                2,
                &["/d/a", "/b", "/d/twice", "/c", "/c", "/d/e", "/f"],
                true,
            ),
        ];
        for (dispatch_threads, paths, pipelined) in cases {
            let (reactor, addr, gate) = spawn_reactor(64, 1200, dispatch_threads);
            let mut stream = TcpStream::connect(addr).unwrap();
            if pipelined {
                let wire: Vec<u8> = paths
                    .iter()
                    .flat_map(|p| Request::get(*p).to_bytes())
                    .collect();
                stream.write_all(&wire).unwrap();
            }
            let mut conn = HttpConn::new(stream).unwrap();
            for path in paths {
                if pipelined {
                    read_answer(&mut conn, path);
                } else {
                    exchange(&mut conn, path);
                }
            }
            let deferred = paths.iter().filter(|p| p.starts_with("/d/")).count();
            let yields = paths.iter().filter(|p| **p == "/d/twice").count();
            assert_eq!(gate.ran.load(Ordering::SeqCst), deferred);
            assert_eq!(reactor.jobs_queued(), (deferred + yields) as u64);
            drop(conn);
            await_until("conn close after client hangup", || {
                reactor.open_conns() == 0
            });
        }
    }

    /// A connection closed while its request waits on a worker gives up
    /// its slot; the late completion carries the old generation and is
    /// dropped instead of being written to the slot's next connection.
    #[test]
    fn completion_for_a_closed_conn_is_dropped_by_generation() {
        let (reactor, addr, gate) = spawn_reactor(16, 1200, 1);
        let held = gate.open.lock().unwrap();
        let mut doomed = TcpStream::connect(addr).unwrap();
        doomed
            .write_all(&Request::get("/d/gate").to_bytes())
            .unwrap();
        await_until("gated request queued", || reactor.jobs_queued() == 1);
        // Overflow the frame buffer behind the outstanding request: the
        // reactor closes the connection with its job still running.
        let _ = doomed.write_all(&vec![b'x'; MAX_FRAME + 1]);
        await_until("doomed conn closed", || reactor.open_conns() == 0);
        // The next connection takes the freed slot.
        let mut next = HttpConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        exchange(&mut next, "/before");
        drop(held);
        // The one worker finishes the gated work before it runs this
        // request, and the reactor applies completions in order, so the
        // stale completion is handled first. Had it been applied to this
        // connection, `canned:/d/gate` would be read here instead.
        exchange(&mut next, "/d/after");
        exchange(&mut next, "/again");
        assert_eq!(gate.ran.load(Ordering::SeqCst), 2);
        assert_eq!(reactor.open_conns(), 1);
    }

    #[test]
    fn slow_loris_is_reaped_by_the_tick_budget() {
        let (reactor, addr, _) = spawn_reactor(16, 2, 0);
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"GET /half").unwrap(); // partial request, then silence
        await_until("loris registration", || reactor.open_conns() == 1);
        // The budget is ticked only on idle epoll timeouts; with nothing
        // else running, two 25 ms ticks reap the wedged connection.
        await_until("budget reap", || reactor.open_conns() == 0);
        // The reactor keeps serving healthy clients afterwards.
        let mut conn = HttpConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        exchange(&mut conn, "/after");
    }

    #[test]
    fn idle_keepalive_outlives_the_budget() {
        let (reactor, addr, _) = spawn_reactor(16, 1, 0);
        let mut conn = HttpConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        exchange(&mut conn, "/first");
        // Sit idle well past the 1-tick budget: an idle keep-alive
        // connection (no partial frame) is exempt from reaping.
        std::thread::sleep(POLL_TICK * 6);
        assert_eq!(reactor.open_conns(), 1);
        exchange(&mut conn, "/second");
    }

    #[test]
    fn accepts_beyond_the_cap_are_shed_not_queued() {
        let (reactor, addr, _) = spawn_reactor(2, 1200, 0);
        let mut a = HttpConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        let mut b = HttpConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        exchange(&mut a, "/a");
        exchange(&mut b, "/b");
        assert_eq!(reactor.open_conns(), 2);
        // A third connection is accepted and immediately closed, so the
        // peer sees deterministic EOF instead of a hang.
        let mut shed = TcpStream::connect(addr).unwrap();
        await_until("shed accounting", || reactor.dropped_accepts() >= 1);
        let mut byte = [0u8; 1];
        assert_eq!(shed.read(&mut byte).unwrap(), 0, "shed conn must see EOF");
        // Capacity frees up once an established connection leaves.
        drop(a);
        await_until("slot release", || reactor.open_conns() == 1);
        let mut c = HttpConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        exchange(&mut c, "/c");
    }
}
