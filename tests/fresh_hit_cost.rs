//! Cost ceiling for the live proxy's fresh-hit path: allocations per
//! fresh hit, counted by this test binary's global allocator.
//!
//! A warmed one-shard proxy serves lockstep fresh hits to one client.
//! The allocator counts every allocation made while the hits run, minus
//! those made on the test's own (client) thread, so the count is the
//! proxy's and the origin's share. A fresh hit is decided and answered
//! on the proxy's reactor thread, with its response head serialised into
//! a reused per-connection buffer and the cached body written without a
//! copy, so the remaining allocations are the parsed request's own.
//!
//! This file's only unsafe code is the `GlobalAlloc` impl, which
//! forwards every call unchanged to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use wwwcache::httpsim::{Request, Status};
use wwwcache::liveserve::{
    HttpConn, LiveClock, LiveOrigin, LivePolicy, LiveProxy, OriginConfig, ProxyConfig,
};
use wwwcache::originserver::{FilePopulation, FileRecord};
use wwwcache::simcore::SimTime;

/// Allocations per fresh hit allowed on the stack's threads. Measured
/// at 1.0 (the request path's `String`); the parent of this change,
/// with a dispatch-pool hop and a copied response, measured 13.0.
const ALLOCS_PER_FRESH_HIT_CEILING: f64 = 1.5;

struct CountingAlloc;

// Statistics that publish no other data: `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static OTHERS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised `Cell<bool>`: no destructor and no lazy
    // allocation, so reading it from inside the allocator cannot recurse.
    static CLIENT_THREAD: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn count() {
    if ENABLED.load(Ordering::Relaxed) && !CLIENT_THREAD.try_with(Cell::get).unwrap_or(false) {
        OTHERS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees.
// The counting touches only atomics and a const thread-local, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via one of the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn get(conn: &mut HttpConn, path: &str) {
    conn.write_request(&Request::get(path)).unwrap();
    let (resp, body) = conn.read_response().unwrap();
    assert_eq!(resp.status, Status::Ok, "{path}");
    assert_eq!(body.len(), 2048);
}

#[test]
fn fresh_hit_allocations_stay_under_the_ceiling() {
    const FILES: usize = 8;
    const ROUNDS: usize = 50;
    let mut pop = FilePopulation::new();
    for i in 0..FILES {
        pop.add(FileRecord::new(format!("/f{i}.html"), SimTime::ZERO, 2048));
    }
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
    let paths: Vec<String> = (0..FILES).map(|i| format!("/f{i}.html")).collect();

    CLIENT_THREAD.with(|c| c.set(true));
    let mut conn = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
    // Misses, then one round of hits so every buffer has its size.
    for _ in 0..2 {
        for path in &paths {
            get(&mut conn, path);
        }
    }
    let jobs_before = proxy.jobs_queued();

    OTHERS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    for _ in 0..ROUNDS {
        for path in &paths {
            get(&mut conn, path);
        }
    }
    ENABLED.store(false, Ordering::SeqCst);
    let hits = (ROUNDS * FILES) as f64;
    let per_hit = OTHERS.load(Ordering::Relaxed) as f64 / hits;
    eprintln!("allocations per fresh hit: {per_hit:.2}");

    assert_eq!(
        proxy.jobs_queued(),
        jobs_before,
        "a fresh hit queues no job"
    );
    drop(conn);
    let snap = proxy.shutdown();
    drop(origin);
    assert_eq!(snap.cache.misses, FILES as u64);
    assert_eq!(snap.cache.fresh_hits, (FILES * (ROUNDS + 1)) as u64);
    assert!(
        per_hit <= ALLOCS_PER_FRESH_HIT_CEILING,
        "{per_hit:.2} allocations per fresh hit, ceiling {ALLOCS_PER_FRESH_HIT_CEILING}"
    );
}
