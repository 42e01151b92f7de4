//! Micro-benchmarks of the substrates: event queue, cache stores, policy
//! decisions, HTTP serialisation, RNG, and samplers.

use consistency::{AdaptiveTtl, ExpiryPolicy, FixedTtl, Policy, RenewableTtl, RequestCtx};
use criterion::{criterion_group, criterion_main, Criterion};
use httpsim::{HttpDate, Request, Response};
use proxycache::{EntryMeta, LruStore, Store, UnboundedStore};
use rand::RngCore;
use simcore::{Dispatch, EventQueue, FileId, Scheduler, SimTime, Simulation};
use simstats::{DetRng, ZipfDist};
use std::hint::black_box;
use webcache::{generate_synthetic, run, ProtocolSpec, SimConfig, SweepRunner, WorrellConfig};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("simcore/event_queue_schedule_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule(SimTime::from_secs(i * 7919 % 1000), i);
            }
            let mut total = 0u64;
            while let Some((_, v)) = q.pop() {
                total += v;
            }
            black_box(total)
        })
    });
    // Timer churn: the TTL/Alex/invalidation hot path re-arms expiry timers
    // constantly, so half of all scheduled events are cancelled before they
    // fire. A tombstone heap pays a full O(n) scan per cancel here.
    c.bench_function("simcore/event_queue_schedule_cancel_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let handles: Vec<_> = (0..4_096u64)
                .map(|i| q.schedule(SimTime::from_secs(i * 2_654_435_761 % 4_096), i))
                .collect();
            for h in handles.iter().step_by(2) {
                black_box(q.cancel(*h));
            }
            let mut total = 0u64;
            while let Some((_, v)) = q.pop() {
                total += v;
            }
            black_box(total)
        })
    });
    // Re-arm pattern: a standing population of pending timers, each
    // cancel immediately followed by a reschedule (what a revalidation
    // timer does on every touch).
    c.bench_function("simcore/event_queue_rearm_1k_x8", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut handles: Vec<_> = (0..1_024u64)
                .map(|i| q.schedule(SimTime::from_secs(i), i))
                .collect();
            for round in 1..=8u64 {
                for (i, h) in handles.iter_mut().enumerate() {
                    q.cancel(*h);
                    *h = q.schedule(SimTime::from_secs(round * 10_000 + i as u64), i as u64);
                }
            }
            let mut total = 0u64;
            while let Some((_, v)) = q.pop() {
                total += v;
            }
            black_box(total)
        })
    });
}

fn bench_stores(c: &mut Criterion) {
    c.bench_function("proxycache/unbounded_insert_access_1k", |b| {
        b.iter(|| {
            let mut s = UnboundedStore::new();
            for i in 0..1_000u32 {
                s.insert(
                    FileId(i),
                    EntryMeta::fresh(100, SimTime::ZERO, SimTime::ZERO),
                );
            }
            for i in 0..1_000u32 {
                black_box(s.access(FileId(i % 997), SimTime::from_secs(u64::from(i))));
            }
        })
    });
    c.bench_function("proxycache/lru_churn_1k", |b| {
        b.iter(|| {
            let mut s = LruStore::new(50_000);
            for i in 0..1_000u32 {
                s.insert(
                    FileId(i),
                    EntryMeta::fresh(100, SimTime::ZERO, SimTime::ZERO),
                );
            }
            black_box(s.evictions())
        })
    });
    // Pure metadata lookups over a resident population — the per-request
    // path every simulator runs millions of times. A HashMap pays a
    // SipHash per access; a dense slot table pays an array index.
    c.bench_function("proxycache/store_access_dense_16k", |b| {
        let mut s = UnboundedStore::new();
        for i in 0..4_096u32 {
            s.insert(
                FileId(i),
                EntryMeta::fresh(100, SimTime::ZERO, SimTime::ZERO),
            );
        }
        b.iter(|| {
            let mut live = 0u64;
            for i in 0..16_384u32 {
                if s.access(FileId(i.wrapping_mul(2_654_435_761) % 4_096), SimTime::ZERO)
                    .is_some()
                {
                    live += 1;
                }
            }
            black_box(live)
        })
    });
    // Recency maintenance under touch+evict churn: every access reorders
    // the LRU list, every insert beyond capacity evicts. The BTreeMap
    // recency pair costs two O(log n) map updates per touch; the intrusive
    // list costs four pointer writes.
    c.bench_function("proxycache/lru_touch_evict_16k", |b| {
        b.iter(|| {
            // Capacity for half the population: steady-state eviction.
            let mut s = LruStore::new(2_048 * 100);
            for i in 0..4_096u32 {
                s.insert(
                    FileId(i),
                    EntryMeta::fresh(100, SimTime::ZERO, SimTime::ZERO),
                );
            }
            let mut live = 0u64;
            for i in 0..16_384u32 {
                let id = FileId(i.wrapping_mul(2_654_435_761) % 4_096);
                match s.access(id, SimTime::from_secs(u64::from(i))) {
                    Some(_) => live += 1,
                    None => {
                        s.insert(id, EntryMeta::fresh(100, SimTime::ZERO, SimTime::ZERO));
                    }
                }
            }
            black_box((live, s.evictions()))
        })
    });
}

fn bench_policies(c: &mut Criterion) {
    let mut entry = EntryMeta::fresh(100, SimTime::from_secs(0), SimTime::from_secs(0));
    entry.revalidate(SimTime::from_secs(1_000_000));
    let alex = AdaptiveTtl::percent(10);
    let ttl = FixedTtl::hours(100);
    c.bench_function("consistency/alex_expiry", |b| {
        b.iter(|| black_box(alex.expiry(&entry, 0)))
    });
    c.bench_function("consistency/ttl_expiry", |b| {
        b.iter(|| black_box(ttl.expiry(&entry, 0)))
    });
    // The decision-API hot path: a delay-aware decide() with a populated
    // request context, the per-request cost every simulator step pays.
    let renewable = RenewableTtl::hours(24);
    let ctx = RequestCtx::new(SimTime::from_secs(1_000_500), 0)
        .with_delay(simcore::SimDuration::from_secs(7));
    c.bench_function("consistency/renewable_decide", |b| {
        b.iter(|| black_box(renewable.decide(&entry, &ctx)))
    });
}

fn bench_http(c: &mut Criterion) {
    let date = HttpDate(820_454_400);
    c.bench_function("httpsim/conditional_get_round_trip", |b| {
        b.iter(|| {
            let req = Request::get_if_modified_since("/dept/index.html", date);
            let text = req.serialize();
            black_box(Request::parse(&text).expect("round trip"))
        })
    });
    c.bench_function("httpsim/response_serialize", |b| {
        b.iter(|| black_box(Response::ok(date, date, 7_791).serialize_headers()))
    });
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("simstats/detrng_u64", |b| {
        let mut rng = DetRng::seed_from_u64(1);
        b.iter(|| black_box(rng.next_u64()))
    });
    c.bench_function("simstats/zipf_sample_10k_ranks", |b| {
        let zipf = ZipfDist::new(10_000, 1.0);
        let mut rng = DetRng::seed_from_u64(2);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
}

/// Concrete-enum event dispatch: a 10k-event chain driven through
/// `Simulation`, the path `core::sim` uses for its request/modify events.
fn bench_event_dispatch(c: &mut Criterion) {
    const CHAIN: u64 = 10_000;

    #[derive(Clone, Copy)]
    struct EnumTick(u64);
    impl Dispatch<u64> for EnumTick {
        fn dispatch(self, world: &mut u64, sched: &mut Scheduler<u64, Self>) {
            *world += self.0;
            if self.0 < CHAIN {
                let at = sched.now() + simcore::SimDuration::from_secs(1);
                sched.schedule_event_at(at, EnumTick(self.0 + 1));
            }
        }
    }
    c.bench_function("simcore/dispatch_typed_enum_10k", |b| {
        b.iter(|| {
            let mut sim: Simulation<u64, EnumTick> = Simulation::new(0);
            sim.scheduler()
                .schedule_event_at(SimTime::ZERO, EnumTick(1));
            sim.run_to_completion();
            black_box(*sim.world())
        })
    });
}

/// Sequential vs parallel sweep execution over one shared workload: the
/// tentpole speedup. Both variants produce bit-identical results (see
/// `tests/determinism.rs`); only the wall-clock differs.
fn bench_sweep_executor(c: &mut Criterion) {
    let workload = generate_synthetic(&WorrellConfig::scaled(80, 4_000), 1996);
    let thresholds: Vec<u32> = vec![0, 10, 20, 30, 50, 75, 100, 150];
    let config = SimConfig::optimized();
    let sweep = |runner: &SweepRunner| {
        runner.map(&thresholds, |&pct| {
            run(&workload, ProtocolSpec::Alex(pct), &config)
                .traffic
                .total_bytes()
        })
    };

    let sequential = SweepRunner::sequential();
    c.bench_function("webcache/sweep_8pt_sequential", |b| {
        b.iter(|| black_box(sweep(&sequential)))
    });
    let parallel = SweepRunner::new(0);
    c.bench_function("webcache/sweep_8pt_parallel", |b| {
        b.iter(|| black_box(sweep(&parallel)))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_stores,
    bench_policies,
    bench_http,
    bench_stats,
    bench_event_dispatch,
    bench_sweep_executor
);
criterion_main!(benches);
