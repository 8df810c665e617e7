//! High-contention read-path tests: many client threads hammering a *small*
//! hot set so every thread fights over the same pages, shards, and shared
//! pruning state at once. Two contracts:
//!
//! 1. **Differential** — answers computed by the parallel engines (2, 4 and
//!    8 workers) under 8-thread client contention are bit-identical to the
//!    single-threaded serial answers.
//! 2. **Bounded locking** — the [`ShardedBufferPool`] read path takes a
//!    provably bounded number of shard-lock acquisitions: 1 per hit, 2 per
//!    single-flight miss, plus at most one re-acquisition per waiter wakeup
//!    (and a fetch completion can wake at most `threads − 1` waiters). A
//!    regression that re-introduces lock traffic on the read path — e.g.
//!    holding the shard lock across the pager read, or looping waiters
//!    without making progress — blows through the bound.

use pcube::core::{PCubeConfig, PCubeDb, ParallelOptions};
use pcube::data::{synthetic, Distribution, SyntheticSpec};
use pcube::storage::{IoCategory, IoStats, Pager, ShardedBufferPool, PAGE_SIZE};
use pcube_bench::mix::{mix, Case, Row};

const CLIENT_THREADS: usize = 8;

fn build_db() -> PCubeDb {
    let spec = SyntheticSpec {
        n_tuples: 4000,
        n_bool: 3,
        n_pref: 2,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: 42,
    };
    PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
}

/// A *small* hot set (one query of each of the six classes) that every
/// thread loops over many times — unlike a broad workload, contention
/// concentrates on the same cells, pages and shared bounds.
fn build_hot_set(db: &PCubeDb) -> Vec<Case> {
    mix(db.relation(), 6, 13)
}

/// 8 client threads loop a 6-query hot set; each iteration runs the parallel
/// engine with 2, 4 or 8 workers (rotating). Every answer must be
/// bit-identical to the serial baseline, for every worker count, under
/// maximum cross-thread interference.
#[test]
fn hot_cell_contention_parallel_answers_bit_identical_at_2_4_8_workers() {
    let db = build_db();
    let hot = build_hot_set(&db);
    let expected: Vec<Vec<Row>> =
        hot.iter().map(|q| q.run(&db, ParallelOptions::default()).rows).collect();
    const ROUNDS: usize = 8;

    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let (db, hot, expected) = (&db, &hot, &expected);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, q) in hot.iter().enumerate() {
                        // 2, 4 and 8 workers, staggered per thread so every
                        // worker count runs concurrently with every other.
                        let workers = 1 << (1 + (t + round + i) % 3);
                        assert_eq!(
                            q.run(db, ParallelOptions::with_workers(workers)).rows,
                            expected[i],
                            "thread {t}, round {round}, hot query {i}, {workers} workers"
                        );
                    }
                }
            });
        }
    });
}

/// Serial engines under the same hot-cell contention: still bit-identical
/// and still deterministic per query.
#[test]
fn hot_cell_contention_serial_answers_bit_identical() {
    let db = build_db();
    let hot = build_hot_set(&db);
    let expected: Vec<Vec<Row>> =
        hot.iter().map(|q| q.run(&db, ParallelOptions::default()).rows).collect();

    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let (db, hot, expected) = (&db, &hot, &expected);
            scope.spawn(move || {
                for round in 0..8 {
                    for (i, q) in hot.iter().enumerate() {
                        assert_eq!(
                            q.run(db, ParallelOptions::default()).rows,
                            expected[i],
                            "thread {t}, round {round}, hot query {i}"
                        );
                    }
                }
            });
        }
    });
}

/// The shard-lock cost contract under forced contention. A deliberately tiny
/// pool (capacity 16 over 4 shards, 256 distinct pages) guarantees constant
/// evictions, so threads keep colliding on misses for the same hot pages.
///
/// Accounting (see `ShardedBufferPool::try_read`):
/// * every request acquires the shard lock once on entry,
/// * a single-flight miss re-acquires it once to install the fetched page,
/// * a waiter re-acquires once per wakeup, and each of the `misses` fetch
///   completions wakes at most `threads − 1` waiters.
///
/// Hence: `requests ≤ acquisitions ≤ requests + misses × threads`. A
/// lock-per-page-read regression multiplies acquisitions by the page count
/// per request and fails the upper bound.
#[test]
fn sharded_pool_lock_acquisitions_bounded_under_forced_misses() {
    const PAGES: u64 = 256;
    const PER_THREAD: usize = 2000;

    let stats = IoStats::new_shared();
    let mut pager = Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, stats);
    let pids: Vec<_> = (0..PAGES)
        .map(|i| {
            let pid = pager.allocate();
            let mut page = vec![0u8; PAGE_SIZE];
            page[..8].copy_from_slice(&i.to_le_bytes());
            pager.write(pid, &page);
            pid
        })
        .collect();

    // 16 slots over 4 shards for 256 pages: the pool thrashes by design.
    let pool = ShardedBufferPool::new(16, 4);

    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let (pool, pager, pids) = (&pool, &pager, &pids);
            scope.spawn(move || {
                let mut state = 0x9e3779b97f4a7c15u64 ^ (t as u64) << 32;
                for _ in 0..PER_THREAD {
                    // Cheap xorshift: ~90% of reads hit a 16-page hot set so
                    // threads collide on the same shards; the rest sweep the
                    // full range to force evictions.
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let i = if state % 10 < 9 {
                        (state >> 8) % 16
                    } else {
                        (state >> 8) % PAGES
                    } as usize;
                    let page = pool.try_read(pager, pids[i]).expect("unfaulted read");
                    assert_eq!(
                        u64::from_le_bytes(page[..8].try_into().expect("8-byte prefix")),
                        i as u64,
                        "torn or misrouted page under contention"
                    );
                }
            });
        }
    });

    let requests = (CLIENT_THREADS * PER_THREAD) as u64;
    let hits = pool.hits();
    let misses = pool.misses();
    let acquisitions = pool.lock_acquisitions();
    // Every request resolves as exactly one hit or one miss.
    assert_eq!(hits + misses, requests, "request accounting drifted");
    // The thrashing config must actually exercise the miss path heavily.
    assert!(misses > requests / 20, "only {misses} misses in {requests} requests");
    // The lock-cost contract: never fewer than one acquisition per request,
    // never more than the single-flight + waiter-wakeup ceiling.
    assert!(acquisitions >= requests, "{acquisitions} acquisitions < {requests} requests");
    let ceiling = requests + misses * CLIENT_THREADS as u64;
    assert!(
        acquisitions <= ceiling,
        "{acquisitions} shard-lock acquisitions exceed bound {ceiling} \
         ({requests} requests, {misses} misses, {CLIENT_THREADS} threads)"
    );
    // Contention is spread: every shard saw traffic.
    for s in 0..pool.shard_count() {
        assert!(
            pool.shard_lock_acquisitions(s) > 0,
            "shard {s} never touched — hot set maps degenerately"
        );
    }
}

/// Under a wall-clock per-page read latency (the serve_bench simulation) the
/// single-flight pool still returns correct bytes and charges each page
/// fetch exactly once per miss — sleeping readers must not double-fetch.
#[test]
fn single_flight_holds_under_wall_read_latency() {
    let stats = IoStats::new_shared();
    let mut pager = Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, stats.clone());
    let pids: Vec<_> = (0..8u64)
        .map(|i| {
            let pid = pager.allocate();
            let mut page = vec![0u8; PAGE_SIZE];
            page[..8].copy_from_slice(&i.to_le_bytes());
            pager.write(pid, &page);
            pid
        })
        .collect();
    pager.set_read_delay(Some(std::time::Duration::from_micros(200)));
    let before = stats.snapshot();

    let pool = ShardedBufferPool::new(64, 4);
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            let (pool, pager, pids) = (&pool, &pager, &pids);
            scope.spawn(move || {
                for (i, pid) in pids.iter().enumerate() {
                    let page = pool.try_read(pager, *pid).expect("unfaulted read");
                    assert_eq!(
                        u64::from_le_bytes(page[..8].try_into().expect("8-byte prefix")),
                        i as u64
                    );
                }
            });
        }
    });

    // All 8 threads demanded all 8 pages, but single-flight means each page
    // was fetched from the pager exactly once — even though the fetch now
    // takes 200 µs and every other thread arrives while it is in flight.
    let delta = stats.snapshot().since(&before);
    assert_eq!(delta.reads(IoCategory::RtreeBlock), pids.len() as u64);
    assert_eq!(pool.misses(), pids.len() as u64);
    assert_eq!(pool.hits(), (CLIENT_THREADS * pids.len()) as u64 - pids.len() as u64);
}
