//! Concurrency stress: one shared `PCubeDb`, many client threads, no
//! interior mutability escapes. Two contracts are checked:
//!
//! 1. **Result identity** — every query answered under heavy thread
//!    contention (serial engines from 8 threads, and the parallel engines
//!    fanning out on top of that) equals the answer computed alone on one
//!    thread, bit for bit.
//! 2. **Counter consistency** — the atomic [`IoStats`] ledger loses no
//!    updates: with caches pre-warmed so each query's I/O is deterministic,
//!    the ledger's total delta across a concurrent run equals the sum of
//!    the per-query serial deltas.

use pcube::core::{PCubeConfig, PCubeDb, ParallelOptions};
use pcube::data::{synthetic, Distribution, SyntheticSpec};
use pcube::storage::{IoCategory, IoSnapshot};
use pcube_bench::mix::{mix, Case, Row};

const THREADS: usize = 8;

fn build_db() -> PCubeDb {
    let spec = SyntheticSpec {
        n_tuples: 3000,
        n_bool: 3,
        n_pref: 2,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: 42,
    };
    PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
}

/// The six-class mix (top-k, skyline, dynamic skyline, hull, p-skyline,
/// subspace skyline), the same for every run and every thread schedule.
fn build_workload(db: &PCubeDb, n: usize) -> Vec<Case> {
    mix(db.relation(), n, 7)
}

/// 8 threads hammer the serial engines on one shared database; each answer
/// must equal the single-threaded answer, and the shared atomic ledger's
/// delta must equal the sum of per-query serial deltas (no lost updates,
/// no double charges).
#[test]
fn concurrent_serial_queries_identical_results_and_exact_counters() {
    let db = build_db();
    let workload = build_workload(&db, 36);

    // Warm pass: populate the signature directory's pinned internal-page
    // cache so every later run of the same query charges identical I/O
    // (a cold concurrent pass could double-charge racing cache misses —
    // that is a cache property, not a ledger property).
    for q in &workload {
        q.run(&db, ParallelOptions::default());
    }

    // Measure pass: per-query expected answers and per-query I/O deltas.
    let mut expected = Vec::new();
    let mut deltas: Vec<IoSnapshot> = Vec::new();
    for q in &workload {
        let before = db.stats().snapshot();
        expected.push(q.run(&db, ParallelOptions::default()).rows);
        deltas.push(db.stats().snapshot().since(&before));
    }
    // Sanity: warmed queries must be deterministic, otherwise the counter
    // equality below would be vacuous or flaky.
    for (i, q) in workload.iter().enumerate() {
        let before = db.stats().snapshot();
        let again = q.run(&db, ParallelOptions::default()).rows;
        assert_eq!(again, expected[i], "query {i} not deterministic");
        assert_eq!(
            db.stats().snapshot().since(&before),
            deltas[i],
            "query {i} I/O not deterministic after warm-up"
        );
    }

    // Concurrent pass: round-robin the workload over the threads; every
    // thread checks its own answers.
    let before = db.stats().snapshot();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (db, workload, expected) = (&db, &workload, &expected);
            scope.spawn(move || {
                for (i, q) in workload.iter().enumerate() {
                    if i % THREADS == t {
                        let rows = q.run(db, ParallelOptions::default()).rows;
                        assert_eq!(rows, expected[i], "thread {t}, query {i}");
                    }
                }
            });
        }
    });
    let delta = db.stats().snapshot().since(&before);

    // Counter consistency: the concurrent total equals the serial sum,
    // category by category.
    for cat in IoCategory::ALL {
        let expect: u64 = deltas.iter().map(|d| d.reads(cat)).sum();
        assert_eq!(delta.reads(cat), expect, "lost/extra reads in {cat}");
        let expect_w: u64 = deltas.iter().map(|d| d.writes(cat)).sum();
        assert_eq!(delta.writes(cat), expect_w, "lost/extra writes in {cat}");
    }
}

/// The parallel engines running *concurrently with each other* (8 client
/// threads × 2, 3 or 8 workers each, every class at every count) still
/// return bit-identical answers. I/O counts may legitimately vary (shared
/// pruning bounds are timing-dependent); results may not.
#[test]
fn concurrent_parallel_queries_are_bit_identical_to_serial() {
    let db = build_db();
    let workload = build_workload(&db, 24);
    let expected: Vec<Vec<Row>> =
        workload.iter().map(|q| q.run(&db, ParallelOptions::default()).rows).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (db, workload, expected) = (&db, &workload, &expected);
            scope.spawn(move || {
                for (i, q) in workload.iter().enumerate() {
                    if i % THREADS == t {
                        let workers = [2, 3, 8][(i / 6) % 3];
                        assert_eq!(
                            q.run(db, ParallelOptions::with_workers(workers)).rows,
                            expected[i],
                            "thread {t}, query {i} ({workers} workers)"
                        );
                    }
                }
            });
        }
    });
}

/// Same database queried by serial and parallel engines at once — a mixed
/// fleet sharing one buffer of signatures, R-tree pages, and counters.
#[test]
fn mixed_serial_and_parallel_fleet_agrees() {
    let db = build_db();
    let workload = build_workload(&db, 18);
    let expected: Vec<Vec<Row>> =
        workload.iter().map(|q| q.run(&db, ParallelOptions::default()).rows).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (db, workload, expected) = (&db, &workload, &expected);
            scope.spawn(move || {
                for (i, q) in workload.iter().enumerate() {
                    if i % THREADS == t {
                        let got = if t % 2 == 0 {
                            q.run(db, ParallelOptions::default()).rows
                        } else {
                            q.run(db, ParallelOptions::with_workers(3)).rows
                        };
                        assert_eq!(got, expected[i], "thread {t}, query {i}");
                    }
                }
            });
        }
    });
}
