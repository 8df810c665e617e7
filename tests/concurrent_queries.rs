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

use pcube::core::{
    DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb, ParallelOptions, SkylineClass,
    TopKClass,
};
use pcube::cube::Selection;
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use pcube::storage::{IoCategory, IoSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: usize = 8;

/// One query of the mixed workload. Weights are deterministic per index so
/// every run (and every thread schedule) sees the same workload.
#[derive(Clone)]
enum Query {
    TopK { sel: Selection, k: usize, weights: Vec<f64> },
    Skyline { sel: Selection },
    Dynamic { sel: Selection, q: Vec<f64> },
    Hull { sel: Selection },
}

/// A canonicalized answer, comparable with `==` across runs.
#[derive(Clone, PartialEq, Debug)]
enum Answer {
    TopK(Vec<(u64, Vec<f64>, f64)>),
    Skyline(Vec<(u64, Vec<f64>)>),
    Hull(Vec<(u64, [f64; 2])>),
}

fn run_serial(db: &PCubeDb, q: &Query) -> Answer {
    match q {
        Query::TopK { sel, k, weights } => {
            Answer::TopK(db.run(sel, &TopKClass::new(*k, &LinearFn::new(weights.clone()))).rows)
        }
        Query::Skyline { sel } => Answer::Skyline(db.run(sel, &SkylineClass::new(vec![0, 1])).rows),
        Query::Dynamic { sel, q } => {
            Answer::Skyline(db.run(sel, &DynamicSkylineClass::new(q, vec![0, 1])).rows)
        }
        Query::Hull { sel } => Answer::Hull(db.run(sel, &HullClass::new((0, 1))).rows),
    }
}

fn run_parallel(db: &PCubeDb, q: &Query, workers: usize) -> Answer {
    let opts = ParallelOptions::with_workers(workers);
    match q {
        Query::TopK { sel, k, weights } => {
            let f = LinearFn::new(weights.clone());
            Answer::TopK(db.par_run(sel, &TopKClass::new(*k, &f), opts).rows)
        }
        Query::Skyline { sel } => {
            Answer::Skyline(db.par_run(sel, &SkylineClass::new(vec![0, 1]), opts).rows)
        }
        Query::Dynamic { sel, q } => {
            Answer::Skyline(db.par_run(sel, &DynamicSkylineClass::new(q, vec![0, 1]), opts).rows)
        }
        Query::Hull { sel } => Answer::Hull(db.par_run(sel, &HullClass::new((0, 1)), opts).rows),
    }
}

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

fn build_workload(db: &PCubeDb, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|i| {
            let sel = sample_selection(db.relation(), i % 3, &mut rng);
            match i % 4 {
                0 => Query::TopK {
                    sel,
                    k: 3 + i % 10,
                    weights: vec![0.2 + 0.1 * (i % 7) as f64, 0.9 - 0.1 * (i % 5) as f64],
                },
                1 => Query::Skyline { sel },
                2 => Query::Dynamic {
                    sel,
                    q: vec![0.1 * (i % 10) as f64, 1.0 - 0.1 * (i % 10) as f64],
                },
                _ => Query::Hull { sel },
            }
        })
        .collect()
}

/// 8 threads hammer the serial engines on one shared database; each answer
/// must equal the single-threaded answer, and the shared atomic ledger's
/// delta must equal the sum of per-query serial deltas (no lost updates,
/// no double charges).
#[test]
fn concurrent_serial_queries_identical_results_and_exact_counters() {
    let db = build_db();
    let workload = build_workload(&db, 32);

    // Warm pass: populate the signature directory's pinned internal-page
    // cache so every later run of the same query charges identical I/O
    // (a cold concurrent pass could double-charge racing cache misses —
    // that is a cache property, not a ledger property).
    for q in &workload {
        run_serial(&db, q);
    }

    // Measure pass: per-query expected answers and per-query I/O deltas.
    let mut expected = Vec::new();
    let mut deltas: Vec<IoSnapshot> = Vec::new();
    for q in &workload {
        let before = db.stats().snapshot();
        expected.push(run_serial(&db, q));
        deltas.push(db.stats().snapshot().since(&before));
    }
    // Sanity: warmed queries must be deterministic, otherwise the counter
    // equality below would be vacuous or flaky.
    for (i, q) in workload.iter().enumerate() {
        let before = db.stats().snapshot();
        assert_eq!(run_serial(&db, q), expected[i], "query {i} not deterministic");
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
                        assert_eq!(run_serial(db, q), expected[i], "thread {t}, query {i}");
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
/// threads × 4 workers each) still return bit-identical answers. I/O counts
/// may legitimately vary (shared pruning bounds are timing-dependent);
/// results may not.
#[test]
fn concurrent_parallel_queries_are_bit_identical_to_serial() {
    let db = build_db();
    let workload = build_workload(&db, 24);
    let expected: Vec<Answer> = workload.iter().map(|q| run_serial(&db, q)).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (db, workload, expected) = (&db, &workload, &expected);
            scope.spawn(move || {
                for (i, q) in workload.iter().enumerate() {
                    if i % THREADS == t {
                        assert_eq!(
                            run_parallel(db, q, 4),
                            expected[i],
                            "thread {t}, query {i} (parallel)"
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
    let workload = build_workload(&db, 16);
    let expected: Vec<Answer> = workload.iter().map(|q| run_serial(&db, q)).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (db, workload, expected) = (&db, &workload, &expected);
            scope.spawn(move || {
                for (i, q) in workload.iter().enumerate() {
                    if i % THREADS == t {
                        let got = if t % 2 == 0 {
                            run_serial(db, q)
                        } else {
                            run_parallel(db, q, 3)
                        };
                        assert_eq!(got, expected[i], "thread {t}, query {i}");
                    }
                }
            });
        }
    });
}
