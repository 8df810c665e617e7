//! Chaos soak: thousands of mixed queries across many client threads, under
//! seeded storage faults, randomized budgets, and mid-flight cancellations —
//! all against one shared [`PCubeDb`] behind an admission gate.
//!
//! The lifecycle contract under test:
//!
//! * **no panics, no deadlocks** — any engine panic fails the test via the
//!   joined worker threads; a watchdog aborts the process if the soak wedges;
//! * **`Complete` is exact** — bit-identical to the clean serial oracle,
//!   even while the signature pagers are injecting seeded read faults
//!   (graceful degradation must not bend answers, only cost);
//! * **`Partial` is honest** — the reason matches a budget that was actually
//!   set, the progress counters agree with the returned rows, serial top-k
//!   partials are prefixes and serial skyline partials sound subsets, and
//!   parallel partials contain only tuples satisfying the selection;
//! * **deadline overshoot ≤ one kernel pop** — the cooperative-checking
//!   guarantee `overshoot_seconds <= max_pop_seconds`, asserted on every
//!   deadline trip.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pcube::core::{
    AdmissionGate, CancelToken, DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb,
    ParallelOptions, Progress, QueryBudget, QueryOutcome, QueryStats, SkylineClass, StopReason,
    TopKClass,
};
use pcube::cube::Selection;
use pcube::data::{sample_selection, synthetic, SyntheticSpec};
use pcube::storage::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;
const TOTAL_QUERIES: usize = 5_000;
const DISTINCT_CASES: usize = 64;

#[derive(Clone)]
enum Query {
    TopK { sel: Selection, k: usize, weights: Vec<f64> },
    Skyline { sel: Selection },
    Dynamic { sel: Selection, q: Vec<f64> },
    Hull { sel: Selection },
}

/// A canonicalized answer, comparable with `==` across threads and runs.
#[derive(Clone, PartialEq, Debug)]
enum Answer {
    TopK(Vec<(u64, Vec<f64>, f64)>),
    Skyline(Vec<(u64, Vec<f64>)>),
    Hull(Vec<(u64, [f64; 2])>),
}

struct Case {
    query: Query,
    oracle: Answer,
}

fn build_cases(db: &PCubeDb, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DISTINCT_CASES)
        .map(|i| {
            let sel = sample_selection(db.relation(), i % 3, &mut rng);
            let query = match i % 4 {
                0 => Query::TopK {
                    sel,
                    k: 3 + i % 16,
                    weights: vec![0.2 + 0.1 * (i % 7) as f64, 0.9 - 0.1 * (i % 5) as f64],
                },
                1 => Query::Skyline { sel },
                2 => Query::Dynamic {
                    sel,
                    q: vec![0.1 * (i % 10) as f64, 1.0 - 0.1 * (i % 10) as f64],
                },
                _ => Query::Hull { sel },
            };
            let oracle = match &query {
                Query::TopK { sel, k, weights } => Answer::TopK(
                    db.run(sel, &TopKClass::new(*k, &LinearFn::new(weights.clone()))).rows,
                ),
                Query::Skyline { sel } => {
                    Answer::Skyline(db.run(sel, &SkylineClass::new(vec![0, 1])).rows)
                }
                Query::Dynamic { sel, q } => {
                    Answer::Skyline(db.run(sel, &DynamicSkylineClass::new(q, vec![0, 1])).rows)
                }
                Query::Hull { sel } => Answer::Hull(db.run(sel, &HullClass::new((0, 1))).rows),
            };
            Case { query, oracle }
        })
        .collect()
}

/// How query `i` is governed, derived deterministically from its index.
enum Governance {
    /// No budget: must complete, bit-identically.
    Unlimited,
    /// An already-expired deadline: guaranteed `DeadlineExceeded`.
    InstantDeadline,
    /// A short random deadline: may complete or trip.
    RandomDeadline(Duration),
    /// A small block budget: usually trips on the unselective cases.
    Blocks(u64),
    /// A small heap cap.
    Heap(usize),
    /// A token cancelled before the query starts: guaranteed `Cancelled`.
    PreCancelled,
    /// A token cancelled from another thread mid-flight.
    MidFlightCancel(Duration),
    /// Run on the parallel engine (workers share one fleet budget).
    Parallel { workers: usize, budget: QueryBudget },
}

fn governance_for(i: usize, rng: &mut StdRng) -> Governance {
    match i % 10 {
        0..=2 => Governance::Unlimited,
        3 => Governance::InstantDeadline,
        4 => Governance::RandomDeadline(Duration::from_micros(rng.gen_range(0..2_000))),
        5 => Governance::Blocks(rng.gen_range(1..=40)),
        6 => Governance::Heap(rng.gen_range(4..=64)),
        7 => Governance::PreCancelled,
        8 => Governance::MidFlightCancel(Duration::from_micros(rng.gen_range(0..300))),
        _ => Governance::Parallel {
            workers: 2 + i % 2,
            budget: match rng.gen_range(0..3u32) {
                0 => QueryBudget::unlimited(),
                1 => QueryBudget::unlimited()
                    .with_deadline(Duration::from_micros(rng.gen_range(0..2_000))),
                _ => QueryBudget::unlimited().with_block_budget(rng.gen_range(1..=40)),
            },
        },
    }
}

/// Tallies across the whole soak, checked at the end.
#[derive(Default)]
struct Tally {
    complete: AtomicU64,
    deadline: AtomicU64,
    blocks: AtomicU64,
    heap: AtomicU64,
    cancelled: AtomicU64,
}

impl Tally {
    fn record(&self, outcome: &QueryOutcome) {
        let counter = match outcome.partial_reason() {
            None => &self.complete,
            Some(StopReason::DeadlineExceeded) => &self.deadline,
            Some(StopReason::BlockBudgetExceeded) => &self.blocks,
            Some(StopReason::HeapCapExceeded) => &self.heap,
            Some(StopReason::Cancelled) => &self.cancelled,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-partial invariants every engine must honor. `exact_rows` is
/// false only for hulls, whose `results_so_far` counts the points *visited*
/// (the returned rows are the hull of those, necessarily no larger).
fn check_progress(i: usize, stats: &QueryStats, rows: usize, serial: bool, exact_rows: bool) {
    let QueryOutcome::Partial { reason, progress } = &stats.outcome else {
        return;
    };
    let Progress { results_so_far, overshoot_seconds, max_pop_seconds, frontier, .. } = *progress;
    if exact_rows {
        assert_eq!(results_so_far, rows, "query {i}: progress vs returned rows");
    } else {
        assert!(results_so_far >= rows, "query {i}: visited points bound the hull size");
    }
    if serial {
        assert!(frontier >= 1, "query {i}: a serial trip abandons at least the popped entry");
    }
    if *reason == StopReason::DeadlineExceeded {
        assert!(
            overshoot_seconds <= max_pop_seconds + 1e-6,
            "query {i}: overshoot {overshoot_seconds}s exceeds one pop ({max_pop_seconds}s)"
        );
    } else {
        assert_eq!(overshoot_seconds, 0.0, "query {i}: overshoot only for deadline trips");
    }
}

fn assert_reason_allowed(i: usize, reason: StopReason, allowed: &[StopReason]) {
    assert!(
        allowed.contains(&reason),
        "query {i}: stop reason {reason} but only {allowed:?} were configured"
    );
}

#[allow(clippy::too_many_lines)]
fn run_one(db: &PCubeDb, i: usize, case: &Case, tally: &Tally) {
    let mut rng = StdRng::seed_from_u64(0x50AC ^ i as u64);
    let governance = governance_for(i, &mut rng);

    // Resolve governance into (budget, cancel token, helper thread, the
    // reasons this configuration is allowed to produce, parallel workers).
    let mut budget = QueryBudget::unlimited();
    let mut cancel: Option<CancelToken> = None;
    let mut canceller: Option<std::thread::JoinHandle<()>> = None;
    let mut allowed: Vec<StopReason> = Vec::new();
    let mut workers = 0usize;
    match governance {
        Governance::Unlimited => {}
        Governance::InstantDeadline => {
            budget = budget.with_deadline(Duration::ZERO);
            allowed.push(StopReason::DeadlineExceeded);
        }
        Governance::RandomDeadline(d) => {
            budget = budget.with_deadline(d);
            allowed.push(StopReason::DeadlineExceeded);
        }
        Governance::Blocks(b) => {
            budget = budget.with_block_budget(b);
            allowed.push(StopReason::BlockBudgetExceeded);
        }
        Governance::Heap(h) => {
            budget = budget.with_heap_cap(h);
            allowed.push(StopReason::HeapCapExceeded);
        }
        Governance::PreCancelled => {
            let token = CancelToken::new();
            token.cancel();
            cancel = Some(token);
            allowed.push(StopReason::Cancelled);
        }
        Governance::MidFlightCancel(after) => {
            let token = CancelToken::new();
            let handle = token.clone();
            canceller = Some(std::thread::spawn(move || {
                std::thread::sleep(after);
                handle.cancel();
            }));
            cancel = Some(token);
            allowed.push(StopReason::Cancelled);
        }
        Governance::Parallel { workers: w, budget: b } => {
            workers = w;
            if b.deadline().is_some() {
                allowed.push(StopReason::DeadlineExceeded);
            }
            if b.max_blocks().is_some() {
                allowed.push(StopReason::BlockBudgetExceeded);
            }
            // One worker's trip drains the fleet: siblings report Cancelled.
            if !allowed.is_empty() {
                allowed.push(StopReason::Cancelled);
            }
            budget = b;
        }
    }
    let serial = workers == 0;

    // Admission: every soak query goes through the gate. The gate has fewer
    // slots than client threads but a generous wait, so queries queue under
    // real contention yet never shed.
    let permit = db.admit().expect("generous admission wait must not shed");
    assert!(permit.is_some(), "the soak installs a gate");

    match &case.query {
        Query::TopK { sel, k, weights } => {
            let f = LinearFn::new(weights.clone());
            let class = TopKClass::new(*k, &f);
            let out = if serial {
                db.run_governed(sel, &class, &budget, cancel.as_ref())
            } else {
                let opts = ParallelOptions::with_workers(workers);
                db.par_run_governed(sel, &class, opts, &budget, cancel.as_ref())
            };
            let (topk, stats) = (out.rows, out.stats);
            check_progress(i, &stats, topk.len(), serial, true);
            match &stats.outcome {
                QueryOutcome::Complete => {
                    assert_eq!(Answer::TopK(topk), case.oracle, "query {i}: complete top-k");
                }
                QueryOutcome::Partial { reason, .. } => {
                    assert_reason_allowed(i, *reason, &allowed);
                    let Answer::TopK(full) = &case.oracle else { panic!("oracle kind") };
                    if serial {
                        // Serial top-k accepts in ascending score order: any
                        // partial is a prefix of the true answer.
                        assert_eq!(&topk[..], &full[..topk.len()], "query {i}: partial prefix");
                    } else {
                        for (tid, _, _) in &topk {
                            assert!(
                                db.relation().matches(*tid, sel),
                                "query {i}: parallel partial returned non-qualifying {tid}"
                            );
                        }
                    }
                }
            }
            tally.record(&stats.outcome);
        }
        Query::Skyline { sel } => {
            let class = SkylineClass::new(vec![0, 1]);
            let out = if serial {
                db.run_governed(sel, &class, &budget, cancel.as_ref())
            } else {
                let opts = ParallelOptions::with_workers(workers);
                db.par_run_governed(sel, &class, opts, &budget, cancel.as_ref())
            };
            let (sky, stats) = (out.rows, out.stats);
            check_progress(i, &stats, sky.len(), serial, true);
            match &stats.outcome {
                QueryOutcome::Complete => {
                    assert_eq!(Answer::Skyline(sky), case.oracle, "query {i}: complete skyline");
                }
                QueryOutcome::Partial { reason, .. } => {
                    assert_reason_allowed(i, *reason, &allowed);
                    let Answer::Skyline(full) = &case.oracle else { panic!("oracle kind") };
                    if serial {
                        // BBS accepts only never-dominated points: a serial
                        // partial skyline is a sound subset.
                        for p in &sky {
                            assert!(full.contains(p), "query {i}: partial skyline ⊆ full");
                        }
                    } else {
                        for (tid, _) in &sky {
                            assert!(
                                db.relation().matches(*tid, sel),
                                "query {i}: parallel partial returned non-qualifying {tid}"
                            );
                        }
                    }
                }
            }
            tally.record(&stats.outcome);
        }
        Query::Dynamic { sel, q } => {
            // Serial only (the parallel mode maps dynamic cases here too —
            // governance still applies, just on one thread).
            let class = DynamicSkylineClass::new(q, vec![0, 1]);
            let out = db.run_governed(sel, &class, &budget, cancel.as_ref());
            check_progress(i, &out.stats, out.rows.len(), true, true);
            match &out.stats.outcome {
                QueryOutcome::Complete => {
                    assert_eq!(
                        Answer::Skyline(out.rows),
                        case.oracle,
                        "query {i}: complete dynamic skyline"
                    );
                }
                QueryOutcome::Partial { reason, .. } => {
                    assert_reason_allowed(i, *reason, &allowed);
                    let Answer::Skyline(full) = &case.oracle else { panic!("oracle kind") };
                    for p in &out.rows {
                        assert!(full.contains(p), "query {i}: partial dynamic skyline ⊆ full");
                    }
                }
            }
            tally.record(&out.stats.outcome);
        }
        Query::Hull { sel } => {
            let out = db.run_governed(sel, &HullClass::new((0, 1)), &budget, cancel.as_ref());
            check_progress(i, &out.stats, out.rows.len(), true, false);
            match &out.stats.outcome {
                QueryOutcome::Complete => {
                    assert_eq!(Answer::Hull(out.rows), case.oracle, "query {i}: complete hull");
                }
                QueryOutcome::Partial { reason, .. } => {
                    // A partial hull carries no membership guarantee (it is
                    // the hull of the visited points); only the books are
                    // checked, which check_progress already did.
                    assert_reason_allowed(i, *reason, &allowed);
                }
            }
            tally.record(&out.stats.outcome);
        }
    }
    drop(permit);
    if let Some(h) = canceller {
        h.join().expect("canceller thread never panics");
    }
}

/// The soak itself: ≥5,000 queries, ≥8 threads, seeded faults on both
/// signature pagers, an admission gate narrower than the thread count, and
/// every governance mode in the mix.
#[test]
fn soak_mixed_queries_under_faults_budgets_and_cancels() {
    // Watchdog: a wedged soak (deadlock, livelock) aborts loudly instead of
    // hanging the suite past CI's timeout.
    let finished = Arc::new(AtomicBool::new(false));
    let watchdog_flag = finished.clone();
    std::thread::spawn(move || {
        for _ in 0..240 {
            std::thread::sleep(Duration::from_secs(1));
            if watchdog_flag.load(Ordering::Relaxed) {
                return;
            }
        }
        eprintln!("soak watchdog: still running after 240s — aborting (deadlock?)");
        std::process::abort();
    });

    let spec = SyntheticSpec {
        n_tuples: 2_000,
        n_bool: 3,
        n_pref: 2,
        cardinality: 6,
        seed: 7,
        ..Default::default()
    };
    let mut db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());

    // Oracles come from the clean database; faults are installed after.
    let cases = build_cases(&db, 7);

    db.signature_store_mut()
        .sig_pager_mut()
        .set_fault_plan(FaultPlan::seeded(0xC4A0).with_read_errors(0.3));
    db.signature_store_mut()
        .dir_pager_mut()
        .set_fault_plan(FaultPlan::seeded(0x0D1E).with_read_errors(0.2));
    db.set_admission_gate(AdmissionGate::new(THREADS - 2, Duration::from_secs(60)));

    let tally = Tally::default();
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (db, cases, tally, next) = (&db, &cases, &tally, &next);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= TOTAL_QUERIES {
                        break;
                    }
                    run_one(db, i, &cases[i % cases.len()], tally);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("soak worker panicked");
        }
    });
    finished.store(true, Ordering::Relaxed);

    // The gate saw every query and, with its generous wait, shed none.
    let gate = db.admission_gate().expect("gate installed");
    assert_eq!(gate.admitted_total(), TOTAL_QUERIES as u64, "every query was admitted");
    assert_eq!(gate.shed_total(), 0, "a 60s wait never sheds a soak query");
    assert_eq!(gate.in_flight(), 0, "all permits released");

    // The mix must actually have exercised every lifecycle path.
    let complete = tally.complete.load(Ordering::Relaxed);
    let deadline = tally.deadline.load(Ordering::Relaxed);
    let blocks = tally.blocks.load(Ordering::Relaxed);
    let heap = tally.heap.load(Ordering::Relaxed);
    let cancelled = tally.cancelled.load(Ordering::Relaxed);
    assert_eq!(
        complete + deadline + blocks + heap + cancelled,
        TOTAL_QUERIES as u64,
        "every query tallied exactly once"
    );
    assert!(complete > 0, "unlimited queries completed");
    assert!(deadline > 0, "instant deadlines tripped");
    assert!(blocks > 0, "small block budgets tripped");
    assert!(heap > 0, "small heap caps tripped");
    assert!(cancelled > 0, "pre-cancelled tokens tripped");
    assert!(
        db.stats().degraded_reads() > 0,
        "the seeded fault plans must actually have fired during the soak"
    );
    eprintln!(
        "soak: {complete} complete, {deadline} deadline, {blocks} blocks, \
         {heap} heap, {cancelled} cancelled"
    );
}
