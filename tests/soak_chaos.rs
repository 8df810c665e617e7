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
//!   set, the progress counters agree with the returned rows, and the rows
//!   keep what their class documents (`Case::check_partial`: serial top-k
//!   partials are prefixes and serial skyline partials sound subsets;
//!   p-skyline and parallel partials contain only tuples satisfying the
//!   selection);
//! * **deadline overshoot ≤ one kernel pop** — the cooperative-checking
//!   guarantee `overshoot_seconds <= max_pop_seconds`, asserted on every
//!   deadline trip.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pcube::core::{
    AdmissionGate, CancelToken, PCubeConfig, PCubeDb, ParallelOptions, QueryBudget, StopReason,
};
use pcube::data::{synthetic, SyntheticSpec};
use pcube::storage::Counter;
use pcube_bench::mix::{drain, Case, Row};
use pcube_bench::soak::{arm_faults, audit, cases, Tally};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;
const TOTAL_QUERIES: usize = 5_000;
/// Coprime to the ten governance slots of [`governance_for`]: query `i` runs
/// case `i % 63` under arm `i % 10`, so every case — hence every class —
/// meets every arm.
const DISTINCT_CASES: usize = 63;

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

fn assert_reason_allowed(i: usize, reason: StopReason, allowed: &[StopReason]) {
    assert!(
        allowed.contains(&reason),
        "query {i}: stop reason {reason} but only {allowed:?} were configured"
    );
}

/// How one query ended: its class, why it stopped early (`None` = complete),
/// and whether it ran on the serial engine.
type Ended = (&'static str, Option<StopReason>, bool);

fn run_one(
    db: &PCubeDb,
    gate: &AdmissionGate,
    i: usize,
    (case, oracle): &(Case, Vec<Row>),
    tally: &Tally,
) -> Ended {
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
    let permit = gate.admit().expect("generous admission wait must not shed");

    // Every class runs on the engine its governance names (the parallel
    // arm fans all six out), answers in one row type, and is audited by
    // the rule its own rustdoc states.
    let out = case.run(db, ParallelOptions { workers, budget, cancel });
    let kind = case.kind();
    if let Some(reason) = out.stats.outcome.partial_reason() {
        assert_reason_allowed(i, reason, &allowed);
    }
    audit(db, case, oracle, &out, serial)
        .unwrap_or_else(|why| panic!("query {i} ({kind}): {why}"));
    tally.record(&out.stats.outcome);
    drop(permit);
    if let Some(h) = canceller {
        h.join().expect("canceller thread never panics");
    }
    (kind, out.stats.outcome.partial_reason(), serial)
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
    let cases = cases(&db, DISTINCT_CASES, 7);
    arm_faults(&mut db, 0);
    let gate = AdmissionGate::new(THREADS - 2, Duration::from_secs(60));

    let tally = Tally::default();
    let ended =
        drain(THREADS, TOTAL_QUERIES, |i| run_one(&db, &gate, i, &cases[i % cases.len()], &tally));
    finished.store(true, Ordering::Relaxed);

    // The gate saw every query and, with its generous wait, shed none.
    assert_eq!(gate.admitted_total(), TOTAL_QUERIES as u64, "every query was admitted");
    assert_eq!(gate.shed_total(), 0, "a 60s wait never sheds a soak query");
    assert_eq!(gate.in_flight(), 0, "all permits released");

    // The mix must actually have exercised every lifecycle path.
    let [complete, deadline, blocks, heap, cancelled] = tally.counts();
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
    // Class by class: each of the six completed and was cut short for each
    // of the four reasons on the serial engine, and completed and was cut
    // short on the parallel one.
    for kind in ["topk", "skyline", "dynamic", "hull", "pskyline", "subspace"] {
        let reasons = [
            StopReason::DeadlineExceeded,
            StopReason::BlockBudgetExceeded,
            StopReason::HeapCapExceeded,
            StopReason::Cancelled,
        ];
        for reason in reasons.map(Some).into_iter().chain([None]) {
            assert!(ended.contains(&(kind, reason, true)), "no serial {kind} ended {reason:?}");
        }
        for complete in [true, false] {
            assert!(
                ended.iter().any(|&(k, r, serial)| k == kind && !serial && r.is_none() == complete),
                "no parallel {kind} run with complete = {complete}"
            );
        }
    }
    assert!(
        db.stats().get(Counter::DegradedReads) > 0,
        "the seeded fault plans must actually have fired during the soak"
    );
    eprintln!(
        "soak: {complete} complete, {deadline} deadline, {blocks} blocks, \
         {heap} heap, {cancelled} cancelled"
    );
}
