//! Group-commit durability properties.
//!
//! The contract under test: with any interleaving of concurrent committers
//! feeding one log writer, and a crash at **any** batch boundary (including
//! mid-fsync, with a seeded torn cut), recovery yields a *prefix-closed*
//! set of committed transactions — every transaction recovery keeps is
//! preceded only by kept transactions in submission order, every receipt
//! acknowledged durable survives, and the recovered database answers
//! exactly like a clean re-execution of the surviving prefix.
//!
//! Two angles:
//!
//! * a deterministic proptest that models arbitrary arrival orders and
//!   batch splits directly through [`DurableDb::apply_batch`] (the same
//!   code path the queue's writer thread uses), so every case is seeded
//!   and replayable;
//! * a real-thread test that pushes concurrent submitters through
//!   [`CommitQueue`] with a crash plan installed, then recovers the corpse.

#[path = "support/durable.rs"]
mod durable;

use durable::seed_relation;
use pcube::prelude::*;
use proptest::prelude::*;

const SEED_ROWS: usize = 32;

/// The `k`-th submitted transaction: one insert with a payload derived from
/// `k`, so any prefix of the submission order is a pure function of its
/// length.
fn txn(k: usize) -> Vec<MaintenanceOp> {
    vec![MaintenanceOp::Insert {
        codes: vec![(k % 3) as u32, (k % 2) as u32],
        coords: vec![(k as f64 * 0.271 + 0.07).fract(), (k as f64 * 0.413 + 0.19).fract()],
    }]
}

/// Splits the first `n_txns` transactions into fsync batches whose sizes
/// cycle through `sizes`.
fn batches(n_txns: usize, sizes: &[usize]) -> Vec<Vec<Vec<MaintenanceOp>>> {
    let mut out = Vec::new();
    let mut next = 0usize;
    let mut cursor = 0usize;
    while next < n_txns {
        let take = sizes[cursor % sizes.len()].min(n_txns - next);
        cursor += 1;
        out.push((next..next + take).map(txn).collect());
        next += take;
    }
    out
}

fn skyline_tids(db: &PCubeDb) -> Vec<u64> {
    let out = db.run(&Vec::new(), &SkylineClass::new(vec![0, 1]));
    let mut tids: Vec<u64> = out.rows.iter().map(|(t, _)| *t).collect();
    tids.sort_unstable();
    tids
}

/// A clean re-execution of the first `n` submitted transactions.
fn oracle(n: u64) -> PCubeDb {
    let mut db = PCubeDb::build(seed_relation(SEED_ROWS), &PCubeConfig::default());
    for k in 0..n as usize {
        for op in txn(k) {
            match op {
                MaintenanceOp::Insert { codes, coords } => {
                    db.insert_coded(&codes, &coords);
                }
                MaintenanceOp::Delete { .. } => unreachable!("insert-only workload"),
            }
        }
    }
    db
}

/// Drives the batches until done or the crash plan fires; errors after the
/// crash are the poisoned instance refusing work, which is expected.
fn drive_batches(db: &mut DurableDb, all: &[Vec<Vec<MaintenanceOp>>]) {
    for batch in all {
        let results = db.apply_batch(batch);
        if results.iter().any(|r| {
            matches!(
                r,
                Err(DurabilityError::Crashed { .. }) | Err(DurabilityError::Poisoned { .. })
            )
        }) {
            return;
        }
    }
}

fn assert_prefix_closed(state: &DurableState, acked: u64, applied: u64, context: &str) {
    let (recovered, report) =
        DurableDb::open_or_recover_from_state(state, DurabilityOptions::default())
            .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    let n = recovered.applied_txns();
    assert!(
        acked <= n && n <= applied,
        "{context}: prefix bounds violated (acked {acked}, recovered {n}, applied {applied})"
    );
    // Prefix closure in full: the recovered state IS the first-n-txns state,
    // not merely n transactions' worth of *some* subset.
    assert_eq!(
        recovered.live_tuples() as u64,
        SEED_ROWS as u64 + n,
        "{context}: recovered tuple count disagrees with a {n}-txn prefix"
    );
    assert_eq!(
        skyline_tids(recovered.db()),
        skyline_tids(&oracle(n)),
        "{context}: recovered answers diverge from the {n}-txn prefix oracle"
    );
    assert_eq!(
        report.txns_replayed + report.checkpoint_txns,
        n,
        "{context}: report inconsistent with recovered state: {report}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Any batch split of any submission count, crashed at any durability
    /// event (WAL append, fsync — with a seeded torn cut — page flush),
    /// recovers to a prefix of the submission order.
    #[test]
    fn any_batch_split_any_crash_point_recovers_a_prefix(
        n_txns in 4usize..18,
        sizes in prop::collection::vec(1usize..6, 1..6),
        crash_pick in any::<prop::sample::Index>(),
        torn_seed in any::<u64>(),
    ) {
        let all = batches(n_txns, &sizes);

        // Count the durability events of a clean run of this exact split.
        let mut counter = DurableDb::create(
            seed_relation(SEED_ROWS),
            &PCubeConfig::default(),
            DurabilityOptions::default(),
        );
        counter.set_crash_plan(CrashPlan::count_only());
        drive_batches(&mut counter, &all);
        prop_assert_eq!(counter.applied_txns(), n_txns as u64);
        let events = counter.crash_events_seen();

        // Crash at one seeded event (the +2 window includes "never fires").
        let k = crash_pick.index(events as usize + 2) as u64;
        let mut db = DurableDb::create(
            seed_relation(SEED_ROWS),
            &PCubeConfig::default(),
            DurabilityOptions::default(),
        );
        db.set_crash_plan(CrashPlan::at_event(k).with_seed(torn_seed | 1));
        drive_batches(&mut db, &all);
        let acked = db.durable_txns();
        let applied = db.applied_txns();
        if db.poisoned().is_none() {
            prop_assert_eq!(applied, n_txns as u64);
        }
        assert_prefix_closed(
            &db.durable_state(),
            acked,
            applied,
            &format!("split {sizes:?}, {n_txns} txns, crash event {k}"),
        );
    }
}

/// Real threads, real queue, real crash: concurrent submitters race into a
/// [`CommitQueue`] whose writer dies at a seeded boundary; every receipt
/// the queue acknowledged as durable must survive recovery, and losses are
/// typed errors on the submitters' side — never a panic, never a hang.
#[test]
fn concurrent_committers_with_a_crashing_writer_recover_a_prefix() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 6;
    for crash_event in [3u64, 11, 23, 41, 71, 997] {
        let mut db = DurableDb::create(
            seed_relation(SEED_ROWS),
            &PCubeConfig::default(),
            DurabilityOptions::default(),
        );
        db.set_crash_plan(CrashPlan::at_event(crash_event).with_seed(crash_event * 7 + 1));
        let queue = CommitQueue::start(
            db,
            CommitQueuePolicy {
                max_batch: 4,
                max_queue: 8,
                max_wait: std::time::Duration::from_micros(200),
            },
        );

        let mut durable_acked: Vec<u64> = Vec::new();
        let mut typed_failures = 0u64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut acked = Vec::new();
                        let mut failed = 0u64;
                        for i in 0..PER_THREAD {
                            let k = (t * PER_THREAD + i) as usize;
                            match queue.submit(txn(k)) {
                                Ok(receipt) => {
                                    if receipt.durable {
                                        acked.push(receipt.txn);
                                    }
                                }
                                Err(
                                    CommitError::Closed | CommitError::Rejected(_),
                                ) => failed += 1,
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                        (acked, failed)
                    })
                })
                .collect();
            for handle in handles {
                let (acked, failed) = handle.join().expect("submitter panicked");
                durable_acked.extend(acked);
                typed_failures += failed;
            }
        });

        let db = queue.shutdown();
        let crashed = db.poisoned().is_some();
        let acked_floor = durable_acked.iter().copied().max().unwrap_or(0);
        let (recovered, _) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("event {crash_event}: recovery failed: {e}"));
        let n = recovered.applied_txns();
        assert!(
            acked_floor <= n,
            "event {crash_event}: durable-acked txn {acked_floor} lost (recovered {n})"
        );
        assert_eq!(
            recovered.live_tuples() as u64,
            SEED_ROWS as u64 + n,
            "event {crash_event}: recovered state is not an n-txn prefix"
        );
        if crashed {
            assert!(
                typed_failures > 0 || n >= THREADS * PER_THREAD,
                "event {crash_event}: writer died yet no submitter heard a typed error"
            );
        } else {
            assert_eq!(n, THREADS * PER_THREAD, "event {crash_event}: lossless run lost work");
            assert_eq!(typed_failures, 0);
        }
    }
}

/// Group commit amortizes fsyncs: a burst of transactions through the queue
/// must spend far fewer WAL syncs than transactions, while a
/// one-commit-per-fsync baseline spends one each.
#[test]
fn group_commit_amortizes_fsyncs_under_load() {
    let db = DurableDb::create(
        seed_relation(SEED_ROWS),
        &PCubeConfig::default(),
        // A realistic 100µs device fsync so batching has something to win.
        DurabilityOptions { fsync_delay_us: 100, ..DurabilityOptions::default() },
    );
    let queue = CommitQueue::start(
        db,
        CommitQueuePolicy {
            max_batch: 16,
            max_queue: 64,
            max_wait: std::time::Duration::from_micros(300),
        },
    );
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let queue = &queue;
            scope.spawn(move || {
                for i in 0..8u64 {
                    queue
                        .submit(txn((t * 8 + i) as usize))
                        .expect("submit");
                }
            });
        }
    });
    let stats = queue.stats();
    let db = queue.shutdown();
    assert_eq!(stats.commits, 64);
    assert!(
        stats.fsync_amortization() > 1.5,
        "8 submitters against a 100µs fsync never batched: {stats:?}"
    );
    assert_eq!(db.durable_txns(), 64);
}
