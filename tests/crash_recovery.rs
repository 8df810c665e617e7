//! The crash matrix: deterministically kill the durable engine at **every**
//! WAL-append / fsync / page-flush / checkpoint boundary of a scripted
//! maintenance workload, recover from exactly the bytes a real crash would
//! leave behind, and differential-test the recovered database against a
//! clean re-execution oracle.
//!
//! The durability contract checked at every kill point `k`:
//!
//! 1. acked-durable transactions ⊆ recovered transactions ⊆ applied
//!    transactions (commits are WAL-ordered, so the recovered committed set
//!    is a prefix);
//! 2. the recovered database answers skyline, top-k, dynamic skyline and
//!    convex-hull queries **exactly** like a fresh database built from the
//!    seed plus the recovered transaction prefix;
//! 3. recovery never panics and never fabricates a transaction.

use pcube::prelude::*;
use std::collections::BTreeSet;

// ------------------------------------------------------ scripted workload --

#[derive(Debug, Clone)]
enum Step {
    Txn(Vec<MaintenanceOp>),
    Checkpoint,
}

const SEED_ROWS: usize = 96;
const N_TXNS: usize = 8;
const CKPT_EVERY: usize = 3;

fn seed_relation() -> Relation {
    let mut r = Relation::new(Schema::new(&["A", "B"], &["x", "y"]));
    let vals_a = ["a1", "a2", "a3"];
    let vals_b = ["b1", "b2"];
    for i in 0..SEED_ROWS {
        let x = (i as f64 * 0.3771).fract();
        let y = (i as f64 * 0.6113 + 0.131).fract();
        r.push(&[vals_a[i % 3], vals_b[i % 2]], &[x, y]);
    }
    r
}

/// The deterministic maintenance script: `N_TXNS` transactions of two
/// inserts (+ one delete on odd rounds), a checkpoint after every
/// `CKPT_EVERY`-th. The generator tracks its own live-set model so the
/// script is a pure function — replaying a prefix on a fresh database is
/// the oracle.
fn script() -> Vec<Step> {
    let mut live: BTreeSet<u64> = (0..SEED_ROWS as u64).collect();
    let mut next_tid = SEED_ROWS as u64;
    let mut steps = Vec::new();
    for t in 0..N_TXNS {
        let base = next_tid;
        let mut ops = Vec::new();
        for j in 0..2 {
            let i = t * 2 + j;
            ops.push(MaintenanceOp::Insert {
                codes: vec![(i % 3) as u32, (i % 2) as u32],
                coords: vec![(i as f64 * 0.271 + 0.05).fract(), (i as f64 * 0.413 + 0.11).fract()],
            });
            live.insert(next_tid);
            next_tid += 1;
        }
        if !t.is_multiple_of(2) {
            let candidates: Vec<u64> = live.iter().copied().filter(|&x| x < base).collect();
            let victim = candidates[(t * 17) % candidates.len()];
            ops.push(MaintenanceOp::Delete { tid: victim });
            live.remove(&victim);
        }
        steps.push(Step::Txn(ops));
        if (t + 1).is_multiple_of(CKPT_EVERY) {
            steps.push(Step::Checkpoint);
        }
    }
    steps
}

/// Drives the script until completion or the injected crash. Returns the
/// highest transaction acknowledged as durable before the crash.
fn drive(db: &mut DurableDb, steps: &[Step]) -> Result<u64, DurabilityError> {
    for step in steps {
        match step {
            Step::Txn(ops) => {
                db.apply(ops)?;
            }
            Step::Checkpoint => {
                db.checkpoint()?;
            }
        }
    }
    Ok(db.durable_txns())
}

// ------------------------------------------------------------- the oracle --

/// A clean re-execution: seed + the first `n` transactions, no durability
/// machinery anywhere near it.
fn oracle(n: u64) -> PCubeDb {
    let mut db = PCubeDb::build(seed_relation(), &PCubeConfig::default());
    let mut applied = 0u64;
    for step in script() {
        if applied == n {
            break;
        }
        if let Step::Txn(ops) = step {
            for op in &ops {
                match op {
                    MaintenanceOp::Insert { codes, coords } => {
                        db.insert_coded(codes, coords);
                    }
                    MaintenanceOp::Delete { tid } => {
                        assert!(db.delete(*tid), "oracle delete of {tid} failed");
                    }
                }
            }
            applied += 1;
        }
    }
    assert_eq!(applied, n, "script has no {n}-transaction prefix");
    db
}

/// Every acceptance query family, answered exactly: static skyline, top-k,
/// dynamic skyline, convex hull — each under the empty selection and one
/// single-predicate selection.
fn answers(db: &PCubeDb) -> Vec<Vec<(u64, Vec<f64>)>> {
    let selections: [Selection; 2] =
        [Vec::new(), vec![Predicate { dim: 0, value: 1 }]];
    let f = MinCoordSum::new(vec![0, 1]);
    let mut out = Vec::new();
    for sel in &selections {
        out.push(db.run(sel, &SkylineClass::new(vec![0, 1])).rows);
        out.push(
            db.run(sel, &TopKClass::new(5, &f))
                .rows
                .into_iter()
                .map(|(tid, coords, score)| {
                    let mut c = coords;
                    c.push(score);
                    (tid, c)
                })
                .collect(),
        );
        out.push(db.run(sel, &DynamicSkylineClass::new(&[0.45, 0.55], vec![0, 1])).rows);
        out.push(
            db.run(sel, &HullClass::new((0, 1)))
                .rows
                .into_iter()
                .map(|(tid, xy)| (tid, xy.to_vec()))
                .collect(),
        );
    }
    out
}

fn assert_oracle_exact(recovered: &PCubeDb, n_txns: u64, context: &str) {
    let want = answers(&oracle(n_txns));
    let got = answers(recovered);
    assert_eq!(got, want, "{context}: answers diverge from the {n_txns}-txn oracle");
}

// -------------------------------------------------------------- the matrix --

/// One crash at event `k`: drive until the plan fires, recover from the
/// durable bytes, check the contract. Returns the recovered transaction
/// count for bookkeeping.
fn crash_at(k: u64, steps: &[Step]) -> u64 {
    let mut db = DurableDb::create(
        seed_relation(),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    );
    db.set_crash_plan(CrashPlan::at_event(k));
    let res = drive(&mut db, steps);
    let crashed = res.is_err();
    if let Err(e) = &res {
        assert!(
            matches!(e, DurabilityError::Crashed { .. }),
            "event {k}: unexpected failure {e}"
        );
    }
    let acked = db.durable_txns();
    let applied = db.applied_txns();
    let state = db.durable_state();

    let (recovered, report) =
        DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
            .unwrap_or_else(|e| panic!("event {k}: recovery failed: {e}"));
    let n = recovered.applied_txns();
    assert!(
        acked <= n && n <= applied,
        "event {k}: durability contract violated (acked {acked}, recovered {n}, applied {applied})"
    );
    if !crashed {
        assert_eq!(n, applied, "event {k}: no crash, yet transactions went missing");
    }
    assert_eq!(
        recovered.durable_txns(),
        n,
        "event {k}: recovery must leave nothing unsynced"
    );
    assert!(
        report.txns_replayed + report.checkpoint_txns == n,
        "event {k}: report inconsistent with recovered state: {report}"
    );
    assert_oracle_exact(recovered.db(), n, &format!("event {k}"));
    assert_recovered_is_reusable(recovered, &format!("event {k}"));
    n
}

/// Second generation: commits one more durable transaction on a recovered
/// instance, re-crashes it, and recovers again — nothing may be lost.
/// Regression: recovery used to re-open the WAL with the rejected torn tail
/// still in place, so every commit acked durable *after* a torn-tail
/// recovery sat behind a bad frame and the next replay silently dropped it.
fn assert_recovered_is_reusable(mut recovered: DurableDb, context: &str) {
    let n = recovered.applied_txns();
    let receipt = recovered
        .apply(&[MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.123, 0.877] }])
        .unwrap_or_else(|e| panic!("{context}: post-recovery apply failed: {e}"));
    assert!(receipt.durable, "{context}: post-recovery commit not acked durable");
    let (second, report) = DurableDb::open_or_recover_from_state(
        &recovered.durable_state(),
        DurabilityOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{context}: second recovery failed: {e}"));
    assert_eq!(
        report.torn_tail_bytes, 0,
        "{context}: recovered WAL still carries a torn tail"
    );
    assert_eq!(
        second.applied_txns(),
        n + 1,
        "{context}: acked-durable post-recovery txn lost by the second recovery"
    );
    assert_eq!(
        answers(second.db()),
        answers(recovered.db()),
        "{context}: second recovery diverges from the live post-recovery state"
    );
}

#[test]
fn crash_matrix_every_kill_point_recovers_oracle_exact() {
    let steps = script();

    // Count the durability events of a clean run with a counting plan.
    let mut counter = DurableDb::create(
        seed_relation(),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    );
    counter.set_crash_plan(CrashPlan::count_only());
    let acked = drive(&mut counter, &steps).expect("counting run must not crash");
    assert_eq!(acked, N_TXNS as u64);
    let events = counter.crash_events_seen();
    assert!(events > 50, "workload too small to exercise the matrix ({events} events)");

    // Kill at every boundary, plus one past the end (no crash at all).
    let mut recovered_counts = BTreeSet::new();
    for k in 0..=events {
        recovered_counts.insert(crash_at(k, &steps));
    }
    // Sanity: the matrix actually exercised a range of recovery depths.
    assert!(recovered_counts.contains(&(N_TXNS as u64)));
    assert!(
        recovered_counts.len() >= N_TXNS / 2,
        "matrix never varied: {recovered_counts:?}"
    );
}

#[test]
fn recovery_is_idempotent_and_resumable() {
    let steps = script();

    // Crash somewhere in the middle of the workload.
    let mut db = DurableDb::create(
        seed_relation(),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    );
    counter_crash(&mut db, &steps);
    let state = db.durable_state();

    // Recovering twice from the same bytes yields identical states.
    let (r1, rep1) = DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
        .expect("first recovery");
    let (r2, rep2) = DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
        .expect("second recovery");
    assert_eq!(rep1, rep2);
    assert_eq!(answers(r1.db()), answers(r2.db()));

    // The recovered instance accepts the rest of the workload and ends up
    // oracle-exact for the full script.
    let mut resumed = r1;
    let done = resumed.applied_txns();
    let mut seen = 0u64;
    for step in &steps {
        match step {
            Step::Txn(ops) => {
                seen += 1;
                if seen > done {
                    resumed.apply(ops).expect("resumed apply");
                }
            }
            Step::Checkpoint => {
                if seen >= done {
                    resumed.checkpoint().expect("resumed checkpoint");
                }
            }
        }
    }
    assert_oracle_exact(resumed.db(), N_TXNS as u64, "resumed run");
}

/// Drives with a mid-workload crash installed; asserts it actually fired.
fn counter_crash(db: &mut DurableDb, steps: &[Step]) {
    db.set_crash_plan(CrashPlan::at_event(120));
    let err = drive(db, steps).expect_err("plan must fire mid-workload");
    assert!(matches!(err, DurabilityError::Crashed { .. }));
}

#[test]
fn torn_fsync_tail_is_dropped_not_misread() {
    // Seeded torn-length plans land the crash mid-frame: recovery must
    // report a torn tail and still satisfy the contract.
    let steps = script();
    let opts = DurabilityOptions { fsync_every: 2, ..DurabilityOptions::default() };

    let mut counter = DurableDb::create(seed_relation(), &PCubeConfig::default(), opts);
    counter.set_crash_plan(CrashPlan::count_only());
    drive(&mut counter, &steps).expect("counting run must not crash");
    let events = counter.crash_events_seen();

    let mut torn_runs = 0u64;
    for k in 0..events {
        let mut db = DurableDb::create(seed_relation(), &PCubeConfig::default(), opts);
        db.set_crash_plan(CrashPlan::at_event(k).with_seed(k.wrapping_mul(31) + 7));
        let _ = drive(&mut db, &steps);
        let acked = db.durable_txns();
        let applied = db.applied_txns();
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("event {k}: recovery failed: {e}"));
        if report.torn_tail_bytes > 0 {
            torn_runs += 1;
        }
        let n = recovered.applied_txns();
        assert!(
            acked <= n && n <= applied,
            "event {k}: contract violated (acked {acked}, recovered {n}, applied {applied})"
        );
        assert_oracle_exact(recovered.db(), n, &format!("torn sweep event {k}"));
        if report.torn_tail_bytes > 0 {
            assert_recovered_is_reusable(recovered, &format!("torn sweep event {k}"));
        }
    }
    assert!(torn_runs > 0, "no run produced a torn tail — the sweep never cut a frame");
}

// --------------------------------------------- at-rest WAL damage matrix --

/// Seeds the damage sweep runs; CI's reduced matrix overrides via
/// `PCUBE_DAMAGE_SEEDS`.
fn damage_seeds() -> u64 {
    std::env::var("PCUBE_DAMAGE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// Torn writes and bit rot strike the *surviving* WAL image between the
/// crash and the reopen: every seeded cut or flipped bit must degrade into
/// a typed `RecoveryReport` (truncate-and-report at the first bad frame),
/// the recovered transaction set must stay a prefix of the applied order,
/// and the recovered database must answer oracle-exact for that prefix.
/// Never a panic, never a fabricated transaction.
#[test]
fn wal_damage_matrix_recovers_typed_and_prefix_closed() {
    let steps = script();
    // Odd seeds drop the checkpoints so the whole script rides in the WAL
    // and damage can cut anywhere in 0..=N_TXNS; even seeds keep them, so
    // damage also lands on post-checkpoint logs with marker records.
    let no_ckpt: Vec<Step> =
        steps.iter().filter(|s| matches!(s, Step::Txn(_))).cloned().collect();

    let (mut torn_seen, mut rot_seen, mut lossy) = (0u64, 0u64, 0u64);
    for seed in 0..damage_seeds() {
        let script = if seed % 2 == 0 { &steps } else { &no_ckpt };
        let mut db = DurableDb::create(
            seed_relation(),
            &PCubeConfig::default(),
            DurabilityOptions::default(),
        );
        drive(&mut db, script).expect("clean drive");
        let applied = db.applied_txns();
        let mut state = db.durable_state();

        let mut plan = FaultPlan::seeded(seed).with_wal_torn(0.5).with_wal_bit_rot(0.5);
        match plan.damage_wal_image(&mut state.wal) {
            Some(WalDamage::Torn { .. }) => torn_seen += 1,
            Some(WalDamage::BitRot { .. }) => rot_seen += 1,
            None => {}
        }

        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
                .unwrap_or_else(|e| {
                    panic!("seed {seed}: damaged-WAL recovery must degrade gracefully, got {e}")
                });
        let n = recovered.applied_txns();
        assert!(
            report.checkpoint_txns <= n && n <= applied,
            "seed {seed}: recovered {n} outside [{}, {applied}]",
            report.checkpoint_txns
        );
        if n < applied {
            lossy += 1;
            assert!(
                report.torn_tail_bytes > 0 || report.txns_dropped > 0,
                "seed {seed}: transactions vanished without the report saying so: {report}"
            );
        }
        assert_oracle_exact(recovered.db(), n, &format!("damage seed {seed}"));
        assert_recovered_is_reusable(recovered, &format!("damage seed {seed}"));
    }
    assert!(torn_seen > 0, "the sweep never tore the image");
    assert!(rot_seen > 0, "the sweep never flipped a bit");
    assert!(lossy > 0, "no damage ever reached a frame — the matrix tested nothing");
}

/// Transient fsync failures during the live workload: retries are bounded
/// (exponential backoff, then a typed `WalSync` error), accounted on the
/// I/O ledger — and the pending tail is never lost: it lands on a later
/// sync or survives into recovery.
#[test]
fn transient_fsync_failures_retry_bounded_and_lose_nothing() {
    let steps = script();
    let (mut retried, mut terminal) = (0u64, 0u64);
    for seed in 0..16 {
        let mut db = DurableDb::create(
            seed_relation(),
            &PCubeConfig::default(),
            DurabilityOptions::default(),
        );
        db.set_wal_fault_plan(FaultPlan::seeded(seed * 131 + 17).with_fsync_failures(0.6));
        let outcome = drive(&mut db, &steps);
        match &outcome {
            Ok(_) => {}
            Err(DurabilityError::WalSync { attempts, backoff_us }) => {
                terminal += 1;
                assert_eq!(*attempts, 6, "seed {seed}: retries must stop at the bound");
                assert!(*backoff_us > 0, "seed {seed}: backoff went unaccounted");
            }
            Err(e) => panic!("seed {seed}: unexpected failure {e}"),
        }
        retried += db.db().stats().get(Counter::WalRetries);
        let applied = db.applied_txns();
        let acked = db.durable_txns();

        // Heal the device; the pending tail must land, not evaporate.
        db.take_wal_fault_plan();
        db.sync().unwrap_or_else(|e| panic!("seed {seed}: healed sync failed: {e}"));
        assert_eq!(db.durable_txns(), applied, "seed {seed}: tail lost after healing");

        let (recovered, _) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        let n = recovered.applied_txns();
        assert!(
            acked <= n && n <= applied,
            "seed {seed}: contract violated (acked {acked}, recovered {n}, applied {applied})"
        );
        assert_oracle_exact(recovered.db(), n, &format!("fsync-fault seed {seed}"));
    }
    assert!(retried > 0, "the sweep never exercised a retry");
    assert!(terminal > 0, "the sweep never exhausted the retry bound");
}

#[test]
fn file_mode_recovery_rewrites_torn_wal_tail() {
    let dir = std::env::temp_dir().join(format!("pcube-crash-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = DurableDb::create_at(
        &dir,
        seed_relation(),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    )
    .expect("create_at");
    db.apply(&[MaintenanceOp::Insert { codes: vec![1, 1], coords: vec![0.4, 0.6] }])
        .expect("apply");
    let n = db.applied_txns();
    drop(db);

    // The OS tore the last write: garbage bytes at the on-disk log tail.
    let wal_path = dir.join("wal.pcube");
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    bytes.extend_from_slice(&[0xAB; 13]);
    std::fs::write(&wal_path, &bytes).expect("write wal");

    let (mut db, report) =
        DurableDb::open_or_recover(&dir, DurabilityOptions::default()).expect("recover");
    assert!(report.torn_tail_bytes > 0, "the torn tail went unreported");
    assert_eq!(db.applied_txns(), n);
    let receipt = db
        .apply(&[MaintenanceOp::Insert { codes: vec![2, 0], coords: vec![0.2, 0.9] }])
        .expect("post-recovery apply");
    assert!(receipt.durable);
    drop(db);

    // Recovery must have rewritten wal.pcube to the intact prefix: the
    // second open sees no torn tail and the post-recovery commit survived.
    let (db2, report2) =
        DurableDb::open_or_recover(&dir, DurabilityOptions::default()).expect("second recover");
    assert_eq!(report2.torn_tail_bytes, 0, "recovery left the torn tail on disk");
    assert_eq!(db2.applied_txns(), n + 1, "durable commit lost behind the on-disk torn tail");
    let _ = std::fs::remove_dir_all(&dir);
}
