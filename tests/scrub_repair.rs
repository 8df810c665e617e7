//! The scrub chaos suite: seed bit rot into the live signature store,
//! prove the engine stays **exact** while degraded (§VII base-table
//! verification), then prove `scrub` finds every damaged page, quarantine
//! stops the re-read tax, and `repair` rebuilds the store bit-identical to
//! a never-corrupted oracle — including across a crash injected at every
//! durability boundary of the repair transaction itself.
//!
//! Damage is seeded deterministically; `PCUBE_DAMAGE_SEEDS` widens the
//! sweep (CI runs 16). `PCUBE_SCRUB_REPORT` writes the last scrub's JSON
//! report for the CI artifact.

use pcube::prelude::*;

const SEED_ROWS: usize = 120;
const N_TXNS: usize = 6;

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

/// The deterministic maintenance script both the subject and the oracle run.
fn script() -> Vec<Vec<MaintenanceOp>> {
    (0..N_TXNS)
        .map(|t| {
            let mut ops: Vec<MaintenanceOp> = (0..2)
                .map(|j| {
                    let i = t * 2 + j;
                    MaintenanceOp::Insert {
                        codes: vec![(i % 3) as u32, (i % 2) as u32],
                        coords: vec![
                            (i as f64 * 0.271 + 0.05).fract(),
                            (i as f64 * 0.413 + 0.11).fract(),
                        ],
                    }
                })
                .collect();
            if t % 2 == 1 {
                ops.push(MaintenanceOp::Delete { tid: (t * 13 % SEED_ROWS) as u64 });
            }
            ops
        })
        .collect()
}

/// A durable database that ran the script, with per-page checksums armed on
/// the signature pager (so silent bit rot is *detectable*).
fn build_subject() -> DurableDb {
    let mut db =
        DurableDb::create(seed_relation(), &PCubeConfig::default(), DurabilityOptions::default());
    for ops in script() {
        db.apply(&ops).expect("script applies cleanly");
    }
    db.signature_store_mut().sig_pager_mut().set_checksums(true);
    db
}

/// The never-corrupted oracle: same seed, same script, no damage.
fn oracle() -> PCubeDb {
    let mut db = PCubeDb::build(seed_relation(), &PCubeConfig::default());
    for ops in script() {
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
    }
    db
}

/// Flips one seed-derived bit in **every** live signature page. Returns the
/// damaged page count.
fn rot_every_signature_page(db: &mut DurableDb, seed: u64) -> usize {
    let pager = db.signature_store_mut().sig_pager_mut();
    let page_size = pager.page_size();
    let pages = pager.live_page_ids();
    for (i, &pid) in pages.iter().enumerate() {
        let offset = ((seed.wrapping_mul(2654435761).wrapping_add(i as u64 * 97)) as usize)
            % page_size;
        let mask = ((seed >> (i % 8)) as u8) | 1;
        pager.corrupt_page(pid, offset, mask).expect("live page accepts corruption");
    }
    pages.len()
}

/// Every acceptance query family, answered exactly — the same differential
/// battery as the crash matrix.
fn answers(db: &PCubeDb) -> Vec<Vec<(u64, Vec<f64>)>> {
    let selections: [Selection; 2] = [Vec::new(), vec![Predicate { dim: 0, value: 1 }]];
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

/// Block reads charged by one warm run of the query battery.
fn battery_reads(db: &PCubeDb) -> u64 {
    answers(db); // warm any caches so the measured run is steady-state
    let before = db.stats().snapshot();
    answers(db);
    db.stats().snapshot().since(&before).total_reads()
}

fn damage_seeds() -> u64 {
    std::env::var("PCUBE_DAMAGE_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(4)
}

// ------------------------------------------------------- the healing story --

#[test]
fn bit_rot_in_every_signature_page_is_survived_found_and_healed() {
    let want = answers(&oracle());
    let mut last_report_json = String::new();

    for seed in 1..=damage_seeds() {
        let mut db = build_subject();
        let clean_reads = battery_reads(db.db());
        let damaged = rot_every_signature_page(&mut db, seed);
        assert!(damaged > 0, "no live signature pages to damage");

        // Degraded, not wrong: with every signature page rotten the engine
        // falls back to base-table verification and stays exact.
        let before = db.db().stats().snapshot();
        assert_eq!(answers(db.db()), want, "seed {seed}: degraded answers diverged");
        let while_degraded = db.db().stats().snapshot().since(&before);
        assert!(
            while_degraded.get(Counter::DegradedReads) > 0,
            "seed {seed}: degraded queries must be visible on the ledger"
        );

        // Scrub finds every damaged page (some were already quarantined by
        // the degraded queries above — scrub reports both buckets).
        let report = db.scrub(&QueryBudget::unlimited());
        assert!(report.stopped.is_none(), "seed {seed}: unlimited scrub stopped early");
        assert!(report.checksums_enabled, "seed {seed}: checksums should be armed");
        assert_eq!(
            (report.newly_quarantined + report.already_quarantined) as usize,
            damaged,
            "seed {seed}: scrub missed damage: {report}"
        );

        // Quarantine memoizes: a second scrub issues no physical reads for
        // the damaged pages and the hit counter grows instead.
        let before = db.db().stats().snapshot();
        let again = db.scrub(&QueryBudget::unlimited());
        assert_eq!(again.pages_scanned, 0, "seed {seed}: quarantined pages were re-read");
        assert_eq!(again.already_quarantined as usize, damaged);
        assert!(
            db.db().stats().snapshot().since(&before).get(Counter::QuarantineHits) > 0,
            "seed {seed}: cell walk should hit the quarantine, not the disk"
        );
        last_report_json = again.to_json();

        // Repair: rebuilt from the base table, routed through the WAL,
        // bit-identical to the never-corrupted oracle.
        let outcome = db.repair().expect("repair succeeds");
        assert!(outcome.txn.is_some(), "seed {seed}: repair with damage must commit");
        assert_eq!(
            outcome.pages_healed as usize, damaged,
            "seed {seed}: every quarantined page must heal: {outcome}"
        );
        let sig_pager = db.signature_store_mut().sig_pager_mut();
        assert_eq!(sig_pager.quarantine_len(), 0, "seed {seed}: quarantine must clear");
        let rescrub = db.scrub(&QueryBudget::unlimited());
        assert!(rescrub.is_clean(), "seed {seed}: post-repair scrub found damage: {rescrub}");

        // Healed answers are exact, degraded reads stop incrementing, and
        // the query battery costs what it did before the damage.
        let before = db.db().stats().snapshot();
        assert_eq!(answers(db.db()), want, "seed {seed}: healed answers diverged");
        let after_repair = db.db().stats().snapshot().since(&before);
        assert_eq!(
            after_repair.get(Counter::DegradedReads),
            0,
            "seed {seed}: healed store still degrading"
        );
        assert_eq!(
            battery_reads(db.db()),
            clean_reads,
            "seed {seed}: blocks-per-query did not return to the clean baseline"
        );
    }

    if let Ok(path) = std::env::var("PCUBE_SCRUB_REPORT") {
        std::fs::write(&path, &last_report_json)
            .unwrap_or_else(|e| panic!("cannot write scrub report to {path}: {e}"));
    }
}

// ------------------------------------------------------ repair crash matrix --

/// A subject with seeded damage already scrubbed into quarantine — the
/// state `repair` starts from at every matrix point.
fn damaged_and_scrubbed(seed: u64) -> DurableDb {
    let mut db = build_subject();
    rot_every_signature_page(&mut db, seed);
    let report = db.scrub(&QueryBudget::unlimited());
    assert!(report.newly_quarantined > 0, "scrub must quarantine the damage");
    db
}

#[test]
fn repair_crash_matrix_every_boundary_recovers_oracle_exact() {
    let want = answers(&oracle());
    let seed = 3;

    // Count the repair transaction's durability events with a counting plan.
    let mut counter = damaged_and_scrubbed(seed);
    counter.set_crash_plan(CrashPlan::count_only());
    counter.repair().expect("counting repair must not crash");
    let events = counter.crash_events_seen();
    assert!(events > 4, "repair too small to exercise a matrix ({events} events)");
    assert_eq!(answers(counter.db()), want, "counting repair diverged from the oracle");

    // Kill at every boundary, plus one past the end (no crash at all).
    for k in 1..=events + 1 {
        let mut db = damaged_and_scrubbed(seed);
        let pre_repair_txns = db.applied_txns();
        db.set_crash_plan(CrashPlan::at_event(k));
        let res = db.repair();
        if let Err(e) = &res {
            assert!(
                matches!(e, DurabilityError::Crashed { .. }),
                "event {k}: unexpected repair failure {e}"
            );
        }

        let (recovered, _report) = DurableDb::open_or_recover_from_state(
            &db.durable_state(),
            DurabilityOptions::default(),
        )
        .unwrap_or_else(|e| panic!("event {k}: recovery after repair crash failed: {e}"));

        // Pre- or post-repair, never torn — and both states answer exactly
        // like the never-corrupted oracle, because the durable image never
        // saw the in-memory rot and a replayed rebuild is deterministic.
        let n = recovered.applied_txns();
        assert!(
            n == pre_repair_txns || n == pre_repair_txns + 1,
            "event {k}: recovered a torn repair (txns {n}, pre-repair {pre_repair_txns})"
        );
        if res.is_ok() {
            assert_eq!(n, pre_repair_txns + 1, "event {k}: acked repair txn lost");
        }
        assert_eq!(answers(recovered.db()), want, "event {k}: recovered answers diverged");
        let rescrub = recovered.scrub(&QueryBudget::unlimited());
        assert!(
            rescrub.is_clean(),
            "event {k}: recovered store carries damage: {rescrub}"
        );

        // The recovered instance keeps working: one more durable commit.
        let mut recovered = recovered;
        let receipt = recovered
            .apply(&[MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.123, 0.877] }])
            .unwrap_or_else(|e| panic!("event {k}: post-recovery apply failed: {e}"));
        assert!(receipt.durable, "event {k}: post-recovery commit not acked durable");
    }
}

// ----------------------------------------------------------- smaller pieces --

#[test]
fn repair_without_damage_is_a_no_op() {
    let mut db = build_subject();
    let epoch = db.epoch();
    let outcome = db.repair().expect("no-op repair succeeds");
    assert_eq!(outcome.txn, None);
    assert_eq!(outcome.cells_rebuilt, 0);
    assert_eq!(outcome.pages_healed, 0);
    assert_eq!(db.epoch(), epoch, "a no-op repair must not publish");
}

#[test]
fn budget_limited_scrub_stops_with_a_typed_reason_and_partial_coverage() {
    let mut db = build_subject();
    rot_every_signature_page(&mut db, 7);
    let report = db.scrub(&QueryBudget::unlimited().with_block_budget(2));
    assert_eq!(
        report.stopped,
        Some(StopReason::BlockBudgetExceeded),
        "a 2-block scrub must trip: {report}"
    );
    let full = db.scrub(&QueryBudget::unlimited());
    assert!(
        report.pages_scanned < full.pages_scanned + full.already_quarantined,
        "the budgeted sweep should cover a strict prefix"
    );
}

#[test]
fn scrub_runs_concurrently_with_parallel_readers() {
    let db = build_subject();
    let tid_set = |rows: &[(u64, Vec<f64>)]| -> Vec<u64> {
        let mut t: Vec<u64> = rows.iter().map(|(tid, _)| *tid).collect();
        t.sort_unstable();
        t
    };
    let skyline = SkylineClass::new(vec![0, 1]);
    let want = tid_set(&db.db().run(&Vec::new(), &skyline).rows);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            for _ in 0..8 {
                let out = db.db().par_run(&Vec::new(), &skyline, ParallelOptions::default());
                assert_eq!(tid_set(&out.rows), want, "reader diverged during scrub");
            }
        });
        for _ in 0..4 {
            let report = db.scrub(&QueryBudget::unlimited());
            assert!(report.is_clean(), "clean store scrubs clean under readers: {report}");
        }
        reader.join().expect("reader thread panicked");
    });
}

#[test]
fn orphan_quarantine_entries_clear_without_touching_the_free_list() {
    // Quarantine a page no cell references (free it first), then repair:
    // the entry must clear, but the page must *not* be freed again.
    let mut db = build_subject();
    let pager = db.signature_store_mut().sig_pager_mut();
    let pid = pager.allocate();
    let bytes = vec![0xABu8; pager.page_size()];
    pager.write(pid, &bytes);
    pager.corrupt_page(pid, 1, 0x02).unwrap();
    assert!(pager.try_read(pid).is_err(), "corrupted page must fail its read");
    assert_eq!(pager.quarantine_len(), 1);
    let outcome = db.repair().expect("repair succeeds");
    assert_eq!(outcome.cells_rebuilt, 0, "no cell references the orphan page");
    assert_eq!(
        db.signature_store_mut().sig_pager_mut().quarantine_len(),
        0,
        "orphan entry must clear"
    );
}
