//! Filesystem-failure coverage for the persistence paths: a full disk, a
//! path that stops being writable, or a short write at the log tail must
//! surface as **typed** errors, leave no half-written file behind, and
//! keep the prior on-disk generation recoverable.
//!
//! Real ENOSPC is hard to conjure in a test, so these tests use the
//! classic stand-ins — a target path occupied by a directory (every write
//! fails, exactly like a full disk) and a truncated log tail (what a short
//! write leaves behind).

#[path = "support/durable.rs"]
mod durable;

use durable::seed_relation;
use pcube::prelude::*;

const SEED_ROWS: usize = 80;

fn insert_op(i: u64) -> Vec<MaintenanceOp> {
    vec![MaintenanceOp::Insert {
        codes: vec![(i % 3) as u32, (i % 2) as u32],
        coords: vec![(i as f64 * 0.271 + 0.05).fract(), (i as f64 * 0.413 + 0.11).fract()],
    }]
}

fn skyline_tids(db: &PCubeDb) -> Vec<u64> {
    let mut tids: Vec<u64> =
        db.run(&Vec::new(), &SkylineClass::new(vec![0, 1])).rows.iter().map(|(t, _)| *t).collect();
    tids.sort_unstable();
    tids
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pcube-enospc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn checkpoint_write_failure_is_typed_and_prior_generation_recovers() {
    let dir = temp_dir("ckpt");
    let mut db = DurableDb::create_at(
        &dir,
        seed_relation(SEED_ROWS),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    )
    .expect("create_at succeeds");
    for i in 0..4 {
        db.apply(&insert_op(i)).expect("apply succeeds");
    }
    db.checkpoint().expect("healthy checkpoint succeeds");
    let prior_ckpt = std::fs::read(dir.join("checkpoint.pcube")).expect("checkpoint on disk");

    // Occupy the checkpoint's staging path with a directory: the atomic
    // tmp-write now fails like a full disk would.
    for i in 4..8 {
        db.apply(&insert_op(i)).expect("apply succeeds");
    }
    let tmp = dir.join("checkpoint.pcube.tmp");
    std::fs::create_dir(&tmp).expect("occupy tmp path");
    let err = db.checkpoint().expect_err("checkpoint must fail");
    assert!(
        matches!(&err, DurabilityError::Io { path, .. } if path.contains("checkpoint.pcube.tmp")),
        "typed Io error naming the failing path, got: {err}"
    );

    // No partial file: the installed checkpoint on disk is byte-identical
    // to the prior generation (the tmp-then-rename discipline never touches
    // it on a failed write).
    assert_eq!(
        std::fs::read(dir.join("checkpoint.pcube")).expect("checkpoint still on disk"),
        prior_ckpt,
        "failed checkpoint corrupted the installed image"
    );

    // Clear the obstruction: recovery from the prior generation replays the
    // WAL (every commit was appended to wal.pcube at sync time) and loses
    // nothing.
    let want = skyline_tids(db.db());
    let applied = db.applied_txns();
    drop(db);
    std::fs::remove_dir(&tmp).expect("clear obstruction");
    let (recovered, report) = DurableDb::open_or_recover(&dir, DurabilityOptions::default())
        .expect("prior generation recovers");
    assert_eq!(recovered.applied_txns(), applied, "recovery lost transactions: {report}");
    assert_eq!(skyline_tids(recovered.db()), want, "recovered answers diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_commit_after_a_failed_checkpoint_write_loses_nothing() {
    // The checkpoint file is written before the log is cut: when the write
    // fails, the old image must still have its whole log beside it — in
    // memory too, or the next commit's append rewrites `wal.pcube` to a log
    // that starts after transactions the old image never saw.
    let dir = temp_dir("ckpt-then-commit");
    let mut db = DurableDb::create_at(
        &dir,
        seed_relation(SEED_ROWS),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    )
    .expect("create_at succeeds");
    for i in 0..4 {
        db.apply(&insert_op(i)).expect("apply succeeds");
    }
    let tmp = dir.join("checkpoint.pcube.tmp");
    std::fs::create_dir(&tmp).expect("occupy tmp path");
    let err = db.checkpoint().expect_err("checkpoint must fail");
    assert!(matches!(&err, DurabilityError::Io { .. }), "typed Io error, got: {err}");

    let receipt = db.apply(&insert_op(4)).expect("the instance keeps committing");
    assert!(receipt.durable, "acknowledged durable");
    let want = skyline_tids(db.db());
    drop(db);
    std::fs::remove_dir(&tmp).expect("clear obstruction");

    let (recovered, report) = DurableDb::open_or_recover(&dir, DurabilityOptions::default())
        .expect("the directory still opens");
    assert_eq!(recovered.applied_txns(), 5, "acknowledged transactions lost: {report}");
    assert_eq!(skyline_tids(recovered.db()), want, "recovered answers diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_append_failure_is_typed_and_checkpoint_generation_recovers() {
    let dir = temp_dir("wal");
    let mut db = DurableDb::create_at(
        &dir,
        seed_relation(SEED_ROWS),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    )
    .expect("create_at succeeds");
    db.apply(&insert_op(0)).expect("apply succeeds");
    db.checkpoint().expect("checkpoint succeeds");
    let ckpt_txns = db.applied_txns();

    // Replace the on-disk WAL with a directory: the next commit's append
    // fails like a full disk would, as a typed error — no panic, no
    // silently-volatile ack.
    let wal_path = dir.join("wal.pcube");
    std::fs::remove_file(&wal_path).expect("remove wal file");
    std::fs::create_dir(&wal_path).expect("occupy wal path");
    let err = db.apply(&insert_op(1)).expect_err("commit must fail");
    assert!(
        matches!(&err, DurabilityError::Io { path, .. } if path.contains("wal.pcube")),
        "typed Io error naming the failing path, got: {err}"
    );
    drop(db);

    // The checkpoint generation stands alone: with the unwritable WAL gone,
    // recovery comes up at the checkpoint watermark.
    std::fs::remove_dir(&wal_path).expect("clear obstruction");
    let (recovered, report) = DurableDb::open_or_recover(&dir, DurabilityOptions::default())
        .expect("checkpoint generation recovers");
    assert!(report.clean, "a missing WAL is a clean open: {report}");
    assert_eq!(recovered.applied_txns(), ckpt_txns);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_at_the_wal_tail_recovers_the_committed_prefix() {
    let dir = temp_dir("short");
    let mut db = DurableDb::create_at(
        &dir,
        seed_relation(SEED_ROWS),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    )
    .expect("create_at succeeds");
    for i in 0..3 {
        db.apply(&insert_op(i)).expect("apply succeeds");
    }
    let full = std::fs::read(dir.join("wal.pcube")).expect("wal on disk");
    drop(db);

    // A short write: the tail frame loses its last bytes.
    assert!(full.len() > 5, "workload produced no WAL tail to truncate");
    std::fs::write(dir.join("wal.pcube"), &full[..full.len() - 5]).expect("truncate tail");

    let (recovered, report) = DurableDb::open_or_recover(&dir, DurabilityOptions::default())
        .expect("short-written WAL recovers");
    assert!(report.torn_tail_bytes > 0, "the torn frame must be detected: {report}");
    assert!(
        report.txns_replayed + report.checkpoint_txns == recovered.applied_txns(),
        "report inconsistent with recovered state: {report}"
    );

    // The rewritten log carries no debris: a second open is torn-free and
    // agrees with the first.
    let want = skyline_tids(recovered.db());
    drop(recovered);
    let (again, report2) = DurableDb::open_or_recover(&dir, DurabilityOptions::default())
        .expect("second open succeeds");
    assert_eq!(report2.torn_tail_bytes, 0, "debris survived the rewrite: {report2}");
    assert_eq!(skyline_tids(again.db()), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_to_an_unwritable_path_is_a_typed_persist_error() {
    let db = PCubeDb::build(seed_relation(SEED_ROWS), &PCubeConfig::default());
    let dir = temp_dir("save");
    // The parent directory does not exist: every write fails.
    let path = dir.join("nope").join("db.pcube");
    let err = db.save(&path).expect_err("save must fail");
    assert_eq!(err.section, "file", "typed persist error names the file section: {err}");
    assert!(!path.exists(), "a failed save must leave nothing behind");
}
