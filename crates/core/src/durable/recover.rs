//! Crash recovery: restore the checkpoint image, replay the committed WAL
//! suffix and verify it against the logged evidence.

use std::collections::{BTreeMap, HashSet};

use pcube_storage::crc32;

use crate::pcube::SigTouch;

use super::commit::apply_txn;
use super::*;

impl DurableDb {
    /// Re-opens a durable database from its two files, replaying the WAL
    /// past the last checkpoint. A missing WAL file is treated as empty
    /// (clean shutdown right after a checkpoint).
    pub fn open_or_recover(
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let dir = dir.as_ref().to_path_buf();
        let ckpt_path = dir.join("checkpoint.pcube");
        let checkpoint = std::fs::read(&ckpt_path).map_err(|e| io_err(&ckpt_path, e))?;
        let wal_path = dir.join("wal.pcube");
        let wal = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(&wal_path, e)),
        };
        let state = DurableState { checkpoint, wal };
        let (mut db, report) = Self::open_or_recover_from_state(&state, opts)?;
        db.dir = Some(dir);
        if report.torn_tail_bytes > 0 || report.txns_dropped > 0 {
            // The on-disk log still ends in the debris recovery discarded
            // (a torn frame and/or an uncommitted suffix); rewrite it to the
            // surviving prefix so post-recovery appends don't land after
            // bytes the next replay would reject or mis-group.
            db.persist_wal_file_full()?;
        } else {
            db.file_synced = db.wal.durable_len();
        }
        Ok((db, report))
    }

    /// The in-memory recovery path: restore the checkpoint image (verifying
    /// every page CRC), replay the committed WAL suffix (verifying page
    /// witnesses and signature summaries against the re-execution), drop
    /// the torn tail and uncommitted transactions.
    pub fn open_or_recover_from_state(
        state: &DurableState,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let image = CheckpointImage::from_bytes(&state.checkpoint)?;
        let (mut master, pages_verified) = image.restore()?;

        let replay = Wal::replay(&state.wal);
        let records_scanned = replay.records.len() as u64;
        let max_lsn = replay.records.last().map_or(0, |(lsn, _)| *lsn);
        // The log the recovered instance writes to must end at the intact
        // prefix: re-appending after the torn/corrupt tail bytes that replay
        // just rejected would leave every later commit behind a bad frame,
        // and the *next* recovery (which stops at the first bad frame) would
        // silently drop all of them.
        let intact = (replay.scanned_bytes - replay.torn_tail_bytes) as usize;

        // Group records per transaction, preserving log order within each.
        let mut groups: BTreeMap<u64, Vec<&WalRecord>> = BTreeMap::new();
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        for (_, rec) in &replay.records {
            if let Some(txn) = rec.txn() {
                groups.entry(txn).or_default().push(rec);
                if matches!(rec, WalRecord::Commit { .. }) {
                    committed.insert(txn);
                }
            }
        }

        let mut records_replayed = 0u64;
        let mut txns_replayed = 0u64;
        let mut repaired: HashSet<(StoreKind, u32)> = HashSet::new();
        let mut expect_txn = image.txns;
        for (&txn, recs) in &groups {
            if txn <= image.txns || !committed.contains(&txn) {
                continue;
            }
            // Commits are WAL-ordered, so committed transactions beyond the
            // image watermark must form a gapless run.
            if txn != expect_txn + 1 {
                return Err(DurabilityError::Replay {
                    txn,
                    cause: format!("commit gap: expected txn {}", expect_txn + 1),
                });
            }
            expect_txn = txn;
            txns_replayed += 1;
            records_replayed += recs.len() as u64;
            replay_txn(&mut master, txn, recs, &mut repaired)?;
        }
        let txns_dropped = groups
            .keys()
            .filter(|&&t| t > image.txns && !committed.contains(&t))
            .count() as u64;
        // Records of dropped (uncommitted) transactions trail the log —
        // appends are serial — and must not survive into the re-opened WAL:
        // recovery reuses the dropped transaction id, so a later commit's
        // records would merge with the stale ones and the next replay would
        // diverge on the combined group.
        let drop_from: Option<Lsn> = replay
            .records
            .iter()
            .find(|(_, rec)| {
                rec.txn().is_some_and(|t| t > image.txns && !committed.contains(&t))
            })
            .map(|(lsn, _)| *lsn);

        // Everything the replay dirtied belongs to the next checkpoint.
        let ckpt_dirty =
            take_dirty(&mut master).map(|pids| pids.into_iter().map(|p| p.0).collect());

        let report = RecoveryReport {
            clean: txns_replayed == 0 && txns_dropped == 0 && replay.torn_tail_bytes == 0,
            checkpoint_epoch: image.epoch,
            checkpoint_txns: image.txns,
            wal_bytes: state.wal.len() as u64,
            records_scanned,
            records_replayed,
            txns_replayed,
            txns_dropped,
            torn_tail_bytes: replay.torn_tail_bytes,
            pages_repaired: repaired.len() as u64,
            pages_verified,
        };

        let mut wal = Wal::from_durable(
            state.wal[..intact].to_vec(),
            max_lsn.max(image.next_lsn.saturating_sub(1)) + 1,
        );
        if let Some(lsn) = drop_from {
            wal.truncate_durable_from(lsn);
        }
        let epoch = image.epoch + txns_replayed;
        let next_txn = image.next_txn.max(expect_txn + 1);
        let applied = image.txns + txns_replayed;
        Ok((Self::open(master, image, wal, opts, epoch, next_txn, applied, ckpt_dirty), report))
    }
}

/// Re-executes one committed transaction through [`apply_txn`] — the
/// function its commit ran — and verifies it against the logged evidence:
/// re-derived tuple ids must match the redo records, re-derived signature
/// summaries must match the `SigUpdate` records, and every `PageWrite`
/// witness CRC must match the replayed page bytes. A `SigRebuild` is
/// verified by the witnesses that follow it: regeneration is deterministic.
fn replay_txn(
    master: &mut PCubeDb,
    txn: u64,
    recs: &[&WalRecord],
    repaired: &mut HashSet<(StoreKind, u32)>,
) -> Result<(), DurabilityError> {
    let diverged = |cause: String| DurabilityError::Replay { txn, cause };
    let replayed = apply_txn(master, recs.iter().copied()).map_err(diverged)?;
    let mut logged: Vec<SigTouch> = Vec::new();
    for rec in recs {
        match rec {
            WalRecord::SigUpdate { cell, sets, clears, .. } => {
                logged.push(SigTouch { cell: *cell, sets: *sets, clears: *clears });
            }
            WalRecord::PageWrite { store, pid, crc, .. } => {
                let actual = pager_of(master, *store).page_bytes(PageId(*pid)).map(crc32);
                if actual != Some(*crc) {
                    return Err(diverged(format!(
                        "page witness mismatch on {} page {pid}: log says {crc:#010x}, replay has {}",
                        store.name(),
                        actual.map_or("a dead page".to_string(), |a| format!("{a:#010x}")),
                    )));
                }
                repaired.insert((*store, *pid));
            }
            _ => {}
        }
    }
    let n = logged.len().max(replayed.len());
    if let Some(at) = (0..n).find(|&i| logged.get(i) != replayed.get(i)) {
        return Err(diverged(format!(
            "signature summary mismatch at cell update {at} of {n}: log has {:?}, replay produced {:?}",
            logged.get(at),
            replayed.get(at)
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::tests::{seed_relation, skyline_tids, some_ops};
    use super::*;
    use pcube_storage::TreeOp;

    #[test]
    fn recovery_replays_committed_suffix() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        for round in 0..5 {
            let ops = some_ops(&db, round);
            let receipt = db.apply(&ops).expect("apply");
            assert!(receipt.durable);
        }
        assert_eq!(db.applied_txns(), 5);

        let state = db.durable_state();
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
                .expect("recover");
        assert!(!report.clean);
        assert_eq!(report.txns_replayed, 5);
        assert_eq!(report.txns_dropped, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        assert!(report.pages_repaired > 0);
        assert_eq!(skyline_tids(recovered.db()), skyline_tids(db.db()));
        assert_eq!(recovered.live_tuples(), db.live_tuples());
        assert_eq!(recovered.applied_txns(), 5);
    }

    #[test]
    fn unsynced_commits_are_dropped_on_recovery() {
        let opts = DurabilityOptions { fsync_every: 10, ..DurabilityOptions::default() };
        let mut db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), opts);
        let r1 = db.apply(&some_ops(&db, 0)).expect("apply");
        assert!(!r1.durable);
        db.sync().expect("sync");
        let r2 = db.apply(&some_ops(&db, 1)).expect("apply");
        assert!(!r2.durable, "second txn sits in the unsynced window");

        // Crash now: txn 2 never reached the durable log.
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(recovered.applied_txns(), 1);
        assert!(recovered.durable_txns() == 1);
    }

    #[test]
    fn file_mode_round_trips() {
        let dir = std::env::temp_dir().join(format!("pcube-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = DurableDb::create_at(
            &dir,
            seed_relation(48),
            &PCubeConfig::default(),
            DurabilityOptions::default(),
        )
        .expect("create_at");
        for round in 0..3 {
            db.apply(&some_ops(&db, round)).expect("apply");
        }
        let want = skyline_tids(db.db());
        drop(db);

        let (recovered, report) =
            DurableDb::open_or_recover(&dir, DurabilityOptions::default()).expect("open");
        assert_eq!(report.txns_replayed, 3);
        assert_eq!(skyline_tids(recovered.db()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_wal_drops_torn_tail_so_later_commits_survive() {
        let mut db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), DurabilityOptions::default());
        db.apply(&some_ops(&db, 0)).expect("apply");
        db.apply(&some_ops(&db, 1)).expect("apply");

        // A torn fsync left half a frame at the durable tail.
        let mut state = db.durable_state();
        state.wal.extend_from_slice(&[0xEE; 11]);
        let (mut recovered, report) =
            DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
                .expect("recover");
        assert!(report.torn_tail_bytes > 0);
        assert_eq!(recovered.applied_txns(), 2);

        // A commit acked durable after recovery must survive the next crash:
        // the re-opened log may not still carry the rejected tail, or replay
        // would stop at it and drop everything after.
        let receipt = recovered
            .apply(&[MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.3, 0.7] }])
            .expect("post-recovery apply");
        assert!(receipt.durable);
        let (second, report2) =
            DurableDb::open_or_recover_from_state(&recovered.durable_state(), DurabilityOptions::default())
                .expect("second recovery");
        assert_eq!(report2.torn_tail_bytes, 0, "recovered WAL still carries the torn tail");
        assert_eq!(second.applied_txns(), 3, "acked-durable txn lost behind the torn tail");
        assert_eq!(skyline_tids(second.db()), skyline_tids(recovered.db()));
    }

    /// `state` with its log re-framed record by record through
    /// `Wal::append` after `tamper` rewrote (or, on `None`, dropped) each
    /// record: every frame and CRC is valid, only the content lies.
    fn relogged(
        state: &DurableState,
        mut tamper: impl FnMut(WalRecord) -> Option<WalRecord>,
    ) -> DurableState {
        let mut wal = Wal::new();
        for (_, rec) in Wal::replay(&state.wal).records {
            if let Some(rec) = tamper(rec) {
                wal.append(&rec);
            }
        }
        wal.sync().expect("in-memory sync");
        DurableState { checkpoint: state.checkpoint.clone(), wal: wal.durable_bytes().to_vec() }
    }

    /// [`relogged`] with one record tampered: the first one `pick` edits
    /// and returns `true` for.
    fn tampered(state: &DurableState, mut pick: impl FnMut(&mut WalRecord) -> bool) -> DurableState {
        let mut done = false;
        relogged(state, |mut rec| {
            done = done || pick(&mut rec);
            Some(rec)
        })
    }

    #[test]
    fn a_well_framed_but_lying_log_is_a_typed_replay_error() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        for round in 0..3 {
            db.apply(&some_ops(&db, round)).expect("apply");
        }
        let state = db.durable_state();
        assert_eq!(relogged(&state, Some), state, "re-framing alone changes no byte");

        let mut dead = None;
        let cases: Vec<(&str, u64, DurableState)> = vec![
            (
                "insert produced tid",
                1,
                tampered(&state, |rec| match rec {
                    WalRecord::TreeSplit { op: TreeOp::Insert, tid, .. } => {
                        *tid += 1;
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "found no tuple",
                2,
                tampered(&state, move |rec| match rec {
                    // The second transaction deletes the first one's victim.
                    WalRecord::TreeSplit { op: TreeOp::Delete, tid, .. } => match dead {
                        None => {
                            dead = Some(*tid);
                            false
                        }
                        Some(victim) => {
                            *tid = victim;
                            true
                        }
                    },
                    _ => false,
                }),
            ),
            (
                "summary mismatch",
                1,
                tampered(&state, |rec| match rec {
                    WalRecord::SigUpdate { sets, .. } => {
                        *sets += 1;
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "witness mismatch",
                1,
                tampered(&state, |rec| match rec {
                    WalRecord::PageWrite { crc, .. } => {
                        *crc ^= 1;
                        true
                    }
                    _ => false,
                }),
            ),
            ("commit gap", 3, relogged(&state, |rec| (rec.txn() != Some(2)).then_some(rec))),
        ];
        for (cause, txn, lying) in cases {
            assert_ne!(lying, state, "{cause}: the tamper must change the log");
            match DurableDb::open_or_recover_from_state(&lying, DurabilityOptions::default()) {
                Err(DurabilityError::Replay { txn: at, cause: got }) => {
                    assert_eq!(at, txn, "{cause}: {got}");
                    assert!(got.contains(cause), "expected {cause:?}, got {got:?}");
                }
                Err(e) => panic!("{cause}: expected a replay divergence, got {e}"),
                Ok((_, report)) => panic!("{cause}: a lying log recovered: {report}"),
            }
        }
    }
}
