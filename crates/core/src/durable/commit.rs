//! WAL orchestration: the commit protocol (validate, log, mutate, witness,
//! seal), group-commit syncs, and the log file of the file mode.

use std::collections::HashSet;

use pcube_storage::{crc32, TreeOp};

use crate::pcube::SigTouch;

use super::*;

impl DurableDb {
    /// Applies one transaction of maintenance operations: validate, log
    /// (redo records + witnesses + commit), mutate the master, publish a
    /// new epoch, sync per policy, auto-checkpoint per policy.
    pub fn apply(&mut self, ops: &[MaintenanceOp]) -> Result<CommitReceipt, DurabilityError> {
        self.ensure_alive()?;
        let (txn, lsn) = self.apply_unsynced(ops)?;

        // 5. Group commit — *before* publish, so when this commit syncs
        //    (always, under the default `fsync_every: 1`) readers can never
        //    observe a transaction whose commit record is still volatile: a
        //    crash mid-fsync poisons the instance here, the epoch is never
        //    published, and recovery dropping the torn commit agrees with
        //    everything any reader ever saw.
        let mut durable = false;
        if self.opts.fsync_every <= 1 || self.commits_since_sync >= self.opts.fsync_every {
            self.sync_internal()?;
            durable = true;
        }

        // 6. Publish the new epoch (readers switch; pinned snapshots live on).
        self.publish();

        // 7. Auto checkpoint.
        if self.should_auto_checkpoint() {
            self.checkpoint()?;
        }

        Ok(CommitReceipt { txn, epoch: self.epoch, durable, lsn })
    }

    /// Applies a whole batch of transactions with **one** fsync and **one**
    /// epoch publish for all of them — the group-commit core. Each
    /// transaction is validated, logged and applied independently (a
    /// malformed one is rejected with [`DurabilityError::InvalidOp`] without
    /// disturbing its neighbours); then the batch syncs and publishes once.
    ///
    /// Durability is prefix-closed by construction: WAL appends are serial
    /// and the batch shares a single fsync, so whatever prefix of commit
    /// records a crash preserves is exactly the set recovery replays.
    ///
    /// Failure semantics per slot: a terminal [`DurabilityError::WalSync`]
    /// leaves every applied transaction acknowledged-but-volatile
    /// ([`CommitReceipt::durable`] is `false`; the tail stays pending); an
    /// injected crash poisons the instance and every applied-but-unsynced
    /// slot reports the crash instead of a receipt. Auto-checkpointing is
    /// the caller's job (see [`DurableDb::should_auto_checkpoint`]).
    pub fn apply_batch(
        &mut self,
        batch: &[Vec<MaintenanceOp>],
    ) -> Vec<Result<CommitReceipt, DurabilityError>> {
        let mut applied: Vec<Result<(u64, Lsn), DurabilityError>> = Vec::with_capacity(batch.len());
        for ops in batch {
            let slot = self.ensure_alive().and_then(|()| self.apply_unsynced(ops));
            applied.push(slot);
        }

        let mut durable = false;
        let mut batch_err: Option<DurabilityError> = None;
        if self.poisoned.is_none() {
            match self.sync_internal() {
                Ok(()) => durable = true,
                // Terminal fsync failure: the tail (and every commit record
                // in it) is pending, not lost — receipts stay volatile.
                Err(DurabilityError::WalSync { .. }) => {}
                Err(e) => batch_err = Some(e),
            }
            if self.poisoned.is_none() && applied.iter().any(Result::is_ok) {
                self.publish();
            }
        }

        applied
            .into_iter()
            .map(|slot| match slot {
                Ok((txn, lsn)) => match &batch_err {
                    // The batch's sync crashed: whether this commit record
                    // survived is for recovery to decide; report the crash.
                    Some(e) => Err(e.clone()),
                    None => Ok(CommitReceipt { txn, epoch: self.epoch, durable, lsn }),
                },
                Err(e) => Err(e),
            })
            .collect()
    }

    /// `true` when the auto-checkpoint policy is due (callers of
    /// [`DurableDb::apply_batch`] checkpoint between batches, never inside
    /// one).
    pub fn should_auto_checkpoint(&self) -> bool {
        self.opts.checkpoint_every > 0
            && self.commits_since_checkpoint >= self.opts.checkpoint_every
    }

    /// Steps 1–4 of the commit protocol: validate, append redo records,
    /// mutate the master (logging signature summaries), witness dirtied
    /// pages, seal with `Commit`. No fsync, no publish — the caller decides
    /// how many transactions share those.
    fn apply_unsynced(&mut self, ops: &[MaintenanceOp]) -> Result<(u64, Lsn), DurabilityError> {
        if ops.is_empty() {
            return Err(DurabilityError::InvalidOp { cause: "empty transaction".to_string() });
        }
        self.validate(ops)?;
        let txn = self.next_txn;

        // 1. Redo records — appended before any page mutation.
        let base = self.master.relation.len() as u64;
        let mut inserts = 0u64;
        let redo: Vec<WalRecord> = ops
            .iter()
            .map(|op| match op {
                MaintenanceOp::Insert { codes, coords } => {
                    let tid = base + inserts;
                    inserts += 1;
                    WalRecord::TreeSplit {
                        txn,
                        op: TreeOp::Insert,
                        tid,
                        codes: codes.clone(),
                        coords: coords.clone(),
                    }
                }
                MaintenanceOp::Delete { tid } => WalRecord::TreeSplit {
                    txn,
                    op: TreeOp::Delete,
                    tid: *tid,
                    codes: Vec::new(),
                    coords: self.master.relation.pref_coords(*tid),
                },
            })
            .collect();
        for rec in &redo {
            self.wal_append(rec)?;
        }

        // 2. Mutate the master by running those records, exactly as
        //    recovery will; log the per-cell signature summaries.
        //    `validate` checked every tid upfront and the master is
        //    single-writer, so a divergence here means the master already
        //    disagrees with the redo records in the WAL tail — state no
        //    recoverable error can repair. Returning would keep accepting
        //    transactions on a master the log no longer describes; dying
        //    loudly is the only honest option.
        let touches = apply_txn(self.master_mut(), &redo).unwrap_or_else(|cause| {
            panic!("invariant violated: {cause} mid-transaction, with its redo record already logged")
        });
        for t in touches {
            self.wal_append(&WalRecord::SigUpdate { txn, cell: t.cell, sets: t.sets, clears: t.clears })?;
        }

        // 3–4. Witness the dirtied pages, seal and account.
        Ok((txn, self.seal(txn)?))
    }

    /// Ends transaction `txn`: one physical `PageWrite` witness per page it
    /// dirtied, the `Commit` record (whose LSN is returned), and the
    /// counters.
    pub(super) fn seal(&mut self, txn: u64) -> Result<Lsn, DurabilityError> {
        self.append_witnesses(txn)?;
        let lsn = self.wal_append(&WalRecord::Commit { txn })?;
        self.next_txn += 1;
        self.applied_txns = txn;
        self.commits_since_sync += 1;
        self.commits_since_checkpoint += 1;
        Ok(lsn)
    }

    /// Single-insert convenience: one transaction, one row.
    pub fn insert(
        &mut self,
        codes: &[u32],
        coords: &[f64],
    ) -> Result<(u64, CommitReceipt), DurabilityError> {
        let tid = self.master.relation.len() as u64;
        let receipt = self.apply(&[MaintenanceOp::Insert {
            codes: codes.to_vec(),
            coords: coords.to_vec(),
        }])?;
        Ok((tid, receipt))
    }

    /// Single-delete convenience: one transaction, one tombstone.
    pub fn delete(&mut self, tid: u64) -> Result<CommitReceipt, DurabilityError> {
        self.apply(&[MaintenanceOp::Delete { tid }])
    }

    /// Fsyncs any pending WAL tail (flushes the group-commit window).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.ensure_alive()?;
        self.sync_internal()
    }

    pub(super) fn wal_append(&mut self, rec: &WalRecord) -> Result<Lsn, DurabilityError> {
        self.observe(CrashPoint::WalAppend)?;
        Ok(self.wal.append(rec))
    }

    pub(super) fn sync_internal(&mut self) -> Result<(), DurabilityError> {
        if let Some(plan) = &mut self.crash {
            if plan.observe(CrashPoint::WalSync) {
                // A crash mid-fsync: a prefix of the tail lands, the rest is
                // lost, and the durable log likely ends in a torn frame.
                let keep = plan.torn_len(self.wal.pending_bytes());
                self.wal.sync_torn(keep);
                self.poisoned = Some(CrashPoint::WalSync);
                return Err(DurabilityError::Crashed { point: CrashPoint::WalSync });
            }
        }
        self.wal.sync().map_err(|e| DurabilityError::WalSync {
            attempts: e.attempts,
            backoff_us: e.backoff_us,
        })?;
        if self.opts.fsync_delay_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.opts.fsync_delay_us));
        }
        self.commits_since_sync = 0;
        self.synced_txns = self.applied_txns;
        self.persist_wal_file_append()
    }

    /// Logs one `PageWrite` CRC witness per page the transaction dirtied
    /// (live pages only; freed pages have no contents to witness), and
    /// feeds the same pages to the checkpoint accumulator.
    fn append_witnesses(&mut self, txn: u64) -> Result<(), DurabilityError> {
        let dirty = take_dirty(self.master_mut());
        for (kind, pids) in STORE_KINDS.into_iter().zip(dirty) {
            for pid in pids {
                self.ckpt_dirty[kind_idx(kind)].insert(pid.0);
                if let Some(crc) = pager_of(&self.master, kind).page_bytes(pid).map(crc32) {
                    self.wal_append(&WalRecord::PageWrite { txn, store: kind, pid: pid.0, crc })?;
                }
            }
        }
        Ok(())
    }

    /// Rejects a malformed batch before anything is logged or mutated.
    fn validate(&self, ops: &[MaintenanceOp]) -> Result<(), DurabilityError> {
        let n_bool = self.master.relation.schema().n_bool();
        let n_pref = self.master.relation.schema().n_pref();
        let base = self.master.relation.len() as u64;
        let mut inserts = 0u64;
        let mut deleted: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                MaintenanceOp::Insert { codes, coords } => {
                    if codes.len() != n_bool {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!("insert has {} codes, schema has {n_bool}", codes.len()),
                        });
                    }
                    if coords.len() != n_pref {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!(
                                "insert has {} coords, schema has {n_pref}",
                                coords.len()
                            ),
                        });
                    }
                    if coords.iter().any(|x| !x.is_finite()) {
                        return Err(DurabilityError::InvalidOp {
                            cause: "non-finite preference coordinate".to_string(),
                        });
                    }
                    inserts += 1;
                }
                MaintenanceOp::Delete { tid } => {
                    if *tid >= base + inserts {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!("delete of unknown tuple {tid}"),
                        });
                    }
                    if *tid >= base {
                        // Same-batch insert+delete would make the redo
                        // record's coordinates unresolvable; split the batch.
                        return Err(DurabilityError::InvalidOp {
                            cause: format!(
                                "tuple {tid} is inserted in this same transaction; delete it in a later one"
                            ),
                        });
                    }
                    if !self.master.relation.is_live(*tid) || !deleted.insert(*tid) {
                        return Err(DurabilityError::InvalidOp {
                            cause: format!("delete of dead tuple {tid}"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    pub(super) fn persist_wal_file_full(&mut self) -> Result<(), DurabilityError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        replace_durable_file(&dir.join("wal.pcube"), self.wal.durable_bytes())?;
        self.file_synced = self.wal.durable_len();
        Ok(())
    }

    fn persist_wal_file_append(&mut self) -> Result<(), DurabilityError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let durable = self.wal.durable_bytes();
        if self.file_synced > durable.len() {
            // Truncation shrank the log; rewrite.
            return self.persist_wal_file_full();
        }
        let path = dir.join("wal.pcube");
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        f.write_all(&durable[self.file_synced..]).map_err(|e| io_err(&path, e))?;
        f.sync_all().map_err(|e| io_err(&path, e))?;
        self.file_synced = durable.len();
        Ok(())
    }
}

/// Runs one transaction's redo records against `master`: each `TreeSplit`
/// insert or delete through the tracked maintenance calls, then every
/// `SigRebuild` cell regenerated in one pass. Commit, repair and recovery
/// all mutate the master through here, so a replay re-executes the very
/// function the commit ran. Returns the tree operations' signature touches
/// in record order — what the `SigUpdate` records log. Evidence records
/// (`SigUpdate`, `PageWrite`, `Commit`, `Checkpoint`) are skipped.
pub(super) fn apply_txn<'a>(
    master: &mut PCubeDb,
    recs: impl IntoIterator<Item = &'a WalRecord>,
) -> Result<Vec<SigTouch>, String> {
    let mut touches = Vec::new();
    let mut rebuilt = Vec::new();
    for rec in recs {
        match rec {
            WalRecord::TreeSplit { op: TreeOp::Insert, tid, codes, coords, .. } => {
                let (got, t) = master.insert_coded_tracked(codes, coords);
                if got != *tid {
                    return Err(format!("insert produced tid {got}, log says {tid}"));
                }
                touches.extend(t);
            }
            WalRecord::TreeSplit { op: TreeOp::Delete, tid, .. } => {
                let t = master.delete_tracked(*tid);
                touches.extend(t.ok_or_else(|| format!("delete of {tid} found no tuple"))?);
            }
            WalRecord::SigRebuild { cell, .. } => rebuilt.push(*cell),
            _ => {}
        }
    }
    if !rebuilt.is_empty() {
        master.pcube.regenerate(&master.relation, &master.rtree, &rebuilt);
    }
    Ok(touches)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{seed_relation, skyline_tids, some_ops};
    use super::*;

    #[test]
    fn apply_batch_spends_one_sync_and_one_publish_on_the_whole_batch() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        let epoch_before = db.epoch();
        let syncs_before = db.wal_stats().syncs;
        let (publishes_before, _) = db.publish_stats();

        // Insert-only transactions: batches are validated against the state
        // their predecessors in the same batch produce, so precomputed
        // deletes of one victim would collide.
        let insert_txn = |k: u64| {
            vec![MaintenanceOp::Insert {
                codes: vec![(k % 3) as u32, (k % 2) as u32],
                coords: vec![(k as f64 * 0.137).fract(), (k as f64 * 0.291).fract()],
            }]
        };
        let batch: Vec<Vec<MaintenanceOp>> = (0..6).map(insert_txn).collect();
        let results = db.apply_batch(&batch);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            let receipt = r.as_ref().unwrap_or_else(|e| panic!("txn {i} failed: {e}"));
            assert!(receipt.durable, "batch sync must cover txn {i}");
            assert_eq!(receipt.txn, i as u64 + 1, "dense submission-order txn ids");
            assert_eq!(receipt.epoch, epoch_before + 1, "one shared epoch per batch");
        }
        assert_eq!(db.wal_stats().syncs, syncs_before + 1, "one fsync for six txns");
        assert_eq!(db.publish_stats().0, publishes_before + 1, "one publish for six txns");

        // A malformed transaction mid-batch is rejected alone.
        let mixed = vec![
            insert_txn(10),
            vec![MaintenanceOp::Delete { tid: 9999 }],
            insert_txn(11),
        ];
        let results = db.apply_batch(&mixed);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DurabilityError::InvalidOp { .. })));
        assert!(results[2].is_ok(), "a bad neighbour must not poison the batch");

        // Everything acknowledged durable survives recovery.
        let (recovered, _) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert_eq!(skyline_tids(recovered.db()), skyline_tids(db.db()));
        assert_eq!(recovered.applied_txns(), 8);
    }

    #[test]
    fn terminal_fsync_failure_is_typed_and_the_tail_lands_later() {
        use pcube_storage::{Counter, FaultPlan};
        let mut db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), DurabilityOptions::default());
        db.set_wal_fault_plan(FaultPlan::seeded(7).with_fsync_failures(1.0));
        let err = db.apply(&some_ops(&db, 0)).expect_err("fsync must exhaust its retries");
        assert!(
            matches!(err, DurabilityError::WalSync { attempts, .. } if attempts > 1),
            "unexpected error: {err}"
        );
        assert!(db.poisoned().is_none(), "a failed fsync is not a crash");
        // Retries and backoff were accounted on the shared ledger.
        assert!(db.db().stats.get(Counter::WalRetries) > 0);
        assert!(db.db().stats.get(Counter::WalBackoffUs) > 0);

        // The tail is pending, not lost: heal the fault and sync again.
        db.take_wal_fault_plan();
        db.sync().expect("healed sync");
        assert_eq!(db.durable_txns(), 1);
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(recovered.applied_txns(), 1);
    }

    #[test]
    fn malformed_batches_are_rejected_upfront() {
        let mut db = DurableDb::create(seed_relation(16), &PCubeConfig::default(), DurabilityOptions::default());
        let wal_before = db.wal_stats().appends;
        let bad = [
            vec![],
            vec![MaintenanceOp::Insert { codes: vec![0], coords: vec![0.1, 0.2] }],
            vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.1] }],
            vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![f64::NAN, 0.2] }],
            vec![MaintenanceOp::Delete { tid: 999 }],
            vec![MaintenanceOp::Delete { tid: 3 }, MaintenanceOp::Delete { tid: 3 }],
        ];
        for ops in bad {
            let err = db.apply(&ops).expect_err("must reject");
            assert!(matches!(err, DurabilityError::InvalidOp { .. }), "{err}");
        }
        assert_eq!(db.wal_stats().appends, wal_before, "rejected batches must not log");
        assert_eq!(db.applied_txns(), 0);
    }
}
