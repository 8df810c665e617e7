//! The checkpoint that keeps the durable database's image
//! ([`CheckpointImage`], `crate::persist`) current, and its file.

use crate::persist::meta_payload;

use super::*;

impl DurableDb {
    /// Incremental checkpoint: re-point the image's slots for the pages
    /// dirtied since the last checkpoint at the master's current versions
    /// (staged, then installed atomically), log + fsync a `Checkpoint`
    /// record, and — once the image file has landed, in file mode — truncate
    /// the WAL prefix the image now covers.
    pub fn checkpoint(&mut self) -> Result<CheckpointOutcome, DurabilityError> {
        self.ensure_alive()?;
        self.drain_dirty();

        // Stage: every page dirtied since the last checkpoint is one
        // PageFlush crash point. A crash here leaves the image untouched.
        let pages_flushed: u64 = self.ckpt_dirty.iter().map(|set| set.len() as u64).sum();
        for _ in 0..pages_flushed {
            self.observe(CrashPoint::PageFlush)?;
        }

        // Install atomically (modeled as a rename-over swap): the image
        // shares the master's current version of each dirty page, or drops a
        // freed one. Only dirty slots move — a page that rotted in memory
        // without being written keeps the clean version the image holds.
        self.observe(CrashPoint::CheckpointInstall)?;
        let txns = self.applied_txns;
        let epoch = self.epoch;
        let stores = STORE_KINDS.into_iter().zip(&mut self.image.pagers).zip(&mut self.ckpt_dirty);
        for ((kind, frozen), dirty) in stores {
            let pids = std::mem::take(dirty).into_iter().map(PageId);
            frozen.share_slots(pager_of(&self.master, kind), pids);
        }
        self.image.meta = meta_payload(&self.master);
        self.image.epoch = epoch;
        self.image.txns = txns;
        self.image.next_txn = self.next_txn;

        // Log the checkpoint and make it durable.
        let lsn = self.wal_append(&WalRecord::Checkpoint { epoch, txns })?;
        self.image.next_lsn = lsn + 1;
        self.sync_internal()?;

        // Truncate the covered prefix (the Checkpoint record itself stays
        // as a harmless marker) — in memory and then on disk, and only after
        // the image file landed: when that write fails the previous image
        // still has its whole log beside it, and later commits append to it.
        self.observe(CrashPoint::CheckpointTruncate)?;
        self.persist_checkpoint_file()?;
        let reclaimed = self.wal.truncate_durable_before(lsn) as u64;
        self.commits_since_checkpoint = 0;
        self.persist_wal_file_full()?;
        Ok(CheckpointOutcome { epoch, txns, pages_flushed, wal_bytes_reclaimed: reclaimed })
    }

    /// Drains the pagers' dirty sets into the per-checkpoint accumulator.
    fn drain_dirty(&mut self) {
        let drained = take_dirty(self.master_mut());
        for (set, pids) in self.ckpt_dirty.iter_mut().zip(drained) {
            set.extend(pids.into_iter().map(|p| p.0));
        }
    }

    pub(super) fn persist_checkpoint_file(&self) -> Result<(), DurabilityError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        replace_durable_file(&dir.join("checkpoint.pcube"), &self.image.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{seed_relation, skyline_tids, some_ops};
    use super::*;

    #[test]
    fn checkpoint_truncates_wal_and_recovers_clean() {
        let mut db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        for round in 0..4 {
            let ops = some_ops(&db, round);
            db.apply(&ops).expect("apply");
        }
        let before = db.wal_len();
        let outcome = db.checkpoint().expect("checkpoint");
        assert!(outcome.pages_flushed > 0);
        assert!(outcome.wal_bytes_reclaimed > 0);
        assert!(db.wal_len() < before);
        assert_eq!(outcome.txns, 4);

        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
                .expect("recover");
        assert!(report.clean, "post-checkpoint open should be clean: {report}");
        assert_eq!(report.checkpoint_txns, 4);
        assert!(report.pages_verified > 0);
        assert_eq!(skyline_tids(recovered.db()), skyline_tids(db.db()));
    }

    #[test]
    fn corrupt_checkpoint_header_watermark_is_detected() {
        let mut db = DurableDb::create(seed_relation(32), &PCubeConfig::default(), DurabilityOptions::default());
        db.apply(&some_ops(&db, 0)).expect("apply");
        db.checkpoint().expect("checkpoint");
        let clean = db.durable_state();
        // Flip a bit in each watermark word (epoch, txns, next_txn,
        // next_lsn): the header CRC must catch all of them — a skewed txns
        // watermark silently skips replay, a zeroed next_lsn underflows.
        for byte in [8usize, 16, 24, 32] {
            let mut state = clean.clone();
            state.checkpoint[byte] ^= 0xFF;
            let err = match DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default()) {
                Ok(_) => panic!("must detect header corruption"),
                Err(e) => e,
            };
            assert!(
                matches!(err, DurabilityError::Persist(PersistError { section: "checkpoint-header", .. })),
                "byte {byte}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn rot_that_was_never_written_never_reaches_the_image() {
        // Only pages dirtied since the last checkpoint move into the image,
        // so a page that decays in memory (no write, no dirty bit) keeps the
        // clean version the image already holds. A checkpoint that took the
        // master's page table wholesale would pass every other suite.
        //
        // The commits after the rot insert values no row had in either
        // boolean dimension, too few to split an R-tree node: they write new
        // cells' pages and R-tree and directory pages, and never read a
        // rotted signature page. The R-tree rot is the node's reserved byte,
        // which nothing decodes.
        let run = |rot: bool| {
            let mut db = DurableDb::create(
                seed_relation(2000),
                &PCubeConfig::default(),
                DurabilityOptions::default(),
            );
            db.apply(&some_ops(&db, 0)).expect("apply");
            db.checkpoint().expect("checkpoint");
            let before: Vec<Vec<u8>> = {
                let pager = db.master.rtree.pager();
                let live = pager.live_page_ids();
                live.iter().filter_map(|&p| pager.page_bytes(p)).map(<[u8]>::to_vec).collect()
            };
            let fresh = |k: u32| MaintenanceOp::Insert {
                codes: vec![10 + k, 20 + k],
                coords: vec![0.2 + f64::from(k) * 0.3, 0.8 - f64::from(k) * 0.3],
            };
            let commits = [vec![fresh(0), fresh(1)], vec![fresh(0)], vec![fresh(2), fresh(1)]];
            let mut rotted = Vec::new();
            if rot {
                // An R-tree page the commits below leave alone.
                let mut twin = DurableDb::open_or_recover_from_state(
                    &db.durable_state(),
                    DurabilityOptions::default(),
                )
                .expect("twin")
                .0;
                for ops in &commits {
                    twin.apply(ops).expect("apply");
                }
                let twin_pager = twin.master.rtree.pager();
                let untouched = twin_pager
                    .live_page_ids()
                    .into_iter()
                    .zip(&before)
                    .find(|(pid, bytes)| twin_pager.page_bytes(*pid) == Some(&bytes[..]))
                    .map(|(pid, _)| pid)
                    .expect("some R-tree page is not on the insert path");
                let master = db.master_mut();
                master.rtree.pager_mut().corrupt_page(untouched, 1, 0xFF).expect("live page");
                rotted.push((StoreKind::Rtree, untouched));
                let sig_pager = master.pcube.store.sig_pager_mut();
                for pid in sig_pager.live_page_ids() {
                    sig_pager.corrupt_page(pid, 7 + pid.index(), 0x5A).expect("live page");
                    rotted.push((StoreKind::Signature, pid));
                }
            }
            for ops in &commits {
                db.apply(ops).expect("apply");
            }
            let outcome = db.checkpoint().expect("checkpoint");
            assert!(outcome.pages_flushed > 0);
            (db, rotted)
        };
        let pages = |db: &PCubeDb| -> Vec<(StoreKind, PageId, Vec<u8>)> {
            STORE_KINDS
                .into_iter()
                .flat_map(|kind| {
                    let pager = pager_of(db, kind);
                    pager
                        .live_page_ids()
                        .into_iter()
                        .filter_map(move |pid| Some((kind, pid, pager.page_bytes(pid)?.to_vec())))
                })
                .collect()
        };

        let (twin, _) = run(false);
        let (subject, rotted) = run(true);
        assert!(rotted.len() > 3, "every signature page and one R-tree page rotted");
        for &(kind, pid) in &rotted {
            assert_ne!(
                pager_of(&subject.master, kind).page_bytes(pid),
                pager_of(&twin.master, kind).page_bytes(pid),
                "{} page {pid} of the live master carries the rot",
                kind.name()
            );
        }
        let (recovered, report) = DurableDb::open_or_recover_from_state(
            &subject.durable_state(),
            DurabilityOptions::default(),
        )
        .expect("recover");
        assert!(report.clean, "{report}");
        assert!(pages(recovered.db()) == pages(twin.db()), "the image saw the in-memory rot");
        assert!(!pager_of(recovered.db(), StoreKind::Signature).checksums_enabled());
    }

    #[test]
    fn corrupt_checkpoint_page_is_detected() {
        let mut db = DurableDb::create(seed_relation(32), &PCubeConfig::default(), DurabilityOptions::default());
        db.apply(&some_ops(&db, 0)).expect("apply");
        db.checkpoint().expect("checkpoint");
        let mut state = db.durable_state();
        // Flip a byte deep inside the image body (past the header/meta).
        let mid = state.checkpoint.len() / 2;
        state.checkpoint[mid] ^= 0xFF;
        let err = match DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
        {
            Ok(_) => panic!("must detect corruption"),
            Err(e) => e,
        };
        assert!(matches!(err, DurabilityError::Persist(_)), "unexpected error: {err}");
    }
}
