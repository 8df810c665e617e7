//! The checkpoint image — three frozen pagers plus the non-paged metadata —
//! and the checkpoint that keeps it current.

use pcube_storage::{crc32, IoCategory, IoStats};

use crate::persist::{self, open_section, put_section, put_u32, put_u64, Reader};

use super::*;

/// 8-byte magic of a serialized checkpoint image; the version is the last
/// byte.
const CKPT_MAGIC: &[u8; 8] = b"PCUBECK2";
/// Byte length of the watermark header after the magic: four u64 watermarks
/// (epoch, txns, next_txn, next_lsn) followed by their CRC32.
const CKPT_HEAD_LEN: usize = 36;
/// Section tags inside a checkpoint image, in order: the metadata, then one
/// page table per store in [`STORE_KINDS`] order.
const TAG_META: u8 = 1;
const PAGE_SECTIONS: [(u8, &str, IoCategory); 3] = [
    (2, "checkpoint-rtree", IoCategory::RtreeBlock),
    (3, "checkpoint-signatures", IoCategory::SignaturePage),
    (4, "checkpoint-directory", IoCategory::BptreePage),
];

/// The durable checkpoint: metadata (relation, registry, cuboids, tree
/// scalars — reusing the persist-v2 payload formats) plus one *frozen*
/// [`Pager`] per paged store (R-tree, signatures, directory). A frozen pager
/// is a copy-on-write clone of the master's: it shares every page the master
/// has not rewritten since the last checkpoint, keeps the CRC32 each page
/// had when it entered, carries no fault plan and no dirty set, and is never
/// read through a counted path. Installed atomically; serializable for the
/// file mode and the crash harness.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    pub(super) epoch: u64,
    /// Committed transactions whose effects the image contains — the replay
    /// cutoff: recovery re-executes only transactions beyond this.
    pub(super) txns: u64,
    pub(super) next_txn: u64,
    pub(super) next_lsn: Lsn,
    meta: Vec<u8>,
    pagers: [Pager; 3],
}

impl CheckpointImage {
    /// Full capture of a freshly built master (no fault plan, no read delay,
    /// dirty marks already cleared): three pager clones, checksummed once.
    pub(super) fn capture(master: &PCubeDb) -> Self {
        let pagers = STORE_KINDS.map(|kind| {
            let mut frozen = pager_of(master, kind).clone();
            debug_assert_eq!(frozen.dirty_len(), 0, "the capture covers every page");
            frozen.set_checksums(true);
            frozen
        });
        CheckpointImage {
            epoch: 1,
            txns: 0,
            next_txn: 1,
            next_lsn: 1,
            meta: meta_payload(master),
            pagers,
        }
    }

    /// The committed-transaction watermark (the replay cutoff).
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// The epoch the image was installed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Serializes the image (magic, watermarks, framed sections). Page
    /// checksums are the ones the frozen pagers hold.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CKPT_MAGIC);
        let mut head = Vec::new();
        put_u64(&mut head, self.epoch);
        put_u64(&mut head, self.txns);
        put_u64(&mut head, self.next_txn);
        put_u64(&mut head, self.next_lsn);
        // The sections below are CRC-framed; the watermarks need their own
        // checksum or a flipped bit silently skews the replay cutoff.
        let head_crc = crc32(&head);
        put_u32(&mut head, head_crc);
        out.extend_from_slice(&head);
        put_section(&mut out, TAG_META, &self.meta);
        let mut payload = Vec::new();
        for ((tag, _, _), pager) in PAGE_SECTIONS.iter().zip(&self.pagers) {
            payload.clear();
            pager.write_table(&mut payload);
            put_section(&mut out, *tag, &payload);
        }
        out
    }

    /// Parses an image serialized by [`CheckpointImage::to_bytes`],
    /// verifying the watermark checksum, every section's framing and
    /// checksum, and every live page against its stored CRC32.
    pub fn from_bytes(image: &[u8]) -> Result<CheckpointImage, DurabilityError> {
        if image.len() < CKPT_MAGIC.len() + CKPT_HEAD_LEN {
            return persist::fail("checkpoint-header", 0, "image shorter than the header").map_err(Into::into);
        }
        if &image[..8] != CKPT_MAGIC {
            return persist::fail("checkpoint-header", 0, "not a checkpoint image").map_err(Into::into);
        }
        let stored = {
            let mut raw = [0u8; 4];
            raw.copy_from_slice(&image[40..44]);
            u32::from_le_bytes(raw)
        };
        let actual = crc32(&image[8..40]);
        if actual != stored {
            return Err(DurabilityError::Corrupt {
                store: "checkpoint-header".to_string(),
                cause: format!(
                    "watermark checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                ),
            });
        }
        let word = |i: usize| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&image[8 + i * 8..16 + i * 8]);
            u64::from_le_bytes(raw)
        };
        let (epoch, txns, next_txn, next_lsn) = (word(0), word(1), word(2), word(3));
        if next_lsn == 0 || next_txn == 0 || txns >= next_txn {
            return Err(DurabilityError::Corrupt {
                store: "checkpoint-header".to_string(),
                cause: format!(
                    "implausible watermarks (txns {txns}, next_txn {next_txn}, next_lsn {next_lsn})"
                ),
            });
        }
        let mut pos = 8 + CKPT_HEAD_LEN;
        let mut r = open_section(image, &mut pos, TAG_META, "checkpoint-meta")?;
        let meta = r.remaining_bytes().to_vec();
        // The ledger of the database this image will be restored into: the
        // frozen pagers hold it but never charge it.
        let stats = IoStats::new_shared();
        let mut page_table = |(tag, name, category): (u8, &'static str, IoCategory)| {
            let mut r = open_section(image, &mut pos, tag, name)?;
            let pager = r.pager(Pager::read_table, category, stats.clone())?;
            r.finish()?;
            Ok::<Pager, PersistError>(pager)
        };
        let pagers = [
            page_table(PAGE_SECTIONS[0])?,
            page_table(PAGE_SECTIONS[1])?,
            page_table(PAGE_SECTIONS[2])?,
        ];
        if pos != image.len() {
            return persist::fail("checkpoint-image", pos, "trailing bytes after the image").map_err(Into::into);
        }
        Ok(CheckpointImage { epoch, txns, next_txn, next_lsn, meta, pagers })
    }

    /// Restores the image into a fresh, queryable master database whose
    /// pagers share every page with the image (checksums off, as a built
    /// database has them). Returns the database and the number of live pages
    /// — each verified against its CRC32 when the image was parsed.
    pub(super) fn restore(&self) -> Result<(PCubeDb, u64), DurabilityError> {
        let mut r = Reader::over(&self.meta, "checkpoint-meta");
        let relation = persist::read_relation_payload(&mut r)?;
        let cube = persist::read_cube_payload(&mut r)?;
        let rtree = persist::read_rtree_scalars(&mut r, relation.schema().n_pref())?;
        let store = persist::read_store_scalars(&mut r)?;
        let directory = persist::read_directory_scalars(&mut r)?;
        r.finish()?;
        let thaw = |frozen: &Pager| {
            let mut pager = frozen.clone();
            pager.set_checksums(false);
            pager
        };
        let [rtree_pages, sig_pages, dir_pages] = &self.pagers;
        let master = persist::assemble(
            relation,
            cube,
            (rtree, thaw(rtree_pages)),
            (store, thaw(sig_pages)),
            (directory, thaw(dir_pages)),
            rtree_pages.stats().clone(),
        )?;
        let pages_verified = self.pagers.iter().map(|p| p.live_pages() as u64).sum();
        Ok((master, pages_verified))
    }
}

/// Serializes the non-paged state of a master database: relation + cube
/// payloads (persist-v2 formats) followed by the tree scalars.
fn meta_payload(master: &PCubeDb) -> Vec<u8> {
    let mut meta = Vec::new();
    persist::write_relation_payload(&master.relation, &mut meta);
    persist::write_cube_payload(&master.pcube, &mut meta);
    persist::write_rtree_scalars(&master.rtree, &mut meta);
    let (_, directory, s_m_max, s_height) = master.pcube.store.parts_ref();
    put_u64(&mut meta, s_m_max as u64);
    put_u64(&mut meta, s_height as u64);
    persist::write_directory_scalars(directory, &mut meta);
    meta
}

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
        let lsn = self.wal_append(WalRecord::Checkpoint { epoch, txns })?;
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
        let tmp = dir.join("checkpoint.pcube.tmp");
        let dst = dir.join("checkpoint.pcube");
        std::fs::write(&tmp, self.image.to_bytes()).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
        Ok(())
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
                matches!(err, DurabilityError::Corrupt { ref store, .. } if store == "checkpoint-header"),
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
        match err {
            DurabilityError::Corrupt { .. } | DurabilityError::Persist(_) => {}
            other => panic!("unexpected error: {other}"),
        }
    }
}
