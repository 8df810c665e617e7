//! Online repair: quarantined signature pages rebuilt from the base table,
//! through the WAL.

use std::collections::HashSet;

use pcube_storage::Counter;

use super::commit::apply_txn;
use super::*;

impl DurableDb {
    /// Online repair: rebuilds every quarantined signature page from the
    /// base table, routed through the WAL so the heal is crash-safe at
    /// every boundary.
    ///
    /// Signatures are *derived* data — §VII keeps answers exact without
    /// them — so a quarantined page never holds the only copy of anything.
    /// Repair exploits that: it maps the quarantined pages back to the
    /// cells whose partials live there (a directory range scan that never
    /// reads the damaged bytes), then per cell logs a logical
    /// [`WalRecord::SigRebuild`] redo record, then regenerates all of them
    /// from the live R-tree paths in one pass of the build's own generator.
    /// `write_signature` frees the old pages *unread* (auto-clearing their
    /// quarantine entries) and allocates fresh ones, the rebuilt pages get
    /// the usual `PageWrite` CRC
    /// witnesses, and the whole batch seals with one `Commit`, one fsync,
    /// and one epoch publish.
    ///
    /// Crash safety: a crash before the commit record is durable leaves
    /// recovery replaying from the last checkpoint — whose pages are the
    /// clean pre-corruption copies, since in-memory corruption never marks
    /// a page dirty — so the store comes back in its pre-repair (or
    /// equivalently, never-corrupted) state. A crash after the commit
    /// record replays the `SigRebuild` records, re-deriving the identical
    /// rebuild deterministically. Either way no reader ever observes a
    /// torn heal: the epoch publish is the single visibility point.
    pub fn repair(&mut self) -> Result<RepairOutcome, DurabilityError> {
        self.ensure_alive()?;
        let store = &self.master.pcube.store;
        let (sig_pager, ..) = store.parts_ref();
        let quarantined: HashSet<u32> =
            sig_pager.quarantine_entries().iter().map(|(pid, _)| pid.0).collect();
        if quarantined.is_empty() {
            return Ok(RepairOutcome {
                cells_rebuilt: 0,
                pages_healed: 0,
                txn: None,
                epoch: self.epoch,
            });
        }
        // Establish the blast radius without touching the damaged bytes:
        // the directory records which cells keep partials on each page. If
        // the *directory itself* is unreadable, repair refuses — it heals
        // derived data, it never guesses. Nothing has been logged yet.
        let cells = store
            .cells_on_pages(&quarantined)
            .map_err(|e| DurabilityError::Repair { cause: e.to_string() })?;
        let healed_base = self.master.stats().snapshot().get(Counter::PagesRepaired);

        // Log every cell's redo record, then run them as replay will: the
        // cells regenerate together from the live R-tree paths.
        let txn = self.next_txn;
        let mut rebuilds = Vec::with_capacity(cells.len());
        for &cell in &cells {
            self.observe(CrashPoint::RepairCell)?;
            let rec = WalRecord::SigRebuild { txn, cell };
            self.wal_append(&rec)?;
            rebuilds.push(rec);
        }
        apply_txn(self.master_mut(), &rebuilds).expect("a rebuild has no tuple id to diverge on");
        self.seal(txn)?;

        // Repair is always synced before it becomes visible: a volatile
        // heal that a crash could un-heal would defeat the point.
        self.sync_internal()?;
        self.observe(CrashPoint::RepairInstall)?;
        self.publish();

        // Entries for pages no cell referenced (orphans — e.g. a freed
        // page corrupted before reuse) can only be cleared, not freed:
        // freeing outside a logged transaction would shift the free list
        // under future PageWrite witnesses. Clearing the registry entry is
        // safe — it is not durable state.
        let sig_pager = self.master.pcube.store.parts_ref().0;
        for pid in &quarantined {
            sig_pager.clear_quarantine(PageId(*pid));
        }
        let pages_healed = self.master.stats().snapshot().get(Counter::PagesRepaired) - healed_base;
        Ok(RepairOutcome {
            cells_rebuilt: cells.len() as u64,
            pages_healed,
            txn: Some(txn),
            epoch: self.epoch,
        })
    }
}
