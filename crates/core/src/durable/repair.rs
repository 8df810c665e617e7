//! Online repair: quarantined signature pages rebuilt from the base table,
//! through the WAL.

use std::collections::{HashMap, HashSet};

use pcube_cube::CellKey;
use pcube_rtree::Path as TreePath;
use pcube_storage::Counter;

use crate::signature::Signature;
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
    /// [`WalRecord::SigRebuild`] redo record and re-derives the signature
    /// from the live R-tree paths. `write_signature` frees the old pages
    /// *unread* (auto-clearing their quarantine entries) and allocates
    /// fresh ones, the rebuilt pages get the usual `PageWrite` CRC
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

        // Tuple paths come from the R-tree (live rows only), one walk
        // shared by every rebuilt cell.
        let paths = collect_paths(&self.master);
        let m_max = self.master.rtree.m_max();
        let txn = self.next_txn;
        let mut cells_rebuilt = 0u64;
        for &cell in &cells {
            self.observe(CrashPoint::RepairCell)?;
            self.wal_append(WalRecord::SigRebuild { txn, cell })?;
            let sig = rebuild_cell_signature(&self.master, &paths, cell)
                .unwrap_or_else(|| Signature::empty(m_max));
            self.master_mut().pcube.store_mut().write_signature(cell, &sig);
            cells_rebuilt += 1;
        }
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
        Ok(RepairOutcome { cells_rebuilt, pages_healed, txn: Some(txn), epoch: self.epoch })
    }
}

/// One R-tree walk collecting every live tuple's path — the shared input
/// to per-cell signature rebuilds. Tombstoned rows are absent from the
/// tree, so they are naturally excluded.
pub(super) fn collect_paths(master: &PCubeDb) -> HashMap<u64, TreePath> {
    let mut paths = HashMap::new();
    master.rtree.for_each_tuple(|tid, path, _| {
        paths.insert(tid, path.clone());
    });
    paths
}

/// Re-derives one cell's signature from the base table: scan the relation
/// for rows matching the cell's boolean selection, keep the live ones (the
/// R-tree walk skipped tombstones), and regenerate the signature from
/// their tree paths — exactly the §IV-B generation procedure, so a rebuild
/// is bit-identical to a never-corrupted original. `None` when the cell is
/// not registered or no live row matches (the caller writes an empty
/// signature, which deletes the cell's partials).
pub(super) fn rebuild_cell_signature(
    master: &PCubeDb,
    paths: &HashMap<u64, TreePath>,
    cell: u32,
) -> Option<Signature> {
    let key: &CellKey = master.pcube.registry().key(cell)?;
    let dims = key.mask.dims();
    let mut matched: Vec<&TreePath> = Vec::new();
    for tid in 0..master.relation.len() as u64 {
        let Some(path) = paths.get(&tid) else { continue };
        if dims
            .iter()
            .zip(&key.values)
            .all(|(&d, &v)| master.relation.bool_code(tid, d) == v)
        {
            matched.push(path);
        }
    }
    if matched.is_empty() {
        return None;
    }
    Some(Signature::from_paths(master.rtree.m_max(), matched))
}
