//! On-disk signature storage and lazy retrieval (§IV-B.2).
//!
//! "All signatures are stored on disk and indexed by the cell ID and the
//! root (of the sub-tree) SID. During query processing, we load the partial
//! signatures p only if the node encoded within p is requested."
//!
//! Each partial signature occupies one page of a dedicated pager (charged to
//! [`IoCategory::SignaturePage`]); the directory mapping
//! `(cell id, reference SID) → page` is a [`BPlusTree`] charged to
//! [`IoCategory::BptreePage`], its internal pages pinned. Every per-cell
//! read of the directory is one range scan yielding `(reference SID,
//! locator)` in key order; a partial is then loaded straight from its
//! locator, one signature-page read, with no second descent — by the
//! in-place maintenance path as by a cursor.
//!
//! Every record read back is decoded into rows of a [`NodeTable`], the one
//! in-memory form of a signature's bits ([`crate::encode::decode_record`],
//! which runs the codec's one bit decoder inlined): a cursor's, a scrub's
//! one reused scratch table, [`SignatureStore::load_full`]'s (its rows then
//! put in SID order) and in-place maintenance's, which flips bits in the
//! rows and encodes the records again from them. No node is allocated.
//!
//! Three files, one contract each: this one owns the directory, the page
//! framing, the writes, the loads and in-place maintenance; `cursor.rs` the
//! paper's retrieval rule over one cell, loading partials on demand
//! ([`SignatureCursor`]); `probe.rs` the pruner the query kernel asks
//! ([`BooleanProbe`]).

use std::collections::{HashMap, HashSet};

use pcube_bptree::{composite_key, split_key, BPlusTree};
use pcube_rtree::{Path, Sid};
use pcube_storage::{read_u32, write_u32, IoCategory, PageId, PageOp, Pager, StorageError};

use crate::encode::{decode_record, encode_record, for_each_partial};
use crate::signature::{NodeTable, Signature};

mod cursor;
mod probe;

pub use cursor::SignatureCursor;
pub use probe::BooleanProbe;

const RECORD_HEADER: usize = 4; // per-partial payload length u32

/// A partial signature read back from its page: its nodes' SIDs and bit
/// lengths in record order, and their rows (row `k` holds node `k`).
pub type LoadedPartial = (Vec<(Sid, usize)>, NodeTable);

/// Disk-resident store of compressed, decomposed signatures for many cells.
///
/// Partial signatures of one cell are packed contiguously: several small
/// partials may share a page (each is still no larger than a page, as the
/// decomposition guarantees). The directory value encodes `(page, offset)`
/// so a partial load is exactly one signature-page read.
///
/// `Clone` is a deep copy (cloned pagers sharing the I/O ledger, directory
/// clone with a cold pin cache) — the building block of epoch snapshots.
#[derive(Clone)]
pub struct SignatureStore {
    pager: Pager,
    directory: BPlusTree,
    m_max: usize,
    height: usize,
    payload_limit: usize,
}

impl SignatureStore {
    /// Creates an empty store.
    ///
    /// `sig_pager` holds partial-signature pages (category
    /// [`IoCategory::SignaturePage`]); `dir_pager` backs the directory
    /// B+-tree. `m_max`/`height` are the R-tree fanout and height the
    /// signatures were generated over.
    pub fn new(sig_pager: Pager, dir_pager: Pager, m_max: usize, height: usize) -> Self {
        assert_eq!(
            sig_pager.category(),
            IoCategory::SignaturePage,
            "signature pages must be charged to the SignaturePage category"
        );
        SignatureStore::from_parts(sig_pager, BPlusTree::new(dir_pager), m_max, height)
    }

    /// Borrowed view of the parts (for serialization without consuming).
    pub fn parts_ref(&self) -> (&Pager, &BPlusTree, usize, usize) {
        (&self.pager, &self.directory, self.m_max, self.height)
    }

    /// Re-opens a store from deserialized parts.
    pub fn from_parts(pager: Pager, directory: BPlusTree, m_max: usize, height: usize) -> Self {
        let payload_limit = pager.page_size() - RECORD_HEADER;
        SignatureStore { pager, directory, m_max, height, payload_limit }
    }

    /// The R-tree fanout signatures are sized for.
    pub fn m_max(&self) -> usize {
        self.m_max
    }

    /// The R-tree height used for decomposition and intersection.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Updates the height (after R-tree growth during maintenance).
    pub fn set_height(&mut self, height: usize) {
        self.height = height;
    }

    /// Total bytes of live signature pages plus the directory.
    pub fn size_bytes(&self) -> u64 {
        self.pager.size_bytes() + self.directory.pager().size_bytes()
    }

    /// Number of stored partial signatures.
    pub fn partial_count(&self) -> u64 {
        self.directory.len()
    }

    /// The shared I/O ledger the signature pager charges to.
    pub fn stats(&self) -> &pcube_storage::SharedStats {
        self.pager.stats()
    }

    /// Mutable access to the signature pager (chaos-testing hook: install a
    /// [`pcube_storage::FaultPlan`], enable checksums, or corrupt pages).
    pub fn sig_pager_mut(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Mutable access to the directory pager (chaos-testing hook).
    pub fn dir_pager_mut(&mut self) -> &mut Pager {
        self.directory.pager_mut()
    }

    fn dir_key(cell: u32, sid: Sid) -> u64 {
        let sid32 = u32::try_from(sid.0)
            .expect("partial-root SID exceeds u32 — tree too deep for the directory key layout");
        composite_key(cell, sid32)
    }

    fn locator(page: PageId, offset: usize) -> u64 {
        (u64::from(page.0) << 32) | offset as u64
    }

    fn unpack_locator(loc: u64) -> (PageId, usize) {
        (PageId((loc >> 32) as u32), (loc & 0xFFFF_FFFF) as usize)
    }

    /// Writes (or replaces) the signature of `cell`, packing its partials
    /// contiguously across as few pages as possible. Each node is encoded
    /// once, by the decomposition walk, into the record that lands on the
    /// page.
    pub fn write_signature(&mut self, cell: u32, sig: &Signature) {
        assert_eq!(sig.m_max(), self.m_max, "fanout mismatch");
        self.delete_signature(cell);
        let mut packer = RecordPacker::new(self.pager.page_size());
        for_each_partial(sig, self.height, self.payload_limit, |root_sid, record| {
            self.pack_record(&mut packer, cell, root_sid, record);
        });
        self.flush_packer(&mut packer);
    }

    /// Appends `record` as the partial `(cell, root_sid)`: onto the packer's
    /// open page if it fits there, otherwise onto a freshly allocated page
    /// (the full one is written out first). The reference must be new to
    /// the directory.
    fn pack_record(&mut self, packer: &mut RecordPacker, cell: u32, root_sid: Sid, record: &[u8]) {
        assert!(record.len() <= self.payload_limit, "partial exceeds page payload");
        if packer.pid.is_none() || packer.used + RECORD_HEADER + record.len() > packer.page.len() {
            self.flush_packer(packer);
            packer.page.fill(0);
            packer.used = 0;
            packer.pid = Some(self.pager.allocate());
        }
        let pid = packer.pid.expect("a page was opened above");
        let old = self.directory.insert(Self::dir_key(cell, root_sid), Self::locator(pid, packer.used));
        assert!(old.is_none(), "duplicate partial reference for cell {cell}");
        packer.used = put_record(&mut packer.page, packer.used, record);
    }

    /// Writes the packer's open page, if any.
    fn flush_packer(&mut self, packer: &mut RecordPacker) {
        if let Some(pid) = packer.pid.take() {
            self.pager.write(pid, &packer.page);
        }
    }

    /// Removes all partials of `cell` (no-op if absent).
    pub fn delete_signature(&mut self, cell: u32) {
        let mut freed = HashSet::new();
        for (r, loc) in self.refs(cell).unwrap_or_else(|e| panic!("{e}")) {
            self.directory.remove(Self::dir_key(cell, r));
            let (page, _) = Self::unpack_locator(loc);
            if freed.insert(page) {
                self.pager.free(page);
            }
        }
    }

    /// Loads one partial by its reference SID, charging one signature-page
    /// read (plus the directory descent), decoded into a fresh table. `None`
    /// if no such partial.
    ///
    /// Infallible [`SignatureStore::try_load_partial`]; panics where that
    /// errors.
    #[inline]
    pub fn load_partial(&self, cell: u32, ref_sid: Sid) -> Option<LoadedPartial> {
        self.try_load_partial(cell, ref_sid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SignatureStore::load_partial`]: surfaces directory-descent
    /// failures, unreadable signature pages and undecodable records.
    pub fn try_load_partial(
        &self,
        cell: u32,
        ref_sid: Sid,
    ) -> Result<Option<LoadedPartial>, StorageError> {
        let Some(loc) = self.directory.try_get(Self::dir_key(cell, ref_sid))? else {
            return Ok(None);
        };
        let (mut nodes, mut table) = (Vec::new(), NodeTable::new(self.m_max));
        self.try_decode_at(loc, &mut table, &mut nodes)?;
        Ok(Some((nodes, table)))
    }

    /// Reads the record at `loc` (one signature-page read) and decodes it
    /// into new rows of `table`, its nodes appended to `nodes`
    /// ([`decode_record`]); returns its root SID. The record bounds are
    /// validated first ([`record_at`]), so a corrupt locator or length field
    /// yields a typed error instead of a slice panic, and a record the
    /// decoder refuses is [`StorageError::Malformed`]. On an error, what was
    /// appended stays: the caller cuts it off.
    fn try_decode_at(
        &self,
        loc: u64,
        table: &mut NodeTable,
        nodes: &mut Vec<(Sid, usize)>,
    ) -> Result<Sid, StorageError> {
        let (pid, offset) = Self::unpack_locator(loc);
        let page = self.pager.try_read(pid)?;
        let record = record_at(page, offset).map_err(|what| self.malformed(pid, what))?;
        // A record read back is not trusted: the decoder refuses a node count
        // the record cannot hold and a node wider than the fanout before it
        // sizes anything from them.
        decode_record(record, self.m_max, table, nodes)
            .ok_or_else(|| self.malformed(pid, "undecodable partial signature"))
    }

    /// A structural failure on a signature page: the bytes read back fine
    /// but cannot be a partial-signature record. Deterministic, so the page
    /// is quarantined — later probes get the memoized error in O(1) instead
    /// of re-reading and re-failing.
    fn malformed(&self, pid: PageId, what: &'static str) -> StorageError {
        let err = StorageError::Malformed { pid, what };
        self.pager.quarantine(pid, err.clone());
        err
    }

    /// The `(reference SID, locator)` pairs of `cell` in key order, via one
    /// directory range scan — the store's one per-cell read of the
    /// directory. A cell's entries are contiguous in key space, so this
    /// typically costs one leaf page below the pinned levels.
    #[inline]
    fn refs(&self, cell: u32) -> Result<impl Iterator<Item = (Sid, u64)>, StorageError> {
        Ok(self
            .directory
            .try_range_collect(composite_key(cell, 0)..=composite_key(cell, u32::MAX))?
            .into_iter()
            .map(|(k, loc)| (Sid(u64::from(split_key(k).1)), loc)))
    }

    /// Verifies every partial signature of `cell` end to end: the directory
    /// scan, each signature-page read (CRC-checked when checksums are on)
    /// and each record decode, into one scratch table reused record by
    /// record. Returns the number of partials verified.
    ///
    /// The first failure aborts the walk with its typed error; deterministic
    /// failures (corrupt or malformed pages) land the page in the pager's
    /// quarantine as a side effect, which is exactly what the scrubber is
    /// after.
    pub fn verify_cell(&self, cell: u32) -> Result<u64, StorageError> {
        let (mut table, mut nodes, mut verified) = (NodeTable::new(self.m_max), Vec::new(), 0u64);
        for (_, loc) in self.refs(cell)? {
            table.truncate(0);
            nodes.clear();
            self.try_decode_at(loc, &mut table, &mut nodes)?;
            verified += 1;
        }
        Ok(verified)
    }

    /// The cells having at least one partial stored on any page in `pages`,
    /// ascending and deduplicated — the blast radius of a set of bad pages,
    /// and therefore the rebuild set for repair. Costs one full directory
    /// scan; touches no signature pages.
    pub fn cells_on_pages(&self, pages: &HashSet<u32>) -> Result<Vec<u32>, StorageError> {
        let mut cells: Vec<u32> = self
            .directory
            .try_range_collect(..)?
            .into_iter()
            .filter(|(_, loc)| pages.contains(&((loc >> 32) as u32)))
            .map(|(key, _)| split_key(key).0)
            .collect();
        cells.dedup();
        Ok(cells)
    }

    /// Loads and reassembles the complete signature of `cell` (used by
    /// maintenance; a probe loads through its cursors). Charges one read
    /// per partial plus the directory scan.
    ///
    /// Infallible [`SignatureStore::try_load_full`]; panics where that
    /// errors.
    #[inline]
    pub fn load_full(&self, cell: u32) -> Signature {
        self.try_load_full(cell).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SignatureStore::load_full`]: any unreadable page or
    /// undecodable record along the way aborts the assembly with the error.
    /// Every record is decoded into one table, whose rows are then put in
    /// SID order.
    pub fn try_load_full(&self, cell: u32) -> Result<Signature, StorageError> {
        let (mut table, mut nodes) = (NodeTable::new(self.m_max), Vec::new());
        for (_, loc) in self.refs(cell)? {
            self.try_decode_at(loc, &mut table, &mut nodes)?;
        }
        let sids: Vec<Sid> = nodes.iter().map(|&(sid, _)| sid).collect();
        Ok(Signature::from_rows(self.m_max, &sids, &table))
    }

    /// The paper's in-place maintenance fast path for pure insertions
    /// (§IV-B.3): "we then load those partial signatures containing the
    /// path, and flip the corresponding entries from 0 to 1."
    ///
    /// Flips the bits along every path in `sets` inside the partials that
    /// already encode the touched nodes — each decoded at most once into
    /// rows of one table, straight from the locator the cell's one directory
    /// scan returned, its bits flipped in those rows and its record encoded
    /// again from them (at the fanout's length, the one every record is
    /// written at); nodes the cell never reached before get rows of their
    /// own and are appended as fresh partials (referenced by the first new
    /// node on the path, so the cursor's root-then-deeper retrieval rule
    /// still finds them). Returns `false` — leaving the store
    /// completely untouched — if the edit cannot be done in place (a
    /// rewritten page would overflow, or the cell has no signature yet);
    /// callers then fall back to [`SignatureStore::write_signature`]. A
    /// partial that fails to load, or an untouched record beside a patched
    /// one whose framing does not fit its page, panics with the storage
    /// error, as [`SignatureStore::load_full`] does.
    pub fn apply_sets_in_place(&mut self, cell: u32, sets: &[Path]) -> bool {
        if sets.is_empty() {
            return true;
        }
        // The locator of every existing partial of the cell, in key order.
        let locators: Vec<(Sid, u64)> = self.refs(cell).unwrap_or_else(|e| panic!("{e}")).collect();
        if locators.is_empty() {
            return false;
        }
        let locator = |r: &Sid| locators.binary_search_by_key(r, |&(s, _)| s).ok().map(|i| locators[i].1);
        let m_max = self.m_max;
        // The rows of every node loaded or added, row `k` holding `nodes[k]`.
        let (mut table, mut nodes) = (NodeTable::new(m_max), Vec::new());
        // Partials loaded so far by reference — (root SID, first row, row
        // count) — plus which got modified.
        let mut loaded: HashMap<Sid, (Sid, usize, usize)> = HashMap::new();
        let mut modified: HashSet<Sid> = HashSet::new();
        // Brand-new nodes created by this batch, (SID, row) in creation
        // order, and each one's row by SID.
        let mut added: Vec<(Sid, usize)> = Vec::new();
        let mut added_at: HashMap<Sid, usize> = HashMap::new();

        for path in sets {
            for level in 0..path.depth() {
                let node_sid = path.prefix_sid(level, m_max);
                let pos = path.0[level] as usize - 1;
                if let Some(&row) = added_at.get(&node_sid) {
                    table.set(row, pos, true);
                    continue;
                }
                // The partial encoding this node, by the retrieval rule.
                let mut found = None;
                for r in (0..=level).map(|l| path.prefix_sid(l, m_max)) {
                    let Some(loc) = locator(&r) else { continue };
                    let &mut (_, first, count) = loaded.entry(r).or_insert_with(|| {
                        let first = table.len();
                        let root = self.try_decode_at(loc, &mut table, &mut nodes);
                        (root.unwrap_or_else(|e| panic!("{e}")), first, table.len() - first)
                    });
                    if let Some(k) = nodes[first..][..count].iter().position(|&(s, _)| s == node_sid) {
                        found = Some((r, first + k));
                        break;
                    }
                }
                match found {
                    Some((r, row)) => {
                        table.set(row, pos, true);
                        modified.insert(r);
                    }
                    None => {
                        // New node for this cell.
                        let row = table.push_zeroed(1);
                        table.set(row, pos, true);
                        nodes.push((node_sid, m_max));
                        added_at.insert(node_sid, row);
                        added.push((node_sid, row));
                    }
                }
            }
        }
        // Re-encode every page that hosts a modified partial, its records in
        // their original order, and verify it still fits BEFORE touching the
        // store.
        let mut records: HashMap<PageId, Vec<(usize, Sid)>> = HashMap::new();
        for &(r, loc) in &locators {
            let (pid, off) = Self::unpack_locator(loc);
            records.entry(pid).or_default().push((off, r));
        }
        // (page, new contents, (ref, new offset) of every record that moved)
        type PageRewrite = (PageId, Vec<u8>, Vec<(Sid, usize)>);
        let mut page_rewrites: Vec<PageRewrite> = Vec::new();
        let affected: HashSet<PageId> = modified
            .iter()
            .map(|r| Self::unpack_locator(locator(r).expect("a modified partial was loaded by its locator")).0)
            .collect();
        for pid in affected {
            let mut on_page = records.remove(&pid).unwrap_or_default();
            on_page.sort_unstable();
            let mut page = vec![0u8; self.pager.page_size()];
            let mut used = 0usize;
            let mut moved = Vec::new();
            for (off, r) in on_page {
                let bytes = if modified.contains(&r) {
                    let (root_sid, first, count) = loaded[&r];
                    let rows = (first..first + count).map(|k| (nodes[k].0, table.row(k)));
                    encode_record(root_sid, rows, m_max)
                } else {
                    // Copy the untouched record verbatim.
                    let old = self.pager.page_bytes(pid).unwrap_or_else(|| {
                        panic!("{}", StorageError::DeadPage { pid, op: PageOp::Read })
                    });
                    record_at(old, off).unwrap_or_else(|what| panic!("{}", self.malformed(pid, what))).to_vec()
                };
                if used + RECORD_HEADER + bytes.len() > page.len() {
                    return false; // would overflow: fall back to full rewrite
                }
                if off != used {
                    moved.push((r, used));
                }
                used = put_record(&mut page, used, &bytes);
            }
            page_rewrites.push((pid, page, moved));
        }

        // Group new nodes into chain partials headed by the shallowest new
        // node on each path, and verify each fits a page.
        let mut new_records: Vec<(Sid, Vec<u8>)> = Vec::new();
        let mut claimed: HashSet<Sid> = HashSet::new();
        for &(head, _) in &added {
            if claimed.contains(&head) {
                continue;
            }
            let head_path = Path::from_sid(head, m_max);
            // BFS order over this batch's new nodes under `head`.
            let mut members: Vec<(usize, Sid, usize)> = added
                .iter()
                .filter(|(s, _)| !claimed.contains(s))
                .map(|&(s, row)| (Path::from_sid(s, m_max), s, row))
                .filter(|(p, ..)| head_path.is_prefix_of(p))
                .map(|(p, s, row)| (p.depth(), s, row))
                .collect();
            members.sort_by_key(|&(depth, ..)| depth);
            claimed.extend(members.iter().map(|&(_, s, _)| s));
            let rows = members.iter().map(|&(_, s, row)| (s, table.row(row)));
            let record = encode_record(head, rows, m_max);
            if record.len() > self.payload_limit || u32::try_from(head.0).is_err() {
                return false;
            }
            new_records.push((head, record));
        }

        // All feasible: commit. 1) rewrite pages + fix shifted offsets.
        for (pid, page, moved) in page_rewrites {
            self.pager.write(pid, &page);
            for (r, off) in moved {
                self.directory.insert(Self::dir_key(cell, r), Self::locator(pid, off));
            }
        }
        // 2) append new partials, packed onto fresh pages.
        let mut packer = RecordPacker::new(self.pager.page_size());
        for (head, record) in &new_records {
            self.pack_record(&mut packer, cell, *head, record);
        }
        self.flush_packer(&mut packer);
        true
    }

    /// All reference SIDs stored for `cell` (test/diagnostic helper).
    pub fn partial_refs(&self, cell: u32) -> Vec<Sid> {
        self.refs(cell).unwrap_or_else(|e| panic!("{e}")).map(|(r, _)| r).collect()
    }
}

/// The page being filled with records: several partials share a page, each
/// record `[len u32][bytes]` behind the previous one.
struct RecordPacker {
    page: Vec<u8>,
    used: usize,
    /// The page the buffer will be written to; `None` until a record arrives.
    pid: Option<PageId>,
}

impl RecordPacker {
    fn new(page_size: usize) -> Self {
        RecordPacker { page: vec![0u8; page_size], used: 0, pid: None }
    }
}

/// Writes `[len u32][record]` at offset `used` of `page`; returns the offset
/// behind it.
fn put_record(page: &mut [u8], used: usize, record: &[u8]) -> usize {
    write_u32(page, used, record.len() as u32);
    let end = used + RECORD_HEADER + record.len();
    page[used + RECORD_HEADER..end].copy_from_slice(record);
    end
}

/// The record at `offset` of `page`, read back through its `[len u32]`
/// header: the one parser of the page framing [`put_record`] writes. A
/// header or a length that does not fit the page is refused with what is
/// wrong, before anything is sliced.
fn record_at(page: &[u8], offset: usize) -> Result<&[u8], &'static str> {
    if offset + RECORD_HEADER > page.len() {
        return Err("partial-signature locator points outside the page");
    }
    let len = read_u32(page, offset) as usize;
    if len > page.len() - offset - RECORD_HEADER {
        return Err("partial-signature length exceeds the page");
    }
    Ok(&page[offset + RECORD_HEADER..][..len])
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pcube_storage::{IoStats, SharedStats, PAGE_SIZE};

    /// An empty store for a fanout-2, height-3 tree.
    pub(super) fn store_with(page_size: usize) -> (SignatureStore, SharedStats) {
        store_for(2, 3, page_size)
    }

    /// An empty store for a tree of fanout `m_max` and `height`.
    pub(super) fn store_for(m_max: usize, height: usize, page_size: usize) -> (SignatureStore, SharedStats) {
        let stats = IoStats::new_shared();
        let sig_pager = Pager::new(page_size, IoCategory::SignaturePage, stats.clone());
        let dir_pager = Pager::new(PAGE_SIZE, IoCategory::BptreePage, stats.clone());
        (SignatureStore::new(sig_pager, dir_pager, m_max, height), stats)
    }

    /// The signature of cell a1 in the paper's example: tuples t1 and t3.
    pub(super) fn a1_signature() -> Signature {
        Signature::from_paths(2, [Path(vec![1, 1, 1]), Path(vec![1, 2, 1])].iter())
    }

    /// Every node path of a complete tree of fanout `m_max` and `height`,
    /// in pre-order (root, then each subtree left to right).
    pub(super) fn node_paths(m_max: usize, height: usize) -> Vec<Path> {
        node_paths_over(&(1..=m_max as u16).collect::<Vec<_>>(), height)
    }

    /// Every node path of `height` levels whose positions are all in
    /// `slots`, in pre-order.
    pub(super) fn node_paths_over(slots: &[u16], height: usize) -> Vec<Path> {
        let mut paths = Vec::new();
        let mut stack = vec![Path::root()];
        while let Some(node) = stack.pop() {
            if node.depth() + 1 < height {
                stack.extend(slots.iter().rev().map(|&pos| node.child(pos)));
            }
            paths.push(node);
        }
        paths
    }

    /// The paths at `depth` of a complete fanout-2 tree, in lexicographic
    /// order.
    pub(super) fn paths_at(depth: usize) -> Vec<Path> {
        node_paths(2, depth + 1).into_iter().filter(|p| p.depth() == depth).collect()
    }

    /// Corrupts every `n`-th signature page of `store` under checksums;
    /// none at 0.
    pub(super) fn corrupt_pages(store: &mut SignatureStore, n: usize) {
        if n > 0 {
            let pager = store.sig_pager_mut();
            pager.set_checksums(true);
            for pid in pager.live_page_ids().into_iter().step_by(n) {
                pager.corrupt_page(pid, 2, 0x40).unwrap();
            }
        }
    }

    #[test]
    fn write_then_load_full_roundtrips() {
        let (mut store, _) = store_with(PAGE_SIZE);
        let sig = a1_signature();
        store.write_signature(7, &sig);
        assert_eq!(store.load_full(7), sig);
        assert!(store.load_full(8).is_empty(), "unknown cell is empty");
        // Fanout 70: two-word rows, tuples in both words, over pages that
        // split the cell into several partials.
        let (mut store, _) = store_for(70, 3, 48);
        let paths: Vec<Path> = [[1, 1, 1], [1, 70, 2], [70, 65, 70], [2, 3, 69]]
            .iter()
            .map(|p| Path(p.to_vec()))
            .collect();
        let sig = Signature::from_paths(70, paths.iter());
        store.write_signature(7, &sig);
        assert!(store.partial_count() > 1, "the cell spans several partials");
        assert_eq!(store.load_full(7), sig);
    }

    #[test]
    fn rewrite_replaces_old_partials() {
        let (mut store, _) = store_with(PAGE_SIZE);
        store.write_signature(1, &a1_signature());
        let sig2 = Signature::from_paths(2, [Path(vec![2, 2, 2])].iter());
        store.write_signature(1, &sig2);
        assert_eq!(store.load_full(1), sig2);
        assert_eq!(store.partial_count(), 1);
    }

    #[test]
    fn in_place_sets_match_full_rewrite() {
        // Apply the same insertions via the fast path and via rewrite; the
        // stored signatures must be identical, across page sizes that force
        // different decomposition shapes.
        for page in [24usize, 48, 4096] {
            let (mut fast, _) = store_with(page);
            let (mut slow, _) = store_with(page);
            let base = a1_signature();
            fast.write_signature(1, &base);
            slow.write_signature(1, &base);
            let new_paths = vec![
                Path(vec![1, 1, 2]), // flips bits in existing nodes only
                Path(vec![2, 2, 1]), // creates a brand-new chain under <2>
                Path(vec![2, 2, 2]), // extends that new chain
            ];
            let ok = fast.apply_sets_in_place(1, &new_paths);
            let mut sig = slow.load_full(1);
            for p in &new_paths {
                sig.set_path(p);
            }
            slow.write_signature(1, &sig);
            if ok {
                assert_eq!(fast.load_full(1), slow.load_full(1), "page {page}");
            } // else: fast path declined and left the store untouched
            if !ok {
                assert_eq!(fast.load_full(1), base, "failed fast path must not mutate");
            }
        }
    }

    /// Every live page of the store, signature pages and directory, by id.
    fn page_image(store: &SignatureStore) -> Vec<(PageId, Vec<u8>)> {
        let (sig_pager, directory, _, _) = store.parts_ref();
        [sig_pager, directory.pager()]
            .into_iter()
            .flat_map(|p| p.live_page_ids().into_iter().map(move |pid| (pid, p.page_bytes(pid).unwrap().to_vec())))
            .collect()
    }

    #[test]
    fn an_in_place_patch_reads_the_directory_once() {
        // 512 B signature pages split the cell into many partials.
        let (m_max, height) = (32, 3);
        let (mut store, stats) = store_for(m_max, height, 512);
        let paths: Vec<Path> =
            (1..=32u16).flat_map(|a| (1..=32u16).map(move |b| Path(vec![a, b, a * b % 32 + 1]))).collect();
        store.write_signature(5, &Signature::from_paths(m_max, paths.iter()));
        let refs = store.partial_refs(5);
        assert!(refs.len() >= 4, "the cell must span several partials");
        assert!(refs.windows(2).all(|w| w[0] < w[1]), "references come in key order");
        let before = page_image(&store);
        // One per-cell directory scan, under the pin cache the scans above warmed.
        stats.reset();
        store.partial_refs(5);
        let one_scan = stats.reads(IoCategory::BptreePage);
        // Paths the cell already holds: every bit is set, so no record moves
        // and no directory entry is written.
        let held: Vec<Path> = paths.iter().step_by(37).cloned().collect();
        stats.reset();
        assert!(store.apply_sets_in_place(5, &held));
        assert!(stats.reads(IoCategory::SignaturePage) >= 2, "several partials are loaded");
        assert_eq!(stats.reads(IoCategory::BptreePage), one_scan, "each partial is loaded by its locator");
        assert_eq!(page_image(&store), before);
    }

    #[test]
    fn in_place_set_on_missing_cell_declines() {
        let (mut store, _) = store_with(4096);
        assert!(!store.apply_sets_in_place(9, &[Path(vec![1, 1, 1])]));
    }

    #[test]
    fn in_place_new_nodes_are_found_by_cursor() {
        let (mut store, _) = store_with(32); // tiny pages: several partials
        store.write_signature(2, &a1_signature());
        let fresh = Path(vec![2, 1, 1]);
        assert!(store.apply_sets_in_place(2, std::slice::from_ref(&fresh)));
        let mut cursor = store.cursor(2);
        assert!(cursor.contains(&fresh));
        assert!(cursor.contains(&Path(vec![1, 1, 1])), "old contents intact");
        assert!(!cursor.contains(&Path(vec![2, 1, 2])));
    }

    #[test]
    #[should_panic(expected = "partial-signature length exceeds the page")]
    fn an_in_place_patch_refuses_a_neighbour_longer_than_its_page() {
        // 32 B pages: the partials referenced by <1> and <2> share page 1.
        let (mut store, _) = store_with(32);
        let paths = [[1, 1, 1], [1, 2, 1], [2, 1, 2], [2, 2, 1]].map(|p| Path(p.to_vec()));
        store.write_signature(4, &Signature::from_paths(2, paths.iter()));
        let layout: Vec<(Sid, (PageId, usize))> =
            store.refs(4).unwrap().map(|(r, loc)| (r, SignatureStore::unpack_locator(loc))).collect();
        assert_eq!(layout, [(Sid(0), (PageId(0), 0)), (Sid(1), (PageId(1), 0)), (Sid(2), (PageId(1), 12))]);
        // Unchecked rot in the high byte of <2>'s length field. Patching
        // <1, 2, 1> loads the partials of the root and <1> only, and copies
        // <2>'s record, which no load has read.
        store.sig_pager_mut().corrupt_page(PageId(1), 12 + 3, 0x80).unwrap();
        store.apply_sets_in_place(4, &[Path(vec![1, 2, 1])]);
    }

    #[test]
    fn try_load_full_surfaces_corruption_as_errors() {
        let (mut store, _) = store_with(PAGE_SIZE);
        store.write_signature(7, &a1_signature());
        store.sig_pager_mut().set_checksums(true);
        let pids = store.sig_pager_mut().live_page_ids();
        for pid in pids {
            store.sig_pager_mut().corrupt_page(pid, 9, 0x01).unwrap();
        }
        assert!(matches!(
            store.try_load_full(7),
            Err(pcube_storage::StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn directory_and_page_io_are_charged() {
        let (mut store, stats) = store_with(PAGE_SIZE);
        store.write_signature(9, &a1_signature());
        stats.reset();
        let _ = store.load_full(9);
        assert!(stats.reads(IoCategory::SignaturePage) >= 1);
        assert!(stats.reads(IoCategory::BptreePage) >= 1);
    }
}
