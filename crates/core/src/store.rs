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
//! in-place maintenance path as by a cursor. A [`SignatureCursor`] loads
//! partials on demand following the paper's rule: to resolve a node, try the
//! partial referenced by the root, then by the first-level ancestor on the
//! node's path, then the second level, and so on.
//!
//! Every record read back is decoded into rows of a [`NodeTable`], the one
//! in-memory form of a signature's bits ([`crate::encode::decode_record`],
//! which runs the codec's one bit decoder inlined): a cursor's, a scrub's
//! one reused scratch table, [`SignatureStore::load_full`]'s (its rows then
//! put in SID order) and in-place maintenance's, which flips bits in the
//! rows and encodes the records again from them. No node is allocated.
//!
//! A cursor is plain data: one node table holding one row of ⌈M/64⌉ words
//! per loaded node, a map from node SID to row, the cell's locators as one
//! sorted vector and one "tried" bit per locator. The SID map is sized once
//! per cursor, when its first record decodes: that record's node count
//! times the cell's locator count. A record that fails to decode at any
//! node adds none of its nodes — the table is cut back to where it stood —
//! and the cursor degrades.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use pcube_bptree::{composite_key, split_key, BPlusTree};
use pcube_cube::Selection;
use pcube_rtree::{Path, Sid, SidBuildHasher};
use pcube_storage::{read_u32, write_u32, Counter, IoCategory, PageId, PageOp, Pager, StorageError};

use crate::encode::{decode_record, encode_record, for_each_partial};
use crate::pcube::PCubeDb;
use crate::query::{BooleanPruner, Candidate, VerifyAllPruner};
use crate::signature::{walk_path, NodeTable, Signature};

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
    /// validated first, so a corrupt locator or length field yields a typed
    /// error instead of a slice panic, and a record the decoder refuses is
    /// [`StorageError::Malformed`]. On an error, what was appended stays:
    /// the caller cuts it off.
    fn try_decode_at(
        &self,
        loc: u64,
        table: &mut NodeTable,
        nodes: &mut Vec<(Sid, usize)>,
    ) -> Result<Sid, StorageError> {
        let (pid, offset) = Self::unpack_locator(loc);
        let page = self.pager.try_read(pid)?;
        if offset + RECORD_HEADER > page.len() {
            return Err(self.malformed(pid, "partial-signature locator points outside the page"));
        }
        let len = read_u32(page, offset) as usize;
        if len > page.len() - offset - RECORD_HEADER {
            return Err(self.malformed(pid, "partial-signature length exceeds the page"));
        }
        // A record read back is not trusted: the decoder refuses a node count
        // the record cannot hold and a node wider than the fanout before it
        // sizes anything from them.
        let record = &page[offset + RECORD_HEADER..offset + RECORD_HEADER + len];
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
    /// partial that fails to load panics with the storage error, as
    /// [`SignatureStore::load_full`] does.
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
                    let len = read_u32(old, off) as usize;
                    old[off + RECORD_HEADER..off + RECORD_HEADER + len].to_vec()
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

    /// Opens a lazily-loading cursor over `cell`'s signature.
    pub fn cursor(&self, cell: u32) -> SignatureCursor<'_> {
        let mut table = NodeTable::new(self.m_max);
        table.push_zeroed(2);
        table.row_mut(ONES as usize).fill(u64::MAX);
        SignatureCursor {
            store: self,
            cell,
            table,
            rows: HashMap::default(),
            pending: Vec::new(),
            locators: None,
            tried: Vec::new(),
            partials_loaded: 0,
            load_seconds: 0.0,
            degraded: false,
            mask: ZEROS,
        }
    }

    /// A cursor over nothing — the signature of a value the data never
    /// held. It has no locators to fetch, so it reads no page, and below
    /// the root it contains nothing.
    pub(crate) fn empty_cursor(&self) -> SignatureCursor<'_> {
        SignatureCursor { locators: Some(Vec::new()), ..self.cursor(u32::MAX) }
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

/// Row of every cursor's table that is all zeros: the bits of a node the
/// cell has no data under.
const ZEROS: u32 = 0;
/// Row that is all ones: the bits of a node a degraded cursor holds none
/// for — they may have been lost rather than absent, so nothing is pruned.
const ONES: u32 = 1;

/// Lazily materializes one cell's signature during query processing,
/// loading a partial only when a node it encodes is first requested — or
/// all of them up front, for an eager probe.
///
/// Plain data, allocated once per cursor and grown, never per node: the
/// bits of every loaded node are one row of ⌈M/64⌉ words in one
/// [`NodeTable`], found through a SID → row map sized for the whole cell by
/// the first record loaded. Rows `ZEROS` and `ONES`
/// come first and stand in for a node with no bits, so a bit test, a word
/// of an AND and a child mask are all a row index. A partial is decoded
/// word-level straight into the table; if it fails at any node, the table
/// is cut back to where it stood and none of its nodes gets a row.
///
/// A storage failure (unreadable page, checksum mismatch, undecodable
/// record) does not abort the query: the cursor marks itself *degraded* and
/// thereafter refuses to prune any node it has no loaded bits for. Queries
/// stay correct — they just traverse more of the R-tree — and every result
/// candidate must be re-verified against the base table (the probe reports
/// itself lossy). Each failure is tallied on [`pcube_storage::IoStats`] as a
/// degraded read.
pub struct SignatureCursor<'a> {
    store: &'a SignatureStore,
    cell: u32,
    /// Rows [`ZEROS`] and [`ONES`], then one row per loaded node, in load
    /// order.
    table: NodeTable,
    /// The row of every loaded node, by SID.
    rows: HashMap<Sid, u32, SidBuildHasher>,
    /// The SIDs (and bit lengths) of the record being loaded, in row order:
    /// given rows only once the whole record has decoded.
    pending: Vec<(Sid, usize)>,
    /// `(reference SID, locator)` in key order, fetched with one directory
    /// range scan on first use (a cell's directory entries are contiguous)
    /// and searched by binary search.
    locators: Option<Vec<(Sid, u64)>>,
    /// One bit per locator: its partial has been tried.
    tried: Vec<u64>,
    partials_loaded: u64,
    /// Seconds spent in [`Self::load_node`], the one place a cursor touches
    /// a page.
    load_seconds: f64,
    degraded: bool,
    /// This conjunct's child mask of the node under expansion: the node's
    /// row.
    mask: u32,
}

impl SignatureCursor<'_> {
    /// Number of partial signatures loaded so far (the `SSig` metric).
    pub fn partials_loaded(&self) -> u64 {
        self.partials_loaded
    }

    /// `true` if a partial failed to load and the cursor fell back to
    /// conservative (prune-nothing-unknown) answers.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn mark_degraded(&mut self) {
        self.degraded = true;
        self.store.pager.stats().add(Counter::DegradedReads, 1);
    }

    /// Bit `slot` of the child mask.
    #[inline]
    fn mask_bit(&self, slot: usize) -> bool {
        self.table.bit(self.mask as usize, slot)
    }

    /// `true` if the subtree/tuple at `path` contains data of this cell —
    /// the boolean-prune test of Algorithm 1. Loads partials on demand.
    ///
    /// This is the full root-to-`path` walk (`walk_path`, one node lookup
    /// per level). The probe pays it once per *popped* entry — the root
    /// seed, entries restored from a `b_list`/`d_list`, and entries the
    /// search pushed itself — and never per child of an expanded node:
    /// those are tested against the node's own row, looked up once per
    /// expansion.
    ///
    /// On a degraded cursor the answer may be a false positive (a node whose
    /// bits were lost is never pruned), but it is never a false negative:
    /// an explicit 0 bit from a successfully loaded partial is still trusted.
    pub fn contains(&mut self, path: &Path) -> bool {
        walk_path(path, self.store.m_max, |level, sid, pos| self.node_bit(path, level, sid, pos))
    }

    /// Makes the row of the node `sid` at `depth` the child mask, loading
    /// its bits by the retrieval rule first if need be: one node lookup per
    /// expansion. Bit `slot` of the mask then answers `contains` of the
    /// child in `slot` for a node that itself passed [`Self::contains`] —
    /// the probe's case: it expands what it kept. The ancestors' bits are
    /// then known to be set (or lost to a fault, in which case the walk
    /// would keep the child too), so the last level decides alone.
    fn load_mask(&mut self, sid: Sid, depth: usize) {
        self.mask = self.load_sid(sid, depth);
    }

    /// The row of the node `sid` at `depth`, its bits brought into memory
    /// by the retrieval rule first if they are not there yet: one table
    /// lookup on a hit, the load and then one lookup per partial loaded on
    /// a miss. The slot positions that lead to the node are the digits of
    /// its SID in base `M + 1`, root first, so no [`Path`] is built.
    #[inline]
    fn load_sid(&mut self, sid: Sid, depth: usize) -> u32 {
        match self.rows.get(&sid) {
            Some(&row) => row,
            None => {
                let base = self.store.m_max as u64 + 1;
                let positions = (0..depth as u32).rev().map(|k| (sid.0 / base.pow(k) % base) as u16);
                self.load_node(positions, sid)
            }
        }
    }

    /// Bit `pos` of the node at `path.prefix(level)`, whose SID is `sid`
    /// (the walk accumulates it, so no prefix `Path` is materialized).
    /// A node the cell has no bits for reads as 0 — or, on a degraded
    /// cursor, as 1: the bits may have been lost rather than absent.
    fn node_bit(&mut self, path: &Path, level: usize, sid: Sid, pos: usize) -> bool {
        debug_assert!(pos < self.store.m_max, "position {pos} past the fanout");
        let row = match self.rows.get(&sid) {
            Some(&row) => row,
            None => self.load_node(path.0[..level].iter().copied(), sid),
        };
        self.table.bit(row as usize, pos)
    }

    /// Tries to bring the bits of the node `sid` (not loaded yet), reached
    /// from the root by the slot `positions`, into memory by the paper's
    /// retrieval rule: the partial referenced by the root, then by deeper
    /// and deeper ancestors along the path. Each reference is tried at most
    /// once per cursor. Returns the node's row; for a node with no bits,
    /// [`ZEROS`] — or [`ONES`] on a degraded cursor, whose bits may have
    /// been lost.
    ///
    /// Load failures mark the cursor degraded instead of propagating; the
    /// callers then treat "no bits" as "unknown" rather than "empty". The
    /// time spent is added to `load_seconds`.
    fn load_node(&mut self, mut positions: impl Iterator<Item = u16>, sid: Sid) -> u32 {
        let start = Instant::now();
        self.fetch_locators();
        let mut ref_sid = Sid::ROOT;
        let row = loop {
            let locators = self.locators.as_ref().expect("fetched above");
            if let Ok(i) = locators.binary_search_by_key(&ref_sid, |&(r, _)| r) {
                if self.try_first(i) {
                    if let Some(&row) = self.rows.get(&sid) {
                        break row;
                    }
                }
            }
            match positions.next() {
                Some(position) => ref_sid = ref_sid.child(position, self.store.m_max),
                None if self.degraded => break ONES,
                None => break ZEROS,
            }
        };
        debug_assert!(row > ONES || ref_sid == sid, "the positions do not lead to {sid}");
        self.load_seconds += start.elapsed().as_secs_f64();
        row
    }

    /// Loads every partial of the cell not tried yet, by the same partial
    /// load the retrieval rule uses: an eager probe's cursors do this before
    /// the search, which then reads no directory or signature page. A
    /// failed load degrades the cursor as it would lazily.
    pub(crate) fn load_all(&mut self) {
        let start = Instant::now();
        self.fetch_locators();
        let n = self.locators.as_ref().expect("fetched above").len();
        for i in 0..n {
            self.try_first(i);
        }
        self.load_seconds += start.elapsed().as_secs_f64();
    }

    /// Loads the partial of locator `i` if it has not been tried yet, and
    /// marks it tried; `true` if it was tried just now.
    fn try_first(&mut self, i: usize) -> bool {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.tried[word] & bit != 0 {
            return false;
        }
        self.tried[word] |= bit;
        let loc = self.locators.as_ref().expect("fetched before any is tried")[i].1;
        self.load_partial(loc);
        true
    }

    /// Fetches the cell's locators with one directory range scan, on first
    /// use only.
    #[inline]
    fn fetch_locators(&mut self) {
        if self.locators.is_none() {
            let locators: Vec<(Sid, u64)> = match self.store.refs(self.cell) {
                Ok(refs) => refs.collect(),
                Err(_) => {
                    // Directory unreadable: no locators at all, every node
                    // is unknown from here on.
                    self.mark_degraded();
                    Vec::new()
                }
            };
            self.tried = vec![0; locators.len().div_ceil(64)];
            self.locators = Some(locators);
        }
    }

    /// Loads the partial at `loc` (one signature-page read), decoding its
    /// nodes into new rows of the table, and gives them rows once the whole
    /// record has decoded. A failure cuts the table back, gives none of the
    /// record's nodes a row and marks the cursor degraded.
    #[inline]
    fn load_partial(&mut self, loc: u64) {
        let first = self.table.len();
        self.pending.clear();
        match self.store.try_decode_at(loc, &mut self.table, &mut self.pending) {
            Ok(_) => {
                self.partials_loaded += 1;
                self.index_pending(first);
            }
            Err(_) => {
                self.table.truncate(first);
                self.mark_degraded();
            }
        }
    }

    /// Gives the nodes of the record just decoded their rows, which start
    /// at row `first` of the table. A node already loaded keeps its row.
    ///
    /// The first record to decode sizes the SID table for the whole cell:
    /// its node count times the cell's locator count, both in hand. The
    /// table then seldom grows again, and is never rehashed record by
    /// record while the partials a query reaches come in.
    fn index_pending(&mut self, first: usize) {
        let first_row = first as u32;
        let records = if self.rows.is_empty() { self.locators.as_ref().map_or(1, Vec::len) } else { 1 };
        self.rows.reserve(self.pending.len() * records);
        for (row, &(sid, _)) in (first_row..).zip(&self.pending) {
            self.rows.entry(sid).or_insert(row);
        }
    }
}

/// The boolean-pruning side of Algorithm 1: answers "may the subtree/tuple
/// at this path contain data satisfying the selection?".
///
/// One lazily-loaded cursor per conjunct, ANDed: none for no predicate
/// (`BP = ∅`, prunes nothing), one for a materialized cell or for a value
/// never seen in the data (a cursor over nothing, which prunes everything
/// below the root), k for k atomic cells. Under k ≥ 2 the recursive
/// emptiness fix-up of Fig 3.c runs lazily, so on a clean store no node
/// below the root is read that holds no tuple of every conjunct: the probe
/// is exact for tuples and for nodes alike. An eager probe
/// ([`crate::PCube::probe`] with `eager`) is the same probe with every
/// partial loaded before the search: the same pruning, all loads up front
/// (the `assemble-eager` ablation compares the two).
///
/// # The probe contract
///
/// Algorithm 1 asks the two questions of [`BooleanPruner`], and the kernel
/// a third:
///
/// * [`BooleanPruner::keep`], of a popped entry. It starts with the full
///   root-to-path walk ([`BooleanProbe::contains`]): the entry may be the
///   root seed, restored from a saved list, or pushed by the search itself.
///   A tuple the walk keeps is verified against the base table if a cursor
///   degraded. A node the walk keeps gets the *subtree check* before its
///   page is read: the whole fix-up from that node down. The conjuncts'
///   arrays of the node are ANDed; at the leaf level a set bit is a
///   qualifying tuple, above it each shared bit's child is checked the same
///   way, loading its bits by the retrieval rule, until one is proven
///   non-empty. Exact verdicts are memoised for the rest of the query, one
///   byte per row of the first cursor's table, so the memo is found with
///   the lookup that fetches that cursor's row. Only two or more cursors
///   answer it, and never for the root, which the parallel driver reads
///   unprobed: its check would be the whole query's emptiness test, priced
///   at up to every partial of every conjunct. A node kept becomes the
///   node under expansion, and the child masks of it whose bits are
///   already in memory are fetched then, in conjunct order, up to the
///   first conjunct that would need a read.
/// * [`BooleanPruner::keep_child`], of each child of that node. Each
///   conjunct's *child mask* — the row of its table holding its bit array
///   of the node, or a constant row of zeros or ones — is fetched with one
///   node lookup at the first child that reaches it
///   (children are asked in slot order, and a child stops at the first mask
///   whose bit is clear, as `contains` stops at the first cursor), which is
///   what keeps partial signatures loaded lazily per predicate. A child is
///   kept iff its bit is set in every mask, which equals `contains` of the
///   child's path: the node passed `contains`, so only the last level is
///   undecided. A tuple child is decided by the masks alone. A node child
///   is then *looked ahead* at under two or more cursors: do the conjuncts'
///   bit arrays of that child share a set bit? One level of the fix-up, so
///   a child whose subtree holds data of every conjunct but no tuple of all
///   of them is dropped unread when the disagreement shows one level down;
///   exact for a leaf-level child, sound above it. One cursor's set bit
///   already proves a child non-empty.
/// * [`BooleanPruner::rules_out`], of a child before it is decoded: is its
///   bit clear in a mask already fetched for the node under expansion? It
///   reads nothing else and loads nothing. `keep_child` checks those masks
///   first, in the same order, and stops at a clear bit before it fetches
///   another, so `true` here is exactly a `false` there that loads nothing.
///   A mask not fetched for this node is stale (it belongs to the node
///   expanded before) and is never read.
///
/// The first two load partial signatures by the retrieval rule, counted
/// in [`BooleanPruner::partials_loaded`] and timed in
/// [`BooleanPruner::load_seconds`], an eager probe's up-front loads
/// included. A cursor that degraded after a storage failure may answer a
/// false positive, never a false negative.
///
/// All three read bits the same way: each cursor keeps the nodes it loaded
/// as rows of one node table, so a walk's bit and a child mask are a row,
/// and a node with no bits is one of two constant rows (zeros; ones on a
/// degraded cursor). A node's row is looked up once per conjunct per
/// visit — once per level of a walk, once per child mask, once per
/// conjunct of a look-ahead or of a subtree check's node, and the pop-time
/// fetch reuses the rows its subtree check found. The look-ahead and the
/// subtree check AND the conjuncts' rows of a node into a scratch of
/// ⌈M/64⌉ words per tree level, reused for the whole query. A loaded
/// partial is decoded straight into its cursor's table; one that fails at
/// any node is rolled back — none of its nodes gets a row — and degrades
/// that cursor. Nothing is allocated per node or per partial, only the
/// growth steps of the tables, the SID maps and the memo.
pub struct BooleanProbe<'a> {
    cursors: Vec<SignatureCursor<'a>>,
    /// The subtree check's exact verdicts, one per row of the first
    /// cursor's table (`None`: not known yet).
    verdicts: Vec<Option<bool>>,
    /// The look-ahead's and the subtree check's AND of the conjuncts' rows
    /// of a node: ⌈M/64⌉ words per tree level, so a node's AND stays put
    /// while its children's are taken.
    and: Vec<u64>,
    /// The node kept last, whose children [`BooleanPruner::keep_child`] is
    /// asked about.
    expanding: Expansion,
}

/// The node under expansion: its SID and depth, and how many conjuncts'
/// child masks of it are fetched (always the first ones).
struct Expansion {
    sid: Sid,
    depth: usize,
    fetched: usize,
}

impl<'a> BooleanProbe<'a> {
    /// A probe ANDing `cursors`.
    pub fn cursors(cursors: Vec<SignatureCursor<'a>>) -> Self {
        let and = cursors.first().map_or_else(Vec::new, |c| vec![0; c.store.height * c.table.stride()]);
        BooleanProbe {
            cursors,
            verdicts: Vec::new(),
            and,
            expanding: Expansion { sid: Sid::ROOT, depth: 0, fetched: 0 },
        }
    }

    /// `true` if the path may contain qualifying data (never a false
    /// negative; a degraded cursor may answer a false positive).
    pub fn contains(&mut self, path: &Path) -> bool {
        self.cursors.iter_mut().all(|c| c.contains(path))
    }

    /// `true` if a cursor degraded after a storage failure, so the probe
    /// can report false positives (a tuple it keeps is then verified
    /// against the base table).
    pub fn is_lossy(&self) -> bool {
        self.cursors.iter().any(SignatureCursor::is_degraded)
    }

    /// The number of cursors the probe ANDs.
    #[cfg(test)]
    pub(crate) fn cursor_count(&self) -> usize {
        self.cursors.len()
    }

    /// [`BooleanPruner::keep`] of the node at `path`: the walk, then the
    /// subtree check (`fix_up`, which a degraded cursor makes answer
    /// `true`). A node kept becomes the node under expansion, with the
    /// child masks already in memory fetched.
    fn keep_node(&mut self, path: &Path) -> bool {
        if !self.contains(path) {
            return false;
        }
        let Some(first) = self.cursors.first() else {
            return true;
        };
        let (sid, depth) = (path.sid(first.store.m_max), path.depth());
        self.expanding = Expansion { sid, depth, fetched: 0 };
        let e = &mut self.expanding;
        if self.cursors.len() > 1
            && depth > 0
            && !fix_up(&mut self.cursors, &mut self.verdicts, &mut self.and, sid, depth, Some(&mut e.fetched))
                .unwrap_or(true)
        {
            return false;
        }
        // The masks whose bits are already in memory, in conjunct order,
        // up to the first that would need a read: fetched now, they let
        // `rules_out` answer from the first child on. The subtree check
        // fetched every row it resolved; the rest are looked up here,
        // unless the check stopped at a degraded cursor with no bits.
        if self.cursors[..e.fetched].last().is_none_or(|c| c.mask > ONES) {
            for c in &mut self.cursors[e.fetched..] {
                let Some(&row) = c.rows.get(&sid) else { break };
                c.mask = row;
                e.fetched += 1;
            }
        }
        true
    }
}

impl BooleanPruner for BooleanProbe<'_> {
    /// A degraded cursor may pass non-qualifying tuples: a tuple then pays
    /// what domination-first pays, one counted random access. The empty
    /// selection has nothing to get wrong.
    fn keep(&mut self, db: &PCubeDb, selection: &Selection, cand: &Candidate) -> bool {
        match cand {
            Candidate::Tuple { path, .. } => {
                self.contains(path)
                    && (!self.is_lossy()
                        || selection.is_empty()
                        || VerifyAllPruner.keep(db, selection, cand))
            }
            Candidate::Node { path, .. } => self.keep_node(path),
        }
    }

    /// The child's SID is derived from the expanding node's; no [`Path`] is
    /// built.
    fn keep_child(&mut self, slot: usize, is_node: bool) -> bool {
        let (e, cs) = (&mut self.expanding, &mut self.cursors);
        for (i, c) in cs.iter_mut().enumerate() {
            if i == e.fetched {
                c.load_mask(e.sid, e.depth);
                e.fetched += 1;
            }
            if !c.mask_bit(slot) {
                return false;
            }
        }
        !is_node || cs.len() < 2 || {
            let child = e.sid.child(slot as u16 + 1, cs[0].store.m_max);
            arrays_meet(cs, &mut self.and, child, e.depth + 1)
        }
    }

    /// A clear bit in a mask already fetched for the node under expansion:
    /// `keep_child` stops at that mask before it reaches one it would fetch.
    #[inline]
    fn rules_out(&self, slot: usize) -> bool {
        self.cursors[..self.expanding.fetched].iter().any(|c| !c.mask_bit(slot))
    }

    fn partials_loaded(&self) -> u64 {
        self.cursors.iter().map(SignatureCursor::partials_loaded).sum()
    }

    fn load_seconds(&self) -> f64 {
        self.cursors.iter().map(|c| c.load_seconds).sum()
    }
}

/// The look-ahead, one level of the fix-up of Fig 3.c: do the cursors' bit
/// arrays of the node `sid` at `depth` share a set bit? Each conjunct's row
/// is found once and ANDed into the scratch of that level, stopping at the
/// first conjunct that empties the AND; a degraded cursor that cannot load
/// the bits answers all ones and never prunes.
fn arrays_meet(cs: &mut [SignatureCursor<'_>], and: &mut [u64], sid: Sid, depth: usize) -> bool {
    let stride = cs[0].table.stride();
    let acc = &mut and[depth * stride..(depth + 1) * stride];
    cs.iter_mut().enumerate().all(|(i, c)| {
        let row = c.load_sid(sid, depth);
        and_row(acc, c.table.row(row as usize), i == 0)
    })
}

/// The recursive fix-up of Fig 3.c, evaluated lazily from the node `sid` at
/// `depth`: does some tuple under it belong to every cursor's cell? The
/// first cursor's row of the node is found first, and a verdict memoised
/// on that row answers. Otherwise each conjunct's row is found once and
/// ANDed into `and`'s words of this level, stopping at the first conjunct
/// that empties the AND; at the leaf level a shared bit is a qualifying
/// tuple, above it each shared bit's child is checked in turn, stopping at
/// the first proven non-empty. Exact verdicts are memoised by row in
/// `verdicts`. `None` — a cursor degraded, so emptiness cannot be proven —
/// is not. With `fetched`, each row found becomes its cursor's child mask
/// and `fetched` counts them. Allocates nothing but the memo's and, as it
/// loads partials, the cursors' growth steps.
fn fix_up(
    cs: &mut [SignatureCursor<'_>],
    verdicts: &mut Vec<Option<bool>>,
    and: &mut [u64],
    sid: Sid,
    depth: usize,
    mut fetched: Option<&mut usize>,
) -> Option<bool> {
    let first = cs[0].load_sid(sid, depth);
    if let Some(&Some(known)) = verdicts.get(first as usize) {
        if let Some(f) = fetched {
            cs[0].mask = first;
            *f = 1;
        }
        return Some(known);
    }
    let (m_max, height, stride) = (cs[0].store.m_max, cs[0].store.height, cs[0].table.stride());
    let at = depth * stride;
    for i in 0..cs.len() {
        let row = if i == 0 { first } else { cs[i].load_sid(sid, depth) };
        if let Some(f) = fetched.as_deref_mut() {
            cs[i].mask = row;
            *f = i + 1;
        }
        if cs[i].degraded {
            return None;
        }
        if !and_row(&mut and[at..at + stride], cs[i].table.row(row as usize), i == 0) {
            remember(verdicts, &cs[0], first, false);
            return Some(false);
        }
    }
    let nonempty = depth + 1 >= height || 'shared: {
        for w in 0..stride {
            let mut word = and[at + w];
            while word != 0 {
                let position = (w * 64) as u16 + word.trailing_zeros() as u16 + 1;
                word &= word - 1;
                if fix_up(cs, verdicts, and, sid.child(position, m_max), depth + 1, None)? {
                    break 'shared true;
                }
            }
        }
        false
    };
    remember(verdicts, &cs[0], first, nonempty);
    Some(nonempty)
}

/// ANDs `row` into `acc` — copies it, for the first conjunct — and tells
/// whether a bit is left.
#[inline]
fn and_row(acc: &mut [u64], row: &[u64], first: bool) -> bool {
    let mut any = 0;
    for (a, &r) in acc.iter_mut().zip(row) {
        *a = if first { r } else { *a & r };
        any |= *a;
    }
    any != 0
}

/// Memoises the subtree check's verdict on the node whose row in the first
/// cursor's table is `row`, growing the memo with that table (rows are
/// never reassigned). A node with no bits — a constant row — gets no entry.
fn remember(verdicts: &mut Vec<Option<bool>>, first: &SignatureCursor<'_>, row: u32, nonempty: bool) {
    if row > ONES {
        let row = row as usize;
        if row >= verdicts.len() {
            verdicts.resize(first.table.len(), None);
        }
        verdicts[row] = Some(nonempty);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pcube_bitmap::varint_len;
    use pcube_storage::{IoStats, SharedStats, PAGE_SIZE};
    use proptest::prelude::*;

    fn store_with(page_size: usize) -> (SignatureStore, SharedStats) {
        store_for(2, 3, page_size)
    }

    /// An empty store for a tree of fanout `m_max` and `height`.
    fn store_for(m_max: usize, height: usize, page_size: usize) -> (SignatureStore, SharedStats) {
        let stats = IoStats::new_shared();
        let sig_pager = Pager::new(page_size, IoCategory::SignaturePage, stats.clone());
        let dir_pager = Pager::new(PAGE_SIZE, IoCategory::BptreePage, stats.clone());
        (SignatureStore::new(sig_pager, dir_pager, m_max, height), stats)
    }

    fn a1_signature() -> Signature {
        Signature::from_paths(2, [Path(vec![1, 1, 1]), Path(vec![1, 2, 1])].iter())
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
    fn tiny_pages_force_multiple_partials_and_cursor_follows_refs() {
        // 20-byte pages (16-byte payload): each partial holds ~2 tiny nodes.
        let (mut store, stats) = store_with(20);
        let sig = a1_signature();
        store.write_signature(3, &sig);
        assert!(store.partial_count() >= 2, "expected decomposition, got {}", store.partial_count());
        assert_eq!(store.load_full(3), sig);

        stats.reset();
        let mut cursor = store.cursor(3);
        // Probing the root region loads only the first partial.
        assert!(cursor.contains(&Path(vec![1])));
        let after_root = cursor.partials_loaded();
        assert_eq!(after_root, 1);
        // A pruned branch needs no further loads.
        assert!(!cursor.contains(&Path(vec![2])));
        assert_eq!(cursor.partials_loaded(), after_root);
        // Descending to a leaf bit may load deeper partials.
        assert!(cursor.contains(&Path(vec![1, 2, 1])));
        assert!(!cursor.contains(&Path(vec![1, 2, 2])));
        assert_eq!(
            stats.reads(IoCategory::SignaturePage),
            cursor.partials_loaded(),
            "every partial load is one signature-page read"
        );
    }

    #[test]
    fn cursor_on_missing_cell_contains_nothing() {
        let (store, _) = store_with(PAGE_SIZE);
        let mut cursor = store.cursor(42);
        assert!(!cursor.contains(&Path(vec![1])));
        assert!(cursor.contains(&Path::root()), "root is vacuously contained");
    }

    /// Every node path of a complete tree of fanout `m_max` and `height`,
    /// in pre-order (root, then each subtree left to right).
    fn node_paths(m_max: usize, height: usize) -> Vec<Path> {
        node_paths_over(&(1..=m_max as u16).collect::<Vec<_>>(), height)
    }

    /// Every node path of `height` levels whose positions are all in
    /// `slots`, in pre-order.
    fn node_paths_over(slots: &[u16], height: usize) -> Vec<Path> {
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

    #[test]
    fn cursor_matches_full_signature_on_every_path() {
        let (mut store, _) = store_with(48);
        let mut sig = Signature::empty(2);
        for a in 1..=2u16 {
            for b in 1..=2u16 {
                if (a + b) % 2 == 0 {
                    sig.set_path(&Path(vec![a, b, 1]));
                }
            }
        }
        store.write_signature(5, &sig);
        let mut cursor = store.cursor(5);
        for a in 1..=2u16 {
            for b in 1..=2u16 {
                for c in 1..=2u16 {
                    let p = Path(vec![a, b, c]);
                    assert_eq!(cursor.contains(&p), sig.contains(&p), "path {p}");
                }
            }
        }

        // Probe equivalence: at every node the probe keeps, the child
        // question answers what the full walk answers for the child's path
        // — exactly for a tuple child, which the masks alone decide; never
        // keeping more for a child node, which is also looked ahead at, and
        // never dropping one that holds a qualifying tuple. For no cursor,
        // one, two, and two loaded first (an eager probe).
        let other = Signature::from_paths(
            2,
            [Path(vec![1, 1, 1]), Path(vec![1, 2, 2]), Path(vec![2, 1, 1])].iter(),
        );
        store.write_signature(6, &other);
        let both = sig.intersect(&other, 3);
        // One probe answers tuple children by masks, its twin by walks.
        // Both are asked the same pop-time and child-node questions, so the
        // twins must load the same partial signatures at the same child.
        let cursors =
            |cells: &[u32]| BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
        let loaded = |cells: &[u32]| loaded_probe(&store, cells);
        let variants: Vec<(&str, BooleanProbe<'_>, BooleanProbe<'_>, Option<&Signature>)> = vec![
            ("no cursor", cursors(&[]), cursors(&[]), None),
            ("one cursor", cursors(&[5]), cursors(&[5]), Some(&sig)),
            ("two cursors", cursors(&[5, 6]), cursors(&[5, 6]), Some(&both)),
            ("two loaded first", loaded(&[5, 6]), loaded(&[5, 6]), Some(&both)),
        ];
        for (name, mut by_mask, mut by_walk, exact) in variants {
            for node in node_paths(2, 3) {
                let kept = by_mask.keep_node(&node);
                assert_eq!(kept, by_walk.keep_node(&node), "{name} at {node}");
                if !kept {
                    continue;
                }
                let is_node = node.depth() + 1 < 3;
                for slot in 0..2 {
                    let child = node.child(slot as u16 + 1);
                    let asked = by_mask.keep_child(slot, is_node);
                    let walked = by_walk.contains(&child);
                    if is_node {
                        assert_eq!(asked, by_walk.keep_child(slot, true), "{name} at {child}");
                        assert!(walked || !asked, "{name} kept {child}, which the walk drops");
                        let holds = exact.is_none_or(|e| e.contains(&child));
                        assert!(asked || !holds, "{name} dropped {child}, which holds a match");
                    } else {
                        assert_eq!(asked, walked, "{name} at {child}");
                    }
                    assert_eq!(
                        by_mask.partials_loaded(),
                        by_walk.partials_loaded(),
                        "{name} at {child}"
                    );
                }
            }
            assert_eq!(by_mask.is_lossy(), by_walk.is_lossy(), "{name}");
        }
    }

    #[test]
    fn probe_variants_agree_on_tuples() {
        let (mut store, _) = store_with(PAGE_SIZE);
        // a2 = {t2 <1,1,2>, t6 <2,1,2>}, b2 = {t2 <1,1,2>, t7 <2,2,1>}.
        let a2 = Signature::from_paths(2, [Path(vec![1, 1, 2]), Path(vec![2, 1, 2])].iter());
        let b2 = Signature::from_paths(2, [Path(vec![1, 1, 2]), Path(vec![2, 2, 1])].iter());
        store.write_signature(0, &a2);
        store.write_signature(1, &b2);

        let mut lazy = BooleanProbe::cursors(vec![store.cursor(0), store.cursor(1)]);
        let exact = a2.intersect(&b2, 3);
        for a in 1..=2u16 {
            for b in 1..=2u16 {
                for c in 1..=2u16 {
                    let p = Path(vec![a, b, c]);
                    assert_eq!(lazy.contains(&p), exact.contains(&p), "tuple path {p}");
                }
            }
        }
        // Internal nodes: the lazy walk may be looser, never tighter.
        for a in 1..=2u16 {
            for b in 1..=2u16 {
                let p = Path(vec![a, b]);
                if exact.contains(&p) {
                    assert!(lazy.contains(&p), "lazy must not over-prune {p}");
                }
            }
        }
        // The N2 subtree is the paper's example of the walk being looser:
        // both cells have data under <2>, but no shared tuple (a2 has t6
        // under N5, b2 has t7 under N6). The root's masks keep <2> — asked
        // as if its children were tuples, the probe keeps both — but the
        // child question of a node also ANDs the two cells' arrays *of N2*
        // (10 & 01) and prunes it at the root's expansion, as the eager
        // intersection does.
        let n2 = Path(vec![2]);
        assert!(lazy.contains(&n2));
        assert!(!exact.contains(&n2));
        let root = Path::root();
        assert!(lazy.keep_node(&root));
        assert_eq!([lazy.keep_child(0, false), lazy.keep_child(1, false)], [true, true]);
        assert!(lazy.keep_child(0, true), "<1> holds t2");
        assert!(!lazy.keep_child(1, true), "<2> is pruned at the root's expansion");
        assert!(!lazy.keep_node(&n2), "and, restored from a list, before it is read");
        // An eager probe is the same probe with its partials loaded first:
        // the same answers, and no load once it is built.
        let mut eager = loaded_probe(&store, &[0, 1]);
        let up_front = eager.partials_loaded();
        assert_eq!(up_front, 2, "one partial per cell");
        assert!(eager.keep_node(&root));
        assert_eq!([eager.keep_child(0, true), eager.keep_child(1, true)], [true, false]);
        assert!(!eager.keep_node(&n2));
        assert_eq!(eager.partials_loaded(), up_front);
    }

    /// An eager probe over `cells`: their cursors with every partial loaded.
    fn loaded_probe<'a>(store: &'a SignatureStore, cells: &[u32]) -> BooleanProbe<'a> {
        let mut cursors: Vec<_> = cells.iter().map(|&c| store.cursor(c)).collect();
        cursors.iter_mut().for_each(SignatureCursor::load_all);
        BooleanProbe::cursors(cursors)
    }

    /// Walks a complete height-3 tree of fanout `m_max` the way the kernel
    /// does — a node is expanded if the child question kept it and the
    /// pop-time question keeps it — and returns the child question's
    /// verdict on every child node of every expanded node.
    fn child_node_verdicts(probe: &mut BooleanProbe<'_>, m_max: usize) -> Vec<(Path, bool)> {
        let mut verdicts = Vec::new();
        let mut frontier = vec![Path::root()];
        while let Some(node) = frontier.pop() {
            if !probe.keep_node(&node) {
                continue;
            }
            let children: Vec<(Path, bool)> = (0..m_max)
                .map(|slot| (node.child(slot as u16 + 1), probe.keep_child(slot, true)))
                .collect();
            for (child, kept) in children {
                if kept && child.depth() < 2 {
                    frontier.push(child.clone());
                }
                verdicts.push((child, kept));
            }
        }
        verdicts
    }

    /// The slots positions `1..=4` map to under fanout `m_max`: folded into
    /// `1..=m_max`, or — for a row of two words — two slots in each word.
    fn slots(m_max: usize) -> Vec<u16> {
        if m_max > 64 {
            vec![1, 2, 65, m_max as u16]
        } else {
            (1..=m_max.min(4) as u16).collect()
        }
    }

    /// 3, 4, or a fanout above 64, whose rows take two words.
    fn fanout() -> impl Strategy<Value = usize> {
        (0usize..3).prop_map(|i| [3, 4, 70][i])
    }

    /// Random cells over a tree of fanout `m_max` whose height is the length
    /// of the tuple paths (positions `1..=4` map to [`slots`]), written to
    /// a store of `page_size`-byte pages — every `corrupt_every`-th page
    /// then corrupted under checksums, none at 0 — plus their assembled
    /// intersection with the fix-up (Fig 3.c), the exact answer.
    fn random_cells(
        m_max: usize,
        cells: &[HashSet<Vec<u16>>],
        page_size: usize,
        corrupt_every: usize,
    ) -> (SignatureStore, Signature) {
        let height = cells[0].iter().next().map_or(0, Vec::len);
        let slots = slots(m_max);
        let fold = |p: &u16| slots[(usize::from(*p) - 1) % slots.len()];
        let sigs: Vec<Signature> = cells
            .iter()
            .map(|cell| {
                let paths: Vec<Path> =
                    cell.iter().map(|p| Path(p.iter().map(fold).collect())).collect();
                Signature::from_paths(m_max, paths.iter())
            })
            .collect();
        let exact = sigs[1..].iter().fold(sigs[0].clone(), |acc, s| acc.intersect(s, height));
        let (mut store, _) = store_for(m_max, height, page_size);
        for (cell, sig) in sigs.iter().enumerate() {
            store.write_signature(cell as u32, sig);
        }
        if corrupt_every > 0 {
            let pager = store.sig_pager_mut();
            pager.set_checksums(true);
            for pid in pager.live_page_ids().into_iter().step_by(corrupt_every) {
                pager.corrupt_page(pid, 2, 0x40).unwrap();
            }
        }
        (store, exact)
    }

    /// A lazy probe over the first `n` cells of `store`.
    fn lazy_probe(store: &SignatureStore, n: usize) -> BooleanProbe<'_> {
        BooleanProbe::cursors((0..n as u32).map(|c| store.cursor(c)).collect())
    }

    /// 2–3 random cells of 1–`max` tuple paths of length `height`.
    fn cell_sets(height: usize, max: usize) -> impl Strategy<Value = Vec<HashSet<Vec<u16>>>> {
        prop::collection::vec(
            prop::collection::hash_set(prop::collection::vec(1u16..=4, height), 1..max),
            2..=3,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random 2- and 3-cell signatures on a height-3 tree of fanout 3, 4
        /// or 70 (two words a row, tuples in both), over pages small enough
        /// to split every cell into several partials. For a leaf-level child node the child question — masks
        /// and look-ahead — equals the assembled intersection (Fig 3.c); at
        /// any level it never drops a child the intersection keeps. With the
        /// signature pages corrupted (every `corrupt_every`-th under
        /// checksums; all of them at 1) the cursors degrade: the child
        /// question may keep more, never less.
        #[test]
        fn look_ahead_is_one_level_of_the_fixup(
            m_max in fanout(),
            cells in cell_sets(3, 40),
            page_size in 24usize..160,
            corrupt_every in 0usize..=3,
        ) {
            let (store, exact) = random_cells(m_max, &cells, page_size, corrupt_every);
            let mut lazy = lazy_probe(&store, cells.len());
            for (child, ahead) in child_node_verdicts(&mut lazy, m_max) {
                let holds = exact.contains(&child);
                prop_assert!(ahead || !holds, "dropped {} holding a qualifying tuple", child);
                if child.depth() == 2 && corrupt_every == 0 {
                    prop_assert_eq!(ahead, holds, "leaf-level child {}", child);
                }
            }
            if corrupt_every == 0 {
                prop_assert!(!lazy.is_lossy());
            }
        }

        /// The same on a height-4 tree, where one level of the fix-up and
        /// all of it differ: on a clean store the pop-time question of a
        /// node — the walk and the subtree check — equals the assembled
        /// intersection at every node below the root (which is always
        /// read); on a corrupted one it never drops a node the intersection
        /// keeps. Asked top-down, and again from a fresh probe bottom-up, so
        /// that verdicts memoised by a parent's check and by a child's both
        /// answer later questions. Under fanout 70 the nodes asked are those
        /// over the slots the tuples use.
        #[test]
        fn subtree_check_is_the_whole_fixup(
            m_max in fanout(),
            cells in cell_sets(4, 60),
            page_size in 24usize..160,
            corrupt_every in 0usize..=3,
        ) {
            let (store, exact) = random_cells(m_max, &cells, page_size, corrupt_every);
            let mut nodes = node_paths_over(&slots(m_max), 4);
            for _ in 0..2 {
                let mut lazy = lazy_probe(&store, cells.len());
                for node in &nodes[1..] {
                    let kept = lazy.keep_node(node);
                    let holds = exact.contains(node);
                    prop_assert!(kept || !holds, "dropped {} holding a qualifying tuple", node);
                    if corrupt_every == 0 {
                        prop_assert_eq!(kept, holds, "node {}", node);
                    }
                }
                if corrupt_every == 0 {
                    prop_assert!(!lazy.is_lossy());
                }
                nodes[1..].reverse();
            }
        }
    }

    /// Two cells on a height-3 tree of fanout 32 and 512 B signature pages,
    /// each spanning several partials: every leaf-level node of cell 0
    /// holds one tuple (slot `a·b mod 32`) and of cell 1 another (slot
    /// `a + b mod 32`), each leaving some subtrees empty; then every
    /// `corrupt_every`-th signature page corrupted under checksums, none at
    /// 0. Returns the store, its statistics, and the exact answers for cell
    /// 0 alone and for both: its assembled signature and the intersection
    /// (Fig 3.c).
    fn masked_cells(corrupt_every: usize) -> (SignatureStore, SharedStats, [Signature; 2]) {
        let (m_max, height) = (32, 3);
        let (mut store, stats) = store_for(m_max, height, 512);
        let cell = |slot: fn(u16, u16) -> u16, keep: fn(u16, u16) -> bool| {
            let paths: Vec<Path> = (1..=32u16)
                .flat_map(|a| (1..=32u16).map(move |b| (a, b)))
                .filter(|&(a, b)| keep(a, b))
                .map(|(a, b)| Path(vec![a, b, slot(a, b) % 32 + 1]))
                .collect();
            Signature::from_paths(m_max, paths.iter())
        };
        let a = cell(|a, b| a * b, |a, b| (a * b) % 5 != 0);
        let b = cell(|a, b| a + b, |a, b| (a + b) % 3 != 0 && a % 7 != 0);
        store.write_signature(0, &a);
        store.write_signature(1, &b);
        assert!(store.partial_refs(0).len() >= 4 && store.partial_refs(1).len() >= 4);
        if corrupt_every > 0 {
            let pager = store.sig_pager_mut();
            pager.set_checksums(true);
            for pid in pager.live_page_ids().into_iter().step_by(corrupt_every) {
                pager.corrupt_page(pid, 2, 0x40).unwrap();
            }
        }
        let both = a.intersect(&b, height);
        (store, stats, [a, both])
    }

    /// Asks the probe about every node of the tree the way the kernel would
    /// (the pop-time question of a node, then each child in slot order: the
    /// question that loads nothing first, `keep_child` unless it answered),
    /// and checks the first against the second at every child: it reads no
    /// page and loads no partial; it answers `true` only where `keep_child`
    /// answers `false` with no load; and once `keep_child` has fetched the
    /// masks, it answers `true` exactly where `keep_child` dropped a tuple
    /// child. `check` sees each child's path and the first answer. Returns
    /// how many children it ruled out, and how many kept nodes had a mask
    /// left unfetched by the pop-time question.
    fn sweep_ruled_out(
        probe: &mut BooleanProbe<'_>,
        stats: &SharedStats,
        mut check: impl FnMut(&Path, bool),
    ) -> (usize, usize) {
        let (mut ruled_out, mut unfetched) = (0, 0);
        for node in node_paths(32, 3) {
            if !probe.keep_node(&node) {
                continue;
            }
            unfetched += usize::from(probe.expanding.fetched < probe.cursors.len());
            let is_node = node.depth() + 1 < 3;
            let mut kept = Vec::new();
            for slot in 0..32 {
                let before = (stats.snapshot(), probe.partials_loaded());
                let first = probe.rules_out(slot);
                assert_eq!((stats.snapshot(), probe.partials_loaded()), before, "at {node} slot {slot}");
                check(&node.child(slot as u16 + 1), first);
                let keep = probe.keep_child(slot, is_node);
                if first {
                    ruled_out += 1;
                    assert!(!keep, "ruled out a child of {node} that keep_child keeps");
                    assert_eq!(probe.partials_loaded(), before.1, "keep_child loaded at {node}");
                }
                kept.push(keep);
            }
            for (slot, keep) in kept.into_iter().enumerate() {
                let before = (stats.snapshot(), probe.partials_loaded());
                let after_fetch = probe.rules_out(slot);
                assert_eq!((stats.snapshot(), probe.partials_loaded()), before);
                if is_node {
                    assert!(!(after_fetch && keep), "ruled out a kept child node of {node}");
                } else {
                    assert_eq!(after_fetch, !keep, "tuple child {slot} of {node}");
                }
            }
        }
        (ruled_out, unfetched)
    }

    #[test]
    fn the_question_that_loads_nothing_is_keep_child_without_a_load() {
        let (store, stats, [a, both]) = masked_cells(0);
        for (cells, exact) in [(&[0][..], &a), (&[0, 1][..], &both)] {
            let mut probe = BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
            let (ruled_out, unfetched) = sweep_ruled_out(&mut probe, &stats, |child, first| {
                assert!(!(first && exact.contains(child)), "{cells:?} ruled out {child}");
            });
            assert!(ruled_out > 0, "{cells:?}: nothing ruled out");
            assert!(unfetched > 0, "{cells:?}: every mask was resident");
            assert!(!probe.is_lossy());
        }
        // No conjunct, nothing to rule out by.
        let mut none = BooleanProbe::cursors(Vec::new());
        assert_eq!(sweep_ruled_out(&mut none, &stats, |_, first| assert!(!first)), (0, 0));
    }

    #[test]
    fn the_pop_time_fetch_of_resident_masks_loads_nothing() {
        // The pop-time question of every node, never a child question: no
        // walk reads a leaf-level node's own bits, so a fetch that loaded
        // them would show. Pinned on the commit before the fetch: nodes
        // kept, signature-page reads and partials loaded, for one cursor
        // and for two.
        let (store, stats, _) = masked_cells(0);
        let mut loads = Vec::new();
        for cells in [&[0][..], &[0, 1][..]] {
            let mut probe = BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
            stats.reset();
            let kept = node_paths(32, 3).iter().filter(|node| probe.keep_node(node)).count();
            loads.push([kept as u64, stats.reads(IoCategory::SignaturePage), probe.partials_loaded()]);
        }
        assert_eq!(loads, [[703, 1, 1], [17, 44, 44]]);
    }

    #[test]
    fn verdicts_memoised_before_a_cursor_degrades_still_answer_exactly() {
        // The page of cell 1's last partial, corrupt under checksums: only
        // nodes under the root's last slots reach it.
        let (mut store, _, [_, both]) = masked_cells(0);
        let (_, loc) = store.refs(1).unwrap().last().unwrap();
        let pager = store.sig_pager_mut();
        pager.set_checksums(true);
        pager.corrupt_page(SignatureStore::unpack_locator(loc).0, 2, 0x40).unwrap();
        let nodes = node_paths(32, 3);
        let (early, late): (Vec<&Path>, Vec<&Path>) = nodes[1..].iter().partition(|n| n.0[0] <= 16);
        let mut probe = lazy_probe(&store, 2);
        let first: Vec<bool> = early.iter().map(|n| probe.keep_node(n)).collect();
        assert!(!probe.is_lossy(), "the first half reads no corrupt page");
        assert_eq!(first, early.iter().map(|n| both.contains(n)).collect::<Vec<_>>());
        let pruned_by_check = early.iter().filter(|n| probe.contains(n) && !both.contains(n)).count();
        assert!(pruned_by_check > 0, "no node the walk keeps is pruned by the subtree check");
        for node in &late {
            assert!(probe.keep_node(node) || !both.contains(node), "dropped {node}");
        }
        assert!(probe.cursors[1].is_degraded() && !probe.cursors[0].is_degraded());
        // Memoised verdicts answer before the degraded cursor is consulted;
        // a node never checked is kept unless the walk or an exact step
        // drops it.
        let again: Vec<bool> = early.iter().map(|n| probe.keep_node(n)).collect();
        assert_eq!(again, first, "a memoised verdict changed once a cursor degraded");
        let mut fresh = lazy_probe(&store, 2);
        for node in late.iter().chain(&early) {
            assert!(fresh.keep_node(node) || !both.contains(node), "dropped {node}");
        }
        assert!(fresh.is_lossy());
    }

    #[test]
    fn a_degraded_probe_rules_out_no_qualifying_child() {
        // Every second signature page corrupt, as the fault-injection suite
        // damages a built store: cursors degrade part-way through.
        let (store, stats, [a, both]) = masked_cells(2);
        for (cells, exact) in [(&[0][..], &a), (&[0, 1][..], &both)] {
            let mut probe = BooleanProbe::cursors(cells.iter().map(|&c| store.cursor(c)).collect());
            sweep_ruled_out(&mut probe, &stats, |child, first| {
                assert!(!(first && exact.contains(child)), "{cells:?} ruled out {child}");
            });
            assert!(probe.is_lossy(), "{cells:?}: no cursor degraded");
        }
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
    fn corrupt_partial_degrades_instead_of_panicking() {
        // Tiny pages force several partials; corrupt every signature page
        // under checksums and the cursor must degrade (prune nothing it
        // cannot prove empty) rather than panic or under-report.
        let (mut store, stats) = store_with(20);
        let sig = a1_signature();
        store.write_signature(5, &sig);
        store.sig_pager_mut().set_checksums(true);
        let pids = store.sig_pager_mut().live_page_ids();
        for pid in pids {
            store.sig_pager_mut().corrupt_page(pid, 2, 0x40).unwrap();
        }
        let mut cursor = store.cursor(5);
        for a in 1..=2u16 {
            for b in 1..=2u16 {
                for c in 1..=2u16 {
                    let p = Path(vec![a, b, c]);
                    if sig.contains(&p) {
                        assert!(cursor.contains(&p), "no false negatives on {p}");
                    }
                }
            }
        }
        assert!(cursor.is_degraded());
        assert!(stats.get(Counter::DegradedReads) > 0, "failures must be tallied");
        let probe = BooleanProbe::cursors(vec![cursor]);
        assert!(probe.is_lossy(), "degraded cursors make the probe lossy");
    }

    #[test]
    fn a_partial_failing_at_its_last_node_adds_none_of_its_nodes() {
        // One partial holds the whole signature. Its last node's bit length
        // becomes M + 1 and the page is written back under checksums, so
        // its CRC is valid: the record reaches the decoder, which decodes
        // every node before the last and then refuses the record.
        let (mut store, stats) = store_with(PAGE_SIZE);
        let sig = a1_signature();
        store.write_signature(5, &sig);
        let refs: Vec<(Sid, u64)> = store.refs(5).unwrap().collect();
        let [(_, loc)] = refs[..] else { panic!("one partial expected, got {refs:?}") };
        let (mut table, mut nodes) = (NodeTable::new(2), Vec::new());
        let root_sid = store.try_decode_at(loc, &mut table, &mut nodes).unwrap();
        let (&(last, last_len), before) = nodes.split_last().unwrap();
        assert!(before.len() >= 2, "nodes decode before the last one");
        let rows = before.iter().enumerate().map(|(k, &(sid, _))| (sid, table.row(k)));
        let head = encode_record(root_sid, rows, 2);
        let (pid, offset) = SignatureStore::unpack_locator(loc);
        // The record's header and every node before the last, then the
        // last node's SID and tag: its bit length is the next byte.
        let at = offset + RECORD_HEADER + head.len() + varint_len(last.0) + 1;
        let mut page = store.pager.page_bytes(pid).unwrap().to_vec();
        assert_eq!(usize::from(page[at]), last_len, "the last node's bit length");
        page[at] = 2 + 1;
        store.sig_pager_mut().set_checksums(true);
        store.sig_pager_mut().write(pid, &page);
        let record = &store.pager.try_read(pid).unwrap()[offset + RECORD_HEADER..];
        let mut decoded = Vec::new();
        assert!(decode_record(record, 2, &mut NodeTable::new(2), &mut decoded).is_none());
        assert_eq!(decoded.len(), before.len(), "every node before the last decodes");

        stats.reset();
        let mut cursor = store.cursor(5);
        assert!(cursor.contains(&Path(vec![1])));
        assert!(cursor.is_degraded());
        assert_eq!(stats.get(Counter::DegradedReads), 1);
        assert_eq!(cursor.partials_loaded(), 0);
        assert!(cursor.rows.is_empty(), "nodes of the failed partial: {:?}", cursor.rows);
        assert_eq!(cursor.table.len(), 2, "the table is cut back");
        // Tuple answers, of the cursor and of a probe over it, are a
        // superset of the truth: a node with no bits reads as all ones.
        let mut probe = BooleanProbe::cursors(vec![cursor]);
        for a in 1..=2u16 {
            for b in 1..=2u16 {
                for c in 1..=2u16 {
                    let p = Path(vec![a, b, c]);
                    assert!(probe.contains(&p) || !sig.contains(&p), "no false negative on {p}");
                }
            }
        }
        assert!(probe.is_lossy());
        assert_eq!(probe.partials_loaded(), 0);
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
