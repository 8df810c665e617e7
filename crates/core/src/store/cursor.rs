//! The lazy cursor over one cell's stored signature (§IV-B.2): "we load the
//! partial signatures p only if the node encoded within p is requested."
//!
//! To resolve a node, a cursor tries the partial referenced by the root,
//! then by the first-level ancestor on the node's path, then the second
//! level, and so on. It is plain data: one node table holding one row of
//! ⌈M/64⌉ words per loaded node, a map from node SID to row, the cell's
//! locators as one sorted vector and one "tried" bit per locator. The SID
//! map is sized once per cursor, when its first record decodes: that
//! record's node count times the cell's locator count. A record that fails
//! to decode at any node adds none of its nodes — the table is cut back to
//! where it stood — and the cursor degrades.

use std::collections::HashMap;
use std::time::Instant;

use pcube_rtree::{Path, Sid, SidBuildHasher};
use pcube_storage::Counter;

use super::SignatureStore;
use crate::signature::{walk_path, NodeTable};

/// Row of every cursor's table that is all zeros: the bits of a node the
/// cell has no data under.
const ZEROS: u32 = 0;
/// Row that is all ones: the bits of a node a degraded cursor holds none
/// for — they may have been lost rather than absent, so nothing is pruned.
pub(super) const ONES: u32 = 1;

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
    pub(super) store: &'a SignatureStore,
    cell: u32,
    /// Rows [`ZEROS`] and [`ONES`], then one row per loaded node, in load
    /// order.
    pub(super) table: NodeTable,
    /// The row of every loaded node, by SID.
    pub(super) rows: HashMap<Sid, u32, SidBuildHasher>,
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
    /// Seconds spent in [`Self::load_node`] and [`Self::load_all`], the
    /// only places a cursor touches a page.
    pub(super) load_seconds: f64,
    pub(super) degraded: bool,
    /// This conjunct's child mask of the node under expansion: the node's
    /// row.
    pub(super) mask: u32,
}

impl SignatureStore {
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
    pub(super) fn mask_bit(&self, slot: usize) -> bool {
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
        walk_path(path, self.store.m_max, |level, sid, pos| {
            let row = self.load_sid(sid, level);
            self.table.bit(row as usize, pos)
        })
    }

    /// The row of the node `sid` at `depth`, its bits brought into memory
    /// by the retrieval rule first if they are not there yet: one table
    /// lookup on a hit, the load and then one lookup per partial loaded on
    /// a miss.
    #[inline]
    pub(super) fn load_sid(&mut self, sid: Sid, depth: usize) -> u32 {
        match self.rows.get(&sid) {
            Some(&row) => row,
            None => self.load_node(sid, depth),
        }
    }

    /// Tries to bring the bits of the node `sid` at `depth` (not loaded
    /// yet) into memory by the paper's retrieval rule: the partial
    /// referenced by the root, then by deeper and deeper ancestors along
    /// the node's path. The slot positions of that path are the digits of
    /// the SID in base `M + 1`, root first, so no [`Path`] is built. Each
    /// reference is tried at most once per cursor. Returns the node's row;
    /// for a node with no bits, [`ZEROS`] — or [`ONES`] on a degraded
    /// cursor, whose bits may have been lost rather than absent.
    ///
    /// Load failures mark the cursor degraded instead of propagating; the
    /// callers then treat "no bits" as "unknown" rather than "empty". The
    /// time spent is added to `load_seconds`.
    fn load_node(&mut self, sid: Sid, depth: usize) -> u32 {
        let start = Instant::now();
        self.fetch_locators();
        let base = self.store.m_max as u64 + 1;
        let mut positions = (0..depth as u32).rev().map(|k| (sid.0 / base.pow(k) % base) as u16);
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::encode::{decode_record, encode_record};
    use crate::query::BooleanPruner;
    use crate::store::tests::{a1_signature, corrupt_pages, paths_at, store_with};
    use crate::store::{BooleanProbe, RECORD_HEADER};
    use pcube_bitmap::varint_len;
    use pcube_storage::{IoCategory, PAGE_SIZE};

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

    #[test]
    fn corrupt_partial_degrades_instead_of_panicking() {
        // Tiny pages force several partials; corrupt every signature page
        // under checksums and the cursor must degrade (prune nothing it
        // cannot prove empty) rather than panic or under-report.
        let (mut store, stats) = store_with(20);
        let sig = a1_signature();
        store.write_signature(5, &sig);
        corrupt_pages(&mut store, 1);
        let mut cursor = store.cursor(5);
        for p in paths_at(3) {
            assert!(cursor.contains(&p) || !sig.contains(&p), "no false negatives on {p}");
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
        for p in paths_at(3) {
            assert!(probe.contains(&p) || !sig.contains(&p), "no false negative on {p}");
        }
        assert!(probe.is_lossy());
        assert_eq!(probe.partials_loaded(), 0);
    }
}
