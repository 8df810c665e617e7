//! The columnar base table with a simulated heap file.

use std::cell::Cell;
use std::sync::Arc;

use pcube_storage::{IoCategory, SharedStats};

use crate::predicate::Selection;
use crate::schema::{Dictionary, Schema};

/// Rows per column chunk (power of two). Columns are append-only, so all
/// chunks but the last are frozen; sharing them via `Arc` makes cloning a
/// relation for an epoch snapshot `O(1)` and an append after a snapshot
/// re-own at most one partial chunk — never the whole column.
const CHUNK_ROWS: usize = 4096;

/// An append-only columnar vector chunked for copy-on-write sharing.
///
/// Two levels of `Arc`: the chunk spine is shared wholesale on clone (one
/// refcount bump), and each chunk is shared until a push must re-own the
/// last, partial one. Frozen (full) chunks are never copied again.
#[derive(Clone)]
struct ChunkedCol<T> {
    chunks: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
}

impl<T: Copy> ChunkedCol<T> {
    fn new() -> Self {
        ChunkedCol { chunks: Arc::new(Vec::new()), len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> T {
        self.chunks[i / CHUNK_ROWS][i % CHUNK_ROWS]
    }

    /// Opens the chunk the next `take` values go to — re-owning it if a
    /// clone shares it, starting a fresh one if the last is full — and
    /// counts them in: one unique-access check for up to a chunk of
    /// appends. The caller pushes exactly `take` values onto the returned
    /// chunk, which has room for them.
    fn open_tail(&mut self, take: usize) -> &mut Vec<T> {
        assert!(take <= CHUNK_ROWS - self.len % CHUNK_ROWS, "an append crosses a chunk");
        let chunks = Arc::make_mut(&mut self.chunks);
        if self.len.is_multiple_of(CHUNK_ROWS) {
            chunks.push(Arc::new(Vec::with_capacity(CHUNK_ROWS)));
        }
        self.len += take;
        Arc::make_mut(chunks.last_mut().expect("invariant: chunk was just ensured"))
    }

    /// Appends every value of `values`, a chunk at a time.
    fn extend(&mut self, mut values: impl ExactSizeIterator<Item = T>) {
        while values.len() > 0 {
            let take = values.len().min(CHUNK_ROWS - self.len % CHUNK_ROWS);
            self.open_tail(take).extend(values.by_ref().take(take));
        }
    }

    /// Overwrites element `i`, re-owning the spine and the one chunk that
    /// holds it if a clone still shares them.
    fn set(&mut self, i: usize, v: T) {
        let chunks = Arc::make_mut(&mut self.chunks);
        Arc::make_mut(&mut chunks[i / CHUNK_ROWS])[i % CHUNK_ROWS] = v;
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    /// Number of frozen chunks physically shared (same `Arc`) with `other`.
    fn chunks_shared_with(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .zip(other.chunks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

/// The base relation `R`: boolean columns (dictionary-encoded `u32`) and
/// preference columns (`f64`), stored column-wise, plus a *simulated heap
/// file* so tuple accesses cost I/O like the paper's:
///
/// * [`Relation::fetch`] — random access by tid, charging one
///   [`IoCategory::TupleRandomAccess`] (this is the `DBool` counter of
///   Fig 9, used by the domination-first baseline's boolean verification);
/// * [`Relation::scan`] — a full table scan charging one
///   [`IoCategory::HeapScan`] per heap page (the table-scan alternative of
///   the boolean-first baseline).
///
/// Rows are never removed — tids stay stable — so a deleted row stays in the
/// columns as a tombstone and the *live set* says which rows still exist:
/// [`Relation::scan`], [`Relation::live_bool_column`] and everything built
/// on them (the boolean indexes, the planner's catalog) see live rows only.
#[derive(Clone)]
pub struct Relation {
    /// Shared, not deep-cloned: the schema is immutable after construction
    /// and the dictionaries mutate only on string-valued appends (never on
    /// the coded maintenance path), so epoch snapshots share them via `Arc`
    /// instead of reallocating every name and value string per clone.
    schema: Arc<Schema>,
    dictionaries: Arc<Vec<Dictionary>>,
    bool_cols: Vec<ChunkedCol<u32>>,
    pref_cols: Vec<ChunkedCol<f64>>,
    /// `live[tid]` is `false` once row `tid` was deleted. Copy-on-write like
    /// the columns, so an epoch snapshot keeps the set it was taken with.
    live: ChunkedCol<bool>,
    n_live: usize,
    page_size: usize,
    stats: Option<SharedStats>,
}

impl Relation {
    /// Creates an empty relation with 4 KB heap pages.
    pub fn new(schema: Schema) -> Self {
        let nb = schema.n_bool();
        let np = schema.n_pref();
        Relation {
            schema: Arc::new(schema),
            dictionaries: Arc::new(vec![Dictionary::new(); nb]),
            bool_cols: vec![ChunkedCol::new(); nb],
            pref_cols: vec![ChunkedCol::new(); np],
            live: ChunkedCol::new(),
            n_live: 0,
            page_size: pcube_storage::PAGE_SIZE,
            stats: None,
        }
    }

    /// Attaches the shared I/O ledger that tuple accesses are charged to.
    pub fn attach_stats(&mut self, stats: SharedStats) {
        self.stats = Some(stats);
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dictionary of boolean dimension `dim`.
    pub fn dictionary(&self, dim: usize) -> &Dictionary {
        &self.dictionaries[dim]
    }

    /// Re-interns dictionary values in code order (persistence restore).
    ///
    /// # Panics
    /// Panics if the dimension's dictionary is not empty.
    pub fn restore_dictionary(&mut self, dim: usize, values: &[String]) {
        assert!(self.dictionaries[dim].is_empty(), "dictionary already populated");
        let dicts = Arc::make_mut(&mut self.dictionaries);
        for v in values {
            dicts[dim].intern(v);
        }
    }

    /// Iterates the code column of boolean dimension `dim` in tid order.
    pub fn bool_column(&self, dim: usize) -> impl Iterator<Item = u32> + '_ {
        self.bool_cols[dim].iter()
    }

    /// Iterates the coordinate column of preference dimension `dim` in tid
    /// order.
    pub fn pref_column(&self, dim: usize) -> impl Iterator<Item = f64> + '_ {
        self.pref_cols[dim].iter()
    }

    /// Number of column chunks physically shared (same allocation) with a
    /// clone of this relation, summed over all columns. Epoch-snapshot tests
    /// use this to assert that cloning is copy-on-write, not a deep copy.
    pub fn chunks_shared_with(&self, other: &Relation) -> usize {
        self.bool_cols
            .iter()
            .zip(&other.bool_cols)
            .map(|(a, b)| a.chunks_shared_with(b))
            .sum::<usize>()
            + self
                .pref_cols
                .iter()
                .zip(&other.pref_cols)
                .map(|(a, b)| a.chunks_shared_with(b))
                .sum::<usize>()
    }

    /// Number of rows ever appended, tombstones included; row ids (tids)
    /// are `0..len`.
    pub fn len(&self) -> usize {
        self.pref_cols[0].len()
    }

    /// Number of rows not deleted.
    pub fn live_len(&self) -> usize {
        self.n_live
    }

    /// `true` if row `tid` exists and was not deleted.
    pub fn is_live(&self, tid: u64) -> bool {
        (tid as usize) < self.len() && self.live.get(tid as usize)
    }

    /// Marks row `tid` deleted. Returns `false` if it is out of range or
    /// already deleted.
    pub fn mark_deleted(&mut self, tid: u64) -> bool {
        if !self.is_live(tid) {
            return false;
        }
        self.live.set(tid as usize, false);
        self.n_live -= 1;
        true
    }

    /// Replaces the live set by exactly `tids` (persistence restore: images
    /// store every row, and the R-tree's tuple set says which are live).
    /// `Err` carries the first tid that is not a row of this relation.
    pub fn restore_live(&mut self, tids: impl IntoIterator<Item = u64>) -> Result<(), u64> {
        let mut flags = vec![false; self.len()];
        let mut n_live = 0;
        for tid in tids {
            let flag = flags.get_mut(tid as usize).ok_or(tid)?;
            n_live += usize::from(!std::mem::replace(flag, true));
        }
        self.live = ChunkedCol::new();
        self.live.extend(flags.into_iter());
        self.n_live = n_live;
        Ok(())
    }

    /// `(tid, code)` of boolean dimension `dim` for every live row, in tid
    /// order.
    pub fn live_bool_column(&self, dim: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
        (0u64..)
            .zip(self.bool_cols[dim].iter().zip(self.live.iter()))
            .filter_map(|(tid, (code, live))| live.then_some((tid, code)))
    }

    /// `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `n` live rows, each written by `row` into a boolean-code and
    /// a coordinate buffer of the schema's arities, in tid order. Unique
    /// access is checked once per column per chunk of rows, and each value
    /// goes straight into its column's open chunk.
    pub fn append_rows(&mut self, n: usize, mut row: impl FnMut(&mut [u32], &mut [f64])) {
        let mut codes = vec![0u32; self.schema.n_bool()];
        let mut coords = vec![0f64; self.schema.n_pref()];
        let mut left = n;
        while left > 0 {
            let take = left.min(CHUNK_ROWS - self.len() % CHUNK_ROWS);
            let mut bool_tails: Vec<&mut Vec<u32>> =
                self.bool_cols.iter_mut().map(|col| col.open_tail(take)).collect();
            let mut pref_tails: Vec<&mut Vec<f64>> =
                self.pref_cols.iter_mut().map(|col| col.open_tail(take)).collect();
            for _ in 0..take {
                row(&mut codes, &mut coords);
                for (tail, &code) in bool_tails.iter_mut().zip(&codes) {
                    tail.push(code);
                }
                for (tail, &x) in pref_tails.iter_mut().zip(&coords) {
                    tail.push(x);
                }
            }
            left -= take;
        }
        self.live.extend(std::iter::repeat_n(true, n));
        self.n_live += n;
    }

    /// Appends a row given raw codes and coordinates; returns its tid.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push_coded(&mut self, bool_codes: &[u32], pref_coords: &[f64]) -> u64 {
        assert_eq!(bool_codes.len(), self.schema.n_bool(), "boolean arity");
        assert_eq!(pref_coords.len(), self.schema.n_pref(), "preference arity");
        self.append_rows(1, |codes, coords| {
            codes.copy_from_slice(bool_codes);
            coords.copy_from_slice(pref_coords);
        });
        (self.len() - 1) as u64
    }

    /// Appends a row with string boolean values (interned on the fly).
    pub fn push(&mut self, bool_values: &[&str], pref_coords: &[f64]) -> u64 {
        assert_eq!(bool_values.len(), self.schema.n_bool(), "boolean arity");
        let codes: Vec<u32> = bool_values
            .iter()
            .zip(Arc::make_mut(&mut self.dictionaries).iter_mut())
            .map(|(v, d)| d.intern(v))
            .collect();
        self.push_coded(&codes, pref_coords)
    }

    /// Code of boolean dimension `dim` in row `tid` (no I/O charge; use
    /// [`Relation::fetch`] when the access models a disk read).
    pub fn bool_code(&self, tid: u64, dim: usize) -> u32 {
        self.bool_cols[dim].get(tid as usize)
    }

    /// Coordinates of row `tid` on all preference dimensions.
    pub fn pref_coords(&self, tid: u64) -> Vec<f64> {
        self.pref_cols.iter().map(|c| c.get(tid as usize)).collect()
    }

    /// The live rows' tids, ascending, and their coordinates, flat and
    /// row-major: the `i`-th tid's point is `coords[i * n_pref..][..n_pref]`.
    /// This is the input of the R-tree's bulk load.
    pub fn live_points(&self) -> (Vec<u64>, Vec<f64>) {
        let dims = self.schema.n_pref();
        let tids: Vec<u64> =
            (0u64..).zip(self.live.iter()).filter_map(|(tid, live)| live.then_some(tid)).collect();
        let mut coords = vec![0f64; tids.len() * dims];
        for (d, col) in self.pref_cols.iter().enumerate() {
            let live_values =
                col.iter().zip(self.live.iter()).filter_map(|(x, live)| live.then_some(x));
            for (point, x) in coords.chunks_exact_mut(dims).zip(live_values) {
                point[d] = x;
            }
        }
        (tids, coords)
    }

    /// Value of preference dimension `dim` in row `tid`.
    pub fn pref_value(&self, tid: u64, dim: usize) -> f64 {
        self.pref_cols[dim].get(tid as usize)
    }

    /// Bytes one tuple occupies in the simulated heap file.
    pub fn tuple_bytes(&self) -> usize {
        4 * self.schema.n_bool() + 8 * self.schema.n_pref()
    }

    /// Tuples per heap page.
    pub fn tuples_per_page(&self) -> usize {
        (self.page_size / self.tuple_bytes()).max(1)
    }

    /// Heap pages the table occupies.
    pub fn heap_pages(&self) -> u64 {
        (self.len() as u64).div_ceil(self.tuples_per_page() as u64)
    }

    /// Randomly accesses row `tid`, charging one tuple random access, and
    /// returns its boolean codes. This is the paper's "randomly accessing
    /// data by tid stored in the R-tree" for boolean verification.
    pub fn fetch(&self, tid: u64) -> Vec<u32> {
        if let Some(stats) = &self.stats {
            stats.record_reads(IoCategory::TupleRandomAccess, 1);
        }
        self.bool_cols.iter().map(|c| c.get(tid as usize)).collect()
    }

    /// `true` if row `tid` satisfies the conjunctive selection (no I/O
    /// charge — pair with [`Relation::fetch`] or scan accounting).
    pub fn matches(&self, tid: u64, selection: &Selection) -> bool {
        selection.iter().all(|p| self.bool_code(tid, p.dim) == p.value)
    }

    /// Scans the whole table, charging one sequential heap-page read per
    /// [`Relation::tuples_per_page`] rows (tombstones still occupy their
    /// heap slots), yielding the live tids matching `selection`.
    pub fn scan<'a>(&'a self, selection: &'a Selection) -> impl Iterator<Item = u64> + 'a {
        let per_page = self.tuples_per_page() as u64;
        // Page accounting is per iterator, so interleaved scans each charge
        // their own page reads.
        let last_page = Cell::new(u64::MAX);
        (0..self.len() as u64).filter(move |&tid| {
            let page = tid / per_page;
            if last_page.get() != page {
                last_page.set(page);
                if let Some(stats) = &self.stats {
                    stats.record_reads(IoCategory::HeapScan, 1);
                }
            }
            self.live.get(tid as usize) && self.matches(tid, selection)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use pcube_storage::IoStats;

    fn sample() -> Relation {
        // The paper's Table I: A, B boolean; X, Y preference.
        let mut r = Relation::new(Schema::new(&["A", "B"], &["X", "Y"]));
        let rows = [
            ("a1", "b1", 0.00, 0.40),
            ("a2", "b2", 0.20, 0.60),
            ("a1", "b1", 0.30, 0.70),
            ("a3", "b3", 0.50, 0.40),
            ("a4", "b1", 0.60, 0.00),
            ("a2", "b3", 0.72, 0.30),
            ("a4", "b2", 0.72, 0.36),
            ("a3", "b3", 0.85, 0.62),
        ];
        for (a, b, x, y) in rows {
            r.push(&[a, b], &[x, y]);
        }
        r
    }

    #[test]
    fn push_and_read_back() {
        let r = sample();
        assert_eq!(r.len(), 8);
        assert_eq!(r.pref_coords(0), vec![0.00, 0.40]);
        assert_eq!(r.pref_value(5, 0), 0.72);
        // a1 interned first -> code 0; t3 (tid 2) is also a1.
        assert_eq!(r.bool_code(2, 0), 0);
        assert_eq!(r.dictionary(0).value(0), Some("a1"));
        assert_eq!(r.dictionary(0).len(), 4);
        assert_eq!(r.dictionary(1).len(), 3);
    }

    #[test]
    fn selection_matching() {
        let r = sample();
        let a1 = r.dictionary(0).code("a1").unwrap();
        let b1 = r.dictionary(1).code("b1").unwrap();
        let sel: Selection = vec![Predicate { dim: 0, value: a1 }, Predicate { dim: 1, value: b1 }];
        let matches: Vec<u64> = (0..8).filter(|&t| r.matches(t, &sel)).collect();
        assert_eq!(matches, vec![0, 2]); // t1 and t3 in paper numbering
    }

    #[test]
    fn fetch_charges_random_access() {
        let mut r = sample();
        let stats = IoStats::new_shared();
        r.attach_stats(stats.clone());
        let codes = r.fetch(3);
        assert_eq!(codes.len(), 2);
        assert_eq!(stats.reads(IoCategory::TupleRandomAccess), 1);
        r.fetch(4);
        assert_eq!(stats.reads(IoCategory::TupleRandomAccess), 2);
    }

    #[test]
    fn scan_charges_per_heap_page() {
        let mut r = Relation::new(Schema::new(&["A"], &["X"]));
        for i in 0..5000 {
            r.push_coded(&[i % 10], &[i as f64]);
        }
        let stats = IoStats::new_shared();
        r.attach_stats(stats.clone());
        let sel: Selection = vec![Predicate { dim: 0, value: 3 }];
        let hits = r.scan(&sel).count();
        assert_eq!(hits, 500);
        assert_eq!(stats.reads(IoCategory::HeapScan), r.heap_pages());
        assert!(r.heap_pages() < 5000 / 100, "pages should batch many tuples");
    }

    #[test]
    fn deleted_rows_leave_scans_but_keep_their_tid_and_their_heap_slot() {
        let mut r = sample();
        let stats = IoStats::new_shared();
        r.attach_stats(stats.clone());
        let snap = r.clone();
        assert!(r.mark_deleted(2));
        assert!(!r.mark_deleted(2), "already deleted");
        assert!(!r.mark_deleted(8), "out of range");
        assert_eq!((r.len(), r.live_len()), (8, 7));
        assert!(!r.is_live(2) && r.is_live(0) && !r.is_live(8));
        let a1: Selection = vec![Predicate { dim: 0, value: 0 }];
        assert_eq!(r.scan(&a1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(stats.reads(IoCategory::HeapScan), r.heap_pages());
        let a_codes: Vec<(u64, u32)> = r.live_bool_column(0).collect();
        assert_eq!(a_codes.len(), 7);
        assert!(a_codes.iter().all(|&(tid, code)| tid != 2 && code == r.bool_code(tid, 0)));
        // The clone taken before the delete keeps its own live set.
        assert_eq!(snap.scan(&a1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(snap.live_len(), 8);
        // An append after a delete is live; the tombstone stays dead.
        assert_eq!(r.push(&["a1", "b1"], &[0.1, 0.1]), 8);
        assert_eq!(r.scan(&a1).collect::<Vec<_>>(), vec![0, 8]);

        // Persistence restore: the live set is whatever the caller lists.
        r.restore_live([0, 8, 5, 5]).expect("tids in range");
        assert_eq!(r.live_len(), 3);
        assert_eq!(r.live_bool_column(1).map(|(t, _)| t).collect::<Vec<_>>(), vec![0, 5, 8]);
        assert_eq!(r.restore_live([1, 9]), Err(9));
    }

    #[test]
    fn clone_shares_chunks_and_append_reowns_only_the_tail() {
        let mut r = Relation::new(Schema::new(&["A"], &["X"]));
        // 2.5 chunks worth of rows: two frozen chunks + one partial.
        let n = CHUNK_ROWS * 2 + CHUNK_ROWS / 2;
        for i in 0..n {
            r.push_coded(&[i as u32 % 7], &[i as f64]);
        }
        let snap = r.clone();
        // 1 bool + 1 pref column, 3 chunks each, all shared right after clone.
        assert_eq!(r.chunks_shared_with(&snap), 6);
        r.push_coded(&[1], &[1.0]);
        // Only the partial tail chunk of each column was re-owned.
        assert_eq!(r.chunks_shared_with(&snap), 4);
        // The snapshot is unaffected by the append.
        assert_eq!(snap.len(), n);
        assert_eq!(r.len(), n + 1);
        assert_eq!(snap.pref_value((n - 1) as u64, 0), (n - 1) as f64);
        assert_eq!(r.pref_value(n as u64, 0), 1.0);
        // Reads across chunk boundaries agree with the iterator view.
        let from_iter: Vec<f64> = r.pref_column(0).collect();
        assert_eq!(from_iter.len(), n + 1);
        assert_eq!(from_iter[CHUNK_ROWS], CHUNK_ROWS as f64);
        assert_eq!(r.pref_value(CHUNK_ROWS as u64, 0), CHUNK_ROWS as f64);
    }

    #[test]
    fn heap_geometry() {
        let r = sample();
        // 2 bool (4B) + 2 pref (8B) = 24 bytes per tuple.
        assert_eq!(r.tuple_bytes(), 24);
        assert_eq!(r.tuples_per_page(), 4096 / 24);
        assert_eq!(r.heap_pages(), 1);
    }
}
