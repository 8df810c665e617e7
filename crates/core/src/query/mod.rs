//! Query processing using the P-Cube (§V): the progressive, signature-guided
//! branch-and-bound framework of Algorithm 1. One kernel ([`kernel`]), one
//! driver around it — a serial run is a fan-out of one worker, and
//! [`ParallelOptions`] carries the worker count, the [`QueryBudget`] and
//! the [`CancelToken`] — and one registration per query class ([`class`]):
//! top-k, the skyline family ([`skyline`]: one class body over four
//! dominance spaces) and convex hulls differ only in the class handed to
//! the driver. The incremental drill-down / roll-up execution of
//! §V-C is the driver restarted from a [`SavedState`].

pub mod budget;
pub mod class;
mod driver;
mod hull;
pub mod kernel;
pub mod skyline;

pub use budget::{CancelToken, Governor, Progress, QueryBudget, QueryOutcome, StopReason};
pub use class::{
    run_class_engine, ClassOutcome, Engine, HullClass, QueryClass, SavedState, TopKClass,
};
pub use crate::boolean_index::IndexMergePruner;
pub use kernel::{
    run_kernel, BooleanPruner, KernelRun, PopVerdict, PreferenceLogic, Region, VerifyAllPruner,
};
pub(crate) use driver::check_schema;
pub use driver::ParallelOptions;
pub use skyline::{
    DynamicSkylineClass, PSkylineClass, PriorityGraph, PriorityGraphError, SkyPoint,
    SkylineClass, SubspaceSkylineClass, Window,
};

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pcube_rtree::{Mbr, NodeView, Path, RTree};
use pcube_storage::{IoSnapshot, PageId};

/// Wall-clock seconds of one query split by pipeline stage. Sums across
/// parallel workers, so under concurrency the stage totals may exceed the
/// query's elapsed wall time — they measure *where the work went*, not the
/// critical path. `serve_bench` aggregates these per thread count to show
/// which stage stops scaling first.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// Probe construction and snapshot pinning before the kernel loop runs.
    pub pin_seconds: f64,
    /// Page touches: R-tree node reads, timed by the kernel around each
    /// read, plus the boolean pruner's own timed loads over the run (its
    /// `load_seconds`: the probe's partial-signature loads, index-merge's
    /// B+-tree probes) — every stretch that reads a pager's pages, and so
    /// can wait under `Pager::set_read_delay`. A base-table verify fetch
    /// reads the in-memory relation and counts to `score`. Boolean-first
    /// adds its selection.
    pub page_read_seconds: f64,
    /// The rest of the kernel run, computed once as its elapsed time less
    /// `page_read_seconds`: heap pops, governor checks, scoring,
    /// dominance/bound pruning, accumulation, the probe's walks, subtree
    /// checks and bit tests outside its loads, in-place decode, heap
    /// pushes and the release of spent slots — so the four stages of a
    /// serial run sum to its `cpu_seconds`.
    pub score_seconds: f64,
    /// Result canonicalization and (for parallel engines) the cross-worker
    /// merge.
    pub merge_seconds: f64,
}

impl StageTimes {
    /// Accumulates `other` into `self` (used to sum worker stages).
    pub fn add(&mut self, other: &StageTimes) {
        self.pin_seconds += other.pin_seconds;
        self.page_read_seconds += other.page_read_seconds;
        self.score_seconds += other.score_seconds;
        self.merge_seconds += other.merge_seconds;
    }

    /// Total seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.pin_seconds + self.page_read_seconds + self.score_seconds + self.merge_seconds
    }
}

/// Per-query execution metrics, matching the measurements in §VI.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// R-tree nodes expanded (each one a counted block retrieval).
    pub nodes_expanded: u64,
    /// Maximum candidate-heap size (Fig 10's memory metric).
    pub peak_heap: usize,
    /// Partial signatures loaded (the `SSig` series of Fig 9).
    pub partials_loaded: u64,
    /// Children of expanded nodes decoded, scored and preference-tested.
    pub children_tested: u64,
    /// Children of expanded nodes the boolean pruner ruled out before they
    /// were decoded.
    pub children_ruled_out: u64,
    /// Counted I/O performed by the query (all categories).
    pub io: IoSnapshot,
    /// Wall-clock seconds of CPU work (the in-memory part).
    pub cpu_seconds: f64,
    /// Wall time split by stage (pin / page-read / score / merge); worker
    /// stages are summed for parallel queries.
    pub stages: StageTimes,
    /// The planner's decision and per-engine cost estimates, when the query
    /// was dispatched through [`crate::plan::Planner`] (`None` for direct
    /// engine calls).
    pub plan: Option<crate::plan::PlanDecision>,
    /// Whether the query ran to completion or was cut short by its
    /// [`QueryBudget`] / a [`CancelToken`] (always
    /// [`QueryOutcome::Complete`] for ungoverned queries).
    pub outcome: QueryOutcome,
}

/// One accepted result of a branch-and-bound search — shared by every
/// engine's accumulation logic ([`kernel::PreferenceLogic`] implementors).
#[derive(Debug, Clone)]
pub(crate) struct ResultEntry {
    pub(crate) tid: u64,
    pub(crate) coords: Vec<f64>,
    pub(crate) score: f64,
}

/// A candidate in the branch-and-bound search: an R-tree node or a tuple.
#[derive(Debug, Clone)]
pub enum Candidate {
    /// An R-tree node (internal or leaf) awaiting expansion.
    Node {
        /// Page of the node.
        pid: PageId,
        /// Path of the node from the root.
        path: Path,
        /// The node's bounding rectangle.
        mbr: Mbr,
    },
    /// A data tuple awaiting result/prune classification.
    Tuple {
        /// Tuple id.
        tid: u64,
        /// Full tuple path (leaf path + slot).
        path: Path,
        /// Preference coordinates.
        coords: Vec<f64>,
    },
}

impl Candidate {
    /// The candidate's path (used for signature probes).
    pub fn path(&self) -> &Path {
        match self {
            Candidate::Node { path, .. } | Candidate::Tuple { path, .. } => path,
        }
    }

    /// The candidate's geometry, borrowed (what preference pruning tests).
    pub fn region(&self) -> kernel::Region<'_> {
        match self {
            Candidate::Node { mbr, .. } => kernel::Region::Box(mbr),
            Candidate::Tuple { coords, .. } => kernel::Region::Point(coords),
        }
    }
}

/// A scored candidate, owned: what the kernel pops into — one entry per
/// run, its vectors cleared and refilled at every pop
/// ([`CandidateHeap::pop_into`]) — and the root a fan-out checks before it
/// reads anything. Everything queued or saved lives in the heap's slab; the
/// order the heap pops in is defined on its keys, not here.
#[derive(Debug, Clone)]
pub struct HeapEntry {
    /// The ordering key (`d(n)` for skylines, `f(n)` for top-k).
    pub score: f64,
    /// The node or tuple itself.
    pub cand: Candidate,
}

impl HeapEntry {
    /// An entry for [`CandidateHeap::pop_into`] to fill; allocates nothing.
    pub fn scratch() -> Self {
        HeapEntry { score: 0.0, cand: EMPTY }
    }
}

/// What the heap orders: a queued candidate's score and tie key, and the
/// slab slot that holds the rest of it — 32 bytes of plain data, so a sift
/// moves no value that owns memory. Lower scores pop first; ties break by
/// a traversal-independent key so pop order — and therefore result order
/// at score ties — is reproducible and identical between the serial and
/// the parallel engines.
///
/// The tie-break is: **nodes before tuples** (a node whose lower bound
/// equals a tuple's score may still contain an equal-scored tuple with a
/// smaller tid, so it must be expanded first for the canonical choice),
/// then ascending tid (tuples) / page id (nodes), then `seq` as a final
/// fallback: a push numbers its key after every key pushed before, a child
/// saved to a list unpopped has 0, and a restart numbers the old results
/// afresh in accept order. Parallel workers merge their local results by
/// the same `(score, tid)` key, which is why ties at the k-th top-k score
/// resolve identically no matter how the search was partitioned. Scores
/// compare by `partial_cmp`, so `-0.0` ties with `0.0`.
#[derive(Debug, Clone, Copy)]
struct Key {
    score: f64,
    /// Page id of a node, tid of a tuple.
    id: u64,
    seq: u64,
    slot: u32,
    /// [`NODE`] or [`TUPLE`].
    kind: u8,
}

/// [`Key::kind`] of an R-tree node: it sorts ahead of a tuple.
const NODE: u8 = 0;
/// [`Key::kind`] of a tuple.
const TUPLE: u8 = 1;

/// The [`Key::kind`] of a candidate with this geometry: a box is a node's,
/// a point a tuple's.
#[inline]
fn kind(region: &kernel::Region<'_>) -> u8 {
    match region {
        kernel::Region::Box(_) => NODE,
        kernel::Region::Point(_) => TUPLE,
    }
}

impl Key {
    /// The deterministic tie-break key: `(kind, id, seq)`.
    #[inline]
    fn tie(&self) -> (u8, u64, u64) {
        (self.kind, self.id, self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min score (then
        // the min tie key) on top.
        other
            .score
            .partial_cmp(&self.score)
            .expect("scores must not be NaN")
            .then_with(|| other.tie().cmp(&self.tie()))
    }
}

/// Everything of a queued candidate but its key, one slot each at fixed
/// strides: the path positions in a flat `u16` run (`path_stride` a slot,
/// the first `depths[slot]` used) and the coordinates — or the lower then
/// the upper MBR corner — in a flat `f64` run (`2·dims` a slot). A slot is
/// recycled through `free` once its entry is popped and spent; one saved
/// to a list or accepted by a resumable run stays.
#[derive(Debug)]
struct Slab {
    depths: Vec<u16>,
    paths: Vec<u16>,
    geometry: Vec<f64>,
    free: Vec<u32>,
    path_stride: usize,
    dims: usize,
}

impl Slab {
    /// Room for `slots` candidates with paths of up to `path_stride`
    /// positions in `dims` dimensions.
    fn with_shape(slots: usize, path_stride: usize, dims: usize) -> Self {
        Slab {
            depths: Vec::with_capacity(slots),
            paths: Vec::with_capacity(slots * path_stride),
            geometry: Vec::with_capacity(slots * 2 * dims),
            free: Vec::with_capacity(slots),
            path_stride,
            dims,
        }
    }

    /// Lays the slots out again for a path of `depth` positions, longer
    /// than any the slab was shaped for (a saved state restarted on a tree
    /// grown taller since).
    #[cold]
    fn reshape(&mut self, depth: usize) {
        let mut paths = vec![0; self.depths.len() * depth];
        for slot in 0..self.depths.len() {
            let old = &self.paths[slot * self.path_stride..][..self.path_stride];
            paths[slot * depth..][..old.len()].copy_from_slice(old);
        }
        self.paths = paths;
        self.path_stride = depth;
    }

    /// A free slot, appending one if none is.
    #[inline]
    fn alloc(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            return slot as usize;
        }
        let slot = self.depths.len();
        self.depths.push(0);
        self.paths.resize(self.paths.len() + self.path_stride, 0);
        self.geometry.resize(self.geometry.len() + 2 * self.dims, 0.0);
        slot
    }

    /// Stores `parent` extended by `last` (if any) and `region` in a free
    /// slot and returns it.
    #[inline]
    fn store(&mut self, parent: &[u16], last: Option<u16>, region: kernel::Region<'_>) -> u32 {
        let depth = parent.len() + usize::from(last.is_some());
        if depth > self.path_stride {
            self.reshape(depth);
        }
        let dims = self.dims;
        let slot = self.alloc();
        self.depths[slot] = u16::try_from(depth).expect("a path is shorter than 2^16");
        // One select per position: a copy of `parent` and a store of `last`
        // compile to a `memcpy` call, which costs more than these few
        // positions.
        let last = last.unwrap_or(0);
        let path = &mut self.paths[slot * self.path_stride..][..depth];
        for (i, position) in path.iter_mut().enumerate() {
            *position = parent.get(i).copied().unwrap_or(last);
        }
        let geometry = &mut self.geometry[slot * 2 * dims..][..2 * dims];
        match region {
            kernel::Region::Point(coords) => {
                debug_assert_eq!(coords.len(), dims, "a candidate of another dimensionality");
                copy(&mut geometry[..dims], coords);
            }
            kernel::Region::Box(mbr) => {
                debug_assert_eq!(mbr.min.len(), dims, "a candidate of another dimensionality");
                copy(&mut geometry[..dims], &mbr.min);
                copy(&mut geometry[dims..], &mbr.max);
            }
        }
        u32::try_from(slot).expect("fewer than 2^32 queued candidates")
    }

    /// The path of `slot`.
    #[inline]
    fn path(&self, slot: usize) -> &[u16] {
        &self.paths[slot * self.path_stride..][..usize::from(self.depths[slot])]
    }

    /// The lower and upper corner of the box in `slot`; a tuple's
    /// coordinates are the first.
    #[inline]
    fn corners(&self, slot: usize) -> (&[f64], &[f64]) {
        self.geometry[slot * 2 * self.dims..][..2 * self.dims].split_at(self.dims)
    }

    /// Refills `cand` with the candidate `key` names, reusing its vectors
    /// (and `spare`, the upper corner a tuple has no use for).
    #[inline]
    fn read_into(&self, key: &Key, cand: &mut Candidate, spare: &mut Vec<f64>) {
        let slot = key.slot as usize;
        let (mut path, mut first, mut second) = match std::mem::replace(cand, EMPTY) {
            Candidate::Node { path, mbr, .. } => (path.0, mbr.min, mbr.max),
            Candidate::Tuple { path, coords, .. } => (path.0, coords, std::mem::take(spare)),
        };
        let (min, max) = self.corners(slot);
        refill(&mut path, self.path(slot));
        refill(&mut first, min);
        *cand = if key.kind == NODE {
            refill(&mut second, max);
                Candidate::Node { pid: page(key.id), path: Path(path), mbr: Mbr { min: first, max: second } }
        } else {
            *spare = second;
            Candidate::Tuple { tid: key.id, path: Path(path), coords: first }
        };
    }
}

/// The page a node's `u64` id names.
#[inline]
pub(crate) fn page(id: u64) -> PageId {
    PageId(u32::try_from(id).expect("a node's id is its page id"))
}

/// A tuple with no path and no coordinates: what [`HeapEntry::scratch`]
/// starts from, and what [`Slab::read_into`] leaves in a candidate while it
/// takes its vectors. Allocates nothing.
const EMPTY: Candidate = Candidate::Tuple { tid: 0, path: Path(Vec::new()), coords: Vec::new() };

/// `dst = src`, element by element, for the few coordinates of one
/// candidate. Always inlined: under a plain `#[inline]` a change elsewhere
/// in the crate was enough for `Slab::store`'s two coordinate copies to
/// become `memcpy` calls.
#[inline(always)]
fn copy<T: Copy>(dst: &mut [T], src: &[T]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s;
    }
}

/// Clears `dst` and refills it with `src`; no allocation once `dst` has
/// grown to `src`'s length.
#[inline]
fn refill<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    dst.extend(src.iter().copied());
}

/// The candidate heap of Algorithm 1, with peak-size tracking (Fig 10): a
/// binary heap of small plain keys over one slab that holds the paths and
/// geometry of the queued candidates. A push writes into a recycled slot
/// and a pop copies out of it, so the loop allocates nothing per entry
/// once the slab has grown to the frontier.
///
/// A resumable heap ([`Self::resumable`]) also keeps the `b_list`, the
/// `d_list` and the accepted tuples of its run as keys over the same slab
/// (§V-C): a drill-down or roll-up queues `result ∪ list` again in place,
/// and nothing is built owned or copied.
#[derive(Debug)]
pub struct CandidateHeap {
    keys: BinaryHeap<Key>,
    slab: Slab,
    /// What a popped tuple leaves of a reused node's vectors.
    spare: Vec<f64>,
    /// The key popped last: its slot is held until the kernel saves or
    /// releases the entry.
    popped: Option<Key>,
    /// The saved keys of a resumable run, indexed by [`List`].
    lists: Option<[Vec<Key>; 3]>,
    peak: usize,
    seq: u64,
}

/// Where a resumable run keeps an entry it does not queue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum List {
    /// Pruned by boolean predicates (kept for roll-up).
    B,
    /// Pruned by preference, or left queued by an early halt (kept for
    /// drill-down).
    D,
    /// Accepted: the run's result, queued again by every restart.
    Result,
}

impl CandidateHeap {
    /// An empty heap laid out for `tree`: paths of up to the tree's height
    /// (a tuple's path has exactly that many positions), `2·dims`
    /// coordinates a slot, and room for one node's children — a selective
    /// query's whole frontier — before anything grows.
    pub fn for_tree(tree: &RTree) -> Self {
        CandidateHeap::with_shape(tree.m_max(), tree.height(), tree.dims())
    }

    /// [`Self::for_tree`], keeping the `b_list`, the `d_list` and the
    /// accepted tuples of the run over it, for a later restart (§V-C).
    pub fn resumable(tree: &RTree) -> Self {
        CandidateHeap { lists: Some(Default::default()), ..CandidateHeap::for_tree(tree) }
    }

    /// An empty heap with room for `slots` candidates with paths of up to
    /// `path_stride` positions in `dims` dimensions.
    fn with_shape(slots: usize, path_stride: usize, dims: usize) -> Self {
        CandidateHeap {
            keys: BinaryHeap::with_capacity(slots),
            slab: Slab::with_shape(slots, path_stride, dims),
            spare: Vec::with_capacity(dims),
            popped: None,
            lists: None,
            peak: 0,
            seq: 0,
        }
    }

    /// Stores a candidate — its path `parent` extended by `last` (if any),
    /// its geometry `region` — in the slab and returns its key, `seq` 0.
    #[inline]
    fn key(
        &mut self,
        score: f64,
        id: u64,
        parent: &[u16],
        last: Option<u16>,
        region: kernel::Region<'_>,
    ) -> Key {
        let kind = kind(&region);
        let slot = self.slab.store(parent, last, region);
        Key { score, id, seq: 0, slot, kind }
    }

    /// `key`, numbered after every key queued before.
    #[inline]
    fn numbered(&mut self, key: Key) -> Key {
        self.seq += 1;
        Key { seq: self.seq, ..key }
    }

    /// Queues `key`, numbered after every key queued before.
    #[inline]
    fn queue(&mut self, key: Key) {
        let key = self.numbered(key);
        self.keys.push(key);
        self.peak = self.peak.max(self.keys.len());
    }

    /// Makes `keys` — the queued ones and a batch of seeds — the heap,
    /// restoring its order once, in O(n). Keys are distinct, so the pop
    /// order is that of pushing them one by one.
    fn heapify(&mut self, keys: Vec<Key>) {
        self.keys = BinaryHeap::from(keys);
        self.peak = self.peak.max(self.keys.len());
    }

    /// Saves `key` to `list` in a resumable heap; elsewhere its slot is
    /// released.
    #[inline]
    fn save(&mut self, list: List, key: Key) {
        match &mut self.lists {
            Some(lists) => lists[list as usize].push(key),
            None => self.slab.free.push(key.slot),
        }
    }

    /// Queues the R-tree root of `tree` with an un-dominatable MBR and the
    /// smallest possible score, so it always pops first and is never pruned.
    pub fn push_root(&mut self, tree: &RTree) {
        let (id, mbr) = (u64::from(tree.root_pid().0), root_mbr(tree.dims()));
        let key = self.key(f64::NEG_INFINITY, id, &[], None, kernel::Region::Box(&mbr));
        self.queue(key);
    }

    /// Queues the `(tid, coordinates)` a boolean-first selection returned,
    /// in order, each with no path and scored by `logic`.
    pub(crate) fn push_tuples(
        &mut self,
        tuples: Vec<(u64, Vec<f64>)>,
        logic: &mut dyn kernel::PreferenceLogic,
    ) {
        let mut keys = std::mem::take(&mut self.keys).into_vec();
        for (tid, coords) in tuples {
            let score = logic.score_tuple(&coords);
            let key = self.key(score, tid, &[], None, kernel::Region::Point(&coords));
            keys.push(self.numbered(key));
        }
        self.heapify(keys);
    }

    /// The child in `slot` of `node`, whose parent's path is `parent` and
    /// whose geometry `region` the kernel has just read from the view
    /// ([`kernel::score_child`]): its id is the tid of a tuple or the page
    /// of a node, its path the parent's plus its 1-based position. Queued
    /// if `saved` is `None`, else saved to that list unpopped (`seq` 0). The
    /// one rule by which a slot becomes a candidate.
    #[inline]
    pub(crate) fn push_child(
        &mut self,
        saved: Option<List>,
        score: f64,
        node: &NodeView<'_>,
        slot: usize,
        parent: &Path,
        region: kernel::Region<'_>,
    ) {
        let id = match region {
            kernel::Region::Point(_) => node.tid(slot),
            kernel::Region::Box(_) => u64::from(node.child(slot).0),
        };
        let key = self.key(score, id, &parent.0, Some(slot as u16 + 1), region);
        match saved {
            None => self.queue(key),
            Some(list) => self.save(list, key),
        }
    }

    /// Pops the minimum-score entry into `out`, reusing its vectors;
    /// `false` if the heap is empty. Its slot is held until the kernel
    /// saves the entry to a list or releases it — at the latest by the next
    /// pop.
    #[inline]
    pub fn pop_into(&mut self, out: &mut HeapEntry) -> bool {
        self.release_popped();
        let Some(key) = self.keys.pop() else { return false };
        out.score = key.score;
        self.slab.read_into(&key, &mut out.cand, &mut self.spare);
        self.popped = Some(key);
        true
    }

    /// Releases the slot of the entry popped last.
    #[inline]
    pub(crate) fn release_popped(&mut self) {
        if let Some(key) = self.popped.take() {
            self.slab.free.push(key.slot);
        }
    }

    /// Saves the entry popped last to `list` — keeping its `seq` — in a
    /// resumable heap; elsewhere releases its slot.
    #[inline]
    pub(crate) fn save_popped(&mut self, list: List) {
        if let Some(key) = self.popped.take() {
            self.save(list, key);
        }
    }

    /// An early halt (§V-B) or a governed stop: a resumable heap saves the
    /// entry popped last and every queued one to the `d_list`; elsewhere
    /// the frontier stays queued.
    pub(crate) fn halt(&mut self) {
        if let Some(lists) = &mut self.lists {
            lists[List::D as usize].extend(self.popped.take());
            lists[List::D as usize].extend(self.keys.drain());
        }
    }

    /// `true` if the heap keeps the lists of its run.
    pub(crate) fn is_resumable(&self) -> bool {
        self.lists.is_some()
    }

    /// Queues `result ∪ list` of the resumable run over this heap again, in
    /// place (Lemma 2): the results numbered afresh in accept order, then
    /// the list's keys as they were saved. The other list is kept; the
    /// numbering and the high water start over.
    ///
    /// # Panics
    /// Panics if the heap keeps no lists.
    pub(crate) fn resume(&mut self, list: List) {
        let mut lists = self.lists.take().expect("a resumable heap");
        let mut keys = std::mem::take(&mut self.keys).into_vec();
        (self.seq, self.peak) = (0, 0);
        for key in lists[List::Result as usize].drain(..) {
            keys.push(self.numbered(key));
        }
        keys.append(&mut lists[list as usize]);
        self.lists = Some(lists);
        self.heapify(keys);
    }

    /// Entries saved to the `b_list` (0 for a heap keeping no lists).
    pub fn b_list_len(&self) -> usize {
        self.list(List::B).len()
    }

    /// Entries saved to the `d_list` (0 for a heap keeping no lists).
    pub fn d_list_len(&self) -> usize {
        self.list(List::D).len()
    }

    /// The keys saved to `list`; none for a heap keeping no lists.
    fn list(&self, list: List) -> &[Key] {
        self.lists.as_ref().map_or(&[], |lists| &lists[list as usize])
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no candidates remain.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Largest number of entries the heap ever held at once — the memory
    /// metric of Fig 10 (`peak_heap` in [`QueryStats`]). This is a
    /// high-water mark over the whole search, not the current [`len`].
    ///
    /// [`len`]: CandidateHeap::len
    pub fn peak_size(&self) -> usize {
        self.peak
    }
}

/// The box of the root entry: `-∞` to `+∞` on every dimension.
fn root_mbr(dims: usize) -> Mbr {
    Mbr { min: vec![f64::NEG_INFINITY; dims], max: vec![f64::INFINITY; dims] }
}

/// The root entry of [`CandidateHeap::push_root`], owned: what a fan-out
/// asks the class's pop check about before it reads anything.
pub(crate) fn root_entry(db: &crate::pcube::PCubeDb) -> HeapEntry {
    let mbr = root_mbr(db.rtree().dims());
    let cand = Candidate::Node { pid: db.rtree().root_pid(), path: Path::root(), mbr };
    HeapEntry { score: f64::NEG_INFINITY, cand }
}

/// `true` if `a` dominates `b` on the given dimensions: `a ≤ b` everywhere
/// and `a < b` somewhere (§I's definition, restricted to `dims`).
pub fn dominates(a: &[f64], b: &[f64], dims: &[usize]) -> bool {
    let mut strict = false;
    for &d in dims {
        if a[d] > b[d] {
            return false;
        }
        if a[d] < b[d] {
            strict = true;
        }
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tuple(tid: u64) -> Candidate {
        Candidate::Tuple { tid, path: Path::root(), coords: vec![] }
    }

    /// A tuple of id 0 told apart by its one path position.
    fn marked(position: u16) -> Candidate {
        Candidate::Tuple { tid: 0, path: Path(vec![position]), coords: vec![] }
    }

    fn pop(h: &mut CandidateHeap) -> Option<HeapEntry> {
        let mut out = HeapEntry::scratch();
        h.pop_into(&mut out).then_some(out)
    }

    /// `cand` stored in `h`'s slab, as every push and save stores one; its
    /// key, `seq` 0.
    fn stored(h: &mut CandidateHeap, score: f64, cand: &Candidate) -> Key {
        let id = match cand {
            Candidate::Node { pid, .. } => u64::from(pid.0),
            Candidate::Tuple { tid, .. } => *tid,
        };
        h.key(score, id, &cand.path().0, None, cand.region())
    }

    /// Queues `cand` as every push does.
    fn push(h: &mut CandidateHeap, score: f64, cand: &Candidate) {
        let key = stored(h, score, cand);
        h.queue(key);
    }

    /// Saves `cand` to `list` of a resumable `h` with `seq`.
    fn save(h: &mut CandidateHeap, list: List, score: f64, seq: u64, cand: &Candidate) {
        let key = stored(h, score, cand);
        h.save(list, Key { seq, ..key });
    }

    /// A resumable heap of the given shape.
    fn resumable(slots: usize, path_stride: usize, dims: usize) -> CandidateHeap {
        let heap = CandidateHeap::with_shape(slots, path_stride, dims);
        CandidateHeap { lists: Some(Default::default()), ..heap }
    }

    #[test]
    fn heap_pops_minimum_score_first() {
        let mut h = CandidateHeap::with_shape(0, 0, 0);
        for s in [0.5, 0.1, 0.9, 0.3] {
            push(&mut h, s, &tuple(0));
        }
        let order: Vec<f64> = std::iter::from_fn(|| pop(&mut h).map(|e| e.score)).collect();
        assert_eq!(order, vec![0.1, 0.3, 0.5, 0.9]);
    }

    #[test]
    fn a_restart_numbers_the_results_afresh_ahead_of_the_saved_seqs() {
        let mut h = resumable(0, 1, 0);
        save(&mut h, List::Result, 1.0, 99, &marked(7));
        save(&mut h, List::Result, 1.0, 98, &marked(8));
        save(&mut h, List::D, 1.0, 4, &marked(5));
        save(&mut h, List::D, 1.0, 3, &marked(6));
        save(&mut h, List::B, 1.0, 1, &marked(9));
        h.resume(List::D);
        let order: Vec<String> =
            std::iter::from_fn(|| pop(&mut h).map(|e| format!("{:?}", e.cand.path()))).collect();
        assert_eq!(order, ["Path([7])", "Path([8])", "Path([6])", "Path([5])"]);
        assert_eq!([List::B, List::D, List::Result].map(|l| h.list(l).len()), [1, 0, 0]);
        assert_eq!(h.peak_size(), 4);
    }

    #[test]
    fn peak_tracks_maximum_occupancy() {
        let mut h = CandidateHeap::with_shape(0, 0, 0);
        for s in 0..5 {
            push(&mut h, s as f64, &tuple(0));
        }
        pop(&mut h);
        pop(&mut h);
        assert_eq!(h.len(), 3);
        assert_eq!(h.peak_size(), 5);
    }

    #[test]
    fn a_key_is_32_bytes_of_plain_data() {
        assert_eq!(std::mem::size_of::<Key>(), 32);
    }

    #[test]
    #[should_panic(expected = "scores must not be NaN")]
    fn a_nan_score_panics() {
        let mut h = CandidateHeap::with_shape(0, 0, 0);
        push(&mut h, 1.0, &tuple(0));
        push(&mut h, f64::NAN, &tuple(1));
    }

    /// The order the heap had when it queued owned entries, kept here as
    /// the reference the keys are checked against.
    struct Reference {
        entry: HeapEntry,
        seq: u64,
    }

    impl Reference {
        fn tie_key(&self) -> (u8, u64, u64) {
            match &self.entry.cand {
                Candidate::Node { pid, .. } => (0, u64::from(pid.0), self.seq),
                Candidate::Tuple { tid, .. } => (1, *tid, self.seq),
            }
        }
    }

    impl PartialEq for Reference {
        fn eq(&self, other: &Self) -> bool {
            self.entry.score == other.entry.score && self.tie_key() == other.tie_key()
        }
    }
    impl Eq for Reference {}
    impl PartialOrd for Reference {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Reference {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .entry
                .score
                .partial_cmp(&self.entry.score)
                .expect("scores must not be NaN")
                .then_with(|| other.tie_key().cmp(&self.tie_key()))
        }
    }

    /// The reference heap: owned entries pushed one by one.
    #[derive(Default)]
    struct ReferenceHeap {
        heap: BinaryHeap<Reference>,
        peak: usize,
        seq: u64,
    }

    impl ReferenceHeap {
        fn push(&mut self, score: f64, cand: Candidate) {
            self.seq += 1;
            self.push_entry(HeapEntry { score, cand }, self.seq);
        }

        fn push_entry(&mut self, entry: HeapEntry, seq: u64) {
            self.heap.push(Reference { entry, seq });
            self.peak = self.peak.max(self.heap.len());
        }
    }

    const DIMS: usize = 2;

    /// A random candidate: a node or a tuple with an id below 6 (so a node
    /// and a tuple often share one), a path of up to three positions.
    fn candidate(rng: &mut StdRng, id: u64) -> Candidate {
        let depth = rng.gen_range(0..=3);
        let path = Path((0..depth).map(|_| rng.gen_range(1..=9)).collect());
        let node = rng.gen_bool(0.5);
        let mut point = || (0..DIMS).map(|_| rng.gen_range(-4..=4) as f64 / 2.0).collect::<Vec<_>>();
        if node {
            let (min, max) = (point(), point());
            Candidate::Node { pid: PageId(id as u32), path, mbr: Mbr { min, max } }
        } else {
            Candidate::Tuple { tid: id, path, coords: point() }
        }
    }

    /// Scores with many ties, both zeros and the root's `-∞`.
    fn score(rng: &mut StdRng) -> f64 {
        [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 2.0][rng.gen_range(0..8)]
    }

    fn show(entry: Option<&HeapEntry>) -> String {
        format!("{entry:?}")
    }

    /// Pops both heaps empty, entry against entry.
    fn pop_all(heap: &mut CandidateHeap, reference: &mut ReferenceHeap, seed: u64) {
        let mut out = HeapEntry::scratch();
        loop {
            let expected = reference.heap.pop();
            let got = heap.pop_into(&mut out).then_some(&out);
            assert_eq!(show(got), show(expected.as_ref().map(|r| &r.entry)), "seed {seed}");
            if expected.is_none() {
                break;
            }
        }
    }

    /// The frontier order oracle: the heap of keys over a slab pops exactly
    /// what the heap of owned entries did — at score ties, `±0.0`, a node
    /// and a tuple of one id, `seq = 0` saved entries, a restart's heapified
    /// `result ∪ list` against one push at a time, and pops interleaved
    /// with pushes — with the same high water; and an entry saved as it
    /// pops keeps its slot through every later push, and comes back when
    /// its list is queued again.
    #[test]
    fn the_heap_of_keys_pops_in_the_order_of_owned_entries() {
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Shaped for paths of up to three positions, or for shorter
            // ones, so that a longer path lays the slab out again.
            let stride = rng.gen_range(0..=3);
            let mut heap = resumable(rng.gen_range(0..=4), stride, DIMS);
            let mut reference = ReferenceHeap::default();
            // The start: a previous run's results, numbered afresh in
            // order, then its d_list, each keeping its seq (0 for a child
            // saved unpopped); saved ids are distinct, so no two keys are
            // equal. Its b_list stays saved.
            for _ in 0..rng.gen_range(0..12) {
                let (score, id) = (score(&mut rng), rng.gen_range(0..6));
                let cand = candidate(&mut rng, id);
                save(&mut heap, List::Result, score, rng.gen_range(0..40), &cand);
                reference.push(score, cand);
            }
            for i in 0..rng.gen_range(0..12) {
                let seq = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..40) };
                let (score, cand) = (score(&mut rng), candidate(&mut rng, 100 + i));
                let list = if rng.gen_bool(0.7) { List::D } else { List::B };
                save(&mut heap, list, score, seq, &cand);
                if let List::D = list {
                    reference.push_entry(HeapEntry { score, cand }, seq);
                }
            }
            let b_list = heap.b_list_len();
            heap.resume(List::D);
            assert_eq!(heap.len(), reference.heap.len());
            assert_eq!(heap.peak_size(), reference.peak, "seed {seed}");
            let mut saved = ReferenceHeap::default();
            let mut out = HeapEntry::scratch();
            for _ in 0..rng.gen_range(0..60) {
                if rng.gen_bool(0.45) {
                    let expected = reference.heap.pop();
                    let got = heap.pop_into(&mut out).then_some(&out);
                    assert_eq!(show(got), show(expected.as_ref().map(|r| &r.entry)), "seed {seed}");
                    if let Some(Reference { entry, seq }) = expected.filter(|_| rng.gen_bool(0.5)) {
                        heap.save_popped(List::D);
                        saved.push_entry(entry, seq);
                    }
                } else {
                    let (score, id) = (score(&mut rng), rng.gen_range(0..6));
                    let cand = candidate(&mut rng, id);
                    reference.push(score, cand.clone());
                    push(&mut heap, score, &cand);
                }
                assert_eq!(heap.len(), reference.heap.len());
                assert_eq!(heap.peak_size(), reference.peak, "seed {seed}");
            }
            pop_all(&mut heap, &mut reference, seed);
            assert_eq!(heap.b_list_len(), b_list, "seed {seed}");
            heap.resume(List::D);
            assert_eq!(heap.peak_size(), saved.peak, "seed {seed}");
            pop_all(&mut heap, &mut saved, seed);
            assert!(heap.is_empty() && !heap.pop_into(&mut out));
        }
    }

    #[test]
    fn dominance_definition() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0], &[0, 1]));
        assert!(dominates(&[0.5, 2.0], &[1.0, 2.0], &[0, 1]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0], &[0, 1]), "equal points do not dominate");
        assert!(!dominates(&[0.0, 3.0], &[1.0, 2.0], &[0, 1]), "incomparable");
        // Subset dimensions change the verdict.
        assert!(dominates(&[0.0, 9.0], &[1.0, 2.0], &[0]));
    }
}
