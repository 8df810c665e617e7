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
pub use kernel::{
    run_kernel, BooleanPruner, IndexMergePruner, KernelRun, PopVerdict,
    PreferenceLogic, Region, SavedLists, SharedBound, SharedWindow, VerifyAllPruner,
};
pub(crate) use driver::check_schema;
pub use driver::ParallelOptions;
pub use skyline::{
    DynamicSkylineClass, PSkylineClass, PriorityGraph, PriorityGraphError, SkyPoint,
    SkylineClass, SubspaceSkylineClass, Window,
};

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pcube_rtree::{Mbr, Path};
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
    /// Page-touching work: the boolean question of each popped entry (the
    /// full-path probe, the subtree check of a node, base-table verify
    /// fetches), R-tree node reads, and the partial signatures the probe
    /// loads while the children of a node are asked about (its
    /// `load_seconds`, so no clock is read per child) — everything that can
    /// pay counted (and, under `Pager::set_read_delay`, wall-clock) I/O.
    pub page_read_seconds: f64,
    /// Everything in the kernel loop that cannot touch a page: heap pops,
    /// governor checks, scoring, dominance/bound pruning, accumulation, the
    /// rest of each expansion's child loop (in-place decode, the child
    /// question's bit tests, heap pushes) and the drop of spent entries —
    /// so the four stages of a serial run sum to its `cpu_seconds`.
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
    pub(crate) path: Path,
    pub(crate) score: f64,
}

impl ResultEntry {
    /// The result as a tuple entry that can be queued again — what a
    /// drill-down or roll-up restarts its heap from (Lemma 2).
    pub(crate) fn requeue(&self) -> HeapEntry {
        let (tid, path, coords) = (self.tid, self.path.clone(), self.coords.clone());
        HeapEntry { score: self.score, seq: 0, cand: Candidate::Tuple { tid, path, coords } }
    }
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

/// A scored heap entry. Lower scores pop first; ties break by a
/// traversal-independent key so pop order — and therefore result order at
/// score ties — is reproducible and identical between the serial and the
/// parallel engines.
///
/// The tie-break is: **nodes before tuples** (a node whose lower bound
/// equals a tuple's score may still contain an equal-scored tuple with a
/// smaller tid, so it must be expanded first for the canonical choice),
/// then ascending tid (tuples) / page id (nodes), then insertion sequence
/// as a final fallback. Parallel workers merge their local results by the
/// same `(score, tid)` key, which is why ties at the k-th top-k score
/// resolve identically no matter how the search was partitioned.
#[derive(Debug, Clone)]
pub struct HeapEntry {
    /// The ordering key (`d(n)` for skylines, `f(n)` for top-k).
    pub score: f64,
    /// Monotone fallback tie-breaker.
    pub seq: u64,
    /// The node or tuple itself.
    pub cand: Candidate,
}

impl HeapEntry {
    /// The deterministic tie-break key: `(kind, id, seq)` with nodes (kind 0)
    /// ahead of tuples (kind 1) and ids ascending.
    fn tie_key(&self) -> (u8, u64, u64) {
        match &self.cand {
            Candidate::Node { pid, .. } => (0, u64::from(pid.0), self.seq),
            Candidate::Tuple { tid, .. } => (1, *tid, self.seq),
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.tie_key() == other.tie_key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min score (then
        // the min tie key) on top.
        other
            .score
            .partial_cmp(&self.score)
            .expect("scores must not be NaN")
            .then_with(|| other.tie_key().cmp(&self.tie_key()))
    }
}

/// The candidate heap with peak-size tracking (Fig 10).
#[derive(Debug, Default)]
pub struct CandidateHeap {
    heap: BinaryHeap<HeapEntry>,
    peak: usize,
    seq: u64,
}

impl CandidateHeap {
    /// An empty heap.
    pub fn new() -> Self {
        CandidateHeap::default()
    }

    /// Pushes a candidate with the given score.
    #[inline]
    pub fn push(&mut self, score: f64, cand: Candidate) {
        self.seq += 1;
        self.heap.push(HeapEntry { score, seq: self.seq, cand });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Re-inserts an existing entry (keeps its original sequence number).
    #[inline]
    pub fn push_entry(&mut self, entry: HeapEntry) {
        self.heap.push(entry);
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the minimum-score entry.
    #[inline]
    pub fn pop(&mut self) -> Option<HeapEntry> {
        self.heap.pop()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no candidates remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of entries the heap ever held at once — the memory
    /// metric of Fig 10 (`peak_heap` in [`QueryStats`]). This is a
    /// high-water mark over the whole search, not the current [`len`].
    ///
    /// [`len`]: CandidateHeap::len
    pub fn peak_size(&self) -> usize {
        self.peak
    }

    /// Drains the remaining entries (used to save the frontier as `d_list`
    /// when a top-k query terminates early).
    pub fn drain(&mut self) -> Vec<HeapEntry> {
        std::mem::take(&mut self.heap).into_vec()
    }
}

/// The entry every search starts from — the R-tree root with an
/// un-dominatable MBR and the smallest possible score, so it always pops
/// first and is never pruned.
pub(crate) fn root_entry(db: &crate::pcube::PCubeDb) -> HeapEntry {
    let dims = db.rtree().dims();
    let mbr = Mbr { min: vec![f64::NEG_INFINITY; dims], max: vec![f64::INFINITY; dims] };
    let cand = Candidate::Node { pid: db.rtree().root_pid(), path: Path::root(), mbr };
    HeapEntry { score: f64::NEG_INFINITY, seq: 0, cand }
}

/// Seeds a candidate heap with [`root_entry`].
pub(crate) fn seed_root(db: &crate::pcube::PCubeDb, heap: &mut CandidateHeap) {
    let root = root_entry(db);
    heap.push(root.score, root.cand);
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

    fn tuple(score_seq: (f64, u64)) -> HeapEntry {
        HeapEntry {
            score: score_seq.0,
            seq: score_seq.1,
            cand: Candidate::Tuple { tid: 0, path: Path::root(), coords: vec![] },
        }
    }

    #[test]
    fn heap_pops_minimum_score_first() {
        let mut h = CandidateHeap::new();
        for s in [0.5, 0.1, 0.9, 0.3] {
            h.push(s, Candidate::Tuple { tid: 0, path: Path::root(), coords: vec![] });
        }
        let order: Vec<f64> = std::iter::from_fn(|| h.pop().map(|e| e.score)).collect();
        assert_eq!(order, vec![0.1, 0.3, 0.5, 0.9]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = CandidateHeap::new();
        h.push_entry(tuple((1.0, 2)));
        h.push_entry(tuple((1.0, 1)));
        h.push_entry(tuple((1.0, 3)));
        let seqs: Vec<u64> = std::iter::from_fn(|| h.pop().map(|e| e.seq)).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn peak_tracks_maximum_occupancy() {
        let mut h = CandidateHeap::new();
        for s in 0..5 {
            h.push(s as f64, Candidate::Tuple { tid: 0, path: Path::root(), coords: vec![] });
        }
        h.pop();
        h.pop();
        assert_eq!(h.len(), 3);
        assert_eq!(h.peak_size(), 5);
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
