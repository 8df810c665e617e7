//! The generic Algorithm 1 execution kernel (§V).
//!
//! Every preference engine in this crate — serial and parallel; top-k, the
//! skyline family and convex hulls — is the same loop: pop the
//! best candidate from the [`CandidateHeap`], apply *preference* pruning,
//! apply *boolean* pruning, then either accept a tuple (once the pruner has
//! verified it) or expand an R-tree node and classify its children the same
//! way. [`run_kernel`] implements that loop exactly once; the engines —
//! the comparison methods of §VI-A included — differ only in the two trait
//! objects they pass in:
//!
//! * a [`BooleanPruner`] — the signature probe
//!   ([`BooleanProbe`](crate::store::BooleanProbe)), [`VerifyAllPruner`]
//!   (domination-first),
//!   [`IndexMergePruner`](crate::boolean_index::IndexMergePruner)
//!   (index-merge) or one a caller built ([`PCubeDb::run_with_probe`]), and
//! * a [`PreferenceLogic`] — scoring, preference pruning, halting, and
//!   result accumulation: top-k bound-and-cut ([`TopKLogic`]), the skyline
//!   family's dominance window in one of its four dominance spaces
//!   ([`SkylineLogic`](crate::query::skyline::SkylineLogic)), or
//!   convex-hull geometry ([`HullLogic`]).
//!
//! The kernel preserves the decision sequence of the original per-engine
//! loops — pop order, prune order (preference before boolean, Algorithm 1
//! lines 10–19, wherever a saved list records which way a child was
//! pruned), the `seq = 0` convention for children saved to
//! `b_list`/`d_list`, and the frontier drain on early termination — so
//! results are bit-identical to the pre-kernel implementations. The
//! parallel workers are the very same kernel with the very same logic, each
//! over the subtrees it was dealt and sharing no pruning state; the class's
//! merge alone makes their answers one, which is why serial and parallel
//! answers match bit-for-bit at any worker count.
//!
//! Boolean pruning is the two questions Algorithm 1 asks:
//! [`BooleanPruner::keep`] of a popped entry (lines 7–8), and
//! [`BooleanPruner::keep_child`] of each child of the node being expanded
//! that survives preference pruning (lines 17–19). How they are answered —
//! per-conjunct child masks, and Fig 3.c's fix-up, so that on a clean
//! store a node is read only if its subtree holds a qualifying tuple,
//! whether partial signatures are loaded lazily or all up front — is the
//! probe's business ([`BooleanProbe`](crate::store::BooleanProbe)).
//!
//! The prune order decides only which list a child pruned both ways joins.
//! A run that keeps no lists — every run but [`PCubeDb::run_resumable`],
//! `drill_down` and `roll_up` — asks boolean first where that is free: a
//! child [`BooleanPruner::rules_out`] from what the pruner already holds is
//! skipped before it is decoded, scored or preference-tested. Such a child
//! is one `keep_child` would have dropped without loading anything, and no
//! preference test changes what a later one answers, so every answer, pop,
//! push, partial load and page read is the same as preference first; only
//! the CPU moves ([`KernelRun::children_tested`],
//! [`KernelRun::children_ruled_out`]).
//!
//! Children are scored and pruned in place from the borrowed [`NodeView`]
//! that [`RTree::read_node`](pcube_rtree::RTree::read_node) returns — the
//! R-tree's one read path; there is no owned node. The frontier is plain
//! data too, and it is the only place a queued or saved candidate lives: a
//! child is written from the view and the scratch `coords` / `mbr` straight
//! into the [`CandidateHeap`]'s slab (its path as the parent's positions
//! plus one, its coordinates or MBR corners at a fixed stride), and every
//! pop is read back into one [`HeapEntry`] whose vectors are cleared and
//! refilled. A resumable run's `b_list`, `d_list` and accepted tuples are
//! keys over that same slab: a popped entry's slot is released unless the
//! entry is saved or, in a resumable run, accepted, and a child pruned in
//! a resumable run is stored like a pushed one and its key saved. So what
//! outlives the heap is only the coordinates [`PreferenceLogic::accept`]
//! takes of an accepted tuple — the loop's one allocation per entry. The
//! clock is read around each node read and once at each end of the run,
//! never per pop or per child: a pruner times its own page touches
//! ([`BooleanPruner::load_seconds`]).
//!
//! [`NodeView`]: pcube_rtree::NodeView

use std::time::Instant;

use pcube_cube::Selection;
use pcube_rtree::{Mbr, NodeView};

use crate::pcube::PCubeDb;
use crate::query::budget::{Governor, StopReason};
use crate::query::hull::RunningHull;
use crate::query::{Candidate, CandidateHeap, HeapEntry, List, ResultEntry};
use crate::rank::RankingFunction;

/// Boolean pruning as Algorithm 1 asks for it: two questions, a third that
/// lets the kernel skip a child the second would drop for free, and the
/// `SSig` statistics. See [`BooleanProbe`] for how the signature probe
/// answers them.
///
/// [`BooleanProbe`]: crate::store::BooleanProbe
pub trait BooleanPruner {
    /// Lines 7–8: may the popped `cand` hold tuples satisfying the
    /// (normalized) `selection`? Nothing is known about its ancestors — it
    /// may be the root seed or restored from a saved list. For a tuple this
    /// is the boolean check "in between lines 7 and 8" (§VI-A): a pruner
    /// whose positive answers may be wrong pays for the truth here, before
    /// the tuple may join the result and prune others. For a node it is
    /// asked before the page is read, and a node kept becomes the one whose
    /// children [`Self::keep_child`] is asked about next. `false` routes
    /// the entry to the `b_list`.
    fn keep(&mut self, db: &PCubeDb, selection: &Selection, cand: &Candidate) -> bool;
    /// Lines 17–19: may the child in 0-based `slot` of the node kept last —
    /// an R-tree node if `is_node`, else a tuple — hold qualifying tuples?
    /// Asked once per child that survives preference pruning, in slot
    /// order, so a pruner can fetch what the node's children share at the
    /// first child that needs it.
    fn keep_child(&mut self, _slot: usize, _is_node: bool) -> bool {
        true
    }
    /// Does what the pruner already holds rule out the child in 0-based
    /// `slot` of the node kept last? Never loads anything, and answers
    /// `true` only where [`Self::keep_child`] would answer `false` without
    /// loading anything either, so asking it changes no later answer. The
    /// kernel asks it before a child is decoded, when no saved list needs
    /// to know which way the child was pruned.
    fn rules_out(&self, _slot: usize) -> bool {
        false
    }
    /// Partial signatures loaded so far (the `SSig` series of Fig 9).
    fn partials_loaded(&self) -> u64 {
        0
    }
    /// Seconds this pruner has spent touching pages so far — loading
    /// partial signatures, probing an index. The kernel charges their
    /// growth over a run to `page_read` and reads no clock per question.
    fn load_seconds(&self) -> f64 {
        0.0
    }
}

/// The domination-first engine of §VI-A (BBS \[9\] + minimal probing \[3\];
/// **Ranking** for top-k): "similar to Algorithm 1, except that there is no
/// boolean checking in the prune procedure … we only issue a boolean
/// checking for a tuple in between lines 7 and 8". Admits every node and
/// fetches each tuple about to be accepted from the base table — also
/// under the empty selection: minimal probing cannot know `BP = ∅` is free.
pub struct VerifyAllPruner;

impl BooleanPruner for VerifyAllPruner {
    /// For a tuple, one counted random access by tid (the `DBool` counter
    /// of Fig 9): does the row satisfy every predicate?
    fn keep(&mut self, db: &PCubeDb, selection: &Selection, cand: &Candidate) -> bool {
        let Candidate::Tuple { tid, .. } = cand else { return true };
        let codes = db.relation().fetch(*tid);
        selection.iter().all(|p| codes[p.dim] == p.value)
    }
}

/// What the [`PreferenceLogic`] decided about a popped candidate, *before*
/// boolean pruning runs.
pub enum PopVerdict {
    /// Process the candidate: probe it, then accept (tuple) or expand
    /// (node).
    Continue,
    /// Preference-pruned (dominated / inside the hull): route the entry to
    /// the `d_list` and move on.
    Prune,
    /// Terminate the search; the entry and the drained frontier go to the
    /// `d_list` (the top-k early exit of §V-B).
    Halt,
}

/// A candidate's geometry as the preference logic sees it, borrowed: from a
/// queued [`Candidate`] at pop time, or from the kernel's scratch buffers
/// while a child of the node under expansion is still unmaterialized.
#[derive(Debug, Clone, Copy)]
pub enum Region<'a> {
    /// A tuple's preference coordinates.
    Point(&'a [f64]),
    /// A node's bounding rectangle.
    Box(&'a Mbr),
}

/// The preference side of Algorithm 1: candidate scoring, preference
/// pruning, halting, and result accumulation. One implementation per query
/// class; the same implementation serves the serial engine and each
/// parallel worker, which shares nothing with the others.
///
/// The per-child methods take borrowed geometry and `&mut self` (for
/// reusable scratch): they run for every child of every expanded node, most
/// of which are pruned on the spot, and must not allocate.
pub trait PreferenceLogic {
    /// Preference decision for a popped entry (Algorithm 1 lines 14–16 for
    /// skylines, the k-th-result cut of §V-B for top-k).
    fn on_pop(&mut self, entry: &HeapEntry) -> PopVerdict;
    /// Ordering key of a tuple (`f(t)` for top-k, `d(t)` for skylines).
    fn score_tuple(&mut self, coords: &[f64]) -> f64;
    /// Ordering key (lower bound) of a node's MBR.
    fn score_node(&mut self, mbr: &Mbr) -> f64;
    /// Preference check before a freshly scored child is inserted
    /// (Algorithm 1 lines 10–12); `true` prunes it to the `d_list`.
    fn prune_child(&mut self, score: f64, child: Region<'_>) -> bool;
    /// A verified qualifying tuple joins the result.
    fn accept(&mut self, score: f64, tid: u64, coords: Vec<f64>);
}

/// What one [`run_kernel`] call did: work counters plus, for governed
/// runs, whether (and why) the governor cut the search short.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRun {
    /// R-tree nodes expanded.
    pub nodes_expanded: u64,
    /// Heap entries popped (including the pop on which a governor tripped).
    pub pops: u64,
    /// Children of expanded nodes decoded, scored and preference-tested.
    pub children_tested: u64,
    /// Children of expanded nodes skipped undecoded because the boolean
    /// pruner ruled them out from what it held ([`BooleanPruner::rules_out`]).
    pub children_ruled_out: u64,
    /// `Some(reason)` when the governor stopped the loop before the heap
    /// emptied or the logic halted; `None` for a complete run.
    pub stop: Option<StopReason>,
    /// Heap entries abandoned on a governed stop (the popped entry plus
    /// the drained frontier); 0 for a complete run.
    pub frontier: u64,
    /// Seconds past the deadline when a deadline trip was observed.
    pub overshoot_seconds: f64,
    /// Longest observed gap between two governance checks.
    pub max_pop_seconds: f64,
    /// Wall time split by pipeline stage (page reads vs preference work);
    /// the engines fill in the pin and merge stages they own.
    pub stages: crate::query::StageTimes,
}

/// Runs Algorithm 1 over an already-seeded candidate heap until the heap is
/// empty, the logic halts, or the governor (if any) trips. Returns the work
/// counters; every other statistic (peak heap, partials, I/O, wall clock)
/// is read by the caller from the heap/probe/ledger it owns.
///
/// A [resumable](CandidateHeap::resumable) heap keeps the `b_list`, the
/// `d_list` and the accepted tuples as keys over its slab; every other heap
/// releases a spent entry's slot and stores no pruned child. Over a heap
/// that keeps no lists and under a selection, each child of an expanded
/// node is first put to [`BooleanPruner::rules_out`], and one it rules out
/// is never decoded (see the module doc for why no count can move). Over a
/// resumable heap the children go preference first, as Algorithm 1 lists
/// them.
///
/// The top of the pop loop is the cancellation point: the governor is
/// consulted once per pop, before any preference or boolean work, so a
/// deadline can overshoot by at most one pop's worth of work. On a trip the
/// popped entry and the frontier are saved to the `d_list` exactly like a
/// logic-initiated halt — a later drill-down can resume the abandoned
/// search.
pub fn run_kernel(
    db: &PCubeDb,
    selection: &Selection,
    probe: &mut dyn BooleanPruner,
    heap: &mut CandidateHeap,
    logic: &mut dyn PreferenceLogic,
    mut gov: Option<&mut Governor>,
) -> KernelRun {
    let mut run = KernelRun::default();
    // Scratch every child of every expanded node is read into, in place of
    // an owned decode of the page.
    let dims = db.rtree().dims();
    let mut coords: Vec<f64> = Vec::with_capacity(dims);
    let mut mbr = Mbr::empty(dims);
    // Boolean first where the prune order is free: no list records which way
    // a child was pruned (see the module doc). Under no predicate nothing
    // can be ruled out, and the question is not asked.
    let resumable = heap.is_resumable();
    let ask_first = !resumable && !selection.is_empty();
    // Stage attribution: the node reads and the pruner's own timed loads
    // ([`BooleanPruner::load_seconds`], over the whole run) count as
    // `page_read`; the rest of the run — pops, governor checks, scoring,
    // pruning, the probe's walks and bit tests, pushes, `accept` — is
    // `score`. The clock is read around each node read and once at each
    // end of the run, never per pop or per child.
    let start = Instant::now();
    let loaded_before = probe.load_seconds();
    // The one entry every pop is read into; only an accepted row's
    // coordinates are built owned from it.
    let mut entry = HeapEntry::scratch();
    while heap.pop_into(&mut entry) {
        run.pops += 1;
        if let Some(g) = gov.as_deref_mut() {
            if let Some(reason) = g.check(heap.len()) {
                run.stop = Some(reason);
                run.frontier = 1 + heap.len() as u64;
                heap.halt();
                break;
            }
        }
        match logic.on_pop(&entry) {
            PopVerdict::Halt => {
                heap.halt();
                break;
            }
            PopVerdict::Prune => {
                heap.save_popped(List::D);
                continue;
            }
            PopVerdict::Continue => {}
        }
        if !probe.keep(db, selection, &entry.cand) {
            heap.save_popped(List::B);
            continue;
        }
        match &entry.cand {
            Candidate::Tuple { tid, coords, .. } => {
                logic.accept(entry.score, *tid, coords.clone());
                heap.save_popped(List::Result);
            }
            Candidate::Node { pid, path, .. } => {
                heap.release_popped();
                let read = Instant::now();
                let node = db.rtree().read_node(*pid);
                run.stages.page_read_seconds += read.elapsed().as_secs_f64();
                run.nodes_expanded += 1;
                let leaf = node.is_leaf();
                for slot in node.slots() {
                    if ask_first && probe.rules_out(slot) {
                        run.children_ruled_out += 1;
                        continue;
                    }
                    run.children_tested += 1;
                    let (score, child) = score_child(&node, slot, logic, &mut coords, &mut mbr);
                    let pruned_by_preference = logic.prune_child(score, child);
                    let keep = !pruned_by_preference && probe.keep_child(slot, !leaf);
                    // A kept child is queued, and a pruned one saved, as it
                    // lies in the scratch buffers: written into the slab.
                    let saved = if keep {
                        None
                    } else if resumable {
                        Some(if pruned_by_preference { List::D } else { List::B })
                    } else {
                        continue;
                    };
                    heap.push_child(saved, score, &node, slot, path, child);
                }
            }
        }
    }
    run.stages.page_read_seconds += probe.load_seconds() - loaded_before;
    run.stages.score_seconds = (start.elapsed().as_secs_f64() - run.stages.page_read_seconds).max(0.0);
    if let Some(g) = gov {
        run.overshoot_seconds = g.overshoot_seconds();
        run.max_pop_seconds = g.max_pop_seconds();
    }
    run
}

/// Reads the child in `slot` of `node` into the scratch `coords` (leaf) or
/// `mbr` (internal node) and scores it: its score and its geometry,
/// borrowed from the scratch.
#[inline]
pub(crate) fn score_child<'a>(
    node: &NodeView<'_>,
    slot: usize,
    logic: &mut dyn PreferenceLogic,
    coords: &'a mut Vec<f64>,
    mbr: &'a mut Mbr,
) -> (f64, Region<'a>) {
    if node.is_leaf() {
        node.coords_into(slot, coords);
        (logic.score_tuple(coords), Region::Point(coords))
    } else {
        node.mbr_into(slot, mbr);
        (logic.score_node(mbr), Region::Box(mbr))
    }
}

// ---------------------------------------------------------------------------
// Top-k logic (§V-B): bound-and-cut
// ---------------------------------------------------------------------------

/// Top-k accumulation: halts once `k` results exist (the frontier is then
/// saved as `d_list` by the kernel). A parallel worker runs the same logic
/// over the subtrees it was dealt; the class's merge keeps the global `k`.
pub struct TopKLogic<'a> {
    k: usize,
    f: &'a dyn RankingFunction,
    result: Vec<ResultEntry>,
}

impl<'a> TopKLogic<'a> {
    /// Exhaustive until `k` results. The result grows as tuples are
    /// accepted: `k` may be far larger than the table.
    pub(crate) fn new(k: usize, f: &'a dyn RankingFunction) -> Self {
        TopKLogic { k, f, result: Vec::new() }
    }

    pub(crate) fn into_result(self) -> Vec<ResultEntry> {
        self.result
    }
}

impl PreferenceLogic for TopKLogic<'_> {
    fn on_pop(&mut self, _entry: &HeapEntry) -> PopVerdict {
        // Everything still queued has a lower bound no better than the k-th
        // result — stop and save the frontier.
        if self.result.len() >= self.k {
            PopVerdict::Halt
        } else {
            PopVerdict::Continue
        }
    }

    fn score_tuple(&mut self, coords: &[f64]) -> f64 {
        self.f.score(coords)
    }

    fn score_node(&mut self, mbr: &Mbr) -> f64 {
        self.f.lower_bound(mbr)
    }

    fn prune_child(&mut self, _score: f64, _child: Region<'_>) -> bool {
        false
    }

    fn accept(&mut self, score: f64, tid: u64, coords: Vec<f64>) {
        self.result.push(ResultEntry { tid, coords, score });
    }
}

// ---------------------------------------------------------------------------
// Convex hull logic (§VII): geometric pruning
// ---------------------------------------------------------------------------

/// Convex-hull accumulation: collects qualifying points and prunes what
/// cannot hold a vertex of the final hull. A point of the closed hull of the
/// points accepted so far is a convex combination of the running hull's
/// vertices, so it is extreme in no superset unless it *is* one of them; it
/// is pruned unless it is coordinate-equal to a vertex (the duplicate with
/// the smallest tid is the one the answer names), and a node is pruned when
/// its box lies in the closed hull and holds no vertex. Tuples surface first
/// (`-∞`); nodes go farthest-outside-the-hull first, so the hull reaches its
/// final extent early and the boxes behind it are pruned unread.
pub struct HullLogic {
    dims: (usize, usize),
    points: Vec<(u64, [f64; 2])>,
    hull: RunningHull,
}

impl HullLogic {
    pub(crate) fn new(dims: (usize, usize)) -> Self {
        HullLogic { dims, points: Vec::new(), hull: RunningHull::default() }
    }

    fn project(&self, coords: &[f64]) -> [f64; 2] {
        [coords[self.dims.0], coords[self.dims.1]]
    }

    /// The collected qualifying points; the caller chains them into the
    /// final hull.
    pub(crate) fn into_points(self) -> Vec<(u64, [f64; 2])> {
        self.points
    }
}

impl PreferenceLogic for HullLogic {
    fn on_pop(&mut self, entry: &HeapEntry) -> PopVerdict {
        // A queued score is as old as the hull it was measured against.
        let score = match entry.cand.region() {
            Region::Point(_) => entry.score,
            Region::Box(mbr) => self.score_node(mbr),
        };
        if self.prune_child(score, entry.cand.region()) {
            PopVerdict::Prune
        } else {
            PopVerdict::Continue
        }
    }

    fn score_tuple(&mut self, _coords: &[f64]) -> f64 {
        f64::NEG_INFINITY
    }

    fn score_node(&mut self, mbr: &Mbr) -> f64 {
        -self.hull.outside_box(self.project(&mbr.min), self.project(&mbr.max))
    }

    fn prune_child(&mut self, score: f64, child: Region<'_>) -> bool {
        match child {
            Region::Point(coords) => {
                let p = self.project(coords);
                self.hull.outside(p) <= 0.0 && !self.hull.has_vertex_in(p, p)
            }
            // A node's score is how far its box reaches outside the hull.
            Region::Box(mbr) => {
                score >= 0.0
                    && !self.hull.has_vertex_in(self.project(&mbr.min), self.project(&mbr.max))
            }
        }
    }

    fn accept(&mut self, _score: f64, tid: u64, coords: Vec<f64>) {
        let p = self.project(&coords);
        self.points.push((tid, p));
        self.hull.insert(p);
    }
}
