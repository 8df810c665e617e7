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
//!   (domination-first), [`IndexMergePruner`] (index-merge) or one a caller
//!   built ([`PCubeDb::run_with_probe`]), and
//! * a [`PreferenceLogic`] — scoring, preference pruning, halting, and
//!   result accumulation: top-k bound-and-cut ([`TopKLogic`]), the skyline
//!   family's dominance window in one of its four dominance spaces
//!   ([`SkylineLogic`](crate::query::skyline::SkylineLogic)), or
//!   convex-hull geometry ([`HullLogic`]).
//!
//! The kernel preserves the decision sequence of the original per-engine
//! loops — pop order, prune order (preference before boolean, Algorithm 1
//! lines 10–19), the `seq = 0` convention for children saved to
//! `b_list`/`d_list`, and the frontier drain on early termination — so
//! results are bit-identical to the pre-kernel implementations. The
//! parallel workers are the very same kernel instantiated with shared
//! pruning state ([`SharedBound`], [`SharedWindow`]) injected through the
//! logic, which is why serial and parallel answers match bit-for-bit at
//! any worker count.
//!
//! Boolean pruning is the two questions Algorithm 1 asks:
//! [`BooleanPruner::keep`] of a popped entry (lines 7–8), and
//! [`BooleanPruner::keep_child`] of each child of the node being expanded
//! that survives preference pruning (lines 17–19). How they are answered —
//! per-conjunct child masks fetched lazily, and Fig 3.c's fix-up, so that
//! on a clean store the lazy probe prunes what eager assembly prunes — is
//! the probe's business ([`BooleanProbe`](crate::store::BooleanProbe)).
//! Children are scored and pruned in place from a borrowed [`NodeView`] of
//! the page; a [`Path`], a coordinate vector or an [`Mbr`] is allocated only
//! for a child that is pushed on the heap or saved to a list, and the clock
//! is read per expansion, never per child.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use pcube_cube::Selection;
use pcube_rtree::{Mbr, NodeView, Path};

use crate::boolean_index::BooleanIndexSet;
use crate::pcube::PCubeDb;
use crate::query::budget::{Governor, StopReason};
use crate::query::hull::RunningHull;
use crate::query::{Candidate, CandidateHeap, HeapEntry, ResultEntry};
use crate::rank::RankingFunction;

/// Boolean pruning as Algorithm 1 asks for it: two questions, and the `SSig`
/// statistics. See [`BooleanProbe`] for how the signature probe answers
/// them.
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
    /// Partial signatures loaded so far (the `SSig` series of Fig 9).
    fn partials_loaded(&self) -> u64 {
        0
    }
    /// Seconds spent loading them so far: the `page_read` share of an
    /// expansion's child loop, which reads no clock per child.
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

/// The index-merge engine of §VI-A, after Xin et al.'s progressive and
/// selective merge \[14\]: "if a data satisfies boolean predicates, the
/// function value on preference dimensions is returned. Otherwise, it
/// returns MAX value." The R-tree is expanded best-first (progressive) and
/// a tuple's membership in each predicate's B+-tree is probed only when it
/// surfaces as a candidate (selective) — one counted point lookup per
/// predicate, stopping at the first miss. The closed-source original also
/// adapts between probing and list-scanning per predicate selectivity; see
/// DESIGN.md §3.
pub struct IndexMergePruner<'a>(pub &'a BooleanIndexSet);

impl BooleanPruner for IndexMergePruner<'_> {
    fn keep(&mut self, _db: &PCubeDb, selection: &Selection, cand: &Candidate) -> bool {
        let Candidate::Tuple { tid, .. } = cand else { return true };
        selection.iter().all(|p| self.0.probe(p.dim, p.value, *tid))
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
/// parallel worker (with shared pruning state injected at construction).
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
    /// Ordering key (lower bound) of a node's MBR; `depth` is the length of
    /// the node's path.
    fn score_node(&mut self, mbr: &Mbr, depth: usize) -> f64;
    /// Preference check before a freshly scored child is inserted
    /// (Algorithm 1 lines 10–12); `true` prunes it to the `d_list`.
    fn prune_child(&mut self, score: f64, child: Region<'_>) -> bool;
    /// A verified qualifying tuple joins the result.
    fn accept(&mut self, score: f64, tid: u64, path: Path, coords: Vec<f64>);
}

/// The `b_list`/`d_list` pair Algorithm 1 maintains for incremental
/// drill-down and roll-up (§V-C). A resumable serial run passes one in
/// (possibly pre-seeded by a previous query's state); every other run
/// passes `None` and pruned entries are dropped.
#[derive(Default)]
pub struct SavedLists {
    /// Entries pruned by boolean predicates (kept for roll-up).
    pub b_list: Vec<HeapEntry>,
    /// Entries pruned by preference (kept for drill-down), including the
    /// drained frontier after an early halt.
    pub d_list: Vec<HeapEntry>,
}

/// What one [`run_kernel`] call did: work counters plus, for governed
/// runs, whether (and why) the governor cut the search short.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRun {
    /// R-tree nodes expanded.
    pub nodes_expanded: u64,
    /// Heap entries popped (including the pop on which a governor tripped).
    pub pops: u64,
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
/// The top of the pop loop is the cancellation point: the governor is
/// consulted once per pop, before any preference or boolean work, so a
/// deadline can overshoot by at most one pop's worth of work. On a trip the
/// popped entry and the drained frontier are routed to the `d_list`
/// exactly like a logic-initiated halt — a later drill-down can resume the
/// abandoned search.
pub fn run_kernel(
    db: &PCubeDb,
    selection: &Selection,
    probe: &mut dyn BooleanPruner,
    heap: &mut CandidateHeap,
    logic: &mut dyn PreferenceLogic,
    mut lists: Option<&mut SavedLists>,
    mut gov: Option<&mut Governor>,
) -> KernelRun {
    let mut run = KernelRun::default();
    // Scratch every child of every expanded node is read into, in place of
    // an owned decode of the page.
    let dims = db.rtree().dims();
    let mut coords: Vec<f64> = Vec::with_capacity(dims);
    let mut mbr = Mbr::empty(dims);
    // Stage attribution: the pop-time question and the node read count as
    // `page_read`, and so do the probe's own loads while the children are
    // asked about ([`BooleanPruner::load_seconds`]); everything else — the
    // heap pop, the governor check, `on_pop`, scoring, pruning, the rest of
    // the child question, heap pushes, `accept`, the drop of a spent entry —
    // counts as `score`. The clock is read at the transitions only, a
    // handful of times per pop and never per child: `mark` is where the
    // last page-touching stretch ended, and `score` is charged from there
    // to where the next one starts.
    let mut mark = Instant::now();
    while let Some(entry) = heap.pop() {
        run.pops += 1;
        if let Some(g) = gov.as_deref_mut() {
            if let Some(reason) = g.check(heap.len()) {
                run.stop = Some(reason);
                run.frontier = 1 + heap.len() as u64;
                if let Some(lists) = lists.as_deref_mut() {
                    lists.d_list.push(entry);
                    lists.d_list.extend(heap.drain());
                }
                break;
            }
        }
        match logic.on_pop(&entry) {
            PopVerdict::Halt => {
                if let Some(lists) = lists.as_deref_mut() {
                    lists.d_list.push(entry);
                    lists.d_list.extend(heap.drain());
                }
                break;
            }
            PopVerdict::Prune => {
                if let Some(lists) = lists.as_deref_mut() {
                    lists.d_list.push(entry);
                }
                continue;
            }
            PopVerdict::Continue => {}
        }
        let t_probe = Instant::now();
        run.stages.score_seconds += (t_probe - mark).as_secs_f64();
        let keep = probe.keep(db, selection, &entry.cand);
        mark = Instant::now();
        run.stages.page_read_seconds += (mark - t_probe).as_secs_f64();
        if !keep {
            if let Some(lists) = lists.as_deref_mut() {
                lists.b_list.push(entry);
            }
            continue;
        }
        match entry.cand {
            Candidate::Tuple { tid, path, coords } => logic.accept(entry.score, tid, path, coords),
            Candidate::Node { pid, path, .. } => {
                let node = db.rtree().view_node(pid);
                let t_children = Instant::now();
                run.stages.page_read_seconds += (t_children - mark).as_secs_f64();
                run.nodes_expanded += 1;
                let leaf = node.is_leaf();
                let child_depth = path.depth() + 1;
                let loaded_before = probe.load_seconds();
                for slot in node.slots() {
                    let (score, child) = if leaf {
                        node.coords_into(slot, &mut coords);
                        (logic.score_tuple(&coords), Region::Point(&coords))
                    } else {
                        node.mbr_into(slot, &mut mbr);
                        (logic.score_node(&mbr, child_depth), Region::Box(&mbr))
                    };
                    let pruned_by_preference = logic.prune_child(score, child);
                    let keep = !pruned_by_preference && probe.keep_child(slot, !leaf);
                    // Only a child that goes somewhere is materialized.
                    if keep {
                        heap.push(score, materialize(&node, slot, &path, &coords, &mbr));
                    } else if let Some(lists) = lists.as_deref_mut() {
                        let list =
                            if pruned_by_preference { &mut lists.d_list } else { &mut lists.b_list };
                        let cand = materialize(&node, slot, &path, &coords, &mbr);
                        list.push(HeapEntry { score, seq: 0, cand });
                    }
                }
                mark = Instant::now();
                let load_seconds = probe.load_seconds() - loaded_before;
                run.stages.page_read_seconds += load_seconds;
                run.stages.score_seconds += (mark - t_children).as_secs_f64() - load_seconds;
            }
        }
    }
    run.stages.score_seconds += mark.elapsed().as_secs_f64();
    if let Some(g) = gov {
        run.overshoot_seconds = g.overshoot_seconds();
        run.max_pop_seconds = g.max_pop_seconds();
    }
    run
}

/// The owned [`Candidate`] for the child in `slot` of the node at `parent`,
/// whose geometry the kernel has just read into `coords` (leaf) or `mbr`
/// (internal node).
fn materialize(
    node: &NodeView<'_>,
    slot: usize,
    parent: &Path,
    coords: &[f64],
    mbr: &Mbr,
) -> Candidate {
    let path = parent.child(slot as u16 + 1);
    if node.is_leaf() {
        Candidate::Tuple { tid: node.tid(slot), path, coords: coords.to_vec() }
    } else {
        Candidate::Node { pid: node.child(slot), path, mbr: mbr.clone() }
    }
}

// ---------------------------------------------------------------------------
// Shared pruning state (used by the parallel workers' logic instances)
// ---------------------------------------------------------------------------

/// Monotone f64 → u64 mapping: preserves `<` across the full range
/// (including negatives), so an atomic `fetch_min` on the mapped bits is an
/// atomic min on the floats.
#[inline]
pub(crate) fn f64_to_ordered(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

#[inline]
pub(crate) fn ordered_to_f64(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// The shared top-k pruning bound: an upper bound on the global k-th best
/// score, stored as order-preserving f64 bits so workers update it with a
/// lock-free `fetch_min`. The bound only ever decreases and stays ≥ the
/// true k-th score (each worker publishes its *local* k-th best, and any
/// local k-th ≥ the global k-th), so pruning `score > bound` is sound;
/// ties at the bound are kept and resolved by the deterministic merge.
///
/// `pub` so the interleaving model checks in `tests/interleave_model.rs`
/// can drive it step by step.
pub struct SharedBound(AtomicU64);

impl Default for SharedBound {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl SharedBound {
    /// A bound that prunes nothing yet (`+∞`).
    pub fn unbounded() -> Self {
        SharedBound(AtomicU64::new(f64_to_ordered(f64::INFINITY)))
    }

    /// The current bound. Monotone non-increasing over the life of a query.
    #[inline]
    pub fn get(&self) -> f64 {
        ordered_to_f64(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the bound to `candidate` if it improves it — an atomic
    /// `fetch_min` on the order-preserving bits, so concurrent updates can
    /// never lose the smallest value.
    #[inline]
    pub fn lower_to(&self, candidate: f64) {
        self.0.fetch_min(f64_to_ordered(candidate), Ordering::Relaxed);
    }
}

/// Number of spine segments in a [`SharedWindow`]; segment `k` holds
/// `WINDOW_SEG0 << k` slots, so 32 segments cover ~2^37 points.
const WINDOW_SEGMENTS: usize = 32;
/// Capacity of the first spine segment.
const WINDOW_SEG0: usize = 32;
/// One lazily-allocated spine segment: a fixed run of once-writable slots.
type WindowSegment = Box<[OnceLock<Vec<f64>>]>;

/// The shared skyline window: points accepted so far by *any* worker, in
/// domination space. Pruning with any entry is sound even if the entry is
/// later found dominated itself (domination is transitive and every entry
/// is a qualifying data point), so workers may read arbitrary consistent
/// snapshots.
///
/// Lock-free: a grow-only list over a segmented spine. [`Self::reserve`]
/// claims a slot with one `fetch_add`; [`Self::publish`] fills it through a
/// [`OnceLock`] (the release store other readers synchronize with).
/// Segments never move once allocated, so readers hold no lock and copy no
/// tail: [`Self::refresh`] walks slots from its last high-water mark and
/// stops at the first slot not yet published, which keeps the visible
/// prefix gap-free (a reader never sees point `i+1` without point `i`).
/// The old implementation was a `Mutex<Vec<…>>` — the one lock left on the
/// parallel kernel's pop path.
///
/// `pub` (with the reserve/publish steps exposed) so the interleaving model
/// checks in `tests/interleave_model.rs` can enumerate schedules around the
/// two linearization points.
pub struct SharedWindow {
    /// Spine of lazily-allocated slot segments; segment `k` holds
    /// `WINDOW_SEG0 << k` slots starting at flat index
    /// `WINDOW_SEG0·(2^k − 1)`.
    segments: [OnceLock<WindowSegment>; WINDOW_SEGMENTS],
    /// Next flat slot index to hand out.
    next: AtomicUsize,
}

impl Default for SharedWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedWindow {
    /// An empty window.
    pub fn new() -> Self {
        SharedWindow { segments: [const { OnceLock::new() }; WINDOW_SEGMENTS], next: AtomicUsize::new(0) }
    }

    /// Flat slot index → `(segment, offset)`.
    #[inline]
    fn locate(index: usize) -> (usize, usize) {
        let n = index / WINDOW_SEG0 + 1;
        let seg = (usize::BITS - 1 - n.leading_zeros()) as usize;
        (seg, index - WINDOW_SEG0 * ((1 << seg) - 1))
    }

    /// The slot at flat `index`, allocating its segment on first touch.
    fn slot(&self, index: usize) -> &OnceLock<Vec<f64>> {
        let (seg, off) = Self::locate(index);
        assert!(seg < WINDOW_SEGMENTS, "shared window exhausted");
        let segment = self.segments[seg].get_or_init(|| {
            (0..WINDOW_SEG0 << seg).map(|_| OnceLock::new()).collect()
        });
        &segment[off]
    }

    /// The slot at flat `index` if its segment exists, without allocating.
    fn peek(&self, index: usize) -> Option<&OnceLock<Vec<f64>>> {
        let (seg, off) = Self::locate(index);
        self.segments.get(seg)?.get().map(|s| &s[off])
    }

    /// Step 1 of a push: claims a slot index. Exposed (doc-hidden) for the
    /// interleaving model checks; engines use [`Self::push`].
    #[doc(hidden)]
    pub fn reserve(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Step 2 of a push: publishes `coords` into a reserved slot. The
    /// `OnceLock` set is the release store readers synchronize with; a slot
    /// is never written twice.
    ///
    /// # Panics
    /// Panics if `index` was never reserved-and-unpublished (double
    /// publish).
    #[doc(hidden)]
    pub fn publish(&self, index: usize, coords: Vec<f64>) {
        self.slot(index)
            .set(coords)
            .unwrap_or_else(|_| panic!("window slot {index} published twice"));
    }

    /// Appends a point: reserve a slot, publish into it. Lock-free on both
    /// steps. Returns the slot.
    pub fn push(&self, coords: Vec<f64>) -> usize {
        let index = self.reserve();
        self.publish(index, coords);
        index
    }

    /// Hands entries `[from..]` to `sink` as `(slot, point)`, stopping at the
    /// first slot not yet published; returns the new high-water mark, making
    /// each periodic refresh an incremental read rather than a full copy. A
    /// reserved but unpublished slot pauses the mark (never skips), so the
    /// mark is monotone and no point is lost or duplicated across refreshes.
    pub fn refresh(&self, from: usize, mut sink: impl FnMut(usize, &[f64])) -> usize {
        let mut mark = from;
        while let Some(point) = self.peek(mark).and_then(OnceLock::get) {
            sink(mark, point);
            mark += 1;
        }
        mark
    }
}

// ---------------------------------------------------------------------------
// Top-k logic (§V-B): bound-and-cut
// ---------------------------------------------------------------------------

/// Top-k accumulation. Serial mode halts once `k` results exist (the
/// frontier is then saved as `d_list` by the kernel); shared mode keeps a
/// local k-best and halts once the smallest outstanding lower bound exceeds
/// the shared global bound.
pub struct TopKLogic<'a> {
    k: usize,
    f: &'a dyn RankingFunction,
    bound: Option<&'a SharedBound>,
    result: Vec<ResultEntry>,
}

impl<'a> TopKLogic<'a> {
    /// The serial engine's logic (exhaustive until `k` results) without a
    /// `bound`, a parallel worker's (prune and halt against the shared
    /// bound) with one. The result grows as tuples are accepted: `k` may be
    /// far larger than the table.
    pub(crate) fn new(
        k: usize,
        f: &'a dyn RankingFunction,
        bound: Option<&'a SharedBound>,
    ) -> Self {
        TopKLogic { k, f, bound, result: Vec::new() }
    }

    pub(crate) fn into_result(self) -> Vec<ResultEntry> {
        self.result
    }

    /// The results accepted so far.
    pub(crate) fn accepted(&self) -> &[ResultEntry] {
        &self.result
    }
}

impl PreferenceLogic for TopKLogic<'_> {
    fn on_pop(&mut self, entry: &HeapEntry) -> PopVerdict {
        match self.bound {
            // Serial: everything still queued has a lower bound no better
            // than the k-th result — stop and save the frontier.
            None if self.result.len() >= self.k => PopVerdict::Halt,
            // Shared: the heap pops ascending scores, so once the smallest
            // outstanding lower bound exceeds the shared threshold nothing
            // left can enter the global top-k. Strictly greater — ties at
            // the bound are kept for the deterministic merge.
            Some(b) if entry.score > b.get() => PopVerdict::Halt,
            _ => PopVerdict::Continue,
        }
    }

    fn score_tuple(&mut self, coords: &[f64]) -> f64 {
        self.f.score(coords)
    }

    fn score_node(&mut self, mbr: &Mbr, _depth: usize) -> f64 {
        self.f.lower_bound(mbr)
    }

    fn prune_child(&mut self, score: f64, _child: Region<'_>) -> bool {
        self.bound.is_some_and(|b| score > b.get())
    }

    fn accept(&mut self, score: f64, tid: u64, path: Path, coords: Vec<f64>) {
        match self.bound {
            None => self.result.push(ResultEntry { tid, coords, path, score }),
            Some(b) => {
                let at = self
                    .result
                    .binary_search_by(|r| r.score.total_cmp(&score).then(r.tid.cmp(&tid)))
                    .unwrap_or_else(|i| i);
                if at < self.k {
                    self.result.insert(at, ResultEntry { tid, coords, path, score });
                    self.result.truncate(self.k);
                    if self.result.len() == self.k {
                        b.lower_to(self.result[self.k - 1].score);
                    }
                }
            }
        }
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
            Region::Box(mbr) => self.score_node(mbr, 0),
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

    fn score_node(&mut self, mbr: &Mbr, _depth: usize) -> f64 {
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

    fn accept(&mut self, _score: f64, tid: u64, _path: Path, coords: Vec<f64>) {
        let p = self.project(&coords);
        self.points.push((tid, p));
        self.hull.insert(p);
    }
}
