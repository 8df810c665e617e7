//! The query-class plugin seam (§V): one registration per preference
//! query class, and the engine seam the planner dispatches through.
//!
//! The kernel answers every preference query with the same branch-and-bound
//! loop ([`run_kernel`](crate::query::run_kernel)); what varies per class is
//! (a) how candidates are scored and pruned (a [`PreferenceLogic`]), (b) how
//! parallel workers' local results merge into the global answer, (c) how the
//! planner should estimate the answer's size, and (d) what the naive
//! reference answer is. [`QueryClass`] bundles exactly those four things, so
//! adding a query class is one `impl` — the facade ([`crate::PCubeDb::run`]),
//! the parallel fan-out, the planner dispatch
//! ([`crate::plan::Planner::choose_class`]) and the SQL layer are all generic
//! over it and need no edits.
//!
//! Every class runs through one driver, at any worker count; the entry
//! points differ only in the boolean pruner they hand it (the signature
//! probe, a caller-supplied probe, or one of the §VI-A comparison methods' —
//! see [`Engine`]) and in whether they keep the `b_list`/`d_list` for a
//! later [`drill_down`](crate::PCubeDb::drill_down) or
//! [`roll_up`](crate::PCubeDb::roll_up) (§V-C). A class opts into that
//! through [`QueryClass::restart_entries`].
//!
//! The first-party classes live here too: [`TopKClass`], [`SkylineClass`],
//! [`DynamicSkylineClass`], [`HullClass`], and the two classes that landed
//! with the seam — [`PSkylineClass`] (prioritized skylines per Mindolin &
//! Chomicki's winnow semantics, priorities expressed as a [`PriorityGraph`])
//! and [`SubspaceSkylineClass`] (skylines restricted to a dimension subset,
//! distinct-value semantics for projected duplicates).
//!
//! # Partial answers
//!
//! A governed run that is cut short
//! ([`QueryOutcome::Partial`](crate::query::QueryOutcome::Partial)) returns what
//! the class had accepted so far. What that set guarantees depends on the
//! class and is stated on each one; the serial guarantees are stronger than
//! the parallel ones because parallel workers stop at different points of
//! their subtree searches.

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use pcube_cube::{normalize, Predicate, Selection};
use pcube_storage::CostModel;

use crate::boolean_index::{BooleanIndexSet, SelectRoute};
use crate::pcube::PCubeDb;
use crate::plan::{EngineKind, Planner};
use crate::query::budget::{CancelToken, QueryBudget};
use crate::query::driver::{
    begin, fold, run_class, run_resumed, Governance, ParallelOptions, Tally,
};
use crate::query::hull::monotone_chain;
use crate::query::kernel::{
    dynamic_point, HullLogic, IndexMergePruner, PSkylineLogic, PreferenceLogic, SavedLists,
    SharedBound, SharedWindow, SkylineLogic, TopKLogic, VerifyAllPruner,
};
use crate::query::window::{project, Window};
use crate::query::{dominates, HeapEntry, QueryStats, ResultEntry};
use crate::rank::RankingFunction;

// ---------------------------------------------------------------------------
// The plugin trait
// ---------------------------------------------------------------------------

/// Everything the engine stack needs to know about one preference query
/// class. Implementing this trait *is* the registration: the driver (at any
/// worker count), the planner and the SQL layer are generic over it.
///
/// The contract that makes serial == parallel bit-identical: `merge` must
/// be a pure function of the *set* of locals (traversal-order independent)
/// and must canonicalize its output order; and for a single local,
/// `merge(vec![finish(logic)])` must equal the serial answer.
pub trait QueryClass {
    /// One row of the final answer.
    type Row: Clone + Send;
    /// One worker's raw local result, before the cross-worker merge.
    type Local: Send;
    /// Pruning state shared across parallel workers (e.g. [`SharedBound`],
    /// [`SharedWindow`]); `()` if the class shares nothing.
    type Shared: Sync;
    /// The class's kernel logic.
    type Logic<'a>: PreferenceLogic
    where
        Self: 'a;

    /// Stable class name — used by `EXPLAIN`, [`crate::plan::PlanDecision`]
    /// and benchmarks.
    fn name(&self) -> &'static str;

    /// The largest preference-dimension index the class reads from a
    /// tuple's coordinates, or `None` if it cannot tell. Every engine checks
    /// it against the schema before its first block read, so a dimension
    /// the table does not have fails with a message naming the class
    /// instead of an index panic deep in the kernel.
    fn max_pref_dim(&self) -> Option<usize>;

    /// Fresh shared pruning state for one parallel query.
    fn new_shared(&self) -> Self::Shared;

    /// Builds the kernel logic; `shared` is `None` for the serial engine
    /// and `Some` inside parallel workers.
    fn logic<'a>(&'a self, shared: Option<&'a Self::Shared>) -> Self::Logic<'a>;

    /// Extracts a worker's local result from its finished logic.
    fn finish(&self, logic: Self::Logic<'_>) -> Self::Local;

    /// Merges local results into the canonical global answer. Must be
    /// deterministic and independent of how the search was partitioned.
    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row>;

    /// Expected answer size given an estimated `qualifying` tuple count —
    /// the planner's per-class cost hook (its `wanted` term).
    fn expected_results(&self, qualifying: f64) -> f64;

    /// Whether `kind` can answer this class. The default admits everything
    /// except index-merge, whose per-candidate B+-tree probes only pay off
    /// under top-k's early-exit.
    fn supports(&self, kind: EngineKind) -> bool {
        kind != EngineKind::IndexMerge
    }

    /// The naive reference answer over the qualifying tuples `(tid,
    /// preference coordinates)` — the boolean-first engine's preference
    /// step, and the differential-testing oracle. Must produce rows in the
    /// same canonical order as `merge`.
    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row>;

    /// The resumable opt-in (§V-C): the results a finished serial `logic`
    /// accepted, as tuple entries a later drill-down or roll-up can queue
    /// again. A class may return `Some` only if Lemma 2 holds for it — the
    /// answer under a strengthened selection is reachable from `result ∪
    /// d_list`, and under a relaxed one from `result ∪ b_list`. The default
    /// `None` means the class keeps no resumable state.
    fn restart_entries(&self, _logic: &Self::Logic<'_>) -> Option<Vec<HeapEntry>> {
        None
    }
}

/// A completed run of a [`QueryClass`].
pub struct ClassOutcome<R> {
    /// The answer, in the class's canonical order.
    pub rows: Vec<R>,
    /// Execution metrics.
    pub stats: QueryStats,
}

/// One of the four engines of §VI-A, with what it reads besides the R-tree
/// and the base table. [`PCubeDb::plan_and_run_class`] and
/// [`PCubeDb::run_class_on`] pick one by [`EngineKind`] over the database's
/// own indexes; the evaluation harness names its own index set and route.
#[derive(Clone, Copy)]
pub enum Engine<'a> {
    /// Algorithm 1 under the signature probe of the selection.
    PCube,
    /// Algorithm 1 under [`VerifyAllPruner`].
    DominationFirst,
    /// Algorithm 1 under [`IndexMergePruner`] over these indexes.
    IndexMerge(&'a BooleanIndexSet),
    /// [`BooleanIndexSet::select`] by this route, then the class's
    /// in-memory preference step ([`QueryClass::oracle`]).
    BooleanFirst(&'a BooleanIndexSet, SelectRoute),
}

/// The engine seam: runs `class` over `selection` on `engine` under a
/// [`QueryBudget`] and optional [`CancelToken`]. Three of the four engines
/// are the one driver's serial run behind a different
/// [`BooleanPruner`](crate::query::BooleanPruner), governed at pop
/// granularity; boolean-first is the class's in-memory step behind a
/// selection, governed per phase. Whether the class *should* run on the
/// engine ([`QueryClass::supports`]) is the planned entry points' question.
///
/// # Panics
/// Panics, before the first block read, if the class reads a preference
/// dimension the schema does not have.
pub fn run_class_engine<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    engine: Engine<'_>,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> ClassOutcome<C::Row> {
    let opts = ParallelOptions { budget: *budget, cancel: cancel.cloned(), ..Default::default() };
    match engine {
        Engine::PCube => run_class(db, selection, class, &opts, None),
        Engine::DominationFirst => {
            run_class(db, selection, class, &opts, Some(&mut VerifyAllPruner))
        }
        Engine::IndexMerge(indexes) => {
            run_class(db, selection, class, &opts, Some(&mut IndexMergePruner(indexes)))
        }
        Engine::BooleanFirst(indexes, route) => {
            run_boolean_first(db, selection, class, indexes, route, &opts)
        }
    }
}

/// The boolean-first engine (§VI-A): resolve the selection to the full
/// qualifying candidate list, then run the class's reference preference
/// step over it in memory — boolean pruning only, no preference pruning
/// against the indexes. `peak_heap` reports the materialised candidate count
/// (the Fig 10 measure for this method).
///
/// The selection step is monolithic, so governance is phase-granular: one
/// check before it and one after. A trip yields an empty partial answer —
/// sound for every class, since nothing was accepted before the preference
/// step ran.
fn run_boolean_first<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    indexes: &BooleanIndexSet,
    route: SelectRoute,
    opts: &ParallelOptions,
) -> ClassOutcome<C::Row> {
    let start = begin(db, class);
    let mut gov = Governance::of(db, opts).map(|g| g.governor(db));
    let mut tally = Tally::default();
    let mut rows = Vec::new();
    let mut merge_seconds = 0.0;
    // The two phases in the kernel's terms: the selection is the one "pop",
    // the candidate list the frontier a trip after it abandons.
    let run = &mut tally.run;
    run.stop = gov.as_mut().and_then(|g| g.check(0));
    if run.stop.is_none() {
        let candidates = indexes.select(db, selection, &CostModel::default(), route);
        tally.peak_heap = candidates.len();
        run.pops = 1;
        run.stop = gov.as_mut().and_then(|g| g.check(candidates.len()));
        if run.stop.is_some() {
            run.frontier = candidates.len() as u64;
        } else {
            let t_merge = Instant::now();
            rows = class.oracle(&candidates);
            merge_seconds = t_merge.elapsed().as_secs_f64();
        }
    }
    if let Some(g) = &gov {
        run.overshoot_seconds = g.overshoot_seconds();
        run.max_pop_seconds = g.max_pop_seconds();
    }
    let stats = fold(db, &start, &[tally], None, rows.len(), merge_seconds);
    ClassOutcome { rows, stats }
}

// ---------------------------------------------------------------------------
// Drill-down and roll-up (§V-C)
// ---------------------------------------------------------------------------

/// The three lists Algorithm 1 maintains, kept after a resumable run so
/// that [`PCubeDb::drill_down`] and [`PCubeDb::roll_up`] can rebuild the
/// candidate heap without starting from the root (Lemma 2). Tied to the
/// class the lists were pruned under: a follow-up runs the same class.
pub struct SavedState<'c, C: QueryClass> {
    class: &'c C,
    selection: Selection,
    result: Vec<HeapEntry>,
    lists: SavedLists,
}

impl<C: QueryClass> SavedState<'_, C> {
    /// The (normalized) boolean selection this state answers.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Entries pruned by boolean predicates (kept for roll-up).
    pub fn b_list_len(&self) -> usize {
        self.lists.b_list.len()
    }

    /// Entries pruned by preference — dominated entries, and the search
    /// frontier of a run that halted early (kept for drill-down).
    pub fn d_list_len(&self) -> usize {
        self.lists.d_list.len()
    }
}

/// Drill-down and roll-up: the query facade's incremental entry points.
impl PCubeDb {
    /// [`Self::run`], keeping the `b_list`/`d_list` of Algorithm 1 so that
    /// [`Self::drill_down`] and [`Self::roll_up`] can continue from them
    /// (§V-C).
    ///
    /// # Panics
    /// Panics if the class keeps no resumable state
    /// ([`QueryClass::restart_entries`]); top-k and skyline do.
    pub fn run_resumable<'c, C: QueryClass>(
        &self,
        selection: &Selection,
        class: &'c C,
    ) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
        restart(self, class, normalize(selection), None, SavedLists::default())
    }

    /// Strengthens the query behind `prev` with one more predicate,
    /// restarting the search from `result ∪ d_list` instead of the root
    /// (Lemma 2).
    pub fn drill_down<'c, C: QueryClass>(
        &self,
        prev: SavedState<'c, C>,
        extra: Predicate,
    ) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
        let mut selection = prev.selection;
        selection.push(extra);
        let SavedLists { b_list, d_list } = prev.lists;
        // Entries that failed the old (weaker) predicates still fail.
        let lists = SavedLists { b_list, d_list: Vec::new() };
        restart(self, prev.class, normalize(&selection), Some((prev.result, d_list)), lists)
    }

    /// Relaxes the query behind `prev` by dropping every predicate on
    /// boolean dimension `dim`, restarting the search from `result ∪
    /// b_list` (Lemma 2).
    pub fn roll_up<'c, C: QueryClass>(
        &self,
        prev: SavedState<'c, C>,
        dim: usize,
    ) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
        let selection: Selection = prev.selection.into_iter().filter(|p| p.dim != dim).collect();
        let SavedLists { b_list, d_list } = prev.lists;
        // The old preference-pruned entries stay pruned: what pruned them
        // satisfied the stricter old predicates, hence also the relaxed
        // ones. For a halted top-k the old frontier's lower bounds are no
        // smaller than the old k-th score, which still qualifies. The list
        // is kept so later drill-downs retain full coverage.
        let lists = SavedLists { b_list: Vec::new(), d_list };
        restart(self, prev.class, selection, Some((prev.result, b_list)), lists)
    }
}

/// One resumable run: from the root, or from the old result plus one of the
/// old lists.
fn restart<'c, C: QueryClass>(
    db: &PCubeDb,
    class: &'c C,
    selection: Selection,
    from: Option<(Vec<HeapEntry>, Vec<HeapEntry>)>,
    mut lists: SavedLists,
) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
    assert!(
        class.restart_entries(&class.logic(None)).is_some(),
        "{} queries keep no state for drill-down / roll-up",
        class.name()
    );
    let (outcome, result) = run_resumed(db, &selection, class, from, &mut lists);
    (outcome, SavedState { class, selection, result, lists })
}

// ---------------------------------------------------------------------------
// Shared merge machinery for the skyline family
// ---------------------------------------------------------------------------

/// A tentatively accepted point in the skyline family's merge
/// representation: `(heap score, tid, domination-space coordinates,
/// original coordinates)`.
pub type SkyPoint = (f64, u64, Vec<f64>, Vec<f64>);

/// Cross-filters accepted points down to the maximal set under `dom`
/// (`dom(a, b)` = "a dominates b" in the class's dominance relation), then
/// canonicalizes to ascending `(score, tid)` order and keeps `(tid,
/// original coordinates)`. Traversal-order independent, which is the whole
/// serial == parallel argument for the skyline family. All pairs, on
/// purpose: it is the reference every class's `oracle` answers with, and the
/// merge of the one class whose score says nothing about its dominance.
pub(crate) fn winnow_points(
    points: &[SkyPoint],
    dom: impl Fn(&[f64], &[f64]) -> bool,
) -> Vec<(u64, Vec<f64>)> {
    let mut kept: Vec<&SkyPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|o| o.1 != p.1 && dom(&o.2, &p.2)))
        .collect();
    kept.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    kept.into_iter().map(|p| (p.1, p.3.clone())).collect()
}

/// [`winnow_points`] under Pareto dominance on `dims` for points scored by
/// the sum of those coordinates, sort-first: floating-point addition is
/// monotone, so a dominator never scores higher than what it dominates, and
/// in ascending `(score, tid)` order a point only has to be tested against
/// the [`Window`] of those kept before it. A dominator's sum can *round to
/// the same* score, though, so a run of equal scores is also cross-checked
/// against itself, both ways.
pub(crate) fn winnow_sorted(mut points: Vec<SkyPoint>, dims: &[usize]) -> Vec<(u64, Vec<f64>)> {
    points.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut window = Window::new(dims.len());
    let mut projected = Vec::with_capacity(dims.len());
    let mut kept = Vec::new();
    let mut run = 0..0;
    for at in 0..points.len() {
        if at == run.end {
            let tied = points[at..].iter().take_while(|p| p.0 == points[at].0).count();
            run = at..at + tied;
        }
        let dom = &points[at].2;
        project(dom, dims, &mut projected);
        if window.dominated(&projected)
            || points[run.clone()].iter().any(|o| dominates(&o.2, dom, dims))
        {
            continue;
        }
        window.push(&projected);
        kept.push((points[at].1, std::mem::take(&mut points[at].3)));
    }
    kept
}

// ---------------------------------------------------------------------------
// Top-k
// ---------------------------------------------------------------------------

/// The top-k query class (§V-B): best-first under a [`RankingFunction`],
/// halting at `k` results (serial) or at the shared k-th-score bound
/// (parallel). Candidates pop in ascending lower-bound order and tuples
/// carry exact scores, so the first `k` qualifying tuples popped *are* the
/// top-k; the remaining frontier is what a resumable run saves as `d_list`.
///
/// Partial answers: a serial partial is a prefix of the true top-k. A
/// parallel partial is a set of qualifying tuples, not necessarily a prefix.
pub struct TopKClass<'f, F: RankingFunction + ?Sized> {
    k: usize,
    f: &'f F,
}

impl<'f, F: RankingFunction + ?Sized> TopKClass<'f, F> {
    /// Top-`k` under ranking function `f` (smaller scores are better).
    pub fn new(k: usize, f: &'f F) -> Self {
        TopKClass { k, f }
    }
}

impl<F: RankingFunction + ?Sized> QueryClass for TopKClass<'_, F> {
    type Row = (u64, Vec<f64>, f64);
    type Local = Vec<(f64, u64, Vec<f64>)>;
    type Shared = SharedBound;
    type Logic<'a>
        = TopKLogic<'a>
    where
        Self: 'a;

    fn name(&self) -> &'static str {
        "topk"
    }

    fn max_pref_dim(&self) -> Option<usize> {
        self.f.max_dim()
    }

    fn new_shared(&self) -> SharedBound {
        SharedBound::unbounded()
    }

    fn logic<'a>(&'a self, shared: Option<&'a SharedBound>) -> TopKLogic<'a> {
        match shared {
            Some(b) => TopKLogic::shared(self.k, &self.f, b),
            None => TopKLogic::serial(self.k, &self.f),
        }
    }

    fn finish(&self, logic: TopKLogic<'_>) -> Self::Local {
        logic.into_result().into_iter().map(|r| (r.score, r.tid, r.coords)).collect()
    }

    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row> {
        let mut all: Vec<(f64, u64, Vec<f64>)> = locals.into_iter().flatten().collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(self.k);
        all.into_iter().map(|(score, tid, coords)| (tid, coords, score)).collect()
    }

    fn expected_results(&self, qualifying: f64) -> f64 {
        (self.k as f64).min(qualifying.max(1.0))
    }

    fn supports(&self, _kind: EngineKind) -> bool {
        true
    }

    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row> {
        let locals =
            rows.iter().map(|(tid, c)| (self.f.score(c), *tid, c.clone())).collect();
        self.merge(vec![locals])
    }

    fn restart_entries(&self, logic: &TopKLogic<'_>) -> Option<Vec<HeapEntry>> {
        Some(logic.accepted().iter().map(ResultEntry::requeue).collect())
    }
}

// ---------------------------------------------------------------------------
// Static skyline
// ---------------------------------------------------------------------------

/// The static skyline class: Pareto-maximal tuples over a set of
/// preference dimensions (§V-A), BBS-style.
///
/// Partial answers: BBS accepts only never-dominated points, so a serial
/// partial is a sound subset of the full skyline. A parallel partial is
/// mutually undominated among the *visited* points only — an unvisited
/// subtree may hold a dominator. The same holds for the dynamic and
/// subspace variants.
pub struct SkylineClass {
    pref_dims: Vec<usize>,
}

impl SkylineClass {
    /// Skyline over `pref_dims` (smaller is better on every dimension).
    ///
    /// # Panics
    /// Panics if `pref_dims` is empty.
    pub fn new(pref_dims: Vec<usize>) -> Self {
        assert!(!pref_dims.is_empty(), "skyline needs at least one preference dimension");
        SkylineClass { pref_dims }
    }
}

impl QueryClass for SkylineClass {
    type Row = (u64, Vec<f64>);
    type Local = Vec<SkyPoint>;
    type Shared = SharedWindow;
    type Logic<'a>
        = SkylineLogic<'a>
    where
        Self: 'a;

    fn name(&self) -> &'static str {
        "skyline"
    }

    fn max_pref_dim(&self) -> Option<usize> {
        self.pref_dims.iter().copied().max()
    }

    fn new_shared(&self) -> SharedWindow {
        SharedWindow::new()
    }

    fn logic<'a>(&'a self, shared: Option<&'a SharedWindow>) -> SkylineLogic<'a> {
        SkylineLogic::new(&self.pref_dims, None, shared)
    }

    fn finish(&self, logic: SkylineLogic<'_>) -> Self::Local {
        logic.into_points()
    }

    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row> {
        winnow_sorted(locals.into_iter().flatten().collect(), &self.pref_dims)
    }

    fn expected_results(&self, qualifying: f64) -> f64 {
        Planner::skyline_size(qualifying, self.pref_dims.len())
    }

    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row> {
        let points: Vec<SkyPoint> = rows
            .iter()
            .map(|(tid, c)| {
                let score: f64 = self.pref_dims.iter().map(|&d| c[d]).sum();
                (score, *tid, c.clone(), c.clone())
            })
            .collect();
        winnow_points(&points, |a, b| dominates(a, b, &self.pref_dims))
    }

    fn restart_entries(&self, logic: &SkylineLogic<'_>) -> Option<Vec<HeapEntry>> {
        Some(logic.accepted().iter().map(ResultEntry::requeue).collect())
    }
}

// ---------------------------------------------------------------------------
// Dynamic skyline
// ---------------------------------------------------------------------------

/// The dynamic skyline class (§VII): skyline in the transformed space
/// `x ↦ |x − q|` around a query point `q` — tuple `p` dynamically dominates
/// `p'` iff `|p_d − q_d| ≤ |p'_d − q_d|` on every chosen dimension and
/// strictly on one. Computed without materializing the transform: the
/// transform of a box has an attainable per-dimension lower corner (the
/// distance from `q_d` to the nearest face, reached independently per
/// dimension), so both the BBS ordering key and the dominance prune carry
/// over. `q` is indexed by the full coordinate space, like the tuples.
pub struct DynamicSkylineClass {
    pref_dims: Vec<usize>,
    query_point: Vec<f64>,
}

impl DynamicSkylineClass {
    /// Dynamic skyline around `query_point` over `pref_dims`.
    ///
    /// # Panics
    /// Panics if `pref_dims` is empty or indexes past `query_point`.
    pub fn new(query_point: &[f64], pref_dims: Vec<usize>) -> Self {
        assert!(
            !pref_dims.is_empty(),
            "dynamic skyline needs at least one preference dimension"
        );
        assert!(
            pref_dims.iter().all(|&d| d < query_point.len()),
            "preference dimension out of range of the query point"
        );
        DynamicSkylineClass { pref_dims, query_point: query_point.to_vec() }
    }
}

impl QueryClass for DynamicSkylineClass {
    type Row = (u64, Vec<f64>);
    type Local = Vec<SkyPoint>;
    type Shared = SharedWindow;
    type Logic<'a>
        = SkylineLogic<'a>
    where
        Self: 'a;

    fn name(&self) -> &'static str {
        "dynamic-skyline"
    }

    fn max_pref_dim(&self) -> Option<usize> {
        self.pref_dims.iter().copied().max()
    }

    fn new_shared(&self) -> SharedWindow {
        SharedWindow::new()
    }

    fn logic<'a>(&'a self, shared: Option<&'a SharedWindow>) -> SkylineLogic<'a> {
        SkylineLogic::new(&self.pref_dims, Some(&self.query_point), shared)
    }

    fn finish(&self, logic: SkylineLogic<'_>) -> Self::Local {
        logic.into_points()
    }

    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row> {
        winnow_sorted(locals.into_iter().flatten().collect(), &self.pref_dims)
    }

    fn expected_results(&self, qualifying: f64) -> f64 {
        Planner::skyline_size(qualifying, self.pref_dims.len())
    }

    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row> {
        let points: Vec<SkyPoint> = rows
            .iter()
            .map(|(tid, c)| {
                let mut dom = Vec::with_capacity(c.len());
                dynamic_point(&self.query_point, c, &mut dom);
                let score: f64 = self.pref_dims.iter().map(|&d| dom[d]).sum();
                (score, *tid, dom, c.clone())
            })
            .collect();
        winnow_points(&points, |a, b| dominates(a, b, &self.pref_dims))
    }
}

// ---------------------------------------------------------------------------
// Convex hull
// ---------------------------------------------------------------------------

/// The 2-D convex hull class (§VII): hull vertices of the qualifying
/// tuples projected onto two preference dimensions, as `(tid, [x, y])` in
/// counter-clockwise order from the lowest-then-leftmost point.
///
/// On top of boolean pruning the search skips whatever lies in the *closed*
/// hull of the points found so far and cannot be one of its vertices: a
/// point on or inside the running hull unless it is coordinate-equal to a
/// vertex, a node whose projected box lies on or inside it and holds no
/// vertex. A point of the closed hull of a set that is not one of the set's
/// vertices is a proper convex combination of them, so it is a vertex of no
/// superset's hull; a duplicate of a vertex must still surface, because the
/// answer names each vertex by the smallest tid at its coordinates. Tuples
/// surface first and nodes farthest outside the running hull next, so the
/// hull reaches its final extent early. The answer is traversal-order
/// independent: whatever the visit order, only non-vertices are skipped.
///
/// Partial answers: the hull of the points visited before the stop —
/// progress accounting only, no membership guarantee.
pub struct HullClass {
    dims: (usize, usize),
}

impl HullClass {
    /// Convex hull over the projection onto `dims`.
    ///
    /// # Panics
    /// Panics if the two dimensions coincide.
    pub fn new(dims: (usize, usize)) -> Self {
        assert_ne!(dims.0, dims.1, "hull dimensions must be distinct");
        HullClass { dims }
    }
}

impl QueryClass for HullClass {
    type Row = (u64, [f64; 2]);
    type Local = Vec<(u64, [f64; 2])>;
    type Shared = ();
    type Logic<'a>
        = HullLogic
    where
        Self: 'a;

    fn name(&self) -> &'static str {
        "hull"
    }

    fn max_pref_dim(&self) -> Option<usize> {
        Some(self.dims.0.max(self.dims.1))
    }

    fn new_shared(&self) {}

    fn logic<'a>(&'a self, _shared: Option<&'a ()>) -> HullLogic {
        HullLogic::new(self.dims)
    }

    fn finish(&self, logic: HullLogic) -> Self::Local {
        // Chain locally so the merge unions small local hulls, not raw
        // point sets (the hull-of-hulls identity).
        monotone_chain(&logic.into_points())
    }

    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row> {
        let all: Vec<(u64, [f64; 2])> = locals.into_iter().flatten().collect();
        monotone_chain(&all)
    }

    fn expected_results(&self, qualifying: f64) -> f64 {
        Planner::skyline_size(qualifying, 2)
    }

    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row> {
        let pts: Vec<(u64, [f64; 2])> = rows
            .iter()
            .map(|(tid, c)| (*tid, [c[self.dims.0], c[self.dims.1]]))
            .collect();
        monotone_chain(&pts)
    }
}

// ---------------------------------------------------------------------------
// Prioritized skyline (p-skyline)
// ---------------------------------------------------------------------------

/// A strict partial order of dimension priorities for p-skyline queries
/// (Mindolin & Chomicki): edges `a OVER b` mean an advantage on `a` excuses
/// any disadvantage on `b`. Stored as the transitive closure over bitmasks;
/// construction rejects cycles, so the relation is a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityGraph {
    dims: Vec<usize>,
    /// `over[i]` bit `j` set ⇔ `dims[i]` has priority over `dims[j]`
    /// (transitively closed).
    over: Vec<u64>,
    /// `covered_by[i]` bit `j` set ⇔ `dims[j]` has priority over `dims[i]`.
    covered_by: Vec<u64>,
}

/// Why a [`PriorityGraph`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PriorityGraphError {
    /// The dimension list was empty.
    Empty,
    /// More than 64 preference dimensions (the bitmask width).
    TooManyDims(usize),
    /// A dimension appeared twice in the dimension list.
    DuplicateDim(usize),
    /// A priority edge referenced a dimension outside the list.
    UnknownDim(usize),
    /// The priority edges form a cycle, so they are not a strict partial
    /// order.
    Cycle,
}

impl fmt::Display for PriorityGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityGraphError::Empty => write!(f, "priority graph needs at least one dimension"),
            PriorityGraphError::TooManyDims(n) => {
                write!(f, "priority graph supports at most 64 dimensions, got {n}")
            }
            PriorityGraphError::DuplicateDim(d) => {
                write!(f, "dimension {d} listed more than once")
            }
            PriorityGraphError::UnknownDim(d) => {
                write!(f, "priority edge references dimension {d}, which is not in the dimension list")
            }
            PriorityGraphError::Cycle => write!(f, "priority edges form a cycle"),
        }
    }
}

impl std::error::Error for PriorityGraphError {}

impl PriorityGraph {
    /// Builds the priority relation over `dims` from `edges` of the form
    /// `(dominant dim, dominated dim)`, taking the transitive closure and
    /// rejecting cycles. An empty edge list yields plain Pareto dominance.
    pub fn new(dims: Vec<usize>, edges: &[(usize, usize)]) -> Result<Self, PriorityGraphError> {
        if dims.is_empty() {
            return Err(PriorityGraphError::Empty);
        }
        if dims.len() > 64 {
            return Err(PriorityGraphError::TooManyDims(dims.len()));
        }
        let mut seen = HashSet::new();
        for &d in &dims {
            if !seen.insert(d) {
                return Err(PriorityGraphError::DuplicateDim(d));
            }
        }
        let pos = |d: usize| dims.iter().position(|&x| x == d);
        let n = dims.len();
        let mut over = vec![0u64; n];
        for &(a, b) in edges {
            let ia = pos(a).ok_or(PriorityGraphError::UnknownDim(a))?;
            let ib = pos(b).ok_or(PriorityGraphError::UnknownDim(b))?;
            over[ia] |= 1 << ib;
        }
        // Bitset Floyd–Warshall: after considering intermediate `k`,
        // `over[i]` holds every position reachable through nodes ≤ k.
        for k in 0..n {
            for i in 0..n {
                if over[i] & (1 << k) != 0 {
                    over[i] |= over[k];
                }
            }
        }
        if (0..n).any(|i| over[i] & (1 << i) != 0) {
            return Err(PriorityGraphError::Cycle);
        }
        let covered_by = (0..n)
            .map(|i| {
                (0..n).fold(0u64, |m, j| if over[j] & (1 << i) != 0 { m | (1 << j) } else { m })
            })
            .collect();
        Ok(PriorityGraph { dims, over, covered_by })
    }

    /// The preference dimensions, in declaration order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// `true` if the relation has no priority edges (plain Pareto).
    pub fn is_pareto(&self) -> bool {
        self.over.iter().all(|&m| m == 0)
    }

    /// Number of *source* dimensions (not dominated by any other) — the
    /// relation's effective width, used for answer-size estimation.
    pub fn source_dims(&self) -> usize {
        self.covered_by.iter().filter(|&&m| m == 0).count()
    }

    /// The p-skyline dominance `a ≻_Γ b`: `a` is strictly better somewhere,
    /// and every dimension where `a` is worse is excused by some dimension
    /// where `a` is better that has priority over it. With no edges this
    /// is exactly Pareto dominance.
    pub fn dominates(&self, a: &[f64], b: &[f64]) -> bool {
        self.relates(self.dims.iter().map(|&d| (a[d], b[d])))
    }

    /// [`Self::dominates`] for two points already projected onto
    /// [`Self::dims`], in that order.
    pub(crate) fn dominates_projected(&self, a: &[f64], b: &[f64]) -> bool {
        self.relates(a.iter().copied().zip(b.iter().copied()))
    }

    /// `≻_Γ` over the `(a, b)` coordinate pairs of [`Self::dims`], in order.
    fn relates(&self, pairs: impl Iterator<Item = (f64, f64)>) -> bool {
        let mut better = 0u64;
        let mut worse = 0u64;
        for (i, (a, b)) in pairs.enumerate() {
            if a < b {
                better |= 1 << i;
            } else if a > b {
                worse |= 1 << i;
            }
        }
        if better == 0 {
            return false;
        }
        let mut w = worse;
        while w != 0 {
            let i = w.trailing_zeros() as usize;
            if better & self.covered_by[i] == 0 {
                return false;
            }
            w &= w - 1;
        }
        true
    }
}

/// The prioritized skyline class: winnow under the p-skyline relation of a
/// [`PriorityGraph`]. The kernel's heap score is not order-compatible with
/// `≻_Γ`, so workers accept a superset and the merge winnows it exact —
/// sound because `≻_Γ` is transitive and pruning only ever removes
/// dominated candidates.
///
/// Partial answers: qualifying and mutually `≻_Γ`-incomparable, but — the
/// accepts being tentative — not necessarily members of the full answer.
pub struct PSkylineClass {
    graph: PriorityGraph,
}

impl PSkylineClass {
    /// Prioritized skyline under `graph`.
    pub fn new(graph: PriorityGraph) -> Self {
        PSkylineClass { graph }
    }

    /// The priority relation this class winnows under.
    pub fn graph(&self) -> &PriorityGraph {
        &self.graph
    }
}

impl QueryClass for PSkylineClass {
    type Row = (u64, Vec<f64>);
    type Local = Vec<SkyPoint>;
    type Shared = SharedWindow;
    type Logic<'a>
        = PSkylineLogic<'a>
    where
        Self: 'a;

    fn name(&self) -> &'static str {
        "p-skyline"
    }

    fn max_pref_dim(&self) -> Option<usize> {
        self.graph.dims().iter().copied().max()
    }

    fn new_shared(&self) -> SharedWindow {
        SharedWindow::new()
    }

    fn logic<'a>(&'a self, shared: Option<&'a SharedWindow>) -> PSkylineLogic<'a> {
        PSkylineLogic::new(&self.graph, shared)
    }

    fn finish(&self, logic: PSkylineLogic<'_>) -> Self::Local {
        logic.into_points()
    }

    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row> {
        let points: Vec<SkyPoint> = locals.into_iter().flatten().collect();
        winnow_points(&points, |a, b| self.graph.dominates(a, b))
    }

    fn expected_results(&self, qualifying: f64) -> f64 {
        Planner::skyline_size(qualifying, self.graph.source_dims())
    }

    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row> {
        let points: Vec<SkyPoint> = rows
            .iter()
            .map(|(tid, c)| {
                let score: f64 = self.graph.dims().iter().map(|&d| c[d]).sum();
                (score, *tid, c.clone(), c.clone())
            })
            .collect();
        winnow_points(&points, |a, b| self.graph.dominates(a, b))
    }
}

// ---------------------------------------------------------------------------
// Subspace skyline
// ---------------------------------------------------------------------------

/// The subspace skyline class: the skyline of the data projected onto a
/// dimension subset `U`, with *distinct-value* semantics — tuples that
/// collide on the projection collapse to one representative row (the
/// smallest tid), since they are indistinguishable in the subspace.
pub struct SubspaceSkylineClass {
    dims: Vec<usize>,
}

impl SubspaceSkylineClass {
    /// Skyline in the subspace spanned by `dims`.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains duplicates.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "subspace skyline needs at least one dimension");
        let mut sorted = dims.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), dims.len(), "subspace dimensions must be distinct");
        SubspaceSkylineClass { dims }
    }

    /// Projects, deduplicates (first occurrence in canonical order wins,
    /// i.e. the smallest tid among equal projections) and keeps the
    /// subspace coordinates.
    fn project(&self, kept: Vec<(u64, Vec<f64>)>) -> Vec<(u64, Vec<f64>)> {
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        kept.into_iter()
            .filter_map(|(tid, coords)| {
                let proj: Vec<f64> = self.dims.iter().map(|&d| coords[d]).collect();
                let key: Vec<u64> = proj.iter().map(|v| v.to_bits()).collect();
                seen.insert(key).then_some((tid, proj))
            })
            .collect()
    }
}

impl QueryClass for SubspaceSkylineClass {
    type Row = (u64, Vec<f64>);
    type Local = Vec<SkyPoint>;
    type Shared = SharedWindow;
    type Logic<'a>
        = SkylineLogic<'a>
    where
        Self: 'a;

    fn name(&self) -> &'static str {
        "subspace-skyline"
    }

    fn max_pref_dim(&self) -> Option<usize> {
        self.dims.iter().copied().max()
    }

    fn new_shared(&self) -> SharedWindow {
        SharedWindow::new()
    }

    fn logic<'a>(&'a self, shared: Option<&'a SharedWindow>) -> SkylineLogic<'a> {
        SkylineLogic::new(&self.dims, None, shared)
    }

    fn finish(&self, logic: SkylineLogic<'_>) -> Self::Local {
        logic.into_points()
    }

    fn merge(&self, locals: Vec<Self::Local>) -> Vec<Self::Row> {
        // Equal projections never strictly dominate each other, so every
        // duplicate survives the winnow; the projection step then collapses
        // them deterministically.
        self.project(winnow_sorted(locals.into_iter().flatten().collect(), &self.dims))
    }

    fn expected_results(&self, qualifying: f64) -> f64 {
        Planner::skyline_size(qualifying, self.dims.len())
    }

    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row> {
        let points: Vec<SkyPoint> = rows
            .iter()
            .map(|(tid, c)| {
                let score: f64 = self.dims.iter().map(|&d| c[d]).sum();
                (score, *tid, c.clone(), c.clone())
            })
            .collect();
        let kept = winnow_points(&points, |a, b| dominates(a, b, &self.dims));
        self.project(kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcube::PCubeConfig;
    use crate::query::ParallelOptions;
    use crate::rank::MinCoordSum;
    use pcube_cube::{Relation, Schema};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// `class` reads preference dimension 9 of a two-dimension table: every
    /// engine entry must refuse it with a message naming the class and the
    /// dimension, before reading a block.
    fn assert_out_of_range_is_refused<C: QueryClass + Sync>(db: &PCubeDb, class: &C) {
        let refused = |entry: &str, call: &dyn Fn()| {
            let reads_before = db.stats().total_reads();
            let panic = catch_unwind(AssertUnwindSafe(call)).expect_err("must be refused");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(
                message.contains(class.name()) && message.contains("dimension 9"),
                "{} via {entry}: {message}",
                class.name()
            );
            assert_eq!(db.stats().total_reads(), reads_before, "{} via {entry}", class.name());
        };
        let planner = db.planner();
        let sel: Selection = vec![Predicate { dim: 0, value: 1 }];
        let budget = QueryBudget::unlimited();
        refused("run", &|| drop(db.run(&sel, class)));
        refused("par_run", &|| drop(db.par_run(&sel, class, ParallelOptions::with_workers(4))));
        refused("plan_and_run_class", &|| {
            drop(db.plan_and_run_class(&planner, class, &sel, &budget, None))
        });
        for engine in EngineKind::ALL.into_iter().filter(|&e| class.supports(e)) {
            refused(engine.name(), &|| drop(db.run_class_on(class, &sel, engine)));
        }
    }

    #[test]
    fn an_out_of_range_preference_dimension_is_refused_by_every_class_at_every_entry() {
        let mut rel = Relation::new(Schema::new(&["a"], &["x", "y"]));
        for i in 0..400u32 {
            rel.push_coded(&[i % 3], &[f64::from(i) * 0.37 % 1.0, f64::from(i) * 0.61 % 1.0]);
        }
        let db = PCubeDb::build(rel, &PCubeConfig::default());
        let f = MinCoordSum::new(vec![0, 9]);
        let graph = PriorityGraph::new(vec![0, 9], &[(0, 9)]).expect("a single edge is a DAG");
        assert_out_of_range_is_refused(&db, &TopKClass::new(5, &f));
        assert_out_of_range_is_refused(&db, &SkylineClass::new(vec![0, 9]));
        assert_out_of_range_is_refused(&db, &DynamicSkylineClass::new(&[0.5; 10], vec![0, 9]));
        assert_out_of_range_is_refused(&db, &HullClass::new((0, 9)));
        assert_out_of_range_is_refused(&db, &PSkylineClass::new(graph));
        assert_out_of_range_is_refused(&db, &SubspaceSkylineClass::new(vec![9, 0]));
    }

    #[test]
    fn priority_graph_rejects_bad_inputs() {
        assert_eq!(PriorityGraph::new(vec![], &[]), Err(PriorityGraphError::Empty));
        assert_eq!(
            PriorityGraph::new(vec![0, 0], &[]),
            Err(PriorityGraphError::DuplicateDim(0))
        );
        assert_eq!(
            PriorityGraph::new(vec![0, 1], &[(0, 2)]),
            Err(PriorityGraphError::UnknownDim(2))
        );
        assert_eq!(
            PriorityGraph::new(vec![0, 1], &[(0, 1), (1, 0)]),
            Err(PriorityGraphError::Cycle)
        );
        assert_eq!(PriorityGraph::new(vec![0], &[(0, 0)]), Err(PriorityGraphError::Cycle));
    }

    #[test]
    fn priority_graph_holds_64_dimensions_and_refuses_65_typed() {
        // The relation lives in one `u64` mask per dimension.
        let chain: Vec<(usize, usize)> = (1..64).map(|d| (d - 1, d)).collect();
        let graph = PriorityGraph::new((0..64).collect(), &chain).expect("64 dimensions fit");
        assert_eq!(graph.source_dims(), 1, "a chain has one source");
        let (mut a, b) = (vec![1.0; 64], vec![1.0; 64]);
        a[0] = 0.0;
        a[63] = 9.0;
        assert!(graph.dominates(&a, &b), "dimension 0 excuses dimension 63 through the closure");
        assert_eq!(
            PriorityGraph::new((0..65).collect(), &[]),
            Err(PriorityGraphError::TooManyDims(65))
        );
    }

    #[test]
    fn empty_graph_is_pareto() {
        let g = PriorityGraph::new(vec![0, 1, 2], &[]).expect("valid");
        assert!(g.is_pareto());
        assert_eq!(g.source_dims(), 3);
        let a = [1.0, 5.0, 2.0];
        let b = [2.0, 5.0, 3.0];
        assert_eq!(g.dominates(&a, &b), dominates(&a, &b, &[0, 1, 2]));
        assert_eq!(g.dominates(&b, &a), dominates(&b, &a, &[0, 1, 2]));
        assert!(!g.dominates(&a, &a), "equal points never dominate");
    }

    #[test]
    fn priority_excuses_dominated_dimensions() {
        // 0 OVER 1: an advantage on 0 excuses any disadvantage on 1.
        let g = PriorityGraph::new(vec![0, 1], &[(0, 1)]).expect("valid");
        assert!(g.dominates(&[1.0, 9.0], &[2.0, 1.0]));
        assert!(!g.dominates(&[2.0, 1.0], &[1.0, 9.0]), "worse on the prioritized dim");
        // Equal on 0, better on 1: still dominates (Pareto case).
        assert!(g.dominates(&[1.0, 0.5], &[1.0, 9.0]));
        assert_eq!(g.source_dims(), 1);
    }

    #[test]
    fn priority_closure_is_transitive() {
        // 0 OVER 1, 1 OVER 2 ⇒ 0 OVER 2.
        let g = PriorityGraph::new(vec![0, 1, 2], &[(0, 1), (1, 2)]).expect("valid");
        assert!(g.dominates(&[1.0, 5.0, 9.0], &[2.0, 5.0, 1.0]), "advantage on 0 excuses 2");
        // Cycle through the closure is rejected.
        assert_eq!(
            PriorityGraph::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            Err(PriorityGraphError::Cycle)
        );
    }

    #[test]
    fn winnow_is_partition_independent() {
        let pts = [
            (3.0, 1, vec![1.0, 2.0], vec![1.0, 2.0]),
            (3.0, 2, vec![2.0, 1.0], vec![2.0, 1.0]),
            (6.0, 3, vec![2.0, 4.0], vec![2.0, 4.0]),
        ];
        let dims = [0usize, 1];
        let rows = winnow_points(&pts, |a, b| dominates(a, b, &dims));
        assert_eq!(rows, vec![(1, vec![1.0, 2.0]), (2, vec![2.0, 1.0])]);
    }

    #[test]
    fn sorted_winnow_agrees_with_all_pairs_when_a_dominator_rounds_to_the_same_score() {
        // 1e16 + 1.0 rounds to 1e16: the dominator [1e16, 0] and the point
        // [1e16, 1] it dominates sort by tid alone, so the dominator can come
        // second. A second such pair shares the run, and a bystander follows.
        let dims = [0usize, 1];
        let point =
            |tid: u64, c: [f64; 2]| -> SkyPoint { (c[0] + c[1], tid, c.to_vec(), c.to_vec()) };
        for (strong, weak) in [(2, 9), (9, 2)] {
            let points = vec![
                point(weak, [1e16, 1.0]),
                point(strong, [1e16, 0.0]),
                point(4, [1e16, 1.0]),
                point(5, [0.5, 3e16]),
                point(7, [1e16 + 2.0, -2.0]),
                point(6, [1e16 + 2.0, -3.0]),
            ];
            assert!(points[..2].iter().chain(&points[4..]).all(|p| p.0 == 1e16), "the premise");
            let all_pairs = winnow_points(&points, |a, b| dominates(a, b, &dims));
            let kept: Vec<u64> = all_pairs.iter().map(|r| r.0).collect();
            assert_eq!(kept, vec![strong.min(6), strong.max(6), 5]);
            assert_eq!(winnow_sorted(points, &dims), all_pairs);
        }
    }

    #[test]
    fn subspace_dedup_keeps_smallest_tid() {
        let class = SubspaceSkylineClass::new(vec![0]);
        let local: Vec<SkyPoint> = vec![
            (1.0, 7, vec![1.0, 9.0], vec![1.0, 9.0]),
            (1.0, 3, vec![1.0, 4.0], vec![1.0, 4.0]),
            (2.0, 1, vec![2.0, 0.0], vec![2.0, 0.0]),
        ];
        let rows = class.merge(vec![local]);
        // tid 3 and 7 collide on the projection; 3 wins. tid 1 is dominated
        // in the subspace.
        assert_eq!(rows, vec![(3, vec![1.0])]);
    }
}
