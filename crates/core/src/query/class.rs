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
//! Two first-party classes live here too, [`TopKClass`] and [`HullClass`].
//! The skyline family is the third: one class body in
//! [`skyline`](crate::query::skyline) over four dominance spaces —
//! [`SkylineClass`], [`DynamicSkylineClass`], [`PSkylineClass`]
//! (prioritized skylines per Mindolin & Chomicki's winnow semantics,
//! priorities expressed as a [`PriorityGraph`]) and
//! [`SubspaceSkylineClass`] (skylines restricted to a dimension subset,
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
    HullLogic, IndexMergePruner, PreferenceLogic, SavedLists, SharedBound, TopKLogic,
    VerifyAllPruner,
};
use crate::query::{HeapEntry, QueryStats, ResultEntry};
#[cfg(doc)]
use crate::query::{
    DynamicSkylineClass, PSkylineClass, PriorityGraph, SharedWindow, SkylineClass,
    SubspaceSkylineClass,
};
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
        TopKLogic::new(self.k, &self.f, shared)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcube::PCubeConfig;
    use crate::query::{
        DynamicSkylineClass, PSkylineClass, ParallelOptions, PriorityGraph, SkylineClass,
        SubspaceSkylineClass,
    };
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
}
