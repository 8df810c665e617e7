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
//! points differ only in what they seed its heap with (the R-tree root, a
//! previous run's saved entries, or a boolean-first selection), in the
//! boolean pruner they hand it (the signature probe, a caller-supplied
//! probe, or one of the §VI-A comparison methods' — see [`Engine`]) and in
//! whether they keep the `b_list`/`d_list` for a
//! later [`drill_down`](crate::PCubeDb::drill_down) or
//! [`roll_up`](crate::PCubeDb::roll_up) (§V-C). A class opts into that
//! through [`QueryClass::RESUMABLE`].
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

use pcube_cube::{normalize, Predicate, Selection};

use crate::boolean_index::{BooleanIndexSet, IndexMergePruner, SelectRoute};
use crate::pcube::PCubeDb;
use crate::plan::{EngineKind, Planner};
use crate::query::budget::{CancelToken, QueryBudget};
use crate::query::driver::{run_serial, ParallelOptions, Seeds};
use crate::query::hull::monotone_chain;
use crate::query::kernel::{HullLogic, PreferenceLogic, TopKLogic, VerifyAllPruner};
use crate::query::{CandidateHeap, List, QueryStats};
#[cfg(doc)]
use crate::query::{
    DynamicSkylineClass, PSkylineClass, PriorityGraph, SkylineClass, SubspaceSkylineClass,
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
/// and must canonicalize its output order; for a single local,
/// `merge(vec![finish(logic)])` must equal the serial answer; and, parallel
/// workers sharing no pruning state, the merge of the locals of searches
/// over any partition of the root's subtrees must equal it too.
pub trait QueryClass {
    /// One row of the final answer.
    type Row: Clone + Send;
    /// One worker's raw local result, before the cross-worker merge.
    type Local: Send;
    /// The class's kernel logic.
    type Logic<'a>: PreferenceLogic
    where
        Self: 'a;

    /// The resumable opt-in (§V-C): whether a serial run may keep its
    /// `b_list`, `d_list` and accepted tuples for a later drill-down or
    /// roll-up. A class may say `true` only if Lemma 2 holds for it — the
    /// answer under a strengthened selection is reachable from `result ∪
    /// d_list`, and under a relaxed one from `result ∪ b_list` — and its
    /// serial logic accepts each tuple into its answer as the kernel
    /// reports it.
    const RESUMABLE: bool = false;

    /// Stable class name — used by `EXPLAIN`, [`crate::plan::PlanDecision`]
    /// and benchmarks.
    fn name(&self) -> &'static str;

    /// The largest preference-dimension index the class reads from a
    /// tuple's coordinates, or `None` if it cannot tell. Every engine checks
    /// it against the schema before its first block read, so a dimension
    /// the table does not have fails with a message naming the class
    /// instead of an index panic deep in the kernel.
    fn max_pref_dim(&self) -> Option<usize>;

    /// Builds the kernel logic: one per run, serial or parallel worker.
    /// Workers share nothing; [`Self::merge`] does all cross-worker work.
    fn logic(&self) -> Self::Logic<'_>;

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
    /// preference coordinates)`, in the same canonical order as `merge` —
    /// the differential-testing reference only. No engine calls it, so the
    /// engines are checked against code none of them runs.
    fn oracle(&self, rows: &[(u64, Vec<f64>)]) -> Vec<Self::Row>;
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
    /// [`BooleanIndexSet::select`] by this route, then Algorithm 1 over the
    /// selected tuples, in memory: the class's own preference step with no
    /// boolean question left to ask.
    BooleanFirst(&'a BooleanIndexSet, SelectRoute),
}

/// The engine seam: runs `class` over `selection` on `engine` under a
/// [`QueryBudget`] and optional [`CancelToken`]. All four engines are the
/// one driver's serial run, governed at pop granularity: three from the
/// R-tree root behind a different
/// [`BooleanPruner`](crate::query::BooleanPruner), boolean-first from the
/// tuples its selection returns. Whether the class *should* run on the
/// engine ([`QueryClass::supports`]) is the planned entry points' question.
///
/// # Panics
/// Panics, before the first block read, if the class reads a preference
/// dimension, or the selection names a boolean dimension, the schema does
/// not have.
pub fn run_class_engine<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    engine: Engine<'_>,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> ClassOutcome<C::Row> {
    let opts = ParallelOptions { budget: *budget, cancel: cancel.cloned(), ..Default::default() };
    let run = |seeds: Seeds<'_>| run_serial(db, selection, class, &opts, seeds, None);
    match engine {
        Engine::PCube => run(Seeds::Root(None)),
        Engine::DominationFirst => run(Seeds::Root(Some(&mut VerifyAllPruner))),
        Engine::IndexMerge(indexes) => run(Seeds::Root(Some(&mut IndexMergePruner::new(indexes)))),
        Engine::BooleanFirst(indexes, route) => run(Seeds::Selected(indexes, route)),
    }
}

// ---------------------------------------------------------------------------
// Drill-down and roll-up (§V-C)
// ---------------------------------------------------------------------------

/// What a resumable run leaves for [`PCubeDb::drill_down`] and
/// [`PCubeDb::roll_up`] to continue from without starting at the root
/// (Lemma 2): the three lists Algorithm 1 maintains — `b_list`, `d_list` and
/// the result — as keys over the run's own [`CandidateHeap`] slab. Tied to
/// the class the lists were pruned under: a follow-up runs the same class.
pub struct SavedState<'c, C: QueryClass> {
    class: &'c C,
    selection: Selection,
    heap: CandidateHeap,
}

impl<C: QueryClass> SavedState<'_, C> {
    /// The (normalized) boolean selection this state answers.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Entries pruned by boolean predicates (kept for roll-up).
    pub fn b_list_len(&self) -> usize {
        self.heap.b_list_len()
    }

    /// Entries pruned by preference — dominated entries, and the search
    /// frontier of a run that halted early (kept for drill-down).
    pub fn d_list_len(&self) -> usize {
        self.heap.d_list_len()
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
    /// ([`QueryClass::RESUMABLE`]); top-k and skyline do.
    pub fn run_resumable<'c, C: QueryClass>(
        &self,
        selection: &Selection,
        class: &'c C,
    ) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
        let heap = CandidateHeap::resumable(self.rtree());
        restart(self, class, normalize(selection), Seeds::Root(None), heap)
    }

    /// Strengthens the query behind `prev` with one more predicate,
    /// restarting the search from `result ∪ d_list` instead of the root
    /// (Lemma 2). Entries that failed the old (weaker) predicates still
    /// fail: the `b_list` is kept.
    pub fn drill_down<'c, C: QueryClass>(
        &self,
        prev: SavedState<'c, C>,
        extra: Predicate,
    ) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
        let SavedState { class, mut selection, mut heap } = prev;
        selection.push(extra);
        heap.resume(List::D);
        restart(self, class, normalize(&selection), Seeds::Saved, heap)
    }

    /// Relaxes the query behind `prev` by dropping every predicate on
    /// boolean dimension `dim`, restarting the search from `result ∪
    /// b_list` (Lemma 2).
    ///
    /// The old preference-pruned entries stay pruned: what pruned them
    /// satisfied the stricter old predicates, hence also the relaxed ones.
    /// For a halted top-k the old frontier's lower bounds are no smaller
    /// than the old k-th score, which still qualifies. The `d_list` is kept
    /// so later drill-downs retain full coverage.
    pub fn roll_up<'c, C: QueryClass>(
        &self,
        prev: SavedState<'c, C>,
        dim: usize,
    ) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
        let SavedState { class, selection, mut heap } = prev;
        let selection: Selection = selection.into_iter().filter(|p| p.dim != dim).collect();
        heap.resume(List::B);
        restart(self, class, selection, Seeds::Saved, heap)
    }
}

/// One resumable run over `heap`, ungoverned, under the signature probe:
/// from the root, or from the old result plus one of the old lists.
fn restart<'c, C: QueryClass>(
    db: &PCubeDb,
    class: &'c C,
    selection: Selection,
    seeds: Seeds<'_>,
    mut heap: CandidateHeap,
) -> (ClassOutcome<C::Row>, SavedState<'c, C>) {
    assert!(C::RESUMABLE, "{} queries keep no state for drill-down / roll-up", class.name());
    let opts = ParallelOptions::default();
    let outcome = run_serial(db, &selection, class, &opts, seeds, Some(&mut heap));
    (outcome, SavedState { class, selection, heap })
}

// ---------------------------------------------------------------------------
// Top-k
// ---------------------------------------------------------------------------

/// The top-k query class (§V-B): best-first under a [`RankingFunction`],
/// halting at `k` results. Candidates pop in ascending lower-bound order
/// (a node ahead of a tuple of its score, tuples of one score by tid) and
/// tuples carry exact scores, so the first `k` qualifying tuples popped
/// *are* the top-k; the remaining frontier is what a resumable run saves as
/// `d_list`. A parallel worker finds the top-k of the subtrees it was
/// dealt, and the merge keeps the `k` best of those by `(score, tid)`.
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
    type Logic<'a>
        = TopKLogic<'a>
    where
        Self: 'a;

    const RESUMABLE: bool = true;

    fn name(&self) -> &'static str {
        "topk"
    }

    fn max_pref_dim(&self) -> Option<usize> {
        self.f.max_dim()
    }

    fn logic(&self) -> TopKLogic<'_> {
        TopKLogic::new(self.k, &self.f)
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

    fn logic(&self) -> HullLogic {
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

    /// `class` reads preference dimension 9 of a two-dimension table, or
    /// `sel` names boolean dimension 9 of a one-dimension table: every
    /// engine entry must refuse the query with a message naming the class
    /// and the dimension, before reading a block.
    fn assert_out_of_range_is_refused<C: QueryClass + Sync>(
        db: &PCubeDb,
        class: &C,
        sel: &Selection,
    ) {
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
        let budget = QueryBudget::unlimited();
        refused("run", &|| drop(db.run(sel, class)));
        refused("par_run", &|| drop(db.par_run(sel, class, ParallelOptions::with_workers(4))));
        refused("plan_and_run_class", &|| {
            drop(db.plan_and_run_class(&planner, class, sel, &budget, None))
        });
        for engine in EngineKind::ALL.into_iter().filter(|&e| class.supports(e)) {
            refused(engine.name(), &|| drop(db.run_class_on(class, sel, engine)));
        }
    }

    /// 400 rows, one boolean dimension `a` of three values, two preference
    /// dimensions.
    fn small_db() -> PCubeDb {
        let mut rel = Relation::new(Schema::new(&["a"], &["x", "y"]));
        for i in 0..400u32 {
            rel.push_coded(&[i % 3], &[f64::from(i) * 0.37 % 1.0, f64::from(i) * 0.61 % 1.0]);
        }
        PCubeDb::build(rel, &PCubeConfig::default())
    }

    #[test]
    fn an_out_of_range_preference_dimension_is_refused_by_every_class_at_every_entry() {
        let db = small_db();
        let sel: Selection = vec![Predicate { dim: 0, value: 1 }];
        let f = MinCoordSum::new(vec![0, 9]);
        let graph = PriorityGraph::new(vec![0, 9], &[(0, 9)]).expect("a single edge is a DAG");
        assert_out_of_range_is_refused(&db, &TopKClass::new(5, &f), &sel);
        assert_out_of_range_is_refused(&db, &SkylineClass::new(vec![0, 9]), &sel);
        let dynamic = DynamicSkylineClass::new(&[0.5; 10], vec![0, 9]);
        assert_out_of_range_is_refused(&db, &dynamic, &sel);
        assert_out_of_range_is_refused(&db, &HullClass::new((0, 9)), &sel);
        assert_out_of_range_is_refused(&db, &PSkylineClass::new(graph), &sel);
        assert_out_of_range_is_refused(&db, &SubspaceSkylineClass::new(vec![9, 0]), &sel);
        // The selection's dimension is checked too: top-k runs on all four
        // engines.
        let missing: Selection = vec![Predicate { dim: 9, value: 1 }];
        let f = MinCoordSum::new(vec![0, 1]);
        assert_out_of_range_is_refused(&db, &TopKClass::new(5, &f), &missing);
        assert_out_of_range_is_refused(&db, &SkylineClass::new(vec![0, 1]), &missing);
    }

    /// `C` with an oracle that answers nothing.
    struct NoOracle<C>(C);

    impl<C: QueryClass> QueryClass for NoOracle<C> {
        type Row = C::Row;
        type Local = C::Local;
        type Logic<'a>
            = C::Logic<'a>
        where
            Self: 'a;

        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn max_pref_dim(&self) -> Option<usize> {
            self.0.max_pref_dim()
        }

        fn logic(&self) -> C::Logic<'_> {
            self.0.logic()
        }

        fn finish(&self, logic: C::Logic<'_>) -> C::Local {
            self.0.finish(logic)
        }

        fn merge(&self, locals: Vec<C::Local>) -> Vec<C::Row> {
            self.0.merge(locals)
        }

        fn expected_results(&self, qualifying: f64) -> f64 {
            self.0.expected_results(qualifying)
        }

        fn supports(&self, kind: EngineKind) -> bool {
            self.0.supports(kind)
        }

        fn oracle(&self, _rows: &[(u64, Vec<f64>)]) -> Vec<C::Row> {
            Vec::new()
        }
    }

    /// Boolean-first answers `class`'s query with `class`'s own preference
    /// step, not with its oracle: the answer P-Cube gives.
    fn assert_boolean_first_needs_no_oracle<C: QueryClass + Sync>(db: &PCubeDb, class: C)
    where
        C::Row: PartialEq + std::fmt::Debug,
    {
        let wrapped = NoOracle(class);
        for sel in [vec![], vec![Predicate { dim: 0, value: 1 }]] {
            let truth = db.run(&sel, &wrapped.0).rows;
            assert!(!truth.is_empty());
            let (rows, _) =
                db.run_class_on(&wrapped, &sel, EngineKind::BooleanFirst).expect("supported");
            assert_eq!(rows, truth, "{} under {sel:?}", wrapped.name());
        }
    }

    #[test]
    fn boolean_first_runs_the_class_not_its_oracle() {
        let db = small_db();
        let f = MinCoordSum::new(vec![0, 1]);
        assert_boolean_first_needs_no_oracle(&db, TopKClass::new(5, &f));
        assert_boolean_first_needs_no_oracle(&db, SkylineClass::new(vec![0, 1]));
    }
}
