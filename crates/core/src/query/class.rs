//! The query-class plugin seam (§V): one registration per preference
//! query class.
//!
//! The kernel answers every preference query with the same branch-and-bound
//! loop ([`run_kernel`]); what varies per class is (a) how candidates are
//! scored and pruned (a [`PreferenceLogic`]), (b) how parallel workers'
//! local results merge into the global answer, (c) how the planner should
//! estimate the answer's size, and (d) what the naive reference answer is.
//! [`QueryClass`] bundles exactly those four things, so adding a query
//! class is one `impl` — the facade ([`crate::PCubeDb::run`]), the parallel
//! fan-out, the planner dispatch ([`crate::plan::Planner::choose_class`])
//! and the SQL layer are all generic over it and need no edits.
//!
//! The first-party classes live here too: [`TopKClass`], [`SkylineClass`],
//! [`DynamicSkylineClass`], [`HullClass`], and the two classes that landed
//! with the seam — [`PSkylineClass`] (prioritized skylines per Mindolin &
//! Chomicki's winnow semantics, priorities expressed as a [`PriorityGraph`])
//! and [`SubspaceSkylineClass`] (skylines restricted to a dimension subset,
//! distinct-value semantics for projected duplicates).

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use pcube_cube::{normalize, Selection};
use pcube_storage::IoSnapshot;

use crate::pcube::PCubeDb;
use crate::plan::{EngineKind, Planner};
use crate::query::budget::{CancelToken, Governor, QueryBudget};
use crate::query::hull::monotone_chain;
use crate::query::kernel::{
    dynamic_point, run_kernel, BooleanPruner, HullLogic, PSkylineLogic, PreferenceLogic,
    SharedBound, SharedWindow, SkylineLogic, TopKLogic, VerifyAllPruner,
};
use crate::query::topk::{apply_kernel_outcome, make_governor};
use crate::query::{dominates, seed_root, CandidateHeap, QueryStats};
use crate::rank::RankingFunction;

// ---------------------------------------------------------------------------
// The plugin trait
// ---------------------------------------------------------------------------

/// Everything the engine stack needs to know about one preference query
/// class. Implementing this trait *is* the registration: the serial runner,
/// the parallel fan-out, the planner and the SQL layer are generic over it.
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
}

/// A completed run of a [`QueryClass`].
pub struct ClassOutcome<R> {
    /// The answer, in the class's canonical order.
    pub rows: Vec<R>,
    /// Execution metrics.
    pub stats: QueryStats,
}

/// Serial Algorithm 1 over one query class: signature probe, seeded root,
/// kernel loop, then the class's own finish + merge (with a single local,
/// so the merge is the canonicalization step).
pub(crate) fn run_class<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    eager_assembly: bool,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> ClassOutcome<C::Row> {
    let started = Instant::now();
    let before = db.stats().snapshot();
    let selection = normalize(selection);
    let mut gov = make_governor(db, budget, cancel);
    let mut probe = db.pcube().probe(&selection, eager_assembly);
    run_class_with(db, &selection, class, &mut probe, started, before, gov.as_mut())
}

/// [`run_class`] with a caller-supplied boolean pruner — the seam the
/// planner dispatch uses to run the same class under the signature probe
/// (P-Cube) or under [`crate::query::kernel::VerifyAllPruner`]
/// (domination-first with minimal-probing verification).
pub(crate) fn run_class_with<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    probe: &mut dyn BooleanPruner,
    started: Instant,
    before: IoSnapshot,
    gov: Option<&mut Governor>,
) -> ClassOutcome<C::Row> {
    let mut stats = QueryStats::default();
    let mut heap = CandidateHeap::new();
    seed_root(db, &mut heap);
    let mut logic = class.logic(None);
    let pin_seconds = started.elapsed().as_secs_f64();
    let run = run_kernel(db, selection, probe, &mut heap, &mut logic, None, gov);
    stats.stages = run.stages;
    stats.stages.pin_seconds += pin_seconds;
    stats.nodes_expanded = run.nodes_expanded;
    stats.peak_heap = heap.peak_size();
    stats.partials_loaded = probe.partials_loaded();
    let t_merge = Instant::now();
    let local = class.finish(logic);
    let rows = class.merge(vec![local]);
    stats.stages.merge_seconds += t_merge.elapsed().as_secs_f64();
    stats.io = db.stats().snapshot().since(&before);
    stats.cpu_seconds = started.elapsed().as_secs_f64();
    apply_kernel_outcome(&mut stats, &run, rows.len());
    ClassOutcome { rows, stats }
}

/// Domination-first engine for a query class: the Algorithm-1 traversal
/// with no boolean pruning at all — every accepted tuple was verified
/// against the base table by the kernel (the [`VerifyAllPruner`] is lossy,
/// so each tuple pop loads and re-checks the heap row).
pub(crate) fn run_class_verify_all<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> ClassOutcome<C::Row> {
    let started = Instant::now();
    let before = db.stats().snapshot();
    let selection = normalize(selection);
    let mut gov = make_governor(db, budget, cancel);
    let mut pruner = VerifyAllPruner;
    run_class_with(db, &selection, class, &mut pruner, started, before, gov.as_mut())
}

/// Boolean-first engine for a query class: resolve the selection to the
/// full qualifying candidate list (the relation layer picks the index or
/// scan route), then run the class's reference preference step over it in
/// memory. `peak_heap` reports the materialised candidate count; the
/// in-memory preference step is not governed (see
/// [`crate::pcube::PCubeDb::plan_and_run_class`]).
pub(crate) fn run_class_scan<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
) -> ClassOutcome<C::Row> {
    let started = Instant::now();
    let before = db.stats().snapshot();
    let selection = normalize(selection);
    let rel = db.relation();
    let candidates: Vec<(u64, Vec<f64>)> =
        rel.scan(&selection).map(|tid| (tid, rel.pref_coords(tid))).collect();
    let mut stats = QueryStats { peak_heap: candidates.len(), ..QueryStats::default() };
    let t_merge = Instant::now();
    let rows = class.oracle(&candidates);
    stats.stages.merge_seconds += t_merge.elapsed().as_secs_f64();
    stats.io = db.stats().snapshot().since(&before);
    stats.cpu_seconds = started.elapsed().as_secs_f64();
    ClassOutcome { rows, stats }
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
/// serial == parallel argument for the skyline family.
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

// ---------------------------------------------------------------------------
// Top-k
// ---------------------------------------------------------------------------

/// The top-k query class: best-first under a [`RankingFunction`], halting
/// at `k` results (serial) or at the shared k-th-score bound (parallel).
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

impl<F: RankingFunction + ?Sized + Sync> QueryClass for TopKClass<'_, F> {
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
}

// ---------------------------------------------------------------------------
// Static skyline
// ---------------------------------------------------------------------------

/// The static skyline class: Pareto-maximal tuples over a set of
/// preference dimensions (§V-A), BBS-style.
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
        let points: Vec<SkyPoint> = locals.into_iter().flatten().collect();
        winnow_points(&points, |a, b| dominates(a, b, &self.pref_dims))
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
}

// ---------------------------------------------------------------------------
// Dynamic skyline
// ---------------------------------------------------------------------------

/// The dynamic skyline class (§VII): skyline in the transformed space
/// `x ↦ |x − q|` around a query point `q`, computed without materializing
/// the transform (the MBR corner bound is the per-dimension distance to the
/// nearest face).
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
        let points: Vec<SkyPoint> = locals.into_iter().flatten().collect();
        winnow_points(&points, |a, b| dominates(a, b, &self.pref_dims))
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
/// tuples projected onto two preference dimensions.
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
        let mut better = 0u64;
        let mut worse = 0u64;
        for (i, &d) in self.dims.iter().enumerate() {
            if a[d] < b[d] {
                better |= 1 << i;
            } else if a[d] > b[d] {
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
        let points: Vec<SkyPoint> = locals.into_iter().flatten().collect();
        // Equal projections never strictly dominate each other, so every
        // duplicate survives the winnow; the projection step then collapses
        // them deterministically.
        let kept = winnow_points(&points, |a, b| dominates(a, b, &self.dims));
        self.project(kept)
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
