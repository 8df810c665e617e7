//! Cost-based adaptive query planning (§VI).
//!
//! The paper's evaluation compares four execution strategies for the same
//! preference query — signature-guided P-Cube (Algorithm 1), Boolean-first,
//! Domination-first, and Index-merge — and shows their relative cost flips
//! with the boolean selectivity of the query (the Fig. 13-style crossover):
//! a highly selective predicate is answered cheapest by fetching the few
//! matching tuples through a B+-tree, while an unselective one makes every
//! baseline pay per-candidate random accesses that the signature-pruned
//! branch-and-bound never issues.
//!
//! [`Planner`] implements that comparison as an optimizer: it estimates
//! **block accesses** (the unit every engine's [`QueryStats::io`] ledger
//! already measures) for each candidate engine from statistics the system
//! keeps for free — exact per-value row counts (the same cardinalities the
//! signature leaf bits encode), R-tree node counts / height / fanout, heap
//! page counts, and B+-tree shape — picks the cheapest, and records the
//! whole decision in [`PlanDecision`] so `EXPLAIN`-style output can show
//! its work. Dispatch goes through the [`Executor`] trait, implemented by
//! [`PCubeExecutor`] here and by the baseline engines in the `baselines`
//! crate (the trait lives here, not there, because `baselines` already
//! depends on this crate).
//!
//! The cost formulas (documented per engine on [`Planner::estimate_class`] and in
//! DESIGN.md §8) use:
//!
//! * `n` — relation cardinality; `P` — heap pages,
//! * `σ` — boolean selectivity, the product of per-predicate exact
//!   frequencies under cross-dimension independence; `q = σ·n` qualifying,
//! * `h`, `m`, `L` — R-tree height, fanout, and leaf count,
//! * `s(q) ≈ ln(1+q)^(d-1)` — the expected skyline size of `q`
//!   independently distributed points in `d` dimensions.

use std::collections::HashMap;

use pcube_cube::{normalize, Selection};
use pcube_storage::CostModel;

use crate::pcube::PCubeDb;
use crate::query::class::{run_class, run_class_probed, run_class_scan};
use crate::query::{
    CancelToken, QueryBudget, QueryClass, QueryStats, SkylineClass, TopKClass, VerifyAllPruner,
};
use crate::rank::RankingFunction;

/// The engine families the planner chooses among (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Signature-guided branch-and-bound (Algorithm 1).
    PCube,
    /// Boolean-first: B+-tree (or heap-scan) selection, then an in-memory
    /// preference step.
    BooleanFirst,
    /// Domination-first: BBS / Ranking with minimal-probing verification.
    DominationFirst,
    /// Index-merge: progressive R-tree expansion with selective B+-tree
    /// membership probes (top-k only).
    IndexMerge,
}

impl EngineKind {
    /// Stable display name (used by `EXPLAIN` output and benchmarks).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::PCube => "pcube",
            EngineKind::BooleanFirst => "boolean-first",
            EngineKind::DominationFirst => "domination-first",
            EngineKind::IndexMerge => "index-merge",
        }
    }
}

/// One engine's predicted cost, in modeled block accesses.
#[derive(Debug, Clone, Copy)]
pub struct CostEstimate {
    /// The engine this estimate is for.
    pub engine: EngineKind,
    /// Predicted random block accesses (R-tree nodes, signature pages,
    /// B+-tree pages, tuple fetches).
    pub random_blocks: f64,
    /// Predicted sequential block accesses (heap-scan pages).
    pub sequential_blocks: f64,
    /// Modeled wall-clock seconds under the [`CostModel`] rates.
    pub seconds: f64,
}

impl CostEstimate {
    /// Total predicted block accesses — the planner's comparison key, and
    /// the unit `QueryStats::io::total_reads()` measures after the fact.
    pub fn blocks(&self) -> f64 {
        self.random_blocks + self.sequential_blocks
    }
}

/// The planner's recorded decision, attached to the winning engine's
/// [`QueryStats`] for `EXPLAIN`-style reporting.
#[derive(Debug, Clone)]
pub struct PlanDecision {
    /// The query class the plan was made for (a [`QueryClass::name`]).
    pub class: &'static str,
    /// The engine the planner dispatched to.
    pub chosen: EngineKind,
    /// Every candidate engine's estimate (including the winner's).
    pub estimates: Vec<CostEstimate>,
    /// Estimated boolean selectivity of the query's selection.
    pub selectivity: f64,
    /// Estimated number of qualifying tuples (`σ·n`).
    pub qualifying_est: f64,
    /// `true` when a [`QueryBudget`] constrained
    /// the choice — either the cheapest engine was predicted to overrun
    /// and a fitting engine was substituted, or no engine fit at all.
    pub budget_limited: bool,
    /// When the budget forced a substitution, the engine that would have
    /// won on raw cost.
    pub fallback_from: Option<EngineKind>,
}

impl PlanDecision {
    /// The winner's estimate.
    pub fn chosen_estimate(&self) -> &CostEstimate {
        self.estimates
            .iter()
            .find(|e| e.engine == self.chosen)
            .expect("chosen engine always has an estimate")
    }
}

/// Rows of a top-k answer: `(tid, coordinates, score)` in canonical
/// ascending `(score, tid)` order.
pub type TopKRows = Vec<(u64, Vec<f64>, f64)>;

/// Rows of a skyline answer: `(tid, coordinates)` in canonical ascending
/// `(coordinate sum, tid)` order.
pub type SkylineRows = Vec<(u64, Vec<f64>)>;

/// A uniform interface over the four engines of §VI-A for the two query
/// classes all of them (or all but index-merge) implement natively:
/// selection and query in, canonical-order result with [`QueryStats`] out.
/// The planner dispatches through it, and the differential oracle iterates
/// executors with it. Which classes an engine family can answer is the
/// class's call ([`QueryClass::supports`]); `None` means this executor has
/// no engine for the class (index-merge has no skyline).
///
/// Every method runs under a [`QueryBudget`] and optional [`CancelToken`]:
/// an engine that is cut short reports a
/// [`QueryOutcome::Partial`](crate::query::QueryOutcome) in the stats.
pub trait Executor {
    /// Which engine family this executor runs.
    fn kind(&self) -> EngineKind;

    /// Top-k in canonical ascending `(score, tid)` order.
    fn topk(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(TopKRows, QueryStats)>;

    /// Skyline in canonical ascending `(coordinate sum, tid)` order.
    fn skyline(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        pref_dims: &[usize],
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(SkylineRows, QueryStats)>;
}

/// The P-Cube engine behind the [`Executor`] interface: serial Algorithm 1
/// with lazy signature probes.
pub struct PCubeExecutor;

impl Executor for PCubeExecutor {
    fn kind(&self) -> EngineKind {
        EngineKind::PCube
    }

    fn topk(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(TopKRows, QueryStats)> {
        let out = run_class(db, selection, &TopKClass::new(k, f), false, budget, cancel);
        Some((out.rows, out.stats))
    }

    fn skyline(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        pref_dims: &[usize],
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(SkylineRows, QueryStats)> {
        let class = SkylineClass::new(pref_dims.to_vec());
        let out = run_class(db, selection, &class, false, budget, cancel);
        Some((out.rows, out.stats))
    }
}

/// B+-tree leaf fanout assumed by the boolean-first route model (4 KB
/// leaves of 16-byte entries; `BooleanIndexSet` routes with the capacity of
/// the trees it actually built, which is this at the default page size).
const BPTREE_LEAF_CAP: f64 = 255.0;

/// The §VI cost-based planner: the catalog statistics of one version of a
/// database. [`PCubeDb::planner`] is the way to get one — built on first
/// use, shared until the next insert or delete; [`Planner::new`] is the
/// constructor behind it (it scans the boolean columns in memory to collect
/// the exact per-value counts the signature leaves encode). Estimate and
/// choose are catalog-only.
pub struct Planner {
    n: f64,
    heap_pages: f64,
    rtree_height: f64,
    fanout: f64,
    leaves: f64,
    n_pred_capable: usize,
    value_counts: Vec<HashMap<u32, u64>>,
    cost: CostModel,
}

impl Planner {
    /// Collects planning statistics from `db`'s live rows (no counted I/O:
    /// column scans run on the in-memory relation, tree shapes are
    /// metadata). Tombstones count towards the heap pages a scan reads and
    /// towards nothing else.
    pub fn new(db: &PCubeDb) -> Self {
        let relation = db.relation();
        let n_bool = relation.schema().n_bool();
        let value_counts = (0..n_bool)
            .map(|dim| {
                let mut counts: HashMap<u32, u64> = HashMap::new();
                for (_, v) in relation.live_bool_column(dim) {
                    *counts.entry(v).or_default() += 1;
                }
                counts
            })
            .collect();
        let fanout = db.rtree().m_max().max(2) as f64;
        let n = relation.live_len() as f64;
        Planner {
            n,
            heap_pages: relation.heap_pages() as f64,
            rtree_height: db.rtree().height().max(1) as f64,
            fanout,
            leaves: (n / fanout).ceil().max(1.0),
            n_pred_capable: n_bool,
            value_counts,
            cost: CostModel::default(),
        }
    }

    /// Exact number of rows with `A_dim = value` (the catalog statistic the
    /// boolean-first optimizer also uses; free).
    pub fn value_count(&self, dim: usize, value: u32) -> u64 {
        self.value_counts
            .get(dim)
            .and_then(|c| c.get(&value).copied())
            .unwrap_or(0)
    }

    /// Estimated fraction of tuples satisfying `selection`: exact
    /// per-predicate frequencies multiplied under cross-dimension
    /// independence. Empty selections (after normalization) have
    /// selectivity 1.
    pub fn selectivity(&self, selection: &Selection) -> f64 {
        let selection = normalize(selection);
        if self.n == 0.0 {
            return 1.0;
        }
        selection
            .iter()
            .map(|p| {
                if p.dim >= self.n_pred_capable {
                    return 0.0;
                }
                self.value_count(p.dim, p.value) as f64 / self.n
            })
            .product()
    }

    /// Expected skyline size of `q` independently distributed points in
    /// `dims` dimensions: `ln(1+q)^(dims-1)`, clamped to `[1, q]`. Public
    /// so [`crate::query::QueryClass::expected_results`] implementations
    /// can reuse it.
    pub fn skyline_size(q: f64, dims: usize) -> f64 {
        if q < 1.0 {
            return q.max(0.0);
        }
        (1.0_f64 + q).ln().powi(dims.saturating_sub(1) as i32).clamp(1.0, q)
    }

    /// R-tree nodes read to surface `tuples` tuples best-first: the root
    /// path plus the touched leaves and their ancestors (geometric in the
    /// fanout).
    fn rtree_nodes(&self, tuples: f64) -> f64 {
        let leaves = (tuples / self.fanout).ceil().clamp(1.0, self.leaves);
        self.rtree_height + leaves * self.fanout / (self.fanout - 1.0)
    }

    /// Signature pages loaded by a P-Cube traversal that expands
    /// `nodes` R-tree nodes under `preds` predicates: one partial per
    /// predicate per level on the spine, plus one per predicate per
    /// expanded-node batch (partials are page-sized, so consecutive nodes
    /// share them).
    fn signature_pages(&self, preds: usize, nodes: f64) -> f64 {
        preds as f64 * (self.rtree_height + (nodes / 8.0).ceil())
    }

    /// Per-engine cost estimates for `class` under `selection`, in modeled
    /// block accesses. The single class-specific term — the expected answer
    /// cardinality `w` — is supplied by [`QueryClass::expected_results`]
    /// (`min(k, q)` for top-k, `s(q)` for skylines), and the index-merge
    /// estimate is included only when the class declares support. Formulas
    /// per engine:
    ///
    /// * **Boolean-first** — the cheaper (in blocks) of the index route
    ///   (`Σ_d (⌈c_d/255⌉ + 2)` B+-tree pages + `q` random tuple fetches)
    ///   and the table-scan route (`P` sequential pages); the preference
    ///   step is in-memory. The planner-dispatched executor routes by the
    ///   same block comparison, so the estimate predicts the route taken.
    /// * **Domination-first** — surfaces candidates without boolean
    ///   pruning and random-fetches every one (minimal probing): expected
    ///   candidates are `w/σ`, plus the R-tree nodes to surface them.
    /// * **Index-merge** (top-k only) — same surfacing as
    ///   domination-first, but each surfaced tuple pays one pinned-descent
    ///   B+-tree leaf probe per predicate instead of a tuple fetch.
    /// * **P-Cube** — signature pruning restricts the traversal to
    ///   subtrees with qualifying tuples: `w/σ'` tuple pops where
    ///   `σ' = max(σ, 1/m)` per leaf; plus signature pages, no tuple
    ///   fetches.
    pub fn estimate_class<C: QueryClass>(
        &self,
        selection: &Selection,
        class: &C,
    ) -> Vec<CostEstimate> {
        let selection = normalize(selection);
        let preds = selection.len();
        let sigma = self.selectivity(&selection).clamp(0.0, 1.0);
        let q = (sigma * self.n).min(self.n);
        // Candidates an engine *without* boolean pruning surfaces before
        // it has seen the whole qualifying answer (geometric waiting).
        let surfaced = |wanted: f64| -> f64 {
            if sigma <= 0.0 {
                self.n
            } else {
                (wanted / sigma).clamp(wanted, self.n)
            }
        };

        let mut estimates = Vec::new();

        // Boolean-first. The route mirror: the planner-dispatched executor
        // routes index-vs-scan by predicted blocks from the same catalog
        // counts, so the cheaper route here is the route it will take.
        {
            let (random, sequential) = if preds == 0 {
                (0.0, self.heap_pages)
            } else {
                let index_pages: f64 = selection
                    .iter()
                    .map(|p| (self.value_count(p.dim, p.value) as f64 / BPTREE_LEAF_CAP).ceil() + 2.0)
                    .sum();
                if index_pages + q < self.heap_pages {
                    (index_pages + q, 0.0)
                } else {
                    (0.0, self.heap_pages)
                }
            };
            estimates.push(self.finish(EngineKind::BooleanFirst, random, sequential));
        }

        let wanted = class.expected_results(q);

        // Domination-first: every surfaced candidate is a random fetch.
        {
            let cand = surfaced(wanted.max(1.0));
            let random = self.rtree_nodes(cand) + cand;
            estimates.push(self.finish(EngineKind::DominationFirst, random, 0.0));
        }

        // Index-merge (top-k style classes only): per-candidate B+-tree
        // leaf probes.
        if class.supports(EngineKind::IndexMerge) {
            let cand = surfaced(wanted.max(1.0));
            let random = self.rtree_nodes(cand) + cand * preds as f64;
            estimates.push(self.finish(EngineKind::IndexMerge, random, 0.0));
        }

        // P-Cube: signature pruning never pops a non-qualifying tuple, so
        // the pop count is bounded by the answer, not by 1/σ — but sparse
        // qualifying leaves (less than one qualifying tuple per leaf)
        // still cost a node each.
        {
            // Qualifying tuples per touched leaf: σ·m, at least one (a
            // sparse cell still costs a whole leaf per qualifying tuple).
            let per_leaf = (sigma * self.fanout).max(1.0);
            let leaves =
                (wanted.max(1.0) / per_leaf).ceil().clamp(1.0, self.leaves.min(q.max(1.0)));
            let nodes = self.rtree_height + leaves * self.fanout / (self.fanout - 1.0);
            let random = nodes + self.signature_pages(preds, nodes);
            estimates.push(self.finish(EngineKind::PCube, random, 0.0));
        }

        estimates
    }

    fn finish(&self, engine: EngineKind, random: f64, sequential: f64) -> CostEstimate {
        CostEstimate {
            engine,
            random_blocks: random,
            sequential_blocks: sequential,
            seconds: random * self.cost.random_page_seconds
                + sequential * self.cost.sequential_page_seconds,
        }
    }

    /// Estimates every available engine and picks the cheapest by total
    /// predicted block accesses (ties go to P-Cube, then the earlier
    /// estimate); [`PlanDecision::class`] records the class name.
    pub fn choose_class<C: QueryClass>(
        &self,
        selection: &Selection,
        class: &C,
        available: &[EngineKind],
    ) -> PlanDecision {
        let selection = normalize(selection);
        let estimates = self.estimate_class(&selection, class);
        let estimates: Vec<CostEstimate> =
            estimates.into_iter().filter(|e| available.contains(&e.engine)).collect();
        let chosen = cheapest(estimates.iter()).unwrap_or(EngineKind::PCube);
        let sigma = self.selectivity(&selection);
        PlanDecision {
            class: class.name(),
            chosen,
            estimates,
            selectivity: sigma,
            qualifying_est: sigma * self.n,
            budget_limited: false,
            fallback_from: None,
        }
    }

    /// [`Self::choose_class`] under a [`QueryBudget`]: when the cheapest
    /// engine's estimate is predicted to overrun the budget (blocks over the
    /// block budget, or modeled seconds over the deadline), falls back to
    /// the cheapest engine whose estimate *fits*, recording the substitution
    /// in [`PlanDecision::fallback_from`]. When no engine fits, keeps the raw
    /// winner (the executor's governor will cut it short) and only sets
    /// [`PlanDecision::budget_limited`].
    pub fn choose_class_governed<C: QueryClass>(
        &self,
        selection: &Selection,
        class: &C,
        available: &[EngineKind],
        budget: &QueryBudget,
    ) -> PlanDecision {
        let mut decision = self.choose_class(selection, class, available);
        let fits = |e: &CostEstimate| -> bool {
            budget.max_blocks().is_none_or(|b| e.blocks() <= b as f64)
                && budget.deadline().is_none_or(|d| e.seconds <= d.as_secs_f64())
        };
        let chosen_fits =
            decision.estimates.iter().any(|e| e.engine == decision.chosen && fits(e));
        if chosen_fits {
            return decision;
        }
        decision.budget_limited = true;
        if let Some(engine) = cheapest(decision.estimates.iter().filter(|e| fits(e))) {
            decision.fallback_from = Some(decision.chosen);
            decision.chosen = engine;
        }
        decision
    }
}

/// The cheapest estimate by total predicted blocks; ties go to P-Cube, then
/// to the earlier estimate.
fn cheapest<'a>(estimates: impl Iterator<Item = &'a CostEstimate>) -> Option<EngineKind> {
    estimates
        .min_by(|a, b| {
            a.blocks()
                .total_cmp(&b.blocks())
                .then_with(|| (b.engine == EngineKind::PCube).cmp(&(a.engine == EngineKind::PCube)))
        })
        .map(|e| e.engine)
}

/// Errors from [`PCubeDb::plan_and_run_topk`] /
/// [`PCubeDb::plan_and_run_skyline`].
#[derive(Debug)]
pub enum PlanError {
    /// No registered executor supports the query class.
    NoExecutor,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoExecutor => write!(f, "no registered executor supports this query"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans `class` over the registered executors whose engine family the
/// class supports; returns the decision and the executor it dispatches to.
fn plan_over<'e, C: QueryClass>(
    planner: &Planner,
    executors: &[&'e dyn Executor],
    selection: &Selection,
    class: &C,
    budget: &QueryBudget,
) -> Result<(PlanDecision, &'e dyn Executor), PlanError> {
    let kinds: Vec<EngineKind> =
        executors.iter().map(|e| e.kind()).filter(|&kind| class.supports(kind)).collect();
    if kinds.is_empty() {
        return Err(PlanError::NoExecutor);
    }
    let decision = planner.choose_class_governed(selection, class, &kinds, budget);
    let exec = executors
        .iter()
        .find(|e| e.kind() == decision.chosen)
        .expect("chosen engine comes from the available set");
    Ok((decision, *exec))
}

impl PCubeDb {
    /// The §VI catalog of this version of the database: built on first use
    /// and shared until the next insert or delete ([`PCubeDb::derived`]).
    pub fn planner(&self) -> std::sync::Arc<Planner> {
        self.derived(Planner::new)
    }

    /// Plans and runs a top-k query over the engines of §VI-A: estimates
    /// each registered executor's block accesses
    /// ([`Planner::choose_class_governed`] — an engine predicted to overrun
    /// the budget loses to the cheapest one predicted to fit), dispatches to
    /// the winner under the budget and cancel token, and records the
    /// decision in the returned stats (`stats.plan`).
    #[allow(clippy::too_many_arguments)]
    pub fn plan_and_run_topk(
        &self,
        planner: &Planner,
        executors: &[&dyn Executor],
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Result<(TopKRows, QueryStats), PlanError> {
        let class = TopKClass::new(k, f);
        let (decision, exec) = plan_over(planner, executors, selection, &class, budget)?;
        let (rows, mut stats) =
            exec.topk(self, selection, k, f, budget, cancel).ok_or(PlanError::NoExecutor)?;
        stats.plan = Some(decision);
        Ok((rows, stats))
    }

    /// Plans and runs a skyline query (see [`Self::plan_and_run_topk`]).
    pub fn plan_and_run_skyline(
        &self,
        planner: &Planner,
        executors: &[&dyn Executor],
        selection: &Selection,
        pref_dims: &[usize],
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Result<(SkylineRows, QueryStats), PlanError> {
        let class = SkylineClass::new(pref_dims.to_vec());
        let (decision, exec) = plan_over(planner, executors, selection, &class, budget)?;
        let (rows, mut stats) = exec
            .skyline(self, selection, pref_dims, budget, cancel)
            .ok_or(PlanError::NoExecutor)?;
        stats.plan = Some(decision);
        Ok((rows, stats))
    }

    /// Plans and runs any pluggable [`QueryClass`] under a [`QueryBudget`]
    /// and optional [`CancelToken`].
    ///
    /// Three engines are offered to the planner (filtered further by
    /// [`QueryClass::supports`]):
    ///
    /// * **P-Cube** — the signature-pruned Algorithm-1 traversal, fully
    ///   governed (budget/cancel produce `Partial` outcomes).
    /// * **Domination-first** — the same traversal without boolean pruning:
    ///   every popped tuple is verified against the base table
    ///   ([`VerifyAllPruner`]), also fully governed.
    /// * **Boolean-first** — the selection is resolved to a candidate list
    ///   first (index or scan route, picked inside the relation layer) and
    ///   the class's reference preference step runs over it in memory. The
    ///   candidate materialisation is not interruptible, so budget/cancel
    ///   are ignored on this path — the planner only picks it when the
    ///   predicted cost fits the budget anyway.
    ///
    /// The decision (with per-engine estimates and the class name) is
    /// recorded in `stats.plan`.
    pub fn plan_and_run_class<C: QueryClass + Sync>(
        &self,
        planner: &Planner,
        class: &C,
        selection: &Selection,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vec<C::Row>, QueryStats), PlanError> {
        let available: Vec<EngineKind> =
            [EngineKind::PCube, EngineKind::BooleanFirst, EngineKind::DominationFirst]
                .into_iter()
                .filter(|&kind| class.supports(kind))
                .collect();
        if available.is_empty() {
            return Err(PlanError::NoExecutor);
        }
        let decision = planner.choose_class_governed(selection, class, &available, budget);
        let outcome = match decision.chosen {
            EngineKind::BooleanFirst => run_class_scan(self, selection, class),
            EngineKind::DominationFirst => {
                run_class_probed(self, selection, class, &mut VerifyAllPruner, budget, cancel)
            }
            // The generic dispatch never offers index-merge (there is no
            // generic index-merge engine); if a class ever claims it, run
            // the signature-guided traversal instead.
            EngineKind::PCube | EngineKind::IndexMerge => {
                run_class(self, selection, class, false, budget, cancel)
            }
        };
        let mut stats = outcome.stats;
        stats.plan = Some(decision);
        Ok((outcome.rows, stats))
    }

    /// Runs `class` on one specific engine, bypassing the planner — the
    /// seam the calibration bench uses to measure every engine's actual
    /// block count against [`Planner::estimate_class`]. Errors when the
    /// class does not support the engine (or for `IndexMerge`, which has
    /// no generic engine).
    pub fn run_class_on<C: QueryClass + Sync>(
        &self,
        class: &C,
        selection: &Selection,
        engine: EngineKind,
    ) -> Result<(Vec<C::Row>, QueryStats), PlanError> {
        if !class.supports(engine) {
            return Err(PlanError::NoExecutor);
        }
        let budget = QueryBudget::unlimited();
        let outcome = match engine {
            EngineKind::BooleanFirst => run_class_scan(self, selection, class),
            EngineKind::DominationFirst => {
                run_class_probed(self, selection, class, &mut VerifyAllPruner, &budget, None)
            }
            EngineKind::PCube => run_class(self, selection, class, false, &budget, None),
            EngineKind::IndexMerge => return Err(PlanError::NoExecutor),
        };
        Ok((outcome.rows, outcome.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcube::PCubeConfig;
    use pcube_cube::{Predicate, Relation, Schema};

    fn db(n: usize) -> PCubeDb {
        let mut rel = Relation::new(Schema::new(&["a", "b"], &["x", "y"]));
        for i in 0..n {
            // Dimension a: skewed — value 0 covers 90%, values 1.. are rare.
            let a = if i % 10 == 0 { 1 + ((i / 10) % 5) as u32 } else { 0 };
            let b = (i % 3) as u32;
            let x = (i as f64 * 0.37) % 1.0;
            let y = (i as f64 * 0.61) % 1.0;
            rel.push_coded(&[a, b], &[x, y]);
        }
        PCubeDb::build(rel, &PCubeConfig::default())
    }

    #[test]
    fn selectivity_uses_exact_counts() {
        let db = db(1000);
        let planner = db.planner();
        let sel = vec![Predicate { dim: 0, value: 0 }];
        let sigma = planner.selectivity(&sel);
        assert!((sigma - 0.9).abs() < 1e-9, "σ = {sigma}");
        assert_eq!(planner.selectivity(&Vec::new()), 1.0);
        // Unknown value → zero selectivity.
        assert_eq!(planner.selectivity(&vec![Predicate { dim: 0, value: 99 }]), 0.0);
    }

    #[test]
    fn estimates_are_finite_and_positive() {
        let db = db(500);
        let planner = db.planner();
        let f = crate::rank::MinCoordSum::all(2);
        for sel in [Vec::new(), vec![Predicate { dim: 0, value: 1 }]] {
            let estimates = planner
                .estimate_class(&sel, &TopKClass::new(5, &f))
                .into_iter()
                .chain(planner.estimate_class(&sel, &SkylineClass::new(vec![0, 1])));
            for e in estimates {
                assert!(e.blocks().is_finite() && e.blocks() > 0.0, "{:?}", e);
                assert!(e.seconds.is_finite() && e.seconds > 0.0);
            }
        }
    }

    #[test]
    fn crossover_selective_to_baseline_unselective_to_pcube() {
        let db = db(2000);
        let planner = db.planner();
        let all = [
            EngineKind::PCube,
            EngineKind::BooleanFirst,
            EngineKind::DominationFirst,
            EngineKind::IndexMerge,
        ];
        // Rare value: a handful of matches — a B+-tree fetch of the few
        // qualifying rows should beat a signature-guided traversal.
        let f = crate::rank::MinCoordSum::all(2);
        let top10 = TopKClass::new(10, &f);
        let selective = vec![Predicate { dim: 0, value: 1 }, Predicate { dim: 1, value: 0 }];
        let d = planner.choose_class(&selective, &top10, &all);
        assert_eq!(d.chosen, EngineKind::BooleanFirst, "{:?}", d);
        // Dominant value: most rows qualify — baselines pay per-candidate
        // random accesses, P-Cube doesn't.
        let unselective = vec![Predicate { dim: 0, value: 0 }];
        let d = planner.choose_class(&unselective, &top10, &all);
        assert_eq!(d.chosen, EngineKind::PCube, "{:?}", d);
    }

    #[test]
    fn budget_fallback_substitutes_the_cheapest_fitting_engine() {
        let db = db(2000);
        let planner = db.planner();
        let all = [
            EngineKind::PCube,
            EngineKind::BooleanFirst,
            EngineKind::DominationFirst,
            EngineKind::IndexMerge,
        ];
        let unselective = vec![Predicate { dim: 0, value: 0 }];
        let f = crate::rank::MinCoordSum::all(2);
        let query = TopKClass::new(10, &f);
        let raw = planner.choose_class(&unselective, &query, &all);
        assert!(!raw.budget_limited);
        assert!(raw.fallback_from.is_none());

        // A budget below the winner's estimate but above some rival's
        // forces a recorded substitution.
        let winner_blocks = raw.chosen_estimate().blocks();
        let cheapest_rival = raw
            .estimates
            .iter()
            .filter(|e| e.engine != raw.chosen)
            .map(|e| e.blocks())
            .fold(f64::INFINITY, f64::min);
        if cheapest_rival < winner_blocks {
            let cap = cheapest_rival.ceil() as u64;
            let budget = QueryBudget::unlimited().with_block_budget(cap);
            let governed = planner.choose_class_governed(&unselective, &query, &all, &budget);
            assert!(governed.budget_limited, "{governed:?}");
            assert_eq!(governed.fallback_from, Some(raw.chosen));
            assert_ne!(governed.chosen, raw.chosen);
            assert!(governed.chosen_estimate().blocks() <= cap as f64);
        }

        // A budget nothing fits: keep the raw winner, flag the limit.
        let budget = QueryBudget::unlimited().with_block_budget(0);
        let governed = planner.choose_class_governed(&unselective, &query, &all, &budget);
        assert!(governed.budget_limited);
        assert_eq!(governed.chosen, raw.chosen);
        assert!(governed.fallback_from.is_none());

        // A roomy budget changes nothing.
        let budget = QueryBudget::unlimited().with_block_budget(u64::MAX);
        let governed = planner.choose_class_governed(&unselective, &query, &all, &budget);
        assert!(!governed.budget_limited);
        assert_eq!(governed.chosen, raw.chosen);
    }

    #[test]
    fn plan_and_run_matches_direct_engines() {
        let db = db(800);
        let planner = db.planner();
        let budget = QueryBudget::unlimited();
        let pcube = PCubeExecutor;
        let execs: Vec<&dyn Executor> = vec![&pcube];
        let f = crate::rank::LinearFn::new(vec![0.5, 0.5]);
        let sel = vec![Predicate { dim: 1, value: 2 }];
        let (top, stats) = db
            .plan_and_run_topk(&planner, &execs, &sel, 5, &f, &budget, None)
            .expect("planned");
        assert_eq!(top, db.run(&sel, &TopKClass::new(5, &f)).rows);
        let plan = stats.plan.expect("decision recorded");
        assert_eq!(plan.chosen, EngineKind::PCube);
        assert!(plan.chosen_estimate().blocks() > 0.0);

        let (sky, stats) = db
            .plan_and_run_skyline(&planner, &execs, &sel, &[0, 1], &budget, None)
            .expect("planned");
        assert_eq!(sky, db.run(&sel, &SkylineClass::new(vec![0, 1])).rows);
        assert!(stats.plan.is_some());
    }

    #[test]
    fn plan_and_run_class_matches_direct_run() {
        let db = db(800);
        let planner = db.planner();
        let budget = QueryBudget::unlimited();
        let sel = vec![Predicate { dim: 1, value: 2 }];

        let f = crate::rank::LinearFn::new(vec![0.5, 0.5]);
        let class = TopKClass::new(5, &f);
        let (rows, stats) =
            db.plan_and_run_class(&planner, &class, &sel, &budget, None).expect("planned");
        assert_eq!(rows, db.run(&sel, &class).rows);
        let plan = stats.plan.expect("decision recorded");
        assert_eq!(plan.class, "topk");

        // Skyline likewise, and the decision carries the class name.
        let class = SkylineClass::new(vec![0, 1]);
        let (rows, stats) =
            db.plan_and_run_class(&planner, &class, &sel, &budget, None).expect("planned");
        assert_eq!(rows, db.run(&sel, &class).rows);
        assert_eq!(stats.plan.expect("decision recorded").class, "skyline");
    }

    /// Every generic engine the class dispatcher can pick returns the same
    /// answer (boolean-first and domination-first are verification paths
    /// for the signature-guided traversal).
    #[test]
    fn class_engines_agree_on_every_route() {
        let db = db(600);
        let sel = vec![Predicate { dim: 0, value: 0 }];
        let class = SkylineClass::new(vec![0, 1]);
        let budget = QueryBudget::unlimited();
        let pcube = run_class(&db, &sel, &class, false, &budget, None);
        let verify = run_class_probed(&db, &sel, &class, &mut VerifyAllPruner, &budget, None);
        let scan = run_class_scan(&db, &sel, &class);
        assert_eq!(pcube.rows, verify.rows);
        assert_eq!(pcube.rows, scan.rows);
    }
}
