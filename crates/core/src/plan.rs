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
//! its work. Dispatch goes through the one engine seam
//! ([`run_class_engine`]): [`PCubeDb::plan_and_run_class`] plans and runs,
//! [`PCubeDb::run_class_on`] runs a named engine.
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
use std::sync::Arc;

use pcube_cube::{normalize, Selection};
use pcube_storage::CostModel;

use crate::boolean_index::{index_route_blocks, BooleanIndexSet, SelectRoute};
use crate::pcube::PCubeDb;
use crate::query::class::{run_class_engine, Engine};
use crate::query::{check_schema, CancelToken, ClassOutcome, QueryBudget, QueryClass, QueryStats};

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
    /// Every engine, in the order the planner offers them — which is how
    /// [`Planner::choose_class`] breaks ties among the comparison methods.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::PCube,
        EngineKind::BooleanFirst,
        EngineKind::DominationFirst,
        EngineKind::IndexMerge,
    ];

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
    /// Entries per leaf of a boolean index at the database's page size.
    bptree_leaf_cap: f64,
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
            bptree_leaf_cap: pcube_bptree::leaf_capacity(db.rtree().pager().page_size()) as f64,
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
    ///   (`Σ_d (⌈c_d/cap⌉ + 2)` B+-tree pages of `cap`-entry leaves + `q`
    ///   random tuple fetches) and the table-scan route (`P` sequential
    ///   pages); the preference step is in-memory. The planned engine
    ///   routes by the same function over the same counts, so the estimate
    ///   predicts the route taken.
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

        // Boolean-first: the cheaper route in blocks, which is the route
        // `BooleanIndexSet::block_route` takes from the same counts.
        {
            let counts = selection.iter().map(|p| self.value_count(p.dim, p.value));
            let index_blocks = index_route_blocks(counts, self.n, self.bptree_leaf_cap);
            let (random, sequential) = if preds > 0 && index_blocks < self.heap_pages {
                (index_blocks, 0.0)
            } else {
                (0.0, self.heap_pages)
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

/// Errors from [`PCubeDb::plan_and_run_class`] / [`PCubeDb::run_class_on`].
#[derive(Debug)]
pub enum PlanError {
    /// No engine (or not the named one) supports the query class.
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

impl PCubeDb {
    /// The §VI catalog of this version of the database: built on first use
    /// and shared — by every statement, session and snapshot — until the
    /// next insert or delete (see [`PCubeDb::clone_snapshot`]).
    pub fn planner(&self) -> Arc<Planner> {
        Arc::clone(self.catalog.get_or_init(|| Arc::new(Planner::new(self))))
    }

    /// Plans and runs any [`QueryClass`] over the four engines of §VI-A
    /// (those the class [supports](QueryClass::supports)): estimates each
    /// one's block accesses ([`Planner::choose_class_governed`] — an engine
    /// predicted to overrun the budget loses to the cheapest one predicted to
    /// fit), runs the winner through the engine seam ([`run_class_engine`])
    /// under the budget and cancel token, and records the decision — with
    /// per-engine estimates and the class name — in `stats.plan`.
    ///
    /// Every engine is governed at pop granularity; boolean-first also
    /// checks once before its selection step (a trip there gives an empty
    /// `Partial` and reads nothing). Boolean-first with a non-empty selection and
    /// index-merge read the database's boolean indexes
    /// ([`BooleanIndexSet::of`]: bulk loaded by the first query that needs
    /// them, kept until the next insert or delete); boolean-first takes the
    /// index or the scan route by predicted blocks, as estimated.
    pub fn plan_and_run_class<C: QueryClass + Sync>(
        &self,
        planner: &Planner,
        class: &C,
        selection: &Selection,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vec<C::Row>, QueryStats), PlanError> {
        let available: Vec<EngineKind> =
            EngineKind::ALL.into_iter().filter(|&kind| class.supports(kind)).collect();
        if available.is_empty() {
            return Err(PlanError::NoExecutor);
        }
        let decision = planner.choose_class_governed(selection, class, &available, budget);
        let outcome = self.run_class_kind(class, selection, decision.chosen, budget, cancel);
        let mut stats = outcome.stats;
        stats.plan = Some(decision);
        Ok((outcome.rows, stats))
    }

    /// Runs `class` on one specific engine, bypassing the planner — the
    /// seam the calibration bench uses to measure every engine's actual
    /// block count against [`Planner::estimate_class`]. Errors when the
    /// class does not support the engine.
    pub fn run_class_on<C: QueryClass + Sync>(
        &self,
        class: &C,
        selection: &Selection,
        engine: EngineKind,
    ) -> Result<(Vec<C::Row>, QueryStats), PlanError> {
        if !class.supports(engine) {
            return Err(PlanError::NoExecutor);
        }
        let outcome =
            self.run_class_kind(class, selection, engine, &QueryBudget::unlimited(), None);
        Ok((outcome.rows, outcome.stats))
    }

    /// `kind` as an [`Engine`] over this database's own indexes — taken
    /// only by an engine that reads them. Out of line: it instantiates all
    /// four engines for the class, once per query, in a caller that usually
    /// holds the class's instance of the driver's fan-out too.
    #[inline(never)]
    fn run_class_kind<C: QueryClass>(
        &self,
        class: &C,
        selection: &Selection,
        kind: EngineKind,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> ClassOutcome<C::Row> {
        // Refuse a class the schema cannot answer before building anything.
        check_schema(self, selection, class);
        let selection = normalize(selection);
        let run = |engine| run_class_engine(self, &selection, class, engine, budget, cancel);
        match kind {
            EngineKind::PCube => run(Engine::PCube),
            EngineKind::DominationFirst => run(Engine::DominationFirst),
            EngineKind::IndexMerge => run(Engine::IndexMerge(&BooleanIndexSet::of(self))),
            // Nothing to look up: the heap scan needs no index.
            EngineKind::BooleanFirst if selection.is_empty() => {
                run(Engine::BooleanFirst(&BooleanIndexSet::default(), SelectRoute::Scan))
            }
            EngineKind::BooleanFirst => {
                let indexes = BooleanIndexSet::of(self);
                let route = indexes.block_route(self.relation(), &selection);
                run(Engine::BooleanFirst(&indexes, route))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcube::PCubeConfig;
    use crate::query::{SkylineClass, TopKClass};
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
        let all = EngineKind::ALL;
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
        let all = EngineKind::ALL;
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

    /// Every engine the class supports returns the class's answer through
    /// `run_class_on`; index-merge really is index-merge (B+-tree probes, no
    /// signature page), and an engine the class does not support is refused.
    #[test]
    fn every_supported_engine_agrees_and_unsupported_ones_are_refused() {
        use pcube_storage::IoCategory;
        let db = db(600);
        let sel = vec![Predicate { dim: 0, value: 0 }];
        let f = crate::rank::LinearFn::new(vec![0.5, 0.5]);
        let top = TopKClass::new(5, &f);
        let want = db.run(&sel, &top).rows;
        for kind in EngineKind::ALL {
            let (rows, stats) = db.run_class_on(&top, &sel, kind).expect("top-k runs anywhere");
            assert_eq!(rows, want, "{}", kind.name());
            if kind == EngineKind::IndexMerge {
                assert!(stats.io.reads(IoCategory::BptreePage) > 0, "probes cost B+-tree pages");
                assert_eq!(stats.io.reads(IoCategory::SignaturePage), 0, "no signatures");
                assert_eq!(stats.io.reads(IoCategory::TupleRandomAccess), 0, "no heap probes");
            }
        }
        let sky = SkylineClass::new(vec![0, 1]);
        let want = db.run(&sel, &sky).rows;
        for kind in EngineKind::ALL.into_iter().filter(|&k| sky.supports(k)) {
            assert_eq!(db.run_class_on(&sky, &sel, kind).expect("supported").0, want);
        }
        assert!(matches!(
            db.run_class_on(&sky, &sel, EngineKind::IndexMerge),
            Err(PlanError::NoExecutor)
        ));
    }

    /// One copy of the boolean-first route model: at a page size whose
    /// B+-tree leaves hold 63 entries, not 255, the estimate still predicts
    /// the route the engine takes and the pages it reads.
    #[test]
    fn estimator_and_router_agree_at_a_1_kib_page() {
        use pcube_storage::IoCategory;
        assert_eq!(pcube_bptree::leaf_capacity(1024), 63);
        let mut rel = Relation::new(Schema::new(&["a"], &["x", "y"]));
        for i in 0..4000u32 {
            // Value v covers 2^v rows out of every 1024 (v = 0..=9), the rest hold 10.
            let a = (0..10).find(|&v| i % 1024 < (2 << v) - 1).unwrap_or(10);
            rel.push_coded(&[a], &[f64::from(i % 61) / 61.0, f64::from(i % 67) / 67.0]);
        }
        let cfg = PCubeConfig { page_size: 1024, ..PCubeConfig::default() };
        let db = PCubeDb::build(rel, &cfg);
        let planner = db.planner();
        let class = SkylineClass::new(vec![0, 1]);
        let mut routes = std::collections::HashSet::new();
        for value in 0..=10 {
            let sel = vec![Predicate { dim: 0, value }];
            let estimate = planner
                .estimate_class(&sel, &class)
                .into_iter()
                .find(|e| e.engine == EngineKind::BooleanFirst)
                .expect("always estimated");
            let (_, stats) =
                db.run_class_on(&class, &sel, EngineKind::BooleanFirst).expect("supported");
            let scanned = stats.io.reads(IoCategory::HeapScan) > 0;
            assert_eq!(scanned, estimate.sequential_blocks > 0.0, "a = {value}: {estimate:?}");
            routes.insert(scanned);
            if !scanned {
                // Pinned descents: the estimate's `+ 2` per predicate is the
                // only slack.
                let read = stats.io.total_reads() as f64;
                assert!(read <= estimate.blocks() && estimate.blocks() <= read + 2.0, "a = {value}");
                let c = planner.value_count(0, value) as f64;
                assert_eq!(estimate.blocks(), (c / 63.0).ceil() + 2.0 + c);
            }
        }
        assert_eq!(routes.len(), 2, "the sweep crosses over");
    }

    /// Boolean-first is governed for every class: a cancelled token stops it
    /// before the selection step reads a block, on either route.
    #[test]
    fn cancelled_boolean_first_reads_nothing() {
        let db = db(2000);
        let sel = vec![Predicate { dim: 0, value: 5 }];
        let class = crate::query::SubspaceSkylineClass::new(vec![1]);
        let indexes = BooleanIndexSet::of(&db);
        let cancel = CancelToken::new();
        cancel.cancel();
        for route in [SelectRoute::Index, SelectRoute::Scan] {
            let engine = Engine::BooleanFirst(&indexes, route);
            let budget = QueryBudget::unlimited();
            let done = run_class_engine(&db, &sel, &class, engine, &budget, None);
            assert_eq!(done.rows, db.run(&sel, &class).rows);
            assert!(done.stats.io.total_reads() > 0);
            let cut = run_class_engine(&db, &sel, &class, engine, &budget, Some(&cancel));
            assert!(cut.rows.is_empty());
            assert_eq!(cut.stats.io.total_reads(), 0);
            assert!(matches!(cut.stats.outcome, crate::query::QueryOutcome::Partial { .. }));
        }
    }
}
