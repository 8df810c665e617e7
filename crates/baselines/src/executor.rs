//! [`Executor`] adapters exposing the baseline engines to the §VI planner.
//!
//! Each adapter wraps one comparison method behind the uniform
//! [`Executor`] interface so that [`pcube_core::plan::Planner`] can
//! dispatch to it and the differential test suites can iterate every
//! engine with one loop. Results come back in the canonical orders the
//! serial engines already emit — ascending `(score, tid)` for top-k and
//! ascending `(coordinate sum, tid)` for skylines — so planner output is
//! comparable across engines tuple-for-tuple.

use pcube_core::{
    CancelToken, EngineKind, Executor, PCubeDb, QueryBudget, QueryStats, RankingFunction,
};
use pcube_cube::{normalize, Selection};

use crate::boolean_first::{BooleanIndexSet, SelectRoute};
use crate::domination_first::{bbs_skyline_governed, ranking_topk_governed};
use crate::index_merge::index_merge_topk_governed;

/// Boolean-first behind [`Executor`]: B+-tree (or heap-scan) selection,
/// then an in-memory preference step. Borrows a prebuilt
/// [`BooleanIndexSet`] so planning many queries shares one set of indexes.
///
/// Routing: the planner's objective is **block accesses**, so this
/// executor picks the index or scan route by predicted blocks — not by
/// [`SelectRoute::Auto`]'s modeled seconds, whose heavy random-page weight
/// would route nearly everything to a scan and hide the Fig 13 crossover.
pub struct BooleanFirstExecutor<'a> {
    indexes: &'a BooleanIndexSet,
}

impl<'a> BooleanFirstExecutor<'a> {
    /// Wraps the given index set.
    pub fn new(indexes: &'a BooleanIndexSet) -> Self {
        BooleanFirstExecutor { indexes }
    }

    /// Chooses index vs scan by predicted block accesses, from the same
    /// estimate `BooleanIndexSet::select` costs in seconds: the index route
    /// reads each predicate's leaf range plus one fetch per estimated match,
    /// the scan route reads every heap page.
    fn block_route(&self, db: &PCubeDb, selection: &Selection) -> SelectRoute {
        let selection = normalize(selection);
        if selection.is_empty() {
            return SelectRoute::Scan;
        }
        let (index_pages, matches_est) =
            self.indexes.index_route_estimate(db.relation(), &selection);
        if index_pages + matches_est < db.relation().heap_pages() as f64 {
            SelectRoute::Index
        } else {
            SelectRoute::Scan
        }
    }
}

impl Executor for BooleanFirstExecutor<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::BooleanFirst
    }

    fn topk(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(Vec<(u64, Vec<f64>, f64)>, QueryStats)> {
        let route = self.block_route(db, selection);
        let out = self.indexes.topk_via_governed(db, selection, k, f, route, budget, cancel);
        Some((out.topk, out.stats))
    }

    fn skyline(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        pref_dims: &[usize],
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(Vec<(u64, Vec<f64>)>, QueryStats)> {
        let route = self.block_route(db, selection);
        let out =
            self.indexes.skyline_via_governed(db, selection, pref_dims, route, budget, cancel);
        Some((out.skyline, out.stats))
    }
}

/// Domination-first behind [`Executor`]: BBS / Ranking without boolean
/// pruning, verifying each candidate by a random tuple access.
pub struct DominationFirstExecutor;

impl Executor for DominationFirstExecutor {
    fn kind(&self) -> EngineKind {
        EngineKind::DominationFirst
    }

    fn topk(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(Vec<(u64, Vec<f64>, f64)>, QueryStats)> {
        Some(ranking_topk_governed(db, selection, k, f, budget, cancel))
    }

    fn skyline(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        pref_dims: &[usize],
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(Vec<(u64, Vec<f64>)>, QueryStats)> {
        Some(bbs_skyline_governed(db, selection, pref_dims, budget, cancel))
    }
}

/// Index-merge behind [`Executor`]: progressive R-tree expansion with
/// per-candidate B+-tree membership probes. Top-k only — `skyline`
/// returns `None`.
pub struct IndexMergeExecutor<'a> {
    indexes: &'a BooleanIndexSet,
}

impl<'a> IndexMergeExecutor<'a> {
    /// Wraps the given index set.
    pub fn new(indexes: &'a BooleanIndexSet) -> Self {
        IndexMergeExecutor { indexes }
    }
}

impl Executor for IndexMergeExecutor<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::IndexMerge
    }

    fn topk(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Option<(Vec<(u64, Vec<f64>, f64)>, QueryStats)> {
        Some(index_merge_topk_governed(db, self.indexes, selection, k, f, budget, cancel))
    }

    fn skyline(
        &self,
        _db: &PCubeDb,
        _selection: &Selection,
        _pref_dims: &[usize],
        _budget: &QueryBudget,
        _cancel: Option<&CancelToken>,
    ) -> Option<(Vec<(u64, Vec<f64>)>, QueryStats)> {
        None
    }
}
