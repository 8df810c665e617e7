//! The Boolean-first baseline (§VI-A): "We use B+-tree to index each boolean
//! dimension. Given the boolean predicates, we first select tuples satisfying
//! the boolean conditions. This may be conducted by index scan or table scan,
//! and we report the best performance of the two alternatives."
//!
//! The preference step then runs over the selected tuples in memory (SFS for
//! skylines, a full sort for top-k) — boolean pruning only, no preference
//! pruning against the indexes.

use std::collections::HashMap;
use std::sync::Arc;

use pcube_bptree::{composite_key, BPlusTree};
use pcube_core::{CancelToken, PCubeDb, QueryBudget, QueryStats, RankingFunction};
use pcube_cube::{normalize, Relation, Selection};
use pcube_storage::{CostModel, IoCategory, Pager};

use crate::domination_first::{apply_trip, make_governor};
use crate::reference::{naive_topk, sfs_skyline};

/// How the Boolean-first baseline retrieves the qualifying tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectRoute {
    /// Pick index scan or table scan by the cost model's estimate — the
    /// paper's "we report the best performance of the two alternatives".
    Auto,
    /// Force B+-tree index scans + random tuple fetches (unclustered
    /// access; this is the variant whose cost the paper's Fig 8 Boolean
    /// series exhibits).
    Index,
    /// Force a sequential heap scan.
    Scan,
}

/// One B+-tree per boolean dimension, keyed by `(value, tid)` composites
/// over the live rows, plus per-value row counts (the catalog statistics the
/// optimizer's index-vs-scan decision is based on).
///
/// [`BooleanIndexSet::of`] is the set a database keeps for its current
/// version; [`BooleanIndexSet::build`] is the constructor behind it.
pub struct BooleanIndexSet {
    trees: Vec<BPlusTree>,
    value_counts: Vec<HashMap<u32, u64>>,
}

impl BooleanIndexSet {
    /// The indexes of this version of `db`, at the database's page size:
    /// built on first use and shared — by every statement, session and
    /// snapshot — until the next insert or delete ([`PCubeDb::derived`]).
    /// They stay in memory that long: [`Self::size_bytes`], ~230 B per tuple
    /// at twelve boolean dimensions.
    pub fn of(db: &PCubeDb) -> Arc<BooleanIndexSet> {
        db.derived(|db| {
            Self::build(db.relation(), db.rtree().pager().page_size(), db.stats().clone())
        })
    }

    /// Bulk loads an index over the live rows of every boolean dimension of
    /// `relation`, charging page writes to `page_size`-sized B+-tree pages
    /// on the given ledger.
    ///
    /// # Panics
    /// Panics if the relation has more than 2³² rows: the composite key
    /// holds a tid in 32 bits, and a wider one would alias another row.
    pub fn build(relation: &Relation, page_size: usize, stats: pcube_storage::SharedStats) -> Self {
        assert!(
            relation.len() as u64 <= 1 << 32,
            "boolean indexes key tids in 32 bits; the relation has {} rows",
            relation.len()
        );
        let mut value_counts = Vec::new();
        let trees = (0..relation.schema().n_bool())
            .map(|dim| {
                let mut counts: HashMap<u32, u64> = HashMap::new();
                let mut entries: Vec<(u64, u64)> = relation
                    .live_bool_column(dim)
                    .map(|(tid, v)| {
                        *counts.entry(v).or_default() += 1;
                        (composite_key(v, tid as u32), 1)
                    })
                    .collect();
                value_counts.push(counts);
                entries.sort_unstable_by_key(|(k, _)| *k);
                let pager = Pager::new(page_size, IoCategory::BptreePage, stats.clone());
                let mut tree = BPlusTree::bulk_load(pager, entries, 1.0);
                // Internal pages pinned, as any warm buffer pool would.
                tree.set_internal_pinning(true);
                tree
            })
            .collect();
        BooleanIndexSet { trees, value_counts }
    }

    /// Exact number of live rows with `A_dim = value` (catalog statistic;
    /// free).
    pub fn value_count(&self, dim: usize, value: u32) -> u64 {
        self.value_counts[dim].get(&value).copied().unwrap_or(0)
    }

    /// Total bytes of all index pages (the Fig 6 "B-tree" series).
    pub fn size_bytes(&self) -> u64 {
        self.trees.iter().map(|t| t.pager().size_bytes()).sum()
    }

    /// Tids matching `A_dim = value`, ascending, via a counted range scan.
    pub fn lookup(&self, dim: usize, value: u32) -> Vec<u64> {
        self.trees[dim]
            .range(composite_key(value, 0)..=composite_key(value, u32::MAX))
            .map(|(k, _)| u64::from(k as u32))
            .collect()
    }

    /// `true` if the tuple `tid` has `A_dim = value` — one counted point
    /// lookup (used by the index-merge baseline's selective probes).
    pub fn probe(&self, dim: usize, value: u32, tid: u64) -> bool {
        self.trees[dim].get(composite_key(value, tid as u32)).is_some()
    }

    /// What the index route is predicted to read for a normalized, non-empty
    /// `selection`, from the catalog's exact per-value counts (independence
    /// assumed across predicates): `(B+-tree pages, tuple fetches)` — each
    /// predicate's leaf range plus its descent, then one random fetch per
    /// estimated final match.
    pub(crate) fn index_route_estimate(&self, relation: &Relation, selection: &Selection) -> (f64, f64) {
        let t = relation.live_len() as f64;
        let mut index_pages = 0.0;
        let mut match_frac = 1.0;
        for p in selection {
            let c = self.value_count(p.dim, p.value) as f64;
            let leaf_cap = self.trees[p.dim].leaf_capacity() as f64;
            index_pages += (c / leaf_cap).ceil() + 2.0; // range + descent
            match_frac *= c / t.max(1.0);
        }
        (index_pages, t * match_frac)
    }

    /// Selects the tids satisfying `selection` and returns their
    /// coordinates, routing per `route` (see [`SelectRoute`]). An empty
    /// selection always table-scans.
    pub fn select(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        cost: &CostModel,
        route: SelectRoute,
    ) -> Vec<(u64, Vec<f64>)> {
        let relation = db.relation();
        let selection = normalize(selection);
        let use_index = !selection.is_empty() && route != SelectRoute::Scan && (route == SelectRoute::Index || {
            // Index route: random page reads; scan route: every heap page
            // once, sequentially.
            let (index_pages, matches_est) = self.index_route_estimate(relation, &selection);
            let index_cost = (index_pages + matches_est) * cost.random_page_seconds;
            let scan_cost = relation.heap_pages() as f64 * cost.sequential_page_seconds;
            index_cost < scan_cost
        });
        if use_index {
            // Intersect the ascending tid lists, shortest first, by merging.
            let mut lists: Vec<Vec<u64>> =
                selection.iter().map(|p| self.lookup(p.dim, p.value)).collect();
            lists.sort_by_key(Vec::len);
            let mut current = lists.remove(0);
            for other in &lists {
                let mut rest = other.iter().peekable();
                current.retain(|tid| {
                    while rest.next_if(|&o| o < tid).is_some() {}
                    rest.peek() == Some(&tid)
                });
            }
            // Fetch coordinates by random access (counted per tuple).
            current
                .into_iter()
                .map(|tid| {
                    let _codes = relation.fetch(tid);
                    (tid, relation.pref_coords(tid))
                })
                .collect()
        } else {
            relation.scan(&selection).map(|tid| (tid, relation.pref_coords(tid))).collect()
        }
    }
}

/// Result of the Boolean-first skyline.
pub struct BooleanSkylineOutcome {
    /// Skyline `(tid, coords)` pairs.
    pub skyline: Vec<(u64, Vec<f64>)>,
    /// Execution metrics (peak "heap" = the selected candidate set held in
    /// memory, the Fig 10 measure for this method).
    pub stats: QueryStats,
}

/// Result of the Boolean-first top-k.
pub struct BooleanTopKOutcome {
    /// `(tid, coords, score)` ascending.
    pub topk: Vec<(u64, Vec<f64>, f64)>,
    /// Execution metrics.
    pub stats: QueryStats,
}

impl BooleanIndexSet {
    /// Boolean-first skyline: select then SFS (auto route).
    pub fn skyline(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        pref_dims: &[usize],
    ) -> BooleanSkylineOutcome {
        self.skyline_via(db, selection, pref_dims, SelectRoute::Auto)
    }

    /// Boolean-first skyline with an explicit retrieval route.
    pub fn skyline_via(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        pref_dims: &[usize],
        route: SelectRoute,
    ) -> BooleanSkylineOutcome {
        self.skyline_via_governed(db, selection, pref_dims, route, &QueryBudget::unlimited(), None)
    }

    /// [`Self::skyline_via`] under a [`QueryBudget`] and optional
    /// [`CancelToken`]. The selection step is monolithic, so governance is
    /// phase-granular: one check before the selection and one after. A trip
    /// yields an empty partial answer (this engine cannot report a sound
    /// sub-skyline before the preference step ran).
    pub fn skyline_via_governed(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        pref_dims: &[usize],
        route: SelectRoute,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> BooleanSkylineOutcome {
        let started = std::time::Instant::now();
        let before = db.stats().snapshot();
        let mut gov = make_governor(db, budget, cancel);
        if let Some(reason) = gov.as_mut().and_then(|g| g.check(0)) {
            let mut stats = QueryStats {
                io: db.stats().snapshot().since(&before),
                cpu_seconds: started.elapsed().as_secs_f64(),
                ..Default::default()
            };
            // invariant: the check above came from this governor.
            apply_trip(&mut stats, gov.as_ref().expect("governor tripped"), reason, 0, 0, 0);
            return BooleanSkylineOutcome { skyline: Vec::new(), stats };
        }
        let candidates = self.select(db, selection, &CostModel::default(), route);
        let peak = candidates.len();
        let tripped = gov.as_mut().and_then(|g| g.check(peak));
        let skyline =
            if tripped.is_some() { Vec::new() } else { sfs_skyline(&candidates, pref_dims) };
        let mut stats = QueryStats {
            peak_heap: peak,
            io: db.stats().snapshot().since(&before),
            cpu_seconds: started.elapsed().as_secs_f64(),
            ..Default::default()
        };
        if let (Some(reason), Some(g)) = (tripped, gov.as_ref()) {
            apply_trip(&mut stats, g, reason, 1, 0, peak as u64);
        }
        BooleanSkylineOutcome { skyline, stats }
    }

    /// Boolean-first top-k: select then sort (auto route).
    pub fn topk(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
    ) -> BooleanTopKOutcome {
        self.topk_via(db, selection, k, f, SelectRoute::Auto)
    }

    /// Boolean-first top-k with an explicit retrieval route.
    pub fn topk_via(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        route: SelectRoute,
    ) -> BooleanTopKOutcome {
        self.topk_via_governed(db, selection, k, f, route, &QueryBudget::unlimited(), None)
    }

    /// [`Self::topk_via`] under a [`QueryBudget`] and optional
    /// [`CancelToken`] — phase-granular governance like
    /// [`Self::skyline_via_governed`]; a trip yields an empty partial
    /// answer (trivially a prefix of the true top-k).
    #[allow(clippy::too_many_arguments)]
    pub fn topk_via_governed(
        &self,
        db: &PCubeDb,
        selection: &Selection,
        k: usize,
        f: &dyn RankingFunction,
        route: SelectRoute,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> BooleanTopKOutcome {
        let started = std::time::Instant::now();
        let before = db.stats().snapshot();
        let mut gov = make_governor(db, budget, cancel);
        if let Some(reason) = gov.as_mut().and_then(|g| g.check(0)) {
            let mut stats = QueryStats {
                io: db.stats().snapshot().since(&before),
                cpu_seconds: started.elapsed().as_secs_f64(),
                ..Default::default()
            };
            // invariant: the check above came from this governor.
            apply_trip(&mut stats, gov.as_ref().expect("governor tripped"), reason, 0, 0, 0);
            return BooleanTopKOutcome { topk: Vec::new(), stats };
        }
        let candidates = self.select(db, selection, &CostModel::default(), route);
        let peak = candidates.len();
        let tripped = gov.as_mut().and_then(|g| g.check(peak));
        let topk = if tripped.is_some() { Vec::new() } else { naive_topk(&candidates, k, f) };
        let mut stats = QueryStats {
            peak_heap: peak,
            io: db.stats().snapshot().since(&before),
            cpu_seconds: started.elapsed().as_secs_f64(),
            ..Default::default()
        };
        if let (Some(reason), Some(g)) = (tripped, gov.as_ref()) {
            apply_trip(&mut stats, g, reason, 1, 0, peak as u64);
        }
        BooleanTopKOutcome { topk, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_core::{LinearFn, PCubeConfig};
    use pcube_data::{synthetic, SyntheticSpec};

    fn small_db() -> (PCubeDb, BooleanIndexSet) {
        let spec = SyntheticSpec {
            n_tuples: 800,
            n_bool: 3,
            n_pref: 2,
            cardinality: 5,
            ..Default::default()
        };
        let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
        let idx = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
        (db, idx)
    }

    #[test]
    fn lookup_matches_scan() {
        let (db, idx) = small_db();
        for value in 0..5u32 {
            let from_index = idx.lookup(1, value);
            let expect: Vec<u64> = (0..db.relation().len() as u64)
                .filter(|&t| db.relation().bool_code(t, 1) == value)
                .collect();
            assert_eq!(from_index, expect, "value {value}");
        }
    }

    #[test]
    fn probe_agrees_with_codes() {
        let (db, idx) = small_db();
        for tid in (0..800u64).step_by(37) {
            let v = db.relation().bool_code(tid, 2);
            assert!(idx.probe(2, v, tid));
            assert!(!idx.probe(2, v + 1, tid) || db.relation().bool_code(tid, 2) == v + 1);
        }
    }

    #[test]
    fn select_returns_exactly_the_matching_tuples() {
        let (db, idx) = small_db();
        let sel = vec![
            pcube_cube::Predicate { dim: 0, value: 2 },
            pcube_cube::Predicate { dim: 2, value: 3 },
        ];
        let mut got: Vec<u64> =
            idx.select(&db, &sel, &CostModel::default(), SelectRoute::Auto).into_iter().map(|(t, _)| t).collect();
        got.sort_unstable();
        let expect: Vec<u64> = (0..db.relation().len() as u64)
            .filter(|&t| db.relation().matches(t, &sel))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn skyline_equals_oracle_over_selection() {
        let (db, idx) = small_db();
        let sel = vec![pcube_cube::Predicate { dim: 1, value: 0 }];
        let out = idx.skyline(&db, &sel, &[0, 1]);
        let all: Vec<(u64, Vec<f64>)> = (0..db.relation().len() as u64)
            .filter(|&t| db.relation().matches(t, &sel))
            .map(|t| (t, db.relation().pref_coords(t)))
            .collect();
        let mut expect: Vec<u64> =
            crate::reference::bnl_skyline(&all, &[0, 1]).iter().map(|p| p.0).collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = out.skyline.iter().map(|p| p.0).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert!(out.stats.io.total_reads() > 0, "selection must cost I/O");
    }

    #[test]
    fn topk_equals_oracle_over_selection() {
        let (db, idx) = small_db();
        let sel = vec![pcube_cube::Predicate { dim: 0, value: 1 }];
        let f = LinearFn::new(vec![0.7, 0.3]);
        let out = idx.topk(&db, &sel, 5, &f);
        let all: Vec<(u64, Vec<f64>)> = (0..db.relation().len() as u64)
            .filter(|&t| db.relation().matches(t, &sel))
            .map(|t| (t, db.relation().pref_coords(t)))
            .collect();
        let expect = naive_topk(&all, 5, &f);
        assert_eq!(out.topk.len(), expect.len());
        for (g, e) in out.topk.iter().zip(&expect) {
            assert!((g.2 - e.2).abs() < 1e-12, "scores must match");
        }
    }

    #[test]
    fn empty_selection_scans_whole_table() {
        let (db, idx) = small_db();
        db.stats().reset();
        let got = idx.select(&db, &Vec::new(), &CostModel::default(), SelectRoute::Auto);
        assert_eq!(got.len(), 800);
        assert_eq!(db.stats().reads(IoCategory::HeapScan), db.relation().heap_pages());
    }
}
