//! The boolean-dimension B+-tree indexes of the §VI-A comparison methods:
//! "We use B+-tree to index each boolean dimension. Given the boolean
//! predicates, we first select tuples satisfying the boolean conditions. This
//! may be conducted by index scan or table scan, and we report the best
//! performance of the two alternatives."
//!
//! [`BooleanIndexSet::select`] is that selection step (the boolean-first
//! engine's first phase), [`BooleanIndexSet::probe`] the per-candidate
//! membership test of index-merge ([`IndexMergePruner`]), and
//! `index_route_blocks` the one model of what the index route reads — the
//! planner prices boolean-first with it and the engine routes by it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pcube_bptree::{composite_key, BPlusTree};
use pcube_cube::{normalize, Relation, Selection};
use pcube_storage::{CostModel, IoCategory, Pager, SharedStats};

use crate::pcube::PCubeDb;
use crate::query::{BooleanPruner, Candidate};

/// The index-merge engine of §VI-A, after Xin et al.'s progressive and
/// selective merge \[14\]: "if a data satisfies boolean predicates, the
/// function value on preference dimensions is returned. Otherwise, it
/// returns MAX value." The R-tree is expanded best-first (progressive) and
/// a tuple's membership in each predicate's B+-tree is probed only when it
/// surfaces as a candidate (selective) — one counted point lookup per
/// predicate, stopping at the first miss, timed as its `load_seconds`. The
/// closed-source original also adapts between probing and list-scanning
/// per predicate selectivity; see DESIGN.md §3.
pub struct IndexMergePruner<'a> {
    indexes: &'a BooleanIndexSet,
    load_seconds: f64,
}

impl<'a> IndexMergePruner<'a> {
    /// A pruner probing `indexes`.
    pub fn new(indexes: &'a BooleanIndexSet) -> Self {
        IndexMergePruner { indexes, load_seconds: 0.0 }
    }
}

impl BooleanPruner for IndexMergePruner<'_> {
    fn keep(&mut self, _db: &PCubeDb, selection: &Selection, cand: &Candidate) -> bool {
        let Candidate::Tuple { tid, .. } = cand else { return true };
        let start = Instant::now();
        let keep = selection.iter().all(|p| self.indexes.probe(p.dim, p.value, *tid));
        self.load_seconds += start.elapsed().as_secs_f64();
        keep
    }

    fn load_seconds(&self) -> f64 {
        self.load_seconds
    }
}

/// How the Boolean-first engine retrieves the qualifying tuples.
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

/// Blocks the index route is predicted to read for a non-empty normalized
/// selection whose predicates match `counts` rows each out of `live`
/// (independence assumed across predicates): each predicate's leaf range
/// plus its descent in a tree of `leaf_cap`-entry leaves, then one random
/// fetch per estimated final match.
pub(crate) fn index_route_blocks(
    counts: impl IntoIterator<Item = u64>,
    live: f64,
    leaf_cap: f64,
) -> f64 {
    let mut index_pages = 0.0;
    let mut match_frac = 1.0;
    for c in counts {
        let c = c as f64;
        index_pages += (c / leaf_cap).ceil() + 2.0; // range + descent
        match_frac *= c / live.max(1.0);
    }
    index_pages + live * match_frac
}

/// One B+-tree per boolean dimension, keyed by `(value, tid)` composites
/// over the live rows, plus per-value row counts (the catalog statistics the
/// optimizer's index-vs-scan decision is based on). The default is a set
/// over no dimension: all it can serve is the scan route.
///
/// [`BooleanIndexSet::of`] is the set a database keeps for its current
/// version; [`BooleanIndexSet::build`] is the constructor behind it.
#[derive(Default)]
pub struct BooleanIndexSet {
    trees: Vec<BPlusTree>,
    value_counts: Vec<HashMap<u32, u64>>,
}

impl BooleanIndexSet {
    /// The indexes of this version of `db`, at the database's page size:
    /// built on first use and shared — by every statement, session and
    /// snapshot — until the next insert or delete (see
    /// [`PCubeDb::clone_snapshot`]). They stay in memory that long:
    /// [`Self::size_bytes`], ~230 B per tuple at twelve boolean dimensions.
    pub fn of(db: &PCubeDb) -> Arc<BooleanIndexSet> {
        Arc::clone(db.indexes.get_or_init(|| {
            let page_size = db.rtree().pager().page_size();
            Arc::new(Self::build(db.relation(), page_size, db.stats().clone()))
        }))
    }

    /// Bulk loads an index over the live rows of every boolean dimension of
    /// `relation`, charging page writes to `page_size`-sized B+-tree pages
    /// on the given ledger.
    ///
    /// # Panics
    /// Panics if the relation has more than 2³² rows: the composite key
    /// holds a tid in 32 bits, and a wider one would alias another row.
    pub fn build(relation: &Relation, page_size: usize, stats: SharedStats) -> Self {
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
                BPlusTree::bulk_load(pager, entries, 1.0)
            })
            .collect();
        BooleanIndexSet { trees, value_counts }
    }

    /// Exact number of live rows with `A_dim = value` (catalog statistic;
    /// free).
    pub fn value_count(&self, dim: usize, value: u32) -> u64 {
        self.value_counts[dim].get(&value).copied().unwrap_or(0)
    }

    /// The B+-trees, one per boolean dimension (their pages are what
    /// `tests/build_image.rs` pins).
    pub fn trees(&self) -> &[BPlusTree] {
        &self.trees
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
    /// lookup (the index-merge engine's selective probe).
    pub fn probe(&self, dim: usize, value: u32, tid: u64) -> bool {
        self.trees[dim].get(composite_key(value, tid as u32)).is_some()
    }

    /// [`index_route_blocks`] for a normalized, non-empty `selection`, from
    /// this set's exact per-value counts and its trees' leaf capacity.
    fn index_blocks(&self, relation: &Relation, selection: &Selection) -> f64 {
        let counts = selection.iter().map(|p| self.value_count(p.dim, p.value));
        let leaf_cap = self.trees[selection[0].dim].leaf_capacity() as f64;
        index_route_blocks(counts, relation.live_len() as f64, leaf_cap)
    }

    /// Index or scan for a normalized, non-empty `selection` by predicted
    /// **block accesses** — the planner's objective, and the comparison its
    /// boolean-first estimate makes from the same counts, so the estimate
    /// predicts the route taken. ([`SelectRoute::Auto`] weighs modeled
    /// seconds instead, whose heavy random-page rate sends nearly everything
    /// to a scan and hides the Fig 13 crossover.)
    pub(crate) fn block_route(&self, relation: &Relation, selection: &Selection) -> SelectRoute {
        if self.index_blocks(relation, selection) < relation.heap_pages() as f64 {
            SelectRoute::Index
        } else {
            SelectRoute::Scan
        }
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
            let index_cost = self.index_blocks(relation, &selection) * cost.random_page_seconds;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcube::PCubeConfig;
    use pcube_cube::{Predicate, Schema};

    /// 800 rows, three boolean dimensions of cardinality 5 with co-prime
    /// periods, two low-discrepancy preference dimensions.
    fn small_db() -> (PCubeDb, BooleanIndexSet) {
        let mut relation = Relation::new(Schema::new(&["a", "b", "c"], &["x", "y"]));
        for i in 0..800u32 {
            let f = f64::from(i);
            let codes = [i % 5, (i / 3) % 5, (i / 7) % 5];
            relation.push_coded(&codes, &[(f * 0.618_034).fract(), (f * 0.414_214).fract()]);
        }
        let db = PCubeDb::build(relation, &PCubeConfig::default());
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
            assert!(!idx.probe(2, v + 1, tid));
        }
    }

    #[test]
    fn select_returns_exactly_the_matching_tuples() {
        let (db, idx) = small_db();
        let sel = vec![Predicate { dim: 0, value: 2 }, Predicate { dim: 2, value: 3 }];
        let expect: Vec<u64> =
            (0..db.relation().len() as u64).filter(|&t| db.relation().matches(t, &sel)).collect();
        assert!(!expect.is_empty());
        for route in [SelectRoute::Auto, SelectRoute::Index, SelectRoute::Scan] {
            let mut got: Vec<u64> = idx
                .select(&db, &sel, &CostModel::default(), route)
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            got.sort_unstable();
            assert_eq!(got, expect, "{route:?}");
        }
    }

    #[test]
    fn empty_selection_scans_whole_table() {
        let (db, idx) = small_db();
        for set in [&idx, &BooleanIndexSet::default()] {
            db.stats().reset();
            let got = set.select(&db, &Vec::new(), &CostModel::default(), SelectRoute::Auto);
            assert_eq!(got.len(), 800);
            assert_eq!(db.stats().reads(IoCategory::HeapScan), db.relation().heap_pages());
            assert_eq!(db.stats().reads(IoCategory::BptreePage), 0);
        }
    }
}
