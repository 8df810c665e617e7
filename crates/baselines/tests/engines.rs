//! The comparison methods of §VI-A through the engine seam, against the
//! in-memory references — the unit tests of the hand-written
//! `domination_first` / `index_merge` / `boolean_first` drivers, ported when
//! those drivers became `run_class_engine` over an [`Engine`].

use pcube_baselines::reference::{bnl_skyline, naive_topk};
use pcube_baselines::{index_merge_topk, BooleanIndexSet, SelectRoute};
use pcube_core::{
    run_class_engine, ClassOutcome, Engine, LinearFn, PCubeConfig, PCubeDb, QueryBudget,
    QueryClass, SkylineClass, TopKClass,
};
use pcube_cube::{Predicate, Selection};
use pcube_data::{synthetic, SyntheticSpec};
use pcube_storage::IoCategory;

fn db(n_tuples: usize, n_bool: usize, cardinality: u32) -> PCubeDb {
    let spec = SyntheticSpec { n_tuples, n_bool, n_pref: 2, cardinality, ..Default::default() };
    PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
}

fn run<C: QueryClass>(db: &PCubeDb, sel: &Selection, class: &C, engine: Engine<'_>) -> ClassOutcome<C::Row> {
    run_class_engine(db, sel, class, engine, &QueryBudget::unlimited(), None)
}

fn qualifying(db: &PCubeDb, sel: &Selection) -> Vec<(u64, Vec<f64>)> {
    (0..db.relation().len() as u64)
        .filter(|&t| db.relation().matches(t, sel))
        .map(|t| (t, db.relation().pref_coords(t)))
        .collect()
}

fn sorted_tids(rows: &[(u64, Vec<f64>)]) -> Vec<u64> {
    let mut tids: Vec<u64> = rows.iter().map(|p| p.0).collect();
    tids.sort_unstable();
    tids
}

fn assert_scores_match(got: &[(u64, Vec<f64>, f64)], want: &[(u64, Vec<f64>, f64)]) {
    assert_eq!(got.len(), want.len());
    for (g, e) in got.iter().zip(want) {
        assert!((g.2 - e.2).abs() < 1e-12, "{} vs {}", g.2, e.2);
    }
}

#[test]
fn bbs_skyline_matches_oracle() {
    let db = db(600, 2, 4);
    let sel = vec![Predicate { dim: 0, value: 1 }];
    let out = run(&db, &sel, &SkylineClass::new(vec![0, 1]), Engine::DominationFirst);
    assert_eq!(sorted_tids(&out.rows), sorted_tids(&bnl_skyline(&qualifying(&db, &sel), &[0, 1])));
    assert!(out.stats.io.reads(IoCategory::TupleRandomAccess) > 0, "must probe tuples");
    assert_eq!(out.stats.io.reads(IoCategory::SignaturePage), 0, "no signatures here");
}

#[test]
fn ranking_topk_matches_oracle() {
    let db = db(600, 2, 4);
    let sel = vec![Predicate { dim: 1, value: 2 }];
    let f = LinearFn::new(vec![0.4, 0.6]);
    let out = run(&db, &sel, &TopKClass::new(7, &f), Engine::DominationFirst);
    assert_scores_match(&out.rows, &naive_topk(&qualifying(&db, &sel), 7, &f));
    assert!(out.stats.peak_heap > 0);
}

#[test]
fn no_selection_means_plain_bbs() {
    let db = db(600, 2, 4);
    let out = run(&db, &Vec::new(), &SkylineClass::new(vec![0, 1]), Engine::DominationFirst);
    assert_eq!(out.rows.len(), bnl_skyline(&qualifying(&db, &Vec::new()), &[0, 1]).len());
    // Even with no predicates, minimal probing still fetches each
    // candidate result once (it cannot know BP = ∅ is free).
    assert_eq!(out.stats.io.reads(IoCategory::TupleRandomAccess), out.rows.len() as u64);
}

#[test]
fn index_merge_matches_oracle_and_charges_bptree_probes() {
    let db = db(500, 3, 4);
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    let sel = vec![Predicate { dim: 0, value: 2 }, Predicate { dim: 1, value: 1 }];
    let f = LinearFn::new(vec![0.5, 0.5]);
    db.stats().reset();
    let (top, stats) = index_merge_topk(&db, &indexes, &sel, 5, &f);
    assert_scores_match(&top, &naive_topk(&qualifying(&db, &sel), 5, &f));
    assert!(stats.io.reads(IoCategory::BptreePage) > 0, "probes must cost B+-tree pages");
    assert_eq!(stats.io.reads(IoCategory::TupleRandomAccess), 0, "no heap probes");
    assert_eq!(stats.io.reads(IoCategory::SignaturePage), 0, "no signatures");
}

#[test]
fn unselective_query_returns_global_topk() {
    let db = db(300, 1, 4);
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    let f = LinearFn::new(vec![1.0, 1.0]);
    let (top, _) = index_merge_topk(&db, &indexes, &Vec::new(), 3, &f);
    assert_scores_match(&top, &naive_topk(&qualifying(&db, &Vec::new()), 3, &f));
}

#[test]
fn boolean_first_skyline_equals_oracle_over_selection() {
    let db = db(800, 3, 5);
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    let sel = vec![Predicate { dim: 1, value: 0 }];
    let want = sorted_tids(&bnl_skyline(&qualifying(&db, &sel), &[0, 1]));
    for route in [SelectRoute::Auto, SelectRoute::Index, SelectRoute::Scan] {
        let engine = Engine::BooleanFirst(&indexes, route);
        let out = run(&db, &sel, &SkylineClass::new(vec![0, 1]), engine);
        assert_eq!(sorted_tids(&out.rows), want, "{route:?}");
        assert!(out.stats.io.total_reads() > 0, "selection must cost I/O");
        assert_eq!(out.stats.peak_heap, qualifying(&db, &sel).len(), "the candidate set");
    }
}

#[test]
fn boolean_first_topk_equals_oracle_over_selection() {
    let db = db(800, 3, 5);
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    let sel = vec![Predicate { dim: 0, value: 1 }];
    let f = LinearFn::new(vec![0.7, 0.3]);
    let out = run(&db, &sel, &TopKClass::new(5, &f), Engine::BooleanFirst(&indexes, SelectRoute::Auto));
    assert_scores_match(&out.rows, &naive_topk(&qualifying(&db, &sel), 5, &f));
}
