//! Cross-crate correctness: the signature-guided query processor must agree
//! with brute-force oracles and with both baselines on every workload shape
//! the paper's experiments use.

use pcube::baselines::reference::{bnl_skyline, naive_topk};
use pcube::baselines::{index_merge_topk, BooleanIndexSet};
use pcube::core::{
    EngineKind, LinearFn, PCubeConfig, PCubeDb, QueryClass, SkylineClass, TopKClass,
    WeightedDistanceFn,
};
use pcube::cube::{MaterializationPlan, Predicate, Selection};
use pcube::data::{covertype_surrogate, sample_selection, synthetic, Distribution, SyntheticSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn qualifying(db: &PCubeDb, sel: &Selection) -> Vec<(u64, Vec<f64>)> {
    (0..db.relation().len() as u64)
        .filter(|&t| db.relation().matches(t, sel))
        .map(|t| (t, db.relation().pref_coords(t)))
        .collect()
}

fn sorted_tids(pairs: &[(u64, Vec<f64>)]) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    v.sort_unstable();
    v
}

fn check_skylines(db: &PCubeDb, sel: &Selection, pref_dims: &[usize]) {
    let oracle = sorted_tids(&bnl_skyline(&qualifying(db, sel), pref_dims));
    for eager in [false, true] {
        let class = SkylineClass::new(pref_dims.to_vec());
        let sig = db.run_with_probe(sel, &class, db.pcube().probe(sel, eager));
        assert_eq!(
            sorted_tids(&sig.rows),
            oracle,
            "signature skyline (eager={eager}) vs oracle, sel {sel:?}"
        );
    }
    let (bbs, _) = db
        .run_class_on(&SkylineClass::new(pref_dims.to_vec()), sel, EngineKind::DominationFirst)
        .expect("skylines run domination-first");
    assert_eq!(sorted_tids(&bbs), oracle, "BBS vs oracle, sel {sel:?}");
}

fn check_topk(db: &PCubeDb, indexes: &BooleanIndexSet, sel: &Selection, k: usize) {
    let dims = db.relation().schema().n_pref();
    let fns: Vec<Box<dyn pcube::core::RankingFunction + Sync>> = vec![
        Box::new(LinearFn::new((0..dims).map(|i| 0.3 + 0.2 * i as f64).collect())),
        Box::new(WeightedDistanceFn::new(vec![0.4; dims], vec![1.0; dims])),
    ];
    for f in &fns {
        let oracle = naive_topk(&qualifying(db, sel), k, f.as_ref());
        let oracle_scores: Vec<f64> = oracle.iter().map(|r| r.2).collect();
        let assert_scores = |name: &str, got: &[(u64, Vec<f64>, f64)]| {
            assert_eq!(got.len(), oracle.len(), "{name}: cardinality, sel {sel:?}");
            for (g, e) in got.iter().map(|r| r.2).zip(&oracle_scores) {
                assert!((g - e).abs() < 1e-9, "{name}: score {g} vs {e}, sel {sel:?}");
            }
        };
        let sig = db.run(sel, &TopKClass::new(k, f.as_ref()));
        assert_scores("signature", &sig.rows);
        let (rank, _) = db
            .run_class_on(&TopKClass::new(k, f.as_ref()), sel, EngineKind::DominationFirst)
            .expect("top-k runs domination-first");
        assert_scores("ranking", &rank);
        let (merge, _) = index_merge_topk(db, indexes, sel, k, f.as_ref());
        assert_scores("index-merge", &merge);
    }
}

fn exercise(spec: &SyntheticSpec, seeds: u64) {
    let db = PCubeDb::build(synthetic(spec), &PCubeConfig::default());
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    let pref_dims: Vec<usize> = (0..spec.n_pref).collect();
    let mut rng = StdRng::seed_from_u64(seeds);
    for n_preds in 0..=spec.n_bool.min(3) {
        for _ in 0..3 {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            check_skylines(&db, &sel, &pref_dims);
            check_topk(&db, &indexes, &sel, 7);
        }
    }
    // Subset preference dimensions (the paper allows N1..Nj ⊆ all).
    if spec.n_pref >= 2 {
        let sel = sample_selection(db.relation(), 1, &mut rng);
        check_skylines(&db, &sel, &[0]);
        check_skylines(&db, &sel, &[spec.n_pref - 1, 0]);
    }
}

#[test]
fn uniform_2d() {
    exercise(
        &SyntheticSpec {
            n_tuples: 1200,
            n_bool: 3,
            n_pref: 2,
            cardinality: 6,
            distribution: Distribution::Uniform,
            seed: 11,
        },
        1,
    );
}

#[test]
fn correlated_3d() {
    exercise(
        &SyntheticSpec {
            n_tuples: 900,
            n_bool: 2,
            n_pref: 3,
            cardinality: 4,
            distribution: Distribution::Correlated,
            seed: 12,
        },
        2,
    );
}

#[test]
fn anticorrelated_3d() {
    exercise(
        &SyntheticSpec {
            n_tuples: 700,
            n_bool: 3,
            n_pref: 3,
            cardinality: 5,
            distribution: Distribution::AntiCorrelated,
            seed: 13,
        },
        3,
    );
}

#[test]
fn four_pref_dimensions() {
    exercise(
        &SyntheticSpec {
            n_tuples: 600,
            n_bool: 2,
            n_pref: 4,
            cardinality: 3,
            distribution: Distribution::Uniform,
            seed: 14,
        },
        4,
    );
}

#[test]
fn high_cardinality_selective_predicates() {
    exercise(
        &SyntheticSpec {
            n_tuples: 1500,
            n_bool: 3,
            n_pref: 2,
            cardinality: 150,
            distribution: Distribution::Uniform,
            seed: 15,
        },
        5,
    );
}

#[test]
fn covertype_surrogate_slice() {
    let db = PCubeDb::build(covertype_surrogate(2500, 21), &PCubeConfig::default());
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    let mut rng = StdRng::seed_from_u64(6);
    for n_preds in 1..=4 {
        let sel = sample_selection(db.relation(), n_preds, &mut rng);
        check_skylines(&db, &sel, &[0, 1, 2]);
        check_topk(&db, &indexes, &sel, 10);
    }
}

#[test]
fn empty_selection_queries_whole_table() {
    let db = PCubeDb::build(
        synthetic(&SyntheticSpec { n_tuples: 400, n_pref: 2, ..Default::default() }),
        &PCubeConfig::default(),
    );
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    check_skylines(&db, &Vec::new(), &[0, 1]);
    check_topk(&db, &indexes, &Vec::new(), 5);
}

#[test]
fn impossible_selection_returns_nothing() {
    let db = PCubeDb::build(
        synthetic(&SyntheticSpec { n_tuples: 300, cardinality: 5, ..Default::default() }),
        &PCubeConfig::default(),
    );
    let sel = vec![Predicate { dim: 0, value: 999 }];
    let out = db.run(&sel, &SkylineClass::new(vec![0, 1, 2]));
    assert!(out.rows.is_empty());
    let f = LinearFn::new(vec![1.0, 1.0, 1.0]);
    let top = db.run(&sel, &TopKClass::new(5, &f));
    assert!(top.rows.is_empty());
}

#[test]
fn level2_materialization_gives_same_answers() {
    let spec = SyntheticSpec {
        n_tuples: 800,
        n_bool: 3,
        n_pref: 2,
        cardinality: 4,
        ..Default::default()
    };
    let relation = synthetic(&spec);
    let atomic = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let level2 = PCubeDb::build(
        relation,
        &PCubeConfig { plan: MaterializationPlan::UpToLevel(2), ..PCubeConfig::default() },
    );
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..5 {
        let sel = sample_selection(atomic.relation(), 2, &mut rng);
        let a = atomic.run(&sel, &SkylineClass::new(vec![0, 1]));
        let b = level2.run(&sel, &SkylineClass::new(vec![0, 1]));
        assert_eq!(sorted_tids(&a.rows), sorted_tids(&b.rows), "sel {sel:?}");
    }
}

#[test]
fn signature_prunes_more_rtree_blocks_than_domination() {
    // The Fig 9 claim, qualitatively: on a selective query, Signature reads
    // fewer R-tree blocks than Domination and does zero tuple probes.
    let db = PCubeDb::build(
        synthetic(&SyntheticSpec {
            n_tuples: 5000,
            n_bool: 3,
            n_pref: 2,
            cardinality: 50,
            ..Default::default()
        }),
        &PCubeConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(8);
    let sel = sample_selection(db.relation(), 1, &mut rng);
    let sig = db.run(&sel, &SkylineClass::new(vec![0, 1]));
    let (_, dom) = db
        .run_class_on(&SkylineClass::new(vec![0, 1]), &sel, EngineKind::DominationFirst)
        .expect("skylines run domination-first");
    use pcube::storage::IoCategory as C;
    assert!(
        sig.stats.io.reads(C::RtreeBlock) <= dom.io.reads(C::RtreeBlock),
        "signature {} vs domination {} blocks",
        sig.stats.io.reads(C::RtreeBlock),
        dom.io.reads(C::RtreeBlock)
    );
    assert_eq!(sig.stats.io.reads(C::TupleRandomAccess), 0);
    assert!(dom.io.reads(C::TupleRandomAccess) > 0);
    assert!(sig.stats.peak_heap <= dom.peak_heap, "Fig 10: smaller candidate heap");
}

/// 3,000 uniform rows, three boolean dimensions of four values.
fn small_db() -> PCubeDb {
    let spec = SyntheticSpec { n_tuples: 3000, n_bool: 3, cardinality: 4, ..Default::default() };
    PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
}

/// Seed conservation through a restart: a drill-down by a value the data
/// never holds queues `result ∪ d_list` and must b-list every one of them,
/// so no saved entry and no old result is lost on the way; a roll-up that
/// keeps that predicate queues `result ∪ b_list` and b-lists them all again.
fn assert_a_restart_conserves_its_seeds<C: QueryClass>(db: &PCubeDb, class: &C) {
    let base = vec![Predicate { dim: 1, value: db.relation().bool_code(7, 1) }];
    let (first, state) = db.run_resumable(&base, class);
    let (b, d, rows) = (state.b_list_len(), state.d_list_len(), first.rows.len());
    assert!(rows > 0 && d > 0, "{}: nothing to conserve", class.name());
    let (drilled, state) = db.drill_down(state, Predicate { dim: 0, value: 999 });
    assert!(drilled.rows.is_empty());
    assert_eq!(state.b_list_len(), b + d + rows, "{}: a drill-down lost a seed", class.name());
    assert_eq!(state.d_list_len(), 0);
    let b = state.b_list_len();
    let (rolled, state) = db.roll_up(state, 1);
    assert!(rolled.rows.is_empty());
    assert_eq!(state.b_list_len(), b, "{}: a roll-up lost a seed", class.name());
    assert_eq!(state.d_list_len(), 0);
}

#[test]
fn a_restart_b_lists_every_seed_under_a_value_the_data_never_holds() {
    let db = small_db();
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    assert_a_restart_conserves_its_seeds(&db, &TopKClass::new(10, &f));
    assert_a_restart_conserves_its_seeds(&db, &SkylineClass::new(vec![0, 1, 2]));
}

/// Seed conservation through boolean-first: with `k` above the selection's
/// size every selected tuple is queued, and every one must come back —
/// P-Cube's answer, row for row.
#[test]
fn boolean_first_top_k_beyond_the_selection_returns_every_selected_row() {
    let db = small_db();
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let sel = vec![
        Predicate { dim: 0, value: db.relation().bool_code(11, 0) },
        Predicate { dim: 1, value: db.relation().bool_code(11, 1) },
    ];
    let selected = qualifying(&db, &sel).len();
    assert!(selected > 1);
    let class = TopKClass::new(selected + 5, &f);
    let (rows, _) = db.run_class_on(&class, &sel, EngineKind::BooleanFirst).expect("supported");
    assert_eq!(rows.len(), selected, "a selected tuple was lost");
    assert_eq!(rows, db.run(&sel, &class).rows);
}
