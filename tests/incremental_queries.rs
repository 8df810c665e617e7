//! §V-C correctness: drill-down and roll-up must return exactly what a
//! fresh query with the new predicate set returns (Lemma 2), while reusing
//! the previous query's lists. Every check is written once, generic over the
//! resumable class, and run for skyline and for top-k.

use pcube::core::{
    LinearFn, PCubeConfig, PCubeDb, QueryClass, RankingFunction, SkylineClass, TopKClass,
};
use pcube::cube::{Predicate, Selection};
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use pcube::storage::IoCategory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_db(n: usize, seed: u64) -> PCubeDb {
    let spec = SyntheticSpec {
        n_tuples: n,
        n_bool: 4,
        n_pref: 2,
        cardinality: 4,
        distribution: Distribution::Uniform,
        seed,
    };
    PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
}

/// A resumable class plus what "the same answer" means for it.
trait Resumable: QueryClass {
    fn assert_same(got: &[Self::Row], want: &[Self::Row], context: &str);
}

impl Resumable for SkylineClass {
    /// The same set of tuples.
    fn assert_same(got: &[Self::Row], want: &[Self::Row], context: &str) {
        let sorted_tids = |rows: &[Self::Row]| {
            let mut v: Vec<u64> = rows.iter().map(|p| p.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted_tids(got), sorted_tids(want), "{context}");
    }
}

impl<F: RankingFunction> Resumable for TopKClass<'_, F> {
    /// The same scores in the same order (ties may resolve to other tids).
    fn assert_same(got: &[Self::Row], want: &[Self::Row], context: &str) {
        assert_eq!(got.len(), want.len(), "{context}");
        for (g, w) in got.iter().zip(want) {
            assert!((g.2 - w.2).abs() < 1e-9, "scores {} vs {} ({context})", g.2, w.2);
        }
    }
}

/// One predicate on `dim`, taken from an existing row so it matches something.
fn predicate_from_row(db: &PCubeDb, dim: usize, rng: &mut StdRng) -> Predicate {
    let tid = rng.gen_range(0..db.relation().len() as u64);
    Predicate { dim, value: db.relation().bool_code(tid, dim) }
}

fn drill_down_equals_fresh<C: Resumable>(db: &PCubeDb, class: &C, rng_seed: u64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    for _ in 0..8 {
        let base = sample_selection(db.relation(), 1, &mut rng);
        let tid = rng.gen_range(0..db.relation().len() as u64);
        let extra_dim = (base[0].dim + 1 + rng.gen_range(0..3)) % 4;
        let extra = Predicate { dim: extra_dim, value: db.relation().bool_code(tid, extra_dim) };

        let (_, state) = db.run_resumable(&base, class);
        let (drilled, _) = db.drill_down(state, extra);

        let mut full: Selection = base.clone();
        full.push(extra);
        let fresh = db.run(&full, class);
        C::assert_same(&drilled.rows, &fresh.rows, &format!("base {base:?} extra {extra:?}"));
    }
}

fn roll_up_equals_fresh<C: Resumable>(db: &PCubeDb, class: &C, rng_seed: u64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    for _ in 0..8 {
        let sel = sample_selection(db.relation(), 2, &mut rng);
        let drop_dim = sel[rng.gen_range(0..2)].dim;

        let (_, state) = db.run_resumable(&sel, class);
        let (rolled, _) = db.roll_up(state, drop_dim);

        let remaining: Selection = sel.iter().copied().filter(|p| p.dim != drop_dim).collect();
        let fresh = db.run(&remaining, class);
        C::assert_same(&rolled.rows, &fresh.rows, &format!("sel {sel:?} dropped {drop_dim}"));
    }
}

fn drill_then_roll_returns_to_start<C: Resumable>(db: &PCubeDb, class: &C, rng_seed: u64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let base = sample_selection(db.relation(), 1, &mut rng);
    let extra = predicate_from_row(db, (base[0].dim + 1) % 4, &mut rng);

    let (first, state) = db.run_resumable(&base, class);
    let (_, state) = db.drill_down(state, extra);
    let (back, state) = db.roll_up(state, extra.dim);
    C::assert_same(&back.rows, &first.rows, "drill-down then roll-up");
    assert_eq!(state.selection(), &base);
}

/// Drills from 0 to 3 predicates along a real row, so every step matches at
/// least one tuple.
fn chained_drill_downs<C: Resumable>(db: &PCubeDb, class: &C, rng_seed: u64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let tid = rng.gen_range(0..db.relation().len() as u64);
    let (_, mut state) = db.run_resumable(&Vec::new(), class);
    let mut selection: Selection = Vec::new();
    for dim in 0..3 {
        let extra = Predicate { dim, value: db.relation().bool_code(tid, dim) };
        selection.push(extra);
        let (drilled, next) = db.drill_down(state, extra);
        let fresh = db.run(&selection, class);
        C::assert_same(&drilled.rows, &fresh.rows, &format!("after drilling to {selection:?}"));
        state = next;
    }
}

/// Fig 16's claim, qualitatively: continuing from cached lists reads fewer
/// R-tree blocks than starting over.
fn drill_down_reads_fewer_blocks<C: Resumable>(db: &PCubeDb, class: &C, rng_seed: u64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut drill_reads = 0u64;
    let mut fresh_reads = 0u64;
    for _ in 0..5 {
        let base = sample_selection(db.relation(), 1, &mut rng);
        let extra = predicate_from_row(db, (base[0].dim + 1) % 4, &mut rng);
        let (_, state) = db.run_resumable(&base, class);
        let (drilled, _) = db.drill_down(state, extra);
        let mut full = base.clone();
        full.push(extra);
        let fresh = db.run(&full, class);
        drill_reads += drilled.stats.io.reads(IoCategory::RtreeBlock);
        fresh_reads += fresh.stats.io.reads(IoCategory::RtreeBlock);
    }
    assert!(
        drill_reads < fresh_reads,
        "{} drill-down should be cheaper: {drill_reads} vs {fresh_reads} block reads",
        class.name()
    );
}

fn skyline() -> SkylineClass {
    SkylineClass::new(vec![0, 1])
}

#[test]
fn skyline_drill_down_equals_fresh_query() {
    drill_down_equals_fresh(&build_db(1000, 31), &skyline(), 1);
}

#[test]
fn topk_drill_down_equals_fresh_query() {
    let f = LinearFn::new(vec![0.6, 0.4]);
    drill_down_equals_fresh(&build_db(1000, 35), &TopKClass::new(10, &f), 5);
}

#[test]
fn skyline_roll_up_equals_fresh_query() {
    roll_up_equals_fresh(&build_db(1000, 32), &skyline(), 2);
}

#[test]
fn topk_roll_up_equals_fresh_query() {
    let f = LinearFn::new(vec![0.5, 0.5]);
    roll_up_equals_fresh(&build_db(1000, 36), &TopKClass::new(10, &f), 6);
}

#[test]
fn skyline_drill_then_roll_returns_to_start() {
    let db = build_db(800, 33);
    let f = LinearFn::new(vec![0.5, 0.5]);
    drill_then_roll_returns_to_start(&db, &skyline(), 3);
    drill_then_roll_returns_to_start(&db, &TopKClass::new(10, &f), 3);
}

#[test]
fn chained_drill_downs_stay_correct() {
    let db = build_db(1200, 34);
    let f = LinearFn::new(vec![0.6, 0.4]);
    chained_drill_downs(&db, &skyline(), 4);
    chained_drill_downs(&db, &TopKClass::new(10, &f), 4);
}

#[test]
fn drill_down_is_cheaper_than_fresh_query() {
    let db = build_db(6000, 37);
    let f = LinearFn::new(vec![0.5, 0.5]);
    drill_down_reads_fewer_blocks(&db, &skyline(), 7);
    drill_down_reads_fewer_blocks(&db, &TopKClass::new(10, &f), 7);
}

#[test]
#[should_panic(expected = "hull queries keep no state")]
fn a_class_that_does_not_opt_in_is_refused_before_it_runs() {
    let db = build_db(200, 38);
    let _ = db.run_resumable(&Vec::new(), &pcube::core::HullClass::new((0, 1)));
}
