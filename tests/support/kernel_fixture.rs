//! The kernel suites' fixture: one seeded 20k-row table on 1 KB pages, the
//! 24 fixed queries (six classes × 0–3 predicates) through the serial
//! `db.run`, and the resumable runs (`run_resumable` / `drill_down` /
//! `roll_up`). Included (`#[path]`) by `kernel_counters.rs`, which pins its
//! block counts and saved lists, and by `kernel_work.rs`, which pins its work
//! counts, query for query.

use pcube::core::{
    DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb, PSkylineClass, PriorityGraph,
    QueryClass, QueryStats, SavedState, SkylineClass, SubspaceSkylineClass, TopKClass,
};
use pcube::cube::{Predicate, Selection};
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The six classes, in the order each predicate count runs them.
pub const CLASSES: [&str; 6] = ["topk", "skyline", "dynamic", "hull", "pskyline", "subspace"];

/// 20k uniform rows, three boolean dimensions of cardinality 8, three
/// preference dimensions; 1 KB pages make every cell's signature span
/// several partials.
pub fn build_db() -> PCubeDb {
    let spec = SyntheticSpec {
        n_tuples: 20_000,
        n_bool: 3,
        n_pref: 3,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: 12,
    };
    let cfg = PCubeConfig {
        page_size: 1024,
        ..PCubeConfig::default()
    };
    PCubeDb::build(synthetic(&spec), &cfg)
}

/// Runs the 24 fixed queries and hands each one's predicate count, class
/// and statistics to `record`, in predicates-major, class-minor order (query
/// `6·p + c` is class `CLASSES[c]` under `p` predicates).
pub fn for_each_query(db: &PCubeDb, mut record: impl FnMut(usize, &'static str, QueryStats)) {
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let graph = PriorityGraph::new(vec![0, 1, 2], &[(0, 1)]).expect("acyclic");
    let mut rng = StdRng::seed_from_u64(1208);
    for n_preds in 0..=3usize {
        for class in CLASSES {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            let stats = match class {
                "topk" => db.run(&sel, &TopKClass::new(10, &f)).stats,
                "skyline" => db.run(&sel, &SkylineClass::new(vec![0, 1, 2])).stats,
                "dynamic" => {
                    db.run(
                        &sel,
                        &DynamicSkylineClass::new(&[0.4, 0.6, 0.5], vec![0, 1, 2]),
                    )
                    .stats
                }
                "hull" => db.run(&sel, &HullClass::new((0, 2))).stats,
                "pskyline" => db.run(&sel, &PSkylineClass::new(graph.clone())).stats,
                "subspace" => db.run(&sel, &SubspaceSkylineClass::new(vec![1, 2])).stats,
                other => unreachable!("unknown class {other}"),
            };
            record(n_preds, class, stats);
        }
    }
}

/// A predicate on `dim` taken from an existing row, so drill-downs keep
/// matching something.
fn predicate_on(db: &PCubeDb, dim: usize, tid: u64) -> Predicate {
    Predicate {
        dim,
        value: db.relation().bool_code(tid, dim),
    }
}

fn list_lengths<C: QueryClass>(state: &SavedState<'_, C>) -> [usize; 2] {
    [state.b_list_len(), state.d_list_len()]
}

/// Runs the twelve resumable runs and hands each one's statistics and
/// `[b_list, d_list]` lengths to `record`: top-k and skyline under 0–3
/// predicates, then a top-k drill-down and the roll-up after it, then the
/// same for a skyline.
pub fn for_each_resumable(db: &PCubeDb, mut record: impl FnMut(QueryStats, [usize; 2])) {
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let top10 = TopKClass::new(10, &f);
    let skyline = SkylineClass::new(vec![0, 1, 2]);
    let mut rng = StdRng::seed_from_u64(1209);
    for n_preds in 0..=3usize {
        let sel = sample_selection(db.relation(), n_preds, &mut rng);
        let (out, state) = db.run_resumable(&sel, &top10);
        record(out.stats, list_lengths(&state));
        let (out, state) = db.run_resumable(&sel, &skyline);
        record(out.stats, list_lengths(&state));
    }
    // Restored entries: a drill-down re-probes the old result and d_list at
    // pop time, a roll-up the old b_list.
    let base: Selection = vec![predicate_on(db, 0, 77)];
    let (_, top) = db.run_resumable(&base, &top10);
    let (out, drilled) = db.drill_down(top, predicate_on(db, 1, 77));
    record(out.stats, list_lengths(&drilled));
    let (out, rolled) = db.roll_up(drilled, 0);
    record(out.stats, list_lengths(&rolled));
    let (_, sky) = db.run_resumable(&base, &skyline);
    let (out, drilled) = db.drill_down(sky, predicate_on(db, 2, 77));
    record(out.stats, list_lengths(&drilled));
    let (out, rolled) = db.roll_up(drilled, 0);
    record(out.stats, list_lengths(&rolled));
}
