//! Differential testing against naive full-scan oracles: for every query
//! class (top-k, skyline, dynamic skyline, convex hull) and for arbitrary
//! proptest-generated datasets and selections, the serial engine, the
//! parallel engine at several worker counts, and a brute-force oracle must
//! produce **exactly** the same answer — same tuples, same order, same
//! scores. Serial vs parallel is compared bit-for-bit; the engines'
//! canonical `(score, tid)` result order is what makes that possible.

#[path = "support/rows.rs"]
mod rows;

use pcube::baselines::reference::{bnl_skyline, naive_topk};
use pcube::core::{
    DynamicSkylineClass, EngineKind, HullClass, LinearFn, PCubeDb, PSkylineClass,
    ParallelOptions, Planner, PriorityGraph, QueryBudget, QueryClass, RankingFunction,
    SkylineClass, StopReason, SubspaceSkylineClass, TopKClass,
};
use pcube::storage::IoCategory;
use pcube::cube::{Predicate, Selection};
use proptest::prelude::*;
use rows::{arb_rows, db_from, Row};

const WORKER_COUNTS: [usize; 3] = [2, 3, 8];

/// Rows whose coordinates come from a 5-value grid, so projections onto a
/// subspace collide often — the interesting regime for distinct-value
/// subspace semantics — and equal points tie on every score.
fn arb_coarse_rows(
    n_bool: usize,
    n_pref: usize,
    max_rows: usize,
) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u32..4, n_bool..=n_bool),
            prop::collection::vec((0u8..5).prop_map(|v| v as f64 * 0.25), n_pref..=n_pref),
        )
            .prop_map(|(codes, coords)| Row { codes, coords }),
        1..max_rows,
    )
}

/// Rows on two preference dimensions, each a small integer on one and a
/// multiple of 10^16 on the other. `[0, 1e16]` dominates `[1, 1e16]`, and
/// both sum to `1e16`: a dominator's score rounds to the score of the point
/// it dominates, so the tie order alone cannot settle the skyline.
fn arb_rounding_tie_rows(n_bool: usize, max_rows: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (prop::collection::vec(0u32..4, n_bool), 0u8..3, 1u8..=3, any::<bool>()).prop_map(
            |(codes, small, big, flip)| {
                let (small, big) = (f64::from(small), f64::from(big) * 1e16);
                let coords = if flip { vec![big, small] } else { vec![small, big] };
                Row { codes, coords }
            },
        ),
        1..max_rows,
    )
}

fn qualifying(rows: &[Row], sel: &Selection) -> Vec<(u64, Vec<f64>)> {
    rows.iter()
        .enumerate()
        .filter(|(_, r)| sel.iter().all(|p| r.codes[p.dim] == p.value))
        .map(|(i, r)| (i as u64, r.coords.clone()))
        .collect()
}

/// Oracle skyline in the engines' canonical order: BNL over a full scan,
/// then sort by `(coordinate sum over pref_dims, tid)`.
fn oracle_skyline(points: &[(u64, Vec<f64>)], pref_dims: &[usize]) -> Vec<(u64, Vec<f64>)> {
    let mut sky = bnl_skyline(points, pref_dims);
    let key = |c: &[f64]| -> f64 { pref_dims.iter().map(|&d| c[d]).sum() };
    sky.sort_by(|a, b| key(&a.1).total_cmp(&key(&b.1)).then(a.0.cmp(&b.0)));
    sky
}

/// Oracle dynamic skyline: BNL in `|x − q|` space, canonical order by
/// `(transformed key, tid)`, reported with original coordinates.
fn oracle_dynamic(
    points: &[(u64, Vec<f64>)],
    q: &[f64],
    pref_dims: &[usize],
) -> Vec<(u64, Vec<f64>)> {
    let transformed: Vec<(u64, Vec<f64>)> = points
        .iter()
        .map(|(t, c)| (*t, c.iter().enumerate().map(|(d, &x)| (x - q[d]).abs()).collect()))
        .collect();
    let sky = oracle_skyline(&transformed, pref_dims);
    sky.into_iter()
        .map(|(tid, _)| {
            let orig = points
                .iter()
                .find(|(t, _)| *t == tid)
                .expect("skyline tid came from points")
                .1
                .clone();
            (tid, orig)
        })
        .collect()
}

/// Transitive closure of priority edges over dimension ids `0..n` —
/// a plain boolean-matrix Floyd–Warshall, independent of the engine's
/// bitmask representation.
fn priority_closure(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut c = vec![vec![false; n]; n];
    for &(a, b) in edges {
        c[a][b] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if c[i][k] && c[k][j] {
                    c[i][j] = true;
                }
            }
        }
    }
    c
}

/// `a ≻_Γ b` (Mindolin & Chomicki): `a` is strictly better somewhere, and
/// every dimension where `a` is strictly worse is excused by some
/// strictly-better dimension with (transitive) priority over it.
fn gamma_dominates(a: &[f64], b: &[f64], dims: &[usize], cl: &[Vec<bool>]) -> bool {
    let better: Vec<usize> = dims.iter().copied().filter(|&d| a[d] < b[d]).collect();
    if better.is_empty() {
        return false;
    }
    dims.iter().copied().filter(|&d| a[d] > b[d]).all(|d| better.iter().any(|&g| cl[g][d]))
}

/// Oracle p-skyline: the ≻_Γ-maximal points of a full scan, in the
/// engines' canonical `(coordinate sum over dims, tid)` order.
fn oracle_pskyline(
    points: &[(u64, Vec<f64>)],
    dims: &[usize],
    edges: &[(usize, usize)],
    n_pref: usize,
) -> Vec<(u64, Vec<f64>)> {
    let cl = priority_closure(n_pref, edges);
    let mut sky: Vec<(u64, Vec<f64>)> = points
        .iter()
        .filter(|(t, c)| {
            !points.iter().any(|(o, oc)| o != t && gamma_dominates(oc, c, dims, &cl))
        })
        .cloned()
        .collect();
    let key = |c: &[f64]| -> f64 { dims.iter().map(|&d| c[d]).sum() };
    sky.sort_by(|a, b| key(&a.1).total_cmp(&key(&b.1)).then(a.0.cmp(&b.0)));
    sky
}

/// Oracle subspace skyline: Pareto-maximal points of the projection onto
/// `dims`, canonical `(projected sum, tid)` order, then distinct-value
/// dedup keeping the smallest tid per projected point; reported with the
/// projected coordinates only.
fn oracle_subspace(points: &[(u64, Vec<f64>)], dims: &[usize]) -> Vec<(u64, Vec<f64>)> {
    let mut kept: Vec<(u64, Vec<f64>)> = points
        .iter()
        .filter(|(t, c)| {
            !points.iter().any(|(o, oc)| {
                o != t
                    && dims.iter().all(|&d| oc[d] <= c[d])
                    && dims.iter().any(|&d| oc[d] < c[d])
            })
        })
        .cloned()
        .collect();
    let key = |c: &[f64]| -> f64 { dims.iter().map(|&d| c[d]).sum() };
    kept.sort_by(|a, b| key(&a.1).total_cmp(&key(&b.1)).then(a.0.cmp(&b.0)));
    let mut seen: Vec<Vec<u64>> = Vec::new();
    let mut out = Vec::new();
    for (t, c) in kept {
        let proj_bits: Vec<u64> = dims.iter().map(|&d| c[d].to_bits()).collect();
        if seen.contains(&proj_bits) {
            continue;
        }
        seen.push(proj_bits);
        out.push((t, dims.iter().map(|&d| c[d]).collect()));
    }
    out
}

/// Priority DAGs exercised by the p-skyline differential tests (edges in
/// actual dimension ids over 3 preference dimensions): empty (= Pareto),
/// a single edge, a transitive chain, shared dominated/dominant dims.
const PRIORITY_EDGE_SETS: [&[(usize, usize)]; 5] = [
    &[],
    &[(0, 1)],
    &[(0, 1), (1, 2)],
    &[(0, 2), (1, 2)],
    &[(2, 0), (2, 1)],
];

/// Oracle convex hull: Andrew's monotone chain over a full scan — the same
/// tie conventions as the engine (sort by `(x, y, tid)`, coordinate dedup
/// keeping the smallest tid, collinear boundary points dropped with the
/// engine's epsilon).
fn oracle_hull(points: &[(u64, Vec<f64>)], dims: (usize, usize)) -> Vec<(u64, [f64; 2])> {
    fn cross(o: [f64; 2], a: [f64; 2], b: [f64; 2]) -> f64 {
        (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    }
    let mut pts: Vec<(u64, [f64; 2])> =
        points.iter().map(|(t, c)| (*t, [c[dims.0], c[dims.1]])).collect();
    pts.sort_by(|a, b| {
        a.1[0].total_cmp(&b.1[0]).then(a.1[1].total_cmp(&b.1[1])).then(a.0.cmp(&b.0))
    });
    pts.dedup_by(|a, b| a.1 == b.1);
    if pts.len() < 3 {
        return pts;
    }
    let chain = |iter: &mut dyn Iterator<Item = &(u64, [f64; 2])>| {
        let mut half: Vec<(u64, [f64; 2])> = Vec::new();
        for &p in iter {
            while half.len() >= 2
                && cross(half[half.len() - 2].1, half[half.len() - 1].1, p.1) <= 1e-12
            {
                half.pop();
            }
            half.push(p);
        }
        half
    };
    let mut lower = chain(&mut pts.iter());
    let mut upper = chain(&mut pts.iter().rev());
    lower.pop();
    upper.pop();
    lower.extend(upper);
    lower
}

/// Which engine family a fault-free run's counters give away: boolean-first
/// never expands an R-tree node, domination-first alone fetches tuples
/// (every kernel engine pops at least one), index-merge alone reads B+-tree
/// pages without a signature page beside them. `None` where two engines do
/// literally the same thing (P-Cube and index-merge under no predicate).
fn engine_that_ran(stats: &pcube::core::QueryStats) -> Option<EngineKind> {
    let reads = |c| stats.io.reads(c);
    if stats.nodes_expanded == 0 {
        Some(EngineKind::BooleanFirst)
    } else if reads(IoCategory::TupleRandomAccess) > 0 {
        Some(EngineKind::DominationFirst)
    } else if reads(IoCategory::SignaturePage) > 0 {
        Some(EngineKind::PCube)
    } else if reads(IoCategory::BptreePage) > 0 {
        Some(EngineKind::IndexMerge)
    } else {
        None
    }
}

fn check_engines<C>(
    db: &PCubeDb,
    class: &C,
    sel: &Selection,
    live: &[(u64, Vec<f64>)],
)
where
    C: QueryClass + Sync,
    C::Row: PartialEq + std::fmt::Debug,
{
    let oracle = class.oracle(live);
    for kind in EngineKind::ALL {
        let Ok((rows, stats)) = db.run_class_on(class, sel, kind) else {
            assert!(!class.supports(kind), "{} refused {}", class.name(), kind.name());
            continue;
        };
        assert!(class.supports(kind), "{} ran on {}", class.name(), kind.name());
        assert_eq!(&rows, &oracle, "{} on {}", class.name(), kind.name());
        if let Some(ran) = engine_that_ran(&stats) {
            assert_eq!(ran, kind, "{}: {:?}", class.name(), stats.io);
        }
    }
    let (rows, stats) = db
        .plan_and_run_class(&db.planner(), class, sel, &QueryBudget::unlimited(), None)
        .expect("every class supports some engine");
    assert_eq!(&rows, &oracle, "{} planned", class.name());
    let chosen = stats.plan.as_ref().expect("decision recorded").chosen;
    assert!(class.supports(chosen));
    let (_, direct) = db.run_class_on(class, sel, chosen).expect("supported");
    assert_eq!(
        (stats.io, stats.nodes_expanded, stats.peak_heap),
        (direct.io, direct.nodes_expanded, direct.peak_heap),
        "{}: the plan says {}", class.name(), chosen.name()
    );
    if let Some(ran) = engine_that_ran(&stats) {
        assert_eq!(ran, chosen, "{}: {:?}", class.name(), stats.io);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn topk_serial_and_parallel_match_oracle(
        // Coarse rows tie at the k-th score across workers; the merge's
        // `(score, tid)` order alone settles which of them are kept.
        rows in prop_oneof![arb_rows(2, 2, 150), arb_coarse_rows(2, 2, 150)],
        d0 in 0u32..4,
        n_preds in 0usize..=1,
        k in prop_oneof![1usize..12, Just(1 << 40)],
        w0 in 0.01f64..1.0,
        w1 in 0.01f64..1.0,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let f = LinearFn::new(vec![w0, w1]);
        let oracle = naive_topk(&qualifying(&rows, &sel), k, &f);
        let class = TopKClass::new(k, &f);
        let serial = db.run(&sel, &class);
        // Oracle check: same tids in the same order, scores within float
        // noise of the oracle's recomputation.
        prop_assert_eq!(
            serial.rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            oracle.iter().map(|r| r.0).collect::<Vec<_>>()
        );
        for (g, e) in serial.rows.iter().zip(&oracle) {
            prop_assert!((g.2 - e.2).abs() < 1e-9, "score {} vs {}", g.2, e.2);
        }
        // Parallel check: bit-identical to serial at every worker count.
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &serial.rows, "workers={}", workers);
        }
        // `k = 0` is an empty answer by construction: the serial engine
        // halts on its root seed, and the fan-out must not read the R-tree
        // for it either.
        let none = TopKClass::new(0, &f);
        let serial = db.run(&sel, &none);
        prop_assert!(serial.rows.is_empty());
        prop_assert_eq!(serial.stats.io.total_reads(), 0);
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &none, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &serial.rows, "k=0 workers={}", workers);
            prop_assert_eq!(par.stats.io.total_reads(), 0, "k=0 workers={}", workers);
        }
    }

    #[test]
    fn skyline_serial_and_parallel_match_oracle(
        rows in arb_rows(2, 2, 150),
        d0 in 0u32..4,
        d1 in 0u32..4,
        n_preds in 0usize..=2,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }, Predicate { dim: 1, value: d1 }]
            [..n_preds]
            .to_vec();
        let oracle = oracle_skyline(&qualifying(&rows, &sel), &[0, 1]);
        let class = SkylineClass::new(vec![0, 1]);
        let serial = db.run(&sel, &class);
        prop_assert_eq!(&serial.rows, &oracle);
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &serial.rows, "workers={}", workers);
        }
    }

    #[test]
    fn dynamic_skyline_serial_and_parallel_match_oracle(
        rows in arb_rows(2, 2, 120),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
        q0 in 0.0f64..1.0,
        q1 in 0.0f64..1.0,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let q = vec![q0, q1];
        let oracle = oracle_dynamic(&qualifying(&rows, &sel), &q, &[0, 1]);
        let class = DynamicSkylineClass::new(&q, vec![0, 1]);
        let serial = db.run(&sel, &class);
        prop_assert_eq!(&serial.rows, &oracle);
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &serial.rows, "workers={}", workers);
        }
    }

    #[test]
    fn hull_serial_and_parallel_match_oracle(
        rows in arb_rows(2, 2, 150),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let oracle = oracle_hull(&qualifying(&rows, &sel), (0, 1));
        let class = HullClass::new((0, 1));
        let serial = db.run(&sel, &class);
        prop_assert_eq!(&serial.rows, &oracle);
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &serial.rows, "workers={}", workers);
        }
    }

    /// Whichever engine the §VI planner picks, the answer must be exactly
    /// the oracle's — the planner changes cost, never correctness — and
    /// every recorded cost estimate must be finite and positive.
    #[test]
    fn planner_chosen_engine_matches_oracle(
        rows in arb_rows(2, 2, 120),
        d0 in 0u32..4,
        d1 in 0u32..4,
        n_preds in 0usize..=2,
        k in 1usize..10,
        w0 in 0.01f64..1.0,
        w1 in 0.01f64..1.0,
    ) {
        let db = db_from(&rows, 2, 2);
        let planner = Planner::new(&db);
        let sel: Selection = [Predicate { dim: 0, value: d0 }, Predicate { dim: 1, value: d1 }]
            [..n_preds]
            .to_vec();

        let f = LinearFn::new(vec![w0, w1]);
        let oracle = naive_topk(&qualifying(&rows, &sel), k, &f);
        let budget = QueryBudget::unlimited();
        let (topk, stats) =
            db.plan_and_run_class(&planner, &TopKClass::new(k, &f), &sel, &budget, None).unwrap();
        prop_assert_eq!(
            topk.iter().map(|r| r.0).collect::<Vec<_>>(),
            oracle.iter().map(|r| r.0).collect::<Vec<_>>(),
            "planner chose {:?}", stats.plan.as_ref().map(|p| p.chosen)
        );
        for (g, e) in topk.iter().zip(&oracle) {
            prop_assert!((g.2 - e.2).abs() < 1e-9, "score {} vs {}", g.2, e.2);
        }
        let plan = stats.plan.expect("planner decision recorded");
        prop_assert_eq!(plan.estimates.len(), 4, "top-k plans over all four engines");
        for e in &plan.estimates {
            prop_assert!(e.blocks().is_finite() && e.blocks() > 0.0, "{:?}", e);
            prop_assert!(e.seconds.is_finite() && e.seconds > 0.0, "{:?}", e);
        }
        prop_assert!((0.0..=1.0).contains(&plan.selectivity));

        let oracle = oracle_skyline(&qualifying(&rows, &sel), &[0, 1]);
        let (sky, stats) = db
            .plan_and_run_class(&planner, &SkylineClass::new(vec![0, 1]), &sel, &budget, None)
            .unwrap();
        prop_assert_eq!(
            &sky, &oracle,
            "planner chose {:?}", stats.plan.as_ref().map(|p| p.chosen)
        );
        let plan = stats.plan.expect("planner decision recorded");
        prop_assert_eq!(plan.estimates.len(), 3, "index-merge is top-k only");
        for e in &plan.estimates {
            prop_assert!(e.blocks().is_finite() && e.blocks() > 0.0, "{:?}", e);
        }
    }

    /// The engine seam: each of the six classes, on every engine it
    /// supports, gives the class's own reference answer over the live
    /// qualifying rows — through `run_class_on` and through the planner,
    /// whose recorded choice is the engine that ran. An engine the class
    /// does not support is refused, never substituted.
    #[test]
    fn every_class_on_every_supported_engine_matches_its_oracle(
        rows in arb_rows(2, 3, 120),
        d0 in 0u32..4,
        d1 in 0u32..4,
        n_preds in 0usize..=2,
        k in 1usize..10,
    ) {
        let mut db = db_from(&rows, 2, 3);
        // Tombstones: no engine may bring a deleted row back.
        let dead: Vec<u64> = (0..rows.len() as u64).filter(|t| t % 7 == 3).collect();
        for &tid in &dead {
            prop_assert!(db.delete(tid));
        }
        let sel: Selection = [Predicate { dim: 0, value: d0 }, Predicate { dim: 1, value: d1 }]
            [..n_preds]
            .to_vec();
        let mut live = qualifying(&rows, &sel);
        live.retain(|(tid, _)| !dead.contains(tid));

        let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
        let graph = PriorityGraph::new(vec![0, 1, 2], &[(0, 1)]).expect("one edge is a DAG");
        check_engines(&db, &TopKClass::new(k, &f), &sel, &live);
        check_engines(&db, &SkylineClass::new(vec![0, 1, 2]), &sel, &live);
        check_engines(&db, &DynamicSkylineClass::new(&[0.4, 0.6, 0.5], vec![0, 1, 2]), &sel, &live);
        check_engines(&db, &HullClass::new((0, 2)), &sel, &live);
        check_engines(&db, &PSkylineClass::new(graph), &sel, &live);
        check_engines(&db, &SubspaceSkylineClass::new(vec![2, 0]), &sel, &live);
    }

    /// Early termination must not corrupt the books: for any block budget,
    /// the `IoSnapshot` in the returned stats equals the delta actually
    /// charged on the database's shared ledger, and a `Partial` outcome's
    /// progress counters agree with the stats and the rows returned. A
    /// budget generous enough never to trip must leave the answer
    /// bit-identical to the ungoverned run.
    #[test]
    fn early_termination_counters_equal_blocks_actually_touched(
        rows in arb_rows(2, 2, 150),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
        k in 1usize..12,
        max_blocks in 1u64..40,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let f = LinearFn::new(vec![0.6, 0.4]);
        let full_topk = db.run(&sel, &TopKClass::new(k, &f));
        let full_sky = db.run(&sel, &SkylineClass::new(vec![0, 1]));
        let budget = QueryBudget::unlimited().with_block_budget(max_blocks);

        // Top-k: the ledger delta measured outside the query must equal
        // the stats the query reports about itself.
        let base = db.stats().total_reads();
        let opts = ParallelOptions { budget, ..Default::default() };
        let cut = db.par_run(&sel, &TopKClass::new(k, &f), opts);
        let delta = db.stats().total_reads() - base;
        prop_assert_eq!(cut.stats.io.total_reads(), delta, "top-k stats vs ledger");
        match &cut.stats.outcome {
            pcube::core::QueryOutcome::Complete => {
                prop_assert_eq!(&cut.rows, &full_topk.rows, "untripped run is identical");
            }
            pcube::core::QueryOutcome::Partial { reason, progress } => {
                prop_assert_eq!(*reason, StopReason::BlockBudgetExceeded);
                prop_assert_eq!(progress.blocks_used, delta, "progress vs ledger");
                prop_assert!(progress.blocks_used > max_blocks, "trips only past the budget");
                prop_assert_eq!(progress.nodes_expanded, cut.stats.nodes_expanded);
                prop_assert_eq!(progress.results_so_far, cut.rows.len());
                prop_assert!(progress.pops >= cut.stats.nodes_expanded,
                    "every expansion was popped first");
                // Serial partial top-k is a prefix of the true top-k.
                prop_assert_eq!(&cut.rows[..], &full_topk.rows[..cut.rows.len()]);
            }
        }

        // Skyline: same bookkeeping contract; a partial is a sound subset.
        let base = db.stats().total_reads();
        let opts = ParallelOptions { budget, ..Default::default() };
        let cut = db.par_run(&sel, &SkylineClass::new(vec![0, 1]), opts);
        let delta = db.stats().total_reads() - base;
        prop_assert_eq!(cut.stats.io.total_reads(), delta, "skyline stats vs ledger");
        if let pcube::core::QueryOutcome::Partial { progress, .. } = &cut.stats.outcome {
            prop_assert_eq!(progress.blocks_used, delta);
            prop_assert_eq!(progress.results_so_far, cut.rows.len());
            for p in &cut.rows {
                prop_assert!(full_sky.rows.contains(p), "partial skyline ⊆ full");
            }
        } else {
            prop_assert_eq!(&cut.rows, &full_sky.rows);
        }
    }

    /// The plugged-in p-skyline class: kernel == independent naive oracle
    /// for a spread of priority DAGs (including the empty one, which must
    /// reproduce the Pareto skyline), and parallel == serial bit-for-bit
    /// at every worker count.
    #[test]
    fn pskyline_serial_and_parallel_match_oracle(
        rows in arb_rows(2, 3, 120),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
        edge_set in 0usize..PRIORITY_EDGE_SETS.len(),
    ) {
        let db = db_from(&rows, 2, 3);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let edges = PRIORITY_EDGE_SETS[edge_set];
        let graph = PriorityGraph::new(vec![0, 1, 2], edges).expect("the edge sets are DAGs");
        let oracle = oracle_pskyline(&qualifying(&rows, &sel), &[0, 1, 2], edges, 3);
        let class = PSkylineClass::new(graph.clone());
        let serial = db.run(&sel, &class);
        prop_assert_eq!(&serial.rows, &oracle, "edges {:?}", edges);
        if edges.is_empty() {
            let pareto = db.run(&sel, &SkylineClass::new(vec![0, 1, 2]));
            prop_assert_eq!(&serial.rows, &pareto.rows, "empty Γ is the Pareto skyline");
        }
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &serial.rows, "workers={}", workers);
        }
    }

    /// The plugged-in subspace skyline class: kernel == independent naive
    /// oracle (coarse coordinates force duplicate projections, so the
    /// distinct-value dedup is actually exercised), parallel == serial.
    #[test]
    fn subspace_skyline_serial_and_parallel_match_oracle(
        rows in arb_coarse_rows(2, 3, 120),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
        which in 0usize..3,
    ) {
        let dims_options: [&[usize]; 3] = [&[0], &[2, 0], &[1, 2]];
        let dims = dims_options[which];
        let db = db_from(&rows, 2, 3);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let oracle = oracle_subspace(&qualifying(&rows, &sel), dims);
        let class = SubspaceSkylineClass::new(dims.to_vec());
        let serial = db.run(&sel, &class);
        prop_assert_eq!(&serial.rows, &oracle, "dims {:?}", dims);
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &serial.rows, "workers={}", workers);
        }
    }

    /// Budget semantics for the new classes: an untripped governed run is
    /// bit-identical to the full answer; a partial answer contains only
    /// qualifying tuples and is internally consistent (mutually
    /// non-dominated, distinct projections for the subspace class).
    #[test]
    fn pskyline_and_subspace_partials_are_sound(
        rows in arb_coarse_rows(2, 3, 150),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
        max_blocks in 1u64..40,
    ) {
        let db = db_from(&rows, 2, 3);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let budget = QueryBudget::unlimited().with_block_budget(max_blocks);
        let qual: std::collections::HashSet<u64> =
            qualifying(&rows, &sel).iter().map(|(t, _)| *t).collect();

        let edges = [(0usize, 1usize), (0, 2)];
        let graph = PriorityGraph::new(vec![0, 1, 2], &edges).expect("DAG");
        let class = PSkylineClass::new(graph);
        let full = db.run(&sel, &class);
        let cut = db.par_run(&sel, &class, ParallelOptions { budget, ..Default::default() });
        match &cut.stats.outcome {
            pcube::core::QueryOutcome::Complete => {
                prop_assert_eq!(&cut.rows, &full.rows, "untripped run is identical");
            }
            pcube::core::QueryOutcome::Partial { reason, progress } => {
                prop_assert_eq!(*reason, StopReason::BlockBudgetExceeded);
                prop_assert_eq!(progress.results_so_far, cut.rows.len());
                let cl = priority_closure(3, &edges);
                for (t, c) in &cut.rows {
                    prop_assert!(qual.contains(t), "partial rows qualify");
                    prop_assert_eq!(c, &rows[*t as usize].coords, "coords come from the row");
                    for (o, oc) in &cut.rows {
                        prop_assert!(
                            o == t || !gamma_dominates(oc, c, &[0, 1, 2], &cl),
                            "partial rows are mutually ≻_Γ-incomparable"
                        );
                    }
                }
            }
        }

        let dims = [1usize, 2];
        let class = SubspaceSkylineClass::new(dims.to_vec());
        let full = db.run(&sel, &class);
        let cut = db.par_run(&sel, &class, ParallelOptions { budget, ..Default::default() });
        match &cut.stats.outcome {
            pcube::core::QueryOutcome::Complete => {
                prop_assert_eq!(&cut.rows, &full.rows, "untripped run is identical");
            }
            pcube::core::QueryOutcome::Partial { reason, .. } => {
                prop_assert_eq!(*reason, StopReason::BlockBudgetExceeded);
                for (t, c) in &cut.rows {
                    prop_assert!(qual.contains(t), "partial rows qualify");
                    let expect: Vec<f64> =
                        dims.iter().map(|&d| rows[*t as usize].coords[d]).collect();
                    prop_assert_eq!(c, &expect, "projected coords come from the row");
                    for (o, oc) in &cut.rows {
                        if o != t {
                            prop_assert!(oc != c, "projections are distinct");
                            prop_assert!(
                                !(oc[0] <= c[0] && oc[1] <= c[1]
                                    && (oc[0] < c[0] || oc[1] < c[1])),
                                "partial rows are mutually non-dominated"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn three_pref_dims_and_subset_dims_agree(
        rows in arb_rows(2, 3, 100),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
    ) {
        let db = db_from(&rows, 2, 3);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        for dims in [vec![0usize, 1, 2], vec![2, 0], vec![1]] {
            let oracle = oracle_skyline(&qualifying(&rows, &sel), &dims);
            let class = SkylineClass::new(dims.clone());
            let serial = db.run(&sel, &class);
            prop_assert_eq!(&serial.rows, &oracle, "dims {:?}", &dims);
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(4));
            prop_assert_eq!(&par.rows, &serial.rows, "dims {:?}", &dims);
        }
    }
}

// Tie inputs. Each `proptest!` test draws its cases from one fixed-seed
// stream, so these get tests of their own: another strategy inside an
// existing test would change the cases that test has always run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Rounding ties: on every engine and at every worker count, a point
    /// is dropped when a dominator scores the same after rounding, whichever
    /// of the two has the smaller tid.
    #[test]
    fn skyline_drops_a_dominated_point_whose_dominator_rounds_to_its_score(
        rows in arb_rounding_tie_rows(2, 60),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let oracle = oracle_skyline(&qualifying(&rows, &sel), &[0, 1]);
        let class = SkylineClass::new(vec![0, 1]);
        for kind in EngineKind::ALL {
            if let Ok((got, _)) = db.run_class_on(&class, &sel, kind) {
                prop_assert_eq!(&got, &oracle, "{}", kind.name());
            }
        }
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(&par.rows, &oracle, "workers={}", workers);
        }
    }

    /// Score ties at the k-th top-k score: grid coordinates under equal
    /// weights tie often, and every engine, at every worker count, keeps
    /// the smaller tids, as the oracle does.
    #[test]
    fn topk_ties_at_the_kth_score_keep_the_smaller_tids(
        rows in arb_coarse_rows(2, 2, 120),
        d0 in 0u32..4,
        n_preds in 0usize..=1,
        k in 1usize..12,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }][..n_preds].to_vec();
        let f = LinearFn::new(vec![1.0, 1.0]);
        let oracle: Vec<u64> =
            naive_topk(&qualifying(&rows, &sel), k, &f).iter().map(|r| r.0).collect();
        let class = TopKClass::new(k, &f);
        let tids = |rows: &[(u64, Vec<f64>, f64)]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
        for kind in EngineKind::ALL {
            let (got, _) = db.run_class_on(&class, &sel, kind).expect("top-k runs on every engine");
            prop_assert_eq!(tids(&got), oracle.clone(), "{}", kind.name());
        }
        for workers in WORKER_COUNTS {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            prop_assert_eq!(tids(&par.rows), oracle.clone(), "workers={}", workers);
        }
    }
}

/// The ranking function used in the deterministic (non-proptest) checks
/// exercises the `RankingFunction + Sync` bound with a trait object.
#[test]
fn parallel_topk_accepts_trait_objects_and_empty_selections() {
    let rows: Vec<Row> = (0..500u64)
        .map(|i| Row {
            codes: vec![(i % 4) as u32, (i % 3) as u32],
            coords: vec![(i as f64 * 0.617) % 1.0, (i as f64 * 0.387) % 1.0],
        })
        .collect();
    let db = db_from(&rows, 2, 2);
    let f: Box<dyn RankingFunction + Sync> = Box::new(LinearFn::new(vec![0.7, 0.3]));
    let class = TopKClass::new(10, f.as_ref());
    let serial = db.run(&Vec::new(), &class);
    let par = db.par_run(&Vec::new(), &class, ParallelOptions::with_workers(8));
    assert_eq!(par.rows, serial.rows);
    assert_eq!(par.rows.len(), 10);
}

/// Impossible selections must come back empty from both engines, and the
/// worker-capped fan-out (more workers than root children) must degrade
/// gracefully.
#[test]
fn parallel_engines_handle_empty_and_tiny_inputs() {
    let rows: Vec<Row> = (0..40u64)
        .map(|i| Row {
            codes: vec![(i % 2) as u32, 0],
            coords: vec![(i as f64 * 0.713) % 1.0, (i as f64 * 0.293) % 1.0],
        })
        .collect();
    let db = db_from(&rows, 2, 2);
    let impossible: Selection = vec![Predicate { dim: 0, value: 999 }];
    let f = LinearFn::new(vec![1.0, 1.0]);
    let opts = ParallelOptions::with_workers(64);
    assert!(db.par_run(&impossible, &TopKClass::new(5, &f), opts.clone()).rows.is_empty());
    assert!(db.par_run(&impossible, &SkylineClass::new(vec![0, 1]), opts.clone()).rows.is_empty());
    assert!(db.par_run(&impossible, &DynamicSkylineClass::new(&[0.5, 0.5], vec![0, 1]), opts.clone())
        .rows
        .is_empty());
    assert!(db.par_run(&impossible, &HullClass::new((0, 1)), opts).rows.is_empty());
}
