//! The engine seam (§VI-A): every comparison method is Algorithm 1 behind a
//! pruner, or the class's in-memory step behind a selection.
//!
//! * The pinned table below is the equivalence that design rests on: the
//!   rows and counters of domination-first and index-merge on one seeded
//!   relation, recorded from the hand-written best-first loops (the BBS
//!   skyline, Ranking top-k and index-merge top-k drivers `pcube-baselines`
//!   had) on the commit before they were deleted. The kernel behind
//!   `VerifyAllPruner` / `IndexMergePruner` must reproduce every number.
//! * Boolean-first is governed for every class, through the planner and
//!   through a SQL session.
//! * Index-merge is reachable through the generic entry points, and only
//!   for a class that supports it.
//! * A governed P-Cube run stops where the pinned table says: six classes ×
//!   three trips (a block budget that trips mid-search, a pre-cancelled
//!   token, a heap cap), each run serially and through the fan-out entry
//!   point at one worker — the tids, the `Progress` counters and the reads
//!   per category, captured before the serial and the parallel driver
//!   became one. Multi-worker partials depend on timing and are checked
//!   for soundness elsewhere (`differential_oracle`, `soak_chaos`).

#[path = "support/governed.rs"]
mod governed;

use pcube::core::{
    run_class_engine, BooleanIndexSet, CancelToken, ClassOutcome, DynamicSkylineClass, Engine,
    EngineKind, HullClass, LinearFn, PCubeConfig, PCubeDb, PSkylineClass, PlanError,
    PriorityGraph, QueryBudget, QueryClass, QueryStats, SkylineClass, StopReason,
    SubspaceSkylineClass, TopKClass,
};
use pcube::cube::{Predicate, Relation, Schema, Selection};
use pcube::sql::{SessionReply, SqlSession};
use pcube::storage::IoCategory;
use pcube_bench::mix::Row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 5,000 rows; boolean dimension `a` is skewed (60 / 25 / 10 / 4 / 1 %),
/// `b` is uniform over four values, `x` and `y` are uniform.
fn seeded_db() -> PCubeDb {
    let mut rng = StdRng::seed_from_u64(15);
    let mut relation = Relation::new(Schema::new(&["a", "b"], &["x", "y"]));
    for _ in 0..5000 {
        let u: f64 = rng.gen();
        let a = [0.60, 0.85, 0.95, 0.99].iter().filter(|&&edge| u >= edge).count() as u32;
        let b: u32 = rng.gen_range(0..4);
        relation.push_coded(&[a, b], &[rng.gen(), rng.gen()]);
    }
    PCubeDb::build(relation, &PCubeConfig::default())
}

/// The four selectivities: everything, 60 %, 9 % and 0.3 % (two predicates).
fn selections() -> [Selection; 4] {
    let p = |dim, value| Predicate { dim, value };
    [vec![], vec![p(0, 0)], vec![p(0, 2)], vec![p(0, 4), p(1, 1)]]
}

/// `(tids in answer order, [R-tree, signature, B+-tree, tuple, heap-scan
/// reads, nodes_expanded, peak_heap])`, three per selection: Ranking (top-10
/// domination-first), BBS (skyline domination-first), index-merge top-10.
type Pinned = (&'static [u64], [u64; 7]);
const HAND_WRITTEN_LOOPS: [Pinned; 12] = [
    (&[3891, 2179, 4112, 4109, 2609, 3843, 3322, 4223, 1273, 975], [3, 0, 0, 10, 0, 3, 211]),
    (&[3891, 2179, 4112, 3322, 975, 1067, 109, 1742, 851, 526, 4491], [9, 0, 0, 11, 0, 9, 211]),
    (&[3891, 2179, 4112, 4109, 2609, 3843, 3322, 4223, 1273, 975], [3, 0, 0, 0, 0, 3, 211]),
    (&[2179, 4112, 2609, 3843, 4223, 1352, 2575, 640, 1227, 309], [3, 0, 0, 19, 0, 3, 211]),
    (&[2179, 4112, 1067, 4440, 4633, 1742, 526], [9, 0, 0, 13, 0, 9, 211]),
    (&[2179, 4112, 2609, 3843, 4223, 1352, 2575, 640, 1227, 309], [3, 0, 20, 0, 0, 3, 211]),
    (&[1273, 2968, 2995, 1821, 2939, 1390, 432, 4751, 3519, 3841], [7, 0, 0, 132, 0, 7, 389]),
    (&[2968, 1273, 1821, 2939, 1390, 851, 1650, 4343], [15, 0, 0, 97, 0, 15, 211]),
    (&[1273, 2968, 2995, 1821, 2939, 1390, 432, 4751, 3519, 3841], [7, 0, 132, 0, 0, 7, 389]),
    (&[402, 367, 89, 2136, 4588, 2509, 544, 4532, 2803, 4203], [48, 0, 0, 2693, 0, 48, 927]),
    (&[89, 402, 367, 2509, 4588], [36, 0, 0, 1710, 0, 36, 781]),
    (&[402, 367, 89, 2136, 4588, 2509, 544, 4532, 2803, 4203], [48, 0, 2730, 0, 0, 48, 927]),
];

fn counters(stats: &QueryStats) -> [u64; 7] {
    [
        stats.io.reads(IoCategory::RtreeBlock),
        stats.io.reads(IoCategory::SignaturePage),
        stats.io.reads(IoCategory::BptreePage),
        stats.io.reads(IoCategory::TupleRandomAccess),
        stats.io.reads(IoCategory::HeapScan),
        stats.nodes_expanded,
        stats.peak_heap as u64,
    ]
}

#[test]
fn the_kernel_reproduces_the_hand_written_loops() {
    let db = seeded_db();
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    let f = LinearFn::new(vec![0.6, 0.4]);
    let top10 = TopKClass::new(10, &f);
    let skyline = SkylineClass::new(vec![0, 1]);
    let budget = QueryBudget::unlimited();
    let mut actual: Vec<(Vec<u64>, [u64; 7])> = Vec::new();
    for sel in &selections() {
        let out = run_class_engine(&db, sel, &top10, Engine::DominationFirst, &budget, None);
        actual.push((out.rows.iter().map(|r| r.0).collect(), counters(&out.stats)));
        let out = run_class_engine(&db, sel, &skyline, Engine::DominationFirst, &budget, None);
        actual.push((out.rows.iter().map(|r| r.0).collect(), counters(&out.stats)));
        let out = run_class_engine(&db, sel, &top10, Engine::IndexMerge(&indexes), &budget, None);
        actual.push((out.rows.iter().map(|r| r.0).collect(), counters(&out.stats)));
    }
    let expected: Vec<(Vec<u64>, [u64; 7])> =
        HAND_WRITTEN_LOOPS.iter().map(|(tids, c)| (tids.to_vec(), *c)).collect();
    assert_eq!(actual, expected, "actual table:\n{actual:#?}");
}

/// `(tids in answer order, [pops, nodes_expanded, results_so_far,
/// blocks_used, frontier] of the `Progress`, [R-tree, signature, B+-tree,
/// tuple, heap-scan reads])` of one governed run on [`seeded_db`]. Class-major
/// (top-k, skyline, dynamic skyline, hull, p-skyline, subspace skyline),
/// trip-minor in [`governed_trips`]' order.
type PinnedTrip = (&'static [u64], [u64; 5], [u64; 5]);
const GOVERNED_TRIPS: &[PinnedTrip] = &[
    (&[], [4, 3, 0, 7, 95], [3, 2, 2, 0, 0]),
    (&[], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]),
    (&[], [3, 2, 0, 4, 89], [2, 1, 1, 0, 0]),
    (&[], [4, 3, 0, 7, 95], [3, 2, 2, 0, 0]),
    (&[], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]),
    (&[], [3, 2, 0, 4, 89], [2, 1, 1, 0, 0]),
    (&[], [4, 3, 0, 7, 89], [3, 2, 2, 0, 0]),
    (&[], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]),
    (&[], [3, 2, 0, 4, 87], [2, 1, 1, 0, 0]),
    (&[2738, 4223, 1352, 4823, 2706, 4962], [17, 3, 6, 7, 78], [3, 2, 2, 0, 0]),
    (&[], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]),
    (&[], [3, 2, 0, 4, 89], [2, 1, 1, 0, 0]),
    (&[], [4, 3, 0, 7, 95], [3, 2, 2, 0, 0]),
    (&[], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]),
    (&[], [3, 2, 0, 4, 89], [2, 1, 1, 0, 0]),
    (&[], [4, 3, 0, 7, 87], [3, 2, 2, 0, 0]),
    (&[], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]),
    (&[], [3, 2, 0, 4, 85], [2, 1, 1, 0, 0]),
];

/// The three trips: `(selection, budget, cancelled?, the reason it stops)`.
fn governed_trips() -> [(Selection, QueryBudget, bool, StopReason); 3] {
    let p = |dim, value| Predicate { dim, value };
    let unlimited = QueryBudget::unlimited();
    let blocks = unlimited.with_block_budget(6);
    [
        (vec![p(0, 0), p(1, 1)], blocks, false, StopReason::BlockBudgetExceeded),
        (vec![p(1, 2)], unlimited, true, StopReason::Cancelled),
        (vec![p(0, 1)], unlimited.with_heap_cap(80), false, StopReason::HeapCapExceeded),
    ]
}

fn governed_row<R: Into<Row>>(out: ClassOutcome<R>) -> (Vec<u64>, [u64; 5], [u64; 5]) {
    let progress = *out.stats.outcome.progress().expect("a governed row stops early");
    let io = |c| out.stats.io.reads(c);
    let reads = [
        io(IoCategory::RtreeBlock),
        io(IoCategory::SignaturePage),
        io(IoCategory::BptreePage),
        io(IoCategory::TupleRandomAccess),
        io(IoCategory::HeapScan),
    ];
    let progress = [
        progress.pops,
        progress.nodes_expanded,
        progress.results_so_far as u64,
        progress.blocks_used,
        progress.frontier,
    ];
    (out.rows.into_iter().map(|r| r.into().tid).collect(), progress, reads)
}

/// Runs `class` under every trip, serially and at one worker, and appends
/// one row per trip (the two entry points must agree on it).
fn governed_rows<C>(db: &PCubeDb, class: &C, rows: &mut Vec<(Vec<u64>, [u64; 5], [u64; 5])>)
where
    C: QueryClass + Sync,
    C::Row: Into<Row>,
{
    for (sel, budget, cancelled, reason) in governed_trips() {
        let token = CancelToken::new();
        if cancelled {
            token.cancel();
        }
        let cancel = cancelled.then_some(&token);
        let serial = governed::serial(db, &sel, class, &budget, cancel);
        assert_eq!(serial.stats.outcome.partial_reason(), Some(reason), "{}", class.name());
        let one = governed::one_worker(db, &sel, class, &budget, cancel);
        let row = governed_row(serial);
        assert_eq!(governed_row(one), row, "{} at one worker, {reason}", class.name());
        rows.push(row);
    }
}

#[test]
fn governed_runs_stop_where_the_pinned_table_says() {
    let db = seeded_db();
    let f = LinearFn::new(vec![0.6, 0.4]);
    let graph = PriorityGraph::new(vec![0, 1], &[(0, 1)]).expect("one edge is a DAG");
    let mut actual = Vec::new();
    governed_rows(&db, &TopKClass::new(10, &f), &mut actual);
    governed_rows(&db, &SkylineClass::new(vec![0, 1]), &mut actual);
    governed_rows(&db, &DynamicSkylineClass::new(&[0.3, 0.6], vec![0, 1]), &mut actual);
    governed_rows(&db, &HullClass::new((0, 1)), &mut actual);
    governed_rows(&db, &PSkylineClass::new(graph), &mut actual);
    governed_rows(&db, &SubspaceSkylineClass::new(vec![1]), &mut actual);
    let expected: Vec<(Vec<u64>, [u64; 5], [u64; 5])> =
        GOVERNED_TRIPS.iter().map(|(tids, p, r)| (tids.to_vec(), *p, *r)).collect();
    assert_eq!(actual, expected, "actual table:\n{actual:?}");
}

/// A table where one value of `a` is rare enough that every class plans a
/// query on it onto boolean-first.
fn db_with_a_rare_value() -> PCubeDb {
    let mut relation = Relation::new(Schema::new(&["a"], &["x", "y"]));
    for i in 0..6000u32 {
        let f = f64::from(i);
        relation.push_coded(&[i % 7], &[(f * 0.618_034).fract(), (f * 0.414_214).fract()]);
    }
    for i in 1..=3u32 {
        relation.push_coded(&[9], &[0.1 * f64::from(i), 0.5 - 0.1 * f64::from(i)]);
    }
    PCubeDb::build(relation, &PCubeConfig::default())
}

/// Through the planner: under an already-cancelled token (or a budget of no
/// blocks) boolean-first stops before its selection step — a typed, empty
/// partial answer and nothing read — instead of ignoring both.
fn assert_planned_boolean_first_is_governed<C: QueryClass + Sync>(db: &PCubeDb, class: &C)
where
    C::Row: PartialEq + std::fmt::Debug,
{
    let planner = db.planner();
    let sel = vec![Predicate { dim: 0, value: 9 }];
    let unlimited = QueryBudget::unlimited();
    let (full, stats) = db.plan_and_run_class(&planner, class, &sel, &unlimited, None).unwrap();
    assert_eq!(stats.plan.as_ref().unwrap().chosen, EngineKind::BooleanFirst, "{}", class.name());
    assert!(stats.outcome.is_complete() && !full.is_empty());
    assert!(stats.io.total_reads() < 10, "the index route, not a heap scan: {:?}", stats.io);

    let cancelled = CancelToken::new();
    cancelled.cancel();
    let (rows, stats) =
        db.plan_and_run_class(&planner, class, &sel, &unlimited, Some(&cancelled)).unwrap();
    assert_eq!(stats.plan.as_ref().unwrap().chosen, EngineKind::BooleanFirst);
    assert_eq!(stats.outcome.partial_reason(), Some(StopReason::Cancelled), "{}", class.name());
    assert!(rows.is_empty());
    assert_eq!(stats.io.total_reads(), 0, "cancelled before the selection step");

    // A block budget the selection overruns: caught by the second check.
    let budget = QueryBudget::unlimited().with_block_budget(1);
    let out = run_class_engine(
        db,
        &sel,
        class,
        Engine::BooleanFirst(&BooleanIndexSet::of(db), pcube::core::SelectRoute::Index),
        &budget,
        None,
    );
    assert_eq!(out.stats.outcome.partial_reason(), Some(StopReason::BlockBudgetExceeded));
    assert!(out.rows.is_empty() && out.stats.io.total_reads() > 1);
}

#[test]
fn boolean_first_is_governed_for_every_class_through_the_planner() {
    let db = db_with_a_rare_value();
    let graph = PriorityGraph::new(vec![0, 1], &[(0, 1)]).expect("one edge is a DAG");
    assert_planned_boolean_first_is_governed(&db, &PSkylineClass::new(graph));
    assert_planned_boolean_first_is_governed(&db, &SubspaceSkylineClass::new(vec![1]));
    assert_planned_boolean_first_is_governed(&db, &SkylineClass::new(vec![0, 1]));
}

#[test]
fn boolean_first_is_governed_through_explain_in_a_cancelled_session() {
    let db = db_with_a_rare_value();
    let rows_of = |session: &mut SqlSession, text: &str| match session.run(&db, text).unwrap() {
        SessionReply::Rows(out) => out,
        SessionReply::Ack(ack) => panic!("{text} is a query, got {ack}"),
    };
    for text in [
        "explain select skyline of x, y from r where a = 9 prioritize x over y",
        "explain select skyline in subspace (y) from r where a = 9",
    ] {
        let mut session = SqlSession::new();
        let full = rows_of(&mut session, text);
        assert_eq!(full.stats.plan.as_ref().unwrap().chosen, EngineKind::BooleanFirst, "{text}");
        assert!(full.stats.outcome.is_complete() && !full.rows.is_empty());

        session.run(&db, "cancel").unwrap();
        let cut = rows_of(&mut session, text);
        assert_eq!(cut.stats.plan.as_ref().unwrap().chosen, EngineKind::BooleanFirst, "{text}");
        assert_eq!(cut.stats.outcome.partial_reason(), Some(StopReason::Cancelled), "{text}");
        assert!(cut.rows.is_empty());
        assert_eq!(cut.stats.io.total_reads(), 0);

        session.run(&db, "reset").unwrap();
        let again = rows_of(&mut session, text);
        assert!(again.stats.outcome.is_complete());
        assert_eq!(again.rows.len(), full.rows.len());
    }
}

#[test]
fn index_merge_runs_through_the_generic_entry_points() {
    let db = seeded_db();
    let f = LinearFn::new(vec![0.6, 0.4]);
    let top10 = TopKClass::new(10, &f);
    let sel = vec![Predicate { dim: 0, value: 2 }];
    let live: Vec<(u64, Vec<f64>)> = (0..db.relation().len() as u64)
        .filter(|&t| db.relation().matches(t, &sel))
        .map(|t| (t, db.relation().pref_coords(t)))
        .collect();
    let (rows, stats) = db.run_class_on(&top10, &sel, EngineKind::IndexMerge).expect("supported");
    assert_eq!(rows, top10.oracle(&live));
    assert!(stats.io.reads(IoCategory::BptreePage) > 0, "membership probes");
    assert_eq!(stats.io.reads(IoCategory::SignaturePage), 0, "not P-Cube under another name");
    assert_eq!(stats.io.reads(IoCategory::TupleRandomAccess), 0);

    // The planner offers it (top-k supports all four engines) …
    let planner = db.planner();
    let (_, stats) = db
        .plan_and_run_class(&planner, &top10, &sel, &QueryBudget::unlimited(), None)
        .expect("planned");
    let plan = stats.plan.expect("recorded");
    assert!(plan.estimates.iter().any(|e| e.engine == EngineKind::IndexMerge));

    // … and a class that does not support it is refused, not rerouted.
    let skyline = SkylineClass::new(vec![0, 1]);
    assert!(!skyline.supports(EngineKind::IndexMerge));
    assert!(matches!(
        db.run_class_on(&skyline, &sel, EngineKind::IndexMerge),
        Err(PlanError::NoExecutor)
    ));
    let (_, stats) = db
        .plan_and_run_class(&planner, &skyline, &sel, &QueryBudget::unlimited(), None)
        .expect("planned");
    assert!(stats.plan.expect("recorded").estimates.iter().all(|e| e.engine != EngineKind::IndexMerge));
}
