//! The database's derived data — the §VI catalog ([`PCubeDb::planner`]) and
//! the baselines' boolean B+-tree indexes ([`BooleanIndexSet::of`]) — is
//! built once per database version, shared by snapshots of that version,
//! dropped by the next insert or delete and by nothing else; and whatever
//! is built sees live rows only, so a deleted tuple comes back through no
//! engine.
//!
//! "Built once" is argued by counts (index page writes on the ledger,
//! `Arc` identity), never by a clock.

use std::sync::{Arc, Barrier};

use pcube::core::{
    run_class_engine, BooleanIndexSet, DurabilityOptions, DurableDb, Engine, EngineKind, LinearFn,
    MaintenanceOp, PCubeConfig, PCubeDb, PSkylineClass, Planner, PriorityGraph, QueryBudget,
    QueryClass, QueryStats, SelectRoute, SkylineClass, SubspaceSkylineClass, TopKClass,
};
use pcube::cube::{Predicate, Relation, Schema, Selection};
use pcube::sql::{self, ResultRow};
use pcube::storage::IoCategory;
use proptest::prelude::*;

const N_BOOL: usize = 2;
const N_PREF: usize = 3;

type Point = (u64, Vec<f64>);

#[derive(Debug, Clone)]
struct Row {
    codes: Vec<u32>,
    coords: Vec<f64>,
}

/// What the database must contain: every row ever appended, by tid, and
/// whether it is still live.
#[derive(Debug, Clone, Default)]
struct Model {
    rows: Vec<(Row, bool)>,
}

impl Model {
    fn qualifying(&self, sel: &Selection) -> Vec<Point> {
        (0u64..)
            .zip(&self.rows)
            .filter(|(_, (row, live))| *live && sel.iter().all(|p| row.codes[p.dim] == p.value))
            .map(|(tid, (row, _))| (tid, row.coords.clone()))
            .collect()
    }

    fn live_tids(&self) -> Vec<u64> {
        (0u64..).zip(&self.rows).filter(|(_, (_, live))| *live).map(|(tid, _)| tid).collect()
    }
}

fn schema() -> Schema {
    Schema::new(&["a", "b"], &["x", "y", "z"])
}

/// A dictionary-less database (SQL takes the numeric codes as literals) and
/// its model.
fn world(rows: &[Row]) -> (PCubeDb, Model) {
    let mut relation = Relation::new(schema());
    for r in rows {
        relation.push_coded(&r.codes, &r.coords);
    }
    let model = Model { rows: rows.iter().map(|r| (r.clone(), true)).collect() };
    (PCubeDb::build(relation, &PCubeConfig::default()), model)
}

/// Deterministic rows: codes cycle with different periods, coordinates are
/// low-discrepancy, so every value occurs and no two rows coincide.
fn grid_rows(n: usize, card: u32) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let f = i as f64;
            Row {
                codes: vec![i as u32 % card, (i as u32 / 3) % card],
                coords: vec![(f * 0.618_034).fract(), (f * 0.414_214).fract(), (f * 0.732_051).fract()],
            }
        })
        .collect()
}

/// `grid_rows` plus three rows holding value 9 on both boolean dimensions.
/// A statement selecting them plans onto boolean-first's index route — an
/// engine that reads the database's indexes, which are built by the first
/// plan that does and by none before it.
fn grid_rows_with_a_rare_value(n: usize, card: u32) -> Vec<Row> {
    let mut rows = grid_rows(n, card);
    rows.extend((1..=3).map(|i| {
        let f = f64::from(i);
        Row { codes: vec![9, 9], coords: vec![0.2 * f, 1.0 - 0.2 * f, 0.5] }
    }));
    rows
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        prop::collection::vec(0u32..4, N_BOOL..=N_BOOL),
        prop::collection::vec(0.0f64..1.0, N_PREF..=N_PREF),
    )
        .prop_map(|(codes, coords)| Row { codes, coords })
}

/// The four statement kinds `EXPLAIN` plans.
#[derive(Debug, Clone, Copy)]
enum Kind {
    TopK(usize),
    Skyline,
    PSkyline,
    Subspace,
}

const KINDS: [Kind; 4] = [Kind::TopK(3), Kind::Skyline, Kind::PSkyline, Kind::Subspace];

#[derive(Debug, Clone)]
enum Op {
    Insert(Row),
    /// Deletes the `n`-th live tuple (modulo the live count).
    Delete(usize),
    Explain(Kind, Vec<(usize, u32)>),
    Snapshot,
}

fn arb_explain() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        (1usize..8).prop_map(Kind::TopK),
        Just(Kind::Skyline),
        Just(Kind::PSkyline),
        Just(Kind::Subspace),
    ];
    // At most one predicate a dimension (two on one contradict). Value 4 is
    // held by no generated row: an empty answer is an answer too.
    let preds = prop::collection::vec(prop_oneof![Just(None), (0u32..5).prop_map(Some)], N_BOOL..=N_BOOL);
    (kind, preds).prop_map(|(kind, preds)| {
        let preds = preds.into_iter().enumerate().filter_map(|(dim, v)| Some((dim, v?))).collect();
        Op::Explain(kind, preds)
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_row().prop_map(Op::Insert),
        (0usize..1000).prop_map(Op::Delete),
        arb_explain(),
        arb_explain(),
        Just(Op::Snapshot),
    ]
}

fn selection(preds: &[(usize, u32)]) -> Selection {
    preds.iter().map(|&(dim, value)| Predicate { dim, value }).collect()
}

fn statement(kind: Kind, preds: &[(usize, u32)]) -> String {
    let filter: Vec<String> =
        preds.iter().map(|&(dim, value)| format!("{} = {value}", ["a", "b"][dim])).collect();
    let filter =
        if filter.is_empty() { String::new() } else { format!(" where {}", filter.join(" and ")) };
    match kind {
        Kind::TopK(k) => format!("explain select top {k} from r{filter} order by x + 0.5 * y"),
        Kind::Skyline => format!("explain select skyline from r{filter}"),
        Kind::PSkyline => format!("explain select skyline of x, y from r{filter} prioritize x over y"),
        Kind::Subspace => format!("explain select skyline in subspace (z, x) from r{filter}"),
    }
}

fn points_of(rows: &[ResultRow]) -> Vec<Point> {
    rows.iter().map(|r| (r.tid, r.coords.clone())).collect()
}

fn plan_of(stats: &QueryStats) -> String {
    format!("{:?}", stats.plan.as_ref().expect("EXPLAIN records its plan"))
}

/// `class` over `sel` gives the class's own reference answer over the live
/// qualifying rows on each engine the class supports.
fn engines_match_oracle<C>(db: &PCubeDb, class: &C, sel: &Selection, oracle: &[C::Row], what: &str)
where
    C: QueryClass + Sync,
    C::Row: PartialEq + std::fmt::Debug,
{
    for engine in EngineKind::ALL.into_iter().filter(|&e| class.supports(e)) {
        let (rows, _) = db.run_class_on(class, sel, engine).expect("a supported engine");
        assert_eq!(rows, oracle, "{what} on {}", engine.name());
    }
}

/// One `EXPLAIN` against `db`, checked three ways: against the same plan
/// over a *fresh* catalog and the chosen engine over *fresh* indexes of the
/// same value, against the class's reference answer over the model's live
/// rows, and against every engine the class supports.
fn check_explain(db: &PCubeDb, model: &Model, kind: Kind, preds: &[(usize, u32)]) {
    let text = statement(kind, preds);
    let sel = selection(preds);
    let out = sql::execute(db, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let got = points_of(&out.rows);

    let planner = Planner::new(db);
    let page_size = db.rtree().pager().page_size();
    let indexes = BooleanIndexSet::build(db.relation(), page_size, db.stats().clone());
    let qualifying = model.qualifying(&sel);

    /// Plans over the fresh catalog, then runs the chosen engine over the
    /// fresh indexes (the planned entry point reads the database's own).
    fn fresh<C: QueryClass + Sync>(
        db: &PCubeDb,
        (planner, indexes): (&Planner, &BooleanIndexSet),
        class: &C,
        sel: &Selection,
    ) -> (Vec<C::Row>, QueryStats) {
        let budget = QueryBudget::unlimited();
        let (_, stats) = db.plan_and_run_class(planner, class, sel, &budget, None).expect("planned");
        let engine = match stats.plan.as_ref().expect("recorded").chosen {
            EngineKind::PCube => Engine::PCube,
            EngineKind::DominationFirst => Engine::DominationFirst,
            EngineKind::IndexMerge => Engine::IndexMerge(indexes),
            EngineKind::BooleanFirst => Engine::BooleanFirst(indexes, SelectRoute::Auto),
        };
        (run_class_engine(db, sel, class, engine, &budget, None).rows, stats)
    }
    let fresh_data = (&planner, &indexes);

    fn skyline_family<C: QueryClass<Row = Point> + Sync>(
        db: &PCubeDb,
        class: &C,
        sel: &Selection,
        qualifying: &[Point],
        got: &[Point],
        fresh: (Vec<Point>, QueryStats),
        text: &str,
    ) -> String {
        let oracle = class.oracle(qualifying);
        assert_eq!(got, oracle, "{text}: answer vs the live rows");
        assert_eq!(fresh.0, oracle, "{text}: fresh catalog and indexes vs the live rows");
        engines_match_oracle(db, class, sel, &oracle, text);
        plan_of(&fresh.1)
    }

    let fresh_plan = match kind {
        Kind::TopK(k) => {
            let f = LinearFn::new(vec![1.0, 0.5, 0.0]);
            let class = TopKClass::new(k, &f);
            let oracle = class.oracle(&qualifying);
            let (rows, stats) = fresh(db, fresh_data, &class, &sel);
            assert_eq!(rows, oracle, "{text}: fresh catalog and indexes vs the live rows");
            let tids = |rows: &[(u64, Vec<f64>, f64)]| -> Vec<Point> {
                rows.iter().map(|(tid, coords, _)| (*tid, coords.clone())).collect()
            };
            assert_eq!(got, tids(&oracle), "{text}: answer vs the live rows");
            for (row, want) in out.rows.iter().zip(&oracle) {
                let score = row.score.expect("top-k rows carry a score");
                assert!((score - want.2).abs() < 1e-12, "{text}: score {score} vs {}", want.2);
            }
            engines_match_oracle(db, &class, &sel, &oracle, &text);
            plan_of(&stats)
        }
        Kind::Skyline => {
            let class = SkylineClass::new((0..N_PREF).collect());
            let fresh = fresh(db, fresh_data, &class, &sel);
            skyline_family(db, &class, &sel, &qualifying, &got, fresh, &text)
        }
        Kind::PSkyline => {
            let graph = PriorityGraph::new(vec![0, 1], &[(0, 1)]).expect("x over y is acyclic");
            let class = PSkylineClass::new(graph);
            let fresh = fresh(db, fresh_data, &class, &sel);
            skyline_family(db, &class, &sel, &qualifying, &got, fresh, &text)
        }
        Kind::Subspace => {
            let class = SubspaceSkylineClass::new(vec![2, 0]);
            let fresh = fresh(db, fresh_data, &class, &sel);
            skyline_family(db, &class, &sel, &qualifying, &got, fresh, &text)
        }
    };
    assert_eq!(plan_of(&out.stats), fresh_plan, "{text}: plan vs a fresh catalog's");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Any interleaving of inserts, deletes, `EXPLAIN`s of all four
    /// statement kinds and snapshots: the master and every snapshot still
    /// held answer — rows and recorded plan — exactly as a freshly built
    /// catalog and index set over the same value would, and as the class's
    /// reference answer over that value's live rows does on every engine.
    #[test]
    fn explain_over_derived_data_equals_fresh_builds_and_the_live_rows(
        rows in prop::collection::vec(arb_row(), 1..60),
        ops in prop::collection::vec(arb_op(), 1..24),
    ) {
        let (mut db, mut model) = world(&rows);
        let mut snapshots: Vec<(PCubeDb, Model)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(row) => {
                    let tid = db.insert_coded(&row.codes, &row.coords);
                    prop_assert_eq!(tid, model.rows.len() as u64);
                    model.rows.push((row, true));
                }
                Op::Delete(n) => {
                    let live = model.live_tids();
                    if let Some(&tid) = live.get(n % live.len().max(1)) {
                        prop_assert!(db.delete(tid));
                        prop_assert!(!db.delete(tid), "a second delete finds nothing");
                        model.rows[tid as usize].1 = false;
                    }
                }
                Op::Explain(kind, preds) => {
                    check_explain(&db, &model, kind, &preds);
                    for (snap, snap_model) in &snapshots {
                        check_explain(snap, snap_model, kind, &preds);
                    }
                }
                Op::Snapshot => {
                    snapshots.push((db.clone_snapshot(), model.clone()));
                    if snapshots.len() > 2 {
                        snapshots.remove(0);
                    }
                }
            }
        }
        prop_assert_eq!(db.relation().live_len(), model.live_tids().len());
    }
}

/// The issue's shown bug: four mutually non-dominated rows hold a rare
/// value; one is deleted. Before the relation kept a live set, the
/// boolean-first engine — scan route, index route, and `EXPLAIN` through
/// SQL, which plans a rare value onto it — still returned all four.
#[test]
fn a_deleted_tuple_does_not_come_back_through_boolean_first() {
    let mut relation = Relation::new(Schema::new(&["a"], &["x", "y"]));
    for i in 0..6000u32 {
        let f = f64::from(i);
        let value = format!("v{}", i % 7);
        relation.push(&[&value], &[0.2 + (f * 0.618_034).fract() * 0.8, 0.2 + (f * 0.414_214).fract() * 0.8]);
    }
    // Four rows on an anti-diagonal near the origin: each is in the skyline.
    let rare: Vec<u64> = [(0.01, 0.04), (0.02, 0.03), (0.03, 0.02), (0.04, 0.01)]
        .into_iter()
        .map(|(x, y)| relation.push(&["p"], &[x, y]))
        .collect();
    let mut db = PCubeDb::build(relation, &PCubeConfig::default());
    let sel = db.selection(&[("a", "p")]);
    let class = SkylineClass::new(vec![0, 1]);
    let tids = |rows: &[Point]| -> Vec<u64> {
        let mut tids: Vec<u64> = rows.iter().map(|r| r.0).collect();
        tids.sort_unstable();
        tids
    };
    // Warm the derived data so the delete has something stale to drop.
    let before = sql::execute(&db, "explain select skyline from r where a = 'p'").unwrap();
    assert_eq!(tids(&points_of(&before.rows)), rare);
    assert_eq!(db.planner().value_count(0, sel[0].value), 4);

    assert!(db.delete(rare[1]));
    let survivors = vec![rare[0], rare[2], rare[3]];

    let plain = sql::execute(&db, "select skyline from r where a = 'p'").unwrap();
    assert_eq!(tids(&points_of(&plain.rows)), survivors, "P-Cube");

    let explained = sql::execute(&db, "explain select skyline from r where a = 'p'").unwrap();
    let plan = explained.stats.plan.as_ref().expect("EXPLAIN records its plan");
    assert_eq!(plan.chosen, EngineKind::BooleanFirst, "{plan:?}");
    assert_eq!(tids(&points_of(&explained.rows)), survivors, "EXPLAIN via boolean-first");

    let (scan, _) = db.run_class_on(&class, &sel, EngineKind::BooleanFirst).unwrap();
    assert_eq!(tids(&scan), survivors, "run_class_on(BooleanFirst)");

    let indexes = BooleanIndexSet::of(&db);
    for route in [SelectRoute::Index, SelectRoute::Scan, SelectRoute::Auto] {
        let engine = Engine::BooleanFirst(&indexes, route);
        let out = run_class_engine(&db, &sel, &class, engine, &QueryBudget::unlimited(), None);
        assert_eq!(tids(&out.rows), survivors, "Engine::BooleanFirst(_, {route:?})");
    }
    assert_eq!(indexes.lookup(0, sel[0].value), survivors);
    assert_eq!(indexes.value_count(0, sel[0].value), 3);
    assert_eq!(db.planner().value_count(0, sel[0].value), 3);

    // A saved image stores every row and no live set: loading rebuilds it
    // from the R-tree, so the tombstone stays dead across a round trip.
    let reloaded = PCubeDb::load_from_bytes(&db.save_to_bytes()).expect("loads");
    assert_eq!(reloaded.relation().live_len(), db.relation().live_len());
    assert!(!reloaded.relation().is_live(rare[1]));
    let (scan, _) = reloaded.run_class_on(&class, &sel, EngineKind::BooleanFirst).unwrap();
    assert_eq!(tids(&scan), survivors, "after a save/load round trip");
}

fn index_page_writes(db: &PCubeDb) -> u64 {
    db.stats().writes(IoCategory::BptreePage)
}

/// What one `BooleanIndexSet::build` over `rows` charges the ledger.
fn one_index_build(rows: &[Row]) -> u64 {
    let (twin, _) = world(rows);
    let before = index_page_writes(&twin);
    let page_size = twin.rtree().pager().page_size();
    BooleanIndexSet::build(twin.relation(), page_size, twin.stats().clone());
    index_page_writes(&twin) - before
}

/// (b) Build-once, by count: the first check bulk loads the indexes (its
/// every-engine pass runs index-merge); fifty more statements of every kind
/// write no index page.
#[test]
fn fifty_statements_after_the_first_build_nothing() {
    let rows = grid_rows(3000, 6);
    let (db, model) = world(&rows);
    let cold = index_page_writes(&db);
    check_explain(&db, &model, Kind::TopK(5), &[(0, 1)]);
    // `check_explain` builds one fresh set of its own beside the database's.
    assert_eq!(index_page_writes(&db) - cold, 2 * one_index_build(&rows));

    let planner = db.planner();
    let indexes = BooleanIndexSet::of(&db);
    let warm = index_page_writes(&db);
    let mut session = sql::SqlSession::new();
    for i in 0..50usize {
        let preds = [(i % N_BOOL, (i % 6) as u32)];
        let text = statement(KINDS[i % KINDS.len()], &preds[..i % 2]);
        // Through a session, through the session-less entry point, and
        // through a snapshot: all of them plan against the one database.
        match i % 3 {
            0 => drop(session.run(&db, &text).unwrap_or_else(|e| panic!("{text}: {e}"))),
            1 => drop(sql::execute(&db, &text).unwrap_or_else(|e| panic!("{text}: {e}"))),
            _ => drop(sql::execute(&db.clone_snapshot(), &text).unwrap_or_else(|e| panic!("{text}: {e}"))),
        }
    }
    assert_eq!(index_page_writes(&db), warm, "no statement after the first builds an index");
    assert!(Arc::ptr_eq(&db.planner(), &db.planner()));
    assert!(Arc::ptr_eq(&db.planner(), &planner));
    assert!(Arc::ptr_eq(&BooleanIndexSet::of(&db), &indexes));
}

/// (c) A snapshot taken before a write keeps its catalog and indexes and
/// keeps answering from them; the master rebuilds once after the write.
#[test]
fn a_snapshot_keeps_its_derived_data_across_a_write_to_the_master() {
    let rows = grid_rows_with_a_rare_value(2000, 5);
    let (mut db, mut model) = world(&rows);
    let text = statement(Kind::TopK(4), &[(1, 9)]);
    let first = sql::execute(&db, &text).unwrap();
    assert_eq!(first.stats.plan.as_ref().unwrap().chosen, EngineKind::BooleanFirst);

    let snap = db.clone_snapshot();
    let snap_model = model.clone();
    let (planner, indexes) = (db.planner(), BooleanIndexSet::of(&db));
    assert!(Arc::ptr_eq(&snap.planner(), &planner), "a snapshot shares the version's catalog");
    assert!(Arc::ptr_eq(&BooleanIndexSet::of(&snap), &indexes));

    // The new row is the best answer to the statement.
    let best = Row { codes: vec![0, 9], coords: vec![0.0, 0.0, 0.0] };
    let tid = db.insert_coded(&best.codes, &best.coords);
    model.rows.push((best, true));

    let before = index_page_writes(&db);
    let after_write = sql::execute(&db, &text).unwrap();
    assert_eq!(after_write.rows[0].tid, tid);
    assert_eq!(index_page_writes(&db) - before, one_index_build(&rows_of(&model)));
    assert!(!Arc::ptr_eq(&db.planner(), &planner), "the write dropped the master's catalog");
    assert!(!Arc::ptr_eq(&BooleanIndexSet::of(&db), &indexes));
    let rebuilt = index_page_writes(&db);
    check_explain(&db, &model, Kind::Skyline, &[(0, 3)]);
    sql::execute(&db, &text).unwrap();
    // One fresh set inside `check_explain`, none for the database.
    assert_eq!(index_page_writes(&db) - rebuilt, one_index_build(&rows_of(&model)));

    // The snapshot: same catalog, same indexes, same answer and plan.
    assert!(Arc::ptr_eq(&snap.planner(), &planner));
    assert!(Arc::ptr_eq(&BooleanIndexSet::of(&snap), &indexes));
    let again = sql::execute(&snap, &text).unwrap();
    assert_eq!(points_of(&again.rows), points_of(&first.rows));
    assert_eq!(plan_of(&again.stats), plan_of(&first.stats));
    check_explain(&snap, &snap_model, Kind::TopK(4), &[(1, 9)]);

    // A delete drops the master's derived data as well.
    let planner = db.planner();
    assert!(db.delete(tid));
    assert!(!Arc::ptr_eq(&db.planner(), &planner));
}

fn rows_of(model: &Model) -> Vec<Row> {
    assert!(model.rows.iter().all(|(_, live)| *live), "only for models without deletes");
    model.rows.iter().map(|(row, _)| row.clone()).collect()
}

/// (c), durable: a commit drops the master's derived data, and the epoch
/// it publishes carries the new version's; `repair()` and `checkpoint()`
/// touch no row and drop nothing. Recovery rebuilds the live set.
#[test]
fn durable_commits_drop_derived_data_and_repair_and_checkpoint_do_not() {
    let mut relation = Relation::new(schema());
    for r in grid_rows(1500, 5) {
        relation.push_coded(&r.codes, &r.coords);
    }
    let mut durable =
        DurableDb::create(relation, &PCubeConfig::default(), DurabilityOptions::default());
    let text = statement(Kind::Skyline, &[(0, 1)]);
    sql::execute(durable.db(), &text).unwrap();
    let (planner, indexes) = (durable.db().planner(), BooleanIndexSet::of(durable.db()));
    let pinned = durable.snapshot();
    assert!(Arc::ptr_eq(&pinned.db().planner(), &planner), "the published epoch shares it");

    durable.repair().expect("repair");
    durable.checkpoint().expect("checkpoint");
    assert!(Arc::ptr_eq(&durable.db().planner(), &planner), "repair and checkpoint keep it");
    assert!(Arc::ptr_eq(&BooleanIndexSet::of(durable.db()), &indexes));

    let victim = sql::execute(durable.db(), &text).unwrap().rows[0].tid;
    durable
        .apply(&[
            MaintenanceOp::Delete { tid: victim },
            MaintenanceOp::Insert { codes: vec![1, 1], coords: vec![0.5, 0.5, 0.5] },
        ])
        .expect("commit");
    assert!(!Arc::ptr_eq(&durable.db().planner(), &planner), "a commit drops it");
    assert!(!Arc::ptr_eq(&BooleanIndexSet::of(durable.db()), &indexes));
    assert!(
        Arc::ptr_eq(&durable.snapshot().db().planner(), &durable.db().planner()),
        "the new epoch carries the new version's catalog"
    );
    // The epoch pinned before the commit still holds the old version's.
    assert!(Arc::ptr_eq(&pinned.db().planner(), &planner));
    assert!(points_of(&sql::execute(pinned.db(), &text).unwrap().rows).iter().any(|p| p.0 == victim));

    let answer = sql::execute(durable.db(), &text).unwrap();
    assert!(points_of(&answer.rows).iter().all(|p| p.0 != victim));
    assert_eq!(durable.live_tuples(), 1500);

    // Crash and recover from the checkpoint image plus the WAL tail: the
    // image stores the tombstone's row, the recovered live set must not.
    let (recovered, _) =
        DurableDb::open_or_recover_from_state(&durable.durable_state(), DurabilityOptions::default())
            .expect("recovers");
    assert_eq!(recovered.live_tuples(), 1500);
    assert!(!recovered.db().relation().is_live(victim));
    let class = SkylineClass::new((0..N_PREF).collect());
    let sel = selection(&[(0, 1)]);
    let (scan, _) = recovered.db().run_class_on(&class, &sel, EngineKind::BooleanFirst).unwrap();
    let (pcube, _) = recovered.db().run_class_on(&class, &sel, EngineKind::PCube).unwrap();
    assert_eq!(scan, pcube);
    assert_eq!(points_of(&sql::execute(recovered.db(), &text).unwrap().rows), points_of(&answer.rows));
}

/// (d) Eight threads issue the same `EXPLAIN` on a cold database at once:
/// one of them builds, the others wait for it — one index build's worth of
/// page writes in total, and one answer.
#[test]
fn concurrent_first_use_builds_once() {
    let rows = grid_rows_with_a_rare_value(3000, 6);
    let (db, _) = world(&rows);
    let text = statement(Kind::TopK(5), &[(0, 9)]);
    let cold = index_page_writes(&db);
    let barrier = Barrier::new(8);
    let answers: Vec<(Vec<Point>, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let out = sql::execute(&db, &text).expect("runs");
                    (points_of(&out.rows), plan_of(&out.stats))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no thread panicked")).collect()
    });
    assert_eq!(index_page_writes(&db) - cold, one_index_build(&rows));
    assert!(answers.iter().all(|a| a == &answers[0]));
    assert!(!answers[0].0.is_empty());
}

/// A snapshot shares the catalog its master had built when it was taken,
/// and nothing built later: one taken before the master's first
/// `planner()` builds its own, one taken after shares the master's and
/// keeps it across a master insert.
#[test]
fn a_snapshot_shares_the_catalog_built_before_it_and_no_later_one() {
    let rows = grid_rows(800, 4);
    let (mut db, _) = world(&rows);
    let early = db.clone_snapshot();
    let planner = db.planner();
    let own = early.planner();
    assert!(!Arc::ptr_eq(&own, &planner), "a snapshot taken before the build builds its own");
    assert!(Arc::ptr_eq(&early.planner(), &own), "and keeps it");
    for value in 0..4 {
        assert_eq!(own.value_count(0, value), planner.value_count(0, value));
    }

    let late = db.clone_snapshot();
    assert!(Arc::ptr_eq(&late.planner(), &planner), "a snapshot taken after shares it");
    db.insert_coded(&[0, 0], &[0.5, 0.5, 0.5]);
    assert!(!Arc::ptr_eq(&db.planner(), &planner), "the insert dropped the master's");
    assert!(Arc::ptr_eq(&late.planner(), &planner), "the snapshot keeps the one it shared");
    assert_eq!(db.planner().value_count(0, 0), planner.value_count(0, 0) + 1);
}
