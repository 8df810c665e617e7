//! The one file of the benchmark that names program APIs.
//!
//! Everything else in `benchmark/` sees the program only through the types
//! and functions below, so that a refactor of the program's surface is one
//! edit here. Only surfaces ROADMAP.md keeps are used: SQL text through
//! `SqlSession::run`; `PCubeDb::{build, run, par_run, insert_coded, delete,
//! scrub, save_to_bytes, load_from_bytes}`; `Planner::{new, choose_class}`
//! with `PCubeDb::{plan_and_run_class, run_class_on}`; `DurableDb` and
//! `CommitQueue`; and the substrate crates' public types. None of the
//! per-class wrappers ROADMAP item 2 deletes (`topk_query`, `db.skyline`,
//! `par_*_query`, `plan_and_run_topk`, …) is called.
//!
//! Nothing here keeps time: callers time these calls from outside.

use std::hint::black_box;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::Duration;

use crate::gen::Rng;
use pcube::sql::{parse_statement, SessionReply, SqlSession};
use pcube_baselines::{index_merge_topk, BooleanIndexSet, SelectRoute};
use pcube_bitmap::{
    decode, AdaptiveCodec, BitArray, BloomFilter, Codec, LiteralCodec, RleCodec, WahCodec,
};
use pcube_bptree::{composite_key, BPlusTree};
use pcube_core::{
    AdmissionGate, CommitQueue, CommitQueuePolicy, DurabilityOptions, DurableDb,
    DynamicSkylineClass, EngineKind, EpochReader, EpochSnapshot, HullClass, LinearFn,
    MaintenanceOp, PCube, PCubeConfig, PCubeDb, PSkylineClass, ParallelOptions, Planner,
    PriorityGraph, QueryBudget, QueryClass, QueryStats, Signature, SkylineClass,
    SubspaceSkylineClass, TopKClass,
};
use pcube_cube::{CellKey, MaterializationPlan, Predicate, Relation, Selection};
use pcube_data::{covertype_surrogate, synthetic, Distribution, SyntheticSpec};
use pcube_rtree::{Path, RTree, RTreeConfig, Sid};
use pcube_storage::{
    crc32, CostModel, IoCategory, IoStats, PageId, Pager, ShardedBufferPool, TreeOp, Wal,
    WalRecord, PAGE_SIZE,
};

// ------------------------------------------------------------------ handles --

/// A base table before it is indexed.
pub type Table = Relation;
/// A built P-Cube database (also what a snapshot or a durable master derefs to).
pub type Db = PCubeDb;
/// The boolean-dimension B+-tree indexes of the baseline engines.
pub type Indexes = BooleanIndexSet;
/// The planner's catalog statistics.
pub type Catalog = Planner;
/// A database under WAL + checkpoint maintenance.
pub type Durable = DurableDb;
/// A handle reader threads pin epochs with.
pub type Reader = EpochReader;
/// One pinned epoch.
pub type Snapshot = Arc<EpochSnapshot>;
/// A group-commit queue that owns a [`Durable`].
pub type Queue = CommitQueue;

// --------------------------------------------------------------------- data --

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    Uniform,
    AntiCorrelated,
}

/// The paper's §VI-B.1 synthetic relation: `Db = Dp = 3`, `C = 100`.
pub fn synthetic_table(rows: usize, dist: Dist, seed: u64) -> Table {
    synthetic(&SyntheticSpec {
        n_tuples: rows,
        n_bool: 3,
        n_pref: 3,
        cardinality: 100,
        distribution: match dist {
            Dist::Uniform => Distribution::Uniform,
            Dist::AntiCorrelated => Distribution::AntiCorrelated,
        },
        seed,
    })
}

/// The CoverType surrogate: 12 boolean dimensions (cardinalities 255 … 2,
/// Zipf-skewed), 3 preference dimensions.
pub fn covertype_table(rows: usize, seed: u64) -> Table {
    covertype_surrogate(rows, seed)
}

/// The first `rows` rows of `table` as a table of their own.
pub fn table_prefix(table: &Table, rows: usize) -> Table {
    let mut out = Relation::new(table.schema().clone());
    let n_bool = table.schema().n_bool();
    for tid in 0..rows.min(table.len()) as u64 {
        let codes: Vec<u32> = (0..n_bool).map(|d| table.bool_code(tid, d)).collect();
        out.push_coded(&codes, &table.pref_coords(tid));
    }
    out
}

pub fn table_rows(table: &Table) -> usize {
    table.len()
}

pub fn n_bool(table: &Table) -> usize {
    table.schema().n_bool()
}

pub fn n_pref(table: &Table) -> usize {
    table.schema().n_pref()
}

pub fn bool_name(table: &Table, dim: usize) -> &str {
    table.schema().bool_name(dim)
}

pub fn pref_name(table: &Table, dim: usize) -> &str {
    table.schema().pref_name(dim)
}

pub fn bool_code(table: &Table, tid: u64, dim: usize) -> u32 {
    table.bool_code(tid, dim)
}

pub fn coords(table: &Table, tid: u64) -> Vec<f64> {
    table.pref_coords(tid)
}

/// Bytes one tuple occupies in the heap file: the "user bytes" of a row.
pub fn tuple_bytes(table: &Table) -> usize {
    table.tuple_bytes()
}

/// Builds the R-tree partition and the signature cube with the default
/// configuration, and states the latency policy: no injected read delay.
pub fn build(table: Table) -> Db {
    let mut db = PCubeDb::build(table, &PCubeConfig::default());
    db.set_wall_read_latency(None);
    db
}

pub fn table_of(db: &Db) -> &Table {
    db.relation()
}

pub fn build_indexes(db: &Db) -> Indexes {
    BooleanIndexSet::build(db.relation(), PAGE_SIZE, db.stats().clone())
}

pub fn catalog(db: &Db) -> Catalog {
    Planner::new(db)
}

/// Bytes of the R-tree pages plus the materialised signature cube.
pub fn stored_bytes(db: &Db) -> u64 {
    db.rtree().pager().size_bytes() + db.pcube().size_bytes()
}

pub fn index_bytes(indexes: &Indexes) -> u64 {
    indexes.size_bytes()
}

/// Block reads charged to the database's ledger so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// Σ over all five `IoCategory`s — the paper's currency.
    pub total: u64,
    pub rtree: u64,
    pub sig_pages: u64,
    pub bptree: u64,
}

impl Io {
    /// Reads charged since `earlier`.
    pub fn since(&self, earlier: &Io) -> Io {
        Io {
            total: self.total - earlier.total,
            rtree: self.rtree - earlier.rtree,
            sig_pages: self.sig_pages - earlier.sig_pages,
            bptree: self.bptree - earlier.bptree,
        }
    }
}

pub fn io(db: &Db) -> Io {
    let s = db.stats().snapshot();
    Io {
        total: s.total_reads(),
        rtree: s.reads(IoCategory::RtreeBlock),
        sig_pages: s.reads(IoCategory::SignaturePage),
        bptree: s.reads(IoCategory::BptreePage),
    }
}

// ------------------------------------------------------------------ queries --

/// A preference-query class with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Class {
    TopK {
        k: usize,
        weights: Vec<f64>,
    },
    Skyline {
        dims: Vec<usize>,
    },
    Subspace {
        dims: Vec<usize>,
    },
    PSkyline {
        dims: Vec<usize>,
        edges: Vec<(usize, usize)>,
    },
    Dynamic {
        point: Vec<f64>,
        dims: Vec<usize>,
    },
    Hull {
        dims: (usize, usize),
    },
}

/// One preference query: a class under a conjunction of `(dim, value)`
/// equality predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub class: Class,
    pub preds: Vec<(usize, u32)>,
}

/// One answer row in a class-independent shape (`score` is 0 outside top-k).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub tid: u64,
    pub coords: Vec<f64>,
    pub score: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    PCube,
    BooleanFirst,
    DominationFirst,
    IndexMerge,
}

impl Engine {
    fn kind(self) -> EngineKind {
        match self {
            Engine::PCube => EngineKind::PCube,
            Engine::BooleanFirst => EngineKind::BooleanFirst,
            Engine::DominationFirst => EngineKind::DominationFirst,
            Engine::IndexMerge => EngineKind::IndexMerge,
        }
    }

    fn of(kind: EngineKind) -> Engine {
        match kind {
            EngineKind::PCube => Engine::PCube,
            EngineKind::BooleanFirst => Engine::BooleanFirst,
            EngineKind::DominationFirst => Engine::DominationFirst,
            EngineKind::IndexMerge => Engine::IndexMerge,
        }
    }
}

/// What the planner decided for one query.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub chosen: Engine,
    /// The chosen engine's estimated block accesses.
    pub est_blocks: f64,
}

/// An answer plus the execution metrics the engine returned with it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub rows: Vec<Row>,
    /// Wall time the engine measured for itself, in seconds.
    pub engine_s: f64,
    /// `[pin, page_read, score, merge]` seconds, as the engine split them.
    pub stages: [f64; 4],
    pub nodes_expanded: u64,
    pub partials_loaded: u64,
    pub peak_heap: usize,
    /// Block reads the engine attributed to this query (a ledger delta, so
    /// only meaningful when nothing else runs on the database).
    pub blocks: u64,
    pub sig_pages: u64,
    pub plan: Option<Plan>,
}

impl Reply {
    fn new(rows: Vec<Row>, stats: &QueryStats) -> Reply {
        Reply {
            rows,
            engine_s: stats.cpu_seconds,
            stages: [
                stats.stages.pin_seconds,
                stats.stages.page_read_seconds,
                stats.stages.score_seconds,
                stats.stages.merge_seconds,
            ],
            nodes_expanded: stats.nodes_expanded,
            partials_loaded: stats.partials_loaded,
            peak_heap: stats.peak_heap,
            blocks: stats.io.total_reads(),
            sig_pages: stats.io.reads(IoCategory::SignaturePage),
            plan: stats.plan.as_ref().map(|p| Plan {
                chosen: Engine::of(p.chosen),
                est_blocks: p.chosen_estimate().blocks(),
            }),
        }
    }
}

/// How to run a query.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// `PCubeDb::run`: the serial signature-guided engine.
    Serial,
    /// `PCubeDb::par_run` with this many workers.
    Parallel(usize),
    /// `PCubeDb::plan_and_run_class` with a prebuilt catalog.
    Planned(&'a Catalog),
    /// `PCubeDb::run_class_on`: one engine, no planner.
    On(Engine),
}

trait IntoRow {
    fn into_row(self) -> Row;
}

impl IntoRow for (u64, Vec<f64>, f64) {
    fn into_row(self) -> Row {
        Row {
            tid: self.0,
            coords: self.1,
            score: self.2,
        }
    }
}

impl IntoRow for (u64, Vec<f64>) {
    fn into_row(self) -> Row {
        Row {
            tid: self.0,
            coords: self.1,
            score: 0.0,
        }
    }
}

impl IntoRow for (u64, [f64; 2]) {
    fn into_row(self) -> Row {
        Row {
            tid: self.0,
            coords: self.1.to_vec(),
            score: 0.0,
        }
    }
}

fn rows_of<R: IntoRow>(rows: Vec<R>) -> Vec<Row> {
    rows.into_iter().map(IntoRow::into_row).collect()
}

/// Binds `$class` to the concrete `QueryClass` a [`Class`] describes and
/// evaluates `$body` with it. A macro because the classes have different
/// associated types, so no single closure type fits them all.
macro_rules! with_class {
    ($spec:expr, $class:ident => $body:expr) => {
        match $spec {
            Class::TopK { k, weights } => {
                let f = LinearFn::new(weights.clone());
                let $class = TopKClass::new(*k, &f);
                $body
            }
            Class::Skyline { dims } => {
                let $class = SkylineClass::new(dims.clone());
                $body
            }
            Class::Subspace { dims } => {
                let $class = SubspaceSkylineClass::new(dims.clone());
                $body
            }
            Class::PSkyline { dims, edges } => {
                let graph = PriorityGraph::new(dims.clone(), edges)
                    .expect("generated priority graphs are acyclic over listed dimensions");
                let $class = PSkylineClass::new(graph);
                $body
            }
            Class::Dynamic { point, dims } => {
                let $class = DynamicSkylineClass::new(point, dims.clone());
                $body
            }
            Class::Hull { dims } => {
                let $class = HullClass::new(*dims);
                $body
            }
        }
    };
}

fn selection(preds: &[(usize, u32)]) -> Selection {
    preds
        .iter()
        .map(|&(dim, value)| Predicate { dim, value })
        .collect()
}

/// Runs `query` on `db`. `Err` carries the program's own error text.
pub fn run(db: &Db, query: &Query, mode: Mode<'_>) -> Result<Reply, String> {
    let sel = selection(&query.preds);
    with_class!(&query.class, class => {
        match mode {
            Mode::Serial => {
                let out = db.run(&sel, &class);
                Ok(Reply::new(rows_of(out.rows), &out.stats))
            }
            Mode::Parallel(workers) => {
                let out = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
                Ok(Reply::new(rows_of(out.rows), &out.stats))
            }
            Mode::Planned(catalog) => db
                .plan_and_run_class(catalog, &class, &sel, &QueryBudget::unlimited(), None)
                .map(|(rows, stats)| Reply::new(rows_of(rows), &stats))
                .map_err(|e| e.to_string()),
            Mode::On(engine) => db
                .run_class_on(&class, &sel, engine.kind())
                .map(|(rows, stats)| Reply::new(rows_of(rows), &stats))
                .map_err(|e| e.to_string()),
        }
    })
}

/// The class's own reference answer over the rows of `table` that are
/// `live` and satisfy the predicates — filtered here, in memory, without
/// touching any index.
pub fn oracle(table: &Table, query: &Query, live: &dyn Fn(u64) -> bool) -> Vec<Row> {
    let sel = selection(&query.preds);
    let rows: Vec<(u64, Vec<f64>)> = (0..table.len() as u64)
        .filter(|&tid| live(tid) && table.matches(tid, &sel))
        .map(|tid| (tid, table.pref_coords(tid)))
        .collect();
    with_class!(&query.class, class => rows_of(class.oracle(&rows)))
}

/// The planner's choice among the three engines `plan_and_run_class` offers.
pub fn choose(catalog: &Catalog, query: &Query) -> Plan {
    let sel = selection(&query.preds);
    let offered = [
        EngineKind::PCube,
        EngineKind::BooleanFirst,
        EngineKind::DominationFirst,
    ];
    with_class!(&query.class, class => {
        let available: Vec<EngineKind> =
            offered.into_iter().filter(|&k| class.supports(k)).collect();
        let decision = catalog.choose_class(&sel, &class, &available);
        Plan {
            chosen: Engine::of(decision.chosen),
            est_blocks: decision.chosen_estimate().blocks(),
        }
    })
}

/// Boolean-first over the B+-tree indexes: index-route selection, then the
/// class's in-memory preference step. Returns the rows and the block reads.
pub fn boolean_first_indexed(db: &Db, indexes: &Indexes, query: &Query) -> (Vec<Row>, u64) {
    let sel = selection(&query.preds);
    let before = db.stats().snapshot();
    let candidates = indexes.select(db, &sel, &CostModel::default(), SelectRoute::Index);
    let rows = with_class!(&query.class, class => rows_of(class.oracle(&candidates)));
    (rows, db.stats().snapshot().since(&before).total_reads())
}

/// Index-merge (top-k only; `None` for other classes).
pub fn index_merge(db: &Db, indexes: &Indexes, query: &Query) -> Option<Reply> {
    let Class::TopK { k, weights } = &query.class else {
        return None;
    };
    let f = LinearFn::new(weights.clone());
    let (rows, stats) = index_merge_topk(db, indexes, &selection(&query.preds), *k, &f);
    Some(Reply::new(rows_of(rows), &stats))
}

// ---------------------------------------------------------------------- SQL --

/// One SQL connection.
pub struct Session(SqlSession);

pub fn sql_session() -> Session {
    Session(SqlSession::new())
}

/// Runs one SQL statement through `SqlSession::run`.
pub fn sql_run(session: &mut Session, db: &Db, text: &str) -> Result<Reply, String> {
    match session.0.run(db, text) {
        Ok(SessionReply::Rows(out)) => {
            let rows = out
                .rows
                .iter()
                .map(|r| Row {
                    tid: r.tid,
                    coords: r.coords.clone(),
                    score: r.score.unwrap_or(0.0),
                })
                .collect();
            Ok(Reply::new(rows, &out.stats))
        }
        Ok(SessionReply::Ack(ack)) => Err(format!("statement produced no rows: {ack}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Parses one statement without running it.
pub fn sql_parse(text: &str) -> bool {
    black_box(parse_statement(text)).is_ok()
}

// ------------------------------------------------------------------ durable --

/// One maintenance operation of a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    Insert { codes: Vec<u32>, coords: Vec<f64> },
    Delete { tid: u64 },
}

fn maintenance(ops: &[WriteOp]) -> Vec<MaintenanceOp> {
    ops.iter()
        .map(|op| match op {
            WriteOp::Insert { codes, coords } => MaintenanceOp::Insert {
                codes: codes.clone(),
                coords: coords.clone(),
            },
            WriteOp::Delete { tid } => MaintenanceOp::Delete { tid: *tid },
        })
        .collect()
}

/// The flush policy of every durable phase: each commit is fsynced before it
/// is acknowledged, checkpoints are manual, and no delay is simulated.
const FLUSH_POLICY: DurabilityOptions = DurabilityOptions {
    fsync_every: 1,
    checkpoint_every: 0,
    fsync_delay_us: 0,
};

pub fn durable_create(dir: &FsPath, table: Table) -> Result<Durable, String> {
    DurableDb::create_at(dir, table, &PCubeConfig::default(), FLUSH_POLICY)
        .map_err(|e| e.to_string())
}

/// Applies one transaction; `Ok(true)` when it was fsynced before returning.
pub fn durable_apply(db: &mut Durable, ops: &[WriteOp]) -> Result<bool, String> {
    db.apply(&maintenance(ops))
        .map(|receipt| receipt.durable)
        .map_err(|e| e.to_string())
}

pub fn durable_checkpoint(db: &mut Durable) -> Result<(), String> {
    db.checkpoint().map(|_| ()).map_err(|e| e.to_string())
}

pub fn durable_reader(db: &Durable) -> Reader {
    db.reader()
}

pub fn snapshot(reader: &Reader) -> Snapshot {
    reader.snapshot()
}

pub fn snapshot_db(snapshot: &Snapshot) -> &Db {
    snapshot.db()
}

pub fn durable_master(db: &Durable) -> &Db {
    db.db()
}

#[derive(Debug, Clone, Copy, Default)]
pub struct DurableCounts {
    pub applied_txns: u64,
    pub live_tuples: usize,
    /// WAL bytes made durable since the handle was opened (appended, not
    /// what remains after truncation).
    pub wal_bytes_synced: u64,
    pub publishes: u64,
    pub publish_ns: u64,
}

pub fn durable_counts(db: &Durable) -> DurableCounts {
    let (publishes, publish_ns) = db.publish_stats();
    DurableCounts {
        applied_txns: db.applied_txns(),
        live_tuples: db.live_tuples(),
        wal_bytes_synced: db.wal_stats().bytes_synced,
        publishes,
        publish_ns,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub txns_replayed: u64,
    pub txns_dropped: u64,
    pub torn_tail_bytes: u64,
}

/// Re-opens a durable database from the two files in `dir` alone.
pub fn durable_recover(dir: &FsPath) -> Result<(Durable, Recovery), String> {
    DurableDb::open_or_recover(dir, FLUSH_POLICY)
        .map(|(db, report)| {
            let recovery = Recovery {
                txns_replayed: report.txns_replayed,
                txns_dropped: report.txns_dropped,
                torn_tail_bytes: report.torn_tail_bytes,
            };
            (db, recovery)
        })
        .map_err(|e| e.to_string())
}

/// Hands `db` to a group-commit queue (one log-writer thread).
pub fn queue_start(db: Durable) -> Queue {
    CommitQueue::start(db, CommitQueuePolicy::default())
}

pub fn queue_submit(queue: &Queue, ops: &[WriteOp]) -> Result<bool, String> {
    queue
        .submit(maintenance(ops))
        .map(|receipt| receipt.durable)
        .map_err(|e| e.to_string())
}

/// Shuts the queue down; returns the database and committed transactions
/// per fsync (`GroupCommitStats::fsync_amortization`).
pub fn queue_finish(queue: Queue) -> (Durable, f64) {
    let amortization = queue.stats().fsync_amortization();
    (queue.shutdown(), amortization)
}

// ---------------------------------------------------------- whole-db layers --

pub fn save(db: &Db) -> Vec<u8> {
    db.save_to_bytes()
}

pub fn load(image: &[u8]) -> Result<Db, String> {
    PCubeDb::load_from_bytes(image).map_err(|e| e.to_string())
}

/// An unbudgeted scrub pass; returns the pages it scanned, or the findings.
pub fn scrub(db: &Db) -> Result<u64, String> {
    let report = db.scrub(&QueryBudget::unlimited());
    if report.is_clean() {
        Ok(report.pages_scanned)
    } else {
        Err(report.to_string())
    }
}

/// Bare maintenance (no WAL): inserts `rows`, returning the new tids.
pub fn bare_insert(db: &mut Db, rows: &[(Vec<u32>, Vec<f64>)]) -> Vec<u64> {
    rows.iter()
        .map(|(codes, coords)| db.insert_coded(codes, coords))
        .collect()
}

/// Bare maintenance (no WAL): deletes `tids`, returning how many were live.
pub fn bare_delete(db: &mut Db, tids: &[u64]) -> usize {
    tids.iter().filter(|&&tid| db.delete(tid)).count()
}

/// A copy-on-write copy that can be mutated without touching `db`.
pub fn fork(db: &Db) -> Db {
    db.clone_snapshot()
}

// ------------------------------------------------------------- micro probes --

/// A probe is called with `Prepare` (untimed: rebuild whatever the timed
/// part consumes) and then `Run` (timed by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Prepare,
    Run,
}

/// How the caller turns a timed `Run` into the metric's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Nanoseconds per item; `Run` returns the items it processed.
    NsPerItem,
    /// Items per second.
    ItemsPerSecond,
    /// `Run` returns bytes; the value is 10⁶ bytes per second.
    MbPerSecond,
    /// `Run` is executed once; the value is its duration in seconds.
    Seconds,
}

impl Gauge {
    pub fn unit(self) -> &'static str {
        match self {
            Gauge::NsPerItem => "ns",
            Gauge::ItemsPerSecond => "1/s",
            Gauge::MbPerSecond => "MB/s",
            Gauge::Seconds => "s",
        }
    }
}

pub enum ProbeKind<'a> {
    Timed {
        gauge: Gauge,
        op: Box<dyn FnMut(Phase) -> u64 + 'a>,
    },
    /// A count or ratio read from the program's own counters, with its unit.
    Value {
        unit: &'static str,
        eval: Box<dyn FnOnce() -> f64 + 'a>,
    },
}

/// One per-layer measurement: the metric's name and how to take it.
pub struct Probe<'a> {
    pub name: &'static str,
    pub kind: ProbeKind<'a>,
}

fn timed<'a>(name: &'static str, gauge: Gauge, op: impl FnMut(Phase) -> u64 + 'a) -> Probe<'a> {
    Probe {
        name,
        kind: ProbeKind::Timed {
            gauge,
            op: Box::new(op),
        },
    }
}

fn value<'a>(name: &'static str, unit: &'static str, eval: impl FnOnce() -> f64 + 'a) -> Probe<'a> {
    Probe {
        name,
        kind: ProbeKind::Value {
            unit,
            eval: Box::new(eval),
        },
    }
}

fn fresh_pager(category: IoCategory) -> Pager {
    Pager::new(PAGE_SIZE, category, IoStats::new_shared())
}

fn wal_record(i: u64) -> WalRecord {
    WalRecord::TreeSplit {
        txn: i / 4 + 1,
        op: TreeOp::Insert,
        tid: i,
        codes: vec![i as u32 % 100, 7, 42],
        coords: vec![0.25, 0.5, 0.75],
    }
}

/// What several layers' probes share: a capped set of R-tree pages, a
/// spread of tuple paths, and the signatures of a sample of cells.
struct Samples<'a> {
    db: &'a Db,
    pids: Arc<Vec<PageId>>,
    paths: Arc<Vec<(u64, Path)>>,
    cells: Vec<u32>,
    signatures: Arc<Vec<(u32, Signature)>>,
}

impl<'a> Samples<'a> {
    fn of(db: &'a Db) -> Samples<'a> {
        let rtree = db.rtree();
        let store = db.pcube().store();
        // The page set the buffer and pager probes touch: R-tree pages,
        // capped so that one pass stays well under a millisecond.
        let mut pids: Vec<PageId> = rtree.pager().live_page_ids();
        pids.truncate(4096);
        let n_cells = db.pcube().registry().len() as u32;
        let sample_cells: Vec<u32> = {
            let step = (n_cells / 24).max(1);
            (0..n_cells).step_by(step as usize).take(24).collect()
        };
        let signatures: Arc<Vec<(u32, Signature)>> = Arc::new(
            sample_cells
                .iter()
                .map(|&c| (c, store.load_full(c)))
                .collect(),
        );
        // Tuple paths of a spread of live tuples: the keys signatures are probed
        // with. One uncounted R-tree walk.
        let paths: Arc<Vec<(u64, Path)>> = Arc::new({
            let stride = (rtree.len() / 2048).max(1);
            let mut seen = 0u64;
            let mut kept = Vec::new();
            rtree.for_each_tuple(|tid, path, _| {
                if seen.is_multiple_of(stride) {
                    kept.push((tid, path.clone()));
                }
                seen += 1;
            });
            kept
        });
        Samples {
            db,
            pids: Arc::new(pids),
            paths,
            cells: sample_cells,
            signatures,
        }
    }
}

/// Probes of the storage, bitmap, B+-tree, R-tree, cube, signature, store
/// and cube-maintenance layers, taken on the structures of `db` itself.
/// `selections` are predicate sets of the workload's own queries and `sql`
/// the workload's statements (may be empty).
pub fn probes<'a>(
    db: &'a Db,
    selections: &'a [Vec<(usize, u32)>],
    sql: &'a [String],
) -> Vec<Probe<'a>> {
    let s = Samples::of(db);
    let mut out = Vec::new();
    pager_probes(&s, &mut out);
    buffer_probes(&s, &mut out);
    wal_probes(&mut out);
    bitmap_probes(&s, &mut out);
    bptree_probes(&s, &mut out);
    rtree_probes(&s, &mut out);
    cube_probes(&s, &mut out, selections);
    signature_probes(&s, &mut out);
    store_probes(&s, &mut out);
    pcube_probes(&s, &mut out, selections);
    misc_probes(&s, &mut out, sql);
    out
}

fn pager_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>) {
    let rtree = s.db.rtree();
    let pids = &s.pids;
    // --- storage.pager / storage.crc
    {
        let pids = pids.clone();
        out.push(timed(
            "storage.pager.read_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for &pid in pids.iter() {
                        black_box(rtree.pager().read(pid));
                    }
                }
                pids.len() as u64
            },
        ));
    }
    {
        let mut pager = fresh_pager(IoCategory::RtreeBlock);
        let mine: Vec<PageId> = (0..512).map(|_| pager.allocate()).collect();
        let page = vec![0xA5u8; PAGE_SIZE];
        out.push(timed(
            "storage.pager.write_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for &pid in &mine {
                        pager.write(pid, &page);
                    }
                }
                mine.len() as u64
            },
        ));
    }
    {
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
        out.push(timed(
            "storage.crc.mb_per_s",
            Gauge::MbPerSecond,
            move |phase| {
                if phase == Phase::Run {
                    for _ in 0..256 {
                        black_box(crc32(black_box(&page)));
                    }
                }
                256 * PAGE_SIZE as u64
            },
        ));
    }
}

fn buffer_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>) {
    let rtree = s.db.rtree();
    let pids = &s.pids;
    let touched = s.pids.len().max(4);
    // --- storage.buffer, at twice and at a quarter of the touched page set
    {
        let pids_m = pids.clone();
        let mut pool = ShardedBufferPool::new(2 * touched, 8);
        out.push(timed(
            "storage.buffer.miss_ns",
            Gauge::NsPerItem,
            move |phase| {
                match phase {
                    Phase::Prepare => pool = ShardedBufferPool::new(2 * touched, 8),
                    Phase::Run => {
                        for &pid in pids_m.iter() {
                            black_box(pool.try_read(rtree.pager(), pid).expect("healthy page"));
                        }
                    }
                }
                pids_m.len() as u64
            },
        ));
        let pids_h = pids.clone();
        let warm = ShardedBufferPool::new(2 * touched, 8);
        for &pid in pids_h.iter() {
            warm.try_read(rtree.pager(), pid).expect("healthy page");
        }
        out.push(timed(
            "storage.buffer.hit_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for &pid in pids_h.iter() {
                        black_box(warm.try_read(rtree.pager(), pid).expect("healthy page"));
                    }
                }
                pids_h.len() as u64
            },
        ));
    }
    for (capacity, hit_rate, locks, read_ns) in [
        (
            2 * touched,
            "storage.buffer.hit_rate_2x",
            "storage.buffer.locks_per_read_2x",
            None,
        ),
        (
            (touched / 4).max(1),
            "storage.buffer.hit_rate_quarter",
            "storage.buffer.locks_per_read_quarter",
            Some("storage.buffer.read_ns_quarter"),
        ),
    ] {
        // A fixed pseudo-random trace over the touched set, four visits a
        // page on average; the pool is warmed with one sequential pass.
        let mut rng = Rng::new(0xB0FF, 0);
        let trace: Arc<Vec<PageId>> = Arc::new(
            (0..4 * touched)
                .map(|_| pids[rng.below(pids.len() as u64) as usize])
                .collect(),
        );
        let pool = Arc::new(ShardedBufferPool::new(capacity, 8));
        for &pid in pids.iter() {
            pool.try_read(rtree.pager(), pid).expect("healthy page");
        }
        let replay = {
            let (pool, trace) = (pool.clone(), trace.clone());
            move || {
                for &pid in trace.iter() {
                    black_box(pool.try_read(rtree.pager(), pid).expect("healthy page"));
                }
            }
        };
        if let Some(name) = read_ns {
            let (replay, n) = (replay.clone(), trace.len() as u64);
            out.push(timed(name, Gauge::NsPerItem, move |phase| {
                if phase == Phase::Run {
                    replay();
                }
                n
            }));
        }
        let (pool_r, replay_r) = (pool.clone(), replay.clone());
        out.push(value(hit_rate, "ratio", move || {
            let (h0, m0) = (pool_r.hits(), pool_r.misses());
            replay_r();
            let (h, m) = (pool_r.hits() - h0, pool_r.misses() - m0);
            h as f64 / (h + m).max(1) as f64
        }));
        let n = trace.len();
        out.push(value(locks, "count", move || {
            let l0 = pool.lock_acquisitions();
            replay();
            (pool.lock_acquisitions() - l0) as f64 / n as f64
        }));
    }
}

fn wal_probes(out: &mut Vec<Probe<'_>>) {
    // --- storage.wal (the in-memory log; the durable probes below pay the
    // real fsync)
    {
        let mut wal = Wal::new();
        out.push(timed(
            "storage.wal.append_ns",
            Gauge::NsPerItem,
            move |phase| {
                match phase {
                    Phase::Prepare => wal = Wal::new(),
                    Phase::Run => {
                        for i in 0..1024 {
                            black_box(wal.append(&wal_record(i)));
                        }
                    }
                }
                1024
            },
        ));
        let mut wals: Vec<Wal> = Vec::new();
        out.push(timed(
            "storage.wal.sync_ns",
            Gauge::NsPerItem,
            move |phase| {
                match phase {
                    Phase::Prepare => {
                        wals = (0..256)
                            .map(|w| {
                                let mut wal = Wal::new();
                                for i in 0..8 {
                                    wal.append(&wal_record(w * 8 + i));
                                }
                                wal
                            })
                            .collect();
                    }
                    Phase::Run => {
                        for wal in &mut wals {
                            black_box(wal.sync().expect("no fault plan is armed"));
                        }
                    }
                }
                256
            },
        ));
        let mut log = Wal::new();
        for i in 0..2048 {
            log.append(&wal_record(i));
        }
        log.sync().expect("no fault plan is armed");
        let bytes = log.durable_bytes().to_vec();
        out.push(timed(
            "storage.wal.replay_ns_per_record",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    black_box(Wal::replay(&bytes).records.len());
                }
                2048
            },
        ));
    }
}

fn bitmap_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>) {
    let store = s.db.pcube().store();
    let (_, _, m_max, _) = store.parts_ref();
    let paths = &s.paths;
    let signatures = &s.signatures;
    // --- bitmap.codec over the real node bit-arrays of the built signatures
    let arrays: Arc<Vec<BitArray>> = Arc::new(
        signatures
            .iter()
            .flat_map(|(_, sig)| sig.iter_nodes().map(|(_, bits)| bits.clone()))
            .take(8192)
            .collect(),
    );
    let codecs: [(&'static str, &'static str, Arc<dyn Codec>); 4] = [
        (
            "bitmap.codec.literal.encode_ns",
            "bitmap.codec.literal.decode_ns",
            Arc::new(LiteralCodec),
        ),
        (
            "bitmap.codec.rle.encode_ns",
            "bitmap.codec.rle.decode_ns",
            Arc::new(RleCodec),
        ),
        (
            "bitmap.codec.wah.encode_ns",
            "bitmap.codec.wah.decode_ns",
            Arc::new(WahCodec),
        ),
        (
            "bitmap.codec.adaptive.encode_ns",
            "bitmap.codec.adaptive.decode_ns",
            Arc::new(AdaptiveCodec),
        ),
    ];
    for (encode_name, decode_name, codec) in codecs {
        let (arrays_e, codec_e) = (arrays.clone(), codec.clone());
        let mut buf = Vec::with_capacity(256);
        out.push(timed(encode_name, Gauge::NsPerItem, move |phase| {
            if phase == Phase::Run {
                for bits in arrays_e.iter() {
                    buf.clear();
                    codec_e.encode_into(bits, &mut buf);
                    black_box(&buf);
                }
            }
            arrays_e.len() as u64
        }));
        let encoded: Vec<Vec<u8>> = arrays.iter().map(|bits| codec.encode(bits)).collect();
        out.push(timed(decode_name, Gauge::NsPerItem, move |phase| {
            if phase == Phase::Run {
                for buf in &encoded {
                    black_box(decode(buf).expect("a codec's own output decodes"));
                }
            }
            encoded.len() as u64
        }));
    }
    {
        let arrays = arrays.clone();
        out.push(value("bitmap.codec.bytes_ratio", "ratio", move || {
            let adaptive: usize = arrays.iter().map(|b| AdaptiveCodec.encode(b).len()).sum();
            let literal: usize = arrays.iter().map(|b| LiteralCodec.encode(b).len()).sum();
            adaptive as f64 / literal.max(1) as f64
        }));
    }

    {
        let mut filter = BloomFilter::with_rate(paths.len().max(1), 0.01);
        let keys: Vec<u64> = paths.iter().map(|(_, p)| p.sid(m_max).0).collect();
        for &k in keys.iter().step_by(2) {
            filter.insert(k);
        }
        out.push(timed(
            "bitmap.bloom.probe_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for &k in &keys {
                        black_box(filter.contains(k));
                    }
                }
                keys.len() as u64
            },
        ));
    }
}

fn bptree_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>) {
    let db = s.db;
    let store = s.db.pcube().store();
    let (_, directory, _, _) = store.parts_ref();
    let sample_cells = &s.cells;
    // --- bptree, on the signature directory
    let dir_keys: Arc<Vec<u64>> = Arc::new({
        let all: Vec<u64> = directory.iter().map(|(k, _)| k).collect();
        let stride = (all.len() / 4096).max(1);
        all.into_iter().step_by(stride).collect()
    });
    {
        let keys = dir_keys.clone();
        out.push(timed("bptree.get_ns", Gauge::NsPerItem, move |phase| {
            if phase == Phase::Run {
                for &k in keys.iter() {
                    black_box(directory.get(k));
                }
            }
            keys.len() as u64
        }));
        let keys = dir_keys.clone();
        out.push(value("bptree.pages_per_get", "count", move || {
            let before = db.stats().reads(IoCategory::BptreePage);
            for &k in keys.iter() {
                black_box(directory.get(k));
            }
            (db.stats().reads(IoCategory::BptreePage) - before) as f64 / keys.len().max(1) as f64
        }));
        let cells = sample_cells.clone();
        out.push(timed(
            "bptree.range_ns_per_key",
            Gauge::NsPerItem,
            move |phase| {
                let mut n = 0u64;
                if phase == Phase::Run {
                    for &c in &cells {
                        n += directory
                            .range(composite_key(c, 0)..=composite_key(c, u32::MAX))
                            .count() as u64;
                    }
                }
                n
            },
        ));
        let mut tree = BPlusTree::new(fresh_pager(IoCategory::BptreePage));
        out.push(timed("bptree.insert_ns", Gauge::NsPerItem, move |phase| {
            match phase {
                Phase::Prepare => tree = BPlusTree::new(fresh_pager(IoCategory::BptreePage)),
                Phase::Run => {
                    let mut rng = Rng::new(0xB7EE, 0);
                    for i in 0..4096u64 {
                        tree.insert(rng.next_u64(), i);
                    }
                }
            }
            4096
        }));
    }
}

fn rtree_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>) {
    let rtree = s.db.rtree();
    let table = s.db.relation();
    let pids = &s.pids;
    // --- rtree
    out.push(timed("rtree.bulk_load_s", Gauge::Seconds, move |phase| {
        if phase == Phase::Run {
            let items: Vec<(u64, Vec<f64>)> = (0..table.len() as u64)
                .map(|t| (t, table.pref_coords(t)))
                .collect();
            let config = RTreeConfig::for_page(table.schema().n_pref(), PAGE_SIZE);
            let fill = PCubeConfig::default().rtree_fill;
            black_box(RTree::bulk_load(
                fresh_pager(IoCategory::RtreeBlock),
                config,
                items,
                fill,
            ));
        }
        1
    }));
    {
        let pids = pids.clone();
        out.push(timed(
            "rtree.read_node_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for &pid in pids.iter() {
                        black_box(rtree.read_node(pid));
                    }
                }
                pids.len() as u64
            },
        ));
        // Inserts re-use the coordinates of existing rows under fresh tids;
        // deletes remove existing rows. Both run on a copy-on-write clone.
        let n_edit = 256.min(table.len()) as u64;
        let mut tree = rtree.clone();
        out.push(timed("rtree.insert_ns", Gauge::NsPerItem, move |phase| {
            match phase {
                Phase::Prepare => tree = rtree.clone(),
                Phase::Run => {
                    let base = table.len() as u64;
                    for i in 0..n_edit {
                        black_box(tree.insert_tracked(base + i, &table.pref_coords(i)));
                    }
                }
            }
            n_edit
        }));
        let mut tree = rtree.clone();
        out.push(timed("rtree.delete_ns", Gauge::NsPerItem, move |phase| {
            match phase {
                Phase::Prepare => tree = rtree.clone(),
                Phase::Run => {
                    for tid in 0..n_edit {
                        black_box(tree.delete_tracked(tid, &table.pref_coords(tid)));
                    }
                }
            }
            n_edit
        }));
    }
}

fn cube_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>, selections: &'a [Vec<(usize, u32)>]) {
    let table = s.db.relation();
    // --- cube: the boolean-first scan route
    {
        let sel = selection(selections.first().map_or(&[][..], Vec::as_slice));
        out.push(timed(
            "cube.scan_ns_per_tuple",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    black_box(table.scan(&sel).count());
                }
                table.len() as u64
            },
        ));
    }
}

fn signature_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>) {
    let rtree = s.db.rtree();
    let table = s.db.relation();
    let store = s.db.pcube().store();
    let (_, _, _, height) = store.parts_ref();
    let paths = &s.paths;
    let signatures = &s.signatures;
    // --- core.signature
    out.push(timed(
        "core.signature.build_s",
        Gauge::Seconds,
        move |phase| {
            if phase == Phase::Run {
                black_box(PCube::build(
                    table,
                    rtree,
                    &MaterializationPlan::Atomic,
                    PAGE_SIZE,
                    IoStats::new_shared(),
                ));
            }
            1
        },
    ));
    {
        let sigs = signatures.clone();
        out.push(timed(
            "core.signature.union_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for pair in sigs.windows(2) {
                        black_box(pair[0].1.union(&pair[1].1));
                    }
                }
                sigs.len().saturating_sub(1) as u64
            },
        ));
        let sigs = signatures.clone();
        out.push(timed(
            "core.signature.intersect_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for pair in sigs.windows(2) {
                        black_box(pair[0].1.intersect(&pair[1].1, height));
                    }
                }
                sigs.len().saturating_sub(1) as u64
            },
        ));
        let (sigs, paths_c) = (signatures.clone(), paths.clone());
        out.push(timed(
            "core.signature.contains_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for (_, sig) in sigs.iter().take(4) {
                        for (_, path) in paths_c.iter() {
                            black_box(sig.contains(path));
                        }
                    }
                }
                (sigs.len().min(4) * paths_c.len()) as u64
            },
        ));
    }
}

fn store_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>) {
    let db = s.db;
    let table = s.db.relation();
    let store = s.db.pcube().store();
    let paths = &s.paths;
    let sample_cells = &s.cells;
    let signatures = &s.signatures;
    // --- core.store
    {
        let refs: Vec<(u32, Sid)> = sample_cells
            .iter()
            .flat_map(|&c| store.partial_refs(c).into_iter().map(move |sid| (c, sid)))
            .take(4096)
            .collect();
        out.push(timed(
            "core.store.load_partial_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for &(cell, sid) in &refs {
                        black_box(store.load_partial(cell, sid));
                    }
                }
                refs.len() as u64
            },
        ));
        let (cells, paths_c) = (sample_cells.clone(), paths.clone());
        out.push(timed(
            "core.store.cursor_contains_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for &cell in cells.iter().take(8) {
                        let mut cursor = store.cursor(cell);
                        for (_, path) in paths_c.iter() {
                            black_box(cursor.contains(path));
                        }
                    }
                }
                (cells.len().min(8) * paths_c.len()) as u64
            },
        ));
        let sigs = signatures.clone();
        let mut scratch = store.clone();
        out.push(timed(
            "core.store.write_signature_ns",
            Gauge::NsPerItem,
            move |phase| {
                match phase {
                    Phase::Prepare => scratch = store.clone(),
                    Phase::Run => {
                        for (cell, sig) in sigs.iter() {
                            scratch.write_signature(*cell, sig);
                        }
                    }
                }
                sigs.len() as u64
            },
        ));
        // Set the path of a tuple in the signature of a cell it does not
        // belong to (its dimension-0 value plus one): a real 0 → 1 flip.
        let registry = db.pcube().registry();
        let card = (0..table.len().min(4096) as u64)
            .map(|t| table.bool_code(t, 0))
            .max()
            .unwrap_or(0)
            + 1;
        let edits: Vec<(u32, Path)> = paths
            .iter()
            .take(512)
            .filter_map(|(tid, path)| {
                let other = (table.bool_code(*tid, 0) + 1) % card;
                registry
                    .code(&CellKey::atomic(0, other))
                    .map(|cell| (cell, path.clone()))
            })
            .collect();
        let mut scratch = store.clone();
        out.push(timed(
            "core.store.apply_sets_ns",
            Gauge::NsPerItem,
            move |phase| {
                match phase {
                    Phase::Prepare => scratch = store.clone(),
                    Phase::Run => {
                        for (cell, path) in &edits {
                            black_box(
                                scratch.apply_sets_in_place(*cell, std::slice::from_ref(path)),
                            );
                        }
                    }
                }
                edits.len() as u64
            },
        ));
    }
}

fn pcube_probes<'a>(
    s: &Samples<'a>,
    out: &mut Vec<Probe<'a>>,
    selections: &'a [Vec<(usize, u32)>],
) {
    let db = s.db;
    let table = s.db.relation();
    let paths = &s.paths;
    // --- core.pcube: probe assembly (lazy and eager), then bare maintenance
    for (name, eager) in [
        ("core.pcube.probe_lazy_ns", false),
        ("core.pcube.probe_eager_ns", true),
    ] {
        let sels: Vec<Selection> = selections.iter().take(32).map(|p| selection(p)).collect();
        let paths_c = paths.clone();
        out.push(timed(name, Gauge::NsPerItem, move |phase| {
            if phase == Phase::Run {
                for sel in &sels {
                    let mut probe = db.pcube().probe(sel, eager);
                    for (_, path) in paths_c.iter().take(32) {
                        black_box(probe.contains(path));
                    }
                }
            }
            sels.len() as u64
        }));
    }
    {
        let n_edit = 64.min(table.len()) as u64;
        let rows: Vec<(Vec<u32>, Vec<f64>)> = (0..n_edit)
            .map(|t| {
                let codes = (0..table.schema().n_bool())
                    .map(|d| table.bool_code(t, d))
                    .collect();
                (codes, table.pref_coords(t))
            })
            .collect();
        let mut scratch = fork(db);
        out.push(timed(
            "core.pcube.insert_ns",
            Gauge::NsPerItem,
            move |phase| {
                match phase {
                    Phase::Prepare => scratch = fork(db),
                    Phase::Run => {
                        black_box(bare_insert(&mut scratch, &rows));
                    }
                }
                n_edit
            },
        ));
        let tids: Vec<u64> = (0..n_edit).collect();
        let mut scratch = fork(db);
        out.push(timed(
            "core.pcube.delete_ns",
            Gauge::NsPerItem,
            move |phase| {
                match phase {
                    Phase::Prepare => scratch = fork(db),
                    Phase::Run => {
                        black_box(bare_delete(&mut scratch, &tids));
                    }
                }
                n_edit
            },
        ));
    }
}

fn misc_probes<'a>(s: &Samples<'a>, out: &mut Vec<Probe<'a>>, sql: &'a [String]) {
    let db = s.db;
    // --- core.plan (catalog construction), sql.parse, admission, data
    out.push(timed("core.plan.new_ns", Gauge::NsPerItem, move |phase| {
        if phase == Phase::Run {
            black_box(Planner::new(db));
        }
        1
    }));
    out.push(timed("sql.parse_ns", Gauge::NsPerItem, move |phase| {
        if phase == Phase::Run {
            for text in sql {
                black_box(sql_parse(text));
            }
        }
        sql.len() as u64
    }));
    {
        let gate = AdmissionGate::new(4, Duration::from_millis(1));
        out.push(timed(
            "core.admission.admit_ns",
            Gauge::NsPerItem,
            move |phase| {
                if phase == Phase::Run {
                    for _ in 0..1024 {
                        black_box(
                            gate.admit()
                                .expect("a single caller never fills four slots"),
                        );
                    }
                }
                1024
            },
        ));
    }
    out.push(timed(
        "data.synthetic_rows_per_s",
        Gauge::ItemsPerSecond,
        move |phase| {
            if phase == Phase::Run {
                black_box(synthetic_table(20_000, Dist::Uniform, 1));
            }
            20_000
        },
    ));
}
