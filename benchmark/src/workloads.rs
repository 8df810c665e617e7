//! The four workloads: what each builds, sends, checks and reports.
//!
//! All loops are closed (a client sends its next request when the previous
//! one has returned) and all load comes from this one process: one client on
//! the query workloads (`broad_preference` adds the engine's second worker),
//! a writer and a reader on `write_mix`.
//!
//! * `selective_probe`, `broad_preference` and `planned_sql` repeat a fixed,
//!   seeded list of requests in whole rounds until `--seconds` have passed,
//!   so per-query counts are the same whatever the round count.
//! * `write_mix` applies a transaction count that is a fixed function of
//!   `--seconds`, so byte counts repeat exactly for one seed.
//!
//! Correctness is checked outside the timed phases; any mismatch counts as
//! a failed operation.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::adapter::{self, Catalog, Class, Db, Dist, Io, Mode, Query, Reply, Row, Table, WriteOp};
use crate::gen::{self, Rng};
use crate::layers;
use crate::metrics::Metrics;
use crate::stats;
use crate::trace::{Recorder, TraceLog};
use crate::yardstick::{self, Yardstick};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the recorded numbers are taken at.
    Full,
    /// Small tables and short lists: seconds per workload, for tests.
    Smoke,
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where span files and the durable store's temporary directory go.
    pub out_dir: PathBuf,
}

#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// A hash of every generated input, to tell seeds apart.
    pub input_digest: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

/// Counts attempted and failed operations; keeps the first few failure texts.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts every request of a timed phase, and its failures.
    fn count_phase(&mut self, phase: &Phase) {
        self.attempted += phase.completed + phase.failures.len() as u64;
        for f in &phase.failures {
            self.fail(f.clone());
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Sizes of one workload at one scale.
struct Sizing {
    rows: usize,
    /// Requests per round (query workloads) or reader queries (`write_mix`).
    requests: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    setups: usize,
}

fn sizing(workload: &str, scale: Scale, trace: bool) -> Sizing {
    let (rows, requests) = match (workload, scale) {
        // Not 200k: there a cell's signature (2,000 tuples) is about one page
        // long, and seeds split into two modes (315 or 340 blocks a query)
        // by whether it spills into a second partial.
        ("selective_probe", Scale::Full) => (160_000, 600),
        ("broad_preference", Scale::Full) => (200_000, 100),
        ("planned_sql", Scale::Full) => (60_000, 96),
        ("write_mix", Scale::Full) => (100_000, 300),
        ("selective_probe", Scale::Smoke) => (20_000, 60),
        ("broad_preference", Scale::Smoke) => (20_000, 50),
        ("planned_sql", Scale::Smoke) => (8_000, 48),
        (_, Scale::Smoke) => (10_000, 48),
        (other, _) => unreachable!("sizing of unknown workload {other}"),
    };
    let setups = if scale == Scale::Full && !trace { 3 } else { 1 };
    Sizing {
        rows,
        requests,
        setups,
    }
}

/// `write_mix` transactions per second of `--seconds`: sized so that the
/// writer takes about three quarters of `--seconds` on the sandbox this was
/// tuned on when the host is quiet, and no longer than `--seconds` when it
/// runs at two thirds of its speed. A fixed count, not a time limit: the
/// byte counts then repeat exactly for one seed.
const TXNS_PER_SECOND: f64 = 60.0;
/// The reader pins a fresh epoch once per this many queries (a reader
/// "session"). Re-pinning for every query makes runs bimodal on glibc —
/// commit p50 8.7 ms or 35 ms, from run to run — because the reader then
/// often frees the writer's copy-on-write pages (see README.md).
const SNAPSHOT_EVERY: usize = 16;
/// Share of the transactions applied before the one mid-run checkpoint.
const CHECKPOINT_AT: f64 = 0.75;
/// Queries checked against the class's own reference answer, per workload.
const ORACLE_SAMPLES: usize = 32;
/// Largest table on which an unfiltered request is given to the reference.
pub(crate) const NAIVE_ROWS_MAX: usize = 50_000;

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "selective_probe" | "broad_preference" | "planned_sql" => run_query_workload(cfg),
        "write_mix" => run_write_mix(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

// ------------------------------------------------------------ shared pieces --

/// Peak resident set of this process in MB (`VmHWM`); the pipeline runs one
/// OS process per workload, so this is the workload's peak.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn hash_bytes(state: &mut u64, bytes: &[u8]) {
    // FNV-1a: a digest of the inputs, not a checksum anyone attacks.
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_table(state: &mut u64, table: &Table) {
    let rows = adapter::table_rows(table) as u64;
    for tid in (0..rows).step_by((rows / 512).max(1) as usize) {
        for d in 0..adapter::n_bool(table) {
            hash_bytes(state, &adapter::bool_code(table, tid, d).to_le_bytes());
        }
        for c in adapter::coords(table, tid) {
            hash_bytes(state, &c.to_le_bytes());
        }
    }
}

fn describe(rows: &[Row]) -> String {
    let tids: Vec<u64> = rows.iter().take(6).map(|r| r.tid).collect();
    format!("{} rows, first tids {tids:?}", rows.len())
}

/// One request of a query workload.
pub struct Item {
    pub query: Query,
    /// The statement sent instead of the query when the entry is SQL.
    pub sql: Option<String>,
}

/// The route a workload's requests take into the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `PCubeDb::run`.
    Serial,
    /// `PCubeDb::par_run` with two workers.
    Parallel,
    /// SQL text through `SqlSession::run`.
    Sql,
}

/// Sums of what the engines returned over one phase.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub stages: [f64; 4],
    pub engine_s: f64,
    pub nodes_expanded: u64,
    pub partials_loaded: u64,
    pub peak_heap: usize,
}

impl Agg {
    fn add(&mut self, reply: &Reply) {
        self.merge(&Agg {
            stages: reply.stages,
            engine_s: reply.engine_s,
            nodes_expanded: reply.nodes_expanded,
            partials_loaded: reply.partials_loaded,
            peak_heap: reply.peak_heap,
        });
    }

    fn merge(&mut self, other: &Agg) {
        for (sum, s) in self.stages.iter_mut().zip(other.stages) {
            *sum += s;
        }
        self.engine_s += other.engine_s;
        self.nodes_expanded += other.nodes_expanded;
        self.partials_loaded += other.partials_loaded;
        self.peak_heap = self.peak_heap.max(other.peak_heap);
    }
}

/// One pass over the request list.
pub struct Round {
    pub wall_s: f64,
    /// Requests of the round that were answered.
    pub completed: usize,
}

/// What one timed phase of whole rounds produced.
pub struct Phase {
    pub rounds: Vec<Round>,
    /// Client-side latencies in ms of each request of the list, one per
    /// round that answered it.
    pub lat_ms: Vec<Vec<f64>>,
    /// Seconds each slice of the yardstick took: one before every
    /// round and (query workloads) one after the last.
    pub ref_s: Vec<f64>,
    /// Wall time from the first round's start to the last round's end.
    pub wall_s: f64,
    /// Σ over callers of the time they spent sending requests.
    pub busy_s: f64,
    pub completed: u64,
    pub failures: Vec<String>,
    pub agg: Agg,
    /// Ledger reads charged during the phase.
    pub io: Io,
    pub log: TraceLog,
}

impl Phase {
    /// The host's speed during round `k`, from the slices on either side.
    fn round_speed(&self, k: usize) -> f64 {
        let last = self.ref_s.len().saturating_sub(1);
        yardstick::speed(&self.ref_s[k.min(last)..=(k + 1).min(last)])
    }

    /// The host's speed over the whole phase.
    pub fn speed(&self) -> f64 {
        yardstick::speed(&[stats::median(&self.ref_s)])
    }
}

fn send(
    db: &Db,
    item: &Item,
    entry: Entry,
    session: &mut adapter::Session,
) -> Result<Reply, String> {
    match (entry, &item.sql) {
        (Entry::Sql, Some(text)) => adapter::sql_run(session, db, text),
        (Entry::Parallel, _) => adapter::run(db, &item.query, Mode::Parallel(2)),
        _ => adapter::run(db, &item.query, Mode::Serial),
    }
}

/// Lays the child spans of one request out inside its root span, from the
/// durations the program returned (and, for SQL, the statement's parse time
/// measured beforehand). What is left of a SQL request after parse and
/// engine is the planner's share: catalog and index rebuild plus the choice.
fn synthesise(rec: &mut Recorder, root: u32, reply: &Reply, parse_ns: Option<u64>) {
    let (start, end) = (rec.span(root).start_ns, rec.span(root).end_ns);
    let engine_ns = ((reply.engine_s * 1e9) as u64).min(end - start);
    if let Some(parse) = parse_ns {
        let parse = parse.min(end - start - engine_ns);
        rec.synth("sql.parse", root, start, parse);
        rec.synth(
            "core.plan.choose",
            root,
            start + parse,
            end - start - engine_ns - parse,
        );
    }
    let engine = rec.synth("engine.run", root, end - engine_ns, engine_ns);
    let mut at = end - engine_ns;
    for (name, secs) in ["pin", "page_read", "score", "merge"]
        .into_iter()
        .zip(reply.stages)
    {
        let dur = (secs * 1e9) as u64;
        rec.synth(name, engine, at, dur);
        at = (at + dur).min(end);
    }
}

/// Sends one request: times it from the client's side and, when tracing,
/// wraps it in a `request` span with its synthesised children. Returns the
/// reply and the latency in ms.
fn timed_request(
    rec: &mut Option<Recorder>,
    request: u64,
    parse_ns: Option<u64>,
    call: impl FnOnce() -> Result<Reply, String>,
) -> (Result<Reply, String>, f64) {
    let root = rec.as_mut().map(|r| r.open("request", None, request));
    let sent = Instant::now();
    let reply = call();
    let lat_ms = sent.elapsed().as_secs_f64() * 1e3;
    if let (Some(r), Some(root)) = (rec.as_mut(), root) {
        r.close(root);
        if let Ok(reply) = &reply {
            synthesise(r, root, reply, parse_ns);
        }
    }
    (reply, lat_ms)
}

/// Repeats `items` in whole rounds until `seconds` have passed: one
/// closed-loop client, on the calling thread. One, because two busy clients
/// on the two cores of a shared host measure the host: when a neighbour
/// takes a core both clients land on the other one, and latency doubles for
/// as long as that lasts.
pub fn run_rounds(
    db: &Db,
    items: &[Item],
    entry: Entry,
    seconds: f64,
    trace: bool,
    parse_ns: &[u64],
    yardstick: &mut Yardstick,
) -> Phase {
    let before = adapter::io(db);
    let origin = Instant::now();
    let mut session = adapter::sql_session();
    let mut rec = trace.then(|| Recorder::new(origin, 0));
    let mut phase = Phase {
        rounds: Vec::new(),
        lat_ms: vec![Vec::new(); items.len()],
        ref_s: Vec::new(),
        wall_s: 0.0,
        busy_s: 0.0,
        completed: 0,
        failures: Vec::new(),
        agg: Agg::default(),
        io: Io::default(),
        log: TraceLog::default(),
    };
    while phase.wall_s < seconds {
        phase.ref_s.push(yardstick.slice());
        let round_start = origin.elapsed().as_secs_f64();
        let mut completed = 0;
        for (i, item) in items.iter().enumerate() {
            let request = (phase.rounds.len() * items.len() + i) as u64;
            let parse = (entry == Entry::Sql).then(|| parse_ns[i]);
            let (reply, lat) = timed_request(&mut rec, request, parse, || {
                send(db, item, entry, &mut session)
            });
            match reply {
                Ok(reply) => {
                    completed += 1;
                    phase.lat_ms[i].push(lat);
                    phase.agg.add(&reply);
                }
                Err(e) => phase.failures.push(format!("request {i}: {e}")),
            }
        }
        let end = origin.elapsed().as_secs_f64();
        phase.rounds.push(Round {
            wall_s: end - round_start,
            completed,
        });
        phase.completed += completed as u64;
        phase.busy_s += end - round_start;
        phase.wall_s = end;
    }
    phase.ref_s.push(yardstick.slice());
    phase.io = adapter::io(db).since(&before);
    if let Some(rec) = rec {
        phase.log.absorb(rec);
    }
    phase
}

/// The correctness gate of the query workloads, outside any timed phase:
/// for every distinct request the serial answer, the two-worker parallel
/// answer, the planned answer and (where the entry is SQL) the statement's
/// answer must be the same rows; a sample is also checked against the
/// class's own reference answer over an in-memory filter of the table.
/// Doubles as the warm-up pass.
fn gate(db: &Db, catalog: &Catalog, items: &[Item], entry: Entry) -> Tally {
    let table = adapter::table_of(db);
    // The reference answers of the skyline family are quadratic in the rows
    // that qualify, so on a large table only filtered requests are sampled.
    let affordable =
        |item: &Item| !item.query.preds.is_empty() || adapter::table_rows(table) <= NAIVE_ROWS_MAX;
    let eligible: Vec<usize> = (0..items.len())
        .filter(|&i| affordable(&items[i]))
        .collect();
    let stride = (eligible.len() / ORACLE_SAMPLES).max(1);
    let sampled: BTreeSet<usize> = eligible.into_iter().step_by(stride).collect();
    let sampled = &sampled;
    let halves: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|half| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut session = adapter::sql_session();
                    for (i, item) in items.iter().enumerate().skip(half).step_by(2) {
                        let serial = match adapter::run(db, &item.query, Mode::Serial) {
                            Ok(reply) => reply.rows,
                            Err(e) => {
                                tally.check(false, || format!("request {i}: serial run failed: {e}"));
                                continue;
                            }
                        };
                        let mut same = |what: &str, other: Result<Reply, String>| match other {
                            Ok(reply) => tally.check(serial == reply.rows, || {
                                format!(
                                    "request {i} ({:?}): {what} answer differs from serial: {} vs {}",
                                    item.query,
                                    describe(&reply.rows),
                                    describe(&serial)
                                )
                            }),
                            Err(e) => tally.check(false, || format!("request {i}: {what} run failed: {e}")),
                        };
                        same("parallel", adapter::run(db, &item.query, Mode::Parallel(2)));
                        same("planned", adapter::run(db, &item.query, Mode::Planned(catalog)));
                        if let (Entry::Sql, Some(text)) = (entry, &item.sql) {
                            same("SQL", adapter::sql_run(&mut session, db, text));
                        }
                        if sampled.contains(&i) {
                            let reference = adapter::oracle(table, &item.query, &|_| true);
                            tally.check(serial == reference, || {
                                format!(
                                    "request {i} ({:?}): serial answer differs from the reference: {} vs {}",
                                    item.query,
                                    describe(&serial),
                                    describe(&reference)
                                )
                            });
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gate thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    for half in halves {
        tally.absorb(half);
    }
    tally
}

/// Sets latency and throughput metrics from a phase, speed-adjusted round
/// by round (see `yardstick`). Every round sends the same requests, so
/// throughput is the median over the rounds, and a request's latency is the
/// median of its latencies over the rounds: a passing disturbance of the
/// machine slows some rounds of every request, not every round of any. The
/// percentiles are taken over the requests of the list, each counted once at
/// its own median.
fn latency_metrics(metrics: &mut Metrics, phase: &Phase) {
    let qps: Vec<f64> = phase
        .rounds
        .iter()
        .enumerate()
        .map(|(k, r)| r.completed as f64 / r.wall_s.max(1e-9) / phase.round_speed(k))
        .collect();
    metrics.set("query_qps", stats::median(&qps), "1/s");
    let mut per_request: Vec<f64> = phase
        .lat_ms
        .iter()
        .filter(|lat| !lat.is_empty())
        .map(|lat| {
            let adjusted: Vec<f64> = lat
                .iter()
                .enumerate()
                .map(|(k, ms)| ms * phase.round_speed(k))
                .collect();
            stats::median(&adjusted)
        })
        .collect();
    stats::sort(&mut per_request);
    for (name, p) in [
        ("query_p50_ms", 0.50),
        ("query_p95_ms", 0.95),
        ("query_p99_ms", 0.99),
    ] {
        metrics.set(name, stats::quantile(&per_request, p), "ms");
    }
}

// ---------------------------------------------------------- query workloads --

struct Built {
    db: Db,
    catalog: Catalog,
    indexes: Option<adapter::Indexes>,
}

fn generate_table(workload: &str, rows: usize, seed: u64) -> Table {
    match workload {
        "selective_probe" | "write_mix" => adapter::synthetic_table(rows, Dist::Uniform, seed),
        "broad_preference" => adapter::synthetic_table(rows, Dist::AntiCorrelated, seed),
        _ => adapter::covertype_table(rows, seed),
    }
}

/// Set-up of a query workload: generate, build, and (for `planned_sql`,
/// whose stored bytes include them) build the boolean indexes. The planner
/// catalog is built outside: the gate uses it, no timed request does.
fn set_up(workload: &str, rows: usize, seed: u64) -> (Built, f64) {
    let started = Instant::now();
    let db = adapter::build(generate_table(workload, rows, seed));
    let indexes = (workload == "planned_sql").then(|| adapter::build_indexes(&db));
    let setup_s = started.elapsed().as_secs_f64();
    let catalog = adapter::catalog(&db);
    (
        Built {
            db,
            catalog,
            indexes,
        },
        setup_s,
    )
}

fn run_query_workload(cfg: &RunConfig) -> Result<RunResult, String> {
    let name = cfg.workload.as_str();
    let size = sizing(name, cfg.scale, cfg.trace);
    let entry = match name {
        "selective_probe" => Entry::Serial,
        "broad_preference" => Entry::Parallel,
        _ => Entry::Sql,
    };

    let mut yardstick = Yardstick::new();
    // Set-up, repeated; the last build is the one the workload runs on.
    // Each is speed-adjusted by the slices on either side of it.
    let mut setup_times = Vec::with_capacity(size.setups);
    let mut built = None;
    let mut before = yardstick.slice();
    for _ in 0..size.setups {
        drop(built.take());
        let (b, s) = set_up(name, size.rows, cfg.seed);
        let after = yardstick.slice();
        setup_times.push(s * yardstick::speed(&[before, after]));
        before = after;
        built = Some(b);
    }
    let Built {
        db,
        catalog,
        indexes,
    } = built.expect("at least one set-up");
    let table = adapter::table_of(&db);

    let mut rng = Rng::new(cfg.seed, 2);
    let bare = |queries: Vec<Query>| -> Vec<Item> {
        queries
            .into_iter()
            .map(|query| Item { query, sql: None })
            .collect()
    };
    let items: Vec<Item> = match name {
        "selective_probe" => bare(gen::selective_queries(table, size.requests, &mut rng)),
        "broad_preference" => bare(gen::broad_queries(table, size.requests, &mut rng)),
        _ => gen::sql_statements(table, size.requests, &mut rng)
            .into_iter()
            .map(|s| Item {
                query: s.query,
                sql: Some(s.text),
            })
            .collect(),
    };
    let mut input_digest = 0xCBF2_9CE4_8422_2325u64;
    digest_table(&mut input_digest, table);
    for item in &items {
        hash_bytes(
            &mut input_digest,
            format!("{:?}{:?}", item.query, item.sql).as_bytes(),
        );
    }

    let gate_started = Instant::now();
    let mut tally = gate(&db, &catalog, &items, entry);
    eprintln!(
        "[{name}] set-up {:.2?} s, gate {:.2} s",
        setup_times,
        gate_started.elapsed().as_secs_f64()
    );

    // Parse time of each statement, measured once, outside the timed phase:
    // the traced run lays it out as the `sql.parse` child of each request.
    let parse_ns: Vec<u64> = items
        .iter()
        .map(|item| {
            item.sql.as_ref().map_or(0, |text| {
                let t = Instant::now();
                adapter::sql_parse(text);
                t.elapsed().as_nanos() as u64
            })
        })
        .collect();

    let mut metrics = Metrics::default();
    if !cfg.trace {
        let phase = run_rounds(
            &db,
            &items,
            entry,
            cfg.seconds,
            false,
            &parse_ns,
            &mut yardstick,
        );
        tally.count_phase(&phase);
        latency_metrics(&mut metrics, &phase);
        metrics.set("host.speed", phase.speed(), "ratio");
        metrics.set("setup_s", stats::median(&setup_times), "s");
        metrics.set(
            "blocks_per_query",
            phase.io.total as f64 / phase.completed.max(1) as f64,
            "count",
        );
        let stored = adapter::stored_bytes(&db) + indexes.as_ref().map_or(0, adapter::index_bytes);
        metrics.set(
            "bytes_per_tuple",
            stored as f64 / adapter::table_rows(table) as f64,
            "B",
        );
        metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        // Same requests twice: untraced, then traced. Their throughput ratio
        // is the tracing overhead; the per-layer numbers come from the
        // traced half and from the probes that follow.
        let half = cfg.seconds / 2.0;
        let plain = run_rounds(&db, &items, entry, half, false, &parse_ns, &mut yardstick);
        let traced = run_rounds(&db, &items, entry, half, true, &parse_ns, &mut yardstick);
        tally.count_phase(&plain);
        tally.count_phase(&traced);
        let qps = |p: &Phase| p.completed as f64 / p.wall_s.max(1e-9);
        metrics.set(
            "trace.overhead_ratio",
            qps(&plain) / qps(&traced).max(1e-9),
            "ratio",
        );
        metrics.set(
            "trace.coverage_ratio",
            traced.log.covered_seconds() / traced.busy_s.max(1e-9),
            "ratio",
        );
        layers::phase_layers(&mut metrics, &traced);
        let ctx = layers::QueryCtx {
            db: &db,
            catalog: &catalog,
            items: &items,
            entry,
            seed: cfg.seed,
        };
        layers::query_layers(&mut metrics, &ctx, &mut tally)?;
        layers::probe_layers(&mut metrics, &db, &items);
        let outcome = durable_phase(DurableSpec::mini(table, cfg), &mut tally)?;
        layers::durable_layers(&mut metrics, &outcome);
        write_trace(cfg, name, &traced.log)?;
    }
    Ok(finish(tally, metrics, input_digest))
}

fn write_trace(cfg: &RunConfig, workload: &str, log: &TraceLog) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let path = cfg.out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, log.to_json(workload).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))
}

// ----------------------------------------------------------------- write_mix --

/// What one durable phase is given.
pub struct DurableSpec {
    pub table: Table,
    pub txns: Vec<Vec<WriteOp>>,
    /// Transactions applied before the one checkpoint.
    pub checkpoint_after: usize,
    /// The reader's query list (cycled until the writer finishes).
    pub reader_queries: Vec<Query>,
    /// Transactions each of two submitters sends through a `CommitQueue`
    /// after the writer is done (0 = no group-commit phase).
    pub group_commit_txns: usize,
    pub dir: PathBuf,
    pub trace: bool,
}

impl DurableSpec {
    /// The short write phase the query workloads run in their traced run, to
    /// report the write-path layers on their own data: a prefix of `source`.
    fn mini(source: &Table, cfg: &RunConfig) -> DurableSpec {
        let (rows, n_txns) = match cfg.scale {
            Scale::Full => (20_000, 160),
            Scale::Smoke => (4_000, 32),
        };
        let table = adapter::table_prefix(source, rows);
        let mut rng = Rng::new(cfg.seed, 5);
        let group = n_txns / 8;
        let all = gen::transactions(&table, n_txns + 2 * group, &mut rng);
        let dims: Vec<usize> = (0..adapter::n_bool(&table)).collect();
        let n_pref = adapter::n_pref(&table);
        let reader_queries = (0..24)
            .map(|_| Query {
                class: Class::Skyline {
                    dims: (0..n_pref).collect(),
                },
                preds: gen::predicates(&table, &dims, 2.min(dims.len()), &mut rng),
            })
            .collect();
        DurableSpec {
            table,
            txns: all,
            checkpoint_after: (n_txns as f64 * CHECKPOINT_AT) as usize,
            reader_queries,
            group_commit_txns: group,
            dir: cfg
                .out_dir
                .join(format!("durable-{}-{}", cfg.workload, std::process::id())),
            trace: false,
        }
    }
}

/// What one durable phase measured.
pub struct DurableOutcome {
    pub create_s: f64,
    /// The host's speed (see `yardstick`) while the store was created and
    /// while it was recovered; `reader.speed()` has it for the write phase.
    pub create_speed: f64,
    pub recovery_speed: f64,
    pub commit_ms: Vec<f64>,
    pub writer_wall_s: f64,
    pub acked: u64,
    pub ops_applied: u64,
    pub checkpoint_s: f64,
    pub recovery_s: f64,
    pub txns_replayed: u64,
    /// The reader's rounds and sums; `busy_s` and `log` cover every traced
    /// caller of the phase (reader, writer and the reopening thread).
    pub reader: Phase,
    /// Latencies of the reader's queries that overlapped the checkpoint.
    pub reader_during_checkpoint_ms: Vec<f64>,
    /// Ledger reads per query of the reader's list on the final master.
    pub blocks_per_query: f64,
    pub wal_bytes_appended: u64,
    pub user_bytes: u64,
    pub checkpoint_file_bytes: u64,
    pub wal_file_bytes: u64,
    pub live_tuples: u64,
    pub publish_ns_per_epoch: f64,
    pub fsync_amortization: f64,
}

/// The model the recovered store is checked against: which tids are live.
struct LiveModel {
    live: Vec<bool>,
    /// `(tid, codes, coords)` of every acknowledged insert.
    inserted: Vec<(u64, Vec<u32>, Vec<f64>)>,
}

impl LiveModel {
    fn new(rows: usize) -> LiveModel {
        LiveModel {
            live: vec![true; rows],
            inserted: Vec::new(),
        }
    }

    fn apply(&mut self, ops: &[WriteOp]) {
        for op in ops {
            match op {
                WriteOp::Insert { codes, coords } => {
                    self.inserted
                        .push((self.live.len() as u64, codes.clone(), coords.clone()));
                    self.live.push(true);
                }
                WriteOp::Delete { tid } => self.live[*tid as usize] = false,
            }
        }
    }

    fn is_live(&self, tid: u64) -> bool {
        self.live.get(tid as usize).copied().unwrap_or(false)
    }
}

/// Creates a durable store in `dir`, runs a writer beside a reader,
/// checkpoints once, optionally runs a short group-commit phase, drops the
/// handle without a checkpoint (the crash), reopens the store from its two
/// files and checks it. The directory is removed afterwards.
pub fn durable_phase(spec: DurableSpec, tally: &mut Tally) -> Result<DurableOutcome, String> {
    let dir = spec.dir.clone();
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = durable_phase_in(spec, tally);
    // Best effort: a leftover directory only wastes space under out/.
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn durable_phase_in(spec: DurableSpec, tally: &mut Tally) -> Result<DurableOutcome, String> {
    let DurableSpec {
        table,
        txns,
        checkpoint_after,
        reader_queries,
        group_commit_txns,
        dir,
        trace,
    } = spec;
    let tuple_bytes = adapter::tuple_bytes(&table) as u64;
    let n_pref = adapter::n_pref(&table);
    let mut model = LiveModel::new(adapter::table_rows(&table));
    let group_total = 2 * group_commit_txns;
    let (solo, grouped) = txns.split_at(txns.len() - group_total);

    let mut yardstick = Yardstick::new();
    let before_create = yardstick.slice();
    let created = Instant::now();
    let mut durable = adapter::durable_create(&dir, table)?;
    let create_s = created.elapsed().as_secs_f64();
    let create_speed = yardstick::speed(&[before_create, yardstick.slice()]);

    // --- the timed phase: one writer (this thread), one reader.
    let origin = Instant::now();
    let done = AtomicBool::new(false);
    let reader_handle = adapter::durable_reader(&durable);
    let before = adapter::io(adapter::durable_master(&durable));

    #[derive(Clone, Copy)]
    struct ReaderSample {
        /// Position in the reader's query list.
        query: usize,
        /// Offset from `origin` in seconds.
        start_s: f64,
        lat_ms: f64,
    }
    struct ReaderOut {
        samples: Vec<ReaderSample>,
        /// One slice of the yardstick before each pass over the list.
        ref_s: Vec<f64>,
        failures: Vec<String>,
        agg: Agg,
        busy_s: f64,
        rec: Option<Recorder>,
    }
    struct WriterOut {
        commit_ms: Vec<f64>,
        acked: u64,
        checkpoint: (f64, f64),
        wall_s: f64,
        rec: Option<Recorder>,
    }

    let (reader_out, writer_out) =
        std::thread::scope(|scope| -> Result<(ReaderOut, WriterOut), String> {
            let yardstick = &mut yardstick;
            let reader = scope.spawn(|| {
                let mut out = ReaderOut {
                    samples: Vec::new(),
                    ref_s: Vec::new(),
                    failures: Vec::new(),
                    agg: Agg::default(),
                    busy_s: 0.0,
                    rec: None,
                };
                let mut rec = trace.then(|| Recorder::new(origin, 1));
                let started = Instant::now();
                let mut i = 0usize;
                let mut pinned = None;
                while !done.load(Ordering::SeqCst) {
                    let at = i % reader_queries.len();
                    if at == 0 {
                        // Holding no epoch: the slice takes as long as four
                        // commits, and the longer the reader holds an epoch
                        // the more of the writer's copy-on-write pages it is
                        // the one to free (the slow mode of fact 4).
                        pinned = None;
                        out.ref_s.push(yardstick.slice());
                    }
                    let query = &reader_queries[at];
                    if pinned.is_none() || i.is_multiple_of(SNAPSHOT_EVERY) {
                        pinned = Some(adapter::snapshot(&reader_handle));
                    }
                    let snapshot = pinned.as_ref().expect("pinned just above");
                    let start = origin.elapsed().as_secs_f64();
                    let (reply, lat) = timed_request(&mut rec, i as u64, None, || {
                        adapter::run(adapter::snapshot_db(snapshot), query, Mode::Serial)
                    });
                    match reply {
                        Ok(reply) => {
                            out.samples.push(ReaderSample {
                                query: at,
                                start_s: start,
                                lat_ms: lat,
                            });
                            out.agg.add(&reply);
                        }
                        Err(e) => out.failures.push(format!("reader query {i}: {e}")),
                    }
                    i += 1;
                }
                out.busy_s = started.elapsed().as_secs_f64() - out.ref_s.iter().sum::<f64>();
                out.rec = rec;
                out
            });

            let mut write = || -> Result<WriterOut, String> {
                let mut out = WriterOut {
                    commit_ms: Vec::new(),
                    acked: 0,
                    checkpoint: (0.0, 0.0),
                    wall_s: 0.0,
                    rec: None,
                };
                let mut rec = trace.then(|| Recorder::new(origin, 0));
                let started = Instant::now();
                for (t, ops) in solo.iter().enumerate() {
                    // Transaction ids live above the reader's request ids.
                    let request = (1u64 << 32) + t as u64;
                    let root = rec.as_mut().map(|r| r.open("request", None, request));
                    let apply = rec
                        .as_mut()
                        .zip(root)
                        .map(|(r, root)| r.open("core.durable.apply", Some(root), request));
                    let sent = Instant::now();
                    let durable_ack = adapter::durable_apply(&mut durable, ops);
                    let lat = sent.elapsed();
                    if let Some(r) = rec.as_mut() {
                        r.close(apply.expect("opened with the root"));
                        r.close(root.expect("opened above"));
                    }
                    match durable_ack {
                        Ok(true) => {
                            out.acked += 1;
                            out.commit_ms.push(lat.as_secs_f64() * 1e3);
                            model.apply(ops);
                        }
                        Ok(false) => {
                            return Err(format!("txn {t} was acknowledged before it was fsynced"))
                        }
                        Err(e) => return Err(format!("txn {t} was refused: {e}")),
                    }
                    if t + 1 == checkpoint_after {
                        let root = rec.as_mut().map(|r| r.open("checkpoint", None, request));
                        let t0 = origin.elapsed().as_secs_f64();
                        adapter::durable_checkpoint(&mut durable)?;
                        out.checkpoint = (t0, origin.elapsed().as_secs_f64());
                        if let (Some(r), Some(root)) = (rec.as_mut(), root) {
                            r.close(root);
                        }
                    }
                }
                out.wall_s = started.elapsed().as_secs_f64();
                out.rec = rec;
                Ok(out)
            };
            let written = write();
            done.store(true, Ordering::SeqCst);
            let read = reader.join().expect("reader thread panicked");
            Ok((read, written?))
        })?;
    let after = adapter::io(adapter::durable_master(&durable));
    // Before any group-commit phase adds to it: the WAL bytes the writer's
    // own transactions (and the checkpoint record) appended.
    let wal_bytes_appended = adapter::durable_counts(&durable).wal_bytes_synced;

    // --- optional: two submitters through a group-commit queue.
    let mut fsync_amortization = 0.0;
    if group_commit_txns > 0 {
        let queue = adapter::queue_start(durable);
        let (first, second) = grouped.split_at(group_commit_txns);
        let results: Vec<Result<bool, String>> = std::thread::scope(|scope| {
            let queue = &queue;
            let submit = move |batch: &[Vec<WriteOp>]| -> Vec<Result<bool, String>> {
                batch
                    .iter()
                    .map(|ops| adapter::queue_submit(queue, ops))
                    .collect()
            };
            let other = scope.spawn(move || submit(second));
            let mut mine = submit(first);
            mine.extend(other.join().expect("submitter thread panicked"));
            mine
        });
        let (back, amortization) = adapter::queue_finish(queue);
        durable = back;
        fsync_amortization = amortization;
        // Receipts come back in submission order per submitter, but the two
        // streams interleave in the log: tids of the grouped inserts are not
        // predictable, so the model only tracks their effect on liveness by
        // reading the final state back (below) — here each must be acked.
        for (i, r) in results.iter().enumerate() {
            tally.check(matches!(r, Ok(true)), || {
                format!("group-commit txn {i}: {r:?}")
            });
        }
    }

    // --- pre-crash state: master answers, counts, exact blocks per query.
    let master = adapter::durable_master(&durable);
    let io0 = adapter::io(master);
    let master_answers: Vec<Vec<Row>> = reader_queries
        .iter()
        .map(|q| adapter::run(master, q, Mode::Serial).map(|r| r.rows))
        .collect::<Result<_, _>>()?;
    let blocks_per_query =
        (adapter::io(master).total - io0.total) as f64 / reader_queries.len().max(1) as f64;
    let everything = Query {
        class: Class::TopK {
            k: adapter::table_rows(adapter::table_of(master)),
            weights: vec![1.0; n_pref],
        },
        preds: Vec::new(),
    };
    let live_tids = |db: &Db| -> Result<BTreeSet<u64>, String> {
        Ok(adapter::run(db, &everything, Mode::Serial)?
            .rows
            .iter()
            .map(|r| r.tid)
            .collect())
    };
    let live_before = live_tids(master)?;
    let counts = adapter::durable_counts(&durable);
    let acked_total = writer_out.acked + group_total as u64;

    // --- the crash: drop the handle without a checkpoint, keep two files.
    drop(durable);
    let file_len = |name: &str| {
        std::fs::metadata(dir.join(name))
            .map(|m| m.len())
            .unwrap_or(0)
    };
    let (checkpoint_file_bytes, wal_file_bytes) =
        (file_len("checkpoint.pcube"), file_len("wal.pcube"));

    let before_recovery = yardstick.slice();
    let mut recover_rec = trace.then(|| Recorder::new(origin, 2));
    let root = recover_rec.as_mut().map(|r| r.open("recover", None, 0));
    let reopened = Instant::now();
    let (recovered, recovery) = adapter::durable_recover(&dir)?;
    let recovery_s = reopened.elapsed().as_secs_f64();
    if let (Some(r), Some(root)) = (recover_rec.as_mut(), root) {
        r.close(root);
    }
    let recovery_speed = yardstick::speed(&[before_recovery, yardstick.slice()]);

    // --- verification, from the two files alone.
    let after_counts = adapter::durable_counts(&recovered);
    tally.check(after_counts.applied_txns == acked_total, || {
        format!(
            "recovered {} txns, {} were acknowledged",
            after_counts.applied_txns, acked_total
        )
    });
    tally.check(
        recovery.txns_dropped == 0 && recovery.torn_tail_bytes == 0,
        || {
            format!(
                "recovery dropped {} txns and {} torn bytes",
                recovery.txns_dropped, recovery.torn_tail_bytes
            )
        },
    );
    tally.check(
        recovery.txns_replayed == acked_total - checkpoint_after as u64,
        || {
            format!(
                "replayed {} txns, expected the {}-txn suffix",
                recovery.txns_replayed,
                acked_total - checkpoint_after as u64
            )
        },
    );
    let restored = adapter::durable_master(&recovered);
    let restored_table = adapter::table_of(restored);
    let live_after = live_tids(restored)?;
    tally.check(live_after == live_before, || {
        format!(
            "live set changed across the crash: {} tids before, {} after",
            live_before.len(),
            live_after.len()
        )
    });
    if group_commit_txns == 0 {
        // Every acknowledged transaction, one by one: each insert is there
        // with its values, each delete is gone.
        let expected: BTreeSet<u64> = (0..model.live.len() as u64)
            .filter(|&t| model.is_live(t))
            .collect();
        tally.check(live_after == expected, || {
            format!(
                "recovered live set has {} tids, the acknowledged history gives {}",
                live_after.len(),
                expected.len()
            )
        });
        for (tid, codes, coords) in &model.inserted {
            let same = (*tid as usize) < adapter::table_rows(restored_table)
                && codes
                    .iter()
                    .enumerate()
                    .all(|(d, &c)| adapter::bool_code(restored_table, *tid, d) == c)
                && &adapter::coords(restored_table, *tid) == coords;
            tally.check(same, || {
                format!("acknowledged insert of tid {tid} is missing or altered after recovery")
            });
        }
    }
    tally.check(
        after_counts.live_tuples as u64 == live_after.len() as u64,
        || {
            format!(
                "live_tuples() says {}, the store answers with {}",
                after_counts.live_tuples,
                live_after.len()
            )
        },
    );
    let oracle_stride = (reader_queries.len() / ORACLE_SAMPLES).max(1);
    for (i, (query, before)) in reader_queries.iter().zip(&master_answers).enumerate() {
        let now = adapter::run(restored, query, Mode::Serial)?.rows;
        tally.check(&now == before, || {
            format!("reader query {i}: answer after recovery differs from the pre-crash master: {} vs {}", describe(&now), describe(before))
        });
        if i % oracle_stride == 0 {
            let reference =
                adapter::oracle(restored_table, query, &|tid| live_after.contains(&tid));
            tally.check(now == reference, || {
                format!(
                    "reader query {i}: recovered answer differs from the reference: {} vs {}",
                    describe(&now),
                    describe(&reference)
                )
            });
        }
    }
    for f in &reader_out.failures {
        tally.check(false, || f.clone());
    }
    tally.attempted += writer_out.acked + reader_out.samples.len() as u64;

    // --- assemble.
    let inserts = model.inserted.len() as u64;
    let deletes = solo
        .iter()
        .flatten()
        .filter(|op| matches!(op, WriteOp::Delete { .. }))
        .count() as u64;
    // One "round" of the reader is one pass over its query list; a last
    // partial pass is left out unless it is all there is.
    let pass = reader_queries.len().max(1);
    let mut rounds: Vec<Round> = reader_out
        .samples
        .chunks(pass)
        .enumerate()
        .filter(|(i, chunk)| chunk.len() == pass || *i == 0)
        .map(|(_, chunk)| {
            let (first, last) = (chunk[0], chunk[chunk.len() - 1]);
            Round {
                wall_s: last.start_s + last.lat_ms / 1e3 - first.start_s,
                completed: chunk.len(),
            }
        })
        .collect();
    if rounds.is_empty() {
        rounds.push(Round {
            wall_s: writer_out.wall_s,
            completed: 0,
        });
    }
    let mut lat_ms = vec![Vec::new(); pass];
    for s in &reader_out.samples {
        lat_ms[s.query].push(s.lat_ms);
    }
    let (c0, c1) = writer_out.checkpoint;
    let reader_during_checkpoint_ms: Vec<f64> = reader_out
        .samples
        .iter()
        .filter(|s| s.start_s < c1 && s.start_s + s.lat_ms / 1e3 > c0)
        .map(|s| s.lat_ms)
        .collect();
    let mut log = TraceLog::default();
    for rec in [writer_out.rec, reader_out.rec, recover_rec]
        .into_iter()
        .flatten()
    {
        log.absorb(rec);
    }
    let reader = Phase {
        completed: reader_out.samples.len() as u64,
        rounds,
        lat_ms,
        ref_s: reader_out.ref_s,
        wall_s: writer_out.wall_s,
        busy_s: reader_out.busy_s + writer_out.wall_s + recovery_s,
        failures: reader_out.failures,
        agg: reader_out.agg,
        io: after.since(&before),
        log,
    };
    Ok(DurableOutcome {
        create_s,
        create_speed,
        recovery_speed,
        ops_applied: solo.iter().map(|ops| ops.len() as u64).sum(),
        commit_ms: writer_out.commit_ms,
        writer_wall_s: writer_out.wall_s,
        acked: writer_out.acked,
        checkpoint_s: c1 - c0,
        recovery_s,
        txns_replayed: recovery.txns_replayed,
        reader,
        reader_during_checkpoint_ms,
        blocks_per_query,
        wal_bytes_appended,
        user_bytes: inserts * tuple_bytes + 8 * deletes,
        checkpoint_file_bytes,
        wal_file_bytes,
        live_tuples: live_after.len() as u64,
        publish_ns_per_epoch: counts.publish_ns as f64 / counts.publishes.max(1) as f64,
        fsync_amortization,
    })
}

fn run_write_mix(cfg: &RunConfig) -> Result<RunResult, String> {
    let size = sizing("write_mix", cfg.scale, cfg.trace);
    let n_txns = match cfg.scale {
        Scale::Full => ((TXNS_PER_SECOND * cfg.seconds).round() as usize).max(40),
        Scale::Smoke => 48,
    };
    let dir = |tag: &str| {
        cfg.out_dir
            .join(format!("durable-write_mix-{tag}-{}", std::process::id()))
    };

    // Set-up: generate + create_at (build, first checkpoint image, two
    // files), repeated; each store is dropped and removed again.
    let mut setup_times = Vec::with_capacity(size.setups);
    let mut yardstick = Yardstick::new();
    for i in 0..size.setups.saturating_sub(1) {
        let before = yardstick.slice();
        let started = Instant::now();
        let table = generate_table("write_mix", size.rows, cfg.seed);
        let scratch = dir(&format!("setup{i}"));
        let store = adapter::durable_create(&scratch, table);
        let setup_s = started.elapsed().as_secs_f64();
        setup_times.push(setup_s * yardstick::speed(&[before, yardstick.slice()]));
        drop(store);
        let _ = std::fs::remove_dir_all(&scratch);
    }
    drop(yardstick);

    let spec_for = |txns: usize, group: usize, trace: bool, tag: &str| {
        let generated = Instant::now();
        let table = generate_table("write_mix", size.rows, cfg.seed);
        let generate_s = generated.elapsed().as_secs_f64();
        let mut rng = Rng::new(cfg.seed, 3);
        let spec = DurableSpec {
            txns: gen::transactions(&table, txns + 2 * group, &mut rng),
            checkpoint_after: (txns as f64 * CHECKPOINT_AT) as usize,
            reader_queries: gen::selective_queries(
                &table,
                size.requests,
                &mut Rng::new(cfg.seed, 4),
            ),
            group_commit_txns: group,
            dir: dir(tag),
            trace,
            table,
        };
        (spec, generate_s)
    };

    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut input_digest = 0xCBF2_9CE4_8422_2325u64;
    if !cfg.trace {
        let (spec, generate_s) = spec_for(n_txns, 0, false, "run");
        digest_table(&mut input_digest, &spec.table);
        hash_bytes(
            &mut input_digest,
            format!("{:?}{:?}", spec.txns, spec.reader_queries).as_bytes(),
        );
        let out = durable_phase(spec, &mut tally)?;
        setup_times.push((generate_s + out.create_s) * out.create_speed);
        latency_metrics(&mut metrics, &out.reader);
        metrics.set("host.speed", out.reader.speed(), "ratio");
        metrics.set("setup_s", stats::median(&setup_times), "s");
        metrics.set("blocks_per_query", out.blocks_per_query, "count");
        metrics.set(
            "bytes_per_tuple",
            (out.checkpoint_file_bytes + out.wal_file_bytes) as f64 / out.live_tuples.max(1) as f64,
            "B",
        );
        metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        write_metrics(&mut metrics, &out);
    } else {
        // Half the transactions untraced, half traced (a fresh store each);
        // the commit-rate ratio is the tracing overhead.
        let half = (n_txns / 2).max(16);
        let (plain_spec, _) = spec_for(half, 0, false, "plain");
        digest_table(&mut input_digest, &plain_spec.table);
        let plain = durable_phase(plain_spec, &mut tally)?;
        let (traced_spec, _) = spec_for(half, half / 8, true, "traced");
        let reader_items: Vec<Item> = traced_spec
            .reader_queries
            .iter()
            .map(|q| Item {
                query: q.clone(),
                sql: None,
            })
            .collect();
        let traced = durable_phase(traced_spec, &mut tally)?;
        let tps = |o: &DurableOutcome| o.acked as f64 / o.writer_wall_s.max(1e-9);
        metrics.set(
            "trace.overhead_ratio",
            tps(&plain) / tps(&traced).max(1e-9),
            "ratio",
        );
        metrics.set(
            "trace.coverage_ratio",
            traced.reader.log.covered_seconds() / traced.reader.busy_s.max(1e-9),
            "ratio",
        );
        layers::phase_layers(&mut metrics, &traced.reader);
        layers::durable_layers(&mut metrics, &traced);

        // The read-side layers, on a bare build of the same table.
        let (built, _) = set_up("write_mix", size.rows, cfg.seed);
        let ctx = layers::QueryCtx {
            db: &built.db,
            catalog: &built.catalog,
            items: &reader_items,
            entry: Entry::Serial,
            seed: cfg.seed,
        };
        layers::query_layers(&mut metrics, &ctx, &mut tally)?;
        layers::probe_layers(&mut metrics, &built.db, &reader_items);
        write_trace(cfg, "write_mix", &traced.reader.log)?;
    }
    Ok(finish(tally, metrics, input_digest))
}

fn finish(tally: Tally, mut metrics: Metrics, input_digest: u64) -> RunResult {
    metrics.set(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        input_digest,
        failures: tally.failures,
    }
}

/// The five write-path end-to-end metrics, the timings speed-adjusted.
pub(crate) fn write_metrics(metrics: &mut Metrics, out: &DurableOutcome) {
    let speed = out.reader.speed();
    let mut commit = out.commit_ms.clone();
    stats::sort(&mut commit);
    metrics.set(
        "commit_tps",
        out.acked as f64 / out.writer_wall_s.max(1e-9) / speed,
        "1/s",
    );
    metrics.set(
        "commit_p50_ms",
        stats::percentile(&commit, 0.50) * speed,
        "ms",
    );
    metrics.set(
        "wal_bytes_per_user_byte",
        out.wal_bytes_appended as f64 / out.user_bytes.max(1) as f64,
        "ratio",
    );
    metrics.set("checkpoint_s", out.checkpoint_s * speed, "s");
    metrics.set("recovery_s", out.recovery_s * out.recovery_speed, "s");
}

/// Where span files and the durable stores' temporary directories go unless
/// told otherwise: inside the benchmark's own directory, relative to the
/// checkout root the pipeline runs from.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}
