//! Concurrent-throughput harness: M client threads hammer one shared
//! [`PCubeDb`] with the six-class mixed workload of [`pcube_bench::mix`],
//! verifying on the fly that
//!
//! * every answer is **bit-identical** to the single-threaded answer, and
//! * the atomic I/O ledger's total delta equals the sum of per-query serial
//!   deltas (counter consistency — no lost updates, no double charges).
//!
//! Any mismatch or counter drift makes the process exit non-zero, so CI can
//! run this as a smoke gate.
//!
//! Two throughput numbers are reported per thread count:
//!
//! * `qps_wall` — raw wall-clock queries/second, measured with a simulated
//!   per-page read latency (`--wall-io-us`, default 100 µs) charged inside
//!   `Pager::try_read` with **no lock held**. Even on a single-core
//!   container this scales with client threads — but only if no shared
//!   lock is held across a page read, which makes it the end-to-end gate
//!   for read-path contention (`--min-wall-speedup`).
//! * `qps_modeled` — queries/second under the repository's disk cost model
//!   (see `CostModel`): each query is charged its measured CPU time plus
//!   modeled per-page latencies, and client threads overlap their modeled
//!   I/O stalls independently (per-client disk assumption, consistent with
//!   how every figure runner charges I/O). This is the number the
//!   concurrency experiment records, because the evaluation — like the
//!   paper's — is about overlapping disk time, which a RAM-resident
//!   reproduction can only model.
//!
//! Each config also reports a per-stage wall-time breakdown (`stage_seconds`)
//! summed across clients: `pin` (probe/heap setup), `page_read` (node reads,
//! partial-signature loads, index probes), `score` (the rest of the kernel
//! run: preference logic, the probe's bit work), `merge` (canonical sort /
//! cross-worker merge).
//!
//! Usage: `serve_bench [--scale small|medium|full] [--threads 1,2,4,8]
//! [--queries N] [--seed S] [--out PATH] [--min-speedup X]
//! [--wall-io-us US] [--min-wall-speedup X]`
//!
//! Results land in `BENCH_concurrency.json` (override with `--out`).

use pcube_bench::cli::{percentile, Args, JsonObject};
use pcube_bench::mix::{drain, mix, Case, Row};
use pcube_core::{AdmissionGate, PCubeConfig, PCubeDb, ParallelOptions, StageTimes};
use pcube_data::{synthetic, Distribution, SyntheticSpec};
use pcube_storage::{CostModel, Counter, IoCategory, IoSnapshot};
use std::time::{Duration, Instant};

fn run_query(db: &PCubeDb, q: &Case) -> (Vec<Row>, StageTimes) {
    let out = q.run(db, ParallelOptions::default());
    (out.rows, out.stats.stages)
}

struct Config {
    scale: String,
    threads: Vec<usize>,
    queries: usize,
    seed: u64,
    out: String,
    min_speedup: f64,
    wall_io_us: u64,
    min_wall_speedup: f64,
}

fn parse_args() -> Config {
    let mut args = Args::from_env();
    let cfg = Config {
        scale: args.take("--scale", "medium".into()),
        threads: args
            .take("--threads", String::from("1,2,4,8"))
            .split(',')
            .map(|s| s.trim().parse().expect("--threads takes e.g. 1,2,4,8"))
            .collect(),
        queries: args.take("--queries", 0), // 0 = pick per scale
        seed: args.take("--seed", 42),
        out: args.take("--out", "BENCH_concurrency.json".into()),
        min_speedup: args.take("--min-speedup", 3.0),
        wall_io_us: args.take("--wall-io-us", 100), // 0 disables
        min_wall_speedup: args.take("--min-wall-speedup", 0.0),
    };
    args.finish();
    cfg
}

fn scale_params(scale: &str) -> (usize, usize) {
    // (tuples, default total queries per thread-count config)
    match scale {
        "small" => (20_000, 256),
        "medium" => (100_000, 512),
        "full" => (1_000_000, 1024),
        other => {
            eprintln!("unknown scale {other:?}; use small, medium or full");
            std::process::exit(2);
        }
    }
}

struct ConfigResult {
    threads: usize,
    wall_seconds: f64,
    qps_wall: f64,
    qps_modeled: f64,
    p50_us: u64,
    p99_us: u64,
    mismatches: u64,
    counter_consistent: bool,
    /// Self-healing counters over the run: a healthy serving harness must
    /// see zero degraded reads, quarantines, and repairs.
    degraded_reads: u64,
    pages_quarantined: u64,
    pages_repaired: u64,
    /// Per-stage wall time summed over every executed query (all clients).
    stages: StageTimes,
}

#[allow(clippy::too_many_arguments)]
fn run_config(
    db: &PCubeDb,
    gate: &AdmissionGate,
    workload: &[Case],
    expected: &[Vec<Row>],
    per_query_io: &[IoSnapshot],
    cost: &CostModel,
    threads: usize,
    total_queries: usize,
) -> ConfigResult {
    let before = db.stats().snapshot();
    let started = Instant::now();
    // Dynamic dispatch, like a real query router; workload entries repeat
    // round-robin until `total_queries` are issued. Per query: its index,
    // latency in µs, stage times, and whether the answer was wrong.
    let done: Vec<(usize, u64, StageTimes, bool)> = drain(threads, total_queries, |i| {
        let w = i % workload.len();
        let q_started = Instant::now();
        // The gate is sized to the widest thread count, so measured configs
        // are admitted without shedding — but every query still pays the
        // admission path.
        let permit = gate.admit().expect("gate sized to the widest config never sheds");
        let (got, stages) = run_query(db, &workload[w]);
        drop(permit);
        (i, q_started.elapsed().as_micros() as u64, stages, got != expected[w])
    });
    let wall_seconds = started.elapsed().as_secs_f64();
    let delta = db.stats().snapshot().since(&before);

    // Counter consistency: expected totals from the deterministic per-query
    // serial deltas, times each workload entry's execution count.
    let mut consistent = true;
    for cat in IoCategory::ALL {
        let mut expect_reads = 0u64;
        let mut expect_writes = 0u64;
        for (w, io) in per_query_io.iter().enumerate() {
            let execs = (total_queries / workload.len()
                + usize::from(w < total_queries % workload.len())) as u64;
            expect_reads += io.reads(cat) * execs;
            expect_writes += io.writes(cat) * execs;
        }
        if delta.reads(cat) != expect_reads || delta.writes(cat) != expect_writes {
            eprintln!(
                "counter drift in {cat}: reads {} (expected {expect_reads}), writes {} (expected {expect_writes})",
                delta.reads(cat),
                delta.writes(cat),
            );
            consistent = false;
        }
    }
    // The self-healing ledger is part of the same gate: a read-only serving
    // run over a healthy store must never degrade, quarantine, or repair —
    // any nonzero delta here means silent damage (or a double charge).
    if delta.get(Counter::DegradedReads) != 0
        || delta.get(Counter::PagesQuarantined) != 0
        || delta.get(Counter::PagesRepaired) != 0
    {
        eprintln!(
            "self-healing drift: degraded_reads {}, pages_quarantined {}, pages_repaired {}",
            delta.get(Counter::DegradedReads),
            delta.get(Counter::PagesQuarantined),
            delta.get(Counter::PagesRepaired),
        );
        consistent = false;
    }

    // Modeled makespan: charge each executed query its measured CPU time
    // plus the cost model's I/O time, then list-schedule the instances in
    // issue order onto `threads` modeled clients (each query goes to the
    // earliest-available client — exactly what the dynamic dispatcher above
    // does in wall time, replayed in modeled time).
    let mut stages = StageTimes::default();
    let mut instance_cost: Vec<f64> = vec![0.0; total_queries];
    for (i, us, query_stages, _) in &done {
        stages.add(query_stages);
        instance_cost[*i] = *us as f64 * 1e-6 + cost.seconds(&per_query_io[i % workload.len()]);
    }
    let mut client_busy_until = vec![0.0f64; threads];
    for c in instance_cost {
        let earliest = client_busy_until
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("finite modeled times"))
            .expect("at least one client");
        *earliest += c;
    }
    let modeled_makespan = client_busy_until.into_iter().fold(0.0f64, f64::max);

    let mut all_lat: Vec<u64> = done.iter().map(|d| d.1).collect();
    all_lat.sort_unstable();
    ConfigResult {
        threads,
        wall_seconds,
        qps_wall: total_queries as f64 / wall_seconds,
        qps_modeled: total_queries as f64 / modeled_makespan.max(1e-12),
        p50_us: percentile(&all_lat, 0.50),
        p99_us: percentile(&all_lat, 0.99),
        mismatches: done.iter().filter(|d| d.3).count() as u64,
        counter_consistent: consistent,
        degraded_reads: delta.get(Counter::DegradedReads),
        pages_quarantined: delta.get(Counter::PagesQuarantined),
        pages_repaired: delta.get(Counter::PagesRepaired),
        stages,
    }
}

fn main() {
    let cfg = parse_args();
    let (tuples, default_queries) = scale_params(&cfg.scale);
    let total_queries = if cfg.queries > 0 { cfg.queries } else { default_queries };

    eprintln!("building PCubeDb: {tuples} tuples ({} scale)…", cfg.scale);
    let spec = SyntheticSpec {
        n_tuples: tuples,
        n_bool: 3,
        n_pref: 2,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: cfg.seed,
    };
    let mut db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let workload = mix(db.relation(), 64, cfg.seed);

    // Admission control: enough slots for the widest measured config (so
    // throughput numbers are not distorted by shedding), with a generous
    // wait. A narrow-gate burst afterwards exercises the shed path.
    let max_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let gate = AdmissionGate::new(max_threads, Duration::from_secs(30));

    // Warm pass (fills the pinned signature-directory cache), then a
    // measured serial pass: expected answers + deterministic per-query I/O.
    eprintln!("warming caches and computing reference answers…");
    for q in &workload {
        run_query(&db, q);
    }
    let mut expected = Vec::with_capacity(workload.len());
    let mut per_query_io = Vec::with_capacity(workload.len());
    for q in &workload {
        let before = db.stats().snapshot();
        expected.push(run_query(&db, q).0);
        per_query_io.push(db.stats().snapshot().since(&before));
    }

    // Wall-clock I/O simulation: charge every counted page read a sleep with
    // no lock held, so the wall clock measures how well concurrent clients
    // overlap their stalls — the same question the modeled number answers,
    // but observable end to end. Applied only to the measured configs; the
    // reference pass above and the shed burst below run at RAM speed.
    if cfg.wall_io_us > 0 {
        eprintln!("simulated per-page read latency: {} us", cfg.wall_io_us);
        db.set_wall_read_latency(Some(Duration::from_micros(cfg.wall_io_us)));
    }

    let cost = CostModel::default();
    let mut results: Vec<ConfigResult> = Vec::new();
    for &threads in &cfg.threads {
        eprintln!("running {total_queries} queries on {threads} client thread(s)…");
        results.push(run_config(
            &db,
            &gate,
            &workload,
            &expected,
            &per_query_io,
            &cost,
            threads,
            total_queries,
        ));
    }

    // Shed-pressure burst: narrow the gate to 2 slots with a near-zero wait
    // and hammer it from the widest thread count. Overload must be turned
    // away as typed shed errors — never a hang, never a panic.
    let measured_admitted = gate.admitted_total();
    db.set_wall_read_latency(None);
    let burst_gate = AdmissionGate::new(2, Duration::from_micros(100));
    let burst_threads = max_threads.max(4);
    let burst_queries = 256usize;
    eprintln!("shed burst: {burst_queries} queries on {burst_threads} threads, 2 slots…");
    let shed = drain(burst_threads, burst_queries, |i| match burst_gate.admit() {
        Err(_) => true,
        Ok(permit) => {
            run_query(&db, &workload[i % workload.len()]);
            drop(permit);
            false
        }
    });
    let burst_shed = shed.into_iter().filter(|&shed| shed).count() as u64;
    let burst_admitted = burst_gate.admitted_total();
    eprintln!("shed burst: {burst_admitted} admitted, {burst_shed} shed");

    // Headline: modeled AND wall speedup of the widest configuration over
    // 1 thread. Wall is the hard number — it only scales if no shared lock
    // is held across the simulated page-read stalls.
    let base = results
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.qps_modeled)
        .unwrap_or_else(|| results[0].qps_modeled / results[0].threads as f64);
    let wall_base = results
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.qps_wall)
        .unwrap_or_else(|| results[0].qps_wall / results[0].threads as f64);
    let widest = results
        .iter()
        .max_by_key(|r| r.threads)
        .expect("at least one thread configuration");
    let speedup = widest.qps_modeled / base;
    let wall_speedup = widest.qps_wall / wall_base;

    let mut kinds = std::collections::BTreeMap::new();
    for q in &workload {
        *kinds.entry(q.kind()).or_insert(0usize) += 1;
    }

    let json = JsonObject::new()
        .text("bench", "serve_bench")
        .text("scale", &cfg.scale)
        .value("tuples", tuples)
        .value("queries_per_config", total_queries)
        .value("distinct_queries", workload.len())
        .value("seed", cfg.seed)
        .object("workload_mix", kinds.iter().fold(JsonObject::new(), |o, (k, n)| o.value(k, n)))
        .value("wall_io_us", cfg.wall_io_us)
        .rows(
            "configs",
            results.iter().map(|r| {
                JsonObject::new()
                    .value("threads", r.threads)
                    .fixed("wall_seconds", r.wall_seconds, 4)
                    .fixed("qps_wall", r.qps_wall, 1)
                    .fixed("qps_modeled", r.qps_modeled, 3)
                    .fixed("wall_speedup_vs_1_thread", r.qps_wall / wall_base, 3)
                    .value("p50_us", r.p50_us)
                    .value("p99_us", r.p99_us)
                    .value("result_mismatches", r.mismatches)
                    .value("counter_consistent", r.counter_consistent)
                    .value("degraded_reads", r.degraded_reads)
                    .value("pages_quarantined", r.pages_quarantined)
                    .value("pages_repaired", r.pages_repaired)
                    .object(
                        "stage_seconds",
                        JsonObject::new()
                            .fixed("pin", r.stages.pin_seconds, 4)
                            .fixed("page_read", r.stages.page_read_seconds, 4)
                            .fixed("score", r.stages.score_seconds, 4)
                            .fixed("merge", r.stages.merge_seconds, 4),
                    )
            }),
        )
        .value("admission_measured_queries", measured_admitted)
        .object(
            "admission_burst",
            JsonObject::new()
                .value("queries", burst_queries)
                .value("threads", burst_threads)
                .value("slots", 2)
                .value("admitted", burst_admitted)
                .value("shed", burst_shed),
        )
        .value("widest_threads", widest.threads)
        .fixed("modeled_speedup_vs_1_thread", speedup, 3)
        .fixed("wall_speedup_vs_1_thread", wall_speedup, 3)
        .fixed("min_speedup_required", cfg.min_speedup, 1)
        .fixed("min_wall_speedup_required", cfg.min_wall_speedup, 1)
        .document();
    std::fs::write(&cfg.out, &json).expect("write results json");

    println!("{json}");
    println!(
        "speedup {speedup:.2}x modeled, {wall_speedup:.2}x wall at {} threads; wall QPS {:.0} -> {:.0}",
        widest.threads,
        results.first().map(|r| r.qps_wall).unwrap_or(0.0),
        widest.qps_wall,
    );

    let mismatched: u64 = results.iter().map(|r| r.mismatches).sum();
    let drifted = results.iter().any(|r| !r.counter_consistent);
    if burst_admitted + burst_shed != burst_queries as u64 {
        eprintln!(
            "FAIL: admission burst lost queries ({burst_admitted} admitted + {burst_shed} shed != {burst_queries})"
        );
        std::process::exit(1);
    }
    if mismatched > 0 {
        eprintln!("FAIL: {mismatched} result mismatches under concurrency");
        std::process::exit(1);
    }
    if drifted {
        eprintln!("FAIL: I/O counter drift under concurrency");
        std::process::exit(1);
    }
    if speedup < cfg.min_speedup {
        eprintln!(
            "FAIL: modeled speedup {speedup:.2}x below required {:.1}x",
            cfg.min_speedup
        );
        std::process::exit(1);
    }
    if wall_speedup < cfg.min_wall_speedup {
        eprintln!(
            "FAIL: wall speedup {wall_speedup:.2}x below required {:.1}x",
            cfg.min_wall_speedup
        );
        std::process::exit(1);
    }
    eprintln!("OK");
}
