//! Concurrent-throughput harness: M client threads hammer one shared
//! [`PCubeDb`] with a mixed preference-query workload (top-k, skyline,
//! dynamic skyline, convex hull), verifying on the fly that
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
//! summed across clients: `pin` (probe/heap setup), `page_read` (signature
//! probes, node reads, verify fetches), `score` (preference logic), `merge`
//! (canonical sort / cross-worker merge).
//!
//! Usage: `serve_bench [--scale small|medium|full] [--threads 1,2,4,8]
//! [--queries N] [--seed S] [--out PATH] [--min-speedup X]
//! [--wall-io-us US] [--min-wall-speedup X]`
//!
//! Results land in `BENCH_concurrency.json` (override with `--out`).

use pcube_core::{
    AdmissionGate, DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb, SkylineClass,
    StageTimes, TopKClass,
};
use pcube_cube::Selection;
use pcube_data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use pcube_storage::{CostModel, IoCategory, IoSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One query of the mixed workload.
#[derive(Clone)]
enum Query {
    TopK { sel: Selection, k: usize, weights: Vec<f64> },
    Skyline { sel: Selection },
    Dynamic { sel: Selection, q: Vec<f64> },
    Hull { sel: Selection },
}

impl Query {
    fn kind(&self) -> &'static str {
        match self {
            Query::TopK { .. } => "topk",
            Query::Skyline { .. } => "skyline",
            Query::Dynamic { .. } => "dynamic",
            Query::Hull { .. } => "hull",
        }
    }
}

/// A canonicalized answer, comparable with `==` across threads and runs.
#[derive(Clone, PartialEq)]
enum Answer {
    TopK(Vec<(u64, Vec<f64>, f64)>),
    Skyline(Vec<(u64, Vec<f64>)>),
    Hull(Vec<(u64, [f64; 2])>),
}

fn run_query(db: &PCubeDb, q: &Query) -> (Answer, StageTimes) {
    match q {
        Query::TopK { sel, k, weights } => {
            let out = db.run(sel, &TopKClass::new(*k, &LinearFn::new(weights.clone())));
            (Answer::TopK(out.rows), out.stats.stages)
        }
        Query::Skyline { sel } => {
            let out = db.run(sel, &SkylineClass::new(vec![0, 1]));
            (Answer::Skyline(out.rows), out.stats.stages)
        }
        Query::Dynamic { sel, q } => {
            let out = db.run(sel, &DynamicSkylineClass::new(q, vec![0, 1]));
            (Answer::Skyline(out.rows), out.stats.stages)
        }
        Query::Hull { sel } => {
            let out = db.run(sel, &HullClass::new((0, 1)));
            (Answer::Hull(out.rows), out.stats.stages)
        }
    }
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
    let mut cfg = Config {
        scale: "medium".into(),
        threads: vec![1, 2, 4, 8],
        queries: 0, // 0 = pick per scale
        seed: 42,
        out: "BENCH_concurrency.json".into(),
        min_speedup: 3.0,
        wall_io_us: 100,
        min_wall_speedup: 0.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |n: usize| {
            args.get(n).unwrap_or_else(|| {
                eprintln!("{} needs a value", args[n - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = need(i + 1).clone();
                i += 2;
            }
            "--threads" => {
                cfg.threads = need(i + 1)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--threads takes e.g. 1,2,4,8"))
                    .collect();
                i += 2;
            }
            "--queries" => {
                cfg.queries = need(i + 1).parse().expect("--queries takes a count");
                i += 2;
            }
            "--seed" => {
                cfg.seed = need(i + 1).parse().expect("--seed takes a number");
                i += 2;
            }
            "--out" => {
                cfg.out = need(i + 1).clone();
                i += 2;
            }
            "--min-speedup" => {
                cfg.min_speedup = need(i + 1).parse().expect("--min-speedup takes a float");
                i += 2;
            }
            "--wall-io-us" => {
                cfg.wall_io_us =
                    need(i + 1).parse().expect("--wall-io-us takes microseconds (0 disables)");
                i += 2;
            }
            "--min-wall-speedup" => {
                cfg.min_wall_speedup =
                    need(i + 1).parse().expect("--min-wall-speedup takes a float");
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
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

fn build_workload(db: &PCubeDb, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let sel = sample_selection(db.relation(), i % 3, &mut rng);
            match i % 4 {
                0 => Query::TopK {
                    sel,
                    k: 5 + i % 20,
                    weights: vec![0.15 + 0.1 * (i % 8) as f64, 0.95 - 0.1 * (i % 6) as f64],
                },
                1 => Query::Skyline { sel },
                2 => Query::Dynamic {
                    sel,
                    q: vec![0.1 * (i % 10) as f64, 1.0 - 0.1 * (i % 10) as f64],
                },
                _ => Query::Hull { sel },
            }
        })
        .collect()
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

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

#[allow(clippy::too_many_arguments)]
fn run_config(
    db: &PCubeDb,
    workload: &[Query],
    expected: &[Answer],
    per_query_io: &[IoSnapshot],
    cost: &CostModel,
    threads: usize,
    total_queries: usize,
) -> ConfigResult {
    let mismatches = AtomicU64::new(0);
    let next = AtomicU64::new(0);
    let before = db.stats().snapshot();
    let started = Instant::now();
    // Dynamic dispatch, like a real query router: each client thread grabs
    // the next pending query index; workload entries repeat round-robin
    // until `total_queries` are issued. Every index in 0..total_queries is
    // executed exactly once regardless of the schedule.
    let per_thread: Vec<(Vec<(u64, u64)>, StageTimes)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (mismatches, next) = (&mismatches, &next);
                scope.spawn(move || {
                    let mut done: Vec<(u64, u64)> = Vec::new(); // (index, µs)
                    let mut stages = StageTimes::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= total_queries {
                            break;
                        }
                        let w = i % workload.len();
                        let q_started = Instant::now();
                        // The gate is sized to the widest thread count, so
                        // measured configs are admitted without shedding —
                        // but every query still pays the admission path.
                        let permit =
                            db.admit().expect("gate sized to the widest config never sheds");
                        let (got, query_stages) = run_query(db, &workload[w]);
                        drop(permit);
                        done.push((i as u64, q_started.elapsed().as_micros() as u64));
                        stages.add(&query_stages);
                        if got != expected[w] {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (done, stages)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
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
    if delta.degraded_reads() != 0
        || delta.pages_quarantined() != 0
        || delta.pages_repaired() != 0
    {
        eprintln!(
            "self-healing drift: degraded_reads {}, pages_quarantined {}, pages_repaired {}",
            delta.degraded_reads(),
            delta.pages_quarantined(),
            delta.pages_repaired(),
        );
        consistent = false;
    }

    // Modeled makespan: charge each executed query its measured CPU time
    // plus the cost model's I/O time, then list-schedule the instances in
    // issue order onto `threads` modeled clients (each query goes to the
    // earliest-available client — exactly what the dynamic dispatcher above
    // does in wall time, replayed in modeled time).
    let mut stages = StageTimes::default();
    for (_, thread_stages) in &per_thread {
        stages.add(thread_stages);
    }

    let mut instance_cost: Vec<f64> = vec![0.0; total_queries];
    for &(i, us) in per_thread.iter().flat_map(|(done, _)| done) {
        instance_cost[i as usize] =
            us as f64 * 1e-6 + cost.seconds(&per_query_io[i as usize % workload.len()]);
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

    let mut all_lat: Vec<u64> = per_thread
        .into_iter()
        .flat_map(|(done, _)| done)
        .map(|(_, us)| us)
        .collect();
    all_lat.sort_unstable();
    ConfigResult {
        threads,
        wall_seconds,
        qps_wall: total_queries as f64 / wall_seconds,
        qps_modeled: total_queries as f64 / modeled_makespan.max(1e-12),
        p50_us: percentile(&all_lat, 0.50),
        p99_us: percentile(&all_lat, 0.99),
        mismatches: mismatches.load(Ordering::Relaxed),
        counter_consistent: consistent,
        degraded_reads: delta.degraded_reads(),
        pages_quarantined: delta.pages_quarantined(),
        pages_repaired: delta.pages_repaired(),
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
    let workload = build_workload(&db, 64, cfg.seed);

    // Admission control: enough slots for the widest measured config (so
    // throughput numbers are not distorted by shedding), with a generous
    // wait. A narrow-gate burst afterwards exercises the shed path.
    let max_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    db.set_admission_gate(AdmissionGate::new(max_threads, Duration::from_secs(30)));

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
    let measured_admitted = db.admission_gate().map_or(0, AdmissionGate::admitted_total);
    db.set_wall_read_latency(None);
    db.set_admission_gate(AdmissionGate::new(2, Duration::from_micros(100)));
    let burst_threads = max_threads.max(4);
    let burst_queries = 256usize;
    eprintln!("shed burst: {burst_queries} queries on {burst_threads} threads, 2 slots…");
    let burst_next = AtomicU64::new(0);
    let burst_shed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..burst_threads {
            let (db, workload, burst_next, burst_shed) =
                (&db, &workload, &burst_next, &burst_shed);
            scope.spawn(move || loop {
                let i = burst_next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= burst_queries {
                    break;
                }
                match db.admit() {
                    Err(_) => {
                        burst_shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(permit) => {
                        run_query(db, &workload[i % workload.len()]);
                        drop(permit);
                    }
                }
            });
        }
    });
    let burst_gate = db.admission_gate().expect("burst gate installed");
    let burst_shed = burst_shed.load(Ordering::Relaxed);
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

    // Hand-rolled JSON (the workspace deliberately has no serde).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve_bench\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", cfg.scale);
    let _ = writeln!(json, "  \"tuples\": {tuples},");
    let _ = writeln!(json, "  \"queries_per_config\": {total_queries},");
    let _ = writeln!(json, "  \"distinct_queries\": {},", workload.len());
    let _ = writeln!(json, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(
        json,
        "  \"workload_mix\": {{{}}},",
        kinds
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"wall_io_us\": {},", cfg.wall_io_us);
    json.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"wall_seconds\": {:.4}, \"qps_wall\": {:.1}, \"qps_modeled\": {:.3}, \"wall_speedup_vs_1_thread\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, \"result_mismatches\": {}, \"counter_consistent\": {}, \"degraded_reads\": {}, \"pages_quarantined\": {}, \"pages_repaired\": {}, \"stage_seconds\": {{\"pin\": {:.4}, \"page_read\": {:.4}, \"score\": {:.4}, \"merge\": {:.4}}}}}{}",
            r.threads,
            r.wall_seconds,
            r.qps_wall,
            r.qps_modeled,
            r.qps_wall / wall_base,
            r.p50_us,
            r.p99_us,
            r.mismatches,
            r.counter_consistent,
            r.degraded_reads,
            r.pages_quarantined,
            r.pages_repaired,
            r.stages.pin_seconds,
            r.stages.page_read_seconds,
            r.stages.score_seconds,
            r.stages.merge_seconds,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"admission_measured_queries\": {measured_admitted},");
    let _ = writeln!(
        json,
        "  \"admission_burst\": {{\"queries\": {burst_queries}, \"threads\": {burst_threads}, \"slots\": 2, \"admitted\": {burst_admitted}, \"shed\": {burst_shed}}},"
    );
    let _ = writeln!(json, "  \"widest_threads\": {},", widest.threads);
    let _ = writeln!(json, "  \"modeled_speedup_vs_1_thread\": {speedup:.3},");
    let _ = writeln!(json, "  \"wall_speedup_vs_1_thread\": {wall_speedup:.3},");
    let _ = writeln!(json, "  \"min_speedup_required\": {:.1},", cfg.min_speedup);
    let _ = writeln!(json, "  \"min_wall_speedup_required\": {:.1}", cfg.min_wall_speedup);
    json.push_str("}\n");
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
