//! Chaos soak benchmark: a mixed preference-query workload hammered by many
//! client threads against one shared [`PCubeDb`] while the signature pagers
//! inject seeded read faults, every query runs under a randomized
//! [`QueryBudget`], and an admission gate narrower than the thread count
//! sheds overload on a short wait.
//!
//! Unlike `serve_bench` (which measures clean-path throughput), this binary
//! measures the *lifecycle* numbers the robustness layer owes operators:
//!
//! * **shed rate** — queries turned away by admission control,
//! * **partial-result rate** — queries stopped early by their budget,
//!   broken down by stop reason,
//! * **p50/p99 latency under faults** — over the admitted queries.
//!
//! It is also a correctness gate: any `Complete` answer differing from the
//! clean serial oracle, any deadline overshoot beyond one kernel pop, or
//! any progress-counter inconsistency exits non-zero.
//!
//! Usage: `soak_bench [--queries N] [--threads T] [--tuples N] [--seed S]
//! [--slots K] [--max-wait-us U] [--out PATH]`
//!
//! Results land in `BENCH_soak.json` (override with `--out`).

use pcube_core::{
    AdmissionGate, CancelToken, DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb,
    QueryBudget, QueryOutcome, QueryStats, SkylineClass, StopReason, TopKClass,
};
use pcube_cube::Selection;
use pcube_data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use pcube_storage::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone)]
enum Query {
    TopK { sel: Selection, k: usize, weights: Vec<f64> },
    Skyline { sel: Selection },
    Dynamic { sel: Selection, q: Vec<f64> },
    Hull { sel: Selection },
}

#[derive(Clone, PartialEq)]
enum Answer {
    TopK(Vec<(u64, Vec<f64>, f64)>),
    Skyline(Vec<(u64, Vec<f64>)>),
    Hull(Vec<(u64, [f64; 2])>),
}

struct Config {
    queries: usize,
    threads: usize,
    tuples: usize,
    seed: u64,
    slots: usize,
    max_wait: Duration,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        queries: 5_000,
        threads: 8,
        tuples: 20_000,
        seed: 42,
        slots: 4,
        max_wait: Duration::from_micros(500),
        out: "BENCH_soak.json".into(),
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
            "--queries" => cfg.queries = need(i + 1).parse().expect("--queries takes a count"),
            "--threads" => cfg.threads = need(i + 1).parse().expect("--threads takes a count"),
            "--tuples" => cfg.tuples = need(i + 1).parse().expect("--tuples takes a count"),
            "--seed" => cfg.seed = need(i + 1).parse().expect("--seed takes a number"),
            "--slots" => cfg.slots = need(i + 1).parse().expect("--slots takes a count"),
            "--max-wait-us" => {
                cfg.max_wait =
                    Duration::from_micros(need(i + 1).parse().expect("--max-wait-us takes µs"))
            }
            "--out" => cfg.out = need(i + 1).clone(),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    cfg
}

fn build_workload(db: &PCubeDb, n: usize, seed: u64) -> Vec<(Query, Answer)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let sel = sample_selection(db.relation(), i % 3, &mut rng);
            let query = match i % 4 {
                0 => Query::TopK {
                    sel,
                    k: 5 + i % 16,
                    weights: vec![0.2 + 0.1 * (i % 7) as f64, 0.9 - 0.1 * (i % 5) as f64],
                },
                1 => Query::Skyline { sel },
                2 => Query::Dynamic {
                    sel,
                    q: vec![0.1 * (i % 10) as f64, 1.0 - 0.1 * (i % 10) as f64],
                },
                _ => Query::Hull { sel },
            };
            let oracle = match &query {
                Query::TopK { sel, k, weights } => Answer::TopK(
                    db.run(sel, &TopKClass::new(*k, &LinearFn::new(weights.clone()))).rows,
                ),
                Query::Skyline { sel } => {
                    Answer::Skyline(db.run(sel, &SkylineClass::new(vec![0, 1])).rows)
                }
                Query::Dynamic { sel, q } => {
                    Answer::Skyline(db.run(sel, &DynamicSkylineClass::new(q, vec![0, 1])).rows)
                }
                Query::Hull { sel } => Answer::Hull(db.run(sel, &HullClass::new((0, 1))).rows),
            };
            (query, oracle)
        })
        .collect()
}

/// A randomized budget for query `i`: most queries run free, the rest get a
/// short deadline, a small block budget, a small heap cap, or a
/// pre-cancelled token.
fn budget_for(i: usize, rng: &mut StdRng) -> (QueryBudget, Option<CancelToken>) {
    let b = QueryBudget::unlimited();
    match i % 8 {
        0..=3 => (b, None),
        4 => (b.with_deadline(Duration::from_micros(rng.gen_range(20..2_000))), None),
        5 => (b.with_block_budget(rng.gen_range(1..=40)), None),
        6 => (b.with_heap_cap(rng.gen_range(4..=64)), None),
        _ => {
            let token = CancelToken::new();
            token.cancel();
            (b, Some(token))
        }
    }
}

#[derive(Default)]
struct Tally {
    complete: AtomicU64,
    deadline: AtomicU64,
    blocks: AtomicU64,
    heap: AtomicU64,
    cancelled: AtomicU64,
    shed: AtomicU64,
    mismatches: AtomicU64,
    violations: AtomicU64,
}

impl Tally {
    fn record(&self, outcome: &QueryOutcome) {
        let counter = match outcome.partial_reason() {
            None => &self.complete,
            Some(StopReason::DeadlineExceeded) => &self.deadline,
            Some(StopReason::BlockBudgetExceeded) => &self.blocks,
            Some(StopReason::HeapCapExceeded) => &self.heap,
            Some(StopReason::Cancelled) => &self.cancelled,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Checks the lifecycle invariants on one finished query; counts violations
/// instead of panicking so the bench reports totals before failing.
fn audit(stats: &QueryStats, rows: usize, exact_rows: bool, tally: &Tally) {
    if let QueryOutcome::Partial { reason, progress } = &stats.outcome {
        let rows_ok = if exact_rows {
            progress.results_so_far == rows
        } else {
            progress.results_so_far >= rows
        };
        let overshoot_ok = if *reason == StopReason::DeadlineExceeded {
            progress.overshoot_seconds <= progress.max_pop_seconds + 1e-6
        } else {
            progress.overshoot_seconds == 0.0
        };
        if !rows_ok || !overshoot_ok {
            tally.violations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn run_one(db: &PCubeDb, i: usize, case: &(Query, Answer), tally: &Tally) {
    let mut rng = StdRng::seed_from_u64(0xBE4C ^ i as u64);
    let (budget, cancel) = budget_for(i, &mut rng);
    let mut mismatch = false;
    match &case.0 {
        Query::TopK { sel, k, weights } => {
            let f = LinearFn::new(weights.clone());
            let out = db.run_governed(sel, &TopKClass::new(*k, &f), &budget, cancel.as_ref());
            audit(&out.stats, out.rows.len(), true, tally);
            if out.stats.outcome.is_complete() {
                mismatch = Answer::TopK(out.rows) != case.1;
            }
            tally.record(&out.stats.outcome);
        }
        Query::Skyline { sel } => {
            let class = SkylineClass::new(vec![0, 1]);
            let out = db.run_governed(sel, &class, &budget, cancel.as_ref());
            audit(&out.stats, out.rows.len(), true, tally);
            if out.stats.outcome.is_complete() {
                mismatch = Answer::Skyline(out.rows) != case.1;
            }
            tally.record(&out.stats.outcome);
        }
        Query::Dynamic { sel, q } => {
            let class = DynamicSkylineClass::new(q, vec![0, 1]);
            let out = db.run_governed(sel, &class, &budget, cancel.as_ref());
            audit(&out.stats, out.rows.len(), true, tally);
            if out.stats.outcome.is_complete() {
                mismatch = Answer::Skyline(out.rows) != case.1;
            }
            tally.record(&out.stats.outcome);
        }
        Query::Hull { sel } => {
            let out = db.run_governed(sel, &HullClass::new((0, 1)), &budget, cancel.as_ref());
            audit(&out.stats, out.rows.len(), false, tally);
            if out.stats.outcome.is_complete() {
                mismatch = Answer::Hull(out.rows) != case.1;
            }
            tally.record(&out.stats.outcome);
        }
    }
    if mismatch {
        tally.mismatches.fetch_add(1, Ordering::Relaxed);
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn main() {
    let cfg = parse_args();
    eprintln!("building PCubeDb: {} tuples…", cfg.tuples);
    let spec = SyntheticSpec {
        n_tuples: cfg.tuples,
        n_bool: 3,
        n_pref: 2,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: cfg.seed,
    };
    let mut db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());

    eprintln!("computing clean oracles for 64 distinct queries…");
    let workload = build_workload(&db, 64, cfg.seed);

    // Chaos on: seeded faults on both signature pagers, and an admission
    // gate with fewer slots than client threads and a short wait, so real
    // overload is shed rather than queued.
    db.signature_store_mut()
        .sig_pager_mut()
        .set_fault_plan(FaultPlan::seeded(cfg.seed ^ 0xC4A0).with_read_errors(0.3));
    db.signature_store_mut()
        .dir_pager_mut()
        .set_fault_plan(FaultPlan::seeded(cfg.seed ^ 0x0D1E).with_read_errors(0.2));
    db.set_admission_gate(AdmissionGate::new(cfg.slots, cfg.max_wait));

    eprintln!(
        "soaking: {} queries, {} threads, {} admission slots (wait {:?})…",
        cfg.queries, cfg.threads, cfg.slots, cfg.max_wait
    );
    let tally = Tally::default();
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|_| {
                let (db, workload, tally, next, cfg) = (&db, &workload, &tally, &next, &cfg);
                scope.spawn(move || {
                    let mut lat_us: Vec<u64> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= cfg.queries {
                            break;
                        }
                        let q_started = Instant::now();
                        match db.admit() {
                            Err(_) => {
                                tally.shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(permit) => {
                                run_one(db, i, &workload[i % workload.len()], tally);
                                drop(permit);
                                lat_us.push(q_started.elapsed().as_micros() as u64);
                            }
                        }
                    }
                    lat_us
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("soak thread panicked")).collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut lat: Vec<u64> = per_thread.into_iter().flatten().collect();
    lat.sort_unstable();
    let shed = tally.shed.load(Ordering::Relaxed);
    let complete = tally.complete.load(Ordering::Relaxed);
    let deadline = tally.deadline.load(Ordering::Relaxed);
    let blocks = tally.blocks.load(Ordering::Relaxed);
    let heap = tally.heap.load(Ordering::Relaxed);
    let cancelled = tally.cancelled.load(Ordering::Relaxed);
    let mismatches = tally.mismatches.load(Ordering::Relaxed);
    let violations = tally.violations.load(Ordering::Relaxed);
    let executed = lat.len() as u64;
    let partials = deadline + blocks + heap + cancelled;
    let gate = db.admission_gate().expect("gate installed");

    // Hand-rolled JSON (the workspace deliberately has no serde).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"soak_bench\",");
    let _ = writeln!(json, "  \"tuples\": {},", cfg.tuples);
    let _ = writeln!(json, "  \"queries\": {},", cfg.queries);
    let _ = writeln!(json, "  \"threads\": {},", cfg.threads);
    let _ = writeln!(json, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(json, "  \"admission_slots\": {},", cfg.slots);
    let _ = writeln!(json, "  \"admission_max_wait_us\": {},", cfg.max_wait.as_micros());
    let _ = writeln!(json, "  \"wall_seconds\": {wall_seconds:.4},");
    let _ = writeln!(json, "  \"executed\": {executed},");
    let _ = writeln!(json, "  \"shed\": {shed},");
    let _ = writeln!(json, "  \"shed_rate\": {:.4},", shed as f64 / cfg.queries as f64);
    let _ = writeln!(json, "  \"admitted_total\": {},", gate.admitted_total());
    let _ = writeln!(json, "  \"complete\": {complete},");
    let _ = writeln!(
        json,
        "  \"partials\": {{\"deadline\": {deadline}, \"blocks\": {blocks}, \"heap\": {heap}, \"cancelled\": {cancelled}}},"
    );
    let _ = writeln!(
        json,
        "  \"partial_rate\": {:.4},",
        partials as f64 / executed.max(1) as f64
    );
    let _ = writeln!(json, "  \"p50_us\": {},", percentile(&lat, 0.50));
    let _ = writeln!(json, "  \"p99_us\": {},", percentile(&lat, 0.99));
    let _ = writeln!(json, "  \"degraded_reads\": {},", db.stats().degraded_reads());
    let _ = writeln!(json, "  \"result_mismatches\": {mismatches},");
    let _ = writeln!(json, "  \"invariant_violations\": {violations}");
    json.push_str("}\n");
    std::fs::write(&cfg.out, &json).expect("write results json");
    println!("{json}");

    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} complete results differed from the clean oracle");
        std::process::exit(1);
    }
    if violations > 0 {
        eprintln!("FAIL: {violations} progress/overshoot invariant violations");
        std::process::exit(1);
    }
    if executed + shed != cfg.queries as u64 {
        eprintln!("FAIL: executed {executed} + shed {shed} != issued {}", cfg.queries);
        std::process::exit(1);
    }
    if complete + partials != executed {
        eprintln!("FAIL: outcome tallies drifted from the executed count");
        std::process::exit(1);
    }
    eprintln!(
        "OK: {executed} executed ({partials} partial), {shed} shed, p99 {}µs",
        percentile(&lat, 0.99)
    );
}
