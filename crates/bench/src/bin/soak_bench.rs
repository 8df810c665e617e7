//! Chaos soak benchmark: the six-class mixed workload of [`pcube_bench::mix`]
//! hammered by many client threads against one shared [`PCubeDb`] while the
//! signature pagers inject seeded read faults, every query runs under a
//! randomized [`QueryBudget`], and an admission gate narrower than the
//! thread count sheds overload on a short wait.
//!
//! Unlike `serve_bench` (which measures clean-path throughput), this binary
//! measures the *lifecycle* numbers the robustness layer owes operators:
//!
//! * **shed rate** — queries turned away by admission control,
//! * **partial-result rate** — queries stopped early by their budget,
//!   broken down by stop reason,
//! * **p50/p99 latency under faults** — over the admitted queries.
//!
//! It is also a correctness gate: it runs the soak test's harness
//! ([`pcube_bench::soak`]: the same oracles, faults and audit), and any
//! `Complete` answer differing from the clean serial oracle, any deadline
//! overshoot beyond one kernel pop, any progress-counter inconsistency, or
//! any partial answer that breaks its class's documented guarantee exits
//! non-zero.
//!
//! Usage: `soak_bench [--queries N] [--threads T] [--tuples N] [--seed S]
//! [--slots K] [--max-wait-us U] [--out PATH]`
//!
//! Results land in `BENCH_soak.json` (override with `--out`).

use pcube_bench::cli::{percentile, Args, JsonObject};
use pcube_bench::mix::{drain, Case, Row};
use pcube_bench::soak::{arm_faults, audit, cases, Tally};
use pcube_core::{AdmissionGate, CancelToken, PCubeConfig, PCubeDb, ParallelOptions, QueryBudget};
use pcube_data::{synthetic, Distribution, SyntheticSpec};
use pcube_storage::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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
    let mut args = Args::from_env();
    let cfg = Config {
        queries: args.take("--queries", 5_000),
        threads: args.take("--threads", 8),
        tuples: args.take("--tuples", 20_000),
        seed: args.take("--seed", 42),
        slots: args.take("--slots", 4),
        max_wait: Duration::from_micros(args.take("--max-wait-us", 500)),
        out: args.take("--out", "BENCH_soak.json".into()),
    };
    args.finish();
    cfg
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

/// How the admitted queries ended, and what the bench counts beside:
/// queries the gate shed, complete answers that differ from their oracle,
/// and other failed audits.
#[derive(Default)]
struct Counters {
    outcomes: Tally,
    shed: AtomicU64,
    mismatches: AtomicU64,
    violations: AtomicU64,
}

/// Runs query `i` under its budget, tallies how it ended and audits it,
/// counting a failed audit instead of panicking so the bench reports totals
/// before failing.
fn run_one(db: &PCubeDb, i: usize, (case, oracle): &(Case, Vec<Row>), counters: &Counters) {
    let mut rng = StdRng::seed_from_u64(0xBE4C ^ i as u64);
    let (budget, cancel) = budget_for(i, &mut rng);
    let out = case.run(db, ParallelOptions { budget, cancel, ..ParallelOptions::default() });
    if let Err(why) = audit(db, case, oracle, &out, true) {
        eprintln!("query {i} ({}): {why}", case.kind());
        let mismatch = out.stats.outcome.is_complete() && out.rows != *oracle;
        let counter = if mismatch { &counters.mismatches } else { &counters.violations };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    counters.outcomes.record(&out.stats.outcome);
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

    // 63 distinct queries: coprime to the eight budget slots of
    // `budget_for`, so every query — hence every class — meets every slot.
    eprintln!("computing clean oracles for 63 distinct queries…");
    let workload = cases(&db, 63, cfg.seed);

    // Chaos on: seeded faults on both signature pagers, and an admission
    // gate with fewer slots than client threads and a short wait, so real
    // overload is shed rather than queued.
    arm_faults(&mut db, cfg.seed);
    let gate = AdmissionGate::new(cfg.slots, cfg.max_wait);

    eprintln!(
        "soaking: {} queries, {} threads, {} admission slots (wait {:?})…",
        cfg.queries, cfg.threads, cfg.slots, cfg.max_wait
    );
    let counters = Counters::default();
    let started = Instant::now();
    // Per issued query: its latency in µs if it was admitted.
    let admitted: Vec<Option<u64>> = drain(cfg.threads, cfg.queries, |i| {
        let q_started = Instant::now();
        match gate.admit() {
            Err(_) => {
                counters.shed.fetch_add(1, Ordering::Relaxed);
                None
            }
            Ok(permit) => {
                run_one(&db, i, &workload[i % workload.len()], &counters);
                drop(permit);
                Some(q_started.elapsed().as_micros() as u64)
            }
        }
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut lat: Vec<u64> = admitted.into_iter().flatten().collect();
    lat.sort_unstable();
    let [complete, deadline, blocks, heap, cancelled] = counters.outcomes.counts();
    let shed = counters.shed.load(Ordering::Relaxed);
    let mismatches = counters.mismatches.load(Ordering::Relaxed);
    let violations = counters.violations.load(Ordering::Relaxed);
    let executed = lat.len() as u64;
    let partials = deadline + blocks + heap + cancelled;

    let json = JsonObject::new()
        .text("bench", "soak_bench")
        .value("tuples", cfg.tuples)
        .value("queries", cfg.queries)
        .value("threads", cfg.threads)
        .value("seed", cfg.seed)
        .value("admission_slots", cfg.slots)
        .value("admission_max_wait_us", cfg.max_wait.as_micros())
        .fixed("wall_seconds", wall_seconds, 4)
        .value("executed", executed)
        .value("shed", shed)
        .fixed("shed_rate", shed as f64 / cfg.queries as f64, 4)
        .value("admitted_total", gate.admitted_total())
        .value("complete", complete)
        .object(
            "partials",
            JsonObject::new()
                .value("deadline", deadline)
                .value("blocks", blocks)
                .value("heap", heap)
                .value("cancelled", cancelled),
        )
        .fixed("partial_rate", partials as f64 / executed.max(1) as f64, 4)
        .value("p50_us", percentile(&lat, 0.50))
        .value("p99_us", percentile(&lat, 0.99))
        .value("degraded_reads", db.stats().get(Counter::DegradedReads))
        .value("result_mismatches", mismatches)
        .value("invariant_violations", violations)
        .document();
    std::fs::write(&cfg.out, &json).expect("write results json");
    println!("{json}");

    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} complete results differed from the clean oracle");
        std::process::exit(1);
    }
    if violations > 0 {
        eprintln!("FAIL: {violations} progress/overshoot/partial-soundness invariant violations");
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
