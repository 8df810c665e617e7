//! Planner calibration sweep: estimated vs measured block accesses across
//! boolean selectivities (the Fig 13-style crossover, §VI).
//!
//! Builds one synthetic relation whose first boolean dimension is skewed —
//! value frequencies spanning ~60% down to ~0.1% — then, for each
//! single-value workload (plus the empty selection), runs every engine the
//! planner knows about, records its **measured** block accesses
//! (`stats.io.total_reads()`), and compares them with the planner's
//! estimates. The run fails (non-zero exit) when:
//!
//! * any planner-dispatched answer differs from the in-memory oracle, or
//! * the planner's pick matches the measured-cheapest engine on fewer than
//!   90% of workloads, or
//! * the sweep shows no crossover (the planner must pick a baseline on at
//!   least one high-selectivity workload and P-Cube on at least one
//!   low-selectivity workload).
//!
//! Results land in `BENCH_planner.json` (override with `--out`).

use pcube_baselines::reference::{bnl_skyline, naive_topk};
use pcube_bench::cli::{Args, JsonObject};
use pcube_core::{
    EngineKind, LinearFn, PCubeConfig, PCubeDb, PSkylineClass, Planner, PriorityGraph,
    QueryBudget, QueryClass, SkylineClass, SubspaceSkylineClass, TopKClass,
};
use pcube_cube::{Predicate, Relation, Schema, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Skewed frequency table for boolean dimension 0: the sweep's selectivity
/// axis. (Remainder of the mass goes to value 0.)
const DIM0_FREQS: [(u32, f64); 10] = [
    (0, 0.60),
    (1, 0.20),
    (2, 0.10),
    (3, 0.05),
    (4, 0.03),
    (5, 0.015),
    (6, 0.004),
    (7, 0.001),
    (8, 0.0002),
    (9, 0.00004),
];

struct Config {
    rows: usize,
    k: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Config {
    let mut args = Args::from_env();
    let cfg = Config {
        rows: args.take("--rows", 50_000),
        k: args.take("--k", 10),
        seed: args.take("--seed", 42),
        out: args.take("--out", "BENCH_planner.json".into()),
    };
    args.finish();
    cfg
}

fn build_relation(rows: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relation = Relation::new(Schema::new(&["a", "b"], &["x", "y"]));
    for _ in 0..rows {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut a = 0u32;
        // Walk the table back-to-front so the rare values get exact slices
        // of the unit interval and value 0 absorbs the remainder.
        for &(v, freq) in DIM0_FREQS.iter().rev() {
            acc += freq;
            if u < acc {
                a = v;
                break;
            }
        }
        let b: u32 = rng.gen_range(0..4);
        let x: f64 = rng.gen();
        let y: f64 = rng.gen();
        relation.push_coded(&[a, b], &[x, y]);
    }
    relation
}

struct EngineRun {
    engine: EngineKind,
    estimated_blocks: f64,
    measured_blocks: u64,
}

struct WorkloadRow {
    label: String,
    selectivity: f64,
    qualifying: usize,
    chosen: EngineKind,
    measured_best: EngineKind,
    hit: bool,
    engines: Vec<EngineRun>,
}

/// One calibration workload: measure `class` on every engine it supports
/// through `run_class_on` (each on its own ledger delta), compare against
/// [`Planner::estimate_class`], record the planner's pick among them, and
/// dispatch through the planner for the caller's oracle check.
fn workload<C: QueryClass + Sync>(
    db: &PCubeDb,
    planner: &Planner,
    class: &C,
    label: &str,
    sel: &Selection,
    qualifying: usize,
) -> (WorkloadRow, Vec<C::Row>) {
    let kinds: Vec<EngineKind> =
        EngineKind::ALL.into_iter().filter(|&kind| class.supports(kind)).collect();
    let estimates = planner.estimate_class(sel, class);
    let engines: Vec<EngineRun> = kinds
        .iter()
        .map(|&engine| EngineRun {
            engine,
            estimated_blocks: estimates
                .iter()
                .find(|e| e.engine == engine)
                .map(|e| e.blocks())
                .unwrap_or(f64::NAN),
            measured_blocks: db
                .run_class_on(class, sel, engine)
                .expect("a supported engine")
                .1
                .io
                .total_reads(),
        })
        .collect();
    let decision = planner.choose_class(sel, class, &kinds);
    let measured_best = engines
        .iter()
        .min_by_key(|e| e.measured_blocks)
        .expect("at least one engine")
        .engine;
    let row = WorkloadRow {
        label: format!("{label} / {}", class.name()),
        selectivity: decision.selectivity,
        qualifying,
        chosen: decision.chosen,
        measured_best,
        hit: decision.chosen == measured_best,
        engines,
    };
    let (got, _) = db
        .plan_and_run_class(planner, class, sel, &QueryBudget::unlimited(), None)
        .expect("planner dispatch");
    (row, got)
}

fn main() {
    let cfg = parse_args();
    let relation = build_relation(cfg.rows, cfg.seed);
    let qualifying_rows: Vec<(u64, Vec<f64>)> = (0..relation.len() as u64)
        .map(|tid| (tid, relation.pref_coords(tid)))
        .collect();
    let bool_codes: Vec<Vec<u32>> = (0..relation.schema().n_bool())
        .map(|d| relation.bool_column(d).collect())
        .collect();
    let db = PCubeDb::build(relation, &PCubeConfig::default());
    let planner = db.planner();

    let f = LinearFn::new(vec![0.6, 0.4]);
    let oracle_input = |sel: &Selection| -> Vec<(u64, Vec<f64>)> {
        qualifying_rows
            .iter()
            .filter(|(tid, _)| sel.iter().all(|p| bool_codes[p.dim][*tid as usize] == p.value))
            .cloned()
            .collect()
    };

    // The sweep: one workload per dim-0 value (selectivity 60% … 0.1%),
    // plus the unselective empty selection, for both query classes.
    let mut selections: Vec<(String, Selection)> = vec![("none".into(), Vec::new())];
    for &(v, freq) in &DIM0_FREQS {
        selections.push((format!("a={v} (~{freq})"), vec![Predicate { dim: 0, value: v }]));
    }

    let mut rows: Vec<WorkloadRow> = Vec::new();
    let mut mismatches = 0usize;
    let mut record = |row: WorkloadRow, ok: bool| {
        if !ok {
            eprintln!("ORACLE MISMATCH: {} via {}", row.label, row.chosen.name());
            mismatches += 1;
        }
        rows.push(row);
    };
    let pref_dims = [0usize, 1];
    let topk = TopKClass::new(cfg.k, &f);
    let skyline = SkylineClass::new(pref_dims.to_vec());
    for (label, sel) in &selections {
        let input = oracle_input(sel);

        // Top-k and skyline are checked against the references that do not
        // share the classes' code.
        let (row, got) = workload(&db, &planner, &topk, label, sel, input.len());
        let want = naive_topk(&input, cfg.k, &f);
        record(row, got.iter().map(|r| r.0).eq(want.iter().map(|r| r.0)));

        let (row, got) = workload(&db, &planner, &skyline, label, sel, input.len());
        let mut want = bnl_skyline(&input, &pref_dims);
        let key = |c: &[f64]| -> f64 { pref_dims.iter().map(|&d| c[d]).sum() };
        want.sort_by(|a, b| key(&a.1).total_cmp(&key(&b.1)).then(a.0.cmp(&b.0)));
        record(row, got == want);
    }

    // The other classes ride the same sweep — a second pass so the
    // workloads above keep an identical execution order and their
    // measurements stay comparable run-to-run.
    let pskyline = PSkylineClass::new(
        PriorityGraph::new(vec![0, 1], &[(0, 1)]).expect("a single edge is a DAG"),
    );
    let subspace = SubspaceSkylineClass::new(vec![1]);
    for (label, sel) in &selections {
        let input = oracle_input(sel);
        let (row, got) = workload(&db, &planner, &pskyline, label, sel, input.len());
        record(row, got == pskyline.oracle(&input));
        let (row, got) = workload(&db, &planner, &subspace, label, sel, input.len());
        record(row, got == subspace.oracle(&input));
    }

    let hits = rows.iter().filter(|r| r.hit).count();
    let hit_rate = hits as f64 / rows.len() as f64;
    let baseline_on_selective = rows
        .iter()
        .any(|r| r.selectivity < 0.05 && r.chosen != EngineKind::PCube);
    let pcube_on_unselective = rows
        .iter()
        .any(|r| r.selectivity > 0.5 && r.chosen == EngineKind::PCube);

    let json = JsonObject::new()
        .text("bench", "planner_bench")
        .value("rows", cfg.rows)
        .value("k", cfg.k)
        .value("seed", cfg.seed)
        .rows(
            "workloads",
            rows.iter().map(|r| {
                JsonObject::new()
                    .text("workload", &r.label)
                    .fixed("selectivity", r.selectivity, 6)
                    .value("qualifying", r.qualifying)
                    .text("chosen", r.chosen.name())
                    .text("measured_best", r.measured_best.name())
                    .value("hit", r.hit)
                    .list(
                        "engines",
                        r.engines.iter().map(|e| {
                            JsonObject::new()
                                .text("engine", e.engine.name())
                                .fixed("estimated_blocks", e.estimated_blocks, 1)
                                .value("measured_blocks", e.measured_blocks)
                        }),
                    )
            }),
        )
        .value("workload_count", rows.len())
        .value("planner_hits", hits)
        .fixed("planner_hit_rate", hit_rate, 3)
        .value("baseline_chosen_on_selective", baseline_on_selective)
        .value("pcube_chosen_on_unselective", pcube_on_unselective)
        .value("oracle_mismatches", mismatches)
        .document();
    std::fs::write(&cfg.out, &json).expect("write results json");
    println!("{json}");

    for r in &rows {
        println!(
            "{:<28} σ={:<9.5} chosen={:<16} best={:<16} {}",
            r.label,
            r.selectivity,
            r.chosen.name(),
            r.measured_best.name(),
            if r.hit { "hit" } else { "MISS" },
        );
    }
    println!("hit rate: {hits}/{} = {hit_rate:.3}", rows.len());

    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} planner/oracle mismatches");
        std::process::exit(1);
    }
    if hit_rate < 0.9 {
        eprintln!("FAIL: planner hit rate {hit_rate:.3} below 0.9");
        std::process::exit(1);
    }
    if !baseline_on_selective || !pcube_on_unselective {
        eprintln!(
            "FAIL: no crossover (baseline on selective: {baseline_on_selective}, \
             pcube on unselective: {pcube_on_unselective})"
        );
        std::process::exit(1);
    }
}
