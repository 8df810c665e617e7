//! Per-layer metrics: each one is taken from the benchmark's side, by timing
//! calls to public functions on the database the workload built.
//!
//! Layer = module name. What each layer metric should move end to end is
//! tabulated in README.md.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Catalog, Class, Db, Engine, Gauge, Mode, Phase as ProbePhase, ProbeKind, Query,
};
use crate::gen::{self, Rng};
use crate::metrics::Metrics;
use crate::stats;
use crate::workloads::{DurableOutcome, Entry, Item, Phase, Tally};

/// Wall time one timed probe may take.
const PROBE_BUDGET: Duration = Duration::from_millis(40);
/// Queries per sample wherever a layer metric is a statistic over queries.
const SAMPLE: usize = 12;

/// Runs every micro probe of the adapter on `db` and records its value.
pub fn probe_layers(metrics: &mut Metrics, db: &Db, items: &[Item]) {
    let selections: Vec<Vec<(usize, u32)>> = items
        .iter()
        .map(|i| i.query.preds.clone())
        .filter(|p| p.len() >= 2)
        .take(32)
        .collect();
    let selections = if selections.is_empty() {
        items
            .iter()
            .map(|i| i.query.preds.clone())
            .filter(|p| !p.is_empty())
            .take(32)
            .collect()
    } else {
        selections
    };
    let table = adapter::table_of(db);
    let sql: Vec<String> = items
        .iter()
        .filter_map(|i| i.sql.clone().or_else(|| gen::to_sql(table, &i.query)))
        .take(64)
        .collect();
    for probe in adapter::probes(db, &selections, &sql) {
        let (value, unit) = match probe.kind {
            ProbeKind::Value { unit, eval } => (eval(), unit),
            ProbeKind::Timed {
                gauge: Gauge::Seconds,
                mut op,
            } => {
                op(ProbePhase::Prepare);
                let t = Instant::now();
                op(ProbePhase::Run);
                (t.elapsed().as_secs_f64(), Gauge::Seconds.unit())
            }
            ProbeKind::Timed { gauge, mut op } => {
                // Median over repeated prepare/run pairs within the budget.
                let mut rates = Vec::new();
                let started = Instant::now();
                while rates.len() < 3 || (started.elapsed() < PROBE_BUDGET && rates.len() < 64) {
                    op(ProbePhase::Prepare);
                    let t = Instant::now();
                    let items = op(ProbePhase::Run);
                    let secs = t.elapsed().as_secs_f64();
                    if items > 0 {
                        rates.push(match gauge {
                            Gauge::NsPerItem => secs * 1e9 / items as f64,
                            Gauge::ItemsPerSecond => items as f64 / secs.max(1e-12),
                            Gauge::MbPerSecond => items as f64 / 1e6 / secs.max(1e-12),
                            Gauge::Seconds => unreachable!("handled above"),
                        });
                    } else if rates.is_empty() && started.elapsed() > PROBE_BUDGET {
                        break;
                    }
                }
                (stats::median(&rates), gauge.unit())
            }
        };
        metrics.set(probe.name, value, unit);
    }
}

/// Layer numbers that are sums or ratios over the replies of a traced phase.
pub fn phase_layers(metrics: &mut Metrics, phase: &Phase) {
    // The per-layer timings are as measured; this is what to scale them by
    // to compare two runs taken at different host speeds.
    metrics.set("host.speed", phase.speed(), "ratio");
    let n = phase.completed.max(1) as f64;
    let [pin, page_read, score, merge] = phase.agg.stages;
    metrics.set("core.query.stage_pin_s", pin, "s");
    metrics.set("core.query.stage_page_read_s", page_read, "s");
    metrics.set("core.query.stage_score_s", score, "s");
    metrics.set("core.query.stage_merge_s", merge, "s");
    metrics.set("core.query.peak_heap", phase.agg.peak_heap as f64, "count");
    metrics.set(
        "rtree.nodes_per_query",
        phase.agg.nodes_expanded as f64 / n,
        "count",
    );
    metrics.set(
        "core.store.partials_per_query",
        phase.agg.partials_loaded as f64 / n,
        "count",
    );
    metrics.set(
        "core.store.sig_pages_per_query",
        phase.io.sig_pages as f64 / n,
        "count",
    );
}

/// What the query-level layer measurements run against.
pub struct QueryCtx<'a> {
    pub db: &'a Db,
    pub catalog: &'a Catalog,
    pub items: &'a [Item],
    pub entry: Entry,
    pub seed: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn p50_ms(mut seconds: Vec<f64>) -> f64 {
    stats::sort(&mut seconds);
    stats::percentile(&seconds, 0.5) * 1e3
}

/// An evenly spaced sample of at most [`SAMPLE`] queries that satisfy `keep`.
fn sample(items: &[Item], keep: impl Fn(&Query) -> bool) -> Vec<&Query> {
    let kept: Vec<&Query> = items.iter().map(|i| &i.query).filter(|q| keep(q)).collect();
    let stride = (kept.len() / SAMPLE).max(1);
    kept.into_iter().step_by(stride).take(SAMPLE).collect()
}

/// Layer metrics that are statistics over whole queries: per-class medians,
/// parallel speed-up, planner accuracy, the baseline engines, SQL overhead,
/// persistence and scrub.
pub fn query_layers(
    metrics: &mut Metrics,
    ctx: &QueryCtx<'_>,
    tally: &mut Tally,
) -> Result<(), String> {
    let db = ctx.db;
    let table = adapter::table_of(db);
    let n_pref = adapter::n_pref(table);
    let mode = if ctx.entry == Entry::Parallel {
        Mode::Parallel(2)
    } else {
        Mode::Serial
    };

    // --- core.query.class.*: the six classes under this workload's own
    // predicate sets, through this workload's own engine entry.
    let mut rng = Rng::new(ctx.seed, 6);
    let pred_sets: Vec<&Vec<(usize, u32)>> = ctx
        .items
        .iter()
        .map(|i| &i.query.preds)
        .take(SAMPLE)
        .collect();
    let all_dims: Vec<usize> = (0..n_pref).collect();
    let make = |label: &str, r: &mut Rng| match label {
        "topk" => Class::TopK {
            k: 10,
            weights: (0..n_pref).map(|_| r.weight()).collect(),
        },
        "skyline" => Class::Skyline {
            dims: all_dims.clone(),
        },
        "dynamic" => Class::Dynamic {
            point: (0..n_pref).map(|_| r.unit()).collect(),
            dims: all_dims.clone(),
        },
        "hull" => Class::Hull { dims: (0, 1) },
        "pskyline" => Class::PSkyline {
            dims: all_dims.clone(),
            edges: vec![(0, 1)],
        },
        _ => Class::Subspace {
            dims: vec![0, n_pref - 1],
        },
    };
    for label in ["topk", "skyline", "dynamic", "hull", "pskyline", "subspace"] {
        let mut secs = Vec::with_capacity(pred_sets.len());
        for preds in &pred_sets {
            let query = Query {
                class: make(label, &mut rng),
                preds: (*preds).clone(),
            };
            let (reply, s) = timed(|| adapter::run(db, &query, mode));
            reply?;
            secs.push(s);
        }
        metrics.set(
            &format!("core.query.class.{label}_p50_ms"),
            p50_ms(secs),
            "ms",
        );
    }

    // --- core.query.parallel: serial wall over two-worker wall. The sample
    // leaves out unfiltered requests on a large table: the boolean-first
    // engine below answers those with a quadratic in-memory skyline.
    let affordable = |q: &Query| {
        !q.preds.is_empty() || adapter::table_rows(table) <= crate::workloads::NAIVE_ROWS_MAX
    };
    let picked = sample(ctx.items, affordable);
    let (mut serial_s, mut par_s, mut par_merge, mut par_engine) = (0.0, 0.0, 0.0, 0.0);
    for query in &picked {
        serial_s += timed(|| adapter::run(db, query, Mode::Serial)).1;
        let (reply, s) = timed(|| adapter::run(db, query, Mode::Parallel(2)));
        let reply = reply?;
        par_s += s;
        par_merge += reply.stages[3];
        par_engine += reply.engine_s;
    }
    metrics.set(
        "core.query.parallel.speedup_2w",
        serial_s / par_s.max(1e-12),
        "ratio",
    );
    metrics.set(
        "core.query.parallel.merge_share",
        par_merge / par_engine.max(1e-12),
        "ratio",
    );

    // --- core.plan: choice cost, hit rate against measured blocks, error.
    let choices: Vec<adapter::Plan> = picked
        .iter()
        .map(|q| adapter::choose(ctx.catalog, q))
        .collect();
    let (_, choose_s) = timed(|| {
        for _ in 0..16 {
            for query in &picked {
                black_box(adapter::choose(ctx.catalog, query));
            }
        }
    });
    metrics.set(
        "core.plan.choose_ns",
        choose_s * 1e9 / (16 * picked.len().max(1)) as f64,
        "ns",
    );
    let mut hits = 0usize;
    let mut errors = Vec::new();
    let mut engines_chosen = std::collections::BTreeSet::new();
    for (query, plan) in picked.iter().zip(&choices) {
        engines_chosen.insert(plan.chosen);
        let mut measured = Vec::new();
        for engine in [Engine::PCube, Engine::BooleanFirst, Engine::DominationFirst] {
            if let Ok(reply) = adapter::run(db, query, Mode::On(engine)) {
                measured.push((engine, reply.blocks));
            }
        }
        let best = measured.iter().map(|m| m.1).min().unwrap_or(0);
        if let Some(&(_, blocks)) = measured.iter().find(|m| m.0 == plan.chosen) {
            hits += usize::from(blocks == best);
            errors.push((plan.est_blocks - blocks as f64).abs() / (blocks as f64).max(1.0));
        }
    }
    metrics.set(
        "core.plan.hit_rate",
        hits as f64 / picked.len().max(1) as f64,
        "ratio",
    );
    metrics.set("core.plan.est_error_p50", stats::median(&errors), "ratio");
    // Over every request of the workload, not only the sample: how many of
    // the engines the planner ever picks here.
    for item in ctx.items {
        engines_chosen.insert(adapter::choose(ctx.catalog, &item.query).chosen);
    }
    metrics.set(
        "core.plan.engines_chosen",
        engines_chosen.len() as f64,
        "count",
    );

    // --- baselines, on top-k versions of this workload's predicate sets
    // (index-merge answers top-k only).
    let (indexes, index_s) = timed(|| adapter::build_indexes(db));
    metrics.set("baselines.index_build_s", index_s, "s");
    let topk: Vec<Query> = sample(ctx.items, |q| !q.preds.is_empty())
        .into_iter()
        .map(|q| Query {
            class: Class::TopK {
                k: 10,
                weights: (0..n_pref).map(|_| rng.weight()).collect(),
            },
            preds: q.preds.clone(),
        })
        .collect();
    let (mut bf, mut df, mut im) = ((0u64, Vec::new()), (0u64, Vec::new()), (0u64, Vec::new()));
    for query in &topk {
        let reference = adapter::run(db, query, Mode::Serial)?.rows;
        let ((rows, blocks), s) = timed(|| adapter::boolean_first_indexed(db, &indexes, query));
        tally.check(rows == reference, || {
            format!("boolean-first answer differs for {query:?}")
        });
        bf.0 += blocks;
        bf.1.push(s);
        let (reply, s) = timed(|| adapter::run(db, query, Mode::On(Engine::DominationFirst)));
        let reply = reply?;
        tally.check(reply.rows == reference, || {
            format!("domination-first answer differs for {query:?}")
        });
        df.0 += reply.blocks;
        df.1.push(s);
        let (reply, s) = timed(|| adapter::index_merge(db, &indexes, query));
        let reply = reply.expect("the sample holds top-k queries only");
        tally.check(reply.rows == reference, || {
            format!("index-merge answer differs for {query:?}")
        });
        im.0 += reply.blocks;
        im.1.push(s);
    }
    let n = topk.len().max(1) as f64;
    for (engine, (blocks, secs)) in [
        ("boolean_first", bf),
        ("domination_first", df),
        ("index_merge", im),
    ] {
        metrics.set(
            &format!("baselines.{engine}.blocks_per_query"),
            blocks as f64 / n,
            "count",
        );
        metrics.set(&format!("baselines.{engine}.p50_ms"), p50_ms(secs), "ms");
    }
    drop(indexes);

    // --- sql.plan_overhead_ms: a planned statement against the same query
    // run through plan_and_run_class with the catalog already built. Taken
    // on top-k and skyline statements, the ones that rebuild both the
    // catalog and the boolean indexes (any expressible class if there are
    // none).
    let rebuilds = |q: &Query| matches!(q.class, Class::TopK { .. } | Class::Skyline { .. });
    let mut picked_sql = sample(ctx.items, rebuilds);
    if picked_sql.is_empty() {
        picked_sql = sample(ctx.items, |q| gen::to_sql(table, q).is_some());
    }
    let expressible: Vec<(&Query, String)> = picked_sql
        .into_iter()
        .map(|q| (q, gen::to_sql(table, q).expect("filtered on it")))
        .collect();
    let mut session = adapter::sql_session();
    let (mut via_sql, mut direct) = (Vec::new(), Vec::new());
    for (query, text) in &expressible {
        let (reply, s) = timed(|| adapter::sql_run(&mut session, db, text));
        let sql_rows = reply?.rows;
        via_sql.push(s);
        let (reply, s) = timed(|| adapter::run(db, query, Mode::Planned(ctx.catalog)));
        tally.check(reply?.rows == sql_rows, || {
            format!("SQL and planned answers differ for {text}")
        });
        direct.push(s);
    }
    metrics.set(
        "sql.plan_overhead_ms",
        p50_ms(via_sql) - p50_ms(direct),
        "ms",
    );

    // --- core.persist, core.scrub
    let (image, save_s) = timed(|| adapter::save(db));
    let (loaded, load_s) = timed(|| adapter::load(&image));
    let loaded = loaded?;
    if let Some(query) = picked.first() {
        let same = adapter::run(&loaded, query, Mode::Serial)?.rows
            == adapter::run(db, query, Mode::Serial)?.rows;
        tally.check(same, || {
            "a loaded image answers differently from the database it was saved from".to_string()
        });
    }
    metrics.set("core.persist.save_s", save_s, "s");
    metrics.set("core.persist.load_s", load_s, "s");
    metrics.set(
        "core.persist.image_bytes_per_tuple",
        image.len() as f64 / adapter::table_rows(table) as f64,
        "B",
    );
    let (pages, scrub_s) = timed(|| adapter::scrub(db));
    metrics.set(
        "core.scrub.pages_per_s",
        pages? as f64 / scrub_s.max(1e-12),
        "1/s",
    );
    Ok(())
}

/// The write-path numbers of one durable phase, under both their end-to-end
/// names and their layer names.
pub fn durable_layers(metrics: &mut Metrics, out: &DurableOutcome) {
    crate::workloads::write_metrics(metrics, out);
    let mut commit = out.commit_ms.clone();
    stats::sort(&mut commit);
    let total_commit_ns: f64 = commit.iter().sum::<f64>() * 1e6;
    metrics.set(
        "core.durable.apply_ns_per_op",
        total_commit_ns / out.ops_applied.max(1) as f64,
        "ns",
    );
    metrics.set(
        "core.durable.commit_p95_ms",
        stats::percentile(&commit, 0.95),
        "ms",
    );
    metrics.set("core.durable.publish_ns", out.publish_ns_per_epoch, "ns");
    metrics.set(
        "core.durable.checkpoint_bytes",
        out.checkpoint_file_bytes as f64,
        "B",
    );
    metrics.set(
        "core.durable.recover_ns_per_txn",
        out.recovery_s * 1e9 / out.txns_replayed.max(1) as f64,
        "ns",
    );
    metrics.set(
        "core.durable.fsync_amortization",
        out.fsync_amortization,
        "ratio",
    );
    let mut during = out.reader_during_checkpoint_ms.clone();
    stats::sort(&mut during);
    // A checkpoint shorter than one query overlaps none: fall back to the
    // reader's overall tail.
    let mut overall: Vec<f64> = out.reader.lat_ms.iter().flatten().copied().collect();
    stats::sort(&mut overall);
    let stall = if during.is_empty() { &overall } else { &during };
    metrics.set(
        "core.durable.reader_p95_during_checkpoint_ms",
        stats::percentile(stall, 0.95),
        "ms",
    );
}
