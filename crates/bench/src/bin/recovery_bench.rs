//! Durability benchmark: recovery time as a function of WAL length, and the
//! write-throughput overhead of WAL + checkpointing.
//!
//! Two sweeps:
//!
//! * **recovery vs WAL depth** — apply `N` maintenance transactions with
//!   checkpoints disabled, snapshot the durable bytes at several depths, and
//!   time `open_or_recover_from_state` at each. Replay work should scale
//!   with the WAL suffix, so recovery time grows roughly linearly and a
//!   checkpoint resets it to near the clean-open floor.
//! * **checkpoint overhead** — the same write workload at several
//!   `checkpoint_every` cadences (plus the WAL-only and bare in-memory
//!   baselines), reporting transactions/second.
//!
//! Two more sweeps gate the group-commit work:
//!
//! * **epoch publish cost vs database size** — copy-on-write snapshots must
//!   make publishing a new epoch O(dirty), not O(database): the mean
//!   publish cost from 10^4 to 10^6 tuples must stay within 1.5x.
//! * **group commit vs per-commit fsync** — 8 submitter threads through a
//!   [`CommitQueue`] against a simulated fsync latency must beat the
//!   one-fsync-per-commit baseline by at least 3x.
//!
//! A fifth sweep gates self-healing: every live signature page is rotted,
//! the degraded engine must still answer the probe exactly, and a scrub +
//! WAL-routed repair must return blocks-per-probe to the clean baseline —
//! timed and emitted under `"self_healing"`.
//!
//! Also a correctness gate: every recovered database must answer the probe
//! skyline exactly like the live master it was recovered from, or the
//! binary exits non-zero.
//!
//! Usage: `recovery_bench [--txns N] [--tuples N] [--ops-per-txn K]
//! [--publish-max N] [--fsync-delay-us U] [--out PATH]` — results land in
//! `BENCH_recovery.json`.

use pcube_bench::cli::{Args, JsonObject};
use pcube_core::{
    CommitQueue, CommitQueuePolicy, DurabilityOptions, DurableDb, MaintenanceOp, PCubeConfig,
    PCubeDb, QueryBudget, SkylineClass,
};
use pcube_cube::{Predicate, Relation};
use pcube_data::{synthetic, SyntheticSpec};
use pcube_storage::Counter;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

struct Config {
    txns: usize,
    tuples: usize,
    ops_per_txn: usize,
    publish_max: usize,
    fsync_delay_us: u64,
    out: String,
}

fn parse_args() -> Config {
    let mut args = Args::from_env();
    let cfg = Config {
        txns: args.take("--txns", 400),
        tuples: args.take("--tuples", 10_000),
        ops_per_txn: args.take("--ops-per-txn", 4),
        publish_max: args.take("--publish-max", 1_000_000),
        // A rotational-class fsync: write barriers are why group commit
        // exists; NVMe-class latencies hide the effect behind apply cost.
        fsync_delay_us: args.take("--fsync-delay-us", 5_000),
        out: args.take("--out", "BENCH_recovery.json".into()),
    };
    args.finish();
    cfg
}

fn seed_relation(tuples: usize) -> Relation {
    let spec = SyntheticSpec {
        n_tuples: tuples,
        n_bool: 3,
        n_pref: 2,
        cardinality: 8,
        ..Default::default()
    };
    synthetic(&spec)
}

/// The deterministic write workload: transaction `t` as a pure function of
/// `t` and a live-set model, so every run (and every recovery oracle) sees
/// identical operations.
struct Workload {
    live: BTreeSet<u64>,
    next_tid: u64,
    ops_per_txn: usize,
}

impl Workload {
    fn new(seed_rows: usize, ops_per_txn: usize) -> Self {
        Workload {
            live: (0..seed_rows as u64).collect(),
            next_tid: seed_rows as u64,
            ops_per_txn,
        }
    }

    fn txn(&mut self, t: usize) -> Vec<MaintenanceOp> {
        let base = self.next_tid;
        let mut ops = Vec::with_capacity(self.ops_per_txn);
        for j in 0..self.ops_per_txn.saturating_sub(1).max(1) {
            let i = (t * self.ops_per_txn + j) as u64;
            ops.push(MaintenanceOp::Insert {
                codes: vec![(i % 8) as u32, (i % 8) as u32, (i % 8) as u32],
                coords: vec![
                    (i as f64 * 0.2711 + 0.03).fract(),
                    (i as f64 * 0.4131 + 0.17).fract(),
                ],
            });
            self.live.insert(self.next_tid);
            self.next_tid += 1;
        }
        if self.ops_per_txn > 1 && !t.is_multiple_of(2) {
            let candidates: Vec<u64> =
                self.live.iter().copied().filter(|&x| x < base).collect();
            let victim = candidates[(t * 13) % candidates.len()];
            ops.push(MaintenanceOp::Delete { tid: victim });
            self.live.remove(&victim);
        }
        ops
    }
}

fn probe_skyline(db: &PCubeDb) -> Vec<u64> {
    let mut tids: Vec<u64> =
        db.run(&Vec::new(), &SkylineClass::new(vec![0, 1])).rows.iter().map(|p| p.0).collect();
    tids.sort_unstable();
    tids
}

fn main() {
    let cfg = parse_args();
    let mut mismatches = 0u64;

    // --- sweep 1: recovery time vs WAL length -----------------------------
    eprintln!(
        "recovery sweep: {} txns x {} ops over {} tuples",
        cfg.txns, cfg.ops_per_txn, cfg.tuples
    );
    let mut db = DurableDb::create(
        seed_relation(cfg.tuples),
        &PCubeConfig::default(),
        DurabilityOptions { fsync_every: 1, checkpoint_every: 0, ..DurabilityOptions::default() },
    );
    let mut workload = Workload::new(cfg.tuples, cfg.ops_per_txn);
    let depths = [0, cfg.txns / 8, cfg.txns / 4, cfg.txns / 2, cfg.txns];
    let mut recovery_rows = Vec::new();
    let mut applied = 0usize;
    for &depth in &depths {
        while applied < depth {
            db.apply(&workload.txn(applied)).expect("apply");
            applied += 1;
        }
        let state = db.durable_state();
        let start = Instant::now();
        let (recovered, report) =
            DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
                .expect("recovery");
        let micros = start.elapsed().as_micros();
        if probe_skyline(recovered.db()) != probe_skyline(db.db()) {
            eprintln!("FAIL: recovered answers diverge at depth {depth}");
            mismatches += 1;
        }
        eprintln!(
            "  wal {:>9} bytes, {:>4} txns -> recovered in {:>8} us ({} records)",
            state.wal.len(),
            report.txns_replayed,
            micros,
            report.records_replayed
        );
        recovery_rows.push((depth, state.wal.len(), report.records_replayed, micros));
    }

    // A checkpoint resets recovery to the clean-open floor.
    db.checkpoint().expect("checkpoint");
    let state = db.durable_state();
    let start = Instant::now();
    let (recovered, report) =
        DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
            .expect("post-checkpoint recovery");
    let post_ckpt_micros = start.elapsed().as_micros();
    if !report.clean {
        eprintln!("FAIL: post-checkpoint open was not clean: {report}");
        mismatches += 1;
    }
    if probe_skyline(recovered.db()) != probe_skyline(db.db()) {
        eprintln!("FAIL: post-checkpoint recovered answers diverge");
        mismatches += 1;
    }
    eprintln!("  post-checkpoint clean open: {post_ckpt_micros} us");

    // --- sweep 2: checkpoint overhead on write throughput -----------------
    let cadences: [(&str, Option<u64>); 4] =
        [("bare", None), ("wal_only", Some(0)), ("ckpt_every_64", Some(64)), ("ckpt_every_16", Some(16))];
    let mut throughput_rows = Vec::new();
    for (label, cadence) in cadences {
        let start = Instant::now();
        match cadence {
            None => {
                // Baseline: the same maintenance with no durability at all.
                let mut bare = PCubeDb::build(seed_relation(cfg.tuples), &PCubeConfig::default());
                let mut w = Workload::new(cfg.tuples, cfg.ops_per_txn);
                for t in 0..cfg.txns {
                    for op in w.txn(t) {
                        match op {
                            MaintenanceOp::Insert { codes, coords } => {
                                bare.insert_coded(&codes, &coords);
                            }
                            MaintenanceOp::Delete { tid } => {
                                bare.delete(tid);
                            }
                        }
                    }
                }
            }
            Some(every) => {
                let mut d = DurableDb::create(
                    seed_relation(cfg.tuples),
                    &PCubeConfig::default(),
                    DurabilityOptions {
                        fsync_every: 1,
                        checkpoint_every: every,
                        ..DurabilityOptions::default()
                    },
                );
                let mut w = Workload::new(cfg.tuples, cfg.ops_per_txn);
                for t in 0..cfg.txns {
                    d.apply(&w.txn(t)).expect("apply");
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let tps = cfg.txns as f64 / secs;
        eprintln!("  {label:>14}: {tps:>9.1} txns/s ({secs:.3} s)");
        throughput_rows.push((label, secs, tps));
    }

    // --- sweep 3: epoch publish cost vs database size ---------------------
    // Copy-on-write snapshots make publishing an epoch a handful of
    // refcount bumps, so the mean cost must not grow with the database.
    let publish_sizes: Vec<usize> =
        [10_000usize, 100_000, 1_000_000].into_iter().filter(|&s| s <= cfg.publish_max).collect();
    const PUBLISH_TXNS: usize = 64;
    let mut publish_rows = Vec::new();
    for &size in &publish_sizes {
        let mut d = DurableDb::create(
            seed_relation(size),
            &PCubeConfig::default(),
            DurabilityOptions {
                fsync_every: 1,
                checkpoint_every: 0,
                ..DurabilityOptions::default()
            },
        );
        let mut w = Workload::new(size, cfg.ops_per_txn);
        for t in 0..PUBLISH_TXNS {
            d.apply(&w.txn(t)).expect("apply");
        }
        let (publishes, ns) = d.publish_stats();
        let avg_ns = ns as f64 / publishes.max(1) as f64;
        eprintln!("  {size:>9} tuples: {publishes} publishes, {avg_ns:>9.0} ns each");
        publish_rows.push((size, publishes, avg_ns));
    }
    // Sub-microsecond publishes hit timer granularity; a 1 us floor keeps
    // the ratio about scaling, not clock jitter.
    let publish_floor = |ns: f64| ns.max(1_000.0);
    let publish_ratio = match (publish_rows.first(), publish_rows.last()) {
        (Some(&(_, _, small)), Some(&(_, _, large))) if publish_rows.len() > 1 => {
            publish_floor(large) / publish_floor(small)
        }
        _ => 1.0,
    };
    if publish_ratio > 1.5 {
        eprintln!(
            "FAIL: epoch publish cost grew {publish_ratio:.2}x from {} to {} tuples",
            publish_rows.first().map_or(0, |r| r.0),
            publish_rows.last().map_or(0, |r| r.0),
        );
        mismatches += 1;
    }

    // --- sweep 4: group commit vs one fsync per commit --------------------
    let group_txns = 256usize;
    let insert_txn = |k: usize| {
        vec![MaintenanceOp::Insert {
            codes: vec![(k % 8) as u32, (k % 8) as u32, (k % 8) as u32],
            coords: vec![(k as f64 * 0.2711 + 0.03).fract(), (k as f64 * 0.4131 + 0.17).fract()],
        }]
    };
    let durability = DurabilityOptions {
        fsync_every: 1,
        checkpoint_every: 0,
        fsync_delay_us: cfg.fsync_delay_us,
    };
    let mut base = DurableDb::create(seed_relation(cfg.tuples), &PCubeConfig::default(), durability);
    let start = Instant::now();
    for t in 0..group_txns {
        base.apply(&insert_txn(t)).expect("baseline apply");
    }
    let base_secs = start.elapsed().as_secs_f64();
    let base_tps = group_txns as f64 / base_secs;

    let queue = CommitQueue::start(
        DurableDb::create(seed_relation(cfg.tuples), &PCubeConfig::default(), durability),
        CommitQueuePolicy {
            max_batch: 32,
            max_queue: 64,
            max_wait: Duration::from_micros(100),
        },
    );
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..8usize {
            let queue = &queue;
            scope.spawn(move || {
                for i in 0..group_txns / 8 {
                    queue.submit(insert_txn(thread * (group_txns / 8) + i)).expect("submit");
                }
            });
        }
    });
    let group_secs = start.elapsed().as_secs_f64();
    let group_tps = group_txns as f64 / group_secs;
    let group_stats = queue.stats();
    let grouped = queue.shutdown();
    if grouped.durable_txns() != group_txns as u64 {
        eprintln!("FAIL: group commit lost work ({} of {group_txns})", grouped.durable_txns());
        mismatches += 1;
    }
    let speedup = group_tps / base_tps;
    eprintln!(
        "  group commit: {group_tps:>9.1} txns/s vs {base_tps:>9.1} baseline ({speedup:.2}x, \
         {} batches, {:.2} commits/fsync)",
        group_stats.batches,
        group_stats.fsync_amortization()
    );
    if speedup < 3.0 {
        eprintln!("FAIL: group commit speedup {speedup:.2}x under the 3x gate");
        mismatches += 1;
    }

    // --- sweep 5: scrub + repair (self-healing) ---------------------------
    // Rot every live signature page, prove the degraded engine still answers
    // the probe exactly, then time the scrub pass and the WAL-routed repair.
    // Gates: degraded and healed answers must match the clean ones, and
    // blocks-per-probe must return to the clean baseline after repair.
    let mut heal = DurableDb::create(
        seed_relation(cfg.tuples),
        &PCubeConfig::default(),
        DurabilityOptions { fsync_every: 1, checkpoint_every: 0, ..DurabilityOptions::default() },
    );
    let mut w = Workload::new(cfg.tuples, cfg.ops_per_txn);
    for t in 0..cfg.txns.min(32) {
        heal.apply(&w.txn(t)).expect("apply");
    }
    heal.signature_store_mut().sig_pager_mut().set_checksums(true);
    // A *selected* probe — the empty selection never touches signatures, so
    // only a boolean-pruned query exercises the damaged pages.
    let selected_probe = |d: &PCubeDb| -> Vec<u64> {
        let sel = vec![Predicate { dim: 0, value: 1 }];
        let mut tids: Vec<u64> =
            d.run(&sel, &SkylineClass::new(vec![0, 1])).rows.iter().map(|p| p.0).collect();
        tids.sort_unstable();
        tids
    };
    let probe_reads = |d: &DurableDb, want: &[u64], what: &str, mismatches: &mut u64| -> u64 {
        let answer = selected_probe(d.db()); // warm pass
        if answer != want {
            eprintln!("FAIL: {what} probe diverged");
            *mismatches += 1;
        }
        let before = d.db().stats().snapshot();
        selected_probe(d.db());
        d.db().stats().snapshot().since(&before).total_reads()
    };
    let want = selected_probe(heal.db());
    let reads_clean = probe_reads(&heal, &want, "clean", &mut mismatches);
    let sig_pages = {
        let pager = heal.signature_store_mut().sig_pager_mut();
        let page_size = pager.page_size();
        let pages = pager.live_page_ids();
        for (i, &pid) in pages.iter().enumerate() {
            pager.corrupt_page(pid, (i * 97) % page_size, 0x41).expect("corrupt live page");
        }
        pages.len()
    };
    let degraded_before = heal.db().stats().snapshot();
    let reads_degraded = probe_reads(&heal, &want, "degraded", &mut mismatches);
    let degraded_reads = heal.db().stats().snapshot().since(&degraded_before).get(Counter::DegradedReads);
    if degraded_reads == 0 {
        eprintln!("FAIL: degraded probe left no trace on the ledger");
        mismatches += 1;
    }
    let start = Instant::now();
    let scrub_report = heal.scrub(&QueryBudget::unlimited());
    let scrub_us = start.elapsed().as_micros();
    if (scrub_report.newly_quarantined + scrub_report.already_quarantined) as usize != sig_pages {
        eprintln!("FAIL: scrub missed damage: {scrub_report}");
        mismatches += 1;
    }
    let start = Instant::now();
    let repair = heal.repair().expect("repair");
    let repair_us = start.elapsed().as_micros();
    if repair.pages_healed as usize != sig_pages {
        eprintln!("FAIL: repair healed {} of {sig_pages} pages", repair.pages_healed);
        mismatches += 1;
    }
    let healed_before = heal.db().stats().snapshot();
    let reads_healed = probe_reads(&heal, &want, "healed", &mut mismatches);
    if heal.db().stats().snapshot().since(&healed_before).get(Counter::DegradedReads) > 0 {
        eprintln!("FAIL: healed store still issues degraded reads");
        mismatches += 1;
    }
    if reads_healed != reads_clean {
        eprintln!(
            "FAIL: blocks-per-probe did not recover ({reads_healed} healed vs {reads_clean} clean)"
        );
        mismatches += 1;
    }
    eprintln!(
        "  self-healing: {sig_pages} pages rotted; probe reads {reads_clean} clean -> \
         {reads_degraded} degraded -> {reads_healed} healed; scrub {scrub_us} us, \
         repair {repair_us} us ({} cells)",
        repair.cells_rebuilt
    );

    // --- emit ------------------------------------------------------------
    let json = JsonObject::new()
        .text("bench", "recovery_bench")
        .value("tuples", cfg.tuples)
        .value("txns", cfg.txns)
        .value("ops_per_txn", cfg.ops_per_txn)
        .rows(
            "recovery_vs_wal",
            recovery_rows.iter().map(|(depth, wal_bytes, records, micros)| {
                JsonObject::new()
                    .value("txns", depth)
                    .value("wal_bytes", wal_bytes)
                    .value("records_replayed", records)
                    .value("recovery_us", micros)
            }),
        )
        .value("post_checkpoint_open_us", post_ckpt_micros)
        .rows(
            "write_throughput",
            throughput_rows.iter().map(|(label, secs, tps)| {
                JsonObject::new()
                    .text("mode", label)
                    .fixed("seconds", *secs, 4)
                    .fixed("txns_per_sec", *tps, 1)
            }),
        )
        .rows(
            "epoch_publish",
            publish_rows.iter().map(|(size, publishes, avg_ns)| {
                JsonObject::new()
                    .value("tuples", size)
                    .value("publishes", publishes)
                    .fixed("avg_publish_ns", *avg_ns, 0)
            }),
        )
        .fixed("publish_flat_ratio", publish_ratio, 3)
        .object(
            "group_commit",
            JsonObject::new()
                .value("fsync_delay_us", cfg.fsync_delay_us)
                .value("submitters", 8)
                .value("txns", group_txns)
                .fixed("baseline_txns_per_sec", base_tps, 1)
                .fixed("group_txns_per_sec", group_tps, 1)
                .fixed("speedup", speedup, 2)
                .value("batches", group_stats.batches)
                .value("max_batch", group_stats.max_batch)
                .fixed("fsync_amortization", group_stats.fsync_amortization(), 2),
        )
        .object(
            "self_healing",
            JsonObject::new()
                .value("sig_pages_rotted", sig_pages)
                .value("probe_reads_clean", reads_clean)
                .value("probe_reads_degraded", reads_degraded)
                .value("probe_reads_healed", reads_healed)
                .value("degraded_reads", degraded_reads)
                .value("scrub_us", scrub_us)
                .value("scrub_pages_scanned", scrub_report.pages_scanned)
                .value("repair_us", repair_us)
                .value("cells_rebuilt", repair.cells_rebuilt)
                .value("pages_healed", repair.pages_healed),
        )
        .value("result_mismatches", mismatches)
        .document();
    std::fs::write(&cfg.out, &json).expect("write results json");
    println!("{json}");

    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} recovered databases diverged from their masters");
        std::process::exit(1);
    }
    eprintln!("OK: recovery scales with WAL depth; checkpoint resets it; scrub+repair heals");
}
