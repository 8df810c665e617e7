//! Regenerates every table/figure of the paper's evaluation (§VI).
//!
//! Usage: `report <figure> [--scale small|medium|full] [--seed N]`
//! where `<figure>` is one of `fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 fig15 fig16 all`, or `ablation` for the design-choice
//! studies DESIGN.md calls out (signature assembly, lossy Bloom signatures,
//! compression codecs, partial page size, materialization depth).
//!
//! Times are *modeled* seconds (CPU + per-page disk latencies from
//! `CostModel::default()`, a 2008-era disk) so that the disk-bound behaviour
//! the paper measures is visible even though this harness runs in RAM. Raw
//! I/O counters are printed alongside. See EXPERIMENTS.md for the recorded
//! paper-vs-measured comparison.

use pcube_bench::*;
use pcube_core::{
    BooleanIndexSet, Engine, LinearFn, PCube, PCubeConfig, PCubeDb, SelectRoute,
    SkylineClass, TopKClass,
};
use pcube_cube::{MaterializationPlan, Predicate, Selection};
use pcube_data::{
    covertype_surrogate, sample_linear_weights, sample_selection, synthetic, SyntheticSpec,
};
use pcube_rtree::{RTree, RTreeConfig};
use pcube_storage::{CostModel, IoCategory, IoStats, Pager, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut args = cli::Args::from_env();
    let scale_name = args.take("--scale", String::from("small"));
    let seed = args.take("--seed", 42u64);
    let figure = args.rest().pop().unwrap_or_else(|| String::from("all"));
    let Some(scale) = Scale::try_named(&scale_name) else {
        eprintln!("unknown scale {scale_name:?}; use small, medium or full");
        std::process::exit(2);
    };
    println!(
        "# P-Cube evaluation — figure {figure}, scale {} (T sweep {:?}, default T {})\n",
        scale.name, scale.t_sweep, scale.t_default
    );
    let run_all = figure == "all";
    let mut ran = false;
    macro_rules! figure {
        ($name:literal, $f:expr) => {
            if run_all || figure == $name {
                ran = true;
                println!("\n==================== {} ====================", $name);
                $f;
            }
        };
    }
    figure!("fig5", fig5_construction(&scale, seed));
    figure!("fig6", fig6_size(&scale, seed));
    figure!("fig7", fig7_maintenance(&scale, seed));
    figure!("fig8", fig8_skyline_time(&scale, seed));
    figure!("fig9", fig9_disk_accesses(&scale, seed));
    figure!("fig10", fig10_peak_heap(&scale, seed));
    figure!("fig11", fig11_cardinality(&scale, seed));
    figure!("fig12", fig12_pref_dims(&scale, seed));
    figure!("fig13", fig13_topk(&scale, seed));
    figure!("fig14", fig14_covertype_predicates(&scale, seed));
    figure!("fig15", fig15_signature_loading(&scale, seed));
    figure!("fig16", fig16_drill_down(&scale, seed));
    if figure == "ablation" {
        ran = true;
        println!("\n==================== ablations ====================");
        ablation_assembly(&scale, seed);
        ablation_bloom(&scale, seed);
        ablation_compression(seed);
        ablation_page_size(&scale, seed);
        ablation_materialization(&scale, seed);
        ablation_per_cell_partitions(&scale, seed);
    }
    if !ran {
        eprintln!("unknown figure {figure:?}; use fig5..fig16, all, or ablation");
        std::process::exit(2);
    }
}

/// Ablation 0 (§IV-A): the paper's rejected second proposal — a private
/// data partition (R-tree) per cube cell — against the shared-template
/// P-Cube. Demonstrates why per-cell partitioning "is not scalable".
fn ablation_per_cell_partitions(scale: &Scale, seed: u64) {
    println!("\n-- ablation: per-cell R-trees (proposal 2) vs shared template + signatures --");
    let t = scale.t_default.min(100_000);
    let spec = default_spec(t, seed);
    let relation = pcube_data::synthetic(&spec);
    let stats = IoStats::new_shared();

    // Proposal 2: one R-tree per atomic cell.
    let started = Instant::now();
    let cfg = RTreeConfig::for_page(spec.n_pref, PAGE_SIZE);
    let mut per_cell_bytes = 0u64;
    for dim in 0..spec.n_bool {
        for (_, tids) in pcube_cube::group_by(&relation, pcube_cube::CuboidMask::atomic(dim)) {
            let items: Vec<(u64, Vec<f64>)> =
                tids.iter().map(|&tid| (tid, relation.pref_coords(tid))).collect();
            let pager = Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, stats.clone());
            let tree = RTree::bulk_load(pager, cfg, items, 0.7);
            per_cell_bytes += tree.pager().size_bytes();
        }
    }
    let per_cell_seconds = started.elapsed().as_secs_f64();

    // P-Cube: one shared tree + signatures.
    let started = Instant::now();
    let db = PCubeDb::build(pcube_data::synthetic(&spec), &PCubeConfig::default());
    let pcube_seconds = started.elapsed().as_secs_f64();
    let pcube_bytes = db.rtree().pager().size_bytes() + db.pcube().size_bytes();

    print_header("approach", &["build s", "bytes"]);
    print_row_seconds("per-cell", &[per_cell_seconds, per_cell_bytes as f64]);
    print_row_seconds("p-cube", &[pcube_seconds, pcube_bytes as f64]);
    println!(
        "(per-cell stores every tuple once per materialized cuboid — {}x the bytes)",
        (per_cell_bytes as f64 / pcube_bytes as f64).round()
    );
}

/// Ablation 1 (DESIGN.md): lazy per-cursor AND vs eager intersection with
/// the recursive fix-up for multi-predicate probes.
fn ablation_assembly(scale: &Scale, seed: u64) {
    println!("\n-- ablation: lazy vs eager signature assembly (2 predicates) --");
    let bench = build(&default_spec(scale.t_default.min(200_000), seed));
    let cost = CostModel::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA1);
    print_header("probe", &["modeled s", "rtree blk", "sig pages"]);
    for (name, eager) in [("lazy", false), ("eager", true)] {
        let mut ms = Vec::new();
        let mut rng2 = rng.clone();
        for _ in 0..scale.queries {
            let sel = sample_selection(bench.db.relation(), 2, &mut rng2);
            bench.db.stats().reset();
            let start = std::time::Instant::now();
            let probe = bench.db.pcube().probe(&sel, eager);
            let mut out = bench.db.run_with_probe(&sel, &SkylineClass::new(vec![0, 1, 2]), probe);
            // The probe was built ahead of the run: charge its assembly (the
            // eager row's full signature loads) to the query, off the ledger
            // reset above.
            out.stats.io = bench.db.stats().snapshot();
            out.stats.cpu_seconds = start.elapsed().as_secs_f64();
            ms.push(Measurement::from_stats(&out.stats, out.rows.len(), &cost));
        }
        let m = Measurement::mean(&ms);
        print_row_seconds(
            name,
            &[
                m.seconds,
                m.io.reads(IoCategory::RtreeBlock) as f64,
                m.io.reads(IoCategory::SignaturePage) as f64,
            ],
        );
    }
    let _ = &mut rng;
}

/// Ablation 2 (§VII): lossy Bloom signatures vs exact signatures.
fn ablation_bloom(scale: &Scale, seed: u64) {
    println!("\n-- ablation: exact signatures vs lossy Bloom signatures --");
    let bench = build(&default_spec(scale.t_default.min(200_000), seed));
    let cost = CostModel::default();
    print_header("probe", &["modeled s", "rtree blk", "verify I/O"]);
    let run_one = |name: &str, fp: Option<f64>| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB1);
        let mut ms = Vec::new();
        for _ in 0..scale.queries {
            let sel = sample_selection(bench.db.relation(), 1, &mut rng);
            bench.db.stats().reset();
            let class = SkylineClass::new(vec![0, 1, 2]);
            let out = match fp {
                None => bench.db.run(&sel, &class),
                Some(rate) => bloom::run(&bench.db, &sel, &class, rate),
            };
            ms.push(Measurement::from_stats(&out.stats, out.rows.len(), &cost));
        }
        let m = Measurement::mean(&ms);
        print_row_seconds(
            name,
            &[
                m.seconds,
                m.io.reads(IoCategory::RtreeBlock) as f64,
                m.io.reads(IoCategory::TupleRandomAccess) as f64,
            ],
        );
    };
    run_one("exact", None);
    run_one("bloom 1%", Some(0.01));
    run_one("bloom 10%", Some(0.10));
}

/// Ablation 3 (§IV-B.1): per-node codec choice — bytes per codec over the
/// node arrays of real signatures.
fn ablation_compression(seed: u64) {
    use pcube_bitmap::{AdaptiveCodec, Codec, LiteralCodec, RleCodec, WahCodec};
    println!("\n-- ablation: node-level compression codecs (total signature bytes) --");
    let bench = build(&default_spec(100_000, seed));
    let mut totals = [0usize; 4];
    let mut nodes = 0usize;
    for cell in 0..bench.db.pcube().registry().len() as u32 {
        let sig = bench.db.pcube().store().load_full(cell);
        for (_, bits) in sig.iter_nodes() {
            nodes += 1;
            totals[0] += LiteralCodec.encode(&bits).len();
            totals[1] += RleCodec.encode(&bits).len();
            totals[2] += WahCodec.encode(&bits).len();
            totals[3] += AdaptiveCodec.encode(&bits).len();
        }
    }
    print_header("codec", &["bytes", "bytes/node"]);
    for (name, total) in ["literal", "rle", "wah", "adaptive"].iter().zip(totals) {
        print_row_seconds(name, &[total as f64, total as f64 / nodes as f64]);
    }
}

/// Ablation 4 (§IV-B.1): the partial-signature page size P.
fn ablation_page_size(scale: &Scale, seed: u64) {
    println!("\n-- ablation: partial-signature page size (signature store bytes, pages) --");
    let spec = default_spec(scale.t_default.min(200_000), seed);
    print_header("page", &["store bytes", "partials"]);
    for page in [512usize, 1024, 4096, 16384] {
        let cfg = PCubeConfig { page_size: page, ..PCubeConfig::default() };
        let db = PCubeDb::build(pcube_data::synthetic(&spec), &cfg);
        print_row_seconds(
            &page.to_string(),
            &[db.pcube().size_bytes() as f64, db.pcube().store().partial_count() as f64],
        );
    }
}

/// Ablation 5 (§IV-B.2): atomic-only vs level-2 materialization.
fn ablation_materialization(scale: &Scale, seed: u64) {
    println!("\n-- ablation: atomic cuboids vs level-2 materialization (2-pred skylines) --");
    let spec = default_spec(scale.t_default.min(100_000), seed);
    let cost = CostModel::default();
    print_header("plan", &["build s", "store MB", "query s"]);
    for (name, plan) in [
        ("atomic", MaterializationPlan::Atomic),
        ("level-2", MaterializationPlan::UpToLevel(2)),
    ] {
        let started = Instant::now();
        let cfg = PCubeConfig { plan, ..PCubeConfig::default() };
        let db = PCubeDb::build(pcube_data::synthetic(&spec), &cfg);
        let build_s = started.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1);
        let mut total = 0.0;
        for _ in 0..scale.queries {
            let sel = sample_selection(db.relation(), 2, &mut rng);
            db.stats().reset();
            let out = db.run(&sel, &SkylineClass::new(vec![0, 1, 2]));
            total += out.stats.cpu_seconds + cost.seconds(&out.stats.io);
        }
        print_row_seconds(
            name,
            &[
                build_s,
                db.pcube().size_bytes() as f64 / (1024.0 * 1024.0),
                total / scale.queries as f64,
            ],
        );
    }
}

fn fmt_t(t: usize) -> String {
    if t.is_multiple_of(1_000_000) && t > 0 {
        format!("{}M", t / 1_000_000)
    } else if t.is_multiple_of(1_000) {
        format!("{}k", t / 1_000)
    } else {
        t.to_string()
    }
}

/// How many STR bulk loads Fig 5 times per T: one load of 100k rows takes
/// tens of milliseconds, so a single one shows the host's noise.
const STR_LOADS: usize = 5;

/// Fig 5: construction time vs T for R-tree (dynamic insertion, as Guttman
/// builds it), P-Cube (signature computation over the shared tree) and
/// B+-trees (sorted bulk load of every boolean dimension), plus the STR
/// bulk load the P-Cube is built over. The bulk builds are timed first, in
/// a process that has not yet run the seconds-long insertion build.
fn fig5_construction(scale: &Scale, seed: u64) {
    println!("Construction time (wall seconds).");
    println!("Paper shape: P-Cube 7-8x faster than R-tree, comparable to B+-tree.");
    println!(
        "R-tree(STR) is the median of {STR_LOADS} loads, with their min and max; \
         the bulk columns run before the insertion build.\n"
    );
    print_header("T", &["R-tree", "P-Cube", "B-tree", "R-tree(STR)", "STR min", "STR max"]);
    for &t in &scale.t_sweep {
        let spec = default_spec(t, seed);
        let relation = synthetic(&spec);
        let stats = IoStats::new_shared();
        let (tids, coords) = relation.live_points();
        let cfg = RTreeConfig::for_page(spec.n_pref, PAGE_SIZE);

        // STR bulk load, for reference, each load onto a fresh pager. The
        // last tree is kept for the signatures.
        let mut str_seconds = [0.0; STR_LOADS];
        let mut rtree = None;
        for seconds in &mut str_seconds {
            let started = Instant::now();
            let pager = Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, stats.clone());
            let loaded = RTree::bulk_load_points(pager, cfg, &tids, &coords, 1.0);
            *seconds = started.elapsed().as_secs_f64();
            rtree = Some(loaded);
        }
        let rtree = rtree.expect("STR_LOADS > 0");
        str_seconds.sort_by(f64::total_cmp);

        // P-Cube: signatures over the existing partition.
        let started = Instant::now();
        let pcube =
            PCube::build(&relation, &rtree, &MaterializationPlan::Atomic, PAGE_SIZE, stats.clone());
        let pcube_seconds = started.elapsed().as_secs_f64();
        drop(pcube);

        // B+-trees over every boolean dimension.
        let started = Instant::now();
        let indexes = BooleanIndexSet::build(&relation, PAGE_SIZE, stats.clone());
        let btree_seconds = started.elapsed().as_secs_f64();
        drop(indexes);

        // R-tree by one-at-a-time insertion (the paper's construction).
        let started = Instant::now();
        let pager = Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, stats.clone());
        let mut rtree_ins = RTree::new(pager, cfg);
        for (&tid, point) in tids.iter().zip(coords.chunks_exact(spec.n_pref)) {
            rtree_ins.insert(tid, point);
        }
        let rtree_seconds = started.elapsed().as_secs_f64();

        print_row_seconds(
            &fmt_t(t),
            &[
                rtree_seconds,
                pcube_seconds,
                btree_seconds,
                str_seconds[STR_LOADS / 2],
                str_seconds[0],
                str_seconds[STR_LOADS - 1],
            ],
        );
    }
}

/// Fig 6: materialized size vs T.
fn fig6_size(scale: &Scale, seed: u64) {
    println!("Materialized size.");
    println!("Paper shape: P-Cube ~2x smaller than B+-trees, ~8x smaller than R-tree.\n");
    print_header("T", &["R-tree", "P-Cube", "B-tree"]);
    for &t in &scale.t_sweep {
        let bench = build(&default_spec(t, seed));
        let rtree_b = bench.db.rtree().pager().size_bytes();
        let pcube_b = bench.db.pcube().size_bytes();
        let btree_b = bench.indexes.size_bytes();
        print!("{:<14}", fmt_t(t));
        for b in [rtree_b, pcube_b, btree_b] {
            print!("{:>14}", fmt_bytes(b));
        }
        println!();
    }
}

/// Fig 7: incremental update time for 1/10/100 inserted tuples vs full
/// recomputation.
fn fig7_maintenance(scale: &Scale, seed: u64) {
    let t = scale.t_default;
    println!("Incremental maintenance on T = {} (wall seconds).", fmt_t(t));
    println!("Paper shape: incremental << recompute; batches amortize per-tuple cost.\n");
    let spec = default_spec(t, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 7);
    print_header("inserted", &["incremental", "per-tuple", "recompute"]);
    for n_insert in [1usize, 10, 100] {
        let mut db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
        let mut coords = vec![0.0f64; spec.n_pref];
        let started = Instant::now();
        for _ in 0..n_insert {
            use rand::Rng;
            let codes: Vec<u32> =
                (0..spec.n_bool).map(|_| rng.gen_range(0..spec.cardinality)).collect();
            pcube_data::sample_pref(&mut rng, spec.distribution, &mut coords);
            db.insert_coded(&codes, &coords);
        }
        let incremental = started.elapsed().as_secs_f64();

        // Full recomputation of every signature (the non-incremental
        // alternative the paper compares against).
        let started = Instant::now();
        let stats = IoStats::new_shared();
        let _ = PCube::build(
            db.relation(),
            db.rtree(),
            &MaterializationPlan::Atomic,
            PAGE_SIZE,
            stats,
        );
        let recompute = started.elapsed().as_secs_f64();
        print_row_seconds(
            &n_insert.to_string(),
            &[incremental, incremental / n_insert as f64, recompute],
        );
    }
}

fn skyline_sweep_row(
    bench: &Bench,
    scale: &Scale,
    seed: u64,
    pref_dims: &[usize],
) -> (Measurement, Measurement, Measurement, Measurement) {
    let cost = CostModel::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let mut sig = Vec::new();
    let mut boolean = Vec::new();
    let mut bool_idx = Vec::new();
    let mut dom = Vec::new();
    let skyline = SkylineClass::new(pref_dims.to_vec());
    let via = |route| Engine::BooleanFirst(&bench.indexes, route);
    for _ in 0..scale.queries {
        let sel = sample_selection(bench.db.relation(), 1, &mut rng);
        sig.push(measure(bench, &sel, &skyline, Engine::PCube, &cost));
        boolean.push(measure(bench, &sel, &skyline, via(SelectRoute::Auto), &cost));
        bool_idx.push(measure(bench, &sel, &skyline, via(SelectRoute::Index), &cost));
        dom.push(measure(bench, &sel, &skyline, Engine::DominationFirst, &cost));
    }
    (
        Measurement::mean(&sig),
        Measurement::mean(&boolean),
        Measurement::mean(&bool_idx),
        Measurement::mean(&dom),
    )
}

/// Fig 8: skyline execution time vs T (single boolean predicate).
fn fig8_skyline_time(scale: &Scale, seed: u64) {
    println!("Skyline execution time vs T (modeled seconds, 1 predicate).");
    println!("Paper shape: Signature >= 10x faster than Boolean and Domination.");
    println!("Boolean = best-of(scan, index); Bool(idx) = the unclustered index-scan");
    println!("variant whose cost the paper's Boolean series exhibits (see EXPERIMENTS.md).\n");
    print_header("T", &["Boolean", "Bool(idx)", "Domination", "Signature"]);
    for &t in &scale.t_sweep {
        let bench = build(&default_spec(t, seed));
        let (sig, boolean, bool_idx, dom) = skyline_sweep_row(&bench, scale, seed, &[0, 1, 2]);
        print_row_seconds(
            &fmt_t(t),
            &[boolean.seconds, bool_idx.seconds, dom.seconds, sig.seconds],
        );
    }
}

/// Fig 9: disk-access breakdown vs T: DBool/DBlock (Domination) and
/// SBlock/SSig (Signature).
fn fig9_disk_accesses(scale: &Scale, seed: u64) {
    println!("Disk accesses vs T (counts, 1 predicate).");
    println!("Paper shape: SSig <= 1% of SBlock; SBlock < 2/3 of DBlock; DBool large.\n");
    print_header("T", &["DBool", "DBlock", "SBlock", "SSig"]);
    for &t in &scale.t_sweep {
        let bench = build(&default_spec(t, seed));
        let (sig, _, _, dom) = skyline_sweep_row(&bench, scale, seed, &[0, 1, 2]);
        print_row_counts(
            &fmt_t(t),
            &[
                dom.io.reads(IoCategory::TupleRandomAccess),
                dom.io.reads(IoCategory::RtreeBlock),
                sig.io.reads(IoCategory::RtreeBlock),
                sig.io.reads(IoCategory::SignaturePage),
            ],
        );
    }
}

/// Fig 10: peak candidate-heap size vs T.
fn fig10_peak_heap(scale: &Scale, seed: u64) {
    println!("Peak candidate-heap size vs T (entries, 1 predicate).");
    println!("Paper shape: Signature ~10x smaller than Domination and Boolean.\n");
    print_header("T", &["Boolean", "Domination", "Signature"]);
    for &t in &scale.t_sweep {
        let bench = build(&default_spec(t, seed));
        let (sig, boolean, _, dom) = skyline_sweep_row(&bench, scale, seed, &[0, 1, 2]);
        print_row_counts(
            &fmt_t(t),
            &[boolean.peak_heap as u64, dom.peak_heap as u64, sig.peak_heap as u64],
        );
    }
}

/// Fig 11: skyline time vs boolean cardinality C (T fixed).
fn fig11_cardinality(scale: &Scale, seed: u64) {
    let t = scale.t_default;
    println!("Skyline time vs boolean cardinality C (modeled seconds, T = {}).", fmt_t(t));
    println!("Paper shape: Boolean improves with C, Domination degrades, Signature best.\n");
    print_header("C", &["Boolean", "Domination", "Signature"]);
    for c in [10u32, 100, 1000] {
        let spec = SyntheticSpec { cardinality: c, ..default_spec(t, seed) };
        let bench = build(&spec);
        let (sig, boolean, _, dom) = skyline_sweep_row(&bench, scale, seed, &[0, 1, 2]);
        print_row_seconds(&c.to_string(), &[boolean.seconds, dom.seconds, sig.seconds]);
    }
}

/// Fig 12: skyline time vs number of preference dimensions.
fn fig12_pref_dims(scale: &Scale, seed: u64) {
    let t = scale.t_default;
    println!("Skyline time vs preference dimensions Dp (modeled seconds, T = {}).", fmt_t(t));
    println!("Paper shape: Domination degrades with Dp, Boolean flat, Signature best.\n");
    print_header("Dp", &["Boolean", "Domination", "Signature"]);
    for dp in [2usize, 3, 4] {
        let spec = SyntheticSpec { n_pref: dp, ..default_spec(t, seed) };
        let bench = build(&spec);
        let dims: Vec<usize> = (0..dp).collect();
        let (sig, boolean, _, dom) = skyline_sweep_row(&bench, scale, seed, &dims);
        print_row_seconds(&dp.to_string(), &[boolean.seconds, dom.seconds, sig.seconds]);
    }
}

/// Fig 13: top-k time vs k with a random positive linear function.
fn fig13_topk(scale: &Scale, seed: u64) {
    let t = scale.t_default;
    println!("Top-k time vs k, f = aX+bY+cZ (modeled seconds, T = {}).", fmt_t(t));
    println!("Paper shape: Signature best; beats IndexMerge; Ranking good at small k;");
    println!("Boolean flat in k.\n");
    let bench = build(&default_spec(t, seed));
    let cost = CostModel::default();
    print_header("k", &["Boolean", "Ranking", "IndexMerge", "Signature"]);
    for k in [10usize, 20, 50, 100] {
        let mut rng = StdRng::seed_from_u64(seed ^ k as u64);
        let mut rows = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..scale.queries {
            let sel = sample_selection(bench.db.relation(), 1, &mut rng);
            let f = LinearFn::new(sample_linear_weights(3, &mut rng));
            let topk = TopKClass::new(k, &f);
            let engines = [
                Engine::BooleanFirst(&bench.indexes, SelectRoute::Auto),
                Engine::DominationFirst,
                Engine::IndexMerge(&bench.indexes),
                Engine::PCube,
            ];
            for (row, engine) in rows.iter_mut().zip(engines) {
                row.push(measure(&bench, &sel, &topk, engine, &cost));
            }
        }
        print_row_seconds(
            &k.to_string(),
            &[
                Measurement::mean(&rows[0]).seconds,
                Measurement::mean(&rows[1]).seconds,
                Measurement::mean(&rows[2]).seconds,
                Measurement::mean(&rows[3]).seconds,
            ],
        );
    }
}

fn covertype_bench(scale: &Scale, seed: u64) -> Bench {
    println!("(building CoverType surrogate, {} rows …)", scale.covertype_rows);
    build_from(covertype_surrogate(scale.covertype_rows, seed))
}

/// Fig 14: skyline time vs number of boolean predicates on CoverType.
fn fig14_covertype_predicates(scale: &Scale, seed: u64) {
    println!("Skyline time vs #predicates on the CoverType surrogate (modeled s).");
    println!("Paper shape: Signature & Boolean flat; Domination grows sharply.\n");
    let bench = covertype_bench(scale, seed);
    let cost = CostModel::default();
    let skyline = SkylineClass::new(vec![0, 1, 2]);
    print_header("#preds", &["Boolean", "Domination", "Signature"]);
    for n_preds in 1..=4usize {
        let mut rng = StdRng::seed_from_u64(seed ^ (n_preds as u64) << 8);
        let mut rows = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..scale.queries {
            let sel = sample_selection(bench.db.relation(), n_preds, &mut rng);
            let engines = [
                Engine::BooleanFirst(&bench.indexes, SelectRoute::Auto),
                Engine::DominationFirst,
                Engine::PCube,
            ];
            for (row, engine) in rows.iter_mut().zip(engines) {
                row.push(measure(&bench, &sel, &skyline, engine, &cost));
            }
        }
        print_row_seconds(
            &n_preds.to_string(),
            &[
                Measurement::mean(&rows[0]).seconds,
                Measurement::mean(&rows[1]).seconds,
                Measurement::mean(&rows[2]).seconds,
            ],
        );
    }
}

/// Fig 15: signature loading time vs query processing time.
fn fig15_signature_loading(scale: &Scale, seed: u64) {
    println!("Signature loading vs query time on CoverType (modeled seconds).");
    println!("Paper shape: loading grows slightly with #predicates, stays < 10%.\n");
    let bench = covertype_bench(scale, seed);
    let cost = CostModel::default();
    print_header("#preds", &["Load", "Query", "Load %", "sig pages", "dir pages"]);
    for n_preds in 1..=4usize {
        let mut rng = StdRng::seed_from_u64(seed ^ (n_preds as u64) << 9);
        let mut load = 0.0;
        let mut query = 0.0;
        let mut sig_pages = 0u64;
        let mut dir_pages = 0u64;
        for _ in 0..scale.queries {
            let sel = sample_selection(bench.db.relation(), n_preds, &mut rng);
            let m = measure(&bench, &sel, &SkylineClass::new(vec![0, 1, 2]), Engine::PCube, &cost);
            let l = modeled_io(
                &m.io,
                &cost,
                &[IoCategory::SignaturePage, IoCategory::BptreePage],
            );
            load += l;
            query += m.seconds - l;
            sig_pages += m.io.reads(IoCategory::SignaturePage);
            dir_pages += m.io.reads(IoCategory::BptreePage);
        }
        let n = scale.queries as f64;
        print_row_seconds(
            &n_preds.to_string(),
            &[
                load / n,
                query / n,
                100.0 * load / (load + query),
                sig_pages as f64 / n,
                dir_pages as f64 / n,
            ],
        );
    }
}

/// Fig 16: drill-down (and roll-up) continuation vs a fresh query.
fn fig16_drill_down(scale: &Scale, seed: u64) {
    println!("Drill-down / roll-up vs new query on CoverType (modeled seconds).");
    println!("Paper shape: large speed-up from reusing cached lists (Lemma 2).\n");
    let bench = covertype_bench(scale, seed);
    let cost = CostModel::default();
    print_header("#preds", &["NewQuery", "DrillDown", "RollUpFrom", "RollUp"]);
    let skyline = SkylineClass::new(vec![0, 1, 2]);
    for n_preds in 2..=4usize {
        let mut rng = StdRng::seed_from_u64(seed ^ (n_preds as u64) << 10);
        let mut fresh_s = 0.0;
        let mut drill_s = 0.0;
        let mut roll_from_s = 0.0;
        let mut roll_s = 0.0;
        for _ in 0..scale.queries {
            let sel = sample_selection(bench.db.relation(), n_preds, &mut rng);
            let base: Selection = sel[..n_preds - 1].to_vec();
            let extra: Predicate = sel[n_preds - 1];
            // Step 1: query with k-1 predicates (not measured here).
            bench.db.stats().reset();
            let (_, first) = bench.db.run_resumable(&base, &skyline);
            // Step 2a: drill down with the k-th predicate.
            bench.db.stats().reset();
            let (drilled, drilled_state) = bench.db.drill_down(first, extra);
            drill_s += drilled.stats.cpu_seconds + cost.seconds(&drilled.stats.io);
            // Step 2b: the same query from scratch.
            bench.db.stats().reset();
            let fresh = bench.db.run(&sel, &skyline);
            fresh_s += fresh.stats.cpu_seconds + cost.seconds(&fresh.stats.io);
            assert_eq!(drilled.rows.len(), fresh.rows.len());
            // Roll-up: remove the k-th predicate again, continuing from the
            // drilled state; compare against the fresh (k-1)-pred query.
            bench.db.stats().reset();
            let (rolled, _) = bench.db.roll_up(drilled_state, extra.dim);
            roll_s += rolled.stats.cpu_seconds + cost.seconds(&rolled.stats.io);
            bench.db.stats().reset();
            let fresh_base = bench.db.run(&base, &skyline);
            roll_from_s += fresh_base.stats.cpu_seconds + cost.seconds(&fresh_base.stats.io);
            assert_eq!(rolled.rows.len(), fresh_base.rows.len());
        }
        let n = scale.queries as f64;
        print_row_seconds(
            &n_preds.to_string(),
            &[fresh_s / n, drill_s / n, roll_from_s / n, roll_s / n],
        );
    }
}
