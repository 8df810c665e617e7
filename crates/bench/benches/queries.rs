//! End-to-end query benchmarks: one Criterion target per method for the
//! skyline (Fig 8's methods) and top-k (Fig 13's methods) queries, plus the
//! lazy-vs-eager signature assembly ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use pcube_baselines::{bbs_skyline, index_merge_topk, ranking_topk, BooleanIndexSet};
use pcube_bench::{build, default_spec, Bench};
use pcube_core::{
    DynamicSkylineClass, HullClass, LinearFn, ParallelOptions, SkylineClass, TopKClass,
};
use pcube_cube::Selection;
use pcube_data::sample_selection;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> (Bench, Vec<Selection>, Vec<Selection>) {
    let bench = build(&default_spec(50_000, 99));
    let mut rng = StdRng::seed_from_u64(3);
    let one: Vec<Selection> =
        (0..8).map(|_| sample_selection(bench.db.relation(), 1, &mut rng)).collect();
    let two: Vec<Selection> =
        (0..8).map(|_| sample_selection(bench.db.relation(), 2, &mut rng)).collect();
    (bench, one, two)
}

fn bench_skyline_methods(c: &mut Criterion) {
    let (bench, sels, _) = fixture();
    let dims = [0usize, 1, 2];
    let mut i = 0usize;
    c.bench_function("skyline/signature_50k", |b| {
        b.iter(|| {
            i += 1;
            bench.db.run(&sels[i % sels.len()], &SkylineClass::new(dims.to_vec())).rows.len()
        })
    });
    c.bench_function("skyline/boolean_50k", |b| {
        b.iter(|| {
            i += 1;
            bench.indexes.skyline(&bench.db, &sels[i % sels.len()], &dims).skyline.len()
        })
    });
    c.bench_function("skyline/domination_50k", |b| {
        b.iter(|| {
            i += 1;
            bbs_skyline(&bench.db, &sels[i % sels.len()], &dims).0.len()
        })
    });
}

fn bench_topk_methods(c: &mut Criterion) {
    let (bench, sels, _) = fixture();
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let mut i = 0usize;
    c.bench_function("topk/signature_50k_k10", |b| {
        b.iter(|| {
            i += 1;
            bench.db.run(&sels[i % sels.len()], &TopKClass::new(10, &f)).rows.len()
        })
    });
    c.bench_function("topk/boolean_50k_k10", |b| {
        b.iter(|| {
            i += 1;
            bench.indexes.topk(&bench.db, &sels[i % sels.len()], 10, &f).topk.len()
        })
    });
    c.bench_function("topk/ranking_50k_k10", |b| {
        b.iter(|| {
            i += 1;
            ranking_topk(&bench.db, &sels[i % sels.len()], 10, &f).0.len()
        })
    });
    c.bench_function("topk/index_merge_50k_k10", |b| {
        b.iter(|| {
            i += 1;
            index_merge_topk(&bench.db, &bench.indexes, &sels[i % sels.len()], 10, &f).0.len()
        })
    });
    // The index-building cost the baselines amortize (context for Fig 5).
    c.bench_function("build/boolean_indexes_50k", |b| {
        b.iter(|| BooleanIndexSet::build(bench.db.relation(), 4096, bench.db.stats().clone()))
    });
}

fn bench_assembly_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: lazy per-cursor AND vs eager intersected assembly
    // for multi-predicate skylines.
    let (bench, _, sels2) = fixture();
    let skyline = SkylineClass::new(vec![0, 1, 2]);
    let mut i = 0usize;
    c.bench_function("skyline/2preds_lazy_assembly", |b| {
        b.iter(|| {
            i += 1;
            bench.db.run(&sels2[i % sels2.len()], &skyline).rows.len()
        })
    });
    c.bench_function("skyline/2preds_eager_assembly", |b| {
        b.iter(|| {
            i += 1;
            let eager = ParallelOptions { workers: 1, eager_assembly: true };
            bench.db.par_run(&sels2[i % sels2.len()], &skyline, eager).rows.len()
        })
    });
}

fn bench_extensions(c: &mut Criterion) {
    // The §VII extensions: dynamic skylines and convex hulls.
    let (bench, sels, _) = fixture();
    let mut i = 0usize;
    c.bench_function("extensions/dynamic_skyline_50k", |b| {
        b.iter(|| {
            i += 1;
            let class = DynamicSkylineClass::new(&[0.5, 0.5, 0.5], vec![0, 1, 2]);
            bench.db.run(&sels[i % sels.len()], &class).rows.len()
        })
    });
    c.bench_function("extensions/convex_hull_50k", |b| {
        b.iter(|| {
            i += 1;
            bench.db.run(&sels[i % sels.len()], &HullClass::new((0, 1))).rows.len()
        })
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_skyline_methods, bench_topk_methods, bench_assembly_ablation, bench_extensions
}
criterion_main!(benches);
