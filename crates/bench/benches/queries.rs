//! End-to-end query benchmarks: one Criterion target per method for the
//! skyline (Fig 8's methods) and top-k (Fig 13's methods) queries, plus the
//! lazy-vs-eager signature assembly ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use pcube_bench::{build, default_spec, Bench};
use pcube_core::{
    run_class_engine, BooleanIndexSet, DynamicSkylineClass, Engine, HullClass, LinearFn,
    QueryBudget, QueryClass, SelectRoute, SkylineClass, TopKClass,
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

/// One Criterion target per `(name, engine)`: `class` over the selections
/// in turn, through the engine seam.
fn bench_engines<C: QueryClass>(
    c: &mut Criterion,
    bench: &Bench,
    sels: &[Selection],
    class: &C,
    engines: &[(&str, Engine<'_>)],
) {
    let mut i = 0usize;
    for &(name, engine) in engines {
        c.bench_function(name, |b| {
            b.iter(|| {
                i += 1;
                let sel = &sels[i % sels.len()];
                run_class_engine(&bench.db, sel, class, engine, &QueryBudget::unlimited(), None)
                    .rows
                    .len()
            })
        });
    }
}

fn bench_skyline_methods(c: &mut Criterion) {
    let (bench, sels, _) = fixture();
    let engines = [
        ("skyline/signature_50k", Engine::PCube),
        ("skyline/boolean_50k", Engine::BooleanFirst(&bench.indexes, SelectRoute::Auto)),
        ("skyline/domination_50k", Engine::DominationFirst),
    ];
    bench_engines(c, &bench, &sels, &SkylineClass::new(vec![0, 1, 2]), &engines);
}

fn bench_topk_methods(c: &mut Criterion) {
    let (bench, sels, _) = fixture();
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let engines = [
        ("topk/signature_50k_k10", Engine::PCube),
        ("topk/boolean_50k_k10", Engine::BooleanFirst(&bench.indexes, SelectRoute::Auto)),
        ("topk/ranking_50k_k10", Engine::DominationFirst),
        ("topk/index_merge_50k_k10", Engine::IndexMerge(&bench.indexes)),
    ];
    bench_engines(c, &bench, &sels, &TopKClass::new(10, &f), &engines);
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
            let sel = &sels2[i % sels2.len()];
            bench.db.run_with_probe(sel, &skyline, bench.db.pcube().probe(sel, true)).rows.len()
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
