//! Shared harness for reproducing the paper's evaluation (§VI).
//!
//! Each figure has a runner in the `report` binary; this library provides
//! the common pieces: scaled workload construction, per-method measurement,
//! and table printing. Absolute numbers differ from the paper's 2008 testbed
//! (see DESIGN.md §3 — I/O is simulated and charged through a
//! [`CostModel`]); the reproduction target is the *shape* of each figure.
//!
//! The concurrency and robustness harnesses draw their queries from [`mix`];
//! the chaos soak's oracles, faults, tally and audit are [`soak`]; every
//! binary reads its command line and writes its report through [`cli`].
//! The lossy Bloom signatures of §VII are an ablation, not a served probe:
//! [`bloom`] holds them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod cli;
pub mod mix;
pub mod soak;

use pcube_core::{
    run_class_engine, BooleanIndexSet, Engine, PCubeConfig, PCubeDb, QueryBudget, QueryClass,
    QueryStats,
};
use pcube_cube::Selection;
use pcube_data::{synthetic, Distribution, SyntheticSpec};
use pcube_storage::{CostModel, IoCategory, IoSnapshot};

/// How large the experiments run. The paper sweeps 1M–10M tuples; `small`
/// keeps the full suite in CI time, `full` is paper scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Scale name (`small`, `medium`, `full`).
    pub name: &'static str,
    /// Tuple counts for the T-sweeps (Figs 5, 6, 8, 9, 10).
    pub t_sweep: Vec<usize>,
    /// Tuple count for fixed-T experiments (Figs 7, 11, 12, 13).
    pub t_default: usize,
    /// Rows for the CoverType surrogate (Figs 14–16).
    pub covertype_rows: usize,
    /// Queries averaged per data point.
    pub queries: usize,
}

impl Scale {
    /// Looks up a scale by name, or `None` for an unknown one.
    pub fn try_named(name: &str) -> Option<Scale> {
        match name {
            "small" | "medium" | "full" => Some(Self::named(name)),
            _ => None,
        }
    }

    /// Looks up a scale by name.
    ///
    /// # Panics
    /// Panics on an unknown name.
    pub fn named(name: &str) -> Scale {
        match name {
            "small" => Scale {
                name: "small",
                t_sweep: vec![20_000, 50_000, 100_000],
                t_default: 100_000,
                covertype_rows: 60_000,
                queries: 5,
            },
            "medium" => Scale {
                name: "medium",
                t_sweep: vec![100_000, 500_000, 1_000_000],
                t_default: 1_000_000,
                covertype_rows: pcube_data::COVERTYPE_ROWS,
                queries: 5,
            },
            "full" => Scale {
                name: "full",
                t_sweep: vec![1_000_000, 5_000_000, 10_000_000],
                t_default: 1_000_000,
                covertype_rows: pcube_data::COVERTYPE_ROWS,
                queries: 3,
            },
            other => panic!("unknown scale {other:?} (use small|medium|full)"),
        }
    }
}

/// The paper's default synthetic spec (§VI-B.1) at a given `T`.
pub fn default_spec(t: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        n_tuples: t,
        n_bool: 3,
        n_pref: 3,
        cardinality: 100,
        distribution: Distribution::Uniform,
        seed,
    }
}

/// A built database plus the baselines' boolean indexes.
pub struct Bench {
    /// The P-Cube database (relation + R-tree + signatures).
    pub db: PCubeDb,
    /// One B+-tree per boolean dimension (Boolean & Index-merge baselines).
    pub indexes: BooleanIndexSet,
}

/// Builds the database and baseline indexes for a synthetic spec.
pub fn build(spec: &SyntheticSpec) -> Bench {
    let db = PCubeDb::build(synthetic(spec), &PCubeConfig::default());
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    Bench { db, indexes }
}

/// Builds the database and indexes over an arbitrary relation.
pub fn build_from(relation: pcube_cube::Relation) -> Bench {
    let db = PCubeDb::build(relation, &PCubeConfig::default());
    let indexes = BooleanIndexSet::build(db.relation(), 4096, db.stats().clone());
    Bench { db, indexes }
}

/// One method's measurement for one query, in modeled seconds plus the raw
/// counters behind it.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// CPU seconds + modeled I/O seconds.
    pub seconds: f64,
    /// CPU-only seconds.
    pub cpu_seconds: f64,
    /// The I/O the query performed.
    pub io: IoSnapshot,
    /// Peak candidate-heap (or candidate-set) size.
    pub peak_heap: usize,
    /// Result cardinality.
    pub results: usize,
}

impl Measurement {
    /// Folds a [`QueryStats`] into a measurement under `cost`.
    pub fn from_stats(stats: &QueryStats, results: usize, cost: &CostModel) -> Measurement {
        Measurement {
            seconds: stats.cpu_seconds + cost.seconds(&stats.io),
            cpu_seconds: stats.cpu_seconds,
            io: stats.io,
            peak_heap: stats.peak_heap,
            results,
        }
    }

    /// Averages a set of measurements (io keeps the last sample's counters
    /// for breakdown display; seconds and peaks are means).
    pub fn mean(samples: &[Measurement]) -> Measurement {
        assert!(!samples.is_empty());
        let n = samples.len() as f64;
        Measurement {
            seconds: samples.iter().map(|m| m.seconds).sum::<f64>() / n,
            cpu_seconds: samples.iter().map(|m| m.cpu_seconds).sum::<f64>() / n,
            io: samples.last().unwrap().io,
            peak_heap: (samples.iter().map(|m| m.peak_heap).sum::<usize>() as f64 / n) as usize,
            results: (samples.iter().map(|m| m.results).sum::<usize>() as f64 / n) as usize,
        }
    }
}

/// Runs `class` over `sel` on one engine of §VI-A and measures it. The
/// engines that read boolean indexes are handed [`Bench::indexes`] (and, for
/// Boolean-first, the retrieval route) by the caller.
pub fn measure<C: QueryClass>(
    bench: &Bench,
    sel: &Selection,
    class: &C,
    engine: Engine<'_>,
    cost: &CostModel,
) -> Measurement {
    bench.db.stats().reset();
    let out = run_class_engine(&bench.db, sel, class, engine, &QueryBudget::unlimited(), None);
    Measurement::from_stats(&out.stats, out.rows.len(), cost)
}

/// Prints a table header like `T        Boolean  Domination  Signature`.
pub fn print_header(x_label: &str, methods: &[&str]) {
    print!("{x_label:<14}");
    for m in methods {
        print!("{m:>14}");
    }
    println!();
    println!("{}", "-".repeat(14 + 14 * methods.len()));
}

/// Prints one row of seconds.
pub fn print_row_seconds(x: &str, values: &[f64]) {
    print!("{x:<14}");
    for v in values {
        print!("{v:>14.4}");
    }
    println!();
}

/// Prints one row of counts.
pub fn print_row_counts(x: &str, values: &[u64]) {
    print!("{x:<14}");
    for v in values {
        print!("{v:>14}");
    }
    println!();
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KB", b as f64 / 1024.0)
    }
}

/// Convenience: modeled I/O seconds for a subset of categories.
pub fn modeled_io(io: &IoSnapshot, cost: &CostModel, categories: &[IoCategory]) -> f64 {
    categories
        .iter()
        .map(|&c| {
            let per = match c {
                IoCategory::HeapScan => cost.sequential_page_seconds,
                _ => cost.random_page_seconds,
            };
            (io.reads(c) + io.writes(c)) as f64 * per
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_data::sample_selection;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scales_resolve() {
        for name in ["small", "medium", "full"] {
            let s = Scale::named(name);
            assert_eq!(s.name, name);
            assert_eq!(s.t_sweep.len(), 3);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_scale_panics() {
        let _ = Scale::named("galactic");
    }

    #[test]
    fn measurements_cover_all_methods() {
        use pcube_core::{SelectRoute, SkylineClass, TopKClass};
        let bench = build(&default_spec(2_000, 1));
        let mut rng = StdRng::seed_from_u64(2);
        let sel = sample_selection(bench.db.relation(), 1, &mut rng);
        let cost = CostModel::default();
        let boolean = Engine::BooleanFirst(&bench.indexes, SelectRoute::Auto);
        let skyline = SkylineClass::new(vec![0, 1, 2]);
        let sig = measure(&bench, &sel, &skyline, Engine::PCube, &cost);
        for engine in [boolean, Engine::DominationFirst] {
            let m = measure(&bench, &sel, &skyline, engine, &cost);
            assert_eq!(m.results, sig.results);
            assert!(m.seconds > 0.0 && sig.seconds > 0.0);
        }

        let f = pcube_core::LinearFn::new(vec![0.5, 0.3, 0.2]);
        let top5 = TopKClass::new(5, &f);
        let sig = measure(&bench, &sel, &top5, Engine::PCube, &cost);
        for engine in [boolean, Engine::DominationFirst, Engine::IndexMerge(&bench.indexes)] {
            assert_eq!(measure(&bench, &sel, &top5, engine, &cost).results, sig.results);
        }
    }

    #[test]
    fn mean_averages_seconds() {
        let a = Measurement { seconds: 1.0, ..Default::default() };
        let b = Measurement { seconds: 3.0, ..Default::default() };
        assert_eq!(Measurement::mean(&[a, b]).seconds, 2.0);
    }

    #[test]
    fn fmt_bytes_units() {
        assert!(fmt_bytes(512).ends_with("KB"));
        assert!(fmt_bytes(5 << 20).ends_with("MB"));
        assert!(fmt_bytes(3 << 30).ends_with("GB"));
    }
}
