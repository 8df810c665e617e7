//! The comparison methods of §VI-A — **Boolean**-first, **Domination**-first
//! / **Ranking** (BBS \[9\] + minimal probing \[3\]) and **Index Merge**
//! \[14\] — are engines of `pcube-core`'s one engine seam
//! ([`run_class_engine`] over [`Engine`]): Algorithm 1 behind a different
//! boolean pruner, or the class's in-memory step behind a B+-tree or
//! heap-scan selection, all measured on one I/O ledger. What lives here:
//!
//! * [`reference`](mod@reference) — in-memory oracles (a BNL skyline and a
//!   sort-based top-k) used as ground truth by the test suites and the
//!   planner benchmark;
//! * re-exports of the boolean indexes those engines read, and
//!   [`index_merge_topk`], the index-merge engine under its paper name.
//!
//! Why a crate of 173 lines stays a crate: `benchmark/Cargo.toml` (its own
//! workspace, frozen for every PR that is not a benchmark PR) path-depends
//! on `pcube-baselines` and its adapter imports [`index_merge_topk`],
//! [`BooleanIndexSet`] and [`SelectRoute`] under these paths, so folding
//! the crate into `pcube-core` — or trimming this manifest's unused
//! dependencies, which rewrites `benchmark/Cargo.lock` — belongs to a
//! benchmark PR.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;

pub use pcube_core::{BooleanIndexSet, SelectRoute};

use pcube_core::{
    run_class_engine, Engine, PCubeDb, QueryBudget, QueryStats, RankingFunction, TopKClass,
};
use pcube_cube::Selection;

/// Top-k by progressive & selective index merging: `(tid, coordinates,
/// score)` ascending, through [`Engine::IndexMerge`] over `indexes`.
pub fn index_merge_topk(
    db: &PCubeDb,
    indexes: &BooleanIndexSet,
    selection: &Selection,
    k: usize,
    f: &dyn RankingFunction,
) -> (Vec<(u64, Vec<f64>, f64)>, QueryStats) {
    let (class, budget) = (TopKClass::new(k, f), QueryBudget::unlimited());
    let out = run_class_engine(db, selection, &class, Engine::IndexMerge(indexes), &budget, None);
    (out.rows, out.stats)
}
