//! How `engine_seam.rs`' governed rows issue their runs — included
//! (`#[path]`) by that suite. The two calls live here, apart from the pinned
//! table, so the table's file stays byte-identical when the facade's call
//! shape changes; what a governed run reads and where it stops must not.

use pcube::core::{CancelToken, ClassOutcome, PCubeDb, ParallelOptions, QueryBudget, QueryClass};
use pcube::cube::Selection;

/// A governed run with no worker to fan out to.
pub fn serial<C: QueryClass + Sync>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> ClassOutcome<C::Row> {
    db.par_run(selection, class, options(0, budget, cancel))
}

/// The same run at one worker.
pub fn one_worker<C: QueryClass + Sync>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> ClassOutcome<C::Row> {
    db.par_run(selection, class, options(1, budget, cancel))
}

fn options(workers: usize, budget: &QueryBudget, cancel: Option<&CancelToken>) -> ParallelOptions {
    ParallelOptions { workers, budget: *budget, cancel: cancel.cloned() }
}
