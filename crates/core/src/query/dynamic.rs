//! Dynamic skyline queries — the §VII extension ("Algorithm 1 can also be
//! easily extended to support other preference queries, such as dynamic
//! skyline queries [9]").
//!
//! Given a query point `q`, tuple `p` *dynamically dominates* `p'` iff
//! `|p_d − q_d| ≤ |p'_d − q_d|` on every chosen dimension and strictly on at
//! least one: the skyline of the data after the coordinate transform
//! `x ↦ |x − q|`. The same branch-and-bound framework applies because the
//! transform of a box has an attainable per-dimension lower corner
//! (`min_{x∈[lo,hi]} |x − q_d|` is reached independently per dimension), so
//! both the BBS ordering key and the dominance prune carry over — the query
//! is the [`kernel`](crate::query::kernel) skyline logic given the query
//! point.

use pcube_cube::{normalize, Selection};

use crate::pcube::PCubeDb;
use crate::query::budget::{CancelToken, QueryBudget};
use crate::query::kernel::{run_kernel, SkylineLogic};
use crate::query::topk::{apply_kernel_outcome, make_governor};
use crate::query::{seed_root, CandidateHeap, QueryStats};

/// A completed dynamic skyline query.
pub struct DynamicSkylineOutcome {
    /// Dynamic skyline tuples as `(tid, original coordinates)`.
    pub skyline: Vec<(u64, Vec<f64>)>,
    /// Execution metrics.
    pub stats: QueryStats,
}

/// Answers a dynamic skyline query around `q` under a boolean selection,
/// using signature-based boolean pruning exactly as the static variant.
///
/// `pref_dims` selects the dimensions compared; `q` is indexed by the full
/// coordinate space (like the tuples' coordinates).
///
/// # Panics
/// Panics if `pref_dims` is empty or `q` is shorter than the coordinate
/// space.
pub fn dynamic_skyline_query(
    db: &PCubeDb,
    selection: &Selection,
    q: &[f64],
    pref_dims: &[usize],
) -> DynamicSkylineOutcome {
    dynamic_skyline_query_governed(db, selection, q, pref_dims, &QueryBudget::unlimited(), None)
}

/// [`dynamic_skyline_query`] under a [`QueryBudget`] and optional
/// [`CancelToken`]: accepted points are true dynamic-skyline members, so a
/// partial answer is a sound subset.
///
/// # Panics
/// Panics if `pref_dims` is empty or `q` is shorter than the coordinate
/// space.
pub fn dynamic_skyline_query_governed(
    db: &PCubeDb,
    selection: &Selection,
    q: &[f64],
    pref_dims: &[usize],
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> DynamicSkylineOutcome {
    assert!(!pref_dims.is_empty(), "need at least one preference dimension");
    assert!(
        pref_dims.iter().all(|&d| d < q.len()),
        "query point must cover every preference dimension"
    );
    let started = std::time::Instant::now();
    let before = db.stats().snapshot();
    let mut gov = make_governor(db, budget, cancel);
    let selection = normalize(selection);
    let mut probe = db.pcube().probe(&selection, false);

    let mut heap = CandidateHeap::new();
    seed_root(db, &mut heap);

    let mut stats = QueryStats::default();
    let mut logic = SkylineLogic::new(pref_dims, Some(q), None);
    let pin_seconds = started.elapsed().as_secs_f64();
    let kernel_run =
        run_kernel(db, &selection, &mut probe, &mut heap, &mut logic, None, gov.as_mut());
    stats.stages = kernel_run.stages;
    stats.stages.pin_seconds += pin_seconds;
    stats.nodes_expanded = kernel_run.nodes_expanded;
    let mut result = logic.into_result();

    stats.peak_heap = heap.peak_size();
    stats.partials_loaded = probe.partials_loaded();
    stats.io = db.stats().snapshot().since(&before);
    stats.cpu_seconds = started.elapsed().as_secs_f64();
    apply_kernel_outcome(&mut stats, &kernel_run, result.len());
    // Canonical result order: ascending `(transformed key, tid)` — the same
    // key the parallel engine merges by.
    let t_merge = std::time::Instant::now();
    result.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.tid.cmp(&b.tid)));
    stats.stages.merge_seconds += t_merge.elapsed().as_secs_f64();
    DynamicSkylineOutcome {
        skyline: result.into_iter().map(|r| (r.tid, r.coords)).collect(),
        stats,
    }
}
