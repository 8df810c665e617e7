//! Top-k processing using P-Cube (§V-B): best-first search ordered by the
//! ranking function's lower bound, with signature-based boolean pruning.

use pcube_cube::{normalize, Predicate, Selection};

use crate::pcube::PCubeDb;
use crate::query::budget::{CancelToken, Governor, Progress, QueryBudget, QueryOutcome};
use crate::query::kernel::{run_kernel, KernelRun, SavedLists, TopKLogic};
use crate::query::{seed_root, Candidate, CandidateHeap, HeapEntry, QueryStats, ResultEntry};
use crate::rank::RankingFunction;
use crate::store::BooleanProbe;

/// Builds the per-query governor, or `None` when the budget is unlimited
/// and no cancel token is attached (the ungoverned fast path: zero checks
/// per pop). The ledger baseline is `before` — taken ahead of probe
/// construction, so eager assembly's loads are charged to the budget too.
pub(crate) fn make_governor(
    db: &PCubeDb,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> Option<Governor> {
    if budget.is_unlimited() && cancel.is_none() {
        return None;
    }
    let mut gov = Governor::new(budget);
    if let Some(c) = cancel {
        gov = gov.with_cancel(c.clone());
    }
    Some(gov.with_ledger(db.stats().clone(), db.stats().total_reads()))
}

/// Folds a kernel run's stop (if any) into the stats' outcome. Call after
/// `stats.io` is final so `blocks_used` matches the reported I/O.
pub(crate) fn apply_kernel_outcome(
    stats: &mut QueryStats,
    run: &KernelRun,
    results_so_far: usize,
) {
    if let Some(reason) = run.stop {
        stats.outcome = QueryOutcome::Partial {
            reason,
            progress: Progress {
                pops: run.pops,
                nodes_expanded: run.nodes_expanded,
                results_so_far,
                blocks_used: stats.io.total_reads(),
                frontier: run.frontier,
                overshoot_seconds: run.overshoot_seconds,
                max_pop_seconds: run.max_pop_seconds,
            },
        };
    }
}

/// Saved lists for incremental drill-down/roll-up of a top-k query. The
/// `d_list` holds the remaining search frontier at the moment the k-th
/// result was found.
pub struct TopKState {
    selection: Selection,
    k: usize,
    result: Vec<ResultEntry>,
    b_list: Vec<HeapEntry>,
    d_list: Vec<HeapEntry>,
}

impl TopKState {
    /// The boolean selection this state answers.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Entries pruned by boolean predicates (kept for roll-up).
    pub fn b_list_len(&self) -> usize {
        self.b_list.len()
    }

    /// The search frontier saved when the k-th result was found, plus
    /// preference-pruned entries (kept for drill-down).
    pub fn d_list_len(&self) -> usize {
        self.d_list.len()
    }
}

/// A completed top-k query.
pub struct TopKOutcome {
    /// `(tid, coordinates, score)` in ascending score order, at most `k`
    /// entries (fewer if the selection matches fewer tuples).
    pub topk: Vec<(u64, Vec<f64>, f64)>,
    /// Execution metrics.
    pub stats: QueryStats,
    /// Saved lists for incremental follow-ups.
    pub state: TopKState,
}

/// Answers `SELECT top-k FROM R WHERE selection ORDER BY f` with the
/// signature-guided Algorithm 1.
///
/// Because candidates pop in ascending lower-bound order and tuples carry
/// exact scores, the first `k` qualifying tuples popped *are* the top-k —
/// the search stops there and saves the remaining frontier for drill-downs.
pub fn topk_query(
    db: &PCubeDb,
    selection: &Selection,
    k: usize,
    f: &dyn RankingFunction,
    eager_assembly: bool,
) -> TopKOutcome {
    topk_query_governed(db, selection, k, f, eager_assembly, &QueryBudget::unlimited(), None)
}

/// [`topk_query`] under a [`QueryBudget`] and optional [`CancelToken`]:
/// stops cooperatively at pop granularity and reports a
/// [`QueryOutcome::Partial`] when cut short. Because the serial engine
/// accepts tuples in ascending score order, a partial top-k is always a
/// prefix of the true top-k.
pub fn topk_query_governed(
    db: &PCubeDb,
    selection: &Selection,
    k: usize,
    f: &dyn RankingFunction,
    eager_assembly: bool,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> TopKOutcome {
    // Ledger captured before probe construction: eager assembly's loads
    // count toward the query (and toward the block budget).
    let started = std::time::Instant::now();
    let before = db.stats().snapshot();
    let mut gov = make_governor(db, budget, cancel);
    let probe = db.pcube().probe(&normalize(selection), eager_assembly);
    topk_query_inner(db, selection, k, f, probe, started, before, gov.as_mut())
}

/// Like [`topk_query`] but with a caller-supplied boolean probe (see
/// [`crate::PCube::probe_bloom`]).
pub fn topk_query_probed(
    db: &PCubeDb,
    selection: &Selection,
    k: usize,
    f: &dyn RankingFunction,
    probe: BooleanProbe<'_>,
) -> TopKOutcome {
    let started = std::time::Instant::now();
    let before = db.stats().snapshot();
    topk_query_inner(db, selection, k, f, probe, started, before, None)
}

#[allow(clippy::too_many_arguments)]
fn topk_query_inner(
    db: &PCubeDb,
    selection: &Selection,
    k: usize,
    f: &dyn RankingFunction,
    mut probe: BooleanProbe<'_>,
    started: std::time::Instant,
    before: pcube_storage::IoSnapshot,
    gov: Option<&mut Governor>,
) -> TopKOutcome {
    let selection = normalize(selection);
    let mut heap = CandidateHeap::new();
    seed_root(db, &mut heap);
    let mut state = TopKState {
        selection,
        k,
        result: Vec::new(),
        b_list: Vec::new(),
        d_list: Vec::new(),
    };
    let stats = run(db, &mut probe, &mut heap, &mut state, f, started, before, gov);
    finish(state, stats)
}

/// Strengthens the previous query with one more predicate; the candidate
/// heap restarts from `result ∪ d_list` (Lemma 2).
pub fn topk_drill_down(
    db: &PCubeDb,
    prev: TopKState,
    extra: Predicate,
    f: &dyn RankingFunction,
) -> TopKOutcome {
    let started = std::time::Instant::now();
    let before = db.stats().snapshot();
    let mut selection = prev.selection.clone();
    selection.push(extra);
    let selection = normalize(&selection);
    let mut probe = db.pcube().probe(&selection, false);
    let mut heap = CandidateHeap::new();
    for r in &prev.result {
        heap.push(
            r.score,
            Candidate::Tuple { tid: r.tid, path: r.path.clone(), coords: r.coords.clone() },
        );
    }
    for e in prev.d_list {
        heap.push_entry(e);
    }
    let mut state = TopKState {
        selection,
        k: prev.k,
        result: Vec::new(),
        b_list: prev.b_list,
        d_list: Vec::new(),
    };
    let stats = run(db, &mut probe, &mut heap, &mut state, f, started, before, None);
    finish(state, stats)
}

/// Relaxes the previous query by dropping predicates on `dim`; the heap
/// restarts from `result ∪ b_list` (Lemma 2).
pub fn topk_roll_up(
    db: &PCubeDb,
    prev: TopKState,
    dim: usize,
    f: &dyn RankingFunction,
) -> TopKOutcome {
    let started = std::time::Instant::now();
    let before = db.stats().snapshot();
    let selection: Selection =
        prev.selection.iter().copied().filter(|p| p.dim != dim).collect();
    let mut probe = db.pcube().probe(&selection, false);
    let mut heap = CandidateHeap::new();
    for r in &prev.result {
        heap.push(
            r.score,
            Candidate::Tuple { tid: r.tid, path: r.path.clone(), coords: r.coords.clone() },
        );
    }
    for e in prev.b_list {
        heap.push_entry(e);
    }
    let mut state = TopKState {
        selection,
        k: prev.k,
        result: Vec::new(),
        b_list: Vec::new(),
        // The old frontier's lower bounds are no smaller than the old k-th
        // score, and the old results still qualify after relaxation, so the
        // frontier cannot produce a new top-k member (see Lemma 2); it is
        // kept so later drill-downs retain full coverage.
        d_list: prev.d_list,
    };
    let stats = run(db, &mut probe, &mut heap, &mut state, f, started, before, None);
    finish(state, stats)
}

fn finish(mut state: TopKState, mut stats: QueryStats) -> TopKOutcome {
    // Canonical result order: ascending `(score, tid)`. The heap's
    // deterministic tie-break already pops tuples this way, so the sort is
    // a no-op guard — but it is the contract the parallel engine's merge
    // relies on for byte-identical results.
    let t_merge = std::time::Instant::now();
    state.result.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.tid.cmp(&b.tid)));
    let topk = state.result.iter().map(|r| (r.tid, r.coords.clone(), r.score)).collect();
    stats.stages.merge_seconds += t_merge.elapsed().as_secs_f64();
    TopKOutcome { topk, stats, state }
}

#[allow(clippy::too_many_arguments)]
fn run(
    db: &PCubeDb,
    probe: &mut BooleanProbe<'_>,
    heap: &mut CandidateHeap,
    state: &mut TopKState,
    f: &dyn RankingFunction,
    started: std::time::Instant,
    before: pcube_storage::IoSnapshot,
    gov: Option<&mut Governor>,
) -> QueryStats {
    let mut stats = QueryStats::default();
    let mut lists = SavedLists {
        b_list: std::mem::take(&mut state.b_list),
        d_list: std::mem::take(&mut state.d_list),
    };
    let mut logic = TopKLogic::serial(state.k, f);
    // Everything since `started` was setup: probe construction (+ eager
    // assembly), heap seeding, governor arming — the pin stage.
    let pin_seconds = started.elapsed().as_secs_f64();
    let kernel_run =
        run_kernel(db, &state.selection, probe, heap, &mut logic, Some(&mut lists), gov);
    stats.stages = kernel_run.stages;
    stats.stages.pin_seconds += pin_seconds;
    stats.nodes_expanded = kernel_run.nodes_expanded;
    state.result = logic.into_result();
    state.b_list = lists.b_list;
    state.d_list = lists.d_list;

    stats.peak_heap = heap.peak_size();
    stats.partials_loaded = probe.partials_loaded();
    stats.io = db.stats().snapshot().since(&before);
    stats.cpu_seconds = started.elapsed().as_secs_f64();
    apply_kernel_outcome(&mut stats, &kernel_run, state.result.len());
    stats
}
