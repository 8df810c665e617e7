//! Parallel branch-and-bound execution (§V at scale).
//!
//! The paper's Algorithm 1 explores one R-tree; once the read path is
//! `Send + Sync` (atomic [`pcube_storage::IoStats`] counters, lock-guarded
//! pager reads, per-worker signature cursors), the search parallelizes
//! across root-level subtrees. The fan-out is *generic over the query
//! class* ([`par_run_class`]): for any [`QueryClass`] it
//!
//! 1. expands the root once on the calling thread, scoring children with
//!    the class's own logic,
//! 2. deals the root's children round-robin to a fixed pool of **scoped**
//!    worker threads (no runtime dependency),
//! 3. runs the *same* [`kernel`](crate::query::kernel) loop the serial
//!    engines use per worker, with the class's shared pruning state
//!    ([`QueryClass::Shared`]) injected through the worker's logic — an
//!    atomic f64-bit threshold for top-k, a lock-free window of accepted
//!    points for the skyline family,
//! 4. merges local results with the class's own [`QueryClass::merge`].
//!
//! Results are **identical to the serial engines** — same tuples, same
//! order — for any worker count, because shared bounds are only ever
//! conservative (a stale bound admits extra work, never wrong answers) and
//! every class's merge is traversal-order independent with a canonical
//! output order. The oracle differential suite
//! (`tests/differential_oracle.rs`) and the concurrency stress test
//! (`tests/concurrent_queries.rs`) hold both engines to that contract.
//! Adding a query class needs no edits here.
//!
//! The parallel engine does not produce `b_list`/`d_list` state: incremental
//! drill-down and roll-up (§V-C) remain a serial-engine feature.

use std::time::Instant;

use pcube_cube::{normalize, Selection};
use pcube_rtree::{DecodedEntry, Path};

use crate::pcube::PCubeDb;
use crate::query::budget::{
    CancelToken, Governor, Progress, QueryBudget, QueryOutcome, StopReason,
};
use crate::query::class::{begin, run_class, ClassOutcome, QueryClass};
use crate::query::kernel::{run_kernel, PopVerdict, PreferenceLogic};
use crate::query::{root_entry, Candidate, CandidateHeap, QueryStats};

/// How a parallel query fans out.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Worker threads for the subtree fan-out. `0` or `1` runs the serial
    /// engine on the calling thread; larger values are capped by the number
    /// of root-level subtrees.
    pub workers: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions { workers: 1 }
    }
}

impl ParallelOptions {
    /// Options for `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ParallelOptions { workers }
    }
}

/// Per-worker execution tallies folded into one [`QueryStats`].
#[derive(Default, Clone, Copy)]
struct WorkerStats {
    nodes_expanded: u64,
    peak_heap: usize,
    partials_loaded: u64,
    pops: u64,
    frontier: u64,
    stop: Option<StopReason>,
    overshoot_seconds: f64,
    max_pop_seconds: f64,
    stages: crate::query::StageTimes,
}

/// Aggregation conventions: node expansions and partial-signature loads add
/// up (every one is real work the shared I/O ledger also counted, and each
/// worker loads its own probe's partials); `peak_heap` is the *maximum*
/// over workers and the root fan-out — the per-thread memory high water a
/// capacity planner would provision.
fn merge_worker_stats(root_children: usize, locals: &[WorkerStats]) -> QueryStats {
    // Stage times add up across workers: they measure where the work went,
    // not the critical path (the caller's `cpu_seconds` is the wall clock).
    let mut stages = crate::query::StageTimes::default();
    for l in locals {
        stages.add(&l.stages);
    }
    QueryStats {
        nodes_expanded: 1 + locals.iter().map(|l| l.nodes_expanded).sum::<u64>(),
        peak_heap: root_children.max(locals.iter().map(|l| l.peak_heap).max().unwrap_or(0)),
        partials_loaded: locals.iter().map(|l| l.partials_loaded).sum(),
        io: Default::default(),
        cpu_seconds: 0.0,
        stages,
        plan: None,
        outcome: QueryOutcome::Complete,
    }
}

/// Folds the workers' stop states into the merged outcome. The reported
/// reason is the first *originating* trip in worker order (fleet-drained
/// workers report `Cancelled`, which only wins when the whole fleet was
/// externally cancelled). Pops and frontier add up across workers;
/// overshoot and max-pop take the worst worker. Call after `stats.io` and
/// `stats.nodes_expanded` are final.
fn merge_fleet_outcome(stats: &mut QueryStats, locals: &[WorkerStats], results_so_far: usize) {
    let originating =
        locals.iter().filter_map(|l| l.stop).find(|r| *r != StopReason::Cancelled);
    let Some(reason) = originating.or_else(|| locals.iter().find_map(|l| l.stop)) else {
        return;
    };
    stats.outcome = QueryOutcome::Partial {
        reason,
        progress: Progress {
            pops: locals.iter().map(|l| l.pops).sum(),
            nodes_expanded: stats.nodes_expanded,
            results_so_far,
            blocks_used: stats.io.total_reads(),
            frontier: locals.iter().map(|l| l.frontier).sum(),
            overshoot_seconds: locals.iter().map(|l| l.overshoot_seconds).fold(0.0, f64::max),
            max_pop_seconds: locals.iter().map(|l| l.max_pop_seconds).fold(0.0, f64::max),
        },
    };
}

/// The governance context one parallel query shares across its fleet: the
/// budget, one absolute deadline every worker races, the caller's cancel
/// token, the fleet-internal drain token, and the ledger baseline (the
/// block budget is fleet-wide — all workers charge one pool).
struct FleetGovernance {
    budget: QueryBudget,
    deadline_at: Option<Instant>,
    cancel: Option<CancelToken>,
    fleet: CancelToken,
    base: u64,
}

/// `None` when governance would be a no-op — the ungoverned fast path runs
/// zero per-pop checks and stays bit-identical to the pre-governance
/// engine by construction.
fn fleet_governance(
    db: &PCubeDb,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> Option<FleetGovernance> {
    if budget.is_unlimited() && cancel.is_none() {
        return None;
    }
    Some(FleetGovernance {
        budget: *budget,
        deadline_at: budget.deadline().map(|d| Instant::now() + d),
        cancel: cancel.cloned(),
        fleet: CancelToken::new(),
        base: db.stats().total_reads(),
    })
}

/// Builds one worker's governor from the fleet context.
fn worker_governor(db: &PCubeDb, fg: Option<&FleetGovernance>) -> Option<Governor> {
    fg.map(|g| {
        let mut gov = Governor::new(&g.budget)
            .with_fleet(g.fleet.clone())
            .with_ledger(db.stats().clone(), g.base);
        if let Some(c) = &g.cancel {
            gov = gov.with_cancel(c.clone());
        }
        if let Some(d) = g.deadline_at {
            gov = gov.with_deadline_at(d);
        }
        gov
    })
}

/// A root-level seed: `(score, candidate)` as the serial engine would have
/// pushed it after expanding the root.
type Seed = (f64, Candidate);

/// Expands the root node into per-child seeds (one counted block read —
/// the `1 +` in [`merge_worker_stats`]), scored by the class's own logic
/// so seeds carry exactly the scores the serial engine would compute.
fn root_seeds_for(db: &PCubeDb, logic: &mut dyn PreferenceLogic) -> Vec<Seed> {
    let node = db.rtree().read_node(db.rtree().root_pid());
    let mut seeds = Vec::with_capacity(node.entries.len());
    for (slot, child) in node.entries {
        let child_path = Path::root().child(slot as u16 + 1);
        let seed = match child {
            DecodedEntry::Tuple { tid, coords } => {
                let s = logic.score_tuple(&coords);
                (s, Candidate::Tuple { tid, path: child_path, coords })
            }
            DecodedEntry::Child { child, mbr } => {
                let s = logic.score_node(&mbr, child_path.depth());
                (s, Candidate::Node { pid: child, path: child_path, mbr })
            }
        };
        seeds.push(seed);
    }
    seeds
}

/// Deals seeds round-robin across at most `workers` groups (never more
/// groups than seeds, always at least one group so `thread::scope` has a
/// worker to join even on an empty root).
fn deal(seeds: Vec<Seed>, workers: usize) -> Vec<Vec<Seed>> {
    let n = workers.min(seeds.len()).max(1);
    let mut groups: Vec<Vec<Seed>> = (0..n).map(|_| Vec::new()).collect();
    for (i, seed) in seeds.into_iter().enumerate() {
        groups[i % n].push(seed);
    }
    groups
}

// ---------------------------------------------------------------------------
// The generic fan-out
// ---------------------------------------------------------------------------

/// Parallel Algorithm 1 over any [`QueryClass`]: root fan-out, scoped
/// workers running the shared kernel with the class's shared pruning state,
/// then the class's own merge. Falls back to the serial [`run_class`] at
/// `workers <= 1`, and when the class's pop check stops the search at the
/// root seed — the serial engine applies that check before it reads
/// anything, so a query with an empty answer by construction (top-k with
/// `k = 0`) costs no block here either.
pub(crate) fn par_run_class<C: QueryClass + Sync>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    opts: ParallelOptions,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> ClassOutcome<C::Row> {
    if opts.workers <= 1 {
        return run_class(db, selection, class, budget, cancel);
    }
    let start = begin(db, class);
    // A throwaway serial-mode logic: scoring is identical between the
    // serial and shared modes of every class, so seeds carry exactly the
    // scores the serial engine would compute.
    let mut seed_logic = class.logic(None);
    if !matches!(seed_logic.on_pop(&root_entry(db)), PopVerdict::Continue) {
        return run_class(db, selection, class, budget, cancel);
    }
    let selection = normalize(selection);
    let fleet = fleet_governance(db, budget, cancel);
    let seeds = root_seeds_for(db, &mut seed_logic);
    let root_children = seeds.len();
    let groups = deal(seeds, opts.workers);

    let shared = class.new_shared();
    let locals: Vec<(C::Local, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                let (shared, selection, fleet) = (&shared, &selection, fleet.as_ref());
                scope.spawn(move || {
                    class_worker(db, selection, class, group, shared, fleet)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query worker panicked")).collect()
    });

    let worker_stats: Vec<WorkerStats> = locals.iter().map(|(_, s)| *s).collect();
    let t_merge = Instant::now();
    let rows = class.merge(locals.into_iter().map(|(local, _)| local).collect());
    let merge_seconds = t_merge.elapsed().as_secs_f64();

    let mut stats = merge_worker_stats(root_children, &worker_stats);
    stats.stages.merge_seconds += merge_seconds;
    stats.io = db.stats().snapshot().since(&start.before);
    stats.cpu_seconds = start.at.elapsed().as_secs_f64();
    merge_fleet_outcome(&mut stats, &worker_stats, rows.len());
    ClassOutcome { rows, stats }
}

/// One worker: the shared kernel over its seed subtrees with the class's
/// logic in shared mode, returning the class's local result. A governor
/// trip raises the fleet token so every sibling drains at its next pop.
fn class_worker<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    seeds: Vec<Seed>,
    shared: &C::Shared,
    fg: Option<&FleetGovernance>,
) -> (C::Local, WorkerStats) {
    let t_pin = Instant::now();
    let mut probe = db.pcube().probe(selection, false);
    let mut heap = CandidateHeap::new();
    for (score, cand) in seeds {
        heap.push(score, cand);
    }
    let mut logic = class.logic(Some(shared));
    let mut gov = worker_governor(db, fg);
    let pin_seconds = t_pin.elapsed().as_secs_f64();
    let mut run =
        run_kernel(db, selection, &mut probe, &mut heap, &mut logic, None, gov.as_mut());
    run.stages.pin_seconds += pin_seconds;
    if run.stop.is_some() {
        if let Some(g) = fg {
            g.fleet.cancel();
        }
    }
    let mut stats = WorkerStats {
        nodes_expanded: run.nodes_expanded,
        peak_heap: heap.peak_size(),
        partials_loaded: probe.partials_loaded(),
        pops: run.pops,
        frontier: run.frontier,
        stop: run.stop,
        overshoot_seconds: run.overshoot_seconds,
        max_pop_seconds: run.max_pop_seconds,
        stages: run.stages,
    };
    // Local finishing work (e.g. the hull class chains its local vertices
    // here) is merge-stage time, measured on the worker.
    let t_finish = Instant::now();
    let local = class.finish(logic);
    stats.stages.merge_seconds += t_finish.elapsed().as_secs_f64();
    (local, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::kernel::{f64_to_ordered, ordered_to_f64, SharedBound, SharedWindow};

    #[test]
    fn ordered_f64_mapping_is_monotone() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(f64_to_ordered(w[0]) <= f64_to_ordered(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &x in &samples {
            assert_eq!(ordered_to_f64(f64_to_ordered(x)), x);
        }
    }

    #[test]
    fn shared_bound_is_a_running_min() {
        let b = SharedBound::unbounded();
        assert_eq!(b.get(), f64::INFINITY);
        b.lower_to(3.5);
        b.lower_to(7.0); // no effect: higher than the current bound
        assert_eq!(b.get(), 3.5);
        b.lower_to(-2.0);
        assert_eq!(b.get(), -2.0);
    }

    #[test]
    fn deal_round_robins_without_losing_seeds() {
        let seeds: Vec<Seed> = (0..7)
            .map(|i| (i as f64, Candidate::Tuple { tid: i, path: Path::root(), coords: vec![] }))
            .collect();
        let groups = deal(seeds, 3);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 7);
        let groups = deal(Vec::new(), 3);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn shared_window_refresh_is_incremental() {
        let w = SharedWindow::new();
        w.push(vec![1.0]);
        w.push(vec![2.0]);
        let mut local = Vec::new();
        let mark = w.refresh(0, |slot, p| local.push((slot, p.to_vec())));
        assert_eq!(mark, 2);
        assert_eq!(local.len(), 2);
        assert_eq!(w.push(vec![3.0]), 2);
        let mark = w.refresh(mark, |slot, p| local.push((slot, p.to_vec())));
        assert_eq!(mark, 3);
        assert_eq!(local, vec![(0, vec![1.0]), (1, vec![2.0]), (2, vec![3.0])]);
    }
}
