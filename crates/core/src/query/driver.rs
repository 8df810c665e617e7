//! The one query driver: Algorithm 1 (§V) at any worker count.
//!
//! [`run_kernel`] is Algorithm 1's loop; this module is everything around
//! it, once. One worker function ([`work`]) runs the kernel over a seeded
//! [`CandidateHeap`] with a boolean pruner, the class's logic and an
//! optional governor, and returns the class's local result and a
//! [`Tally`]. It has two callers:
//!
//! * a serial run ([`run_serial`]): one worker on the calling thread, its
//!   heap seeded one of three ways ([`Seeds`]) — with the R-tree root, which
//!   it reads through the pruner like any other popped entry; with `result ∪
//!   list` of a previous run (a drill-down or roll-up, §V-C), which a
//!   resumable heap queues again in place; or with the tuples a
//!   boolean-first selection returned (§VI-A), which need no further
//!   boolean question;
//! * a fan-out ([`PCubeDb::par_run`]): the root read once, unprobed, on the
//!   calling thread — one counted
//!   [`RTree::read_node`](pcube_rtree::RTree::read_node) — and its children
//!   dealt round-robin to scoped workers, which share no pruning state.
//!   Each worker scores its dealt children from that one
//!   [`NodeView`](pcube_rtree::NodeView) with the class's serial logic,
//!   pushes them as the serial kernel would have after expanding the root,
//!   and runs that same logic over them; the class's
//!   [`merge`](QueryClass::merge) does all of the cross-worker work.
//!
//! Every heap is laid out for the tree ([`CandidateHeap::for_tree`]), and
//! every seed is written straight into its slab: no seed is ever an owned
//! candidate, and the worker's frontier is plain data from the start.
//!
//! A serial run is a fleet of one worker. One builder ([`Governance`]) arms
//! every worker's [`Governor`] — none at all when the budget is unlimited
//! and no cancel token is attached, so an ungoverned run makes no check per
//! pop — and one fold ([`fold`]) turns the workers' tallies into
//! [`QueryStats`] and the [`QueryOutcome`].
//!
//! Answers are identical at any worker count — same tuples, same order —
//! because each worker answers the class's query exactly over the subtrees
//! it was dealt and every class's merge is traversal-order independent,
//! exact over any partition of the root's subtrees, with a canonical output
//! order. The oracle differential suite (`tests/differential_oracle.rs`)
//! and the concurrency stress test (`tests/concurrent_queries.rs`) hold the
//! driver to that contract. Adding a query class needs no edits here.

use std::time::Instant;

use pcube_cube::{normalize, Selection};
use pcube_rtree::{Mbr, NodeView, Path};
use pcube_storage::{CostModel, IoSnapshot};

use crate::boolean_index::{BooleanIndexSet, SelectRoute};
use crate::pcube::PCubeDb;
use crate::query::budget::{
    CancelToken, Governor, Progress, QueryBudget, QueryOutcome, StopReason,
};
use crate::query::class::{ClassOutcome, QueryClass};
use crate::query::kernel::{
    run_kernel, score_child, BooleanPruner, KernelRun, PopVerdict, PreferenceLogic,
};
use crate::query::{root_entry, Candidate, CandidateHeap, QueryStats};

/// How a query runs: over how many workers, and under which budget and
/// cancel token.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Worker threads for the subtree fan-out. `0` or `1` runs the serial
    /// engine on the calling thread; larger values are capped by the number
    /// of root-level subtrees.
    pub workers: usize,
    /// Resource limits; [`QueryBudget::unlimited`] by default. A parallel
    /// query's workers share one deadline and one block budget.
    pub budget: QueryBudget,
    /// Stops the query cooperatively at its next pop when cancelled. A
    /// stopped query reports a [`QueryOutcome::Partial`] (each class
    /// documents what its partial answers guarantee); one worker's trip
    /// drains every other worker at its next pop.
    pub cancel: Option<CancelToken>,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions { workers: 1, budget: QueryBudget::unlimited(), cancel: None }
    }
}

impl ParallelOptions {
    /// Options for `workers` threads, ungoverned.
    pub fn with_workers(workers: usize) -> Self {
        ParallelOptions { workers, ..ParallelOptions::default() }
    }
}

/// The start of one query: wall clock and I/O ledger baseline. Taken ahead
/// of probe construction, so the probe's own signature loads are part of
/// the measured cost (a probe the caller built for
/// [`PCubeDb::run_with_probe`] was paid for before the query began).
struct QueryStart {
    at: Instant,
    before: IoSnapshot,
}

/// Checks the class and the selection against the schema.
///
/// # Panics
/// Panics if the class reads a preference dimension, or the selection
/// names a boolean dimension, the schema does not have.
pub(crate) fn check_schema<C: QueryClass>(db: &PCubeDb, selection: &Selection, class: &C) {
    let schema = db.relation().schema();
    let (n_bool, n_pref) = (schema.n_bool(), schema.n_pref());
    if let Some(d) = class.max_pref_dim() {
        assert!(
            d < n_pref,
            "{} query: preference dimension {d} is out of range (the schema has {n_pref})",
            class.name()
        );
    }
    if let Some(d) = selection.iter().map(|p| p.dim).max() {
        assert!(
            d < n_bool,
            "{} query: boolean dimension {d} is out of range (the schema has {n_bool})",
            class.name()
        );
    }
}

/// The one entry every engine passes through — serial, parallel, and the
/// comparison methods of §VI-A: [`check_schema`], then starts the clock.
fn begin<C: QueryClass>(db: &PCubeDb, selection: &Selection, class: &C) -> QueryStart {
    check_schema(db, selection, class);
    QueryStart { at: Instant::now(), before: db.stats().snapshot() }
}

/// What every governor of one query shares: the budget, one absolute
/// deadline, the caller's cancel token, the fleet token that lets one
/// worker's trip drain the rest, and the ledger baseline — the block budget
/// is query-wide, so every worker charges one pool.
struct Governance {
    budget: QueryBudget,
    deadline_at: Option<Instant>,
    cancel: Option<CancelToken>,
    fleet: Option<CancelToken>,
    base: u64,
}

impl Governance {
    /// `None` when governance would be a no-op — the ungoverned fast path
    /// runs zero per-pop checks. The fleet token is armed only for more
    /// than one worker. Read ahead of probe construction, so the probe's
    /// own loads are charged to the block budget too.
    fn of(db: &PCubeDb, opts: &ParallelOptions) -> Option<Governance> {
        let ParallelOptions { workers, budget, cancel } = opts;
        if budget.is_unlimited() && cancel.is_none() {
            return None;
        }
        Some(Governance {
            budget: *budget,
            deadline_at: budget.deadline().map(|d| Instant::now() + d),
            cancel: cancel.clone(),
            fleet: (*workers > 1).then(CancelToken::new),
            base: db.stats().total_reads(),
        })
    }

    /// One worker's governor.
    fn governor(&self, db: &PCubeDb) -> Governor {
        let mut gov = Governor::new(&self.budget).with_ledger(db.stats().clone(), self.base);
        if let Some(c) = &self.cancel {
            gov = gov.with_cancel(c.clone());
        }
        if let Some(f) = &self.fleet {
            gov = gov.with_fleet(f.clone());
        }
        if let Some(d) = self.deadline_at {
            gov = gov.with_deadline_at(d);
        }
        gov
    }
}

/// What one worker did: the kernel's counters, its heap's high water and
/// the partial signatures its pruner loaded.
struct Tally {
    run: KernelRun,
    peak_heap: usize,
    partials_loaded: u64,
}

/// The one fold from worker tallies to [`QueryStats`] and the outcome. A
/// fan-out passes its `root_fanout` (the root's children): the root it
/// expanded is one more node, and its children were one more heap.
///
/// Node expansions, partial loads, children tested and ruled out, pops, the
/// abandoned frontier and stage times add up across workers (stages
/// measure where the work went, not the critical path; `cpu_seconds` is the
/// wall clock); `peak_heap`, overshoot and the longest pop take the worst
/// worker. The reported stop is the first *originating* trip in worker
/// order — a drained sibling reports `Cancelled`, which only wins when the
/// whole query was cancelled.
fn fold(
    db: &PCubeDb,
    start: &QueryStart,
    tallies: &[Tally],
    root_fanout: Option<usize>,
    results_so_far: usize,
    merge_seconds: f64,
) -> QueryStats {
    let runs = || tallies.iter().map(|t| &t.run);
    let mut stats = QueryStats {
        nodes_expanded: u64::from(root_fanout.is_some())
            + runs().map(|r| r.nodes_expanded).sum::<u64>(),
        peak_heap: tallies.iter().map(|t| t.peak_heap).chain(root_fanout).max().unwrap_or(0),
        partials_loaded: tallies.iter().map(|t| t.partials_loaded).sum(),
        children_tested: runs().map(|r| r.children_tested).sum(),
        children_ruled_out: runs().map(|r| r.children_ruled_out).sum(),
        ..QueryStats::default()
    };
    for r in runs() {
        stats.stages.add(&r.stages);
    }
    stats.stages.merge_seconds += merge_seconds;
    stats.io = db.stats().snapshot().since(&start.before);
    stats.cpu_seconds = start.at.elapsed().as_secs_f64();
    let originating = runs().filter_map(|r| r.stop).find(|r| *r != StopReason::Cancelled);
    if let Some(reason) = originating.or_else(|| runs().find_map(|r| r.stop)) {
        stats.outcome = QueryOutcome::Partial {
            reason,
            progress: Progress {
                pops: runs().map(|r| r.pops).sum(),
                nodes_expanded: stats.nodes_expanded,
                results_so_far,
                blocks_used: stats.io.total_reads(),
                frontier: runs().map(|r| r.frontier).sum(),
                overshoot_seconds: runs().map(|r| r.overshoot_seconds).fold(0.0, f64::max),
                max_pop_seconds: runs().map(|r| r.max_pop_seconds).fold(0.0, f64::max),
            },
        };
    }
    stats
}

/// The class's merge of the workers' locals, then [`fold`].
fn conclude<C: QueryClass>(
    db: &PCubeDb,
    class: &C,
    start: &QueryStart,
    locals: Vec<C::Local>,
    tallies: &[Tally],
    root_fanout: Option<usize>,
) -> ClassOutcome<C::Row> {
    let t_merge = Instant::now();
    let rows = class.merge(locals);
    let merge_seconds = t_merge.elapsed().as_secs_f64();
    let stats = fold(db, start, tallies, root_fanout, rows.len(), merge_seconds);
    ClassOutcome { rows, stats }
}

/// One worker: the kernel over `heap`, with the class's logic, under a
/// governor when the query is governed — a trip raises the fleet token, so
/// every sibling drains at its next pop. Everything since `pinned_at` is
/// the pin stage.
fn work<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    heap: &mut CandidateHeap,
    probe: &mut dyn BooleanPruner,
    governance: Option<&Governance>,
    pinned_at: Instant,
) -> (C::Local, Tally) {
    let mut logic = class.logic();
    let mut gov = governance.map(|g| g.governor(db));
    let pin_seconds = pinned_at.elapsed().as_secs_f64();
    let mut run = run_kernel(db, selection, probe, heap, &mut logic, gov.as_mut());
    run.stages.pin_seconds += pin_seconds;
    if run.stop.is_some() {
        if let Some(fleet) = governance.and_then(|g| g.fleet.as_ref()) {
            fleet.cancel();
        }
    }
    // Local finishing work (e.g. the hull class chains its local vertices
    // here) is merge-stage time, measured on the worker.
    let t_finish = Instant::now();
    let local = class.finish(logic);
    run.stages.merge_seconds += t_finish.elapsed().as_secs_f64();
    let (peak_heap, partials_loaded) = (heap.peak_size(), probe.partials_loaded());
    (local, Tally { run, peak_heap, partials_loaded })
}

/// What a serial run seeds its heap with, and so which boolean pruner asks
/// Algorithm 1's boolean questions.
pub(crate) enum Seeds<'a> {
    /// The R-tree root, under `pruner` — the domination-first or
    /// index-merge engine's, or one the caller built
    /// ([`PCubeDb::run_with_probe`]) — or, without one, under the signature
    /// probe of the selection.
    Root(Option<&'a mut dyn BooleanPruner>),
    /// `result ∪ list` of a previous run (§V-C, Lemma 2), already queued
    /// again in the run's resumable heap, under the signature probe.
    Saved,
    /// The boolean-first engine (§VI-A): the tuples `indexes` select by
    /// `route`, scored by the class's own logic. The selection has answered
    /// the boolean question, so every entry is kept.
    Selected(&'a BooleanIndexSet, SelectRoute),
}

/// The pruner of a run over selected tuples: it keeps everything.
struct KeepAll;

impl BooleanPruner for KeepAll {
    fn keep(&mut self, _db: &PCubeDb, _selection: &Selection, _cand: &Candidate) -> bool {
        true
    }
}

/// The one serial run: one worker on the calling thread over a heap seeded
/// per `seeds`, under `opts`' budget and cancel token — governed per pop
/// whatever the seeds. The heap is `resumable`'s, whose lists the run keeps
/// for the next follow-up (§V-C), or a fresh one that keeps none.
pub(crate) fn run_serial<C: QueryClass>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    opts: &ParallelOptions,
    seeds: Seeds<'_>,
    resumable: Option<&mut CandidateHeap>,
) -> ClassOutcome<C::Row> {
    let start = begin(db, selection, class);
    let selection = normalize(selection);
    let governance = Governance::of(db, opts);
    let mut fresh = None;
    let heap = match resumable {
        Some(heap) => heap,
        None => fresh.insert(CandidateHeap::for_tree(db.rtree())),
    };
    let (mut signature_probe, mut keep_all) = (None, KeepAll);
    let (mut stopped, mut select_seconds) = (None, 0.0);
    let probe: &mut dyn BooleanPruner = match seeds {
        Seeds::Root(pruner) => {
            heap.push_root(db.rtree());
            match pruner {
                Some(pruner) => pruner,
                None => signature_probe.insert(db.pcube().probe(&selection, false)),
            }
        }
        Seeds::Saved => signature_probe.insert(db.pcube().probe(&selection, false)),
        Seeds::Selected(indexes, route) => {
            // One check ahead of the selection, so that a cancelled or
            // zero-budget query reads nothing; the kernel checks every pop.
            stopped = governance.as_ref().and_then(|g| g.governor(db).check(0));
            if stopped.is_none() {
                let t_select = Instant::now();
                let selected = indexes.select(db, &selection, &CostModel::default(), route);
                select_seconds = t_select.elapsed().as_secs_f64();
                heap.push_tuples(selected, &mut class.logic());
            }
            &mut keep_all
        }
    };
    let (local, mut tally) =
        work(db, &selection, class, heap, probe, governance.as_ref(), start.at);
    tally.run.stop = tally.run.stop.or(stopped);
    // The selection reads pages; it is no part of pinning.
    tally.run.stages.pin_seconds -= select_seconds;
    tally.run.stages.page_read_seconds += select_seconds;
    conclude(db, class, &start, vec![local], &[tally], None)
}

/// Pushes worker `worker`'s share of the root's children into `heap`: every
/// `workers`-th occupied slot from the worker's own, each scored by the
/// class's serial `logic` from the root's view, so a seed is exactly the
/// child the serial kernel would push after expanding the root.
fn seed_from_root(
    heap: &mut CandidateHeap,
    root: &NodeView<'_>,
    logic: &mut dyn PreferenceLogic,
    worker: usize,
    workers: usize,
) {
    let (mut coords, mut mbr) = (Vec::new(), Mbr::empty(0));
    for slot in root.slots().skip(worker).step_by(workers) {
        let (score, child) = score_child(root, slot, logic, &mut coords, &mut mbr);
        heap.push_child(None, score, root, slot, &Path::root(), child);
    }
}

/// The thread-safe query facade: every method takes `&self`, so a single
/// `PCubeDb` can serve many client threads at once (`PCubeDb: Send + Sync`
/// is asserted at compile time). Any [`QueryClass`] — built in or user defined —
/// runs through these methods; there is no per-class entry point.
/// [`ParallelOptions`] says how many workers fan the search out over
/// root-level R-tree subtrees — answers are identical to the serial run
/// either way, as the class's merge contract guarantees — and under which
/// [`QueryBudget`] and [`CancelToken`] the query runs.
///
/// # Panics
/// Every method panics, before its first block read, if the class reads a
/// preference dimension, or the selection names a boolean dimension, the
/// schema does not have.
impl PCubeDb {
    /// Runs a query class through the serial Algorithm-1 kernel under the
    /// signature probe, ungoverned: [`Self::par_run`] with
    /// [`ParallelOptions::default`].
    pub fn run<C: QueryClass>(&self, selection: &Selection, class: &C) -> ClassOutcome<C::Row> {
        run_serial(self, selection, class, &ParallelOptions::default(), Seeds::Root(None), None)
    }

    /// Runs a query class under `opts`: serially on the calling thread at
    /// `workers <= 1`, else the root fan-out, scoped workers that share
    /// nothing, then the class's own merge. Under a budget or cancel token
    /// the query stops cooperatively at pop granularity and reports a
    /// [`QueryOutcome::Partial`] when cut short (each class documents what
    /// its partial answers guarantee); one worker's trip, or a cancel,
    /// drains every other worker at its next pop.
    ///
    /// A query the class's pop check stops at the root seed runs serially
    /// too: the serial run applies that check before it reads anything, so
    /// a query with an empty answer by construction (top-k with `k = 0`)
    /// costs no block here either.
    pub fn par_run<C: QueryClass + Sync>(
        &self,
        selection: &Selection,
        class: &C,
        opts: ParallelOptions,
    ) -> ClassOutcome<C::Row> {
        if opts.workers <= 1 {
            return run_serial(self, selection, class, &opts, Seeds::Root(None), None);
        }
        let start = begin(self, selection, class);
        if !matches!(class.logic().on_pop(&root_entry(self)), PopVerdict::Continue) {
            return run_serial(self, selection, class, &opts, Seeds::Root(None), None);
        }
        let selection = normalize(selection);
        let governance = Governance::of(self, &opts);
        // The fan-out's one counted node read: the root's children are
        // dealt round-robin (never more workers than children, always at
        // least one so `thread::scope` has a worker to join even on an
        // empty root).
        let root = self.rtree().read_node(self.rtree().root_pid());
        let root_fanout = root.slots().count();
        let workers = opts.workers.min(root_fanout).max(1);

        let (locals, tallies): (Vec<C::Local>, Vec<Tally>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let (selection, governance) = (&selection, governance.as_ref());
                    scope.spawn(move || {
                        let pinned_at = Instant::now();
                        let mut probe = self.pcube().probe(selection, false);
                        let mut heap = CandidateHeap::for_tree(self.rtree());
                        seed_from_root(&mut heap, &root, &mut class.logic(), worker, workers);
                        work(self, selection, class, &mut heap, &mut probe, governance, pinned_at)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("query worker panicked")).unzip()
        });
        conclude(self, class, &start, locals, &tallies, Some(root_fanout))
    }

    /// [`Self::run`] under a caller-supplied boolean pruner instead of the
    /// signature probe of `selection`. A pruner whose positive answers may
    /// be wrong verifies the tuples it keeps against `selection`
    /// ([`BooleanPruner::keep`]).
    pub fn run_with_probe<C: QueryClass>(
        &self,
        selection: &Selection,
        class: &C,
        mut probe: impl BooleanPruner,
    ) -> ClassOutcome<C::Row> {
        let seeds = Seeds::Root(Some(&mut probe));
        run_serial(self, selection, class, &ParallelOptions::default(), seeds, None)
    }
}
