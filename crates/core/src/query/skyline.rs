//! Skyline processing using P-Cube (§V-A) with incremental drill-down and
//! roll-up (§V-C).

use pcube_cube::{normalize, Predicate, Selection};

use crate::pcube::PCubeDb;
use crate::query::budget::{CancelToken, Governor, QueryBudget};
use crate::query::kernel::{run_kernel, SavedLists, SkylineLogic};
use crate::query::topk::{apply_kernel_outcome, make_governor};
use crate::query::{seed_root, Candidate, CandidateHeap, HeapEntry, QueryStats, ResultEntry};
use crate::store::BooleanProbe;

/// The three lists Algorithm 1 maintains, kept after the query so that
/// drill-down and roll-up can rebuild the candidate heap without starting
/// from the root (Lemma 2).
pub struct SkylineState {
    selection: Selection,
    pref_dims: Vec<usize>,
    result: Vec<ResultEntry>,
    b_list: Vec<HeapEntry>,
    d_list: Vec<HeapEntry>,
}

impl SkylineState {
    /// The boolean selection this state answers.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Entries pruned by boolean predicates (kept for roll-up).
    pub fn b_list_len(&self) -> usize {
        self.b_list.len()
    }

    /// Entries pruned by domination (kept for drill-down).
    pub fn d_list_len(&self) -> usize {
        self.d_list.len()
    }
}

/// A completed skyline query: the result, execution metrics, and the saved
/// state for follow-up drill-down/roll-up queries.
pub struct SkylineOutcome {
    /// Skyline tuples as `(tid, preference coordinates)`, in ascending
    /// coordinate-sum order.
    pub skyline: Vec<(u64, Vec<f64>)>,
    /// Execution metrics.
    pub stats: QueryStats,
    /// Saved lists for incremental follow-ups.
    pub state: SkylineState,
}

/// Answers `SELECT skylines FROM R WHERE selection PREFERENCE BY pref_dims`
/// with the signature-guided Algorithm 1.
///
/// `eager_assembly` controls multi-predicate probes (see
/// [`crate::store::BooleanProbe`]).
pub fn skyline_query(
    db: &PCubeDb,
    selection: &Selection,
    pref_dims: &[usize],
    eager_assembly: bool,
) -> SkylineOutcome {
    skyline_query_governed(db, selection, pref_dims, eager_assembly, &QueryBudget::unlimited(), None)
}

/// [`skyline_query`] under a [`QueryBudget`] and optional [`CancelToken`].
/// When cut short, every accepted point is a true skyline member (BBS
/// accepts only never-dominated points), so a partial skyline is a sound
/// subset of the full answer.
pub fn skyline_query_governed(
    db: &PCubeDb,
    selection: &Selection,
    pref_dims: &[usize],
    eager_assembly: bool,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> SkylineOutcome {
    // Capture the clock and ledger before probe construction so that eager
    // assembly's signature loads are part of the measured query cost (and
    // of the block budget).
    let started = std::time::Instant::now();
    let before = db.stats().snapshot();
    let mut gov = make_governor(db, budget, cancel);
    let probe = db.pcube().probe(&normalize(selection), eager_assembly);
    skyline_query_inner(db, selection, pref_dims, probe, started, before, gov.as_mut())
}

/// Like [`skyline_query`] but with a caller-supplied boolean probe —
/// used to run the search under alternative pruning structures (e.g. the
/// lossy Bloom probes of §VII via [`crate::PCube::probe_bloom`]).
pub fn skyline_query_probed(
    db: &PCubeDb,
    selection: &Selection,
    pref_dims: &[usize],
    probe: BooleanProbe<'_>,
) -> SkylineOutcome {
    let started = std::time::Instant::now();
    let before = db.stats().snapshot();
    skyline_query_inner(db, selection, pref_dims, probe, started, before, None)
}

fn skyline_query_inner(
    db: &PCubeDb,
    selection: &Selection,
    pref_dims: &[usize],
    mut probe: BooleanProbe<'_>,
    started: std::time::Instant,
    before: pcube_storage::IoSnapshot,
    gov: Option<&mut Governor>,
) -> SkylineOutcome {
    let selection = normalize(selection);
    let mut heap = CandidateHeap::new();
    seed_root(db, &mut heap);
    let mut state = SkylineState {
        selection,
        pref_dims: pref_dims.to_vec(),
        result: Vec::new(),
        b_list: Vec::new(),
        d_list: Vec::new(),
    };
    let stats = run(db, &mut probe, &mut heap, &mut state, started, before, gov);
    finish(state, stats)
}

/// Strengthens the previous query with one more predicate, reconstructing
/// the candidate heap as `result ∪ d_list` (Lemma 2).
pub fn skyline_drill_down(db: &PCubeDb, prev: SkylineState, extra: Predicate) -> SkylineOutcome {
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
    let mut state = SkylineState {
        selection,
        pref_dims: prev.pref_dims,
        result: Vec::new(),
        // Entries that failed the old (weaker) predicates still fail.
        b_list: prev.b_list,
        d_list: Vec::new(),
    };
    let stats = run(db, &mut probe, &mut heap, &mut state, started, before, None);
    finish(state, stats)
}

/// Relaxes the previous query by dropping every predicate on `dim`,
/// reconstructing the candidate heap as `result ∪ b_list` (Lemma 2).
pub fn skyline_roll_up(db: &PCubeDb, prev: SkylineState, dim: usize) -> SkylineOutcome {
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
    let mut state = SkylineState {
        selection,
        pref_dims: prev.pref_dims,
        result: Vec::new(),
        b_list: Vec::new(),
        // Old dominated entries stay dominated: their dominators satisfied
        // the stricter old predicates, hence also the relaxed ones.
        d_list: prev.d_list,
    };
    let stats = run(db, &mut probe, &mut heap, &mut state, started, before, None);
    finish(state, stats)
}

fn finish(mut state: SkylineState, mut stats: QueryStats) -> SkylineOutcome {
    // Canonical result order: ascending `(coordinate sum, tid)`, the same
    // key the parallel engine merges by (BBS already emits ascending
    // scores; the sort pins the order at ties).
    let t_merge = std::time::Instant::now();
    state.result.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.tid.cmp(&b.tid)));
    let skyline = state.result.iter().map(|r| (r.tid, r.coords.clone())).collect();
    stats.stages.merge_seconds += t_merge.elapsed().as_secs_f64();
    SkylineOutcome { skyline, stats, state }
}

/// The main loop of Algorithm 1, instantiated for skylines.
fn run(
    db: &PCubeDb,
    probe: &mut BooleanProbe<'_>,
    heap: &mut CandidateHeap,
    state: &mut SkylineState,
    started: std::time::Instant,
    before: pcube_storage::IoSnapshot,
    gov: Option<&mut Governor>,
) -> QueryStats {
    let mut stats = QueryStats::default();
    let mut lists = SavedLists {
        b_list: std::mem::take(&mut state.b_list),
        d_list: std::mem::take(&mut state.d_list),
    };
    let mut logic = SkylineLogic::new(&state.pref_dims, None, None);
    // Everything since `started` was setup (probe construction, heap
    // seeding, governor arming) — the pin stage.
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
