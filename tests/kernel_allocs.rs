//! Allocation guard for the Algorithm 1 kernel.
//!
//! A node expansion scores and prunes every child in place, and a kept
//! child is written into the candidate heap's slab, whose slots are
//! recycled: nothing is allocated per examined child, nor per queued entry.
//! A resumable run's `b_list`, `d_list` and accepted tuples are keys over
//! the same slab, so nothing is allocated per saved entry either. Only what
//! outlives the heap is built owned — the coordinates an accepted tuple
//! hands to the logic. So the allocations of one `run_kernel` call are
//! bounded by
//!
//! ```text
//! PER_ACCEPT · tuples accepted + PER_NODE · nodes expanded + FIXED
//! ```
//!
//! independent of the R-tree fanout, of the frontier's width and of the
//! saved lists' length. On a selective query almost every child dies at the
//! boolean bit test, so a kernel that builds a `Path` and a coordinate
//! vector per *examined* child blows the bound by an order of magnitude; on
//! an unfiltered top-k query nearly every child is queued and few tuples
//! are accepted, so a heap that allocates per *queued* entry blows it by as
//! much; and a resumable run saves far more entries than the bound allows,
//! so one that builds a saved entry owned blows it too.
//!
//! The probe is warmed by an identical first run, so the measured run finds
//! every partial signature already in its cursors. One more row runs a
//! cold probe, which loads its partials during the run: a cursor decodes a
//! partial word-level into its one word arena, so loading one allocates
//! nothing per signature node nor per partial — only the growth steps of
//! the cursor's arena, SID table and locators, a constant per conjunct:
//!
//! ```text
//! PER_ACCEPT · tuples accepted + PER_NODE · nodes expanded + FIXED
//!     + PER_CONJUNCT · conjuncts
//! ```
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`; the counter is per thread, so the harness's own
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pcube::core::query::{
    run_kernel, BooleanPruner, CandidateHeap, HeapEntry, KernelRun, PopVerdict, PreferenceLogic,
    QueryClass, Region,
};
use pcube::core::{
    BooleanProbe, DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb, PSkylineClass,
    PriorityGraph, SkylineClass, SubspaceSkylineClass, TopKClass,
};
use pcube::cube::Selection;
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use pcube::rtree::Mbr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The coordinates an accepted tuple hands to the logic.
const PER_ACCEPT: u64 = 1;
/// Nothing is allocated per expanded node once the scratch buffers exist;
/// 1 leaves room for amortized growth of the heap, its slab, the saved keys
/// and the logic's result and window.
const PER_NODE: u64 = 1;
/// Scratch buffers, the first growth steps of every vector.
const FIXED: u64 = 64;
/// What a cold probe's cursor adds to a run: its locators and tried bits,
/// and the growth steps of its word arena, SID → row table and pending
/// list — independent of the number of partials it loads.
const PER_CONJUNCT: u64 = 16;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialized, destructor-free thread-local counter, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A heap holding the R-tree root, keeping the run's lists if `resumable`.
fn seeded_heap(db: &PCubeDb, resumable: bool) -> CandidateHeap {
    let mut heap = if resumable {
        CandidateHeap::resumable(db.rtree())
    } else {
        CandidateHeap::for_tree(db.rtree())
    };
    heap.push_root(db.rtree());
    heap
}

/// Entries per node, averaged over the whole (evenly packed, bulk-loaded)
/// tree — the fanout the bound must *not* depend on.
fn average_fanout(db: &PCubeDb) -> u64 {
    let nodes = db.rtree().count_nodes() as u64;
    db.rtree().len().div_ceil(nodes)
}

/// A class's logic, counting the tuples it accepts.
struct Accepts<L> {
    logic: L,
    accepted: u64,
}

impl<L: PreferenceLogic> PreferenceLogic for Accepts<L> {
    fn on_pop(&mut self, entry: &HeapEntry) -> PopVerdict {
        self.logic.on_pop(entry)
    }
    fn score_tuple(&mut self, coords: &[f64]) -> f64 {
        self.logic.score_tuple(coords)
    }
    fn score_node(&mut self, mbr: &Mbr) -> f64 {
        self.logic.score_node(mbr)
    }
    fn prune_child(&mut self, score: f64, child: Region<'_>) -> bool {
        self.logic.prune_child(score, child)
    }
    fn accept(&mut self, score: f64, tid: u64, coords: Vec<f64>) {
        self.accepted += 1;
        self.logic.accept(score, tid, coords);
    }
}

/// What one guarded run did: its allocations, the bound they were held to,
/// the kernel's counters, the entries it ever queued, those it saved to
/// its lists, and the partial signatures it loaded.
struct Guarded {
    during: u64,
    bound: u64,
    run: KernelRun,
    queued: u64,
    saved: u64,
    partials: u64,
}

/// Runs `class` twice over one probe and checks the second (warm) run
/// against the bound, for the caller's non-vacuity checks.
fn guarded_run<C: QueryClass>(
    db: &PCubeDb,
    sel: &Selection,
    class: &C,
    save_lists: bool,
) -> Guarded {
    let mut probe = db.pcube().probe(sel, false);
    {
        let mut heap = seeded_heap(db, save_lists);
        let mut logic = class.logic();
        run_kernel(db, sel, &mut probe, &mut heap, &mut logic, None);
    }
    measured_run(db, sel, class, save_lists, probe, 0)
}

/// Runs `class` once over a fresh probe, which loads every partial
/// signature the run needs during the run, and checks it against the bound
/// plus [`PER_CONJUNCT`] per predicate.
fn cold_run<C: QueryClass>(db: &PCubeDb, sel: &Selection, class: &C) -> Guarded {
    let probe = db.pcube().probe(sel, false);
    measured_run(db, sel, class, false, probe, PER_CONJUNCT * sel.len() as u64)
}

/// Runs `class` over `probe`, counting the run's allocations, and checks
/// them against the bound plus `per_probe`.
fn measured_run<C: QueryClass>(
    db: &PCubeDb,
    sel: &Selection,
    class: &C,
    save_lists: bool,
    mut probe: BooleanProbe<'_>,
    per_probe: u64,
) -> Guarded {
    let loaded_before = probe.partials_loaded();
    let mut heap = seeded_heap(db, save_lists);
    let mut logic = Accepts { logic: class.logic(), accepted: 0 };

    let before = allocations();
    let run = run_kernel(db, sel, &mut probe, &mut heap, &mut logic, None);
    let during = allocations() - before;

    // Every entry ever queued was either popped or is still queued (an
    // early halt without lists leaves the frontier in the heap; with lists
    // it is saved to the d_list and counted there).
    let queued = run.pops + heap.len() as u64;
    let saved = (heap.b_list_len() + heap.d_list_len()) as u64;
    let accepted = logic.accepted;
    let partials = probe.partials_loaded() - loaded_before;
    let bound = PER_ACCEPT * accepted + PER_NODE * run.nodes_expanded + FIXED + per_probe;
    assert!(
        during <= bound,
        "{}: {during} allocations in run_kernel > bound {bound} ({accepted} accepted, \
         {saved} saved, {} nodes expanded, {queued} queued, {partials} partials loaded)",
        class.name(),
        run.nodes_expanded
    );
    Guarded { during, bound, run, queued, saved, partials }
}

#[test]
fn kernel_allocations_do_not_scale_with_fanout() {
    let spec = SyntheticSpec {
        n_tuples: 30_000,
        n_bool: 3,
        n_pref: 3,
        cardinality: 10,
        distribution: Distribution::Uniform,
        seed: 7,
    };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let fanout = average_fanout(&db);
    let mut rng = StdRng::seed_from_u64(12);
    // Three predicates of cardinality 10: ~30 of 30k rows qualify.
    let sel = sample_selection(db.relation(), 3, &mut rng);

    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let graph = PriorityGraph::new(vec![0, 1, 2], &[(0, 1)]).expect("acyclic");
    let mut examined_vs_kept = Vec::new();
    let mut record = |g: Guarded| {
        examined_vs_kept.push((g.run.nodes_expanded * fanout, g.during));
    };
    record(guarded_run(&db, &sel, &TopKClass::new(10, &f), false));
    record(guarded_run(
        &db,
        &sel,
        &SkylineClass::new(vec![0, 1, 2]),
        false,
    ));
    record(guarded_run(
        &db,
        &sel,
        &DynamicSkylineClass::new(&[0.4, 0.6, 0.5], vec![0, 1, 2]),
        false,
    ));
    record(guarded_run(&db, &sel, &HullClass::new((0, 2)), false));
    record(guarded_run(&db, &sel, &PSkylineClass::new(graph), false));
    record(guarded_run(
        &db,
        &sel,
        &SubspaceSkylineClass::new(vec![1, 2]),
        false,
    ));
    // Not a vacuous pass: the runs examined far more children than they
    // were allowed allocations, so a per-child allocation cannot hide.
    for (examined, during) in examined_vs_kept {
        assert!(
            examined > 4 * during.max(FIXED),
            "query not selective: {examined} vs {during}"
        );
    }

    // With saved lists every pruned child is stored in the slab and its key
    // saved; the bound does not grow with them. Not a vacuous pass: the
    // runs saved more entries than they were allowed allocations.
    for g in [
        guarded_run(&db, &sel, &TopKClass::new(10, &f), true),
        guarded_run(&db, &sel, &SkylineClass::new(vec![0, 1, 2]), true),
    ] {
        assert!(g.saved > g.bound, "lists not long: {} saved vs bound {}", g.saved, g.bound);
    }

    // A cold probe: the skyline run loads its partial signatures as it
    // goes, and the bound grows by a constant per conjunct, not per partial
    // nor per node decoded. Not a vacuous pass: a partial holds dozens of
    // nodes, and the run loads more partials than an eighth of the bound,
    // so an allocation per decoded node — or eight per partial — blows it.
    let g = cold_run(&db, &sel, &SkylineClass::new(vec![0, 1, 2]));
    assert!(8 * g.partials > g.bound, "few partials loaded: {} vs bound {}", g.partials, g.bound);

    // Unfiltered top-k: every child of every expanded node is queued and
    // only k tuples are accepted — a wide frontier the bound does not pay
    // for. One allocation per queued entry would blow it three times over;
    // the owned entries of the old heap, two or three blocks each, by an
    // order of magnitude.
    let g = guarded_run(&db, &Selection::default(), &TopKClass::new(10, &f), false);
    assert!(
        g.queued > 3 * g.bound,
        "frontier not wide: {} queued vs bound {}",
        g.queued,
        g.bound
    );
}
