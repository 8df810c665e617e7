//! Allocation guard for the Algorithm 1 kernel.
//!
//! A node expansion scores and prunes every child in place and allocates
//! only for a child that goes somewhere — the heap or a saved list. So the
//! allocations of one `run_kernel` call are bounded by
//!
//! ```text
//! PER_KEPT · (entries ever queued + entries saved to b_list/d_list)
//!     + PER_NODE · nodes expanded + FIXED
//! ```
//!
//! independent of the R-tree fanout. On a selective query almost every
//! child dies at the boolean bit test, so a kernel that builds a `Path` and
//! a coordinate vector per *examined* child (as it did before PR 12) blows
//! the bound by an order of magnitude.
//!
//! The probe is warmed by an identical first run, so the measured run finds
//! every partial signature already in its cursors: decoding a partial
//! allocates per signature node, which is real work but not the kernel's.
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`; the counter is per thread, so the harness's own
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pcube::core::query::{run_kernel, Candidate, CandidateHeap, KernelRun, QueryClass, SavedLists};
use pcube::core::{
    DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb, PSkylineClass, PriorityGraph,
    SkylineClass, SubspaceSkylineClass, TopKClass,
};
use pcube::cube::Selection;
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use pcube::rtree::{Mbr, Path};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A `Path` plus a coordinate vector or the two corners of an `Mbr` per
/// kept child, and one for what `accept` keeps of a popped tuple.
const PER_KEPT: u64 = 4;
/// Nothing is allocated per expanded node once the scratch buffers exist;
/// 1 leaves room for amortized growth of the heap and the result vectors.
const PER_NODE: u64 = 1;
/// Scratch buffers, the first growth steps of every vector.
const FIXED: u64 = 64;

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

fn seeded_heap(db: &PCubeDb) -> CandidateHeap {
    let dims = db.rtree().dims();
    let mut heap = CandidateHeap::new();
    heap.push(
        f64::NEG_INFINITY,
        Candidate::Node {
            pid: db.rtree().root_pid(),
            path: Path::root(),
            mbr: Mbr {
                min: vec![f64::NEG_INFINITY; dims],
                max: vec![f64::INFINITY; dims],
            },
        },
    );
    heap
}

/// Entries per node, averaged over the whole (evenly packed, bulk-loaded)
/// tree — the fanout the bound must *not* depend on.
fn average_fanout(db: &PCubeDb) -> u64 {
    let nodes = db.rtree().count_nodes() as u64;
    db.rtree().len().div_ceil(nodes)
}

/// Runs `class` twice over one probe and checks the second (warm) run
/// against the bound. Returns `(allocations, bound, run)` for the caller's
/// non-vacuity checks.
fn guarded_run<C: QueryClass>(
    db: &PCubeDb,
    sel: &Selection,
    class: &C,
    save_lists: bool,
) -> (u64, u64, KernelRun) {
    let mut probe = db.pcube().probe(sel, false);
    {
        let mut heap = seeded_heap(db);
        let mut logic = class.logic(None);
        run_kernel(db, sel, &mut probe, &mut heap, &mut logic, None, None);
    }
    let mut heap = seeded_heap(db);
    let mut logic = class.logic(None);
    let mut lists = SavedLists::default();

    let before = allocations();
    let run = run_kernel(
        db,
        sel,
        &mut probe,
        &mut heap,
        &mut logic,
        save_lists.then_some(&mut lists),
        None,
    );
    let during = allocations() - before;

    // Every entry ever queued was either popped or is still queued (an
    // early halt without lists leaves the frontier in the heap; with lists
    // it is drained into the d_list and counted there).
    let queued = run.pops + heap.len() as u64;
    let saved = (lists.b_list.len() + lists.d_list.len()) as u64;
    let bound = PER_KEPT * (queued + saved) + PER_NODE * run.nodes_expanded + FIXED;
    assert!(
        during <= bound,
        "{}: {during} allocations in run_kernel > bound {bound} \
         ({queued} queued, {saved} saved, {} nodes expanded)",
        class.name(),
        run.nodes_expanded
    );
    (during, bound, run)
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
    let mut record = |(during, _bound, run): (u64, u64, KernelRun)| {
        examined_vs_kept.push((run.nodes_expanded * fanout, during));
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

    // With saved lists every pruned child is materialized on purpose; the
    // bound grows by exactly those pushes.
    guarded_run(&db, &sel, &TopKClass::new(10, &f), true);
    guarded_run(&db, &sel, &SkylineClass::new(vec![0, 1, 2]), true);
}
