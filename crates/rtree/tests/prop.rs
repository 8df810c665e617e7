//! Property tests for the slotted R*-tree: structural invariants, content
//! preservation, and — most importantly for P-Cube — exactness of the
//! tracked path deltas under arbitrary insert/delete interleavings — and
//! the STR order of the bulk load against the definition it replaced.
//!
//! Runs are fully reproducible: the vendored proptest derives its RNG seed
//! deterministically from the test's module path and name (override with
//! `PROPTEST_SEED`), so every CI run replays the identical case sequence.

use pcube_rtree::{str_order, Path, RTree, RTreeConfig};
use pcube_storage::{IoCategory, IoStats, Pager};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_point(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, dims..=dims)
}

/// A coordinate on a coarse grid, so that points tie often; `-0.0` and
/// `0.0` are two of its eight values.
fn arb_grid_coord() -> impl Strategy<Value = f64> {
    (0usize..8).prop_map(|i| [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0][i])
}

/// The STR order by its first definition: a stable `sort_by(total_cmp)` on
/// one dimension, then the same on the next within each slab.
fn reference_str_order(coords: &[f64], dims: usize, cap: usize) -> Vec<u32> {
    fn rec(idx: &mut [u32], coords: &[f64], d: usize, dims: usize, cap: usize) {
        let coord = |i: u32| coords[i as usize * dims + d];
        idx.sort_by(|&a, &b| coord(a).total_cmp(&coord(b)));
        if d + 1 == dims {
            return;
        }
        let n = idx.len();
        let n_nodes = n.div_ceil(cap);
        let remaining = dims - d;
        let slabs = (n_nodes as f64).powf(1.0 / remaining as f64).ceil() as usize;
        let slab_len = n.div_ceil(slabs.max(1));
        if slab_len == 0 || slab_len >= n {
            rec(idx, coords, d + 1, dims, cap);
            return;
        }
        let mut start = 0;
        while start < n {
            let end = (start + slab_len).min(n);
            rec(&mut idx[start..end], coords, d + 1, dims, cap);
            start = end;
        }
    }
    let mut idx: Vec<u32> = (0..(coords.len() / dims) as u32).collect();
    rec(&mut idx, coords, 0, dims, cap);
    idx
}

fn tree(dims: usize, m_min: usize, m_max: usize) -> RTree {
    let pager = Pager::new(1024, IoCategory::RtreeBlock, IoStats::new_shared());
    RTree::new(pager, RTreeConfig::explicit(dims, m_min, m_max))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inserts_preserve_invariants_and_content(points in prop::collection::vec(arb_point(2), 1..150)) {
        let mut t = tree(2, 1, 3);
        for (tid, p) in points.iter().enumerate() {
            t.insert(tid as u64, p);
        }
        t.check_invariants();
        prop_assert_eq!(t.len(), points.len() as u64);
        let mut seen: Vec<(u64, Vec<f64>)> = Vec::new();
        t.for_each_tuple(|tid, _, coords| seen.push((tid, coords.to_vec())));
        seen.sort_by_key(|(tid, _)| *tid);
        for (tid, coords) in &seen {
            prop_assert_eq!(coords, &points[*tid as usize]);
        }
        prop_assert_eq!(seen.len(), points.len());
    }

    #[test]
    fn tracked_deltas_equal_brute_force_diff(
        points in prop::collection::vec(arb_point(2), 1..120),
        m_max in 2usize..6,
    ) {
        let mut t = tree(2, 1, m_max);
        for (tid, p) in points.iter().enumerate() {
            let before: HashMap<u64, Path> = t.tuple_paths().into_iter().collect();
            let delta = t.insert_tracked(tid as u64, p);
            let after: HashMap<u64, Path> = t.tuple_paths().into_iter().collect();

            let (itid, ipath) = delta.inserted.clone().expect("insert reported");
            prop_assert_eq!(itid, tid as u64);
            prop_assert_eq!(&after[&itid], &ipath);

            let mut expect: Vec<(u64, Path, Path)> = before
                .iter()
                .filter(|(t0, old)| &after[t0] != *old)
                .map(|(t0, old)| (*t0, old.clone(), after[t0].clone()))
                .collect();
            expect.sort_by_key(|(t0, _, _)| *t0);
            let mut got = delta.moved.clone();
            got.sort_by_key(|(t0, _, _)| *t0);
            prop_assert_eq!(got, expect);
        }
        t.check_invariants();
    }

    #[test]
    fn deletes_move_nothing_else(
        points in prop::collection::vec(arb_point(3), 2..100),
        victims in prop::collection::vec(any::<prop::sample::Index>(), 1..20),
    ) {
        let mut t = tree(3, 1, 4);
        for (tid, p) in points.iter().enumerate() {
            t.insert(tid as u64, p);
        }
        let mut alive: Vec<u64> = (0..points.len() as u64).collect();
        for victim in victims {
            if alive.is_empty() {
                break;
            }
            let idx = victim.index(alive.len());
            let tid = alive.swap_remove(idx);
            let before: HashMap<u64, Path> = t.tuple_paths().into_iter().collect();
            let path = t.delete_tracked(tid, &points[tid as usize]).expect("present");
            prop_assert_eq!(&before[&tid], &path);
            let after: HashMap<u64, Path> = t.tuple_paths().into_iter().collect();
            prop_assert_eq!(after.len(), alive.len());
            for (t0, p0) in &after {
                prop_assert_eq!(p0, &before[t0], "stable slots on delete");
            }
            t.check_invariants();
        }
    }

    #[test]
    fn bulk_load_holds_everything(
        points in prop::collection::vec(arb_point(2), 0..300),
        fill in 0.4f64..=1.0,
    ) {
        let items: Vec<(u64, Vec<f64>)> =
            points.iter().enumerate().map(|(i, p)| (i as u64, p.clone())).collect();
        let pager = Pager::new(1024, IoCategory::RtreeBlock, IoStats::new_shared());
        let t = RTree::bulk_load(pager, RTreeConfig::for_page(2, 1024), items, fill);
        t.check_invariants();
        prop_assert_eq!(t.len(), points.len() as u64);
        let mut tids: Vec<u64> = t.tuple_paths().into_iter().map(|(tid, _)| tid).collect();
        tids.sort_unstable();
        prop_assert_eq!(tids, (0..points.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn str_order_is_the_stable_total_cmp_recursion(
        dims in 1usize..=4,
        grid in prop::collection::vec(arb_grid_coord(), 0..1600),
        cap in 2usize..40,
    ) {
        let coords = &grid[..grid.len() / dims * dims];
        prop_assert_eq!(str_order(coords, dims, cap), reference_str_order(coords, dims, cap));
    }

    #[test]
    fn paths_map_to_unique_sids(points in prop::collection::vec(arb_point(2), 1..200)) {
        let mut t = tree(2, 1, 3);
        for (tid, p) in points.iter().enumerate() {
            t.insert(tid as u64, p);
        }
        let mut sids = std::collections::HashSet::new();
        for (_, path) in t.tuple_paths() {
            prop_assert!(sids.insert(path.sid(t.m_max())), "duplicate SID for {}", path);
        }
    }
}
