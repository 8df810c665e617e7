//! Property tests for the signature life cycle: generation, boolean
//! algebra, incremental set/clear and the lazy cursor (the decomposition
//! property lives beside `encode::for_each_partial`).
//!
//! Runs are fully reproducible: the vendored proptest derives its RNG seed
//! deterministically from the test's module path and name (override with
//! `PROPTEST_SEED`), so every CI run replays the identical case sequence.

use pcube_core::{LinearFn, MinCoordSum, RankingFunction, Signature, SignatureStore, WeightedDistanceFn};
use pcube_rtree::{Mbr, Path};
use pcube_storage::{IoCategory, IoStats, Pager};
use proptest::prelude::*;
use std::collections::HashSet;

const M: usize = 4;
const HEIGHT: usize = 3;

/// A random set of distinct depth-3 tuple paths over fanout 4.
fn arb_paths() -> impl Strategy<Value = Vec<Path>> {
    prop::collection::hash_set((1u16..=4, 1u16..=4, 1u16..=4), 0..40)
        .prop_map(|s| s.into_iter().map(|(a, b, c)| Path(vec![a, b, c])).collect())
}

/// 4, or 70: rows of two words.
fn fanout() -> impl Strategy<Value = usize> {
    (0usize..2).prop_map(|i| [M, 70][i])
}

/// `paths` under fanout `m`: at 70, positions 3 and 4 become slots 65 and
/// 70, so a node's bits fall in both words of its row.
fn at_fanout(m: usize, paths: &[Path]) -> Vec<Path> {
    let slot = |p: u16| if m == M || p < 3 { p } else { [65, 70][usize::from(p) - 3] };
    paths.iter().map(|p| Path(p.0.iter().map(|&q| slot(q)).collect())).collect()
}

fn all_tuple_paths() -> Vec<Path> {
    let mut out = Vec::new();
    for a in 1..=4u16 {
        for b in 1..=4u16 {
            for c in 1..=4u16 {
                out.push(Path(vec![a, b, c]));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn membership_matches_path_set(paths in arb_paths()) {
        let sig = Signature::from_paths(M, paths.iter());
        sig.validate(HEIGHT);
        let set: HashSet<&Path> = paths.iter().collect();
        for p in all_tuple_paths() {
            prop_assert_eq!(sig.contains(&p), set.contains(&p), "path {}", p);
        }
        // Node-level membership: a node is contained iff some tuple path
        // extends it.
        for a in 1..=4u16 {
            let node = Path(vec![a]);
            let expect = paths.iter().any(|p| node.is_prefix_of(p));
            prop_assert_eq!(sig.contains(&node), expect);
        }
    }

    #[test]
    fn union_is_set_union(m in fanout(), a in arb_paths(), b in arb_paths()) {
        let (a, b) = (at_fanout(m, &a), at_fanout(m, &b));
        let sa = Signature::from_paths(m, a.iter());
        let sb = Signature::from_paths(m, b.iter());
        let u = sa.union(&sb);
        u.validate(HEIGHT);
        let both: HashSet<Path> = a.iter().chain(b.iter()).cloned().collect();
        let expect = Signature::from_paths(m, both.iter());
        prop_assert_eq!(u, expect);
    }

    #[test]
    fn intersection_is_set_intersection(m in fanout(), a in arb_paths(), b in arb_paths()) {
        let (a, b) = (at_fanout(m, &a), at_fanout(m, &b));
        let sa = Signature::from_paths(m, a.iter());
        let sb = Signature::from_paths(m, b.iter());
        let i = sa.intersect(&sb, HEIGHT);
        i.validate(HEIGHT);
        let sa_set: HashSet<&Path> = a.iter().collect();
        let shared: Vec<Path> = b.iter().filter(|p| sa_set.contains(p)).cloned().collect();
        let expect = Signature::from_paths(m, shared.iter());
        prop_assert_eq!(i, expect, "intersection with fix-up must equal the shared-tuple signature");
    }

    #[test]
    fn clear_path_equals_rebuild_without_it(
        m in fanout(),
        paths in arb_paths(),
        victim in any::<prop::sample::Index>(),
    ) {
        prop_assume!(!paths.is_empty());
        let paths = at_fanout(m, &paths);
        let v = victim.index(paths.len());
        let mut sig = Signature::from_paths(m, paths.iter());
        sig.clear_path(&paths[v]);
        sig.validate(HEIGHT);
        let rest: Vec<Path> =
            paths.iter().enumerate().filter(|(i, _)| *i != v).map(|(_, p)| p.clone()).collect();
        let expect = Signature::from_paths(m, rest.iter());
        prop_assert_eq!(&sig, &expect);
        // Setting the path again is the signature it was cleared from.
        sig.set_path(&paths[v]);
        sig.validate(HEIGHT);
        prop_assert_eq!(sig, Signature::from_paths(m, paths.iter()));
    }

    #[test]
    fn cursor_agrees_with_signature(paths in arb_paths(), page in 24usize..200) {
        let sig = Signature::from_paths(M, paths.iter());
        let stats = IoStats::new_shared();
        let sig_pager = Pager::new(page, IoCategory::SignaturePage, stats.clone());
        let dir_pager = Pager::new(4096, IoCategory::BptreePage, stats);
        let mut store = SignatureStore::new(sig_pager, dir_pager, M, HEIGHT);
        store.write_signature(1, &sig);
        prop_assert_eq!(store.load_full(1), sig.clone());
        let mut cursor = store.cursor(1);
        for p in all_tuple_paths() {
            prop_assert_eq!(cursor.contains(&p), sig.contains(&p), "path {}", p);
        }
        for a in 1..=4u16 {
            for b in 1..=4u16 {
                let p = Path(vec![a, b]);
                prop_assert_eq!(cursor.contains(&p), sig.contains(&p), "node {}", p);
            }
        }
    }
}

/// Random boxes and contained points for lower-bound checking.
fn arb_box_and_points() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>)> {
    (
        prop::collection::vec(0.0f64..1.0, 3),
        prop::collection::vec(0.0f64..1.0, 3),
        prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 1..20),
    )
        .prop_map(|(a, b, fracs)| {
            let min: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
            let max: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
            let points = fracs
                .into_iter()
                .map(|f| {
                    (0..3).map(|d| min[d] + (max[d] - min[d]) * f[d]).collect::<Vec<f64>>()
                })
                .collect();
            (min, max, points)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ranking_lower_bounds_never_exceed_contained_scores(
        (min, max, points) in arb_box_and_points(),
        weights in prop::collection::vec(-2.0f64..2.0, 3),
        target in prop::collection::vec(0.0f64..1.0, 3),
    ) {
        let mbr = Mbr { min, max };
        let abs_weights: Vec<f64> = weights.iter().map(|w| w.abs()).collect();
        let fns: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(LinearFn::new(weights.clone())),
            Box::new(WeightedDistanceFn::new(target.clone(), abs_weights)),
            Box::new(MinCoordSum::all(3)),
            Box::new(MinCoordSum::new(vec![1])),
        ];
        for f in &fns {
            let lb = f.lower_bound(&mbr);
            for p in &points {
                prop_assert!(
                    f.score(p) >= lb - 1e-9,
                    "score {} < bound {lb}",
                    f.score(p)
                );
            }
        }
    }
}
