//! Model-based property tests: the disk B+-tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences.
//!
//! Runs are fully reproducible: the vendored proptest derives its RNG seed
//! deterministically from the test's module path and name (override with
//! `PROPTEST_SEED`), so every CI run replays the identical case sequence.

use pcube_bptree::BPlusTree;
use pcube_storage::{IoCategory, IoStats, Pager};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small key universe provokes collisions, overwrites and removals of
    // present keys.
    let key = 0u64..200;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        key.clone().prop_map(Op::Get),
        (key.clone(), key).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

/// Keys at both ends of the domain, where bound arithmetic overflows.
fn arb_edge_key() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..6, (u64::MAX - 5)..=u64::MAX]
}

fn arb_bound() -> impl Strategy<Value = Bound<u64>> {
    prop_oneof![
        arb_edge_key().prop_map(Bound::Included),
        arb_edge_key().prop_map(Bound::Excluded),
        Just(Bound::Unbounded),
    ]
}

/// `false` where `BTreeMap::range` panics: a start above the end, or one
/// key excluded at both ends. The tree answers those ranges empty.
fn btreemap_accepts(lo: Bound<u64>, hi: Bound<u64>) -> bool {
    match (lo, hi) {
        (Bound::Excluded(a), Bound::Excluded(b)) => a < b,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => a <= b,
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn behaves_like_btreemap(ops in prop::collection::vec(arb_op(), 1..400), page in prop_oneof![Just(64usize), Just(128), Just(4096)]) {
        let pager = Pager::new(page, IoCategory::BptreePage, IoStats::new_shared());
        let mut tree = BPlusTree::new(pager);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(k), model.get(&k).copied());
                }
                Op::Range(lo, hi) => {
                    let got: Vec<(u64, u64)> = tree.range(lo..=hi).collect();
                    let expect: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
        }
        let scanned: Vec<(u64, u64)> = tree.iter().collect();
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }

    #[test]
    fn bulk_load_equals_inserts(mut keys in prop::collection::btree_set(any::<u64>(), 0..500), fill in 0.3f64..=1.0) {
        keys.remove(&u64::MAX); // keep key+1 arithmetic simple below
        let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0xFF)).collect();
        let pager = Pager::new(128, IoCategory::BptreePage, IoStats::new_shared());
        let bulk = BPlusTree::bulk_load(pager, entries.iter().copied(), fill);
        prop_assert_eq!(bulk.len(), entries.len() as u64);
        for &(k, v) in &entries {
            prop_assert_eq!(bulk.get(k), Some(v));
            prop_assert_eq!(bulk.get(k + 1).is_some(), keys.contains(&(k + 1)));
        }
        let scanned: Vec<(u64, u64)> = bulk.iter().collect();
        prop_assert_eq!(scanned, entries);
    }

    #[test]
    fn range_bounds_behave_like_btreemap(
        keys in prop::collection::btree_set(arb_edge_key(), 0..12),
        bounds in prop::collection::vec((arb_bound(), arb_bound()), 1..32),
        page in prop_oneof![Just(64usize), Just(4096)],
    ) {
        let mut tree = BPlusTree::new(Pager::new(page, IoCategory::BptreePage, IoStats::new_shared()));
        let model: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, !k)).collect();
        for (&k, &v) in &model {
            tree.insert(k, v);
        }
        for (lo, hi) in bounds {
            let got: Vec<(u64, u64)> = tree.range((lo, hi)).collect();
            let expect: Vec<(u64, u64)> = if btreemap_accepts(lo, hi) {
                model.range((lo, hi)).map(|(k, v)| (*k, *v)).collect()
            } else {
                Vec::new()
            };
            prop_assert_eq!(got, expect, "range ({:?}, {:?})", lo, hi);
        }
    }
}
