//! Randomized end-to-end properties: arbitrary small databases, arbitrary
//! selections, arbitrary maintenance interleavings — signature query answers
//! must always equal brute force, and materialized signatures must always
//! equal a from-scratch rebuild.

#[path = "support/rows.rs"]
mod rows;

use pcube::baselines::reference::{bnl_skyline, naive_topk};
use pcube::core::{LinearFn, PCubeDb, Signature, SkylineClass, TopKClass};
use pcube::cube::{group_by, Predicate, Selection};
use pcube::rtree::Path;
use proptest::prelude::*;
use rows::{arb_rows, db_from, Row};
use std::collections::HashMap;

fn assert_signatures_match_rebuild(db: &PCubeDb) {
    let mut paths: HashMap<u64, Path> = HashMap::new();
    db.rtree().for_each_tuple(|tid, path, _| {
        paths.insert(tid, path.clone());
    });
    for &cuboid in db.pcube().cuboids() {
        for (cell, tids) in group_by(db.relation(), cuboid) {
            let expect =
                Signature::from_paths(db.rtree().m_max(), tids.iter().map(|t| &paths[t]));
            let code = db.pcube().registry().code(&cell).expect("cell registered");
            assert_eq!(db.pcube().store().load_full(code), expect, "cell {cell:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skyline_equals_oracle_on_arbitrary_data(
        rows in arb_rows(2, 2, 120),
        d0 in 0u32..4,
        d1 in 0u32..4,
        n_preds in 0usize..=2,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = [Predicate { dim: 0, value: d0 }, Predicate { dim: 1, value: d1 }]
            [..n_preds]
            .to_vec();
        let qualifying: Vec<(u64, Vec<f64>)> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| sel.iter().all(|p| r.codes[p.dim] == p.value))
            .map(|(i, r)| (i as u64, r.coords.clone()))
            .collect();
        let mut expect: Vec<u64> = bnl_skyline(&qualifying, &[0, 1]).iter().map(|p| p.0).collect();
        expect.sort_unstable();
        for eager in [false, true] {
            let class = SkylineClass::new(vec![0, 1]);
            let out = db.run_with_probe(&sel, &class, db.pcube().probe(&sel, eager));
            let mut got: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "eager={}", eager);
        }
    }

    #[test]
    fn topk_equals_oracle_on_arbitrary_data(
        rows in arb_rows(2, 2, 120),
        d0 in 0u32..4,
        k in 1usize..15,
        w0 in 0.01f64..1.0,
        w1 in 0.01f64..1.0,
    ) {
        let db = db_from(&rows, 2, 2);
        let sel: Selection = vec![Predicate { dim: 0, value: d0 }];
        let f = LinearFn::new(vec![w0, w1]);
        let qualifying: Vec<(u64, Vec<f64>)> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.codes[0] == d0)
            .map(|(i, r)| (i as u64, r.coords.clone()))
            .collect();
        let expect = naive_topk(&qualifying, k, &f);
        let out = db.run(&sel, &TopKClass::new(k, &f));
        prop_assert_eq!(out.rows.len(), expect.len());
        for (g, e) in out.rows.iter().zip(&expect) {
            prop_assert!((g.2 - e.2).abs() < 1e-9, "score {} vs {}", g.2, e.2);
        }
    }

    #[test]
    fn maintenance_keeps_signatures_exact(
        initial in arb_rows(2, 2, 60),
        inserts in arb_rows(2, 2, 40),
    ) {
        let mut db = db_from(&initial, 2, 2);
        for r in &inserts {
            db.insert_coded(&r.codes, &r.coords);
        }
        db.rtree().check_invariants();
        assert_signatures_match_rebuild(&db);
        // And queries remain exact after maintenance.
        let all_rows: Vec<Row> = initial.iter().chain(inserts.iter()).cloned().collect();
        let sel: Selection = vec![Predicate { dim: 1, value: 1 }];
        let qualifying: Vec<(u64, Vec<f64>)> = all_rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.codes[1] == 1)
            .map(|(i, r)| (i as u64, r.coords.clone()))
            .collect();
        let mut expect: Vec<u64> = bnl_skyline(&qualifying, &[0, 1]).iter().map(|p| p.0).collect();
        expect.sort_unstable();
        let out = db.run(&sel, &SkylineClass::new(vec![0, 1]));
        let mut got: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
