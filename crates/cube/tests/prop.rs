//! Property tests for the cube model: group-by must partition the table,
//! and cells/selections must agree with row-level matching; a bulk append
//! must build the relation row-by-row appends build.
//!
//! Runs are fully reproducible: the vendored proptest derives its RNG seed
//! deterministically from the test's module path and name (override with
//! `PROPTEST_SEED`), so every CI run replays the identical case sequence.

use std::collections::BTreeMap;

use pcube_cube::{group_by, group_rows, CellKey, CuboidMask, Predicate, Relation, Schema};
use proptest::prelude::*;

fn relation_from(rows: &[Vec<u32>]) -> Relation {
    let n_bool = rows.first().map_or(2, Vec::len);
    let names: Vec<String> = (0..n_bool).map(|i| format!("A{i}")).collect();
    let schema =
        Schema::new(&names.iter().map(String::as_str).collect::<Vec<_>>(), &["X"]);
    let mut r = Relation::new(schema);
    for row in rows {
        r.push_coded(row, &[0.5]);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_by_partitions_the_table(
        rows in prop::collection::vec(prop::collection::vec(0u32..5, 3..=3), 1..120),
        mask_bits in 0u32..8,
    ) {
        let r = relation_from(&rows);
        let mask = CuboidMask(mask_bits);
        let groups = group_by(&r, mask);
        // Every tid appears exactly once.
        let mut seen = vec![false; rows.len()];
        for (cell, tids) in &groups {
            for &tid in tids {
                prop_assert!(!seen[tid as usize], "tid {tid} in two cells");
                seen[tid as usize] = true;
                // And the row actually matches the cell's selection.
                prop_assert!(r.matches(tid, &cell.to_selection()));
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some tid missing from the partition");
    }

    #[test]
    fn cell_selection_roundtrip(dims in prop::collection::btree_set(0usize..8, 1..4),
                                values in prop::collection::vec(0u32..100, 3)) {
        let preds: Vec<Predicate> = dims
            .iter()
            .zip(values.iter().cycle())
            .map(|(&dim, &value)| Predicate { dim, value })
            .collect();
        let key = CellKey::from_selection(&preds);
        let back = key.to_selection();
        let mut expect = preds.clone();
        expect.sort_by_key(|p| p.dim);
        prop_assert_eq!(back, expect);
        prop_assert_eq!(key.mask.level(), dims.len());
    }

    #[test]
    fn scan_matches_filter(rows in prop::collection::vec(prop::collection::vec(0u32..4, 2..=2), 0..200),
                           d0 in 0u32..4) {
        if rows.is_empty() {
            return Ok(());
        }
        let r = relation_from(&rows);
        let sel = vec![Predicate { dim: 0, value: d0 }];
        let scanned: Vec<u64> = r.scan(&sel).collect();
        let expect: Vec<u64> =
            (0..rows.len() as u64).filter(|&t| r.bool_code(t, 0) == d0).collect();
        prop_assert_eq!(scanned, expect);
    }

    /// `group_rows` against a grouping by value vector: the cells in
    /// ascending order of their values, each cell's tids in the order the
    /// rows came. Codes reach past one byte so the radix sort runs several
    /// passes.
    #[test]
    fn group_rows_groups_by_value_in_the_given_order(
        rows in prop::collection::vec(
            prop::collection::vec(prop_oneof![0u32..3, 255u32..258, Just(70_000u32)], 3..=3),
            1..150,
        ),
        mask_bits in 0u32..8,
        picks in prop::collection::vec(0usize..1000, 0..200),
    ) {
        let r = relation_from(&rows);
        let mask = CuboidMask(mask_bits);
        let order: Vec<u64> = picks.iter().map(|&p| (p % rows.len()) as u64).collect();
        let mut expect: BTreeMap<Vec<u32>, Vec<u64>> = BTreeMap::new();
        for &tid in &order {
            let values = mask.dims().iter().map(|&d| rows[tid as usize][d]).collect();
            expect.entry(values).or_default().push(tid);
        }
        let got: Vec<(Vec<u32>, Vec<u64>)> = group_rows(&r, mask, &order)
            .into_iter()
            .map(|(key, tids)| {
                assert_eq!(key.mask, mask);
                (key.values, tids)
            })
            .collect();
        prop_assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }
}

/// Row `i` of the tables the append tests build.
fn row_of(i: usize, codes: &mut [u32], coords: &mut [f64]) {
    codes[0] = (i % 7) as u32;
    codes[1] = (i * 31 % 1000) as u32;
    coords[0] = i as f64 * 0.5;
    coords[1] = -(i as f64);
}

fn schema() -> Schema {
    Schema::new(&["A", "B"], &["X", "Y"])
}

/// Appends rows `from..from + n` in one bulk append.
fn append(r: &mut Relation, from: usize, n: usize) {
    let mut i = from;
    r.append_rows(n, |codes, coords| {
        row_of(i, codes, coords);
        i += 1;
    });
}

/// Column chunks of `r`, counted as the chunks a fresh clone shares.
fn chunk_count(r: &Relation) -> usize {
    r.chunks_shared_with(&r.clone())
}

fn columns(r: &Relation) -> (Vec<Vec<u32>>, Vec<Vec<u64>>) {
    let codes = (0..2).map(|d| r.bool_column(d).collect()).collect();
    let coords = (0..2).map(|d| r.pref_column(d).map(f64::to_bits).collect()).collect();
    (codes, coords)
}

#[test]
fn a_bulk_append_equals_row_by_row_appends_at_chunk_edges() {
    for n in [4095, 4096, 4097] {
        let mut rows = Relation::new(schema());
        let (mut codes, mut coords) = ([0u32; 2], [0f64; 2]);
        for i in 0..n {
            row_of(i, &mut codes, &mut coords);
            assert_eq!(rows.push_coded(&codes, &coords), i as u64);
        }
        // One bulk append, and two whose seam falls inside a chunk.
        let mut bulk = Relation::new(schema());
        append(&mut bulk, 0, n);
        let mut split = Relation::new(schema());
        append(&mut split, 0, 1000);
        append(&mut split, 1000, n - 1000);
        for r in [&bulk, &split] {
            assert_eq!((r.len(), r.live_len()), (n, n), "{n} rows");
            assert_eq!(columns(r), columns(&rows), "{n} rows");
            let live: Vec<u64> = r.live_bool_column(1).map(|(tid, _)| tid).collect();
            assert_eq!(live, (0..n as u64).collect::<Vec<_>>(), "{n} rows");
            assert_eq!(chunk_count(r), chunk_count(&rows), "{n} rows");
            assert_eq!(chunk_count(r), 4 * n.div_ceil(4096), "{n} rows");
        }
    }
}

#[test]
fn a_snapshot_taken_mid_build_keeps_sharing_its_frozen_chunks() {
    let mut r = Relation::new(schema());
    append(&mut r, 0, 4096 + 100);
    let snapshot = r.clone();
    let before = columns(&snapshot);
    // Two chunks per column, all four columns shared right after the clone.
    assert_eq!(r.chunks_shared_with(&snapshot), 8);
    append(&mut r, 4196, 5000);
    // The append re-owned the partial chunk only; the frozen one is shared.
    assert_eq!(r.chunks_shared_with(&snapshot), 4);
    assert_eq!((snapshot.len(), r.len()), (4196, 9196));
    assert_eq!(columns(&snapshot), before);
    let (codes, coords) = columns(&r);
    assert!(codes.iter().zip(&before.0).all(|(now, then)| now[..4196] == then[..]));
    assert!(coords.iter().zip(&before.1).all(|(now, then)| now[..4196] == then[..]));
    let mut whole = Relation::new(schema());
    append(&mut whole, 0, 9196);
    assert_eq!(columns(&r), columns(&whole));
}
