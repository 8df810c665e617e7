//! Work counts for the Algorithm 1 kernel: how many children of expanded
//! nodes were decoded, scored and preference-tested, and how many the
//! boolean pruner ruled out before that, from the child masks it already
//! held (`BooleanPruner::rules_out`). Exact per seed, like the block counts
//! `kernel_counters.rs` pins on the same fixture (`support/kernel_fixture.rs`).
//!
//! Before the kernel asked the bit first, every child of every expanded node
//! was tested; the number beside each row is that count, and it equals the
//! row's sum. A skipped child is one `keep_child` would have dropped without
//! a load, so `kernel_counters.rs`' rows and saved lists do not move.

#[path = "support/kernel_fixture.rs"]
mod fixture;

use pcube::core::QueryStats;

/// `[children_tested, children_ruled_out]` per query, in the fixture's
/// predicates-major, class-minor order.
const EXPECTED_QUERIES: &[[u64; 2]] = &[
    // No predicate: nothing to rule a child out by.
    [192, 0],  // top-k:    192
    [1368, 0], // skyline:  1368
    [7195, 0], // dynamic:  7195
    [1898, 0], // hull:     1898
    [708, 0],  // pskyline: 708
    [624, 0],  // subspace: 624
    // One predicate.
    [175, 185],   // top-k:    360
    [1044, 1104], // skyline:  2148
    [2187, 3940], // dynamic:  6127
    [1519, 1855], // hull:     3374
    [669, 699],   // pskyline: 1368
    [497, 295],   // subspace: 792
    // Two predicates.
    [347, 313],  // top-k:    660
    [732, 720],  // skyline:  1452
    [968, 1403], // dynamic:  2371
    [940, 1094], // hull:     2034
    [627, 513],  // pskyline: 1140
    [543, 393],  // subspace: 936
    // Three predicates.
    [304, 248], // top-k:    552
    [380, 359], // skyline:  739
    [332, 371], // dynamic:  703
    [337, 282], // hull:     619
    [317, 283], // pskyline: 600
    [204, 72],  // subspace: 276
];

/// The same for the resumable runs, in the fixture's order. They keep
/// saved lists, so they test every child, preference first.
const EXPECTED_RESUMABLE: &[[u64; 2]] = &[
    [192, 0],  // top-k,   0 predicates: 192
    [1368, 0], // skyline, 0 predicates: 1368
    [372, 0],  // top-k,   1 predicate:  372
    [2316, 0], // skyline, 1 predicate:  2316
    [624, 0],  // top-k,   2 predicates: 624
    [1464, 0], // skyline, 2 predicates: 1464
    [480, 0],  // top-k,   3 predicates: 480
    [643, 0],  // skyline, 3 predicates: 643
    [588, 0],  // top-k drill-down:      588
    [48, 0],   // top-k roll-up:         48
    [444, 0],  // skyline drill-down:    444
    [396, 0],  // skyline roll-up:       396
];

fn row(stats: &QueryStats) -> [u64; 2] {
    [stats.children_tested, stats.children_ruled_out]
}

fn table(rows: &[[u64; 2]]) -> String {
    rows.iter().map(|r| format!("    {r:?},\n")).collect()
}

#[test]
fn children_tested_and_ruled_out_match_the_capture() {
    let db = fixture::build_db();
    let mut rows = Vec::new();
    fixture::for_each_query(&db, |n_preds, class, stats| {
        if n_preds == 0 {
            assert_eq!(
                stats.children_ruled_out, 0,
                "{class} under no predicate ruled a child out"
            );
        }
        rows.push(row(&stats));
    });
    assert_eq!(
        rows.as_slice(),
        EXPECTED_QUERIES,
        "work counts moved; actual table:\n{}",
        table(&rows)
    );
    // Not a vacuous pass: a filtered run skips children of every class.
    assert!(rows[6..].iter().all(|r| r[1] > 0));
}

#[test]
fn a_run_that_keeps_lists_tests_every_child() {
    let db = fixture::build_db();
    let mut rows = Vec::new();
    fixture::for_each_resumable(&db, |stats, _| {
        assert_eq!(
            stats.children_ruled_out, 0,
            "a resumable run skipped a child"
        );
        rows.push(row(&stats));
    });
    assert_eq!(
        rows.as_slice(),
        EXPECTED_RESUMABLE,
        "resumable work counts moved; actual table:\n{}",
        table(&rows)
    );
}
