//! Counter identity for the Algorithm 1 kernel — the tier-1 form of
//! "`blocks_per_query` must not move".
//!
//! One seeded 20k-row table, 24 fixed queries (six classes × 0–3
//! predicates) through the serial `db.run`, plus the saved-list lengths of
//! the resumable runs (`run_resumable` / `drill_down` / `roll_up`). Every
//! count below was captured on the commit *before* the kernel's expansion
//! loop was rewritten (PR 12); a kernel change that reads a different page,
//! loads a partial signature at a different moment, expands a different node
//! or keeps a different heap fails here with the full actual table printed,
//! ready to diff. The one exception: PR 16 changed what the hull class prunes
//! (a closed inside-test against an exact running hull, nodes ordered by
//! their distance outside it), so its four rows — 3, 9, 15, 21 — were
//! captured after it: 780 / 911 / 816 / 972 nodes expanded became 159 / 282 /
//! 380 / 538, and the frontier (`peak_heap`), no longer depth-first, went
//! from 45 / 33 / 30 / 29 to 465 / 512 / 287 / 361.
//!
//! PR 25 gave the lazy multi-predicate probe one level of the Fig 3.c
//! fix-up (`keep_child`'s look-ahead): a child node the masks keep is
//! dropped unread when the conjuncts share no bit in its own arrays. Only
//! runs under two or more predicates can move, and each moved row says why
//! beside it; the 0- and 1-predicate rows are the capture above, byte for
//! byte.
//!
//! PR 28 finished the fix-up lazily (`keep`'s subtree check,
//! `store::fix_up`): a popped node is read only if the conjuncts'
//! intersected subtree under it is non-empty, checked recursively down to
//! the leaf level and memoised per node. Again only the 2- and 3-predicate rows and the saved lists of
//! 2/3-predicate runs moved, each with its reason (old → new, against PR
//! 25's pins); the 0- and 1-predicate rows are unedited.
//!
//! 1 KB pages make every cell's signature span several partials, so the
//! lazy-load moments (which cursor is consulted for which child) show in the
//! `sig` / `bptree` / `partials` columns rather than rounding to one page.

use pcube::core::{
    DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb, PSkylineClass, PriorityGraph,
    QueryClass, QueryStats, SavedState, SkylineClass, SubspaceSkylineClass, TopKClass,
};
use pcube::cube::{Predicate, Selection};
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use pcube::storage::IoCategory;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLASSES: [&str; 6] = ["topk", "skyline", "dynamic", "hull", "pskyline", "subspace"];

/// `[rtree, sig, bptree, tuple, heap-scan reads, partials_loaded,
/// nodes_expanded, peak_heap]` per query, in predicates-major,
/// class-minor order (row `6·p + c` is class `CLASSES[c]` under `p` predicates).
const EXPECTED_QUERIES: &[[u64; 8]] = &[
    [16, 0, 0, 0, 0, 0, 16, 168],
    [114, 0, 0, 0, 0, 0, 114, 134],
    [600, 0, 0, 0, 0, 0, 600, 318],
    [159, 0, 0, 0, 0, 0, 159, 465],
    [59, 0, 0, 0, 0, 0, 59, 133],
    [52, 0, 0, 0, 0, 0, 52, 323],
    [30, 3, 3, 0, 0, 3, 30, 139],
    [179, 12, 2, 0, 0, 12, 179, 112],
    [511, 13, 1, 0, 0, 13, 511, 260],
    [282, 12, 2, 0, 0, 12, 282, 512],
    [114, 9, 1, 0, 0, 9, 114, 120],
    [66, 10, 1, 0, 0, 10, 66, 284],
    // Two and three predicates (PR 28): every row reads fewer R-tree nodes
    // (a popped node whose subtree holds no tuple of every conjunct is
    // dropped unread, at any level), so fewer nodes are expanded; `sig` and
    // `partials` grow only where the subtree check loads bits the search
    // itself never needed. A dropped node had been pushed already, so the
    // frontier moves only where fewer expansions push less.
    [55, 18, 3, 0, 0, 18, 55, 120],   // top-k:    58 nodes → 55, 16 partials → 18
    [121, 24, 3, 0, 0, 24, 121, 66],  // skyline:  130 → 121, 24 = 24
    [198, 26, 3, 0, 0, 26, 198, 135], // dynamic:  211 → 198, 26 = 26
    [170, 26, 3, 0, 0, 26, 170, 157], // hull:     178 → 170, 26 = 26
    [95, 24, 3, 0, 0, 24, 95, 63],    // pskyline: 100 → 95,  24 = 24
    [78, 24, 4, 0, 0, 24, 78, 123],   // subspace: 84 → 78,   24 = 24
    [46, 36, 5, 0, 0, 36, 46, 84],    // top-k:    106 → 46,  36 = 36
    [62, 39, 4, 0, 0, 39, 62, 92],    // skyline:  141 → 62,  39 = 39
    [59, 39, 5, 0, 0, 39, 59, 84],    // dynamic:  145 → 59,  39 = 39, peak heap 95 → 84
    [52, 39, 5, 0, 0, 39, 52, 118],   // hull:     153 → 52,  39 = 39
    [50, 36, 5, 0, 0, 36, 50, 62],    // pskyline: 112 → 50,  36 = 36
    [23, 36, 3, 0, 0, 36, 23, 105],   // subspace: 66 → 23,   34 → 36
];

/// `[b_list, d_list]` lengths after each saved-lists run, in the order
/// `saved_list_lengths` produces them.
const EXPECTED_LISTS: &[[usize; 2]] = &[
    [0, 167],
    [0, 1198],
    [189, 143],
    [261, 1827],
    // Two and three predicates (PR 28): a node the subtree check drops at
    // pop time is one `b_list` entry instead of its children's (a shorter
    // `b_list`), and a search that expands fewer nodes saves fewer
    // preference-pruned children (a shorter `d_list`).
    [446, 117], // top-k,   2 predicates: 479 → 446, 117 = 117
    [341, 991], // skyline, 2 predicates: 364 → 341, 1067 → 991
    [376, 55],  // top-k,   3 predicates: 1050 → 376, 63 → 55
    [300, 282], // skyline, 3 predicates: 823 → 300, 595 → 282
    // A drill-down to 2 predicates runs the subtree check on what it pops;
    // the roll-up after it is a 1-predicate run (no check) restarted from
    // that moved `b_list`, so only its `d_list` moves.
    [679, 148],  // top-k drill-down:   1108 → 679, 148 = 148
    [82, 789],   // top-k roll-up:      82 = 82, 1218 → 789
    [714, 1814], // skyline drill-down: 794 → 714, 2295 → 1814
    [168, 2710], // skyline roll-up:    168 = 168, 3139 → 2710
];

fn build_db() -> PCubeDb {
    let spec = SyntheticSpec {
        n_tuples: 20_000,
        n_bool: 3,
        n_pref: 3,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: 12,
    };
    let cfg = PCubeConfig {
        page_size: 1024,
        ..PCubeConfig::default()
    };
    PCubeDb::build(synthetic(&spec), &cfg)
}

fn row(stats: &QueryStats) -> [u64; 8] {
    [
        stats.io.reads(IoCategory::RtreeBlock),
        stats.io.reads(IoCategory::SignaturePage),
        stats.io.reads(IoCategory::BptreePage),
        stats.io.reads(IoCategory::TupleRandomAccess),
        stats.io.reads(IoCategory::HeapScan),
        stats.partials_loaded,
        stats.nodes_expanded,
        stats.peak_heap as u64,
    ]
}

/// Runs the 24 fixed queries and hands each one's statistics to `record`.
fn for_each_query(db: &PCubeDb, mut record: impl FnMut(&'static str, QueryStats)) {
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let graph = PriorityGraph::new(vec![0, 1, 2], &[(0, 1)]).expect("acyclic");
    let mut rng = StdRng::seed_from_u64(1208);
    for n_preds in 0..=3usize {
        for class in CLASSES {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            let stats = match class {
                "topk" => db.run(&sel, &TopKClass::new(10, &f)).stats,
                "skyline" => db.run(&sel, &SkylineClass::new(vec![0, 1, 2])).stats,
                "dynamic" => {
                    db.run(
                        &sel,
                        &DynamicSkylineClass::new(&[0.4, 0.6, 0.5], vec![0, 1, 2]),
                    )
                    .stats
                }
                "hull" => db.run(&sel, &HullClass::new((0, 2))).stats,
                "pskyline" => db.run(&sel, &PSkylineClass::new(graph.clone())).stats,
                "subspace" => db.run(&sel, &SubspaceSkylineClass::new(vec![1, 2])).stats,
                other => unreachable!("unknown class {other}"),
            };
            record(class, stats);
        }
    }
}

fn query_rows(db: &PCubeDb) -> Vec<[u64; 8]> {
    let mut rows = Vec::new();
    for_each_query(db, |_, stats| rows.push(row(&stats)));
    rows
}

/// A predicate on `dim` taken from an existing row, so drill-downs keep
/// matching something.
fn predicate_on(db: &PCubeDb, dim: usize, tid: u64) -> Predicate {
    Predicate {
        dim,
        value: db.relation().bool_code(tid, dim),
    }
}

fn list_lengths<C: QueryClass>(state: &SavedState<'_, C>) -> [usize; 2] {
    [state.b_list_len(), state.d_list_len()]
}

fn saved_list_lengths(db: &PCubeDb) -> Vec<[usize; 2]> {
    let f = LinearFn::new(vec![0.5, 0.3, 0.2]);
    let top10 = TopKClass::new(10, &f);
    let skyline = SkylineClass::new(vec![0, 1, 2]);
    let mut rng = StdRng::seed_from_u64(1209);
    let mut lens = Vec::new();
    for n_preds in 0..=3usize {
        let sel = sample_selection(db.relation(), n_preds, &mut rng);
        lens.push(list_lengths(&db.run_resumable(&sel, &top10).1));
        lens.push(list_lengths(&db.run_resumable(&sel, &skyline).1));
    }
    // Restored entries: a drill-down re-probes the old result and d_list at
    // pop time, a roll-up the old b_list — the full-path probe the kernel
    // keeps for entries that did not come from the expansion before them.
    let base: Selection = vec![predicate_on(db, 0, 77)];
    let (_, top) = db.run_resumable(&base, &top10);
    let (_, drilled) = db.drill_down(top, predicate_on(db, 1, 77));
    lens.push(list_lengths(&drilled));
    let (_, rolled) = db.roll_up(drilled, 0);
    lens.push(list_lengths(&rolled));
    let (_, sky) = db.run_resumable(&base, &skyline);
    let (_, drilled) = db.drill_down(sky, predicate_on(db, 2, 77));
    lens.push(list_lengths(&drilled));
    let (_, rolled) = db.roll_up(drilled, 0);
    lens.push(list_lengths(&rolled));
    lens
}

#[test]
fn kernel_counters_match_the_pre_rewrite_capture() {
    let db = build_db();
    let rows = query_rows(&db);
    assert_eq!(
        rows.as_slice(),
        EXPECTED_QUERIES,
        "per-query counters moved; actual table:\n{}",
        rows.iter()
            .map(|r| format!("    {r:?},\n"))
            .collect::<String>()
    );
    // Not a vacuous pass: the table must exercise every counter the kernel
    // can move (signature pages, directory pages, multi-partial cursors).
    assert!(
        rows.iter().any(|r| r[1] > 3 && r[2] > 0 && r[5] > 3),
        "no multi-partial query"
    );
    assert!(rows.iter().all(|r| r[6] > 0 && r[7] > 0));
}

#[test]
fn saved_list_lengths_match_the_pre_rewrite_capture() {
    let db = build_db();
    let lens = saved_list_lengths(&db);
    assert_eq!(
        lens.as_slice(),
        EXPECTED_LISTS,
        "b_list/d_list lengths moved; actual table:\n{}",
        lens.iter()
            .map(|r| format!("    {r:?},\n"))
            .collect::<String>()
    );
    assert!(lens.iter().any(|l| l[0] > 0) && lens.iter().any(|l| l[1] > 0));
}

/// The four stage clocks of a serial run leave nothing out: pin, page-read,
/// score and merge sum to the run's `cpu_seconds` (ROADMAP item 1: layers
/// sum to the end-to-end figure). Before PR 16 the heap pop, `accept` and
/// the drop of each popped entry ran between the clocks, and an unfiltered
/// hull's stages summed to 59 % of its run.
#[test]
fn serial_stage_times_sum_to_the_run() {
    let db = build_db();
    // A stretch outside every clock is a few instructions long, but a
    // preemption that lands in one is charged to it: the sum is over all 24
    // queries, and the best of three passes counts.
    let mut best: Vec<(&str, f64)> = Vec::new();
    for _ in 0..3 {
        let mut sums = [(0.0, 0.0); CLASSES.len()];
        for_each_query(&db, |class, stats| {
            let at = CLASSES.iter().position(|&c| c == class).expect("listed");
            sums[at].0 += stats.stages.total_seconds();
            sums[at].1 += stats.cpu_seconds;
        });
        let shares = CLASSES.iter().zip(sums).map(|(&c, (staged, cpu))| (c, staged / cpu));
        best = match best.is_empty() {
            true => shares.collect(),
            false => shares.zip(&best).map(|((c, new), &(_, old))| (c, new.max(old))).collect(),
        };
    }
    for (class, share) in best {
        assert!(
            (0.95..=1.0 + 1e-9).contains(&share),
            "{class}: the stages cover {:.1} % of cpu_seconds",
            100.0 * share
        );
    }
}
