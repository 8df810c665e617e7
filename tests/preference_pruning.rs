//! The two preference-pruning structures behind the kernel's
//! `PreferenceLogic` seam, on the inputs they are sharpest — and so most
//! fragile — on.
//!
//! * The hull class prunes with a *closed* inside-test against an exact
//!   running hull. Quantized data (every coordinate a multiple of 1/8) puts
//!   a large share of the rows *on* hull edges, several on the same vertex
//!   under different tids, and makes every cross product an exact multiple
//!   of 1/64 — so a boundary point that is pruned when it should have
//!   surfaced (the smallest tid of a vertex) shows as a wrong row, not as
//!   noise.
//! * The skyline family's `Window` must give the verdict of the linear
//!   dominance scan it replaced, whatever the insertion order.

use pcube::core::query::{dominates, Window};
use pcube::core::{HullClass, PCubeConfig, PCubeDb, ParallelOptions, QueryClass};
use pcube::cube::{Predicate, Relation, Schema, Selection};
use pcube::data::{synthetic, Distribution, SyntheticSpec};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Hulls of quantized, clamped and degenerate tables
// ---------------------------------------------------------------------------

/// A table of `(code, [x, y, z])` rows on 512-byte pages, so a few thousand
/// rows make a tree three levels deep.
fn table(rows: impl IntoIterator<Item = (u32, [f64; 3])>) -> PCubeDb {
    let mut relation = Relation::new(Schema::new(&["a"], &["x", "y", "z"]));
    for (code, coords) in rows {
        relation.push_coded(&[code], &coords);
    }
    PCubeDb::build(relation, &PCubeConfig { page_size: 512, ..PCubeConfig::default() })
}

/// A deterministic stream of values below `n`.
fn stream(seed: u32) -> impl FnMut(u32) -> u32 {
    let mut x = seed;
    move |n| {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        (x >> 8) % n
    }
}

/// Serial == `par_run` at 2 / 3 / 8 workers == the class's oracle, for the
/// hull over `dims`, with no predicate and under each value of the boolean
/// dimension. Rows carry tids, so a vertex reported under the wrong
/// duplicate fails.
fn assert_hull_matches_oracle(db: &PCubeDb, dims: (usize, usize), codes: u32) {
    let class = HullClass::new(dims);
    let selections = std::iter::once(Selection::new())
        .chain((0..codes).map(|v| vec![Predicate { dim: 0, value: v }]));
    for sel in selections {
        let qualifying: Vec<(u64, Vec<f64>)> = (0..db.relation().len() as u64)
            .filter(|&tid| db.relation().matches(tid, &sel))
            .map(|tid| (tid, db.relation().pref_coords(tid)))
            .collect();
        let expect = class.oracle(&qualifying);
        let serial = db.run(&sel, &class);
        assert_eq!(serial.rows, expect, "serial, dims {dims:?}, sel {sel:?}");
        for workers in [2, 3, 8] {
            let par = db.par_run(&sel, &class, ParallelOptions::with_workers(workers));
            assert_eq!(par.rows, expect, "{workers} workers, dims {dims:?}, sel {sel:?}");
        }
    }
}

#[test]
fn hull_of_quantized_rows_names_the_smallest_tid_of_every_vertex() {
    // 3,000 rows on a 9 × 9 × 9 grid: every grid corner is hit by several
    // tids, every face of the cube holds collinear runs.
    let mut next = stream(7);
    let eighth = |v: u32| f64::from(v) / 8.0;
    let db = table((0..3_000).map(|_| {
        (next(3), [eighth(next(9)), eighth(next(9)), eighth(next(9))])
    }));
    for dims in [(0, 1), (2, 0)] {
        assert_hull_matches_oracle(&db, dims, 3);
    }
}

#[test]
fn hull_of_rows_clamped_onto_the_faces_matches_the_oracle() {
    // The shape of the anti-correlated generator: a band around a plane,
    // with what falls outside the unit cube clamped onto its faces — a third
    // of the rows end up exactly on a face, at unquantized positions along
    // it.
    let mut next = stream(11);
    let mut unit = || f64::from(next(1 << 20)) / f64::from(1 << 20);
    let db = table((0..4_000u32).map(|i| {
        let (a, b) = (unit() * 1.6 - 0.3, unit() * 1.6 - 0.3);
        let c = 1.5 - a - b + (unit() - 0.5) * 0.2;
        (i % 4, [a.clamp(0.0, 1.0), b.clamp(0.0, 1.0), c.clamp(0.0, 1.0)])
    }));
    for dims in [(0, 1), (1, 2)] {
        assert_hull_matches_oracle(&db, dims, 4);
    }
}

#[test]
fn hull_of_degenerate_tables_matches_the_oracle() {
    // All rows on one point: the answer is the smallest tid.
    let db = table((0..600u32).map(|i| (i % 2, [0.5, 0.25, 0.75])));
    assert_hull_matches_oracle(&db, (0, 1), 2);
    assert_eq!(db.run(&Selection::new(), &HullClass::new((0, 1))).rows, vec![(0, [0.5, 0.25])]);

    // All rows on one line (in the projection; the third coordinate varies):
    // the answer is its two ends, each under its smallest tid.
    let mut next = stream(3);
    let db = table((0..900u32).map(|i| {
        let t = f64::from(next(9)) / 8.0;
        (i % 2, [t, 1.0 - t, f64::from(next(9)) / 8.0])
    }));
    assert_hull_matches_oracle(&db, (0, 1), 2);
    assert_eq!(db.run(&Selection::new(), &HullClass::new((0, 1))).rows.len(), 2);

    // A square whose corners appear only after hundreds of interior and
    // edge rows, each corner twice: the later duplicate must not win.
    let mut next = stream(5);
    let mut rows: Vec<(u32, [f64; 3])> = (0..800)
        .map(|_| (0, [f64::from(next(7) + 1) / 8.0, f64::from(next(9)) / 8.0, 0.5]))
        .collect();
    for corner in [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]] {
        rows.push((0, [corner[0], corner[1], 0.5]));
    }
    rows.extend((0..4).map(|i| (0, [f64::from(i % 2), f64::from(i / 2), 0.25])));
    let db = table(rows);
    assert_hull_matches_oracle(&db, (0, 1), 1);
    let tids: Vec<u64> =
        db.run(&Selection::new(), &HullClass::new((0, 1))).rows.iter().map(|r| r.0).collect();
    assert_eq!(tids, vec![800, 801, 802, 803]);
}

// ---------------------------------------------------------------------------
// The hull pruning is sharp, not just right
// ---------------------------------------------------------------------------

#[test]
fn unfiltered_hull_on_uniform_rows_reads_a_pinned_share_of_the_tree() {
    // The table of `tests/kernel_counters.rs`: uniform, unclamped, so the
    // count owes nothing to rows sitting on a face. The strict inside-test
    // with a hull refreshed at power-of-two sizes expanded 780 of the 1,819
    // nodes here.
    let spec = SyntheticSpec {
        n_tuples: 20_000,
        n_bool: 3,
        n_pref: 3,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: 12,
    };
    let cfg = PCubeConfig { page_size: 1024, ..PCubeConfig::default() };
    let db = PCubeDb::build(synthetic(&spec), &cfg);
    let out = db.run(&Selection::new(), &HullClass::new((0, 2)));
    assert!(out.rows.len() >= 3);
    assert!(
        out.stats.nodes_expanded <= 159,
        "unfiltered hull expanded {} of {} nodes",
        out.stats.nodes_expanded,
        db.rtree().count_nodes()
    );
}

// ---------------------------------------------------------------------------
// Window::dominated == the linear dominance scan
// ---------------------------------------------------------------------------

/// Coordinates from a six-value grid, so equal coordinates and equal points
/// are the rule; grid value 0 comes as `0.0` or `-0.0`.
fn arb_point() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..6, 0u8..2), 5..=5).prop_map(|raw| {
        raw.into_iter()
            .map(|(v, negative)| f64::from(v) * if negative == 1 { -0.5 } else { 0.5 })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each step pushes a point and then asks about another. The window
    /// starts as a plain scan and crosses into its indexed form on the way;
    /// the verdict must be the linear scan's at every step. Negative grid
    /// values only ever meet the window through `|x − q|` or as `-0.0`.
    #[test]
    fn window_verdict_equals_the_linear_scan(
        stride in 1usize..=5,
        steps in prop::collection::vec((arb_point(), arb_point()), 1..150),
        query_point in arb_point(),
        dynamic in 0u8..2,
    ) {
        let dims: Vec<usize> = (0..stride).collect();
        let transform = |p: &[f64]| -> Vec<f64> {
            let static_coord = |x: f64| if x == 0.0 { x } else { x.abs() };
            p[..stride]
                .iter()
                .zip(&query_point)
                .map(|(&x, &q)| if dynamic == 1 { (x - q).abs() } else { static_coord(x) })
                .collect()
        };
        let mut window = Window::new(stride);
        let mut members: Vec<Vec<f64>> = Vec::new();
        for (pushed, asked) in &steps {
            let member = transform(pushed);
            window.push(&member);
            members.push(member);
            let p = transform(asked);
            let scan = members.iter().any(|r| dominates(r, &p, &dims));
            prop_assert_eq!(window.dominated(&p), scan, "{:?} against {:?}", p, members);
        }
        prop_assert_eq!(window.len(), steps.len());
    }
}
