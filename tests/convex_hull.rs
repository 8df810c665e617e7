//! §VII convex hull extension: the signature-pruned hull must equal the
//! hull of the brute-force qualifying set.

use pcube::core::{HullClass, PCubeConfig, PCubeDb};
use pcube::cube::Selection;
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cross(o: [f64; 2], a: [f64; 2], b: [f64; 2]) -> f64 {
    (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
}

/// O(n³) hull membership: a point is a hull vertex iff it is not strictly
/// inside the hull of the others — checked via "is there a half-plane
/// through p containing all points", the slow but obviously-correct way:
/// p is a vertex iff it is NOT a strict convex combination; test by
/// checking p is outside the hull of all other points using orientation
/// against every edge of that hull (computed by a reference chain).
fn reference_hull(points: &[(u64, [f64; 2])]) -> Vec<u64> {
    // Reference monotone chain, independent implementation.
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| {
        a.1[0]
            .partial_cmp(&b.1[0])
            .unwrap()
            .then(a.1[1].partial_cmp(&b.1[1]).unwrap())
            .then(a.0.cmp(&b.0))
    });
    pts.dedup_by(|a, b| a.1 == b.1);
    if pts.len() < 3 {
        return pts.iter().map(|p| p.0).collect();
    }
    let half = |iter: Vec<(u64, [f64; 2])>| {
        let mut h: Vec<(u64, [f64; 2])> = Vec::new();
        for p in iter {
            while h.len() >= 2 && cross(h[h.len() - 2].1, h[h.len() - 1].1, p.1) <= 1e-12 {
                h.pop();
            }
            h.push(p);
        }
        h
    };
    let mut lower = half(pts.clone());
    let mut upper = half(pts.into_iter().rev().collect());
    lower.pop();
    upper.pop();
    lower.extend(upper);
    let mut ids: Vec<u64> = lower.into_iter().map(|p| p.0).collect();
    ids.sort_unstable();
    ids
}

fn check(db: &PCubeDb, sel: &Selection) {
    let out = db.run(sel, &HullClass::new((0, 1)));
    let mut got: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
    got.sort_unstable();
    let qualifying: Vec<(u64, [f64; 2])> = (0..db.relation().len() as u64)
        .filter(|&t| db.relation().matches(t, sel))
        .map(|t| {
            let c = db.relation().pref_coords(t);
            (t, [c[0], c[1]])
        })
        .collect();
    let mut expect = reference_hull(&qualifying);
    expect.sort_unstable();
    // Tie handling: when several tuples share a hull-vertex coordinate, any
    // representative is valid. Compare by coordinates instead of tids.
    let coord = |t: u64| {
        let c = db.relation().pref_coords(t);
        (format!("{:.12}", c[0]), format!("{:.12}", c[1]))
    };
    let mut got_pts: Vec<_> = got.iter().map(|&t| coord(t)).collect();
    let mut exp_pts: Vec<_> = expect.iter().map(|&t| coord(t)).collect();
    got_pts.sort();
    exp_pts.sort();
    assert_eq!(got_pts, exp_pts, "sel {sel:?}");
}

#[test]
fn hull_matches_reference_on_uniform_data() {
    let spec = SyntheticSpec {
        n_tuples: 1200,
        n_bool: 3,
        n_pref: 2,
        cardinality: 5,
        distribution: Distribution::Uniform,
        seed: 71,
    };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    check(&db, &Vec::new());
    for n_preds in 1..=2 {
        for _ in 0..4 {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            check(&db, &sel);
        }
    }
}

#[test]
fn hull_matches_reference_on_clustered_data() {
    let spec = SyntheticSpec {
        n_tuples: 800,
        n_bool: 2,
        n_pref: 3,
        cardinality: 4,
        distribution: Distribution::Correlated,
        seed: 72,
    };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..4 {
        let sel = sample_selection(db.relation(), 1, &mut rng);
        check(&db, &sel);
    }
}

#[test]
fn hull_prunes_interior_subtrees() {
    // With no selection, the geometric prune alone should avoid reading a
    // meaningful share of the tree on uniform data.
    let spec = SyntheticSpec { n_tuples: 20_000, n_pref: 2, ..Default::default() };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    db.stats().reset();
    let out = db.run(&Vec::new(), &HullClass::new((0, 1)));
    assert!(out.rows.len() >= 3);
    let total_nodes = db.rtree().count_nodes() as u64;
    assert!(
        out.stats.nodes_expanded < total_nodes,
        "hull search should skip interior nodes: {} vs {total_nodes}",
        out.stats.nodes_expanded
    );
}

#[test]
fn hull_of_empty_selection_is_empty() {
    let spec = SyntheticSpec { n_tuples: 200, n_pref: 2, ..Default::default() };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let sel = vec![pcube::cube::Predicate { dim: 0, value: 9_999 }];
    let out = db.run(&sel, &HullClass::new((0, 1)));
    assert!(out.rows.is_empty());
}
