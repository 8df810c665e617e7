//! The §VII dynamic-skyline extension must agree with a brute-force oracle
//! over the transformed space, under boolean selections.

use pcube::core::{DynamicSkylineClass, PCubeConfig, PCubeDb, SkylineClass};
use pcube::cube::Selection;
use pcube::data::{sample_selection, synthetic, Distribution, SyntheticSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn oracle(
    db: &PCubeDb,
    sel: &Selection,
    q: &[f64],
    pref_dims: &[usize],
) -> Vec<u64> {
    let transform = |coords: &[f64]| -> Vec<f64> {
        coords.iter().enumerate().map(|(d, &x)| (x - q[d]).abs()).collect()
    };
    let qualifying: Vec<(u64, Vec<f64>)> = (0..db.relation().len() as u64)
        .filter(|&t| db.relation().matches(t, sel))
        .map(|t| (t, transform(&db.relation().pref_coords(t))))
        .collect();
    let mut sky = Vec::new();
    'outer: for (tid, t) in &qualifying {
        for (other, s) in &qualifying {
            if other != tid {
                let mut strict = false;
                let mut dom = true;
                for &d in pref_dims {
                    if s[d] > t[d] {
                        dom = false;
                        break;
                    }
                    if s[d] < t[d] {
                        strict = true;
                    }
                }
                if dom && strict {
                    continue 'outer;
                }
            }
        }
        sky.push(*tid);
    }
    sky.sort_unstable();
    sky
}

#[test]
fn dynamic_skyline_matches_oracle() {
    let spec = SyntheticSpec {
        n_tuples: 900,
        n_bool: 3,
        n_pref: 2,
        cardinality: 5,
        distribution: Distribution::Uniform,
        seed: 51,
    };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    for n_preds in 0..=2 {
        for _ in 0..4 {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            let q = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let out = db.run(&sel, &DynamicSkylineClass::new(&q, vec![0, 1]));
            let mut got: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
            got.sort_unstable();
            assert_eq!(got, oracle(&db, &sel, &q, &[0, 1]), "sel {sel:?} q {q:?}");
        }
    }
}

#[test]
fn query_point_at_origin_reduces_to_static_skyline() {
    // With q = 0 and non-negative coordinates, |x − 0| = x: the dynamic
    // skyline equals the ordinary skyline.
    let spec = SyntheticSpec { n_tuples: 700, n_pref: 3, ..Default::default() };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let mut rng = StdRng::seed_from_u64(2);
    let sel = sample_selection(db.relation(), 1, &mut rng);
    let dynamic = db.run(&sel, &DynamicSkylineClass::new(&[0.0, 0.0, 0.0], vec![0, 1, 2]));
    let static_sky = db.run(&sel, &SkylineClass::new(vec![0, 1, 2]));
    let mut a: Vec<u64> = dynamic.rows.iter().map(|p| p.0).collect();
    let mut b: Vec<u64> = static_sky.rows.iter().map(|p| p.0).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn center_query_point_prefers_central_tuples() {
    let spec = SyntheticSpec { n_tuples: 2000, n_pref: 2, ..Default::default() };
    let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
    let q = [0.5, 0.5];
    let out = db.run(&Vec::new(), &DynamicSkylineClass::new(&q, vec![0, 1]));
    assert!(!out.rows.is_empty());
    // Every dynamic skyline point must be closer to q (per-dimension) than
    // the farthest corner would allow; in particular the closest tuple to q
    // by L1 must be in the skyline.
    let closest = (0..db.relation().len() as u64)
        .min_by(|&a, &b| {
            let da: f64 = db.relation().pref_coords(a).iter().zip(&q).map(|(x, t)| (x - t).abs()).sum();
            let dbv: f64 = db.relation().pref_coords(b).iter().zip(&q).map(|(x, t)| (x - t).abs()).sum();
            da.partial_cmp(&dbv).unwrap()
        })
        .unwrap();
    assert!(out.rows.iter().any(|p| p.0 == closest), "closest tuple must survive");
}
