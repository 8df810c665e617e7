//! The differential query battery of the crash matrix and the scrub suite,
//! and the size of their damage sweeps. Included (`#[path]`) by
//! `crash_recovery` and `scrub_repair`.

use pcube::prelude::*;

/// Every acceptance query family, answered exactly: static skyline, top-k,
/// dynamic skyline, convex hull — each under the empty selection and one
/// single-predicate selection.
pub fn answers(db: &PCubeDb) -> Vec<Vec<(u64, Vec<f64>)>> {
    let selections: [Selection; 2] = [Vec::new(), vec![Predicate { dim: 0, value: 1 }]];
    let f = MinCoordSum::new(vec![0, 1]);
    let mut out = Vec::new();
    for sel in &selections {
        out.push(db.run(sel, &SkylineClass::new(vec![0, 1])).rows);
        out.push(
            db.run(sel, &TopKClass::new(5, &f))
                .rows
                .into_iter()
                .map(|(tid, coords, score)| {
                    let mut c = coords;
                    c.push(score);
                    (tid, c)
                })
                .collect(),
        );
        out.push(db.run(sel, &DynamicSkylineClass::new(&[0.45, 0.55], vec![0, 1])).rows);
        out.push(
            db.run(sel, &HullClass::new((0, 1)))
                .rows
                .into_iter()
                .map(|(tid, xy)| (tid, xy.to_vec()))
                .collect(),
        );
    }
    out
}

/// How many seeds a damage sweep runs: the suite's `default`, unless
/// `PCUBE_DAMAGE_SEEDS` names another count (CI's reduced matrices do).
pub fn damage_seeds(default: u64) -> u64 {
    std::env::var("PCUBE_DAMAGE_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}
