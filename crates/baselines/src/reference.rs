//! In-memory reference algorithms: the ground truth the differential,
//! fault-injection, property and correctness suites and the planner
//! benchmark compare the engines' answers with.

use pcube_core::RankingFunction;

/// Block-nested-loop skyline (Börzsönyi et al. \[2\]) over `(tid, coords)`
/// pairs, restricted to the given dimensions. Returns surviving pairs in
/// input order.
pub fn bnl_skyline(points: &[(u64, Vec<f64>)], dims: &[usize]) -> Vec<(u64, Vec<f64>)> {
    let mut window: Vec<(u64, Vec<f64>)> = Vec::new();
    'outer: for (tid, coords) in points {
        let mut i = 0;
        while i < window.len() {
            if dominates(&window[i].1, coords, dims) {
                continue 'outer;
            }
            if dominates(coords, &window[i].1, dims) {
                window.swap_remove(i);
            } else {
                i += 1;
            }
        }
        window.push((*tid, coords.clone()));
    }
    window
}

/// Exact top-k by full sort: `(tid, coords, score)` ascending by score,
/// ties by tid.
pub fn naive_topk(
    points: &[(u64, Vec<f64>)],
    k: usize,
    f: &dyn RankingFunction,
) -> Vec<(u64, Vec<f64>, f64)> {
    let mut scored: Vec<(u64, Vec<f64>, f64)> =
        points.iter().map(|(t, c)| (*t, c.clone(), f.score(c))).collect();
    scored.sort_by(|a, b| {
        a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// `a` dominates `b` on `dims`: no worse anywhere, better somewhere.
/// (Re-exported from the core engine so both sides share one definition.)
pub use pcube_core::query::dominates;

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_core::LinearFn;

    fn pts(raw: &[(f64, f64)]) -> Vec<(u64, Vec<f64>)> {
        raw.iter().enumerate().map(|(i, (x, y))| (i as u64, vec![*x, *y])).collect()
    }

    #[test]
    fn bnl_finds_staircase() {
        let points = pts(&[(0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.6, 0.6), (0.1, 0.95)]);
        let mut sky: Vec<u64> = bnl_skyline(&points, &[0, 1]).iter().map(|p| p.0).collect();
        sky.sort_unstable();
        assert_eq!(sky, vec![0, 1, 2]);
    }

    #[test]
    fn bnl_keeps_exactly_the_undominated_points() {
        // Deterministic pseudo-random points.
        let points: Vec<(u64, Vec<f64>)> = (0..300u64)
            .map(|i| {
                let x = (i as f64 * 0.754_877) % 1.0;
                let y = (i as f64 * 0.569_840) % 1.0;
                let z = (i as f64 * 0.342_123) % 1.0;
                (i, vec![x, y, z])
            })
            .collect();
        for dims in [vec![0, 1, 2], vec![0, 1], vec![2]] {
            let mut a: Vec<u64> = bnl_skyline(&points, &dims).iter().map(|p| p.0).collect();
            a.sort_unstable();
            let b: Vec<u64> = points
                .iter()
                .filter(|(_, p)| !points.iter().any(|(_, q)| dominates(q, p, &dims)))
                .map(|p| p.0)
                .collect();
            assert_eq!(a, b, "dims {dims:?}");
        }
    }

    #[test]
    fn duplicates_are_mutually_non_dominating() {
        let points = pts(&[(0.5, 0.5), (0.5, 0.5), (0.7, 0.7)]);
        let sky = bnl_skyline(&points, &[0, 1]);
        assert_eq!(sky.len(), 2, "both duplicates survive, the dominated point dies");
    }

    #[test]
    fn single_dimension_skyline_is_the_minima() {
        let points = pts(&[(0.3, 0.0), (0.1, 0.0), (0.1, 9.0), (0.2, 0.0)]);
        let sky: Vec<u64> = bnl_skyline(&points, &[0]).iter().map(|p| p.0).collect();
        assert_eq!(sky, vec![1, 2]);
    }

    #[test]
    fn naive_topk_orders_and_truncates() {
        let points = pts(&[(0.9, 0.9), (0.1, 0.1), (0.5, 0.5), (0.2, 0.1)]);
        let f = LinearFn::new(vec![1.0, 1.0]);
        let top = naive_topk(&points, 2, &f);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 3);
        assert!(top[0].2 <= top[1].2);
        // k larger than the set is fine.
        assert_eq!(naive_topk(&points, 10, &f).len(), 4);
    }

    #[test]
    fn empty_inputs() {
        assert!(bnl_skyline(&[], &[0]).is_empty());
        assert!(naive_topk(&[], 3, &LinearFn::new(vec![1.0])).is_empty());
    }
}
