//! Planar convex-hull geometry for the hull query class
//! ([`HullClass`](crate::query::HullClass), §VII): the monotone chain the
//! class finishes and merges with, and the strict inside-test its kernel
//! logic prunes with.

fn cross(o: [f64; 2], a: [f64; 2], b: [f64; 2]) -> f64 {
    (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
}

/// `true` if `p` lies strictly inside the (counter-clockwise) hull — on the
/// boundary counts as outside so boundary duplicates are still collected.
pub(crate) fn strictly_inside_hull(hull: &[(u64, [f64; 2])], p: [f64; 2]) -> bool {
    if hull.len() < 3 {
        return false;
    }
    hull.iter().zip(hull.iter().cycle().skip(1)).all(|(&(_, a), &(_, b))| cross(a, b, p) > 1e-12)
}

/// Andrew's monotone chain; returns the hull counter-clockwise, collinear
/// boundary points dropped. Stable for fewer than three points.
pub(crate) fn monotone_chain(points: &[(u64, [f64; 2])]) -> Vec<(u64, [f64; 2])> {
    let mut pts: Vec<(u64, [f64; 2])> = points.to_vec();
    pts.sort_by(|a, b| {
        a.1[0].total_cmp(&b.1[0]).then(a.1[1].total_cmp(&b.1[1])).then(a.0.cmp(&b.0))
    });
    pts.dedup_by(|a, b| a.1 == b.1);
    let n = pts.len();
    if n < 3 {
        return pts;
    }
    let chain = |iter: &mut dyn Iterator<Item = &(u64, [f64; 2])>| {
        let mut half: Vec<(u64, [f64; 2])> = Vec::new();
        for &p in iter {
            while half.len() >= 2
                && cross(half[half.len() - 2].1, half[half.len() - 1].1, p.1) <= 1e-12
            {
                half.pop();
            }
            half.push(p);
        }
        half
    };
    let mut lower = chain(&mut pts.iter());
    let mut upper = chain(&mut pts.iter().rev());
    // Drop each chain's final point — it is the first point of the other.
    lower.pop();
    upper.pop();
    lower.extend(upper);
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(f64, f64)]) -> Vec<(u64, [f64; 2])> {
        raw.iter().enumerate().map(|(i, &(x, y))| (i as u64, [x, y])).collect()
    }

    #[test]
    fn chain_finds_square_hull() {
        let points = pts(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (0.0, 1.0),
            (0.5, 0.5),
            (0.2, 0.8),
        ]);
        let hull = monotone_chain(&points);
        let ids: Vec<u64> = hull.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "ccw from lowest-leftmost");
    }

    #[test]
    fn chain_handles_degenerate_inputs() {
        assert!(monotone_chain(&[]).is_empty());
        assert_eq!(monotone_chain(&pts(&[(0.3, 0.4)])).len(), 1);
        assert_eq!(monotone_chain(&pts(&[(0.0, 0.0), (1.0, 1.0)])).len(), 2);
        // Collinear points collapse to the two extremes.
        let hull = monotone_chain(&pts(&[(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]));
        assert_eq!(hull.len(), 2);
        // All-identical points collapse to one.
        let hull = monotone_chain(&pts(&[(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)]));
        assert_eq!(hull.len(), 1);
    }

    #[test]
    fn inside_test_is_strict() {
        let hull = monotone_chain(&pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]));
        assert!(strictly_inside_hull(&hull, [0.5, 0.5]));
        assert!(!strictly_inside_hull(&hull, [0.0, 0.5]), "boundary is not inside");
        assert!(!strictly_inside_hull(&hull, [1.5, 0.5]));
        assert!(!strictly_inside_hull(&[], [0.5, 0.5]));
    }
}
