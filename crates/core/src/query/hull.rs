//! Planar convex-hull geometry for the hull query class
//! ([`HullClass`](crate::query::HullClass), §VII): the monotone chain the
//! class finishes and merges with, and the running hull its kernel logic
//! prunes and orders with.

fn cross(o: [f64; 2], a: [f64; 2], b: [f64; 2]) -> f64 {
    (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
}

/// The convex hull of the points inserted so far, kept exact: every point
/// outside it is spliced in where it lands, in `O(h)` and in place.
///
/// Vertices run counter-clockwise and are strictly convex once there are
/// three of them; until then the "hull" is a point or the two ends of a
/// segment (built by the chain), and nothing counts as inside it.
#[derive(Default)]
pub(crate) struct RunningHull {
    vertices: Vec<[f64; 2]>,
    /// `1 / |v[i+1] − v[i]|` per edge: scales an edge's cross product to the
    /// distance from its line.
    inv_len: Vec<f64>,
}

/// The edges of the closed polygon `v`, each as `(from, to)`.
fn edges(v: &[[f64; 2]]) -> impl Iterator<Item = ([f64; 2], [f64; 2])> + '_ {
    v.iter().copied().zip(v.iter().copied().cycle().skip(1))
}

// `#[inline]` throughout: `HullLogic` (kernel.rs) calls these once or more per
// popped entry, and without it whether they inline there depends on how rustc
// happens to partition the crate into codegen units — moving an unrelated
// module cost hull queries 12 % (EXPERIMENTS.md, PR 21).
impl RunningHull {
    /// How far `p` lies outside the hull: the largest distance from `p` to
    /// the line of an edge that has `p` on its outer side (negative when
    /// every edge has `p` strictly on its inner side). `p` is in the
    /// *closed* hull iff this is `≤ 0` — the sign is that of the edge's
    /// cross product, so a point on an edge is inside exactly. `f64::MAX`
    /// while the hull has no area yet.
    #[inline]
    pub(crate) fn outside(&self, p: [f64; 2]) -> f64 {
        if self.vertices.len() < 3 {
            return f64::MAX;
        }
        edges(&self.vertices)
            .zip(&self.inv_len)
            .map(|((a, b), inv)| -cross(a, b, p) * inv)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// [`Self::outside`] of the farthest corner of the box `[min, max]`; the
    /// box lies in the closed hull iff this is `≤ 0`.
    #[inline]
    pub(crate) fn outside_box(&self, min: [f64; 2], max: [f64; 2]) -> f64 {
        [[min[0], min[1]], [min[0], max[1]], [max[0], min[1]], [max[0], max[1]]]
            .into_iter()
            .map(|corner| self.outside(corner))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `true` if some vertex lies in the closed box `[min, max]` (a point,
    /// when `min == max`).
    #[inline]
    pub(crate) fn has_vertex_in(&self, min: [f64; 2], max: [f64; 2]) -> bool {
        self.vertices
            .iter()
            .any(|v| min[0] <= v[0] && v[0] <= max[0] && min[1] <= v[1] && v[1] <= max[1])
    }

    /// Grows the hull to cover `p`; a no-op when `p` is in the closed hull.
    #[inline]
    pub(crate) fn insert(&mut self, p: [f64; 2]) {
        let v = &mut self.vertices;
        let n = v.len();
        if n < 3 {
            // A point or a segment: too few points to splice into, so chain
            // them (collinear points keep their two extremes).
            let points: Vec<_> = v.iter().chain([&p]).map(|&q| (0, q)).collect();
            *v = monotone_chain(&points).into_iter().map(|q| q.1).collect();
        } else {
            // The edges that see `p` (negative turn) form one arc. Start at
            // the edge that sees it best and widen both ways over edges with
            // a turn `≤ 0`: where the arc ends on an edge whose line merely
            // passes through `p`, that edge's near vertex would be left
            // collinear, so it goes too.
            let turn = |v: &[[f64; 2]], i: usize| cross(v[i % n], v[(i + 1) % n], p);
            let (mut first, least) = (0..n)
                .map(|i| (i, turn(v, i)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("three or more edges");
            if least >= 0.0 {
                return;
            }
            let mut arc = 1;
            while arc < n - 1 && turn(v, first + n - 1) <= 0.0 {
                first = (first + n - 1) % n;
                arc += 1;
            }
            while arc < n - 1 && turn(v, first + arc) <= 0.0 {
                arc += 1;
            }
            // `p` replaces the `arc − 1` vertices strictly inside the arc.
            v.rotate_left((first + 1) % n);
            v.drain(..arc - 1);
            v.push(p);
        }
        self.inv_len.clear();
        self.inv_len
            .extend(edges(&self.vertices).map(|(a, b)| 1.0 / (b[0] - a[0]).hypot(b[1] - a[1])));
    }
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

    /// The running hull's vertices, rotated to start where the chain does.
    fn canonical(hull: &RunningHull) -> Vec<[f64; 2]> {
        let mut v = hull.vertices.clone();
        let start = (0..v.len())
            .min_by(|&a, &b| v[a][0].total_cmp(&v[b][0]).then(v[a][1].total_cmp(&v[b][1])));
        v.rotate_left(start.unwrap_or(0));
        v
    }

    #[test]
    fn running_hull_equals_the_chain_after_every_insertion() {
        // Multiples of 1/8: collinear runs, duplicates and exact zeros of the
        // cross product, in an order that is neither sorted nor nested.
        let mut raw = Vec::new();
        let mut x = 5u32;
        for _ in 0..400 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            raw.push((f64::from((x >> 8) % 9) / 8.0, f64::from((x >> 16) % 9) / 8.0));
        }
        for start in [0, 1, 7] {
            let mut hull = RunningHull::default();
            for (i, &(x, y)) in raw[start..].iter().enumerate() {
                hull.insert([x, y]);
                let chain = monotone_chain(&pts(&raw[start..=start + i]));
                let expect: Vec<[f64; 2]> = chain.iter().map(|p| p.1).collect();
                assert_eq!(canonical(&hull), expect, "after {} points from {start}", i + 1);
            }
        }
    }

    #[test]
    fn running_hull_of_collinear_points_stays_a_segment() {
        let mut hull = RunningHull::default();
        for x in [0.5, 0.25, 0.75, 0.5, 1.0, 0.0, 0.125] {
            hull.insert([x, 1.0 - x]);
            assert_eq!(hull.outside([x, 1.0 - x]), f64::MAX, "no area, nothing is inside");
        }
        assert_eq!(canonical(&hull), vec![[0.0, 1.0], [1.0, 0.0]]);
        hull.insert([0.0, 0.0]);
        assert_eq!(canonical(&hull), vec![[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]);
    }

    #[test]
    fn inside_test_is_closed() {
        let mut hull = RunningHull::default();
        for p in [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]] {
            hull.insert(p);
        }
        assert!(hull.outside([0.5, 0.5]) < 0.0);
        assert_eq!(hull.outside([0.5, 0.5]), -0.5, "a distance, not a cross product");
        assert!(hull.outside([0.0, 0.5]) <= 0.0, "the boundary is inside");
        assert!(hull.outside([1.0, 1.0]) <= 0.0, "and so is a vertex");
        assert_eq!(hull.outside([1.5, 0.5]), 0.5);
        assert!(hull.outside_box([0.0, 0.25], [0.5, 1.0]) <= 0.0);
        assert_eq!(hull.outside_box([0.5, 0.5], [1.25, 0.75]), 0.25);
        assert!(hull.has_vertex_in([0.5, 0.5], [1.0, 1.0]));
        assert!(!hull.has_vertex_in([0.25, 0.0], [0.75, 1.0]));
        assert!(hull.has_vertex_in([0.0, 1.0], [0.0, 1.0]));
    }
}
