//! Ranking functions for top-k queries.
//!
//! The paper's requirement (§III): "Given a function f(N1…Nj) and the domain
//! region Ω on its variables, the lower bound of f over Ω can be derived."
//! [`RankingFunction::lower_bound`] is exactly that: a value no greater than
//! `f` anywhere inside an MBR, used to order nodes best-first and to prune.

use pcube_rtree::Mbr;

/// A ranking function over the preference dimensions (smaller is better).
pub trait RankingFunction {
    /// Score of a concrete point.
    fn score(&self, point: &[f64]) -> f64;

    /// A lower bound of the score over the rectangle (must satisfy
    /// `lower_bound(mbr) <= score(p)` for every `p` in `mbr`).
    fn lower_bound(&self, mbr: &Mbr) -> f64;

    /// The largest preference-dimension index the function reads, or `None`
    /// if it cannot tell (the default). A top-k query checks it against the
    /// schema before it runs.
    fn max_dim(&self) -> Option<usize> {
        None
    }
}

impl<F: RankingFunction + ?Sized> RankingFunction for &F {
    fn score(&self, point: &[f64]) -> f64 {
        (**self).score(point)
    }

    fn lower_bound(&self, mbr: &Mbr) -> f64 {
        (**self).lower_bound(mbr)
    }

    fn max_dim(&self) -> Option<usize> {
        (**self).max_dim()
    }
}

/// `f = Σ wᵢ·xᵢ` with arbitrary-sign weights (Fig 13 uses random positive
/// coefficients `aX + bY + cZ`). The lower bound picks, per dimension, the
/// corner that minimizes the term.
#[derive(Debug, Clone)]
pub struct LinearFn {
    weights: Vec<f64>,
}

impl LinearFn {
    /// Creates the function `Σ weights[i] · x[i]`.
    ///
    /// # Panics
    /// Panics if any weight is non-finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(weights.iter().all(|w| w.is_finite()), "weights must be finite");
        LinearFn { weights }
    }
}

impl RankingFunction for LinearFn {
    fn score(&self, point: &[f64]) -> f64 {
        self.weights.iter().zip(point).map(|(w, x)| w * x).sum()
    }

    fn lower_bound(&self, mbr: &Mbr) -> f64 {
        self.weights
            .iter()
            .enumerate()
            .map(|(d, &w)| if w >= 0.0 { w * mbr.min[d] } else { w * mbr.max[d] })
            .sum()
    }

    fn max_dim(&self) -> Option<usize> {
        self.weights.len().checked_sub(1)
    }
}

/// `f = Σ wᵢ·(xᵢ − tᵢ)²` — Example 1's "(price − 15k)² + α(mileage − 30k)²".
/// The lower bound clamps the target into the rectangle per dimension
/// (distance to the nearest face), the standard MINDIST bound.
#[derive(Debug, Clone)]
pub struct WeightedDistanceFn {
    target: Vec<f64>,
    weights: Vec<f64>,
}

impl WeightedDistanceFn {
    /// Creates `Σ weights[i]·(x[i] − target[i])²`.
    ///
    /// # Panics
    /// Panics on arity mismatch or negative/non-finite weights (negative
    /// quadratic terms have no box lower bound of this form).
    pub fn new(target: Vec<f64>, weights: Vec<f64>) -> Self {
        assert_eq!(target.len(), weights.len(), "target/weight arity mismatch");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative"
        );
        WeightedDistanceFn { target, weights }
    }
}

impl RankingFunction for WeightedDistanceFn {
    fn score(&self, point: &[f64]) -> f64 {
        self.target
            .iter()
            .zip(&self.weights)
            .zip(point)
            .map(|((t, w), x)| w * (x - t) * (x - t))
            .sum()
    }

    fn lower_bound(&self, mbr: &Mbr) -> f64 {
        (0..self.target.len())
            .map(|d| {
                let c = self.target[d].clamp(mbr.min[d], mbr.max[d]);
                self.weights[d] * (c - self.target[d]) * (c - self.target[d])
            })
            .sum()
    }

    fn max_dim(&self) -> Option<usize> {
        self.target.len().checked_sub(1)
    }
}

/// `f = Σ xᵢ` over a subset of dimensions — the BBS ordering key `d(n)` used
/// for skyline processing (§V-A). Dimensions are indexes into the full
/// preference coordinate vector.
#[derive(Debug, Clone)]
pub struct MinCoordSum {
    dims: Vec<usize>,
}

impl MinCoordSum {
    /// Sum over the given preference dimensions.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        MinCoordSum { dims }
    }

    /// Sum over all of the first `n` dimensions.
    pub fn all(n: usize) -> Self {
        Self::new((0..n).collect())
    }
}

impl RankingFunction for MinCoordSum {
    fn score(&self, point: &[f64]) -> f64 {
        self.dims.iter().map(|&d| point[d]).sum()
    }

    fn lower_bound(&self, mbr: &Mbr) -> f64 {
        self.dims.iter().map(|&d| mbr.min[d]).sum()
    }

    fn max_dim(&self) -> Option<usize> {
        self.dims.iter().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr(min: &[f64], max: &[f64]) -> Mbr {
        Mbr { min: min.to_vec(), max: max.to_vec() }
    }

    #[test]
    fn linear_scores_and_bounds() {
        let f = LinearFn::new(vec![2.0, -1.0]);
        assert_eq!(f.score(&[3.0, 4.0]), 2.0);
        let b = mbr(&[0.0, 0.0], &[1.0, 2.0]);
        // min of 2x - y over the box: x=0, y=2 → -2.
        assert_eq!(f.lower_bound(&b), -2.0);
    }

    #[test]
    fn weighted_distance_scores_and_bounds() {
        let f = WeightedDistanceFn::new(vec![0.5, 0.5], vec![1.0, 2.0]);
        assert_eq!(f.score(&[0.5, 0.5]), 0.0);
        assert!((f.score(&[1.5, 0.5]) - 1.0).abs() < 1e-12);
        // Target inside the box → bound 0.
        assert_eq!(f.lower_bound(&mbr(&[0.0, 0.0], &[1.0, 1.0])), 0.0);
        // Box to the right of target in x only.
        let b = mbr(&[1.5, 0.0], &[2.0, 1.0]);
        assert!((f.lower_bound(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_coord_sum_subset() {
        let f = MinCoordSum::new(vec![0, 2]);
        assert_eq!(f.score(&[1.0, 99.0, 2.0]), 3.0);
        let b = mbr(&[0.1, 0.0, 0.2], &[1.0, 1.0, 1.0]);
        assert!((f.lower_bound(&b) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_never_exceeds_any_contained_point() {
        // Grid-check the bound property for all three functions.
        let b = mbr(&[0.2, 0.4], &[0.8, 0.9]);
        let fns: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(LinearFn::new(vec![1.3, -0.7])),
            Box::new(WeightedDistanceFn::new(vec![0.5, 0.1], vec![2.0, 3.0])),
            Box::new(MinCoordSum::all(2)),
        ];
        for f in &fns {
            let lb = f.lower_bound(&b);
            for i in 0..=10 {
                for j in 0..=10 {
                    let p = [
                        b.min[0] + (b.max[0] - b.min[0]) * i as f64 / 10.0,
                        b.min[1] + (b.max[1] - b.min[1]) * j as f64 / 10.0,
                    ];
                    assert!(
                        f.score(&p) >= lb - 1e-12,
                        "bound {lb} exceeds score {} at {p:?}",
                        f.score(&p)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn negative_distance_weight_rejected() {
        let _ = WeightedDistanceFn::new(vec![0.0], vec![-1.0]);
    }
}
