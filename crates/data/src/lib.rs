//! Workload generators for the P-Cube experiments (§VI-A).
//!
//! * [`SyntheticSpec`] — the paper's synthetic data: `T` tuples, `Db`
//!   boolean dimensions of cardinality `C` (uniform), `Dp` preference
//!   dimensions drawn from one of the three standard skyline distributions
//!   (independent/uniform, correlated, anti-correlated — Börzsönyi et al.).
//! * [`covertype_surrogate`] — a statistically matched stand-in for the UCI
//!   Forest CoverType data set used in §VI-B.4 (581,012 rows; 3 quantitative
//!   attributes with cardinalities 1989/5787/5827 as preference dimensions;
//!   12 categorical attributes with cardinalities 255, 207, 185, 67, 7 and
//!   seven binary ones as boolean dimensions). The real file is not
//!   downloadable in this environment; the surrogate reproduces the row
//!   count, attribute cardinalities and a skewed (Zipf) category
//!   distribution, which is what the boolean-selectivity experiments
//!   exercise. See DESIGN.md §3.
//! * Query-workload helpers: selections sampled from existing rows (so they
//!   are never vacuously empty) and random positive linear ranking
//!   functions for the top-k experiments (Fig 13).
//!
//! Everything is seeded and reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pcube_cube::{Predicate, Relation, Schema, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Preference-dimension distribution (Börzsönyi et al., ICDE 2001).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Each coordinate independently uniform in `[0, 1)` (the paper's
    /// default, `S = uniform`).
    Uniform,
    /// Coordinates clustered around the diagonal — few skyline points.
    Correlated,
    /// Coordinates clustered around the anti-diagonal plane — many skyline
    /// points.
    AntiCorrelated,
}

/// Parameters of a synthetic relation.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Number of tuples (`T`).
    pub n_tuples: usize,
    /// Number of boolean dimensions (`Db`).
    pub n_bool: usize,
    /// Number of preference dimensions (`Dp`).
    pub n_pref: usize,
    /// Cardinality of each boolean dimension (`C`), uniform values.
    pub cardinality: u32,
    /// Preference-dimension distribution (`S`).
    pub distribution: Distribution,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticSpec {
    /// The paper's §VI-B.1 defaults: `Db = Dp = 3`, `C = 100`, uniform.
    fn default() -> Self {
        SyntheticSpec {
            n_tuples: 100_000,
            n_bool: 3,
            n_pref: 3,
            cardinality: 100,
            distribution: Distribution::Uniform,
            seed: 42,
        }
    }
}

/// Generates a relation per `spec`. Boolean dimensions are named `A0…`,
/// preference dimensions `N0…`; boolean values are raw codes `0..C`.
pub fn synthetic(spec: &SyntheticSpec) -> Relation {
    let bool_names: Vec<String> = (0..spec.n_bool).map(|i| format!("A{i}")).collect();
    let pref_names: Vec<String> = (0..spec.n_pref).map(|i| format!("N{i}")).collect();
    let schema = Schema::new(
        &bool_names.iter().map(String::as_str).collect::<Vec<_>>(),
        &pref_names.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut relation = Relation::new(schema);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    relation.append_rows(spec.n_tuples, |bool_codes, coords| {
        for c in bool_codes.iter_mut() {
            *c = rng.gen_range(0..spec.cardinality);
        }
        sample_pref(&mut rng, spec.distribution, coords);
    });
    relation
}

/// Draws one preference vector in `[0,1)^d` from the chosen distribution.
pub fn sample_pref(rng: &mut StdRng, distribution: Distribution, out: &mut [f64]) {
    match distribution {
        Distribution::Uniform => {
            for x in out.iter_mut() {
                *x = rng.gen::<f64>();
            }
        }
        Distribution::Correlated => {
            // A common level around the diagonal plus small per-dimension jitter.
            let base: f64 = rng.gen();
            for x in out.iter_mut() {
                let jitter: f64 = rng.gen::<f64>() * 0.2 - 0.1;
                *x = (base + jitter).clamp(0.0, 1.0 - f64::EPSILON);
            }
        }
        Distribution::AntiCorrelated => {
            // Points near the plane Σx ≈ d/2: draw a normal-ish total via
            // the sum of three uniforms, then split it with exponential
            // spacings (Dirichlet-like) across dimensions.
            let d = out.len() as f64;
            let total = ((rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) / 3.0 - 0.5)
                * 0.25
                + 0.5;
            let total = (total * d).clamp(0.0, d);
            // The spacings are drawn into `out` and scaled in place.
            for x in out.iter_mut() {
                *x = -(1.0 - rng.gen::<f64>()).ln();
            }
            let sum: f64 = out.iter().sum();
            for x in out.iter_mut() {
                *x = (*x / sum * total).clamp(0.0, 1.0 - f64::EPSILON);
            }
        }
    }
}

/// Cardinalities of the CoverType attributes the paper selects (§VI-A).
pub const COVERTYPE_PREF_CARDINALITIES: [u32; 3] = [1989, 5787, 5827];
/// Boolean-dimension cardinalities of the CoverType selection (§VI-A).
pub const COVERTYPE_BOOL_CARDINALITIES: [u32; 12] = [255, 207, 185, 67, 7, 2, 2, 2, 2, 2, 2, 2];
/// Rows in the real CoverType data set.
pub const COVERTYPE_ROWS: usize = 581_012;

/// Builds the CoverType surrogate (§VI-B.4), scaled to `rows` (pass
/// [`COVERTYPE_ROWS`] for the paper's size). Boolean values are Zipf(1.2)
/// distributed over each attribute's cardinality; preference values are
/// quantized to the real attributes' cardinalities and normalized to
/// `[0, 1)`.
pub fn covertype_surrogate(rows: usize, seed: u64) -> Relation {
    let bool_names: Vec<String> = (0..12).map(|i| format!("B{i}")).collect();
    let schema = Schema::new(
        &bool_names.iter().map(String::as_str).collect::<Vec<_>>(),
        &["elevation", "horiz_dist", "vert_dist"],
    );
    let mut relation = Relation::new(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipfs: Vec<Zipf> =
        COVERTYPE_BOOL_CARDINALITIES.iter().map(|&c| Zipf::new(c, 1.2)).collect();
    relation.append_rows(rows, |bool_codes, coords| {
        for (c, z) in bool_codes.iter_mut().zip(&zipfs) {
            *c = z.sample(&mut rng);
        }
        for (x, &card) in coords.iter_mut().zip(&COVERTYPE_PREF_CARDINALITIES) {
            // Mildly bell-shaped quantitative attributes, quantized.
            let raw = (rng.gen::<f64>() + rng.gen::<f64>()) / 2.0;
            let q = (raw * f64::from(card)).floor().min(f64::from(card - 1));
            *x = q / f64::from(card);
        }
    });
    relation
}

/// A Zipf(s) sampler over `0..n` by inverse-CDF table lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` categories with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: u32, s: f64) -> Self {
        assert!(n > 0, "need at least one category");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / f64::from(k).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws one category code.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// Samples a selection with `n_predicates` on distinct random boolean
/// dimensions, taking the values from a random existing row — so the
/// selection always matches at least one tuple.
pub fn sample_selection(relation: &Relation, n_predicates: usize, rng: &mut StdRng) -> Selection {
    assert!(!relation.is_empty(), "cannot sample from an empty relation");
    let n_bool = relation.schema().n_bool();
    assert!(n_predicates <= n_bool, "more predicates than boolean dimensions");
    let tid = rng.gen_range(0..relation.len() as u64);
    let mut dims: Vec<usize> = (0..n_bool).collect();
    for i in 0..n_predicates {
        let j = rng.gen_range(i..dims.len());
        dims.swap(i, j);
    }
    dims[..n_predicates]
        .iter()
        .map(|&dim| Predicate { dim, value: relation.bool_code(tid, dim) })
        .collect()
}

/// A random positive linear function `Σ aᵢ·xᵢ`, `aᵢ ∈ (0, 1]` — the ranking
/// function family of Fig 13.
pub fn sample_linear_weights(n_dims: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n_dims).map(|_| 1.0 - rng.gen::<f64>()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_respects_spec() {
        let spec = SyntheticSpec {
            n_tuples: 2000,
            n_bool: 4,
            n_pref: 2,
            cardinality: 10,
            distribution: Distribution::Uniform,
            seed: 7,
        };
        let r = synthetic(&spec);
        assert_eq!(r.len(), 2000);
        assert_eq!(r.schema().n_bool(), 4);
        assert_eq!(r.schema().n_pref(), 2);
        for tid in 0..2000u64 {
            for d in 0..4 {
                assert!(r.bool_code(tid, d) < 10);
            }
            for c in r.pref_coords(tid) {
                assert!((0.0..1.0).contains(&c));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec { n_tuples: 500, ..Default::default() };
        let a = synthetic(&spec);
        let b = synthetic(&spec);
        for tid in 0..500u64 {
            assert_eq!(a.pref_coords(tid), b.pref_coords(tid));
            assert_eq!(a.bool_code(tid, 0), b.bool_code(tid, 0));
        }
        let c = synthetic(&SyntheticSpec { seed: 43, ..spec });
        assert_ne!(a.pref_coords(0), c.pref_coords(0));
    }

    #[test]
    fn distributions_have_expected_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 5000;
        let mut spread = |dist: Distribution| {
            let mut total = 0.0;
            for _ in 0..n {
                let mut v = [0.0; 3];
                sample_pref(&mut rng, dist, &mut v);
                let mean = (v[0] + v[1] + v[2]) / 3.0;
                let var: f64 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 3.0;
                total += var;
            }
            total / n as f64
        };
        let corr = spread(Distribution::Correlated);
        let unif = spread(Distribution::Uniform);
        let anti = spread(Distribution::AntiCorrelated);
        // Correlated points hug the diagonal (small within-point variance);
        // anti-correlated points spread across it (large variance).
        assert!(corr < unif, "correlated {corr} vs uniform {unif}");
        assert!(anti > unif * 0.9, "anti {anti} vs uniform {unif}");
    }

    #[test]
    fn anticorrelated_sums_concentrate() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sums = Vec::new();
        for _ in 0..2000 {
            let mut v = [0.0; 2];
            sample_pref(&mut rng, Distribution::AntiCorrelated, &mut v);
            sums.push(v[0] + v[1]);
        }
        let mean: f64 = sums.iter().sum::<f64>() / sums.len() as f64;
        let var: f64 =
            sums.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sums.len() as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean sum {mean}");
        // Sum of two independent uniforms has variance 1/6 ≈ 0.167.
        assert!(var < 0.05, "sum variance {var} should be far below independent");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            let v = z.sample(&mut rng);
            counts[v as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > 0);
        assert!(counts[0] as f64 > 20_000.0 * 0.1, "head should be heavy");
    }

    #[test]
    fn covertype_surrogate_matches_advertised_shape() {
        let r = covertype_surrogate(5000, 9);
        assert_eq!(r.len(), 5000);
        assert_eq!(r.schema().n_bool(), 12);
        assert_eq!(r.schema().n_pref(), 3);
        for tid in (0..5000u64).step_by(97) {
            for (d, &card) in COVERTYPE_BOOL_CARDINALITIES.iter().enumerate() {
                assert!(r.bool_code(tid, d) < card);
            }
        }
        // Binary dimensions really use both values.
        let mut seen = std::collections::HashSet::new();
        for tid in 0..5000u64 {
            seen.insert(r.bool_code(tid, 5));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn sampled_selections_match_at_least_one_row() {
        let r = synthetic(&SyntheticSpec { n_tuples: 300, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(5);
        for n_preds in 0..=3 {
            let sel = sample_selection(&r, n_preds, &mut rng);
            assert_eq!(sel.len(), n_preds);
            let hits = (0..r.len() as u64).filter(|&t| r.matches(t, &sel)).count();
            assert!(hits >= 1, "selection {sel:?} matches nothing");
            // Distinct dimensions.
            let mut dims: Vec<usize> = sel.iter().map(|p| p.dim).collect();
            dims.sort_unstable();
            dims.dedup();
            assert_eq!(dims.len(), n_preds);
        }
    }

    #[test]
    fn linear_weights_are_positive() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = sample_linear_weights(5, &mut rng);
        assert_eq!(w.len(), 5);
        assert!(w.iter().all(|&x| x > 0.0 && x <= 1.0));
    }
}
