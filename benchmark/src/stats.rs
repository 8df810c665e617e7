//! Order statistics over measured samples.

/// Sorts `samples` ascending (NaN-free by construction: every sample is a
/// duration or a count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of an ascending slice by linear interpolation between the two
/// nearest ranks (numpy's default); `p` in `[0, 1]`. On a list of a hundred
/// values this keeps p99 from being simply the largest one. Returns 0 for an
/// empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, share) = (at.floor() as usize, at.fract());
    let high = (low + 1).min(sorted.len() - 1);
    sorted[low] * (1.0 - share) + sorted[high] * share
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the rule the pipeline uses
/// for run-to-run spread. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; 0 when it cannot be
/// taken (fewer than two samples or a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    let med = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.25), 1.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
