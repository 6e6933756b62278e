//! QoI error metrics: RMSE, MAPE and relative-error distributions.

/// Root mean squared error between two equally sized series.
pub fn rmse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse: length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum();
    (sum / a.len() as f64).sqrt()
}

/// Mean absolute percentage error (MiniBUDE's metric), in percent.
/// Entries where the reference is ~0 are skipped, as is conventional.
pub(crate) fn mape(reference: &[f32], approx: &[f32]) -> f64 {
    assert_eq!(reference.len(), approx.len(), "mape: length mismatch");
    let mut total = 0.0f64;
    let mut count = 0usize;
    for (r, a) in reference.iter().zip(approx) {
        if r.abs() > 1e-12 {
            total += ((r - a) / r).abs() as f64;
            count += 1;
        }
    }
    if count == 0 {
        return 0.0;
    }
    100.0 * total / count as f64
}

/// Per-element relative error `|approx - ref| / max(|ref|, eps)`.
pub fn relative_errors(reference: &[f32], approx: &[f32]) -> Vec<f64> {
    assert_eq!(reference.len(), approx.len());
    reference
        .iter()
        .zip(approx)
        .map(|(r, a)| ((r - a).abs() / r.abs().max(1e-6)) as f64)
        .collect()
}

/// Empirical CDF evaluation: fraction of `values` ≤ each requested quantile
/// threshold. Returns `(threshold, fraction)` pairs — the Fig. 9f curves.
pub fn cdf_at(values: &[f64], thresholds: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    thresholds
        .iter()
        .map(|t| {
            let count = sorted.partition_point(|v| v <= t);
            (*t, count as f64 / sorted.len().max(1) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn mape_skips_zero_reference() {
        let m = mape(&[100.0, 0.0, 50.0], &[110.0, 5.0, 45.0]);
        assert!((m - 10.0).abs() < 1e-5, "{m}"); // (10% + 10%) / 2, f32 rounding
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let vals = vec![0.1, 0.2, 0.3, 0.9];
        let cdf = cdf_at(&vals, &[0.0, 0.2, 0.5, 1.0]);
        assert_eq!(cdf[0].1, 0.0);
        assert_eq!(cdf[1].1, 0.5);
        assert_eq!(cdf[2].1, 0.75);
        assert_eq!(cdf[3].1, 1.0);
    }

    #[test]
    fn relative_errors_guard_small_reference() {
        let re = relative_errors(&[2.0, 0.0], &[1.0, 1.0]);
        assert!((re[0] - 0.5).abs() < 1e-9);
        assert!(re[1].is_finite());
    }
}
