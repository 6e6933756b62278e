//! Gaussian-process regression with an RBF kernel on the unit cube.
//!
//! This is the surrogate model inside the Bayesian optimizer (not to be
//! confused with the NN surrogates HPAC-ML deploys). Targets are
//! standardized internally; a jitter ladder keeps the Cholesky stable.

use crate::{Result, SearchError};
use hpacml_tensor::linalg::{cholesky, solve_lower, solve_lower_transpose};

/// Fitted GP posterior.
#[derive(Debug, Clone)]
pub(crate) struct Gp {
    x: Vec<Vec<f64>>,
    lengthscale: f64,
    signal2: f64,
    /// Lower Cholesky factor of `K + σ²I`.
    chol: Vec<f64>,
    /// `(K + σ²I)⁻¹ · y` (standardized targets).
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

fn rbf(a: &[f64], b: &[f64], lengthscale: f64, signal2: f64) -> f64 {
    let mut d2 = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        d2 += d * d;
    }
    signal2 * (-0.5 * d2 / (lengthscale * lengthscale)).exp()
}

impl Gp {
    /// Fit a GP to `(x, y)` with the given RBF length scale and noise
    /// standard deviation. A median-distance heuristic is available via
    /// [`Gp::fit_auto`].
    pub fn fit(x: Vec<Vec<f64>>, y: &[f64], lengthscale: f64, noise: f64) -> Result<Gp> {
        if x.is_empty() || x.len() != y.len() {
            return Err(SearchError::Gp(format!(
                "bad training set: {} points, {} targets",
                x.len(),
                y.len()
            )));
        }
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_var = y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = y_var.sqrt().max(1e-12);
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        let signal2 = 1.0;
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = rbf(&x[i], &x[j], lengthscale, signal2);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        // Jitter ladder for numerical robustness.
        let mut jitter = noise * noise;
        for _ in 0..8 {
            let mut kk = k.clone();
            for i in 0..n {
                kk[i * n + i] += jitter;
            }
            if cholesky(&mut kk, n).is_ok() {
                let mut alpha = ys.clone();
                solve_lower(&kk, n, &mut alpha);
                solve_lower_transpose(&kk, n, &mut alpha);
                return Ok(Gp {
                    x,
                    lengthscale,
                    signal2,
                    chol: kk,
                    alpha,
                    y_mean,
                    y_std,
                });
            }
            jitter *= 10.0;
        }
        Err(SearchError::Gp(
            "kernel matrix is not positive definite even with jitter".into(),
        ))
    }

    /// Fit with a median-pairwise-distance length scale.
    pub(crate) fn fit_auto(x: Vec<Vec<f64>>, y: &[f64], noise: f64) -> Result<Gp> {
        let mut dists = Vec::new();
        for i in 0..x.len() {
            for j in 0..i {
                let d2: f64 = x[i].iter().zip(&x[j]).map(|(a, b)| (a - b) * (a - b)).sum();
                if d2 > 0.0 {
                    dists.push(d2.sqrt());
                }
            }
        }
        dists.sort_by(f64::total_cmp);
        let lengthscale = if dists.is_empty() {
            0.5
        } else {
            dists[dists.len() / 2].max(1e-3)
        };
        Gp::fit(x, y, lengthscale, noise)
    }

    /// Posterior mean and variance at a query point (in original y units).
    pub(crate) fn predict(&self, q: &[f64]) -> (f64, f64) {
        let n = self.x.len();
        let kstar: Vec<f64> = self
            .x
            .iter()
            .map(|xi| rbf(xi, q, self.lengthscale, self.signal2))
            .collect();
        let mean_std: f64 = kstar.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        // v = L⁻¹ k*; var = k** - vᵀv.
        let mut v = kstar;
        solve_lower(&self.chol, n, &mut v);
        let kss = self.signal2;
        let var_std = (kss - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Expected improvement for *minimization* below `best` at `q`.
    pub(crate) fn expected_improvement(&self, q: &[f64], best: f64) -> f64 {
        let (mu, var) = self.predict(q);
        let sigma = var.sqrt();
        if sigma < 1e-12 {
            return (best - mu).max(0.0);
        }
        let z = (best - mu) / sigma;
        let (pdf, cdf) = gauss_pdf_cdf(z);
        (best - mu) * cdf + sigma * pdf
    }
}

fn gauss_pdf_cdf(z: f64) -> (f64, f64) {
    let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    // Abramowitz–Stegun erf approximation.
    let t = 1.0 / (1.0 + 0.3275911 * z.abs() / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-(z * z) / 2.0).exp();
    let cdf = if z >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    };
    (pdf, cdf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points() {
        let x: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 3.0).sin()).collect();
        let gp = Gp::fit(x.clone(), &y, 0.3, 1e-4).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (mu, var) = gp.predict(xi);
            assert!((mu - yi).abs() < 1e-2, "at {xi:?}: {mu} vs {yi}");
            assert!(var < 0.1);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1]];
        let y = vec![1.0, 1.1];
        let gp = Gp::fit(x, &y, 0.1, 1e-3).unwrap();
        let (_, var_near) = gp.predict(&[0.05]);
        let (_, var_far) = gp.predict(&[0.9]);
        assert!(var_far > var_near * 5.0, "near {var_near} far {var_far}");
    }

    #[test]
    fn prediction_approximates_smooth_function() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|p| p[0] * p[0]).collect();
        let gp = Gp::fit_auto(xs, &ys, 1e-4).unwrap();
        let (mu, _) = gp.predict(&[0.55]);
        assert!((mu - 0.3025).abs() < 0.02, "{mu}");
    }

    #[test]
    fn ei_prefers_promising_regions() {
        // Observations descending toward x=1: EI should be higher past the
        // current best than at the worst end.
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 8.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|p| 1.0 - p[0]).collect();
        let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let gp = Gp::fit(xs, &ys, 0.25, 1e-3).unwrap();
        let ei_good = gp.expected_improvement(&[0.7], best);
        let ei_bad = gp.expected_improvement(&[0.0], best);
        assert!(ei_good > ei_bad, "good {ei_good} bad {ei_bad}");
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        let y = vec![1.0, 1.0, 1.0];
        assert!(Gp::fit(x, &y, 0.2, 1e-6).is_ok());
    }

    #[test]
    fn empty_or_mismatched_rejected() {
        assert!(Gp::fit(vec![], &[], 0.2, 1e-3).is_err());
        assert!(Gp::fit(vec![vec![0.0]], &[1.0, 2.0], 0.2, 1e-3).is_err());
    }
}
