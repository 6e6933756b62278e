//! Small dense linear algebra (f64) for the Gaussian-process layer of the
//! Bayesian-optimization search: Cholesky factorization and triangular solves.

use crate::{Result, TensorError};

/// In-place Cholesky factorization of a symmetric positive-definite matrix
/// stored row-major in `a` (n×n). On success the lower triangle holds L with
/// `A = L·Lᵀ`; the strict upper triangle is zeroed.
pub fn cholesky(a: &mut [f64], n: usize) -> Result<()> {
    if a.len() != n * n {
        return Err(TensorError::DimMismatch(format!(
            "cholesky: buffer {} vs n*n {}",
            a.len(),
            n * n
        )));
    }
    for j in 0..n {
        // Diagonal.
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(TensorError::Numerical(format!(
                "cholesky: non-positive pivot {d:.3e} at row {j} (matrix not SPD)"
            )));
        }
        let djj = d.sqrt();
        a[j * n + j] = djj;
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / djj;
        }
        // Zero the strict upper triangle for cleanliness.
        for i in 0..j {
            a[i * n + j] = 0.0;
        }
    }
    Ok(())
}

/// Solve `L·x = b` for lower-triangular L (forward substitution), in place.
pub fn solve_lower(l: &[f64], n: usize, b: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * b[k];
        }
        b[i] = s / l[i * n + i];
    }
}

/// Solve `Lᵀ·x = b` for lower-triangular L (back substitution), in place.
pub fn solve_lower_transpose(l: &[f64], n: usize, b: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * b[k];
        }
        b[i] = s / l[i * n + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Vec<f64> {
        // A = M·Mᵀ + n·I is SPD for any M.
        let mut s = seed;
        let mut m = vec![0.0f64; n * n];
        for v in m.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        }
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    acc += m[i * n + k] * m[j * n + k];
                }
                a[i * n + j] = acc;
            }
        }
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let n = 8;
        let a = spd(n, 7);
        let mut l = a.clone();
        cholesky(&mut l, n).unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut recon = 0.0;
                for k in 0..n {
                    recon += l[i * n + k] * l[j * n + k];
                }
                assert!((recon - a[i * n + j]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&mut a, 2),
            Err(TensorError::Numerical(_))
        ));
    }

    #[test]
    fn solve_spd_solves() {
        let n = 12;
        let a = spd(n, 13);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 2.0).collect();
        // b = A·x
        let mut b = vec![0.0f64; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[i * n + j] * x_true[j];
            }
        }
        let mut l = a.clone();
        cholesky(&mut l, n).unwrap();
        solve_lower(&l, n, &mut b);
        solve_lower_transpose(&l, n, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn triangular_solves_are_inverses() {
        let n = 6;
        let mut l = spd(n, 17);
        cholesky(&mut l, n).unwrap();
        let orig: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let mut b = orig.clone();
        solve_lower(&l, n, &mut b);
        // Multiply back: L·b should give orig.
        for i in (0..n).rev() {
            let mut s = 0.0;
            for k in 0..=i {
                s += l[i * n + k] * b[k];
            }
            assert!((s - orig[i]).abs() < 1e-9);
        }
    }
}
