//! The scalar element trait: `f32` for NN work, `f64` for linear algebra and
//! error metrics.

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable in tensors and kernels.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialOrd
    + Debug
    + Display
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + 'static
{
    const ZERO: Self;
    const ONE: Self;

    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }

    // No `mul_add` here on purpose: FMA contraction changes result bits per
    // target, and every kernel keeps plain `a * b + c` accumulator chains
    // (enforced by hpacml-lint's `no-fma` rule).
    fn sqrt(self) -> Self;
    fn exp(self) -> Self;
    fn ln(self) -> Self;
    fn abs(self) -> Self;
    fn tanh(self) -> Self;

    /// `tanh` for activation sweeps: for `f32` a branch-free rational
    /// minimax approximation (see `fast_tanh_f32`) that the
    /// autovectorizer turns into wide SIMD — libm's scalar `tanhf` costs
    /// ~10 ns/element and dominates whole CNN forwards; for `f64` (linear
    /// algebra, error metrics) the exact libm `tanh`. The NN layers and the
    /// fused GEMM epilogue both route through this, so fused and unfused
    /// activations stay bit-identical to each other.
    fn tanh_activation(self) -> Self;
    fn powi(self, n: i32) -> Self;
    fn maximum(self, other: Self) -> Self;
    fn minimum(self, other: Self) -> Self;
    fn is_finite(self) -> bool;
}

/// Rational minimax approximation of `tanh` for `f32`, after the widely
/// used Eigen `ptanh` kernel: odd polynomial over even polynomial in `x²`
/// on the clamped range `|x| ≤ 7.90531` (where `|tanh|` saturates to 1.0
/// within f32 epsilon). Maximum error is a couple of ulps — indistinguishable
/// at every tolerance the training/QoI tests use — and the body is
/// branch-free mul/add/div, so activation sweeps and fused GEMM epilogues
/// autovectorize instead of calling scalar libm `tanhf` per element.
/// NaN propagates; ±∞ and every `|x|` past the clamp saturate to within a
/// few ulps of ±1 (and never exceed 1 in magnitude).
#[inline(always)]
pub(crate) fn fast_tanh_f32(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_311_5;
    const A1: f32 = 4.893_525_6e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297_1e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let p = A13;
    let p = p * x2 + A11;
    let p = p * x2 + A9;
    let p = p * x2 + A7;
    let p = p * x2 + A5;
    let p = p * x2 + A3;
    let p = p * x2 + A1;
    let q = B6;
    let q = q * x2 + B4;
    let q = q * x2 + B2;
    let q = q * x2 + B0;
    (x * p) / q
}

macro_rules! impl_scalar {
    ($t:ty, $tanh_act:path) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                <$t>::tanh(self)
            }
            #[inline(always)]
            fn tanh_activation(self) -> Self {
                $tanh_act(self)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn maximum(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn minimum(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}

impl_scalar!(f32, fast_tanh_f32);
impl_scalar!(f64, f64::tanh);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::from_f64(-2.25), -2.25);
    }

    #[test]
    fn constants() {
        assert_eq!(f32::ZERO + f32::ONE, 1.0f32);
        assert_eq!(f64::ONE * 3.0, 3.0);
    }

    #[test]
    fn math_helpers() {
        assert!((2.0f32.sqrt() - std::f32::consts::SQRT_2).abs() < 1e-6);
        assert_eq!((-3.0f64).abs(), 3.0);
        assert_eq!(Scalar::maximum(1.0f32, 2.0), 2.0);
        assert_eq!(Scalar::minimum(1.0f32, 2.0), 1.0);
        assert!(f32::ONE.is_finite());
        assert!(!(<f32 as Scalar>::ONE / <f32 as Scalar>::ZERO).is_finite());
    }
}

#[cfg(test)]
mod fast_tanh_tests {
    use super::*;

    #[test]
    fn fast_tanh_matches_libm_closely() {
        let mut max_err = 0f64;
        let mut x = -12.0f32;
        while x < 12.0 {
            let err = (fast_tanh_f32(x) as f64 - (x as f64).tanh()).abs();
            max_err = max_err.max(err);
            x += 0.0007;
        }
        assert!(max_err < 2e-6, "max |fast_tanh - tanh| = {max_err}");
        assert_eq!(fast_tanh_f32(0.0), 0.0);
        // Saturation: clamped inputs land within a few ulps of ±1.
        assert!((fast_tanh_f32(f32::INFINITY) - 1.0).abs() <= 5e-7);
        assert!((fast_tanh_f32(f32::NEG_INFINITY) + 1.0).abs() <= 5e-7);
        assert!(fast_tanh_f32(f32::NAN).is_nan());
        // Odd symmetry and boundedness.
        for &v in &[0.1f32, 0.9, 3.3, 7.9, 25.0] {
            assert_eq!(fast_tanh_f32(-v), -fast_tanh_f32(v));
            assert!(fast_tanh_f32(v).abs() <= 1.0);
        }
    }
}
