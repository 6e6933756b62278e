//! Max-pooling against an f64 oracle: an obvious loop over each window of
//! the input, widened to f64. The bound is exact equality: a max picks one
//! of its inputs and rounds nothing, so any route that returns another
//! value is wrong, not imprecise. Random shapes, windows and strides at
//! pool widths 1 and 3, plus one case that pins what a NaN input gives
//! today.

use hpacml_par::{with_pool, Pool};
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::Tensor;

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Output `[n, c, oy, ox]` of a `kh × kw` max-pool at stride `(sh, sw)`
/// (no padding, as every pooling layer is built), in f64.
fn oracle(x: &Tensor<f32>, g: Conv2dGeom, out: [usize; 4]) -> f64 {
    let [n, c, oy, ox] = out;
    let mut best = f64::NEG_INFINITY;
    for ki in 0..g.kernel.0 {
        for kj in 0..g.kernel.1 {
            let v = f64::from(x.at(&[n, c, oy * g.stride.0 + ki, ox * g.stride.1 + kj]));
            best = best.max(v);
        }
    }
    best
}

#[test]
fn maxpool_equals_the_f64_oracle_exactly() {
    let mut s = 17u64;
    let pools = [Pool::new(0), Pool::new(2)];
    for case in 0..60 {
        let mut pick = |lo: u64, hi: u64| (lo + lcg(&mut s) % (hi - lo + 1)) as usize;
        let (n, c) = (pick(1, 3), pick(1, 4));
        let kernel = (pick(1, 4), pick(1, 4));
        let stride = (pick(1, 3), pick(1, 3));
        let (h, w) = (kernel.0 + pick(0, 9), kernel.1 + pick(0, 9));
        let g = Conv2dGeom {
            kernel,
            stride,
            pad: (0, 0),
        };
        let data: Vec<f32> = (0..n * c * h * w)
            .map(|_| (lcg(&mut s) as f32 / (1u64 << 31) as f32 - 0.5) * 8.0)
            .collect();
        let x = Tensor::from_vec(data, [n, c, h, w]).unwrap();
        let (oh, ow) = g.out_hw(h, w);
        for (width, pool) in [1, 3].iter().zip(&pools) {
            let mut y = Tensor::zeros([0usize; 4]);
            with_pool(pool, || ops::maxpool2d_into(&x, g, &mut y)).unwrap();
            assert_eq!(y.dims(), [n, c, oh, ow], "case {case}");
            for i in 0..y.numel() {
                let out = [i / (c * oh * ow), i / (oh * ow) % c, i / ow % oh, i % ow];
                let (got, want) = (f64::from(y.at(&out)), oracle(&x, g, out));
                assert!(
                    got == want,
                    "case {case}, width {width}, {g:?} over {n}x{c}x{h}x{w}, {out:?}: {got} != {want}"
                );
            }
        }
    }
}

/// Today a NaN never wins a window: `v > best` is false for it, so it is
/// skipped, and a window of nothing but NaN gives `-inf`. This pins that
/// behaviour; it is not a claim that it is the right one.
#[test]
fn maxpool_skips_nan_inputs() {
    let nan = f32::NAN;
    let x = Tensor::from_vec(vec![nan, 1.0, -2.0, nan, nan, nan, nan, nan], [1, 2, 2, 2]).unwrap();
    let mut y = Tensor::zeros([0usize; 4]);
    ops::maxpool2d_into(&x, Conv2dGeom::square(2, 2, 0), &mut y).unwrap();
    assert_eq!(y.dims(), [1, 2, 1, 1]);
    assert_eq!(y.data(), [1.0, f32::NEG_INFINITY]);
}
