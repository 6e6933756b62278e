//! The convolution forward's one route, against the kernels it replaced.
//!
//! `ops::conv2d_fused_into` runs every sample through im2col panels and the
//! one packed GEMM. Shapes below `ops::conv_gemm_worthwhile` start each
//! output's chain from its bias (`gemm_resume_into`); before, they ran on
//! `axpy` kernels of their own: at stride 1 a direct kernel that added
//! span-clipped input rows and skipped zero weights and padded taps, at
//! other strides im2col columns and an `axpy` loop. Copies of both are
//! kept here as references. Each ran the chain the one route runs (from the
//! bias, `acc + w*x` in ascending tap order, mul then add, then the
//! activation), except that the stride-1 kernel left out the taps whose
//! product is ±0. With finite inputs and a non-zero bias, adding those
//! changes no bit, so the grid asserts identical bits: f32 and f64, pool
//! widths 1–3, batches 1 and 2 (so both parallel arms), no activation and
//! each fused one.
//!
//! With an infinite input the skipped taps do matter: `inf · 0` is NaN.
//! The one route multiplies every tap, so whether an output is NaN no
//! longer depends on the route (`nan_under_a_zero_weight_…`).
//!
//! The same-process A/B prints each old kernel's p50 beside the one route
//! on ParticleFilter's 30×30 conv and two tiny shapes: rule (iv), not a
//! `BENCHMARK.json` claim. Run it in the release build with `--nocapture
//! --test-threads=1`; the debug build asserts its bits once and skips the
//! timing.

use hpacml_par::{with_pool, Pool};
use hpacml_tensor::gemm::{Act, WithScratch};
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::{Scalar, Tensor};
use std::time::Instant;

const ACTS: [Option<Act>; 4] = [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)];

/// `len` deterministic values in `[-1, 1)` with full mantissas.
fn values<T: Scalar>(seed: u64, len: usize) -> Vec<T> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            T::from_f64((s >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        })
        .collect()
}

/// Exact bits at either width (f32 widens to f64 exactly).
fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// The direct stride-1 kernel that was, for one sample.
// allow: a verbatim copy of the kernel's signature.
#[allow(clippy::too_many_arguments)]
fn direct_s1<T: Scalar>(
    inp: &[T],
    c: usize,
    (h, w): (usize, usize),
    wd: &[T],
    bias: &[T],
    g: Conv2dGeom,
    act: Option<Act>,
    out_n: &mut [T],
) {
    let (kh, kw) = g.kernel;
    let (ph, pw) = g.pad;
    let (oh, ow) = g.out_hw(h, w);
    let l = oh * ow;
    for (fi, of) in out_n.chunks_exact_mut(l).enumerate() {
        for v in of.iter_mut() {
            *v = bias[fi];
        }
        for ch in 0..c {
            let plane = &inp[ch * h * w..(ch + 1) * h * w];
            for ki in 0..kh {
                for kj in 0..kw {
                    let wv = wd[((fi * c + ch) * kh + ki) * kw + kj];
                    if wv == T::ZERO {
                        continue;
                    }
                    // Valid output columns: 0 <= ox + kj - pw < w.
                    let o0 = (pw as isize - kj as isize).max(0) as usize;
                    let o1 = ((w as isize + pw as isize - kj as isize).max(0) as usize).min(ow);
                    if o0 >= o1 {
                        continue;
                    }
                    let shift = kj as isize - pw as isize;
                    for oy in 0..oh {
                        let iy = oy as isize + ki as isize - ph as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        let s0 = (o0 as isize + shift) as usize;
                        let src = &src_row[s0..s0 + (o1 - o0)];
                        axpy(wv, src, &mut of[oy * ow + o0..oy * ow + o1]);
                    }
                }
            }
        }
        if let Some(act) = act {
            for v in of.iter_mut() {
                *v = act.apply(*v);
            }
        }
    }
}

/// One sample's `[c·kh·kw, oh·ow]` im2col matrix, padded taps zero, as
/// `ops`' im2col fills it: row `(ch, ki, kj)` one output row at a time.
fn im2col<T: Scalar>(inp: &[T], c: usize, (h, w): (usize, usize), g: Conv2dGeom, col: &mut [T]) {
    let (kh, kw) = g.kernel;
    let (sh, sw) = g.stride;
    let (ph, pw) = g.pad;
    let (oh, ow) = g.out_hw(h, w);
    assert_eq!(col.len(), c * kh * kw * oh * ow);
    for (row, dst) in col.chunks_exact_mut((oh * ow).max(1)).enumerate() {
        let (kj, ki, ch) = (row % kw, (row / kw) % kh, row / (kh * kw));
        for oy in 0..oh {
            let iy = (oy * sh + ki) as isize - ph as isize;
            let drow = &mut dst[oy * ow..(oy + 1) * ow];
            if iy < 0 || iy as usize >= h {
                for v in drow.iter_mut() {
                    *v = T::ZERO;
                }
                continue;
            }
            let iy = iy as usize;
            let src_row = &inp[(ch * h + iy) * w..(ch * h + iy + 1) * w];
            for (ox, v) in drow.iter_mut().enumerate() {
                let ix = (ox * sw + kj) as isize - pw as isize;
                *v = if ix < 0 || ix as usize >= w {
                    T::ZERO
                } else {
                    src_row[ix as usize]
                };
            }
        }
    }
}

/// The im2col + `axpy` loop that was, for one sample (`col`: its scratch).
// allow: a verbatim copy of the kernel's arguments.
#[allow(clippy::too_many_arguments)]
fn im2col_axpy<T: Scalar>(
    inp: &[T],
    c: usize,
    (h, w): (usize, usize),
    wd: &[T],
    bias: &[T],
    g: Conv2dGeom,
    act: Option<Act>,
    col: &mut Vec<T>,
    out_n: &mut [T],
) {
    let (oh, ow) = g.out_hw(h, w);
    let (ckk, l) = (c * g.kernel.0 * g.kernel.1, oh * ow);
    col.resize(ckk * l, T::ZERO);
    im2col(inp, c, (h, w), g, col);
    for (fi, orow) in out_n.chunks_exact_mut(l).enumerate() {
        let wrow = &wd[fi * ckk..(fi + 1) * ckk];
        for v in orow.iter_mut() {
            *v = bias[fi];
        }
        for (kk, &wv) in wrow.iter().enumerate() {
            axpy(wv, &col[kk * l..(kk + 1) * l], orow);
        }
        if let Some(act) = act {
            for v in orow.iter_mut() {
                *v = act.apply(*v);
            }
        }
    }
}

/// The forward that was, on a shape below `conv_gemm_worthwhile`: every
/// sample through the direct kernel at stride 1, im2col + `axpy` otherwise.
fn old_forward<T: Scalar>(
    x: &Tensor<T>,
    wt: &Tensor<T>,
    bias: &[T],
    g: Conv2dGeom,
    act: Option<Act>,
    col: &mut Vec<T>,
    out: &mut [T],
) {
    let [_, c, h, w]: [usize; 4] = x.dims().try_into().unwrap();
    let (oh, ow) = g.out_hw(h, w);
    let (f, ckk) = (wt.dims()[0], c * g.kernel.0 * g.kernel.1);
    assert!(!ops::conv_gemm_worthwhile(f, ckk, oh * ow));
    let samples = x.data().chunks_exact(c * h * w);
    for (inp, out_n) in samples.zip(out.chunks_exact_mut(f * oh * ow)) {
        if g.stride == (1, 1) {
            direct_s1(inp, c, (h, w), wt.data(), bias, g, act, out_n);
        } else {
            im2col_axpy(inp, c, (h, w), wt.data(), bias, g, act, col, out_n);
        }
    }
}

/// `(c, h, w, f, geometry)`, every one below `conv_gemm_worthwhile`:
/// `conv_oracle`'s small routes, the `ops` and `nn` lib tests' shapes,
/// `alloc_free_inference`'s 2×8×8 → 3, the crafted-file model's 2×4×4 → 2,
/// ParticleFilter's 6×6 stride-3 conv on 30×30 frames, and 288 taps on two
/// filters (two `KC` slabs) and on one (one slab).
fn shapes() -> Vec<(usize, usize, usize, usize, Conv2dGeom)> {
    let sq = Conv2dGeom::square;
    let mut v = Vec::new();
    for (stride, pad) in [(1, 1), (2, 1), (1, 2), (2, 0)] {
        v.push((3, 9, 9, 2, sq(3, stride, pad)));
    }
    for (stride, pad) in [(1, 0), (1, 1), (2, 1), (3, 0)] {
        v.push((3, 8, 9, 4, sq(3, stride, pad)));
    }
    v.extend([
        (2, 6, 6, 3, sq(3, 2, 1)),
        (2, 5, 5, 3, sq(3, 1, 1)),
        (2, 8, 8, 3, sq(3, 1, 1)),
        (2, 10, 10, 3, sq(3, 1, 1)),
        (2, 4, 4, 2, sq(3, 1, 1)),
        (1, 30, 30, 6, sq(6, 3, 0)),
        (32, 5, 5, 2, sq(3, 1, 1)),
        (32, 5, 5, 1, sq(3, 2, 1)),
    ]);
    v
}

fn grid<T: Scalar + WithScratch>() {
    for (case, (c, h, w, f, g)) in shapes().into_iter().enumerate() {
        let (kh, kw) = g.kernel;
        // Every seventh weight exactly zero: the direct kernel skipped those.
        let mut wv = values::<T>(2, f * c * kh * kw);
        wv.iter_mut().step_by(7).for_each(|v| *v = T::ZERO);
        let wt = Tensor::from_vec(wv, [f, c, kh, kw]).unwrap();
        let bias = values::<T>(3, f);
        for batch in [1usize, 2] {
            let x = Tensor::from_vec(values(1, batch * c * h * w), [batch, c, h, w]).unwrap();
            for act in ACTS {
                let label =
                    format!("case {case}: {c}x{h}x{w} -> {f}, {g:?}, batch {batch}, {act:?}");
                let mut got = Tensor::zeros([0usize; 4]);
                ops::conv2d_fused_into(&x, &wt, &bias, g, act, &mut got).unwrap();
                let mut want = vec![T::ZERO; got.numel()];
                old_forward(&x, &wt, &bias, g, act, &mut Vec::new(), &mut want);
                assert_eq!(bits(got.data()), bits(&want), "{label}");
            }
        }
    }
}

#[test]
fn one_route_matches_the_axpy_kernels_bitwise() {
    for width in 1..=3 {
        with_pool(&Pool::new(width - 1), || {
            grid::<f32>();
            grid::<f64>();
        });
    }
}

/// Output `(s, fi, oy, ox)` of a conv that multiplies every tap, a padded
/// one as `0 · w`, in f64: whether it is NaN.
fn naive_is_nan(
    x: &Tensor<f32>,
    wt: &Tensor<f32>,
    bias: &[f32],
    g: Conv2dGeom,
    [s, fi, oy, ox]: [usize; 4],
) -> bool {
    let [_, c, h, w]: [usize; 4] = x.dims().try_into().unwrap();
    let mut acc = f64::from(bias[fi]);
    for ch in 0..c {
        for ki in 0..g.kernel.0 {
            for kj in 0..g.kernel.1 {
                let iy = (oy * g.stride.0 + ki).checked_sub(g.pad.0);
                let ix = (ox * g.stride.1 + kj).checked_sub(g.pad.1);
                let v = match (iy, ix) {
                    (Some(iy), Some(ix)) if iy < h && ix < w => x.at(&[s, ch, iy, ix]),
                    _ => 0.0,
                };
                acc += f64::from(v) * f64::from(wt.at(&[fi, ch, ki, kj]));
            }
        }
    }
    acc.is_nan()
}

/// +inf and -inf inputs under an exactly-zero tap of filter 0, on both sides
/// of `conv_gemm_worthwhile` (bias first: 1×8×8 → 2 at strides 1 and 2;
/// bias last: 4×32×64 → 8), batches 1 and 2 on a two-participant pool:
/// every output is NaN exactly where a conv that multiplies every tap is.
#[test]
fn nan_under_a_zero_weight_does_not_depend_on_the_route() {
    let sq = Conv2dGeom::square;
    let cases = [
        ((1, 8, 8, 2), sq(3, 1, 1), false),
        ((1, 8, 8, 2), sq(3, 2, 1), false),
        ((4, 32, 64, 8), sq(3, 1, 1), true),
    ];
    with_pool(&Pool::new(1), || {
        for ((c, h, w, f), g, bias_last) in cases {
            let (oh, ow) = g.out_hw(h, w);
            assert_eq!(ops::conv_gemm_worthwhile(f, c * 9, oh * ow), bias_last);
            let mut wv = vec![0.25f32; f * c * 9];
            for ch in 0..c {
                wv[ch * 9 + 4] = 0.0; // filter 0's centre tap
            }
            let wt = Tensor::from_vec(wv, [f, c, 3, 3]).unwrap();
            let bias = vec![0.1f32; f];
            for batch in [1usize, 2] {
                let mut xv = values::<f32>(4, batch * c * h * w);
                // Pixels a centre tap reads at strides 1 and 2.
                xv[4 * w + 4] = f32::INFINITY;
                xv[2 * w + 6] = f32::NEG_INFINITY;
                let x = Tensor::from_vec(xv, [batch, c, h, w]).unwrap();
                let mut y = Tensor::zeros([0usize; 4]);
                ops::conv2d_fused_into(&x, &wt, &bias, g, None, &mut y).unwrap();
                let mut nans = 0;
                for (i, v) in y.data().iter().enumerate() {
                    let at = [i / (f * oh * ow), i / (oh * ow) % f, i / ow % oh, i % ow];
                    let want = naive_is_nan(&x, &wt, &bias, g, at);
                    assert_eq!(v.is_nan(), want, "{c}x{h}x{w} -> {f}, {g:?}, {at:?}: {v}");
                    nans += usize::from(want);
                }
                assert!(nans > 0, "{c}x{h}x{w} -> {f}, {g:?}: no NaN to check");
            }
        }
    });
}

fn p50(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    v[v.len() / 2] as f64 / 1e3
}

#[test]
fn one_route_against_the_axpy_kernels_same_process() {
    let (runs, calls) = if cfg!(debug_assertions) {
        (1, 1)
    } else {
        (5, 300)
    };
    let sq = Conv2dGeom::square;
    let cases = [
        (
            "PF conv [32,1,30,30], six 6×6 filters, stride 3",
            (32, 1, 30, 30, 6),
            sq(6, 3, 0),
        ),
        (
            "[1,2,8,8], three 3×3 filters, stride 1",
            (1, 2, 8, 8, 3),
            sq(3, 1, 1),
        ),
        (
            "[1,3,9,9], two 3×3 filters, stride 2",
            (1, 3, 9, 9, 2),
            sq(3, 2, 1),
        ),
    ];
    with_pool(&Pool::new(0), || {
        for (name, (n, c, h, w, f), g) in cases {
            let x = Tensor::from_vec(values::<f32>(5, n * c * h * w), [n, c, h, w]).unwrap();
            let (kh, kw) = g.kernel;
            let wt = Tensor::from_vec(values::<f32>(6, f * c * kh * kw), [f, c, kh, kw]).unwrap();
            let bias = values::<f32>(7, f);
            let act = Some(Act::Relu);
            let (mut col, mut old) = (Vec::new(), Vec::new());
            let mut new = Tensor::zeros([0usize; 4]);
            ops::conv2d_fused_into(&x, &wt, &bias, g, act, &mut new).unwrap();
            old.resize(new.numel(), 0.0);
            for run in 0..runs {
                let (mut old_ns, mut new_ns) = (Vec::new(), Vec::new());
                for _ in 0..calls {
                    let start = Instant::now();
                    old_forward(&x, &wt, &bias, g, act, &mut col, &mut old);
                    old_ns.push(start.elapsed().as_nanos() as u64);
                    let start = Instant::now();
                    ops::conv2d_fused_into(&x, &wt, &bias, g, act, &mut new).unwrap();
                    new_ns.push(start.elapsed().as_nanos() as u64);
                    assert!(bits(new.data()) == bits(&old), "{name}: bits differ");
                }
                if cfg!(debug_assertions) {
                    continue;
                }
                let (old, new) = (p50(&mut old_ns), p50(&mut new_ns));
                println!(
                    "run {run}: {name} + ReLU, 1 thread, p50 of {calls}: axpy kernel {old:.2} us, \
                     one route {new:.2} us, new/old {:.2} (rule (iv), not a BENCHMARK.json claim)",
                    new / old
                );
            }
        }
    });
}
