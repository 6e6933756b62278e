//! Training's products on the one packed GEMM, against the loops they
//! replaced.
//!
//! `ops::matmul` (a `Linear` layer's dX, and its dW through `dyᵀ`),
//! `ops::matmul_transb_into` at every row count, and `ops::conv2d_backward`'s
//! dW and dcol all run on `gemm::gemm_into`. Before, they ran loops of their
//! own: an axpy `matmul` (`C[i, :] += A[i, kk] · B[kk, :]`), an axpy
//! `matmul_transa` for dW, a per-element dot loop in `matmul_transb_into`
//! below four rows, and per sample in the conv backward a dot loop (dW) and
//! an axpy loop (dcol). Copies of those loops are kept here as references.
//! Each runs the chain the GEMM contract fixes (from zero, `acc + a*b` in
//! ascending `k`, mul then add), so the new route's bits must equal theirs;
//! the grid tests assert that at f32 and f64, at pool widths 1–3, with `k` on
//! both sides of the 256-deep `KC` slab.
//!
//! The same-process A/B prints the p50 of each old loop beside the new route
//! (bits asserted, times only printed) on four `Linear` shapes and on
//! ParticleFilter's first conv: rule (iv), not a `BENCHMARK.json` claim. Run
//! it in the release build with `--nocapture --test-threads=1`.

use hpacml_par::{with_pool, Pool};
use hpacml_tensor::gemm::{Act, Epilogue, WithScratch};
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::{Scalar, Tensor};
use std::time::Instant;

const ROWS: [usize; 6] = [1, 2, 3, 5, 8, 17];
const DEPTHS: [usize; 5] = [1, 7, 255, 256, 257];
const COLS: [usize; 4] = [1, 7, 16, 33];

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

fn tensor<T: Scalar>(seed: u64, dims: &[usize]) -> Tensor<T> {
    Tensor::from_vec(values(seed, dims.iter().product()), dims.to_vec()).unwrap()
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

/// The axpy `matmul` that was: `C[m, n] = A[m, k] · B[k, n]`.
fn axpy_matmul<T: Scalar>(a: &[T], b: &[T], (m, k, n): (usize, usize, usize)) -> Vec<T> {
    let mut c = vec![T::ZERO; m * n];
    for (i, crow) in c.chunks_exact_mut(n).enumerate() {
        for (kk, &aik) in a[i * k..(i + 1) * k].iter().enumerate() {
            axpy(aik, &b[kk * n..(kk + 1) * n], crow);
        }
    }
    c
}

/// The axpy `matmul_transa` that was: `C[m, n] = A[k, m]ᵀ · B[k, n]`.
fn axpy_matmul_transa<T: Scalar>(a: &[T], b: &[T], (m, k, n): (usize, usize, usize)) -> Vec<T> {
    let mut c = vec![T::ZERO; m * n];
    for (i, crow) in c.chunks_exact_mut(n).enumerate() {
        for kk in 0..k {
            axpy(a[kk * m + i], &b[kk * n..(kk + 1) * n], crow);
        }
    }
    c
}

/// The dot loop `matmul_transb_into` ran below four rows:
/// `C[m, n] = act(A[m, k] · B[n, k]ᵀ + bias)`.
fn dot_transb<T: Scalar>(a: &[T], bt: &[T], k: usize, bias: &[T], act: Option<Act>) -> Vec<T> {
    let mut c = Vec::new();
    for arow in a.chunks_exact(k) {
        for (brow, &b) in bt.chunks_exact(k).zip(bias) {
            let mut acc = T::ZERO;
            for (x, y) in arow.iter().zip(brow) {
                acc += *x * *y;
            }
            acc += b;
            if let Some(act) = act {
                acc = act.apply(acc);
            }
            c.push(acc);
        }
    }
    c
}

/// The input pixel tap `(ki, kj)` of output pixel `(oy, ox)` reads, if any.
fn tap(
    g: Conv2dGeom,
    (h, w): (usize, usize),
    (ki, kj): (usize, usize),
    (oy, ox): (usize, usize),
) -> Option<usize> {
    let iy = (oy * g.stride.0 + ki)
        .checked_sub(g.pad.0)
        .filter(|&y| y < h)?;
    let ix = (ox * g.stride.1 + kj)
        .checked_sub(g.pad.1)
        .filter(|&x| x < w)?;
    Some(iy * w + ix)
}

/// One sample's `[c·kh·kw, oh·ow]` im2col matrix (`scatter` false), or its
/// reverse: `col` added back into `x` in the same order (`scatter` true).
fn im2col<T: Scalar>(
    x: &mut [T],
    c: usize,
    (h, w): (usize, usize),
    g: Conv2dGeom,
    col: &mut [T],
    scatter: bool,
) {
    let (kh, kw) = g.kernel;
    let (oh, ow) = g.out_hw(h, w);
    let mut at = 0;
    for ch in 0..c {
        let plane = &mut x[ch * h * w..(ch + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                for oy in 0..oh {
                    for ox in 0..ow {
                        match (tap(g, (h, w), (ki, kj), (oy, ox)), scatter) {
                            (Some(i), true) => plane[i] += col[at],
                            (Some(i), false) => col[at] = plane[i],
                            (None, true) => {}
                            (None, false) => col[at] = T::ZERO,
                        }
                        at += 1;
                    }
                }
            }
        }
    }
}

/// The conv backward that was: per sample, im2col, a dot loop for dW, an
/// axpy loop for dcol and col2im, then the partials summed in sample order.
/// Returns `(dX, dW, db)`.
fn loop_conv_backward<T: Scalar>(
    x: &Tensor<T>,
    wt: &Tensor<T>,
    dy: &Tensor<T>,
    g: Conv2dGeom,
) -> [Vec<T>; 3] {
    let [_, c, h, w]: [usize; 4] = x.dims().try_into().unwrap();
    let (f, ckk) = (wt.dims()[0], wt.numel() / wt.dims()[0]);
    let (oh, ow) = g.out_hw(h, w);
    let l = oh * ow;
    let mut dx = vec![T::ZERO; x.numel()];
    let (mut dw, mut db) = (vec![T::ZERO; f * ckk], vec![T::ZERO; f]);
    for (s, dx_n) in dx.chunks_exact_mut(c * h * w).enumerate() {
        let mut x_n = x.data()[s * c * h * w..][..c * h * w].to_vec();
        let mut col = vec![T::ZERO; ckk * l];
        im2col(&mut x_n, c, (h, w), g, &mut col, false);
        let dout_n = &dy.data()[s * f * l..][..f * l];
        let (mut dw_loc, mut db_loc) = (vec![T::ZERO; f * ckk], vec![T::ZERO; f]);
        for fi in 0..f {
            let drow = &dout_n[fi * l..(fi + 1) * l];
            for v in drow {
                db_loc[fi] += *v;
            }
            for (kk, dwv) in dw_loc[fi * ckk..(fi + 1) * ckk].iter_mut().enumerate() {
                let mut acc = T::ZERO;
                for (x, y) in drow.iter().zip(&col[kk * l..(kk + 1) * l]) {
                    acc += *x * *y;
                }
                *dwv = acc;
            }
        }
        col.fill(T::ZERO);
        for fi in 0..f {
            let drow = &dout_n[fi * l..(fi + 1) * l];
            for (kk, &wv) in wt.data()[fi * ckk..(fi + 1) * ckk].iter().enumerate() {
                axpy(wv, drow, &mut col[kk * l..(kk + 1) * l]);
            }
        }
        im2col(dx_n, c, (h, w), g, &mut col, true);
        for (a, b) in dw.iter_mut().zip(&dw_loc) {
            *a += *b;
        }
        for (a, b) in db.iter_mut().zip(&db_loc) {
            *a += *b;
        }
    }
    [dx, dw, db]
}

/// A `Linear` layer's dW as `Linear::backward` computes it: `dyᵀ`
/// transposed out, then `[out, N] · [N, in]`.
fn linear_dw<T: Scalar + WithScratch>(dy: &Tensor<T>, x: &Tensor<T>) -> Tensor<T> {
    let (rows, out) = (dy.dims()[0], dy.dims()[1]);
    let dy_t = Tensor::from_shape_fn([out, rows], |ix| dy.data()[ix[1] * out + ix[0]]);
    ops::matmul(&dy_t, x).unwrap()
}

fn products_grid<T: Scalar + WithScratch>() {
    for m in ROWS {
        for k in DEPTHS {
            for n in COLS {
                let shape = format!("m {m}, k {k}, n {n}");
                let a = tensor::<T>(1, &[m, k]);
                let b = tensor::<T>(2, &[k, n]);
                let got = ops::matmul(&a, &b).unwrap();
                let want = axpy_matmul(a.data(), b.data(), (m, k, n));
                assert_eq!(bits(got.data()), bits(&want), "matmul, {shape}");

                // dW's route: A stored [k, m], as `dy` is.
                let at = tensor::<T>(3, &[k, m]);
                let got = linear_dw(&at, &b);
                let want = axpy_matmul_transa(at.data(), b.data(), (m, k, n));
                assert_eq!(bits(got.data()), bits(&want), "matmul_transa, {shape}");

                let bt = tensor::<T>(4, &[n, k]);
                let bias = values::<T>(5, n);
                for act in [None, Some(Act::Relu)] {
                    let mut got = Tensor::zeros([0usize; 2]);
                    let epi = Epilogue::col_bias(&bias).with_act(act);
                    ops::matmul_transb_into(&a, &bt, &mut got, epi).unwrap();
                    let want = dot_transb(a.data(), bt.data(), k, &bias, act);
                    assert_eq!(bits(got.data()), bits(&want), "transb {act:?}, {shape}");
                }
            }
        }
    }
}

/// `(n, c, h, w, f, geometry)`: the ParticleFilter conv at a small batch,
/// padded and multi-channel stride 1, stride 2 with padding, and output
/// planes of 255, 256 and 257 pixels (dW's GEMM depth on both sides of `KC`).
fn conv_cases() -> Vec<(usize, usize, usize, usize, usize, Conv2dGeom)> {
    let rect = |kernel, stride, pad| Conv2dGeom {
        kernel,
        stride,
        pad,
    };
    vec![
        (3, 1, 30, 30, 6, Conv2dGeom::square(6, 3, 0)),
        (2, 3, 9, 11, 5, Conv2dGeom::square(3, 1, 1)),
        (2, 2, 13, 10, 4, Conv2dGeom::square(3, 2, 1)),
        (2, 2, 17, 19, 3, Conv2dGeom::square(3, 1, 0)),
        (1, 2, 16, 16, 3, Conv2dGeom::square(3, 1, 1)),
        (2, 1, 3, 259, 2, rect((3, 3), (1, 1), (0, 0))),
    ]
}

fn conv_grid<T: Scalar + WithScratch>() {
    for (case, (n, c, h, w, f, g)) in conv_cases().into_iter().enumerate() {
        let (kh, kw) = g.kernel;
        let (oh, ow) = g.out_hw(h, w);
        let x = tensor::<T>(6, &[n, c, h, w]);
        let wt = tensor::<T>(7, &[f, c, kh, kw]);
        let dy = tensor::<T>(8, &[n, f, oh, ow]);
        let (dx, dw, db) = ops::conv2d_backward(&x, &wt, &dy, g).unwrap();
        let [want_dx, want_dw, want_db] = loop_conv_backward(&x, &wt, &dy, g);
        assert_eq!(bits(dx.data()), bits(&want_dx), "case {case}: dX");
        assert_eq!(bits(dw.data()), bits(&want_dw), "case {case}: dW");
        assert_eq!(bits(&db), bits(&want_db), "case {case}: db");
    }
}

fn at_pool_widths(grid: fn()) {
    for width in 1..=3 {
        with_pool(&Pool::new(width - 1), grid);
    }
}

#[test]
fn products_match_the_axpy_and_dot_loops_f32() {
    at_pool_widths(products_grid::<f32>);
}

#[test]
fn products_match_the_axpy_and_dot_loops_f64() {
    at_pool_widths(products_grid::<f64>);
}

#[test]
fn conv_backward_matches_its_dot_and_axpy_loops() {
    at_pool_widths(|| {
        conv_grid::<f32>();
        conv_grid::<f64>();
    });
}

fn p50(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    v[v.len() / 2] as f64 / 1e3
}

/// The old loop and the new route, alternating, `runs` times `calls` calls;
/// asserts equal bits and prints each run's two p50s.
fn a_b(
    name: &str,
    runs: usize,
    calls: usize,
    old: impl Fn() -> Vec<u64>,
    new: impl Fn() -> Vec<u64>,
) {
    for run in 0..runs {
        let (mut old_ns, mut new_ns) = (Vec::new(), Vec::new());
        for _ in 0..calls {
            let start = Instant::now();
            let want = old();
            old_ns.push(start.elapsed().as_nanos() as u64);
            let start = Instant::now();
            let got = new();
            new_ns.push(start.elapsed().as_nanos() as u64);
            assert!(got == want, "{name}: bits differ");
        }
        let (old, new) = (p50(&mut old_ns), p50(&mut new_ns));
        println!(
            "run {run}: {name}, 1 thread, p50 of {calls}: old loop {old:.1} us, one GEMM \
             {new:.1} us, old/new {:.2} (rule (iv), not a BENCHMARK.json claim)",
            old / new
        );
    }
}

#[test]
fn training_kernels_against_the_old_loops_same_process() {
    // The debug build asserts the bits once per shape it can afford.
    let (runs, calls, max_macs) = if cfg!(debug_assertions) {
        (1, 1, 1 << 23)
    } else {
        (5, 300, usize::MAX)
    };
    with_pool(&Pool::new(0), || {
        for (batch, inp, out) in [
            (64, 294, 64),
            (64, 1024, 256),
            (256, 512, 512),
            (64, 2048, 2048),
        ] {
            if batch * inp * out > max_macs {
                continue;
            }
            let x = tensor::<f32>(1, &[batch, inp]);
            let w = tensor::<f32>(2, &[out, inp]);
            let dy = tensor::<f32>(3, &[batch, out]);
            let shape = format!("{batch}·{inp}→{out}");
            a_b(
                &format!("Linear {shape} dX"),
                runs,
                calls,
                || bits(&axpy_matmul(dy.data(), w.data(), (batch, out, inp))),
                || bits(ops::matmul(&dy, &w).unwrap().data()),
            );
            a_b(
                &format!("Linear {shape} dW"),
                runs,
                calls,
                || bits(&axpy_matmul_transa(dy.data(), x.data(), (out, batch, inp))),
                || bits(linear_dw(&dy, &x).data()),
            );
        }
        let g = Conv2dGeom::square(6, 3, 0);
        let (oh, ow) = g.out_hw(48, 48);
        let x = tensor::<f32>(4, &[64, 1, 48, 48]);
        let wt = tensor::<f32>(5, &[6, 1, 6, 6]);
        let dy = tensor::<f32>(6, &[64, 6, oh, ow]);
        a_b(
            "PF conv [64,1,48,48], six 6×6 filters, stride 3, backward",
            runs,
            calls,
            || {
                loop_conv_backward(&x, &wt, &dy, g)
                    .iter()
                    .flat_map(|v| bits(v))
                    .collect()
            },
            || {
                let (dx, dw, db) = ops::conv2d_backward(&x, &wt, &dy, g).unwrap();
                [dx.data(), dw.data(), &db[..]]
                    .iter()
                    .flat_map(|v| bits(v))
                    .collect()
            },
        );
    });
}
