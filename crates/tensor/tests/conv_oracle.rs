//! Correct, not only reproducible: the convolution forward against an f64
//! oracle with a stated bound. It runs im2col panels + the GEMM with the
//! bias first (small shapes) or last (`conv_gemm_worthwhile`), intra-sample
//! when the batch leaves the pool idle and per sample when it does not.
//! Elsewhere these are only checked against each other, bit for bit
//! (`gemm_determinism`), which a mistake shared by all of them would pass.

use hpacml_tensor::gemm::Act;
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::Tensor;

fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

/// `(exact, Σ|w·x|)` of output `(n, f, oy, ox)` without its bias, in f64.
fn oracle(x: &Tensor<f32>, w: &Tensor<f32>, g: Conv2dGeom, out: [usize; 4]) -> (f64, f64) {
    let [n, f, oy, ox] = out;
    let [_, c, h, wd] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
    let (kh, kw) = g.kernel;
    let (mut exact, mut mag) = (0.0f64, 0.0f64);
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let iy = (oy * g.stride.0 + ki).checked_sub(g.pad.0);
                let ix = (ox * g.stride.1 + kj).checked_sub(g.pad.1);
                if let (Some(iy), Some(ix)) = (iy, ix) {
                    if iy < h && ix < wd {
                        let p =
                            f64::from(x.at(&[n, ch, iy, ix])) * f64::from(w.at(&[f, ch, ki, kj]));
                        exact += p;
                        mag += p.abs();
                    }
                }
            }
        }
    }
    (exact, mag)
}

/// Every output of `conv2d_fused_into` is within `(ckk+1)·ε·(Σ|w·x| + |bias|)`
/// of the f64 result (ε = 2⁻²⁴): `ckk` rounded products and `ckk` rounded
/// adds, with the bias added first (small shapes) or last; a fused
/// ReLU is exact and 1-Lipschitz, so it keeps the bound.
fn check(label: &str, x: &Tensor<f32>, w: &Tensor<f32>, bias: &[f32], g: Conv2dGeom) {
    let ckk = w.numel() / w.dims()[0];
    let eps = f64::from(f32::EPSILON) / 2.0;
    for act in [None, Some(Act::Relu)] {
        let mut y = Tensor::zeros([0usize; 4]);
        ops::conv2d_fused_into(x, w, bias, g, act, &mut y).unwrap();
        let [n, f, oh, ow] = [y.dims()[0], y.dims()[1], y.dims()[2], y.dims()[3]];
        for out in (0..n * f * oh * ow)
            .map(|i| [i / (f * oh * ow), i / (oh * ow) % f, i / ow % oh, i % ow])
        {
            let (sum, mag) = oracle(x, w, g, out);
            let b = f64::from(bias[out[1]]);
            let want = match act {
                Some(Act::Relu) => (sum + b).max(0.0),
                _ => sum + b,
            };
            let got = f64::from(y.at(&out));
            let bound = (ckk + 1) as f64 * eps * (mag + b.abs()) * 1.01;
            assert!(
                (got - want).abs() <= bound,
                "{label} {act:?} {out:?}: |{got} - {want}| = {:e} > {bound:e}",
                (got - want).abs()
            );
        }
    }
}

/// Every output of the routes a `c×h×w → f` problem takes (`gemm`: the
/// bias added last, else first) at strides 1 and 2, with and without
/// padding, for a batch of one and of two on a two-participant pool: a
/// batch of one leaves a participant idle (intra-sample route), a batch of
/// two does not (per-sample route).
fn check_routes((c, h, w, f): (usize, usize, usize, usize), gemm: bool) {
    let pool = hpacml_par::Pool::new(1);
    hpacml_par::with_pool(&pool, || {
        for (stride, pad) in [(1usize, 1usize), (2, 1), (1, 2), (2, 0)] {
            let g = Conv2dGeom::square(3, stride, pad);
            let (oh, ow) = g.out_hw(h, w);
            assert_eq!(
                ops::conv_gemm_worthwhile(f, c * 9, oh * ow),
                gemm,
                "{c}x{h}x{w} -> {f} filters, stride {stride}, pad {pad}: not the intended route"
            );
            let wt = Tensor::from_vec(values(f * c * 9, 7), [f, c, 3, 3]).unwrap();
            let bias = values(f, 8);
            for batch in [1usize, 2] {
                let x = Tensor::from_vec(values(batch * c * h * w, 9), [batch, c, h, w]).unwrap();
                let label = format!("{c}x{h}x{w} -> {f}, s{stride} p{pad}, batch {batch}");
                check(&label, &x, &wt, &bias, g);
            }
        }
    });
}

/// The bias first (shapes below `conv_gemm_worthwhile`), at strides 1 and 2.
#[test]
fn conv_direct_routes_are_within_the_f64_oracle_bound() {
    check_routes((3, 9, 9, 2), false);
}

/// The bias last, in the GEMM's epilogue, both parallel routes. A width
/// of 27 leaves ragged last panels, and at stride 2 (14 or 13 output
/// columns) every panel spans more than one output row.
#[test]
fn conv_gemm_routes_are_within_the_f64_oracle_bound() {
    check_routes((3, 30, 27, 8), true);
}

/// `(exact, Σ|terms|)` in f64 of a sum of products.
fn sum_f64(terms: impl Iterator<Item = (f32, f32)>) -> (f64, f64) {
    terms.fold((0.0, 0.0), |(s, m), (a, b)| {
        let p = f64::from(a) * f64::from(b);
        (s + p, m + p.abs())
    })
}

/// Input position `(iy, ix)` that output `(oy, ox)` reads through kernel
/// tap `(ki, kj)`, if it is inside the `h × w` input (not padding).
fn tap(
    g: Conv2dGeom,
    (h, w): (usize, usize),
    (oy, ox): (usize, usize),
    (ki, kj): (usize, usize),
) -> Option<(usize, usize)> {
    let iy = (oy * g.stride.0 + ki).checked_sub(g.pad.0)?;
    let ix = (ox * g.stride.1 + kj).checked_sub(g.pad.1)?;
    (iy < h && ix < w).then_some((iy, ix))
}

/// Every element of `conv2d_backward`'s `dX`, `dW` and `db` against the f64
/// sums they stand for, within `(t+1)·ε·Σ|terms|` (ε = 2⁻²⁴) for a sum of
/// `t` products: `t` rounded products and at most `t` rounded adds, in any
/// order (the kernels sum `dW`/`db` per sample and then across samples).
fn check_backward(
    label: &str,
    (n, c, h, w, f): (usize, usize, usize, usize, usize),
    g: Conv2dGeom,
) {
    let (kh, kw) = g.kernel;
    let (oh, ow) = g.out_hw(h, w);
    let x = Tensor::from_vec(values(n * c * h * w, 21), [n, c, h, w]).unwrap();
    let wt = Tensor::from_vec(values(f * c * kh * kw, 22), [f, c, kh, kw]).unwrap();
    let dy = Tensor::from_vec(values(n * f * oh * ow, 23), [n, f, oh, ow]).unwrap();
    let (dx, dw, db) = ops::conv2d_backward(&x, &wt, &dy, g).unwrap();
    assert_eq!(dx.dims(), x.dims(), "{label}: dX shape");
    assert_eq!(dw.dims(), wt.dims(), "{label}: dW shape");
    assert_eq!(db.len(), f, "{label}: db length");
    let eps = f64::from(f32::EPSILON) / 2.0;
    let within = |what: String, got: f32, (want, mag): (f64, f64), terms: usize| {
        let bound = (terms + 1) as f64 * eps * mag * 1.01;
        let err = (f64::from(got) - want).abs();
        assert!(
            err <= bound,
            "{label} {what}: |{got} - {want}| = {err:e} > {bound:e}"
        );
    };
    let outs = || (0..oh).flat_map(move |oy| (0..ow).map(move |ox| (oy, ox)));
    let taps = || (0..kh).flat_map(move |ki| (0..kw).map(move |kj| (ki, kj)));
    for (s, ch, iy, ix) in
        (0..n * c * h * w).map(|i| (i / (c * h * w), i / (h * w) % c, i / w % h, i % w))
    {
        let mut terms = Vec::new();
        for fi in 0..f {
            for t in taps() {
                for o in outs().filter(|&o| tap(g, (h, w), o, t) == Some((iy, ix))) {
                    terms.push((dy.at(&[s, fi, o.0, o.1]), wt.at(&[fi, ch, t.0, t.1])));
                }
            }
        }
        let t = terms.len();
        within(
            format!("dX{:?}", [s, ch, iy, ix]),
            dx.at(&[s, ch, iy, ix]),
            sum_f64(terms.into_iter()),
            t,
        );
    }
    for (fi, ch, ki, kj) in
        (0..f * c * kh * kw).map(|i| (i / (c * kh * kw), i / (kh * kw) % c, i / kw % kh, i % kw))
    {
        let terms: Vec<(f32, f32)> = (0..n)
            .flat_map(|s| outs().map(move |o| (s, o)))
            .filter_map(|(s, o)| {
                let (iy, ix) = tap(g, (h, w), o, (ki, kj))?;
                Some((dy.at(&[s, fi, o.0, o.1]), x.at(&[s, ch, iy, ix])))
            })
            .collect();
        let t = terms.len();
        within(
            format!("dW{:?}", [fi, ch, ki, kj]),
            dw.at(&[fi, ch, ki, kj]),
            sum_f64(terms.into_iter()),
            t,
        );
    }
    for (fi, &got) in db.iter().enumerate() {
        let terms = (0..n).flat_map(|s| outs().map(move |(oy, ox)| (s, oy, ox)));
        let terms: Vec<(f32, f32)> = terms
            .map(|(s, oy, ox)| (dy.at(&[s, fi, oy, ox]), 1.0))
            .collect();
        let t = terms.len();
        within(format!("db[{fi}]"), got, sum_f64(terms.into_iter()), t);
    }
}

/// ParticleFilter's first conv (1 → 6 filters, 6×6, stride 3, no padding)
/// and a padded 3×3 conv at strides 1 and 2, each on a batch of two and on
/// one and two pool participants.
#[test]
fn conv_backward_is_within_the_f64_oracle_bound() {
    for workers in [0, 1] {
        hpacml_par::with_pool(&hpacml_par::Pool::new(workers), || {
            check_backward(
                "pf first conv",
                (2, 1, 18, 21, 6),
                Conv2dGeom::square(6, 3, 0),
            );
            check_backward("padded 3x3", (2, 3, 9, 8, 4), Conv2dGeom::square(3, 1, 1));
            check_backward(
                "padded 3x3, stride 2",
                (2, 3, 9, 8, 4),
                Conv2dGeom::square(3, 2, 1),
            );
        });
    }
}
