//! Property tests for the quantized GEMM: over random `(m, n, k)` shapes,
//! the bf16 and int8 kernels must reproduce a naive oracle **bit for bit** —
//! not within a tolerance. Quantization loses information exactly once, at
//! pack time: each stored weight decodes to one canonical f32
//! (`qb.chain_weight(j, kk)`: the bf16 value, or the int8 integer), the
//! kernel runs the same ascending-`k` f32 accumulator chain the
//! full-precision GEMM runs, and multiplies the finished chain by its
//! column's scale (`qb.col_scale(j)`: int8's, `1` for bf16). So the naive
//! integer-weight chain, then `× scale`, then bias and activation, is the
//! complete semantics of the fast path.

use hpacml_tensor::gemm::{Act, Bias, Epilogue};
use hpacml_tensor::quant::{self, QPackedB};
use hpacml_tensor::{Precision, Tensor};
use proptest::prelude::*;

/// Naive reference: one accumulator per element over the weights the chain
/// multiplies, ascending `k`, then the column scale (`x * 1.0 == x` for
/// bf16), then bias, then activation.
fn reference(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    qb: &QPackedB,
    epi: &Epilogue<'_, f32>,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * qb.chain_weight(j, kk);
            }
            acc *= qb.col_scale(j);
            acc = match epi.bias {
                Bias::None => acc,
                Bias::Col(bias) => acc + bias[j],
                Bias::Row(bias) => acc + bias[i],
            };
            if let Some(act) = epi.act {
                acc = act.apply(acc);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

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

/// Random shape strategy, four families drawn equally often (the same
/// generators `prop_gemm.rs` uses). General: m spans batch sizes from
/// single samples through several register blocks; n and k cross the
/// panel/tile boundaries. Narrow (`n ≤ 8`): the shapes the one driver sends
/// to the narrow tiles at every precision — m from below one 16-row block
/// through a dozen of them, k from the pure-epilogue case up. Batch-1 wide:
/// one or two rows against three to ten panels, so the single-row tile
/// sweeps whole groups of panels with a ragged remainder, with `k` crossing
/// the default `KC = 256` slab. Full tiles: 2 to 40 rows against one to
/// four panels with `n` one short of, on, or one past a panel edge, so
/// most multi-row tiles are full (every panel stored at full width), `k`
/// crossing the slab too.
fn shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    prop_oneof![
        (1usize..70, 1usize..40, 0usize..50, any::<u64>()),
        (1usize..200, 1usize..=8, 0usize..50, any::<u64>()),
        (1usize..=2, 40usize..=150, 0usize..=300, any::<u64>()),
        (
            2usize..=40,
            (1usize..=4, 0usize..3).prop_map(|(p, d)| 16 * p - 1 + d),
            0usize..=300,
            any::<u64>(),
        ),
    ]
}

fn epilogues(bias_col: &[f32], bias_row: &[f32]) -> Vec<Epilogue<'static, f32>> {
    // Leak the bias slices: proptest closures need 'static epilogues and
    // the test process discards everything at exit anyway.
    let col: &'static [f32] = Box::leak(bias_col.to_vec().into_boxed_slice());
    let row: &'static [f32] = Box::leak(bias_row.to_vec().into_boxed_slice());
    let mut out = vec![Epilogue::none()];
    for act in [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)] {
        out.push(Epilogue::col_bias(col).with_act(act));
        out.push(Epilogue::row_bias(row).with_act(act));
        out.push(Epilogue::none().with_act(act));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The quantized packed-B GEMM over every epilogue variant, at both
    /// reduced precisions.
    #[test]
    fn quantized_gemm_bitwise_matches_dequant_reference((m, n, k, seed) in shape()) {
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x9E3779B97F4A7C15);
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let btt = Tensor::from_vec(bt, [n, k]).unwrap();
        let bias_col = values(n, seed ^ 0xC0FFEE);
        let bias_row = values(m, seed ^ 0xBEEF);
        for prec in [Precision::Bf16, Precision::Int8] {
            let qb = QPackedB::from_transb(&btt, prec).unwrap();
            for epi in epilogues(&bias_col, &bias_row) {
                let want = reference(m, n, k, &a, &qb, &epi);
                let mut c = Tensor::zeros([0usize; 2]);
                quant::matmul_transb_qpacked_into(&at, &qb, epi, &mut c).unwrap();
                prop_assert_eq!(c.data(), &want[..], "{:?}, epi {:?}", prec, epi);
            }
        }
    }

    /// Correct, not only reproducible. The decode: every stored weight is
    /// within half a quantization step of the weight it was packed from
    /// (int8: `q·scale[j]` within `½·scale[j]`, `scale[j] = absmax_j / 127`;
    /// bf16: half a bf16 ulp of `w`, 8 significand bits) — so a
    /// wrong-but-deterministic codec cannot pass by agreeing with itself.
    ///
    /// The sum: every output `ĉ = fl(fl(ŝ · scale) + b)`, with `ŝ` the f32
    /// chain over the stored weights `q` (int8 integers, bf16 values), is
    /// within `(k+2)·ε·(|b| + Σ|a·q·scale|)` of the f64 sum
    /// `b + Σ a·q·scale` (ε = 2⁻²⁴, the f32 unit roundoff). Each product
    /// `a·q` enters `ŝ` through at most `k` roundings (its multiply and the
    /// adds after it), so `|ŝ − Σ a·q| ≤ γ_k·Σ|a·q|` with `γ_k ≈ k·ε`; the
    /// scale multiply rounds once more and the bias add once more, so every
    /// term carries at most `k + 2` roundings and `b` one: `γ_{k+2}`. The
    /// scale multiply is the one rounding the old decode-then-chain int8
    /// rung did not have; it traded away the `k` roundings of decoding each
    /// weight to `q·scale`, which that rung's bound never counted because
    /// it summed the decoded f32 weights. bf16 multiplies by `1.0`, exactly,
    /// so it is held to `(k+1)·ε`. The `1.01` absorbs the f64 sum's own
    /// rounding and `γ`'s higher-order terms.
    #[test]
    fn quantized_gemm_is_within_the_f64_oracle_bound((m, n, k, seed) in shape()) {
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x0BAC1E);
        let bias = values(n, seed ^ 0xFACADE);
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let btt = Tensor::from_vec(bt.clone(), [n, k]).unwrap();
        let eps = f64::from(f32::EPSILON) / 2.0;
        for prec in [Precision::Bf16, Precision::Int8] {
            let qb = QPackedB::from_transb(&btt, prec).unwrap();
            for j in 0..n {
                let ch = &bt[j * k..(j + 1) * k];
                let absmax = ch.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for (kk, &w) in ch.iter().enumerate() {
                    let half_step = match prec {
                        // `values` are multiples of 2⁻³¹: zero or normal.
                        Precision::Bf16 => f32::from_bits(w.to_bits() & 0x7F80_0000) / 256.0,
                        _ => 0.5 * (absmax / 127.0) * (1.0 + 1e-4), // f32 rounding of w/s, q·s
                    };
                    let err = (w - qb.chain_weight(j, kk) * qb.col_scale(j)).abs();
                    prop_assert!(
                        err <= half_step,
                        "{:?} w[{}, {}] = {}: decode error {:e} > {:e}",
                        prec, j, kk, w, err, half_step
                    );
                }
            }
            let mut c = Tensor::zeros([0usize; 2]);
            quant::matmul_transb_qpacked_into(&at, &qb, Epilogue::col_bias(&bias), &mut c).unwrap();
            for i in 0..m {
                for (j, &b) in bias.iter().enumerate() {
                    let (mut exact, mut mag) = (f64::from(b), f64::from(b).abs());
                    let scale = f64::from(qb.col_scale(j));
                    for kk in 0..k {
                        let p = f64::from(a[i * k + kk]) * f64::from(qb.chain_weight(j, kk)) * scale;
                        exact += p;
                        mag += p.abs();
                    }
                    let err = (f64::from(c.data()[i * n + j]) - exact).abs();
                    let roundings = if prec == Precision::Int8 { k + 2 } else { k + 1 };
                    let bound = roundings as f64 * eps * mag * 1.01;
                    prop_assert!(
                        err <= bound,
                        "{:?} ({}, {}) of [{}, {}]·[{}, {}]: |{} - {}| = {:e} > {:e}",
                        prec, i, j, m, k, k, n, c.data()[i * n + j], exact, err, bound
                    );
                }
            }
        }
    }

    /// Any leading sub-batch of a bigger quantized GEMM equals the smaller
    /// GEMM bit for bit — the invariant dynamic batching relies on.
    #[test]
    fn quantized_sub_batches_are_prefixes(
        (m, n, k, seed) in shape(),
        frac in 1usize..=8,
    ) {
        let sub_m = (m * frac / 8).clamp(1, m);
        let a = values(m * k, seed);
        let btt = Tensor::from_vec(values(n * k, seed ^ 0x5151), [n, k]).unwrap();
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let sub = Tensor::from_vec(a[..sub_m * k].to_vec(), [sub_m, k]).unwrap();
        let bias = values(n, seed ^ 0x31415);
        let epi = Epilogue::col_bias(Box::leak(bias.into_boxed_slice()))
            .with_act(Some(Act::Sigmoid));
        for prec in [Precision::Bf16, Precision::Int8] {
            let qb = QPackedB::from_transb(&btt, prec).unwrap();
            let mut full = Tensor::zeros([0usize; 2]);
            quant::matmul_transb_qpacked_into(&at, &qb, epi, &mut full).unwrap();
            let mut part = Tensor::zeros([0usize; 2]);
            quant::matmul_transb_qpacked_into(&sub, &qb, epi, &mut part).unwrap();
            prop_assert_eq!(part.data(), &full.data()[..sub_m * n], "{:?}", prec);
        }
    }

    /// Pool width (and therefore partitioning and steal schedule) must
    /// never change a bit of the quantized kernels.
    #[test]
    fn quantized_pool_size_never_changes_bits((m, n, k, seed) in shape()) {
        let a = Tensor::from_vec(values(m * k, seed), [m, k]).unwrap();
        let btt = Tensor::from_vec(values(n * k, seed ^ 0x0DDB1A5E), [n, k]).unwrap();
        let bias = values(n, seed ^ 0xABCD);
        let epi = Epilogue::col_bias(Box::leak(bias.into_boxed_slice()))
            .with_act(Some(Act::Tanh));
        for prec in [Precision::Bf16, Precision::Int8] {
            let qb = QPackedB::from_transb(&btt, prec).unwrap();
            let mut base = Tensor::zeros([0usize; 2]);
            quant::matmul_transb_qpacked_into(&a, &qb, epi, &mut base).unwrap();
            for workers in [0usize, 2, 7] {
                let pool = hpacml_par::Pool::new(workers);
                hpacml_par::with_pool(&pool, || {
                    let mut c = Tensor::zeros([0usize; 2]);
                    quant::matmul_transb_qpacked_into(&a, &qb, epi, &mut c).unwrap();
                    // assert (not prop_assert): inside the pool-scope closure.
                    assert_eq!(c.data(), base.data(), "{prec:?} workers={workers}");
                });
            }
        }
    }
}
