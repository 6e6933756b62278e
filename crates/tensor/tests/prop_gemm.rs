//! Property tests for the packed GEMM: over random `(m, n, k)` shapes and
//! batch sizes, the tiled/packed/fused kernels must reproduce the naive
//! single-accumulator reference **bit for bit** — not within a tolerance.
//! Exact equality is the point: the tiled kernel keeps one ascending-`k`
//! chain per output element, so reassociation never happens and every
//! epilogue variant is the same float expression the unfused stack runs.

use hpacml_tensor::gemm::{self, Act, Bias, Epilogue, PackedB};
use hpacml_tensor::ops;
use hpacml_tensor::Tensor;
use proptest::prelude::*;

/// Naive reference: one accumulator per element, ascending `k`, bias then
/// activation — the canonical semantics of the whole subsystem.
fn reference(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b_at: impl Fn(usize, usize) -> f32, // (kk, j)
    epi: &Epilogue<'_, f32>,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b_at(kk, j);
            }
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

/// Random shape strategy, three families drawn equally often. General: m
/// spans batch sizes from single samples through several register blocks;
/// n and k cross the panel/tile boundaries. Batch-1 wide: see
/// [`batch1_wide_shape`]. Full tiles: see [`full_tile_shape`].
fn shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    prop_oneof![general_shape(), batch1_wide_shape(), full_tile_shape()]
}

fn general_shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (
        1usize..70,
        1usize..40,
        0usize..50,
        proptest::prelude::any::<u64>(),
    )
}

/// Batch-1 wide shape strategy: one or two rows against three to ten
/// panels, so the single-row tile sweeps whole groups of four panels, then
/// a remainder of fewer than four, usually with a ragged last panel; `k` up
/// to 300 crosses the default `KC = 256` slab, so the grouped tile also
/// resumes its chains.
fn batch1_wide_shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (
        1usize..=2,
        40usize..=150,
        0usize..=300,
        proptest::prelude::any::<u64>(),
    )
}

/// Full-tile shape strategy: multi-row tiles (m from 2 through five 8-row
/// blocks, so 8-, 4- and 2-row tiles all occur) against one to four whole
/// panels, each `n` one short of, exactly on, or one past a panel edge —
/// so most tiles are full (every panel finished and stored at full width),
/// and the `+1` case adds a one-column ragged panel beside them. `k` up to
/// 300 crosses the default `KC = 256` slab, so full tiles also resume their
/// chains.
fn full_tile_shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (
        2usize..=40,
        (1usize..=4, 0usize..3).prop_map(|(p, d)| 16 * p - 1 + d),
        0usize..=300,
        proptest::prelude::any::<u64>(),
    )
}

/// Narrow-N shape strategy: `n` within the narrow tiles' range, `m` from
/// below one 16-row block through a dozen of them (most draws leave a
/// remainder for the ordinary tiles, some land exactly on a block edge),
/// `k` from the pure-epilogue case up.
fn narrow_shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (
        1usize..200,
        1usize..=8,
        0usize..50,
        proptest::prelude::any::<u64>(),
    )
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

    /// Packed-B GEMM (the Linear-layer kernel) over every epilogue variant.
    #[test]
    fn packed_gemm_bitwise_matches_reference((m, n, k, seed) in shape()) {
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x9E3779B97F4A7C15);
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let btt = Tensor::from_vec(bt.clone(), [n, k]).unwrap();
        let bp = PackedB::from_transb(&btt).unwrap();
        let bias_col = values(n, seed ^ 0xC0FFEE);
        let bias_row = values(m, seed ^ 0xBEEF);
        for epi in epilogues(&bias_col, &bias_row) {
            let want = reference(m, n, k, &a, |kk, j| bt[j * k + kk], &epi);
            let mut c = Tensor::zeros([0usize; 2]);
            gemm::matmul_transb_packed_into(&at, &bp, epi, &mut c).unwrap();
            prop_assert_eq!(c.data(), &want[..], "packed path, epi {:?}", epi);
            // The pack-on-the-fly fallback (uncompiled models) must agree.
            let mut c2 = Tensor::zeros([0usize; 2]);
            ops::matmul_transb_into(&at, &btt, &mut c2, epi).unwrap();
            prop_assert_eq!(c2.data(), &want[..], "scratch-pack path, epi {:?}", epi);
        }
    }

    /// The narrow-N tiles (`n ≤ 8`: 16-row × 8-lane blocks; `n == 1`: rows
    /// on the SIMD axis) over every epilogue variant, `Bias::Row` included
    /// — exact equality, like everything else here.
    #[test]
    fn narrow_gemm_bitwise_matches_reference((m, n, k, seed) in narrow_shape()) {
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x9E3779B97F4A7C15);
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let bp = PackedB::from_transb(&Tensor::from_vec(bt.clone(), [n, k]).unwrap()).unwrap();
        let bias_col = values(n, seed ^ 0xC0FFEE);
        let bias_row = values(m, seed ^ 0xBEEF);
        for epi in epilogues(&bias_col, &bias_row) {
            let want = reference(m, n, k, &a, |kk, j| bt[j * k + kk], &epi);
            let mut c = Tensor::zeros([0usize; 2]);
            gemm::matmul_transb_packed_into(&at, &bp, epi, &mut c).unwrap();
            prop_assert_eq!(c.data(), &want[..], "narrow path, epi {:?}", epi);
        }
    }

    /// Correct, not only reproducible: the narrow tiles against an f64
    /// oracle. An f32 chain of `k` mul+add steps is off by at most
    /// `γ_k · Σ|a||w|` with `γ_k ≈ k·ε` (ε = 2⁻²⁴, unit roundoff); `k + 1`
    /// covers the bias add.
    #[test]
    fn narrow_gemm_is_within_the_f64_oracle_bound((m, n, k, seed) in narrow_shape()) {
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x0BAC1E);
        let bias = values(n, seed ^ 0xFACADE);
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let bp = PackedB::from_transb(&Tensor::from_vec(bt.clone(), [n, k]).unwrap()).unwrap();
        let mut c = Tensor::zeros([0usize; 2]);
        gemm::matmul_transb_packed_into(&at, &bp, Epilogue::col_bias(&bias), &mut c).unwrap();
        let eps = f64::from(f32::EPSILON) / 2.0;
        for i in 0..m {
            for j in 0..n {
                let (mut exact, mut mag) = (f64::from(bias[j]), f64::from(bias[j]).abs());
                for kk in 0..k {
                    let p = f64::from(a[i * k + kk]) * f64::from(bt[j * k + kk]);
                    exact += p;
                    mag += p.abs();
                }
                let err = (f64::from(c.data()[i * n + j]) - exact).abs();
                let bound = (k + 1) as f64 * eps * mag * 1.01;
                prop_assert!(
                    err <= bound,
                    "({}, {}) of [{}, {}]·[{}, {}]: |{} - {}| = {:e} > {:e}",
                    i, j, m, k, k, n, c.data()[i * n + j], exact, err, bound
                );
            }
        }
    }

    /// Correct, not only reproducible: the packed-panel path against an f64
    /// oracle, over all four shape families. An f32 chain of `k` mul+add
    /// steps is off by at most `γ_k · Σ|a||w|` with `γ_k ≈ k·ε` (ε = 2⁻²⁴,
    /// unit roundoff); `k + 1` covers the bias add.
    #[test]
    fn packed_gemm_is_within_the_f64_oracle_bound(
        (m, n, k, seed) in prop_oneof![
            general_shape(),
            narrow_shape(),
            batch1_wide_shape(),
            full_tile_shape(),
        ],
    ) {
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x0BAC1E);
        let bias = values(n, seed ^ 0xFACADE);
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let bp = PackedB::from_transb(&Tensor::from_vec(bt.clone(), [n, k]).unwrap()).unwrap();
        let mut c = Tensor::zeros([0usize; 2]);
        gemm::matmul_transb_packed_into(&at, &bp, Epilogue::col_bias(&bias), &mut c).unwrap();
        let eps = f64::from(f32::EPSILON) / 2.0;
        for i in 0..m {
            for j in 0..n {
                let (mut exact, mut mag) = (f64::from(bias[j]), f64::from(bias[j]).abs());
                for kk in 0..k {
                    let p = f64::from(a[i * k + kk]) * f64::from(bt[j * k + kk]);
                    exact += p;
                    mag += p.abs();
                }
                let err = (f64::from(c.data()[i * n + j]) - exact).abs();
                let bound = (k + 1) as f64 * eps * mag * 1.01;
                prop_assert!(
                    err <= bound,
                    "({}, {}) of [{}, {}]·[{}, {}]: |{} - {}| = {:e} > {:e}",
                    i, j, m, k, k, n, c.data()[i * n + j], exact, err, bound
                );
            }
        }
    }

    /// The batch axis is pure stacking at the kernel level: any leading
    /// sub-batch of a bigger GEMM equals the smaller GEMM bit for bit.
    #[test]
    fn sub_batches_are_prefixes(
        (m, n, k, seed) in shape(),
        frac in 1usize..=8,
    ) {
        let sub_m = (m * frac / 8).max(1).min(m);
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x5151);
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let sub = Tensor::from_vec(a[..sub_m * k].to_vec(), [sub_m, k]).unwrap();
        let bp = PackedB::from_transb(
            &Tensor::from_vec(bt, [n, k]).unwrap(),
        ).unwrap();
        let bias = values(n, seed ^ 0x777);
        let epi = Epilogue::col_bias(Box::leak(bias.into_boxed_slice()))
            .with_act(Some(Act::Tanh));
        let mut full = Tensor::zeros([0usize; 2]);
        gemm::matmul_transb_packed_into(&at, &bp, epi, &mut full).unwrap();
        let mut part = Tensor::zeros([0usize; 2]);
        gemm::matmul_transb_packed_into(&sub, &bp, epi, &mut part).unwrap();
        prop_assert_eq!(part.data(), &full.data()[..sub_m * n]);
    }

    /// Pool width (and therefore partitioning and steal schedule) must
    /// never change a bit: the same problem under caller-only, odd and
    /// wide pools. Odd totals put stripe boundaries off the MR grid's
    /// natural splits, catching tail-alignment bugs.
    #[test]
    fn pool_size_never_changes_bits((m, n, k, seed) in shape()) {
        let a = values(m * k, seed);
        let bt = values(n * k, seed ^ 0x0DDB1A5E);
        let at = Tensor::from_vec(a, [m, k]).unwrap();
        let bp = PackedB::from_transb(&Tensor::from_vec(bt, [n, k]).unwrap()).unwrap();
        let bias = values(n, seed ^ 0xABCD);
        let epi = Epilogue::col_bias(Box::leak(bias.into_boxed_slice()))
            .with_act(Some(Act::Tanh));
        let mut base = Tensor::zeros([0usize; 2]);
        gemm::matmul_transb_packed_into(&at, &bp, epi, &mut base).unwrap();
        for workers in [0usize, 2, 7] {
            let pool = hpacml_par::Pool::new(workers);
            hpacml_par::with_pool(&pool, || {
                let mut c = Tensor::zeros([0usize; 2]);
                gemm::matmul_transb_packed_into(&at, &bp, epi, &mut c).unwrap();
                // assert (not prop_assert): inside the pool-scope closure.
                assert_eq!(c.data(), base.data(), "workers={workers}");
            });
        }
    }
}
