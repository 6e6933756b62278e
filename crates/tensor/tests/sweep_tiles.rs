//! Same-process A/B of the GEMM's panel sweep against the same arithmetic
//! written out by hand as one straight-line kernel per row block, on the
//! shapes `benchmark/`'s `sweep_mlp` runs (MLP 6-128-64-1 at batch 1024,
//! ReLU between layers) and on a `k = 1` layer, where everything but the
//! multiply-adds shows.
//!
//! The kernel reads the same packed panels (`PackedB::panel_data`) and runs
//! each element's chain the way the determinism contract fixes it: `acc =
//! 0`, `acc + a*w` in ascending `k` (mul, then add), then `+ bias`, then the
//! activation. So its output bits must equal the GEMM's, and the test
//! asserts that; the times and their ratio are only printed. Run it in the
//! release build with `--nocapture --test-threads=1`.

use hpacml_par::{with_pool, Pool};
use hpacml_tensor::gemm::{matmul_transb_packed_into, Act, Epilogue, PackedB};
use hpacml_tensor::Tensor;
use std::time::Instant;

/// Rows of one straight-line row block, and columns of one packed panel.
const ROWS: usize = 8;
const LANES: usize = 16;

fn values(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

/// `c = act(a · B + bias)` for `n` a multiple of 16 and `m` of 8: each
/// 8-row block sweeps every panel in one pass, its 8 × 16 accumulators in
/// registers over the whole `k`, then bias and activation, then the store.
fn straight_line<const RELU: bool>(
    k: usize,
    a: &[f32],
    panels: &[f32],
    bias: &[f32],
    c: &mut [f32],
) {
    let n = bias.len();
    assert!(n.is_multiple_of(LANES) && a.len().is_multiple_of(ROWS * k));
    for (ab, cb) in a.chunks_exact(ROWS * k).zip(c.chunks_exact_mut(ROWS * n)) {
        let rows: [&[f32]; ROWS] = std::array::from_fn(|i| &ab[i * k..][..k]);
        let per_panel = panels
            .chunks_exact(k * LANES)
            .zip(bias.as_chunks::<LANES>().0);
        for (p, (panel, b)) in per_panel.enumerate() {
            let w = &panel.as_chunks::<LANES>().0[..k];
            let mut acc = [[0.0f32; LANES]; ROWS];
            for (kk, wrow) in w.iter().enumerate() {
                for (j, &wv) in wrow.iter().enumerate() {
                    for (arow, row) in acc.iter_mut().zip(&rows) {
                        arow[j] += row[kk] * wv;
                    }
                }
            }
            for (i, arow) in acc.iter().enumerate() {
                let mut v = *arow;
                for (x, &bv) in v.iter_mut().zip(b) {
                    *x += bv;
                    if RELU {
                        *x = Act::Relu.apply(*x);
                    }
                }
                cb[i * n + p * LANES..][..LANES].copy_from_slice(&v);
            }
        }
    }
}

/// `c = a · w + bias` for one output column: 16 rows on the lanes, one
/// ascending-`k` chain per row, then the bias.
fn straight_line_column(k: usize, a: &[f32], panel: &[f32], bias: f32, c: &mut [f32]) {
    let w: Vec<f32> = panel.chunks_exact(LANES).map(|row| row[0]).collect();
    for (ab, cb) in a.chunks_exact(LANES * k).zip(c.chunks_exact_mut(LANES)) {
        let rows: [&[f32]; LANES] = std::array::from_fn(|r| &ab[r * k..][..k]);
        let mut acc = [0.0f32; LANES];
        for (kk, &wv) in w.iter().enumerate() {
            for (v, row) in acc.iter_mut().zip(&rows) {
                *v += row[kk] * wv;
            }
        }
        for (o, v) in cb.iter_mut().zip(acc) {
            *o = v + bias;
        }
    }
}

fn p50(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    v[v.len() / 2] as f64 / 1e3
}

/// `[m, k] · [k, n]` + bias (+ ReLU) through the GEMM and through the
/// straight-line kernel, alternating, `runs` times `calls` calls; prints each
/// run's two p50s and their ratio.
fn a_b(name: &str, (m, k, n): (usize, usize, usize), relu: bool, runs: usize, calls: usize) {
    let a = Tensor::from_vec(values(k as u64, m * k), [m, k]).unwrap();
    let bt = Tensor::from_vec(values(n as u64 + 7, n * k), [n, k]).unwrap();
    let bias = values(n as u64 + 11, n);
    let bp = PackedB::from_transb(&bt).unwrap();
    let epi = Epilogue::col_bias(&bias).with_act(relu.then_some(Act::Relu));
    let mut gemm_c = Tensor::zeros([0usize; 2]);
    let mut kernel_c = vec![0.0f32; m * n];
    let kernel = |c: &mut [f32]| match n {
        1 => straight_line_column(k, a.data(), bp.panel_data(), bias[0], c),
        _ if relu => straight_line::<true>(k, a.data(), bp.panel_data(), &bias, c),
        _ => straight_line::<false>(k, a.data(), bp.panel_data(), &bias, c),
    };
    for run in 0..runs {
        let (mut gemm_ns, mut kernel_ns) = (Vec::new(), Vec::new());
        for _ in 0..calls {
            let start = Instant::now();
            matmul_transb_packed_into(&a, &bp, epi, &mut gemm_c).unwrap();
            gemm_ns.push(start.elapsed().as_nanos() as u64);
            let start = Instant::now();
            kernel(&mut kernel_c);
            kernel_ns.push(start.elapsed().as_nanos() as u64);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(gemm_c.data()), bits(&kernel_c), "{name}: bits differ");
        }
        let (gemm, kernel) = (p50(&mut gemm_ns), p50(&mut kernel_ns));
        println!(
            "run {run}: {name} [{m},{k}]·[{k},{n}], 1 thread, p50 of {calls}: GEMM {gemm:.1} us, \
             straight-line kernel {kernel:.1} us, ratio {:.2}",
            gemm / kernel
        );
    }
}

#[test]
fn sweep_mlp_layers_against_straight_line_same_process() {
    let (runs, calls) = if cfg!(debug_assertions) {
        (1, 2)
    } else {
        (5, 300)
    };
    with_pool(&Pool::new(0), || {
        a_b("layer 0, 6→128 + ReLU", (1024, 6, 128), true, runs, calls);
        a_b("layer 1, 128→64 + ReLU", (1024, 128, 64), true, runs, calls);
        a_b("layer 2, 64→1", (1024, 64, 1), false, runs, calls);
        a_b("k = 1, 1→128 + ReLU", (1024, 1, 128), true, runs, calls);
    });
}
