//! Same-process A/Bs of the GEMM's register tiles. Run them in the release
//! build with `--nocapture --test-threads=1`; the bits are asserted, the
//! times and their ratios only printed.
//!
//! * The panel sweep against the same arithmetic written out by hand as one
//!   straight-line kernel per row block, on the shapes `benchmark/`'s
//!   `sweep_mlp` runs (MLP 6-128-64-1 at batch 1024, ReLU between layers)
//!   and on a `k = 1` layer, where everything but the multiply-adds shows.
//!   The kernel reads the same packed panels (`PackedB::panel_data`) and
//!   runs each element's chain the way the determinism contract fixes it:
//!   `acc = 0`, `acc + a*w` in ascending `k` (mul, then add), then
//!   `+ bias`, then the activation.
//! * The narrow tiles (`n ≤ 8`), which finish through code compiled per
//!   finish code, against copies of the tiles they replaced, which matched
//!   the `Epilogue` at run time (`old_narrow_blocks` and what it calls).
//!
//! Both arms write the same output tensor, and it is written just before
//! each timed call, so every call starts from the same memory in the same
//! cache state: resident and dirty. With an output per arm, left as the
//! last call left it, a `k = 1` layer's ratio read 1.13 run alone and 2.1
//! after the three `sweep_mlp` layers. Where the output starts within a
//! 64-byte line is up to the allocator and still moves a store-bound
//! ratio, so each line prints it.

use hpacml_par::{with_pool, Pool};
use hpacml_tensor::gemm::{matmul_transb_packed_into, Act, Bias, Epilogue, PackedB};
use hpacml_tensor::quant::{matmul_transb_qpacked_into, Precision, QPackedB};
use hpacml_tensor::{Scalar, Tensor};
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn p50(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    v[v.len() / 2] as f64 / 1e3
}

/// Runs and calls per run of every A/B: one quick pass in a debug build.
fn runs_and_calls() -> (usize, usize) {
    if cfg!(debug_assertions) {
        (1, 2)
    } else {
        (5, 300)
    }
}

/// Nanoseconds of `f(c)`, with `c` written just before it (see the module
/// docs). `c` must already have its output's size.
fn timed(c: &mut Tensor<f32>, f: impl FnOnce(&mut Tensor<f32>)) -> u64 {
    c.data_mut().fill(0.0);
    let start = Instant::now();
    f(c);
    start.elapsed().as_nanos() as u64
}

/// Alternate `new` and `old` `runs` times `calls` calls, both into the same
/// output, asserting equal output bits after every pair; prints each run's
/// two p50s and their ratio.
fn alternate(
    name: &str,
    (old_name, new_name): (&str, &str),
    mut new: impl FnMut(&mut Tensor<f32>),
    mut old: impl FnMut(&mut Tensor<f32>),
) {
    let (runs, calls) = runs_and_calls();
    let mut c = Tensor::zeros([0usize; 2]);
    // One untimed call each sizes the output (and warms the code).
    old(&mut c);
    new(&mut c);
    for run in 0..runs {
        let (mut new_ns, mut old_ns) = (Vec::new(), Vec::new());
        for _ in 0..calls {
            new_ns.push(timed(&mut c, &mut new));
            let (dims, new_bits) = (c.dims().to_vec(), bits(c.data()));
            old_ns.push(timed(&mut c, &mut old));
            assert_eq!(c.dims(), &dims[..], "{name}: dims differ");
            assert_eq!(bits(c.data()), new_bits, "{name}: bits differ");
        }
        let (new, old) = (p50(&mut new_ns), p50(&mut old_ns));
        let offset = c.data().as_ptr() as usize % 64;
        println!(
            "run {run}: {name}, 1 thread, p50 of {calls}: {new_name} {new:.1} us, \
             {old_name} {old:.1} us, ratio {:.3} (output at +{offset} in its line)",
            new / old
        );
    }
}

// ---------------------------------------------------------------------------
// The panel sweep against a straight-line kernel
// ---------------------------------------------------------------------------

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

/// `[m, k] · [k, n]` + bias (+ ReLU) through the GEMM and through the
/// straight-line kernel.
fn a_b(name: &str, (m, k, n): (usize, usize, usize), relu: bool) {
    let a = Tensor::from_vec(values(k as u64, m * k), [m, k]).unwrap();
    let bt = Tensor::from_vec(values(n as u64 + 7, n * k), [n, k]).unwrap();
    let bias = values(n as u64 + 11, n);
    let bp = PackedB::from_transb(&bt).unwrap();
    let epi = Epilogue::col_bias(&bias).with_act(relu.then_some(Act::Relu));
    let gemm = |c: &mut Tensor<f32>| matmul_transb_packed_into(&a, &bp, epi, c).unwrap();
    let kernel = |c: &mut Tensor<f32>| {
        c.resize(&[m, n]);
        let c = c.data_mut();
        match n {
            1 => straight_line_column(k, a.data(), bp.panel_data(), bias[0], c),
            _ if relu => straight_line::<true>(k, a.data(), bp.panel_data(), &bias, c),
            _ => straight_line::<false>(k, a.data(), bp.panel_data(), &bias, c),
        }
    };
    let name = format!("{name} [{m},{k}]·[{k},{n}]");
    alternate(&name, ("straight-line kernel", "GEMM"), gemm, kernel);
}

#[test]
fn sweep_mlp_layers_against_straight_line_same_process() {
    with_pool(&Pool::new(0), || {
        a_b("layer 0, 6→128 + ReLU", (1024, 6, 128), true);
        a_b("layer 1, 128→64 + ReLU", (1024, 128, 64), true);
        a_b("layer 2, 64→1", (1024, 64, 1), false);
        a_b("k = 1, 1→128 + ReLU", (1024, 1, 128), true);
    });
}

// ---------------------------------------------------------------------------
// The narrow tiles against copies of the runtime-epilogue tiles they replaced
// ---------------------------------------------------------------------------

/// Panel width, rows per narrow tile and lanes of the `2 ≤ n ≤ 8` tile.
const NR: usize = LANES;
const NARROW_MR: usize = 16;
const NARROW_N: usize = 8;

/// What differs between storage precisions in the old tiles: how a stored
/// panel element becomes the value the chains multiply, and whether a
/// column's chain is multiplied by its scale after the last `k`.
trait Codec {
    type Q: Copy + Sync;
    const SCALED: bool;
    fn decode(raw: Self::Q, scale: f32) -> f32;
    #[inline(always)]
    fn finish(acc: f32, scale: f32) -> f32 {
        if Self::SCALED {
            acc * scale
        } else {
            acc
        }
    }
}

struct F32;
impl Codec for F32 {
    type Q = f32;
    const SCALED: bool = false;
    #[inline(always)]
    fn decode(raw: f32, _scale: f32) -> f32 {
        raw
    }
}

struct Bf16;
impl Codec for Bf16 {
    type Q = u16;
    const SCALED: bool = false;
    #[inline(always)]
    fn decode(raw: u16, _scale: f32) -> f32 {
        f32::from_bits((raw as u32) << 16)
    }
}

struct Int8;
impl Codec for Int8 {
    type Q = i8;
    const SCALED: bool = true;
    #[inline(always)]
    fn decode(raw: i8, _scale: f32) -> f32 {
        raw as f32
    }
}

/// The old epilogue of one narrow tile, matched at run time.
#[inline(always)]
fn finish_tile<const M: usize, const W: usize>(
    acc: &mut [[f32; W]; M],
    epi: &Epilogue<'_, f32>,
    row0: usize,
    col0: usize,
    cols: usize,
) {
    match epi.bias {
        Bias::None => {}
        Bias::Col(bias) if cols == W => {
            let bs = &bias[col0..col0 + W];
            if M == 1 {
                let bs: [f32; W] = bs.try_into().expect("W bias lanes");
                for (v, b) in acc.as_flattened_mut().iter_mut().zip(bs) {
                    *v += b;
                }
            } else {
                for arow in acc.iter_mut() {
                    for (v, b) in arow.iter_mut().zip(bs) {
                        *v += *b;
                    }
                }
            }
        }
        Bias::Col(bias) => {
            for arow in acc.iter_mut() {
                for (v, b) in arow.iter_mut().zip(&bias[col0..col0 + cols]) {
                    *v += *b;
                }
            }
        }
        Bias::Row(bias) => {
            for (arow, &rb) in acc.iter_mut().zip(&bias[row0..row0 + M]) {
                for v in arow.iter_mut() {
                    *v += rb;
                }
            }
        }
    }
    match epi.act {
        None => {}
        Some(Act::Relu) => {
            for arow in acc.iter_mut() {
                for v in arow.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        Some(Act::Tanh) => {
            for arow in acc.iter_mut() {
                for v in arow.iter_mut() {
                    *v = v.tanh_activation();
                }
            }
        }
        Some(Act::Sigmoid) => {
            for arow in acc.iter_mut() {
                for v in arow.iter_mut() {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
        }
    }
}

/// The old dispatcher: every full 16-row block of `a` (`rows × k`) on the
/// old tiles, the column tile with the transposed epilogue; returns the
/// rows covered.
// allow: the copy keeps the old tiles' signatures.
#[allow(clippy::too_many_arguments)]
fn old_narrow_blocks<C: Codec>(
    a: &[f32],
    k: usize,
    panel: &[C::Q],
    scales: &[f32; NR],
    c: &mut [f32],
    n: usize,
    epi: &Epilogue<'_, f32>,
    row0: usize,
) -> usize {
    let blocks = a
        .chunks_exact(NARROW_MR * k)
        .zip(c.chunks_exact_mut(NARROW_MR * n))
        .enumerate();
    if n == 1 {
        let (epi_t, lane0) = match epi.bias {
            Bias::None => (Epilogue::none(), 0),
            Bias::Col(bias) => (Epilogue::row_bias(bias), 0),
            Bias::Row(bias) => (Epilogue::col_bias(bias), row0),
        };
        let epi_t = epi_t.with_act(epi.act);
        for (blk, (ab, cb)) in blocks {
            old_column_tile::<C>(ab, k, panel, scales, cb, &epi_t, lane0 + blk * NARROW_MR);
        }
    } else {
        for (blk, (ab, cb)) in blocks {
            old_narrow_tile::<C>(ab, k, panel, scales, cb, n, epi, row0 + blk * NARROW_MR);
        }
    }
    c.len() / n / NARROW_MR * NARROW_MR
}

// allow: the copy keeps the old tiles' signatures.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn old_narrow_tile<C: Codec>(
    a: &[f32],
    k: usize,
    panel: &[C::Q],
    scales: &[f32; NR],
    c: &mut [f32],
    n: usize,
    epi: &Epilogue<'_, f32>,
    row0: usize,
) {
    let rows: [&[f32]; NARROW_MR] = std::array::from_fn(|i| &a[i * k..][..k]);
    let panel = &panel.as_chunks::<NR>().0[..k];
    let mut acc = [[0.0f32; NARROW_N]; NARROW_MR];
    for (kk, braw) in panel.iter().enumerate() {
        let av: [f32; NARROW_MR] = std::array::from_fn(|i| rows[i][kk]);
        let brow: [f32; NR] = std::array::from_fn(|j| C::decode(braw[j], scales[j]));
        for (j, &bv) in brow[..NARROW_N].iter().enumerate() {
            for (arow, &a) in acc.iter_mut().zip(&av) {
                arow[j] += a * bv;
            }
        }
    }
    let mut tile = acc;
    for row in &mut tile {
        for (x, &s) in row.iter_mut().zip(scales) {
            *x = C::finish(*x, s);
        }
    }
    finish_tile(&mut tile, epi, row0, 0, n);
    if n == NARROW_N {
        for (crow, trow) in c.chunks_exact_mut(NARROW_N).zip(&tile) {
            crow.copy_from_slice(trow);
        }
    } else {
        for (crow, trow) in c.chunks_exact_mut(n).zip(&tile) {
            crow.copy_from_slice(&trow[..n]);
        }
    }
}

#[inline(never)]
fn old_column_tile<C: Codec>(
    a: &[f32],
    k: usize,
    panel: &[C::Q],
    scales: &[f32; NR],
    c: &mut [f32],
    epi_t: &Epilogue<'_, f32>,
    lane0: usize,
) {
    let mut acc = [[0.0f32; NARROW_MR]; 1];
    let rows: [&[f32]; NARROW_MR] = std::array::from_fn(|i| &a[i * k..(i + 1) * k]);
    for (kk, wraw) in panel.chunks_exact(NR).take(k).enumerate() {
        let wv = C::decode(wraw[0], scales[0]);
        for (v, row) in acc[0].iter_mut().zip(&rows) {
            *v += row[kk] * wv;
        }
    }
    for v in &mut acc[0] {
        *v = C::finish(*v, scales[0]);
    }
    finish_tile(&mut acc, epi_t, 0, lane0, NARROW_MR);
    c.copy_from_slice(&acc[0]);
}

/// The old route for a single-slab narrow problem with no per-row bias:
/// the public entry's checks and resize, and the driver's split of the rows
/// into stripes (its heuristic, copied); per stripe the old tiles on the
/// full 16-row blocks, and the `< 16` rows left on the same chain, one
/// element at a time (the GEMM runs them on its sweep).
fn old_gemm<C: Codec>(
    a: &Tensor<f32>,
    (panel, scales): (&[C::Q], &[f32; NR]),
    n: usize,
    epi: &Epilogue<'_, f32>,
    c: &mut Tensor<f32>,
) {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    assert!(a.rank() == 2 && panel.len() == k * NR && n <= NARROW_N);
    let bias = match epi.bias {
        Bias::None => &[][..],
        Bias::Col(bias) => bias,
        Bias::Row(_) => unreachable!("a per-row bias runs on the sweep"),
    };
    assert!(bias.is_empty() || bias.len() == n);
    c.resize(&[m, n]);
    let (a, c) = (a.data(), c.data_mut());
    let stripe = |row0: usize, c: &mut [f32]| {
        let a = &a[row0 * k..][..c.len() / n * k];
        let done = old_narrow_blocks::<C>(a, k, panel, scales, c, n, epi, row0);
        for (row, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)).skip(done) {
            for (j, out) in crow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (kk, &av) in row.iter().enumerate() {
                    acc += av * C::decode(panel[kk * NR + j], scales[j]);
                }
                let mut v = C::finish(acc, scales[j]);
                if let Some(b) = bias.get(j) {
                    v += b;
                }
                *out = epi.act.map_or(v, |act| act.apply(v));
            }
        }
    };
    // `gemm::par_worthwhile` and `gemm::par_rows_per_block`, MR-aligned.
    if m > 1 && m * n * k >= 1 << 15 {
        let threads = hpacml_par::current_parallelism();
        let flops_rows = ((8 << 15) / (n * k)).max(1);
        let balance_rows = m.div_ceil(threads * 4).max(8);
        let rows = flops_rows.min(balance_rows).clamp(1, m).div_ceil(8) * 8;
        hpacml_par::par_chunks_mut(c, rows * n, |start, c| stripe(start / n, c));
    } else {
        stripe(0, c);
    }
}

/// The stored single panel of a `[k, n ≤ 8]` rung and its scales, rebuilt
/// from the values its chains multiply: a bf16 weight is the top half of
/// its f32, an int8 one the integer itself; padding lanes store 0 with
/// scale 1.
fn stored_panel<Q: Copy + Default>(
    qb: &QPackedB,
    (k, n): (usize, usize),
    store: impl Fn(f32) -> Q,
) -> (Vec<Q>, [f32; NR]) {
    let mut panel = vec![Q::default(); k * NR];
    for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
        for (j, q) in row.iter_mut().take(n).enumerate() {
            *q = store(qb.chain_weight(j, kk));
        }
    }
    let scales = std::array::from_fn(|j| if j < n { qb.col_scale(j) } else { 1.0 });
    (panel, scales)
}

/// `[m, k] · [k, n]` with `bias`/`act` at `prec` through the GEMM (new
/// tiles) and through [`old_gemm`] (old tiles).
fn narrow_a_b(
    name: &str,
    (m, k, n): (usize, usize, usize),
    prec: Precision,
    bias: bool,
    act: Option<Act>,
) {
    let a = Tensor::from_vec(values(k as u64 + 3, m * k), [m, k]).unwrap();
    let bt = Tensor::from_vec(values(n as u64 + 5, n * k), [n, k]).unwrap();
    let b = values(n as u64 + 13, n);
    let epi = match bias {
        true => Epilogue::col_bias(&b),
        false => Epilogue::none(),
    }
    .with_act(act);
    let name = format!("{name} {} [{m},{k}]·[{k},{n}]", prec.name());
    let arms = ("old tiles", "new tiles");
    let bp = PackedB::from_transb(&bt).unwrap();
    if prec == Precision::F32 {
        let panel = (&bp.panel_data()[..k * NR], &[1.0; NR]);
        let new = |c: &mut Tensor<f32>| matmul_transb_packed_into(&a, &bp, epi, c).unwrap();
        let old = |c: &mut Tensor<f32>| old_gemm::<F32>(&a, panel, n, &epi, c);
        return alternate(&name, arms, new, old);
    }
    let qb = QPackedB::from_packed(&bp, prec).unwrap();
    let new = |c: &mut Tensor<f32>| matmul_transb_qpacked_into(&a, &qb, epi, c).unwrap();
    if prec == Precision::Bf16 {
        let (panel, scales) = stored_panel(&qb, (k, n), |w| (w.to_bits() >> 16) as u16);
        let old = |c: &mut Tensor<f32>| old_gemm::<Bf16>(&a, (&panel, &scales), n, &epi, c);
        alternate(&name, arms, new, old);
    } else {
        let (panel, scales) = stored_panel(&qb, (k, n), |w| w as i8);
        let old = |c: &mut Tensor<f32>| old_gemm::<Int8>(&a, (&panel, &scales), n, &epi, c);
        alternate(&name, arms, new, old);
    }
}

#[test]
fn narrow_tiles_against_runtime_epilogue_tiles_same_process() {
    use Precision::{Bf16 as B, Int8 as I, F32 as F};
    let (relu, tanh, sigmoid) = (Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid));
    with_pool(&Pool::new(0), || {
        narrow_a_b("sweep_mlp layer 2 + bias", (1024, 64, 1), F, true, None);
        narrow_a_b(
            "stencil layer 0 + bias + ReLU",
            (65536, 5, 8),
            F,
            true,
            relu,
        );
        narrow_a_b("stencil layer 1 + bias", (65536, 8, 1), F, true, None);
        narrow_a_b(
            "stencil layer 0 + bias + ReLU",
            (65536, 5, 8),
            I,
            true,
            relu,
        );
        narrow_a_b("stencil layer 1 + bias", (65536, 8, 1), B, true, None);
        narrow_a_b("no bias", (1024, 128, 4), F, false, None);
        narrow_a_b("ragged + bias + Sigmoid", (37, 8, 5), F, true, sigmoid);
        narrow_a_b("+ bias + Tanh", (4096, 64, 8), F, true, tanh);
        narrow_a_b("column + Tanh", (65536, 8, 1), F, false, tanh);
    });
}
