//! Depth-first narrow chains (`hpacml_tensor::gemm::NarrowChain`): a run of
//! two or more narrow compiled `Linear` layers served by
//! `ForwardWorkspace::forward_at` as one pass must give, bit for bit, what
//! the same layers give run one by one through `Layer::forward_into` — at
//! every width, activation, precision, row count and pool width — and leave
//! its intermediates out of the arenas. (That a warm chain allocates nothing
//! is `core/tests/alloc_free_batch.rs`'s stencil session, whose 5→8→1 model
//! is one.)
//!
//! `chain_against_layer_by_layer_same_process` is the kernel's A/B: one
//! binary, one thread, p50 of 300 calls of each path on the stencil
//! surrogate's `[65536, 5]` · 5-8-1. Run it in the release build with
//! `--nocapture --test-threads=1` to read the two times (the other tests
//! would otherwise run beside it); it asserts the bits, not the times.

use hpacml_nn::layer::Linear;
use hpacml_nn::{ForwardWorkspace, Layer, Sequential};
use hpacml_par::{with_pool, Pool};
use hpacml_tensor::{Act, Precision, Tensor};
use std::time::Instant;

const ACTS: [Option<Act>; 4] = [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)];
const PRECS: [Precision; 3] = [Precision::F32, Precision::Bf16, Precision::Int8];

/// Compiled `Linear` layers `widths[0] → widths[1] → …`, layer `s` with
/// activation `acts[s]` fused, packed, and quantized for `prec`. The same
/// arguments build the same weights.
fn stack(widths: &[usize], acts: &[Option<Act>], prec: Precision, seed: u64) -> Vec<Linear> {
    let mut rng = hpacml_nn::init::rng(seed);
    widths
        .windows(2)
        .zip(acts)
        .map(|(w, &act)| {
            let mut l = Linear::new(w[0], w[1], &mut rng);
            if let Some(act) = act {
                assert!(l.fuse_activation(act));
            }
            l.prepack();
            l.quantize(prec);
            l
        })
        .collect()
}

fn model(layers: Vec<Linear>) -> Sequential {
    Sequential::new(
        layers
            .into_iter()
            .map(|l| Box::new(l) as Box<dyn Layer>)
            .collect(),
    )
}

/// The layers one at a time, each writing its whole activation.
fn layer_by_layer(layers: &[Linear], x: &Tensor, prec: Precision) -> Tensor {
    let mut cur = x.clone();
    for l in layers {
        let mut out = Tensor::default();
        l.forward_into(&cur, &mut out, prec).unwrap();
        cur = out;
    }
    cur
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: chain bits differ");
}

/// Inputs in `[-2, 2)`, wide enough to reach every activation's tails.
fn input(rows: usize, k: usize, seed: u64) -> Tensor {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Tensor::from_shape_fn([rows, k], |_| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
    })
}

/// The chain property: hidden width `N` in `1..=8`, first-layer `K` in
/// {1, 5, 8, 33, KC}, chains of 2 and 3 layers, every activation (rotated
/// across the layers, none included), every precision, row counts over all
/// of `0..=70` (each structural case takes two; `< 16` rows and ragged
/// tails among them), pool widths 1 and 3 — the chain's bits equal the
/// layer-by-layer ones.
#[test]
fn chain_bits_equal_layer_by_layer() {
    let pools = [Pool::new(0), Pool::new(2)];
    let mut case = 0usize;
    let mut rows_seen = [false; 71];
    for hidden in 1..=8usize {
        for k in [1usize, 5, 8, 33, 256] {
            for len in [2usize, 3] {
                for prec in PRECS {
                    for rot in 0..ACTS.len() {
                        case += 1;
                        let out = 1 + case % 8;
                        let widths: Vec<usize> = match len {
                            2 => vec![k, hidden, out],
                            _ => vec![k, hidden, 1 + (case / 3) % 8, out],
                        };
                        let acts: Vec<_> = (0..len).map(|s| ACTS[(rot + s) % 4]).collect();
                        let layers = stack(&widths, &acts, prec, case as u64);
                        let chained = model(stack(&widths, &acts, prec, case as u64));
                        let mut ws = ForwardWorkspace::new();
                        for rows in [case % 71, (70 + 37 * case) % 71] {
                            rows_seen[rows] = true;
                            let x = input(rows, k, case as u64 ^ rows as u64);
                            let want = layer_by_layer(&layers, &x, prec);
                            for pool in &pools {
                                let got = with_pool(pool, || {
                                    ws.forward_at(&chained, &x, prec).unwrap().clone()
                                });
                                let threads = pool.workers() + 1;
                                let what = format!(
                                    "{prec} widths {widths:?} acts {acts:?} rows {rows}, \
                                     {threads} threads"
                                );
                                assert_same_bits(&got, &want, &what);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(rows_seen.iter().all(|&s| s), "every row count in 0..=70");
}

/// Runs longer than one chain holds, narrow runs broken by a wide layer,
/// an uncompiled layer (no chain) and a single narrow layer (its own GEMM
/// tiles): every partition gives the layer-by-layer bits.
#[test]
fn every_partition_of_a_model_gives_the_same_bits() {
    let relu = Some(Act::Relu);
    for widths in [
        vec![4usize, 8, 7, 6, 5, 4, 3, 2, 8, 8, 8, 1],
        vec![6, 8, 32, 4, 2, 1],
        vec![300, 8, 1],
        vec![3, 2],
    ] {
        let acts = vec![relu; widths.len() - 1];
        for prec in PRECS {
            let layers = stack(&widths, &acts, prec, 7);
            let x = input(37, widths[0], 11);
            let want = layer_by_layer(&layers, &x, prec);
            let mut ws = ForwardWorkspace::new();
            let got = ws.forward_at(&model(stack(&widths, &acts, prec, 7)), &x, prec);
            assert_same_bits(got.unwrap(), &want, &format!("{prec} {widths:?}"));
        }
    }
    // Uncompiled layers have no packed panels to chain; they pack per call.
    let build = |compiled: bool| {
        let mut rng = hpacml_nn::init::rng(3);
        let mut layers = vec![Linear::new(5, 8, &mut rng), Linear::new(8, 1, &mut rng)];
        if compiled {
            layers.iter_mut().for_each(|l| assert!(l.prepack()));
        }
        model(layers)
    };
    let x = input(40, 5, 2);
    let plain = ForwardWorkspace::new()
        .forward(&build(false), &x)
        .unwrap()
        .clone();
    let chained = ForwardWorkspace::new()
        .forward(&build(true), &x)
        .unwrap()
        .clone();
    assert_same_bits(&chained, &plain, "compiled against uncompiled");
}

/// A chain's intermediates never reach an arena: `reserve` sizes the arenas
/// for the input and the chain's output only, and the forward stays inside
/// them.
#[test]
fn chain_reserves_no_intermediates() {
    let m = model(stack(
        &[5, 8, 1],
        &[Some(Act::Relu), None],
        Precision::F32,
        5,
    ));
    let x = input(1000, 5, 3);
    let mut ws = ForwardWorkspace::new();
    // The input (5 000) is the widest; the 8 000-element hidden layer is not
    // materialized.
    assert_eq!(ws.reserve(&m, x.dims()).unwrap(), 5000);
    let reserved = ws.capacity_elems();
    ws.forward_at(&m, &x, Precision::F32).unwrap();
    assert_eq!(ws.capacity_elems(), reserved, "the forward grew an arena");
}

/// Same-process A/B on the stencil surrogate's shape: `[65536, 5]` through
/// Linear 5→8 + ReLU, Linear 8→1, one thread, alternating calls, p50 of 300
/// of each. Prints both times; asserts only that the bits agree.
#[test]
fn chain_against_layer_by_layer_same_process() {
    let (rows, calls) = if cfg!(debug_assertions) {
        (4096, 5)
    } else {
        (65536, 300)
    };
    let widths = [5usize, 8, 1];
    let acts = [Some(Act::Relu), None];
    let layers = stack(&widths, &acts, Precision::F32, 1);
    let chained = model(stack(&widths, &acts, Precision::F32, 1));
    let x = input(rows, 5, 9);
    let (mut h, mut y) = (Tensor::default(), Tensor::default());
    let mut ws = ForwardWorkspace::new();
    let (mut t_chain, mut t_layers) = (Vec::new(), Vec::new());
    with_pool(&Pool::new(0), || {
        for _ in 0..calls {
            let t = Instant::now();
            ws.forward_at(&chained, &x, Precision::F32).unwrap();
            t_chain.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            layers[0].forward_into(&x, &mut h, Precision::F32).unwrap();
            layers[1].forward_into(&h, &mut y, Precision::F32).unwrap();
            t_layers.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    let got = ws.forward_at(&chained, &x, Precision::F32).unwrap();
    assert_same_bits(got, &y, "[65536,5]·5-8-1");
    let p50 = |t: &mut Vec<f64>| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    };
    println!(
        "[{rows},5]·5-8-1, 1 thread, p50 of {calls}: chain {:.1} µs, layer by layer {:.1} µs",
        p50(&mut t_chain),
        p50(&mut t_layers)
    );
}
