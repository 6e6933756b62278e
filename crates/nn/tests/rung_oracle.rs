//! An exact whole-model oracle per serving rung. A model loaded through
//! `load_model` and quantized with `SavedModel::quantize` must give, through
//! `ForwardWorkspace::forward_at`, bit for bit what the documented chain
//! gives layer by layer: for each output element `acc = 0`, then
//! `acc + a * w` in ascending `k` over the weights the rung's chain
//! multiplies (`QPackedB::chain_weight`; the f32 weights themselves at f32),
//! then `acc * QPackedB::col_scale` at int8, then the bias, then the
//! activation. The reference reads nothing but public weights and those
//! accessors, so this pins that the model-level path — wide and ragged GEMM
//! tiles, the batch-1 row, a depth-first `NarrowChain` — serves exactly the
//! rungs `quantize` derives from the layers' f32 panels.

use hpacml_nn::serialize::{load_model, save_model};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::{ForwardWorkspace, SavedModel};
use hpacml_tensor::{Act, Precision, QPackedB, Tensor};
use std::path::PathBuf;

const PRECS: [Precision; 3] = [Precision::F32, Precision::Bf16, Precision::Int8];
const ROWS: [usize; 4] = [1, 3, 17, 40];

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-rung-oracle").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `spec` built from `seed`, saved, and loaded back (compiled at f32).
fn saved(dir: &str, spec: &ModelSpec, seed: u64) -> (PathBuf, SavedModel) {
    let path = tmpdir(dir).join("m.hml");
    save_model(&path, spec, &spec.build(seed).unwrap(), None, None).unwrap();
    let model = load_model(&path).unwrap();
    (path, model)
}

/// `path` loaded and quantized for `prec` (`F32`: as loaded).
fn loaded_at(path: &PathBuf, prec: Precision) -> SavedModel {
    let mut m = load_model(path).unwrap();
    m.quantize(prec);
    m
}

/// Inputs in `[-2, 2)`.
fn input(rows: usize, k: usize, seed: u64) -> Tensor {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Tensor::from_shape_fn([rows, k], |_| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
    })
}

/// The MLP `m` at `prec`, one layer at a time, one element at a time: each
/// `Linear` (weights `[n, k]`, then bias) is followed by `act` except the
/// last, as `ModelSpec::mlp` lays them out.
fn reference(m: &SavedModel, act: Act, x: &Tensor, prec: Precision) -> Vec<f32> {
    let params = m.model.export_weights();
    let layers = params.len() / 2;
    let rows = x.dims()[0];
    let mut cur = x.data().to_vec();
    for (l, wb) in params.chunks_exact(2).enumerate() {
        let bias = &wb[1][..];
        let (n, k) = (bias.len(), wb[0].len() / bias.len());
        let w = &Tensor::from_vec(wb[0].clone(), [n, k]).unwrap();
        let q = (prec != Precision::F32).then(|| QPackedB::from_transb(w, prec).unwrap());
        let mut next = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let weight = q
                        .as_ref()
                        .map_or(w.data()[j * k + kk], |q| q.chain_weight(j, kk));
                    acc += cur[i * k + kk] * weight;
                }
                if prec == Precision::Int8 {
                    acc *= q.as_ref().unwrap().col_scale(j);
                }
                acc += bias[j];
                if l + 1 < layers {
                    acc = act.apply(acc);
                }
                next[i * n + j] = acc;
            }
        }
        cur = next;
    }
    cur
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}");
}

fn check_every_rung(dir: &str, spec: &ModelSpec, act: Act, seed: u64) {
    let (path, _) = saved(dir, spec, seed);
    let in_dim = spec.input_shape.iter().product::<usize>();
    let mut ws = ForwardWorkspace::new();
    for prec in PRECS {
        let m = loaded_at(&path, prec);
        for rows in ROWS {
            let x = input(rows, in_dim, seed ^ rows as u64);
            let got = ws.forward_at(&m.model, &x, prec).unwrap();
            let want = reference(&m, act, &x, prec);
            assert_same_bits(got.data(), &want, &format!("{dir}: {prec}, {rows} rows"));
        }
    }
}

/// A wide first layer whose width is not a whole number of 16-lane panels
/// (100 = 6 panels + 4 lanes), then 36 and a 3-wide head.
#[test]
fn wide_ragged_mlp_equals_the_chain_oracle_at_every_rung() {
    let spec = ModelSpec::mlp(40, &[100, 36], 3, Activation::Tanh, 0.0);
    check_every_rung("wide-ragged", &spec, Act::Tanh, 11);
}

/// 24 → 48 → 8 → 6 → 1: the last three layers are narrow and run as one
/// depth-first `NarrowChain`.
#[test]
fn mlp_ending_in_a_narrow_chain_equals_the_chain_oracle_at_every_rung() {
    let spec = ModelSpec::mlp(24, &[48, 8, 6], 1, Activation::ReLU, 0.0);
    check_every_rung("narrow-chain", &spec, Act::Relu, 12);
}

/// Re-targeting rebuilds the rungs from the panels: int8 → bf16 drops the
/// int8 packs (an int8 request is then served at bf16), and → int8 again
/// builds packs that serve, at every rung, what a fresh load quantized for
/// int8 serves, bit for bit.
#[test]
fn retargeting_int8_bf16_int8_serves_what_a_fresh_load_serves() {
    let spec = ModelSpec::mlp(40, &[100, 36], 3, Activation::Tanh, 0.0);
    let (path, mut m) = saved("retarget", &spec, 13);
    let fresh = loaded_at(&path, Precision::Int8);
    let x = input(5, 40, 14);
    let mut ws = ForwardWorkspace::new();
    let mut at = |m: &SavedModel, prec| ws.forward_at(&m.model, &x, prec).unwrap().clone();

    m.quantize(Precision::Int8);
    m.quantize(Precision::Bf16);
    let bf16 = at(&m, Precision::Bf16);
    assert_same_bits(
        at(&m, Precision::Int8).data(),
        bf16.data(),
        "int8 after → bf16",
    );
    assert_same_bits(
        bf16.data(),
        &reference(&m, Act::Tanh, &x, Precision::Bf16),
        "bf16 after int8 → bf16",
    );
    m.quantize(Precision::Int8);
    for prec in PRECS {
        let what = format!("{prec} after int8 → bf16 → int8");
        assert_same_bits(at(&m, prec).data(), at(&fresh, prec).data(), &what);
    }
    let int8 = at(&m, Precision::Int8);
    assert_same_bits(
        int8.data(),
        &reference(&m, Act::Tanh, &x, Precision::Int8),
        "int8 after int8 → bf16 → int8",
    );
}
