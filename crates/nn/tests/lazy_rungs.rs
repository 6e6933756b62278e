//! A quantized `Linear` encodes its target's rung when it is quantized and
//! any finer reduced rung the first time that rung is served (an int8 model
//! holds f32 + int8, and encodes bf16 on its first demotion). These tests
//! pin what that must not change: a lazily encoded rung is the pack
//! `QPackedB::from_packed` encodes from the layer's panels, bit for bit;
//! threads that first serve it at once share one encode; rewriting the
//! weights leaves no rung of the old ones; a model never builds a rung it
//! does not serve.
//!
//! `first_bf16_forward_against_a_warm_one` prints what the first demotion
//! costs on the 64-4096-4096-1 MLP: run it in the release build with
//! `--nocapture --test-threads=1`. It asserts bits, not times.

use hpacml_nn::layer::ParamRef;
use hpacml_nn::serialize::{load_model, save_model, SavedModel};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::InferWorkspace;
use hpacml_par::{with_pool, Pool};
use hpacml_tensor::{Precision, QPackedB, Tensor};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

const REDUCED: [Precision; 2] = [Precision::Bf16, Precision::Int8];

fn saved(name: &str, spec: &ModelSpec, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-nn-lazy-rungs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    save_model(&path, spec, &spec.build(seed).unwrap(), None, None).unwrap();
    path
}

fn loaded_at(path: &PathBuf, prec: Precision) -> SavedModel {
    let mut m = load_model(path).unwrap();
    m.quantize(prec);
    m
}

/// A wide layer, then a narrow chain of two (`8` and `3` outputs), so the
/// rungs are served through both the GEMM tiles and `NarrowChain`.
fn spec() -> ModelSpec {
    ModelSpec::mlp(20, &[70, 8], 3, Activation::Tanh, 0.0)
}

fn input(rows: usize, k: usize) -> Tensor {
    Tensor::from_shape_fn([rows, k], |ix| {
        ((ix[0] * 7 + ix[1] * 3) % 17) as f32 * 0.11 - 0.9
    })
}

fn at(m: &SavedModel, x: &Tensor, prec: Precision) -> Vec<u32> {
    let mut ws = InferWorkspace::new();
    let y = m.infer_with_at(&mut ws, x, prec).unwrap();
    y.data().iter().map(|v| v.to_bits()).collect()
}

/// Each compiled `Linear`'s packs, in layer order.
fn packs(m: &SavedModel) -> Vec<ParamRef<'_>> {
    let params = m.model.params();
    let packs: Vec<_> = params
        .into_iter()
        .filter(|p| matches!(p, ParamRef::Packed(_)))
        .collect();
    assert!(!packs.is_empty(), "a model of compiled `Linear` layers");
    packs
}

fn held(p: ParamRef<'_>, prec: Precision) -> Option<&QPackedB> {
    let ParamRef::Packed(p) = p else {
        unreachable!("filtered to packs")
    };
    p.held(prec)
}

/// `got` is the pack `from_packed` encodes from `p`'s panels at `prec`.
fn assert_encoded_from_panels(p: ParamRef<'_>, got: &QPackedB, prec: Precision, what: &str) {
    let ParamRef::Packed(packs) = p else {
        unreachable!("filtered to packs")
    };
    let panels = packs.panels();
    let want = QPackedB::from_packed(panels, prec).unwrap();
    assert_eq!(got.packed_bytes(), want.packed_bytes(), "{what}");
    for j in 0..panels.n() {
        let (g, w) = (got.col_scale(j), want.col_scale(j));
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: scale {j}");
        for kk in 0..panels.k() {
            let (g, w) = (got.chain_weight(j, kk), want.chain_weight(j, kk));
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: ({j}, {kk})");
        }
    }
}

/// An int8 model holds no bf16 rung until it serves bf16; then each layer
/// holds exactly the pack `from_packed` encodes from its panels, and
/// serving int8 on the same model did not change.
#[test]
fn a_lazily_encoded_rung_equals_encoding_the_panels() {
    let path = saved("lazy.hml", &spec(), 1);
    let m = loaded_at(&path, Precision::Int8);
    let x = input(5, 20);
    for p in packs(&m) {
        assert!(held(p, Precision::Int8).is_some(), "target encoded");
        assert!(held(p, Precision::Bf16).is_none(), "bf16 not served yet");
    }
    let int8 = at(&m, &x, Precision::Int8);
    let bf16 = at(&m, &x, Precision::Bf16);
    for (l, p) in packs(&m).into_iter().enumerate() {
        for prec in REDUCED {
            let got = held(p, prec).expect("served, so held");
            assert_encoded_from_panels(p, got, prec, &format!("layer {l} {prec}"));
        }
    }
    assert_eq!(at(&m, &x, Precision::Int8), int8, "int8 kept its bits");
    assert_eq!(at(&m, &x, Precision::Bf16), bf16, "bf16 is served again");
}

/// Four threads serve bf16 for the first time on one shared int8 model at
/// once: the same outputs, the outputs of a model whose rung was encoded
/// alone, and one rung per layer.
#[test]
fn threads_first_serving_a_rung_at_once_share_one_encode() {
    let spec = ModelSpec::mlp(64, &[512, 384], 2, Activation::ReLU, 0.0);
    let path = saved("shared.hml", &spec, 2);
    let m = loaded_at(&path, Precision::Int8);
    let x = input(3, 64);
    let alone = at(&loaded_at(&path, Precision::Int8), &x, Precision::Bf16);
    let start = Barrier::new(4);
    let served: Vec<(Vec<u32>, Vec<&QPackedB>)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let y = at(&m, &x, Precision::Bf16);
                    let rungs = packs(&m).into_iter().map(|p| held(p, Precision::Bf16));
                    (y, rungs.map(|r| r.expect("served")).collect())
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (t, (y, rungs)) in served.iter().enumerate() {
        assert_eq!(y, &alone, "thread {t}");
        for (l, (r, first)) in rungs.iter().zip(&served[0].1).enumerate() {
            assert!(std::ptr::eq(*r, *first), "thread {t}, layer {l}: one rung");
        }
    }
}

/// Rewriting the weights after a lazy encode (`import_weights` visits the
/// parameters) leaves no rung of the old weights: every rung held is
/// encoded from the new panels, and every precision serves what a model
/// loaded with the new weights serves.
#[test]
fn visiting_params_after_a_lazy_encode_leaves_no_stale_rung() {
    let path = saved("visit.hml", &spec(), 3);
    let mut m = loaded_at(&path, Precision::Int8);
    let x = input(4, 20);
    at(&m, &x, Precision::Bf16);
    let doubled: Vec<Vec<f32>> = m
        .model
        .export_weights()
        .into_iter()
        .map(|w| w.into_iter().map(|v| v * 2.0).collect())
        .collect();
    m.model.import_weights(&doubled).unwrap();
    for (l, p) in packs(&m).into_iter().enumerate() {
        for prec in REDUCED {
            if let Some(got) = held(p, prec) {
                assert_encoded_from_panels(p, got, prec, &format!("layer {l} {prec}"));
            }
        }
    }
    let mut fresh = load_model(&path).unwrap();
    fresh.model.import_weights(&doubled).unwrap();
    fresh.quantize(Precision::Int8);
    for prec in [Precision::F32, Precision::Bf16, Precision::Int8] {
        assert_eq!(at(&m, &x, prec), at(&fresh, &x, prec), "{prec}");
    }
}

/// A bf16 model asked for int8 serves bf16 — the same pack — and never
/// builds an int8 rung.
#[test]
fn a_bf16_model_asked_for_int8_serves_bf16_and_builds_no_int8() {
    let path = saved("bf16.hml", &spec(), 4);
    let m = loaded_at(&path, Precision::Bf16);
    let x = input(6, 20);
    assert_eq!(at(&m, &x, Precision::Int8), at(&m, &x, Precision::Bf16));
    for p in packs(&m) {
        assert!(held(p, Precision::Int8).is_none(), "no int8 rung");
        let ParamRef::Packed(packs) = p else {
            unreachable!()
        };
        let (int8, bf16) = (packs.rung(Precision::Int8), packs.rung(Precision::Bf16));
        assert!(std::ptr::eq(int8.unwrap(), bf16.unwrap()));
    }
    // An int8 model retargeted to bf16 drops its int8 rung too.
    let mut m = loaded_at(&path, Precision::Int8);
    m.quantize(Precision::Bf16);
    assert!(packs(&m)
        .into_iter()
        .all(|p| held(p, Precision::Int8).is_none()));
}

/// An f32 model serves the f32 panels at every precision and builds no
/// reduced rung; asking it for one is a typed error.
#[test]
fn an_f32_model_builds_no_rung() {
    let path = saved("f32.hml", &spec(), 5);
    let m = load_model(&path).unwrap();
    let x = input(2, 20);
    let f32 = at(&m, &x, Precision::F32);
    for prec in REDUCED {
        assert_eq!(at(&m, &x, prec), f32, "{prec}");
    }
    for p in packs(&m) {
        let ParamRef::Packed(packs) = p else {
            unreachable!()
        };
        for prec in REDUCED {
            assert!(packs.held(prec).is_none(), "{prec}");
            assert!(packs.rung(prec).is_err(), "{prec}");
        }
    }
}

/// What the first demotion of `wide_b1_int8`'s model costs: on one thread,
/// the first bf16 forward of a batch-1 row through the int8-quantized
/// 64-4096-4096-1 MLP (which encodes each layer's bf16 rung) against a warm
/// bf16 forward and a warm int8 one. p50 over fresh rungs (re-quantizing
/// drops the bf16 rung) and over warm calls; the first forward's bits must
/// be the warm ones.
#[test]
fn first_bf16_forward_against_a_warm_one() {
    let (wide, rounds, calls) = if cfg!(debug_assertions) {
        (256, 1, 1)
    } else {
        (4096, 5, 9)
    };
    let spec = ModelSpec::mlp(64, &[wide, wide], 1, Activation::ReLU, 0.0);
    let path = saved("wide.hml", &spec, 6);
    let mut m = loaded_at(&path, Precision::Int8);
    let x = input(1, 64);
    let p50 = |mut t: Vec<f64>| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    };
    let serial = Pool::new(0);
    with_pool(&serial, || {
        let mut ws = InferWorkspace::new();
        let mut timed = |m: &SavedModel, prec| {
            let start = Instant::now();
            let y = m.infer_with_at(&mut ws, &x, prec).unwrap().data()[0];
            (start.elapsed().as_secs_f64() * 1e6, y.to_bits())
        };
        let (mut first, mut warm, mut int8) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..rounds {
            m.quantize(Precision::Int8);
            timed(&m, Precision::Int8);
            let (us, cold) = timed(&m, Precision::Bf16);
            first.push(us);
            for _ in 0..calls {
                let (us, y) = timed(&m, Precision::Bf16);
                assert_eq!(y, cold, "the first bf16 forward serves the warm bits");
                warm.push(us);
                int8.push(timed(&m, Precision::Int8).0);
            }
        }
        println!(
            "64-{wide}-{wide}-1, batch 1, 1 thread: first bf16 forward {:.0} µs \
             (p50 of {rounds}), warm bf16 {:.0} µs, warm int8 {:.0} µs (p50 of {})",
            p50(first),
            p50(warm),
            p50(int8),
            rounds * calls
        );
    });
    let _ = std::fs::remove_file(&path);
}
