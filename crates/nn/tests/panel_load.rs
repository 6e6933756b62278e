//! A loaded `Linear` holds its weights once, as the packed panels the
//! kernels read: `load_model` decodes each `Weights` frame straight into
//! them. Over random layer shapes — widths of at most one 16-lane panel,
//! ragged last panels, one-input layers, and a layer whose frames end
//! mid-row — the loaded model must be exactly what packing the built model
//! gives: the same panels bit for bit, the same rows read back, the same
//! reduced-precision rungs, the same file when it is saved again. And a
//! loaded layer refuses training, with or without a fused activation.

use hpacml_nn::layer::ParamRef;
use hpacml_nn::serialize::{load_model, save_model, SavedModel};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::NnError;
use hpacml_tensor::{PackedB, Precision, QPackedB, Tensor};
use proptest::prelude::*;
use std::path::PathBuf;

/// Values per `Weights` frame in an `.hml` file.
const FRAME_ELEMS: usize = 1 << 18;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-nn-panel-load");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every chain weight and column scale of `got` equals `want`'s, bit for bit.
fn same_rung(got: &QPackedB, want: &QPackedB, (n, k): (usize, usize), what: &str) {
    assert_eq!(got.packed_bytes(), want.packed_bytes(), "{what}");
    for j in 0..n {
        assert_eq!(
            got.col_scale(j).to_bits(),
            want.col_scale(j).to_bits(),
            "{what}"
        );
        for kk in 0..k {
            let (g, w) = (got.chain_weight(j, kk), want.chain_weight(j, kk));
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: ({j}, {kk})");
        }
    }
}

/// Save `spec` built from `seed`, load it back, and check the loaded model
/// against the built one.
fn check(spec: &ModelSpec, seed: u64, tag: &str) {
    let built = spec.build(seed).unwrap();
    let rows = built.export_weights();
    let path = tmp(&format!("{tag}.hml"));
    save_model(&path, spec, &built, None, None).unwrap();
    let file = std::fs::read(&path).unwrap();
    let mut loaded: SavedModel = load_model(&path).unwrap();

    // Each weight matrix is panels, equal to packing the built rows.
    let dims: Vec<(usize, usize)> = rows
        .chunks_exact(2)
        .map(|wb| (wb[1].len(), wb[0].len() / wb[1].len()))
        .collect();
    let params = loaded.model.params();
    assert_eq!(params.len(), rows.len(), "{tag}");
    for (l, &(n, k)) in dims.iter().enumerate() {
        let ParamRef::Packed(packs) = params[2 * l] else {
            panic!("{tag}: layer {l}'s weights are not panels")
        };
        let w = Tensor::from_vec(rows[2 * l].clone(), [n, k]).unwrap();
        let want = PackedB::from_transb(&w).unwrap();
        assert_eq!(
            bits(packs.panels().panel_data()),
            bits(want.panel_data()),
            "{tag}: layer {l} [{n}, {k}]"
        );
        assert!(matches!(params[2 * l + 1], ParamRef::Rows(_)), "{tag}");
    }

    // The rows read back, and the file saved again, are the originals.
    let again: Vec<Vec<u32>> = loaded
        .model
        .export_weights()
        .iter()
        .map(|v| bits(v))
        .collect();
    let want: Vec<Vec<u32>> = rows.iter().map(|v| bits(v)).collect();
    assert_eq!(again, want, "{tag}: export_weights");
    let resaved = tmp(&format!("{tag}-again.hml"));
    save_model(&resaved, &loaded.spec, &loaded.model, None, None).unwrap();
    assert!(
        std::fs::read(&resaved).unwrap() == file,
        "{tag}: re-saved bytes"
    );

    // Training a loaded model is the typed refusal, not a silent update.
    let x = Tensor::full([2, spec.input_shape[0]], 0.5f32);
    assert!(
        matches!(
            loaded.model.forward_train(&x),
            Err(NnError::Train(msg)) if msg.contains("compiled for inference")
        ),
        "{tag}: forward_train"
    );

    // The reduced rungs are the ones `from_transb` encodes from the rows.
    loaded.quantize(Precision::Int8);
    for (l, &(n, k)) in dims.iter().enumerate() {
        let ParamRef::Packed(packs) = loaded.model.params()[2 * l] else {
            panic!("{tag}: layer {l}'s weights are not panels")
        };
        let w = Tensor::from_vec(rows[2 * l].clone(), [n, k]).unwrap();
        for prec in [Precision::Bf16, Precision::Int8] {
            let want = QPackedB::from_transb(&w, prec).unwrap();
            let got = packs.rung(prec).expect("quantized for int8");
            same_rung(got, &want, (n, k), &format!("{tag}: layer {l} {prec}"));
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&resaved);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `[n, k]` then `[1, n]`: the first layer carries a fused activation
    /// (refused for it), a lone layer has none (refused for packed weights).
    #[test]
    fn loaded_panels_equal_packing_the_built_rows(
        (n, k) in (1usize..41, 1usize..41),
        seed in 0u64..1000,
        tag in 0u32..1_000_000,
    ) {
        let fused = ModelSpec::mlp(k, &[n], 1, Activation::Tanh, 0.0);
        check(&fused, seed, &format!("fused-{tag}"));
        let lone = ModelSpec::mlp(k, &[], n, Activation::ReLU, 0.0);
        check(&lone, seed, &format!("lone-{tag}"));
    }
}

/// The shapes the property must not miss: one input, at most one panel of
/// outputs, and layers whose second frame starts mid-row (`FRAME_ELEMS` is
/// not a multiple of `k`).
#[test]
fn edge_shapes_and_frames_that_end_mid_row_load_as_packing_gives() {
    for (n, k) in [
        (1usize, 1usize),
        (8, 1),
        (16, 1),
        (17, 3),
        (300, 1000),
        (87_382, 3),
    ] {
        if n * k > FRAME_ELEMS {
            assert_ne!(FRAME_ELEMS % k, 0, "[{n}, {k}] splits at a row boundary");
        }
        let lone = ModelSpec::mlp(k, &[], n, Activation::ReLU, 0.0);
        check(&lone, 7, &format!("edge-{n}x{k}"));
    }
}
