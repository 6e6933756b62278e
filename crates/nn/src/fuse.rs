//! The inference compile pass: layer fusion + weight pre-packing.
//!
//! A deployed surrogate is immutable — same weights, millions of forward
//! passes — so anything per-forward that a one-time pass can precompute is
//! pure waste on the hot path. [`compile_for_inference`] rewrites a
//! [`Sequential`] in three steps:
//!
//! 1. **drop inference identities** — `Dropout` is a no-op outside
//!    training but still costs a full activation copy per forward;
//! 2. **fuse activations** — `Linear→{ReLU,Tanh,Sigmoid}` and
//!    `Conv2d→{ReLU,Tanh,Sigmoid}` pairs collapse into the compute layer,
//!    whose GEMM epilogue then applies bias *and* activation to each
//!    output tile while it is register/L1-hot (two full-tensor memory
//!    sweeps deleted per pair);
//! 3. **pre-pack weights** — `Linear` packs `Wᵀ` into
//!    [`PackedB`](hpacml_tensor::gemm::PackedB) column panels, so the
//!    steady-state kernels never repack. (`Conv2d` has nothing to pack: its
//!    `[filters, c*kh*kw]` weights are the GEMM's row-major `A` operand as
//!    stored.)
//!
//! The pass is **semantics-preserving at the bit level** for inference:
//! every fused/packed kernel accumulates in the same ascending-`k` order
//! and applies the same bias/activation expressions as the unfused stack
//! (see the determinism notes on [`hpacml_tensor::gemm`]). It is applied
//! automatically by [`crate::serialize::load_model`]; a compiled model is
//! inference-only (its backward pass no longer sees the removed layers).

use crate::model::Sequential;
use hpacml_tensor::quant::Precision;

/// What [`compile_for_inference`] did to a model — surfaced so runtimes
/// and benches can attribute their speedups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// lint: allow(crate-local-pub) — returned by `compile_for_inference` and `SavedModel::compile`, whose callers do not name it
pub struct CompileInfo {
    /// Inference-identity layers (Dropout) removed.
    pub removed_identity: usize,
    /// Activation layers folded into the preceding compute layer's epilogue.
    pub fused_activations: usize,
    /// Layers whose weights were pre-packed into panel layouts.
    pub packed_layers: usize,
    /// Layers that built reduced-precision packs (quantize stage).
    pub quantized_layers: usize,
}

/// Per-layer weight precision for the compile pass's quantization stage.
///
/// `target` is the *coarsest* rung the model will serve at; the stage
/// builds that pack plus every finer one (int8 target also builds bf16)
/// so the online-validation demotion ladder int8 → bf16 → f32 moves by a
/// pointer swap, never a repack. Accumulation is always f32 — the policy
/// only changes how many bytes per weight the forward pass streams.
///
/// `max_calib_rows` bounds how many collected input rows the runtime
/// reads from the region db to score the quantized model against the f32
/// one before it serves (`Region::set_precision_policy` in
/// `hpacml-core`); `0` skips calibration scoring entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecisionPolicy {
    /// Coarsest precision to serve at (the ladder's starting rung).
    pub target: Precision,
    /// Calibration-row budget for db-driven scoring (0 = skip).
    pub max_calib_rows: usize,
}

impl Default for PrecisionPolicy {
    fn default() -> Self {
        PrecisionPolicy {
            target: Precision::F32,
            max_calib_rows: 256,
        }
    }
}

impl PrecisionPolicy {
    /// Policy targeting an arbitrary precision (the parametric form of
    /// [`f32`](Self::f32)/[`bf16`](Self::bf16)/[`int8`](Self::int8)).
    pub fn at(target: Precision) -> Self {
        PrecisionPolicy {
            target,
            ..Default::default()
        }
    }

    /// Full-precision policy — compile behaves exactly as before.
    pub fn f32() -> Self {
        PrecisionPolicy {
            target: Precision::F32,
            ..Default::default()
        }
    }

    /// Serve bf16 weights (2x weight bandwidth).
    pub fn bf16() -> Self {
        PrecisionPolicy {
            target: Precision::Bf16,
            ..Default::default()
        }
    }

    /// Serve int8 weights (4x weight bandwidth), bf16 + f32 rungs ready.
    pub fn int8() -> Self {
        PrecisionPolicy {
            target: Precision::Int8,
            ..Default::default()
        }
    }

    /// Bound the calibration rows read from the region db (0 = skip).
    pub fn with_max_calib_rows(mut self, rows: usize) -> Self {
        self.max_calib_rows = rows;
        self
    }
}

/// Compile a model for inference: drop identities, fuse activations into
/// GEMM epilogues, pre-pack weights. Idempotent; returns what changed.
pub fn compile_for_inference(model: &mut Sequential) -> CompileInfo {
    let mut info = CompileInfo::default();
    let layers = model.layers_mut();

    let before = layers.len();
    layers.retain(|l| !l.inference_identity());
    info.removed_identity = before - layers.len();

    let mut i = 0;
    while i < layers.len() {
        if i + 1 < layers.len() {
            if let Some(act) = layers[i + 1].as_activation() {
                if layers[i].fuse_activation(act) {
                    layers.remove(i + 1);
                    info.fused_activations += 1;
                }
            }
        }
        i += 1;
    }

    for l in layers.iter_mut() {
        if l.prepack() {
            info.packed_layers += 1;
        }
    }
    info
}

/// [`compile_for_inference`] plus a quantization stage: after fusing and
/// packing, each layer that supports reduced precision builds packs for
/// `policy.target` and every finer ladder rung. With an `F32` target this
/// is exactly `compile_for_inference`.
pub(crate) fn compile_for_inference_with(
    model: &mut Sequential,
    policy: &PrecisionPolicy,
) -> CompileInfo {
    let mut info = compile_for_inference(model);
    if policy.target != Precision::F32 {
        for l in model.layers_mut().iter_mut() {
            if l.quantize(policy.target) {
                info.quantized_layers += 1;
            }
        }
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Activation, LayerSpec, ModelSpec};
    use hpacml_tensor::Tensor;

    #[test]
    fn mlp_fuses_and_matches_uncompiled_bitwise() {
        let spec = ModelSpec::mlp(6, &[32, 16], 2, Activation::Tanh, 0.25);
        let reference = spec.build(7).unwrap();
        let mut compiled = spec.build(7).unwrap();
        let info = compile_for_inference(&mut compiled);
        // 2 dropouts removed, 2 tanh fused, 3 linears packed.
        assert_eq!(info.removed_identity, 2);
        assert_eq!(info.fused_activations, 2);
        assert_eq!(info.packed_layers, 3);
        assert_eq!(compiled.layer_names(), vec!["linear", "linear", "linear"]);

        let x = Tensor::from_shape_fn([9, 6], |ix| (ix[0] as f32 - ix[1] as f32) * 0.17);
        let a = reference.forward(&x).unwrap();
        let b = compiled.forward(&x).unwrap();
        assert_eq!(a.data(), b.data(), "compilation must not change results");
    }

    #[test]
    fn cnn_fuses_conv_activation_and_matches() {
        let spec = ModelSpec::new(
            vec![2, 8, 8],
            vec![
                LayerSpec::Conv2d {
                    in_ch: 2,
                    out_ch: 3,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::ReLU,
                LayerSpec::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    in_features: 3 * 4 * 4,
                    out_features: 2,
                },
                LayerSpec::Sigmoid,
            ],
        );
        let reference = spec.build(3).unwrap();
        let mut compiled = spec.build(3).unwrap();
        let info = compile_for_inference(&mut compiled);
        assert_eq!(info.fused_activations, 2);
        // The linear head; the conv reads its weights in place.
        assert_eq!(info.packed_layers, 1);
        assert_eq!(
            compiled.layer_names(),
            vec!["conv2d", "maxpool2d", "flatten", "linear"]
        );
        let x = Tensor::from_shape_fn([3, 2, 8, 8], |ix| (ix[2] * 8 + ix[3]) as f32 * 0.013 - 0.4);
        assert_eq!(
            reference.forward(&x).unwrap().data(),
            compiled.forward(&x).unwrap().data()
        );
    }

    #[test]
    fn double_activation_fuses_only_once() {
        let spec = ModelSpec::new(
            vec![4],
            vec![
                LayerSpec::Linear {
                    in_features: 4,
                    out_features: 4,
                },
                LayerSpec::ReLU,
                LayerSpec::Tanh,
            ],
        );
        let reference = spec.build(1).unwrap();
        let mut compiled = spec.build(1).unwrap();
        let info = compile_for_inference(&mut compiled);
        assert_eq!(info.fused_activations, 1);
        assert_eq!(compiled.layer_names(), vec!["linear", "tanh"]);
        let x = Tensor::from_shape_fn([5, 4], |ix| ix[1] as f32 * 0.3 - 0.5);
        assert_eq!(
            reference.forward(&x).unwrap().data(),
            compiled.forward(&x).unwrap().data()
        );
    }

    #[test]
    fn compiled_layers_refuse_training() {
        // The fusion pass removed the activation layer; training a fused
        // layer would silently skip its gradient — it must error instead.
        let spec = ModelSpec::mlp(4, &[8], 1, Activation::ReLU, 0.0);
        let mut m = spec.build(4).unwrap();
        compile_for_inference(&mut m);
        let x = Tensor::full([2, 4], 0.5f32);
        assert!(matches!(
            m.forward_train(&x),
            Err(crate::NnError::Train(msg)) if msg.contains("compiled for inference")
        ));
    }

    #[test]
    fn visiting_params_refreshes_packs() {
        // Mutating weights through visit_params (import_weights, snapshot
        // restores) must not leave forwards reading stale panels — and a
        // read-only one (export_weights goes through `params`) leaves the
        // packed steady state alone.
        let spec = ModelSpec::mlp(3, &[6], 1, Activation::ReLU, 0.0);
        let mut m = spec.build(9).unwrap();
        compile_for_inference(&mut m);
        let x = Tensor::full([4, 3], 0.25f32);
        let before = m.forward(&x).unwrap();
        m.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v *= 2.0;
            }
        });
        let after = m.forward(&x).unwrap();
        assert_ne!(
            before.data(),
            after.data(),
            "forward must see the mutated weights, not stale packed panels"
        );
        // A read-only visit keeps the packs.
        let _ = m.export_weights();
        let again = m.forward(&x).unwrap();
        assert_eq!(after.data(), again.data());
    }

    #[test]
    fn quantize_stage_builds_ladder_packs() {
        let spec = ModelSpec::mlp(6, &[32, 16], 2, Activation::Tanh, 0.25);
        // int8 target: every Linear gets int8 + bf16 rungs.
        let mut m = spec.build(7).unwrap();
        let info = compile_for_inference_with(&mut m, &PrecisionPolicy::int8());
        assert_eq!(info.quantized_layers, 3);
        assert_eq!(info.packed_layers, 3);
        // f32 target is exactly the plain pass.
        let mut m3 = spec.build(7).unwrap();
        let info3 = compile_for_inference_with(&mut m3, &PrecisionPolicy::f32());
        assert_eq!(info3.quantized_layers, 0);
        assert_eq!(compile_for_inference(&mut spec.build(7).unwrap()), info3);
    }

    #[test]
    fn quantized_forward_tracks_f32_and_honors_the_ladder() {
        use hpacml_tensor::quant::Precision;
        let spec = ModelSpec::mlp(6, &[32, 16], 2, Activation::Tanh, 0.0);
        let mut m = spec.build(11).unwrap();
        compile_for_inference_with(&mut m, &PrecisionPolicy::int8());
        let x = Tensor::from_shape_fn([9, 6], |ix| (ix[0] as f32 - ix[1] as f32) * 0.17);
        let mut ws = crate::ForwardWorkspace::new();
        let f32_y = ws.forward_at(&m, &x, Precision::F32).unwrap().clone();
        let bf16_y = ws.forward_at(&m, &x, Precision::Bf16).unwrap().clone();
        let int8_y = ws.forward_at(&m, &x, Precision::Int8).unwrap().clone();
        // Quantized serving approximates f32 — close, not equal.
        for ((q, b), f) in int8_y.data().iter().zip(bf16_y.data()).zip(f32_y.data()) {
            assert!((q - f).abs() < 0.1, "int8 drifted: {q} vs {f}");
            assert!((b - f).abs() < 0.05, "bf16 drifted: {b} vs {f}");
        }
        // F32 serving of a quantized model is the plain compiled forward.
        assert_eq!(f32_y.data(), m.forward(&x).unwrap().data());

        // A bf16-target model asked for int8 serves its coarsest rung —
        // bf16 — bit for bit (the ladder fallthrough rule).
        let mut mb = spec.build(11).unwrap();
        compile_for_inference_with(&mut mb, &PrecisionPolicy::bf16());
        let bf16_only = ws.forward_at(&mb, &x, Precision::Int8).unwrap().clone();
        assert_eq!(bf16_only.data(), bf16_y.data());
    }

    /// `Linear::from_params` does not check its bias against its weight.
    /// The mistake must surface as the same typed error whichever kernel
    /// serves the layer — pack-on-the-fly, pre-packed, or a quantized rung
    /// — never as a panic on a serving thread.
    #[test]
    fn mis_sized_linear_bias_is_an_error_at_every_rung() {
        use crate::layer::Linear;
        let w = Tensor::from_shape_fn([4, 3], |ix| (ix[0] + ix[1]) as f32 * 0.1);
        let layer = Linear::from_params(w, Tensor::full([5], 0.5f32));
        let mut m = Sequential::new(vec![Box::new(layer)]);
        let x = Tensor::full([8, 3], 0.25f32);
        assert!(m.forward(&x).is_err(), "uncompiled");
        compile_for_inference_with(&mut m, &PrecisionPolicy::int8());
        let mut ws = crate::ForwardWorkspace::new();
        for prec in [Precision::F32, Precision::Bf16, Precision::Int8] {
            assert!(ws.forward_at(&m, &x, prec).is_err(), "compiled, {prec}");
        }
    }

    #[test]
    fn visiting_params_refreshes_quantized_packs() {
        use hpacml_tensor::quant::Precision;
        let spec = ModelSpec::mlp(3, &[6], 1, Activation::ReLU, 0.0);
        let mut m = spec.build(9).unwrap();
        compile_for_inference_with(&mut m, &PrecisionPolicy::int8());
        let x = Tensor::full([4, 3], 0.25f32);
        let mut ws = crate::ForwardWorkspace::new();
        let before = ws.forward_at(&m, &x, Precision::Int8).unwrap().clone();
        m.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v *= 2.0;
            }
        });
        let after = ws.forward_at(&m, &x, Precision::Int8).unwrap().clone();
        assert_ne!(
            before.data(),
            after.data(),
            "quantized forward must see the mutated weights, not stale panels"
        );
        // And the refreshed pack is the same as packing the new weights.
        let mut fresh = spec.build(9).unwrap();
        fresh.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v *= 2.0;
            }
        });
        compile_for_inference_with(&mut fresh, &PrecisionPolicy::int8());
        let want = ws.forward_at(&fresh, &x, Precision::Int8).unwrap().clone();
        assert_eq!(after.data(), want.data());
    }

    #[test]
    fn compile_is_idempotent() {
        let spec = ModelSpec::mlp(3, &[8], 1, Activation::ReLU, 0.1);
        let mut m = spec.build(2).unwrap();
        let first = compile_for_inference(&mut m);
        assert_eq!(first.fused_activations, 1);
        let second = compile_for_inference(&mut m);
        assert_eq!(second.removed_identity, 0);
        assert_eq!(second.fused_activations, 0);
        // Re-packing is harmless (same panels recomputed).
        assert_eq!(second.packed_layers, first.packed_layers);
    }
}
