//! The leading batch dimension is a pure stacking axis: a forward pass over
//! `n` samples must be **bit-identical** to the `n` per-sample forward
//! passes concatenated, for every layer kind (Linear, Conv2d, MaxPool2d,
//! activations, Flatten) and for end-to-end `SavedModel` inference with
//! normalizers. This is the invariant that lets the runtime coalesce many
//! region invocations into one forward pass without changing any result.

use hpacml_nn::spec::{Activation, LayerSpec, ModelSpec};
use hpacml_nn::{ForwardWorkspace, InferWorkspace};
use hpacml_tensor::Tensor;

fn batched_matches_per_sample(spec: &ModelSpec, n: usize, seed: u64) {
    let model = spec.build(seed).unwrap();
    let per_sample: usize = spec.input_shape.iter().product();
    let data: Vec<f32> = (0..n * per_sample)
        .map(|k| ((k * 37 + 11) % 101) as f32 * 0.013 - 0.5)
        .collect();

    let mut batched_dims = vec![n];
    batched_dims.extend_from_slice(&spec.input_shape);
    let xb = Tensor::from_vec(data.clone(), batched_dims).unwrap();
    let yb = model.forward(&xb).unwrap();

    let mut sample_dims = vec![1];
    sample_dims.extend_from_slice(&spec.input_shape);
    let out_per = yb.numel() / n;
    for i in 0..n {
        let xi = Tensor::from_vec(
            data[i * per_sample..(i + 1) * per_sample].to_vec(),
            sample_dims.clone(),
        )
        .unwrap();
        let yi = model.forward(&xi).unwrap();
        assert_eq!(yi.numel(), out_per);
        assert_eq!(
            &yb.data()[i * out_per..(i + 1) * out_per],
            yi.data(),
            "sample {i} differs between batched and per-sample forward"
        );
    }
}

#[test]
fn mlp_batch_is_stacked_per_sample_bitwise() {
    let spec = ModelSpec::mlp(6, &[32, 16], 2, Activation::Tanh, 0.0);
    batched_matches_per_sample(&spec, 7, 3);
}

#[test]
fn cnn_batch_is_stacked_per_sample_bitwise() {
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
    batched_matches_per_sample(&spec, 5, 9);
}

/// Reserving the workspace for the largest batch keeps arena capacity flat
/// for every smaller batch — the max_batch sizing contract sessions rely on.
#[test]
fn reserve_for_max_batch_serves_smaller_batches_without_growth() {
    let spec = ModelSpec::mlp(4, &[64, 32], 1, Activation::ReLU, 0.0);
    let model = spec.build(1).unwrap();
    let max_batch = 64usize;

    let mut ws = ForwardWorkspace::new();
    ws.reserve(&model, &[max_batch, 4]).unwrap();
    let reserved = ws.capacity_elems();
    assert!(reserved.0 >= max_batch * 64 && reserved.1 >= max_batch * 64);

    for n in [1usize, 3, 17, 64] {
        let x = Tensor::full([n, 4], 0.25f32);
        let y = ws.forward(&model, &x).unwrap();
        assert_eq!(y.dims(), &[n, 1]);
        assert_eq!(
            ws.capacity_elems(),
            reserved,
            "batch {n} must not grow the reserved arenas"
        );
    }
}

/// End-to-end SavedModel inference (normalize → forward → denormalize) keeps
/// the batched/per-sample equivalence, through a reserved workspace.
#[test]
fn saved_model_infer_batches_bitwise_through_reserved_workspace() {
    let dir = std::env::temp_dir().join("hpacml-nn-batched");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batched.hml");

    let spec = ModelSpec::mlp(3, &[16], 2, Activation::Tanh, 0.0);
    let model = spec.build(5).unwrap();
    let fit = Tensor::from_shape_fn([32, 3], |ix| (ix[0] as f32 - ix[1] as f32) * 0.21);
    let in_norm = hpacml_nn::Normalizer::fit(&fit, hpacml_nn::data::NormAxis::PerFeature).unwrap();
    hpacml_nn::serialize::save_model(&path, &spec, &model, Some(&in_norm), None).unwrap();
    let saved = hpacml_nn::serialize::load_model(&path).unwrap();

    let n = 9usize;
    let data: Vec<f32> = (0..n * 3).map(|k| (k as f32).sin()).collect();
    let mut ws = InferWorkspace::new();
    saved.reserve_workspace(&mut ws, &[n, 3]).unwrap();
    let xb = Tensor::from_vec(data.clone(), [n, 3]).unwrap();
    let yb = saved.infer_with(&mut ws, &xb).unwrap().clone();

    for i in 0..n {
        let xi = Tensor::from_vec(data[i * 3..(i + 1) * 3].to_vec(), [1, 3]).unwrap();
        let yi = saved.infer(&xi).unwrap();
        assert_eq!(&yb.data()[i * 2..(i + 1) * 2], yi.data(), "sample {i}");
    }
}
