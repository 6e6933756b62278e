//! Property-based tests for the NN engine: serialization fidelity and
//! architecture invariants over randomly generated specs.

use hpacml_nn::data::{NormAxis, Normalizer};
use hpacml_nn::serialize::{load_model, save_model};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_tensor::Tensor;
use proptest::prelude::*;

fn mlp_spec() -> impl Strategy<Value = ModelSpec> {
    (
        1usize..8,                                   // input dim
        proptest::collection::vec(1usize..24, 0..3), // hidden widths
        1usize..4,                                   // output dim
        0u8..3,                                      // activation
        0u32..80,                                    // dropout percent
    )
        .prop_map(|(inp, hidden, out, act, dp)| {
            let act = match act {
                0 => Activation::ReLU,
                1 => Activation::Tanh,
                _ => Activation::Sigmoid,
            };
            ModelSpec::mlp(inp, &hidden, out, act, dp as f32 / 100.0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Saving and loading a model must preserve its forward function exactly
    /// (bit-for-bit: weights are stored losslessly).
    #[test]
    fn hml_roundtrip_preserves_forward(spec in mlp_spec(), seed in 0u64..1000, tag in 0u32..1_000_000) {
        let model = spec.build(seed).unwrap();
        let input_dim = spec.input_shape[0];
        let x = Tensor::from_shape_fn([3, input_dim], |ix| {
            ((ix[0] * 7 + ix[1] * 3) % 11) as f32 * 0.17 - 0.8
        });
        let before = model.forward(&x).unwrap();

        let dir = std::env::temp_dir().join("hpacml-nn-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("m{tag}.hml"));
        save_model(&path, &spec, &model, None, None).unwrap();
        let loaded = load_model(&path).unwrap();
        prop_assert_eq!(loaded.spec, spec.clone());
        let after = loaded.model.forward(&x).unwrap();
        prop_assert_eq!(before.data(), after.data());
        let _ = std::fs::remove_file(&path);
    }

    /// Parameter counts computed from the spec must match the built model,
    /// and shape inference must match actual forward shapes.
    #[test]
    fn spec_metadata_matches_reality(spec in mlp_spec(), seed in 0u64..1000) {
        let model = spec.build(seed).unwrap();
        prop_assert_eq!(model.param_count(), spec.param_count());
        let out_shape = spec.output_shape().unwrap();
        let x = Tensor::zeros([2, spec.input_shape[0]]);
        let y = model.forward(&x).unwrap();
        prop_assert_eq!(y.dims()[0], 2);
        prop_assert_eq!(&y.dims()[1..], out_shape.as_slice());
    }

    /// Normalizer transform/inverse roundtrip over random data.
    #[test]
    fn normalizer_roundtrips(
        rows in 2usize..20,
        cols in 1usize..6,
        scale in 1.0f32..1000.0,
    ) {
        let x = Tensor::from_shape_fn([rows, cols], |ix| {
            ((ix[0] * 31 + ix[1] * 17) % 23) as f32 * scale - scale
        });
        let norm = Normalizer::fit(&x, NormAxis::PerFeature).unwrap();
        let t = norm.transform(&x);
        let back = norm.inverse(&t);
        let err = back.max_abs_diff(&x).unwrap();
        prop_assert!(err < scale as f64 * 1e-3, "roundtrip error {err}");
    }

    /// Training must strictly reduce loss on a trivially learnable problem
    /// regardless of the seed.
    #[test]
    fn one_linear_step_reduces_loss(seed in 0u64..200) {
        use hpacml_nn::layer::Linear;
        use hpacml_nn::loss::Loss;
        use hpacml_nn::optim::{OptimState, Optimizer};
        use hpacml_nn::Sequential;

        let mut model = Sequential::new(vec![Box::new(Linear::new(
            2,
            1,
            &mut hpacml_nn::init::rng(seed),
        ))]);
        let x = Tensor::from_vec(vec![0.5, -0.3, -0.2, 0.8, 0.1, 0.4, -0.6, -0.9], [4, 2]).unwrap();
        let y = Tensor::from_vec(vec![1.0, -1.0, 0.5, -0.5], [4, 1]).unwrap();
        let mut st = OptimState::new(Optimizer::sgd(0.05, 0.0, 0.0));
        let mut losses = Vec::new();
        for _ in 0..8 {
            model.zero_grad();
            let pred = model.forward_train(&x).unwrap();
            let (l, dl) = Loss::Mse.eval(&pred, &y).unwrap();
            model.backward(&dl).unwrap();
            st.step(&mut model);
            losses.push(l);
        }
        prop_assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }
}
