//! Online validation, reduced-precision serving and the demotion ladder,
//! end to end: a surrogate quantized to int8 serves a deployed region;
//! when the inputs drift off the training distribution the runtime's
//! shadow validation walks the precision ladder (int8 → bf16 → f32) one
//! rung per window before disabling the surrogate outright and falling
//! back to the original host code bit for bit — and when the inputs
//! return to the trained regime it re-enables on the finest rung and
//! promotes back down to the int8 target.
//!
//! ```sh
//! cargo run --release --example validated_inference
//! ```

use hpac_ml::core::{ErrorMetric, PathTaken, Precision, PrecisionPolicy, Region, ValidationPolicy};
use hpac_ml::directive::sema::Bindings;
use hpac_ml::nn::spec::{Activation, ModelSpec};

/// The "application": y = sin(a) + cos(b) per sample, vectorized.
fn host_kernel(xs: &[f32], ys: &mut [f32]) {
    for (x, y) in xs.chunks_exact(2).zip(ys.iter_mut()) {
        *y = x[0].sin() + x[1].cos();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("hpacml-validated-inference");
    std::fs::create_dir_all(&dir)?;
    let model_path = dir.join("surrogate.hml");

    // Train a tiny MLP surrogate of the kernel on [-1, 1]^2.
    println!("training the surrogate on [-1, 1]^2 ...");
    {
        use hpac_ml::nn::{InMemoryDataset, Normalizer, TrainConfig};
        use hpac_ml::tensor::Tensor;
        let samples = 2048usize;
        let mut seed = 9u64;
        let mut unit = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let xs: Vec<f32> = (0..samples * 2).map(|_| unit()).collect();
        let mut ys = vec![0.0f32; samples];
        host_kernel(&xs, &mut ys);
        let x = Tensor::from_vec(xs, [samples, 2])?;
        let y = Tensor::from_vec(ys, [samples, 1])?;
        let spec = ModelSpec::mlp(2, &[32, 16], 1, Activation::Tanh, 0.0);
        let mut model = spec.build(3)?;
        let in_norm = Normalizer::fit(&x, hpac_ml::nn::data::NormAxis::PerFeature)?;
        let out_norm = Normalizer::fit(&y, hpac_ml::nn::data::NormAxis::PerFeature)?;
        let ds = InMemoryDataset::new(in_norm.transform(&x), out_norm.transform(&y))?;
        hpac_ml::nn::train(
            &mut model,
            &ds,
            None,
            &TrainConfig {
                epochs: 60,
                batch_size: 128,
                seed: 5,
                ..Default::default()
            },
        )?;
        hpac_ml::nn::serialize::save_model(
            &model_path,
            &spec,
            &model,
            Some(&in_norm),
            Some(&out_norm),
        )?;
    }

    // Deploy it behind an annotated region. The precision policy quantizes
    // the model's weights to int8 (per-output-channel symmetric scales,
    // f32 accumulation); the bf16 rung is encoded when the first demotion
    // serves it. The validation policy then shadow-validates every 2nd
    // invocation under RMSE, budget 0.5 (between the model's
    // in-distribution error ~0.16 and its drifted error ~1.2), window 2.
    // Because a precision target is attached, the controller demotes
    // through int8 → bf16 → f32 before any disable.
    let region = Region::from_source(
        "kernel",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")
            "#,
            model_path.display()
        ),
    )?;
    let report = region.set_precision_policy(&PrecisionPolicy::int8())?;
    println!(
        "quantized {} layers to {} (no region db attached: {} calibration rows)",
        report.quantized_layers, report.target, report.calib_rows
    );
    region.set_validation_policy(
        ValidationPolicy::new(ErrorMetric::Rmse, 0.5)
            .with_sample_rate(2)
            .with_window(2)
            .with_batch_samples(0),
    )?;

    let batch = 32usize;
    let binds = Bindings::new().with("N", 1);
    let session = region.session(&binds, &[("x", &[2]), ("y", &[1])], batch)?;

    // Three traffic phases: in-distribution (int8 serves), drifted (inputs
    // scaled 6x, far outside the trained range — every rung is over budget,
    // so the ladder walks down and then trips fallback), back
    // in-distribution (re-enable, then promote back to int8).
    let phases = [
        ("in-distribution", 1.0f32, 24usize),
        ("drifted (6x out of range)", 6.0, 24),
        ("recovered", 1.0, 40),
    ];
    let mut step = 0u64;
    for (label, scale, invocations) in phases {
        let mut surrogate_served = 0usize;
        for _ in 0..invocations {
            let xs: Vec<f32> = (0..batch * 2)
                .map(|k| {
                    step += 1;
                    scale * ((step as f32 * 0.61 + k as f32 * 0.17).sin())
                })
                .collect();
            let mut ys = vec![0.0f32; batch];
            let chunk = &mut ys[..];
            let mut out = session
                .invoke_batch(batch)?
                .input("x", &xs)?
                .run(|| host_kernel(&xs, chunk))?;
            out.output("y", chunk)?;
            if out.finish()? == PathTaken::Surrogate {
                surrogate_served += 1;
            }
        }
        println!(
            "{label:<26} surrogate served {surrogate_served:>2}/{invocations} invocations, \
             rolling error {:.4}, serving at {}, surrogate_active = {}",
            region.validation_rolling_error().unwrap_or(0.0),
            region.serve_precision(),
            region.surrogate_active()
        );
    }

    let s = region.stats();
    println!(
        "\nstats: {} invocations, {} validated samples, {} fallback-served, \
         {} demote(s), {} promote(s), {} disable(s), {} re-enable(s)",
        s.invocations,
        s.validated_invocations,
        s.fallback_invocations,
        s.precision_demotes,
        s.precision_promotes,
        s.surrogate_disables,
        s.surrogate_reenables
    );
    assert!(
        s.precision_demotes >= 2,
        "the drift phase must walk the ladder through bf16 to f32"
    );
    assert!(
        s.surrogate_disables >= 1,
        "sustained drift must trip fallback after the ladder is exhausted"
    );
    assert!(
        s.surrogate_reenables >= 1,
        "the recovery phase must re-enable the surrogate"
    );
    assert!(
        s.precision_promotes >= 2,
        "healthy service must promote back down the ladder"
    );
    assert_eq!(
        region.serve_precision(),
        Precision::Int8,
        "the healed region serves the int8 target again"
    );
    println!(
        "\nThe drift was caught online, the ladder degraded precision gracefully, \
         and the region healed back to int8 serving."
    );
    Ok(())
}
