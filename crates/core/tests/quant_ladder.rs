//! Integration tests of reduced-precision serving through the compiled
//! Session path: `set_precision_policy` quantization + db calibration, the
//! validation-driven demotion ladder (int8 -> bf16 -> f32 -> host), and the
//! promotion path back toward the target once the error recovers.

use hpacml_core::{ErrorMetric, PathTaken, Precision, PrecisionPolicy, Region, ValidationPolicy};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_tensor::Tensor;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-quant-ladder").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_mlp(path: &std::path::Path, seed: u64) {
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

/// Per-sample region: 3 features in, 1 value out, infer mode.
fn region_for(model: &std::path::Path, db: Option<&std::path::Path>) -> Region {
    let db_clause = db
        .map(|d| format!(" db(\"{}\")", d.display()))
        .unwrap_or_default();
    Region::from_source(
        "quant",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}"){db_clause}
            "#,
            model.display()
        ),
    )
    .unwrap()
}

fn sample(i: usize) -> [f32; 3] {
    [(i as f32 * 0.37).sin(), (i as f32 * 0.11).cos(), 0.5]
}

/// One session invocation whose accurate closure writes `host`; returns
/// (value left in the output buffer, path taken).
fn invoke_with_host(
    session: &hpacml_core::Session<'_>,
    x: &[f32; 3],
    host: f32,
) -> (f32, PathTaken) {
    let mut y = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", x)
        .unwrap()
        .run(|| y[0] = host)
        .unwrap();
    out.output("y", &mut y).unwrap();
    let path = out.finish().unwrap();
    (y[0], path)
}

/// The model's forward value for one sample at each serving precision,
/// computed directly on the `.hml` file the region serves.
fn model_values(model: &std::path::Path, x: &[f32; 3]) -> (f32, f32, f32) {
    let mut m = hpacml_nn::serialize::load_model(model).unwrap();
    m.quantize(Precision::Int8);
    let xt = Tensor::from_vec(x.to_vec(), [1usize, 3]).unwrap();
    let mut ws = hpacml_nn::InferWorkspace::new();
    let f = m
        .infer_with_at(&mut ws, &xt, Precision::F32)
        .unwrap()
        .data()[0];
    let b = m
        .infer_with_at(&mut ws, &xt, Precision::Bf16)
        .unwrap()
        .data()[0];
    let i = m
        .infer_with_at(&mut ws, &xt, Precision::Int8)
        .unwrap()
        .data()[0];
    (f, b, i)
}

#[test]
fn precision_policy_quantizes_and_calibrates_from_db_rows() {
    let dir = tmpdir("calibrate");
    let model = dir.join("m.hml");
    let db = dir.join("d.h5");
    save_mlp(&model, 21);
    let region = region_for(&model, Some(&db));
    let binds = Bindings::new().with("N", 1);

    // Collect input rows the accurate way (use_surrogate(false) records).
    {
        let session = region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
            .unwrap();
        for i in 0..6 {
            let mut y = [0.0f32; 1];
            let mut out = session
                .invoke()
                .use_surrogate(false)
                .input("x", &sample(i))
                .unwrap()
                .run(|| y[0] = 1.0)
                .unwrap();
            out.output("y", &mut y).unwrap();
            out.finish().unwrap();
        }
    }

    assert_eq!(region.serve_precision(), Precision::F32);
    let report = region
        .set_precision_policy(&PrecisionPolicy::int8().with_max_calib_rows(4))
        .unwrap();
    assert_eq!(report.target, Precision::Int8);
    assert_eq!(report.quantized_layers, 2, "both Linear layers quantized");
    assert_eq!(report.calib_rows, 4, "capped at max_calib_rows");
    assert_eq!(report.calib_errors.len(), 2, "int8 and bf16 rungs scored");
    let (p0, e0) = report.calib_errors[0];
    let (p1, e1) = report.calib_errors[1];
    assert_eq!((p0, p1), (Precision::Int8, Precision::Bf16));
    assert!(e0.is_finite() && e1.is_finite());
    assert!(e1 <= e0, "bf16 calibration error is at most the int8 error");
    assert_eq!(region.serve_precision(), Precision::Int8);
    assert_eq!(region.precision_report().unwrap().calib_rows, 4);

    // A session built after the policy serves the quantized model: its
    // output is bit-identical to the direct int8 forward.
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    let (_, _, int8) = model_values(&model, &sample(0));
    let (y, path) = invoke_with_host(&session, &sample(0), 0.0);
    assert_eq!(path, PathTaken::Surrogate);
    assert_eq!(y, int8, "session serves the int8 rung bit-for-bit");
}

#[test]
fn precision_policy_without_db_still_quantizes() {
    let dir = tmpdir("no-db");
    let model = dir.join("m.hml");
    save_mlp(&model, 23);
    let region = region_for(&model, None);
    let report = region
        .set_precision_policy(&PrecisionPolicy::bf16())
        .unwrap();
    assert_eq!(report.target, Precision::Bf16);
    assert_eq!(report.quantized_layers, 2);
    assert_eq!(report.calib_rows, 0, "no db: nothing to calibrate on");
    assert!(report.calib_errors.is_empty());
    assert_eq!(region.serve_precision(), Precision::Bf16);

    // An F32 policy reverts to full-precision serving.
    let report = region
        .set_precision_policy(&PrecisionPolicy::f32())
        .unwrap();
    assert_eq!(report.quantized_layers, 0);
    assert_eq!(region.serve_precision(), Precision::F32);
}

#[test]
fn over_budget_int8_demotes_within_window_then_heals() {
    let dir = tmpdir("ladder");
    let model = dir.join("m.hml");
    save_mlp(&model, 25);
    let region = region_for(&model, None);
    let binds = Bindings::new().with("N", 1);

    // Quantization error is signed and can cancel, so pick a sample where
    // the int8 rung demonstrably deviates more than the bf16 rung.
    let (x, f32_val, bf16_val, int8_val) = (0..64)
        .map(|i| {
            let x = sample(i);
            let (f, b, q) = model_values(&model, &x);
            (x, f, b, q)
        })
        .find(|&(_, f, b, q)| {
            let (be, qe) = ((b - f).abs() as f64, (q - f).abs() as f64);
            qe > 1.5 * be && qe > 1e-6
        })
        .expect("some sample separates the int8 and bf16 rungs");
    let bf16_err = (bf16_val - f32_val).abs() as f64;
    let int8_err = (int8_val - f32_val).abs() as f64;
    // A budget between the two rungs' deviations: with the host closure
    // writing the f32 truth, int8 serving is over budget, bf16 is not.
    let budget = (bf16_err + int8_err) / 2.0;

    region
        .set_precision_policy(&PrecisionPolicy::int8())
        .unwrap();
    region
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::MaxAbs, budget)
                .with_sample_rate(1)
                .with_window(1),
        )
        .unwrap();
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();

    // 1: int8 serves, error over budget -> demoted to bf16 at finish().
    let (y, path) = invoke_with_host(&session, &x, f32_val);
    assert_eq!(path, PathTaken::Surrogate);
    assert_eq!(y, int8_val, "the over-budget pass itself served int8");
    assert_eq!(region.serve_precision(), Precision::Bf16);
    assert!(region.surrogate_active(), "demotion is not a disable");
    assert_eq!(region.stats().precision_demotes, 1);
    assert_eq!(region.stats().surrogate_disables, 0);

    // 2-3: bf16 serves within budget; a doubled window (2 stable
    // observations) promotes back toward the int8 target.
    let (y, _) = invoke_with_host(&session, &x, f32_val);
    assert_eq!(y, bf16_val, "demoted rung serves bf16 bit-for-bit");
    assert_eq!(region.serve_precision(), Precision::Bf16);
    let (_, _) = invoke_with_host(&session, &x, f32_val);
    assert_eq!(region.serve_precision(), Precision::Int8);
    assert_eq!(region.stats().precision_promotes, 1);

    // 4: int8 is still over budget -> demoted again. The controller never
    // serves an over-budget rung past its window.
    let (_, _) = invoke_with_host(&session, &x, f32_val);
    assert_eq!(region.serve_precision(), Precision::Bf16);
    assert_eq!(region.stats().precision_demotes, 2);

    // 5-6: a hard drift (host far from every rung) walks the remaining
    // ladder: bf16 -> f32, then f32 over budget -> surrogate disabled.
    let (_, _) = invoke_with_host(&session, &x, f32_val + 1000.0);
    assert_eq!(region.serve_precision(), Precision::F32);
    assert_eq!(region.stats().precision_demotes, 3);
    assert!(region.surrogate_active());
    let (_, _) = invoke_with_host(&session, &x, f32_val + 1000.0);
    assert!(!region.surrogate_active(), "f32 over budget disables");
    assert_eq!(region.stats().surrogate_disables, 1);

    // 7: fallback serves the host; the recovery probe (error 0 at f32)
    // clears the window-1 cooldown and re-enables on the finest rung.
    let (y, path) = invoke_with_host(&session, &x, 42.0_f32);
    assert_eq!(path, PathTaken::Accurate);
    assert_eq!(y, 42.0, "fallback leaves the host result untouched");
    // The probe compared the f32 surrogate against host=42: err > budget,
    // so the window stays bad; feed clean probes until it re-enables.
    let mut probes = 0;
    while !region.surrogate_active() {
        let (_, path) = invoke_with_host(&session, &x, f32_val);
        assert_eq!(path, PathTaken::Accurate);
        probes += 1;
        assert!(probes < 10, "clean probes must re-enable the surrogate");
    }
    assert_eq!(region.stats().surrogate_reenables, 1);
    assert_eq!(
        region.serve_precision(),
        Precision::F32,
        "re-enable lands on the finest rung"
    );

    // 8+: healthy f32 service promotes back down the ladder, one rung per
    // doubled window, eventually reaching the int8 target again.
    let mut steps = 0;
    while region.serve_precision() != Precision::Int8 {
        let (_, path) = invoke_with_host(&session, &x, f32_val);
        assert_eq!(path, PathTaken::Surrogate);
        steps += 1;
        assert!(steps < 20, "healthy service must heal back to the target");
    }
    assert!(region.stats().precision_promotes >= 3);
}
