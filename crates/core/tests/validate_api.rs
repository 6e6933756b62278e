//! Integration tests of online validation and adaptive fallback through the
//! compiled Session path: shadow sampling, error scoring against the host
//! code, controller-driven disable/re-enable, forced fallback, recorded
//! validation rows and the stats counters.

use hpacml_core::{ErrorMetric, PathTaken, Region, ValidationPolicy};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-validate-api").join(name);
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
        "validate",
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

/// One session invocation whose accurate closure writes `host` into the
/// output buffer; returns (value left in the buffer, path taken).
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

/// The model's own outputs, computed before any policy is attached.
fn model_outputs(session: &hpacml_core::Session<'_>, count: usize) -> Vec<f32> {
    (0..count)
        .map(|i| {
            let mut y = [0.0f32; 1];
            let mut out = session
                .invoke()
                .input("x", &sample(i))
                .unwrap()
                .run(|| unreachable!())
                .unwrap();
            out.output("y", &mut y).unwrap();
            out.finish().unwrap();
            y[0]
        })
        .collect()
}

#[test]
fn drift_disables_recovery_reenables() {
    let dir = tmpdir("drift");
    let model = dir.join("m.hml");
    save_mlp(&model, 3);
    let region = region_for(&model, None);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 8)
        .unwrap();
    let truth = model_outputs(&session, 8);
    region.reset_stats();

    // Validate every invocation, window 2, MaxAbs budget 0.5.
    region
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::MaxAbs, 0.5)
                .with_sample_rate(1)
                .with_window(2),
        )
        .unwrap();
    assert!(region.surrogate_active());

    // 1: host code agrees exactly -> error 0, surrogate serves.
    let (y, path) = invoke_with_host(&session, &sample(0), truth[0]);
    assert_eq!(path, PathTaken::Surrogate);
    assert_eq!(y, truth[0], "surrogate output is the primary result");
    assert_eq!(region.validation_rolling_error(), Some(0.0));

    // 2: drift of 1.0 -> rolling mean (0 + 1)/2 == budget, still enabled.
    let (_, path) = invoke_with_host(&session, &sample(1), truth[1] + 1.0);
    assert_eq!(path, PathTaken::Surrogate);
    assert!(region.surrogate_active());

    // 3: second drift -> rolling mean 1.0 > 0.5: the controller disables.
    let (_, path) = invoke_with_host(&session, &sample(2), truth[2] + 1.0);
    assert_eq!(
        path,
        PathTaken::Surrogate,
        "the drifting pass itself served"
    );
    assert!(!region.surrogate_active(), "rolling error over budget");

    // 4: fallback serves the host code, bit for bit; the probe (host value
    // far from the model) keeps the window bad.
    let (y, path) = invoke_with_host(&session, &sample(3), 1234.5);
    assert_eq!(path, PathTaken::Accurate);
    assert_eq!(y, 1234.5, "fallback leaves the host result untouched");
    assert!(!region.surrogate_active());

    // 5-6: recovered probes (host == model). The first is still inside the
    // hysteresis window; the second clears both cooldown and rolling error.
    let (_, path) = invoke_with_host(&session, &sample(4), truth[4]);
    assert_eq!(path, PathTaken::Accurate);
    assert!(!region.surrogate_active(), "no re-enable within one window");
    let (_, path) = invoke_with_host(&session, &sample(5), truth[5]);
    assert_eq!(path, PathTaken::Accurate);
    assert!(
        region.surrogate_active(),
        "window of clean probes re-enables"
    );

    // 7: surrogate serves again.
    let (y, path) = invoke_with_host(&session, &sample(6), truth[6]);
    assert_eq!(path, PathTaken::Surrogate);
    assert_eq!(y, truth[6]);

    let s = region.stats();
    assert_eq!(s.surrogate_disables, 1);
    assert_eq!(s.surrogate_reenables, 1);
    assert_eq!(
        s.validated_invocations, 7,
        "rate 1: every invocation scored"
    );
    assert_eq!(s.fallback_invocations, 3, "invocations 4-6 fell back");
    assert!(s.validation_shadow_ns > 0);
    assert_eq!(s.invocations, 7);
}

#[test]
fn sampling_rate_and_batch_caps_draws() {
    let dir = tmpdir("sampling");
    let model = dir.join("m.hml");
    save_mlp(&model, 5);
    let region = region_for(&model, None);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    // Loose budget: nothing ever disables; rate 2, <=2 samples per batch.
    region
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::Rmse, 1e9)
                .with_sample_rate(2)
                .with_batch_samples(2),
        )
        .unwrap();

    let xs: Vec<f32> = (0..4).flat_map(sample).collect();
    let mut ys = [0.0f32; 4];
    for _ in 0..4 {
        let mut out = session
            .invoke_batch(4)
            .unwrap()
            .input("x", &xs)
            .unwrap()
            .run(|| ys.fill(0.0))
            .unwrap();
        out.output("y", &mut ys).unwrap();
        out.finish().unwrap();
    }
    let s = region.stats();
    // 4 flushes, every 2nd drawn, 2 samples compared per draw.
    assert_eq!(s.validated_invocations, 4);
    assert_eq!(s.surrogate_disables, 0);
    assert_eq!(s.fallback_invocations, 0);
    assert_eq!(s.invocations, 16);
}

#[test]
fn validation_rows_are_recorded() {
    let dir = tmpdir("rows");
    let model = dir.join("m.hml");
    let db = dir.join("d.h5");
    save_mlp(&model, 7);
    let region = region_for(&model, Some(&db));
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 2)
        .unwrap();
    region
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::Mape, 1e9)
                .with_sample_rate(1)
                .with_batch_samples(0),
        )
        .unwrap();
    let xs: Vec<f32> = (0..2).flat_map(sample).collect();
    let mut ys = [0.0f32; 2];
    for _ in 0..3 {
        let mut out = session
            .invoke_batch(2)
            .unwrap()
            .input("x", &xs)
            .unwrap()
            .run(|| ys.fill(1.0))
            .unwrap();
        out.output("y", &mut ys).unwrap();
        out.finish().unwrap();
    }
    region.flush_db().unwrap();

    let file = hpacml_store::H5File::open(&db).unwrap();
    let group = file
        .root()
        .group("validate")
        .unwrap()
        .group("validation")
        .unwrap();
    // 3 flushes x 2 samples each, every flush drawn.
    assert_eq!(group.dataset("error").unwrap().rows(), 6);
    assert_eq!(group.dataset("invocation").unwrap().rows(), 6);
    let metrics = group.dataset("metric").unwrap().read_f64().unwrap();
    assert!(metrics
        .iter()
        .all(|&m| m == ErrorMetric::Mape.code() as f64));
    let invs = group.dataset("invocation").unwrap().read_f64().unwrap();
    assert_eq!(invs, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
    let errors = group.dataset("error").unwrap().read_f64().unwrap();
    assert!(errors.iter().all(|e| e.is_finite()));
}

#[test]
fn forced_fallback_is_host_code_without_a_model() {
    let dir = tmpdir("forced");
    // The model path does not exist: a forced fallback must never resolve it.
    let region = region_for(&dir.join("missing.hml"), None);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    region.force_fallback(true);
    assert!(!region.surrogate_active());
    let (y, path) = invoke_with_host(&session, &sample(0), 42.0);
    assert_eq!(path, PathTaken::Accurate);
    assert_eq!(y, 42.0);

    let s = region.stats();
    assert_eq!(s.fallback_invocations, 1);
    assert_eq!(s.surrogate_invocations, 0);
    assert_eq!(s.model_cache_misses, 0, "forced fallback never loads");

    // Lifting the force restores the surrogate (and now needs the model).
    region.force_fallback(false);
    assert!(region.surrogate_active());
    let run = session.invoke().input("x", &sample(2)).unwrap().run(|| ());
    assert!(
        run.is_err(),
        "missing model must fail on the surrogate path"
    );
}

#[test]
fn explicit_surrogate_off_is_not_counted_as_fallback() {
    let dir = tmpdir("off");
    let model = dir.join("m.hml");
    save_mlp(&model, 9);
    let region = region_for(&model, None);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 1e9).with_sample_rate(1))
        .unwrap();
    let mut y = [0.0f32; 1];
    let mut out = session
        .invoke()
        .use_surrogate(false)
        .input("x", &sample(0))
        .unwrap()
        .run(|| y[0] = 3.0)
        .unwrap();
    out.output("y", &mut y).unwrap();
    assert_eq!(out.finish().unwrap(), PathTaken::Accurate);
    assert_eq!(y[0], 3.0);
    let s = region.stats();
    assert_eq!(s.fallback_invocations, 0);
    assert_eq!(
        s.validated_invocations, 0,
        "surrogate-off invocations are never drawn"
    );
}

#[test]
fn policy_knobs_are_validated_and_clearable() {
    let dir = tmpdir("knobs");
    let model = dir.join("m.hml");
    save_mlp(&model, 11);
    let region = region_for(&model, None);
    assert!(region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 0.1).with_sample_rate(0))
        .is_err());
    assert!(region.validation_policy().is_none());
    region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 0.1))
        .unwrap();
    assert_eq!(
        region.validation_policy().map(|p| p.metric),
        Some(ErrorMetric::Rmse)
    );
    region.clear_validation_policy();
    assert!(region.validation_policy().is_none());
    assert!(region.validation_rolling_error().is_none());
}

#[test]
fn fallback_invocations_do_not_record_collection_rows() {
    let dir = tmpdir("fallback-no-collect");
    let model = dir.join("m.hml");
    let db = dir.join("d.h5");
    save_mlp(&model, 13);
    let region = region_for(&model, Some(&db));
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    region.force_fallback(true);
    for i in 0..5 {
        let (_, path) = invoke_with_host(&session, &sample(i), 1.0);
        assert_eq!(path, PathTaken::Accurate);
    }
    region.flush_db().unwrap();
    // Fallback runs the host code for safety, not to collect training
    // data: nothing may have been appended (an intentional accurate run
    // via use_surrogate(false) still collects, as before).
    assert_eq!(region.db_size_bytes(), 0, "fallback must not grow the db");
    assert_eq!(region.stats().fallback_invocations, 5);
}

#[test]
fn unread_outputs_never_feed_the_controller() {
    let dir = tmpdir("unread");
    let model = dir.join("m.hml");
    save_mlp(&model, 15);
    let region = region_for(&model, None);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    // Validate everything, zero tolerance: any real comparison would have
    // to observe *some* error for a drifting host closure.
    region
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::MaxAbs, 1e-12).with_sample_rate(1),
        )
        .unwrap();
    for i in 0..4 {
        let mut y = [0.0f32; 1];
        let out = session
            .invoke()
            .input("x", &sample(i))
            .unwrap()
            .run(|| y[0] = 1.0e6)
            .unwrap();
        // The caller never reads the output: no comparison happened, so
        // no (fabricated zero) error may reach the controller.
        drop(out);
        let out2 = session
            .invoke()
            .input("x", &sample(i))
            .unwrap()
            .run(|| y[0] = 1.0e6)
            .unwrap();
        // finish() without output() on a drawn invocation: same rule.
        out2.finish().unwrap();
    }
    let s = region.stats();
    assert_eq!(
        s.validated_invocations, 0,
        "no output was read, so nothing was compared"
    );
    assert!(region.surrogate_active());
}
