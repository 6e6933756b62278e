//! Runtime execution-control edge cases: model/output size mismatches,
//! output ordering, stats accounting, and model hot-swapping.

use hpacml_core::{PathTaken, Region};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-exec-paths").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Save an MLP `in_dim -> out_dim` with fixed weights to `path`.
fn save_mlp(path: &std::path::Path, in_dim: usize, out_dim: usize, seed: u64) {
    let spec = ModelSpec::mlp(in_dim, &[4], out_dim, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

fn simple_region(model: &std::path::Path) -> Region {
    Region::from_source(
        "exec-paths",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(predicated:false) in(x) out(single(y[0:N])) model("{}")
            "#,
            model.display()
        ),
    )
    .unwrap()
}

#[test]
fn model_output_size_mismatch_is_reported() {
    let dir = tmpdir("mismatch");
    let model = dir.join("wrong.hml");
    // Model emits 3 outputs per sample but the from-map needs 1.
    save_mlp(&model, 2, 3, 1);
    let region = simple_region(&model);
    let binds = Bindings::new().with("N", 4);
    let x = [0.1f32; 8];
    let mut y = [0.0f32; 4];
    let session = region
        .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
        .unwrap();
    let mut out = session
        .invoke()
        .use_surrogate(true)
        .input("x", &x)
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    // 4 samples x 3 outputs = 12 elements; the from-map wants 4 — the
    // output() call consumes 4 and succeeds, but a second region output
    // doesn't exist, so this surfaces as leftover model output. The scatter
    // itself must succeed on the available chunk.
    out.output("y", &mut y).unwrap();
    out.finish().unwrap();
    // Now the reverse: model emits fewer than needed.
    let model2 = dir.join("short.hml");
    save_mlp(&model2, 2, 0, 1);
    // 0-output MLP is rejected by shape inference at build; use a 1-output
    // model against an 8-element from-map instead.
    let model3 = dir.join("narrow.hml");
    save_mlp(&model3, 2, 1, 2);
    let region = Region::from_source(
        "exec-narrow",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(rows(y[0:N])) model("{}")
            "#,
            model3.display()
        ),
    )
    .unwrap();
    let mut y8 = [0.0f32; 8];
    let session = region
        .session(&binds, &[("x", &[8]), ("y", &[8])], 1)
        .unwrap();
    let mut out = session
        .invoke()
        .input("x", &x)
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    // Model produced 4 elements (4 samples x 1), from-map needs 8.
    let err = match out.output("y", &mut y8) {
        Err(e) => e,
        Ok(_) => panic!("expected a model-output-size error"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("needs"), "unexpected error: {msg}");
}

#[test]
fn hot_swapping_models_changes_outputs() {
    let dir = tmpdir("swap");
    let m1 = dir.join("m1.hml");
    let m2 = dir.join("m2.hml");
    save_mlp(&m1, 2, 1, 10);
    save_mlp(&m2, 2, 1, 20);

    let region = simple_region(&m1);
    let binds = Bindings::new().with("N", 4);
    let x = [0.4f32; 8];
    // A session holds the model it first ran with, so each reading is a
    // session built after the swap.
    let run = |region: &Region| -> Vec<f32> {
        let session = region
            .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
            .unwrap();
        let mut y = [0.0f32; 4];
        let mut out = session
            .invoke()
            .use_surrogate(true)
            .input("x", &x)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        y.to_vec()
    };
    let y1 = run(&region);
    region.set_model_path(&m2);
    let y2 = run(&region);
    assert_ne!(y1, y2, "different models must give different outputs");
    // Swap back: the engine must serve the original (cache keyed by path).
    region.set_model_path(&m1);
    let y1_again = run(&region);
    assert_eq!(y1, y1_again);
}

#[test]
fn stats_accumulate_across_mixed_invocations() {
    let dir = tmpdir("stats");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 3);
    let region = simple_region(&model);
    let binds = Bindings::new().with("N", 4);
    let x = [0.2f32; 8];
    let session = region
        .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
        .unwrap();
    for step in 0..6 {
        let mut y = [0.0f32; 4];
        let use_model = step % 2 == 0;
        let mut out = session
            .invoke()
            .use_surrogate(use_model)
            .input("x", &x)
            .unwrap()
            .run(|| y.iter_mut().for_each(|v| *v = 1.0))
            .unwrap();
        out.output("y", &mut y).unwrap();
        let path = out.finish().unwrap();
        assert_eq!(path == PathTaken::Surrogate, use_model);
    }
    let stats = region.stats();
    assert_eq!(stats.invocations, 6);
    assert_eq!(stats.surrogate_invocations, 3);
    assert!(stats.accurate_ns > 0);
    assert!(stats.inference_ns > 0);
    region.reset_stats();
    assert_eq!(region.stats().invocations, 0);
}

#[test]
fn infer_mode_ignores_missing_db_and_collect_mode_ignores_missing_model() {
    let dir = tmpdir("modes");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 4);
    // collect mode without a model file: accurate path runs fine.
    let region = Region::from_source(
        "collect-only",
        r#"
        #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
        #pragma approx tensor map(to: rows(x[0:N]))
        #pragma approx ml(collect) in(x) out(rows(y[0:N]))
        "#,
    )
    .unwrap();
    let binds = Bindings::new().with("N", 2);
    let x = [0.5f32; 4];
    let mut y = [0.0f32; 4];
    let session = region
        .session(&binds, &[("x", &[4]), ("y", &[4])], 1)
        .unwrap();
    let mut out = session
        .invoke()
        .input("x", &x)
        .unwrap()
        .run(|| y.copy_from_slice(&x))
        .unwrap();
    out.output("y", &mut y).unwrap();
    assert_eq!(out.finish().unwrap(), PathTaken::Accurate);
    assert_eq!(y, x);
}
