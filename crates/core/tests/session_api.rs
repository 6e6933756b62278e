//! The compiled `Session` API: compile-once/invoke-many equivalence with a
//! direct forward pass of the saved model, counter observability, thread
//! safety, what sessions of one region share, and the collect-mode path
//! through a session.

use hpacml_core::{
    ErrorMetric, PathTaken, Precision, Region, RetryPolicy, Session, ValidationPolicy,
};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::ForwardWorkspace;
use hpacml_tensor::Tensor;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-session-api").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Save an MLP `in_dim -> out_dim` with fixed weights to `path`.
fn save_mlp(path: &std::path::Path, in_dim: usize, out_dim: usize, seed: u64) {
    let spec = ModelSpec::mlp(in_dim, &[8], out_dim, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

/// The reference that owes nothing to the runtime: load the saved model
/// and run its plain f32 forward over `rows` — the `[samples, features]`
/// rows the bridge gathers, laid out by hand.
fn direct_forward(model: &std::path::Path, rows: &[f32], features: usize) -> Vec<f32> {
    let saved = hpacml_nn::serialize::load_model(model).unwrap();
    let x = Tensor::from_vec(rows.to_vec(), [rows.len() / features, features]).unwrap();
    let mut ws = ForwardWorkspace::new();
    let y = ws.forward_at(&saved.model, &x, Precision::F32).unwrap();
    y.data().to_vec()
}

fn rows_region(model: &std::path::Path) -> Region {
    Region::from_source(
        "session-rows",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")
            "#,
            model.display()
        ),
    )
    .unwrap()
}

#[test]
fn session_matches_one_shot_invocation() {
    let dir = tmpdir("parity");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 7);
    let region = rows_region(&model);
    let binds = Bindings::new().with("N", 4);
    let x: Vec<f32> = (0..8).map(|k| k as f32 * 0.11 - 0.4).collect();

    // Reference: the `rows` functor gathers x as 4 rows of 2 features, and
    // `single` scatters one model output per row.
    let y_ref = direct_forward(&model, &x, 2);

    // Compiled session, invoked repeatedly: identical results every time.
    let session = region
        .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
        .unwrap();
    for _ in 0..5 {
        let mut y = [0.0f32; 4];
        let mut out = session
            .invoke()
            .input("x", &x)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        assert_eq!(out.path(), PathTaken::Surrogate);
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        assert_eq!(y.as_slice(), y_ref);
    }
    let stats = region.stats();
    assert_eq!(stats.invocations, 5);
    assert_eq!(stats.surrogate_invocations, 5);
    assert!(stats.to_tensor_ns > 0 && stats.from_tensor_ns > 0);
}

#[test]
fn cache_counters_show_compile_once_execute_many() {
    let dir = tmpdir("counters");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 3);
    let region = rows_region(&model);
    let binds = Bindings::new().with("N", 4);
    let x = [0.25f32; 8];

    let session = region
        .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
        .unwrap();
    // Building compiled the two plans (to + from).
    assert_eq!(region.stats().plan_cache_misses, 2);

    let invocations = 10u64;
    for _ in 0..invocations {
        let mut y = [0.0f32; 4];
        let mut out = session
            .invoke()
            .input("x", &x)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
    }
    let stats = region.stats();
    // Invocations compile nothing...
    assert_eq!(stats.plan_cache_misses, 2);
    // ...and resolve the model exactly once.
    assert_eq!(stats.model_cache_misses, 1);
    assert_eq!(stats.model_cache_hits, invocations - 1);
}

#[test]
fn n_threads_invoking_one_session_agree() {
    let dir = tmpdir("threads");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 11);
    let region = rows_region(&model);
    let binds = Bindings::new().with("N", 16);
    let x: Vec<f32> = (0..32).map(|k| (k as f32).sin()).collect();

    let session = region
        .session(&binds, &[("x", &[32]), ("y", &[16])], 1)
        .unwrap();

    // Reference from the main thread.
    let run_once = |session: &Session| -> Vec<f32> {
        let mut y = vec![0.0f32; 16];
        let mut out = session
            .invoke()
            .input("x", &x)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        y
    };
    let reference = run_once(&session);

    let threads = 8;
    let reps = 25;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let session = &session;
            let reference = &reference;
            let run_once = &run_once;
            scope.spawn(move || {
                for _ in 0..reps {
                    assert_eq!(&run_once(session), reference);
                }
            });
        }
    });
    let stats = region.stats();
    assert_eq!(stats.surrogate_invocations, (threads * reps) as u64 + 1);
    // One model resolution total, across all threads.
    assert_eq!(stats.model_cache_misses, 1);
}

#[test]
fn session_collect_mode_records_samples() {
    let dir = tmpdir("collect");
    let db = dir.join("d.h5");
    let region = Region::from_source(
        "session-collect",
        &format!(
            r#"
            #pragma approx tensor functor(idf: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: idf(x[0:N]))
            #pragma approx tensor map(from: idf(y[0:N]))
            #pragma approx ml(collect) in(x) out(y) db("{}")
            "#,
            db.display()
        ),
    )
    .unwrap();
    let binds = Bindings::new().with("N", 6);
    let session = region
        .session(&binds, &[("x", &[6]), ("y", &[6])], 1)
        .unwrap();
    let x: Vec<f32> = (0..6).map(|k| k as f32).collect();
    for _ in 0..4 {
        let mut y = vec![0.0f32; 6];
        let mut out = session
            .invoke()
            .input("x", &x)
            .unwrap()
            .run(|| y.iter_mut().zip(&x).for_each(|(o, v)| *o = v * 2.0))
            .unwrap();
        assert_eq!(out.path(), PathTaken::Accurate);
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
    }
    region.flush_db().unwrap();
    let file = hpacml_store::H5File::open(&db).unwrap();
    let group = file.root().group("session-collect").unwrap();
    let xs = group.group("inputs").unwrap().dataset("x").unwrap();
    let ys = group.group("outputs").unwrap().dataset("y").unwrap();
    assert_eq!(xs.rows(), 4);
    assert_eq!(ys.rows(), 4);
    let read = ys.read_f32().unwrap();
    assert_eq!(&read[..6], &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
}

#[test]
fn session_rejects_unknown_arrays_and_missing_inputs() {
    let dir = tmpdir("errors");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 5);
    let region = rows_region(&model);
    let binds = Bindings::new().with("N", 4);

    // Missing shape for a declared array.
    assert!(region.session(&binds, &[("x", &[8])], 1).is_err());

    let session = region
        .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
        .unwrap();
    // Unknown input name.
    assert!(session.invoke().input("z", &[0.0; 8]).is_err());
    // Duplicate input.
    let run = session.invoke().input("x", &[0.0; 8]).unwrap();
    assert!(run.input("x", &[0.0; 8]).is_err());
    // Surrogate run without inputs.
    let err = match session.invoke().run(|| {}) {
        Err(e) => e,
        Ok(_) => panic!("expected a missing-input error"),
    };
    assert!(format!("{err}").contains("missing input"));
    // Unknown output name.
    let mut out = session
        .invoke()
        .input("x", &[0.0; 8])
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    assert!(out.output("nope", &mut [0.0; 4]).is_err());
}

#[test]
fn multi_input_assembly_is_declaration_ordered_on_both_apis() {
    // Two declared inputs `a, b`; supplying them in reversed order must not
    // change the model input: assembly follows declaration order, which is
    // also the order the hand-laid reference rows use.
    let dir = tmpdir("order");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 31); // per sample: [a_i, b_i] -> y_i
    let region = Region::from_source(
        "order",
        &format!(
            r#"
            #pragma approx tensor functor(one: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: one(a[0:N]))
            #pragma approx tensor map(to: one(b[0:N]))
            #pragma approx ml(infer) in(a, b) out(one(y[0:N])) model("{}")
            "#,
            model.display()
        ),
    )
    .unwrap();
    let binds = Bindings::new().with("N", 4);
    let a: Vec<f32> = (0..4).map(|k| k as f32 * 0.1).collect();
    let b: Vec<f32> = (0..4).map(|k| 1.0 - k as f32 * 0.2).collect();

    let session = region
        .session(&binds, &[("a", &[4]), ("b", &[4]), ("y", &[4])], 1)
        .unwrap();
    let supplied = |first: &str, second: &str| -> Vec<f32> {
        let (d1, d2) = if first == "a" { (&a, &b) } else { (&b, &a) };
        let mut y = vec![0.0f32; 4];
        let mut out = session
            .invoke()
            .input(first, d1)
            .unwrap()
            .input(second, d2)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        y
    };
    let rows: Vec<f32> = a.iter().zip(&b).flat_map(|(a, b)| [*a, *b]).collect();
    let declared = direct_forward(&model, &rows, 2);
    assert_eq!(supplied("a", "b"), declared);
    assert_eq!(
        supplied("b", "a"),
        declared,
        "supply order must not change the batch"
    );
}

/// A per-sample region (`N = 1`): 2 features in, 1 value out per sample.
fn per_sample_region(model: &std::path::Path) -> Region {
    Region::from_source(
        "session-batch",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")
            "#,
            model.display()
        ),
    )
    .unwrap()
}

#[test]
fn invoke_batch_matches_sequential_invokes_bitwise() {
    let dir = tmpdir("batch-parity");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 13);
    let region = per_sample_region(&model);
    let binds = Bindings::new().with("N", 1);
    let max_batch = 16usize;
    let session = region
        .session(&binds, &[("x", &[2]), ("y", &[1])], max_batch)
        .unwrap();
    let x: Vec<f32> = (0..max_batch * 2)
        .map(|k| (k as f32 * 0.37).sin())
        .collect();

    // Sequential reference: one invoke() per sample.
    let mut y_seq = vec![0.0f32; max_batch];
    for i in 0..max_batch {
        let mut out = session
            .invoke()
            .input("x", &x[i * 2..(i + 1) * 2])
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y_seq[i..i + 1]).unwrap();
        out.finish().unwrap();
    }

    // Every batch size up to max_batch must reproduce the same bits.
    for n in 1..=max_batch {
        let mut y = vec![0.0f32; n];
        let mut out = session
            .invoke_batch(n)
            .unwrap()
            .input("x", &x[..n * 2])
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        assert_eq!(out.path(), PathTaken::Surrogate);
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        assert_eq!(y, y_seq[..n], "batch {n} diverged from sequential");
    }
}

#[test]
fn invoke_batch_validates_n_and_input_len() {
    let dir = tmpdir("batch-errors");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 17);
    let region = per_sample_region(&model);
    let binds = Bindings::new().with("N", 1);
    // max_batch of zero is rejected at build.
    assert!(region
        .session(&binds, &[("x", &[2]), ("y", &[1])], 0)
        .is_err());
    let session = region
        .session(&binds, &[("x", &[2]), ("y", &[1])], 8)
        .unwrap();
    // n outside 1..=max_batch.
    assert!(session.invoke_batch(0).is_err());
    assert!(session.invoke_batch(9).is_err());
    // Input data must carry exactly n per-sample arrays.
    let run = session.invoke_batch(4).unwrap();
    assert!(run.input("x", &[0.0; 7]).is_err());
    // Output buffer must carry exactly n per-sample arrays.
    let mut out = session
        .invoke_batch(2)
        .unwrap()
        .input("x", &[0.1; 4])
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    assert!(out.output("y", &mut [0.0; 3]).is_err());
    assert!(out.output("y", &mut [0.0; 2]).is_ok());
}

#[test]
fn batch_occupancy_counters_track_coalescing() {
    let dir = tmpdir("batch-counters");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 19);
    let region = per_sample_region(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[2]), ("y", &[1])], 32)
        .unwrap();
    let x = [0.2f32; 64];
    let mut y = [0.0f32; 32];
    // 3 batched invocations of 20 + 2 single invokes.
    for _ in 0..3 {
        let mut out = session
            .invoke_batch(20)
            .unwrap()
            .input("x", &x[..40])
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y[..20]).unwrap();
        out.finish().unwrap();
    }
    for _ in 0..2 {
        let mut out = session
            .invoke()
            .input("x", &x[..2])
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y[..1]).unwrap();
        out.finish().unwrap();
    }
    let stats = region.stats();
    assert_eq!(stats.invocations, 62);
    assert_eq!(stats.surrogate_invocations, 62);
    assert_eq!(stats.batch_submitted, 62);
    assert_eq!(stats.batches_flushed, 5);
    assert!((stats.mean_batch_fill() - 62.0 / 5.0).abs() < 1e-9);
}

#[test]
fn batched_collect_records_one_row_per_sample() {
    let dir = tmpdir("batch-collect");
    let db = dir.join("d.h5");
    let region = Region::from_source(
        "batch-collect",
        &format!(
            r#"
            #pragma approx tensor functor(idf: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: idf(x[0:N]))
            #pragma approx tensor map(from: idf(y[0:N]))
            #pragma approx ml(collect) in(x) out(y) db("{}")
            "#,
            db.display()
        ),
    )
    .unwrap();
    let binds = Bindings::new().with("N", 3);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[3])], 4)
        .unwrap();
    let x: Vec<f32> = (0..12).map(|k| k as f32).collect();
    let mut y = vec![0.0f32; 12];
    let n = 4usize;
    let mut out = session
        .invoke_batch(n)
        .unwrap()
        .use_surrogate(false)
        .input("x", &x)
        .unwrap()
        .run(|| {
            for (o, v) in y.iter_mut().zip(&x) {
                *o = v * 3.0;
            }
        })
        .unwrap();
    assert_eq!(out.path(), PathTaken::Accurate);
    out.output("y", &mut y).unwrap();
    out.finish().unwrap();
    region.flush_db().unwrap();

    // One database row per *sample*, exactly like n sequential invocations.
    let file = hpacml_store::H5File::open(&db).unwrap();
    let group = file.root().group("batch-collect").unwrap();
    let xs = group.group("inputs").unwrap().dataset("x").unwrap();
    let ys = group.group("outputs").unwrap().dataset("y").unwrap();
    assert_eq!(xs.rows(), n);
    assert_eq!(ys.rows(), n);
    assert_eq!(group.dataset("region_time_ns").unwrap().rows(), n);
    let read = ys.read_f32().unwrap();
    let expect: Vec<f32> = (0..12).map(|k| k as f32 * 3.0).collect();
    assert_eq!(read, expect);
}

#[test]
fn sessions_follow_model_hot_swap_on_rebuild() {
    let dir = tmpdir("swap");
    let m1 = dir.join("m1.hml");
    let m2 = dir.join("m2.hml");
    save_mlp(&m1, 2, 1, 21);
    save_mlp(&m2, 2, 1, 22);
    let region = rows_region(&m1);
    let binds = Bindings::new().with("N", 4);
    let x = [0.3f32; 8];

    let run = |session: &Session| -> Vec<f32> {
        let mut y = vec![0.0f32; 4];
        let mut out = session
            .invoke()
            .input("x", &x)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        y
    };
    let s1 = region
        .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
        .unwrap();
    let y1 = run(&s1);
    region.set_model_path(&m2);
    // A session built after the swap sees the new model.
    let s2 = region
        .session(&binds, &[("x", &[8]), ("y", &[4])], 1)
        .unwrap();
    let y2 = run(&s2);
    assert_ne!(y1, y2);
}

/// Since the region keeps no compiled state, the resolved-model slot is all
/// that sessions built on it have in common.
#[test]
fn sessions_of_one_region_share_only_the_model() {
    let dir = tmpdir("shared-model");
    let m1 = dir.join("m1.hml");
    let m2 = dir.join("m2.hml");
    save_mlp(&m1, 2, 1, 41);
    save_mlp(&m2, 2, 1, 42);
    let region = rows_region(&m1);
    let x: Vec<f32> = (0..12).map(|k| (k as f32 * 0.23).cos()).collect();
    let run = |session: &Session, x: &[f32]| -> Vec<f32> {
        let mut y = vec![0.0f32; x.len() / 2];
        let mut out = session
            .invoke()
            .input("x", x)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        y
    };

    // Two sessions with different per-sample shapes: each compiles its own
    // two plans, each serves the right bits, and the model is loaded once.
    let (n4, n6) = (Bindings::new().with("N", 4), Bindings::new().with("N", 6));
    let four = region.session(&n4, &[("x", &[8]), ("y", &[4])], 1).unwrap();
    let six = region
        .session(&n6, &[("x", &[12]), ("y", &[6])], 1)
        .unwrap();
    assert_eq!(run(&four, &x[..8]), direct_forward(&m1, &x[..8], 2));
    assert_eq!(run(&six, &x), direct_forward(&m1, &x, 2));
    let stats = region.stats();
    assert_eq!(stats.plan_cache_misses, 4);
    assert_eq!(stats.model_cache_misses, 1);

    // After a swap, the session that already ran keeps its weights; one
    // built afterwards serves the new ones. Nothing is cleared in between.
    region.set_model_path(&m2);
    let after = region.session(&n4, &[("x", &[8]), ("y", &[4])], 1).unwrap();
    let (old, new) = (run(&four, &x[..8]), run(&after, &x[..8]));
    assert_eq!(old, direct_forward(&m1, &x[..8], 2));
    assert_eq!(new, direct_forward(&m2, &x[..8], 2));
    assert_ne!(old, new);
}

/// Monitoring never destroys a served result: an accurate closure that
/// panics while it runs as the shadow reference of a drawn invocation
/// abandons the draw, and the surrogate's outputs are served as if the
/// invocation had not been drawn.
#[test]
fn panicking_shadow_reference_is_contained_by_the_session() {
    let dir = tmpdir("shadow-panic");
    let model = dir.join("m.hml");
    save_mlp(&model, 2, 1, 43);
    let region = per_sample_region(&model);
    region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 1e9).with_sample_rate(1))
        .unwrap();
    let session = region
        .session(
            &Bindings::new().with("N", 1),
            &[("x", &[2]), ("y", &[1])],
            1,
        )
        .unwrap();
    let x = [0.3f32, -0.7];
    let mut y = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &x)
        .unwrap()
        .run(|| panic!("shadow reference exploded"))
        .expect("a panicking shadow reference must not fail the invocation");
    assert_eq!(out.path(), PathTaken::Surrogate);
    out.output("y", &mut y).unwrap();
    assert_eq!(out.finish().unwrap(), PathTaken::Surrogate);
    assert_eq!(y.to_vec(), direct_forward(&model, &x, 2));
    let s = region.stats();
    assert_eq!(
        s.validated_invocations, 0,
        "an abandoned draw observes nothing"
    );
    assert_eq!(s.surrogate_invocations, 1);
    assert!(region.surrogate_active());
}

/// A validation row that cannot be written is an error from `finish()` —
/// but only after the invocation it follows has been counted.
#[test]
fn failed_validation_row_write_still_counts_the_invocation() {
    let dir = tmpdir("row-write");
    let model = dir.join("m.hml");
    let db = dir.join("d.h5");
    save_mlp(&model, 2, 1, 47);
    // Not an h5lite file: the lazy open of the db fails.
    std::fs::write(&db, b"not a database").unwrap();
    let region = Region::from_source(
        "session-row-write",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}") db("{}")
            "#,
            model.display(),
            db.display()
        ),
    )
    .unwrap();
    region.set_retry_policy(RetryPolicy::none());
    region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 1e9).with_sample_rate(1))
        .unwrap();
    let session = region
        .session(
            &Bindings::new().with("N", 1),
            &[("x", &[2]), ("y", &[1])],
            1,
        )
        .unwrap();
    let x = [0.1f32, 0.9];
    let mut y = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &x)
        .unwrap()
        .run(|| y[0] = 0.5)
        .unwrap();
    out.output("y", &mut y).unwrap();
    assert!(out.finish().is_err(), "the row write failed");
    assert_eq!(
        y.to_vec(),
        direct_forward(&model, &x, 2),
        "served all the same"
    );
    let s = region.stats();
    assert_eq!(
        (s.invocations, s.surrogate_invocations),
        (1, 1),
        "the served invocation is counted"
    );
    assert_eq!(s.validated_invocations, 1);
    assert_eq!(s.db_errors, 1);
}
