//! End-to-end tests of the HPAC-ML runtime: a full collect → train → deploy
//! cycle through the same annotated region, mirroring the paper's Fig. 1
//! workflow on a small 2-D stencil.

use hpacml_core::{PathTaken, Region};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::{InMemoryDataset, Normalizer};
use hpacml_tensor::Tensor;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-core-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One accurate Jacobi step: 4-neighbour average over the interior.
fn jacobi_step(t: &[f32], tnew: &mut [f32], n: usize, m: usize) {
    for i in 1..n - 1 {
        for j in 1..m - 1 {
            tnew[i * m + j] = 0.25
                * (t[(i - 1) * m + j] + t[(i + 1) * m + j] + t[i * m + j - 1] + t[i * m + j + 1]);
        }
    }
}

fn stencil_source(db: &std::path::Path, model: &std::path::Path) -> String {
    format!(
        r#"
        #pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
        #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))
        #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))
        #pragma approx tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))
        #pragma approx ml(predicated:false) in(t) out(tnew) db("{}") model("{}")
        "#,
        db.display(),
        model.display()
    )
}

fn random_grid(n: usize, m: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n * m)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

#[test]
fn collect_train_deploy_cycle() {
    let dir = tmpdir("cycle");
    let db = dir.join("stencil.h5");
    let model_path = dir.join("stencil.hml");
    let (n, m) = (10usize, 12usize);
    let region = Region::from_source("stencil", &stencil_source(&db, &model_path)).unwrap();
    let binds = Bindings::new().with("N", n as i64).with("M", m as i64);
    // Compiled once; collection and deployment both run through it.
    let session = region
        .session(&binds, &[("t", &[n, m]), ("tnew", &[n, m])], 1)
        .unwrap();

    // Phase 1: data collection over many invocations (predicated:false).
    let invocations = 40usize;
    for k in 0..invocations {
        let t = random_grid(n, m, k as u64 + 1);
        let mut tnew = vec![0.0f32; n * m];
        let mut out = session
            .invoke()
            .input("t", &t)
            .unwrap()
            .run(|| jacobi_step(&t, &mut tnew, n, m))
            .unwrap();
        assert_eq!(out.path(), PathTaken::Accurate);
        out.output("tnew", &mut tnew).unwrap();
        assert_eq!(out.finish().unwrap(), PathTaken::Accurate);
    }
    region.flush_db().unwrap();
    assert!(region.db_size_bytes() > 0);

    // Phase 2: an "ML engineer" loads the database and trains a surrogate.
    let file = hpacml_store::H5File::open(&db).unwrap();
    let group = file.root().group("stencil").unwrap();
    let xs = group.group("inputs").unwrap().dataset("t").unwrap();
    let ys = group.group("outputs").unwrap().dataset("tnew").unwrap();
    assert_eq!(xs.rows(), invocations);
    assert_eq!(xs.inner_shape(), &[n - 2, m - 2, 5]);
    assert_eq!(ys.inner_shape(), &[n - 2, m - 2, 1]);
    let times = group.dataset("region_time_ns").unwrap().read_f64().unwrap();
    assert_eq!(times.len(), invocations);

    // Flatten sweep points into training samples: 5 features -> 1 target.
    let points = invocations * (n - 2) * (m - 2);
    let x = Tensor::from_vec(xs.read_f32().unwrap(), [points, 5]).unwrap();
    let y = Tensor::from_vec(ys.read_f32().unwrap(), [points, 1]).unwrap();
    let ds = InMemoryDataset::new(x, y).unwrap();
    let (train_ds, val_ds) = ds.split(0.8, 7);

    let spec = ModelSpec::mlp(5, &[16], 1, Activation::Tanh, 0.0);
    let mut model = spec.build(3).unwrap();
    let in_norm = Normalizer::fit(&train_ds.x, hpacml_nn::data::NormAxis::PerFeature).unwrap();
    let normed = InMemoryDataset::new(in_norm.transform(&train_ds.x), train_ds.y.clone()).unwrap();
    let normed_val = InMemoryDataset::new(in_norm.transform(&val_ds.x), val_ds.y.clone()).unwrap();
    let cfg = hpacml_nn::TrainConfig {
        epochs: 40,
        batch_size: 128,
        optimizer: hpacml_nn::optim::Optimizer::adam(5e-3, 0.0),
        ..Default::default()
    };
    let hist = hpacml_nn::train(&mut model, &normed, Some(&normed_val), &cfg).unwrap();
    assert!(
        hist.best_val < 1e-3,
        "stencil surrogate should fit well, got {}",
        hist.best_val
    );
    hpacml_nn::serialize::save_model(&model_path, &spec, &model, Some(&in_norm), None).unwrap();

    // Phase 3: deployment — same region, same session, surrogate on.
    let t = random_grid(n, m, 999);
    let mut accurate = vec![0.0f32; n * m];
    jacobi_step(&t, &mut accurate, n, m);

    let mut surrogate_out = vec![0.0f32; n * m];
    let mut out = session
        .invoke()
        .use_surrogate(true)
        .input("t", &t)
        .unwrap()
        .run(|| panic!("accurate path must not run in surrogate mode"))
        .unwrap();
    assert_eq!(out.path(), PathTaken::Surrogate);
    out.output("tnew", &mut surrogate_out).unwrap();
    out.finish().unwrap();

    // The surrogate should approximate the Jacobi average closely, and must
    // only have written the interior.
    let mut max_err = 0.0f32;
    for i in 0..n {
        for j in 0..m {
            let (s, a) = (surrogate_out[i * m + j], accurate[i * m + j]);
            if i == 0 || i == n - 1 || j == 0 || j == m - 1 {
                assert_eq!(s, 0.0, "boundary must be untouched");
            } else {
                max_err = max_err.max((s - a).abs());
            }
        }
    }
    assert!(max_err < 0.15, "surrogate error too high: {max_err}");

    // Stats: one surrogate invocation recorded with full phase coverage.
    let stats = region.stats();
    assert_eq!(stats.invocations, invocations as u64 + 1);
    assert_eq!(stats.surrogate_invocations, 1);
    assert!(stats.to_tensor_ns > 0);
    assert!(stats.inference_ns > 0);
    assert!(stats.from_tensor_ns > 0);
    assert!(stats.accurate_ns > 0);
}

#[test]
fn predicated_interleaving_switches_paths() {
    let dir = tmpdir("interleave");
    let model_path = dir.join("id.hml");
    // Identity surrogate: y = x through a 1->1 linear layer trained trivially.
    let spec = ModelSpec::new(
        vec![1],
        vec![hpacml_nn::LayerSpec::Linear {
            in_features: 1,
            out_features: 1,
        }],
    );
    let mut model = spec.build(1).unwrap();
    // Force weights to the identity.
    model.import_weights(&[vec![1.0], vec![0.0]]).unwrap();
    hpacml_nn::serialize::save_model(&model_path, &spec, &model, None, None).unwrap();

    let src = format!(
        r#"
        #pragma approx tensor functor(idf: [i, 0:1] = ([i]))
        #pragma approx tensor map(to: idf(x[0:N]))
        #pragma approx tensor map(from: idf(y[0:N]))
        #pragma approx ml(predicated:false) in(x) out(y) model("{}")
        "#,
        model_path.display()
    );
    let region = Region::from_source("interleave", &src).unwrap();
    let binds = Bindings::new().with("N", 8);
    let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
    let session = region
        .session(&binds, &[("x", &[8]), ("y", &[8])], 1)
        .unwrap();

    let mut surrogate_hits = 0;
    for step in 0..10 {
        let use_model = step % 3 == 0; // 1:2 interleaving
        let mut y = vec![-1.0f32; 8];
        let mut out = session
            .invoke()
            .use_surrogate(use_model)
            .input("x", &x)
            .unwrap()
            .run(|| y.copy_from_slice(&x))
            .unwrap();
        out.output("y", &mut y).unwrap();
        let path = out.finish().unwrap();
        if use_model {
            assert_eq!(path, PathTaken::Surrogate);
            surrogate_hits += 1;
            for (a, b) in y.iter().zip(&x) {
                assert!((a - b).abs() < 1e-5, "identity surrogate: {a} vs {b}");
            }
        } else {
            assert_eq!(path, PathTaken::Accurate);
            assert_eq!(y, x);
        }
    }
    assert_eq!(surrogate_hits, 4);
    assert_eq!(region.stats().surrogate_invocations, 4);
}

#[test]
fn undeclared_arrays_and_missing_model_are_rejected() {
    let region = Region::from_source(
        "strict",
        r#"
        #pragma approx tensor functor(f: [i, 0:1] = ([i]))
        #pragma approx tensor map(to: f(x[0:N]))
        #pragma approx tensor map(from: f(y[0:N]))
        #pragma approx ml(infer) in(x) out(y)
        "#,
    )
    .unwrap();
    let binds = Bindings::new().with("N", 4);
    let x = [0.0f32; 4];
    let session = region
        .session(&binds, &[("x", &[4]), ("y", &[4])], 1)
        .unwrap();
    // Unknown input name.
    assert!(session.invoke().input("z", &x).is_err());
    // Duplicate input.
    let inv = session.invoke().input("x", &x).unwrap();
    assert!(inv.input("x", &x).is_err());
    // Missing model in infer mode.
    let err = match session.invoke().input("x", &x).unwrap().run(|| {}) {
        Err(e) => e,
        Ok(_) => panic!("expected a missing-model error"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("model"), "unexpected error: {msg}");
}

#[test]
fn collect_without_db_clause_is_noop() {
    let region = Region::from_source(
        "nodb",
        r#"
        #pragma approx tensor functor(f: [i, 0:1] = ([i]))
        #pragma approx tensor map(to: f(x[0:N]))
        #pragma approx tensor map(from: f(y[0:N]))
        #pragma approx ml(collect) in(x) out(y)
        "#,
    )
    .unwrap();
    let binds = Bindings::new().with("N", 4);
    let x = [1.0f32; 4];
    let mut y = [0.0f32; 4];
    let mut ran = false;
    let session = region
        .session(&binds, &[("x", &[4]), ("y", &[4])], 1)
        .unwrap();
    let mut out = session
        .invoke()
        .input("x", &x)
        .unwrap()
        .run(|| ran = true)
        .unwrap();
    out.output("y", &mut y).unwrap();
    out.finish().unwrap();
    assert!(ran);
    assert_eq!(region.db_size_bytes(), 0);
}
