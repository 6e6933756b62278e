//! Property tests of the runtime batch dimension: for random per-sample
//! region specs (feature width, model shape, seed), random batch sizes and
//! random input data, `invoke_batch(n)` must be **bit-identical** to `n`
//! sequential `invoke()` calls on a single-sample session — and the
//! concurrent auto-batching submitter must produce the same bits regardless
//! of the order submissions land in.

use hpacml_core::serve::BatchServer;
use hpacml_core::Region;
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use proptest::prelude::*;
use std::time::Duration;

/// Save a fixed-seed MLP `feat -> hidden -> out_dim` and return its path.
fn saved_model(feat: usize, hidden: usize, out_dim: usize, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hpacml-prop-batch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("mlp-{feat}-{hidden}-{out_dim}-{seed}.hml"));
    if !path.exists() {
        let spec = ModelSpec::mlp(feat, &[hidden], out_dim, Activation::Tanh, 0.0);
        let model = spec.build(seed).unwrap();
        hpacml_nn::serialize::save_model(&path, &spec, &model, None, None).unwrap();
    }
    path
}

/// A per-sample region: `feat` features per sweep element, `out_dim` outputs.
fn per_sample_region(feat: usize, out_dim: usize, model: &std::path::Path) -> Region {
    Region::from_source(
        "prop-batch",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:{feat}] = ([{feat}*i : {feat}*i+{feat}]))
            #pragma approx tensor functor(outs: [i, 0:{out_dim}] = ([{out_dim}*i : {out_dim}*i+{out_dim}]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(outs(y[0:N])) model("{}")
            "#,
            model.display()
        ),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// invoke_batch(n) == n sequential single-sample invokes, bit for bit,
    /// for random region widths, model seeds, batch sizes and data.
    #[test]
    fn batched_invocation_matches_sequential_one_shots(
        feat in 1usize..5,
        hidden in 2usize..12,
        out_dim in 1usize..3,
        n in 1usize..20,
        model_seed in 0u64..6,
        data_seed in 0u64..1000,
    ) {
        // Headroom above n so batches regularly run below max_batch.
        let max_batch = n + (data_seed % 8) as usize;
        let model = saved_model(feat, hidden, out_dim, model_seed);
        let region = per_sample_region(feat, out_dim, &model);
        let binds = Bindings::new().with("N", 1);

        // Deterministic pseudo-random input data.
        let mut s = data_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        let x: Vec<f32> = (0..n * feat).map(|_| next()).collect();

        // Reference: n sequential invocations of a session that cannot
        // batch (max_batch = 1), one sample each.
        let single = region
            .session(&binds, &[("x", &[feat]), ("y", &[out_dim])], 1).unwrap();
        let mut y_seq = vec![0.0f32; n * out_dim];
        for i in 0..n {
            let mut out = single
                .invoke()
                .input("x", &x[i * feat..(i + 1) * feat]).unwrap()
                .run(|| unreachable!()).unwrap();
            out.output("y", &mut y_seq[i * out_dim..(i + 1) * out_dim]).unwrap();
            out.finish().unwrap();
        }

        // One batched invocation through a compiled session.
        let session = region
            .session(&binds, &[("x", &[feat]), ("y", &[out_dim])], max_batch).unwrap();
        let mut y_batch = vec![0.0f32; n * out_dim];
        let mut out = session
            .invoke_batch(n).unwrap()
            .input("x", &x).unwrap()
            .run(|| unreachable!()).unwrap();
        out.output("y", &mut y_batch).unwrap();
        out.finish().unwrap();
        prop_assert_eq!(&y_batch, &y_seq);

        // The concurrent submitter coalesces however the scheduler lands the
        // threads — every sample must still come back bit-identical.
        let server = BatchServer::new(&session, Duration::from_millis(2)).unwrap();
        let mut y_served = vec![0.0f32; n * out_dim];
        std::thread::scope(|scope| {
            for (i, chunk) in y_served.chunks_mut(out_dim).enumerate() {
                let server = &server;
                let sample = &x[i * feat..(i + 1) * feat];
                scope.spawn(move || {
                    server.submit(&[sample], &mut [chunk]).unwrap();
                });
            }
        });
        prop_assert_eq!(&y_served, &y_seq);
    }
}
