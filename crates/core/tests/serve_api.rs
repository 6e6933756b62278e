//! The concurrent auto-batching submitter: coalesced submissions must match
//! direct per-sample session invocations exactly (order-independent), the
//! occupancy counters must add up, and misuse must fail loudly.

use hpacml_core::serve::BatchServer;
use hpacml_core::{ErrorMetric, Region, ValidationPolicy};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-serve-api").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_mlp(path: &std::path::Path, in_dim: usize, out_dim: usize, seed: u64) {
    let spec = ModelSpec::mlp(in_dim, &[8], out_dim, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

/// Per-sample region: 3 features in, 1 value out.
fn region_for(model: &std::path::Path) -> Region {
    Region::from_source(
        "serve",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
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
fn concurrent_submitters_match_direct_invokes() {
    let dir = tmpdir("parity");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 7);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 8)
        .unwrap();

    let workers = 16usize;
    let samples: Vec<Vec<f32>> = (0..workers)
        .map(|w| (0..3).map(|k| ((w * 3 + k) as f32).sin()).collect())
        .collect();

    // Direct per-sample reference.
    let mut direct = vec![0.0f32; workers];
    for (w, s) in samples.iter().enumerate() {
        let mut out = session
            .invoke()
            .input("x", s)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut direct[w..w + 1]).unwrap();
        out.finish().unwrap();
    }
    region.reset_stats();

    // Concurrent submissions: whatever interleaving the scheduler produces,
    // every worker must get exactly its own sample's result.
    let server = BatchServer::new(&session, Duration::from_millis(20)).unwrap();
    let mut results = vec![0.0f32; workers];
    std::thread::scope(|scope| {
        for (w, r) in results.iter_mut().enumerate() {
            let server = &server;
            let sample = &samples[w];
            scope.spawn(move || {
                let mut out = [0.0f32; 1];
                server.submit(&[sample], &mut [&mut out]).unwrap();
                *r = out[0];
            });
        }
    });
    assert_eq!(results, direct);

    // Occupancy: every sample went through the surrogate, in at least
    // ceil(workers / max_batch) and at most `workers` forward passes.
    let stats = region.stats();
    assert_eq!(stats.batch_submitted, workers as u64);
    assert!(stats.batches_flushed >= (workers as u64).div_ceil(8));
    assert!(stats.batches_flushed <= workers as u64);
    assert!(stats.mean_batch_fill() >= 1.0);
}

#[test]
fn zero_wait_server_still_serves_sequential_submitters() {
    let dir = tmpdir("zero-wait");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 9);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    let server = BatchServer::new(&session, Duration::ZERO).unwrap();
    for w in 0..6 {
        let sample = [w as f32 * 0.1; 3];
        let mut direct = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &sample)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut direct).unwrap();
        out.finish().unwrap();

        let mut served = [0.0f32; 1];
        server.submit(&[&sample], &mut [&mut served]).unwrap();
        assert_eq!(served, direct);
    }
}

#[test]
fn submit_validates_arity_and_lengths() {
    let dir = tmpdir("arity");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 11);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    let server = BatchServer::new(&session, Duration::ZERO).unwrap();
    let sample = [0.5f32; 3];
    let mut out = [0.0f32; 1];
    // Wrong input count.
    assert!(server.submit(&[], &mut [&mut out]).is_err());
    // Wrong per-sample input length.
    assert!(server.submit(&[&sample[..2]], &mut [&mut out]).is_err());
    // Wrong output count / length.
    assert!(server.submit(&[&sample], &mut []).is_err());
    let mut wide = [0.0f32; 2];
    assert!(server.submit(&[&sample], &mut [&mut wide]).is_err());
    // A valid submit still works after the failures.
    assert!(server.submit(&[&sample], &mut [&mut out]).is_ok());
}

#[test]
fn collect_mode_regions_are_rejected() {
    let dir = tmpdir("collect");
    let db = dir.join("d.h5");
    let region = Region::from_source(
        "serve-collect",
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
    let binds = Bindings::new().with("N", 2);
    let session = region
        .session(&binds, &[("x", &[2]), ("y", &[2])], 4)
        .unwrap();
    assert!(BatchServer::new(&session, Duration::ZERO).is_err());
}

/// Many rounds of concurrent submission against a small max_batch: exercises
/// leader handoff, batch close races, and staging recycling.
#[test]
fn sustained_concurrent_load_is_correct() {
    let dir = tmpdir("sustained");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 13);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 3)
        .unwrap();
    let server = BatchServer::new(&session, Duration::from_micros(300)).unwrap();

    let threads = 4usize;
    let rounds = 25usize;
    // Reference results computed directly, one per (thread, round) sample.
    let expect = |t: usize, r: usize| -> f32 {
        let sample = [t as f32 * 0.3, r as f32 * 0.05, 1.0];
        let mut y = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &sample)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        y[0]
    };
    std::thread::scope(|scope| {
        for t in 0..threads {
            let server = &server;
            scope.spawn(move || {
                for r in 0..rounds {
                    let sample = [t as f32 * 0.3, r as f32 * 0.05, 1.0];
                    let mut y = [0.0f32; 1];
                    server.submit(&[&sample], &mut [&mut y]).unwrap();
                    assert_eq!(y[0], expect(t, r), "thread {t} round {r}");
                }
            });
        }
    });
    let stats = region.stats();
    // threads*rounds served submissions + threads*rounds reference invokes.
    assert_eq!(stats.batch_submitted, 2 * (threads * rounds) as u64);
}

/// A lone submitter against a mostly empty server: the leader's deadline
/// flush must serve the straggler as a batch of one, correctly.
#[test]
fn deadline_flush_serves_a_single_straggler() {
    let dir = tmpdir("straggler");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 17);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 8)
        .unwrap();

    let sample = [0.25f32, -0.5, 1.0];
    let mut direct = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &sample)
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    out.output("y", &mut direct).unwrap();
    out.finish().unwrap();
    region.reset_stats();

    let server = BatchServer::new(&session, Duration::from_millis(2)).unwrap();
    let mut served = [0.0f32; 1];
    let t0 = std::time::Instant::now();
    server.submit(&[&sample], &mut [&mut served]).unwrap();
    assert_eq!(served, direct);
    // One deadline-flushed pass with a single member, not a hang.
    assert!(t0.elapsed() < Duration::from_secs(5));
    let s = region.stats();
    assert_eq!(s.batches_flushed, 1);
    assert_eq!(s.batch_submitted, 1);
    assert!((s.mean_batch_fill() - 1.0).abs() < 1e-9);
}

/// Shutdown flushes whatever is staged (parked members complete promptly)
/// and every later submission is rejected.
#[test]
fn shutdown_flushes_pending_and_rejects_later_submits() {
    let dir = tmpdir("shutdown");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 19);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 8)
        .unwrap();
    // A wait long enough that only shutdown can plausibly flush in time.
    let server = BatchServer::new(&session, Duration::from_secs(60)).unwrap();

    let sample = [0.7f32, 0.1, -0.2];
    let mut direct = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &sample)
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    out.output("y", &mut direct).unwrap();
    out.finish().unwrap();

    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        let server = &server;
        let handle = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            server.submit(&[&sample], &mut [&mut y]).unwrap();
            y[0]
        });
        // Wait until the submitter has actually staged its sample, then
        // shut the server down: the forming batch must flush immediately.
        while server.pending() == 0 {
            std::thread::yield_now();
        }
        server.shutdown();
        let served = handle.join().unwrap();
        assert_eq!(served, direct[0]);
    });
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "shutdown must flush the parked member, not wait out the deadline"
    );

    // Rejected from now on; idempotent shutdown stays rejected.
    let mut y = [0.0f32; 1];
    let err = server.submit(&[&sample], &mut [&mut y]).unwrap_err();
    assert!(err.to_string().contains("shut down"), "{err}");
    server.shutdown();
    assert!(server.submit(&[&sample], &mut [&mut y]).is_err());
}

/// max_batch = 1 degenerates the server into an immediate-execute path:
/// every submitter closes its own batch and no one ever parks.
#[test]
fn max_batch_one_degenerate_mode() {
    let dir = tmpdir("degenerate");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 23);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    // An hour-long max_wait: if any submitter were to park as leader, the
    // test would time out. With max_batch = 1 none ever does.
    let server = BatchServer::new(&session, Duration::from_secs(3600)).unwrap();
    for w in 0..5 {
        let sample = [w as f32 * 0.2, 0.4, -0.1];
        let mut direct = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &sample)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut direct).unwrap();
        out.finish().unwrap();
        let mut served = [0.0f32; 1];
        server.submit(&[&sample], &mut [&mut served]).unwrap();
        assert_eq!(served, direct);
    }
    let s = region.stats();
    assert_eq!(
        s.batches_flushed, 10,
        "5 direct + 5 immediate server passes"
    );
}

/// A panic inside the executing member's pass (here: a panicking fallback
/// handler while the region is forced onto the fallback path) must be
/// published as an error to every parked follower — never a deadlock.
#[test]
fn executor_panic_does_not_deadlock_followers() {
    let dir = tmpdir("panic");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 29);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    region.force_fallback(true);
    let server = BatchServer::new(&session, Duration::from_millis(50))
        .unwrap()
        .with_fallback(|_n, _inputs, _outputs| panic!("fallback kernel exploded"));

    std::thread::scope(|scope| {
        let server = &server;
        let handles: Vec<_> = (0..4)
            .map(|w| {
                scope.spawn(move || {
                    let sample = [w as f32; 3];
                    let mut y = [0.0f32; 1];
                    server.submit(&[&sample], &mut [&mut y]).unwrap_err()
                })
            })
            .collect();
        for h in handles {
            let err = h.join().expect("no follower may deadlock or die");
            assert!(err.to_string().contains("panic"), "{err}");
        }
    });

    // The server stays usable for the next batch once the fault clears.
    region.force_fallback(false);
    let sample = [0.5f32; 3];
    let mut y = [0.0f32; 1];
    server.submit(&[&sample], &mut [&mut y]).unwrap();
}

/// Fallback-disabled serving without a handler fails loudly (fanned out to
/// members) instead of silently serving an over-budget surrogate; with a
/// handler, the batch is served by the host code and counted as fallback.
#[test]
fn fallback_serving_with_and_without_handler() {
    let dir = tmpdir("fallback");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 31);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    region.force_fallback(true);

    let bare = BatchServer::new(&session, Duration::ZERO).unwrap();
    let sample = [0.3f32, 0.6, 0.9];
    let mut y = [0.0f32; 1];
    let err = bare.submit(&[&sample], &mut [&mut y]).unwrap_err();
    assert!(err.to_string().contains("no fallback handler"), "{err}");

    // With a handler: the host code serves, bit-exactly.
    let served = BatchServer::new(&session, Duration::ZERO)
        .unwrap()
        .with_fallback(|n, inputs, outputs| {
            for s in 0..n {
                outputs[0][s] = inputs[0][s * 3] + inputs[0][s * 3 + 1] + inputs[0][s * 3 + 2];
            }
        });
    served.submit(&[&sample], &mut [&mut y]).unwrap();
    assert_eq!(y[0], 0.3 + 0.6 + 0.9);
    let s = region.stats();
    assert_eq!(s.fallback_invocations, 1);
    assert_eq!(s.surrogate_invocations, 0);
}

/// The server participates in adaptive validation end to end: a handler
/// that disagrees with the model drives the controller over budget, the
/// next flushes are served by the handler, and once the handler agrees
/// again the probes re-enable the surrogate.
#[test]
fn server_adaptive_fallback_round_trip() {
    let dir = tmpdir("adaptive");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 37);
    let region = region_for(&model);
    // A second region over the same model, with no policy attached: its
    // session computes the model's reference values without ever being
    // drawn for shadow validation (which would run the closure).
    let oracle_region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 2)
        .unwrap();
    let oracle = oracle_region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    region
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::MaxAbs, 0.5)
                .with_sample_rate(1)
                .with_window(1)
                .with_batch_samples(0),
        )
        .unwrap();

    // Phase is shared with the handler via an atomic: 0 = agree with the
    // model (serve the oracle's value), 1 = drift hard.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let drift = AtomicUsize::new(0);
    let reference_y = |x: &[f32]| -> f32 {
        let mut y = [0.0f32; 1];
        let mut out = oracle
            .invoke()
            .input("x", x)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        y[0]
    };
    let server = BatchServer::new(&session, Duration::ZERO)
        .unwrap()
        .with_fallback(|n, inputs, outputs| {
            for s in 0..n {
                let x = &inputs[0][s * 3..(s + 1) * 3];
                outputs[0][s] = if drift.load(Ordering::Relaxed) == 1 {
                    reference_y(x) + 10.0
                } else {
                    reference_y(x)
                };
            }
        });

    let sample = [0.2f32, -0.4, 0.8];
    let expect = reference_y(&sample);
    let mut y = [0.0f32; 1];

    // Agreeing handler: surrogate serves, shadow errors are 0.
    server.submit(&[&sample], &mut [&mut y]).unwrap();
    assert_eq!(y[0], expect);
    assert!(region.surrogate_active());

    // Drifting handler: the shadow comparison trips the controller.
    drift.store(1, Ordering::Relaxed);
    server.submit(&[&sample], &mut [&mut y]).unwrap();
    assert_eq!(
        y[0], expect,
        "the drifting flush itself is still surrogate-served"
    );
    assert!(!region.surrogate_active(), "shadow drift must disable");

    // Fallback-served flush returns the handler's (drifted) values.
    server.submit(&[&sample], &mut [&mut y]).unwrap();
    assert_eq!(y[0], expect + 10.0);

    // Recovered handler: the probe sees agreement and re-enables.
    drift.store(0, Ordering::Relaxed);
    server.submit(&[&sample], &mut [&mut y]).unwrap();
    assert_eq!(y[0], expect, "recovery flush is handler-served");
    assert!(region.surrogate_active(), "probe agreement re-enables");

    server.submit(&[&sample], &mut [&mut y]).unwrap();
    assert_eq!(y[0], expect);
    let s = region.stats();
    assert_eq!(s.surrogate_disables, 1);
    assert_eq!(s.surrogate_reenables, 1);
    assert!(s.validated_invocations >= 3);
}

/// Monitoring must never destroy correctly served results: a fallback
/// handler that panics while acting as the *shadow reference* (surrogate
/// active, flush drawn for validation) is contained — every member still
/// receives the surrogate's valid outputs.
#[test]
fn panicking_shadow_reference_does_not_destroy_served_results() {
    let dir = tmpdir("shadow-panic");
    let model = dir.join("m.hml");
    save_mlp(&model, 3, 1, 41);
    let region = region_for(&model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    let sample = [0.4f32, -0.3, 0.9];
    let mut direct = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &sample)
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    out.output("y", &mut direct).unwrap();
    out.finish().unwrap();

    region
        .set_validation_policy(
            hpacml_core::ValidationPolicy::new(hpacml_core::ErrorMetric::Rmse, 1e9)
                .with_sample_rate(1),
        )
        .unwrap();
    let server = BatchServer::new(&session, Duration::ZERO)
        .unwrap()
        .with_fallback(|_n, _inputs, _outputs| panic!("shadow reference exploded"));
    let mut y = [0.0f32; 1];
    // Every flush is drawn (rate 1) and the shadow reference panics, yet
    // the submit succeeds with the surrogate's bits.
    server.submit(&[&sample], &mut [&mut y]).unwrap();
    assert_eq!(y, direct);
    assert!(
        region.surrogate_active(),
        "a panicked shadow observes nothing"
    );
}
