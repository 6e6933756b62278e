//! Fault-tolerant serving, admission control and retry/degrade behavior —
//! the failure-path contract: rejections are typed and counted, permanent
//! surrogate failures degrade to the host closure through the fallback
//! controller, db I/O failures retry then surface with counters, and the
//! server's adaptive wait tracks occupancy.

use hpacml_core::serve::BatchServer;
use hpacml_core::{
    CoreError, ErrorMetric, PathTaken, Region, RetryPolicy, ServeError, ValidationPolicy,
};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_tensor::TensorError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hpacml-robustness-api")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_mlp(path: &std::path::Path, seed: u64) {
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

/// Per-sample infer region: 3 features in, 1 value out.
fn infer_region(name: &str, model: &std::path::Path) -> Region {
    Region::from_source(
        name,
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

/// Collect-mode region persisting to `db`.
fn collect_region(name: &str, db: &std::path::Path) -> Region {
    Region::from_source(
        name,
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(collect) in(x) out(single(y[0:N])) db("{}")
            "#,
            db.display()
        ),
    )
    .unwrap()
}

fn collect_one(region: &Region, binds: &Bindings, x: &[f32; 3], yv: f32) {
    let session = region
        .session(binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    let mut y = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", x)
        .unwrap()
        .run(|| y[0] = yv)
        .unwrap();
    out.output("y", &mut y).unwrap();
    out.finish().unwrap();
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn overload_rejection_is_typed_counted_and_recoverable() {
    let dir = tmpdir("overload");
    let model = dir.join("m.hml");
    save_mlp(&model, 3);
    let region = infer_region("overload", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();

    let sample = [0.3f32, -0.1, 0.7];
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

    // Cap of 1: while one sample is staged, the next submit is shed.
    let server = BatchServer::new(&session, Duration::from_secs(5))
        .unwrap()
        .with_max_pending(1);
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            let mut out = [0.0f32; 1];
            server.submit(&[&sample], &mut [&mut out]).map(|()| out[0])
        });
        while server.in_flight() < 1 {
            std::thread::yield_now();
        }
        let mut out = [0.0f32; 1];
        let err = server.submit(&[&sample], &mut [&mut out]).unwrap_err();
        match err {
            CoreError::Serve(ServeError::Overloaded {
                pending,
                max_pending,
                ..
            }) => {
                assert!(pending >= 1);
                assert_eq!(max_pending, 1);
            }
            other => panic!("expected Overloaded, got: {other}"),
        }
        // The shed submit left the server fully usable: drain the parked
        // leader and its result is bit-identical to the direct invoke.
        server.drain();
        assert_eq!(leader.join().unwrap().unwrap(), direct[0]);
    });
    let s = region.stats();
    assert_eq!(s.serve_rejected_overload, 1);
    assert_eq!(s.serve_rejected_deadline, 0);
    // Rejected submissions never count as served work.
    assert_eq!(s.batch_submitted, 1);
}

#[test]
fn closed_loop_overload_sheds_serves_and_meets_deadlines() {
    let dir = tmpdir("overload-burst");
    let model = dir.join("m.hml");
    save_mlp(&model, 9);
    let region = infer_region("overloadburst", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 2)
        .unwrap();
    let server = BatchServer::new(&session, Duration::from_millis(2))
        .unwrap()
        .with_max_pending(2);

    // Every submitter sends this one row. Rows are computed independently of
    // the batch they ride in, so each served value must reproduce the bits
    // of a solo fill-1 submit.
    let sample = [0.4f32, -0.2, 0.9];
    let mut reference = [0.0f32; 1];
    server.submit(&[&sample], &mut [&mut reference]).unwrap();
    region.reset_stats();

    // Eight closed-loop submitters against a cap of two: most of them find
    // the server full at any instant. The budget is ~100x `max_wait`, so an
    // admitted request can only miss it if the server stalls.
    let (submitters, iters) = (8u64, 150u64);
    let budget = Duration::from_millis(200);
    let served = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..submitters {
            scope.spawn(|| {
                let mut y = [0.0f32; 1];
                for _ in 0..iters {
                    let t0 = Instant::now();
                    match server.submit_with_deadline(&[&sample], &mut [&mut y], budget) {
                        Ok(()) => {
                            let waited = t0.elapsed();
                            assert!(waited <= budget, "admitted, then held {waited:?}");
                            assert_eq!(y[0].to_bits(), reference[0].to_bits());
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(CoreError::Serve(ServeError::Overloaded { .. })) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                        // In particular no `Deadline`: a batch here flushes
                        // within 2 ms, far inside every budget.
                        Err(other) => panic!("only Overloaded may surface: {other}"),
                    }
                }
            });
        }
    });
    let (served, shed) = (served.into_inner(), shed.into_inner());
    assert_eq!(served + shed, submitters * iters);
    assert!(shed > 0, "the cap must bind under 4x oversubscription");
    assert!(served > 0, "backpressure must still serve");
    let s = region.stats();
    assert_eq!(s.serve_rejected_overload, shed);
    assert_eq!(s.serve_rejected_deadline, 0);
    assert_eq!(s.batch_submitted, served);
}

#[test]
fn deadline_rejection_is_up_front_and_counted() {
    let dir = tmpdir("deadline");
    let model = dir.join("m.hml");
    save_mlp(&model, 5);
    let region = infer_region("deadline", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 2)
        .unwrap();
    let server = BatchServer::new(&session, Duration::from_secs(5)).unwrap();

    let sample = [0.1f32, 0.2, 0.3];
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            let mut out = [0.0f32; 1];
            server.submit(&[&sample], &mut [&mut out]).map(|()| out[0])
        });
        while server.pending() < 1 {
            std::thread::yield_now();
        }
        // The forming batch flushes ~5s out; a 1ns budget cannot make it.
        let budget = Duration::from_nanos(1);
        let mut out = [0.0f32; 1];
        let err = server
            .submit_with_deadline(&[&sample], &mut [&mut out], budget)
            .unwrap_err();
        match err {
            CoreError::Serve(ServeError::Deadline {
                budget_ns,
                flush_in_ns,
                ..
            }) => {
                assert_eq!(budget_ns, 1);
                assert!(flush_in_ns > budget_ns);
            }
            other => panic!("expected Deadline, got: {other}"),
        }
        // A budget that covers the flush joins normally — and filling the
        // batch (max_batch = 2) flushes it immediately, completing both.
        let mut out2 = [0.0f32; 1];
        server
            .submit_with_deadline(&[&sample], &mut [&mut out2], Duration::from_secs(60))
            .unwrap();
        let lead_y = leader.join().unwrap().unwrap();
        assert_eq!(lead_y, out2[0], "same sample, same batch, same result");
    });
    let s = region.stats();
    assert_eq!(s.serve_rejected_deadline, 1);
    assert_eq!(s.serve_rejected_overload, 0);

    // A tight-deadline submit that *leads* a new batch is admitted: the
    // batch's own wait shrinks to fit the budget.
    let mut out = [0.0f32; 1];
    server
        .submit_with_deadline(&[&sample], &mut [&mut out], Duration::ZERO)
        .unwrap();
    assert_eq!(region.stats().serve_rejected_deadline, 1);
}

#[test]
fn adaptive_wait_tracks_occupancy() {
    let dir = tmpdir("adaptive");
    let model = dir.join("m.hml");
    save_mlp(&model, 7);
    let region = infer_region("adaptive", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    let max_wait = Duration::from_millis(100);
    let server = BatchServer::new(&session, max_wait).unwrap();
    assert_eq!(server.current_max_wait(), max_wait);

    // Light load: solo submits flush 1/4-full batches; the leader wait
    // decays toward zero so lone requests stop paying for company that
    // never comes.
    let sample = [0.5f32, 0.5, 0.5];
    for _ in 0..5 {
        let mut out = [0.0f32; 1];
        server.submit(&[&sample], &mut [&mut out]).unwrap();
    }
    let after_solo = server.current_max_wait();
    assert!(
        after_solo < max_wait / 2,
        "five 1/4-fill flushes must at least halve the wait (got {after_solo:?})"
    );

    // Heavy load: full batches pull the wait back up toward the bound.
    for _ in 0..3 {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let server = &server;
                scope.spawn(move || {
                    let mut out = [0.0f32; 1];
                    server
                        .submit(&[&[0.2f32, 0.4, 0.6]], &mut [&mut out])
                        .unwrap();
                });
            }
        });
    }
    let after_burst = server.current_max_wait();
    assert!(
        after_burst > after_solo,
        "fuller flushes must grow the wait back ({after_solo:?} -> {after_burst:?})"
    );
    assert!(after_burst <= max_wait);
}

#[test]
fn deadline_rejection_saturates_absurd_horizons() {
    // `Duration` can hold ~2^64 seconds; `as_nanos()` of such a value does
    // not fit u64. The rejection diagnostics must saturate, not truncate —
    // a truncated `flush_in_ns` would report a tiny horizon and mask why
    // the submit was shed.
    let dir = tmpdir("saturate");
    let model = dir.join("m.hml");
    save_mlp(&model, 13);
    let region = infer_region("saturate", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    // 2^40 seconds ≈ 1.1e21 ns: legal Duration, un-representable as u64 ns.
    let server = BatchServer::new(&session, Duration::from_secs(1 << 40)).unwrap();

    let sample = [0.1f32, 0.2, 0.3];
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            let mut out = [0.0f32; 1];
            server.submit(&[&sample], &mut [&mut out]).map(|()| out[0])
        });
        while server.pending() < 1 {
            std::thread::yield_now();
        }
        // Budget of 2^39 s is also beyond u64 ns, yet below the flush
        // horizon — both reported fields must pin at u64::MAX.
        let mut out = [0.0f32; 1];
        let err = server
            .submit_with_deadline(&[&sample], &mut [&mut out], Duration::from_secs(1 << 39))
            .unwrap_err();
        match err {
            CoreError::Serve(ServeError::Deadline {
                budget_ns,
                flush_in_ns,
                ..
            }) => {
                assert_eq!(budget_ns, u64::MAX, "budget must saturate, not wrap");
                assert_eq!(flush_in_ns, u64::MAX, "horizon must saturate, not wrap");
            }
            other => panic!("expected Deadline, got: {other}"),
        }
        // Release the leader parked on the absurd wait.
        server.drain();
        leader.join().unwrap().unwrap();
    });
    assert_eq!(region.stats().serve_rejected_deadline, 1);
}

#[test]
fn cold_server_adapts_after_first_flush() {
    // A cold server's EWMA must be *seeded* by the first observed fill,
    // not blended with the optimistic 1.0 prior — otherwise the first
    // several light-load submitters each pay most of `max_wait` while the
    // average walks down.
    let dir = tmpdir("coldstart");
    let model = dir.join("m.hml");
    save_mlp(&model, 17);
    let region = infer_region("coldstart", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 8)
        .unwrap();
    let max_wait = Duration::from_millis(100);
    let server = BatchServer::new(&session, max_wait).unwrap();

    // The very first submit still waits for company (no data yet).
    let sample = [0.5f32, 0.5, 0.5];
    let mut out = [0.0f32; 1];
    server.submit(&[&sample], &mut [&mut out]).unwrap();

    // One 1/8-fill flush seeds the EWMA at 0.125: the wait collapses to an
    // eighth of the bound. The old blend would leave it at ~0.78.
    let after_one = server.current_max_wait();
    assert!(
        after_one <= max_wait / 4,
        "one light flush must collapse the cold wait (got {after_one:?})"
    );

    // And the second solo submitter observes the collapsed wait directly.
    let t0 = std::time::Instant::now();
    server.submit(&[&sample], &mut [&mut out]).unwrap();
    let second = t0.elapsed();
    assert!(
        second < max_wait / 2,
        "second solo submit must not pay the cold-start wait (took {second:?})"
    );
}

#[test]
fn batch_failure_names_member_and_fill() {
    let dir = tmpdir("member");
    let model = dir.join("m.hml");
    save_mlp(&model, 9);
    let region = infer_region("member", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 2)
        .unwrap();
    // Force fallback with no handler installed: every flush fails, and the
    // fan-out must tell each member its own slot and the batch fill.
    region.force_fallback(true);
    let server = BatchServer::new(&session, Duration::from_secs(5)).unwrap();
    let mut members = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = [0.0f32; 1];
                    server.submit(&[&[0.1f32, 0.2, 0.3]], &mut [&mut out])
                })
            })
            .collect();
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            match err {
                CoreError::Serve(ServeError::Batch {
                    member, fill, msg, ..
                }) => {
                    assert_eq!(fill, 2);
                    assert!(msg.contains("fallback"), "unexpected message: {msg}");
                    members.push(member);
                }
                other => panic!("expected Batch, got: {other}"),
            }
        }
    });
    members.sort_unstable();
    assert_eq!(members, vec![0, 1], "each member gets its own slot index");
}

#[test]
fn shutdown_rejection_is_typed() {
    let dir = tmpdir("shutdown");
    let model = dir.join("m.hml");
    save_mlp(&model, 11);
    let region = infer_region("shutdown", &model);
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 2)
        .unwrap();
    let server = BatchServer::new(&session, Duration::ZERO).unwrap();
    server.shutdown();
    let mut out = [0.0f32; 1];
    let err = server
        .submit(&[&[0.0f32, 0.0, 0.0]], &mut [&mut out])
        .unwrap_err();
    assert!(matches!(err, CoreError::Serve(ServeError::ShutDown { .. })));
}

// ---------------------------------------------------------------------------
// Retry/backoff and db-error accounting
// ---------------------------------------------------------------------------

#[test]
fn db_flush_failure_retries_then_counts() {
    let dir = tmpdir("db-flush");
    let db = dir.join("sub").join("d.h5");
    let region = collect_region("dbflush", &db);
    let binds = Bindings::new().with("N", 1);
    collect_one(&region, &binds, &[0.1, 0.2, 0.3], 1.0);
    region.flush_db().unwrap();
    assert!(db.exists());
    let clean = region.stats();
    assert_eq!(clean.db_errors, 0);
    assert_eq!(clean.retry_attempts, 0);
    assert_eq!(clean.retry_giveups, 0);

    // Yank the directory out from under the store, with one more row to
    // persist (a flush with nothing new touches no file): the log it would
    // append to is gone, so it rewrites, and the atomic-rename flush can no
    // longer create its temp file. Default policy = 3 attempts.
    std::fs::remove_dir_all(&dir).unwrap();
    collect_one(&region, &binds, &[0.4, 0.5, 0.6], 2.0);
    let err = region.flush_db().unwrap_err();
    assert!(format!("{err}").contains("io"), "unexpected error: {err}");
    let s = region.stats();
    assert_eq!(s.db_errors, 1);
    assert_eq!(s.retry_attempts, 2, "3 attempts = 2 retries");
    assert_eq!(s.retry_giveups, 1);

    // Restoring the directory lets the same handle flush cleanly — the
    // collected rows were never lost, only unpersisted.
    std::fs::create_dir_all(db.parent().unwrap()).unwrap();
    region.flush_db().unwrap();
    assert!(db.exists());
    assert_eq!(region.stats().db_errors, 1, "recovered flush adds no error");
    // The handle noticed its file was gone and wrote both rows from row 0
    // rather than appending the second to nothing.
    let file = hpacml_store::H5File::open(&db).unwrap();
    assert!(file.recovery().is_none());
    let inputs = file
        .root()
        .group("dbflush")
        .unwrap()
        .group("inputs")
        .unwrap();
    assert_eq!(
        inputs.dataset("x").unwrap().read_f32().unwrap(),
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    );
}

/// A db written in the pre-log v2 layout is no longer read: the
/// first collection into it is a typed error, counted once, and the file is
/// left byte-identical — the region never replaces it with a fresh log, not
/// on a later flush and not on drop.
#[test]
fn a_pre_log_db_is_refused_never_overwritten() {
    let dir = tmpdir("pre-log-db");
    let db = dir.join("old.h5");
    // The v2 magic (`H5LITE` then `02`) and root block: length, FNV-1a
    // checksum, then an empty group.
    let empty = [0u8; 8];
    let mut old = b"H5LITE0".to_vec();
    old.push(b'2');
    old.extend(8u64.to_le_bytes());
    old.extend(hpacml_faults::fnv1a64(&empty).to_le_bytes());
    old.extend(empty);
    std::fs::write(&db, &old).unwrap();
    {
        let region = collect_region("prelog", &db);
        region.set_retry_policy(RetryPolicy::none());
        let binds = Bindings::new().with("N", 1);
        let session = region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
            .unwrap();
        let mut y = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &[0.1, 0.2, 0.3])
            .unwrap()
            .run(|| y[0] = 1.0)
            .unwrap();
        out.output("y", &mut y).unwrap();
        let err = out.finish().unwrap_err();
        assert!(
            matches!(err, CoreError::Store(hpacml_store::StoreError::BadMagic)),
            "{err}"
        );
        assert_eq!(region.stats().db_errors, 1);
        region.flush_db().unwrap();
        assert_eq!(std::fs::read(&db).unwrap(), old);
    }
    assert_eq!(std::fs::read(&db).unwrap(), old, "the drop wrote");
}

/// Flush a db whose tree holds a dataset at `at`, where the runtime keeps
/// a group.
fn squat(db: &std::path::Path, at: &[&str]) {
    let mut f = hpacml_store::H5File::create(db);
    let (name, dirs) = at.split_last().unwrap();
    let g = dirs.iter().fold(f.root_mut(), |g, dir| g.group_mut(dir));
    g.dataset_mut(name, hpacml_store::DType::F64, &[])
        .unwrap()
        .append_f64(&[1.0])
        .unwrap();
    f.flush().unwrap();
}

/// A db the directive names is read, not trusted: a dataset where the
/// region's group, its `inputs` or its `validation` group belongs fails the
/// write with a typed error counted in `db_errors`, and the outputs the
/// invocation produced stand.
#[test]
fn a_dataset_where_a_group_belongs_is_a_db_error() {
    let dir = tmpdir("dataset-for-group");
    let binds = Bindings::new().with("N", 1);
    let shapes: [(&str, &[usize]); 2] = [("x", &[3]), ("y", &[1])];
    let not_a_group =
        |err: &CoreError| matches!(err, CoreError::Store(hpacml_store::StoreError::NotFound(_)));

    // The collect path: the region's group, then its `inputs`.
    for at in [&["squat"][..], &["squat", "inputs"]] {
        let db = dir.join(format!("{}.h5", at.join("-")));
        squat(&db, at);
        let region = collect_region("squat", &db);
        region.set_retry_policy(RetryPolicy::none());
        let session = region.session(&binds, &shapes, 1).unwrap();
        let mut y = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &[0.1, 0.2, 0.3])
            .unwrap()
            .run(|| y[0] = 4.0)
            .unwrap();
        out.output("y", &mut y).unwrap();
        let err = out.finish().unwrap_err();
        assert!(not_a_group(&err), "{at:?}: {err}");
        assert_eq!(y[0], 4.0, "{at:?}: the host output stands");
        assert_eq!(region.stats().db_errors, 1, "{at:?}");
    }

    // The validation-row path: the surrogate's output is served and the
    // invocation counted before the row write fails.
    let model = dir.join("m.hml");
    save_mlp(&model, 11);
    let db = dir.join("validation.h5");
    squat(&db, &["vsquat", "validation"]);
    let region = Region::from_source(
        "vsquat",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
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
    let session = region.session(&binds, &shapes, 1).unwrap();
    let infer = |host: f32| {
        let mut y = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &[0.3, 0.2, 0.1])
            .unwrap()
            .run(|| y[0] = host)
            .unwrap();
        out.output("y", &mut y).unwrap();
        (out.finish(), y[0])
    };
    let (path, served) = infer(f32::NAN);
    assert_eq!(path.unwrap(), PathTaken::Surrogate);
    region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 1e9).with_sample_rate(1))
        .unwrap();
    let (res, y) = infer(9.0);
    let err = res.unwrap_err();
    assert!(not_a_group(&err), "validation: {err}");
    assert_eq!(y, served, "the surrogate's output stands");
    let s = region.stats();
    assert_eq!((s.invocations, s.validated_invocations), (2, 1));
    assert_eq!(s.db_errors, 1);
}

#[test]
fn retry_policy_none_fails_fast() {
    let dir = tmpdir("fail-fast");
    let db = dir.join("d.h5");
    let region = collect_region("failfast", &db);
    region.set_retry_policy(RetryPolicy::none());
    assert_eq!(region.retry_policy(), RetryPolicy::none());
    let binds = Bindings::new().with("N", 1);
    collect_one(&region, &binds, &[0.4, 0.5, 0.6], 2.0);
    std::fs::remove_dir_all(&dir).unwrap();
    region.flush_db().unwrap_err();
    let s = region.stats();
    assert_eq!(s.retry_attempts, 0, "none() never retries");
    assert_eq!(s.retry_giveups, 1);
    assert_eq!(s.db_errors, 1);
    // Leave the directory in place so the drop-time flush succeeds quietly.
    std::fs::create_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Degrade-to-host through the fallback controller
// ---------------------------------------------------------------------------

#[test]
fn missing_model_without_policy_still_errors() {
    let dir = tmpdir("no-policy");
    let region = infer_region("nopolicy", &dir.join("missing.hml"));
    region.set_retry_policy(RetryPolicy::none());
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    // No controller: nothing to recover through, so the error surfaces.
    assert!(session
        .invoke()
        .input("x", &[0.0f32; 3])
        .unwrap()
        .run(|| ())
        .is_err());
    let s = region.stats();
    assert_eq!(s.surrogate_errors, 1);
    assert!(s.retry_giveups >= 1);
}

#[test]
fn permanent_model_failure_degrades_session_to_host() {
    let dir = tmpdir("degrade-session");
    let model = dir.join("late.hml");
    let region = infer_region("degrade", &model);
    region.set_retry_policy(RetryPolicy::none());
    region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 1e9).with_sample_rate(1000))
        .unwrap();
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();

    // The model file does not exist: the pass fails permanently, the
    // invocation is served by the closure, and the controller trips.
    let mut y = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &[0.2f32, 0.4, 0.6])
        .unwrap()
        .run(|| y[0] = 5.0)
        .unwrap();
    out.output("y", &mut y).unwrap();
    assert_eq!(out.finish().unwrap(), PathTaken::Accurate);
    assert_eq!(y[0], 5.0, "host closure served the degraded invocation");
    assert!(!region.surrogate_active(), "controller tripped");

    // Subsequent invocations skip the broken surrogate up front: no new
    // surrogate error, served as ordinary fallbacks.
    let mut y2 = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &[0.2f32, 0.4, 0.6])
        .unwrap()
        .run(|| y2[0] = 6.0)
        .unwrap();
    out.output("y", &mut y2).unwrap();
    assert_eq!(out.finish().unwrap(), PathTaken::Accurate);
    assert_eq!(y2[0], 6.0);

    let s = region.stats();
    assert_eq!(s.surrogate_errors, 1, "only the failing pass counts");
    assert_eq!(s.fallback_invocations, 2);
    assert_eq!(s.surrogate_invocations, 0);
}

#[test]
fn tripped_controller_recovers_when_the_model_appears() {
    let dir = tmpdir("recover");
    let model = dir.join("late.hml");
    let region = infer_region("recover", &model);
    region
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::Rmse, 1e9)
                .with_sample_rate(1)
                .with_window(1),
        )
        .unwrap();
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
        .unwrap();
    let invoke_host = |yv: f32| {
        let mut y = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &[0.3f32, 0.6, 0.9])
            .unwrap()
            .run(|| y[0] = yv)
            .unwrap();
        out.output("y", &mut y).unwrap();
        (out.finish().unwrap(), y[0])
    };

    // Trip on the missing model.
    let (path, y) = invoke_host(1.0);
    assert_eq!((path, y), (PathTaken::Accurate, 1.0));
    assert!(!region.surrogate_active());

    // The model shows up (a deploy completes); recovery probes on drawn
    // fallback invocations walk the controller back to enabled.
    save_mlp(&model, 21);
    for i in 0..4 {
        if region.surrogate_active() {
            break;
        }
        let (path, _) = invoke_host(i as f32);
        assert_eq!(path, PathTaken::Accurate);
    }
    assert!(
        region.surrogate_active(),
        "probes re-enable once the model loads"
    );
    let s = region.stats();
    assert!(s.surrogate_reenables >= 1);

    // And the next invocation actually serves the surrogate.
    let (path, _) = invoke_host(f32::NAN);
    assert_eq!(path, PathTaken::Surrogate);
}

/// A session build reserves its gather and staging buffers, so a plan no
/// buffer can hold fails the build with a typed error. The per-thread
/// record of what was reserved used to key on the session core's address:
/// a core allocated where a dropped one had been skipped the reservation,
/// the build returned `Ok`, and the first `input()` then aborted the
/// process on a 4 TB allocation. The sweep below reads `x[0]` at every `i`,
/// so `N` sizes the plan without any array of that size existing.
#[test]
fn a_plan_no_buffer_can_hold_fails_the_build_after_a_dropped_session() {
    let dir = tmpdir("size-gate-after-drop");
    let model = dir.join("m.hml");
    let spec = ModelSpec::mlp(1, &[8], 1, Activation::Tanh, 0.0);
    let built = spec.build(3).unwrap();
    hpacml_nn::serialize::save_model(&model, &spec, &built, None, None).unwrap();
    let region = Region::from_source(
        "size-gate-after-drop",
        &format!(
            r#"
            #pragma approx tensor functor(first: [i, 0:1] = ([0]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: first(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")
            "#,
            model.display()
        ),
    )
    .unwrap();
    let build = |n: usize| {
        let binds = Bindings::new().with("N", n as i64);
        region
            .session(&binds, &[("x", &[n]), ("y", &[n])], 1)
            .map(drop)
    };
    for round in 0..16 {
        build(1 << 20).unwrap();
        match build(1 << 40) {
            Err(CoreError::Tensor(TensorError::Reserve { elems })) => {
                assert_eq!(elems, 1 << 40, "round {round}")
            }
            other => panic!("round {round}: N = 2^40 built: {other:?}"),
        }
    }
}
