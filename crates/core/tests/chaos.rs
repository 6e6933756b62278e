//! Chaos suite: deterministic fault injection against the serving stack.
//!
//! Compiled only with `--features fault-injection` (the seams are no-ops
//! otherwise). Every scenario installs a seeded [`hpacml_faults::Plan`],
//! drives the runtime through the injected failure, and asserts the
//! fault-tolerance contract: a fault surfaces as a **typed error**, is
//! **absorbed by retry/degrade**, or leaves results **bit-identical** —
//! never a hang, never garbage. The thread matrix comes from
//! `HPACML_THREADS` (CI runs 1, 3 and 8).
#![cfg(feature = "fault-injection")]

use hpacml_core::serve::BatchServer;
use hpacml_core::{
    CoreError, ErrorMetric, PathTaken, Region, RetryPolicy, ServeError, ValidationPolicy,
};
use hpacml_directive::sema::Bindings;
use hpacml_faults::{FaultKind, Plan};
use hpacml_nn::spec::{Activation, ModelSpec};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::time::Duration;

/// The fault plan is process-global: chaos tests serialize on this lock so
/// one scenario's schedule never bleeds into another (the default test
/// runner is multi-threaded). Anything that reaches a seam — building a
/// session loads the model through `nn.load` — runs inside [`with_plan`],
/// un-faulted reference segments under an empty `Plan::new()`: outside the
/// lock they would run under whatever schedule another scenario installed.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn with_plan<R>(plan: Plan, f: impl FnOnce() -> R) -> R {
    let _guard = CHAOS_LOCK.lock();
    hpacml_faults::install(plan);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    hpacml_faults::clear();
    out.unwrap_or_else(|p| std::panic::resume_unwind(p))
}

fn threads() -> usize {
    std::env::var("HPACML_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-chaos").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Scenario set-up, outside any plan. A save reaches the `nn.save.*` seams,
/// so it takes the lock: it must neither run under another scenario's
/// schedule nor use up that schedule's hits.
fn save_mlp(path: &std::path::Path, seed: u64) {
    let _guard = CHAOS_LOCK.lock();
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

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

/// Rows currently on disk for `region`'s `inputs/x` dataset (0 when the
/// file or dataset does not exist yet).
fn rows_on_disk(db: &std::path::Path, region: &str) -> usize {
    if !db.exists() {
        return 0;
    }
    let file = hpacml_store::H5File::open(db).unwrap();
    file.root()
        .group(region)
        .and_then(|g| g.group("inputs"))
        .and_then(|g| g.dataset("x"))
        .map(|d| d.rows())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Store kill
// ---------------------------------------------------------------------------

#[test]
fn transient_store_kill_is_absorbed_by_retry() {
    let dir = tmpdir("store-transient");
    let db = dir.join("d.h5");
    let binds = Bindings::new().with("N", 1);
    with_plan(Plan::seeded(0xA1).fail_once("store.flush.write", 0), || {
        let region = collect_region("chaoskill", &db);
        collect_one(&region, &binds, &[0.1, 0.2, 0.3], 1.0);
        // First write attempt dies; the default budget retries and lands it.
        region.flush_db().unwrap();
        let s = region.stats();
        assert_eq!(s.retry_attempts, 1);
        assert_eq!(s.retry_giveups, 0);
        assert_eq!(s.db_errors, 0);
        assert_eq!(hpacml_faults::injected_at("store.flush.write"), 1);
    });
    assert_eq!(rows_on_disk(&db, "chaoskill"), 1);
}

#[test]
fn store_kill_mid_flush_preserves_the_committed_prefix() {
    let dir = tmpdir("store-kill");
    let db = dir.join("d.h5");
    let binds = Bindings::new().with("N", 1);
    with_plan(
        Plan::seeded(0xA2).fail_range("store.flush.write", 0, 1_000),
        || {
            let region = collect_region("chaoskill", &db);
            region.set_retry_policy(RetryPolicy::none());
            // The very first flush dies mid-write: the failure is typed,
            // counted, and no torn file ever appears at the target path.
            collect_one(&region, &binds, &[0.1, 0.2, 0.3], 1.0);
            let err = region.flush_db().unwrap_err();
            assert!(format!("{err}").contains("injected"), "typed: {err}");
            assert_eq!(region.stats().db_errors, 1);
            assert_eq!(rows_on_disk(&db, "chaoskill"), 0, "no torn file appears");
        },
    );
    // The outage ends (plan cleared): the same handle flushes everything.
    // Rebuild the region on the same path — its in-memory rows died with
    // it, which is exactly what the eprintln on drop warns about; the
    // on-disk file stays absent rather than corrupt.
    assert_eq!(rows_on_disk(&db, "chaoskill"), 0);
}

#[test]
fn rename_kill_preserves_the_previous_generation() {
    let dir = tmpdir("store-rename");
    let db = dir.join("d.h5");
    let binds = Bindings::new().with("N", 1);
    // Generation 1 lands cleanly. (Under the plan lock, with an empty plan:
    // outside it another scenario's `store.flush*` schedule can hit these
    // flushes.)
    let region = collect_region("chaoskill", &db);
    region.set_retry_policy(RetryPolicy::none());
    with_plan(Plan::new(), || {
        collect_one(&region, &binds, &[0.1, 0.2, 0.3], 1.0);
        region.flush_db().unwrap();
        assert_eq!(rows_on_disk(&db, "chaoskill"), 1);
    });
    // Generation 2 dies at the step that would make it visible — the rename
    // of a rewrite, the Commit frame of an append (here): its rows are
    // written but never committed, so readers keep generation 1.
    with_plan(
        Plan::seeded(0xA3).fail_range("store.flush.rename", 0, 1_000),
        || {
            collect_one(&region, &binds, &[0.4, 0.5, 0.6], 2.0);
            region.flush_db().unwrap_err();
            assert_eq!(region.stats().db_errors, 1);
            assert_eq!(rows_on_disk(&db, "chaoskill"), 1, "old file intact");
        },
    );
    // Outage over: the handle still holds both samples and commits them.
    with_plan(Plan::new(), || {
        region.flush_db().unwrap();
        assert_eq!(rows_on_disk(&db, "chaoskill"), 2);
    });
}

#[test]
fn clean_drop_reaches_no_flush_seam() {
    let dir = tmpdir("store-clean-drop");
    let db = dir.join("d.h5");
    let binds = Bindings::new().with("N", 1);
    with_plan(Plan::new(), || {
        let region = collect_region("cleandrop", &db);
        collect_one(&region, &binds, &[0.1, 0.2, 0.3], 1.0);
        region.flush_db().unwrap();
        let seams = [
            "store.flush",
            "store.flush.write",
            "store.flush.sync",
            "store.flush.rename",
        ];
        assert_eq!(seams.map(hpacml_faults::hits), [1; 4], "one real flush");
        // Nothing new since: neither another flush nor the drop (which used
        // to rewrite the whole db a second time) gets as far as a seam.
        region.flush_db().unwrap();
        drop(region);
        assert_eq!(seams.map(hpacml_faults::hits), [1; 4]);
        assert_eq!(rows_on_disk(&db, "cleandrop"), 1);
    });
}

// ---------------------------------------------------------------------------
// Model-load flake
// ---------------------------------------------------------------------------

#[test]
fn model_load_flake_recovers_bit_identically() {
    let dir = tmpdir("load-flake");
    let model = dir.join("m.hml");
    save_mlp(&model, 31);
    let binds = Bindings::new().with("N", 1);
    let sample = [0.2f32, -0.4, 0.8];

    // Un-faulted reference.
    let reference = with_plan(Plan::new(), || {
        let region = infer_region("flakeref", &model);
        let session = region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
            .unwrap();
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
    });

    // The engine's own cache would mask the reload — use a fresh path.
    let flaky = dir.join("flaky.hml");
    std::fs::copy(&model, &flaky).unwrap();
    with_plan(Plan::seeded(0xB1).fail_range("nn.load", 0, 2), || {
        let region = infer_region("flake", &flaky);
        let session = region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
            .unwrap();
        let mut y = [0.0f32; 1];
        let mut out = session
            .invoke()
            .input("x", &sample)
            .unwrap()
            .run(|| unreachable!("flake must be absorbed by retry"))
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
        assert_eq!(y[0], reference, "recovered load serves identical bits");
        assert_eq!(hpacml_faults::injected_at("nn.load"), 2);
    });
}

#[test]
fn permanent_load_outage_degrades_to_host_under_injection() {
    let dir = tmpdir("load-outage");
    let model = dir.join("m.hml");
    save_mlp(&model, 33);
    let binds = Bindings::new().with("N", 1);
    with_plan(
        Plan::seeded(0xB2).fail_range("nn.load", 0, 1_000_000),
        || {
            let region = infer_region("outage", &model);
            region.set_retry_policy(RetryPolicy::none());
            region
                .set_validation_policy(
                    ValidationPolicy::new(ErrorMetric::Rmse, 1e9).with_sample_rate(1000),
                )
                .unwrap();
            let session = region
                .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
                .unwrap();
            let mut y = [0.0f32; 1];
            let mut out = session
                .invoke()
                .input("x", &[0.1f32, 0.2, 0.3])
                .unwrap()
                .run(|| y[0] = 9.0)
                .unwrap();
            out.output("y", &mut y).unwrap();
            assert_eq!(out.finish().unwrap(), PathTaken::Accurate);
            assert_eq!(y[0], 9.0, "host closure served the outage");
            assert!(!region.surrogate_active(), "controller tripped");
            assert_eq!(region.stats().surrogate_errors, 1);
            // The file exists — only the injected seam failed it.
            assert!(model.exists());
            assert!(hpacml_faults::injected_at("nn.load") >= 3, "engine retried");
        },
    );
}

// ---------------------------------------------------------------------------
// Model-save kill
// ---------------------------------------------------------------------------

#[test]
fn model_save_killed_at_each_seam_leaves_the_old_file_whole() {
    use hpacml_nn::serialize::{load_model, save_model};
    let dir = tmpdir("save-kill");
    let (path, tmp) = (dir.join("m.hml"), dir.join("m.hml.tmp"));
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let (old, new) = (spec.build(41).unwrap(), spec.build(42).unwrap());
    // `.write` dies before the first weight byte, `.sync` before the fsync,
    // `.rename` with the whole new model durable in `m.hml.tmp` — and in
    // every case nothing has touched the name a config points at.
    for (k, seam) in ["nn.save.write", "nn.save.sync", "nn.save.rename"]
        .into_iter()
        .enumerate()
    {
        with_plan(Plan::seeded(0xC0 + k as u64).fail_once(seam, 1), || {
            save_model(&path, &spec, &old, None, None).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert!(!tmp.exists(), "a clean save leaves no temp file");

            let err = save_model(&path, &spec, &new, None, None).unwrap_err();
            assert!(matches!(err, hpacml_nn::NnError::Io(_)), "typed: {err}");
            assert!(format!("{err}").contains("injected"), "{err}");
            assert_eq!(hpacml_faults::injected_at(seam), 1);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{seam}: old file");
            let served = load_model(&path).unwrap();
            assert_eq!(served.model.export_weights(), old.export_weights());

            // Outage over: the same save lands, over whatever the killed
            // one left behind.
            save_model(&path, &spec, &new, None, None).unwrap();
            assert!(!tmp.exists());
            let served = load_model(&path).unwrap();
            assert_eq!(served.model.export_weights(), new.export_weights());
        });
    }
}

// ---------------------------------------------------------------------------
// Lazy rung encode
// ---------------------------------------------------------------------------

/// One invocation whose host closure writes `host`: the value left in the
/// output buffer, and the path taken.
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

/// An int8 model encodes its bf16 rung the first time it serves bf16. That
/// encode killed at `nn.rung.encode` is a typed error from the model, and
/// in a region demoted to bf16 a failed pass the host code serves; the f32
/// and int8 rungs keep their bits, and the next use encodes the rung again
/// and serves the bits of a model that never failed.
#[test]
fn a_rung_encode_killed_during_a_demotion_is_typed_and_retried() {
    use hpacml_core::{Precision, PrecisionPolicy};
    use hpacml_nn::serialize::{load_model, SavedModel};
    use hpacml_nn::{InferWorkspace, NnError};

    let dir = tmpdir("rung-encode");
    let model = dir.join("m.hml");
    save_mlp(&model, 37);
    let x = [0.3f32, -0.6, 0.9];
    let xt = hpacml_tensor::Tensor::from_vec(x.to_vec(), [1usize, 3]).unwrap();
    let at = |m: &SavedModel, prec| {
        let mut ws = InferWorkspace::new();
        m.infer_with_at(&mut ws, &xt, prec).map(|y| y.data()[0])
    };
    let loaded = || {
        let mut m = load_model(&model).unwrap();
        m.quantize(Precision::Int8);
        m
    };
    let [f32_val, bf16_val, int8_val] = with_plan(Plan::new(), || {
        let m = loaded();
        [Precision::F32, Precision::Bf16, Precision::Int8].map(|p| at(&m, p).unwrap())
    });
    assert_ne!(bf16_val.to_bits(), int8_val.to_bits(), "distinct rungs");

    // The model: a typed error, nothing else changed, then a retry.
    with_plan(Plan::new(), || {
        let m = loaded();
        hpacml_faults::install(Plan::seeded(0xC3).fail_once("nn.rung.encode", 0));
        let err = at(&m, Precision::Bf16).unwrap_err();
        assert!(
            matches!(&err, NnError::Io(e) if e.to_string().contains("nn.rung.encode")),
            "{err}"
        );
        assert_eq!(at(&m, Precision::F32).unwrap().to_bits(), f32_val.to_bits());
        assert_eq!(
            at(&m, Precision::Int8).unwrap().to_bits(),
            int8_val.to_bits()
        );
        let retried = at(&m, Precision::Bf16).unwrap();
        assert_eq!(retried.to_bits(), bf16_val.to_bits(), "the retry's bits");
        assert_eq!(hpacml_faults::injected_at("nn.rung.encode"), 1);
    });

    // The region: int8 over budget demotes to bf16; the pass that first
    // serves bf16 loses its encode and the host code serves it; the ladder
    // then heals back through bf16, which encodes.
    let binds = Bindings::new().with("N", 1);
    with_plan(Plan::new(), || {
        let region = infer_region("rungencode", &model);
        region
            .set_precision_policy(&PrecisionPolicy::int8())
            .unwrap();
        region
            .set_validation_policy(
                ValidationPolicy::new(ErrorMetric::MaxAbs, 1.0)
                    .with_sample_rate(1)
                    .with_window(1),
            )
            .unwrap();
        let session = region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
            .unwrap();
        let (y, path) = invoke_with_host(&session, &x, f32_val + 1000.0);
        assert_eq!(
            (y.to_bits(), path),
            (int8_val.to_bits(), PathTaken::Surrogate)
        );
        assert_eq!(region.serve_precision(), Precision::Bf16);

        hpacml_faults::install(Plan::seeded(0xC4).fail_once("nn.rung.encode", 0));
        let (y, path) = invoke_with_host(&session, &x, 7.0);
        assert_eq!((y, path), (7.0, PathTaken::Accurate), "the host served it");
        assert_eq!(hpacml_faults::injected_at("nn.rung.encode"), 1);
        assert_eq!(region.stats().surrogate_errors, 1);

        let mut served = Vec::new();
        for _ in 0..40 {
            let prec = region.serve_precision();
            let (y, path) = invoke_with_host(&session, &x, f32_val);
            if path == PathTaken::Surrogate {
                served.push(prec);
                let want = match prec {
                    Precision::F32 => f32_val,
                    Precision::Bf16 => bf16_val,
                    Precision::Int8 => int8_val,
                };
                assert_eq!(y.to_bits(), want.to_bits(), "served at {prec}");
            }
            if served.last() == Some(&Precision::Int8) {
                break;
            }
        }
        assert!(
            served.contains(&Precision::Bf16),
            "healed through bf16: {served:?}"
        );
        assert_eq!(served.last(), Some(&Precision::Int8), "{served:?}");
        assert_eq!(region.stats().surrogate_errors, 1, "the retry encoded");
    });
}

// ---------------------------------------------------------------------------
// Shadow-exec panic
// ---------------------------------------------------------------------------

#[test]
fn shadow_panic_never_corrupts_served_results() {
    let dir = tmpdir("shadow-panic");
    let model = dir.join("m.hml");
    save_mlp(&model, 41);
    let binds = Bindings::new().with("N", 1);
    let n_threads = threads();
    let samples: Vec<[f32; 3]> = (0..n_threads)
        .map(|w| std::array::from_fn(|k| ((w * 3 + k) as f32).cos()))
        .collect();

    // Direct per-sample reference, no server, no faults.
    let region = infer_region("shadowpanic", &model);
    let (session, direct) = with_plan(Plan::new(), || {
        let session = region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 8)
            .unwrap();
        let mut direct = vec![0.0f32; n_threads];
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
        (session, direct)
    });

    region
        .set_validation_policy(ValidationPolicy::new(ErrorMetric::Rmse, 1e9).with_sample_rate(1))
        .unwrap();
    with_plan(
        Plan::seeded(0xC1).rule(hpacml_faults::Rule {
            pattern: "core.shadow".to_string(),
            kind: FaultKind::Panic,
            first_hit: 0,
            stride: 1,
            max_fires: u64::MAX,
            rate_per_1024: None,
        }),
        || {
            let server = BatchServer::new(&session, Duration::from_millis(10))
                .unwrap()
                .with_fallback(|n, staged, outs| {
                    // Host reference for shadow comparisons (never reached
                    // before the injected panic, but required for draws).
                    for s in 0..n {
                        outs[0][s] = staged[0][s * 3];
                    }
                });
            let mut results = vec![0.0f32; n_threads];
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
            assert_eq!(results, direct, "panicking monitor never touches results");
            assert!(hpacml_faults::injected_at("core.shadow") >= 1);
        },
    );
}

// ---------------------------------------------------------------------------
// Overload burst
// ---------------------------------------------------------------------------

#[test]
fn overload_burst_sheds_typed_and_serves_the_rest_exactly() {
    let dir = tmpdir("burst");
    let model = dir.join("m.hml");
    save_mlp(&model, 51);
    let binds = Bindings::new().with("N", 1);
    let region = infer_region("burst", &model);

    // f(x) for this model is deterministic: compute per-sample references.
    let n_threads = threads();
    let per_thread = 8usize;
    let sample_for = |w: usize, i: usize| -> [f32; 3] {
        std::array::from_fn(|k| ((w * 100 + i * 3 + k) as f32).sin())
    };
    let (session, reference) = with_plan(Plan::new(), || {
        let session = region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
            .unwrap();
        let mut reference = vec![vec![0.0f32; per_thread]; n_threads];
        for (w, row) in reference.iter_mut().enumerate() {
            for (i, r) in row.iter_mut().enumerate() {
                let mut out = session
                    .invoke()
                    .input("x", &sample_for(w, i))
                    .unwrap()
                    .run(|| unreachable!())
                    .unwrap();
                out.output("y", std::slice::from_mut(r)).unwrap();
                out.finish().unwrap();
            }
        }
        (session, reference)
    });
    region.reset_stats();

    with_plan(Plan::seeded(0xD1).yield_at("serve.stage", 3), || {
        let server = BatchServer::new(&session, Duration::from_millis(5))
            .unwrap()
            .with_max_pending(2);
        let served = std::sync::atomic::AtomicU64::new(0);
        let shed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..n_threads {
                let server = &server;
                let served = &served;
                let shed = &shed;
                let reference = &reference;
                scope.spawn(move || {
                    for (i, want) in reference[w].iter().enumerate() {
                        let mut out = [0.0f32; 1];
                        match server.submit(&[&sample_for(w, i)], &mut [&mut out]) {
                            Ok(()) => {
                                assert_eq!(out[0], *want, "served submissions are bit-identical");
                                served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(CoreError::Serve(ServeError::Overloaded { .. })) => {
                                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(other) => panic!("only Overloaded may surface: {other}"),
                        }
                    }
                });
            }
        });
        let served = served.into_inner();
        let shed = shed.into_inner();
        assert_eq!(served + shed, (n_threads * per_thread) as u64);
        assert!(served >= 1, "at least the uncontended submits serve");
        let s = region.stats();
        assert_eq!(s.serve_rejected_overload, shed);
        assert_eq!(s.batch_submitted, served);
    });
}

// ---------------------------------------------------------------------------
// Shutdown race
// ---------------------------------------------------------------------------

#[test]
fn shutdown_race_serves_or_rejects_typed_never_hangs() {
    let dir = tmpdir("shutdown-race");
    let model = dir.join("m.hml");
    save_mlp(&model, 61);
    let binds = Bindings::new().with("N", 1);
    let region = infer_region("shutrace", &model);
    let session = with_plan(Plan::new(), || {
        region
            .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
            .unwrap()
    });
    let n_threads = threads();

    with_plan(
        Plan::seeded(0xE1)
            .yield_at("serve.shutdown.race", 50)
            .yield_at("serve.stage", 2),
        || {
            let server = BatchServer::new(&session, Duration::from_millis(2)).unwrap();
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                for w in 0..n_threads {
                    let server = &server;
                    let stop = &stop;
                    scope.spawn(move || {
                        let sample = [w as f32 * 0.1, 0.5, -0.5];
                        for _ in 0..200 {
                            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                                break;
                            }
                            let mut out = [0.0f32; 1];
                            match server.submit(&[&sample], &mut [&mut out]) {
                                Ok(()) => {}
                                Err(CoreError::Serve(ServeError::ShutDown { .. })) => break,
                                Err(other) => panic!("unexpected error: {other}"),
                            }
                        }
                    });
                }
                // Let the submitters contend for a moment, then slam the door
                // (the injected yields stretch the shutdown window).
                for _ in 0..64 {
                    std::thread::yield_now();
                }
                server.shutdown();
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            // Post-shutdown submissions are typed rejections.
            let mut out = [0.0f32; 1];
            assert!(matches!(
                server.submit(&[&[0.0f32; 3]], &mut [&mut out]),
                Err(CoreError::Serve(ServeError::ShutDown { .. }))
            ));
        },
    );
}

// ---------------------------------------------------------------------------
// Determinism of the schedules themselves
// ---------------------------------------------------------------------------

#[test]
fn identical_plans_replay_identical_injections() {
    let dir = tmpdir("replay");
    let db = dir.join("d.h5");
    let binds = Bindings::new().with("N", 1);
    let run = || {
        let region = collect_region("replay", &db);
        region.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            base: 1,
            cap: 2,
        });
        collect_one(&region, &binds, &[0.1, 0.2, 0.3], 1.0);
        let _ = region.flush_db();
        let records: Vec<String> = hpacml_faults::injected()
            .iter()
            .map(|r| r.to_string())
            .collect();
        // Leave a clean directory behind for the drop-time flush.
        records
    };
    let plan = || {
        Plan::seeded(0xF1)
            .chaos("store.flush*", FaultKind::Error, 512)
            .delay("store.flush.sync", 100)
    };
    let mut first = Vec::new();
    with_plan(plan(), || first = run());
    let _ = std::fs::remove_file(&db);
    let mut second = Vec::new();
    with_plan(plan(), || second = run());
    assert_eq!(first, second, "same seed, same schedule, same injections");
}
