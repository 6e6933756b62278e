//! Daemon chaos suite: core's fault seams, driven through the daemon.
//!
//! Compiled only with `--features fault-injection`. `Daemon::submit` runs
//! `BatchServer::submit` on the caller's thread, so core's `serve.*` seams
//! (and `nn.load` under `apply`'s shadow probe) sit on the daemon's own
//! path. Every scenario installs a seeded [`hpacml_faults::Plan`] and
//! asserts the daemon-level contract: an injected fault ends in a typed
//! error, an unwind on the thread that made the call, or a bit-identical
//! result — never a hang — and every request that returned is counted
//! exactly once. The thread matrix comes from `HPACML_THREADS`.
#![cfg(feature = "fault-injection")]

use hpacml_directive::sema::Bindings;
use hpacml_faults::Plan;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_serve::{Daemon, DaemonBuilder, DaemonError, DaemonStats};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The fault plan is process-global: scenarios serialize on this lock so
/// one schedule never bleeds into another.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn with_plan(plan: Plan, f: impl FnOnce()) {
    let _guard = CHAOS_LOCK.lock();
    hpacml_faults::install(plan);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    hpacml_faults::clear();
    if let Err(p) = out {
        std::panic::resume_unwind(p);
    }
}

/// Concurrent submitters: the CI width, but never fewer than two (a lone
/// submitter has nobody to be isolated from).
fn submitters() -> usize {
    std::env::var("HPACML_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(2)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-serve-chaos").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Scenario set-up, outside any plan. A save reaches the `nn.save.*` seams,
/// so it takes the lock: it must neither run under another scenario's
/// schedule nor use up that schedule's hits.
fn save_mlp(path: &Path, seed: u64) {
    let _guard = CHAOS_LOCK.lock();
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

fn directive_src(model: &Path) -> String {
    format!(
        r#"#pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
#pragma approx tensor functor(single: [i, 0:1] = ([i]))
#pragma approx tensor map(to: rows(x[0:N]))
#pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")"#,
        model.display()
    )
}

fn config_for(model: &Path, body: &str) -> String {
    let esc = directive_src(model)
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!(
        "region demo {{\n directive \"{esc}\";\n bind N 1;\n input x 3;\n output y 1;\n {body}\n}}\n"
    )
}

fn sample(i: usize) -> [f32; 3] {
    [
        (i as f32 * 0.31).sin(),
        (i as f32 * 0.17).cos(),
        i as f32 * 0.03 - 0.6,
    ]
}

/// Per-sample reference through an ordinary session — no server, so no
/// `serve.*` seam. It does load the model (`nn.load`), and the global
/// engine then caches it for the daemon; scenarios call it under their
/// own plan so no other scenario's schedule can reach it.
fn direct_outputs(model: &Path, samples: &[[f32; 3]]) -> Vec<f32> {
    let region = hpacml_core::Region::from_source("chaos-ref", &directive_src(model)).unwrap();
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    samples
        .iter()
        .map(|s| {
            let mut y = [0.0f32; 1];
            let mut out = session
                .invoke()
                .input("x", s)
                .unwrap()
                .run(|| unreachable!())
                .unwrap();
            out.output("y", &mut y).unwrap();
            out.finish().unwrap();
            y[0]
        })
        .collect()
}

/// Every request that returned is in exactly one counter.
fn assert_accounted(stats: &DaemonStats, returned: u64) {
    assert_eq!(
        stats.served + stats.rejected_overload + stats.rejected_deadline + stats.errored,
        returned,
        "{stats:?}"
    );
}

/// One closed-loop submitter per sample, `iters` submits each, every `Ok`
/// checked bitwise against `want[thread]`. `on_err` decides whether an error is
/// part of the scenario; a submit that panics is counted and the thread
/// carries on. Returns `(returned, unwound)`.
fn hammer(
    daemon: &Daemon,
    samples: &[[f32; 3]],
    want: &[Vec<f32>],
    iters: usize,
    on_err: impl Fn(DaemonError) + Sync,
) -> (u64, u64) {
    let (returned, unwound) = (&AtomicU64::new(0), &AtomicU64::new(0));
    let on_err = &on_err;
    std::thread::scope(|scope| {
        for (t, s) in samples.iter().enumerate() {
            scope.spawn(move || {
                for _ in 0..iters {
                    let mut y = [0.0f32; 1];
                    let call =
                        std::panic::AssertUnwindSafe(|| daemon.submit("demo", &[s], &mut [&mut y]));
                    match std::panic::catch_unwind(call) {
                        Err(_) => {
                            unwound.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Ok(Ok(())) => assert!(
                            want[t].contains(&y[0]),
                            "thread {t}: {} is not a deployed model's output",
                            y[0]
                        ),
                        Ok(Err(e)) => on_err(e),
                    }
                    returned.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    (
        returned.load(Ordering::Relaxed),
        unwound.load(Ordering::Relaxed),
    )
}

/// Per-thread expected outputs, one candidate per deployed model.
fn expected(models: &[&Path], samples: &[[f32; 3]]) -> Vec<Vec<f32>> {
    let per_model: Vec<Vec<f32>> = models.iter().map(|m| direct_outputs(m, samples)).collect();
    (0..samples.len())
        .map(|t| per_model.iter().map(|outs| outs[t]).collect())
        .collect()
}

#[test]
fn stage_panic_unwinds_its_caller_and_nobody_else() {
    let dir = tmpdir("stage-panic");
    let model = dir.join("m.hml");
    save_mlp(&model, 71);
    let samples: Vec<[f32; 3]> = (0..submitters()).map(sample).collect();
    const ITERS: usize = 40;

    with_plan(Plan::seeded(0xA1).panic_at("serve.stage", 7), || {
        let want = expected(&[&model], &samples);
        let cfg = config_for(&model, "max_batch 4;\n max_wait 200us;");
        let daemon = DaemonBuilder::new().bootstrap(&cfg).unwrap();
        let (returned, unwound) = hammer(&daemon, &samples, &want, ITERS, |e| {
            panic!("no submit may fail: {e}")
        });
        // The panic left on the thread that called `submit`, before it had
        // staged anything: everyone else — batch-mates included — was
        // served, and nobody is left waiting for a reply.
        assert_eq!(unwound, 1);
        assert_eq!(returned, (samples.len() * ITERS) as u64 - 1);
        assert_eq!(hpacml_faults::injected_at("serve.stage"), 1);
        let stats = daemon.stats();
        assert_eq!((stats.served, stats.errored), (returned, 0), "{stats:?}");
        assert_accounted(&stats, returned);
    });
}

#[test]
fn load_failure_mid_apply_is_typed_and_the_old_generation_serves() {
    let dir = tmpdir("apply-load-outage");
    let (v1, v2) = (dir.join("v1.hml"), dir.join("v2.hml"));
    save_mlp(&v1, 73);
    save_mlp(&v2, 74);
    let samples: Vec<[f32; 3]> = (0..4).map(sample).collect();

    // Hit 0 is the one load of v1 (the reference's; the bootstrap finds it
    // in the engine's cache). Every later load fails, retries included.
    with_plan(
        Plan::seeded(0xA2).fail_range("nn.load", 1, 1_000_000),
        || {
            let want = expected(&[&v1], &samples);
            let body = "max_batch 4;\n max_wait 100us;";
            let daemon = DaemonBuilder::new()
                .bootstrap(&config_for(&v1, body))
                .unwrap();
            assert_eq!(hpacml_faults::hits("nn.load"), 1);

            let err = daemon.apply(&config_for(&v2, body)).unwrap_err();
            match &err {
                DaemonError::Build { region, msg } => {
                    assert_eq!(region, "demo");
                    assert!(msg.contains("shadow probe failed"), "{msg}");
                }
                other => panic!("expected Build, got: {other}"),
            }
            assert!(hpacml_faults::injected_at("nn.load") >= 1);
            assert_eq!(daemon.generation(), 1);
            assert_eq!(daemon.stats().swaps, 0);

            let (returned, unwound) = hammer(&daemon, &samples, &want, 5, |e| {
                panic!("the old generation must keep serving: {e}")
            });
            assert_eq!((returned, unwound), (20, 0));
            let stats = daemon.stats();
            assert_eq!(stats.served, returned, "{stats:?}");
            assert_accounted(&stats, returned);
        },
    );
}

#[test]
fn a_killed_model_save_never_reaches_a_serving_generation() {
    let dir = tmpdir("save-kill");
    let (v1, v2) = (dir.join("v1.hml"), dir.join("v2.hml"));
    save_mlp(&v1, 78);
    let samples: Vec<[f32; 3]> = (0..submitters()).map(sample).collect();
    const ITERS: usize = 120;
    const SEAMS: [&str; 3] = ["nn.save.write", "nn.save.sync", "nn.save.rename"];

    // The retrained model's first three saves die, one at each seam in
    // turn (a save that gets past `.write` is that seam's hit 1, and so
    // on); the fourth is clean.
    let plan = SEAMS
        .into_iter()
        .fold(Plan::seeded(0xA5), |plan, seam| plan.fail_once(seam, 0));
    with_plan(plan, || {
        let save_v2 = || {
            let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
            let next = spec.build(79).unwrap();
            hpacml_nn::serialize::save_model(&v2, &spec, &next, None, None)
        };
        let body = "max_batch 4;\n max_wait 150us;";
        let daemon = &DaemonBuilder::new()
            .bootstrap(&config_for(&v1, body))
            .unwrap();
        let want = expected(&[&v1], &samples);
        let (returned, unwound) = std::thread::scope(|scope| {
            let load = scope.spawn(|| {
                hammer(daemon, &samples, &want, ITERS, |e| {
                    panic!("the old generation must keep serving: {e}")
                })
            });
            // Spread the deploy attempts across the storm by progress.
            let total = (samples.len() * ITERS) as u64;
            for (k, seam) in SEAMS.into_iter().enumerate() {
                let due = (k as u64 + 1) * total / (SEAMS.len() as u64 + 1);
                while daemon.stats().served < due && !load.is_finished() {
                    std::thread::yield_now();
                }
                let err = save_v2().unwrap_err();
                assert!(format!("{err}").contains("injected"), "{err}");
                assert_eq!(hpacml_faults::injected_at(seam), 1);
                assert!(
                    !v2.exists(),
                    "{seam}: only the rename makes a model visible"
                );
                // Deploying what was never saved is a typed error, and the
                // temp file beside it is never what gets served.
                match daemon.apply(&config_for(&v2, body)).unwrap_err() {
                    DaemonError::Build { region, .. } => assert_eq!(region, "demo"),
                    other => panic!("expected Build, got: {other}"),
                }
                assert_eq!((daemon.generation(), daemon.stats().swaps), (1, 0));
            }
            load.join().unwrap()
        });
        // Every reply of the storm was bit-identical to v1's.
        assert_eq!((returned, unwound), ((samples.len() * ITERS) as u64, 0));

        // Outage over: the save lands and the next apply deploys it.
        save_v2().unwrap();
        assert!(!dir.join("v2.hml.tmp").exists());
        let want = expected(&[&v2], &samples);
        daemon.apply(&config_for(&v2, body)).unwrap();
        assert_eq!(daemon.generation(), 2);
        let (again, unwound) = hammer(daemon, &samples, &want, 10, |e| {
            panic!("the new generation must serve: {e}")
        });
        assert_eq!((again, unwound), ((samples.len() * 10) as u64, 0));
        let stats = daemon.stats();
        assert_eq!(
            (stats.served, stats.errored),
            (returned + again, 0),
            "{stats:?}"
        );
        assert_accounted(&stats, returned + again);
    });
}

#[test]
fn retire_race_serves_every_request_across_swaps() {
    let dir = tmpdir("retire-race");
    let (v1, v2) = (dir.join("v1.hml"), dir.join("v2.hml"));
    save_mlp(&v1, 75);
    save_mlp(&v2, 76);
    let samples: Vec<[f32; 3]> = (0..submitters()).map(sample).collect();
    const ITERS: usize = 150;
    const APPLIES: usize = 8;

    // Stretch the window between "shutdown flag set" and "forming batch
    // executed" inside `retire`, and jitter every stage against it.
    with_plan(
        Plan::seeded(0xA3)
            .yield_at("serve.shutdown.race", 50)
            .yield_at("serve.stage", 2),
        || {
            let want = expected(&[&v1, &v2], &samples);
            let cfgs = [
                config_for(&v1, "max_batch 8;\n max_wait 200us;"),
                config_for(&v2, "max_batch 4;\n max_wait 150us;"),
            ];
            let daemon = &DaemonBuilder::new().bootstrap(&cfgs[0]).unwrap();
            let (returned, unwound) = std::thread::scope(|scope| {
                let load = scope.spawn(|| {
                    hammer(daemon, &samples, &want, ITERS, |e| {
                        panic!("a swap may not fail a request: {e}")
                    })
                });
                // Spread the swaps across the storm by progress, not by clock.
                let total = (samples.len() * ITERS) as u64;
                for k in 0..APPLIES {
                    let due = (k as u64 + 1) * total / (APPLIES as u64 + 1);
                    while daemon.stats().served < due && !load.is_finished() {
                        std::thread::yield_now();
                    }
                    daemon.apply(&cfgs[(k + 1) % 2]).unwrap();
                }
                load.join().unwrap()
            });
            assert_eq!(unwound, 0);
            assert_eq!(returned, (samples.len() * ITERS) as u64);
            assert!(hpacml_faults::hits("serve.shutdown.race") >= APPLIES as u64);
            let stats = daemon.stats();
            assert_eq!((stats.served, stats.errored), (returned, 0), "{stats:?}");
            assert_eq!(stats.swaps, APPLIES as u64);
            assert_accounted(&stats, returned);
        },
    );
}

#[test]
fn surrogate_error_without_a_handler_is_a_typed_batch_failure() {
    let dir = tmpdir("surrogate-error");
    let model = dir.join("m.hml");
    save_mlp(&model, 77);
    let samples: Vec<[f32; 3]> = (0..submitters()).map(sample).collect();
    const ITERS: usize = 30;

    // `core.surrogate` is also passed once per reference sample and once by
    // the bootstrap probe: the fault lands on the sixth served pass.
    let hit = samples.len() as u64 + 1 + 5;
    with_plan(Plan::seeded(0xA4).fail_once("core.surrogate", hit), || {
        let want = expected(&[&model], &samples);
        let cfg = config_for(&model, "max_batch 4;\n max_wait 200us;");
        let daemon = DaemonBuilder::new().bootstrap(&cfg).unwrap();
        let failed = AtomicU64::new(0);
        let (returned, unwound) = hammer(&daemon, &samples, &want, ITERS, |e| {
            assert!(
                matches!(e.serve(), Some(hpacml_core::ServeError::Batch { .. })),
                "the failed pass fans out as the core's typed error: {e}"
            );
            failed.fetch_add(1, Ordering::Relaxed);
        });
        // One pass failed; its members (at most a batch) got the error and
        // every other request was served from the same, unharmed server.
        let failed = failed.into_inner();
        assert!((1..=4).contains(&failed), "{failed}");
        assert_eq!(unwound, 0);
        assert_eq!(returned, (samples.len() * ITERS) as u64);
        assert_eq!(hpacml_faults::injected_at("core.surrogate"), 1);
        let stats = daemon.stats();
        assert_eq!(
            (stats.served, stats.errored),
            (returned - failed, failed),
            "{stats:?}"
        );
        assert_accounted(&stats, returned);
    });
}
