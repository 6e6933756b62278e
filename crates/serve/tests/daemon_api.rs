//! The serving daemon: bootstrap parity with direct sessions, atomic
//! apply semantics (validate-before-swap, old snapshot keeps serving on
//! failure), typed rejections surfacing through the daemon, and what
//! submitting on the caller's thread guarantees (batch fill and the
//! admission cap see the real callers; a retired generation is released;
//! `apply` returns with the old generation idle and flushed).

use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_serve::{DaemonBuilder, DaemonError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-daemon-api").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_mlp(path: &Path, seed: u64) {
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &model, None, None).unwrap();
}

/// 3-feature / 1-output infer directive bound to `model`.
fn directive_src(model: &Path) -> String {
    format!(
        r#"#pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
#pragma approx tensor functor(single: [i, 0:1] = ([i]))
#pragma approx tensor map(to: rows(x[0:N]))
#pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")"#,
        model.display()
    )
}

/// Escape a string for embedding in config double quotes.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

fn region_cfg(name: &str, model: &Path, body: &str) -> String {
    format!(
        "region {name} {{\n directive \"{}\";\n bind N 1;\n input x 3;\n output y 1;\n {body}\n}}\n",
        esc(&directive_src(model))
    )
}

/// Direct per-sample reference through an ordinary session.
fn direct_outputs(model: &Path, samples: &[[f32; 3]]) -> Vec<f32> {
    let region = hpacml_core::Region::from_source("direct-ref", &directive_src(model)).unwrap();
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

fn sample(i: usize) -> [f32; 3] {
    [
        (i as f32 * 0.37).sin(),
        (i as f32 * 0.11).cos(),
        i as f32 * 0.05 - 0.4,
    ]
}

#[test]
fn bootstrap_serves_bit_identical_to_direct_session() {
    let dir = tmpdir("bootstrap");
    let model = dir.join("m.hml");
    save_mlp(&model, 7);
    let samples: Vec<[f32; 3]> = (0..6).map(sample).collect();
    let direct = direct_outputs(&model, &samples);

    let cfg = region_cfg("demo", &model, "max_batch 4;\n max_wait 100us;");
    let daemon = DaemonBuilder::new().bootstrap(&cfg).unwrap();
    assert_eq!(daemon.generation(), 1);
    assert_eq!(daemon.snapshot().region_names(), vec!["demo".to_string()]);

    for (s, want) in samples.iter().zip(&direct) {
        let mut y = [0.0f32; 1];
        daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
        assert_eq!(y[0], *want, "daemon output must match the direct session");
    }
    let stats = daemon.stats();
    assert_eq!(stats.served, 6);
    assert_eq!(stats.errored, 0);
    assert_eq!(stats.swaps, 0);

    // Unknown region and arity misuse are typed, not panics.
    let mut y = [0.0f32; 1];
    let err = daemon
        .submit("nope", &[&sample(0)], &mut [&mut y])
        .unwrap_err();
    assert!(
        matches!(err, DaemonError::UnknownRegion { generation: 1, .. }),
        "{err}"
    );
    let err = daemon
        .submit("demo", &[&[0.0; 2]], &mut [&mut y])
        .unwrap_err();
    assert!(matches!(err, DaemonError::Arity { .. }), "{err}");

    daemon.shutdown();
    let err = daemon
        .submit("demo", &[&sample(0)], &mut [&mut y])
        .unwrap_err();
    assert!(matches!(err, DaemonError::ShutDown), "{err}");
    let err = daemon.apply(&cfg).unwrap_err();
    assert!(matches!(err, DaemonError::ShutDown), "{err}");
}

#[test]
fn apply_swaps_model_and_limits_atomically() {
    let dir = tmpdir("apply");
    let (v1, v2) = (dir.join("v1.hml"), dir.join("v2.hml"));
    save_mlp(&v1, 3);
    save_mlp(&v2, 11);
    let samples: Vec<[f32; 3]> = (0..4).map(sample).collect();
    let d1 = direct_outputs(&v1, &samples);
    let d2 = direct_outputs(&v2, &samples);
    assert_ne!(d1, d2, "seeds must produce distinguishable models");

    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg("demo", &v1, "max_batch 8;\n max_wait 100us;"))
        .unwrap();
    let mut y = [0.0f32; 1];
    daemon
        .submit("demo", &[&samples[0]], &mut [&mut y])
        .unwrap();
    assert_eq!(y[0], d1[0]);

    // The new config keeps the v1 directive but overrides the model path —
    // the `model` key must win over the directive's model clause.
    let mut cfg2 = region_cfg("demo", &v1, "max_batch 2;\n max_wait 50us;");
    cfg2 = cfg2.replace(
        " bind N 1;",
        &format!(" model \"{}\";\n bind N 1;", esc(&v2.display().to_string())),
    );
    let report = daemon.apply(&cfg2).unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.regions, vec!["demo".to_string()]);
    assert_eq!(daemon.generation(), 2);

    for (s, want) in samples.iter().zip(&d2) {
        let mut y = [0.0f32; 1];
        daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
        assert_eq!(y[0], *want, "post-swap output must come from the new model");
    }
    let stats = daemon.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.errored, 0);
    assert_eq!(daemon.snapshot().config().regions[0].max_batch, 2);
}

#[test]
fn failed_apply_keeps_the_old_snapshot_serving() {
    let dir = tmpdir("failed-apply");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 5);
    let samples = [sample(0)];
    let d1 = direct_outputs(&v1, &samples);

    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg("demo", &v1, "max_batch 4;\n max_wait 100us;"))
        .unwrap();

    // Unparseable text: typed config error, nothing swapped.
    let err = daemon.apply("region { ").unwrap_err();
    assert!(matches!(err, DaemonError::Config(_)), "{err}");

    // Valid config, a model that does not load — missing, or a file whose
    // header names `.hml` version 2, which is no longer read (nor written
    // to): the shadow probe fails the build, the candidate never serves,
    // the old snapshot is untouched.
    let old_layout = dir.join("v2.hml");
    save_mlp(&old_layout, 5);
    let mut bytes = std::fs::read(&old_layout).unwrap();
    bytes[8] = 2;
    std::fs::write(&old_layout, &bytes).unwrap();
    for model in [dir.join("missing.hml"), old_layout] {
        let err = daemon
            .apply(&region_cfg(
                "demo",
                &model,
                "max_batch 4;\n max_wait 100us;",
            ))
            .unwrap_err();
        match &err {
            DaemonError::Build { region, msg } => {
                assert_eq!(region, "demo");
                assert!(msg.contains("probe"), "probe failure must be named: {msg}");
            }
            other => panic!("expected Build, got: {other}"),
        }
    }
    assert_eq!(std::fs::read(dir.join("v2.hml")).unwrap(), bytes);

    assert_eq!(
        daemon.generation(),
        1,
        "failed applies must not bump the generation"
    );
    assert_eq!(daemon.stats().swaps, 0);
    let mut y = [0.0f32; 1];
    daemon
        .submit("demo", &[&samples[0]], &mut [&mut y])
        .unwrap();
    assert_eq!(
        y[0], d1[0],
        "old snapshot keeps serving after failed applies"
    );
}

/// The last `apply` seam: the candidate's model file loads, but the
/// bootstrap probe cannot run it — it reads 4 features where the region
/// gathers 3. The apply is a typed build error naming the probe, and the old
/// generation keeps serving bitwise.
#[test]
fn apply_whose_probe_forward_fails_keeps_the_old_generation_serving() {
    let dir = tmpdir("probe-forward-fails");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 5);
    let wide = dir.join("wide.hml");
    let spec = ModelSpec::mlp(4, &[8], 1, Activation::Tanh, 0.0);
    let model = spec.build(6).unwrap();
    hpacml_nn::serialize::save_model(&wide, &spec, &model, None, None).unwrap();
    hpacml_nn::serialize::load_model(&wide).expect("the candidate's model loads");
    let samples = [sample(0), sample(1)];
    let want = direct_outputs(&v1, &samples);

    let body = "max_batch 4;\n max_wait 100us;";
    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg("demo", &v1, body))
        .unwrap();
    let err = daemon.apply(&region_cfg("demo", &wide, body)).unwrap_err();
    match &err {
        DaemonError::Build { region, msg } => {
            assert_eq!(region, "demo");
            assert!(msg.contains("probe"), "probe failure must be named: {msg}");
        }
        other => panic!("expected Build, got: {other}"),
    }
    assert_eq!(daemon.generation(), 1, "a failed apply must not swap");
    assert_eq!(daemon.stats().swaps, 0);
    for (s, want) in samples.iter().zip(&want) {
        let mut y = [0.0f32; 1];
        daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
        assert_eq!(y[0].to_bits(), want.to_bits(), "old generation, bitwise");
    }
}

/// A directive is config text. Its expressions were parsed with unbounded
/// recursion, so one `directive` line of 10^5 nested parentheses, leading
/// minuses or `+` terms overflowed the stack and aborted the daemon at
/// `apply`. Each is a typed build error now, and the old generation keeps
/// serving bitwise.
#[test]
fn apply_of_a_directive_nested_past_the_bound_keeps_the_old_generation_serving() {
    let dir = tmpdir("deep-directive");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 5);
    let samples = [sample(0), sample(1)];
    let want = direct_outputs(&v1, &samples);
    let body = "max_batch 4;\n max_wait 100us;";
    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg("demo", &v1, body))
        .unwrap();
    let n = 100_000;
    let deep = [
        format!("{}i{}", "(".repeat(n), ")".repeat(n)),
        format!("{}i", "-".repeat(n)),
        vec!["i"; n].join("+"),
    ];
    for expr in deep {
        let cfg = region_cfg("demo", &v1, body);
        let cfg = cfg.replace("= ([i]))", &format!("= ([{expr}]))"));
        assert!(cfg.len() > n, "the deep expression is in the config");
        match daemon.apply(&cfg).unwrap_err() {
            DaemonError::Build { region, msg } => {
                assert_eq!(region, "demo");
                assert!(msg.contains("nested deeper"), "{msg}");
            }
            other => panic!("expected Build, got: {other}"),
        }
        assert_eq!(daemon.generation(), 1, "a failed apply must not swap");
        for (s, want) in samples.iter().zip(&want) {
            let mut y = [0.0f32; 1];
            daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
            assert_eq!(y[0].to_bits(), want.to_bits(), "old generation, bitwise");
        }
    }
    assert_eq!(daemon.stats().swaps, 0);
}

/// `max_batch` sizes every staging and gather buffer, and it is config
/// text: 2^40 (13 TB of staged floats) and `usize::MAX` (whose products
/// overflow) aborted the process, at `bootstrap` and at `apply`. Both are
/// typed build errors now, and a failed `apply` leaves the old generation
/// serving bitwise.
#[test]
fn max_batch_no_buffer_can_hold_is_a_typed_build_error() {
    let dir = tmpdir("max-batch-too-wide");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 5);
    let samples = [sample(0), sample(1)];
    let want = direct_outputs(&v1, &samples);
    let expect_build = |err: DaemonError, width: u64| match err {
        DaemonError::Build { region, .. } => assert_eq!(region, "demo", "max_batch {width}"),
        other => panic!("max_batch {width}: expected Build, got: {other}"),
    };
    let widths = [1u64 << 40, u64::MAX];
    let body = |width: u64| format!("max_batch {width};\n max_wait 100us;");
    for width in widths {
        let err = DaemonBuilder::new()
            .bootstrap(&region_cfg("demo", &v1, &body(width)))
            .unwrap_err();
        expect_build(err, width);
    }

    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg("demo", &v1, &body(4)))
        .unwrap();
    for width in widths {
        let err = daemon
            .apply(&region_cfg("demo", &v1, &body(width)))
            .unwrap_err();
        expect_build(err, width);
        assert_eq!(daemon.generation(), 1, "a failed apply must not swap");
        for (s, want) in samples.iter().zip(&want) {
            let mut y = [0.0f32; 1];
            daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
            assert_eq!(y[0].to_bits(), want.to_bits(), "old generation, bitwise");
        }
    }
    assert_eq!(daemon.stats().swaps, 0);
}

#[test]
fn validation_policy_requires_a_host_handler() {
    let dir = tmpdir("validation-handler");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 9);
    let body =
        "max_batch 4;\n max_wait 100us;\n validation { metric rmse; budget 1000000.0; rate 1000; }";
    let cfg = region_cfg("demo", &v1, body);

    let err = DaemonBuilder::new().bootstrap(&cfg).unwrap_err();
    match &err {
        DaemonError::Build { region, msg } => {
            assert_eq!(region, "demo");
            assert!(msg.contains("host handler"), "{msg}");
        }
        other => panic!("expected Build, got: {other}"),
    }

    // With a handler registered the same config serves.
    let daemon = DaemonBuilder::new()
        .host_handler("demo", |n, _ins, outs: &mut [Vec<f32>]| {
            for out in outs.iter_mut() {
                for v in out.iter_mut().take(n) {
                    *v = 42.0;
                }
            }
        })
        .bootstrap(&cfg)
        .unwrap();
    let mut y = [0.0f32; 1];
    daemon.submit("demo", &[&sample(1)], &mut [&mut y]).unwrap();
    assert_eq!(daemon.stats().served, 1);
}

#[test]
fn rejections_are_typed_through_the_daemon() {
    let dir = tmpdir("rejections");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 13);
    // Two regions, one per rejection mode:
    //  dl: huge max_wait so a budgeted join is up-front rejected;
    //  ol: max_pending 1 so a second staged sample is shed.
    let cfg = [
        region_cfg("dl", &v1, "max_batch 2;\n max_wait 30s;\n workers 2;"),
        region_cfg(
            "ol",
            &v1,
            "max_batch 2;\n max_wait 300ms;\n max_pending 1;\n workers 2;",
        ),
    ]
    .join("\n");
    let daemon = &DaemonBuilder::new().bootstrap(&cfg).unwrap();

    // --- Deadline: a parked leader makes the flush horizon ~30s; a 50ms
    // budget cannot make that join and is rejected up front. (A budgeted
    // submit that *leads* instead waits out min(max_wait, budget) — the
    // rejection is only decided against an already-forming batch.)
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            daemon
                .submit("dl", &[&sample(0)], &mut [&mut y])
                .map(|()| y[0])
        });
        // Let the leader stage and park; staging takes microseconds.
        std::thread::sleep(Duration::from_millis(200));
        let mut y = [0.0f32; 1];
        let err = daemon
            .submit_with_deadline(
                "dl",
                &[&sample(0)],
                &mut [&mut y],
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert!(
            matches!(err.serve(), Some(hpacml_core::ServeError::Deadline { .. })),
            "up-front join rejection must be the core typed error: {err}"
        );
        assert!(err.is_deadline());
        // Fill the 2-slot batch so the parked leader flushes now.
        daemon.submit("dl", &[&sample(0)], &mut [&mut y]).unwrap();
        let lead = leader.join().unwrap().unwrap();
        assert_eq!(lead, y[0], "same sample in the same batch, same result");
    });

    // --- Overload: while one sample is staged, cap 1 sheds the next.
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            daemon.submit("ol", &[&sample(1)], &mut [&mut y])
        });
        std::thread::sleep(Duration::from_millis(60));
        let mut y = [0.0f32; 1];
        let err = daemon
            .submit_with_deadline(
                "ol",
                &[&sample(1)],
                &mut [&mut y],
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert!(
            err.is_overloaded(),
            "cap 1 must shed the second sample: {err}"
        );
        leader.join().unwrap().unwrap();
    });

    let stats = daemon.stats();
    assert!(stats.rejected_deadline >= 1, "{stats:?}");
    assert!(stats.rejected_overload >= 1, "{stats:?}");
    assert_eq!(stats.errored, 0, "{stats:?}");
}

#[test]
fn per_region_deadline_default_applies_from_config() {
    let dir = tmpdir("config-deadline");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 17);
    // A parked leader puts the forming batch's flush ~300ms out: the
    // configured 20ms deadline rejects the join up front (the core's typed
    // `ServeError::Deadline`) without the caller passing a budget.
    let cfg = region_cfg(
        "demo",
        &v1,
        "max_batch 4;\n max_wait 300ms;\n workers 1;\n deadline 20ms;",
    );
    let daemon = &DaemonBuilder::new().bootstrap(&cfg).unwrap();
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            // An explicit generous budget overrides the config default.
            daemon.submit_with_deadline(
                "demo",
                &[&sample(0)],
                &mut [&mut y],
                Duration::from_secs(5),
            )
        });
        std::thread::sleep(Duration::from_millis(60));
        let mut y = [0.0f32; 1];
        let err = daemon
            .submit("demo", &[&sample(1)], &mut [&mut y])
            .unwrap_err();
        assert!(err.is_deadline(), "config deadline must apply: {err}");
        leader.join().unwrap().unwrap();
    });
}

#[test]
fn batch_fill_is_bounded_by_callers_not_workers() {
    let dir = tmpdir("fill");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 19);
    const CALLERS: usize = 8;
    let samples: Vec<[f32; 3]> = (0..CALLERS).map(sample).collect();
    let want = direct_outputs(&v1, &samples);
    let cfg = region_cfg("demo", &v1, "max_batch 8;\n max_wait 2ms;\n workers 2;");
    let daemon = &DaemonBuilder::new().bootstrap(&cfg).unwrap();
    std::thread::scope(|scope| {
        for (s, want) in samples.iter().zip(&want) {
            scope.spawn(move || {
                for _ in 0..200 {
                    let mut y = [0.0f32; 1];
                    daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
                    assert_eq!(y[0], *want);
                }
            });
        }
    });
    let fill = daemon.region_stats("demo").unwrap().mean_batch_fill();
    assert!(
        fill > 2.0,
        "{CALLERS} concurrent callers must coalesce past `workers 2`: fill {fill}"
    );
}

/// A host handler that holds every call inside it until released, and
/// says how many are there: with `validation { rate 1; }` each flush runs it
/// in shadow, so a test can put batches *in flight* and keep them there —
/// an interleaving forced by the gate, not hoped for from a sleep.
#[derive(Clone, Default)]
struct Gate {
    inside: Arc<AtomicUsize>,
    open: Arc<AtomicBool>,
}

impl Gate {
    fn handler(&self) -> impl Fn(usize, &[Vec<f32>], &mut [Vec<f32>]) + Send + Sync + 'static {
        let gate = self.clone();
        move |_n, _ins, _outs| {
            gate.inside.fetch_add(1, Ordering::SeqCst);
            while !gate.open.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    }

    /// Wait until `n` calls are inside (bounded, so a build that cannot get
    /// them there fails instead of hanging); returns how many arrived.
    fn wait_inside(&self, n: usize) -> usize {
        let until = Instant::now() + Duration::from_secs(10);
        while self.inside.load(Ordering::SeqCst) < n && Instant::now() < until {
            std::thread::yield_now();
        }
        self.inside.load(Ordering::SeqCst)
    }

    fn release(&self) {
        self.open.store(true, Ordering::SeqCst);
    }
}

/// Every flush shadow-validated against the registered handler.
const VALIDATE_ALL: &str = "validation { metric rmse; budget 1000000.0; rate 1; }";

#[test]
fn admission_cap_is_reachable_above_workers() {
    let dir = tmpdir("cap");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 23);
    // `max_batch 1`: every submit executes its own batch on its own thread,
    // and stays in flight while the gate holds its shadow validation.
    let body = format!("max_batch 1;\n max_pending 3;\n workers 2;\n {VALIDATE_ALL}");
    let gate = Gate::default();
    let daemon = &DaemonBuilder::new()
        .host_handler("demo", gate.handler())
        .bootstrap(&region_cfg("demo", &v1, &body))
        .unwrap();
    std::thread::scope(|scope| {
        let held: Vec<_> = (0..3)
            .map(|i| {
                scope.spawn(move || {
                    let mut y = [0.0f32; 1];
                    daemon.submit("demo", &[&sample(i)], &mut [&mut y])
                })
            })
            .collect();
        let in_flight = gate.wait_inside(3);
        let mut y = [0.0f32; 1];
        // Only with the cap reached: a fourth that is admitted would sit
        // behind the gate this thread has yet to open.
        let fourth = (in_flight == 3).then(|| daemon.submit("demo", &[&sample(3)], &mut [&mut y]));
        let shed = daemon.stats().rejected_overload;
        gate.release();
        for h in held {
            h.join().unwrap().unwrap();
        }
        assert_eq!(in_flight, 3, "three callers must reach the batch server");
        let err = fourth.unwrap().unwrap_err();
        assert!(err.is_overloaded(), "three in flight, cap 3: {err}");
        assert_eq!(shed, 1);
    });
    let stats = daemon.stats();
    assert_eq!((stats.served, stats.errored), (3, 0), "{stats:?}");
}

#[test]
fn a_retired_generation_is_released() {
    let dir = tmpdir("released");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 29);
    let cfg = region_cfg("demo", &v1, "max_batch 4;\n max_wait 100us;");
    let daemon = &DaemonBuilder::new().bootstrap(&cfg).unwrap();
    let first = daemon.snapshot();
    let weak = Arc::downgrade(&first);
    // A thread that served one request and then sits idle must not keep
    // the generation it served from (its region, its model) alive.
    let (submitted, release) = (&Barrier::new(2), &Barrier::new(2));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut y = [0.0f32; 1];
            daemon.submit("demo", &[&sample(0)], &mut [&mut y]).unwrap();
            submitted.wait();
            release.wait();
        });
        submitted.wait();
        daemon.apply(&cfg).unwrap();
        drop(first);
        let pinned = weak.upgrade().is_some();
        release.wait();
        assert!(!pinned, "generation 1 is still referenced after its retire");
    });
}

#[test]
fn apply_returns_with_the_old_generation_idle_and_flushed() {
    let dir = tmpdir("idle-flushed");
    let (v1, db) = (dir.join("v1.hml"), dir.join("rows.h5"));
    save_mlp(&v1, 31);
    // The shadow validation of a flush appends its rows to the region's db
    // *after* the handler returns: the file can only be on disk when `apply`
    // returns if `retire` waited for the gated batch and flushed afterwards.
    let body = format!(
        "db \"{}\";\n max_batch 1;\n {VALIDATE_ALL}",
        esc(&db.display().to_string())
    );
    let cfg = region_cfg("demo", &v1, &body);
    let gate = Gate::default();
    let daemon = &DaemonBuilder::new()
        .host_handler("demo", gate.handler())
        .bootstrap(&cfg)
        .unwrap();
    // Held to the end: nothing below is the work of a drop.
    let first = daemon.snapshot();
    std::thread::scope(|scope| {
        let in_flight = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            daemon.submit("demo", &[&sample(0)], &mut [&mut y])
        });
        assert_eq!(gate.wait_inside(1), 1);
        let applied = scope.spawn(|| daemon.apply(&cfg));
        // The swap is stored before the retire that has to wait for us.
        while daemon.generation() == 1 && !applied.is_finished() {
            std::thread::yield_now();
        }
        assert!(!db.exists(), "nothing has flushed yet");
        gate.release();
        applied.join().unwrap().unwrap();
        let stats = first.region_stats("demo").unwrap();
        assert_eq!((stats.batch_submitted, stats.batches_flushed), (1, 1));
        assert!(
            db.exists(),
            "retire flushes the region's db before returning"
        );
        in_flight.join().unwrap().unwrap();
    });
    assert_eq!(first.generation(), 1);
    assert_eq!(daemon.stats().served, 1);
}

/// Bindings come from config text. A `bind` whose sweep reaches past
/// `usize` — 2^61 + 1 rows of 8 features end at element 2^64 + 7 — is a
/// typed build error from `bootstrap` and from `apply`, never a panic, and
/// the failed `apply` leaves the old generation serving.
#[test]
fn overflowing_bind_is_a_typed_build_error() {
    let dir = tmpdir("overflowing-bind");
    let model = dir.join("m.hml");
    let spec = ModelSpec::mlp(8, &[8], 1, Activation::Tanh, 0.0);
    let net = spec.build(37).unwrap();
    hpacml_nn::serialize::save_model(&model, &spec, &net, None, None).unwrap();
    let directive = format!(
        r#"#pragma approx tensor functor(rows: [i, 0:8] = ([8*i : 8*i+8]))
#pragma approx tensor functor(single: [i, 0:1] = ([i]))
#pragma approx tensor map(to: rows(x[0:N]))
#pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")"#,
        model.display()
    );
    let cfg = |n: i64| {
        format!(
            "region wide {{\n directive \"{}\";\n bind N {n};\n input x 8;\n output y 1;\n max_batch 1;\n}}\n",
            esc(&directive)
        )
    };
    let huge = (1i64 << 61) + 1;
    let assert_overflow = |err: DaemonError| match &err {
        DaemonError::Build { region, msg } => {
            assert_eq!(region, "wide");
            assert!(msg.contains("reaches past element"), "{msg}");
        }
        other => panic!("expected Build, got: {other}"),
    };

    assert_overflow(DaemonBuilder::new().bootstrap(&cfg(huge)).unwrap_err());

    let daemon = DaemonBuilder::new().bootstrap(&cfg(1)).unwrap();
    assert_overflow(daemon.apply(&cfg(huge)).unwrap_err());
    assert_eq!(daemon.generation(), 1);
    let mut y = [0.0f32; 1];
    daemon.submit("wide", &[&[0.25; 8]], &mut [&mut y]).unwrap();
    assert!(y[0].is_finite());
}

/// Bindings size the compiled plan, and they are config text. `bind N 2^40`
/// over a sweep that reads `x[0]` at every point fits in `usize`, so no
/// overflow check catches it; the plan's buffers would be 4 TB. `apply`
/// must refuse it with a typed error before anything of that size is
/// allocated, and the old generation keeps serving bitwise.
#[test]
fn apply_of_a_plan_too_large_to_allocate_keeps_the_old_generation_serving() {
    let dir = tmpdir("plan-too-large");
    let model = dir.join("m.hml");
    let spec = ModelSpec::mlp(1, &[8], 1, Activation::Tanh, 0.0);
    let net = spec.build(41).unwrap();
    hpacml_nn::serialize::save_model(&model, &spec, &net, None, None).unwrap();
    let directive = format!(
        r#"#pragma approx tensor functor(first: [i, 0:1] = ([0]))
#pragma approx tensor functor(single: [i, 0:1] = ([i]))
#pragma approx tensor map(to: first(x[0:N]))
#pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")"#,
        model.display()
    );
    let cfg = |n: i64| {
        format!(
            "region big {{\n directive \"{}\";\n bind N {n};\n input x 1;\n output y {n};\n max_batch 1;\n}}\n",
            esc(&directive)
        )
    };
    let daemon = DaemonBuilder::new().bootstrap(&cfg(4)).unwrap();
    let x = [0.75f32];
    let serve = || {
        let mut y = [0.0f32; 4];
        daemon.submit("big", &[&x], &mut [&mut y]).unwrap();
        y.map(f32::to_bits)
    };
    let want = serve();
    for _ in 0..3 {
        match daemon.apply(&cfg(1 << 40)).unwrap_err() {
            DaemonError::Build { region, msg } => {
                assert_eq!(region, "big");
                assert!(msg.contains("cannot reserve storage"), "{msg}");
            }
            other => panic!("expected Build, got: {other}"),
        }
        assert_eq!(daemon.generation(), 1, "a failed apply must not swap");
        assert_eq!(serve(), want, "old generation, bitwise");
    }
    assert_eq!(daemon.stats().swaps, 0);
}
