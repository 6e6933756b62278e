//! A host handler that panics, through the daemon. The handler is the
//! accurate closure of each flush's session invocation, so what its panic
//! costs depends on the role it had: as the shadow reference of a drawn
//! flush it costs nothing (the draw is abandoned, the surrogate's outputs
//! are served), and while it serves a fallback it fails exactly the batch
//! it was serving.

use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_serve::{Daemon, DaemonBuilder, DaemonError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-host-handler").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_mlp(path: &Path, seed: u64) {
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
        (i as f32 * 0.29).sin(),
        (i as f32 * 0.13).cos(),
        i as f32 * 0.07 - 0.5,
    ]
}

/// The surrogate's per-sample outputs, through an ordinary session.
fn direct_outputs(model: &Path, samples: &[[f32; 3]]) -> Vec<f32> {
    let region = hpacml_core::Region::from_source("handler-ref", &directive_src(model)).unwrap();
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 1)
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

#[test]
fn a_panicking_shadow_reference_never_reaches_a_reply() {
    let dir = tmpdir("shadow");
    let model = dir.join("m.hml");
    save_mlp(&model, 81);
    const CALLERS: usize = 3;
    const ITERS: usize = 20;
    let samples: Vec<[f32; 3]> = (0..CALLERS).map(sample).collect();
    let want = direct_outputs(&model, &samples);
    // Every flush is drawn, and every shadow reference panics.
    let cfg = config_for(
        &model,
        "max_batch 4;\n max_wait 200us;\n validation { metric rmse; budget 1000000.0; rate 1; }",
    );
    let daemon = &DaemonBuilder::new()
        .host_handler("demo", |_n, _ins, _outs: &mut [Vec<f32>]| {
            panic!("shadow reference exploded")
        })
        .bootstrap(&cfg)
        .unwrap();
    std::thread::scope(|scope| {
        for (s, want) in samples.iter().zip(&want) {
            scope.spawn(move || {
                for _ in 0..ITERS {
                    let mut y = [0.0f32; 1];
                    daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
                    assert_eq!(y[0].to_bits(), want.to_bits(), "the surrogate's bits");
                }
            });
        }
    });
    let stats = daemon.stats();
    assert_eq!(
        (stats.served, stats.errored),
        ((CALLERS * ITERS) as u64, 0),
        "{stats:?}"
    );
    let region = daemon.region_stats("demo").unwrap();
    assert_eq!(
        region.validated_invocations, 0,
        "abandoned draws observe nothing"
    );
    assert_eq!(region.surrogate_invocations, (CALLERS * ITERS) as u64);
}

const DRIFT: usize = 0;
const PANIC: usize = 1;
const HEAL: usize = 2;

/// Two callers submit together (`max_batch 2` closes the batch on the
/// second), so each round is exactly one two-member batch.
fn round(daemon: &Daemon) -> Vec<Result<f32, DaemonError>> {
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2)
            .map(|i| {
                scope.spawn(move || {
                    let mut y = [0.0f32; 1];
                    daemon
                        .submit("demo", &[&sample(i)], &mut [&mut y])
                        .map(|()| y[0])
                })
            })
            .collect();
        callers.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn a_handler_panic_while_serving_fails_only_its_batch() {
    let dir = tmpdir("fallback");
    let model = dir.join("m.hml");
    save_mlp(&model, 83);
    let want = direct_outputs(&model, &[sample(0), sample(1)]);
    let phase = Arc::new(AtomicUsize::new(DRIFT));
    let handler_phase = Arc::clone(&phase);
    // A long max_wait: a batch closes when its second member arrives.
    let cfg = config_for(
        &model,
        "max_batch 2;\n max_wait 30s;\n \
         validation { metric max_abs; budget 0.5; rate 1; window 1; batch_samples 2; }",
    );
    let daemon = &DaemonBuilder::new()
        .host_handler(
            "demo",
            move |n, _ins, outs: &mut [Vec<f32>]| match handler_phase.load(Ordering::SeqCst) {
                PANIC => panic!("host handler exploded"),
                DRIFT => outs[0][..n].fill(100.0),
                _ => outs[0][..n].fill(7.0),
            },
        )
        .bootstrap(&cfg)
        .unwrap();

    // A drifting shadow reference: the surrogate serves, the controller
    // disables it.
    let replies: Vec<f32> = round(daemon).into_iter().map(Result::unwrap).collect();
    assert_eq!(replies, want);
    let region = daemon.region_stats("demo").unwrap();
    assert_eq!(region.surrogate_disables, 1, "{region:?}");

    // Fallback now serves, and the handler panics: both members of that
    // batch get the core's typed batch failure.
    phase.store(PANIC, Ordering::SeqCst);
    for reply in round(daemon) {
        let err = reply.unwrap_err();
        assert!(
            matches!(
                err.serve(),
                Some(hpacml_core::ServeError::Batch { fill: 2, .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("panic"), "{err}");
    }

    // Later submits are served, by the healed handler.
    phase.store(HEAL, Ordering::SeqCst);
    for reply in round(daemon) {
        assert_eq!(reply.unwrap(), 7.0);
    }

    let stats = daemon.stats();
    assert_eq!((stats.served, stats.errored), (4, 2), "{stats:?}");
    assert_eq!(
        stats.served + stats.rejected_overload + stats.rejected_deadline + stats.errored,
        6,
        "every request is in exactly one counter"
    );
    let region = daemon.region_stats("demo").unwrap();
    assert_eq!(region.fallback_invocations, 2, "only the healed batch");
}
