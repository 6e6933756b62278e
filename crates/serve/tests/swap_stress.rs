//! Snapshot-swap stress: many submitter threads hammer the daemon while
//! the main thread live-applies alternating configs. The contract under
//! test: zero dropped or failed invocations across every swap, every
//! output bitwise equal to one of the two models' direct results, and no
//! `apply` under load slower than the swap budget.

use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_serve::{DaemonBuilder, DaemonError};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const THREADS: usize = 6;
const ITERS: usize = 250;
const APPLIES: usize = 10;
/// Build + probe + swap + retire of this tiny region takes about a
/// millisecond; the budget is generous so only a stall trips it.
const SWAP_BUDGET: Duration = Duration::from_millis(200);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-swap-stress").join(name);
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

fn config_for(model: &Path, max_batch: usize, max_wait: &str, workers: usize) -> String {
    let esc = directive_src(model)
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!(
        "region demo {{\n directive \"{esc}\";\n bind N 1;\n input x 3;\n output y 1;\n max_batch {max_batch};\n max_wait {max_wait};\n workers {workers};\n}}\n"
    )
}

fn direct_outputs(model: &Path, samples: &[[f32; 3]]) -> Vec<f32> {
    let region = hpacml_core::Region::from_source("swap-ref", &directive_src(model)).unwrap();
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
        (i as f32 * 0.23).sin(),
        (i as f32 * 0.71).cos(),
        (i as f32 * 0.013) - 1.0,
    ]
}

#[test]
fn swaps_drop_nothing_and_serve_only_real_models() {
    let dir = tmpdir("alternate");
    let (v1, v2) = (dir.join("v1.hml"), dir.join("v2.hml"));
    save_mlp(&v1, 3);
    save_mlp(&v2, 4);

    // Per-thread distinct samples with per-model expected outputs.
    let samples: Vec<[f32; 3]> = (0..THREADS).map(sample).collect();
    let expect_v1 = direct_outputs(&v1, &samples);
    let expect_v2 = direct_outputs(&v2, &samples);
    for (a, b) in expect_v1.iter().zip(&expect_v2) {
        assert_ne!(a, b, "models must be distinguishable");
    }

    // Config A serves v1, config B serves v2 with different batching knobs,
    // so each apply swaps the model and the serving geometry.
    let cfg_a = config_for(&v1, 8, "200us", 4);
    let cfg_b = config_for(&v2, 4, "150us", 3);

    let daemon = &DaemonBuilder::new().bootstrap(&cfg_a).unwrap();
    std::thread::scope(|scope| {
        for (t, s) in samples.iter().enumerate() {
            let (expect_v1, expect_v2) = (&expect_v1, &expect_v2);
            scope.spawn(move || {
                for _ in 0..ITERS {
                    let mut y = [0.0f32; 1];
                    daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
                    assert!(
                        y[0] == expect_v1[t] || y[0] == expect_v2[t],
                        "thread {t}: output {} matches neither model ({} / {})",
                        y[0],
                        expect_v1[t],
                        expect_v2[t]
                    );
                }
            });
        }
        for k in 0..APPLIES {
            // Spread the swaps across the submit storm.
            std::thread::sleep(Duration::from_millis(5));
            let next = if k % 2 == 0 { &cfg_b } else { &cfg_a };
            let start = Instant::now();
            let report = daemon.apply(next).unwrap();
            let took = start.elapsed();
            assert_eq!(report.generation, (k + 2) as u64);
            assert!(
                took <= SWAP_BUDGET,
                "apply {k} took {took:?} under load, over the {SWAP_BUDGET:?} budget"
            );
        }
    });

    let stats = daemon.stats();
    assert_eq!(stats.generation, (APPLIES + 1) as u64);
    assert_eq!(stats.swaps, APPLIES as u64);
    assert_eq!(
        stats.served,
        (THREADS * ITERS) as u64,
        "every invocation must be served across all swaps: {stats:?}"
    );
    assert_eq!(stats.errored, 0, "{stats:?}");
    assert_eq!(stats.rejected_overload, 0, "{stats:?}");
    assert_eq!(stats.rejected_deadline, 0, "{stats:?}");

    daemon.shutdown();
    let mut y = [0.0f32; 1];
    let err = daemon
        .submit("demo", &[&samples[0]], &mut [&mut y])
        .unwrap_err();
    assert!(matches!(err, DaemonError::ShutDown), "{err}");
}
