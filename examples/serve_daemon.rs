//! Serving daemon with a live control plane: bootstrap two model versions,
//! serve from a declarative config, then hot-swap the deployed model with
//! `apply` while requests keep flowing.
//!
//! ```sh
//! cargo run --release --example serve_daemon
//! ```

use hpac_ml::nn::spec::{Activation, ModelSpec};
use hpac_ml::serve::DaemonBuilder;
use std::path::Path;

fn save_mlp(path: &Path, seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    let spec = ModelSpec::mlp(3, &[16], 1, Activation::Tanh, 0.0);
    let model = spec.build(seed)?;
    hpac_ml::nn::serialize::save_model(path, &spec, &model, None, None)?;
    Ok(())
}

fn config_for(model: &Path, max_batch: usize) -> String {
    // The directive is ordinary HPAC-ML source, embedded as a quoted
    // string; the surrounding block declares the serving geometry.
    let directive = format!(
        "#pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))\
         \\n#pragma approx tensor functor(single: [i, 0:1] = ([i]))\
         \\n#pragma approx tensor map(to: rows(x[0:N]))\
         \\n#pragma approx ml(infer) in(x) out(single(y[0:N])) model(\\\"{}\\\")",
        model.display()
    );
    format!(
        "region demo {{\n    directive \"{directive}\";\n    bind N 1;\n    \
         input x 3;\n    output y 1;\n    max_batch {max_batch};\n    max_wait 200us;\n}}\n"
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("hpacml-serve-daemon");
    std::fs::create_dir_all(&dir)?;
    let (v1, v2) = (dir.join("v1.hml"), dir.join("v2.hml"));
    save_mlp(&v1, 3)?;
    save_mlp(&v2, 11)?;

    // Bootstrap generation 1 from config text: the region is built,
    // shadow-probed, and serving before `bootstrap` returns.
    let daemon = DaemonBuilder::new().bootstrap(&config_for(&v1, 8))?;
    println!(
        "generation {} serving {:?}",
        daemon.generation(),
        daemon.snapshot().region_names()
    );

    let sample = [0.3f32, -0.2, 0.8];
    let mut y1 = [0.0f32; 1];
    daemon.submit("demo", &[&sample], &mut [&mut y1])?;
    println!("v1 output: {}", y1[0]);

    // Live reload: compile the next snapshot off to the side, swap it in
    // atomically. In-flight requests finish on the old snapshot; a failed
    // apply (e.g. a missing model) would leave it serving untouched.
    let report = daemon.apply(&config_for(&v2, 4))?;
    println!(
        "applied generation {} -> regions {:?}",
        report.generation, report.regions
    );

    let mut y2 = [0.0f32; 1];
    daemon.submit("demo", &[&sample], &mut [&mut y2])?;
    println!("v2 output: {}", y2[0]);
    assert_ne!(y1[0], y2[0], "the swap must actually change the model");

    let stats = daemon.stats();
    println!(
        "served {} requests across {} swap(s), {} retried on a swap race",
        stats.served, stats.swaps, stats.swap_retries
    );
    assert_eq!(stats.served, 2);
    assert_eq!(stats.errored, 0);
    daemon.shutdown();
    Ok(())
}
