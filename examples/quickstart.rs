//! Quickstart: the paper's Fig. 2 workflow end to end on a 2-D Jacobi
//! stencil — annotate, collect, train, deploy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hpac_ml::core::{PathTaken, Region};
use hpac_ml::directive::sema::Bindings;
use hpac_ml::nn::spec::{Activation, ModelSpec};
use hpac_ml::nn::{InMemoryDataset, Normalizer};
use hpac_ml::tensor::Tensor;

/// The accurate code region: one Jacobi relaxation step on the interior.
fn do_timestep(t: &[f32], tnew: &mut [f32], n: usize, m: usize) {
    for i in 1..n - 1 {
        for j in 1..m - 1 {
            tnew[i * m + j] = 0.25
                * (t[(i - 1) * m + j] + t[(i + 1) * m + j] + t[i * m + j - 1] + t[i * m + j + 1]);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("hpacml-quickstart");
    std::fs::create_dir_all(&dir)?;
    let db = dir.join("stencil.h5");
    let model = dir.join("stencil.hml");
    let _ = std::fs::remove_file(&db);

    // 1. Annotate: the Fig. 2 directives, with predicated mode so the same
    //    source can collect data (false) or run the surrogate (true).
    let region = Region::from_source(
        "stencil",
        &format!(
            r#"
            #pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
            #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))
            #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))
            #pragma approx tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))
            #pragma approx ml(predicated:false) in(t) out(tnew) db("{}") model("{}")
            "#,
            db.display(),
            model.display()
        ),
    )?;

    let (n, m) = (12usize, 14usize);
    let binds = Bindings::new().with("N", n as i64).with("M", m as i64);
    // Compile the region into a `Session` once: bridge plans for these
    // bindings and per-sample shapes, plus the largest runtime batch one
    // invocation may carry (the auto-regressive stencil steps one grid at a
    // time: 1). Collection and deployment below both run through it.
    let session = region.session(&binds, &[("t", &[n, m]), ("tnew", &[n, m])], 1)?;

    // 2. Collect: run the accurate region while HPAC-ML records the 5-point
    //    stencil inputs and the produced outputs.
    println!("collecting training data...");
    let mut seed = 1u64;
    for _ in 0..60 {
        let t: Vec<f32> = (0..n * m)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect();
        let mut tnew = vec![0.0f32; n * m];
        let mut out = session
            .invoke()
            .use_surrogate(false)
            .input("t", &t)?
            .run(|| do_timestep(&t, &mut tnew, n, m))?;
        out.output("tnew", &mut tnew)?;
        out.finish()?;
    }
    region.flush_db()?;
    println!(
        "  collected {} bytes into {}",
        region.db_size_bytes(),
        db.display()
    );

    // 3. Train (the "ML engineer" step): load the database, fit a tiny MLP
    //    from the 5 stencil features to the next value, save as .hml.
    println!("training the surrogate...");
    let file = hpac_ml::store::H5File::open(&db)?;
    let group = file.root().group("stencil")?;
    let xs = group.group("inputs")?.dataset("t")?;
    let ys = group.group("outputs")?.dataset("tnew")?;
    let samples = xs.rows() * (n - 2) * (m - 2);
    let x = Tensor::from_vec(xs.read_f32()?, [samples, 5])?;
    let y = Tensor::from_vec(ys.read_f32()?, [samples, 1])?;
    let ds = InMemoryDataset::new(x, y)?;
    let (train, val) = ds.split(0.8, 7);
    let norm = Normalizer::fit(&train.x, hpac_ml::nn::data::NormAxis::PerFeature)?;
    let train_n = InMemoryDataset::new(norm.transform(&train.x), train.y.clone())?;
    let val_n = InMemoryDataset::new(norm.transform(&val.x), val.y.clone())?;
    let spec = ModelSpec::mlp(5, &[16], 1, Activation::Tanh, 0.0);
    let mut net = spec.build(3)?;
    let cfg = hpac_ml::nn::TrainConfig {
        epochs: 40,
        optimizer: hpac_ml::nn::optim::Optimizer::adam(5e-3, 0.0),
        ..Default::default()
    };
    let hist = hpac_ml::nn::train(&mut net, &train_n, Some(&val_n), &cfg)?;
    hpac_ml::nn::serialize::save_model(&model, &spec, &net, Some(&norm), None)?;
    println!(
        "  validation MSE: {:.6} ({} parameters)",
        hist.best_val,
        spec.param_count()
    );

    // 4. Deploy: the same region, the same session, the clause flipped to
    //    the surrogate. The first run loads the model; after that the hot
    //    loop does no lookups and, in steady state, no heap allocation.
    println!("running inference through the same session...");
    let t: Vec<f32> = (0..n * m).map(|k| ((k % 7) as f32 - 3.0) * 0.2).collect();
    let mut reference = vec![0.0f32; n * m];
    do_timestep(&t, &mut reference, n, m);
    let mut tnew = vec![0.0f32; n * m];
    for _ in 0..100 {
        let mut out = session
            .invoke()
            .use_surrogate(true)
            .input("t", &t)?
            .run(|| unreachable!("surrogate path"))?;
        assert_eq!(out.path(), PathTaken::Surrogate);
        out.output("tnew", &mut tnew)?;
        out.finish()?;
    }

    let max_err = reference
        .iter()
        .zip(&tnew)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("  max |surrogate - accurate| on the interior: {max_err:.4}");

    let stats = region.stats();
    let (to, inf, from) = stats.breakdown();
    println!(
        "  runtime breakdown: to-tensor {:.1}%, inference {:.1}%, from-tensor {:.1}%",
        to * 100.0,
        inf * 100.0,
        from * 100.0
    );
    println!(
        "  {} invocations through {} compiled plans; model loaded {} time(s), reused {} \
         (compile once, execute many)",
        stats.invocations,
        stats.plan_cache_misses,
        stats.model_cache_misses,
        stats.model_cache_hits
    );
    Ok(())
}
