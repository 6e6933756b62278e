//! Figure 8 — speedup vs accuracy scatter for MiniBUDE (a), Binomial
//! Options (b) and Bonds (c), colored (tabulated) by relative model size;
//! plus the batch-size sweep behind the paper's dominant speedup lever.
//!
//! Reproduces the paper's Observations 2 and 3: larger models are usually
//! slower and more accurate (MiniBUDE, Binomial), but not always (Bonds,
//! where overfitting can invert the trend).
//!
//! The batch-size sweep runs against **one** compiled session: the batch
//! dimension is a *runtime* parameter of `invoke_batch`, so sweeping it
//! neither rebuilds the region nor re-loads the model per batch size — one
//! compilation, one model resolution, every point.

use hpacml_apps::binomial::{BinomialConfig, OptionBatch, FEATURES};
use hpacml_apps::Benchmark;
use hpacml_bench::{nested_budget, run_campaign};
use hpacml_core::Region;
use hpacml_directive::sema::Bindings;
use std::time::Instant;

/// Batch sizes swept in panel (d); the largest is the session's max_batch.
const BATCH_SIZES: [usize; 6] = [1, 4, 16, 64, 256, 1024];

/// Panel (d): per-sample latency vs runtime batch size on the Binomial
/// surrogate, all points served by one compiled session.
fn batch_sweep(args: &hpacml_bench::HarnessArgs) {
    let bench = hpacml_apps::binomial::BinomialOptions;
    let model_path = args.cfg.model_path(bench.name());
    if !model_path.exists() {
        println!("[fig8] training the Binomial surrogate for the batch sweep...");
        if let Err(e) = bench.pipeline(&args.cfg) {
            eprintln!("[fig8] batch sweep skipped: pipeline failed: {e}");
            return;
        }
    }
    // The app's canonical annotation (same functors/maps the model was
    // trained against), pointed at the trained weights; `use_surrogate(true)`
    // below supplies the predicated clause's host decision.
    let mut builder = Region::builder("binomial-fig8");
    for d in bench.directives() {
        builder = builder.directive(d);
    }
    let region = builder.model(&model_path).build().expect("fig8 region");
    let max_batch = *BATCH_SIZES.last().expect("non-empty sweep");
    let binds = Bindings::new().with("N", 1);
    // Compiled exactly once; every batch size below reuses it.
    let session = region
        .session(
            &binds,
            &[("opts", &[FEATURES]), ("prices", &[1])],
            max_batch,
        )
        .expect("fig8 session");

    let bc = BinomialConfig::for_scale(args.cfg.scale);
    let options = OptionBatch::generate(max_batch, args.cfg.seed.wrapping_add(0xBA7C));
    let mut prices = vec![0.0f32; max_batch];
    // Window the pool counters around the sweep so the busy-ness line below
    // reflects this panel only, not the campaigns that ran before it.
    let pool_base = hpacml_par::global().stats();
    println!("\n(d) Per-sample latency vs runtime batch size (one compiled session):\n");
    println!(
        "{:>8} {:>16} {:>14} {:>10}",
        "batch", "per-sample (ns)", "vs batch=1", "reps"
    );
    let mut rows = Vec::new();
    let mut base_ns = 0.0f64;
    for &n in &BATCH_SIZES {
        // Amortize timer overhead; more reps for small batches.
        let reps = (4096 / n).max(8) * bc.eval_reps as usize;
        // Warm up (compiles nothing; sizes this thread's buffers).
        run_batch(&session, &options, n, &mut prices);
        let t0 = Instant::now();
        for _ in 0..reps {
            run_batch(&session, &options, n, &mut prices);
        }
        let per_sample = t0.elapsed().as_nanos() as f64 / (reps * n) as f64;
        if n == 1 {
            base_ns = per_sample;
        }
        let speedup = base_ns / per_sample.max(1e-9);
        println!("{n:>8} {per_sample:>16.0} {speedup:>13.2}x {reps:>10}");
        rows.push(format!("{n},{per_sample:.1},{speedup:.3}"));
    }
    let s = region.stats();
    println!(
        "\n  occupancy: {} samples over {} forward passes (mean fill {:.1}); \
         model resolved {} time(s), plan compilations {}; validated {} / \
         fallback {} (no ValidationPolicy attached — see fig10 for that axis)",
        s.batch_submitted,
        s.batches_flushed,
        s.mean_batch_fill(),
        s.model_cache_misses,
        s.plan_cache_misses,
        s.validated_invocations,
        s.fallback_invocations
    );
    // "Was the machine busy": batch fill above covers the samples axis;
    // the pool delta covers the threads axis of the same sweep.
    let p = hpacml_par::global().stats().delta_since(&pool_base);
    println!(
        "  pool: {} workers, {} jobs, {} chunks (steal ratio {:.2}, \
         participant occupancy {:.2})",
        p.workers,
        p.jobs,
        p.chunks,
        p.steal_ratio(),
        p.occupancy()
    );
    println!(
        "  The paper's shape: per-sample cost falls steeply with batch size as \
         per-invocation overhead amortizes — the lever behind the end-to-end \
         speedups of panels (a-c)."
    );
    hpacml_bench::write_csv(
        &args.results_dir,
        "fig8_batch.csv",
        "batch,per_sample_ns,speedup_vs_batch1",
        &rows,
    );
}

fn run_batch(
    session: &hpacml_core::Session<'_>,
    options: &OptionBatch,
    n: usize,
    prices: &mut [f32],
) {
    let mut out = session
        .invoke_batch(n)
        .expect("n <= max_batch by construction")
        .use_surrogate(true)
        .input("opts", &options.data[..n * FEATURES])
        .expect("gather")
        .run(|| unreachable!())
        .expect("surrogate run");
    out.output("prices", &mut prices[..n]).expect("scatter");
    out.finish().expect("finish");
}

fn main() {
    let args = hpacml_bench::parse_args("fig8");
    println!(
        "\nFigure 8: Speedup vs accuracy per model, three benchmarks ({:?} scale).\n",
        args.cfg.scale
    );

    let mut rows = Vec::new();
    for b in hpacml_apps::all_benchmarks() {
        if !matches!(b.name(), "minibude" | "binomial" | "bonds") {
            continue;
        }
        println!("--- {} (error metric: {}) ---", b.name(), b.qoi_metric());
        let nested = nested_budget(args.cfg.scale, args.cfg.seed);
        let points = match run_campaign(b.as_ref(), &args.cfg, &nested) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("campaign for {} failed: {e}", b.name());
                continue;
            }
        };
        let min_params = points.iter().map(|p| p.params).min().unwrap_or(1).max(1) as f64;
        println!(
            "{:>12} {:>9} {:>12} {:>10}",
            b.qoi_metric(),
            "Speedup",
            "Params",
            "RelSize"
        );
        let mut shown = points.clone();
        shown.sort_by(|a, b| a.qoi_error.total_cmp(&b.qoi_error));
        for p in &shown {
            println!(
                "{:>12.4} {:>8.2}x {:>12} {:>10.1}",
                p.qoi_error,
                p.speedup,
                p.params,
                p.params as f64 / min_params
            );
            rows.push(format!(
                "{},{:.6},{:.4},{},{:.2}",
                b.name(),
                p.qoi_error,
                p.speedup,
                p.params,
                p.params as f64 / min_params
            ));
        }
        // The paper's trade-off statement: fastest vs most accurate model.
        if let (Some(fastest), Some(most_acc)) = (
            points.iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup)),
            points
                .iter()
                .min_by(|a, b| a.qoi_error.total_cmp(&b.qoi_error)),
        ) {
            println!(
                "  fastest: {:.2}x at error {:.4} ({} params); most accurate: {:.2}x at error {:.4} ({} params)\n",
                fastest.speedup,
                fastest.qoi_error,
                fastest.params,
                most_acc.speedup,
                most_acc.qoi_error,
                most_acc.params
            );
        }
    }
    hpacml_bench::write_csv(
        &args.results_dir,
        "fig8.csv",
        "benchmark,qoi_error,speedup,params,rel_size",
        &rows,
    );

    // Panel (d): the batch-size axis, on one compiled session.
    batch_sweep(&args);
}
