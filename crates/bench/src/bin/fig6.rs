//! Figure 6 — proportion of time spent in each primary HPAC-ML runtime
//! operation in inference mode: To-Tensor, Inference Engine, From-Tensor.
//!
//! Reuses the models trained by the fig5 pipeline (training them first if
//! absent), then reads the per-phase breakdown off the region statistics.
//! Also surfaces the plans-compiled count, the model hit/miss counters and
//! the batch-occupancy counters, so the compile-once/execute-many *and*
//! coalesce-many-invocations claims are observable, not asserted: a
//! benchmark shows a handful of plans compiled when its session is built
//! and none after, the model resolved exactly once, and a mean batch fill
//! well above 1 wherever the app batches its sweep.

fn main() {
    let args = hpacml_bench::parse_args("fig6");
    println!(
        "\nFigure 6: Proportion of time per HPAC-ML inference-mode operation \
         ({:?} scale).\n",
        args.cfg.scale
    );
    println!(
        "{:<16} {:>12} {:>18} {:>13} {:>14} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9}",
        "Benchmark",
        "To Tensor",
        "Inference Engine",
        "From Tensor",
        "Bridge/Engine",
        "Plans",
        "Model h/m",
        "Batches",
        "Fill",
        "Val/Fb",
        "DbE/Rt"
    );
    println!("{}", "-".repeat(146));
    let mut rows = Vec::new();
    for b in hpacml_apps::all_benchmarks() {
        let model_path = args.cfg.model_path(b.name());
        let eval = if model_path.exists() {
            b.evaluate(&args.cfg, &model_path)
        } else {
            b.pipeline(&args.cfg).map(|(_, _, e)| e)
        };
        match eval {
            Ok(eval) => {
                let (to, inf, from) = eval.region.breakdown();
                let s = &eval.region;
                println!(
                    "{:<16} {:>11.2}% {:>17.2}% {:>12.2}% {:>13.3}% {:>11} {:>11} {:>9} {:>9.1} {:>9} {:>9}",
                    b.name(),
                    to * 100.0,
                    inf * 100.0,
                    from * 100.0,
                    s.bridge_overhead_ratio() * 100.0,
                    s.plan_cache_misses,
                    format!("{}/{}", s.model_cache_hits, s.model_cache_misses),
                    s.batches_flushed,
                    s.mean_batch_fill(),
                    format!("{}/{}", s.validated_invocations, s.fallback_invocations),
                    format!("{}/{}", s.db_errors, s.retry_attempts),
                );
                rows.push(format!(
                    "{},{:.5},{:.5},{:.5},{:.5},{},{},{},{},{},{:.2},{},{},{},{},{},{},{},{}",
                    b.name(),
                    to,
                    inf,
                    from,
                    s.bridge_overhead_ratio(),
                    s.plan_cache_misses,
                    s.model_cache_hits,
                    s.model_cache_misses,
                    s.batch_submitted,
                    s.batches_flushed,
                    s.mean_batch_fill(),
                    s.validated_invocations,
                    s.fallback_invocations,
                    s.surrogate_disables,
                    s.surrogate_reenables,
                    s.db_errors,
                    s.retry_attempts,
                    s.retry_giveups,
                    s.surrogate_errors,
                ));
            }
            Err(e) => eprintln!("{:<16} FAILED: {e}", b.name()),
        }
    }
    println!(
        "\nPaper's claim: layout transformation overhead is 0.01%-8% of the \
         inference-engine latency. Plans counts the bridge plans compiled when \
         the benchmark's session was built — invocations compile none; model \
         misses stay at 1 (resolved once, reused thereafter); \
         and a mean batch fill above 1 means many logical invocations shared \
         each forward pass (the runtime batch dimension at work — MiniWeather's \
         auto-regressive loop is the expected fill-1 outlier). Val/Fb counts \
         shadow-validated and fallback-served invocations: both 0 here because \
         the evaluation harness attaches no ValidationPolicy — fig10 sweeps \
         that axis. DbE/Rt counts db I/O errors and transient-failure retries \
         (see crates/faults): anything nonzero on a healthy filesystem means \
         the store is flaking and the run's collected data deserves suspicion."
    );
    hpacml_bench::write_csv(
        &args.results_dir,
        "fig6.csv",
        "benchmark,to_tensor_frac,inference_frac,from_tensor_frac,bridge_over_engine,\
         plan_cache_misses,model_cache_hits,model_cache_misses,\
         batch_submitted,batches_flushed,mean_batch_fill,validated_invocations,\
         fallback_invocations,surrogate_disables,surrogate_reenables,\
         db_errors,retry_attempts,retry_giveups,surrogate_errors",
        &rows,
    );
}
