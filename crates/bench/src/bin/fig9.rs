//! Figure 9 — MiniWeather: auto-regressive surrogate error propagation and
//! the interleaving trade-off (the paper's Observation 4).
//!
//! * (a/b/c) field summaries at the final timestep for the original
//!   simulation, the all-surrogate simulation, and 1:1 interleaving (the
//!   paper shows images; we print summary statistics and dump the
//!   potential-temperature field to CSV for plotting);
//! * (d) RMSE vs speedup across Original:Surrogate interleavings
//!   {0:1, 1:1, 2:1, 3:3};
//! * (e) per-timestep RMSE for each interleaving;
//! * (f) CDF of relative error after 1 surrogate step vs after 10.

use hpacml_apps::metrics::{cdf_at, relative_errors};
use hpacml_apps::miniweather::{
    session_step, weather_session, MiniWeather, Sim, WeatherConfig, HS, ID_RHOT,
};
use hpacml_apps::Benchmark;
use hpacml_core::Region;
use std::time::Instant;

fn build_infer_region(model: &std::path::Path) -> Region {
    Region::builder("miniweather-fig9")
        .directive("#pragma approx tensor functor(st: [c, k, i, 0:1] = ([c, k, i]))")
        .directive("#pragma approx tensor map(to: st(state[0:4, 0:NZ, 0:NX]))")
        .directive("#pragma approx ml(predicated:use_model) inout(state)")
        .model(model)
        .build()
        .expect("fig9 region")
}

/// Run `steps` from `start`, taking `orig` accurate then `surr` surrogate
/// steps cyclically; returns per-step RMSE vs the reference trajectory and
/// the wall time.
fn run_interleaved(
    region: &Region,
    start: &Sim,
    reference: &[Vec<f32>],
    orig: usize,
    surr: usize,
) -> (Vec<f64>, std::time::Duration) {
    let mut sim = start.clone();
    // Compile once; every interleaved timestep reuses the session.
    let session = weather_session(region, &sim).expect("fig9 session");
    let mut rmse = Vec::with_capacity(reference.len());
    let cycle = (orig + surr).max(1);
    let t0 = Instant::now();
    for (phase, r) in reference.iter().enumerate() {
        let use_model = phase % cycle >= orig;
        session_step(&session, &mut sim, use_model).expect("fig9 step");
        rmse.push(hpacml_apps::metrics::rmse(&sim.interior(), r));
    }
    (rmse, t0.elapsed())
}

fn field_summary(sim: &Sim) -> (f32, f32, f64) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    let mut sum = 0.0f64;
    let int = sim.interior();
    for v in &int {
        min = min.min(*v);
        max = max.max(*v);
        sum += *v as f64;
    }
    (min, max, sum / int.len() as f64)
}

fn dump_theta(dir: &std::path::Path, name: &str, sim: &Sim) {
    let mut rows = Vec::new();
    for k in 0..sim.nz {
        let mut cols = Vec::with_capacity(sim.nx);
        for i in 0..sim.nx {
            let idx = ((ID_RHOT * (sim.nz + 2 * HS)) + k + HS) * (sim.nx + 2 * HS) + i + HS;
            cols.push(format!("{:.5}", sim.state[idx]));
        }
        rows.push(cols.join(","));
    }
    hpacml_bench::write_csv(
        dir,
        name,
        "# rho_theta perturbation field, one row per z level",
        &rows,
    );
}

fn main() {
    let args = hpacml_bench::parse_args("fig9");
    let bench = MiniWeather;
    let wc = WeatherConfig::for_scale(args.cfg.scale);
    println!(
        "\nFigure 9: MiniWeather error propagation and interleaving ({:?} scale: \
         {}x{} grid, {} warmup steps, {} eval steps).\n",
        args.cfg.scale, wc.nx, wc.nz, wc.eval_warmup, wc.eval_steps
    );

    // Train (or reuse) the surrogate from the standard pipeline.
    let model_path = args.cfg.model_path(bench.name());
    if !model_path.exists() {
        println!("[fig9] training the MiniWeather surrogate first...");
        let (_c, t, _e) = bench.pipeline(&args.cfg).expect("pipeline");
        println!(
            "[fig9] trained: val loss {:.5}, {} params\n",
            t.val_loss, t.params
        );
    }
    let region = build_infer_region(&model_path);

    // Warmup: accurate solution until the training horizon (paper: all plots
    // use the original solution until timestep 1000).
    let mut base = Sim::new(wc.nx, wc.nz);
    for _ in 0..wc.eval_warmup {
        base.step();
    }

    // Reference trajectory (and its wall time, the speedup denominator).
    let mut reference_sim = base.clone();
    let mut reference = Vec::with_capacity(wc.eval_steps);
    let t0 = Instant::now();
    for _ in 0..wc.eval_steps {
        reference_sim.step();
        reference.push(reference_sim.interior());
    }
    let accurate_time = t0.elapsed();

    // Panels (d) and (e): interleaving configurations.
    let configs: [(usize, usize); 4] = [(0, 1), (1, 1), (2, 1), (3, 3)];
    let mut d_rows = Vec::new();
    let mut e_rows = Vec::new();
    let mut final_sims: Vec<(String, Sim)> = Vec::new();
    println!("(d) RMSE vs speedup at the final evaluated timestep:\n");
    println!(
        "{:>18} {:>12} {:>9}",
        "Original:Surrogate", "Final RMSE", "Speedup"
    );
    for (orig, surr) in configs {
        let (rmse_series, wall) = run_interleaved(&region, &base, &reference, orig, surr);
        let label = format!("{orig}:{surr}");
        let final_rmse = *rmse_series.last().unwrap_or(&f64::NAN);
        let speedup = accurate_time.as_secs_f64() / wall.as_secs_f64().max(1e-12);
        println!("{label:>18} {final_rmse:>12.4} {speedup:>8.2}x");
        d_rows.push(format!("{label},{final_rmse:.6},{speedup:.4}"));
        for (step, r) in rmse_series.iter().enumerate() {
            e_rows.push(format!("{label},{},{r:.6}", wc.eval_warmup + step + 1));
        }
        // Keep final states for the (a/b/c) panels.
        if (orig, surr) == (0, 1) || (orig, surr) == (1, 1) {
            let mut sim = base.clone();
            let session = weather_session(&region, &sim).expect("replay session");
            let cycle = (orig + surr).max(1);
            for (phase, _) in reference.iter().enumerate() {
                let use_model = phase % cycle >= orig;
                session_step(&session, &mut sim, use_model).expect("replay");
            }
            final_sims.push((label, sim));
        }
    }
    println!(
        "\nPaper's shape: all-surrogate (0:1) is fastest but error grows along the \
         trajectory; interleaving accurate steps cuts error at the cost of speedup."
    );

    // Panel (e): per-timestep error (printed sparsely).
    println!("\n(e) Per-timestep RMSE (every 10th step):\n");
    let header: Vec<String> = configs
        .iter()
        .map(|(o, s)| format!("{:>10}", format!("{o}:{s}")))
        .collect();
    println!("{:>8} {}", "step", header.join(" "));
    for step in (0..wc.eval_steps).step_by(10.max(wc.eval_steps / 10)) {
        let mut line = format!("{:>8}", wc.eval_warmup + step + 1);
        for (orig, surr) in configs {
            let label = format!("{orig}:{surr}");
            let val = e_rows
                .iter()
                .find(|r| r.starts_with(&format!("{label},{}", wc.eval_warmup + step + 1)))
                .and_then(|r| r.rsplit(',').next().map(|v| v.to_string()))
                .unwrap_or_default();
            line.push_str(&format!(" {val:>10}"));
        }
        println!("{line}");
    }

    // Panels (a/b/c): final-state summaries + field dumps.
    println!("\n(a/b/c) Final-state summaries (rho-theta fields dumped to CSV):\n");
    let (mn, mx, mean) = field_summary(&reference_sim);
    println!("  original        : min {mn:.4}  max {mx:.4}  mean {mean:.6}");
    dump_theta(&args.results_dir, "fig9a_original.csv", &reference_sim);
    for (label, sim) in &final_sims {
        let (mn, mx, mean) = field_summary(sim);
        let rmse = hpacml_apps::metrics::rmse(&sim.interior(), &reference_sim.interior());
        println!(
            "  {label:<16}: min {mn:.4}  max {mx:.4}  mean {mean:.6}  RMSE vs original {rmse:.4}"
        );
        let fname = if label == "0:1" {
            "fig9b_surrogate.csv"
        } else {
            "fig9c_mixed.csv"
        };
        dump_theta(&args.results_dir, fname, sim);
    }

    // Panel (f): relative-error CDF after 1 vs 10 surrogate steps.
    println!("\n(f) CDF of relative error, 1 vs 10 consecutive surrogate steps:\n");
    let mut sim = base.clone();
    let session = weather_session(&region, &sim).expect("cdf session");
    session_step(&session, &mut sim, true).expect("step 1");
    let rel1 = relative_errors(&reference[0], &sim.interior());
    for _ in 1..10.min(wc.eval_steps) {
        session_step(&session, &mut sim, true).expect("step k");
    }
    let step10_idx = 10.min(wc.eval_steps) - 1;
    let rel10 = relative_errors(&reference[step10_idx], &sim.interior());
    let thresholds = [0.01, 0.05, 0.09, 0.2, 0.5, 1.0, 1.25, 3.04, 10.0];
    let cdf1 = cdf_at(&rel1, &thresholds);
    let cdf10 = cdf_at(&rel10, &thresholds);
    println!("{:>10} {:>12} {:>12}", "rel. err", "step +1", "step +10");
    let mut f_rows = Vec::new();
    for ((t, c1), (_, c10)) in cdf1.iter().zip(&cdf10) {
        println!("{t:>10.2} {:>11.1}% {:>11.1}%", c1 * 100.0, c10 * 100.0);
        f_rows.push(format!("{t},{c1:.4},{c10:.4}"));
    }
    println!(
        "\nPaper's shape: after 10 consecutive surrogate steps the error \
         distribution shifts right by roughly an order of magnitude."
    );

    hpacml_bench::write_csv(
        &args.results_dir,
        "fig9d.csv",
        "config,final_rmse,speedup",
        &d_rows,
    );
    hpacml_bench::write_csv(&args.results_dir, "fig9e.csv", "config,step,rmse", &e_rows);
    hpacml_bench::write_csv(
        &args.results_dir,
        "fig9f.csv",
        "threshold,cdf_step1,cdf_step10",
        &f_rows,
    );
}
