//! Harness utilities shared by the table/figure binaries.
//!
//! Every binary accepts `--scale quick|full` (default `quick`) and
//! `--workdir PATH` (default `results/`), prints the paper-style rows to
//! stdout and writes CSV next to the workdir artifacts. `quick` exercises
//! every code path in seconds-to-minutes; `full` approaches the paper's
//! campaign sizes.

use hpacml_apps::{AppResult, BenchConfig, Benchmark, Scale};
use hpacml_nn::{ModelSpec, TrainConfig};
use hpacml_search::{nested_search, Config, NestedConfig, SearchProblem, Space};
use std::cell::RefCell;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Parsed command-line options for harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    pub cfg: BenchConfig,
    pub results_dir: PathBuf,
}

/// Parse `--scale` / `--workdir` / `--seed` from `std::env::args`.
pub fn parse_args(bin: &str) -> HarnessArgs {
    let mut scale = Scale::Quick;
    let mut workdir = PathBuf::from("results");
    let mut seed = 42u64;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = Scale::parse(&args[i + 1]).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--workdir" if i + 1 < args.len() => {
                workdir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(42);
                i += 2;
            }
            "--help" | "-h" => {
                println!("usage: {bin} [--scale quick|full] [--workdir DIR] [--seed N]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    let results_dir = workdir.clone();
    std::fs::create_dir_all(&results_dir).expect("create results dir");
    HarnessArgs {
        cfg: BenchConfig {
            scale,
            seed,
            workdir,
        },
        results_dir,
    }
}

/// Write rows as CSV under the results dir.
pub fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) {
    let path = dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{header}").expect("write csv");
    for r in rows {
        writeln!(f, "{r}").expect("write csv");
    }
    f.flush().expect("flush csv");
    println!("  -> wrote {}", path.display());
}

/// Pretty seconds.
pub fn fmt_secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.2}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Which Table IV architecture space a benchmark searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    MiniBude,
    BinomialBonds { input_dim: usize },
    MiniWeather { nz: usize, nx: usize },
    ParticleFilter { h: usize, w: usize },
}

impl SpecKind {
    /// The Table IV space for this benchmark.
    pub fn arch_space(&self) -> Space {
        match self {
            SpecKind::MiniBude => hpacml_search::spaces::minibude_arch_space(),
            SpecKind::BinomialBonds { .. } => hpacml_search::spaces::binomial_bonds_arch_space(),
            SpecKind::MiniWeather { .. } => hpacml_search::spaces::miniweather_arch_space(),
            SpecKind::ParticleFilter { .. } => hpacml_search::spaces::particlefilter_arch_space(),
        }
    }

    /// Decode an architecture configuration (dropout injected separately).
    pub fn build(&self, arch: &Config) -> Option<ModelSpec> {
        match self {
            SpecKind::MiniBude => hpacml_search::spaces::minibude_spec(arch, 0.0),
            SpecKind::BinomialBonds { input_dim } => {
                hpacml_search::spaces::binomial_bonds_spec(*input_dim, arch, 0.0)
            }
            SpecKind::MiniWeather { nz, nx } => {
                hpacml_search::spaces::miniweather_spec(*nz, *nx, arch)
            }
            SpecKind::ParticleFilter { h, w } => {
                hpacml_search::spaces::particlefilter_spec(*h, *w, arch)
            }
        }
    }

    /// The right [`SpecKind`] for a benchmark at a given scale.
    pub fn for_benchmark(name: &str, scale: Scale) -> SpecKind {
        match name {
            "minibude" => SpecKind::MiniBude,
            "binomial" => SpecKind::BinomialBonds {
                input_dim: hpacml_apps::binomial::FEATURES,
            },
            "bonds" => SpecKind::BinomialBonds {
                input_dim: hpacml_apps::bonds::FEATURES,
            },
            "miniweather" => {
                let wc = hpacml_apps::miniweather::WeatherConfig::for_scale(scale);
                SpecKind::MiniWeather {
                    nz: wc.nz,
                    nx: wc.nx,
                }
            }
            "particlefilter" => {
                let pc = hpacml_apps::particlefilter::PfConfig::for_scale(scale);
                SpecKind::ParticleFilter { h: pc.h, w: pc.w }
            }
            other => panic!("unknown benchmark `{other}`"),
        }
    }
}

/// A trained model produced during a campaign, ready for end-to-end eval.
#[derive(Debug, Clone)]
pub struct TrainedCandidate {
    pub model_path: PathBuf,
    pub spec_summary: String,
    pub params: usize,
    pub val_loss: f64,
    pub inference_latency_s: f64,
}

/// Adapter: drives [`Benchmark::train_spec`] from the nested-BO search,
/// logging every trained model for later end-to-end evaluation.
pub struct AppSearchProblem<'a> {
    pub bench: &'a dyn Benchmark,
    pub cfg: &'a BenchConfig,
    pub kind: SpecKind,
    pub base_tc: TrainConfig,
    log: RefCell<Vec<TrainedCandidate>>,
    counter: RefCell<usize>,
}

impl<'a> AppSearchProblem<'a> {
    pub fn new(bench: &'a dyn Benchmark, cfg: &'a BenchConfig, base_tc: TrainConfig) -> Self {
        let kind = SpecKind::for_benchmark(bench.name(), cfg.scale);
        AppSearchProblem {
            bench,
            cfg,
            kind,
            base_tc,
            log: RefCell::new(Vec::new()),
            counter: RefCell::new(0),
        }
    }

    pub fn into_log(self) -> Vec<TrainedCandidate> {
        self.log.into_inner()
    }
}

impl SearchProblem for AppSearchProblem<'_> {
    fn arch_space(&self) -> Space {
        self.kind.arch_space()
    }

    fn hyper_space(&self) -> Space {
        hpacml_search::spaces::hyper_space()
    }

    fn build_spec(&self, arch: &Config) -> Option<ModelSpec> {
        self.kind.build(arch)
    }

    fn train_eval(&self, spec: &ModelSpec, hyper: &Config) -> (f64, f64) {
        // Per-trial resource budget (the paper's campaigns run under Parsl
        // allocations; ours run on one CPU). Oversized architectures are
        // rejected as infeasible trials, and large ones get proportionally
        // fewer epochs so every trial costs roughly the same flops.
        let params = spec.param_count();
        let (param_cap, epoch_budget) = match self.cfg.scale {
            hpacml_apps::Scale::Quick => (3_000_000usize, 40_000_000usize),
            hpacml_apps::Scale::Full => (30_000_000, 400_000_000),
        };
        if params > param_cap {
            return (1e6, 1e6);
        }
        let mut tc = hpacml_search::spaces::train_config_from(hyper, &self.base_tc);
        if let Some(scaled) = epoch_budget.checked_div(params) {
            tc.epochs = tc.epochs.min(scaled.max(2));
        }
        let dropout = hpacml_search::spaces::dropout_from(hyper);
        let spec = hpacml_search::spaces::inject_dropout(spec, dropout);
        let mut counter = self.counter.borrow_mut();
        *counter += 1;
        let model_path = self.cfg.workdir.join("campaign").join(format!(
            "{}-{:04}.hml",
            self.bench.name(),
            *counter
        ));
        if let Some(dir) = model_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match self.bench.train_spec(self.cfg, &spec, &tc, &model_path) {
            Ok(stats) => {
                self.log.borrow_mut().push(TrainedCandidate {
                    model_path,
                    spec_summary: spec.summary(),
                    params: stats.params,
                    val_loss: stats.val_loss,
                    inference_latency_s: stats.inference_latency.as_secs_f64(),
                });
                (stats.val_loss, stats.inference_latency.as_secs_f64())
            }
            // Training failure (divergence, invalid shape at runtime): a
            // heavily penalized point, like the paper's failed trials.
            Err(_) => (1e6, 1e6),
        }
    }
}

/// One evaluated scatter point for Figs. 7–8.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    pub spec_summary: String,
    pub params: usize,
    pub val_loss: f64,
    pub speedup: f64,
    pub qoi_error: f64,
}

/// Run the full per-benchmark campaign: collect → nested BO (training a
/// model per trial) → end-to-end evaluation of every trained model.
pub fn run_campaign(
    bench: &dyn Benchmark,
    cfg: &BenchConfig,
    nested: &NestedConfig,
) -> AppResult<Vec<CampaignPoint>> {
    cfg.ensure_workdir()?;
    let db = cfg.db_path(bench.name());
    if !db.exists() {
        println!(
            "  [campaign] collecting training data for {}...",
            bench.name()
        );
        bench.collect(cfg)?;
    }
    let base_tc = bench.default_train_config(cfg);
    let problem = AppSearchProblem::new(bench, cfg, base_tc);
    println!(
        "  [campaign] nested BO: {} outer x {} inner trials",
        nested.outer_iters, nested.inner_iters
    );
    nested_search(&problem, nested)
        .map_err(|e| hpacml_apps::AppError::Config(format!("search failed: {e}")))?;
    let log = problem.into_log();
    println!(
        "  [campaign] trained {} models; evaluating end-to-end...",
        log.len()
    );
    let mut points = Vec::with_capacity(log.len());
    for cand in &log {
        match bench.evaluate(cfg, &cand.model_path) {
            Ok(eval) => points.push(CampaignPoint {
                spec_summary: cand.spec_summary.clone(),
                params: cand.params,
                val_loss: cand.val_loss,
                speedup: eval.speedup,
                qoi_error: eval.qoi_error,
            }),
            Err(e) => eprintln!(
                "  [campaign] eval failed for {}: {e}",
                cand.model_path.display()
            ),
        }
    }
    Ok(points)
}

/// Scaled-down nested budgets per scale (the paper runs 100×30).
pub fn nested_budget(scale: Scale, seed: u64) -> NestedConfig {
    match scale {
        Scale::Quick => NestedConfig {
            outer_iters: 6,
            inner_iters: 3,
            patience: 4,
            seed,
        },
        Scale::Full => NestedConfig {
            outer_iters: 24,
            inner_iters: 8,
            patience: 5,
            seed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_kind_resolves_every_benchmark() {
        for b in hpacml_apps::all_benchmarks() {
            let kind = SpecKind::for_benchmark(b.name(), Scale::Quick);
            let space = kind.arch_space();
            assert!(space.dim() >= 2, "{}", b.name());
            // At least one random architecture in the space must decode.
            let mut found = false;
            for seed in 0..40u64 {
                let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
                let u = space.sample_unit(&mut rng);
                let cfg = space.decode(&u).unwrap();
                if kind.build(&cfg).is_some() {
                    found = true;
                    break;
                }
            }
            assert!(found, "no valid arch found for {}", b.name());
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn spec_kind_rejects_unknown() {
        let _ = SpecKind::for_benchmark("nope", Scale::Quick);
    }

    #[test]
    fn fmt_secs_ranges() {
        use std::time::Duration;
        assert!(fmt_secs(Duration::from_micros(12)).ends_with("us"));
        assert!(fmt_secs(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_secs(Duration::from_secs(2)).ends_with('s'));
    }
}

// ---------------------------------------------------------------------------
// Kernel timing for the fig8 kernel-split panel
// ---------------------------------------------------------------------------

/// Median nanoseconds per call over `samples` timed batches of `batch`
/// calls each (warm-up included).
pub fn measure_ns(samples: usize, batch: u32, mut f: impl FnMut()) -> u64 {
    for _ in 0..batch.min(100) {
        f();
    }
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as u64 / batch as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Forward-time split of one `Linear` layer at a given batch: weight-panel
/// **pack** (what the model-load compile pass pays once), bare **GEMM**
/// (packed operands, no epilogue), and the fused **epilogue** increment
/// (bias + activation applied in-tile). Makes kernel regressions
/// attributable: a slower forward is a pack, compute, or epilogue problem.
#[derive(Debug, Clone)]
pub struct KernelSplit {
    pub layer: String,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub pack_ns: u64,
    pub gemm_ns: u64,
    pub epilogue_ns: u64,
}

/// Measure [`KernelSplit`]s for a stack of `Linear` layers
/// (`(in_features, out_features, fused activation)`) at batch `m`.
pub fn linear_kernel_split(
    m: usize,
    layers: &[(usize, usize, Option<hpacml_tensor::Act>)],
) -> Vec<KernelSplit> {
    use hpacml_tensor::gemm::{matmul_transb_packed_into, PackedB};
    use hpacml_tensor::{Epilogue, Tensor};
    use std::hint::black_box;
    let mut out = Vec::new();
    for (i, &(k, n, act)) in layers.iter().enumerate() {
        let a = Tensor::<f32>::from_shape_fn([m, k], |ix| ((ix[0] * 7 + ix[1]) % 13) as f32 * 0.05);
        let wt = Tensor::<f32>::from_shape_fn([n, k], |ix| (ix[0] as f32 - ix[1] as f32) * 0.01);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.001).collect();
        let mut packed = PackedB::from_transb(&wt).expect("rank 2");
        let mut c = Tensor::<f32>::zeros([m, n]);
        let pack_ns = measure_ns(15, 20, || {
            packed.pack_rows_into(black_box(wt.data()), n, k);
        });
        let gemm_ns = measure_ns(15, 10, || {
            matmul_transb_packed_into(black_box(&a), &packed, Epilogue::none(), &mut c).unwrap();
            black_box(c.data());
        });
        let fused_ns = measure_ns(15, 10, || {
            matmul_transb_packed_into(
                black_box(&a),
                &packed,
                Epilogue::col_bias(&bias).with_act(act),
                &mut c,
            )
            .unwrap();
            black_box(c.data());
        });
        out.push(KernelSplit {
            layer: format!("l{i}"),
            m,
            k,
            n,
            pack_ns,
            gemm_ns,
            epilogue_ns: fused_ns.saturating_sub(gemm_ns).max(1),
        });
    }
    out
}
