//! Shared benchmark infrastructure: the [`Benchmark`] trait the harness
//! drives, scale presets, and the surrogate-training helper every app reuses
//! (the "ML engineer" role in the paper's workflow).

use hpacml_core::{Region, RegionStats, Session};
use hpacml_directive::sema::Bindings;
use hpacml_nn::data::NormAxis;
use hpacml_nn::optim::Optimizer;
use hpacml_nn::{InMemoryDataset, ModelSpec, Normalizer, TrainConfig};
use hpacml_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Benchmark errors (wraps every subsystem the apps touch).
#[derive(Debug)]
pub enum AppError {
    Core(hpacml_core::CoreError),
    Nn(hpacml_nn::NnError),
    Store(hpacml_store::StoreError),
    Tensor(hpacml_tensor::TensorError),
    Io(std::io::Error),
    Config(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Core(e) => write!(f, "{e}"),
            AppError::Nn(e) => write!(f, "{e}"),
            AppError::Store(e) => write!(f, "{e}"),
            AppError::Tensor(e) => write!(f, "{e}"),
            AppError::Io(e) => write!(f, "{e}"),
            AppError::Config(s) => write!(f, "config error: {s}"),
        }
    }
}

impl std::error::Error for AppError {}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for AppError {
            fn from(e: $ty) -> Self {
                AppError::$variant(e)
            }
        }
    };
}
from_err!(Core, hpacml_core::CoreError);
from_err!(Nn, hpacml_nn::NnError);
from_err!(Store, hpacml_store::StoreError);
from_err!(Tensor, hpacml_tensor::TensorError);
from_err!(Io, std::io::Error);

/// Crate-wide result alias.
pub type AppResult<T> = std::result::Result<T, AppError>;

/// Problem-size preset. `Quick` finishes in seconds on one core and is used
/// by tests and CI; `Full` approaches the paper's campaign shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn parse(s: &str) -> AppResult<Scale> {
        match s {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(AppError::Config(format!(
                "unknown scale `{other}` (quick|full)"
            ))),
        }
    }
}

/// Configuration shared by every benchmark run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub scale: Scale,
    pub seed: u64,
    /// Directory for databases, models and other artifacts.
    pub workdir: PathBuf,
}

impl BenchConfig {
    pub fn quick(workdir: impl Into<PathBuf>) -> Self {
        BenchConfig {
            scale: Scale::Quick,
            seed: 42,
            workdir: workdir.into(),
        }
    }

    pub fn full(workdir: impl Into<PathBuf>) -> Self {
        BenchConfig {
            scale: Scale::Full,
            seed: 42,
            workdir: workdir.into(),
        }
    }

    pub fn db_path(&self, bench: &str) -> PathBuf {
        self.workdir.join(format!("{bench}.h5"))
    }

    pub fn model_path(&self, bench: &str) -> PathBuf {
        self.workdir.join(format!("{bench}.hml"))
    }

    pub fn ensure_workdir(&self) -> AppResult<()> {
        std::fs::create_dir_all(&self.workdir)?;
        Ok(())
    }
}

/// Result of a data-collection run (Table III columns).
#[derive(Debug, Clone)]
// lint: allow(crate-local-pub) — returned by `Benchmark::collect`, read without naming the type
pub struct CollectStats {
    /// Runtime without collection (the "Original Runtime" column).
    pub plain_runtime: Duration,
    /// Runtime with data collection enabled.
    pub collect_runtime: Duration,
    /// Bytes written to the database.
    pub db_bytes: usize,
    /// Invocations recorded.
    pub rows: usize,
}

/// Result of training one surrogate.
#[derive(Debug, Clone)]
// lint: allow(crate-local-pub) — returned by `Benchmark::train_spec` and `Benchmark::pipeline`, read without naming the type
pub struct TrainStats {
    /// Validation loss (MSE in normalized target space).
    pub val_loss: f64,
    /// Scalar parameter count of the trained model.
    pub params: usize,
    pub train_time: Duration,
    pub model_path: PathBuf,
    /// Per-batch inference latency measured on validation-shaped input.
    pub inference_latency: Duration,
}

/// Result of an end-to-end evaluation (Fig. 5 / Figs. 7–8 points).
#[derive(Debug, Clone)]
pub struct EvalStats {
    pub accurate_time: Duration,
    pub surrogate_time: Duration,
    /// End-to-end speedup (accurate / surrogate).
    pub speedup: f64,
    /// QoI error under the benchmark's metric (RMSE or MAPE).
    pub qoi_error: f64,
    /// Runtime phase breakdown of the surrogate run (Fig. 6).
    pub region: RegionStats,
}

/// Result of an end-to-end evaluation under a [`ValidationPolicy`]: one
/// point of the fig10 error-budget vs achieved-speedup sweep. Tight budgets
/// push `fallback_fraction` toward 1 and the speedup toward parity with the
/// accurate run; loose budgets recover the full surrogate speedup.
///
/// [`ValidationPolicy`]: hpacml_core::ValidationPolicy
#[derive(Debug, Clone)]
pub struct PolicyEval {
    /// End-to-end speedup achieved *with* validation + adaptive fallback
    /// active (accurate / validated-surrogate wall time).
    pub speedup: f64,
    /// QoI error of the run's final outputs under the benchmark's metric.
    /// Fallback-served chunks contribute the original application's error —
    /// zero where the host code is itself the reference (Binomial), the
    /// original approximation's error where the QoI is measured against
    /// ground truth (ParticleFilter).
    pub qoi_error: f64,
    /// Fraction of logical invocations served by host-code fallback.
    pub fallback_fraction: f64,
    /// Samples scored against shadow host executions.
    pub validated: u64,
    /// Full region counters of the validated run.
    pub region: RegionStats,
}

/// The uniform interface the table/figure harness drives.
pub trait Benchmark: Send + Sync {
    /// Lower-case identifier (`minibude`, `binomial`, ...).
    fn name(&self) -> &'static str;

    /// Table I description.
    fn description(&self) -> &'static str;

    /// `"RMSE"` or `"MAPE"`.
    fn qoi_metric(&self) -> &'static str;

    /// Total Rust LoC of the benchmark implementation (Table II column 1);
    /// measured from the module source via `include_str!`.
    fn total_loc(&self) -> usize;

    /// The HPAC-ML annotation strings this benchmark registers (Table II).
    fn directives(&self) -> Vec<String>;

    /// Run with data collection enabled; writes the database under
    /// `cfg.db_path(self.name())` and reports Table III numbers.
    fn collect(&self, cfg: &BenchConfig) -> AppResult<CollectStats>;

    /// Default (known-good) architecture for this benchmark at this scale.
    fn default_spec(&self, cfg: &BenchConfig) -> ModelSpec;

    /// Train a surrogate with the given architecture and hyperparameters
    /// from the collected database; saves the model to `model_path`.
    fn train_spec(
        &self,
        cfg: &BenchConfig,
        spec: &ModelSpec,
        tc: &TrainConfig,
        model_path: &Path,
    ) -> AppResult<TrainStats>;

    /// End-to-end evaluation: accurate run vs surrogate run, QoI error.
    fn evaluate(&self, cfg: &BenchConfig, model_path: &Path) -> AppResult<EvalStats>;

    /// Convenience: collect (if needed) → train default spec → evaluate.
    fn pipeline(&self, cfg: &BenchConfig) -> AppResult<(CollectStats, TrainStats, EvalStats)> {
        cfg.ensure_workdir()?;
        let collect = self.collect(cfg)?;
        let spec = self.default_spec(cfg);
        let tc = self.default_train_config(cfg);
        let model_path = cfg.model_path(self.name());
        let train = self.train_spec(cfg, &spec, &tc, &model_path)?;
        let eval = self.evaluate(cfg, &model_path)?;
        Ok((collect, train, eval))
    }

    /// Default training hyperparameters for this benchmark at this scale.
    fn default_train_config(&self, cfg: &BenchConfig) -> TrainConfig {
        let epochs = match cfg.scale {
            Scale::Quick => 30,
            Scale::Full => 120,
        };
        TrainConfig {
            epochs,
            batch_size: 128,
            optimizer: Optimizer::adam(3e-3, 1e-5),
            seed: cfg.seed,
            early_stop_patience: 10,
            ..Default::default()
        }
    }
}

/// One compiled batched session for a 1-D sweep (the MiniBUDE/Binomial/Bonds
/// pattern). The region's unit of work is **one** sweep element (`N = 1`:
/// `feat` input features, one output value); a whole sweep of any length is
/// served by [`Session::invoke_batch`] in chunks of up to `max_batch` —
/// one forward pass per chunk, the tail included, through a single
/// compilation. This replaces the old full+tail two-session workaround: the
/// batch dimension is a runtime parameter now.
pub(crate) struct SweepSession<'r> {
    session: Session<'r>,
    input: String,
    feat: usize,
    output: String,
}

impl<'r> SweepSession<'r> {
    pub fn new(
        region: &'r Region,
        input: &str,
        feat: usize,
        output: &str,
        max_batch: usize,
    ) -> AppResult<Self> {
        let binds = Bindings::new().with("N", 1);
        let session = region.session(
            &binds,
            &[(input, &[feat]), (output, &[1])],
            max_batch.max(1),
        )?;
        Ok(SweepSession {
            session,
            input: input.to_string(),
            feat,
            output: output.to_string(),
        })
    }

    /// Run the whole sweep: `data` holds `out.len() * feat` features, and
    /// each chunk of up to `max_batch` sweep elements is one batched region
    /// invocation — surrogate when `use_model`, otherwise the `accurate`
    /// kernel invoked as `accurate(start, end, out_chunk)`.
    pub fn run(
        &self,
        data: &[f32],
        out: &mut [f32],
        use_model: bool,
        mut accurate: impl FnMut(usize, usize, &mut [f32]),
    ) -> AppResult<()> {
        let total = out.len();
        assert_eq!(
            data.len(),
            total * self.feat,
            "sweep input/output lengths disagree"
        );
        let max_batch = self.session.max_batch();
        let mut start = 0usize;
        while start < total {
            let end = (start + max_batch).min(total);
            let n = end - start;
            let chunk_in = &data[start * self.feat..end * self.feat];
            let out_chunk = &mut out[start..end];
            let mut outcome = self
                .session
                .invoke_batch(n)?
                .use_surrogate(use_model)
                .input(&self.input, chunk_in)?
                .run(|| accurate(start, end, out_chunk))?;
            outcome.output(&self.output, out_chunk)?;
            outcome.finish()?;
            start = end;
        }
        Ok(())
    }
}

/// Count non-blank, non-comment lines — the LoC convention of Table II.
pub(crate) fn source_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count()
}

/// Outcome of [`train_surrogate`].
pub(crate) struct TrainedSurrogate {
    pub val_loss: f64,
    pub params: usize,
    pub train_time: Duration,
    pub inference_latency: Duration,
}

/// The shared "ML engineer" step: split, normalize, train, fold the
/// normalizers into the saved model, and measure inference latency.
// allow: the shared train-entry signature mirrors the paper's knobs (split,
// epochs, lr, batch, seed); a config struct would just rename the problem
// for the four app harnesses that call it positionally.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_surrogate(
    x: Tensor,
    y: Tensor,
    x_axis: NormAxis,
    y_axis: NormAxis,
    spec: &ModelSpec,
    tc: &TrainConfig,
    model_path: &Path,
    latency_batch: usize,
) -> AppResult<TrainedSurrogate> {
    let ds = InMemoryDataset::new(x, y)?;
    let (train_raw, val_raw) = ds.split(0.8, tc.seed.wrapping_add(17));
    let in_norm = Normalizer::fit(&train_raw.x, x_axis)?;
    let out_norm = Normalizer::fit(&train_raw.y, y_axis)?;
    let train_ds = InMemoryDataset::new(
        in_norm.transform(&train_raw.x),
        out_norm.transform(&train_raw.y),
    )?;
    let val_ds = InMemoryDataset::new(
        in_norm.transform(&val_raw.x),
        out_norm.transform(&val_raw.y),
    )?;

    let mut model = spec.build(tc.seed.wrapping_add(29))?;
    let t0 = std::time::Instant::now();
    let hist = hpacml_nn::train(&mut model, &train_ds, Some(&val_ds), tc)?;
    let train_time = t0.elapsed();

    hpacml_nn::serialize::save_model(model_path, spec, &model, Some(&in_norm), Some(&out_norm))?;

    // Inference latency on a validation-shaped batch (the paper's model-size
    // vs speed axis).
    let batch = latency_batch.max(1).min(val_ds.len().max(1));
    let probe = val_ds.subset(&(0..batch).collect::<Vec<_>>());
    let t0 = std::time::Instant::now();
    let reps = 3;
    for _ in 0..reps {
        let _ = model.forward(&probe.x)?;
    }
    let inference_latency = t0.elapsed() / reps;

    Ok(TrainedSurrogate {
        val_loss: hist.best_val,
        params: spec.param_count(),
        train_time,
        inference_latency,
    })
}

/// Deterministic xorshift-based f32 stream used by input generators (kept
/// independent of `rand` so generated datasets are stable across releases).
#[derive(Debug, Clone)]
pub(crate) struct GenRng(u64);

impl GenRng {
    pub fn new(seed: u64) -> Self {
        GenRng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [0, 1).
    #[inline]
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in [lo, hi).
    #[inline]
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal (Box–Muller).
    pub(crate) fn normal(&mut self) -> f32 {
        let u1 = self.unit().max(1e-7);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("quick").unwrap(), Scale::Quick);
        assert_eq!(Scale::parse("full").unwrap(), Scale::Full);
        assert!(Scale::parse("medium").is_err());
    }

    #[test]
    fn source_loc_skips_blanks_and_comments() {
        let src = "\n// comment\nfn main() {\n}\n\n//! doc\n";
        assert_eq!(source_loc(src), 2);
    }

    #[test]
    fn gen_rng_is_deterministic_and_spread() {
        let mut a = GenRng::new(5);
        let mut b = GenRng::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = GenRng::new(9);
        let vals: Vec<f32> = (0..10_000).map(|_| r.unit()).collect();
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
        assert!(vals.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn gen_rng_normal_moments() {
        let mut r = GenRng::new(11);
        let vals: Vec<f32> = (0..20_000).map(|_| r.normal()).collect();
        let mean = vals.iter().sum::<f32>() as f64 / vals.len() as f64;
        let var = vals.iter().map(|v| (*v as f64 - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn config_paths() {
        let cfg = BenchConfig::quick("/tmp/x");
        assert_eq!(cfg.db_path("bude"), PathBuf::from("/tmp/x/bude.h5"));
        assert_eq!(cfg.model_path("bude"), PathBuf::from("/tmp/x/bude.hml"));
    }
}
