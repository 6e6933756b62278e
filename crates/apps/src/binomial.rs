//! Binomial Options: Cox–Ross–Rubinstein option pricing on a recombining
//! binomial tree (the CUDA `binomialOptions` sample the paper evaluates).
//!
//! Each option is priced independently with `STEPS` backward-induction
//! levels — a compute-bound, embarrassingly parallel kernel. The HPAC-ML
//! annotation maps each option's 5 features `(S, K, T, r, σ)` to one tensor
//! row and replaces the whole pricing kernel with an MLP.
//!
//! QoI: the computed prices. Metric: RMSE (paper Table I).

use crate::common::*;
use crate::metrics;
use hpacml_core::Region;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::TrainConfig;
use hpacml_tensor::Tensor;
use std::path::Path;
use std::time::{Duration, Instant};

/// Features per option: spot, strike, expiry, rate, volatility.
pub const FEATURES: usize = 5;

/// One batch of options, stored feature-flat (`[n * FEATURES]`).
#[derive(Debug, Clone)]
pub struct OptionBatch {
    pub data: Vec<f32>,
    pub n: usize,
}

impl OptionBatch {
    /// Deterministic synthetic batch with the NVIDIA sample's ranges,
    /// extended to vary rate and volatility.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let mut data = Vec::with_capacity(n * FEATURES);
        for _ in 0..n {
            data.push(rng.range(5.0, 30.0)); // spot
            data.push(rng.range(5.0, 35.0)); // strike
            data.push(rng.range(0.25, 2.0)); // years to expiry
            data.push(rng.range(0.01, 0.08)); // risk-free rate
            data.push(rng.range(0.05, 0.40)); // volatility
        }
        OptionBatch { data, n }
    }
}

/// Price one European call by CRR backward induction.
pub(crate) fn crr_price(s: f32, k: f32, t: f32, r: f32, sigma: f32, steps: usize) -> f32 {
    let dt = t / steps as f32;
    let v_sqrt_dt = sigma * dt.sqrt();
    let u = v_sqrt_dt.exp();
    let d = 1.0 / u;
    let a = (r * dt).exp();
    let p = (a - d) / (u - d);
    let disc = (-r * dt).exp();
    let pu = disc * p;
    let pd = disc * (1.0 - p);

    // Leaf values.
    let mut values = vec![0.0f32; steps + 1];
    for (j, v) in values.iter_mut().enumerate() {
        let st = s * u.powi(j as i32) * d.powi((steps - j) as i32);
        *v = (st - k).max(0.0);
    }
    // Backward induction.
    for level in (0..steps).rev() {
        for j in 0..=level {
            values[j] = pd * values[j] + pu * values[j + 1];
        }
    }
    values[0]
}

/// The accurate kernel: price every option in the batch in parallel.
pub fn price_batch(batch: &OptionBatch, steps: usize, prices: &mut [f32]) {
    assert_eq!(prices.len(), batch.n);
    let data = &batch.data;
    hpacml_par::par_chunks_mut(prices, 64, |start, out| {
        for (k, price) in out.iter_mut().enumerate() {
            let i = start + k;
            let o = &data[i * FEATURES..(i + 1) * FEATURES];
            *price = crr_price(o[0], o[1], o[2], o[3], o[4], steps);
        }
    });
}

/// Black–Scholes closed form (used by tests to validate CRR convergence).
#[cfg(test)]
fn black_scholes_call(s: f64, k: f64, t: f64, r: f64, sigma: f64) -> f64 {
    let d1 = ((s / k).ln() + (r + 0.5 * sigma * sigma) * t) / (sigma * t.sqrt());
    let d2 = d1 - sigma * t.sqrt();
    s * norm_cdf(d1) - k * (-r * t).exp() * norm_cdf(d2)
}

#[cfg(test)]
fn norm_cdf(x: f64) -> f64 {
    // Abramowitz–Stegun 7.1.26 erf approximation.
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-(x * x) / 2.0).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// Sizes per scale.
#[derive(Debug, Clone, Copy)]
pub struct BinomialConfig {
    pub n_options: usize,
    pub steps: usize,
    /// Options per region invocation during collection (the appendable
    /// outer dimension of the database).
    pub collect_batch: usize,
    pub eval_reps: u32,
}

impl BinomialConfig {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => BinomialConfig {
                n_options: 2048,
                steps: 512,
                collect_batch: 256,
                eval_reps: 3,
            },
            Scale::Full => BinomialConfig {
                n_options: 32768,
                steps: 1024,
                collect_batch: 2048,
                eval_reps: 20,
            },
        }
    }
}

// The Table II shape: two functor declarations, one input map, one ml
// directive with the output map embedded as an `fa-expr`.
const DIRECTIVES: [&str; 4] = [
    "#pragma approx tensor functor(iopt: [i, 0:5] = ([5*i : 5*i+5]))",
    "#pragma approx tensor functor(oprice: [i, 0:1] = ([i]))",
    "#pragma approx tensor map(to: iopt(opts[0:N]))",
    "#pragma approx ml(predicated:use_model) in(opts) out(oprice(prices[0:N]))",
];

/// The benchmark's canonical annotated region (the Table II directives),
/// with optional database and model overrides. Public so the golden
/// end-to-end tests and the fig10 harness drive the exact production
/// annotation.
pub fn build_region(db: Option<&Path>, model: Option<&Path>) -> AppResult<Region> {
    let mut builder = Region::builder("binomial");
    for d in DIRECTIVES {
        builder = builder.directive(d);
    }
    if let Some(db) = db {
        builder = builder.database(db);
    }
    if let Some(m) = model {
        builder = builder.model(m);
    }
    Ok(builder.build()?)
}

/// Run the annotated application over `batch`: one *batched* region
/// invocation per up-to-`chunk` options (the runtime batch dimension),
/// either collecting or inferring. One compiled session serves every chunk,
/// tail included.
pub fn run_annotated(
    region: &Region,
    batch: &OptionBatch,
    steps: usize,
    chunk: usize,
    use_model: bool,
) -> AppResult<Vec<f32>> {
    let mut prices = vec![0.0f32; batch.n];
    let sweep = SweepSession::new(region, "opts", FEATURES, "prices", chunk)?;
    sweep.run(&batch.data, &mut prices, use_model, |start, end, out| {
        let sub = OptionBatch {
            data: batch.data[start * FEATURES..end * FEATURES].to_vec(),
            n: end - start,
        };
        price_batch(&sub, steps, out);
    })?;
    Ok(prices)
}

/// The Binomial Options benchmark.
pub struct BinomialOptions;

impl BinomialOptions {
    /// End-to-end evaluation with online validation and adaptive fallback
    /// active (one point of the fig10 error-budget sweep): the annotated
    /// sweep runs `use_model = true` under `policy`; chunks the controller
    /// routes to fallback execute the real CRR kernel, so the achieved
    /// speedup honestly reflects the accuracy-speedup tradeoff. At a serving
    /// `precision` below f32, the region's model is quantized to `precision`
    /// before the sweep, and the validation controller demotes through the
    /// precision ladder (int8 → bf16 → f32) before any host fallback — the
    /// fig10 precision axis.
    pub fn evaluate_with_policy_at(
        &self,
        cfg: &BenchConfig,
        model_path: &Path,
        policy: hpacml_core::ValidationPolicy,
        precision: hpacml_core::Precision,
    ) -> AppResult<PolicyEval> {
        let bc = BinomialConfig::for_scale(cfg.scale);
        let batch = OptionBatch::generate(bc.n_options, cfg.seed.wrapping_add(0xDEAD));

        let mut reference = vec![0.0f32; batch.n];
        let t0 = Instant::now();
        price_batch(&batch, bc.steps, &mut reference);
        let accurate_time = t0.elapsed();

        let region = build_region(None, Some(model_path))?;
        if precision != hpacml_core::Precision::F32 {
            // Before the validation policy, so the fresh controller picks up
            // the precision ladder.
            region.set_precision_policy(&hpacml_core::PrecisionPolicy::at(precision))?;
        }
        region.set_validation_policy(policy)?;
        let t0 = Instant::now();
        let approx = run_annotated(&region, &batch, bc.steps, bc.collect_batch, true)?;
        let validated_time = t0.elapsed();

        let s = region.stats();
        Ok(PolicyEval {
            speedup: accurate_time.as_secs_f64() / validated_time.as_secs_f64().max(1e-12),
            qoi_error: metrics::rmse(&reference, &approx),
            fallback_fraction: s.fallback_fraction(),
            validated: s.validated_invocations,
            region: s,
        })
    }
}

impl Benchmark for BinomialOptions {
    fn name(&self) -> &'static str {
        "binomial"
    }

    fn description(&self) -> &'static str {
        "Iteratively calculates the price for a portfolio of stock options at \
         multiple time points before expiration (CRR binomial tree)."
    }

    fn qoi_metric(&self) -> &'static str {
        "RMSE"
    }

    fn total_loc(&self) -> usize {
        source_loc(include_str!("binomial.rs"))
    }

    fn directives(&self) -> Vec<String> {
        DIRECTIVES.iter().map(|s| s.to_string()).collect()
    }

    fn collect(&self, cfg: &BenchConfig) -> AppResult<CollectStats> {
        cfg.ensure_workdir()?;
        let bc = BinomialConfig::for_scale(cfg.scale);
        let batch = OptionBatch::generate(bc.n_options, cfg.seed);

        // Original runtime: the plain kernel, no annotation overhead.
        let mut plain = vec![0.0f32; batch.n];
        let t0 = Instant::now();
        price_batch(&batch, bc.steps, &mut plain);
        let plain_runtime = t0.elapsed();

        // Collection runtime: through the region with the database attached.
        let db = cfg.db_path(self.name());
        let _ = std::fs::remove_file(&db);
        let region = build_region(Some(&db), None)?;
        let t0 = Instant::now();
        let collected = run_annotated(&region, &batch, bc.steps, bc.collect_batch, false)?;
        let collect_runtime = t0.elapsed();
        region.flush_db()?;

        // Collection must not change results.
        debug_assert_eq!(plain, collected);
        // Batched invocations record one database row per option, exactly as
        // per-option invocations would.
        let rows = batch.n;
        Ok(CollectStats {
            plain_runtime,
            collect_runtime,
            db_bytes: region.db_size_bytes(),
            rows,
        })
    }

    fn default_spec(&self, _cfg: &BenchConfig) -> ModelSpec {
        ModelSpec::mlp(FEATURES, &[64, 32], 1, Activation::ReLU, 0.0)
    }

    fn train_spec(
        &self,
        cfg: &BenchConfig,
        spec: &ModelSpec,
        tc: &TrainConfig,
        model_path: &Path,
    ) -> AppResult<TrainStats> {
        let file = hpacml_store::H5File::open(cfg.db_path(self.name()))?;
        let group = file.root().group("binomial")?;
        let xs = group.group("inputs")?.dataset("opts")?;
        let ys = group.group("outputs")?.dataset("prices")?;
        let x_flat = xs.read_f32()?;
        let y_flat = ys.read_f32()?;
        let samples = x_flat.len() / FEATURES;
        let x = Tensor::from_vec(x_flat, [samples, FEATURES])?;
        let y = Tensor::from_vec(y_flat, [samples, 1])?;
        let t = train_surrogate(
            x,
            y,
            hpacml_nn::data::NormAxis::PerFeature,
            hpacml_nn::data::NormAxis::PerFeature,
            spec,
            tc,
            model_path,
            1024,
        )?;
        Ok(TrainStats {
            val_loss: t.val_loss,
            params: t.params,
            train_time: t.train_time,
            model_path: model_path.to_path_buf(),
            inference_latency: t.inference_latency,
        })
    }

    fn evaluate(&self, cfg: &BenchConfig, model_path: &Path) -> AppResult<EvalStats> {
        let bc = BinomialConfig::for_scale(cfg.scale);
        // Held-out test options (different seed from collection).
        let batch = OptionBatch::generate(bc.n_options, cfg.seed.wrapping_add(0xDEAD));

        let mut reference = vec![0.0f32; batch.n];
        let mut accurate_total = Duration::ZERO;
        for _ in 0..bc.eval_reps {
            let t0 = Instant::now();
            price_batch(&batch, bc.steps, &mut reference);
            accurate_total += t0.elapsed();
        }
        let accurate_time = accurate_total / bc.eval_reps;

        let region = build_region(None, Some(model_path))?;
        let mut approx = Vec::new();
        let mut surrogate_total = Duration::ZERO;
        for _ in 0..bc.eval_reps {
            region.reset_stats();
            let t0 = Instant::now();
            approx = run_annotated(&region, &batch, bc.steps, batch.n, true)?;
            surrogate_total += t0.elapsed();
        }
        let surrogate_time = surrogate_total / bc.eval_reps;

        Ok(EvalStats {
            accurate_time,
            surrogate_time,
            speedup: accurate_time.as_secs_f64() / surrogate_time.as_secs_f64().max(1e-12),
            qoi_error: metrics::rmse(&reference, &approx),
            region: region.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crr_converges_to_black_scholes() {
        let (s, k, t, r, sigma) = (20.0f32, 22.0f32, 1.0f32, 0.05f32, 0.25f32);
        let bs = black_scholes_call(s as f64, k as f64, t as f64, r as f64, sigma as f64);
        let coarse = crr_price(s, k, t, r, sigma, 64) as f64;
        let fine = crr_price(s, k, t, r, sigma, 1024) as f64;
        assert!(
            (fine - bs).abs() < (coarse - bs).abs() + 1e-6,
            "finer tree must not diverge"
        );
        assert!((fine - bs).abs() < 0.01, "CRR(1024)={fine} vs BS={bs}");
    }

    #[test]
    fn price_is_monotone_in_spot_and_vol() {
        let p1 = crr_price(10.0, 15.0, 1.0, 0.03, 0.2, 128);
        let p2 = crr_price(12.0, 15.0, 1.0, 0.03, 0.2, 128);
        assert!(p2 > p1);
        let p3 = crr_price(10.0, 15.0, 1.0, 0.03, 0.35, 128);
        assert!(p3 > p1);
    }

    #[test]
    fn deep_itm_approaches_intrinsic_plus_carry() {
        // Deep in the money, near expiry: price ≈ S - K·e^{-rT}.
        let p = crr_price(30.0, 5.0, 0.25, 0.05, 0.1, 256) as f64;
        let intrinsic = 30.0 - 5.0 * (-0.05f64 * 0.25).exp();
        assert!((p - intrinsic).abs() < 0.01, "{p} vs {intrinsic}");
    }

    #[test]
    fn batch_kernel_matches_scalar() {
        let batch = OptionBatch::generate(64, 3);
        let mut prices = vec![0.0f32; 64];
        price_batch(&batch, 64, &mut prices);
        for i in (0..64).step_by(17) {
            let o = &batch.data[i * FEATURES..(i + 1) * FEATURES];
            assert_eq!(prices[i], crr_price(o[0], o[1], o[2], o[3], o[4], 64));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = OptionBatch::generate(100, 7);
        let b = OptionBatch::generate(100, 7);
        assert_eq!(a.data, b.data);
        let c = OptionBatch::generate(100, 8);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn annotated_collect_path_preserves_results() {
        let dir = std::env::temp_dir().join("hpacml-binomial-test");
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("collect.h5");
        let _ = std::fs::remove_file(&db);
        let region = build_region(Some(&db), None).unwrap();
        let batch = OptionBatch::generate(128, 5);
        let annotated = run_annotated(&region, &batch, 32, 64, false).unwrap();
        let mut plain = vec![0.0f32; batch.n];
        price_batch(&batch, 32, &mut plain);
        assert_eq!(annotated, plain);
        region.flush_db().unwrap();
        // One row per option: 128 options, regardless of the 64-wide runtime
        // batches the sweep ran in.
        let file = hpacml_store::H5File::open(&db).unwrap();
        let g = file.root().group("binomial").unwrap();
        assert_eq!(
            g.group("inputs").unwrap().dataset("opts").unwrap().rows(),
            128
        );
        assert_eq!(g.dataset("region_time_ns").unwrap().rows(), 128);
    }

    #[test]
    fn loc_and_directives_reported() {
        let b = BinomialOptions;
        assert!(b.total_loc() > 100);
        assert_eq!(b.directives().len(), 4);
        assert_eq!(b.qoi_metric(), "RMSE");
    }
}
