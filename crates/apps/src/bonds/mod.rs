//! Bonds: fixed-rate bond analytics with a flat forward curve (the GPU
//! quant-finance `bondsEngine` benchmark, Grauer-Gray et al.).
//!
//! For every bond the kernel builds the coupon schedule with real calendar
//! arithmetic ([`dates`]), locates the accrual period containing settlement,
//! computes the accrued interest under 30/360, discounts the remaining
//! cashflows at the market yield, and then recovers the yield from the clean
//! price with a bisection solver (the compute-heavy part, mirroring
//! QuantLib's iterative bond math).
//!
//! QoI: the accrued interest for each bond. Metric: RMSE (paper Table I).

pub mod dates;

use crate::common::*;
use crate::metrics;
use dates::{Date, DayCount};
use hpacml_core::Region;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::TrainConfig;
use hpacml_tensor::Tensor;
use std::path::Path;
use std::time::{Duration, Instant};

/// Features per bond (the kernel's complete input):
/// `[coupon_rate, market_yield, issue_offset_days, settle_offset_days,
///   n_periods, frequency]`.
pub const FEATURES: usize = 6;

/// Face value of every bond (the benchmark's convention).
pub(crate) const FACE: f64 = 100.0;

/// The schedule anchor all issue offsets count from.
pub(crate) fn reference_date() -> Date {
    Date::from_ymd(2000, 1, 1)
}

/// A batch of bonds, stored feature-flat (`[n * FEATURES]`).
#[derive(Debug, Clone)]
pub struct BondBatch {
    pub data: Vec<f32>,
    pub n: usize,
}

impl BondBatch {
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let mut data = Vec::with_capacity(n * FEATURES);
        for _ in 0..n {
            let freq = [1.0f32, 2.0, 4.0][(rng.next_u64() % 3) as usize];
            let n_periods = (rng.range(4.0, 60.0)).floor();
            let months = 12.0 / freq;
            // Settlement strictly inside (issue, maturity).
            let total_days = n_periods * months * 30.0;
            let settle = rng.range(10.0, (total_days - 10.0).max(11.0)).floor();
            data.push(rng.range(0.02, 0.09)); // coupon rate
            data.push(rng.range(0.01, 0.12)); // market yield
            data.push(rng.range(0.0, 3650.0).floor()); // issue offset from ref
            data.push(settle); // settlement offset from issue
            data.push(n_periods); // coupon periods to maturity
            data.push(freq); // coupons per year
        }
        BondBatch { data, n }
    }
}

/// Full analytics for one bond; returns `(accrued, clean_price, solved_yield)`.
pub(crate) fn bond_analytics(features: &[f32]) -> (f64, f64, f64) {
    let rate = features[0] as f64;
    let yield_ = features[1] as f64;
    let issue = reference_date().add_days(features[2] as i32);
    let settlement = issue.add_days(features[3] as i32);
    let n_periods = features[4] as i32;
    let freq = features[5] as f64;
    let months_per_period = (12.0 / freq) as i32;
    let maturity = issue.add_months(n_periods * months_per_period);

    // Coupon schedule from issue to maturity.
    let accrued = accrued_interest(rate, issue, settlement, maturity, months_per_period, freq);
    let dirty = dirty_price(
        rate,
        yield_,
        settlement,
        issue,
        maturity,
        months_per_period,
        freq,
    );
    let clean = dirty - accrued;

    // Recover the yield from the clean price by bisection — the iterative
    // solver that makes this kernel compute-bound.
    let solved = solve_yield(
        rate,
        clean + accrued,
        settlement,
        issue,
        maturity,
        months_per_period,
        freq,
    );
    (accrued, clean, solved)
}

/// Accrued interest under 30/360 for the period containing `settlement`.
fn accrued_interest(
    rate: f64,
    issue: Date,
    settlement: Date,
    maturity: Date,
    months_per_period: i32,
    freq: f64,
) -> f64 {
    // Walk the schedule to find the accrual period.
    let mut period_start = issue;
    loop {
        let period_end = period_start.add_months(months_per_period);
        if settlement < period_end || period_end >= maturity {
            let dc = DayCount::Thirty360;
            let accrual_days = dc.days_between(period_start, settlement).max(0) as f64;
            let period_days = dc.days_between(period_start, period_end).max(1) as f64;
            return rate * FACE / freq * (accrual_days / period_days).min(1.0);
        }
        period_start = period_end;
    }
}

/// Dirty price: remaining coupons + redemption discounted at `yield_`
/// (compounded `freq` times a year, Act/365 time).
fn dirty_price(
    rate: f64,
    yield_: f64,
    settlement: Date,
    issue: Date,
    maturity: Date,
    months_per_period: i32,
    freq: f64,
) -> f64 {
    let dc = DayCount::Act365;
    let coupon = rate * FACE / freq;
    let mut price = 0.0f64;
    let mut date = issue;
    loop {
        let next = date.add_months(months_per_period);
        let is_last = next >= maturity;
        let pay_date = if is_last { maturity } else { next };
        if pay_date > settlement {
            let t = dc.year_fraction(settlement, pay_date);
            let df = (1.0 + yield_ / freq).powf(-freq * t);
            price += coupon * df;
            if is_last {
                price += FACE * df;
            }
        }
        if is_last {
            return price;
        }
        date = next;
    }
}

/// Bisection solve for the yield that reproduces `target_dirty`.
fn solve_yield(
    rate: f64,
    target_dirty: f64,
    settlement: Date,
    issue: Date,
    maturity: Date,
    months_per_period: i32,
    freq: f64,
) -> f64 {
    let (mut lo, mut hi) = (1e-6f64, 1.0f64);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        let p = dirty_price(
            rate,
            mid,
            settlement,
            issue,
            maturity,
            months_per_period,
            freq,
        );
        // Price decreases in yield.
        if p > target_dirty {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The accurate kernel: analytics for every bond, in parallel; writes the
/// QoI (accrued interest) into `out`.
pub fn bonds_kernel(batch: &BondBatch, out: &mut [f32]) {
    assert_eq!(out.len(), batch.n);
    let data = &batch.data;
    hpacml_par::par_chunks_mut(out, 32, |start, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let i = start + k;
            let (accrued, clean, solved) = bond_analytics(&data[i * FEATURES..(i + 1) * FEATURES]);
            // clean/solved are part of the app's output set; keep them live.
            std::hint::black_box((clean, solved));
            *o = accrued as f32;
        }
    });
}

/// Sizes per scale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BondsConfig {
    pub n_bonds: usize,
    pub collect_batch: usize,
    pub eval_reps: u32,
}

impl BondsConfig {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => BondsConfig {
                n_bonds: 4096,
                collect_batch: 512,
                eval_reps: 3,
            },
            Scale::Full => BondsConfig {
                n_bonds: 65536,
                collect_batch: 4096,
                eval_reps: 20,
            },
        }
    }
}

// The Table II shape: two functor declarations, one input map, one ml
// directive with the output map embedded as an `fa-expr`.
const DIRECTIVES: [&str; 4] = [
    "#pragma approx tensor functor(ibond: [i, 0:6] = ([6*i : 6*i+6]))",
    "#pragma approx tensor functor(oaccrued: [i, 0:1] = ([i]))",
    "#pragma approx tensor map(to: ibond(bonds[0:N]))",
    "#pragma approx ml(predicated:use_model) in(bonds) out(oaccrued(accrued[0:N]))",
];

/// The benchmark's canonical annotated region (the Table II directives),
/// with optional database and model overrides. Public so the golden
/// end-to-end tests drive the exact production annotation.
pub fn build_region(db: Option<&Path>, model: Option<&Path>) -> AppResult<Region> {
    let mut builder = Region::builder("bonds");
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

pub fn run_annotated(
    region: &Region,
    batch: &BondBatch,
    chunk: usize,
    use_model: bool,
) -> AppResult<Vec<f32>> {
    let mut out = vec![0.0f32; batch.n];
    // One compiled session; each chunk (tail included) is one *batched*
    // region invocation through the runtime batch dimension.
    let sweep = SweepSession::new(region, "bonds", FEATURES, "accrued", chunk)?;
    sweep.run(&batch.data, &mut out, use_model, |start, end, out_chunk| {
        let sub = BondBatch {
            data: batch.data[start * FEATURES..end * FEATURES].to_vec(),
            n: end - start,
        };
        bonds_kernel(&sub, out_chunk);
    })?;
    Ok(out)
}

/// The Bonds benchmark.
pub(crate) struct Bonds;

impl Benchmark for Bonds {
    fn name(&self) -> &'static str {
        "bonds"
    }

    fn description(&self) -> &'static str {
        "Calculates bond valuations and interest payments for fixed-rate \
         bonds with a flat forward curve."
    }

    fn qoi_metric(&self) -> &'static str {
        "RMSE"
    }

    fn total_loc(&self) -> usize {
        source_loc(include_str!("mod.rs")) + source_loc(include_str!("dates.rs"))
    }

    fn directives(&self) -> Vec<String> {
        DIRECTIVES.iter().map(|s| s.to_string()).collect()
    }

    fn collect(&self, cfg: &BenchConfig) -> AppResult<CollectStats> {
        cfg.ensure_workdir()?;
        let bc = BondsConfig::for_scale(cfg.scale);
        let batch = BondBatch::generate(bc.n_bonds, cfg.seed);

        let mut plain = vec![0.0f32; batch.n];
        let t0 = Instant::now();
        bonds_kernel(&batch, &mut plain);
        let plain_runtime = t0.elapsed();

        let db = cfg.db_path(self.name());
        let _ = std::fs::remove_file(&db);
        let region = build_region(Some(&db), None)?;
        let t0 = Instant::now();
        let collected = run_annotated(&region, &batch, bc.collect_batch, false)?;
        let collect_runtime = t0.elapsed();
        region.flush_db()?;
        debug_assert_eq!(plain, collected);

        Ok(CollectStats {
            plain_runtime,
            collect_runtime,
            db_bytes: region.db_size_bytes(),
            // One collection row per sweep element (batched invocations record
            // per-sample rows).
            rows: batch.n,
        })
    }

    fn default_spec(&self, _cfg: &BenchConfig) -> ModelSpec {
        // Table IV (Bonds shares the Binomial space: up to two hidden layers).
        ModelSpec::mlp(FEATURES, &[256, 128], 1, Activation::ReLU, 0.0)
    }

    fn train_spec(
        &self,
        cfg: &BenchConfig,
        spec: &ModelSpec,
        tc: &TrainConfig,
        model_path: &Path,
    ) -> AppResult<TrainStats> {
        let file = hpacml_store::H5File::open(cfg.db_path(self.name()))?;
        let group = file.root().group("bonds")?;
        let x_flat = group.group("inputs")?.dataset("bonds")?.read_f32()?;
        let y_flat = group.group("outputs")?.dataset("accrued")?.read_f32()?;
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
        let bc = BondsConfig::for_scale(cfg.scale);
        let batch = BondBatch::generate(bc.n_bonds, cfg.seed.wrapping_add(0xB07D));

        let mut reference = vec![0.0f32; batch.n];
        let mut accurate_total = Duration::ZERO;
        for _ in 0..bc.eval_reps {
            let t0 = Instant::now();
            bonds_kernel(&batch, &mut reference);
            accurate_total += t0.elapsed();
        }
        let accurate_time = accurate_total / bc.eval_reps;

        let region = build_region(None, Some(model_path))?;
        let mut approx = Vec::new();
        let mut surrogate_total = Duration::ZERO;
        for _ in 0..bc.eval_reps {
            region.reset_stats();
            let t0 = Instant::now();
            approx = run_annotated(&region, &batch, batch.n, true)?;
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

    /// A bond settled exactly at a coupon date accrues nothing.
    #[test]
    fn accrued_zero_at_period_start() {
        let issue = Date::from_ymd(2010, 3, 1);
        let maturity = issue.add_months(60);
        let a = accrued_interest(0.06, issue, issue, maturity, 6, 2.0);
        assert!(a.abs() < 1e-12);
    }

    /// Half way through a semiannual period, accrued is half the coupon.
    #[test]
    fn accrued_half_coupon_mid_period() {
        let issue = Date::from_ymd(2010, 1, 1);
        let maturity = issue.add_months(120);
        let settlement = issue.add_months(3); // 90/180 in 30/360 terms
        let a = accrued_interest(0.08, issue, settlement, maturity, 6, 2.0);
        let coupon = 0.08 * FACE / 2.0;
        assert!((a - coupon / 2.0).abs() < 1e-9, "{a}");
    }

    /// Pricing at the coupon rate ≈ par for a bond settled at issue.
    #[test]
    fn par_bond_prices_near_face() {
        let issue = Date::from_ymd(2010, 1, 1);
        let maturity = issue.add_months(120);
        let p = dirty_price(0.06, 0.06, issue, issue, maturity, 6, 2.0);
        assert!((p - FACE).abs() < 1.0, "price {p} should be near par");
    }

    /// Higher yield means lower price.
    #[test]
    fn price_monotone_in_yield() {
        let issue = Date::from_ymd(2012, 5, 10);
        let maturity = issue.add_months(240);
        let settlement = issue.add_days(400);
        let p_low = dirty_price(0.05, 0.03, settlement, issue, maturity, 6, 2.0);
        let p_high = dirty_price(0.05, 0.09, settlement, issue, maturity, 6, 2.0);
        assert!(p_low > p_high);
    }

    /// The bisection solver recovers the yield used to price the bond.
    #[test]
    fn yield_solver_roundtrips() {
        let issue = Date::from_ymd(2008, 9, 15);
        let maturity = issue.add_months(180);
        let settlement = issue.add_days(700);
        for y in [0.02f64, 0.05, 0.11] {
            let dirty = dirty_price(0.07, y, settlement, issue, maturity, 6, 2.0);
            let solved = solve_yield(0.07, dirty, settlement, issue, maturity, 6, 2.0);
            assert!((solved - y).abs() < 1e-6, "target {y}, solved {solved}");
        }
    }

    #[test]
    fn kernel_matches_scalar_analytics() {
        let batch = BondBatch::generate(64, 9);
        let mut out = vec![0.0f32; 64];
        bonds_kernel(&batch, &mut out);
        for i in (0..64).step_by(11) {
            let (a, _, _) = bond_analytics(&batch.data[i * FEATURES..(i + 1) * FEATURES]);
            assert_eq!(out[i], a as f32);
        }
    }

    #[test]
    fn accrued_bounded_by_coupon() {
        let batch = BondBatch::generate(256, 4);
        let mut out = vec![0.0f32; 256];
        bonds_kernel(&batch, &mut out);
        for (i, &accrued) in out.iter().enumerate() {
            let rate = batch.data[i * FEATURES] as f64;
            let freq = batch.data[i * FEATURES + 5] as f64;
            let coupon = rate * FACE / freq;
            assert!(accrued >= 0.0);
            assert!(
                accrued as f64 <= coupon + 1e-6,
                "accrued {accrued} > coupon {coupon}"
            );
        }
    }

    #[test]
    fn table_metadata() {
        let b = Bonds;
        assert_eq!(b.qoi_metric(), "RMSE");
        assert_eq!(b.directives().len(), 4);
        assert!(b.total_loc() > 250);
    }
}
