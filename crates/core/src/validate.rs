//! Online accuracy validation and adaptive surrogate fallback.
//!
//! HPAC-ML's usefulness rests on the *accuracy–speedup tradeoff*: a surrogate
//! is only deployable if the application can quantify its error **at
//! runtime** and fall back to the original code when the model drifts. This
//! module is that runtime loop:
//!
//! 1. A [`ValidationPolicy`] attached to a region
//!    ([`Region::set_validation_policy`]) selects 1 in `sample_rate` region
//!    invocations for **shadow validation**: the original host code runs *in
//!    addition to* the surrogate, the declared outputs of both are compared
//!    under the policy's [`ErrorMetric`], and for a batched invocation up to
//!    `batch_samples` samples of the flushed batch are validated.
//! 2. Every validated sample's error feeds a per-region
//!    [`FallbackController`] — a rolling window with hysteresis. When the
//!    rolling error exceeds `error_budget` the surrogate is **disabled**:
//!    subsequent invocations run the original host code, bit-identical to an
//!    un-annotated application. While disabled, sampled invocations *probe*
//!    the surrogate in shadow; once a full window of probes is back under
//!    budget, the surrogate re-enables.
//! 3. Each validated sample appends a `(invocation, metric, error)` row to
//!    the region's database (group `<region>/validation`), so drift is
//!    observable offline, and the [`RegionStats`](crate::RegionStats)
//!    counters (`validated_invocations`, `fallback_invocations`,
//!    `surrogate_disables`, `surrogate_reenables`, `validation_shadow_ns`)
//!    make it observable online.
//!
//! The loop runs in one place, [`SessionRun::run`](crate::SessionRun::run)
//! and [`SessionOutcome`](crate::SessionOutcome): a
//! [`BatchServer`](crate::BatchServer) flush is an ordinary session
//! invocation whose accurate closure is the server's fallback handler.
//! Monitoring never destroys a served result: a shadow reference or a
//! recovery probe that panics or fails abandons its draw, and the
//! invocation is served as if it had not been drawn.
//!
//! Shadow overhead is proportional to the sample rate: invocations not
//! drawn for validation pay one short lock of the policy slot, one atomic
//! sequence increment and one relaxed flag read — 1-3% of a
//! compiled-session invocation when this landed (1-core container; no
//! `BENCHMARK.json` workload attaches a policy, so nothing re-measures it).
//! Fallback-served invocations do **not** record
//! data-collection rows: they run the host code for safety, not to build a
//! training set.
//!
//! ```no_run
//! use hpacml_core::{ErrorMetric, Region, ValidationPolicy};
//!
//! # fn main() -> hpacml_core::Result<()> {
//! # let region = Region::from_source("r", "")?;
//! // Validate 1 in 16 invocations under RMSE; disable the surrogate when
//! // the rolling error over the last 8 validated samples exceeds 0.05.
//! let policy = ValidationPolicy::new(ErrorMetric::Rmse, 0.05)
//!     .with_sample_rate(16)
//!     .with_window(8);
//! region.set_validation_policy(policy)?;
//! // ... invoke sessions as usual; fallback now engages automatically.
//! assert!(region.surrogate_active());
//! # Ok(())
//! # }
//! ```

use crate::region::Region;
use crate::{CoreError, Result};
use hpacml_tensor::Precision;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// How surrogate outputs are scored against the shadow-executed host code.
/// The score of one validated sample aggregates every element of every
/// declared output array of that sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMetric {
    /// Root mean squared error (the paper's metric for Binomial, Bonds,
    /// MiniWeather, ParticleFilter).
    Rmse,
    /// Mean absolute percentage error, in percent; reference elements with
    /// magnitude below `1e-12` are skipped (MiniBUDE's metric).
    Mape,
    /// Largest absolute element-wise deviation.
    MaxAbs,
}

impl ErrorMetric {
    /// Human-readable name (matches `Benchmark::qoi_metric` spellings).
    pub fn name(&self) -> &'static str {
        match self {
            ErrorMetric::Rmse => "RMSE",
            ErrorMetric::Mape => "MAPE",
            ErrorMetric::MaxAbs => "MaxAbs",
        }
    }

    /// Stable numeric code used for the `metric` column of recorded
    /// validation rows.
    pub fn code(&self) -> u32 {
        match self {
            ErrorMetric::Rmse => 0,
            ErrorMetric::Mape => 1,
            ErrorMetric::MaxAbs => 2,
        }
    }
}

/// Per-region validation knobs. See the [module docs](self) for the loop
/// they drive.
///
/// ```
/// use hpacml_core::{ErrorMetric, ValidationPolicy};
///
/// let p = ValidationPolicy::new(ErrorMetric::Mape, 2.5)
///     .with_sample_rate(32)   // shadow-validate 1 in 32 invocations
///     .with_batch_samples(8)  // compare <= 8 samples of a validated batch
///     .with_window(16);       // rolling window / hysteresis span
/// assert_eq!(p.sample_rate, 32);
/// assert_eq!(p.metric.name(), "MAPE");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPolicy {
    /// Shadow-validate 1 in `sample_rate` region invocations (a batched
    /// `invoke_batch(n)` counts as **one** invocation here — overhead is
    /// proportional to the rate, not the batch size). Must be >= 1;
    /// `1` validates every invocation.
    pub sample_rate: u32,
    /// Error metric for scoring validated samples.
    pub metric: ErrorMetric,
    /// Rolling-error threshold: when the mean error of the last `window`
    /// validated samples exceeds this, the surrogate is disabled. Must be
    /// finite and non-negative.
    pub error_budget: f64,
    /// Rolling-window length, in validated samples. Doubles as the
    /// hysteresis span: after a disable, re-enabling requires at least
    /// `window` fresh probe observations (so the decision is made entirely
    /// from post-disable evidence). Must be >= 1.
    pub window: usize,
    /// Upper bound on how many samples of one validated *batched*
    /// invocation are compared (evenly spaced across the batch). `0` means
    /// all of them.
    pub batch_samples: usize,
}

impl ValidationPolicy {
    /// A policy with the default rate (1/16), window (8) and batch sample
    /// cap (4).
    pub fn new(metric: ErrorMetric, error_budget: f64) -> Self {
        ValidationPolicy {
            sample_rate: 16,
            metric,
            error_budget,
            window: 8,
            batch_samples: 4,
        }
    }

    /// Validate 1 in `rate` invocations.
    pub fn with_sample_rate(mut self, rate: u32) -> Self {
        self.sample_rate = rate;
        self
    }

    /// Rolling window / hysteresis span, in validated samples.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Compare at most `k` samples of a validated batch (`0` = all).
    pub fn with_batch_samples(mut self, k: usize) -> Self {
        self.batch_samples = k;
        self
    }

    /// Check the knobs are in-range (called by
    /// [`Region::set_validation_policy`]).
    pub(crate) fn validate(&self) -> Result<()> {
        if self.sample_rate == 0 {
            return Err(CoreError::Region(
                "validation policy: sample_rate must be >= 1".into(),
            ));
        }
        if self.window == 0 {
            return Err(CoreError::Region(
                "validation policy: window must be >= 1".into(),
            ));
        }
        if !self.error_budget.is_finite() || self.error_budget < 0.0 {
            return Err(CoreError::Region(format!(
                "validation policy: error_budget must be finite and >= 0 (got {})",
                self.error_budget
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// Rolling-window fallback controller with hysteresis. Pure state machine —
/// no clocks, no I/O — so its transition rules are property-testable in
/// isolation (see `tests/prop_validate.rs`).
///
/// Rules, per observed error:
///
/// * **Disable** exactly when the surrogate is enabled, the rolling mean
///   of the last `window` observations exceeds `budget`, and there is no
///   finer precision rung left to demote to.
/// * **Re-enable** only when the surrogate is disabled, at least `window`
///   observations have arrived since the disable (the hysteresis span, so
///   the rolling mean consists entirely of post-disable probes), and that
///   rolling mean is back within budget. Re-enabling therefore never
///   oscillates within one window of a disable.
///
/// With a **precision ladder** installed (a region installs one when a
/// precision policy is attached; rungs ordered coarsest first, e.g.
/// `[Int8, Bf16, F32]`), an over-budget window first **demotes** one rung
/// toward full precision — clearing the window so the finer rung is judged
/// on its own evidence — and only an over-budget window on the *last* rung
/// disables the surrogate outright.
/// Symmetrically, `2 * window` consecutive under-budget observations
/// **promote** one rung back toward the coarse target (the same doubled-span
/// hysteresis that keeps disable/re-enable from oscillating). A re-enable
/// after a full disable lands on the last (finest) rung and heals downward
/// from there.
///
/// ```
/// use hpacml_core::FallbackController;
///
/// let mut c = FallbackController::new(1.0, 2);
/// assert!(c.observe(0.5)); // under budget: stays enabled
/// assert!(!c.observe(4.0)); // rolling mean 2.25 > 1.0: disabled
/// c.observe(0.0); // probe 1 of the hysteresis window
/// assert!(!c.enabled()); // still cooling down
/// assert!(c.observe(0.0)); // window of good probes: re-enabled
/// ```
#[derive(Debug, Clone)]
pub struct FallbackController {
    budget: f64,
    window: usize,
    errors: VecDeque<f64>,
    enabled: bool,
    /// Observations remaining before a re-enable may be considered.
    cooldown: usize,
    disables: u64,
    reenables: u64,
    /// Serving-precision rungs, coarsest (cheapest) first. Empty = no
    /// precision management (the pre-ladder disable/re-enable behavior).
    ladder: Vec<Precision>,
    /// Index of the rung currently served.
    rung: usize,
    /// Consecutive under-budget observations at the current rung (promotion
    /// hysteresis counter).
    stable: usize,
}

impl FallbackController {
    pub fn new(budget: f64, window: usize) -> Self {
        FallbackController {
            budget,
            window: window.max(1),
            errors: VecDeque::with_capacity(window.max(1)),
            enabled: true,
            cooldown: 0,
            disables: 0,
            reenables: 0,
            ladder: Vec::new(),
            rung: 0,
            stable: 0,
        }
    }

    /// Install a serving-precision ladder, coarsest rung first, and restart
    /// at its coarsest rung with a fresh window. See the type docs for the
    /// demotion/promotion rules.
    pub(crate) fn set_ladder(&mut self, ladder: Vec<Precision>) {
        self.ladder = ladder;
        self.rung = 0;
        self.stable = 0;
        self.errors.clear();
    }

    /// The canonical ladder for a quantization target: every rung from the
    /// target up to full precision, or no ladder at all for an `F32` target.
    pub(crate) fn ladder_for(target: Precision) -> Vec<Precision> {
        match target {
            Precision::Int8 => vec![Precision::Int8, Precision::Bf16, Precision::F32],
            Precision::Bf16 => vec![Precision::Bf16, Precision::F32],
            Precision::F32 => Vec::new(),
        }
    }

    /// Whether the surrogate is currently allowed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The precision rung currently served, when a ladder is installed.
    pub fn precision(&self) -> Option<Precision> {
        self.ladder.get(self.rung).copied()
    }

    /// Index of the current rung (0 = coarsest).
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Mean error over the current window (0 when nothing observed yet).
    pub fn rolling(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }

    /// Lifetime disable / re-enable transition counts.
    pub fn transitions(&self) -> (u64, u64) {
        (self.disables, self.reenables)
    }

    /// Force an immediate disable — surrogate *infrastructure* failure
    /// (model load or forward pass errored permanently) rather than accuracy
    /// drift. Recovery follows the normal path: a cooldown window, then
    /// under-budget shadow probes re-enable.
    pub(crate) fn trip(&mut self) {
        if self.enabled {
            self.enabled = false;
            self.disables += 1;
        }
        self.stable = 0;
        self.cooldown = self.window;
    }

    /// Feed one validated-sample error; returns whether the surrogate is
    /// enabled afterwards. NaN errors are treated as infinitely bad.
    pub fn observe(&mut self, error: f64) -> bool {
        let error = if error.is_nan() { f64::INFINITY } else { error };
        if self.errors.len() == self.window {
            self.errors.pop_front();
        }
        self.errors.push_back(error);
        let rolling = self.rolling();
        if self.enabled {
            if rolling > self.budget {
                self.stable = 0;
                if self.rung + 1 < self.ladder.len() {
                    // Demote one rung toward full precision; the finer rung
                    // is judged on its own evidence, not the coarse rung's
                    // over-budget window.
                    self.rung += 1;
                    self.errors.clear();
                } else {
                    self.enabled = false;
                    self.disables += 1;
                    self.cooldown = self.window;
                }
            } else {
                self.stable += 1;
                if self.rung > 0 && self.stable >= 2 * self.window {
                    // A doubled window of healthy observations: promote one
                    // rung back toward the coarse target.
                    self.rung -= 1;
                    self.stable = 0;
                    self.errors.clear();
                }
            }
        } else {
            self.stable = 0;
            if self.cooldown > 0 {
                self.cooldown -= 1;
            }
            if self.cooldown == 0 && rolling <= self.budget {
                self.enabled = true;
                self.reenables += 1;
            }
        }
        self.enabled
    }
}

// ---------------------------------------------------------------------------
// Per-region shared state
// ---------------------------------------------------------------------------

/// A disable / re-enable / precision transition reported by one observation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Transition {
    pub disabled: bool,
    pub reenabled: bool,
    /// The controller moved one rung toward full precision.
    pub demoted: bool,
    /// The controller moved one rung back toward the coarse target.
    pub promoted: bool,
}

/// The region-attached validation state: the immutable policy, the sampling
/// sequence, and the controller behind a mutex with its `enabled` bit
/// mirrored into an atomic for lock-free reads on the invoke hot path.
#[derive(Debug)]
pub(crate) struct RegionValidation {
    policy: ValidationPolicy,
    /// Region-invocation sequence number driving deterministic sampling.
    seq: AtomicU64,
    /// Mirror of `controller.enabled()` for lock-free gating.
    enabled: AtomicBool,
    controller: Mutex<FallbackController>,
}

impl RegionValidation {
    pub(crate) fn new(policy: ValidationPolicy) -> Self {
        RegionValidation {
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            controller: Mutex::new(FallbackController::new(policy.error_budget, policy.window)),
            policy,
        }
    }

    pub(crate) fn policy(&self) -> &ValidationPolicy {
        &self.policy
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn rolling(&self) -> f64 {
        self.controller.lock().rolling()
    }

    /// Current precision rung, when the controller has a ladder.
    pub(crate) fn precision(&self) -> Option<Precision> {
        self.controller.lock().precision()
    }

    /// Install (or replace) the controller's precision ladder; it restarts
    /// at the coarsest rung with a fresh window.
    pub(crate) fn install_ladder(&self, ladder: Vec<Precision>) {
        self.controller.lock().set_ladder(ladder);
    }

    /// Claim the next invocation sequence number and decide whether this
    /// invocation (a flush of `n` logical samples) is shadow-validated. On a
    /// draw, fills `offsets` with the in-batch sample indices to compare
    /// (up to `batch_samples`, evenly spaced) and returns the sequence
    /// number; otherwise leaves `offsets` empty.
    pub(crate) fn draw(&self, n: usize, offsets: &mut Vec<usize>) -> u64 {
        offsets.clear();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(self.policy.sample_rate as u64) || n == 0 {
            return seq;
        }
        let k = match self.policy.batch_samples {
            0 => n,
            cap => cap.min(n),
        };
        // Evenly spaced across the batch, first sample always included —
        // deterministic for a given (seq, n).
        for i in 0..k {
            offsets.push(i * n / k);
        }
        offsets.dedup();
        seq
    }

    /// Force-disable the surrogate after an infrastructure failure (see
    /// [`FallbackController::trip`]) and refresh the lock-free mirror.
    pub(crate) fn trip(&self) {
        self.controller.lock().trip();
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Feed one validated-sample error into the controller, refresh the
    /// lock-free mirror, and report any transition.
    pub(crate) fn observe(&self, error: f64) -> Transition {
        let mut c = self.controller.lock();
        let before = c.enabled();
        let rung_before = c.rung();
        let after = c.observe(error);
        let rung_after = c.rung();
        self.enabled.store(after, Ordering::Relaxed);
        Transition {
            disabled: before && !after,
            reenabled: !before && after,
            demoted: rung_after > rung_before,
            promoted: rung_after < rung_before,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-sample error accumulation
// ---------------------------------------------------------------------------

/// Accumulates one validated sample's error across every declared output
/// array, under a fixed metric. Used by the session's shadow and
/// recovery-probe comparisons, which are also every `BatchServer` flush's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleError {
    metric: ErrorMetric,
    acc: f64,
    count: usize,
}

impl SampleError {
    pub(crate) fn new(metric: ErrorMetric) -> Self {
        SampleError {
            metric,
            acc: 0.0,
            count: 0,
        }
    }

    /// Fold in one output array's elements: `reference` is the shadow-run
    /// host result, `approx` the surrogate result.
    pub(crate) fn update(&mut self, reference: &[f32], approx: &[f32]) {
        debug_assert_eq!(reference.len(), approx.len());
        match self.metric {
            ErrorMetric::Rmse => {
                for (r, a) in reference.iter().zip(approx) {
                    let d = (*r - *a) as f64;
                    self.acc += d * d;
                    self.count += 1;
                }
            }
            ErrorMetric::Mape => {
                for (r, a) in reference.iter().zip(approx) {
                    if r.abs() > 1e-12 {
                        self.acc += ((*r - *a) / *r).abs() as f64;
                        self.count += 1;
                    }
                }
            }
            ErrorMetric::MaxAbs => {
                for (r, a) in reference.iter().zip(approx) {
                    self.acc = self.acc.max((*r - *a).abs() as f64);
                }
                self.count += reference.len();
            }
        }
    }

    /// Whether any elements were actually compared. A drawn invocation
    /// whose caller never supplied this output (or whose MAPE references
    /// were all ~0) must not report a fabricated zero error.
    pub(crate) fn compared(&self) -> bool {
        self.count > 0
    }

    /// The sample's scalar error under the metric.
    pub(crate) fn finalize(&self) -> f64 {
        match self.metric {
            ErrorMetric::Rmse => {
                if self.count == 0 {
                    0.0
                } else {
                    (self.acc / self.count as f64).sqrt()
                }
            }
            ErrorMetric::Mape => {
                if self.count == 0 {
                    0.0
                } else {
                    100.0 * self.acc / self.count as f64
                }
            }
            ErrorMetric::MaxAbs => self.acc,
        }
    }
}

// ---------------------------------------------------------------------------
// Region surface
// ---------------------------------------------------------------------------

impl Region {
    /// Attach (or replace) this region's online-validation policy. From now
    /// on 1 in `policy.sample_rate` invocations shadow-executes the original
    /// host code, scores the surrogate against it, and the rolling error
    /// drives adaptive fallback. See the [`validate`](crate::validate)
    /// module docs.
    pub fn set_validation_policy(&self, policy: ValidationPolicy) -> Result<()> {
        policy.validate()?;
        let v = Arc::new(RegionValidation::new(policy));
        // A precision policy attached earlier hands its demotion ladder to
        // the fresh controller, so validation immediately gates the
        // quantized serving precision too.
        if let Some(target) = self.precision_target() {
            let ladder = FallbackController::ladder_for(target);
            if !ladder.is_empty() {
                v.install_ladder(ladder);
            }
        }
        *self.validation_slot().lock() = Some(v);
        Ok(())
    }

    /// Remove the validation policy (shadow sampling and adaptive fallback
    /// stop; a forced fallback is unaffected).
    pub fn clear_validation_policy(&self) {
        *self.validation_slot().lock() = None;
    }

    /// The currently attached policy, if any.
    pub fn validation_policy(&self) -> Option<ValidationPolicy> {
        self.validation_slot().lock().as_ref().map(|v| v.policy)
    }

    /// Rolling validation error (mean over the controller window), if a
    /// policy is attached and at least one sample was validated.
    pub fn validation_rolling_error(&self) -> Option<f64> {
        self.validation_slot().lock().as_ref().map(|v| v.rolling())
    }

    /// Operator override: force every invocation onto the original host
    /// code, regardless of ml mode, `use_surrogate(...)` or the adaptive
    /// controller. The forced path is bit-identical to running the host
    /// code with no region annotations; the model is never resolved.
    pub fn force_fallback(&self, on: bool) {
        self.forced_fallback_flag().store(on, Ordering::Relaxed);
    }

    /// Whether [`Region::force_fallback`] is currently engaged.
    pub(crate) fn fallback_forced(&self) -> bool {
        self.forced_fallback_flag().load(Ordering::Relaxed)
    }

    /// Whether the surrogate path is currently allowed: no forced fallback
    /// and the adaptive controller (if a policy is attached) is within
    /// budget.
    pub fn surrogate_active(&self) -> bool {
        !self.fallback_forced()
            && self
                .validation_slot()
                .lock()
                .as_ref()
                .is_none_or(|v| v.enabled())
    }

    pub(crate) fn validation(&self) -> Option<Arc<RegionValidation>> {
        self.validation_slot().lock().clone()
    }

    /// A surrogate pass (model resolution or forward) failed permanently
    /// after retries. Counts it; when a validation policy is attached, trips
    /// the adaptive controller so subsequent invocations serve the host code
    /// until the normal cooldown/probe path recovers, and returns `true` —
    /// the caller then degrades the failed invocation to its accurate
    /// closure. Without a controller there is no fallback machinery to
    /// recover through, so the error surfaces (`false`).
    pub(crate) fn note_surrogate_failure(&self, err: &crate::CoreError) -> bool {
        self.update_stats(|s| s.surrogate_errors += 1);
        match self.validation() {
            Some(v) => {
                v.trip();
                eprintln!(
                    "hpacml-core: region `{}`: surrogate pass failed ({err}); \
                     falling back to host code until the controller recovers",
                    self.name()
                );
                true
            }
            None => false,
        }
    }

    /// Feed a batch of validated-sample errors into the controller, fold
    /// the transitions and shadow time into the region stats, and append
    /// one `(invocation, metric, error)` row per sample to the region's
    /// database (group `<region>/validation`) when one is attached.
    pub(crate) fn observe_validation(
        &self,
        v: &RegionValidation,
        seq: u64,
        errors: &[f64],
        shadow_ns: u64,
    ) -> Result<()> {
        let mut disables = 0u64;
        let mut reenables = 0u64;
        let mut demotes = 0u64;
        let mut promotes = 0u64;
        for &err in errors {
            let t = v.observe(err);
            disables += t.disabled as u64;
            reenables += t.reenabled as u64;
            demotes += t.demoted as u64;
            promotes += t.promoted as u64;
        }
        // Keep the region's lock-free serving-precision mirror in step with
        // the controller's rung, so the next surrogate pass runs at the
        // (possibly demoted or healed) precision.
        if let Some(p) = v.precision() {
            self.set_serve_precision(p);
        }
        self.update_stats(|s| {
            s.validated_invocations += errors.len() as u64;
            s.surrogate_disables += disables;
            s.surrogate_reenables += reenables;
            s.precision_demotes += demotes;
            s.precision_promotes += promotes;
            s.validation_shadow_ns += shadow_ns;
        });
        self.record_validation_rows(seq, v.policy().metric, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation_rejects_bad_knobs() {
        let good = ValidationPolicy::new(ErrorMetric::Rmse, 0.1);
        assert!(good.validate().is_ok());
        assert!(good.with_sample_rate(0).validate().is_err());
        assert!(good.with_window(0).validate().is_err());
        assert!(ValidationPolicy::new(ErrorMetric::Rmse, f64::NAN)
            .validate()
            .is_err());
        assert!(ValidationPolicy::new(ErrorMetric::Rmse, -1.0)
            .validate()
            .is_err());
    }

    #[test]
    fn controller_disables_and_recovers_with_hysteresis() {
        let mut c = FallbackController::new(0.5, 3);
        assert!(c.observe(0.1));
        assert!(c.observe(0.2));
        assert!(c.enabled());
        // Rolling mean (0.1 + 0.2 + 3.0) / 3 > 0.5: disable.
        assert!(!c.observe(3.0));
        assert_eq!(c.transitions(), (1, 0));
        // Three good probes: the first two are cooldown, the third both
        // finishes the cooldown and leaves the window under budget.
        assert!(!c.observe(0.0));
        assert!(!c.observe(0.0));
        assert!(c.observe(0.0));
        assert_eq!(c.transitions(), (1, 1));
    }

    #[test]
    fn controller_stays_disabled_while_probes_are_bad() {
        let mut c = FallbackController::new(0.5, 2);
        assert!(!c.observe(10.0));
        for _ in 0..20 {
            assert!(!c.observe(2.0), "bad probes must not re-enable");
        }
        // Recovery still requires the rolling window back under budget:
        // [2.0, 0.0] averages 1.0 > 0.5, [0.0, 0.0] recovers.
        assert!(!c.observe(0.0));
        assert!(c.observe(0.0));
    }

    #[test]
    fn controller_treats_nan_as_failure() {
        let mut c = FallbackController::new(1.0, 1);
        assert!(!c.observe(f64::NAN));
    }

    #[test]
    fn ladder_demotes_before_disabling() {
        let mut c = FallbackController::new(0.5, 2);
        c.set_ladder(FallbackController::ladder_for(Precision::Int8));
        assert_eq!(c.precision(), Some(Precision::Int8));
        // Over budget at int8: demote, stay enabled, fresh window.
        assert!(c.observe(2.0));
        assert_eq!(c.precision(), Some(Precision::Bf16));
        // Over budget at bf16 too: demote to f32, still enabled.
        assert!(c.observe(2.0));
        assert_eq!(c.precision(), Some(Precision::F32));
        // Over budget on the last rung: now disable, exactly as unladdered.
        assert!(!c.observe(2.0));
        assert_eq!(c.transitions(), (1, 0));
        assert_eq!(c.precision(), Some(Precision::F32));
    }

    #[test]
    fn ladder_promotes_after_doubled_stable_window() {
        let mut c = FallbackController::new(0.5, 2);
        c.set_ladder(FallbackController::ladder_for(Precision::Int8));
        assert!(c.observe(2.0)); // int8 -> bf16
        assert_eq!(c.precision(), Some(Precision::Bf16));
        // 2 * window = 4 consecutive healthy observations heal one rung.
        for _ in 0..3 {
            assert!(c.observe(0.1));
            assert_eq!(c.precision(), Some(Precision::Bf16));
        }
        assert!(c.observe(0.1));
        assert_eq!(c.precision(), Some(Precision::Int8));
        // An over-budget window resets the stability count.
        assert!(c.observe(2.0));
        assert_eq!(c.precision(), Some(Precision::Bf16));
        assert!(c.observe(2.0)); // demoted again: f32
        assert_eq!(c.precision(), Some(Precision::F32));
    }

    #[test]
    fn ladder_reenable_lands_on_finest_rung() {
        let mut c = FallbackController::new(0.5, 1);
        c.set_ladder(FallbackController::ladder_for(Precision::Bf16));
        assert!(c.observe(2.0)); // bf16 -> f32
        assert!(!c.observe(2.0)); // f32 over budget: disabled
        assert!(c.observe(0.0)); // window-1 cooldown: one good probe re-enables
        assert_eq!(c.precision(), Some(Precision::F32));
        // Healing continues down the ladder after 2 * window stable
        // observations at f32.
        assert!(c.observe(0.0));
        assert_eq!(c.precision(), Some(Precision::F32));
        assert!(c.observe(0.0));
        assert_eq!(c.precision(), Some(Precision::Bf16));
    }

    #[test]
    fn ladder_for_targets() {
        assert_eq!(
            FallbackController::ladder_for(Precision::Int8),
            vec![Precision::Int8, Precision::Bf16, Precision::F32]
        );
        assert_eq!(
            FallbackController::ladder_for(Precision::Bf16),
            vec![Precision::Bf16, Precision::F32]
        );
        assert!(FallbackController::ladder_for(Precision::F32).is_empty());
        // No ladder: plain disable/re-enable, no precision to report.
        let c = FallbackController::new(1.0, 2);
        assert_eq!(c.precision(), None);
    }

    #[test]
    fn sample_error_metrics() {
        let mut e = SampleError::new(ErrorMetric::Rmse);
        e.update(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((e.finalize() - 12.5f64.sqrt()).abs() < 1e-12);

        let mut e = SampleError::new(ErrorMetric::Mape);
        e.update(&[100.0, 0.0, 50.0], &[110.0, 5.0, 45.0]);
        assert!((e.finalize() - 10.0).abs() < 1e-4);

        let mut e = SampleError::new(ErrorMetric::MaxAbs);
        e.update(&[1.0, 2.0], &[1.5, 0.0]);
        assert!((e.finalize() - 2.0).abs() < 1e-12);

        // No comparable elements => zero error, not NaN.
        let e = SampleError::new(ErrorMetric::Rmse);
        assert_eq!(e.finalize(), 0.0);
    }

    #[test]
    fn draw_selects_every_nth_invocation_and_spreads_batch_offsets() {
        let v = RegionValidation::new(
            ValidationPolicy::new(ErrorMetric::Rmse, 1.0)
                .with_sample_rate(4)
                .with_batch_samples(2),
        );
        let mut offs = Vec::new();
        let mut drawn = 0;
        for i in 0..16u64 {
            let seq = v.draw(8, &mut offs);
            assert_eq!(seq, i);
            if i % 4 == 0 {
                assert_eq!(offs, vec![0, 4], "evenly spaced across the batch");
                drawn += 1;
            } else {
                assert!(offs.is_empty());
            }
        }
        assert_eq!(drawn, 4);

        // batch_samples = 0 means every sample of a drawn batch.
        let v = RegionValidation::new(
            ValidationPolicy::new(ErrorMetric::Rmse, 1.0)
                .with_sample_rate(1)
                .with_batch_samples(0),
        );
        v.draw(3, &mut offs);
        assert_eq!(offs, vec![0, 1, 2]);
    }
}
