//! Per-phase wall-clock accounting.
//!
//! The paper's Fig. 6 breaks inference-mode runtime into "To Tensor",
//! "Inference Engine" and "From Tensor"; Table III measures the overhead of
//! data collection. [`RegionStats`] accumulates all of those per region.

use std::time::Instant;

/// Accumulated phase timings (nanoseconds) and invocation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    pub invocations: u64,
    pub surrogate_invocations: u64,
    /// Application memory → tensor space (bridge gather into the model input).
    pub to_tensor_ns: u64,
    /// Model forward pass inside the inference engine.
    pub inference_ns: u64,
    /// Tensor space → application memory (bridge scatter of the model output).
    pub from_tensor_ns: u64,
    /// Accurate-path execution.
    pub accurate_ns: u64,
    /// Data-collection bookkeeping (output gathering + store appends).
    pub collection_ns: u64,
    /// Bridge plans compiled: one per declared array and direction for
    /// every [`Session`](crate::Session) built. Invocations add *nothing*
    /// here — a flat counter under load is the compile-once claim made
    /// observable. Nothing is cached: the name is the one `benchmark/`
    /// reads (`bridge.plan_cache_misses`) and is owed a rename there.
    pub plan_cache_misses: u64,
    /// Surrogate invocations that reused an already-resolved model handle
    /// (no per-call path hashing in the inference engine).
    pub model_cache_hits: u64,
    /// Surrogate invocations that had to resolve the model by path.
    pub model_cache_misses: u64,
    /// Logical invocations (samples) that went through a surrogate forward
    /// pass — batch-occupancy numerator. An `invoke()` submits 1; an
    /// `invoke_batch(n)` submits `n`; the concurrent auto-batching submitter
    /// adds whatever it coalesced.
    pub batch_submitted: u64,
    /// Surrogate forward passes executed — batch-occupancy denominator.
    pub batches_flushed: u64,
    /// Logical invocations (samples) whose surrogate output was scored
    /// against a shadow execution of the original host code.
    pub validated_invocations: u64,
    /// Time spent in shadow validation: the shadow host execution (or the
    /// surrogate probe while fallen back), output gathering, and error
    /// computation. Proportional to the policy's sample rate; **not**
    /// included in `accurate_ns`/`inference_ns`.
    pub validation_shadow_ns: u64,
    /// Logical invocations that wanted the surrogate but were served by the
    /// original host code instead (adaptive or forced fallback).
    pub fallback_invocations: u64,
    /// Times the fallback controller disabled the surrogate (rolling error
    /// exceeded the policy's budget).
    pub surrogate_disables: u64,
    /// Times the controller re-enabled the surrogate after a recovered
    /// window of probes.
    pub surrogate_reenables: u64,
    /// Times the controller demoted the serving precision one rung toward
    /// full f32 (an over-budget window at a reduced-precision rung).
    pub precision_demotes: u64,
    /// Times the controller promoted the serving precision one rung back
    /// toward the quantization target (a doubled window of healthy
    /// observations).
    pub precision_promotes: u64,
    /// Submissions rejected by the BatchServer's admission control: the
    /// server was already at its `max_pending` staging cap (backpressure).
    pub serve_rejected_overload: u64,
    /// Submissions rejected up front because the forming batch's flush time
    /// could not meet the request's deadline budget.
    pub serve_rejected_deadline: u64,
    /// Db flush/append/open failures — including the final flush on Region
    /// drop, which previously vanished silently.
    pub db_errors: u64,
    /// Transient-failure retries performed (attempts beyond the first) for
    /// model loads and db I/O under the region's retry policy.
    pub retry_attempts: u64,
    /// Operations that exhausted their retry budget and gave up.
    pub retry_giveups: u64,
    /// Surrogate passes that failed outright (model unloadable, inference
    /// error) and were degraded to the host closure instead of erroring the
    /// invocation.
    pub surrogate_errors: u64,
}

impl RegionStats {
    /// Total time spent inside the runtime for surrogate invocations.
    pub fn surrogate_total_ns(&self) -> u64 {
        self.to_tensor_ns + self.inference_ns + self.from_tensor_ns
    }

    /// Fractions (to-tensor, inference, from-tensor) of surrogate runtime —
    /// the three bars of the paper's Fig. 6.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.surrogate_total_ns().max(1) as f64;
        (
            self.to_tensor_ns as f64 / total,
            self.inference_ns as f64 / total,
            self.from_tensor_ns as f64 / total,
        )
    }

    /// Bridge overhead relative to inference-engine latency (paper: "the
    /// overhead of HPAC-ML is between 0.01% and 8%, compared to the latency
    /// of the inference engine").
    pub fn bridge_overhead_ratio(&self) -> f64 {
        (self.to_tensor_ns + self.from_tensor_ns) as f64 / self.inference_ns.max(1) as f64
    }

    /// Fraction of all logical invocations served by fallback host code
    /// (the fig10 x-axis companion: 0.0 = surrogate throughout, 1.0 = the
    /// controller pinned the region to the accurate path).
    pub fn fallback_fraction(&self) -> f64 {
        if self.invocations == 0 {
            return 0.0;
        }
        self.fallback_invocations as f64 / self.invocations as f64
    }

    /// Mean samples per surrogate forward pass (batch occupancy). 1.0 means
    /// every invocation paid a full forward pass of its own; higher means
    /// invocations were coalesced (`invoke_batch` or the auto-batching
    /// submitter amortized the per-pass overhead).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches_flushed == 0 {
            return 0.0;
        }
        self.batch_submitted as f64 / self.batches_flushed as f64
    }
}

/// Measure one closure, returning its result and elapsed nanoseconds.
#[inline]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (v, ns) = timed(|| {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(v > 0);
        assert!(ns > 0);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let s = RegionStats {
            to_tensor_ns: 10,
            inference_ns: 80,
            from_tensor_ns: 10,
            ..Default::default()
        };
        let (a, b, c) = s.breakdown();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert!((b - 0.8).abs() < 1e-12);
        assert!((s.bridge_overhead_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = RegionStats::default();
        let (a, b, c) = s.breakdown();
        assert_eq!((a, b, c), (0.0, 0.0, 0.0));
        assert_eq!(s.bridge_overhead_ratio(), 0.0);
    }
}
