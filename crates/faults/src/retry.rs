//! Bounded exponential backoff with a deterministic, tick-based "sleep".
//!
//! The runtime's determinism contract (and `hpacml-lint`'s `no-wall-clock`
//! rule in the kernel crates) rules out `std::thread::sleep`/`Instant`-based
//! backoff. [`RetryPolicy`] instead spins a deterministic number of CPU
//! ticks between attempts: `min(cap, base << attempt)`. The spin provides
//! ordering pressure (lets a transient condition clear) without consulting
//! any clock, so a retried chaos run replays identically.

use crate::spin_ticks;

/// Retry budget for a transient-failure seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff ticks before the first retry.
    pub base: u32,
    /// Upper bound on per-retry backoff ticks.
    pub cap: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: 64,
            cap: 4096,
        }
    }
}

/// Outcome of [`RetryPolicy::run`]: the final result plus how many attempts
/// were actually made (for per-region retry/give-up accounting).
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    pub result: Result<T, E>,
    /// Attempts made (1 = first try succeeded; `> 1` implies retries).
    pub attempts: u32,
}

impl<T, E> RetryOutcome<T, E> {
    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }

    /// The budget was exhausted without success.
    pub fn gave_up(&self) -> bool {
        self.result.is_err()
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no backoff).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: 0,
            cap: 0,
        }
    }

    /// Backoff ticks before retry number `retry` (0-based):
    /// `min(cap, base << retry)`, saturating.
    pub(crate) fn backoff_ticks(&self, retry: u32) -> u64 {
        let raw = u64::from(self.base).saturating_mul(1u64 << retry.min(32));
        raw.min(u64::from(self.cap))
    }

    /// Run `op` until it succeeds or the attempt budget is exhausted. The
    /// closure receives the 0-based attempt index.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> RetryOutcome<T, E> {
        let max = self.max_attempts.max(1);
        let mut last: Option<E> = None;
        for attempt in 0..max {
            if attempt > 0 {
                spin_ticks(self.backoff_ticks(attempt - 1));
            }
            match op(attempt) {
                Ok(v) => {
                    return RetryOutcome {
                        result: Ok(v),
                        attempts: attempt + 1,
                    }
                }
                Err(e) => last = Some(e),
            }
        }
        let err = last.expect("max_attempts >= 1 guarantees at least one attempt");
        RetryOutcome {
            result: Err(err),
            attempts: max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_makes_one_attempt() {
        let out = RetryPolicy::default().run(|_| Ok::<_, ()>(42));
        assert_eq!(out.result, Ok(42));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.retries(), 0);
        assert!(!out.gave_up());
    }

    #[test]
    fn transient_failure_recovers_within_budget() {
        let out = RetryPolicy {
            max_attempts: 4,
            base: 1,
            cap: 8,
        }
        .run(|attempt| {
            if attempt < 2 {
                Err("flake")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.result, Ok(2));
        assert_eq!(out.attempts, 3);
        assert_eq!(out.retries(), 2);
    }

    #[test]
    fn permanent_failure_gives_up_after_budget() {
        let mut calls = 0;
        let out = RetryPolicy {
            max_attempts: 3,
            base: 1,
            cap: 2,
        }
        .run(|_| {
            calls += 1;
            Err::<(), _>("down")
        });
        assert_eq!(calls, 3);
        assert!(out.gave_up());
        assert_eq!(out.attempts, 3);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base: 64,
            cap: 200,
        };
        assert_eq!(p.backoff_ticks(0), 64);
        assert_eq!(p.backoff_ticks(1), 128);
        assert_eq!(p.backoff_ticks(2), 200);
        assert_eq!(p.backoff_ticks(31), 200);
        assert_eq!(p.backoff_ticks(63), 200);
    }

    #[test]
    fn zero_attempts_clamps_to_one() {
        let mut calls = 0;
        let out = RetryPolicy {
            max_attempts: 0,
            base: 0,
            cap: 0,
        }
        .run(|_| {
            calls += 1;
            Ok::<_, ()>(())
        });
        assert_eq!(calls, 1);
        assert_eq!(out.attempts, 1);
    }
}
