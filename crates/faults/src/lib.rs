//! Deterministic fault injection and retry/backoff primitives.
//!
//! This crate is the robustness substrate for the HPAC-ML runtime. It has two
//! halves:
//!
//! * **Injection** — named seams (`fault_point!("store.flush")`) placed at
//!   failure-prone sites in `hpacml-store`, `hpacml-nn` and `hpacml-core`. An
//!   installed [`Plan`] decides, per site and per *hit index* (the 0-based
//!   count of times execution has reached that seam), whether to force an I/O
//!   error, a panic, artificial latency or a scheduling perturbation. Every
//!   decision is a pure function of `(seed, site, hit)` — no wall clock, no
//!   OS randomness — so a chaos failure replays bit-exactly under the same
//!   seed, consistent with the repo's determinism discipline.
//! * **Retry** — [`retry::RetryPolicy`], a bounded exponential backoff whose
//!   "sleep" is a deterministic spin of CPU ticks rather than a wall-clock
//!   timer, usable from crates where `hpacml-lint` bans `Instant`.
//!
//! # Feature gating
//!
//! The seams compile to **nothing** unless the consuming crate enables its
//! own `fault-injection` feature (which forwards to this crate's feature of
//! the same name). The `#[cfg]` emitted by [`fault_point!`] is resolved in
//! the *calling* crate, so a release build without the feature contains no
//! trace of the seam — no branch, no call, no string.
//!
//! # Usage
//!
//! ```
//! use hpacml_faults::{clear, install, Plan};
//!
//! // Fail the second arrival at `store.flush` with an injected I/O error.
//! install(Plan::new().fail_once("store.flush", 1));
//! // ... run the code under test ...
//! clear();
//! ```

use parking_lot::Mutex;
use std::collections::BTreeMap;

pub mod retry;

/// What an injection does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an [`InjectedFault`] from the seam (surfaces as an I/O error).
    Error,
    /// Panic at the seam with a recognizable `injected fault:` message.
    Panic,
    /// Spin for the given number of deterministic CPU ticks, then continue.
    Delay(u32),
    /// Call `std::thread::yield_now()` the given number of times, then
    /// continue — perturbs thread interleavings (shutdown-vs-lead races)
    /// without touching any clock.
    Yield(u32),
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Panic => "panic",
            FaultKind::Delay(_) => "delay",
            FaultKind::Yield(_) => "yield",
        }
    }
}

/// The typed error produced by an `Error`-kind injection. Converts into
/// `std::io::Error` so store/nn/core seams can propagate it through their
/// existing error enums with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The seam that fired.
    pub site: String,
    /// 0-based hit index at which it fired.
    pub hit: u64,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected fault: i/o error at {} (hit {})",
            self.site, self.hit
        )
    }
}

impl std::error::Error for InjectedFault {}

impl From<InjectedFault> for std::io::Error {
    fn from(f: InjectedFault) -> Self {
        std::io::Error::other(f.to_string())
    }
}

/// One injection rule: fires [`FaultKind`] at seams matching `pattern` on a
/// deterministic subset of hit indices.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Exact site name, or a prefix ending in `*` (e.g. `"store.*"`).
    pub pattern: String,
    pub kind: FaultKind,
    /// First 0-based hit index eligible to fire.
    pub first_hit: u64,
    /// Fire every `stride`-th eligible hit (1 = every hit from `first_hit`).
    pub stride: u64,
    /// Maximum number of times this rule fires (`u64::MAX` = unbounded).
    pub max_fires: u64,
    /// `Some(rate)` makes the rule probabilistic: each eligible hit fires
    /// with probability `rate / 1024`, decided by a pure hash of
    /// `(plan seed, site, hit)`. `None` fires deterministically.
    pub rate_per_1024: Option<u32>,
}

impl Rule {
    fn matches_site(&self, site: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.pattern == site,
        }
    }

    fn eligible(&self, hit: u64) -> bool {
        hit >= self.first_hit && (hit - self.first_hit).is_multiple_of(self.stride.max(1))
    }
}

/// A deterministic injection schedule: a seed plus an ordered rule list.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    pub seed: u64,
    pub rules: Vec<Rule>,
}

impl Plan {
    /// Empty plan with seed 0 (deterministic rules only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty plan with an explicit seed for probabilistic (`chaos`) rules.
    pub fn seeded(seed: u64) -> Self {
        Plan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add an arbitrary rule.
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Inject an I/O error at exactly hit `hit` of `site`.
    pub fn fail_once(self, site: &str, hit: u64) -> Self {
        self.rule(Rule {
            pattern: site.to_string(),
            kind: FaultKind::Error,
            first_hit: hit,
            stride: 1,
            max_fires: 1,
            rate_per_1024: None,
        })
    }

    /// Inject an I/O error at hits `first..first + count` of `site`.
    pub fn fail_range(self, site: &str, first: u64, count: u64) -> Self {
        self.rule(Rule {
            pattern: site.to_string(),
            kind: FaultKind::Error,
            first_hit: first,
            stride: 1,
            max_fires: count,
            rate_per_1024: None,
        })
    }

    /// Panic at exactly hit `hit` of `site`.
    pub fn panic_at(self, site: &str, hit: u64) -> Self {
        self.rule(Rule {
            pattern: site.to_string(),
            kind: FaultKind::Panic,
            first_hit: hit,
            stride: 1,
            max_fires: 1,
            rate_per_1024: None,
        })
    }

    /// Spin `ticks` deterministic ticks at every hit of sites matching
    /// `pattern`.
    pub fn delay(self, pattern: &str, ticks: u32) -> Self {
        self.rule(Rule {
            pattern: pattern.to_string(),
            kind: FaultKind::Delay(ticks),
            first_hit: 0,
            stride: 1,
            max_fires: u64::MAX,
            rate_per_1024: None,
        })
    }

    /// Yield the thread `times` times at every hit of sites matching
    /// `pattern` — the shutdown-race perturbation.
    pub fn yield_at(self, pattern: &str, times: u32) -> Self {
        self.rule(Rule {
            pattern: pattern.to_string(),
            kind: FaultKind::Yield(times),
            first_hit: 0,
            stride: 1,
            max_fires: u64::MAX,
            rate_per_1024: None,
        })
    }

    /// Probabilistic chaos: each hit of a site matching `pattern` fires
    /// `kind` with probability `rate_per_1024 / 1024`, decided by the plan
    /// seed (bit-exact replay under the same seed).
    pub fn chaos(self, pattern: &str, kind: FaultKind, rate_per_1024: u32) -> Self {
        self.rule(Rule {
            pattern: pattern.to_string(),
            kind,
            first_hit: 0,
            stride: 1,
            max_fires: u64::MAX,
            rate_per_1024: Some(rate_per_1024),
        })
    }
}

/// One injection that actually fired (for test assertions / diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    pub site: String,
    pub hit: u64,
    pub kind: FaultKind,
}

impl std::fmt::Display for InjectionRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at {} (hit {})",
            self.kind.name(),
            self.site,
            self.hit
        )
    }
}

struct ActivePlan {
    plan: Plan,
    /// Per-site hit counters (BTreeMap: deterministic iteration order).
    hits: BTreeMap<String, u64>,
    /// Per-rule fire counts (indexed like `plan.rules`).
    fired: Vec<u64>,
    injected: Vec<InjectionRecord>,
}

static ACTIVE: Mutex<Option<ActivePlan>> = Mutex::new(None);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — the deterministic site hash for chaos coins.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer — mixes `(seed, site, hit)` into a chaos coin.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic busy-wait for `ticks` iterations. No clock is consulted;
/// the duration scales with CPU speed, which is fine for injected latency
/// and backoff (ordering pressure, not timing guarantees).
pub fn spin_ticks(ticks: u64) {
    for _ in 0..ticks {
        std::hint::spin_loop();
    }
}

/// Install `plan` as the process-wide schedule, resetting all hit counters.
pub fn install(plan: Plan) {
    let fired = vec![0; plan.rules.len()];
    *ACTIVE.lock() = Some(ActivePlan {
        plan,
        hits: BTreeMap::new(),
        fired,
        injected: Vec::new(),
    });
}

/// Remove the active schedule; seams become pass-throughs again.
pub fn clear() {
    *ACTIVE.lock() = None;
}

/// Whether a schedule is installed.
pub fn active() -> bool {
    ACTIVE.lock().is_some()
}

/// How many times execution has reached `site` since [`install`].
pub fn hits(site: &str) -> u64 {
    ACTIVE
        .lock()
        .as_ref()
        .map_or(0, |a| a.hits.get(site).copied().unwrap_or(0))
}

/// Every injection that fired since [`install`], in firing order.
pub fn injected() -> Vec<InjectionRecord> {
    ACTIVE
        .lock()
        .as_ref()
        .map_or_else(Vec::new, |a| a.injected.clone())
}

/// Count of fired injections at `site`.
pub fn injected_at(site: &str) -> u64 {
    ACTIVE.lock().as_ref().map_or(0, |a| {
        a.injected.iter().filter(|r| r.site == site).count() as u64
    })
}

fn decide(site: &str) -> (u64, Vec<FaultKind>) {
    let mut guard = ACTIVE.lock();
    let Some(active) = guard.as_mut() else {
        return (0, Vec::new());
    };
    let counter = active.hits.entry(site.to_string()).or_insert(0);
    let hit = *counter;
    *counter += 1;
    let seed = active.plan.seed;
    let mut actions = Vec::new();
    for (i, rule) in active.plan.rules.iter().enumerate() {
        if !rule.matches_site(site) || !rule.eligible(hit) || active.fired[i] >= rule.max_fires {
            continue;
        }
        if let Some(rate) = rule.rate_per_1024 {
            let coin = splitmix64(
                seed ^ fnv1a64(site.as_bytes()) ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            if (coin % 1024) as u32 >= rate {
                continue;
            }
        }
        active.fired[i] += 1;
        active.injected.push(InjectionRecord {
            site: site.to_string(),
            hit,
            kind: rule.kind,
        });
        actions.push(rule.kind);
    }
    (hit, actions)
}

fn perform(site: &str, hit: u64, actions: Vec<FaultKind>) -> Result<(), InjectedFault> {
    // Latency/scheduling perturbations happen first so an Error/Panic rule
    // stacked on the same hit still observes the perturbed interleaving.
    let mut terminal: Option<FaultKind> = None;
    for kind in actions {
        match kind {
            FaultKind::Delay(ticks) => spin_ticks(u64::from(ticks)),
            FaultKind::Yield(times) => {
                for _ in 0..times {
                    std::thread::yield_now();
                }
            }
            k @ (FaultKind::Error | FaultKind::Panic) => terminal = Some(k),
        }
    }
    match terminal {
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site} (hit {hit})"),
        Some(FaultKind::Error) => Err(InjectedFault {
            site: site.to_string(),
            hit,
        }),
        _ => Ok(()),
    }
}

/// The seam entry point: counts the hit, consults the schedule, and either
/// returns `Ok(())`, returns an [`InjectedFault`], panics, or delays.
/// Called through [`fault_point!`]; seams never call this when the consumer
/// crate's `fault-injection` feature is off.
pub fn fire(site: &str) -> Result<(), InjectedFault> {
    let (hit, actions) = decide(site);
    perform(site, hit, actions)
}

/// Like [`fire`] but for seams in infallible contexts: `Error`-kind rules
/// are ignored; delays, yields and panics still apply.
pub fn fire_infallible(site: &str) {
    let (hit, mut actions) = decide(site);
    actions.retain(|k| *k != FaultKind::Error);
    let _ = perform(site, hit, actions);
}

/// A named injection seam. Expands to a schedule consultation when the
/// *calling crate's* `fault-injection` feature is on, and to **nothing**
/// otherwise. Must be used in a function whose error type implements
/// `From<hpacml_faults::InjectedFault>` (directly or via `std::io::Error`).
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {{
        #[cfg(feature = "fault-injection")]
        $crate::fire($site)?;
    }};
}

/// A named seam in an infallible context (no `Result` to propagate through):
/// delays, yields and panics apply; `Error`-kind rules are skipped.
#[macro_export]
macro_rules! fault_point_infallible {
    ($site:expr) => {{
        #[cfg(feature = "fault-injection")]
        $crate::fire_infallible($site);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    // The registry is process-global; serialize tests touching it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn no_plan_is_passthrough() {
        let _g = TEST_LOCK.lock();
        clear();
        assert!(fire("any.site").is_ok());
        assert!(!active());
        assert_eq!(hits("any.site"), 0);
    }

    #[test]
    fn fail_once_fires_at_exact_hit() {
        let _g = TEST_LOCK.lock();
        install(Plan::new().fail_once("store.flush", 2));
        assert!(fire("store.flush").is_ok());
        assert!(fire("store.flush").is_ok());
        let err = fire("store.flush").unwrap_err();
        assert_eq!(err.site, "store.flush");
        assert_eq!(err.hit, 2);
        // max_fires = 1: subsequent hits pass.
        assert!(fire("store.flush").is_ok());
        assert_eq!(hits("store.flush"), 4);
        assert_eq!(injected_at("store.flush"), 1);
        clear();
    }

    #[test]
    fn fail_range_covers_window() {
        let _g = TEST_LOCK.lock();
        install(Plan::new().fail_range("db.append", 1, 2));
        assert!(fire("db.append").is_ok());
        assert!(fire("db.append").is_err());
        assert!(fire("db.append").is_err());
        assert!(fire("db.append").is_ok());
        clear();
    }

    #[test]
    fn prefix_pattern_matches() {
        let _g = TEST_LOCK.lock();
        install(Plan::new().fail_range("store.*", 0, u64::MAX));
        assert!(fire("store.flush").is_err());
        assert!(fire("store.open").is_err());
        assert!(fire("nn.load").is_ok());
        clear();
    }

    #[test]
    fn panic_kind_panics_with_marker() {
        let _g = TEST_LOCK.lock();
        install(Plan::new().panic_at("serve.shadow", 0));
        let res = std::panic::catch_unwind(|| fire("serve.shadow"));
        clear();
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("injected fault: panic at serve.shadow"),
            "{msg}"
        );
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let _g = TEST_LOCK.lock();
        let run = |seed: u64| -> Vec<u64> {
            install(Plan::seeded(seed).chaos("x", FaultKind::Error, 256));
            let fails: Vec<u64> = (0..64).filter_map(|i| fire("x").err().map(|_| i)).collect();
            clear();
            fails
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay bit-exactly");
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty(), "rate 256/1024 over 64 hits should fire");
        assert!(a.len() < 64, "rate 256/1024 must not fire every hit");
    }

    #[test]
    fn infallible_skips_error_kind() {
        let _g = TEST_LOCK.lock();
        install(Plan::new().fail_range("site", 0, u64::MAX).delay("site", 8));
        fire_infallible("site");
        assert_eq!(hits("site"), 1);
        clear();
    }

    #[test]
    fn injected_fault_converts_to_io_error() {
        let f = InjectedFault {
            site: "s".into(),
            hit: 3,
        };
        let io: std::io::Error = f.into();
        assert!(io.to_string().contains("injected fault"));
    }
}
