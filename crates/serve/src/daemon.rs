//! The serving daemon: config-driven bootstrap, one request path over the
//! current [`RuntimeSnapshot`], and atomic live reconfiguration.
//!
//! **The request path** runs on the caller's thread, start to finish:
//! [`Daemon::submit`] clones the current snapshot's `Arc`, looks the region
//! up, and calls `BatchServer::submit` — which checks the arrays against
//! the session's declared shapes, and where concurrent callers coalesce
//! into one batched forward pass. The daemon owns no thread and no queue; a panic
//! anywhere below unwinds on the thread that made the call.
//!
//! **The control plane** has one verb. `apply(config)` builds the next
//! snapshot *off to the side* on its caller's thread (new regions, packed
//! panels, policies — each shadow-probed before it may serve), stores it as
//! current, and only then retires the old one. Retiring drops nothing (see
//! the `snapshot` module): a submit that raced the swap comes back from the
//! retired server as a typed `ShutDown` having staged nothing, and the
//! submit loop runs it again on the snapshot that is current by then —
//! which cannot be the retired one, because the store came first. A failed
//! build (bad config, missing model, broken probe) leaves the current
//! snapshot serving untouched.
//!
//! **No snapshot cache.** `snapshot()` takes the pointer's mutex for the
//! length of an `Arc::clone`; the same submit takes `BatchServer`'s state
//! lock two to three times with longer critical sections, so this is not
//! the first bottleneck. A per-thread cache would pin a retired
//! generation's `Region` *and model* for as long as an idle thread lives.

use crate::config::{Config, ConfigError};
use crate::snapshot::{HostHandler, RuntimeSnapshot};
use hpacml_core::{CoreError, ServeError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by the daemon's control and request paths.
#[derive(Debug)]
pub enum DaemonError {
    /// The config text failed to parse.
    Config(ConfigError),
    /// A region unit failed to build or probe during `apply`/bootstrap.
    Build { region: String, msg: String },
    /// Submit named a region the current snapshot does not serve.
    UnknownRegion { region: String, generation: u64 },
    /// Submit arrays do not match the region's declared shapes.
    Arity { region: String, msg: String },
    /// The daemon is shut down.
    ShutDown,
    /// An error from the serving core (typed rejections included).
    Core(CoreError),
}

impl DaemonError {
    /// The underlying typed [`ServeError`], if this wraps one.
    pub fn serve(&self) -> Option<&ServeError> {
        match self {
            DaemonError::Core(CoreError::Serve(e)) => Some(e),
            _ => None,
        }
    }

    /// Admission-control rejection (`max_pending` exceeded)?
    pub fn is_overloaded(&self) -> bool {
        matches!(self.serve(), Some(ServeError::Overloaded { .. }))
    }

    /// Deadline rejection: the batch this request would have joined
    /// flushes later than its budget, decided up front at the join?
    pub fn is_deadline(&self) -> bool {
        matches!(self.serve(), Some(ServeError::Deadline { .. }))
    }
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Config(e) => write!(f, "{e}"),
            DaemonError::Build { region, msg } => {
                write!(f, "region '{region}': {msg}")
            }
            DaemonError::UnknownRegion { region, generation } => {
                write!(
                    f,
                    "unknown region '{region}' (snapshot generation {generation})"
                )
            }
            DaemonError::Arity { region, msg } => {
                write!(f, "region '{region}': {msg}")
            }
            DaemonError::ShutDown => write!(f, "daemon is shut down"),
            DaemonError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<ConfigError> for DaemonError {
    fn from(e: ConfigError) -> Self {
        DaemonError::Config(e)
    }
}

impl From<CoreError> for DaemonError {
    fn from(e: CoreError) -> Self {
        DaemonError::Core(e)
    }
}

/// What an `apply` did: the new generation and the regions it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(crate-local-pub) — returned by `Daemon::apply`, read without naming the type
pub struct ApplyReport {
    pub generation: u64,
    pub regions: Vec<String>,
}

/// Daemon-wide serving totals (cumulative across snapshot swaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonStats {
    /// Current snapshot generation (1 = bootstrap).
    pub generation: u64,
    /// Requests completed successfully.
    pub served: u64,
    /// Requests shed by the `max_pending` admission cap.
    pub rejected_overload: u64,
    /// Requests rejected on a deadline at the batch join.
    pub rejected_deadline: u64,
    /// Requests that failed with any other error.
    pub errored: u64,
    /// Successful `apply` calls after bootstrap.
    pub swaps: u64,
    /// Submits that raced a swap and were retried on the next snapshot.
    pub swap_retries: u64,
}

/// The live counters behind [`DaemonStats`]; they belong to the daemon, not
/// to a snapshot, so totals survive swaps.
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    errored: AtomicU64,
    swaps: AtomicU64,
    swap_retries: AtomicU64,
}

/// Registers host handlers, then bootstraps a [`Daemon`] from config text.
#[derive(Default)]
pub struct DaemonBuilder {
    handlers: BTreeMap<String, HostHandler>,
}

impl DaemonBuilder {
    pub fn new() -> Self {
        DaemonBuilder::default()
    }

    /// Register the host-code fallback for `region` (same contract as
    /// [`hpacml_core::BatchServer::with_fallback`]). Required for regions
    /// that declare a `validation` block; optional otherwise.
    pub fn host_handler<F>(mut self, region: impl Into<String>, handler: F) -> Self
    where
        F: Fn(usize, &[Vec<f32>], &mut [Vec<f32>]) + Send + Sync + 'static,
    {
        self.handlers.insert(region.into(), Arc::new(handler));
        self
    }

    /// Parse `config`, compile it into the generation-1 snapshot, and
    /// start serving.
    pub fn bootstrap(self, config: &str) -> Result<Daemon, DaemonError> {
        let parsed = Config::parse(config)?;
        let first = RuntimeSnapshot::build(parsed, &self.handlers, 1)?;
        Ok(Daemon {
            current: Mutex::new(first),
            apply_lock: Mutex::new(()),
            handlers: self.handlers,
            counters: Counters::default(),
            shut: AtomicBool::new(false),
        })
    }
}

/// A multi-region serving daemon over [`RuntimeSnapshot`]s. See the
/// module docs for the swap protocol.
pub struct Daemon {
    current: Mutex<Arc<RuntimeSnapshot>>,
    apply_lock: Mutex<()>,
    handlers: BTreeMap<String, HostHandler>,
    counters: Counters,
    shut: AtomicBool,
}

impl Daemon {
    /// Current snapshot generation (1 = bootstrap; +1 per `apply`).
    pub fn generation(&self) -> u64 {
        self.current.lock().generation()
    }

    /// The current snapshot (shared, immutable).
    pub fn snapshot(&self) -> Arc<RuntimeSnapshot> {
        Arc::clone(&self.current.lock())
    }

    /// Cumulative serving totals plus the current generation.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            generation: self.generation(),
            served: self.counters.served.load(Ordering::Relaxed),
            rejected_overload: self.counters.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.counters.rejected_deadline.load(Ordering::Relaxed),
            errored: self.counters.errored.load(Ordering::Relaxed),
            swaps: self.counters.swaps.load(Ordering::Relaxed),
            swap_retries: self.counters.swap_retries.load(Ordering::Relaxed),
        }
    }

    /// Live region stats from the current snapshot.
    pub fn region_stats(&self, region: &str) -> Option<hpacml_core::RegionStats> {
        self.snapshot().region_stats(region)
    }

    /// Compile `config` into the next snapshot and swap it in atomically.
    /// On any failure the current snapshot keeps serving unchanged. On
    /// success, new submits land on the new snapshot while requests already
    /// staged on the old one finish there; `apply` returns once the old
    /// snapshot is idle and its databases are flushed.
    pub fn apply(&self, config: &str) -> Result<ApplyReport, DaemonError> {
        let _serialized = self.apply_lock.lock();
        if self.shut.load(Ordering::Acquire) {
            return Err(DaemonError::ShutDown);
        }
        let parsed = Config::parse(config)?;
        let next_gen = self.generation() + 1;
        let next = RuntimeSnapshot::build(parsed, &self.handlers, next_gen)?;
        let regions = next.region_names();
        // Store first, retire second: a submit bounced by the retired
        // snapshot must find the new one when it looks again.
        let old = std::mem::replace(&mut *self.current.lock(), next);
        self.counters.swaps.fetch_add(1, Ordering::Relaxed);
        old.retire();
        Ok(ApplyReport {
            generation: next_gen,
            regions,
        })
    }

    /// Submit one sample to `region` and block for its outputs. `inputs`
    /// and `outputs` are one slice per declared array, in config order.
    pub fn submit(
        &self,
        region: &str,
        inputs: &[&[f32]],
        outputs: &mut [&mut [f32]],
    ) -> Result<(), DaemonError> {
        self.submit_inner(region, inputs, outputs, None)
    }

    /// [`submit`](Self::submit) with an explicit wait budget (overrides the
    /// config deadline). There is no daemon queue to spend it in: it covers
    /// exactly what [`hpacml_core::BatchServer::submit_with_deadline`]'s
    /// does, the wait for the joined batch to flush.
    pub fn submit_with_deadline(
        &self,
        region: &str,
        inputs: &[&[f32]],
        outputs: &mut [&mut [f32]],
        budget: Duration,
    ) -> Result<(), DaemonError> {
        self.submit_inner(region, inputs, outputs, Some(budget))
    }

    fn submit_inner(
        &self,
        region: &str,
        inputs: &[&[f32]],
        outputs: &mut [&mut [f32]],
        budget: Option<Duration>,
    ) -> Result<(), DaemonError> {
        let counters = &self.counters;
        loop {
            if self.shut.load(Ordering::Acquire) {
                return Err(DaemonError::ShutDown);
            }
            let snap = self.snapshot();
            let unit = snap
                .units
                .get(region)
                .ok_or_else(|| DaemonError::UnknownRegion {
                    region: region.to_string(),
                    generation: snap.generation(),
                })?;
            let result = match budget.or(unit.deadline) {
                Some(b) => unit.server.submit_with_deadline(inputs, outputs, b),
                None => unit.server.submit(inputs, outputs),
            };
            let counter = match result {
                Ok(()) => {
                    counters.served.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                // The snapshot was retired under us (swap or shutdown) and
                // nothing was staged: go round on whatever is current now.
                Err(CoreError::Serve(ServeError::ShutDown { .. })) => {
                    counters.swap_retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Caller misuse, not a serving outcome: counted nowhere.
                Err(CoreError::Serve(ServeError::Arity { region, msg })) => {
                    return Err(DaemonError::Arity { region, msg });
                }
                Err(CoreError::Serve(ServeError::Overloaded { .. })) => &counters.rejected_overload,
                Err(CoreError::Serve(ServeError::Deadline { .. })) => &counters.rejected_deadline,
                Err(_) => &counters.errored,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            return result.map_err(DaemonError::from);
        }
    }

    /// Stop serving: retire the current snapshot (requests already staged
    /// finish first) and reject every later submit/apply with
    /// [`DaemonError::ShutDown`]. Idempotent.
    pub fn shutdown(&self) {
        let _serialized = self.apply_lock.lock();
        if self.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        self.snapshot().retire();
    }
}

impl fmt::Debug for Daemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Daemon")
            .field("generation", &self.generation())
            .field("regions", &self.snapshot().region_names())
            .field("shut", &self.shut.load(Ordering::Acquire))
            .finish()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}
