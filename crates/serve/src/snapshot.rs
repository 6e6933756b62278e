//! Immutable runtime snapshots: the compiled form of a [`Config`].
//!
//! A snapshot owns one *region unit* per configured region: an
//! `Arc<Region>` and a `BatchServer<'static>` over a session that shares it
//! ([`Region::session_shared`]). There is no thread here and no queue: a
//! unit is built, and shadow-probed, on the thread that calls
//! `Daemon::apply`, and it is served on the threads that call
//! `Daemon::submit` — the request path is a pointer load and a call into a
//! coalescer that is already thread-safe, so the submitters `BatchServer`
//! batches are the daemon's real clients.
//!
//! *Shadow probe:* before a unit may enter a snapshot it runs one
//! forced-surrogate invocation with deterministic inputs, before any
//! validation policy is attached, so a missing or broken model fails the
//! `apply()` — the old snapshot keeps serving — instead of failing live
//! traffic after the swap.
//!
//! *Retiring is drop-free*, by `BatchServer`'s own argument. A submit
//! decides under the server's state lock: either it sees the shutdown flag
//! and gets a typed `ServeError::ShutDown` having staged nothing (the daemon
//! retries it on the snapshot that is current by then), or it staged before
//! `shutdown()` took the forming batch — which `shutdown()` then executes on
//! the retiring thread. Batches already executing on their submitters'
//! threads publish on their own; [`RuntimeSnapshot::retire`] returns once
//! nothing is in flight and the region's database is flushed.

use crate::config::{Config, DaemonConfig, Metric, Precision, RegionConfig, ValidationConfig};
use crate::daemon::DaemonError;
use hpacml_core::{
    BatchServer, CoreError, ErrorMetric, PrecisionPolicy, Region, RegionStats, Session,
    ValidationPolicy,
};
use hpacml_directive::sema::Bindings;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Host-code fallback for one region: `handler(n, staged_inputs, outputs)`
/// computes the `n` staged samples with the original code (the same
/// contract as [`BatchServer::with_fallback`]). Registered on the daemon
/// builder by region name; required for regions with a validation policy.
pub(crate) type HostHandler =
    Arc<dyn Fn(usize, &[Vec<f32>], &mut [Vec<f32>]) + Send + Sync + 'static>;

/// Per-region entry in a snapshot: the batch server the daemon submits
/// into (it checks each submit's arrays against the session's shapes), the
/// region it serves (stats, final flush), and the config's default deadline.
pub(crate) struct Unit {
    pub(crate) server: BatchServer<'static>,
    region: Arc<Region>,
    pub(crate) deadline: Option<Duration>,
}

/// An immutable compiled configuration: every region resolved, probed, and
/// serving. The daemon holds the current snapshot in an `Arc`; `apply()`
/// builds the next one off to the side and swaps atomically.
// lint: allow(crate-local-pub) — returned by `Daemon::snapshot`, read without naming the type
pub struct RuntimeSnapshot {
    generation: u64,
    config: Config,
    pub(crate) units: BTreeMap<String, Unit>,
}

impl RuntimeSnapshot {
    /// Monotone snapshot generation (1 = bootstrap).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configuration this snapshot was compiled from.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Configured region names, sorted.
    pub fn region_names(&self) -> Vec<String> {
        self.units.keys().cloned().collect()
    }

    /// Stats of one region's underlying `Region`: `Some` for every
    /// configured region for as long as the snapshot is alive (a retired
    /// snapshot keeps its final counts).
    pub fn region_stats(&self, region: &str) -> Option<RegionStats> {
        self.units.get(region).map(|unit| unit.region.stats())
    }

    /// Compile a config into a snapshot ready to serve: build and probe
    /// every region unit on the calling thread. Any failure drops the units
    /// already built and returns the error — the caller's current snapshot
    /// is untouched and keeps serving.
    pub(crate) fn build(
        config: Config,
        handlers: &BTreeMap<String, HostHandler>,
        generation: u64,
    ) -> Result<Arc<RuntimeSnapshot>, DaemonError> {
        let mut units = BTreeMap::new();
        for rc in &config.regions {
            let handler = handlers.get(&rc.name).cloned();
            let unit = build_unit(rc, &config.daemon, handler).map_err(|msg| {
                let region = rc.name.clone();
                DaemonError::Build { region, msg }
            })?;
            units.insert(rc.name.clone(), unit);
        }
        Ok(Arc::new(RuntimeSnapshot {
            generation,
            config,
            units,
        }))
    }

    /// Stop serving from this snapshot: shut every unit's server down (its
    /// forming batch executes here; later submits get the typed `ShutDown`
    /// the daemon retries elsewhere), wait until no batch is in flight, then
    /// flush each region's database. Idempotent.
    pub(crate) fn retire(&self) {
        for unit in self.units.values() {
            unit.server.shutdown();
        }
        for unit in self.units.values() {
            // What is left in flight is executing on a submitter's thread
            // right now; give it the core until it has published.
            while unit.server.in_flight() != 0 {
                std::thread::yield_now();
            }
            let _ = unit.region.flush_db();
        }
    }
}

/// Build one region's serving stack — region, precision, session, shadow
/// probe, validation policy, batch server — or say which step failed.
fn build_unit(
    cfg: &RegionConfig,
    daemon: &DaemonConfig,
    handler: Option<HostHandler>,
) -> Result<Unit, String> {
    if cfg.validation.is_some() && handler.is_none() {
        return Err("validation policy requires a registered host handler".into());
    }
    let step = |what: &'static str| move |e: CoreError| format!("{what} failed: {e}");
    let region = Arc::new(build_region(cfg).map_err(step("region build"))?);
    apply_precision(&region, cfg).map_err(step("precision policy"))?;
    let binds = cfg
        .binds
        .iter()
        .fold(Bindings::new(), |b, (name, v)| b.with(name.as_str(), *v));
    let dims: Vec<[usize; 1]> = cfg
        .inputs
        .iter()
        .chain(cfg.outputs.iter())
        .map(|(_, n)| [*n])
        .collect();
    let shapes: Vec<(&str, &[usize])> = cfg
        .inputs
        .iter()
        .chain(cfg.outputs.iter())
        .zip(dims.iter())
        .map(|((name, _), d)| (name.as_str(), d.as_slice()))
        .collect();
    let session = region
        .session_shared(&binds, &shapes, cfg.max_batch)
        .map_err(step("session build"))?;
    // Shadow-probe before any validation policy is attached: a drawn
    // shadow validation during the probe would score the surrogate against
    // a no-op closure and poison the fallback controller.
    probe(&session, cfg).map_err(step("shadow probe"))?;
    region.reset_stats();
    if let Some(v) = &cfg.validation {
        region
            .set_validation_policy(validation_policy(v))
            .map_err(step("validation policy"))?;
    }
    let mut server = BatchServer::new(&session, cfg.max_wait).map_err(step("server build"))?;
    if let Some(mp) = cfg.effective_max_pending(daemon) {
        server = server.with_max_pending(mp);
    }
    if let Some(h) = handler {
        server = server.with_fallback(move |n, ins, outs| h(n, ins, outs));
    }
    Ok(Unit {
        server,
        region,
        deadline: cfg.effective_deadline(daemon),
    })
}

fn build_region(cfg: &RegionConfig) -> Result<Region, CoreError> {
    let mut b = Region::builder(cfg.name.as_str()).directive(cfg.directive.as_str());
    if let Some(model) = &cfg.model {
        b = b.model(model.as_str());
    }
    if let Some(db) = &cfg.db {
        b = b.database(db.as_str());
    }
    b.build()
}

fn apply_precision(region: &Region, cfg: &RegionConfig) -> Result<(), CoreError> {
    let policy = match cfg.precision {
        Precision::F32 => return Ok(()),
        Precision::Bf16 => PrecisionPolicy::bf16(),
        Precision::Int8 => PrecisionPolicy::int8(),
    };
    let policy = match cfg.calib_rows {
        Some(rows) => policy.with_max_calib_rows(rows),
        None => policy,
    };
    region.set_precision_policy(&policy).map(|_| ())
}

fn validation_policy(v: &ValidationConfig) -> ValidationPolicy {
    let metric = match v.metric {
        Metric::Rmse => ErrorMetric::Rmse,
        Metric::Mape => ErrorMetric::Mape,
        Metric::MaxAbs => ErrorMetric::MaxAbs,
    };
    let mut policy = ValidationPolicy::new(metric, v.budget);
    if let Some(rate) = v.rate {
        policy = policy.with_sample_rate(rate);
    }
    if let Some(window) = v.window {
        policy = policy.with_window(window);
    }
    if let Some(k) = v.batch_samples {
        policy = policy.with_batch_samples(k);
    }
    policy
}

/// One forced-surrogate pass with deterministic inputs: proves the model
/// resolves, the packed panels build, and a forward pass completes —
/// before the unit is allowed into a snapshot.
fn probe(session: &Session<'_>, cfg: &RegionConfig) -> Result<(), CoreError> {
    let bufs: Vec<Vec<f32>> = cfg
        .inputs
        .iter()
        .enumerate()
        .map(|(k, (_, n))| {
            (0..*n)
                .map(|i| (k + 1) as f32 * 0.125 + i as f32 * 0.0625)
                .collect()
        })
        .collect();
    let mut run = session.invoke().use_surrogate(true);
    for ((name, _), buf) in cfg.inputs.iter().zip(bufs.iter()) {
        run = run.input(name, buf)?;
    }
    let mut out = run.run(|| {})?;
    let mut sink: Vec<Vec<f32>> = cfg.outputs.iter().map(|(_, n)| vec![0.0; *n]).collect();
    for ((name, _), buf) in cfg.outputs.iter().zip(sink.iter_mut()) {
        out.output(name, buf)?;
    }
    out.finish()?;
    Ok(())
}
