//! Concurrent auto-batching: many submitters, one forward pass.
//!
//! A [`BatchServer`] wraps a compiled [`Session`] and coalesces invocations
//! submitted from any number of threads into shared batched forward passes —
//! the serving pattern of AI-coupled HPC workflows, where concurrent workers
//! (MPI ranks, ensemble members, request handlers) each need one sample
//! inferred and nobody wants to pay a full per-invocation forward pass.
//!
//! The server *owns* its session — [`BatchServer::new`] clones the one it is
//! given (the compiled core is shared, so the clone costs a few small
//! vectors) — so its only lifetime is the session's region borrow `'r`.
//! Over a [`Region::session`](crate::Region::session) that is the region's
//! stack frame; over a
//! [`Region::session_shared`](crate::Region::session_shared) it is
//! `'static`, and the server can be stored in a long-lived structure and
//! submitted to from whichever threads hold a reference to it (how
//! `hpacml-serve` keeps one per configured region).
//!
//! The coalescer is leader/follower, with no background thread of its own:
//!
//! 1. A submitter stages its per-sample inputs into the forming batch under
//!    the server lock. The **first** member becomes the batch's *leader* and
//!    waits up to `max_wait` for company; later members just wait for
//!    results.
//! 2. Whoever **closes** the batch executes it: the member that fills it to
//!    the session's `max_batch` flushes immediately, otherwise the leader
//!    flushes at the deadline. Execution is one
//!    [`Session::invoke_batch`]`(n)` — a single forward pass on the
//!    `hpacml-par` pool for everything pending.
//! 3. Every member wakes and copies its own slice of the batched output.
//!
//! Occupancy is observable: the region's
//! [`RegionStats::batch_submitted`](crate::RegionStats) /
//! [`RegionStats::batches_flushed`](crate::RegionStats) counters (and
//! [`mean_batch_fill`](crate::RegionStats::mean_batch_fill)) report how well
//! submissions coalesced.
//!
//! A flush is one ordinary compiled invocation, so the server runs the
//! region's online-validation loop (see the [`validate`](crate::validate)
//! module) exactly as a direct session does: a whole-batch host-code
//! handler installed with [`BatchServer::with_fallback`] is the
//! invocation's accurate closure — the shadow reference of a drawn flush,
//! the server of a forced or adaptive fallback (whose drawn flushes probe
//! the surrogate for recovery), and the host path a permanent surrogate
//! failure degrades to. Without a handler a flush has no host path: it is
//! never drawn, and a closed fallback gate or a failed surrogate pass
//! fails the batch. [`BatchServer::shutdown`] flushes the forming batch and
//! rejects later submissions; [`BatchServer::drain`] flushes without
//! closing the server.
//!
//! # Admission control
//!
//! The server is backpressured, not unbounded:
//!
//! * [`BatchServer::with_max_pending`] caps the samples staged or executing
//!   at any moment; a submit over the cap is rejected with a typed
//!   [`ServeError::Overloaded`] instead of growing the queue (counted in
//!   [`RegionStats::serve_rejected_overload`](crate::RegionStats)).
//! * [`BatchServer::submit_with_deadline`] attaches a wait budget: a submit
//!   that would join a forming batch flushing *later* than its budget is
//!   rejected up front with [`ServeError::Deadline`] — never stranded — and
//!   a leading submit shortens its batch's flush to fit the budget.
//! * `max_wait` adapts to load: the leader's wait is the configured bound
//!   scaled by an EWMA of recent batch fill, so it shrinks toward zero under
//!   light load (no company worth waiting for) and grows back toward the
//!   configured bound under sustained occupancy. See
//!   [`BatchServer::current_max_wait`].
//!
//! ```no_run
//! # fn main() -> hpacml_core::Result<()> {
//! use hpacml_core::serve::BatchServer;
//! use std::time::Duration;
//!
//! # let region = hpacml_core::Region::from_source("r", "")?;
//! # let binds = hpacml_directive::sema::Bindings::new();
//! // Per-sample session, up to 64 invocations per forward pass.
//! let session = region.session(&binds, &[("x", &[5]), ("y", &[1])], 64)?;
//! let server = BatchServer::new(&session, Duration::from_micros(200))?;
//!
//! std::thread::scope(|scope| {
//!     for w in 0..8 {
//!         let server = &server;
//!         scope.spawn(move || {
//!             let sample = [w as f32; 5];
//!             let mut result = [0.0f32; 1];
//!             // Blocks until a coalesced forward pass produced this
//!             // sample's output; concurrent submitters share one pass.
//!             server.submit(&[&sample], &mut [&mut result]).unwrap();
//!         });
//!     }
//! });
//! # Ok(())
//! # }
//! ```

use crate::error::ServeError;
use crate::session::Session;
use crate::{CoreError, Result};
use hpacml_directive::ast::MlMode;
use hpacml_faults::fault_point_infallible;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// EWMA weight of the newest batch-fill observation in the adaptive
/// `max_wait` (higher reacts faster, lower smooths bursts).
const OCCUPANCY_ALPHA: f64 = 0.25;

/// `Duration` → nanoseconds as `u64`, saturating. `Duration` holds up to
/// ~2^64 seconds, so `as_nanos() as u64` would *truncate* an absurd-but-legal
/// budget or flush horizon to a small number — and a rejection that reports
/// a tiny `flush_in_ns` masks the real cause. Saturated values pin the
/// diagnostic at "effectively unbounded" instead.
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A whole-batch host-code fallback: `(n, staged_inputs, outputs)`, where
/// `staged_inputs[i]` holds the `n` per-sample arrays of declared input `i`
/// back to back and `outputs[j]` must be filled with the `n` per-sample
/// results of declared output `j`.
type FallbackFn<'r> = Box<dyn Fn(usize, &[Vec<f32>], &mut [Vec<f32>]) + Send + Sync + 'r>;

/// How a flushed batch failed: the message plus the batch fill at failure
/// time, fanned out to every member (each member adds its own slot index on
/// the way out, so diagnostics name the exact sample).
#[derive(Debug, Clone)]
struct BatchFailure {
    msg: String,
    fill: usize,
}

/// One flushed batch's published outcome: a buffer per declared output
/// array, or a structured failure fanned out to every member.
type BatchOutcome = std::result::Result<Arc<Vec<Vec<f32>>>, BatchFailure>;

/// Per-batch result cell: members park on `cv` until the executor publishes
/// one output buffer per declared output array (or an error, fanned out to
/// every member).
struct Cell {
    done: Mutex<Option<BatchOutcome>>,
    cv: Condvar,
}

impl Cell {
    fn new() -> Self {
        Cell {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

/// The batch currently accepting members.
struct Forming {
    cell: Arc<Cell>,
    /// One staging buffer per input array; member `i`'s sample occupies
    /// `[i * per_sample .. (i + 1) * per_sample]`.
    staging: Vec<Vec<f32>>,
    n: usize,
    deadline: Instant,
}

struct ServerState {
    forming: Option<Forming>,
    /// Recycled staging sets, so steady-state batches reuse grown buffers.
    spare: Vec<Vec<Vec<f32>>>,
    /// Set by [`BatchServer::shutdown`]; later submissions are rejected.
    shutdown: bool,
    /// Samples staged or in a flushed-but-unpublished batch — the quantity
    /// [`BatchServer::with_max_pending`] caps.
    in_flight: usize,
    /// EWMA of batch fill (`n / max_batch`) at flush time, in `[0, 1]`.
    /// Scales the leader's wait: light load shrinks it toward zero,
    /// sustained occupancy grows it back toward the configured `max_wait`.
    occupancy_ewma: f64,
    /// Whether any flush has been observed yet. The first observation
    /// *seeds* the EWMA (replaces the optimistic 1.0 prior outright) so a
    /// cold server stops imposing the full `max_wait` on light-load
    /// submitters after one flush instead of after `~1/alpha` of them.
    occupancy_seeded: bool,
}

/// What a submitter must do after staging its sample.
enum Role {
    /// First member: wait for the batch to fill, flush at the deadline.
    Lead(Instant),
    /// Filled the batch to `max_batch`: execute it now.
    Execute(Forming),
    /// Joined a forming batch: just wait for the result.
    Wait,
}

/// A concurrent auto-batching submitter over its own clone of a compiled
/// [`Session`]. See the [module docs](self) for the coalescing protocol.
pub struct BatchServer<'r> {
    session: Session<'r>,
    max_wait: Duration,
    /// Admission-control cap on staged + executing samples
    /// (`usize::MAX` = uncapped).
    max_pending: usize,
    state: Mutex<ServerState>,
    /// Leaders park here; whoever fills a batch signals so the leader stops
    /// waiting for a batch that is already on its way.
    leader_cv: Condvar,
    /// (name, per-sample element count) per declared input, assembly order.
    in_arrays: Vec<(String, usize)>,
    /// (name, per-sample element count) per declared output.
    out_arrays: Vec<(String, usize)>,
    /// Whole-batch host code: the accurate closure of every flush's session
    /// invocation. `None` makes each flush an invocation with no host path.
    fallback: Option<FallbackFn<'r>>,
}

/// One empty staging buffer per input array, each with room for
/// `max_batch` samples: checked arithmetic and a fallible reservation, so
/// a configured batch width no buffer can hold is a typed error.
fn new_staging(in_arrays: &[(String, usize)], max_batch: usize) -> Result<Vec<Vec<f32>>> {
    in_arrays
        .iter()
        .map(|(name, per)| {
            let mut buf = Vec::new();
            max_batch
                .checked_mul(*per)
                .and_then(|elems| buf.try_reserve_exact(elems).ok())
                .map(|()| buf)
                .ok_or_else(|| {
                    CoreError::Region(format!(
                        "input `{name}`: cannot stage max_batch {max_batch} × {per} elements"
                    ))
                })
        })
        .collect()
}

impl<'r> BatchServer<'r> {
    /// Serve a clone of a compiled session (the caller keeps its own for
    /// direct invocations). `max_wait` bounds how long the first sample
    /// of a batch waits for company before flushing a partial batch —
    /// latency the deployment trades for occupancy. The session's region
    /// must be able to take the surrogate path (`infer` or `predicated`
    /// mode); a collect-mode region has no model to serve.
    pub fn new(session: &Session<'r>, max_wait: Duration) -> Result<Self> {
        if session.region().ml_mode() == MlMode::Collect {
            return Err(CoreError::Region(format!(
                "region `{}`: a collect-mode region cannot serve batched inference",
                session.region().name()
            )));
        }
        let in_arrays: Vec<(String, usize)> = session
            .input_arrays()
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        let out_arrays: Vec<(String, usize)> = session
            .output_arrays()
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        // One staging set up front: a `max_batch` whose batch cannot be
        // staged fails here, typed, instead of aborting the first submit.
        let spare = vec![new_staging(&in_arrays, session.max_batch())?];
        Ok(BatchServer {
            session: session.clone(),
            max_wait,
            max_pending: usize::MAX,
            state: Mutex::new(ServerState {
                forming: None,
                spare,
                shutdown: false,
                in_flight: 0,
                // Start at the configured bound (the pre-adaptive
                // behavior) so the very first batch still waits for
                // company; the first observed flush *seeds* the EWMA with
                // its actual fill, so a cold server adapts after one batch.
                occupancy_ewma: 1.0,
                occupancy_seeded: false,
            }),
            leader_cv: Condvar::new(),
            in_arrays,
            out_arrays,
            fallback: None,
        })
    }

    /// Install a whole-batch host-code fallback:
    /// `handler(n, staged_inputs, outputs)` computes the `n` staged samples
    /// with the original code (`staged_inputs[i]` holds input `i`'s samples
    /// back to back; `outputs[j]` is pre-sized to `n` per-sample results).
    ///
    /// The handler is each flush's accurate closure, so the server takes
    /// part in the region's validation loop exactly as a direct session
    /// does: while the surrogate is active, drawn flushes run the handler in
    /// shadow and score the surrogate against it; while the controller has
    /// the surrogate disabled, the handler serves flushes and drawn ones
    /// probe the surrogate for recovery. Without a handler, flushes during
    /// fallback fail (fanned out to every member) rather than silently
    /// serving an over-budget surrogate.
    pub fn with_fallback<F>(mut self, handler: F) -> Self
    where
        F: Fn(usize, &[Vec<f32>], &mut [Vec<f32>]) + Send + Sync + 'r,
    {
        self.fallback = Some(Box::new(handler));
        self
    }

    /// Bound the samples staged or executing at any moment. A submit over
    /// the cap is rejected with [`ServeError::Overloaded`] (counted in
    /// [`RegionStats::serve_rejected_overload`](crate::RegionStats))
    /// instead of queueing without bound — load-shedding backpressure for
    /// closed-loop clients.
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Samples currently staged in the forming batch (observability and
    /// test hooks; racy by nature).
    pub fn pending(&self) -> usize {
        self.state.lock().forming.as_ref().map_or(0, |f| f.n)
    }

    /// Samples staged *or* executing-but-unpublished — the quantity the
    /// `max_pending` cap applies to (observability; racy by nature).
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight
    }

    /// The leader wait currently in force: the configured `max_wait` scaled
    /// by the batch-fill EWMA. Shrinks toward zero when batches flush
    /// mostly empty, recovers toward the configured bound as occupancy
    /// rises.
    pub fn current_max_wait(&self) -> Duration {
        self.max_wait.mul_f64(self.state.lock().occupancy_ewma)
    }

    /// Stop accepting submissions: the forming batch (if any) is flushed
    /// immediately on the calling thread so parked members complete, and
    /// every later [`BatchServer::submit`] is rejected with
    /// [`ServeError::ShutDown`]. Idempotent.
    pub fn shutdown(&self) {
        let forming = {
            let mut st = self.state.lock();
            st.shutdown = true;
            st.forming.take()
        };
        // Wake any leader parked on the (now detached) batch.
        self.leader_cv.notify_all();
        fault_point_infallible!("serve.shutdown.race");
        if let Some(f) = forming {
            self.execute(f);
        }
    }

    /// Flush the forming batch (if any) on the calling thread without
    /// closing the server: parked members complete now instead of at the
    /// leader's deadline, and later submissions are still accepted. The
    /// quiesce half of a `drain()`-then-[`shutdown`](Self::shutdown)
    /// teardown, also usable on its own at a phase boundary.
    pub fn drain(&self) {
        let forming = self.state.lock().forming.take();
        self.leader_cv.notify_all();
        fault_point_infallible!("serve.drain.race");
        if let Some(f) = forming {
            self.execute(f);
        }
    }

    /// Submit **one** sample and block until a coalesced forward pass has
    /// produced its outputs. `inputs` and `outputs` are slices per declared
    /// array in declaration order (the order of the `ml` directive's
    /// `in(...)`/`out(...)` clauses), each exactly
    /// one per-sample array long. Safe to call from any number of threads;
    /// whatever is pending when a batch closes shares one forward pass.
    pub fn submit(&self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) -> Result<()> {
        self.submit_inner(inputs, outputs, None)
    }

    /// [`submit`](Self::submit) with a per-request wait budget: the sample
    /// is only admitted if the batch it would join flushes within `budget`.
    /// Joining a forming batch whose flush lies beyond the budget is
    /// rejected **up front** with [`ServeError::Deadline`] (counted in
    /// [`RegionStats::serve_rejected_deadline`](crate::RegionStats)) rather
    /// than stranding the sample; an admitted *leading* submit shortens its
    /// new batch's flush to fit the budget. The budget covers queueing wait
    /// only — execution time is the pass's own.
    pub fn submit_with_deadline(
        &self,
        inputs: &[&[f32]],
        outputs: &mut [&mut [f32]],
        budget: Duration,
    ) -> Result<()> {
        self.submit_inner(inputs, outputs, Some(budget))
    }

    fn submit_inner(
        &self,
        inputs: &[&[f32]],
        outputs: &mut [&mut [f32]],
        budget: Option<Duration>,
    ) -> Result<()> {
        self.check_arity(inputs, outputs)?;
        let (cell, slot, role) = self.stage(inputs, budget)?;
        match role {
            Role::Execute(f) => {
                // Wake a leader that may be parked on this (now closed) batch.
                self.leader_cv.notify_all();
                self.execute(f);
            }
            Role::Lead(deadline) => self.lead(&cell, deadline),
            Role::Wait => {}
        }
        self.collect(&cell, slot, outputs)
    }

    /// Reject a submit whose arrays do not match the session's declared
    /// per-sample shapes, before it touches the forming batch.
    fn check_arity(&self, inputs: &[&[f32]], outputs: &[&mut [f32]]) -> Result<()> {
        let lens = inputs.iter().map(|d| d.len());
        self.check_arrays("input", lens, &self.in_arrays)?;
        let lens = outputs.iter().map(|d| d.len());
        self.check_arrays("output", lens, &self.out_arrays)
    }

    fn check_arrays(
        &self,
        kind: &str,
        lens: impl ExactSizeIterator<Item = usize>,
        declared: &[(String, usize)],
    ) -> Result<()> {
        let msg = if lens.len() != declared.len() {
            format!(
                "submit got {} {kind} arrays, session declares {}",
                lens.len(),
                declared.len()
            )
        } else if let Some((len, (name, per))) =
            lens.zip(declared).find(|(len, (_, per))| len != per)
        {
            format!("{kind} `{name}` sample has {len} elements, expected {per}")
        } else {
            return Ok(());
        };
        Err(ServeError::Arity {
            region: self.session.region().name().to_string(),
            msg,
        }
        .into())
    }

    /// Stage one sample into the forming batch (creating it if none) and
    /// decide this submitter's role. All staging happens under the server
    /// lock, so a closed batch is always fully staged. Rejection paths —
    /// shutdown, the `max_pending` cap, an unmeetable deadline — are all
    /// decided here, before the sample touches a staging buffer.
    fn stage(
        &self,
        inputs: &[&[f32]],
        budget: Option<Duration>,
    ) -> Result<(Arc<Cell>, usize, Role)> {
        fault_point_infallible!("serve.stage");
        let region = self.session.region();
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(ServeError::ShutDown {
                region: region.name().to_string(),
            }
            .into());
        }
        if st.in_flight >= self.max_pending {
            let pending = st.in_flight;
            drop(st);
            region.update_stats(|s| s.serve_rejected_overload += 1);
            return Err(ServeError::Overloaded {
                region: region.name().to_string(),
                pending,
                max_pending: self.max_pending,
            }
            .into());
        }
        if let (Some(budget), Some(f)) = (budget, st.forming.as_ref()) {
            // Joining an existing batch: its flush instant is already set.
            // If that lies beyond this request's budget, admitting the
            // sample would strand it — reject up front instead.
            let flush_in = f.deadline.saturating_duration_since(Instant::now());
            if flush_in > budget {
                drop(st);
                region.update_stats(|s| s.serve_rejected_deadline += 1);
                return Err(ServeError::Deadline {
                    region: region.name().to_string(),
                    budget_ns: saturating_ns(budget),
                    flush_in_ns: saturating_ns(flush_in),
                }
                .into());
            }
        }
        if st.forming.is_none() {
            let staging = match st.spare.pop() {
                Some(staging) => staging,
                None => new_staging(&self.in_arrays, self.session.max_batch())?,
            };
            // Leader wait = configured bound scaled by recent occupancy,
            // further shortened to the leading request's own budget.
            let mut wait = self.max_wait.mul_f64(st.occupancy_ewma);
            if let Some(budget) = budget {
                wait = wait.min(budget);
            }
            st.forming = Some(Forming {
                cell: Arc::new(Cell::new()),
                staging,
                n: 0,
                deadline: Instant::now() + wait,
            });
        }
        let f = st.forming.as_mut().expect("forming batch present");
        let slot = f.n;
        for (buf, data) in f.staging.iter_mut().zip(inputs) {
            buf.extend_from_slice(data);
        }
        f.n += 1;
        st.in_flight += 1;
        let f = st.forming.as_mut().expect("forming batch present");
        let cell = Arc::clone(&f.cell);
        let role = if f.n == self.session.max_batch() {
            Role::Execute(st.forming.take().expect("forming batch present"))
        } else if slot == 0 {
            Role::Lead(f.deadline)
        } else {
            Role::Wait
        };
        Ok((cell, slot, role))
    }

    /// Leader protocol: wait (bounded) for the batch to fill; if the
    /// deadline passes while the batch is still ours, close and execute it.
    fn lead(&self, cell: &Arc<Cell>, deadline: Instant) {
        let mut st = self.state.lock();
        loop {
            let still_ours = st
                .forming
                .as_ref()
                .is_some_and(|f| Arc::ptr_eq(&f.cell, cell));
            if !still_ours {
                return; // someone filled it and is executing
            }
            let now = Instant::now();
            if now >= deadline {
                let f = st.forming.take().expect("batch checked above");
                drop(st);
                fault_point_infallible!("serve.lead.flush");
                self.execute(f);
                return;
            }
            self.leader_cv.wait_for(&mut st, deadline - now);
        }
    }

    /// Run one batched pass for everything staged in `f` — one ordinary
    /// compiled invocation, in which the session decides between the
    /// surrogate and the fallback handler and does any shadow validation —
    /// publish the per-array output buffers (or the error) to every member,
    /// and recycle the staging set. A panic anywhere inside the pass
    /// (kernels, model, fallback handler) is caught and published as an
    /// error — followers wait with no timeout, so the executor must
    /// *always* reach the publish step.
    fn execute(&self, f: Forming) {
        let n = f.n;
        let staging = &f.staging;
        let pass =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<Vec<Vec<f32>>> {
                // `predicated` regions take the model path unconditionally.
                let mut run = self.session.invoke_batch(n)?.use_surrogate(true);
                if self.fallback.is_none() {
                    run = run.without_host_path();
                }
                for ((name, per), staged) in self.in_arrays.iter().zip(staging) {
                    run = run.input(name, &staged[..n * per])?;
                }
                let mut bufs: Vec<Vec<f32>> = self
                    .out_arrays
                    .iter()
                    .map(|(_, per)| vec![0.0f32; n * per])
                    .collect();
                let mut out = run.run(|| {
                    if let Some(handler) = &self.fallback {
                        handler(n, staging, &mut bufs);
                    }
                })?;
                for ((name, _), buf) in self.out_arrays.iter().zip(&mut bufs) {
                    out.output(name, buf)?;
                }
                // A failed validation-row write is already counted
                // (`db_errors`); the outputs it follows were served.
                let _ = out.finish();
                Ok(bufs)
            }));
        let result = pass.unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "batched forward pass panicked".to_string());
            Err(CoreError::Region(format!("panic in batched pass: {msg}")))
        });

        // Publish before any other locking: once the pass has an outcome,
        // nothing may stand between it and the waiting members.
        fault_point_infallible!("serve.execute.publish");
        {
            let mut done = f.cell.done.lock();
            *done = Some(result.map(Arc::new).map_err(|e| BatchFailure {
                msg: e.to_string(),
                fill: n,
            }));
            f.cell.cv.notify_all();
        }

        let mut st = self.state.lock();
        st.in_flight = st.in_flight.saturating_sub(n);
        // Fold this flush's fill into the adaptive-wait EWMA. The first
        // observation seeds the EWMA outright: blending it with the cold
        // 1.0 prior would keep charging light-load submitters most of
        // `max_wait` for several more batches.
        let fill = (n as f64 / self.session.max_batch() as f64).clamp(0.0, 1.0);
        st.occupancy_ewma = if st.occupancy_seeded {
            ((1.0 - OCCUPANCY_ALPHA) * st.occupancy_ewma + OCCUPANCY_ALPHA * fill).clamp(0.0, 1.0)
        } else {
            st.occupancy_seeded = true;
            fill
        };
        let mut staging = f.staging;
        for b in &mut staging {
            b.clear();
        }
        st.spare.push(staging);
    }

    /// Wait for this sample's batch to complete and copy out its slice. The
    /// published buffers are behind an `Arc`, so the cell lock is released
    /// before copying — all members of a batch copy their slices in parallel.
    fn collect(&self, cell: &Arc<Cell>, slot: usize, outputs: &mut [&mut [f32]]) -> Result<()> {
        let outcome = {
            let mut done = cell.done.lock();
            while done.is_none() {
                cell.cv.wait(&mut done);
            }
            done.as_ref().expect("checked above").clone()
        };
        match outcome {
            Ok(bufs) => {
                for ((out, buf), (_, per)) in
                    outputs.iter_mut().zip(bufs.iter()).zip(&self.out_arrays)
                {
                    out.copy_from_slice(&buf[slot * per..(slot + 1) * per]);
                }
                Ok(())
            }
            Err(failure) => Err(ServeError::Batch {
                region: self.session.region().name().to_string(),
                member: slot,
                fill: failure.fill,
                msg: failure.msg,
            }
            .into()),
        }
    }
}
