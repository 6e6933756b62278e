//! Compiled invocations: the compile-once / invoke-many fast path, with a
//! first-class **runtime batch dimension**.
//!
//! A [`Session`] is a region *compiled* against concrete integer bindings and
//! **per-sample** array shapes, the same separation an ML runtime draws
//! between a model and its optimized executable plan. Building a session
//! resolves, once:
//!
//! * the gather plan for every `in(...)`/`inout(...)` array and the scatter
//!   plan for every `out(...)`/`inout(...)` array;
//! * the model handle (`Arc<SavedModel>`) — invoke-time inference never
//!   hashes a path into the engine cache again;
//! * the input-assembly layout: flatten/concat/reshape become precomputed
//!   row/column offsets, so building the model input is a straight strided
//!   copy into a staging buffer.
//!
//! The batch dimension is a **runtime parameter**: a session built with
//! `max_batch = B` serves [`Session::invoke_batch`]`(n)` for *any*
//! `1 <= n <= B` through the same compiled plans — `n` input sets gather
//! into `[n, D]` tensors, one forward pass runs, and `n` outputs scatter
//! back. No per-batch-size recompilation, and no separate "tail" session for
//! a sweep remainder.
//!
//! Per-invocation scratch (gathered tensors, the staging buffer, the NN
//! inference workspace) lives in a per-thread scratch slot that each run
//! borrows and returns. All buffers are sized **once for `max_batch`** on a
//! thread's first invocation, so a thread in steady state performs **no heap
//! allocation** between `invoke_batch(n)` and `finish()` on the surrogate
//! path, for any `n` up to `max_batch`. A `Session` is `Sync`: many threads
//! may invoke the same compiled session concurrently, each on its own
//! scratch — or hand their samples to a [`crate::serve::BatchServer`], which
//! coalesces concurrent submissions into shared forward passes.
//!
//! ```no_run
//! # fn main() -> hpacml_core::Result<()> {
//! # let region = hpacml_core::Region::from_source("r", "")?;
//! # let binds = hpacml_directive::sema::Bindings::new();
//! # let feat = 5usize;
//! # let samples = vec![0.0f32; 1000 * feat];
//! # let mut results = vec![0.0f32; 1000];
//! // Compile once, for per-sample shapes and a maximum runtime batch.
//! let session = region.session(&binds, &[("x", &[feat]), ("y", &[1])], 64)?;
//! // One forward pass for up to 64 invocations; the tail reuses the same
//! // compiled plans.
//! for (xs, ys) in samples.chunks(64 * feat).zip(results.chunks_mut(64)) {
//!     let n = ys.len();
//!     let mut out = session
//!         .invoke_batch(n)?
//!         .input("x", xs)?
//!         .run(|| { /* accurate path for all n samples */ })?;
//!     out.output("y", ys)?;
//!     out.finish()?;
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Implicit gather
//!
//! A surrogate whose model starts with a narrow chain (`hpacml_tensor`'s
//! `NarrowChain`: two or more `Linear` layers of at most 8 outputs) can read
//! its inputs where the application keeps them. When the invocation is
//! certain to serve the surrogate by the time [`SessionRun::input`] sees its
//! array — the decision is already `true` (`ml(infer)`, or an override or
//! literal predicate of `true`), with no forced fallback, no validation
//! policy and no database; one input array, whose plan's features are
//! contiguous along the innermost walk axis (a stencil's slices are); a
//! model already resolved, with no input normalizer, whose input is the
//! plan's rows and whose first step at the serving rung is a chain — `input`
//! runs the forward there and then, the chain's first layer loading each
//! 16-row block's features straight from the array through the plan
//! ([`CompiledMap::columns`]). No `[m, k]` tensor is gathered and no bit of
//! the output changes. `run` serves that result (it passes the
//! `core.surrogate` seam as a gathered pass does); if the decision has
//! flipped by then (`use_surrogate(false)`, a forced fallback) it discards
//! it and the host code serves. Anything else, and any failure of the
//! in-place forward, gathers as before. Such an invocation records
//! `to_tensor_ns = 0`: its read of the application array is part of
//! `inference_ns`, the paper's Fig. 6 To-Tensor phase folded into
//! Inference. Every other [`crate::RegionStats`] counter advances as for a
//! gathered run.

use crate::region::Region;
use crate::timing::timed;
use crate::validate::{RegionValidation, SampleError};
use crate::{CoreError, Result};
use hpacml_bridge::CompiledMap;
use hpacml_directive::ast::{Direction, MlMode};
use hpacml_directive::sema::Bindings;
use hpacml_faults::{fault_point, fault_point_infallible};
use hpacml_nn::{InferWorkspace, SavedModel};
use hpacml_tensor::Tensor;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which execution path an invocation took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathTaken {
    /// The surrogate model produced the outputs.
    Surrogate,
    /// The original code ran (with data collection if enabled).
    Accurate,
}

// ---------------------------------------------------------------------------
// Per-thread scratch
// ---------------------------------------------------------------------------

/// Reusable per-invocation buffers. Taken from a thread-local slot at
/// `invoke()` and returned when the invocation's [`ScratchGuard`] drops, so
/// nested invocations (a region invoked from inside another region's
/// accurate closure) each get their own scratch instead of fighting over a
/// `RefCell`.
#[derive(Default)]
struct Scratch {
    /// One gathered tensor per declared input (assembly order).
    gathered: Vec<Tensor>,
    /// Staged model-input batch (assembled from `gathered`).
    staged: Tensor,
    /// NN inference workspace (normalization staging + activation arenas).
    ws: InferWorkspace,
    /// Model output of the current run (swapped out of the arena).
    out: Tensor,
    /// Reusable dims scratch for batched reshapes (no per-run allocation).
    dims_buf: Vec<usize>,
    /// `(session-core id, max_batch)` the gather/staging buffers were last
    /// sized for. See [`Scratch::warm_buffers`].
    buf_warm: (u64, usize),
    /// `(session-core id, max_batch)` the inference workspace was last
    /// reserved for (set on the first surrogate run, when the model exists).
    ws_warm: (u64, usize),
}

impl Scratch {
    /// Size every gather/staging buffer for `max_batch` samples of `core`'s
    /// per-sample plans, once per (thread, core, max_batch). After this,
    /// gathers and assembly at any `n <= max_batch` reuse capacity — the
    /// zero-allocation steady state holds from the first invocation
    /// regardless of the order batch sizes arrive in. `max_batch` comes
    /// from configuration, so every size is checked arithmetic and every
    /// reservation fallible: a batch that cannot be held is a typed error,
    /// not an abort.
    fn warm_buffers(&mut self, core: &Arc<SessionCore>, max_batch: usize) -> Result<()> {
        let count = core.input_count();
        if self.gathered.len() < count {
            self.gathered.resize_with(count, Tensor::default);
        }
        // Keyed on the core's process-unique id, never its address: a new
        // core allocated where a dropped one was must not skip the
        // reservation, which is also the build's size gate.
        let token = (core.id, max_batch);
        if self.buf_warm == token {
            return Ok(());
        }
        let mut total = 0usize;
        for i in 0..count {
            let pn = core.input_plan(i).numel();
            total = total.saturating_add(pn);
            self.gathered[i].try_reserve(batch_elems(max_batch, pn)?)?;
        }
        // The staging buffer ping-pongs with `gathered[0]` on single-input
        // regions and holds the interleaved batch on multi-input ones; size
        // it for the full batch either way.
        self.staged.try_reserve(batch_elems(max_batch, total)?)?;
        self.buf_warm = token;
        Ok(())
    }
}

/// `max_batch × per` elements, or a typed error when the product does not
/// fit a `usize`.
fn batch_elems(max_batch: usize, per: usize) -> Result<usize> {
    max_batch.checked_mul(per).ok_or_else(|| {
        CoreError::Region(format!(
            "max_batch {max_batch} × {per} elements per sample overflows a usize"
        ))
    })
}

thread_local! {
    static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

/// Owns this thread's warmed [`Scratch`] for the duration of one invocation
/// and returns it to the thread-local slot when dropped — on `finish()`,
/// early return, *or* an error path — so the zero-allocation steady state
/// survives recoverable failures.
struct ScratchGuard(Option<Scratch>);

impl ScratchGuard {
    fn take() -> Self {
        ScratchGuard(Some(
            SCRATCH
                .with(|slot| slot.borrow_mut().take())
                .unwrap_or_default(),
        ))
    }
}

impl std::ops::Deref for ScratchGuard {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.0.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for ScratchGuard {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.0.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        if let Some(scratch) = self.0.take() {
            SCRATCH.with(|slot| {
                let mut slot = slot.borrow_mut();
                if slot.is_none() {
                    *slot = Some(scratch);
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Session core: the shareable compiled state
// ---------------------------------------------------------------------------

/// Precomputed input-assembly layout: how the gathered input tensors tile the
/// model's `[batch, sample...]` input, derived once from the plans' LHS
/// shapes and the model spec. All quantities are **per sample**; a runtime
/// batch of `n` scales the leading dimension by `n`.
struct Assembly {
    /// Common per-sample sweep-row count across inputs.
    rows: usize,
    /// Feature columns contributed by each input (its LHS trailing dim).
    cols: Vec<usize>,
    /// Column offset of each input inside one assembled row.
    col_offsets: Vec<usize>,
    /// Total features per row (`cols` summed).
    feat_total: usize,
    /// Per-sample model-input dims: `[batch, sample_shape...]`.
    in_dims: Vec<usize>,
}

/// Model handle plus assembly layout, resolved lazily on the first surrogate
/// run (so collect-phase sessions whose model file does not exist yet build
/// fine).
struct SurrogateState {
    model: Arc<SavedModel>,
    assembly: Assembly,
}

/// The compiled part of a session that its clones share: input gather plans
/// in assembly order plus the lazily resolved surrogate state (a
/// [`crate::serve::BatchServer`]'s clone and the caller's session resolve
/// the model once between them).
struct SessionCore {
    /// Process-unique, never reused (see [`NEXT_CORE_ID`]): what the
    /// per-thread warm tokens key on.
    id: u64,
    /// (array name, gather plan) in assembly order.
    inputs: Vec<(String, Arc<CompiledMap>)>,
    surrogate: Mutex<Option<Arc<SurrogateState>>>,
}

/// The next [`SessionCore::id`]. Starts at 1, so a fresh [`Scratch`]'s
/// `(0, 0)` tokens match no core.
static NEXT_CORE_ID: AtomicU64 = AtomicU64::new(1);

impl SessionCore {
    fn build(
        region: &Region,
        binds: &Bindings,
        inputs: &[(String, Vec<usize>)],
    ) -> Result<SessionCore> {
        // The per-run supplied-input bookkeeping is a u64 bitmask; enforce
        // the arity bound here so that invariant holds everywhere downstream.
        if inputs.len() > 64 {
            return Err(CoreError::Region(format!(
                "region `{}`: {} input arrays exceed the supported maximum of 64",
                region.name(),
                inputs.len()
            )));
        }
        let mut plans = Vec::with_capacity(inputs.len());
        for (name, dims) in inputs {
            let plan = region.plan_for(name, Direction::To, dims, binds)?;
            plans.push((name.clone(), plan));
        }
        Ok(SessionCore {
            id: NEXT_CORE_ID.fetch_add(1, Ordering::Relaxed),
            inputs: plans,
            surrogate: Mutex::new(None),
        })
    }

    fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|(n, _)| n == name)
    }

    fn input_plan(&self, index: usize) -> &Arc<CompiledMap> {
        &self.inputs[index].1
    }

    fn input_count(&self) -> usize {
        self.inputs.len()
    }

    fn input_names(&self) -> impl Iterator<Item = &str> {
        self.inputs.iter().map(|(n, _)| n.as_str())
    }

    /// The model handle + assembly layout if a surrogate run has resolved
    /// them already (counts nothing, loads nothing).
    fn resolved(&self) -> Option<Arc<SurrogateState>> {
        self.surrogate.lock().clone()
    }

    /// Resolve (or reuse) the model handle + assembly layout.
    fn surrogate_state(&self, region: &Region) -> Result<Arc<SurrogateState>> {
        if let Some(state) = self.surrogate.lock().as_ref() {
            region.update_stats(|s| s.model_cache_hits += 1);
            return Ok(Arc::clone(state));
        }
        let model = region.resolve_model()?;
        let assembly = self.assembly_for(region, &model)?;
        let state = Arc::new(SurrogateState { model, assembly });
        let mut guard = self.surrogate.lock();
        Ok(Arc::clone(guard.get_or_insert(state)))
    }

    /// Reserve this thread's inference workspace — activation arenas,
    /// normalization staging, the model-output swap buffer and the
    /// per-layer GEMM scratch (weight packing, im2col columns; the scratch
    /// reserve is broadcast across every pool participant, so workers
    /// drafted into a parallel forward are warm too) — for the
    /// largest batch this session can see, once per
    /// `(thread, core, max_batch)`, on the thread's first surrogate run.
    /// Skipped for single-sample sessions (`max_batch == 1`): the forward
    /// pass sizes the arenas naturally there.
    fn warm_thread_workspace(
        &self,
        state: &SurrogateState,
        scratch: &mut Scratch,
        max_batch: usize,
    ) -> Result<()> {
        let token = (self.id, max_batch);
        if max_batch <= 1 || scratch.ws_warm == token {
            return Ok(());
        }
        let asm = &state.assembly;
        scratch.dims_buf.clear();
        scratch
            .dims_buf
            .push(batch_elems(max_batch, asm.in_dims[0])?);
        scratch.dims_buf.extend_from_slice(&asm.in_dims[1..]);
        let widest = state
            .model
            .reserve_workspace(&mut scratch.ws, &scratch.dims_buf)?;
        // `out` swaps with the final activation arena every run; size it
        // to match so the swapped-in buffer never has to regrow.
        scratch.out.try_reserve(widest)?;
        scratch.ws_warm = token;
        Ok(())
    }

    /// Derive the assembly layout from the input plans' LHS shapes and the
    /// model's declared per-sample input shape. Mirrors the semantics of the
    /// historical flatten→concat→reshape chain, as straight offsets.
    fn assembly_for(&self, region: &Region, model: &SavedModel) -> Result<Assembly> {
        if self.inputs.is_empty() {
            return Err(CoreError::Region(format!(
                "region `{}`: surrogate path needs gathered inputs",
                region.name()
            )));
        }
        let mut rows = 0usize;
        let mut cols = Vec::with_capacity(self.inputs.len());
        let mut col_offsets = Vec::with_capacity(self.inputs.len());
        let mut feat_total = 0usize;
        for (i, (name, plan)) in self.inputs.iter().enumerate() {
            let numel = plan.numel();
            let c = plan.lhs_shape.last().copied().unwrap_or(1).max(1);
            let r = numel / c;
            if i == 0 {
                rows = r;
            } else if r != rows && self.inputs.len() > 1 {
                return Err(CoreError::Region(format!(
                    "region `{}`: inputs disagree on sweep size ({r} vs {rows}) at `{name}`",
                    region.name()
                )));
            }
            col_offsets.push(feat_total);
            cols.push(c);
            feat_total += c;
        }
        let total = rows * feat_total;
        let sample_shape = &model.spec.input_shape;
        let per_sample: usize = sample_shape.iter().product::<usize>().max(1);
        if !total.is_multiple_of(per_sample) {
            return Err(CoreError::Region(format!(
                "region `{}`: gathered {total} elements do not tile the model input shape {sample_shape:?}",
                region.name()
            )));
        }
        let batch = total / per_sample;
        let mut in_dims = Vec::with_capacity(1 + sample_shape.len());
        in_dims.push(batch);
        in_dims.extend_from_slice(sample_shape);
        Ok(Assembly {
            rows,
            cols,
            col_offsets,
            feat_total,
            in_dims,
        })
    }

    /// Execute the surrogate for a runtime batch of `n` samples: assemble the
    /// staged `[n * rows, features]` batch from the gathered inputs, run one
    /// forward pass into the scratch workspace, and leave the model output in
    /// `scratch.out`. Returns the inference time in nanoseconds.
    /// Steady-state allocation-free for any `n <= max_batch` — the workspace
    /// is reserved for `max_batch` on this thread's first surrogate run.
    ///
    /// `preserve_inputs` keeps the gathered input tensors intact (a copy
    /// instead of the single-input swap) — required when the caller still
    /// needs them after the pass, e.g. a validation probe on the accurate
    /// path whose data-collection step reads the gathered inputs.
    fn run_surrogate(
        &self,
        region: &Region,
        scratch: &mut Scratch,
        n: usize,
        max_batch: usize,
        preserve_inputs: bool,
    ) -> Result<u64> {
        fault_point!("core.surrogate");
        let state = self.surrogate_state(region)?;
        self.warm_thread_workspace(&state, scratch, max_batch)?;
        let asm = &state.assembly;

        if self.inputs.len() == 1 {
            if preserve_inputs {
                let Scratch {
                    staged, gathered, ..
                } = scratch;
                staged.resize(gathered[0].dims());
                staged.data_mut().copy_from_slice(gathered[0].data());
            } else {
                // Single input: the gathered batch *is* the staged batch.
                std::mem::swap(&mut scratch.staged, &mut scratch.gathered[0]);
            }
        } else {
            let rows = n * asm.rows;
            scratch.staged.resize(&[rows, asm.feat_total]);
            let sd = scratch.staged.data_mut();
            for (i, t) in scratch.gathered[..self.inputs.len()].iter().enumerate() {
                let (c, off) = (asm.cols[i], asm.col_offsets[i]);
                for (r, row) in t.data().chunks_exact(c).enumerate() {
                    sd[r * asm.feat_total + off..r * asm.feat_total + off + c].copy_from_slice(row);
                }
            }
        }
        scratch.dims_buf.clear();
        scratch.dims_buf.push(n * asm.in_dims[0]);
        scratch.dims_buf.extend_from_slice(&asm.in_dims[1..]);
        let Scratch {
            ws,
            staged,
            out,
            dims_buf,
            ..
        } = scratch;
        staged.reshape_in_place(dims_buf)?;
        // Serve at the region's current precision rung: the quantization
        // target, as demoted/promoted by the validation controller. Layers
        // without a pack for the rung fall through to the next finer one.
        let prec = region.serve_precision();
        let (y, inference_ns) = timed(|| state.model.infer_with_at(ws, staged, prec));
        std::mem::swap(out, y?);
        Ok(inference_ns)
    }
}

// ---------------------------------------------------------------------------
// The public Session API
// ---------------------------------------------------------------------------

/// How a session holds its region: borrowed from the caller's frame
/// ([`Region::session`]) or shared ([`Region::session_shared`], which makes
/// the session `'static`). The only place that knows there are two ways.
#[derive(Clone)]
pub(crate) enum RegionRef<'r> {
    Borrowed(&'r Region),
    Shared(Arc<Region>),
}

impl std::ops::Deref for RegionRef<'_> {
    type Target = Region;
    fn deref(&self) -> &Region {
        match self {
            RegionRef::Borrowed(region) => region,
            RegionRef::Shared(region) => region,
        }
    }
}

/// A region compiled against concrete bindings and **per-sample** array
/// shapes — build once with [`Region::session`], invoke many times, batching
/// up to `max_batch` invocations into one forward pass with
/// [`Session::invoke_batch`]. See the [module docs] for the idiom. Cloning
/// is cheap (shared compiled core, a few small vectors).
///
/// [module docs]: self
#[derive(Clone)]
pub struct Session<'r> {
    region: RegionRef<'r>,
    core: Arc<SessionCore>,
    max_batch: usize,
    /// (array name, scatter plan, per-sample model-output element offset) in
    /// `out()` declaration order.
    outputs: Vec<(String, Arc<CompiledMap>, usize)>,
}

impl<'r> Session<'r> {
    pub(crate) fn build(
        region: RegionRef<'r>,
        binds: &Bindings,
        shapes: &[(&str, &[usize])],
        max_batch: usize,
    ) -> Result<Session<'r>> {
        if max_batch == 0 {
            return Err(CoreError::Region(format!(
                "region `{}`: session max_batch must be at least 1",
                region.name()
            )));
        }
        let dims_of = |name: &str| -> Result<Vec<usize>> {
            shapes
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, d)| d.to_vec())
                .ok_or_else(|| {
                    CoreError::Region(format!(
                        "region `{}`: session is missing a shape for array `{name}`",
                        region.name()
                    ))
                })
        };
        let mut inputs = Vec::new();
        for name in region.input_order() {
            inputs.push((name.clone(), dims_of(name)?));
        }
        let core = Arc::new(SessionCore::build(&region, binds, &inputs)?);
        // Reserve this thread's buffers for `max_batch` now, so a batch
        // width no buffer can hold fails the build with a typed error.
        ScratchGuard::take().warm_buffers(&core, max_batch)?;
        let mut outputs = Vec::new();
        let mut offset = 0usize;
        for name in region.output_order() {
            let dims = dims_of(name)?;
            let plan = region.plan_for(name, Direction::From, &dims, binds)?;
            let numel = plan.numel();
            outputs.push((name.clone(), plan, offset));
            offset += numel;
        }
        Ok(Session {
            region,
            core,
            max_batch,
            outputs,
        })
    }

    /// The region this session was compiled from.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The largest runtime batch one invocation may carry.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Declared input arrays with their **per-sample** element counts, in
    /// assembly (declaration) order. A batched invocation's `input` data for
    /// array `i` holds `n *` this many elements, samples back to back.
    pub(crate) fn input_arrays(&self) -> impl Iterator<Item = (&str, usize)> {
        self.core
            .inputs
            .iter()
            .map(|(n, p)| (n.as_str(), p.array_numel()))
    }

    /// Declared output arrays with their **per-sample** element counts, in
    /// `out()` declaration order.
    pub(crate) fn output_arrays(&self) -> impl Iterator<Item = (&str, usize)> {
        self.outputs
            .iter()
            .map(|(n, p, _)| (n.as_str(), p.array_numel()))
    }

    /// Begin one invocation (a batch of 1). Cheap: borrows this thread's
    /// scratch buffers.
    pub fn invoke(&self) -> SessionRun<'_, 'r> {
        self.begin(1)
    }

    /// Begin one invocation carrying a runtime batch of `n` samples,
    /// `1 <= n <= max_batch`: every `input` supplies `n` per-sample arrays
    /// back to back, one forward pass serves all of them, and every `output`
    /// receives `n` per-sample results. Bit-identical to `n` sequential
    /// [`Session::invoke`] calls.
    pub fn invoke_batch(&self, n: usize) -> Result<SessionRun<'_, 'r>> {
        if n == 0 || n > self.max_batch {
            return Err(CoreError::Region(format!(
                "region `{}`: invoke_batch({n}) is outside 1..={} (the session's max_batch)",
                self.region.name(),
                self.max_batch
            )));
        }
        Ok(self.begin(n))
    }

    fn begin(&self, n: usize) -> SessionRun<'_, 'r> {
        let mut scratch = ScratchGuard::take();
        // `Session::build` reserved these sizes once; a thread that cannot
        // reserve them again runs unwarmed, its buffers growing to the
        // batches it actually sees.
        let _ = scratch.warm_buffers(&self.core, self.max_batch);
        SessionRun {
            session: self,
            scratch,
            n,
            surrogate_override: None,
            host_path: true,
            supplied: 0,
            to_ns: 0,
            in_place: None,
        }
    }
}

/// In-flight shadow-validation bookkeeping for one drawn invocation: which
/// batch samples are compared, their per-sample error accumulators, and the
/// time attributable to validation (shadow host execution, reference
/// gathers, comparisons, probe passes).
struct ShadowState {
    v: Arc<RegionValidation>,
    /// This invocation's sequence number (the `invocation` column of the
    /// recorded validation rows).
    seq: u64,
    /// In-batch sample offsets being compared.
    offsets: Vec<usize>,
    /// One error accumulator per compared offset.
    accs: Vec<SampleError>,
    shadow_ns: u64,
}

impl ShadowState {
    /// Claim this invocation's sequence number; `Some` when it is drawn for
    /// shadow validation.
    fn draw(v: Arc<RegionValidation>, n: usize) -> Option<ShadowState> {
        let mut offsets = Vec::new();
        let seq = v.draw(n, &mut offsets);
        if offsets.is_empty() {
            return None;
        }
        Some(ShadowState {
            accs: vec![SampleError::new(v.policy().metric); offsets.len()],
            v,
            seq,
            offsets,
            shadow_ns: 0,
        })
    }

    /// Fold one output array's comparison into the per-sample accumulators.
    /// `reference` holds the gathered host results (`n * need` elements);
    /// the surrogate's values for sample `s` live at
    /// `model_out[s * stride + offset ..][..need]`.
    fn compare(
        &mut self,
        reference: &[f32],
        model_out: &[f32],
        stride: usize,
        offset: usize,
        need: usize,
    ) {
        for (acc, &s) in self.accs.iter_mut().zip(&self.offsets) {
            let host = &reference[s * need..(s + 1) * need];
            let model = &model_out[s * stride + offset..s * stride + offset + need];
            acc.update(host, model);
        }
    }
}

/// The input-gathering phase of one compiled invocation (batch of `n`).
// lint: allow(crate-local-pub) — returned by `Session::invoke`/`invoke_batch`, which callers chain without naming the type
pub struct SessionRun<'s, 'r> {
    session: &'s Session<'r>,
    scratch: ScratchGuard,
    /// Runtime batch carried by this invocation.
    n: usize,
    surrogate_override: Option<bool>,
    /// Whether the accurate closure is real host code. `false` for a
    /// [`crate::serve::BatchServer`] with no fallback handler: see
    /// [`SessionRun::without_host_path`].
    host_path: bool,
    /// Bitmask of supplied inputs; `SessionCore::build` rejects regions with
    /// more than 64 input arrays, so every index fits.
    supplied: u64,
    to_ns: u64,
    /// The inference time of a forward that read the input in place (see
    /// [`SessionRun::forward_in_place`]); its output is in `scratch.out`
    /// and nothing was gathered.
    in_place: Option<u64>,
}

impl<'s, 'r> SessionRun<'s, 'r> {
    /// Host-side value for the `predicated`/`if` decision: `true` runs the
    /// surrogate, `false` runs the accurate path (collecting data). This is
    /// how the Fig. 9 interleaving experiments toggle per timestep.
    pub fn use_surrogate(mut self, value: bool) -> Self {
        self.surrogate_override = Some(value);
        self
    }

    /// This invocation has no host path: its accurate closure is a no-op.
    /// It is never drawn for shadow validation (there is no reference), a
    /// closed fallback gate is an error instead of a no-op "host" result,
    /// and a permanent surrogate failure is noted, then surfaced.
    pub(crate) fn without_host_path(mut self) -> Self {
        self.host_path = false;
        self
    }

    /// Gather one input array through its precompiled plan (steps 1–2 of
    /// Fig. 1). For a batch of `n`, `data` holds the `n` per-sample arrays
    /// back to back (`n * per_sample_len` elements) and is gathered in one
    /// strided pass over the leading dimension. Steady-state allocation-free.
    pub fn input(mut self, name: &str, data: &[f32]) -> Result<Self> {
        let session = self.session;
        let core = &session.core;
        let index = core.input_index(name).ok_or_else(|| {
            CoreError::Region(format!(
                "region `{}`: `{name}` is not declared in(...)/inout(...)",
                self.session.region.name()
            ))
        })?;
        // index < 64 is guaranteed: SessionCore::build rejects wider arity.
        if self.supplied & (1 << index) != 0 {
            return Err(CoreError::Region(format!(
                "region `{}`: input `{name}` supplied twice",
                self.session.region.name()
            )));
        }
        let plan = core.input_plan(index);
        if let Some(ns) = self.forward_in_place(plan, data) {
            self.in_place = Some(ns);
        } else {
            let n = self.n;
            let (res, ns) =
                timed(|| plan.gather_batch_into(data, n, &mut self.scratch.gathered[index]));
            res?;
            self.to_ns += ns;
        }
        self.supplied |= 1 << index;
        Ok(self)
    }

    /// The implicit gather: when this invocation is certain to serve the
    /// surrogate, run its forward now, straight from the application array
    /// `data`, and return the inference time (the output is left in
    /// `scratch.out`; `run` serves it). Certain means, as far as anything
    /// observable at this point says:
    ///
    /// * the surrogate decision is already `true` (`ml(infer)`, or an
    ///   override or literal predicate of `true`), with no forced fallback,
    ///   no validation policy (which could turn it off or draw a shadow
    ///   run) and no database (an invocation that turns accurate collects
    ///   its gathered inputs);
    /// * the region has one input array, and a surrogate run has resolved
    ///   its model (this never loads one), whose input is the plan's rows;
    /// * the plan's features are contiguous along its innermost walk axis
    ///   ([`CompiledMap::columns`]), and the model, with no input
    ///   normalizer, starts with a narrow chain at the serving rung
    ///   ([`SavedModel::infer_columns_at`]).
    ///
    /// Anything else — and any error, which the gather path then meets
    /// again as today — returns `None`, and the input is gathered.
    fn forward_in_place(&mut self, plan: &CompiledMap, data: &[f32]) -> Option<u64> {
        let session = self.session;
        let region = session.region();
        let core = &session.core;
        let certain = core.input_count() == 1
            && matches!(self.decide_surrogate(), Ok(true))
            && !region.fallback_forced();
        if !certain {
            return None;
        }
        let columns = plan.columns(data, self.n).ok()??;
        if region.validation().is_some() || region.has_db() {
            return None;
        }
        let state = core.resolved()?;
        let asm = &state.assembly;
        if asm.in_dims != [asm.rows, asm.feat_total] {
            return None;
        }
        core.warm_thread_workspace(&state, &mut self.scratch, session.max_batch)
            .ok()?;
        let prec = region.serve_precision();
        let Scratch { ws, out, .. } = &mut *self.scratch;
        let (y, ns) = timed(|| state.model.infer_columns_at(ws, &columns, prec));
        std::mem::swap(out, y.ok()??);
        // The hit a gathered run counts when it reuses the resolved model.
        region.update_stats(|s| s.model_cache_hits += 1);
        Some(ns)
    }

    /// This invocation's surrogate pass: the forward that already read the
    /// input in place, or one through the gathered inputs. Either passes
    /// the `core.surrogate` seam once.
    fn surrogate_pass(&mut self) -> Result<u64> {
        match self.in_place {
            Some(ns) => {
                fault_point!("core.surrogate");
                Ok(ns)
            }
            None => core_run(self.session, &mut self.scratch, self.n, false),
        }
    }

    fn decide_surrogate(&self) -> Result<bool> {
        let region = self.session.region();
        Ok(match region.ml_mode() {
            MlMode::Infer => self.surrogate_override.unwrap_or(true),
            MlMode::Collect => false,
            MlMode::Predicated => match self
                .surrogate_override
                .or_else(|| region.default_predicate())
            {
                Some(v) => v,
                None => {
                    return Err(CoreError::Region(format!(
                        "region `{}`: predicated mode needs use_surrogate(...) \
                         (the directive condition `{}` is not a literal)",
                        region.name(),
                        region.ml().cond.as_deref().unwrap_or("")
                    )))
                }
            },
        })
    }

    /// `true` when every declared input has been supplied.
    fn inputs_complete(&self) -> bool {
        let count = self.session.core.input_count(); // <= 64 by SessionCore::build
        let all = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        count == 0 || self.supplied == all
    }

    fn missing_inputs_error(&self) -> CoreError {
        let missing: Vec<&str> = self
            .session
            .core
            .input_names()
            .enumerate()
            .filter(|(i, _)| self.supplied & (1 << i) == 0)
            .map(|(_, n)| n)
            .collect();
        CoreError::Region(format!(
            "region `{}`: surrogate run is missing input(s) {missing:?}",
            self.session.region.name()
        ))
    }

    /// Run the region (steps 3–4 of Fig. 1): one surrogate forward pass for
    /// the whole batch through the compiled pipeline, or the accurate closure
    /// (which is responsible for all `n` samples).
    ///
    /// With a [`crate::ValidationPolicy`] attached to the region, this is
    /// also where online validation happens: a drawn invocation
    /// shadow-executes `accurate` *in addition to* the surrogate pass (the
    /// comparison runs in [`SessionOutcome::output`], before the surrogate
    /// results overwrite the host buffers), and while the controller has the
    /// surrogate disabled — or [`Region::force_fallback`] is engaged — the
    /// accurate closure serves the invocation, bit-identical to an
    /// un-annotated application. Drawn invocations during adaptive fallback
    /// additionally *probe* the surrogate in shadow so the controller can
    /// observe recovery.
    ///
    /// Monitoring never destroys a served result: if the shadow reference
    /// or the recovery probe panics or fails, the draw is abandoned, nothing
    /// is observed, and the invocation is served as if it had not been
    /// drawn.
    pub fn run(mut self, accurate: impl FnOnce()) -> Result<SessionOutcome<'s, 'r>> {
        let region = self.session.region();
        let want = self.decide_surrogate()?;
        let mut surrogate = want;
        let mut fallback = false;
        let mut shadow: Option<ShadowState> = None;
        if want {
            if region.fallback_forced() {
                // Operator override: host code, model untouched, no probes.
                surrogate = false;
                fallback = true;
            } else if let Some(v) = region.validation() {
                if !v.enabled() {
                    surrogate = false;
                    fallback = true;
                }
                if self.host_path {
                    shadow = ShadowState::draw(v, self.n);
                }
            }
            if fallback && !self.host_path {
                return Err(CoreError::Region(format!(
                    "region `{}`: surrogate disabled by validation fallback and there is \
                     no fallback handler (install one with BatchServer::with_fallback)",
                    region.name()
                )));
            }
        }
        let mut accurate = Some(accurate);
        let mut inference_ns = 0u64;
        let mut accurate_ns = 0u64;
        if surrogate {
            if !self.inputs_complete() {
                return Err(self.missing_inputs_error());
            }
            // Shadow validation: run the original host code first, so the
            // caller's output buffers hold the reference values when
            // `output` compares them (the surrogate scatter then overwrites
            // them — the surrogate remains the primary path).
            if let Some(sh) = &mut shadow {
                let acc = accurate.take().expect("accurate unconsumed");
                let (ran, ns) = timed(|| {
                    contained(|| {
                        fault_point_infallible!("core.shadow");
                        acc()
                    })
                });
                sh.shadow_ns += ns;
                if ran.is_none() {
                    shadow = None;
                }
            }
            match self.surrogate_pass() {
                Ok(ns) => inference_ns = ns,
                Err(e) => {
                    // Permanent surrogate failure (model load / forward
                    // errored after retries): with a validation policy
                    // attached, degrade this invocation to the host closure
                    // and trip the controller so later ones skip the broken
                    // surrogate up front. Host buffers are untouched by a
                    // failed pass (scatter happens in `output`), so the
                    // accurate path stays bit-identical. Without a
                    // controller, or without a host path, the error
                    // surfaces unchanged.
                    if !region.note_surrogate_failure(&e) || !self.host_path {
                        return Err(e);
                    }
                    surrogate = false;
                    fallback = true;
                    if let Some(sh) = shadow.take() {
                        // The shadow already ran the host code; there is
                        // nothing to validate against a pass that produced
                        // no outputs.
                        accurate_ns = sh.shadow_ns;
                    } else if accurate.is_none() {
                        // The shadow reference panicked: no host result
                        // to degrade to.
                        return Err(e);
                    }
                }
            }
        }
        if !surrogate {
            if let Some(acc) = accurate.take() {
                let ((), ns) = timed(acc);
                accurate_ns = ns;
            }
            // Recovery probe: while adaptively fallen back, a drawn
            // invocation also runs the surrogate in shadow; `output`
            // compares without scattering. Needs the full input set — a
            // caller that skipped inputs on the accurate path simply isn't
            // probed.
            if let Some(sh) = &mut shadow {
                // An input read in place was never gathered: nothing to
                // probe with.
                let probed = self.inputs_complete() && self.in_place.is_none() && {
                    let (res, pns) = timed(|| {
                        contained(|| core_run(self.session, &mut self.scratch, self.n, true))
                    });
                    sh.shadow_ns += pns;
                    if let Some(Err(e)) = &res {
                        // Still broken: counted, and the controller's
                        // cooldown restarts.
                        region.note_surrogate_failure(e);
                    }
                    matches!(res, Some(Ok(_)))
                };
                if !probed {
                    shadow = None;
                }
            }
        }
        Ok(SessionOutcome {
            session: self.session,
            scratch: self.scratch,
            n: self.n,
            supplied: self.supplied,
            gathered: self.in_place.is_none(),
            path: if surrogate {
                PathTaken::Surrogate
            } else {
                PathTaken::Accurate
            },
            fallback,
            shadow,
            gathered_outputs: Vec::new(),
            to_ns: self.to_ns,
            inference_ns,
            accurate_ns,
            from_ns: 0,
            collection_ns: 0,
        })
    }
}

/// Run `f`, turning a panic into `None` (the panic hook still reports it).
/// Monitoring work — the shadow reference, the recovery probe — runs under
/// this so its failure cannot take a served result down with it.
fn contained<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// One compiled surrogate pass through the session's core (helper shared by
/// the primary path and the fallback recovery probe).
fn core_run(
    session: &Session<'_>,
    scratch: &mut Scratch,
    n: usize,
    preserve_inputs: bool,
) -> Result<u64> {
    session.core.run_surrogate(
        session.region(),
        scratch,
        n,
        session.max_batch,
        preserve_inputs,
    )
}

/// The output phase of a compiled invocation.
// lint: allow(crate-local-pub) — returned by `SessionRun::run`, which callers chain without naming the type
pub struct SessionOutcome<'s, 'r> {
    session: &'s Session<'r>,
    scratch: ScratchGuard,
    n: usize,
    supplied: u64,
    /// The inputs were gathered into `scratch.gathered` (not read in
    /// place), so an accurate invocation can record them.
    gathered: bool,
    path: PathTaken,
    /// This invocation wanted the surrogate but was served by the host code
    /// (adaptive or forced fallback).
    fallback: bool,
    /// Shadow-validation bookkeeping for a drawn invocation.
    shadow: Option<ShadowState>,
    /// Accurate-path outputs gathered for data collection: (index into the
    /// session's output declarations, batched gathered tensor).
    gathered_outputs: Vec<(usize, Tensor)>,
    to_ns: u64,
    inference_ns: u64,
    accurate_ns: u64,
    from_ns: u64,
    collection_ns: u64,
}

impl SessionOutcome<'_, '_> {
    pub fn path(&self) -> PathTaken {
        self.path
    }

    /// Handle one output array (steps 5–6 of Fig. 1): scatter each sample's
    /// chunk of the model output through the precompiled plan in one strided
    /// pass, or gather the accurate results for collection. For a batch of
    /// `n`, `data` receives the `n` per-sample arrays back to back. The chunk
    /// offsets were fixed at session build, so outputs may be supplied in any
    /// order. Steady-state allocation-free on the surrogate path.
    pub fn output(&mut self, name: &str, data: &mut [f32]) -> Result<&mut Self> {
        let (decl_index, (_, plan, offset)) = self
            .session
            .outputs
            .iter()
            .enumerate()
            .find(|(_, (n, _, _))| n == name)
            .ok_or_else(|| {
                CoreError::Region(format!(
                    "region `{}`: `{name}` is not declared out(...)/inout(...)",
                    self.session.region.name()
                ))
            })?;
        match self.path {
            PathTaken::Surrogate => {
                let (need, stride) = self.model_output_layout(name, plan, *offset)?;
                // Shadow validation: `data` still holds the host code's
                // results; gather them through the same plan and score the
                // model's values for the drawn samples — *before* the
                // scatter overwrites the buffer with the surrogate results.
                if let Some(sh) = &mut self.shadow {
                    let n = self.n;
                    let out = &self.scratch.out;
                    let (res, ns) = timed(|| -> Result<()> {
                        let mut reference = Tensor::default();
                        plan.gather_batch_into(data, n, &mut reference)?;
                        sh.compare(reference.data(), out.data(), stride, *offset, need);
                        Ok(())
                    });
                    sh.shadow_ns += ns;
                    res?;
                }
                let n = self.n;
                let src = self.scratch.out.data();
                let (res, ns) = timed(|| plan.scatter_batch(src, stride, *offset, n, data));
                self.from_ns += ns;
                res?;
            }
            PathTaken::Accurate => {
                // Fallback-served invocations *wanted* the surrogate; they
                // run the host code for safety, not to collect training
                // data — recording them would silently grow the db for
                // every invocation of a sustained fallback period.
                let collecting = self.collects();
                if collecting || self.shadow.is_some() {
                    // One gather serves both data collection and the
                    // fallback recovery probe's reference values.
                    let mut gathered = Tensor::default();
                    let n = self.n;
                    let (res, ns) = timed(|| plan.gather_batch_into(data, n, &mut gathered));
                    if collecting {
                        self.collection_ns += ns;
                    }
                    res?;
                    let layout = self
                        .shadow
                        .is_some()
                        .then(|| self.model_output_layout(name, plan, *offset))
                        .transpose()?;
                    if let (Some(sh), Some((need, stride))) = (self.shadow.as_mut(), layout) {
                        let out = &self.scratch.out;
                        let ((), cns) = timed(|| {
                            sh.compare(gathered.data(), out.data(), stride, *offset, need)
                        });
                        sh.shadow_ns += cns;
                    }
                    if collecting {
                        self.gathered_outputs.push((decl_index, gathered));
                    }
                }
            }
        }
        Ok(self)
    }

    /// Whether this (accurate) invocation records collection rows: it was
    /// not a fallback, the region has a database, and its inputs were
    /// gathered (a database set after an input was read in place finds no
    /// gathered input to record).
    fn collects(&self) -> bool {
        !self.fallback && self.gathered && self.session.region.has_db()
    }

    /// Per-sample layout of `scratch.out` for one declared output: its
    /// element count and the per-sample stride through the model output.
    /// Errors when the model's production does not tile the batch.
    fn model_output_layout(
        &self,
        name: &str,
        plan: &CompiledMap,
        offset: usize,
    ) -> Result<(usize, usize)> {
        let need = plan.numel();
        let produced = self.scratch.out.numel();
        // Per-sample stride through the model output: the forward pass
        // stacks `n` per-sample outputs along the leading dim.
        let stride = produced / self.n.max(1);
        if !produced.is_multiple_of(self.n.max(1)) || stride < offset + need {
            return Err(CoreError::Region(format!(
                "region `{}`: model produced {produced} elements for a batch of {} \
                 but output `{name}` needs {need} at per-sample offset {offset}",
                self.session.region.name(),
                self.n
            )));
        }
        Ok((need, stride))
    }

    /// Finalize: persist collected data, feed any shadow-validation errors
    /// into the fallback controller (recording their rows), and fold
    /// timings into the region stats. A batch of `n` records `n` collection
    /// rows — exactly what `n` sequential invocations would have recorded.
    /// A failed validation-row write is returned only after the invocation
    /// is counted: the outputs it served stand. The scratch buffers return
    /// to this thread for the next invocation when `self` drops — including
    /// on error or early-drop paths.
    pub fn finish(mut self) -> Result<PathTaken> {
        let path = self.path;
        let region = self.session.region();
        let n = self.n;
        let mut collection_ns = self.collection_ns;
        let mut validation = Ok(());
        if let Some(sh) = self.shadow.take() {
            // Only samples whose outputs were actually compared feed the
            // controller: a caller that never read an output on this
            // invocation must not inject fabricated zero errors.
            let errors: Vec<f64> = sh
                .accs
                .iter()
                .filter(|a| a.compared())
                .map(SampleError::finalize)
                .collect();
            if !errors.is_empty() {
                validation = region.observe_validation(&sh.v, sh.seq, &errors, sh.shadow_ns);
            }
        }
        if path == PathTaken::Accurate && self.collects() {
            let core = &self.session.core;
            let inputs: Vec<(&str, &[usize], &[f32])> = (0..core.input_count())
                .filter(|i| self.supplied & (1 << i) != 0)
                .map(|i| {
                    let plan = core.input_plan(i);
                    (
                        core.inputs[i].0.as_str(),
                        plan.lhs_shape.as_slice(),
                        self.scratch.gathered[i].data(),
                    )
                })
                .collect();
            let outputs: Vec<(&str, &[usize], &[f32])> = self
                .gathered_outputs
                .iter()
                .map(|(decl, t)| {
                    let (name, plan, _) = &self.session.outputs[*decl];
                    (name.as_str(), plan.lhs_shape.as_slice(), t.data())
                })
                .collect();
            let (res, ns) = timed(|| {
                region.record_collection_batch(n, &inputs, &outputs, self.accurate_ns / n as u64)
            });
            res?;
            collection_ns += ns;
        }
        region.update_stats(|s| {
            s.invocations += n as u64;
            if self.fallback {
                s.fallback_invocations += n as u64;
            }
            if path == PathTaken::Surrogate {
                s.surrogate_invocations += n as u64;
                s.batch_submitted += n as u64;
                s.batches_flushed += 1;
            }
            s.to_tensor_ns += self.to_ns;
            s.inference_ns += self.inference_ns;
            s.from_tensor_ns += self.from_ns;
            s.accurate_ns += self.accurate_ns;
            s.collection_ns += collection_ns;
        });
        validation.map(|()| path)
    }
}
