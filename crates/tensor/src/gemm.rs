//! Cache-blocked, register-tiled GEMM with packed operand panels and fused
//! epilogues — the compute core of the inference hot path.
//!
//! # Why this module exists
//!
//! The naive kernels in [`crate::ops`] compute each output element with a
//! single-accumulator dot product. That loop carries a dependency on the
//! accumulator, so the CPU retires at best one add per float-add latency —
//! a few percent of machine peak — and every `Linear` layer then makes two
//! *more* full sweeps over its output for bias and activation. This module
//! restructures the same arithmetic into the classic BLIS-style hierarchy:
//!
//! * **register tile** (`MR` × `NR`): the micro-kernel keeps an
//!   `MR × NR` accumulator block in registers and sweeps the shared `k`
//!   dimension once (what keeps it there: *Register tiles* below). The
//!   `MR * NR` accumulator chains are independent, so the autovectorizer
//!   turns the inner loop into wide mul/add (or FMA, where the target
//!   contracts) with enough instruction-level parallelism to hide the
//!   floating-point latency. A shorter tile spans several panels side by
//!   side instead, so it keeps as many chains in flight (see *Batch-1 rows*
//!   below for the single row);
//! * **panel packing** ([`PackedB`]): the `B` operand is repacked into
//!   `NR`-wide column panels laid out contiguously in the `k` direction, so
//!   every micro-kernel step loads one cache line instead of gathering a
//!   strided column. Inference weights never change, so layers pack **once
//!   at model load** and steady-state forwards never repack; convolution
//!   writes its im2col columns straight into panels. `A` is read in place,
//!   row-major — one layout per operand;
//! * **cache blocking** (`KC`): the `k` dimension is walked in `KC`-deep
//!   slabs so the active `B` panel stays L1-resident for large problems;
//! * **fused epilogue** ([`Epilogue`]): β/bias/activation are applied to
//!   each output tile while it is still register/L1-hot, deleting the
//!   separate full-tensor bias and activation sweeps.
//!
//! # Determinism
//!
//! Every output element is accumulated in **fixed ascending-`k` order**
//! with one accumulator chain per element, exactly like the naive
//! reference kernel (`acc = acc + a*b`, no `mul_add`). Tiling only changes
//! *which elements* are computed together, never the order of additions
//! within an element, and `KC` slabs resume the same chain (partials are
//! stored and reloaded exactly — f32/f64 round-trips are lossless). The
//! result is therefore **bit-identical** across:
//!
//! * thread counts (parallelism splits rows/samples, never the `k` sum),
//! * blocking parameters (`KC`, stripe sizes — the crate's tests sweep
//!   `kc` from 1 up),
//! * weights packed at model load or per call, fused vs. unfused
//!   epilogues, and
//! * the batch size a row happens to be computed under — the invariant
//!   the runtime's dynamic batching relies on, and
//! * the tile shape an element lands in: the narrow-N tiles below put other
//!   *elements* side by side (16 rows × 8 lanes, or 16 rows on the lanes of
//!   one column) but run the identical chain — `acc += a*w`, ascending `k`,
//!   mul then add, then the shared epilogue — for each of them.
//!
//! # Blocking parameters
//!
//! | const | value | role |
//! |-------|-------|------|
//! | `MR`  | 8   | rows per register tile (accumulator block height) |
//! | `NR`  | 16  | columns per register tile and per packed panel |
//! | `KC`  | 256 | k-depth per cache slab (`NR*KC` B-panel ≤ 16 KiB f32) |
//! | `NARROW_N`  | 8  | widest `n` served by the narrow tiles, and their lane count |
//! | `NARROW_MR` | 16 | rows per narrow tile |
//! | `ROW_GROUP` | 4  | panels per single-row tile (`MR / M` per `M`-row tile, at most this) |
//!
//! `par_rows_per_block` is the one shared heuristic that converts these
//! into parallel task sizes for every kernel in the crate.
//!
//! # Skinny shapes
//!
//! Model heads and small surrogates are narrow: the Fig. 2 stencil MLP is
//! `5→8→1`, every regression head ends in `n = 1`. On an `MR × NR` tile
//! such a layer computes 8–15 dead lanes per row and pays a tile call, an
//! epilogue and `MR` variable-length row stores per handful of `k` steps.
//! When a packed-`B`, row-major-`A` problem has `n ≤ NARROW_N` and a single
//! `k` slab (`k ≤ kc`: nothing to resume), each stripe therefore runs its
//! full `NARROW_MR`-row blocks on one of two narrow tiles — `2 ≤ n ≤ 8`:
//! 16 rows × 8 lanes with one contiguous store of the whole C block;
//! `n == 1`: the 16 rows themselves on the SIMD axis — and only the
//! `< NARROW_MR` remainder rows on the tiles above. The choice is a pure
//! function of `(n, k, kc)`; nothing selects it from outside, and it holds
//! at every storage precision. `k > kc` keeps the panel sweep.
//!
//! # Batch-1 rows
//!
//! An auto-regressive surrogate calls its forward one sample at a time, so
//! every layer is a single row against the whole packed weight matrix. On
//! a 1-row, 1-panel tile that is `NR` chains — two 256-bit accumulators —
//! and every `k` step waits out one add's latency: the weight stream is
//! not the bound, and storing fewer bytes per weight buys nothing
//! (`m = 1, k = n = 4096`: int8 2.1–2.2 ms, bf16 2.2–2.5 ms). The 1-row
//! tile therefore sweeps full groups of `ROW_GROUP` packed panels at once
//! — 64 chains in eight accumulators for one load of `a[kk]` — and only
//! the `< ROW_GROUP` remaining panels run one at a time. It is the same
//! micro-kernel body with a panel count of 4 instead of 1: one chain per
//! element, the same decode, slab resume and epilogue, so the bits do not
//! change.
//!
//! # Register tiles
//!
//! Whether a tile's accumulators stay in registers is up to the optimizer,
//! and three rules of the micro-kernel are what keep them there from the
//! first `k` step to the last (read off the release build's `objdump`;
//! breaking any one put a store of every accumulator back into each step):
//!
//! 1. each `k` step is a rank-1 update with the lanes outer and the rows
//!    inner, so the row loop unrolls whole and the lane loop vectorizes
//!    (with the rows outer, the `MR`-row tile vectorized along `k` instead,
//!    with gathers);
//! 2. the `k` loop reads only views cut to exactly `klen` before it starts
//!    (A rows, and B rows as `[_; NR]` chunks), so it has no panicking edge;
//! 3. after the loop the accumulators are read only as whole `[T; NR]`
//!    panel rows, each finished as a value and stored with one fixed-width
//!    copy. Finished in place, or copied whole, they stayed in memory.
//!
//! A tile of `M < MR` rows sweeps `MR / M` panels at once (at most
//! `ROW_GROUP`), so the 4- and 2-row tiles hold as many chains as the
//! `MR`-row one. Measured against the rows-outer kernel that stored its
//! accumulators every step (same process, 1 thread, 2-vCPU AVX-512 KVM
//! guest, p50 of 300 calls, output bits identical): `[1024,128]·[128,64]` +
//! bias + ReLU 680–690 → 290 µs (≈ 24 → 58 GFLOP/s), `[1024,6]·[6,128]` +
//! bias + ReLU 216–222 → 92–98 µs (its epilogue now costs no more than none
//! at all), `[1024,300]·[300,64]` 1490–1530 → 676–690 µs, the 4-filter
//! `[4,36]·[36,1152]` 13.0 → 7.5 µs.
//!
//! # Panel codecs
//!
//! There is one macro-kernel. Everything in it — operand checks, the stripe
//! split, the `kc` slab loop, the `MR`/4/2/1 step-down and its panel
//! grouping, the narrow tiles, the epilogue and the clipped store — is
//! generic over a crate-private `PanelCodec`, whose only job is the `B`
//! load: how one stored element of a packed panel (and its column's scale)
//! becomes the value of `T` the accumulator chains consume. Full precision
//! is the identity codec (the load itself); [`crate::quant`] supplies the
//! bf16 and int8 ones. The chain after the load is the same code at every
//! precision, so a reduced rung is bit-identical to this kernel run on its
//! decoded weights.

use crate::scalar::Scalar;
use crate::tensor::Tensor;
use crate::{Result, TensorError};
use std::cell::RefCell;

/// Rows per register tile: height of the accumulator block held in
/// registers by the micro-kernel.
pub(crate) const MR: usize = 8;

/// Columns per register tile **and** width of one packed `B` panel. The
/// micro-kernel's unit of SIMD work is an `NR`-wide row.
pub(crate) const NR: usize = 16;

/// `k`-depth of one cache slab. One `B` panel slab is `NR * KC` elements
/// (16 KiB at f32), sized to stay L1-resident while a C stripe is swept.
pub(crate) const KC: usize = 256;

// ---------------------------------------------------------------------------
// Parallel blocking heuristic (shared by matmul / conv / gemm)
// ---------------------------------------------------------------------------

/// Parallelism threshold: below this many multiply-adds a kernel runs
/// inline on the calling thread — dispatch overhead would dominate.
///
/// Measured basis (tuned against the work-stealing pool on the shapes
/// `benchmark/`'s `sweep_mlp` runs — MLP 6-128-64-1, batch 1024): one pool
/// dispatch costs on the order of a few microseconds (publish + wake +
/// barrier). The tuning assumed a few multiply-adds per cycle, ~32 Ki
/// multiply-adds ≈ 10 µs of work. The register tiles now sustain ≈ 29 G
/// multiply-adds/s (≈ 58 GFLOP/s on `[1024,128]·[128,64]`, module docs
/// *Register tiles*), so 32 Ki is ≈ 1 µs — below one dispatch, and the
/// break-even by this arithmetic lies several times higher. Not re-tuned:
/// two shared vCPUs cannot measure a parallel break-even.
pub(crate) const PAR_FLOPS_MIN: usize = 1 << 15;

/// Multiply-adds targeted per parallel task. Tasks much smaller than this
/// pay per-claim overhead (an atomic compare-exchange each); much larger
/// ones defeat stealing — a straggler's whole task is indivisible, so the
/// tail latency is one task. `PAR_FLOPS_MIN * 8` ≈ 262 Ki multiply-adds
/// keeps the MLP bench layer (`m=1024, n=128, k=128` → 16 rows/task, 64
/// tasks) fine-grained enough that 8 participants each claim ~8 tasks and
/// the steal path can level any imbalance.
pub(crate) const PAR_TASK_FLOPS: usize = PAR_FLOPS_MIN * 8;

/// Lower bound on tasks per participant when a problem is row-abundant:
/// with at least this many claimable tasks per thread, the work-stealing
/// cursor can rebalance a straggler without the tail dominating. 4 keeps
/// per-claim overhead under a percent at [`PAR_TASK_FLOPS`] task sizes.
pub(crate) const PAR_TASKS_PER_THREAD: usize = 4;

/// The one block-size heuristic shared by every row-parallel kernel
/// (GEMM stripes, the legacy matmul family, convolution sample blocks):
/// how many of the `m` output rows of an `[m, n]` result (each costing
/// `n * k` multiply-adds) one parallel task should own. Always in `1..=m`.
///
/// Two forces: the *flops* term targets [`PAR_TASK_FLOPS`] multiply-adds
/// per task (dispatch amortization), and the *balance* term caps a task
/// at `m / (threads * PAR_TASKS_PER_THREAD)` rows so that even
/// flops-light, row-heavy problems split into enough tasks for every
/// participant of the current pool to claim several. The thread count
/// only moves *where stripe boundaries fall*, never how any output
/// element accumulates its `k`-sum, so results stay bitwise identical
/// across pool sizes (pinned by `gemm_determinism`).
///
/// Keeping matmul, conv and GEMM on this single function means their task
/// granularities cannot drift apart as the constants are tuned.
pub(crate) fn par_rows_per_block(m: usize, n: usize, k: usize) -> usize {
    let flops_rows = (PAR_TASK_FLOPS / (n * k).max(1)).max(1);
    let threads = hpacml_par::current_parallelism();
    let balance_rows = m.div_ceil(threads * PAR_TASKS_PER_THREAD).max(MR);
    flops_rows.min(balance_rows).clamp(1, m.max(1))
}

/// Is an `[m, n] = [m, k] · [k, n]` problem big enough to leave the
/// calling thread? (Single-row problems never are: rows are the parallel
/// axis.)
pub(crate) fn par_worthwhile(m: usize, n: usize, k: usize) -> bool {
    m > 1 && m * n * k >= PAR_FLOPS_MIN
}

/// The shared "cores in use" heuristic: does an outer parallel loop over
/// `outer` independent items already saturate the current pool? When it
/// does, inner kernels should run inline (sample-level parallelism wins);
/// when it does not — small batches on a wide pool — the forward path
/// drops to intra-GEMM row parallelism instead. A pure function of the
/// item count and the pool width, so whether a sample was computed inside
/// a big batch or alone never changes which math runs on its data.
pub(crate) fn outer_saturates(outer: usize) -> bool {
    outer >= hpacml_par::current_parallelism()
}

// ---------------------------------------------------------------------------
// Epilogue
// ---------------------------------------------------------------------------

/// Activation functions the epilogue can fuse. The formulas are exactly
/// the ones the `nn` activation layers use, so a fused
/// `Linear→activation` pair is bit-identical to the unfused stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// `max(v, 0)`
    Relu,
    /// `tanh(v)` via [`Scalar::tanh_activation`] (vectorizable rational
    /// approximation for `f32`; see `crate::scalar::fast_tanh_f32`)
    Tanh,
    /// `1 / (1 + e^-v)`
    Sigmoid,
}

impl Act {
    /// Apply the activation to one value.
    #[inline(always)]
    pub fn apply<T: Scalar>(self, v: T) -> T {
        match self {
            Act::Relu => v.maximum(T::ZERO),
            Act::Tanh => v.tanh_activation(),
            Act::Sigmoid => T::ONE / (T::ONE + (-v).exp()),
        }
    }
}

/// Which axis a fused bias broadcasts along.
#[derive(Debug, Clone, Copy)]
pub enum Bias<'a, T> {
    /// No bias term.
    None,
    /// `c[i, j] += bias[j]` — one bias per output column (Linear layers,
    /// where columns are output features).
    Col(&'a [T]),
    /// `c[i, j] += bias[i]` — one bias per output row (convolution GEMM,
    /// where rows are filters).
    Row(&'a [T]),
}

/// Fused epilogue: what happens to each output tile after its `k`-sum
/// finishes, while it is still register-hot. Order is always
/// `acc → (+bias) → activation`, matching the unfused layer stack
/// (`matmul` then `add_bias_rows` then activation map) bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a, T> {
    pub bias: Bias<'a, T>,
    pub act: Option<Act>,
}

impl<'a, T> Epilogue<'a, T> {
    /// Plain overwrite: `c = a·b`.
    pub fn none() -> Self {
        Epilogue {
            bias: Bias::None,
            act: None,
        }
    }

    /// `c = a·b + bias[col]`.
    pub fn col_bias(bias: &'a [T]) -> Self {
        Epilogue {
            bias: Bias::Col(bias),
            act: None,
        }
    }

    /// `c = a·b + bias[row]`.
    pub fn row_bias(bias: &'a [T]) -> Self {
        Epilogue {
            bias: Bias::Row(bias),
            act: None,
        }
    }

    /// Append an optional activation to whatever this epilogue does.
    pub fn with_act(mut self, act: Option<Act>) -> Self {
        self.act = act;
        self
    }
}

// ---------------------------------------------------------------------------
// Packed operands
// ---------------------------------------------------------------------------

/// The `B` operand of `C[m,n] = A[m,k] · B[k,n]`, repacked into `NR`-wide
/// column panels: panel `p` holds columns `p*NR .. p*NR+NR` laid out
/// `k`-major (`data[(p*k + kk)*NR + j]`), zero-padded past column `n`.
/// Each micro-kernel step then loads one contiguous `NR`-vector.
///
/// Inference weights are immutable, so `Linear` layers build one of these
/// **once at model load** and every forward pass reuses it.
#[derive(Debug, Clone, Default)]
pub struct PackedB<T: Scalar> {
    k: usize,
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> PackedB<T> {
    pub fn new() -> Self {
        PackedB {
            k: 0,
            n: 0,
            data: Vec::new(),
        }
    }

    /// Logical dims of the packed matrix: `[k, n]`.
    pub fn k(&self) -> usize {
        self.k
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Elements a pack of `[k, n]` needs — for workspace pre-sizing.
    pub fn packed_elems(k: usize, n: usize) -> usize {
        n.div_ceil(NR) * k * NR
    }

    fn prepare(&mut self, k: usize, n: usize) {
        self.k = k;
        self.n = n;
        let need = Self::packed_elems(k, n);
        // Grow-only, in place: steady-state repacks are allocation-free.
        if self.data.len() < need {
            self.data.resize(need, T::ZERO);
        }
    }

    /// Size this pack for `[k, n]` and hand its panels to the caller to fill
    /// (`panels() * k * NR` elements, `[(p*k + kk)*NR + j]`; lanes past
    /// column `n` must be written as zero) — the convolution GEMM routes
    /// write their im2col columns straight into them.
    pub(crate) fn panels_mut(&mut self, k: usize, n: usize) -> &mut [T] {
        self.prepare(k, n);
        &mut self.data[..Self::packed_elems(k, n)]
    }

    /// Pack from row-major `[n, k]` storage — the `Bᵀ` ("transb") layout
    /// `Linear` weights use (`w[out, in]`, logical `B = wᵀ`).
    pub fn pack_rows_into(&mut self, bt: &[T], n: usize, k: usize) {
        self.prepare(k, n);
        pack_transb_panels(bt, n, k, &mut self.data, |_, v| v);
    }

    /// Pack a rank-2 tensor stored in transb layout `[n, k]`.
    pub fn from_transb(t: &Tensor<T>) -> Result<Self> {
        if t.rank() != 2 {
            return Err(TensorError::DimMismatch(format!(
                "PackedB::from_transb: expected rank 2, got {:?}",
                t.dims()
            )));
        }
        let (n, k) = (t.dims()[0], t.dims()[1]);
        let mut p = PackedB::new();
        p.pack_rows_into(t.data(), n, k);
        Ok(p)
    }

    /// This pack as the driver sees it: stored panels read by the identity
    /// codec, which wants no scales.
    fn view(&self) -> Panels<'_, T, T> {
        Panels {
            data: &self.data[..Self::packed_elems(self.k, self.n)],
            scales: &[],
        }
    }
}

/// Fill `NR`-wide `k`-major panels (`dst[(p*k + kk)*NR + j]`) from row-major
/// `[n, k]` ("transb") storage, storing `encode(column, value)` per element
/// — the one packer behind every storage precision. Lanes past column `n`
/// store `encode(column, 0)`, which is zero at every precision (the int8
/// scale table is padded with `1.0`), so padding decodes to exactly `0`.
pub(crate) fn pack_transb_panels<T: Scalar, Q>(
    bt: &[T],
    n: usize,
    k: usize,
    dst: &mut [Q],
    encode: impl Fn(usize, T) -> Q,
) {
    assert_eq!(bt.len(), n * k, "pack_transb_panels: bad B length");
    for p in 0..n.div_ceil(NR) {
        let panel = &mut dst[p * k * NR..(p + 1) * k * NR];
        for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                let col = p * NR + j;
                *v = encode(col, if col < n { bt[col * k + kk] } else { T::ZERO });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The B operand as the driver walks it
// ---------------------------------------------------------------------------

/// `NR`-wide `k`-major panels (`data[(p*k + kk)*NR + j]`) of any stored
/// element type `Q`, and the per-column scale table their codec reads:
/// `panels * NR` entries, or empty for codecs that want none. `A` has one
/// layout too: row-major `[m, k]`, read in place.
#[derive(Clone, Copy)]
pub(crate) struct Panels<'a, T, Q> {
    pub(crate) data: &'a [Q],
    pub(crate) scales: &'a [T],
}

/// Panel `p`'s `k`-major rows from slab offset `k0` to the panel's end.
#[inline]
fn panel_slab<Q>(data: &[Q], k: usize, p: usize, k0: usize) -> &[Q] {
    &data[(p * k + k0) * NR..(p + 1) * k * NR]
}

/// The `NR` scales of the panel starting at column `j0` — all `1` for a
/// codec without a scale table — copied once per tile so the `k` loop
/// indexes nothing.
#[inline]
fn panel_scales<T: Scalar>(scales: &[T], j0: usize) -> [T; NR] {
    scales
        .get(j0..j0 + NR)
        .map_or([T::ONE; NR], |s| s.try_into().expect("NR scales per panel"))
}

// ---------------------------------------------------------------------------
// Panel codecs
// ---------------------------------------------------------------------------

/// How one stored `B`-panel element becomes the value the accumulator
/// chains consume — the only thing that differs between storage precisions
/// (see the module docs). `scale` is the element's column scale (`1` for a
/// codec without a scale table). A pure per-element function, so the tiles
/// decode whole rows, or several panels' rows side by side, with one flat
/// loop; implementations are `#[inline(always)]`.
pub(crate) trait PanelCodec<T: Scalar> {
    /// Stored element type.
    type Q: Copy + Send + Sync;
    fn decode(raw: Self::Q, scale: T) -> T;
}

/// Full precision: the stored element *is* the decoded value.
struct Identity;

impl<T: Scalar> PanelCodec<T> for Identity {
    type Q = T;
    #[inline(always)]
    fn decode(raw: T, _scale: T) -> T {
        raw
    }
}

/// One stored panel row (`NR` elements) decoded against its panel's scales.
#[inline(always)]
fn decode_row<T: Scalar, C: PanelCodec<T>>(raw: &[C::Q; NR], scales: &[T; NR]) -> [T; NR] {
    std::array::from_fn(|j| C::decode(raw[j], scales[j]))
}

// ---------------------------------------------------------------------------
// Micro-kernel
// ---------------------------------------------------------------------------

/// Panels a single-row tile sweeps at once (module docs, *Batch-1 rows*).
/// Measured basis, 1-panel → 4-panel tile (`m = 1, k = n = 4096`,
/// 1 thread, 2-vCPU AVX-512 KVM guest, p50 of 300 calls, median of five
/// alternating runs, output bits identical): int8 2.15 → 1.44 ms, bf16
/// 2.35 → 1.29 ms, f32 2.8–3.0 → 2.61 ms.
const ROW_GROUP: usize = 4;

/// The register-tiled micro-kernel: an `M`-row accumulator tile over `P`
/// side-by-side `NR`-wide panels (`M × P·NR` chains) and a `klen`-deep slab.
///
/// * `a[i][kk]` is `A[row0+i, k0+kk]`: `M` row views, each at least `klen`
///   long (row-major `A`, read in place).
/// * `C::decode(b[q][kk·NR + j], scales[q][j])` is `B[k0+kk, j0 + q·NR + j]`:
///   panel `q`'s stored rows from the slab's first, at least `klen·NR` long.
/// * `cols` counts the tile's live columns across all `P` panels (only the
///   last may be ragged); `accumulate` resumes a previous slab's partials
///   from `c`; `finish` applies the epilogue (only on the last slab).
///
/// Every `acc[i][q][j]` is one add-chain in ascending `kk` — the
/// determinism contract of the module — so how many rows or panels share a
/// tile never changes a bit.
///
/// What keeps all `M × P·NR` accumulators in registers from the first `k`
/// step to the last (module docs, *Register tiles*; breaking any one rule
/// put a store of every accumulator back into each `k` step):
///
/// 1. each `k` step is a rank-1 update with the lanes outer and the rows
///    inner, so the row loop unrolls whole and the lane loop vectorizes;
/// 2. the `k` loop indexes only views cut to exactly `klen` (A rows, and B
///    rows as `[_; NR]` chunks) before it starts, so it has no panicking
///    edge;
/// 3. after the loop, `acc` is read only as whole `[T; NR]` panel rows: each
///    is finished as a value and stored with one fixed-width copy (a
///    variable-width one only on a ragged panel). Finishing `acc` in place
///    keeps it in memory, and the loop then stores it on every step.
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
// Never inlined: the tile stays a small, standalone optimization unit, so
// the three rules above are all the optimizer sees (inlined into the large
// macro-kernel, it ran out of unroll budget and left the tile on the stack).
#[inline(never)]
fn micro_tile<T: Scalar, C: PanelCodec<T>, const M: usize, const P: usize>(
    a: [&[T]; M],
    b: [&[C::Q]; P],
    scales: [[T; NR]; P],
    klen: usize,
    c: &mut [T],
    ldc: usize,
    cols: usize,
    accumulate: bool,
    finish: Option<(&Epilogue<'_, T>, usize, usize)>,
) {
    let a: [&[T]; M] = std::array::from_fn(|i| &a[i][..klen]);
    let b: [&[[C::Q; NR]]; P] = std::array::from_fn(|q| &b[q].as_chunks::<NR>().0[..klen]);
    let mut acc = [[[T::ZERO; NR]; P]; M];
    if accumulate {
        for (i, arow) in acc.iter_mut().enumerate() {
            for (q, v) in arow.iter_mut().enumerate() {
                let (j0, w) = (q * NR, cols.saturating_sub(q * NR).min(NR));
                if w == NR {
                    v.copy_from_slice(&c[i * ldc + j0..][..NR]);
                } else {
                    v[..w].copy_from_slice(&c[i * ldc + j0..][..w]);
                }
            }
        }
    }
    for kk in 0..klen {
        let av: [T; M] = std::array::from_fn(|i| a[i][kk]);
        // The tile's P stored rows side by side, decoded as one row of P·NR
        // lanes: one flat loop, which the vectorizer widens and unrolls
        // whole, so the decoded row stays in registers like `acc` (decoded
        // panel by panel, the int8 rows went through the stack).
        let raw: [[C::Q; NR]; P] = std::array::from_fn(|q| b[q][kk]);
        let mut brow = [[T::ZERO; NR]; P];
        let lanes = raw.as_flattened().iter().zip(scales.as_flattened());
        for (w, (&r, &s)) in brow.as_flattened_mut().iter_mut().zip(lanes) {
            *w = C::decode(r, s);
        }
        for (j, &bv) in brow.as_flattened().iter().enumerate() {
            for (arow, &a) in acc.iter_mut().zip(&av) {
                // One chain per element; mul+add (not mul_add) so targets
                // without FMA autovectorize instead of calling libm, and
                // the sum matches the naive reference bit for bit.
                arow.as_flattened_mut()[j] += a * bv;
            }
        }
    }
    for (i, arow) in acc.iter().enumerate() {
        for (q, &v) in arow.iter().enumerate() {
            // Panel q's live columns: all NR but on the ragged last panel.
            let (j0, w) = (q * NR, cols.saturating_sub(q * NR).min(NR));
            let mut v = [v];
            if let Some((epi, row0, col0)) = finish {
                finish_tile(&mut v, epi, row0 + i, col0 + j0, w);
            }
            let [v] = v;
            if w == NR {
                c[i * ldc + j0..][..NR].copy_from_slice(&v);
            } else {
                c[i * ldc + j0..i * ldc + j0 + w].copy_from_slice(&v[..w]);
            }
        }
    }
}

/// Apply the fused epilogue to one register tile — the one float expression
/// every tile shape and storage precision runs after its `k`-sum. `W` is the
/// tile's lane count: [`NR`] on the panel sweep (one row at a time, see
/// [`micro_tile`]), [`NARROW_N`] or [`NARROW_MR`] on the narrow tiles.
///
/// Branch-free full-width passes over the tile: the bias/activation
/// selectors are matched once per tile, outside the row loops, so each
/// pass vectorizes like the k-loop (matched per row, the 16-row narrow
/// tile took 367–397 µs on `[65536,5]·[5,8]` + bias + ReLU against 255–294
/// µs). Padding lanes past `cols` compute garbage and are clipped by the
/// caller's store.
#[inline(always)]
fn finish_tile<T: Scalar, const M: usize, const W: usize>(
    acc: &mut [[T; W]; M],
    epi: &Epilogue<'_, T>,
    row0: usize,
    col0: usize,
    cols: usize,
) {
    match epi.bias {
        Bias::None => {}
        Bias::Col(bias) if cols == W => {
            let bs = &bias[col0..col0 + W];
            if M == 1 {
                // One row is straight-line code, which the vectorizer will
                // not version on whether `bias` overlaps it: read the lanes
                // into a local first (several rows stay a loop, vectorized
                // behind an overlap test; a local there gets vectorized
                // across the rows instead).
                let bs: [T; W] = bs.try_into().expect("W bias lanes");
                for (v, b) in acc.as_flattened_mut().iter_mut().zip(bs) {
                    *v += b;
                }
            } else {
                for arow in acc.iter_mut() {
                    for (v, b) in arow.iter_mut().zip(bs) {
                        *v += *b;
                    }
                }
            }
        }
        Bias::Col(bias) => {
            for arow in acc.iter_mut() {
                for (v, b) in arow.iter_mut().zip(&bias[col0..col0 + cols]) {
                    *v += *b;
                }
            }
        }
        Bias::Row(bias) => {
            for (arow, &rb) in acc.iter_mut().zip(&bias[row0..row0 + M]) {
                for v in arow.iter_mut() {
                    *v += rb;
                }
            }
        }
    }
    match epi.act {
        None => {}
        Some(Act::Relu) => {
            for arow in acc.iter_mut() {
                for v in arow.iter_mut() {
                    *v = v.maximum(T::ZERO);
                }
            }
        }
        Some(Act::Tanh) => {
            for arow in acc.iter_mut() {
                for v in arow.iter_mut() {
                    *v = v.tanh_activation();
                }
            }
        }
        Some(Act::Sigmoid) => {
            for arow in acc.iter_mut() {
                for v in arow.iter_mut() {
                    *v = T::ONE / (T::ONE + (-*v).exp());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Narrow-N tiles
// ---------------------------------------------------------------------------

/// Widest `n` the narrow tiles serve, and the lane count of
/// [`narrow_tile`]. At `n ≤ NR / 2` at least half of every [`NR`]-lane
/// accumulator row of [`micro_tile`] is zero padding, and with the `k` of a
/// handful such layers have, the per-tile call, epilogue and per-row store
/// outweigh the `k` loop. Measured basis (1 thread, AVX-512 host, same
/// process, medians): `[65536,5]·[5,8]` + bias + ReLU 970–1155 µs on the
/// `MR × NR` tile, 255–294 µs on the narrow one; `[65536,8]·[8,1]` 740–820
/// µs against 171–191 µs; `[65536,64]·[64,1]` 3.3–4.0 ms against 1.5–1.9 ms.
const NARROW_N: usize = NR / 2;

/// Rows per narrow block. Half-width lanes leave room for twice [`MR`]
/// accumulator rows in the same registers, halving the per-tile overhead;
/// for `n == 1` it is the number of rows riding the SIMD axis (one
/// 16-element store per tile).
const NARROW_MR: usize = 2 * MR;

/// Run every full [`NARROW_MR`]-row block of a single-slab, `n ≤ NARROW_N`
/// stripe on the narrow tiles and return how many rows that covered (the
/// caller's ordinary tiles take the `< NARROW_MR` rows left). `a` holds the
/// stripe's rows (`rows × k`, row-major), `panel`/`scales` the (single)
/// packed panel and its scales, `c` the stripe's C block (`ldc == n`),
/// `row0` its first row; `k > 0`.
///
/// * `2 ≤ n ≤ NARROW_N`: [`narrow_tile`], `NARROW_MR` rows × `NARROW_N`
///   lanes against the head of the panel.
/// * `n == 1`: [`column_tile`], rows on the SIMD axis.
///
/// Both keep one ascending-`k` `acc += a*w` chain per element and apply the
/// epilogue through [`finish_tile`], so the bits equal the panel sweep's.
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
fn narrow_blocks<T: Scalar, C: PanelCodec<T>>(
    a: &[T],
    k: usize,
    panel: &[C::Q],
    scales: &[T; NR],
    c: &mut [T],
    n: usize,
    epi: &Epilogue<'_, T>,
    row0: usize,
) -> usize {
    let blocks = a
        .chunks_exact(NARROW_MR * k)
        .zip(c.chunks_exact_mut(NARROW_MR * n))
        .enumerate();
    if n == 1 {
        // The column C[.., 0] is the row Cᵀ[0, ..]: a per-column bias is one
        // value for the whole tile (a row bias of the transposed tile) and a
        // per-row bias runs along its lanes (a column bias).
        let (epi_t, lane0) = match epi.bias {
            Bias::None => (Epilogue::none(), 0),
            Bias::Col(bias) => (Epilogue::row_bias(bias), 0),
            Bias::Row(bias) => (Epilogue::col_bias(bias), row0),
        };
        let epi_t = epi_t.with_act(epi.act);
        for (blk, (ab, cb)) in blocks {
            column_tile::<T, C>(ab, k, panel, scales, cb, &epi_t, lane0 + blk * NARROW_MR);
        }
    } else {
        for (blk, (ab, cb)) in blocks {
            narrow_tile::<T, C>(ab, k, panel, scales, cb, n, epi, row0 + blk * NARROW_MR);
        }
    }
    c.len() / n / NARROW_MR * NARROW_MR
}

/// The `2 ≤ n ≤ NARROW_N` tile: [`NARROW_MR`] rows × [`NARROW_N`] lanes over
/// the whole (single-slab) `k`. `a` is the block's `NARROW_MR × k` rows,
/// `panel[kk * NR ..]` the stored `B` row `kk`, `c` the block's contiguous
/// `NARROW_MR × n` outputs. Same chain per element as [`micro_tile`]
/// (`acc += a * w`, ascending `kk`, mul then add) on the first `NARROW_N`
/// decoded lanes; lanes past `n` multiply the panel's zero padding and are
/// dropped by the store.
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // same rationale as micro_tile: a small standalone unit.
fn narrow_tile<T: Scalar, C: PanelCodec<T>>(
    a: &[T],
    k: usize,
    panel: &[C::Q],
    scales: &[T; NR],
    c: &mut [T],
    n: usize,
    epi: &Epilogue<'_, T>,
    row0: usize,
) {
    // The k loop follows the micro-kernel's first two rules (module docs,
    // *Register tiles*): views cut to exactly `k`, lanes outer and rows
    // inner. With the rows outer, some builds kept the row loop rolled and
    // the tile on the stack.
    let rows: [&[T]; NARROW_MR] = std::array::from_fn(|i| &a[i * k..][..k]);
    let panel = &panel.as_chunks::<NR>().0[..k];
    let mut acc = [[T::ZERO; NARROW_N]; NARROW_MR];
    for (kk, braw) in panel.iter().enumerate() {
        let av: [T; NARROW_MR] = std::array::from_fn(|i| rows[i][kk]);
        let brow = decode_row::<T, C>(braw, scales);
        for (j, &bv) in brow[..NARROW_N].iter().enumerate() {
            for (arow, &a) in acc.iter_mut().zip(&av) {
                arow[j] += a * bv;
            }
        }
    }
    // Finished on a copy, which keeps `acc` in registers through the k loop
    // (finished row by row instead, the 8-lane rows measured slower), and
    // stored row by row: as one 512-byte copy the store was a `memcpy` call
    // whose cost moved with the frame's alignment from build to build.
    let mut tile = acc;
    finish_tile(&mut tile, epi, row0, 0, n);
    if n == NARROW_N {
        for (crow, trow) in c.chunks_exact_mut(NARROW_N).zip(&tile) {
            crow.copy_from_slice(trow);
        }
    } else {
        for (crow, trow) in c.chunks_exact_mut(n).zip(&tile) {
            crow.copy_from_slice(&trow[..n]);
        }
    }
}

/// The `n == 1` tile: [`NARROW_MR`] consecutive rows ride the SIMD axis, so
/// the tile is that many independent ascending-`k` chains
/// `acc[i] += a[i, kk] * w[kk]` and one contiguous store — against
/// [`micro_tile`]'s one live lane in [`NR`]. `a` is the block's
/// `NARROW_MR × k` rows, lane 0 of the decoded `panel[kk * NR ..]` row the
/// column's weight `w[kk]`, `epi_t` the epilogue *of the transposed tile*
/// (see [`narrow_blocks`]) with `lane0` the row the first lane stands for.
#[inline(never)] // same rationale as micro_tile: a small standalone unit.
fn column_tile<T: Scalar, C: PanelCodec<T>>(
    a: &[T],
    k: usize,
    panel: &[C::Q],
    scales: &[T; NR],
    c: &mut [T],
    epi_t: &Epilogue<'_, T>,
    lane0: usize,
) {
    let mut acc = [[T::ZERO; NARROW_MR]; 1];
    let rows: [&[T]; NARROW_MR] = std::array::from_fn(|i| &a[i * k..(i + 1) * k]);
    for (kk, wraw) in panel.chunks_exact(NR).take(k).enumerate() {
        let wv = C::decode(wraw[0], scales[0]);
        for (v, row) in acc[0].iter_mut().zip(&rows) {
            *v += row[kk] * wv;
        }
    }
    finish_tile(&mut acc, epi_t, 0, lane0, NARROW_MR);
    c.copy_from_slice(&acc[0]);
}

// ---------------------------------------------------------------------------
// Macro-kernel / driver
// ---------------------------------------------------------------------------

/// `C[m, n] = epilogue(A · B)` over a row-major `A` (`[m, k]`, read in
/// place) and a packed `B` (`[k, n]`), parallelized over row stripes with
/// the default [`KC`] slab depth. `c` must be a row-major `[m, n]` slice;
/// every element is overwritten. Panics on operand/size mismatches
/// (callers validate shapes; the tensor-level wrappers return errors
/// instead).
pub(crate) fn gemm_into<T: Scalar>(
    m: usize,
    a: &[T],
    b: &PackedB<T>,
    epi: Epilogue<'_, T>,
    c: &mut [T],
) {
    gemm_driver::<T, Identity>(m, b.n(), b.k(), a, b.view(), epi, c, KC)
}

/// The one macro-kernel driver, at every storage precision: checks the
/// operands, splits `c` into `MR`-aligned row stripes across the pool and
/// runs [`stripe_body`] on each. `kc` is the cache-slab depth — the
/// tuning/testing hook behind the determinism guarantee ("results do not
/// depend on `kc`").
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_driver<T: Scalar, C: PanelCodec<T>>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: Panels<'_, T, C::Q>,
    epi: Epilogue<'_, T>,
    c: &mut [T],
    kc: usize,
) {
    assert_eq!(c.len(), m * n, "gemm: bad C length");
    assert_eq!(a.len(), m * k, "gemm: bad A length");
    assert_eq!(b.data.len(), n.div_ceil(NR) * k * NR, "gemm: bad B panels");
    if let Bias::Col(bias) = epi.bias {
        assert_eq!(bias.len(), n, "gemm: col bias length");
    }
    if let Bias::Row(bias) = epi.bias {
        assert_eq!(bias.len(), m, "gemm: row bias length");
    }
    if m == 0 || n == 0 {
        return;
    }
    let kc = kc.max(1);

    // Row stripes are the parallel axis; align the grain to MR rows so
    // every stripe starts on a register-tile boundary.
    if par_worthwhile(m, n, k) {
        let rows = par_rows_per_block(m, n, k).div_ceil(MR) * MR;
        hpacml_par::par_chunks_mut(c, rows * n, |start, stripe| {
            let row0 = start / n;
            let a = &a[row0 * k..][..stripe.len() / n * k];
            stripe_body::<T, C>(row0, stripe, n, k, a, b, &epi, kc);
        });
    } else {
        stripe_body::<T, C>(0, c, n, k, a, b, &epi, kc);
    }
}

/// Compute one C row-stripe (`row0 ..` covering `stripe.len() / n` rows,
/// `a` its rows of `A`), walking `k` in `kc`-deep slabs and `n` in
/// `NR`-wide panels.
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
fn stripe_body<T: Scalar, C: PanelCodec<T>>(
    row0: usize,
    stripe: &mut [T],
    n: usize,
    k: usize,
    a: &[T],
    b: Panels<'_, T, C::Q>,
    epi: &Epilogue<'_, T>,
    kc: usize,
) {
    let rows = stripe.len() / n;
    let slabs = k.div_ceil(kc).max(1); // k == 0 still runs one epilogue pass
    for slab in 0..slabs {
        let k0 = slab * kc;
        let klen = kc.min(k - k0);
        let accumulate = slab > 0;
        let epi = (slab + 1 == slabs).then_some(epi);

        // Narrow-N problems with a single slab (nothing to resume; `k == 0`
        // is a pure epilogue pass) run their full NARROW_MR-row blocks on
        // the narrow tiles; whatever is left (< NARROW_MR rows) falls
        // through to the tiles below.
        let mut r = match epi {
            Some(epi) if n <= NARROW_N && (1..=kc).contains(&k) => {
                let scales = panel_scales(b.scales, 0);
                narrow_blocks::<T, C>(a, k, b.data, &scales, stripe, n, epi, row0)
            }
            _ => 0,
        };
        // MR-row register tiles, then the remainder (< MR) stepping down
        // through 4/2/1-row tiles. A shorter tile makes up for its height
        // by sweeping more panels at once (`panel_sweep`'s `G`: MR / M, at
        // most ROW_GROUP), so even small-m problems (e.g. a 4-filter
        // convolution) keep MR·NR independent accumulator chains in flight,
        // and a single row 64. Per-row arithmetic is identical at every
        // tile height and width, so the decomposition never changes results.
        while r < rows {
            let (row, cb) = (row0 + r, &mut stripe[r * n..]);
            let rows_at = |i: usize| &a[(r + i) * k + k0..];
            let step = match rows - r {
                MR.. => {
                    let a = std::array::from_fn(rows_at);
                    panel_sweep::<T, C, MR, 1>(a, b, n, k, k0, klen, cb, row, accumulate, epi);
                    MR
                }
                4.. => {
                    let a = std::array::from_fn(rows_at);
                    panel_sweep::<T, C, 4, 2>(a, b, n, k, k0, klen, cb, row, accumulate, epi);
                    4
                }
                2.. => {
                    let a = std::array::from_fn(rows_at);
                    panel_sweep::<T, C, 2, 4>(a, b, n, k, k0, klen, cb, row, accumulate, epi);
                    2
                }
                _ => {
                    let a = [rows_at(0)];
                    panel_sweep::<T, C, 1, ROW_GROUP>(
                        a, b, n, k, k0, klen, cb, row, accumulate, epi,
                    );
                    1
                }
            };
            r += step;
        }
    }
}

/// Sweep the `NR`-wide column panels of one `M`-row block, `G` side by side
/// per tile and the `< G` left over one at a time (`a`: the block's rows of
/// `A` from the slab's first column; `c`: its rows of `C` from the block's
/// first, `ldc == n`).
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
fn panel_sweep<T: Scalar, C: PanelCodec<T>, const M: usize, const G: usize>(
    a: [&[T]; M],
    b: Panels<'_, T, C::Q>,
    n: usize,
    k: usize,
    k0: usize,
    klen: usize,
    c: &mut [T],
    row0: usize,
    accumulate: bool,
    epi: Option<&Epilogue<'_, T>>,
) {
    let Panels { data, scales } = b;
    let panels = n.div_ceil(NR);
    let grouped = panels - panels % G;
    for p in (0..grouped).step_by(G) {
        let j0 = p * NR;
        micro_tile::<T, C, M, G>(
            a,
            std::array::from_fn(|q| panel_slab(data, k, p + q, k0)),
            std::array::from_fn(|q| panel_scales(scales, j0 + q * NR)),
            klen,
            &mut c[j0..],
            n,
            (G * NR).min(n - j0),
            accumulate,
            epi.map(|e| (e, row0, j0)),
        );
    }
    for p in grouped..panels {
        let j0 = p * NR;
        micro_tile::<T, C, M, 1>(
            a,
            [panel_slab(data, k, p, k0)],
            [panel_scales(scales, j0)],
            klen,
            &mut c[j0..],
            n,
            NR.min(n - j0),
            accumulate,
            epi.map(|e| (e, row0, j0)),
        );
    }
}

// ---------------------------------------------------------------------------
// Tensor-level entry points
// ---------------------------------------------------------------------------

/// The shape checks every tensor-level `A · Bᵀ` wrapper shares, so a bad
/// operand is the same [`TensorError::DimMismatch`] whichever kernel would
/// have served it (never a panic inside the driver): `a` is rank 2, its `k`
/// matches the `[n, bk]` right-hand side, and a fused bias has one entry
/// per column/row. Returns `a`'s `(m, k)`.
pub(crate) fn check_operands<T: Scalar>(
    what: &str,
    a: &Tensor<T>,
    n: usize,
    bk: usize,
    epi: &Epilogue<'_, T>,
) -> Result<(usize, usize)> {
    if a.rank() != 2 {
        return Err(TensorError::DimMismatch(format!(
            "{what}: lhs expected rank 2, got {:?}",
            a.dims()
        )));
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    if k != bk {
        return Err(TensorError::DimMismatch(format!(
            "{what}: lhs is [{m}, {k}], rhs is [{n}, {bk}]"
        )));
    }
    let (len, want, axis) = match epi.bias {
        Bias::None => return Ok((m, k)),
        Bias::Col(bias) => (bias.len(), n, "columns"),
        Bias::Row(bias) => (bias.len(), m, "rows"),
    };
    if len != want {
        return Err(TensorError::DimMismatch(format!(
            "{what}: bias has {len} entries for {want} {axis}"
        )));
    }
    Ok((m, k))
}

/// `C[m, n] = epilogue(A[m, k] · Bᵀ)` against a pre-packed `B` — the
/// steady-state `Linear` layer kernel: weights packed once at model load,
/// bias and activation fused into the output tiles. `c` is resized in
/// place (allocation-free once it has capacity).
pub fn matmul_transb_packed_into<T: Scalar>(
    a: &Tensor<T>,
    bp: &PackedB<T>,
    epi: Epilogue<'_, T>,
    c: &mut Tensor<T>,
) -> Result<()> {
    matmul_transb_packed_into_kc(a, bp, epi, c, KC)
}

/// [`matmul_transb_packed_into`] with an explicit cache-slab depth — the
/// hook the tests sweep to pin "results do not depend on `kc`".
pub(crate) fn matmul_transb_packed_into_kc<T: Scalar>(
    a: &Tensor<T>,
    bp: &PackedB<T>,
    epi: Epilogue<'_, T>,
    c: &mut Tensor<T>,
    kc: usize,
) -> Result<()> {
    let n = bp.n();
    let (m, k) = check_operands("matmul_transb_packed", a, n, bp.k(), &epi)?;
    c.resize(&[m, n]);
    gemm_driver::<T, Identity>(m, n, k, a.data(), bp.view(), epi, c.data_mut(), kc);
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-thread pack/im2col scratch
// ---------------------------------------------------------------------------

/// Reusable per-thread staging buffers for kernels whose operands are not
/// pre-packed: a [`PackedB`] for on-the-fly weight packing (training-time
/// and uncompiled-model `Linear` forwards) and for the im2col panels of the
/// convolution GEMM routes, and a buffer the other convolution staging goes
/// through (the GEMM routes' zero-padded sample, the strided direct route's
/// im2col columns). One instance lives per thread (see [`WithScratch`]), so
/// parallel kernels never contend on — or repack — another thread's panels.
/// Grow-only, so steady-state use is allocation-free.
#[derive(Default)]
// lint: allow(crate-local-pub) — in `WithScratch`'s signature
pub struct GemmScratch<T: Scalar> {
    pub packed_b: PackedB<T>,
    pub col: Vec<T>,
}

impl<T: Scalar> GemmScratch<T> {
    /// Pre-size the buffers (elements) so even a first use allocates
    /// nothing. Grow-only.
    pub fn reserve(&mut self, b_elems: usize, col_elems: usize) {
        if self.packed_b.data.len() < b_elems {
            self.packed_b.data.resize(b_elems, T::ZERO);
        }
        if self.col.len() < col_elems {
            self.col.resize(col_elems, T::ZERO);
        }
    }
}

/// Access to this thread's [`GemmScratch`]. Implemented for the concrete
/// scalar types (thread-locals cannot be generic); kernels that need
/// scratch bound `T: Scalar + WithScratch`.
// lint: allow(crate-local-pub) — the bound of the public GEMM and conv entry points; callers satisfy it with `f32`/`f64` and never name it
pub trait WithScratch: Scalar {
    fn with_gemm_scratch<R>(f: impl FnOnce(&mut GemmScratch<Self>) -> R) -> R;
}

macro_rules! impl_with_scratch {
    ($t:ty, $tls:ident) => {
        thread_local! {
            static $tls: RefCell<GemmScratch<$t>> = RefCell::new(GemmScratch::default());
        }
        impl WithScratch for $t {
            fn with_gemm_scratch<R>(f: impl FnOnce(&mut GemmScratch<Self>) -> R) -> R {
                $tls.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut s) => f(&mut s),
                    // Reentrant use (a kernel invoked from inside another
                    // kernel's scratch scope): fall back to a fresh scratch
                    // rather than panicking on the RefCell.
                    Err(_) => f(&mut GemmScratch::default()),
                })
            }
        }
    };
}

impl_with_scratch!(f32, GEMM_SCRATCH_F32);
impl_with_scratch!(f64, GEMM_SCRATCH_F64);

/// Pre-size the calling thread's [`GemmScratch`] — the workspace-reserve
/// hook sessions use so their first forward pass is already allocation-free.
/// Sessions broadcast this across the pool (`hpacml_par::broadcast`) so
/// every worker's per-thread scratch is warm before the first dispatch.
pub fn reserve_scratch<T: WithScratch>(b_elems: usize, col_elems: usize) {
    T::with_gemm_scratch(|s| s.reserve(b_elems, col_elems));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive reference: one accumulator per element, ascending k —
    /// the order contract the tiled kernel must reproduce bit for bit.
    fn reference(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        bt: &[f32], // [n, k] transb layout
        epi: &Epilogue<'_, f32>,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * bt[j * k + kk];
                }
                acc = match epi.bias {
                    Bias::None => acc,
                    Bias::Col(b) => acc + b[j],
                    Bias::Row(b) => acc + b[i],
                };
                if let Some(act) = epi.act {
                    acc = act.apply(acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn lcg(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    #[test]
    fn packed_gemm_bitwise_matches_reference_over_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 30),
            (3, 4, 5),
            (8, 16, 16),
            (9, 3, 17),
            (17, 9, 23),
            (64, 33, 48),
            (70, 64, 64),
        ] {
            let a = Tensor::from_vec(lcg(m as u64 * 31 + 1, m * k), [m, k]).unwrap();
            let bt = Tensor::from_vec(lcg(n as u64 * 17 + 2, n * k), [n, k]).unwrap();
            let bias_c = lcg(99, n);
            let bp = PackedB::from_transb(&bt).unwrap();
            for (name, epi) in [
                ("none", Epilogue::none()),
                ("bias", Epilogue::col_bias(&bias_c)),
                (
                    "bias+relu",
                    Epilogue::col_bias(&bias_c).with_act(Some(Act::Relu)),
                ),
                (
                    "bias+tanh",
                    Epilogue::col_bias(&bias_c).with_act(Some(Act::Tanh)),
                ),
                (
                    "bias+sigmoid",
                    Epilogue::col_bias(&bias_c).with_act(Some(Act::Sigmoid)),
                ),
            ] {
                let mut c = Tensor::zeros([0usize; 2]);
                matmul_transb_packed_into(&a, &bp, epi, &mut c).unwrap();
                let want = reference(m, n, k, a.data(), bt.data(), &epi);
                assert_eq!(c.data(), &want[..], "({m},{k},{n}) epilogue {name}");
            }
        }
    }

    #[test]
    fn kc_slabs_do_not_change_results() {
        // The single row against 136 columns (nine panels) runs two
        // grouped tiles and a ragged 1-panel one.
        for (m, k, n) in [(13usize, 37usize, 29usize), (1, 37, 136)] {
            let a = Tensor::from_vec(lcg(5, m * k), [m, k]).unwrap();
            let bt = Tensor::from_vec(lcg(6, n * k), [n, k]).unwrap();
            let bp = PackedB::from_transb(&bt).unwrap();
            let bias = lcg(7, n);
            let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Tanh));
            let mut base = Tensor::zeros([0usize; 2]);
            matmul_transb_packed_into_kc(&a, &bp, epi, &mut base, 1).unwrap();
            for kc in [2usize, 3, 8, 16, 64, 4096] {
                let mut c = Tensor::zeros([0usize; 2]);
                matmul_transb_packed_into_kc(&a, &bp, epi, &mut c, kc).unwrap();
                assert_eq!(c.data(), base.data(), "kc={kc}");
            }
        }
    }

    #[test]
    fn gemm_is_bitwise_identical_across_kc_slabs() {
        // k spans multiple default slabs; the single row against 136
        // columns resumes the grouped tiles' chains.
        for (m, k, n) in [(45usize, 530usize, 40usize), (1, 530, 136)] {
            let a = Tensor::from_vec(lcg(3, m * k), [m, k]).unwrap();
            let bt = Tensor::from_vec(lcg(4, n * k), [n, k]).unwrap();
            let bp = PackedB::from_transb(&bt).unwrap();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32).sin()).collect();
            let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Tanh));
            let mut base = Tensor::zeros([0usize; 2]);
            matmul_transb_packed_into_kc(&a, &bp, epi, &mut base, KC).unwrap();
            for kc in [1usize, 7, 64, 256, 1 << 20] {
                let mut c = Tensor::zeros([0usize; 2]);
                matmul_transb_packed_into_kc(&a, &bp, epi, &mut c, kc).unwrap();
                assert_eq!(c.data(), base.data(), "kc={kc}");
            }
        }
    }

    /// The narrow-N tiles under pool-width and `kc` sweeps, at every storage
    /// precision, on the stencil surrogate's two layer shapes with an `m`
    /// that is neither a multiple of the 16-row narrow block nor of the
    /// 8-row stripe grain — and a single row against 136 columns, which runs
    /// the grouped tiles (`k = 300` resumes them across the default slab). Pool
    /// totals {1, 2, 3, 8} move the stripe boundaries (every stripe starts
    /// its own run of 16-row blocks); `kc` decides the *path*: `k ≤ kc`
    /// takes the narrow tiles, `k > kc` has slabs to resume and takes the
    /// generic panel sweep — so equal bits across `kc` prove the two paths
    /// equal to each other, for the bf16 and int8 codecs as for full
    /// precision.
    #[test]
    fn narrow_gemm_bits_are_identical_across_pool_sizes_and_kc() {
        use crate::quant::{matmul_transb_qpacked_into_kc, Precision, QPackedB};
        type Run<'a> = &'a dyn Fn(usize, &mut Tensor<f32>);
        for (m, k, n) in [(4099usize, 5usize, 8usize), (4099, 8, 1), (1, 300, 136)] {
            let a = Tensor::from_vec(lcg(25, m * k), [m, k]).unwrap();
            let bt = Tensor::from_vec(lcg(26, n * k), [n, k]).unwrap();
            let bp = PackedB::from_transb(&bt).unwrap();
            let q16 = QPackedB::from_transb(&bt, Precision::Bf16).unwrap();
            let q8 = QPackedB::from_transb(&bt, Precision::Int8).unwrap();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.11 - 0.3).collect();
            let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Relu));
            let f32_run: Run = &|kc, c| matmul_transb_packed_into_kc(&a, &bp, epi, c, kc).unwrap();
            let bf16_run: Run =
                &|kc, c| matmul_transb_qpacked_into_kc(&a, &q16, epi, c, kc).unwrap();
            let int8_run: Run =
                &|kc, c| matmul_transb_qpacked_into_kc(&a, &q8, epi, c, kc).unwrap();
            for (rung, run) in [("f32", f32_run), ("bf16", bf16_run), ("int8", int8_run)] {
                let mut base = Tensor::zeros([0usize; 2]);
                run(KC, &mut base);
                for workers in [0usize, 1, 2, 7] {
                    let pool = hpacml_par::Pool::new(workers);
                    hpacml_par::with_pool(&pool, || {
                        for kc in [1usize, 3, 7, KC] {
                            let mut c = Tensor::zeros([0usize; 2]);
                            run(kc, &mut c);
                            assert_eq!(
                                c.data(),
                                base.data(),
                                "{rung} [{m},{k}]·[{k},{n}]: {} total threads, kc={kc} changed the bits",
                                workers + 1
                            );
                        }
                    });
                }
            }
        }
    }

    /// A fused bias of the wrong length is a `DimMismatch` from every
    /// tensor-level wrapper — pack-on-the-fly, pre-packed and quantized —
    /// on both axes, before `c` is touched; none of them may reach the
    /// driver's asserts.
    #[test]
    fn mis_sized_bias_is_an_error_on_every_wrapper() {
        use crate::quant::{matmul_transb_qpacked_into, Precision, QPackedB};
        let (m, k, n) = (6usize, 3usize, 4usize);
        let a = Tensor::from_vec(lcg(31, m * k), [m, k]).unwrap();
        let bt = Tensor::from_vec(lcg(32, n * k), [n, k]).unwrap();
        let bp = PackedB::from_transb(&bt).unwrap();
        let q16 = QPackedB::from_transb(&bt, Precision::Bf16).unwrap();
        let q8 = QPackedB::from_transb(&bt, Precision::Int8).unwrap();
        let (col, row) = (vec![0.0f32; n + 1], vec![0.0f32; m - 1]);
        for epi in [Epilogue::col_bias(&col), Epilogue::row_bias(&row)] {
            let mut c = Tensor::zeros([2usize, 2]);
            let results = [
                crate::ops::matmul_transb_into(&a, &bt, &mut c, epi),
                matmul_transb_packed_into(&a, &bp, epi, &mut c),
                matmul_transb_qpacked_into(&a, &q16, epi, &mut c),
                matmul_transb_qpacked_into(&a, &q8, epi, &mut c),
            ];
            for (i, r) in results.iter().enumerate() {
                assert!(
                    matches!(r, Err(TensorError::DimMismatch(_))),
                    "wrapper {i}, {:?}: {r:?}",
                    epi.bias
                );
            }
            assert_eq!(c.dims(), &[2, 2], "a rejected call must not resize c");
        }
    }

    /// Multi-row tiles (`M` of 8, 4 and 2) whose panels are all full store
    /// fixed-width rows; a ragged last panel is clipped. Both, resuming
    /// their chains across `kc` slabs, under every epilogue, against the
    /// naive reference.
    #[test]
    fn full_and_ragged_tiles_match_reference_across_kc() {
        for (m, k, n) in [(14usize, 300usize, 64usize), (14, 40, 70)] {
            let a = Tensor::from_vec(lcg(41, m * k), [m, k]).unwrap();
            let bt = Tensor::from_vec(lcg(42, n * k), [n, k]).unwrap();
            let bp = PackedB::from_transb(&bt).unwrap();
            let (bias_c, bias_r) = (lcg(43, n), lcg(44, m));
            for act in [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)] {
                for epi in [
                    Epilogue::none().with_act(act),
                    Epilogue::col_bias(&bias_c).with_act(act),
                    Epilogue::row_bias(&bias_r).with_act(act),
                ] {
                    let want = reference(m, n, k, a.data(), bt.data(), &epi);
                    for kc in [KC, 64, 7] {
                        let mut c = Tensor::zeros([0usize; 2]);
                        matmul_transb_packed_into_kc(&a, &bp, epi, &mut c, kc).unwrap();
                        assert_eq!(c.data(), &want[..], "({m},{k},{n}) kc={kc} {epi:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn k_zero_is_pure_epilogue() {
        let bias = vec![1.5f32, -2.0];
        let mut c = vec![9.0f32; 2 * 2];
        gemm_into(
            2,
            &[],
            &PackedB::from_transb(&Tensor::zeros([2usize, 0])).unwrap(),
            Epilogue::col_bias(&bias).with_act(Some(Act::Relu)),
            &mut c,
        );
        assert_eq!(c, vec![1.5, 0.0, 1.5, 0.0]);
    }

    #[test]
    fn block_heuristic_is_sane() {
        assert_eq!(par_rows_per_block(0, 10, 10), 1);
        // Invariants over a grid of shapes: always in 1..=m, and monotone
        // non-increasing in the per-row cost n*k.
        for &m in &[1usize, 7, 8, 64, 1024, 100_000] {
            let mut prev = usize::MAX;
            for &nk in &[1usize, 16, 128, 1024, 16_384, 262_144, 1 << 24] {
                let rows = par_rows_per_block(m, nk, 1);
                assert!((1..=m.max(1)).contains(&rows), "m={m} nk={nk} rows={rows}");
                assert!(rows <= prev, "m={m}: rows must not grow with n*k");
                prev = rows;
            }
        }
        // Bigger per-row cost => fewer (or equal) rows per task.
        assert!(par_rows_per_block(1024, 512, 512) <= par_rows_per_block(1024, 16, 16));
        // Row-heavy, flops-light problems still split into at least one
        // task per participant so the stealing cursor has work to level.
        let threads = hpacml_par::current_parallelism();
        let rows = par_rows_per_block(100_000, 4, 4);
        assert!(100_000usize.div_ceil(rows) >= threads);
        assert!(!par_worthwhile(1, 4096, 4096));
        assert!(par_worthwhile(64, 64, 64));
        // Saturation heuristic is a pure threshold at the pool width.
        assert!(!outer_saturates(threads - 1) || threads == 1);
        assert!(outer_saturates(threads));
        assert!(outer_saturates(threads + 5));
    }

    #[test]
    fn scratch_reserve_grows_once() {
        reserve_scratch::<f32>(1024, 2048);
        f32::with_gemm_scratch(|s| {
            assert!(s.packed_b.data.len() >= 1024);
            assert!(s.col.len() >= 2048);
        });
    }
}
