//! Cache-blocked, register-tiled GEMM with packed operand panels and fused
//! epilogues — the compute core of the inference hot path.
//!
//! # Why this module exists
//!
//! A naive kernel computes each output element with a single-accumulator
//! dot product. That loop carries a dependency on the accumulator, so the
//! CPU retires at best one add per float-add latency — a few percent of
//! machine peak — and every `Linear` layer then makes two *more* full
//! sweeps over its output for bias and activation. This module restructures
//! the same arithmetic into the classic BLIS-style hierarchy, and it is the
//! one kernel every dense product in the workspace runs on: the inference
//! forwards, and training's products in [`crate::ops`] (`matmul`, and the
//! convolution backward's dW and dcol), which pack their `B` per call:
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
//! stored and reloaded exactly — f32/f64 round-trips are lossless — and
//! stored unfinished: after the last slab one pass reads them back and
//! applies the codec's finishing scale, the bias and the activation, the
//! expressions a single-slab tile applies in registers). The result is
//! therefore **bit-identical** across:
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
//!   mul then add, then the one finish every tile compiles for its finish
//!   code (`finish_lanes`: the codec's scale, the bias, the activation) —
//!   for each of them, and
//! * whether a layer runs alone or inside a [`NarrowChain`], which runs the
//!   same chain per element with the rows on the lanes.
//!
//! NaN-ness is part of this contract: whether an output is NaN does not
//! depend on the tile shape it lands in, nor on whether its layer runs in
//! a chain, nor, for a convolution (`crate::ops::conv2d_fused_into`), on
//! whether its bias enters the chain first or last. Every tap is
//! multiplied, a padded one and one under a zero weight included, so an
//! infinite input makes every output that reads it through a zero weight
//! NaN (`tests/conv_one_route.rs`). A NaN's *payload* is not part of it.
//! When an add meets two NaNs, x86 returns one operand's payload, and the
//! optimizer may order a commutative add one way in one kernel and the
//! other way in another (an int8 `[16, 2, 4]` chain with
//! Tanh then Sigmoid gave `0x7fc00000` where its layers run one by one gave
//! `0xffc00000`). The tests that feed NaNs compare NaN-ness, not bits
//! (`nn`'s `chain_edge_bits`).
//!
//! # Blocking parameters
//!
//! | const | value | role |
//! |-------|-------|------|
//! | `MR`  | 8   | rows per register tile (accumulator block height) |
//! | `NR`  | 16  | columns per register tile and per packed panel |
//! | `KC`  | 256 | k-depth per cache slab (`NR*KC` B-panel ≤ 16 KiB f32); a single row takes all of `k` as one slab |
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
//! When a packed-`B`, row-major-`A` problem has `n ≤ NARROW_N`, a single
//! `k` slab (`k ≤ kc`: nothing to resume) and no per-row bias, each stripe
//! therefore runs its full `NARROW_MR`-row blocks on one of two narrow
//! tiles — `2 ≤ n ≤ 8`: 16 rows × 8 lanes with one contiguous store of the
//! whole C block; `n == 1`: the 16 rows themselves on the SIMD axis — and
//! only the `< NARROW_MR` remainder rows on the tiles above. The choice is
//! a pure function of `(n, k, kc)` and the bias kind; nothing selects it
//! from outside, and it holds at every storage precision. `k > kc`, and a
//! per-row bias (which only the convolution route fuses, at `n ≥ 32`), keep
//! the panel sweep.
//!
//! Like the sweep (*Register tiles*), the narrow tiles are compiled per
//! finish code — no bias or one per column, × the activation: 8 codes — and
//! finish through the sweep's `finish_lanes`: the 16 × 8 tile as one flat
//! pass of 128 lanes, its columns' scales and biases repeated on every row;
//! the column tile's 16 lanes with the column's one scale and bias
//! broadcast. Same process, 1 thread, 2-vCPU AVX-512 KVM guest, p50 of 300
//! alternating calls, two sets of five runs, output bits identical, new/old
//! against test-local copies of the tiles before them, which matched the
//! `Epilogue` at run time (the test
//! `narrow_tiles_against_runtime_epilogue_tiles_same_process` in
//! `tests/sweep_tiles.rs` prints them): `sweep_mlp`'s last layer
//! `[1024,64]·[64,1]` + bias 0.992–0.998; the stencil MLP's layers,
//! `[65536,5]·[5,8]` + bias + ReLU 0.80–0.89 (int8 0.83–0.86 in one set,
//! 1.01–1.03 in the other) and `[65536,8]·[8,1]` + bias 0.97–1.02 (bf16
//! 0.84–0.95); `[1024,128]·[128,4]` 0.98–1.01; `[37,8]·[8,5]` + bias +
//! Sigmoid 0.91–0.95; `[4096,64]·[64,8]` + bias + Tanh 0.86–1.01;
//! `[65536,8]·[8,1]` + Tanh 0.98–1.02. The host's load moved the p50s by
//! up to 1.7× between the sets; each ratio above 1 is inside its own arms'
//! run-to-run spread.
//!
//! Those tiles still serve one layer at a time, and a narrow MLP is a
//! chain of such layers: the stencil MLP writes its whole `[m, 8]` hidden
//! activation (2 MB at `m = 65 536`) only for the next layer to read it
//! back. [`NarrowChain`] runs a run of them **depth-first** instead: two or
//! more consecutive compiled `Linear` layers, each with `1 ≤ n ≤ NARROW_N`
//! outputs, the first with `1 ≤ k ≤ KC` inputs (so every layer is one
//! panel and one slab), at most eight at a time. A run of `NARROW_MR`-row
//! blocks goes through every layer in one loop, the rows on the SIMD lanes
//! and the weights broadcast (decoded once per call through each layer's
//! own codec), and only the last layer's output is written. Per block:
//!
//! * the first layer's features run as one group of 8 with all eight
//!   chains in registers over the block's inputs, or, for a narrower
//!   first layer, one feature at a time (a group per width 4, 2 and 1 as
//!   well cost ~100 KB more code and did not move the stencil);
//! * each first-layer feature is **finished as the second layer loads it**
//!   — the codec's scale, the bias, the activation, on that one lane
//!   vector — and enters the second layer's rank-1 step at once, so the
//!   hidden activation never leaves registers;
//! * the last layer is finished and stored once, straight into the output;
//! * a third or later layer reads its predecessor's unfinished
//!   accumulators from a 512-byte tile and finishes each as it loads it.
//!
//! Every activation is matched outside the loops: the body is compiled per
//! second-layer width and first-layer activation (32 bodies, chosen once
//! per call), a group's scale once per group, the last layer's activation
//! once per block. The rule is a pure function of the layer widths (`nn`'s
//! forward applies it; a single narrow layer keeps the tiles above); each
//! element still runs its layer's chain — `acc = 0`, `acc + a*w` in
//! ascending `k`, then the codec's finish (int8: `× scale`), then bias,
//! then activation — so the bits are those of the layers run one by one,
//! at every precision, row count and pool width. Same process, 1 thread,
//! 2-vCPU AVX-512 KVM guest, p50 of 300 alternating calls, output bits
//! identical: `[65536,5]` · 5→8 + ReLU → 8→1, layer by layer 692–832 µs,
//! chained 477–676 µs (three runs, on a busier host than the older figures
//! in this section; the test `chain_against_layer_by_layer_same_process` in
//! `nn` prints them). From a row-major tensor the chain pays a transposition
//! of every block's inputs into lanes, which the in-place form does not.
//!
//! The chain has one body for every form its input comes in: each block's
//! `k` input features are `k` lane vectors where they lie. From application
//! memory read in place ([`InputColumns`], the runtime's *implicit gather*)
//! each feature of a block is 16 contiguous floats — a stencil's five
//! slices of one grid row are five such columns — so the bridge never
//! writes the `[m, k]` tensor. A row-major `[m, k]` tensor is laid out
//! feature by feature in a stack tile a strip of rows at a time. Rows of a
//! block that would cross from one run of columns into the next, and a
//! ragged tail, are copied feature by feature into a zero-padded block.
//! Same process, 1 thread, 2-vCPU AVX-512 KVM guest, p50 of 300 alternating
//! calls, output bits identical, the 258² 5-point stencil through 5→8 +
//! ReLU → 8→1: the chain on the grid's columns 252–380 µs (six runs; the
//! test `in_place_against_gather_same_process` in `core` prints it beside
//! bridge gather + chain); the session's whole op 200–354 µs against
//! 141–204 µs for the same arithmetic written out by hand as one
//! straight-line kernel that stores into the grid, 1.41–1.73× (six runs;
//! the test `chain_against_straight_line_same_process` in `core`). The body before
//! this one, layer by layer per block with each layer's tile finished into
//! a hand-off tile feature by feature through a per-feature activation
//! match, ran that op at 2.7–3.4× the kernel in the same test.
//!
//! The chain keeps the *Register tiles* rules below, transposed: the
//! accumulators' contiguous axis is the rows, so the row loop is outermost
//! in each `k` step (it vectorizes; the features unroll inside it) and the
//! block's inputs are cut to exactly `k` before the loop. After the loop a
//! group's features are finished one lane vector at a time, each a copy,
//! with every per-feature operand (scale, bias, weight row) cut to the
//! group's width first, so the feature loop has no branch and no panicking
//! edge. With the rows inner instead, the `k` loop stayed scalar with every
//! accumulator in memory, 3× slower than the per-layer GEMMs.
//!
//! Tried and measured on the same stencil, and not kept (ratio to the
//! straight-line kernel): `#[inline(always)]` on the old per-layer
//! functions, ~2.6×; sweeping each layer over a strip of 16 blocks, ~2.5×;
//! thread-local hand-off tiles, slower; finishing a layer's whole `N`-
//! feature tile at once, 1.7× slower than finishing it feature by feature
//! (it vectorized across the features, through gathers); a ReLU/row-bias
//! fast path inside the old per-feature finish, 1.2× slower; the first
//! layer one feature at a time (its `k` chain alone, then straight into the
//! second layer), ~2.1×, since every feature re-read the block's inputs
//! and the feature loop kept its scale branch; a group's features finished
//! through a hand-unrolled closure per feature, ~4×.
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
//! A single row also walks `k` as **one slab** (`slab_depth`): a `KC`
//! slab keeps a `B` panel in L1 for the next rows, and one row has none, so
//! its slabs only cut each tile's `k` loop short — at `k = n = 4096`,
//! 1 024 tile calls of 256 steps, each storing and reloading its 64
//! partials, instead of 64 calls of 4 096. The default entry points choose
//! the depth from `(m, k)`; the `_kc` hooks keep honouring an explicit one,
//! so the tests still resume 1-row slabs.
//!
//! # Register tiles
//!
//! The panel sweep runs a row stripe's `kc` slab as a run of `M`-row
//! blocks (`MR`, then 4, 2 and 1 for the rows left). One call per block,
//! `block_sweep`, sweeps every `NR`-wide panel of the slab in one pass: the
//! block's rows of `A` are cut to the slab once, then `MR / M` panels per
//! tile (at most `ROW_GROUP`, so the 4- and 2-row tiles hold as many chains
//! as the `MR`-row one), the panels left one at a time, and a ragged last
//! panel through a full-width local tile. What is fixed for the call is
//! fixed at compile time: the sweep is compiled per *finish code*, the
//! bias kind × activation of a single slab, or a slab before the last (see
//! *Determinism*), so a tile's finish — the codec's scale, the bias, the
//! activation — is straight-line code with no match and no `Option`, and a
//! codec's scales, or a bias the code does not have, are never read. The
//! tile itself (`micro_tile`) is inlined into the block.
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
//!    copy, indexed by row. Finished in place, or copied whole, they stayed
//!    in memory; stored through `chunks_mut(ldc)`, the row loop stayed
//!    rolled and the tile went through the stack after the `k` loop (layer
//!    0 below went from 1.02–1.07× to 1.43–1.58× the straight-line kernel).
//!
//! In the release build no `k` loop of any f32, bf16 or int8 block moves an
//! accumulator through the stack; the 2- and 4-row blocks' one-panel tiles
//! reload one to three loop counters from it per step.
//!
//! Same process, 1 thread, 2-vCPU AVX-512 KVM guest, p50 of 300 alternating
//! calls, output bits identical, against a test-local straight-line kernel
//! that runs the same arithmetic one 8-row block at a time (the test
//! `sweep_mlp_layers_against_straight_line_same_process` in
//! `tests/sweep_tiles.rs` prints it; five runs): `sweep_mlp`'s first
//! layer, `[1024,6]·[6,128]` + bias + ReLU, 43–63 µs, 1.02–1.04× the kernel
//! (2.74–2.79× with the sweep before this one, which called an out-of-line
//! tile per panel and matched the epilogue per row); the second,
//! `[1024,128]·[128,64]` + bias + ReLU, 303–473 µs, 1.01–1.02×
//! (1.03–1.05×); `[1024,1]·[1,128]` + bias + ReLU 4.6–5.1× with the old
//! sweep. At `k = 1` the time is the 512 KB store stream, so the ratio read
//! the cache state each arm found its output in (1.13–1.14× run alone, 2.1×
//! after the three layers). Both arms now write one output, rewritten
//! before each timed call, so they start from the same memory in the same
//! cache state; from it (two sets of five runs) the first layer reads
//! 1.04–1.08× the kernel, the second 1.00–1.04×, the third,
//! `[1024,64]·[64,1]` + bias on the column tile, 1.01–1.04×, and `k = 1`
//! 1.11–1.17× (1.05× with the `k = 1` layer run alone). What is left of
//! that spread follows where the allocator starts the output within a
//! 64-byte line, which the test prints: `k = 1` read 1.05× at +16 and
//! 1.11–1.17× at +0, and with an output per arm, at two different offsets,
//! the first layer read 0.97–0.98×.
//!
//! Tried on the sweep before this one, and not kept: `#[inline(always)]`
//! on the tile (it inlined into the whole stripe body), slower;
//! `#[inline(never)]` on the panel loop with the tile inlined into it, no
//! change; a per-row column bias + ReLU in place of the tile's epilogue,
//! layer 1 twice as slow (the accumulators left the registers); `k` as a
//! const generic, fast at `k = 6` and slower than the sweep at 5 and 8
//! (codegen luck). The sweeps compiled per finish code cost code: 166
//! `block_sweep` instances, 468 KB, in a release binary that serves f32,
//! bf16 and int8 (`benchmark/`'s binary grew from 2.24 to 2.71 MB). So do
//! the narrow tiles compiled per finish code (*Skinny shapes*): 48
//! instances (`narrow_tile` and `column_tile` × 3 codecs × 8 codes), 76 KB,
//! where their six run-time-epilogue forms took 35 KB (`benchmark/`'s
//! binary: 2.71 → 2.78 MB).
//!
//! # Panel codecs
//!
//! There is one macro-kernel. Everything in it — operand checks, the stripe
//! split, the `kc` slab loop, the `MR`/4/2/1 step-down and its panel
//! grouping, the narrow tiles, the narrow chain, every tile's finish and
//! the clipped store — is generic over a crate-private `PanelCodec`, which says
//! the two things that differ between storage precisions: the `B` load (how
//! one stored element of a packed panel becomes the value of `T` the
//! accumulator chains multiply) and the finish (how a column's chain, after
//! its last `k` and before bias and activation, becomes its output). Full
//! precision is the identity codec (the load itself, no finish);
//! [`crate::quant`] supplies the bf16 one (a shift, no finish) and the int8
//! one (the stored integer as `f32`, then `× scale[j]` once per column:
//! per-channel scaling after the accumulation, which spares every weight a
//! multiply). The chain between load and finish is the same code at every
//! precision; a bf16 rung is bit-identical to this kernel run on its
//! decoded weights, an int8 rung to it run on the integers and then scaled.
//! Same process, 1 thread, 2-vCPU AVX-512 KVM guest, p50 of 200 alternating
//! calls, `m = 1, k = n = 4096` + bias + ReLU, bits asserted against each
//! oracle: int8 1 470–1 660 µs, against 1 890–2 130 µs for every weight
//! decoded to `q·scale` in `KC` slabs and 1 810–2 190 µs for bf16 (seven
//! runs; the test `int8_against_decode_scaled_int8_and_bf16_same_process`
//! in `quant` prints them).

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

/// The slab depth the default entry points use for an `[m, k]` left-hand
/// side: [`KC`], except that a single row walks all of `k` as one slab. A
/// slab pays off only when several rows reuse it, and one row reuses
/// nothing, so its slabs bought only tile calls (module docs, *Batch-1
/// rows*). A pure function of `(m, k)`; slabs never change a bit.
pub(crate) fn slab_depth(m: usize, k: usize) -> usize {
    if m == 1 {
        k.max(1)
    } else {
        KC
    }
}

// ---------------------------------------------------------------------------
// Parallel blocking heuristic (shared by the GEMM and the narrow chain)
// ---------------------------------------------------------------------------

/// Parallelism threshold: below this many multiply-adds a kernel runs
/// inline on the calling thread — dispatch overhead would dominate.
///
/// Measured basis (tuned against the work-stealing pool on the shapes
/// `benchmark/`'s `sweep_mlp` runs — MLP 6-128-64-1, batch 1024): one pool
/// dispatch costs on the order of a few microseconds (publish + wake +
/// barrier). The tuning assumed a few multiply-adds per cycle, ~32 Ki
/// multiply-adds ≈ 10 µs of work. The register tiles now sustain 18–28 G
/// multiply-adds/s (`[1024,128]·[128,64]` in 303–473 µs on a shared 2-vCPU
/// AVX-512 KVM guest, module docs *Register tiles*), so 32 Ki is 1–2 µs —
/// below one dispatch, and the break-even by this arithmetic lies several
/// times higher. Not re-tuned: two shared vCPUs cannot measure a parallel
/// break-even.
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

/// The one block-size heuristic shared by every row-parallel kernel (the
/// GEMM's stripes and the narrow chain's):
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
/// Keeping both on this single function means their task granularities
/// cannot drift apart as the constants are tuned.
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
        // Saturating: a size hint for a shape no buffer can hold stays too
        // large to reserve instead of wrapping to a small one.
        n.div_ceil(NR).saturating_mul(k).saturating_mul(NR)
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
        pack_transb_panels(bt, n, k, &mut self.data);
    }

    /// Pack from row-major `[k, n]` storage — `B` as it stands (the
    /// training GEMMs' weights and output gradients): row `kk` of panel `p`
    /// is the contiguous run `b[kk·n + p·NR ..][..NR]`, and the ragged last
    /// panel's lanes past column `n` are zero.
    pub(crate) fn pack_kn_into(&mut self, b: &[T], k: usize, n: usize) {
        assert_eq!(b.len(), k * n, "pack_kn_into: bad B length");
        self.prepare(k, n);
        if k == 0 || n == 0 {
            return;
        }
        let panels = &mut self.data[..Self::packed_elems(k, n)];
        for (p, panel) in panels.chunks_exact_mut(k * NR).enumerate() {
            let (j0, live) = (p * NR, NR.min(n - p * NR));
            for (out, row) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
                out[..live].copy_from_slice(&row[j0..j0 + live]);
                out[live..].fill(T::ZERO);
            }
        }
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

    /// A `[k, n]` pack of zeros (padding lanes included) for
    /// [`PackedB::write_rows`] to fill: a model loader decodes each weight
    /// frame straight into one, so the row-major matrix never exists.
    pub fn zeroed(k: usize, n: usize) -> Self {
        PackedB {
            k,
            n,
            data: vec![T::ZERO; Self::packed_elems(k, n)],
        }
    }

    /// Write row-major elements `first..first + values.len()` of the
    /// `[n, k]` (transb) matrix this pack holds, each straight to its panel
    /// lane: element `e` goes to `((e / k) / NR · k + e % k) · NR + (e / k) % NR`.
    /// A range may start and end mid-row. Panics past element `n · k`.
    pub fn write_rows(&mut self, first: usize, values: impl ExactSizeIterator<Item = T>) {
        for (at, v) in self.row_major(first, values.len()).zip(values) {
            self.data[at] = v;
        }
    }

    /// The `[n, k]` (transb) matrix this pack holds, read back in row-major
    /// order from element `first` to the end: the inverse of
    /// [`PackedB::write_rows`]. Panics past element `n · k`.
    pub fn read_rows(&self, first: usize) -> impl ExactSizeIterator<Item = T> + '_ {
        let count = (self.k * self.n).checked_sub(first);
        let lanes = self.row_major(first, count.expect("PackedB::read_rows: past the end"));
        lanes.map(|at| self.data[at])
    }

    /// The panel index of each of `count` row-major elements from `first` on.
    fn row_major(&self, first: usize, count: usize) -> RowMajor {
        assert!(
            first
                .checked_add(count)
                .is_some_and(|end| end <= self.k * self.n),
            "PackedB: row-major range {first}+{count} past [{}, {}]",
            self.n,
            self.k
        );
        let k = self.k.max(1);
        let (row, col) = (first / k, first % k);
        RowMajor {
            k,
            row,
            col,
            at: (row / NR * k + col) * NR + row % NR,
            left: count,
        }
    }

    /// The stored panels, `packed_elems(k, n)` of them: the grow-only
    /// buffer may hold more from an earlier, larger pack.
    pub fn panel_data(&self) -> &[T] {
        &self.data[..Self::packed_elems(self.k, self.n)]
    }

    /// This pack as the driver sees it: stored panels read by the identity
    /// codec, which wants no scales.
    fn view(&self) -> Panels<'_, T, T> {
        Panels {
            data: self.panel_data(),
            scales: &[],
        }
    }
}

/// Panel indices of consecutive row-major elements of a packed `[n, k]`:
/// `NR` apart along a row, recomputed only when a row ends.
struct RowMajor {
    k: usize,
    row: usize,
    col: usize,
    at: usize,
    left: usize,
}

impl Iterator for RowMajor {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let at = self.at;
        self.col += 1;
        if self.col == self.k {
            (self.row, self.col) = (self.row + 1, 0);
            self.at = self.row / NR * self.k * NR + self.row % NR;
        } else {
            self.at += NR;
        }
        Some(at)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RowMajor {}

/// Fill `NR`-wide `k`-major panels (`dst[(p*k + kk)*NR + j]`) from row-major
/// `[n, k]` ("transb") storage — the one transpose a weight matrix gets.
/// Lanes past column `n` are stored as zero. The reduced-precision packs
/// are encoded from these panels ([`crate::quant::QPackedB::from_packed`]),
/// never from the row-major weights.
fn pack_transb_panels<T: Scalar>(bt: &[T], n: usize, k: usize, dst: &mut [T]) {
    assert_eq!(bt.len(), n * k, "pack_transb_panels: bad B length");
    if k == 0 {
        return;
    }
    let full = n / NR;
    let (full_panels, ragged) = dst[..n.div_ceil(NR) * k * NR].split_at_mut(full * k * NR);
    // Full panels: the 16 source rows are cut to `k` up front, so the
    // `kk` loop is branch-free.
    for (panel, rows) in full_panels
        .chunks_exact_mut(k * NR)
        .zip(bt.chunks_exact(k * NR))
    {
        let rows: [&[T]; NR] = std::array::from_fn(|j| &rows[j * k..(j + 1) * k]);
        for (kk, out) in panel.chunks_exact_mut(NR).enumerate() {
            for (v, row) in out.iter_mut().zip(&rows) {
                *v = row[kk];
            }
        }
    }
    // The ragged last panel: `n % NR` live lanes, then zeros.
    let live = n % NR;
    for (kk, out) in ragged.chunks_exact_mut(NR).enumerate() {
        for (j, v) in out.iter_mut().enumerate() {
            *v = if j < live {
                bt[(full * NR + j) * k + kk]
            } else {
                T::ZERO
            };
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

/// What differs between storage precisions (see the module docs): how one
/// stored `B`-panel element becomes the value the accumulator chains
/// multiply, and how a column's finished chain becomes its output. `scale`
/// is the element's column scale (`1` for a codec without a scale table).
/// Both are pure per-element functions, so the tiles decode whole rows, or
/// several panels' rows side by side, with one flat loop; implementations
/// are `#[inline(always)]`.
pub(crate) trait PanelCodec<T: Scalar> {
    /// Stored element type.
    type Q: Copy + Send + Sync;
    /// Whether a column's finished chain is multiplied by its scale (int8:
    /// the chain runs on the stored integers), or is the output as it stands.
    const SCALED: bool = false;
    fn decode(raw: Self::Q, scale: T) -> T;
    /// A column's chain after its last `k`, ahead of bias and activation:
    /// `acc * scale` for a [`SCALED`](Self::SCALED) codec, `acc` otherwise.
    /// Only the last slab applies it, so the partials that cross `KC` slabs
    /// in `C` are unscaled.
    #[inline(always)]
    fn finish(acc: T, scale: T) -> T {
        if Self::SCALED {
            acc * scale
        } else {
            acc
        }
    }
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

// ---------------------------------------------------------------------------
// Micro-kernel
// ---------------------------------------------------------------------------

/// Panels a single-row tile sweeps at once (module docs, *Batch-1 rows*).
/// Measured basis, 1-panel → 4-panel tile (`m = 1, k = n = 4096`,
/// 1 thread, 2-vCPU AVX-512 KVM guest, p50 of 300 calls, median of five
/// alternating runs, output bits identical): int8 2.15 → 1.44 ms, bf16
/// 2.35 → 1.29 ms, f32 2.8–3.0 → 2.61 ms, with `k` in `KC` slabs and int8
/// decoding every weight to `q·scale`. Since a single row walks `k` as one
/// slab and int8 scales after the chain, the int8 tile is faster than the
/// bf16 one (module docs, *Panel codecs*, for its same-process A/B).
const ROW_GROUP: usize = 4;

/// The finish code ([`epi_code`]) of the first of several `kc` slabs: its
/// chains start at zero and are stored as they stand, unscaled.
const PARTIAL: usize = 12;

/// The finish code of every later slab: its chains resume from the
/// partials in `C` and are stored as they stand; once the last is stored,
/// [`finish_pass`] applies the epilogue.
const RESUME: usize = 13;

/// The finish code of a single-slab sweep with epilogue `epi`: `4 · bias +
/// act`, `bias` 0 none, 1 per column, 2 per row, `act` an [`act_of`] code.
/// The sweep and the narrow tiles are compiled per code (`by_fin!`), so
/// every choice a tile makes after its `k` loop is a constant there.
fn epi_code<T>(epi: &Epilogue<'_, T>) -> usize {
    let bias = match epi.bias {
        Bias::None => 0,
        Bias::Col(_) => 1,
        Bias::Row(_) => 2,
    };
    4 * bias + act_code(epi.act)
}

/// `$f::<T, C, FIN>(args…)` with `FIN` the finish code `$code`, a constant
/// in every arm: any code, or (`narrow`) one of the [`NARROW_CODES`].
macro_rules! by_fin {
    (narrow $code:expr, $f:ident::<$t:ty, $c:ty> $args:tt) => {
        by_fin!(@arms $code, $f, $t, $c, $args, [0 1 2 3 4 5 6] 7)
    };
    ($code:expr, $f:ident::<$t:ty, $c:ty> $args:tt) => {
        by_fin!(@arms $code, $f, $t, $c, $args, [0 1 2 3 4 5 6 7 8 9 10 11 12] RESUME)
    };
    (@arms $code:expr, $f:ident, $t:ty, $c:ty, $args:tt, [$($fin:literal)*] $last:expr) => {
        match $code {
            $($fin => $f::<$t, $c, $fin> $args,)*
            _ => $f::<$t, $c, { $last }> $args,
        }
    };
}

/// The register-tiled micro-kernel: an `M`-row accumulator tile over `P`
/// side-by-side `NR`-wide panels (`M × P·NR` chains) and one slab.
///
/// * `a[i][kk]` is `A[row0+i, k0+kk]`: the block's `M` rows, cut to the
///   slab's `klen` (row-major `A`, read in place).
/// * `C::decode(b[q][kk][j], scales[q][j])` is `B[k0+kk, j0 + q·NR + j]`:
///   panel `q`'s stored rows, cut to the slab.
/// * `c` holds the tile's rows of `C` from its first column, `ldc` apart,
///   every panel row `NR` wide (a ragged panel comes through a full-width
///   local tile); a [`RESUME`] slab starts the chains from the partials
///   there.
/// * `col_bias[q]`, `row_bias[i]`: the lanes' and rows' biases, read only
///   if `FIN` has them ([`finish_lanes`]).
///
/// Every `acc[i][q][j]` is one add-chain in ascending `kk`, then the finish —
/// the determinism contract of the module — so how many rows or panels
/// share a tile never changes a bit.
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
///    is finished as a value and stored with one fixed-width copy. Finishing
///    `acc` in place keeps it in memory, and the loop then stores it on
///    every step.
///
/// Inlined into [`block_sweep`], the optimization unit: what the tile does
/// not use (a codec's scales it never reads, a bias `FIN` does not have) is
/// dead code there, not an argument.
#[inline(always)]
fn micro_tile<T: Scalar, C: PanelCodec<T>, const FIN: usize, const M: usize, const P: usize>(
    a: &[&[T]; M],
    b: [&[[C::Q; NR]]; P],
    scales: [[T; NR]; P],
    col_bias: [&[T; NR]; P],
    row_bias: &[T; M],
    c: &mut [T],
    ldc: usize,
) {
    let klen = a[0].len();
    let b: [&[[C::Q; NR]]; P] = std::array::from_fn(|q| &b[q][..klen]);
    let mut acc = [[[T::ZERO; NR]; P]; M];
    if FIN == RESUME {
        for (i, arow) in acc.iter_mut().enumerate() {
            for (q, v) in arow.iter_mut().enumerate() {
                v.copy_from_slice(&c[i * ldc + q * NR..][..NR]);
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
    for (i, (arow, &rb)) in acc.iter().zip(row_bias).enumerate() {
        for (q, &v) in arow.iter().enumerate() {
            let mut v = v;
            finish_lanes::<T, C, FIN, NR>(&mut v, &scales[q], col_bias[q], rb);
            c[i * ldc + q * NR..][..NR].copy_from_slice(&v);
        }
    }
}

/// `W` lanes of finished chains, as finish code `FIN` ([`epi_code`]) wants
/// them: the codec's [`PanelCodec::finish`] (`scales`: each lane's column
/// scale), then the bias (`col`: each lane's per-column bias, `row`: the
/// row's), then the activation; nothing on a slab before the last
/// ([`PARTIAL`], [`RESUME`]). Every choice is a constant of `FIN`, so the
/// lanes are straight-line code. Every tile finishes here: a sweep tile one
/// panel row at a time (`W = NR`), the narrow tiles their whole block in
/// one pass ([`narrow_blocks`]).
#[inline(always)]
fn finish_lanes<T: Scalar, C: PanelCodec<T>, const FIN: usize, const W: usize>(
    v: &mut [T; W],
    scales: &[T; W],
    col: &[T; W],
    row: T,
) {
    if FIN >= PARTIAL {
        return;
    }
    // Scale and bias in one loop: the narrow tile's 128 lanes are finished
    // in memory, where a pass per step re-read the tile (int8
    // `[65536,5]·[5,8]` + bias + ReLU measured 0.90–1.09× the old tile
    // that way, 0.83–0.94× in one loop).
    for ((x, &s), &b) in v.iter_mut().zip(scales).zip(col) {
        let y = C::finish(*x, s);
        *x = match FIN / 4 {
            1 => y + b,
            2 => y + row,
            _ => y,
        };
    }
    act_lanes(const { act_of(FIN % 4) }, v);
}

/// `act` on every lane of `v`, by the epilogue's formulas ([`Act::apply`]).
/// The callers pass a compile-time `act`, so the match folds away.
#[inline(always)]
fn act_lanes<T: Scalar, const W: usize>(act: Option<Act>, v: &mut [T; W]) {
    match act {
        None => {}
        Some(Act::Sigmoid) => sigmoid_lanes(v),
        Some(act) => {
            for x in v.iter_mut() {
                *x = act.apply(*x);
            }
        }
    }
}

/// [`Act::Sigmoid`] on every lane of `v`. Its `exp` is a libm call per lane,
/// so inlining it buys nothing; out of line, the compiled sweeps and chain
/// bodies do not each carry a call per lane.
#[inline(never)]
fn sigmoid_lanes<T: Scalar, const W: usize>(v: &mut [T; W]) {
    for x in v.iter_mut() {
        *x = Act::Sigmoid.apply(*x);
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
/// process, medians, when the narrow tiles came in): `[65536,5]·[5,8]` +
/// bias + ReLU 970–1155 µs on the `MR × NR` tile, 255–294 µs on the narrow
/// one; `[65536,8]·[8,1]` 740–820 µs against 171–191 µs;
/// `[65536,64]·[64,1]` 3.3–4.0 ms against 1.5–1.9 ms. Compiled per finish
/// code, the narrow tiles take 0.80–0.89× and 0.97–1.02× of their former
/// time on the first two shapes (module docs, *Skinny shapes*).
pub(crate) const NARROW_N: usize = NR / 2;

/// Rows per narrow block. Half-width lanes leave room for twice [`MR`]
/// accumulator rows in the same registers, halving the per-tile overhead;
/// for `n == 1` it is the number of rows riding the SIMD axis (one
/// 16-element store per tile).
const NARROW_MR: usize = 2 * MR;

/// One [`narrow_tile`]'s values: [`NARROW_MR`] rows of [`NARROW_N`] lanes.
type NarrowTile<T> = [[T; NARROW_N]; NARROW_MR];

/// Lanes of one [`NarrowTile`], finished as one flat row.
const NARROW_TILE: usize = NARROW_MR * NARROW_N;

/// The finish codes ([`epi_code`]) the narrow tiles are compiled for: no
/// bias or one per column, with each activation. A narrow problem with a
/// per-row bias runs on the sweep; no production caller makes one (the
/// only per-row bias is the convolution forward's, which adds it in the
/// epilogue only at `n ≥ 2·NR` output pixels).
const NARROW_CODES: usize = 8;

/// Run every full [`NARROW_MR`]-row block of a single-slab, `n ≤ NARROW_N`
/// stripe `s` on the narrow tiles compiled for finish code `FIN` (one of
/// the [`NARROW_CODES`]) and return how many rows that covered (the sweep
/// takes the `< NARROW_MR` rows left). `c` is the stripe's C block
/// (`ldc == n`); `k > 0`.
///
/// * `2 ≤ n ≤ NARROW_N`: [`narrow_tile`], `NARROW_MR` rows × `NARROW_N`
///   lanes against the head of the panel, its lanes' scales and biases
///   repeated on every row.
/// * `n == 1`: [`column_tile`], rows on the SIMD axis, the column's one
///   scale and bias broadcast across them.
///
/// Both keep one ascending-`k` `acc += a*w` chain per element and finish it
/// through [`finish_lanes`], so the bits equal the panel sweep's.
fn narrow_blocks<T: Scalar, C: PanelCodec<T>, const FIN: usize>(
    s: &Slab<'_, T, C::Q>,
    c: &mut [T],
) -> usize {
    let (k, n) = (s.k, s.n);
    let scales = panel_scales(s.b.scales, 0);
    let mut bias = [T::ZERO; NARROW_N];
    if FIN / 4 == 1 {
        bias[..n].copy_from_slice(s.col_bias);
    }
    let head: [T; NARROW_N] = scales[..NARROW_N].try_into().expect("NARROW_N scales");
    let blocks =
        s.a.chunks_exact(NARROW_MR * k)
            .zip(c.chunks_exact_mut(NARROW_MR * n));
    if n == 1 {
        let (scales, bias) = ([scales[0]; NARROW_MR], [bias[0]; NARROW_MR]);
        for (ab, cb) in blocks {
            column_tile::<T, C, FIN>(ab, k, s.b.data, &scales, &bias, cb);
        }
    } else {
        let (scales, bias) = ([head; NARROW_MR], [bias; NARROW_MR]);
        for (ab, cb) in blocks {
            narrow_tile::<T, C, FIN>(ab, k, s.b.data, &scales, &bias, cb, n);
        }
    }
    c.len() / n / NARROW_MR * NARROW_MR
}

/// The `2 ≤ n ≤ NARROW_N` tile: [`NARROW_MR`] rows × [`NARROW_N`] lanes over
/// the whole (single-slab) `k`. `a` is the block's `NARROW_MR × k` rows,
/// `panel[kk * NR ..]` the stored `B` row `kk`, `c` the block's contiguous
/// `NARROW_MR × n` outputs, and `scales`/`bias` every element's column scale
/// and bias (the same row of them 16 times). Same chain per element as [`micro_tile`]
/// (`acc += a * w`, ascending `kk`, mul then add, then [`finish_lanes`]) on
/// the first `NARROW_N` decoded lanes; lanes past `n` multiply the panel's
/// zero padding and are dropped by the store.
#[inline(never)] // a small standalone optimization unit, like block_sweep.
fn narrow_tile<T: Scalar, C: PanelCodec<T>, const FIN: usize>(
    a: &[T],
    k: usize,
    panel: &[C::Q],
    scales: &NarrowTile<T>,
    bias: &NarrowTile<T>,
    c: &mut [T],
    n: usize,
) {
    let scales: &[T; NARROW_TILE] = scales.as_flattened().try_into().expect("16 × 8 lanes");
    let bias: &[T; NARROW_TILE] = bias.as_flattened().try_into().expect("16 × 8 lanes");
    // The k loop follows the micro-kernel's first two rules (module docs,
    // *Register tiles*): views cut to exactly `k`, lanes outer and rows
    // inner. With the rows outer, some builds kept the row loop rolled and
    // the tile on the stack.
    let rows: [&[T]; NARROW_MR] = std::array::from_fn(|i| &a[i * k..][..k]);
    let panel = &panel.as_chunks::<NR>().0[..k];
    let mut acc = [[T::ZERO; NARROW_N]; NARROW_MR];
    for (kk, braw) in panel.iter().enumerate() {
        let av: [T; NARROW_MR] = std::array::from_fn(|i| rows[i][kk]);
        // The whole stored row decoded, its first NARROW_N lanes used
        // (decoding only those, the int8 5→8 tile measured slower).
        let brow: [T; NR] = std::array::from_fn(|j| C::decode(braw[j], scales[j]));
        for (j, &bv) in brow[..NARROW_N].iter().enumerate() {
            for (arow, &a) in acc.iter_mut().zip(&av) {
                arow[j] += a * bv;
            }
        }
    }
    // Finished on a copy, which keeps `acc` in registers through the k loop,
    // as one flat pass over the whole tile (in 16-lane pieces instead,
    // `[65536,5]·[5,8]` + bias + ReLU took 1.6–1.8× as long), and stored row
    // by row: as one 512-byte copy the store was a `memcpy` call whose cost
    // moved with the frame's alignment from build to build.
    let mut tile = acc;
    let lanes: &mut [T; NARROW_TILE] = tile.as_flattened_mut().try_into().expect("16 × 8 lanes");
    finish_lanes::<T, C, FIN, NARROW_TILE>(lanes, scales, bias, T::ZERO);
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
/// `acc[i] += a[i, kk] * w[kk]`, finished through [`finish_lanes`] with the
/// column's scale and bias on every lane (`scales`, `bias`), and one
/// contiguous store — against [`micro_tile`]'s one live lane in [`NR`]. `a`
/// is the block's `NARROW_MR × k` rows, lane 0 of `panel[kk * NR ..]` the
/// column's stored weight `w[kk]`.
#[inline(never)] // a small standalone optimization unit, like block_sweep.
fn column_tile<T: Scalar, C: PanelCodec<T>, const FIN: usize>(
    a: &[T],
    k: usize,
    panel: &[C::Q],
    scales: &[T; NARROW_MR],
    bias: &[T; NARROW_MR],
    c: &mut [T],
) {
    let mut acc = [T::ZERO; NARROW_MR];
    let rows: [&[T]; NARROW_MR] = std::array::from_fn(|i| &a[i * k..(i + 1) * k]);
    for (kk, wraw) in panel.chunks_exact(NR).take(k).enumerate() {
        let wv = C::decode(wraw[0], scales[0]);
        for (v, row) in acc.iter_mut().zip(&rows) {
            *v += row[kk] * wv;
        }
    }
    finish_lanes::<T, C, FIN, NARROW_MR>(&mut acc, scales, bias, T::ZERO);
    c.copy_from_slice(&acc);
}

// ---------------------------------------------------------------------------
// Narrow chains
// ---------------------------------------------------------------------------

/// The most layers one [`NarrowChain`] holds. Its decoded weights live on
/// the stack (`KC` rows for the first layer, `NARROW_N` for each later
/// one, ≈ 10 KiB in all); a longer run of narrow layers is served as
/// several chains, each materializing only its last output.
const CHAIN_MAX: usize = 8;

/// Row `kk` of a chain layer's weights decoded to f32: `B[kk, 0..NARROW_N]`,
/// zero past the layer's `n` (the panel's padding, decoded).
type WeightRow = [f32; NARROW_N];

/// One feature of a [`NARROW_MR`]-row block, the rows on the lanes.
type Lanes = [f32; NARROW_MR];

/// A third or later chain layer's hand-off tile for one row block: `h[j][r]`
/// is the unfinished chain of feature `j`, row `r` (features past the
/// layer's `n` are unused).
type Hidden = [Lanes; NARROW_N];

/// The stored weights of one chain layer, at the precision it serves.
#[derive(Clone, Copy)]
enum StageWeights<'a> {
    F32(&'a PackedB<f32>),
    Quant(&'a crate::quant::QPackedB),
}

/// One `Linear` layer as a [`NarrowChain`] runs it: `y = act(x·Wᵀ + b)` from
/// its packed weights (full precision or a quantized rung, decoded through
/// that pack's own codec), its bias and its fused activation.
#[derive(Clone, Copy)]
pub struct NarrowStage<'a> {
    weights: StageWeights<'a>,
    bias: &'a [f32],
    act: Option<Act>,
}

impl<'a> NarrowStage<'a> {
    /// A layer served from full-precision panels.
    pub fn new(weights: &'a PackedB<f32>, bias: &'a [f32], act: Option<Act>) -> Self {
        let weights = StageWeights::F32(weights);
        NarrowStage { weights, bias, act }
    }

    /// A layer served from a reduced-precision pack.
    pub fn quantized(
        weights: &'a crate::quant::QPackedB,
        bias: &'a [f32],
        act: Option<Act>,
    ) -> Self {
        let weights = StageWeights::Quant(weights);
        NarrowStage { weights, bias, act }
    }

    /// `(k, n)`: input and output features.
    fn dims(&self) -> (usize, usize) {
        match self.weights {
            StageWeights::F32(p) => (p.k(), p.n()),
            StageWeights::Quant(q) => q.dims(),
        }
    }

    /// Decode the layer's `k` weight rows into `dst` (`dst.len() == k`);
    /// returns the per-feature scales its codec finishes with, if it has any.
    fn decode_into(&self, dst: &mut [WeightRow]) -> Option<WeightRow> {
        match self.weights {
            StageWeights::F32(p) => decode_rows::<f32, Identity>(p.view(), dst),
            StageWeights::Quant(q) => q.decode_narrow_rows(dst),
        }
    }
}

/// Decode the first [`NARROW_N`] lanes of every row of a single-panel
/// (`n ≤ NARROW_N`) pack through its codec — the values [`narrow_tile`] and
/// [`micro_tile`] feed their chains, so a chain layer multiplies the same
/// f32 weights the per-layer kernels do. Returns the lanes' scales when the
/// codec is [`PanelCodec::SCALED`]: the multipliers its `finish` applies.
pub(crate) fn decode_rows<T: Scalar, C: PanelCodec<T>>(
    b: Panels<'_, T, C::Q>,
    dst: &mut [[T; NARROW_N]],
) -> Option<[T; NARROW_N]> {
    let scales = panel_scales(b.scales, 0);
    let rows = &b.data.as_chunks::<NR>().0[..dst.len()];
    for (d, raw) in dst.iter_mut().zip(rows) {
        *d = std::array::from_fn(|j| C::decode(raw[j], scales[j]));
    }
    C::SCALED.then(|| std::array::from_fn(|j| scales[j]))
}

/// A run of consecutive narrow `Linear` layers served **depth-first**: a run
/// of 16-row blocks of the input goes through every layer in one loop, the
/// rows on the SIMD lanes and the weights broadcast. Each layer's features
/// are finished (scale, bias, activation) as the next layer loads them, so
/// the first two layers' activations never leave registers, and only the
/// last layer's output is written, instead of one GEMM per layer, each
/// writing and re-reading its whole activation (module docs, *Skinny
/// shapes*).
///
/// A layer joins ([`NarrowChain::push`]) when it has `1 ≤ n ≤ 8` outputs,
/// one bias per output, and reads the previous layer's `n` (the first:
/// `1 ≤ k ≤ 256` inputs, one cache slab), up to eight layers; anything else
/// ends the chain; a chain runs two or more. Every output element keeps the
/// per-layer chain — `acc = 0`, `acc + a*w` in ascending `k` (mul, then
/// add), then the codec's scale (int8), then bias, then activation, the
/// epilogue's formulas — on the weights the layer's codec decodes, so the
/// result is bit-identical to running the layers one by one, at every
/// precision, row count and pool width.
pub struct NarrowChain<'a> {
    stages: [Option<NarrowStage<'a>>; CHAIN_MAX],
    len: usize,
}

impl Default for NarrowChain<'_> {
    fn default() -> Self {
        NarrowChain {
            stages: [None; CHAIN_MAX],
            len: 0,
        }
    }
}

impl<'a> NarrowChain<'a> {
    /// Append the next layer if it keeps the chain narrow (see the type
    /// docs); returns whether it was taken.
    pub fn push(&mut self, stage: NarrowStage<'a>) -> bool {
        let (k, n) = stage.dims();
        let fits = match self.len {
            0 => (1..=KC).contains(&k),
            CHAIN_MAX => false,
            len => self.stages[len - 1].is_some_and(|prev| prev.dims().1 == k),
        };
        if !fits || !(1..=NARROW_N).contains(&n) || stage.bias.len() != n {
            return false;
        }
        self.stages[self.len] = Some(stage);
        self.len += 1;
        true
    }

    /// How many layers the chain holds.
    pub fn stages(&self) -> usize {
        self.len
    }

    /// `out = layerₗ(…layer₁(x))` for the `[m, k]` input `x`, resized in place
    /// to `[m, n]` of the last layer (allocation-free once it has capacity).
    /// Row blocks are split across the pool like a GEMM's stripes.
    pub fn forward_into(&self, x: &Tensor<f32>, out: &mut Tensor<f32>) -> Result<()> {
        let plan = self.plan()?;
        let (m, _) = check_operands("narrow chain", x, plan.n[0], plan.k0, &Epilogue::none())?;
        let (a, k0) = (x.data(), plan.k0);
        plan.drive(m, out, |row0, stripe| {
            let rows = stripe.len() / plan.n[plan.len - 1];
            chain_rows(&a[row0 * k0..][..rows * k0], &plan, stripe);
        });
        Ok(())
    }

    /// [`NarrowChain::forward_into`] on an input read in place (see
    /// [`InputColumns`]): the first layer loads each block's features
    /// straight from the application memory the columns describe, so no
    /// `[m, k]` tensor is gathered. The same blocks, the same pool split and
    /// the same per-element chain, so the same bits.
    pub fn forward_columns_into(&self, x: &dyn InputColumns, out: &mut Tensor<f32>) -> Result<()> {
        let plan = self.plan()?;
        let (m, k) = x.dims();
        if k != plan.k0 {
            return Err(TensorError::DimMismatch(format!(
                "narrow chain: input has {k} features, the first layer reads {}",
                plan.k0
            )));
        }
        plan.drive(m, out, |row0, stripe| chain_columns(x, row0, &plan, stripe));
        Ok(())
    }

    /// The chain's weights decoded and its bodies chosen, for its row blocks.
    fn plan(&self) -> Result<ChainPlan> {
        if self.len < 2 {
            return Err(TensorError::DimMismatch(
                "narrow chain: a chain runs two or more layers".into(),
            ));
        }
        let unset = Finish {
            scale: None,
            bias: [0.0; NARROW_N],
            act: None,
        };
        let mut plan = ChainPlan {
            len: self.len,
            k0: 0,
            n: [0; CHAIN_MAX],
            w0: [[0.0; NARROW_N]; KC],
            w: [[[0.0; NARROW_N]; NARROW_N]; CHAIN_MAX],
            fin: [unset; CHAIN_MAX],
            run: RUNS[0][0],
            tail: [TAILS[0][0]; CHAIN_MAX],
        };
        for (s, stage) in self.stages[..self.len].iter().flatten().enumerate() {
            let (k, n) = stage.dims();
            let scale = match s {
                0 => {
                    plan.k0 = k;
                    stage.decode_into(&mut plan.w0[..k])
                }
                _ => stage.decode_into(&mut plan.w[s][..k]),
            };
            let mut bias = [0.0; NARROW_N];
            bias[..n].copy_from_slice(stage.bias);
            plan.n[s] = n;
            plan.fin[s] = Finish {
                scale,
                bias,
                act: stage.act,
            };
            match s {
                0 => {}
                1 => plan.run = RUNS[act_code(plan.fin[0].act)][n - 1],
                _ => plan.tail[s] = TAILS[act_code(plan.fin[s - 1].act)][n - 1],
            }
        }
        Ok(plan)
    }
}

/// A chain's `[m, k]` input read **in place** from application memory
/// instead of from a gathered row-major tensor (the runtime's implicit
/// gather: a surrogate region whose model starts with a [`NarrowChain`]
/// feeds it straight from the application array, through the bridge's
/// compiled plan). The rows come in *runs*: along one run every feature is
/// contiguous, so feature `f` of the run's `r`-th row is
/// `data()[base[f] + r]`, and each full 16-row block of a run is
/// read as `k` contiguous lane vectors (a 5-point stencil's five slices of
/// one grid row are five such columns).
pub trait InputColumns: Sync {
    /// The memory every feature is read from.
    fn data(&self) -> &[f32];
    /// `(m, k)`: rows and features per row.
    fn dims(&self) -> (usize, usize);
    /// Hand `f` the runs that cover rows `row0..row0 + rows`, in row order:
    /// each as its features' offsets into [`InputColumns::data`] (written
    /// into `base[..k]` and passed on as that slice) and its row count.
    /// Every offset of a run with `len` rows is at most `data().len() - len`.
    fn runs(
        &self,
        row0: usize,
        rows: usize,
        base: &mut [usize],
        f: &mut dyn FnMut(&[usize], usize),
    );
}

/// How one chain layer's chains become its outputs after their last `k`,
/// feature `j` by feature `j`: the codec's scale (int8), the bias, then the
/// activation — a row bias of a 1-row tile, as in [`column_tile`].
#[derive(Clone, Copy)]
struct Finish {
    scale: Option<WeightRow>,
    bias: WeightRow,
    act: Option<Act>,
}

impl Finish {
    /// Feature `j`'s lanes finished in place: `× scale[j]` (if the codec
    /// scales), `+ bias[j]`, then the activation with code `A`
    /// ([`act_of`]), which the caller fixed outside its loops.
    #[inline(always)]
    fn apply<const A: usize>(&self, j: usize, v: &mut Lanes) {
        if let Some(scale) = &self.scale {
            // A scaled codec's `PanelCodec::finish`: `acc * scale`.
            let s = scale[j];
            for x in v.iter_mut() {
                *x *= s;
            }
        }
        let b = self.bias[j];
        for x in v.iter_mut() {
            *x += b;
        }
        act_lanes(const { act_of(A) }, v);
    }
}

/// The activations a chain body or a finish code is compiled for, by code:
/// `0` none, then ReLU, Tanh, Sigmoid.
const fn act_of(code: usize) -> Option<Act> {
    match code {
        0 => None,
        1 => Some(Act::Relu),
        2 => Some(Act::Tanh),
        _ => Some(Act::Sigmoid),
    }
}

/// The code [`act_of`] maps back to `act`.
const fn act_code(act: Option<Act>) -> usize {
    match act {
        None => 0,
        Some(Act::Relu) => 1,
        Some(Act::Tanh) => 2,
        Some(Act::Sigmoid) => 3,
    }
}

/// A chain body for a run of full row blocks (see [`chain_run`]).
type RunFn = fn(&ChainPlan, &[f32], &[usize], &mut [f32]);

/// A third or later layer on one block (see [`tail_layer`]).
type TailFn = fn(&[Lanes], &[WeightRow; NARROW_N], &Finish, &mut Hidden);

/// `[[$f::<1, 0>, …, $f::<NARROW_N, 0>], …, [… $f::<NARROW_N, 3>]]`: the body
/// `$f` compiled for every width and activation code.
macro_rules! by_width_and_act {
    ($f:ident) => {
        [
            by_width_and_act!(@widths $f, 0),
            by_width_and_act!(@widths $f, 1),
            by_width_and_act!(@widths $f, 2),
            by_width_and_act!(@widths $f, 3),
        ]
    };
    (@widths $f:ident, $a:literal) => {
        [
            $f::<1, $a>,
            $f::<2, $a>,
            $f::<3, $a>,
            $f::<4, $a>,
            $f::<5, $a>,
            $f::<6, $a>,
            $f::<7, $a>,
            $f::<8, $a>,
        ]
    };
}

/// [`chain_run`] by the second layer's width and the first layer's activation.
const RUNS: [[RunFn; NARROW_N]; 4] = by_width_and_act!(chain_run);

/// [`tail_layer`] by its layer's width and the previous layer's activation.
const TAILS: [[TailFn; NARROW_N]; 4] = by_width_and_act!(tail_layer);

/// A [`NarrowChain`] with its weights decoded and its bodies chosen, as the
/// row blocks read it.
struct ChainPlan {
    len: usize,
    k0: usize,
    n: [usize; CHAIN_MAX],
    /// The first layer's `k0` weight rows.
    w0: [WeightRow; KC],
    /// Layer `s ≥ 1`'s weight rows (`w[s][..k]`, `k` = layer `s - 1`'s `n`).
    w: [[WeightRow; NARROW_N]; CHAIN_MAX],
    fin: [Finish; CHAIN_MAX],
    /// The body for this chain's second-layer width and first-layer
    /// activation.
    run: RunFn,
    /// `tail[s]` (`s ≥ 2`): layer `s`'s body, for its width and layer
    /// `s - 1`'s activation.
    tail: [TailFn; CHAIN_MAX],
}

impl ChainPlan {
    /// Resize `out` to `[m, n]` of the last layer and run `stripe(row0, c)`
    /// over it: whole, or split across the pool into stripes of a multiple
    /// of [`NARROW_MR`] rows like a GEMM's (`row0` is the stripe's first row,
    /// `c` its rows of `out`).
    fn drive(&self, m: usize, out: &mut Tensor<f32>, stripe: impl Fn(usize, &mut [f32]) + Sync) {
        let n = self.n[self.len - 1];
        out.resize(&[m, n]);
        let c = out.data_mut();
        // Multiply-adds per row, the unit the shared heuristics count in.
        let per_row = self.k0 * self.n[0] + self.n.windows(2).map(|w| w[0] * w[1]).sum::<usize>();
        if par_worthwhile(m, 1, per_row) {
            let rows = par_rows_per_block(m, 1, per_row).div_ceil(NARROW_MR) * NARROW_MR;
            hpacml_par::par_chunks_mut(c, rows * n, |start, cs| stripe(start / n, cs));
        } else {
            stripe(0, c);
        }
    }

    /// Run the chain over row blocks laid out feature by feature — feature
    /// `kk` of row `r` is `data[base[kk] + r]` — into `c` (one row of `n`
    /// outputs each): the full [`NARROW_MR`]-row blocks straight into `c`,
    /// a ragged last block (whose lanes past `c`'s rows must be readable;
    /// they are computed and dropped, and rows never mix) through a
    /// scratch block.
    fn blocks(&self, data: &[f32], base: &[usize], c: &mut [f32]) {
        let n = self.n[self.len - 1];
        let full = c.len() / (NARROW_MR * n) * (NARROW_MR * n);
        let (c, tail) = c.split_at_mut(full);
        (self.run)(self, data, base, c);
        if !tail.is_empty() {
            let mut at = [0usize; KC];
            for (a, &b) in at.iter_mut().zip(base) {
                *a = b + full / n;
            }
            let mut cb = [0.0f32; NARROW_MR * NARROW_N];
            (self.run)(self, data, &at[..base.len()], &mut cb[..NARROW_MR * n]);
            tail.copy_from_slice(&cb[..tail.len()]);
        }
    }
}

/// Run the chain over `a`'s rows (`rows × k0`, row-major) into `c`
/// (`rows × n`), a strip at a time: each block of a strip's rows is laid out
/// feature by feature in a stack tile — feature `kk` of its 16 rows
/// gathered into one lane vector, zero past the last row — and the strip
/// runs as [`ChainPlan::blocks`].
fn chain_rows(a: &[f32], plan: &ChainPlan, c: &mut [f32]) {
    const ZEROS: &[f32] = &[0.0; KC];
    let (k0, n) = (plan.k0, plan.n[plan.len - 1]);
    // Rows per strip: whole blocks, as many as `KC` lane vectors hold.
    let strip = KC / k0 * NARROW_MR;
    let mut tile = [0.0f32; NARROW_MR * KC];
    let mut base = [0usize; KC];
    for (kk, b) in base[..k0].iter_mut().enumerate() {
        *b = kk * strip;
    }
    for (ab, cs) in a.chunks(strip * k0).zip(c.chunks_mut(strip * n)) {
        for (blk, block) in ab.chunks(NARROW_MR * k0).enumerate() {
            // Each row cut to exactly `k0` first, so the gathers below
            // index nothing unchecked in the loop.
            let mut rows = [&ZEROS[..k0]; NARROW_MR];
            for (row, src) in rows.iter_mut().zip(block.chunks_exact(k0)) {
                *row = src;
            }
            for (kk, lanes) in tile.chunks_exact_mut(strip).take(k0).enumerate() {
                let lanes: &mut Lanes = (&mut lanes[blk * NARROW_MR..][..NARROW_MR])
                    .try_into()
                    .expect("16 lanes");
                *lanes = std::array::from_fn(|r| rows[r][kk]);
            }
        }
        plan.blocks(&tile, &base[..k0], cs);
    }
}

/// Run the chain over rows `row0..` of an in-place input into `c` (one row
/// of `n` outputs each), run by run: every full [`NARROW_MR`]-row block of
/// a run reads its `k0` columns where they lie; the rows of a block that
/// would cross into the next run (another outer position of the walk),
/// and the ragged tail, are copied feature by feature into a zero-padded
/// block.
fn chain_columns(x: &dyn InputColumns, row0: usize, plan: &ChainPlan, c: &mut [f32]) {
    let (k0, n) = (plan.k0, plan.n[plan.len - 1]);
    let data = x.data();
    let mut base = [0usize; KC];
    let mut at = [0usize; KC];
    // The padded block, feature `f`'s lanes at `pad[f * NARROW_MR..]`:
    // `fill` rows gathered so far.
    let mut pad = [0.0f32; NARROW_MR * KC];
    let mut pad_base = [0usize; KC];
    for (f, b) in pad_base[..k0].iter_mut().enumerate() {
        *b = f * NARROW_MR;
    }
    let mut fill = 0usize;
    let rows = c.len() / n;
    let mut done = 0usize;
    x.runs(row0, rows, &mut base[..k0], &mut |base, len| {
        let mut p = 0;
        while p < len {
            if fill == 0 && len - p >= NARROW_MR {
                let full = (len - p) / NARROW_MR * NARROW_MR;
                for (a, &b) in at.iter_mut().zip(base) {
                    *a = b + p;
                }
                (plan.run)(plan, data, &at[..k0], &mut c[done * n..(done + full) * n]);
                (done, p) = (done + full, p + full);
                continue;
            }
            let take = (NARROW_MR - fill).min(len - p);
            for (feature, &b) in pad.chunks_exact_mut(NARROW_MR).zip(base) {
                feature[fill..fill + take].copy_from_slice(&data[b + p..][..take]);
            }
            (fill, p) = (fill + take, p + take);
            if fill == NARROW_MR {
                let cb = &mut c[done * n..(done + NARROW_MR) * n];
                (plan.run)(plan, &pad, &pad_base[..k0], cb);
                (done, fill) = (done + NARROW_MR, 0);
            }
        }
    });
    if done < rows {
        for feature in pad.chunks_exact_mut(NARROW_MR).take(k0) {
            feature[fill..].fill(0.0);
        }
        plan.blocks(&pad, &pad_base[..k0], &mut c[done * n..]);
    }
}

/// The chain body: `c.len() / (NARROW_MR · n)` full row blocks through
/// every layer in one loop, block `b`'s feature `kk` read as the lanes
/// `data[base[kk] + NARROW_MR·b..][..NARROW_MR]`. `N1` is the second
/// layer's width and `A0` the first layer's activation code ([`act_of`]).
///
/// Each block runs the first two layers as one pass ([`first_pair`]) with
/// the second layer's accumulators in registers, and finishes and stores
/// the chain's last layer once ([`finish_store`]). A third or later layer
/// reads its predecessor's unfinished accumulators from a 16-row tile
/// ([`tail_layer`]).
#[inline(never)]
fn chain_run<const N1: usize, const A0: usize>(
    plan: &ChainPlan,
    data: &[f32],
    base: &[usize],
    c: &mut [f32],
) {
    const NONE: &Lanes = &[0.0; NARROW_MR];
    let (len, k0, n0) = (plan.len, plan.k0, plan.n[0]);
    let n = plan.n[len - 1];
    let (w0, w1) = (&plan.w0[..k0], &plan.w[1]);
    let base = &base[..k0];
    let mut cols: [&Lanes; KC] = [NONE; KC];
    for (b, cb) in c.chunks_exact_mut(NARROW_MR * n).enumerate() {
        for (col, &f) in cols.iter_mut().zip(base) {
            *col = data[f + b * NARROW_MR..][..NARROW_MR]
                .try_into()
                .expect("16 lanes");
        }
        let acc = first_pair::<N1, A0>(&cols[..k0], w0, n0, &plan.fin[0], w1);
        if len == 2 {
            finish_store(&acc, &plan.fin[1], cb);
        } else {
            chain_tail(plan, &acc, cb);
        }
    }
}

/// Layers `2..` of a chain on one block, from the second layer's unfinished
/// accumulators `acc`: each layer reads its predecessor's from a 16-row
/// tile ([`tail_layer`]), and the last is finished and stored into `c`.
#[inline(never)]
fn chain_tail(plan: &ChainPlan, acc: &[Lanes], c: &mut [f32]) {
    let (mut h, mut g) = (
        &mut [[0.0f32; NARROW_MR]; NARROW_N],
        &mut [[0.0f32; NARROW_MR]; NARROW_N],
    );
    h[..acc.len()].copy_from_slice(acc);
    for s in 2..plan.len {
        (plan.tail[s])(&h[..plan.n[s - 1]], &plan.w[s], &plan.fin[s - 1], g);
        std::mem::swap(&mut h, &mut g);
    }
    let n = plan.n[plan.len - 1];
    finish_store(&h[..n], &plan.fin[plan.len - 1], c);
}

/// The first two layers on one block: the first layer's `n0 = w0[0].len()`
/// features run as one group of 8, or else one by one ([`feature_group`]),
/// each finished and entered into the second layer's rank-1 steps as soon
/// as its chains end. Returns the second layer's `N1` unfinished accumulators.
#[inline(always)]
fn first_pair<const N1: usize, const A0: usize>(
    cols: &[&Lanes],
    w0: &[WeightRow],
    n0: usize,
    fin0: &Finish,
    w1: &[WeightRow; NARROW_N],
) -> [Lanes; N1] {
    let mut acc = [[0.0f32; NARROW_MR]; N1];
    if n0 == NARROW_N {
        feature_group::<NARROW_N, N1, A0>(cols, w0, 0, fin0, w1, &mut acc);
    } else {
        for j in 0..n0 {
            feature_group::<1, N1, A0>(cols, w0, j, fin0, w1, &mut acc);
        }
    }
    acc
}

/// First-layer features `j0..j0 + G` of one block: their chains over the
/// block's columns `cols` (weight rows `w0`) in registers, then each
/// feature in turn finished (scale, bias, activation `A0`) and entered into
/// the second layer's accumulators `acc` with its weight row `w1[j]`.
#[inline(always)]
fn feature_group<const G: usize, const N1: usize, const A0: usize>(
    cols: &[&Lanes],
    w0: &[WeightRow],
    j0: usize,
    fin0: &Finish,
    w1: &[WeightRow; NARROW_N],
    acc: &mut [Lanes; N1],
) {
    let mut h = [[0.0f32; NARROW_MR]; G];
    for (col, wrow) in cols.iter().zip(w0) {
        let w: &[f32; G] = wrow[j0..j0 + G].try_into().expect("G weights");
        rank1(&mut h, col, w);
    }
    // Every per-feature operand is cut to exactly `G` here, and the scale
    // is matched here, outside the feature loop: with a scale branch and
    // bounds checks inside it, the loop read `h` back from the stack on
    // every feature.
    let group = |v: &WeightRow| -> [f32; G] { v[j0..j0 + G].try_into().expect("G values") };
    let bias = group(&fin0.bias);
    let w1: &[WeightRow; G] = w1[j0..j0 + G].try_into().expect("G weight rows");
    match &fin0.scale {
        None => enter_group::<G, N1, A0, false>(h, [1.0; G], bias, w1, acc),
        Some(scale) => enter_group::<G, N1, A0, true>(h, group(scale), bias, w1, acc),
    }
}

/// A finished group of first-layer features entering the second layer:
/// feature `g` of `h` scaled (if `SCALED`) by `scale[g]`, `+ bias[g]`,
/// activation `A0`, then the rank-1 step into `acc` with weight row `w1[g]`.
#[inline(always)]
fn enter_group<const G: usize, const N1: usize, const A0: usize, const SCALED: bool>(
    h: [Lanes; G],
    scale: [f32; G],
    bias: [f32; G],
    w1: &[WeightRow; G],
    acc: &mut [Lanes; N1],
) {
    for (g, hg) in h.iter().enumerate() {
        let mut v = *hg;
        if SCALED {
            // A scaled codec's `PanelCodec::finish`: `acc * scale`.
            for x in v.iter_mut() {
                *x *= scale[g];
            }
        }
        for x in v.iter_mut() {
            *x += bias[g];
        }
        act_lanes(const { act_of(A0) }, &mut v);
        rank1(acc, &v, &w1[g]);
    }
}

/// A third or later layer on one block: its `N` features from the previous
/// layer's unfinished accumulators `h` (one per input feature), each
/// finished as it loads (`fin`, the previous layer's activation `A`) and
/// entered into the rank-1 step with its weight row `w[j]`; the `N`
/// unfinished results go to `g[..N]`.
#[inline(never)]
fn tail_layer<const N: usize, const A: usize>(
    h: &[Lanes],
    w: &[WeightRow; NARROW_N],
    fin: &Finish,
    g: &mut Hidden,
) {
    let mut acc = [[0.0f32; NARROW_MR]; N];
    for (j, (hj, wj)) in h.iter().zip(w).enumerate() {
        let mut v = *hj;
        fin.apply::<A>(j, &mut v);
        rank1(&mut acc, &v, wj);
    }
    g[..N].copy_from_slice(&acc);
}

/// One `k` step of a chain layer: `acc[j][r] += a[r] * w[j]`, rows outer.
#[inline(always)]
fn rank1<const N: usize>(acc: &mut [Lanes; N], a: &Lanes, w: &[f32]) {
    for (r, &av) in a.iter().enumerate() {
        for (acc_j, &wv) in acc.iter_mut().zip(w) {
            // One chain per element, mul then add — as in micro_tile.
            acc_j[r] += av * wv;
        }
    }
}

/// The last layer of a block finished (`fin`) and stored into its
/// `NARROW_MR × n` rows of `c` (`n = acc.len()`). The activation is matched
/// once, outside the feature loop.
#[inline(always)]
fn finish_store(acc: &[Lanes], fin: &Finish, c: &mut [f32]) {
    match fin.act {
        None => finish_store_as::<0>(acc, fin, c),
        Some(Act::Relu) => finish_store_as::<1>(acc, fin, c),
        Some(Act::Tanh) => finish_store_as::<2>(acc, fin, c),
        Some(Act::Sigmoid) => finish_store_as::<3>(acc, fin, c),
    }
}

/// [`finish_store`] with the activation fixed.
#[inline(always)]
fn finish_store_as<const A: usize>(acc: &[Lanes], fin: &Finish, c: &mut [f32]) {
    if let [lanes] = acc {
        let mut v = *lanes;
        fin.apply::<A>(0, &mut v);
        c.copy_from_slice(&v);
        return;
    }
    let n = acc.len();
    let mut out = [[0.0f32; NARROW_MR]; NARROW_N];
    for (j, (o, lanes)) in out.iter_mut().zip(acc).enumerate() {
        *o = *lanes;
        fin.apply::<A>(j, o);
    }
    for (r, crow) in c.chunks_exact_mut(n).enumerate() {
        for (v, o) in crow.iter_mut().zip(&out) {
            *v = o[r];
        }
    }
}

// ---------------------------------------------------------------------------
// Macro-kernel / driver
// ---------------------------------------------------------------------------

/// `C[m, n] = epilogue(A · B)` over a row-major `A` (`[m, k]`, read in
/// place) and a packed `B` (`[k, n]`), parallelized over row stripes with
/// the default slab depth ([`slab_depth`]). `c` must be a row-major
/// `[m, n]` slice; every element is overwritten. Panics on operand/size
/// mismatches (callers validate shapes; the tensor-level wrappers return
/// errors instead).
pub(crate) fn gemm_into<T: Scalar>(
    m: usize,
    a: &[T],
    b: &PackedB<T>,
    epi: Epilogue<'_, T>,
    c: &mut [T],
) {
    let kc = slab_depth(m, b.k());
    gemm_driver::<T, Identity>(m, b.n(), b.k(), a, b.view(), epi, c, kc, false)
}

/// [`gemm_into`] with every chain started from the value already in `c`
/// instead of zero: `C = act(C + A · B)`. A `c` holding a bias thus adds it
/// *before* the products, the order of the convolution forward's small
/// shapes ([`crate::ops::conv_gemm_worthwhile`]). Every `kc` slab is swept
/// [`RESUME`] (the narrow tiles start from zero, so they are skipped), then
/// [`finish_pass`] applies `act` alone.
pub(crate) fn gemm_resume_into<T: Scalar>(
    m: usize,
    a: &[T],
    b: &PackedB<T>,
    act: Option<Act>,
    c: &mut [T],
) {
    let (kc, epi) = (slab_depth(m, b.k()), Epilogue::none().with_act(act));
    gemm_driver::<T, Identity>(m, b.n(), b.k(), a, b.view(), epi, c, kc, true)
}

/// The one macro-kernel driver, at every storage precision: checks the
/// operands, splits `c` into `MR`-aligned row stripes across the pool and
/// runs [`stripe_body`] on each. `kc` is the cache-slab depth — the
/// tuning/testing hook behind the determinism guarantee ("results do not
/// depend on `kc`"). `resume`: every chain starts from the value in `c`
/// ([`gemm_resume_into`]), not from zero.
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
    resume: bool,
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
            stripe_body::<T, C>(row0, stripe, n, k, a, b, &epi, kc, resume);
        });
    } else {
        stripe_body::<T, C>(0, c, n, k, a, b, &epi, kc, resume);
    }
}

/// Compute one C row-stripe (`row0 ..` covering `stripe.len() / n` rows,
/// `a` its rows of `A`), walking `k` in `kc`-deep slabs. The choices fixed
/// for the call are made here, once: a single slab is swept with its
/// epilogue's finish code ([`epi_code`]); several are swept [`PARTIAL`]
/// then [`RESUME`], and [`finish_pass`] finishes the stored chains. With
/// `resume`, every slab, the first included, is a [`RESUME`] slab. Each
/// slab's row blocks run on the sweep compiled for its code.
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
    resume: bool,
) {
    let rows = stripe.len() / n;
    let (col_bias, row_bias): (&[T], &[T]) = match epi.bias {
        Bias::None => (&[], &[]),
        Bias::Col(bias) => (bias, &[]),
        Bias::Row(bias) => (&[], &bias[row0..row0 + rows]),
    };
    let mut s = Slab {
        a,
        k,
        k0: 0,
        klen: kc.min(k),
        b,
        n,
        col_bias,
        row_bias,
    };
    let slabs = k.div_ceil(kc).max(1); // k == 0 still runs one epilogue pass
    if slabs == 1 && !resume {
        // Narrow-N problems (`k == 0` is a pure epilogue pass) without a
        // per-row bias run their full NARROW_MR-row blocks on the narrow
        // tiles; whatever is left (< NARROW_MR rows) falls through to the
        // sweep.
        let code = epi_code(epi);
        let r = if n <= NARROW_N && k > 0 && code < NARROW_CODES {
            by_fin!(narrow code, narrow_blocks::<T, C>(&s, stripe))
        } else {
            0
        };
        return by_fin!(code, rows_sweep::<T, C>(&s, r, stripe));
    }
    for slab in 0..slabs {
        (s.k0, s.klen) = (slab * kc, kc.min(k - slab * kc));
        let fin = if slab > 0 || resume { RESUME } else { PARTIAL };
        by_fin!(fin, rows_sweep::<T, C>(&s, 0, stripe));
    }
    by_fin!(epi_code(epi), finish_pass::<T, C>(&s, stripe));
}

/// One `kc` slab of one row stripe, as its row blocks read it.
struct Slab<'a, T, Q> {
    /// The stripe's rows of `A`, row-major, `k` apart.
    a: &'a [T],
    k: usize,
    /// The slab's first `k` and its depth.
    k0: usize,
    klen: usize,
    b: Panels<'a, T, Q>,
    n: usize,
    /// The per-column biases (empty unless the bias is per column), and the
    /// stripe's per-row ones (empty unless it is per row).
    col_bias: &'a [T],
    row_bias: &'a [T],
}

/// The stripe's row blocks from row `r` on (`c`: the stripe's rows of `C`):
/// `MR`-row blocks, then the remainder (< MR) stepping down through 4-, 2-
/// and 1-row blocks. A shorter block makes up for its height by sweeping
/// more panels per tile (`block_sweep`'s `G`: MR / M, at most ROW_GROUP), so
/// even small-m problems (e.g. a 4-filter convolution) keep MR·NR
/// independent accumulator chains in flight, and a single row 64. Per-row
/// arithmetic is identical at every tile height and width, so the
/// decomposition never changes results.
fn rows_sweep<T: Scalar, C: PanelCodec<T>, const FIN: usize>(
    s: &Slab<'_, T, C::Q>,
    mut r: usize,
    c: &mut [T],
) {
    let rows = c.len() / s.n;
    while r < rows {
        let cb = &mut c[r * s.n..];
        r += match rows - r {
            MR.. => block_sweep::<T, C, FIN, MR, 1>(s, r, cb),
            4.. => block_sweep::<T, C, FIN, 4, 2>(s, r, cb),
            2.. => block_sweep::<T, C, FIN, 2, 4>(s, r, cb),
            _ => block_sweep::<T, C, FIN, 1, ROW_GROUP>(s, r, cb),
        };
    }
}

/// One `M`-row block (from stripe row `r`; `c` its rows of `C` on) through
/// every panel of the slab in one pass: its rows of `A` cut to the slab
/// once, then `G` full panels per tile, and the panels left one at a time,
/// a ragged last one through a full-width local tile. Returns `M`.
///
/// Never inlined: the block is the standalone optimization unit, its tiles
/// inlined into it with the finish code `FIN` fixed, so the *Register
/// tiles* rules and the tile loops are all the optimizer sees.
#[inline(never)]
fn block_sweep<T: Scalar, C: PanelCodec<T>, const FIN: usize, const M: usize, const G: usize>(
    s: &Slab<'_, T, C::Q>,
    r: usize,
    c: &mut [T],
) -> usize {
    let (n, k, k0, klen) = (s.n, s.k, s.k0, s.klen);
    let a: [&[T]; M] = std::array::from_fn(|i| &s.a[(r + i) * k + k0..][..klen]);
    let row_bias: [T; M] = match FIN / 4 {
        2 => s.row_bias[r..r + M].try_into().expect("M row biases"),
        _ => [T::ZERO; M],
    };
    let c = &mut c[..M * n];
    let (full, w) = (n / NR, n % NR);
    let (b_rows, col_lanes) = (s.b.data.as_chunks::<NR>().0, s.col_bias.as_chunks::<NR>().0);
    let slab = |p: usize| &b_rows[p * k + k0..][..klen];
    let zeros = [T::ZERO; NR];
    let bias = |p: usize| match FIN / 4 {
        1 => &col_lanes[p],
        _ => &zeros,
    };
    // With G == 1 every panel takes the loop below, so the tile is
    // compiled once.
    let grouped = if G == 1 { 0 } else { full - full % G };
    for p in (0..grouped).step_by(G) {
        micro_tile::<T, C, FIN, M, G>(
            &a,
            std::array::from_fn(|q| slab(p + q)),
            std::array::from_fn(|q| panel_scales(s.b.scales, (p + q) * NR)),
            std::array::from_fn(|q| bias(p + q)),
            &row_bias,
            &mut c[p * NR..],
            n,
        );
    }
    let (mut ragged, mut ragged_bias) = ([[T::ZERO; NR]; M], [T::ZERO; NR]);
    if w > 0 {
        if FIN == RESUME {
            for (t, crow) in ragged.iter_mut().zip(c[full * NR..].chunks(n)) {
                t[..w].copy_from_slice(&crow[..w]);
            }
        }
        if FIN / 4 == 1 {
            ragged_bias[..w].copy_from_slice(&s.col_bias[full * NR..]);
        }
    }
    for p in grouped..n.div_ceil(NR) {
        let (dst, ldc, lanes) = match p < full {
            true => (&mut c[p * NR..], n, bias(p)),
            false => (ragged.as_flattened_mut(), NR, &ragged_bias),
        };
        micro_tile::<T, C, FIN, M, 1>(
            &a,
            [slab(p)],
            [panel_scales(s.b.scales, p * NR)],
            [lanes],
            &row_bias,
            dst,
            ldc,
        );
    }
    if w > 0 {
        for (t, crow) in ragged.iter().zip(c[full * NR..].chunks_mut(n)) {
            crow[..w].copy_from_slice(&t[..w]);
        }
    }
    M
}

/// The epilogue with finish code `FIN` over a stripe's chains (`c`, rows of
/// `n`) once its last slab has stored them: what a single-slab sweep does in
/// its tiles ([`finish_lanes`]), on the partials read back from `C` (stored
/// and reloaded exactly, so the bits are the same).
fn finish_pass<T: Scalar, C: PanelCodec<T>, const FIN: usize>(s: &Slab<'_, T, C::Q>, c: &mut [T]) {
    let col_lanes = s.col_bias.as_chunks::<NR>().0;
    for (i, crow) in c.chunks_exact_mut(s.n).enumerate() {
        let row = match FIN / 4 {
            2 => s.row_bias[i],
            _ => T::ZERO,
        };
        let (lanes, tail) = crow.as_chunks_mut::<NR>();
        for (p, v) in lanes.iter_mut().enumerate() {
            let col = match FIN / 4 {
                1 => col_lanes[p],
                _ => [T::ZERO; NR],
            };
            finish_lanes::<T, C, FIN, NR>(v, &panel_scales(s.b.scales, p * NR), &col, row);
        }
        if !tail.is_empty() {
            let (j0, w) = (lanes.len() * NR, tail.len());
            let (mut v, mut col) = ([T::ZERO; NR], [T::ZERO; NR]);
            v[..w].copy_from_slice(tail);
            if FIN / 4 == 1 {
                col[..w].copy_from_slice(&s.col_bias[j0..]);
            }
            finish_lanes::<T, C, FIN, NR>(&mut v, &panel_scales(s.b.scales, j0), &col, row);
            tail.copy_from_slice(&v[..w]);
        }
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
    let kc = slab_depth(a.dims().first().copied().unwrap_or(0), bp.k());
    matmul_transb_packed_into_kc(a, bp, epi, c, kc)
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
    gemm_driver::<T, Identity>(m, n, k, a.data(), bp.view(), epi, c.data_mut(), kc, false);
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-thread pack/im2col scratch
// ---------------------------------------------------------------------------

/// Reusable per-thread staging buffers for kernels whose operands are not
/// pre-packed: a [`PackedB`] for on-the-fly weight packing (training-time
/// and uncompiled-model `Linear` forwards) and for the convolution
/// forward's im2col panels, and a buffer the other convolution staging goes
/// through (the forward's zero-padded sample, the backward's im2col
/// columns). One instance lives per thread (see [`WithScratch`]), so
/// parallel kernels never contend on — or repack — another thread's panels.
/// Grow-only, so steady-state use is allocation-free.
#[derive(Default)]
// lint: allow(crate-local-pub) — in `WithScratch`'s signature
pub struct GemmScratch<T: Scalar> {
    pub packed_b: PackedB<T>,
    pub col: Vec<T>,
}

impl<T: Scalar> GemmScratch<T> {
    /// Reserve capacity (elements) so even a first use allocates nothing;
    /// the kernels write it when they use it. Grow-only; a size the
    /// allocator refuses is a typed error, not an abort.
    pub fn reserve(&mut self, b_elems: usize, col_elems: usize) -> Result<()> {
        for (buf, elems) in [
            (&mut self.packed_b.data, b_elems),
            (&mut self.col, col_elems),
        ] {
            buf.try_reserve(elems.saturating_sub(buf.len()))
                .map_err(|_| TensorError::Reserve { elems })?;
        }
        Ok(())
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
pub fn reserve_scratch<T: WithScratch>(b_elems: usize, col_elems: usize) -> Result<()> {
    T::with_gemm_scratch(|s| s.reserve(b_elems, col_elems))
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

    /// Row-major ranges written into a zeroed pack, cut anywhere (mid-row,
    /// across panels, one element), give the panels `from_transb` packs, bit
    /// for bit and padding included; `read_rows` reads the rows back from
    /// any element.
    #[test]
    fn row_ranges_written_into_a_zeroed_pack_equal_from_transb() {
        for (n, k) in [
            (1usize, 1usize),
            (5, 3),
            (16, 7),
            (17, 1),
            (33, 10),
            (40, 0),
        ] {
            let bt = Tensor::from_vec(lcg((n * 31 + k) as u64, n * k), [n, k]).unwrap();
            let want = PackedB::from_transb(&bt).unwrap();
            for cut in [1usize, 2, 7, k.max(1) + 3, n * k + 1] {
                let mut p = PackedB::zeroed(k, n);
                for (i, chunk) in bt.data().chunks(cut).enumerate() {
                    p.write_rows(i * cut, chunk.iter().copied());
                }
                let bits = |p: &PackedB<f32>| {
                    p.panel_data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&p), bits(&want), "[{n}, {k}] cut {cut}");
                for first in [0, (n * k) / 2, n * k] {
                    let rows: Vec<f32> = p.read_rows(first).collect();
                    assert_eq!(rows, bt.data()[first..], "[{n}, {k}] from {first}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn a_row_range_past_the_matrix_panics_rather_than_filling_padding() {
        // Element 3 of a [1, 3] matrix would land on the zero lane of row 1.
        PackedB::<f32>::zeroed(3, 1).write_rows(2, [1.0f32, 2.0].into_iter());
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

    /// A single row walks `k` as one slab in the default entry points
    /// (`slab_depth`); the `_kc` hooks still resume explicit slabs. Both
    /// give the same bits at every precision, with `k` four default slabs
    /// and a ragged one deep, against grouped and ragged panels.
    #[test]
    fn single_row_default_slab_equals_every_kc() {
        use crate::quant::{
            matmul_transb_qpacked_into, matmul_transb_qpacked_into_kc, Precision, QPackedB,
        };
        type Run<'a> = &'a dyn Fn(Option<usize>, &mut Tensor<f32>);
        let (k, n) = (4 * KC + 3, 136usize);
        assert_eq!(slab_depth(1, k), k);
        assert_eq!(slab_depth(2, k), KC);
        let a = Tensor::from_vec(lcg(51, k), [1, k]).unwrap();
        let bt = Tensor::from_vec(lcg(52, n * k), [n, k]).unwrap();
        let bp = PackedB::from_transb(&bt).unwrap();
        let q16 = QPackedB::from_transb(&bt, Precision::Bf16).unwrap();
        let q8 = QPackedB::from_transb(&bt, Precision::Int8).unwrap();
        let bias = lcg(53, n);
        let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Tanh));
        let f32_run: Run = &|kc, c| match kc {
            None => matmul_transb_packed_into(&a, &bp, epi, c).unwrap(),
            Some(kc) => matmul_transb_packed_into_kc(&a, &bp, epi, c, kc).unwrap(),
        };
        let gemm_into_run: Run = &|kc, c| {
            c.resize(&[1, n]);
            match kc {
                None => gemm_into(1, a.data(), &bp, epi, c.data_mut()),
                Some(kc) => {
                    let c = c.data_mut();
                    gemm_driver::<f32, Identity>(1, n, k, a.data(), bp.view(), epi, c, kc, false)
                }
            }
        };
        let bf16_run: Run = &|kc, c| match kc {
            None => matmul_transb_qpacked_into(&a, &q16, epi, c).unwrap(),
            Some(kc) => matmul_transb_qpacked_into_kc(&a, &q16, epi, c, kc).unwrap(),
        };
        let int8_run: Run = &|kc, c| match kc {
            None => matmul_transb_qpacked_into(&a, &q8, epi, c).unwrap(),
            Some(kc) => matmul_transb_qpacked_into_kc(&a, &q8, epi, c, kc).unwrap(),
        };
        for (rung, run) in [
            ("f32", f32_run),
            ("f32 gemm_into", gemm_into_run),
            ("bf16", bf16_run),
            ("int8", int8_run),
        ] {
            let mut base = Tensor::zeros([0usize; 2]);
            run(None, &mut base);
            for kc in [1usize, 7, KC] {
                let mut c = Tensor::zeros([0usize; 2]);
                run(Some(kc), &mut c);
                assert_eq!(c.data(), base.data(), "{rung}: kc={kc} against one slab");
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

    /// Every small shape against the naive reference, bit for bit, at every
    /// storage precision: `m` ∈ 1..=17 ∪ {31, 64}, `n` ∈ 1..=17 ∪ {31, 32,
    /// 33, 130} and each `k` of `ks` — every `MR`/4/2/1 step-down, full,
    /// grouped and ragged panels, the narrow tiles, and one, two and many
    /// `kc` slabs. The epilogue (every bias kind × activation), `kc` ∈ {1, 3,
    /// `KC`} and the pool width (1 or 3) rotate from call to call, so every
    /// combination of them meets every precision many times across the grid
    /// (the whole product is ~10⁶ calls, minutes in a debug build). Each
    /// shape runs f32, bf16 and int8 when `every_codec`, else one of them in
    /// turn. A failure names its call: the vendored `proptest` does not
    /// shrink.
    fn shape_grid(ks: &[usize], every_codec: bool) {
        use crate::quant::{matmul_transb_qpacked_into_kc, Precision, QPackedB};
        let acts = [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)];
        let pools = [hpacml_par::Pool::new(0), hpacml_par::Pool::new(2)];
        let (mut turn, mut shape) = (0usize, 0usize);
        for m in (1..=17).chain([31, 64]) {
            for n in (1..=17).chain([31, 32, 33, 130]) {
                for &k in ks {
                    let a =
                        Tensor::from_vec(lcg((m * 7 + n * 3 + k) as u64, m * k), [m, k]).unwrap();
                    let bt = Tensor::from_vec(lcg((n * 5 + k) as u64, n * k), [n, k]).unwrap();
                    let (col, row) = (lcg(n as u64 + 90, n), lcg(m as u64 + 91, m));
                    let bp = PackedB::from_transb(&bt).unwrap();
                    let q16 = QPackedB::from_transb(&bt, Precision::Bf16).unwrap();
                    let q8 = QPackedB::from_transb(&bt, Precision::Int8).unwrap();
                    let codecs = [("f32", None), ("bf16", Some(&q16)), ("int8", Some(&q8))];
                    shape += 1;
                    for (c_at, &(codec, q)) in codecs.iter().enumerate() {
                        if !every_codec && c_at != shape % 3 {
                            continue;
                        }
                        let epi = match turn % 3 {
                            0 => Epilogue::none(),
                            1 => Epilogue::col_bias(&col),
                            _ => Epilogue::row_bias(&row),
                        }
                        .with_act(acts[turn / 3 % 4]);
                        let kc = [1, 3, KC][turn / 12 % 3];
                        let width = turn / 36 % 2;
                        turn += 1;
                        // The chain's weights and each column's finishing
                        // scale, as the codec defines them.
                        let w: Vec<f32> = match q {
                            None => bt.data().to_vec(),
                            Some(q) => (0..n * k).map(|e| q.chain_weight(e / k, e % k)).collect(),
                        };
                        let scale = |j: usize| q.map_or(1.0, |q| q.col_scale(j));
                        let mut want = vec![0.0f32; m * n];
                        for (i, out) in want.chunks_exact_mut(n).enumerate() {
                            let ai = &a.data()[i * k..][..k];
                            for (j, o) in out.iter_mut().enumerate() {
                                let mut acc = 0.0f32;
                                for (x, y) in ai.iter().zip(&w[j * k..][..k]) {
                                    acc += x * y;
                                }
                                acc *= scale(j);
                                acc = match epi.bias {
                                    Bias::None => acc,
                                    Bias::Col(b) => acc + b[j],
                                    Bias::Row(b) => acc + b[i],
                                };
                                *o = epi.act.map_or(acc, |act| act.apply(acc));
                            }
                        }
                        let mut c = Tensor::zeros([0usize; 2]);
                        hpacml_par::with_pool(&pools[width], || match q {
                            None => matmul_transb_packed_into_kc(&a, &bp, epi, &mut c, kc),
                            Some(q) => matmul_transb_qpacked_into_kc(&a, q, epi, &mut c, kc),
                        })
                        .unwrap();
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(c.data()),
                            bits(&want),
                            "{codec} [{m},{k}]·[{k},{n}], {:?} + {:?}, kc {kc}, {} thread(s)",
                            epi.bias,
                            epi.act,
                            2 * width + 1
                        );
                    }
                }
            }
        }
    }

    /// [`shape_grid`] at `k` ∈ 1..=9 ∪ {16, 17}, every shape at every
    /// precision.
    #[test]
    fn small_k_grid_matches_reference_bit_for_bit() {
        shape_grid(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17], true);
    }

    /// [`shape_grid`] at `k` ∈ {255, 256, 257}, one slab short of `KC`, one
    /// slab, and a slab and one step; each shape at one precision in turn
    /// (these shapes are ~90 % of the grid's multiply-adds).
    #[test]
    fn slab_edge_grid_matches_reference_bit_for_bit() {
        shape_grid(&[KC - 1, KC, KC + 1], false);
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
        reserve_scratch::<f32>(1024, 2048).unwrap();
        f32::with_gemm_scratch(|s| {
            assert!(s.packed_b.data.capacity() >= 1024);
            assert!(s.col.capacity() >= 2048);
        });
    }
}
