//! Compiled bridge plans: the runtime-facing API.
//!
//! [`compile`] runs steps 1–3 once per (functor, map, array-shape, bindings)
//! combination; the resulting [`CompiledMap`] is reused on every region
//! invocation — [`CompiledMap::gather_batch_into`] for `map(to: ...)`,
//! [`CompiledMap::scatter_batch`] for `map(from: ...)`. The runtime compiles
//! each plan once, when a region is compiled into a session, and the session
//! holds it from then on.
//!
//! # What compile leaves for the hot path
//!
//! [`compile`] validates every RHS slice (bounds, and that its trailing
//! dimensions hold exactly the feature columns the LHS reserves for it) with
//! checked arithmetic — bindings and directive strings come from config
//! text, so an address or extent that overflows is a typed error — and
//! classifies it into views: per sweep point, `run` contiguous elements at
//! `offset + Σ idx·stride`, landing at feature column `col`. A point slice
//! is a run of 1, `[i, j-1:j+2]` a run of 3; a non-contiguous (stepped)
//! feature range is unrolled into single-element runs here, once. Adjacent
//! sweep axes that every view steps through contiguously are merged (a
//! full-array identity map walks one axis). The views are then expanded
//! once more, for the gather, into one source per feature column.
//!
//! Both directions walk the outer axes once per sample, with no shape
//! analysis, division or allocation per call, and differ in what they
//! write in one step:
//!
//! - The gather writes **one row per point**: at each outer position, each
//!   sweep point's `feat_total` features land with one fixed-width store
//!   (`tensor::gather_rows_raw`), every LHS line written once. When each
//!   position's block is one contiguous run of the array (identity maps,
//!   row functors) it is one copy, and a batch of samples that are each
//!   their whole array is one copy for the batch.
//! - The scatter writes **runs**, view by view: its writes into the
//!   application array are contiguous, and where views overlap the later
//!   one wins.
//!
//! A plan whose every feature column steps through the innermost walk axis
//! contiguously (stride 1: a stencil's slices) can also skip the gather:
//! [`CompiledMap::columns`] hands the same per-feature `(base, stride)`
//! sources out as runs of contiguous columns, one per outer position, and a
//! narrow-chain surrogate reads its first layer's inputs from them in place
//! (the runtime's implicit gather, `hpacml_core`'s session docs). Nothing is
//! written; the rows the chain sees are the rows the gather would write.

use crate::extract::extract;
use crate::resolve::{resolve_slice, resolve_sweep, ResolvedView};
use crate::{BridgeError, Result};
use hpacml_directive::ast::{Direction, MapDirective};
use hpacml_directive::sema::{Bindings, FunctorInfo, LhsDim};
use hpacml_tensor::gemm::InputColumns;
use hpacml_tensor::{gather_rows_raw, scatter_chunks_raw, Tensor};

/// Element-count threshold, over the whole batch, above which batched
/// gather/scatter parallelize over the leading (sample) dimension; smaller
/// batches (and every single sample) copy on the calling thread.
const PAR_ELEMS: usize = 1 << 16;

/// Sweep ranks the allocation-free odometer of the hot path covers; deeper
/// sweeps are rejected by [`compile`].
const MAX_SWEEP_RANK: usize = 16;

/// One RHS slice (or one contiguous piece of it) as a *validated* and
/// *classified* strided view over a per-sample application array: every
/// sweep point owns `run` contiguous elements starting at
/// `offset + Σ idx[a] · stride[a]` (the strides live, view-major, in
/// [`CompiledMap::view_strides`]), landing at feature column `col` of that
/// point's LHS row. Bounds and shape are checked once in [`compile`], so
/// every later scatter runs the run-length copy kernel — and every gather
/// the row kernel, on the views expanded per feature — with no per-call
/// shape analysis, view construction or allocation.
#[derive(Debug, Clone)]
struct CompiledView {
    offset: usize,
    /// Contiguous elements per sweep point — the scatter kernel's class
    /// (the tensor layer copies runs of 1..=4 with a compile-time length).
    run: usize,
    /// Feature column of the run inside one sweep row.
    col: usize,
}

/// A fully resolved tensor map, ready to move data.
///
/// A plan is compiled against *per-sample* array dims; the batched entry
/// points ([`CompiledMap::gather_batch_into`], [`CompiledMap::scatter_batch`])
/// apply the same precompiled strides to `n` back-to-back samples in one
/// pass over the leading dimension — the runtime batch dimension never
/// recompiles a plan.
#[derive(Debug, Clone)]
pub struct CompiledMap {
    pub direction: Direction,
    /// Name of the application array this map targets.
    pub array: String,
    /// Expected array shape (validated against buffers at gather/scatter).
    pub array_dims: Vec<usize>,
    /// Concrete extent of each sweep symbol, in LHS order.
    pub sweep_counts: Vec<usize>,
    /// Concrete LHS tensor shape.
    pub lhs_shape: Vec<usize>,
    /// Elements contributed per sweep point by each RHS slice.
    pub elem_counts: Vec<usize>,
    /// Total features per sweep point (sum of `elem_counts`).
    feat_total: usize,
    /// Extents of the axes gather/scatter walk: `sweep_counts` with every
    /// run of axes that all views step through contiguously merged into one
    /// (a full-array identity map walks a single axis: one `memcpy`). Never
    /// empty: a functor without sweep symbols walks one axis of extent 1.
    walk_counts: Vec<usize>,
    /// The RHS slices in feature-column order, one entry per contiguous run.
    views: Vec<CompiledView>,
    /// Memory stride of every view along every walk axis, view-major:
    /// `walk_counts.len()` entries per view, outermost axis first (the last
    /// one is the copy kernel's source step).
    view_strides: Vec<usize>,
    /// The views expanded for the gather: the array offset of every
    /// feature column at walk position zero, in column order.
    feat_offsets: Vec<usize>,
    /// Every feature column's strides, laid out like `view_strides`.
    feat_strides: Vec<usize>,
    /// Whether each outer position's LHS block is one contiguous run of
    /// the array — consecutive feature offsets, one set of strides, and
    /// an inner step of `feat_total` (identity maps, row functors) — so
    /// the gather copies it in one piece.
    block_copy: bool,
}

impl CompiledMap {
    /// Elements of the LHS tensor.
    pub fn numel(&self) -> usize {
        self.lhs_shape.iter().product()
    }

    /// Expected element count of the target application buffer.
    pub fn array_numel(&self) -> usize {
        self.array_dims.iter().product()
    }

    fn check_buffer(&self, len: usize, n: usize) -> Result<()> {
        if len != n * self.array_numel() {
            return Err(BridgeError::Plan(format!(
                "array `{}`: buffer has {len} elements, map was compiled for {:?} = {} \
                 per sample (batch of {n})",
                self.array,
                self.array_dims,
                self.array_numel()
            )));
        }
        Ok(())
    }

    /// Walk the outer axes once, in row-major order, and hand `f` every
    /// position: `f(row, idx)` with `row` the linear outer position and
    /// `idx` its multi-index. Allocation-free.
    #[inline]
    fn for_each_outer(&self, mut f: impl FnMut(usize, &[usize])) {
        let outer = &self.walk_counts[..self.walk_counts.len() - 1];
        let mut idx = [0usize; MAX_SWEEP_RANK];
        let idx = &mut idx[..outer.len()];
        for row in 0..outer.iter().product() {
            f(row, idx);
            // Odometer step over the outer axes.
            for axis in (0..outer.len()).rev() {
                idx[axis] += 1;
                if idx[axis] < outer[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
    }

    /// Gather one sample into its `[sweep..., features]` chunk: walk the
    /// outer axes once and, per position, write each of the block's
    /// `inner` LHS rows with one fixed-width store of its `feat_total`
    /// features or, for a `block_copy` plan, copy the block in one piece.
    #[inline]
    fn gather_sample(&self, sample: &[f32], dst: &mut [f32]) {
        let rank = self.walk_counts.len();
        let inner = self.walk_counts[rank - 1];
        let block = inner * self.feat_total;
        self.for_each_outer(|row, idx| {
            let dst = &mut dst[row * block..(row + 1) * block];
            let source = |f: usize| {
                let strides = &self.feat_strides[f * rank..(f + 1) * rank];
                let base = idx
                    .iter()
                    .zip(strides)
                    .fold(self.feat_offsets[f], |o, (i, s)| o + i * s);
                (base, strides[rank - 1])
            };
            if self.block_copy {
                let (base, _) = source(0);
                dst.copy_from_slice(&sample[base..base + block]);
            } else {
                gather_rows_raw(sample, self.feat_total, source, inner, dst);
            }
        });
    }

    /// Scatter one sample's `[sweep..., features]` chunk back through the
    /// precompiled views into the per-sample application array: walk the
    /// outer axes once and, per position, copy every view's runs along the
    /// innermost axis out of that position's block of LHS rows, in view
    /// order — each view's writes are contiguous runs in the array, and
    /// where views overlap the later one wins.
    #[inline]
    fn scatter_sample(&self, src: &[f32], sample: &mut [f32]) {
        let rank = self.walk_counts.len();
        let inner = self.walk_counts[rank - 1];
        let block = inner * self.feat_total;
        self.for_each_outer(|row, idx| {
            for (cv, strides) in self.views.iter().zip(self.view_strides.chunks_exact(rank)) {
                let base = idx
                    .iter()
                    .zip(strides)
                    .fold(cv.offset, |o, (i, s)| o + i * s);
                scatter_chunks_raw(
                    sample,
                    base,
                    inner,
                    strides[rank - 1],
                    &src[row * block + cv.col..(row + 1) * block],
                    cv.run,
                    self.feat_total,
                );
            }
        });
    }

    /// Whether one sample's LHS chunk is its whole application array, in
    /// order: a batch of such samples gathers and scatters as one copy.
    fn whole_sample(&self) -> bool {
        self.block_copy
            && self.walk_counts.len() == 1
            && self.feat_offsets[0] == 0
            && self.numel() == self.array_numel()
    }

    /// Batched gather: `data` holds `n` per-sample arrays back to back, and
    /// the LHS tensor becomes the `n` per-sample tensors stacked along the
    /// leading dimension (`[n * sweep_0, sweep_1..., features]`). One pass
    /// over the leading dimension through the same precompiled per-sample
    /// strides — any `n` runs on a plan compiled once. Allocation-free once
    /// `out` has capacity; large batches parallelize over samples on the
    /// `hpacml-par` pool, and a smaller batch of samples that are each
    /// their whole array, in order (identity maps, row functors), is one
    /// copy.
    pub fn gather_batch_into(&self, data: &[f32], n: usize, out: &mut Tensor) -> Result<()> {
        self.check_buffer(data.len(), n)?;
        let pn = self.numel();
        let an = self.array_numel();
        resize_batched(out, n, &self.lhs_shape);
        if pn == 0 || n == 0 {
            return Ok(());
        }
        let od = out.data_mut();
        if n > 1 && n * pn >= PAR_ELEMS {
            hpacml_par::par_chunks_mut(od, pn, |start, dst| {
                let i = start / pn;
                self.gather_sample(&data[i * an..(i + 1) * an], dst);
            });
        } else if self.whole_sample() {
            od.copy_from_slice(data);
        } else {
            for (i, dst) in od.chunks_exact_mut(pn).enumerate() {
                self.gather_sample(&data[i * an..(i + 1) * an], dst);
            }
        }
        Ok(())
    }

    /// Batched scatter: write `n` samples back through the per-sample plan in
    /// one pass over the leading dimension. Sample `i` reads the
    /// `self.numel()` elements at `lhs[i * lhs_stride + lhs_offset ..]` and
    /// scatters them into `data[i * array_numel ..]` — the stride/offset form
    /// lets the runtime consume one model-output chunk per sample without
    /// copying when a forward pass produces several output arrays
    /// interleaved. Allocation-free; large batches parallelize over samples,
    /// and a smaller batch of back-to-back samples that are each their whole
    /// array, in order, is one copy.
    pub fn scatter_batch(
        &self,
        lhs: &[f32],
        lhs_stride: usize,
        lhs_offset: usize,
        n: usize,
        data: &mut [f32],
    ) -> Result<()> {
        self.check_buffer(data.len(), n)?;
        let pn = self.numel();
        let an = self.array_numel();
        if pn == 0 || n == 0 {
            return Ok(());
        }
        let need = (n - 1) * lhs_stride + lhs_offset + pn;
        if lhs.len() < need {
            return Err(BridgeError::Plan(format!(
                "scatter: batch of {n} needs {need} source elements \
                 (stride {lhs_stride}, offset {lhs_offset}) but tensor has {}",
                lhs.len()
            )));
        }
        if n > 1 && n * pn >= PAR_ELEMS {
            hpacml_par::par_chunks_mut(data, an, |start, sample| {
                let i = start / an;
                self.scatter_sample(&lhs[i * lhs_stride + lhs_offset..][..pn], sample);
            });
        } else if self.whole_sample() && lhs_stride == pn && lhs_offset == 0 {
            data.copy_from_slice(&lhs[..n * pn]);
        } else {
            for (i, sample) in data.chunks_exact_mut(an).enumerate() {
                self.scatter_sample(&lhs[i * lhs_stride + lhs_offset..][..pn], sample);
            }
        }
        Ok(())
    }
    /// The gather's per-feature sources, for reading a batch of `n`
    /// samples in place instead of gathering it: `Some` when every feature
    /// column steps through the innermost walk axis contiguously (stride 1 —
    /// a stencil's slices do; a row functor's features, `F` apart, do not),
    /// so each outer position's block is `k` contiguous columns. The
    /// `(base, stride)` walk [`gather_rows_raw`] consumes, handed out as
    /// runs ([`InputColumns`]); a chain that reads them sees the rows the
    /// gather would have written, in the same order. `data` is checked as
    /// the gather checks it.
    pub fn columns<'a>(&'a self, data: &'a [f32], n: usize) -> Result<Option<PlanColumns<'a>>> {
        self.check_buffer(data.len(), n)?;
        let rank = self.walk_counts.len();
        let contiguous = self
            .feat_strides
            .chunks_exact(rank)
            .all(|st| st[rank - 1] == 1);
        Ok(contiguous.then_some(PlanColumns {
            plan: self,
            data,
            n,
        }))
    }
}

/// A batch of application arrays read in place through a gather plan: the
/// `[n · points, features]` rows the plan would gather, as runs of
/// contiguous feature columns, one run per outer walk position (see
/// [`CompiledMap::columns`]).
// lint: allow(crate-local-pub) — returned by `CompiledMap::columns`, whose callers pass it on as `&dyn InputColumns` without naming it
pub struct PlanColumns<'a> {
    plan: &'a CompiledMap,
    data: &'a [f32],
    n: usize,
}

impl InputColumns for PlanColumns<'_> {
    fn data(&self) -> &[f32] {
        self.data
    }

    fn dims(&self) -> (usize, usize) {
        let points = self.plan.walk_counts.iter().product::<usize>();
        (self.n * points, self.plan.feat_total)
    }

    /// Walk each sample's outer axes with the gather's odometer
    /// (`for_each_outer`), handing on the part of each position's run
    /// that falls in `row0..row0 + rows`; each position's feature bases cost
    /// one multiply-add per axis.
    fn runs(
        &self,
        row0: usize,
        rows: usize,
        base: &mut [usize],
        f: &mut dyn FnMut(&[usize], usize),
    ) {
        let plan = self.plan;
        if rows == 0 {
            return;
        }
        // `rows > 0` rows exist, so no walk extent is zero.
        let rank = plan.walk_counts.len();
        let inner = plan.walk_counts[rank - 1];
        let points = plan.walk_counts.iter().product::<usize>();
        let (an, end) = (plan.array_numel(), row0 + rows);
        for sample in row0 / points..end.div_ceil(points) {
            plan.for_each_outer(|row, idx| {
                let first = sample * points + row * inner;
                let (lo, hi) = (first.max(row0), (first + inner).min(end));
                if lo >= hi {
                    return;
                }
                let strides = plan.feat_strides.chunks_exact(rank);
                for (fb, (&off, st)) in base.iter_mut().zip(plan.feat_offsets.iter().zip(strides)) {
                    let at = sample * an + off + (lo - first);
                    *fb = idx.iter().zip(st).fold(at, |o, (x, s)| o + x * s);
                }
                f(base, hi - lo);
            });
        }
    }
}

/// Resize `out` to `n` stacked per-sample tensors: `[n * dims[0], dims[1..]]`
/// (or `[n]` for a rank-0 per-sample shape), without allocating for the dims
/// on the hot path.
fn resize_batched(out: &mut Tensor, n: usize, dims: &[usize]) {
    const MAX_RANK: usize = 16;
    if dims.is_empty() {
        out.resize(&[n]);
    } else if dims.len() <= MAX_RANK {
        let mut buf = [0usize; MAX_RANK];
        buf[..dims.len()].copy_from_slice(dims);
        buf[0] *= n;
        out.resize(&buf[..dims.len()]);
    } else {
        let mut v = dims.to_vec();
        v[0] *= n;
        out.resize(&v);
    }
}

/// Compile a tensor map against an analyzed functor, a concrete array shape
/// and integer-variable bindings.
pub fn compile(
    info: &FunctorInfo,
    map: &MapDirective,
    array_dims: &[usize],
    binds: &Bindings,
) -> Result<CompiledMap> {
    if map.functor != info.decl.name {
        return Err(BridgeError::Plan(format!(
            "map names functor `{}` but `{}` was supplied",
            map.functor, info.decl.name
        )));
    }
    // LHS must list every sweep dimension before any feature dimension so the
    // composed tensor is a plain reshape away from [sweep..., features...].
    let mut seen_feature = false;
    for d in &info.lhs_dims {
        match d {
            LhsDim::Feature(_) => seen_feature = true,
            LhsDim::Sweep(sym) if seen_feature => {
                return Err(BridgeError::Plan(format!(
                    "functor `{}`: sweep dimension `{sym}` appears after a feature dimension; \
                     declare sweep dimensions first",
                    info.decl.name
                )));
            }
            LhsDim::Sweep(_) => {}
        }
    }

    let sweep = resolve_sweep(&info.sweep_syms, &map.target, binds)?;
    if sweep.len() > MAX_SWEEP_RANK {
        return Err(BridgeError::Plan(format!(
            "functor `{}` sweeps {} dimensions; at most {MAX_SWEEP_RANK} are supported",
            info.decl.name,
            sweep.len()
        )));
    }
    let extracts = extract(info)?;
    if extracts.len() != info.rhs_elem_counts.len() {
        return Err(BridgeError::Plan(format!(
            "functor `{}` has {} RHS slice(s) but {} element count(s)",
            info.decl.name,
            extracts.len(),
            info.rhs_elem_counts.len()
        )));
    }
    let array_numel = product(array_dims, "array shape")?;
    let mut views = Vec::with_capacity(extracts.len());
    let mut view_strides = Vec::new();
    let mut col = 0usize;
    for (ex, &elems) in extracts.iter().zip(&info.rhs_elem_counts) {
        let rv = resolve_slice(ex, array_dims, &sweep)?;
        // Validate bounds now, at compile time, and keep the validated raw
        // parts — invocations run the raw copy kernel on them directly.
        let (offset, dims, strides) = to_view_parts(&rv, array_numel)?;
        // The kernels trust that a slice's trailing (feature) dimensions
        // hold exactly the `elems` values the LHS row reserves for it: a
        // disagreement would land runs at wrong columns, silently.
        let (feat_dims, feat_strides) = (&dims[rv.sweep_rank..], &strides[rv.sweep_rank..]);
        let view_elems = product(feat_dims, "RHS slice")?;
        if view_elems != elems {
            return Err(BridgeError::Plan(format!(
                "functor `{}`: an RHS slice yields {view_elems} element(s) per sweep point \
                 but the functor reserves {elems} feature column(s) for it",
                info.decl.name
            )));
        }
        classify_view(
            offset,
            &strides[..rv.sweep_rank],
            feat_dims,
            feat_strides,
            col,
            &mut views,
            &mut view_strides,
        );
        col = col.checked_add(elems).ok_or_else(|| {
            BridgeError::Plan(format!(
                "functor `{}`: the RHS yields more features than a usize holds",
                info.decl.name
            ))
        })?;
    }
    let feat_total = col;

    let sweep_counts: Vec<usize> = sweep.iter().map(|s| s.count).collect();
    // Gather/scatter address the LHS as `sweep points × feat_total` rows.
    // Checked before the axis merge, whose products it bounds.
    let sweep_points = product(&sweep_counts, "sweep")?;
    // A functor without sweep symbols is one sweep point: an axis of 1.
    let mut walk_counts = if sweep_counts.is_empty() {
        vec![1]
    } else {
        sweep_counts.clone()
    };
    merge_contiguous_axes(&mut walk_counts, &mut view_strides);
    let (feat_offsets, feat_strides) = expand_features(&views, &view_strides, walk_counts.len());
    let block_copy = is_block_copy(&feat_offsets, &feat_strides, &walk_counts);
    let mut lhs_shape = Vec::with_capacity(info.lhs_dims.len());
    let mut sweep_iter = sweep_counts.iter();
    for d in &info.lhs_dims {
        lhs_shape.push(match d {
            LhsDim::Sweep(_) => *sweep_iter.next().ok_or_else(|| {
                BridgeError::Plan(format!(
                    "functor `{}` declares more LHS sweep dimensions than sweep symbols",
                    info.decl.name
                ))
            })?,
            LhsDim::Feature(e) => *e,
        });
    }
    let lhs_numel = product(&lhs_shape, "LHS shape")?;
    if Some(lhs_numel) != sweep_points.checked_mul(feat_total) {
        return Err(BridgeError::Plan(format!(
            "functor `{}`: LHS shape {lhs_shape:?} has {lhs_numel} elements but the RHS \
             yields {sweep_points} sweep point(s) × {feat_total} feature(s)",
            info.decl.name
        )));
    }

    Ok(CompiledMap {
        direction: map.direction,
        array: map.target.array.clone(),
        array_dims: array_dims.to_vec(),
        sweep_counts,
        lhs_shape,
        elem_counts: info.rhs_elem_counts.clone(),
        feat_total,
        walk_counts,
        views,
        view_strides,
        feat_offsets,
        feat_strides,
        block_copy,
    })
}

/// `Π dims`, or a typed error when the product overflows `usize`.
fn product(dims: &[usize], what: &str) -> Result<usize> {
    dims.iter()
        .try_fold(1usize, |p, &d| p.checked_mul(d))
        .ok_or_else(|| {
            BridgeError::Plan(format!(
                "{what} {dims:?} has more elements than a usize holds"
            ))
        })
}

/// Step 3 (tensor wrapping) as a check: validate the resolved descriptor
/// against an array of `len` elements and return `(offset, shape, strides)`
/// in the unsigned form the copy kernels take. Out-of-bounds functor/map
/// combinations are rejected here, where the array length is finally known,
/// and so is any descriptor whose farthest element overflows `usize`.
fn to_view_parts(rv: &ResolvedView, len: usize) -> Result<(usize, Vec<usize>, Vec<usize>)> {
    let offset = usize::try_from(rv.offset).map_err(|_| {
        BridgeError::Plan(format!(
            "view base offset {} is before the start of the array (functor reaches outside the mapped region)",
            rv.offset
        ))
    })?;
    let mut shape = Vec::with_capacity(rv.dims.len());
    let mut strides = Vec::with_capacity(rv.dims.len());
    for &(count, stride) in &rv.dims {
        let stride = usize::try_from(stride).map_err(|_| {
            BridgeError::Plan(format!(
                "negative stride {stride} is not supported by the tensor layer"
            ))
        })?;
        shape.push(count);
        strides.push(stride);
    }
    if shape.contains(&0) {
        return Ok((offset, shape, strides));
    }
    // Bounds: highest reachable element must fit.
    let last = shape
        .iter()
        .zip(&strides)
        .try_fold(offset, |last, (count, stride)| {
            (count - 1).checked_mul(*stride)?.checked_add(last)
        });
    match last {
        Some(last) if last < len => Ok((offset, shape, strides)),
        Some(last) => Err(BridgeError::Plan(format!(
            "functor reaches element {last} but the array has only {len} elements"
        ))),
        None => Err(BridgeError::Plan(format!(
            "functor reaches past element {} but the array has only {len} elements",
            usize::MAX
        ))),
    }
}

/// Merge every pair of adjacent walk axes that *all* views step through
/// contiguously (`stride[a] == count[a+1] · stride[a+1]`; the LHS side is
/// row-major over the sweep, so it always is) into one longer axis: fewer
/// outer positions to walk, longer inner loops for the copy kernel.
/// `view_strides` holds `counts.len()` strides per view, view-major.
fn merge_contiguous_axes(counts: &mut Vec<usize>, view_strides: &mut Vec<usize>) {
    for a in (0..counts.len() - 1).rev() {
        let rank = counts.len();
        if view_strides
            .chunks_exact(rank)
            .all(|st| st[a] == counts[a + 1] * st[a + 1])
        {
            counts[a] *= counts.remove(a + 1);
            // Axis `a` now steps like the old `a + 1`: drop every view's
            // stride at position `a`.
            let mut at = 0;
            view_strides.retain(|_| {
                at += 1;
                (at - 1) % rank != a
            });
        }
    }
}

/// Expand the views into one gather source per feature column: the `e`-th
/// element of a view's run is column `col + e`, at `offset + e`, with the
/// view's strides. Returns `(feat_offsets, feat_strides)`.
fn expand_features(
    views: &[CompiledView],
    view_strides: &[usize],
    rank: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = Vec::new();
    let mut strides = Vec::new();
    for (cv, st) in views.iter().zip(view_strides.chunks_exact(rank)) {
        for e in 0..cv.run {
            offsets.push(cv.offset + e);
            strides.extend_from_slice(st);
        }
    }
    (offsets, strides)
}

/// Whether every outer position's block of `inner × F` LHS elements is one
/// contiguous run of the array: feature `f` sits at `offsets[0] + f` with
/// the strides of feature 0, and consecutive sweep points are `F` apart
/// (or there is one point per block).
fn is_block_copy(offsets: &[usize], strides: &[usize], walk_counts: &[usize]) -> bool {
    let rank = walk_counts.len();
    let f_total = offsets.len();
    let first = &strides[..rank];
    f_total > 0
        && offsets
            .iter()
            .enumerate()
            .all(|(f, &o)| o == offsets[0] + f)
        && strides.chunks_exact(rank).all(|st| st == first)
        && (walk_counts[rank - 1] == 1 || first[rank - 1] == f_total)
}

/// Classify one validated RHS slice into run-length views and append it
/// to `views`. The slice's trailing feature dimensions that are contiguous
/// in memory collapse into one run per sweep point (`[i, j-1:j+2]` → a run
/// of 3; a point slice → a run of 1). Feature dimensions that are *not*
/// contiguous (a stepped range such as `[6*i : 6*i+6 : 2]`) are unrolled
/// here, once: one view per remaining feature index, each with its own
/// offset and column — so the per-call path only ever sees runs.
fn classify_view(
    offset: usize,
    sweep_strides: &[usize],
    feat_dims: &[usize],
    feat_strides: &[usize],
    col: usize,
    views: &mut Vec<CompiledView>,
    view_strides: &mut Vec<usize>,
) {
    let mut run = 1usize;
    let mut unrolled = feat_dims.len();
    while unrolled > 0 && feat_strides[unrolled - 1] == run {
        run *= feat_dims[unrolled - 1];
        unrolled -= 1;
    }
    let pieces: usize = feat_dims[..unrolled].iter().product();
    for piece in 0..pieces {
        // Row-major multi-index of `piece` over the unrolled dimensions.
        let (mut rest, mut piece_offset) = (piece, offset);
        for (d, s) in feat_dims[..unrolled]
            .iter()
            .zip(&feat_strides[..unrolled])
            .rev()
        {
            piece_offset += (rest % d) * s;
            rest /= d;
        }
        views.push(CompiledView {
            offset: piece_offset,
            run,
            col: col + piece * run,
        });
        if sweep_strides.is_empty() {
            view_strides.push(0); // the single axis of extent 1
        } else {
            view_strides.extend_from_slice(sweep_strides);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpacml_directive::parse::parse_directive;
    use hpacml_directive::sema::analyze;
    use hpacml_directive::{Directive, DirectiveError};

    fn functor_info(src: &str) -> FunctorInfo {
        match parse_directive(src).unwrap() {
            Directive::Functor(f) => analyze(&f).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    fn map_dir(src: &str) -> MapDirective {
        match parse_directive(src).unwrap() {
            Directive::Map(m) => m,
            other => panic!("{other:?}"),
        }
    }

    /// One sample through the batched gather, as a batch-1 session runs it.
    fn gather(plan: &CompiledMap, data: &[f32]) -> Result<Tensor> {
        let mut out = Tensor::zeros([0usize]);
        plan.gather_batch_into(data, 1, &mut out)?;
        Ok(out)
    }

    /// One sample through the batched scatter.
    fn scatter(plan: &CompiledMap, lhs: &[f32], data: &mut [f32]) -> Result<()> {
        plan.scatter_batch(lhs, plan.numel(), 0, 1, data)
    }

    /// The full Fig. 2 input bridge on a 6×7 grid, checked element by element
    /// against the 5-point stencil it describes.
    #[test]
    fn fig2_stencil_gather_matches_manual() {
        let (n, m) = (6usize, 7usize);
        let info = functor_info(
            "tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))",
        );
        let map = map_dir("tensor map(to: ifnctr(t[1:N-1, 1:M-1]))");
        let binds = Bindings::new().with("N", n as i64).with("M", m as i64);
        let plan = compile(&info, &map, &[n, m], &binds).unwrap();
        assert_eq!(plan.lhs_shape, vec![n - 2, m - 2, 5]);

        let grid: Vec<f32> = (0..n * m).map(|k| k as f32).collect();
        let t = gather(&plan, &grid).unwrap();
        for i in 1..n - 1 {
            for j in 1..m - 1 {
                let point = |ii: usize, jj: usize| grid[ii * m + jj];
                let expect = [
                    point(i - 1, j),
                    point(i + 1, j),
                    point(i, j - 1),
                    point(i, j),
                    point(i, j + 1),
                ];
                for (f, e) in expect.iter().enumerate() {
                    assert_eq!(
                        t.at(&[i - 1, j - 1, f]),
                        *e,
                        "stencil feature {f} at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn fig2_output_scatter_writes_interior_only() {
        let (n, m) = (5usize, 5usize);
        let info = functor_info("tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))");
        let map = map_dir("tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))");
        let binds = Bindings::new().with("N", n as i64).with("M", m as i64);
        let plan = compile(&info, &map, &[n, m], &binds).unwrap();

        let lhs = Tensor::from_shape_fn(plan.lhs_shape.clone(), |ix| {
            (100 + ix[0] * 10 + ix[1]) as f32
        });
        let mut grid = vec![0.0f32; n * m];
        scatter(&plan, lhs.data(), &mut grid).unwrap();
        for i in 0..n {
            for j in 0..m {
                let v = grid[i * m + j];
                if i == 0 || i == n - 1 || j == 0 || j == m - 1 {
                    assert_eq!(v, 0.0, "boundary ({i},{j}) must be untouched");
                } else {
                    assert_eq!(v, (100 + (i - 1) * 10 + (j - 1)) as f32);
                }
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip_through_identity_functor() {
        let info = functor_info("tensor functor(id: [i, j, 0:1] = ([i, j]))");
        let to = map_dir("tensor map(to: id(a[0:N, 0:M]))");
        let from = map_dir("tensor map(from: id(a[0:N, 0:M]))");
        let binds = Bindings::new().with("N", 4).with("M", 3);
        let plan_to = compile(&info, &to, &[4, 3], &binds).unwrap();
        let plan_from = compile(&info, &from, &[4, 3], &binds).unwrap();

        let src: Vec<f32> = (0..12).map(|k| (k * k) as f32).collect();
        let t = gather(&plan_to, &src).unwrap();
        let mut dst = vec![0.0f32; 12];
        scatter(&plan_from, t.data(), &mut dst).unwrap();
        assert_eq!(dst, src);
    }

    #[test]
    fn flat_rows_functor_gathers_blocks() {
        // MiniBUDE-style: 6 features per pose from a flat array.
        let info = functor_info("tensor functor(rows: [i, 0:6] = ([6*i : 6*i+6]))");
        let map = map_dir("tensor map(to: rows(poses[0:N]))");
        let binds = Bindings::new().with("N", 4);
        let plan = compile(&info, &map, &[24], &binds).unwrap();
        assert_eq!(plan.lhs_shape, vec![4, 6]);
        let data: Vec<f32> = (0..24).map(|k| k as f32).collect();
        let t = gather(&plan, &data).unwrap();
        assert_eq!(t.data(), data.as_slice());
    }

    #[test]
    fn out_of_bounds_functor_rejected_at_compile() {
        // Sweeping i over 0..N with [i-1] reaches index -1.
        let info = functor_info("tensor functor(back: [i, 0:1] = ([i-1]))");
        let map = map_dir("tensor map(to: back(x[0:N]))");
        let binds = Bindings::new().with("N", 4);
        let err = compile(&info, &map, &[4], &binds).unwrap_err();
        assert!(matches!(err, BridgeError::Plan(s) if s.contains("before the start")));
        // Narrowing the sweep fixes it.
        let map = map_dir("tensor map(to: back(x[1:N]))");
        assert!(compile(&info, &map, &[4], &binds).is_ok());
    }

    #[test]
    fn negative_offset_rejected_with_message() {
        let rv = ResolvedView {
            offset: -1,
            dims: vec![(2, 1)],
            sweep_rank: 1,
        };
        let err = to_view_parts(&rv, 4).unwrap_err();
        assert!(matches!(err, BridgeError::Plan(s) if s.contains("before the start")));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let rv = ResolvedView {
            offset: 0,
            dims: vec![(5, 2)],
            sweep_rank: 1,
        };
        assert!(to_view_parts(&rv, 8).is_err());
        assert!(to_view_parts(&rv, 9).is_ok());
    }

    #[test]
    fn negative_stride_rejected() {
        let rv = ResolvedView {
            offset: 4,
            dims: vec![(3, -1)],
            sweep_rank: 1,
        };
        assert!(matches!(to_view_parts(&rv, 8), Err(BridgeError::Plan(_))));
    }

    /// Compile `functor` over `target` with every `binds` value, expecting a
    /// typed plan error that mentions `needle`.
    fn assert_plan_error(
        functor: &str,
        target: &str,
        dims: &[usize],
        binds: &[(&str, i64)],
        needle: &str,
    ) {
        let info = functor_info(functor);
        let map = map_dir(&format!("tensor map(to: {}({target}))", info.decl.name));
        let binds = binds
            .iter()
            .fold(Bindings::new(), |b, (k, v)| b.with(*k, *v));
        match compile(&info, &map, dims, &binds) {
            Err(BridgeError::Plan(s)) if s.contains(needle) => {}
            other => panic!(
                "{functor} over {target}: expected a plan error naming `{needle}`, got {other:?}"
            ),
        }
    }

    /// A sweep range whose span does not fit an `i64`.
    #[test]
    fn sweep_span_overflow_is_a_plan_error() {
        let f = "tensor functor(f: [i, 0:1] = ([i]))";
        assert_plan_error(f, "x[S:N]", &[4], &[("S", i64::MIN), ("N", 1)], "overflows");
    }

    /// `x[0:4:S]` with `S = i64::MAX` is the one point `x[0]`. Rounding the
    /// point count up by `(span + step - 1) / step` overflowed; wrapped, it
    /// compiled to an empty `[0, 1]` plan.
    #[test]
    fn sweep_step_near_i64_max_is_one_point() {
        let info = functor_info("tensor functor(f: [i, 0:1] = ([i]))");
        let map = map_dir("tensor map(to: f(x[0:4:S]))");
        let plan = compile(&info, &map, &[4], &Bindings::new().with("S", i64::MAX)).unwrap();
        assert_eq!(plan.lhs_shape, vec![1, 1]);
        assert_eq!(gather(&plan, &[5.0, 6.0, 7.0, 8.0]).unwrap().data(), &[5.0]);
    }

    /// The farthest element `(N - 1) · 8` of a 2^61 + 1 point sweep is
    /// 2^64: it overflows `usize`, and wrapped it passed the bounds check
    /// with a `[2^61 + 1, 1]` plan over a 16-element array.
    #[test]
    fn view_extent_overflow_is_a_plan_error() {
        let n = (1i64 << 61) + 1;
        let f = "tensor functor(f: [i, 0:1] = ([8*i]))";
        assert_plan_error(f, "x[0:N]", &[16], &[("N", n)], "reaches past element");
        let f = "tensor functor(rows: [i, 0:8] = ([8*i : 8*i+8]))";
        assert_plan_error(f, "x[0:N]", &[8], &[("N", n)], "reaches past element");
    }

    /// Sweep symbols the RHS never reads step by 0, so every point is in
    /// bounds — but 2^40 × 2^40 sweep points do not fit a `usize`.
    #[test]
    fn sweep_product_overflow_is_a_plan_error() {
        let f = "tensor functor(c: [i, j, 0:1] = ([0]))";
        let n = 1i64 << 40;
        assert_plan_error(
            f,
            "x[0:N, 0:N]",
            &[1],
            &[("N", n)],
            "more elements than a usize holds",
        );
    }

    /// `N / -1` with `N = i64::MIN` panics even in release arithmetic.
    #[test]
    fn bound_division_overflow_is_a_directive_error() {
        let info = functor_info("tensor functor(f: [i, 0:1] = ([i]))");
        let map = map_dir("tensor map(to: f(x[0:N/-1]))");
        let err = compile(&info, &map, &[4], &Bindings::new().with("N", i64::MIN)).unwrap_err();
        assert!(
            matches!(&err, BridgeError::Directive(DirectiveError::Sema(s)) if s.contains("overflows")),
            "{err}"
        );
    }

    #[test]
    fn wrong_functor_name_rejected() {
        let info = functor_info("tensor functor(f: [i, 0:1] = ([i]))");
        let map = map_dir("tensor map(to: g(x[0:4]))");
        assert!(compile(&info, &map, &[4], &Bindings::new()).is_err());
    }

    #[test]
    fn sweep_after_feature_dim_rejected() {
        let info = functor_info("tensor functor(odd: [0:2, i] = ([i, 0:2]))");
        let map = map_dir("tensor map(to: odd(x[0:3]))");
        // Array rank is 2 for RHS [i, 0:2].
        let err = compile(&info, &map, &[3, 2], &Bindings::new().with("N", 3)).unwrap_err();
        assert!(matches!(err, BridgeError::Plan(s) if s.contains("sweep dimensions first")));
    }

    /// `FunctorInfo`'s fields are public, so `compile` cannot assume the
    /// analyzer's invariants: an RHS element count that disagrees with the
    /// slice it describes, or an LHS whose feature extent is not the RHS
    /// total, would make the kernels land runs at wrong offsets without a
    /// word. Both are typed plan errors.
    #[test]
    fn inconsistent_functor_info_rejected_at_compile() {
        let map = map_dir("tensor map(to: st(t[1:N-1, 1:M-1]))");
        let binds = Bindings::new().with("N", 6).with("M", 7);
        let good =
            functor_info("tensor functor(st: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))");
        assert!(compile(&good, &map, &[6, 7], &binds).is_ok());

        // The 3-wide range slice claims 2 feature columns: chunks would not
        // nest with the slice's innermost run.
        let mut bad = good.clone();
        bad.rhs_elem_counts = vec![1, 1, 2];
        let err = compile(&bad, &map, &[6, 7], &binds).unwrap_err();
        assert!(
            matches!(&err, BridgeError::Plan(s) if s.contains("3 element(s) per sweep point")),
            "{err}"
        );

        // One element count short of the RHS slices.
        let mut bad = good.clone();
        bad.rhs_elem_counts = vec![1, 1];
        assert!(matches!(
            compile(&bad, &map, &[6, 7], &binds),
            Err(BridgeError::Plan(_))
        ));

        // LHS declares 4 features, the RHS yields 5 per sweep point: the
        // view's element count is not sweep points × LHS features.
        let mut bad = good.clone();
        bad.lhs_dims[2] = LhsDim::Feature(4);
        let err = compile(&bad, &map, &[6, 7], &binds).unwrap_err();
        assert!(
            matches!(&err, BridgeError::Plan(s) if s.contains("20 sweep point(s) × 5 feature(s)")),
            "{err}"
        );
    }

    /// A stepped feature range is not contiguous in memory: compile unrolls
    /// it into single-element runs, and gather/scatter still agree with
    /// direct indexing.
    #[test]
    fn stepped_feature_range_gathers_and_scatters() {
        let info = functor_info("tensor functor(ev: [i, 0:3] = ([6*i : 6*i+6 : 2]))");
        let to = map_dir("tensor map(to: ev(x[0:N]))");
        let from = map_dir("tensor map(from: ev(x[0:N]))");
        let binds = Bindings::new().with("N", 4);
        let plan = compile(&info, &to, &[24], &binds).unwrap();
        assert_eq!(plan.lhs_shape, vec![4, 3]);
        let data: Vec<f32> = (0..24).map(|k| k as f32).collect();
        let t = gather(&plan, &data).unwrap();
        let want: Vec<f32> = (0..4)
            .flat_map(|i| [6 * i, 6 * i + 2, 6 * i + 4])
            .map(|k| k as f32)
            .collect();
        assert_eq!(t.data(), want.as_slice());

        let mut back = vec![-1.0f32; 24];
        let plan = compile(&info, &from, &[24], &binds).unwrap();
        scatter(&plan, t.data(), &mut back).unwrap();
        for (k, v) in back.iter().enumerate() {
            assert_eq!(*v, if k % 2 == 0 { k as f32 } else { -1.0 }, "element {k}");
        }
    }

    /// Sweep axes merge only when *every* view steps through them
    /// contiguously: `[i, j]` over a full array does, its transpose `[j, i]`
    /// does not, so this map must keep walking both axes.
    #[test]
    fn axes_contiguous_in_only_some_views_are_not_merged() {
        let info = functor_info("tensor functor(tr: [i, j, 0:2] = ([i, j], [j, i]))");
        let map = map_dir("tensor map(to: tr(a[0:N, 0:N]))");
        let n = 5usize;
        let plan = compile(&info, &map, &[n, n], &Bindings::new().with("N", n as i64)).unwrap();
        assert_eq!(plan.walk_counts, vec![n, n]);
        let a: Vec<f32> = (0..n * n).map(|k| k as f32).collect();
        let t = gather(&plan, &a).unwrap();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(t.at(&[i, j, 0]), a[i * n + j]);
                assert_eq!(t.at(&[i, j, 1]), a[j * n + i]);
            }
        }
        // The identity alone collapses to a single axis.
        let info = functor_info("tensor functor(id: [i, j, 0:1] = ([i, j]))");
        let map = map_dir("tensor map(to: id(a[0:N, 0:N]))");
        let plan = compile(&info, &map, &[n, n], &Bindings::new().with("N", n as i64)).unwrap();
        assert_eq!(plan.walk_counts, vec![n * n]);
        assert_eq!(gather(&plan, &a).unwrap().data(), a.as_slice());
    }

    /// A functor without sweep symbols cannot be written as a map directive
    /// (the grammar wants a range), but `MapTarget` is a plain struct: such
    /// a plan is one sweep point, walked as a single axis of extent 1.
    #[test]
    fn sweepless_functor_is_one_sweep_point() {
        let info = functor_info("tensor functor(head: [0:3] = ([1:4]))");
        let mut map = map_dir("tensor map(to: head(x[0:1]))");
        map.target.slices.clear();
        let plan = compile(&info, &map, &[5], &Bindings::new()).unwrap();
        assert_eq!(plan.lhs_shape, vec![3]);
        assert_eq!(plan.walk_counts, vec![1]);
        let data = [0.0f32, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(gather(&plan, &data).unwrap().data(), &[1.0, 2.0, 3.0]);
        map.direction = Direction::From;
        let mut back = [-1.0f32; 5];
        let plan = compile(&info, &map, &[5], &Bindings::new()).unwrap();
        scatter(&plan, &[7.0, 8.0, 9.0], &mut back).unwrap();
        assert_eq!(back, [-1.0, 7.0, 8.0, 9.0, -1.0]);
    }

    #[test]
    fn buffer_length_validated_at_gather() {
        let info = functor_info("tensor functor(id1: [i, 0:1] = ([i]))");
        let map = map_dir("tensor map(to: id1(x[0:4]))");
        let plan = compile(&info, &map, &[4], &Bindings::new()).unwrap();
        assert!(gather(&plan, &[0.0; 3]).is_err());
        assert!(gather(&plan, &[0.0; 4]).is_ok());
    }

    #[test]
    fn scatter_tensor_size_validated() {
        let info = functor_info("tensor functor(id2: [i, 0:1] = ([i]))");
        let map = map_dir("tensor map(from: id2(x[0:4]))");
        let plan = compile(&info, &map, &[4], &Bindings::new()).unwrap();
        let wrong = Tensor::zeros([2, 1]);
        let mut buf = vec![0.0f32; 4];
        assert!(scatter(&plan, wrong.data(), &mut buf).is_err());
    }

    /// Batched gather stacks per-sample gathers along the leading dimension,
    /// bit-identically to running the per-sample plan n times.
    #[test]
    fn gather_batch_matches_per_sample_loop() {
        let info =
            functor_info("tensor functor(st: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))");
        let map = map_dir("tensor map(to: st(t[1:N-1, 1:M-1]))");
        let (nr, mc) = (5usize, 6usize);
        let binds = Bindings::new().with("N", nr as i64).with("M", mc as i64);
        let plan = compile(&info, &map, &[nr, mc], &binds).unwrap();
        let an = plan.array_numel();
        let pn = plan.numel();
        let n = 4usize;
        let data: Vec<f32> = (0..n * an).map(|k| (k * 7 % 113) as f32).collect();

        let mut batched = Tensor::zeros([0usize]);
        plan.gather_batch_into(&data, n, &mut batched).unwrap();
        assert_eq!(batched.dims()[0], n * plan.lhs_shape[0]);
        assert_eq!(&batched.dims()[1..], &plan.lhs_shape[1..]);

        for i in 0..n {
            let one = gather(&plan, &data[i * an..(i + 1) * an]).unwrap();
            assert_eq!(
                &batched.data()[i * pn..(i + 1) * pn],
                one.data(),
                "sample {i}"
            );
        }
    }

    /// Batched scatter with a per-sample stride/offset is the inverse of the
    /// batched gather, and rejects undersized sources.
    #[test]
    fn scatter_batch_strided_roundtrips() {
        let info = functor_info("tensor functor(id: [i, j, 0:1] = ([i, j]))");
        let to = map_dir("tensor map(to: id(a[0:N, 0:M]))");
        let from = map_dir("tensor map(from: id(a[0:N, 0:M]))");
        let binds = Bindings::new().with("N", 3).with("M", 4);
        let plan_to = compile(&info, &to, &[3, 4], &binds).unwrap();
        let plan_from = compile(&info, &from, &[3, 4], &binds).unwrap();
        let an = plan_to.array_numel();
        let pn = plan_to.numel();
        let n = 3usize;
        let src: Vec<f32> = (0..n * an).map(|k| (k * k % 59) as f32).collect();
        let mut t = Tensor::zeros([0usize]);
        plan_to.gather_batch_into(&src, n, &mut t).unwrap();

        // Embed each sample's chunk in a wider strided buffer (as if the
        // model emitted extra features per sample) and scatter back.
        let stride = pn + 3;
        let offset = 2usize;
        let mut wide = vec![-1.0f32; (n - 1) * stride + offset + pn];
        for i in 0..n {
            wide[i * stride + offset..i * stride + offset + pn]
                .copy_from_slice(&t.data()[i * pn..(i + 1) * pn]);
        }
        let mut dst = vec![0.0f32; n * an];
        plan_from
            .scatter_batch(&wide, stride, offset, n, &mut dst)
            .unwrap();
        assert_eq!(dst, src);

        // Undersized source is rejected.
        assert!(plan_from
            .scatter_batch(&wide[..wide.len() - 1], stride, offset, n, &mut dst)
            .is_err());
        // Wrong destination length is rejected.
        assert!(plan_from
            .scatter_batch(&wide, stride, offset, n, &mut dst[..an])
            .is_err());
    }

    /// The per-view gather the row gather replaced, kept as the A/B
    /// reference: at every outer position each view writes its runs into
    /// every row of the block, `feat_total` apart — one pass per view.
    fn gather_sample_per_view(plan: &CompiledMap, sample: &[f32], dst: &mut [f32]) {
        fn runs<const R: usize>(
            src: &[f32],
            step: usize,
            dst: &mut [f32],
            stride: usize,
            n: usize,
        ) {
            let src = &src[..(n - 1) * step + R];
            let dst = &mut dst[..(n - 1) * stride + R];
            for p in 0..n {
                let to = <&mut [f32; R]>::try_from(&mut dst[p * stride..][..R]).unwrap();
                *to = <[f32; R]>::try_from(&src[p * step..][..R]).unwrap();
            }
        }
        let rank = plan.walk_counts.len();
        let (inner, f_total) = (plan.walk_counts[rank - 1], plan.feat_total);
        plan.for_each_outer(|row, idx| {
            for (cv, st) in plan.views.iter().zip(plan.view_strides.chunks_exact(rank)) {
                let base = idx.iter().zip(st).fold(cv.offset, |o, (i, s)| o + i * s);
                let (src, step) = (&sample[base..], st[rank - 1]);
                let dst = &mut dst[row * inner * f_total + cv.col..];
                match cv.run {
                    r if step == r && f_total == r => {
                        dst[..inner * r].copy_from_slice(&src[..inner * r])
                    }
                    1 => runs::<1>(src, step, dst, f_total, inner),
                    2 => runs::<2>(src, step, dst, f_total, inner),
                    3 => runs::<3>(src, step, dst, f_total, inner),
                    r => (0..inner).for_each(|p| {
                        dst[p * f_total..][..r].copy_from_slice(&src[p * step..][..r])
                    }),
                }
            }
        });
    }

    /// Same-process A/B of the row gather against the per-view walk it
    /// replaced, on the two shapes the gather serves in practice: the
    /// 258² 5-point stencil (one sample of `[256, 256, 5]`) and a sweep of
    /// 1 024 samples of a 6-wide row functor (each sample one whole-array
    /// copy). One thread, alternating calls; prints both p50s and asserts
    /// only that the bits agree.
    #[test]
    fn row_gather_against_per_view_walk_same_process() {
        let calls = if cfg!(debug_assertions) { 5 } else { 300 };
        let stencil = (
            "tensor functor(st: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))",
            "tensor map(to: st(t[1:N-1, 1:N-1]))",
            vec![258usize, 258],
            258i64,
            1usize,
        );
        let sweep = (
            "tensor functor(rows: [i, 0:6] = ([6*i : 6*i+6]))",
            "tensor map(to: rows(x[0:N]))",
            vec![6usize],
            1i64,
            1024usize,
        );
        for (functor, map, dims, bind, n) in [stencil, sweep] {
            let info = functor_info(functor);
            let plan = compile(
                &info,
                &map_dir(map),
                &dims,
                &Bindings::new().with("N", bind),
            )
            .unwrap();
            let (an, pn) = (plan.array_numel(), plan.numel());
            let data: Vec<f32> = (0..n * an).map(|k| (k % 1013) as f32 * 0.25).collect();
            let (mut new, mut old) = (Tensor::default(), vec![0.0f32; n * pn]);
            let time_us = |f: &mut dyn FnMut()| {
                // lint: allow(no-wall-clock) — a test's stopwatch around whole calls; no result reads it
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            };
            let (mut t_new, mut t_old) = (Vec::new(), Vec::new());
            for _ in 0..calls {
                t_new.push(time_us(&mut || {
                    plan.gather_batch_into(&data, n, &mut new).unwrap()
                }));
                t_old.push(time_us(&mut || {
                    for (i, dst) in old.chunks_exact_mut(pn).enumerate() {
                        gather_sample_per_view(&plan, &data[i * an..(i + 1) * an], dst);
                    }
                }));
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(new.data()), bits(&old), "{functor}");
            let p50 = |t: &mut Vec<f64>| {
                t.sort_by(f64::total_cmp);
                t[t.len() / 2]
            };
            println!(
                "{n} × {:?} via {functor}, 1 thread, p50 of {calls}: row gather {:.1} µs, \
                 per-view walk {:.1} µs",
                plan.lhs_shape,
                p50(&mut t_new),
                p50(&mut t_old)
            );
        }
    }

    /// Channel-major functor for CNN-style inputs: sweep (c, i, j) with a
    /// trailing feature dim of 1, as used by the MiniWeather annotation.
    #[test]
    fn channel_functor_is_copy_in_channel_order() {
        let info = functor_info("tensor functor(st: [c, i, j, 0:1] = ([c, i, j]))");
        let map = map_dir("tensor map(to: st(state[0:4, 0:H, 0:W]))");
        let binds = Bindings::new().with("H", 3).with("W", 2);
        let plan = compile(&info, &map, &[4, 3, 2], &binds).unwrap();
        assert_eq!(plan.lhs_shape, vec![4, 3, 2, 1]);
        let data: Vec<f32> = (0..24).map(|k| k as f32).collect();
        let t = gather(&plan, &data).unwrap();
        assert_eq!(t.data(), data.as_slice());
    }
}
