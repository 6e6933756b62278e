//! Compute kernels: matmul family, im2col convolution, pooling.
//!
//! These are the dense-linear-algebra operations the paper's Observation 2
//! is about: NN inference is implemented by dense kernels that use hardware
//! efficiently. All kernels parallelize over the [`hpacml_par`] pool and fall
//! back to inline execution for small problems: the convolutions over
//! samples, the GEMM over row stripes.
//!
//! Every dense product runs on the one register-tiled [`crate::gemm`]
//! kernel: the `Linear` forward (`matmul_transb_into`, with its fused
//! bias/activation epilogue), the training GEMMs (`matmul`, and the
//! convolution backward's dW and dcol) and the convolution forward's im2col
//! route, each `B` packed per call into this thread's scratch panels. `axpy`
//! is left only to the convolution forward's direct kernels (stride 1, and
//! small strided problems through im2col), which start each chain from the
//! bias.

use crate::gemm::{self, Act, Epilogue, PackedB, WithScratch, NR};
use crate::scalar::Scalar;
use crate::tensor::Tensor;
use crate::{Result, TensorError};
use std::sync::OnceLock;

// Parallelism threshold shared with the GEMM subsystem: below this many
// multiply-adds, kernels run inline.
use crate::gemm::PAR_FLOPS_MIN;

#[inline]
fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    // Plain mul+add (not `mul_add`): on targets without FMA the fused form
    // lowers to a libm call per element, which is ruinous in this hot loop;
    // mul+add autovectorizes everywhere.
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`: `B` packed from its rows into this thread's
/// scratch panels, then the one GEMM.
pub fn matmul<T: Scalar + WithScratch>(a: &Tensor<T>, b: &Tensor<T>) -> Result<Tensor<T>> {
    let (m, k) = mat_dims(a, "matmul lhs")?;
    let (kb, n) = mat_dims(b, "matmul rhs")?;
    if k != kb {
        return Err(TensorError::DimMismatch(format!(
            "matmul: lhs is [{m}, {k}], rhs is [{kb}, {n}]"
        )));
    }
    let mut c = Tensor::zeros([m, n]);
    T::with_gemm_scratch(|s| {
        s.packed_b.pack_kn_into(b.data(), k, n);
        gemm::gemm_into(m, a.data(), &s.packed_b, Epilogue::none(), c.data_mut());
    });
    Ok(c)
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` (dot products of rows — cache friendly)
/// into a caller-owned output tensor (resized in place; allocation-free
/// once `c` has capacity) with a fused
/// [`Epilogue`] — bias add and activation applied to each output tile
/// while it is register/L1-hot instead of in separate full sweeps. This is
/// the linear-layer kernel the zero-alloc inference workspace uses; when
/// the layer's weights are pre-packed (compiled models), prefer
/// [`gemm::matmul_transb_packed_into`] which skips the per-call pack.
pub fn matmul_transb_into<T: Scalar + WithScratch>(
    a: &Tensor<T>,
    b: &Tensor<T>,
    c: &mut Tensor<T>,
    epi: Epilogue<'_, T>,
) -> Result<()> {
    let (n, kb) = mat_dims(b, "matmul_transb rhs")?;
    let (m, k) = gemm::check_operands("matmul_transb", a, n, kb, &epi)?;
    c.resize(&[m, n]); // every cell is overwritten below; no zero fill needed
    T::with_gemm_scratch(|s| {
        s.packed_b.pack_rows_into(b.data(), n, k);
        gemm::gemm_into(m, a.data(), &s.packed_b, epi, c.data_mut());
    });
    Ok(())
}

fn mat_dims<T: Scalar>(t: &Tensor<T>, what: &str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::DimMismatch(format!(
            "{what}: expected rank 2, got {}",
            t.rank()
        )));
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Convolution geometry helper: output extent for one spatial dim.
#[inline]
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    if padded < kernel {
        return 0;
    }
    (padded - kernel) / stride + 1
}

/// Parameters of a 2-D convolution / pooling window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    pub kernel: (usize, usize),
    pub stride: (usize, usize),
    pub pad: (usize, usize),
}

impl Conv2dGeom {
    pub fn square(kernel: usize, stride: usize, pad: usize) -> Self {
        Conv2dGeom {
            kernel: (kernel, kernel),
            stride: (stride, stride),
            pad: (pad, pad),
        }
    }

    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out_dim(h, self.kernel.0, self.stride.0, self.pad.0),
            conv_out_dim(w, self.kernel.1, self.stride.1, self.pad.1),
        )
    }
}

/// Fill one im2col row: `row` encodes the tap `(ch, ki, kj)` as
/// `(ch * kh + ki) * kw + kj`, `dst` is that row's `OH*OW` destination.
fn im2col_fill_row<T: Scalar>(
    input: &[T],
    h: usize,
    w: usize,
    g: Conv2dGeom,
    row: usize,
    dst: &mut [T],
) {
    let (kh, kw) = g.kernel;
    let (sh, sw) = g.stride;
    let (ph, pw) = g.pad;
    let (oh, ow) = g.out_hw(h, w);
    debug_assert_eq!(dst.len(), oh * ow);
    let kj = row % kw;
    let ki = (row / kw) % kh;
    let ch = row / (kh * kw);
    for oy in 0..oh {
        let iy = (oy * sh + ki) as isize - ph as isize;
        let drow = &mut dst[oy * ow..(oy + 1) * ow];
        if iy < 0 || iy as usize >= h {
            for v in drow.iter_mut() {
                *v = T::ZERO;
            }
            continue;
        }
        let iy = iy as usize;
        let src_row = &input[(ch * h + iy) * w..(ch * h + iy + 1) * w];
        for (ox, v) in drow.iter_mut().enumerate() {
            let ix = (ox * sw + kj) as isize - pw as isize;
            *v = if ix < 0 || ix as usize >= w {
                T::ZERO
            } else {
                src_row[ix as usize]
            };
        }
    }
}

/// im2col for one sample: input `[C, H, W]` slice → col `[C*KH*KW, OH*OW]`.
pub(crate) fn im2col<T: Scalar>(
    input: &[T],
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    col: &mut [T],
) {
    let (kh, kw) = g.kernel;
    let (oh, ow) = g.out_hw(h, w);
    assert_eq!(
        col.len(),
        c * kh * kw * oh * ow,
        "im2col: bad col buffer size"
    );
    let l = oh * ow;
    // Row r of col corresponds to (ch, ki, kj); column to (oy, ox).
    for (row, dst) in col.chunks_exact_mut(l.max(1)).enumerate() {
        im2col_fill_row(input, h, w, g, row, dst);
    }
}

/// Zero-pad one sample: `input` `[C, H, W]` into `dst` `[C, H + 2·ph,
/// W + 2·pw]`, so that every im2col read of the padded sample is in bounds
/// and needs no edge test.
fn pad_sample<T: Scalar>(input: &[T], c: usize, h: usize, w: usize, g: Conv2dGeom, dst: &mut [T]) {
    let (ph, pw) = g.pad;
    let wp = w + 2 * pw;
    dst.fill(T::ZERO);
    let planes = dst
        .chunks_exact_mut((h + 2 * ph) * wp)
        .zip(input.chunks_exact(h * w));
    for (dplane, plane) in planes.take(c) {
        for (drow, row) in dplane[ph * wp..]
            .chunks_exact_mut(wp)
            .zip(plane.chunks_exact(w))
        {
            drow[pw..pw + w].copy_from_slice(row);
        }
    }
}

/// Fill panel `p` of one sample's im2col matrix (`[C*KH*KW, OH*OW]`) in the
/// GEMM's packed-`B` layout from the zero-padded sample `xpad` (see
/// [`pad_sample`]): `dst[row * NR + j]` is tap `row` at output pixel
/// `p * NR + j`, zero past the last pixel. Every element is the one
/// [`im2col`] writes at `(row, p * NR + j)`, so the GEMM reads the same
/// values, with every `k` step one contiguous `NR`-vector.
fn im2col_fill_panel<T: Scalar>(
    xpad: &[T],
    c: usize,
    (hp, wp): (usize, usize),
    g: Conv2dGeom,
    p: usize,
    dst: &mut [T],
) {
    let (kh, kw) = g.kernel;
    let (sh, sw) = g.stride;
    let (oh, ow) = (conv_out_dim(hp, kh, sh, 0), conv_out_dim(wp, kw, sw, 0));
    // The panel's pixels one output row at a time: lanes `lane0..lane0 + len`
    // are pixels `(oy, ox0..ox0 + len)`; lanes past the last pixel are zero.
    let (mut px, end) = (p * NR, (p * NR + NR).min(oh * ow));
    if end < px + NR {
        for drow in dst.chunks_exact_mut(NR) {
            drow[end - px..].fill(T::ZERO);
        }
    }
    while px < end {
        let (oy, ox0) = (px / ow, px % ow);
        let (lane0, len) = (px - p * NR, (ow - ox0).min(end - px));
        let mut drows = dst.chunks_exact_mut(NR);
        for ch in 0..c {
            for ki in 0..kh {
                let xrow = &xpad[(ch * hp + oy * sh + ki) * wp..][..wp];
                for kj in 0..kw {
                    let drow = drows.next().expect("c·kh·kw rows per panel");
                    // Lane `t` reads padded column `x0 + t·sw`.
                    let x0 = ox0 * sw + kj;
                    if sw == 1 && len == NR {
                        drow.copy_from_slice(&xrow[x0..x0 + NR]);
                    } else {
                        let src = xrow[x0..].iter().step_by(sw);
                        for (v, x) in drow[lane0..lane0 + len].iter_mut().zip(src) {
                            *v = *x;
                        }
                    }
                }
            }
        }
        px += len;
    }
}

/// im2col for one sample straight into `dst`'s GEMM panels (`[C*KH*KW,
/// OH*OW]` packed as [`PackedB`]), so the convolution GEMM needs no second
/// pass to pack its `B` operand. The sample is first zero-padded into
/// `xpad` so that no read needs an edge test. Large fills are dispatched
/// across the pool one panel per chunk (inline when already on a worker);
/// each panel's content depends only on the input and its own pixels, so
/// neither order nor thread can change a bit.
// allow: conv kernel plumbing — every dim/stride is an individually hot
// scalar the optimizer keeps in registers; a params struct defeats that.
#[allow(clippy::too_many_arguments)]
fn im2col_panels<T: Scalar + Send>(
    input: &[T],
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    xpad: &mut Vec<T>,
    dst: &mut PackedB<T>,
) {
    let (kh, kw) = g.kernel;
    let (oh, ow) = g.out_hw(h, w);
    let (rows, l) = (c * kh * kw, oh * ow);
    let (hp, wp) = (h + 2 * g.pad.0, w + 2 * g.pad.1);
    let padded = c * hp * wp;
    if xpad.len() < padded {
        xpad.resize(padded, T::ZERO);
    }
    let xpad = &mut xpad[..padded];
    pad_sample(input, c, h, w, g, xpad);
    let (xpad, dims) = (&*xpad, (hp, wp));
    let panel = (rows * NR).max(1);
    let panels = dst.panels_mut(rows, l);
    if l <= NR || rows * l < PAR_FLOPS_MIN {
        for (p, dst) in panels.chunks_exact_mut(panel).enumerate() {
            im2col_fill_panel(xpad, c, dims, g, p, dst);
        }
        return;
    }
    hpacml_par::par_chunks_mut(panels, panel, |start, dst| {
        im2col_fill_panel(xpad, c, dims, g, start / panel, dst);
    });
}

/// Reverse of [`im2col`]: accumulate col `[C*KH*KW, OH*OW]` back into the
/// input gradient `[C, H, W]`.
pub(crate) fn col2im<T: Scalar>(
    col: &[T],
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
    dinput: &mut [T],
) {
    let (kh, kw) = g.kernel;
    let (sh, sw) = g.stride;
    let (ph, pw) = g.pad;
    let (oh, ow) = g.out_hw(h, w);
    assert_eq!(
        col.len(),
        c * kh * kw * oh * ow,
        "col2im: bad col buffer size"
    );
    let l = oh * ow;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let src = &col[row * l..(row + 1) * l];
                for oy in 0..oh {
                    let iy = (oy * sh + ki) as isize - ph as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * sw + kj) as isize - pw as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        dinput[(ch * h + iy) * w + ix as usize] += src[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Does a per-sample conv problem (`f` filters, `ckk = c*kh*kw` taps,
/// `l = oh*ow` output pixels) pay for the im2col + packed-GEMM route?
/// The column matrix costs `ckk * l` writes; the GEMM amortizes that only
/// when the spatial extent spans whole register panels and the arithmetic
/// clears the shared `PAR_FLOPS_MIN` bar. Pure shape function — see
/// [`conv2d_fused_into`] for why that matters.
pub fn conv_gemm_worthwhile(f: usize, ckk: usize, l: usize) -> bool {
    l >= 2 * gemm::NR && f.saturating_mul(ckk).saturating_mul(l) >= PAR_FLOPS_MIN
}

/// Forward 2-D convolution into a caller-owned output tensor (resized in
/// place), with the compiled-layer extra: a fused activation applied while
/// each output tile is hot.
///
/// `input [N, C, H, W]`, `weight [F, C, KH, KW]`, `bias [F]` → `[N, F, OH, OW]`.
///
/// Large per-sample problems route through im2col straight into this
/// thread's reusable scratch GEMM panels and the register-tiled GEMM
/// (`out[f, l] = W[f, ckk] · col[ckk, l]`, the weight read in place as the
/// row-major `A` operand, with the bias — and, for fused layers, the
/// activation — applied in the GEMM epilogue). Small problems
/// keep the direct kernels: a row-span `axpy` path for stride 1, im2col +
/// `axpy` otherwise. The choice depends only on the per-sample geometry,
/// never on the batch size or thread count, so batched and per-sample
/// forwards stay bit-identical. Steady-state allocation-free on every path: the
/// direct kernels touch no scratch, and the im2col/GEMM paths reuse this
/// thread's grow-only [`gemm::GemmScratch`] panels and column buffer.
pub fn conv2d_fused_into<T: Scalar + WithScratch>(
    input: &Tensor<T>,
    weight: &Tensor<T>,
    bias: &[T],
    g: Conv2dGeom,
    act: Option<Act>,
    out: &mut Tensor<T>,
) -> Result<()> {
    let [n, c, h, w] = rank4(input, "conv2d input")?;
    let [f, cw, kh, kw] = rank4(weight, "conv2d weight")?;
    if cw != c || (kh, kw) != g.kernel {
        return Err(TensorError::DimMismatch(format!(
            "conv2d: weight [{f}, {cw}, {kh}, {kw}] does not match input channels {c} / kernel {:?}",
            g.kernel
        )));
    }
    if bias.len() != f {
        return Err(TensorError::DimMismatch(format!(
            "conv2d: bias len {} vs {f} filters",
            bias.len()
        )));
    }
    let (oh, ow) = g.out_hw(h, w);
    let l = oh * ow;
    let ckk = c * kh * kw;
    out.resize(&[n, f, oh, ow]); // every cell is overwritten by the kernels
    let in_sample = c * h * w;
    let out_sample = f * l;
    let wd = weight.data();
    let id = input.data();
    let use_gemm = conv_gemm_worthwhile(f, ckk, l);
    let direct = g.stride == (1, 1);
    let epi = Epilogue::row_bias(bias).with_act(act);

    // Small batches on a wide pool starve it if samples are the only
    // parallel axis (n < threads leaves cores idle); route those through
    // intra-sample parallelism — parallel im2col fill plus the row-parallel
    // GEMM — on the caller's thread instead. The per-sample math is the
    // same on both routes (each output element keeps its one ascending-k
    // chain), and the route choice is a pure function of batch size and
    // pool width, so batched == sequential stays bitwise.
    if use_gemm && !gemm::outer_saturates(n) {
        let od = out.data_mut();
        T::with_gemm_scratch(|s| {
            let gemm::GemmScratch { packed_b, col } = s;
            for (sample, out_n) in od.chunks_exact_mut(out_sample).enumerate() {
                let inp = &id[sample * in_sample..(sample + 1) * in_sample];
                im2col_panels(inp, c, h, w, g, col, packed_b);
                gemm::gemm_into(f, wd, packed_b, epi, out_n);
            }
        });
        return Ok(());
    }

    hpacml_par::par_chunks_mut(out.data_mut(), out_sample, |start, out_n| {
        let sample = start / out_sample;
        let inp = &id[sample * in_sample..(sample + 1) * in_sample];
        if use_gemm {
            // Nested dispatch (the panel fill, the GEMM's stripes) runs
            // inline here — on pool workers and on the participating caller
            // alike (both are flagged in-worker while draining) — so the
            // outer per-sample parallelism is preserved.
            T::with_gemm_scratch(|s| {
                im2col_panels(inp, c, h, w, g, &mut s.col, &mut s.packed_b);
                gemm::gemm_into(f, wd, &s.packed_b, epi, out_n);
            });
        } else if direct {
            conv2d_sample_direct_s1(inp, c, h, w, wd, bias, g, oh, ow, act, out_n);
        } else {
            T::with_gemm_scratch(|s| {
                if s.col.len() < ckk * l {
                    s.col.resize(ckk * l, T::ZERO);
                }
                let col = &mut s.col[..ckk * l];
                im2col(inp, c, h, w, g, col);
                // out_n[f, l] = W[f, ckk] · col[ckk, l]
                for (fi, orow) in out_n.chunks_exact_mut(l).enumerate() {
                    let wrow = &wd[fi * ckk..(fi + 1) * ckk];
                    for v in orow.iter_mut() {
                        *v = bias[fi];
                    }
                    for (kk, &wv) in wrow.iter().enumerate() {
                        axpy(wv, &col[kk * l..(kk + 1) * l], orow);
                    }
                    if let Some(act) = act {
                        for v in orow.iter_mut() {
                            *v = act.apply(*v);
                        }
                    }
                }
            });
        }
    });
    Ok(())
}

/// Direct stride-1 convolution for one sample: for every (filter, channel,
/// kernel tap) the contribution to an output row is a contiguous slice of an
/// input row scaled by one weight — a vectorizable `axpy` with the padding
/// handled by span clipping instead of per-pixel branches. A fused
/// activation is applied per filter plane while it is still cache-hot.
// allow: conv kernel plumbing — every dim/stride is an individually hot
// scalar the optimizer keeps in registers; a params struct defeats that.
#[allow(clippy::too_many_arguments)]
fn conv2d_sample_direct_s1<T: Scalar>(
    inp: &[T],
    c: usize,
    h: usize,
    w: usize,
    wd: &[T],
    bias: &[T],
    g: Conv2dGeom,
    oh: usize,
    ow: usize,
    act: Option<Act>,
    out_n: &mut [T],
) {
    let (kh, kw) = g.kernel;
    let (ph, pw) = g.pad;
    let l = oh * ow;
    for (fi, of) in out_n.chunks_exact_mut(l).enumerate() {
        for v in of.iter_mut() {
            *v = bias[fi];
        }
        for ch in 0..c {
            let plane = &inp[ch * h * w..(ch + 1) * h * w];
            for ki in 0..kh {
                for kj in 0..kw {
                    let wv = wd[((fi * c + ch) * kh + ki) * kw + kj];
                    if wv == T::ZERO {
                        continue;
                    }
                    // Valid output columns: 0 <= ox + kj - pw < w.
                    let o0 = (pw as isize - kj as isize).max(0) as usize;
                    let o1 = ((w as isize + pw as isize - kj as isize).max(0) as usize).min(ow);
                    if o0 >= o1 {
                        continue;
                    }
                    let shift = kj as isize - pw as isize;
                    for oy in 0..oh {
                        let iy = oy as isize + ki as isize - ph as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        let s0 = (o0 as isize + shift) as usize;
                        let src = &src_row[s0..s0 + (o1 - o0)];
                        axpy(wv, src, &mut of[oy * ow + o0..oy * ow + o1]);
                    }
                }
            }
        }
        if let Some(act) = act {
            for v in of.iter_mut() {
                *v = act.apply(*v);
            }
        }
    }
}

/// Gradients of [`conv2d_fused_into`]: returns `(dinput, dweight, dbias)`.
/// Per sample, both products run on the one GEMM: `dW = dout · colᵀ` (the
/// im2col matrix packed from its rows) and `dcol = Wᵀ · dout` (`dout`
/// packed from its rows), `dcol` then scattered back into dX (col2im).
pub fn conv2d_backward<T: Scalar + WithScratch>(
    input: &Tensor<T>,
    weight: &Tensor<T>,
    dout: &Tensor<T>,
    g: Conv2dGeom,
) -> Result<(Tensor<T>, Tensor<T>, Vec<T>)> {
    let [n, c, h, w] = rank4(input, "conv2d_backward input")?;
    let [f, _, kh, kw] = rank4(weight, "conv2d_backward weight")?;
    let (oh, ow) = g.out_hw(h, w);
    let l = oh * ow;
    let ckk = c * kh * kw;
    if dout.dims() != [n, f, oh, ow] {
        return Err(TensorError::DimMismatch(format!(
            "conv2d_backward: dout {:?} expected [{n}, {f}, {oh}, {ow}]",
            dout.dims()
        )));
    }
    let mut dinput = Tensor::zeros([n, c, h, w]);
    let in_sample = c * h * w;
    let out_sample = f * l;
    let id = input.data();
    let dd = dout.data();
    // Wᵀ[ckk, f], the `A` operand of every sample's dcol product.
    let wt: Vec<T> = (0..ckk * f)
        .map(|i| weight.data()[(i % f) * ckk + i / f])
        .collect();

    // Each sample's dW/db partials, kept apart and summed in sample order
    // below: the order in which the pool's participants finish must not
    // reach the bits.
    let partials: Vec<OnceLock<(Vec<T>, Vec<T>)>> = (0..n).map(|_| OnceLock::new()).collect();

    hpacml_par::par_chunks_mut(dinput.data_mut(), in_sample, |start, din_n| {
        let sample = start / in_sample;
        let dout_n = &dd[sample * out_sample..(sample + 1) * out_sample];
        let db_loc = (0..f)
            .map(|fi| {
                dout_n[fi * l..(fi + 1) * l]
                    .iter()
                    .fold(T::ZERO, |s, v| s + *v)
            })
            .collect();
        let mut dw_loc = vec![T::ZERO; f * ckk];
        T::with_gemm_scratch(|s| {
            let gemm::GemmScratch { packed_b, col } = s;
            if col.len() < ckk * l {
                col.resize(ckk * l, T::ZERO);
            }
            let col = &mut col[..ckk * l];
            let inp = &id[sample * in_sample..(sample + 1) * in_sample];
            im2col(inp, c, h, w, g, col);
            packed_b.pack_rows_into(col, ckk, l);
            gemm::gemm_into(f, dout_n, packed_b, Epilogue::none(), &mut dw_loc);
            // dcol overwrites the columns, which the pack above has copied.
            packed_b.pack_kn_into(dout_n, f, l);
            gemm::gemm_into(ckk, &wt, packed_b, Epilogue::none(), col);
            col2im(col, c, h, w, g, din_n);
        });
        let _ = partials[sample].set((dw_loc, db_loc));
    });

    let (mut dw, mut db) = (vec![T::ZERO; f * ckk], vec![T::ZERO; f]);
    for (dw_loc, db_loc) in partials.iter().filter_map(OnceLock::get) {
        for (a, b) in dw.iter_mut().zip(dw_loc) {
            *a += *b;
        }
        for (a, b) in db.iter_mut().zip(db_loc) {
            *a += *b;
        }
    }
    let dweight = Tensor::from_vec(dw, [f, c, kh, kw])?;
    Ok((dinput, dweight, db))
}

/// Forward max-pooling over `[N, C, H, W]`; returns the pooled tensor and the
/// flat argmax index (into the input) per output element, for backward.
pub fn maxpool2d<T: Scalar>(input: &Tensor<T>, g: Conv2dGeom) -> Result<(Tensor<T>, Vec<u32>)> {
    let [n, c, _, _] = rank4(input, "maxpool2d input")?;
    let (oh, ow) = g.out_hw(input.dims()[2], input.dims()[3]);
    let mut out = Tensor::zeros([0usize; 4]);
    let mut arg = vec![0u32; n * c * oh * ow];
    maxpool2d_body(input, g, &mut out, Some(&mut arg))?;
    Ok((out, arg))
}

/// [`maxpool2d`] writing into a caller-owned output tensor, without tracking
/// the argmax indices (inference only; resized in place, allocation-free once
/// `out` has capacity).
pub fn maxpool2d_into<T: Scalar>(
    input: &Tensor<T>,
    g: Conv2dGeom,
    out: &mut Tensor<T>,
) -> Result<()> {
    maxpool2d_body(input, g, out, None)
}

fn maxpool2d_body<T: Scalar>(
    input: &Tensor<T>,
    g: Conv2dGeom,
    out: &mut Tensor<T>,
    mut arg: Option<&mut [u32]>,
) -> Result<()> {
    let [n, c, h, w] = rank4(input, "maxpool2d input")?;
    let (kh, kw) = g.kernel;
    let (sh, sw) = g.stride;
    let (oh, ow) = g.out_hw(h, w);
    out.resize(&[n, c, oh, ow]);
    let id = input.data();
    let od = out.data_mut();
    for nn in 0..n {
        for ch in 0..c {
            let plane = (nn * c + ch) * h * w;
            let oplane = (nn * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = T::from_f64(f64::NEG_INFINITY);
                    let mut best_ix = 0usize;
                    for ki in 0..kh {
                        let iy = oy * sh + ki;
                        if iy >= h {
                            continue;
                        }
                        for kj in 0..kw {
                            let ix = ox * sw + kj;
                            if ix >= w {
                                continue;
                            }
                            let v = id[plane + iy * w + ix];
                            if v > best {
                                best = v;
                                best_ix = plane + iy * w + ix;
                            }
                        }
                    }
                    od[oplane + oy * ow + ox] = best;
                    if let Some(arg) = arg.as_deref_mut() {
                        arg[oplane + oy * ow + ox] = best_ix as u32;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Backward max-pooling: route `dout` gradients to the argmax positions.
pub fn maxpool2d_backward<T: Scalar>(
    dout: &Tensor<T>,
    arg: &[u32],
    input_shape: &[usize],
) -> Result<Tensor<T>> {
    if dout.numel() != arg.len() {
        return Err(TensorError::DimMismatch(format!(
            "maxpool2d_backward: dout {} vs argmax {}",
            dout.numel(),
            arg.len()
        )));
    }
    let mut dinput = Tensor::zeros(input_shape.to_vec());
    let dd = dinput.data_mut();
    for (g, ix) in dout.data().iter().zip(arg) {
        dd[*ix as usize] += *g;
    }
    Ok(dinput)
}

fn rank4<T: Scalar>(t: &Tensor<T>, what: &str) -> Result<[usize; 4]> {
    if t.rank() != 4 {
        return Err(TensorError::DimMismatch(format!(
            "{what}: expected rank 4, got {:?}",
            t.dims()
        )));
    }
    Ok([t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_transb<T: Scalar + WithScratch>(a: &Tensor<T>, b: &Tensor<T>) -> Result<Tensor<T>> {
        let mut c = Tensor::zeros([0usize; 2]);
        matmul_transb_into(a, b, &mut c, Epilogue::none())?;
        Ok(c)
    }

    fn conv2d<T: Scalar + WithScratch>(
        input: &Tensor<T>,
        weight: &Tensor<T>,
        bias: &[T],
        g: Conv2dGeom,
    ) -> Result<Tensor<T>> {
        let mut out = Tensor::zeros([0usize; 4]);
        conv2d_fused_into(input, weight, bias, g, None, &mut out)?;
        Ok(out)
    }

    fn naive_matmul(a: &Tensor<f64>, b: &Tensor<f64>) -> Tensor<f64> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        Tensor::from_shape_fn([m, n], |ix| {
            (0..k)
                .map(|kk| a.at(&[ix[0], kk]) * b.at(&[kk, ix[1]]))
                .sum()
        })
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Tensor<f64> {
        // Small deterministic LCG; avoids a rand dependency in unit tests.
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Tensor::from_shape_fn([m, n], |_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 4, 5),
            (17, 9, 23),
            (64, 64, 64),
        ] {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let c = matmul(&a, &b).unwrap();
            let expect = naive_matmul(&a, &b);
            assert!(c.max_abs_diff(&expect).unwrap() < 1e-10, "({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        let a = rand_mat(200, 80, 3);
        let b = rand_mat(80, 150, 4);
        let c = matmul(&a, &b).unwrap();
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)).unwrap() < 1e-9);
    }

    #[test]
    fn matmul_transb_matches() {
        let a = rand_mat(13, 7, 5);
        let bt = rand_mat(11, 7, 6); // B is [11, 7]; logical B^T is [7, 11]
        let b = Tensor::from_shape_fn([7, 11], |ix| bt.at(&[ix[1], ix[0]]));
        let c = matmul_transb(&a, &bt).unwrap();
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)).unwrap() < 1e-10);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::<f32>::zeros([2, 3]);
        let b = Tensor::<f32>::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    fn naive_conv2d(
        input: &Tensor<f64>,
        weight: &Tensor<f64>,
        bias: &[f64],
        g: Conv2dGeom,
    ) -> Tensor<f64> {
        let [n, c, h, w] = [
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        ];
        let [f, _, kh, kw] = [
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        ];
        let (oh, ow) = g.out_hw(h, w);
        Tensor::from_shape_fn([n, f, oh, ow], |ix| {
            let (nn, fi, oy, ox) = (ix[0], ix[1], ix[2], ix[3]);
            let mut acc = bias[fi];
            for ch in 0..c {
                for ki in 0..kh {
                    for kj in 0..kw {
                        let iy = (oy * g.stride.0 + ki) as isize - g.pad.0 as isize;
                        let ixx = (ox * g.stride.1 + kj) as isize - g.pad.1 as isize;
                        if iy < 0 || iy as usize >= h || ixx < 0 || ixx as usize >= w {
                            continue;
                        }
                        acc += input.at(&[nn, ch, iy as usize, ixx as usize])
                            * weight.at(&[fi, ch, ki, kj]);
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn conv2d_matches_naive_with_padding_and_stride() {
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1), (3, 0)] {
            let g = Conv2dGeom::square(3, stride, pad);
            let input = rand_mat(2 * 3 * 8 * 9, 1, 11)
                .reshape([2, 3, 8, 9])
                .unwrap();
            let weight = rand_mat(4 * 3 * 3 * 3, 1, 12)
                .reshape([4, 3, 3, 3])
                .unwrap();
            let bias = vec![0.1, -0.2, 0.3, 0.0];
            let got = conv2d(&input, &weight, &bias, g).unwrap();
            let expect = naive_conv2d(&input, &weight, &bias, g);
            assert!(
                got.max_abs_diff(&expect).unwrap() < 1e-10,
                "stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn conv2d_backward_matches_finite_differences() {
        let g = Conv2dGeom::square(3, 2, 1);
        let input = rand_mat(2 * 6 * 6, 1, 21).reshape([1, 2, 6, 6]).unwrap();
        let weight = rand_mat(3 * 2 * 3 * 3, 1, 22)
            .reshape([3, 2, 3, 3])
            .unwrap();
        let bias = vec![0.0; 3];
        // Loss = sum(conv output); then dL/dout = 1 everywhere.
        let out = conv2d(&input, &weight, &bias, g).unwrap();
        let dout = Tensor::full(out.dims().to_vec(), 1.0f64);
        let (dinput, dweight, dbias) = conv2d_backward(&input, &weight, &dout, g).unwrap();

        let eps = 1e-5;
        let loss = |inp: &Tensor<f64>, wt: &Tensor<f64>| -> f64 {
            conv2d(inp, wt, &bias, g).unwrap().sum()
        };
        // Check a scattering of input gradient entries.
        for &flat in &[0usize, 7, 35, 71] {
            let mut ip = input.clone();
            ip.data_mut()[flat] += eps;
            let mut im = input.clone();
            im.data_mut()[flat] -= eps;
            let fd = (loss(&ip, &weight) - loss(&im, &weight)) / (2.0 * eps);
            assert!(
                (fd - dinput.data()[flat]).abs() < 1e-5,
                "dinput[{flat}]: fd={fd} analytic={}",
                dinput.data()[flat]
            );
        }
        // And weight gradient entries.
        for &flat in &[0usize, 5, 17, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[flat] -= eps;
            let fd = (loss(&input, &wp) - loss(&input, &wm)) / (2.0 * eps);
            assert!(
                (fd - dweight.data()[flat]).abs() < 1e-5,
                "dweight[{flat}]: fd={fd} analytic={}",
                dweight.data()[flat]
            );
        }
        // Bias gradient of a sum-loss is the number of output pixels per filter.
        let (oh, ow) = g.out_hw(6, 6);
        for b in &dbias {
            assert!((b - (oh * ow) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(
            vec![
                1.0f32, 2.0, 5.0, 3.0, //
                4.0, 0.0, 1.0, 2.0, //
                7.0, 1.0, 0.0, 1.0, //
                2.0, 3.0, 4.0, 8.0,
            ],
            [1, 1, 4, 4],
        )
        .unwrap();
        let g = Conv2dGeom::square(2, 2, 0);
        let (out, arg) = maxpool2d(&input, g).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[4.0, 5.0, 7.0, 8.0]);
        let dout = Tensor::full([1, 1, 2, 2], 1.0f32);
        let din = maxpool2d_backward(&dout, &arg, &[1, 1, 4, 4]).unwrap();
        assert_eq!(din.data()[4], 1.0); // the "4.0"
        assert_eq!(din.data()[2], 1.0); // the "5.0"
        assert_eq!(din.data()[8], 1.0); // the "7.0"
        assert_eq!(din.data()[15], 1.0); // the "8.0"
        assert_eq!(din.sum(), 4.0);
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> — the operators are adjoint.
        let g = Conv2dGeom::square(3, 2, 1);
        let (c, h, w) = (2usize, 5usize, 6usize);
        let (oh, ow) = g.out_hw(h, w);
        let ckk = c * 9;
        let x = rand_mat(c * h * w, 1, 31).data().to_vec();
        let y = rand_mat(ckk * oh * ow, 1, 32).data().to_vec();
        let mut cx = vec![0.0f64; ckk * oh * ow];
        im2col(&x, c, h, w, g, &mut cx);
        let mut aty = vec![0.0f64; c * h * w];
        col2im(&y, c, h, w, g, &mut aty);
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    /// The GEMM routes' panel fill holds exactly the row-major im2col
    /// values, zero-padded past the last pixel: panels within one output
    /// row, across row ends, narrower than a panel, at strides 1–3, and
    /// large enough to fill in parallel.
    #[test]
    fn im2col_panels_hold_the_im2col_values() {
        for (c, h, w, k, stride, pad) in [
            (2usize, 5usize, 6usize, 3usize, 1usize, 1usize),
            (3, 9, 40, 3, 1, 1),
            (2, 11, 13, 3, 2, 1),
            (1, 17, 50, 5, 3, 2),
            (8, 40, 37, 3, 1, 0),
        ] {
            let g = Conv2dGeom::square(k, stride, pad);
            let (oh, ow) = g.out_hw(h, w);
            let (rows, l) = (c * k * k, oh * ow);
            let x = rand_mat(c * h * w, 1, 41).data().to_vec();
            let mut col = vec![0.0f64; rows * l];
            im2col(&x, c, h, w, g, &mut col);
            let (mut xpad, mut panels) = (Vec::new(), PackedB::new());
            im2col_panels(&x, c, h, w, g, &mut xpad, &mut panels);
            let stored = panels.panels_mut(rows, l);
            for (p, panel) in stored.chunks_exact(rows * gemm::NR).enumerate() {
                for (row, lanes) in panel.chunks_exact(gemm::NR).enumerate() {
                    for (j, &v) in lanes.iter().enumerate() {
                        let px = p * gemm::NR + j;
                        let want = if px < l { col[row * l + px] } else { 0.0 };
                        assert_eq!(
                            v, want,
                            "{c}x{h}x{w} k{k} s{stride} p{pad}: tap {row}, pixel {px}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conv_out_dim_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 0), 6);
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8);
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv_out_dim(2, 3, 1, 0), 0);
    }
}
