//! Zero-copy strided views over application memory.
//!
//! These are what step 3 of the paper's data bridge ("tensor wrapping",
//! Fig. 4) produces: a `(base, offset, shape, strides)` descriptor over an
//! existing buffer, with no copies. Gather and scatter then perform the
//! memory concretization between application space and tensor space.
//!
//! Two forms live here. [`View`]/[`ViewMut`] are the general N-d
//! descriptors with dense `gather`/`scatter`. [`gather_chunks_raw`] and
//! [`scatter_chunks_raw`] are the hot-path form the bridge's compiled plans
//! run: one *run-length copy kernel* along a single axis — `count` runs of
//! `chunk` contiguous elements, a fixed step apart on the application side
//! and a fixed stride apart on the tensor side — so several slices
//! interleave into one `[sweep, features]` tensor with no index arithmetic
//! per element. The caller (the bridge) classifies each view once, at
//! plan-compile time, into `(offset, step, run)` and walks the outer axes
//! itself; nothing is analysed per call.

use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

fn validate(len: usize, offset: usize, shape: &Shape, strides: &[usize]) -> Result<()> {
    if strides.len() != shape.rank() {
        return Err(TensorError::DimMismatch(format!(
            "strides rank {} vs shape rank {}",
            strides.len(),
            shape.rank()
        )));
    }
    if shape.numel() == 0 {
        return Ok(());
    }
    let mut last = offset;
    for (d, s) in shape.dims().iter().zip(strides) {
        last += (d - 1) * s;
    }
    if last >= len {
        return Err(TensorError::ViewOutOfBounds(format!(
            "max element offset {last} but buffer has {len} elements"
        )));
    }
    Ok(())
}

/// Walk all row prefixes (all dims except the innermost) in row-major order,
/// yielding the linear offset of each row start.
fn row_offsets(offset: usize, dims: &[usize], strides: &[usize]) -> Vec<usize> {
    let rank = dims.len();
    if rank == 0 {
        return vec![offset];
    }
    let outer_dims = &dims[..rank - 1];
    let outer_count: usize = outer_dims.iter().product();
    let mut offs = Vec::with_capacity(outer_count.max(1));
    let mut idx = vec![0usize; rank - 1];
    for _ in 0..outer_count.max(1) {
        let mut o = offset;
        for (k, &i) in idx.iter().enumerate() {
            o += i * strides[k];
        }
        offs.push(o);
        for axis in (0..idx.len()).rev() {
            idx[axis] += 1;
            if idx[axis] < outer_dims[axis] {
                break;
            }
            idx[axis] = 0;
        }
    }
    offs
}

/// Longest run the interleaving kernel copies with a compile-time length.
/// Stencil functors contribute runs of 1 (a point such as `[i-1, j]`) to 3
/// (a range such as `[i, j-1:j+2]`); at these lengths a `memcpy` call per
/// run costs more than the run. Measured on the 258² 5-point stencil gather
/// (1 thread, warm, best of 200): 570–600 µs through the per-run
/// `copy_from_slice` and per-element div/mod indexing this kernel replaced,
/// 122 µs through the fixed-length loops under the bridge's fused walk — a
/// hand-written loop nest over the same grid takes 107–112 µs. Longer runs
/// amortize the call and take the generic arm.
const RUN_FIXED_MAX: usize = 4;

/// The run-length copy kernel under [`gather_chunks_raw`] and
/// [`scatter_chunks_raw`]: move `count` runs of `run` contiguous elements,
/// run `p` from `src[p * src_step ..]` to `dst[p * dst_step ..]`, in
/// ascending `p` (runs may overlap on either side; a later run wins).
///
/// Both offsets advance by addition — no per-run index arithmetic — and
/// runs up to [`RUN_FIXED_MAX`] are copied as fixed-size arrays, so the
/// inner loop is a handful of moves. Runs that sit back to back on both
/// sides collapse into one `memcpy`.
fn copy_runs<T: Scalar>(
    src: &[T],
    src_step: usize,
    dst: &mut [T],
    dst_step: usize,
    run: usize,
    count: usize,
) {
    if count == 0 || run == 0 {
        return;
    }
    if src_step == run && dst_step == run {
        let len = count * run;
        dst[..len].copy_from_slice(&src[..len]);
        return;
    }
    match run {
        1 => copy_runs_fixed::<T, 1>(src, src_step, dst, dst_step, count),
        2 => copy_runs_fixed::<T, 2>(src, src_step, dst, dst_step, count),
        3 => copy_runs_fixed::<T, 3>(src, src_step, dst, dst_step, count),
        RUN_FIXED_MAX => copy_runs_fixed::<T, RUN_FIXED_MAX>(src, src_step, dst, dst_step, count),
        _ => {
            let (mut s, mut d) = (0, 0);
            for _ in 0..count {
                dst[d..d + run].copy_from_slice(&src[s..s + run]);
                s += src_step;
                d += dst_step;
            }
        }
    }
}

#[inline(always)]
fn copy_runs_fixed<T: Scalar, const RUN: usize>(
    src: &[T],
    src_step: usize,
    dst: &mut [T],
    dst_step: usize,
    count: usize,
) {
    // One slice per side up front: the per-run checks below compare against
    // lengths the optimizer can see.
    let src = &src[..(count - 1) * src_step + RUN];
    let dst = &mut dst[..(count - 1) * dst_step + RUN];
    let (mut s, mut d) = (0, 0);
    for _ in 0..count {
        let from = <&[T; RUN]>::try_from(&src[s..s + RUN]).expect("RUN-element slice");
        let to = <&mut [T; RUN]>::try_from(&mut dst[d..d + RUN]).expect("RUN-element slice");
        *to = *from;
        s += src_step;
        d += dst_step;
    }
}

/// Interleaving gather along one axis — the form the data bridge's
/// *compiled* plans run on every invocation, with nothing to analyse per
/// call: read `count` runs of `chunk` contiguous elements, run `p` starting
/// at `data[offset + p * step]`, and land run `p` at
/// `out[p * stride .. p * stride + chunk]`. The bridge walks a view's outer
/// sweep axes itself (once for all the views of a map) and calls this along
/// the innermost one, so several slices compose directly into one
/// `[sweep, features]` tensor without intermediate buffers. Allocation-free.
///
/// Caller contract (checked by the bridge at plan-compile time): every run
/// is in bounds for `data` and `out`.
pub fn gather_chunks_raw<T: Scalar>(
    data: &[T],
    offset: usize,
    count: usize,
    step: usize,
    out: &mut [T],
    chunk: usize,
    stride: usize,
) {
    copy_runs(&data[offset..], step, out, stride, chunk, count);
}

/// Inverse of [`gather_chunks_raw`]: read run `p` from
/// `src[p * stride .. p * stride + chunk]` and write it at
/// `data[offset + p * step ..]`, in ascending `p`. Same kernel, same caller
/// contract; allocation-free.
pub fn scatter_chunks_raw<T: Scalar>(
    data: &mut [T],
    offset: usize,
    count: usize,
    step: usize,
    src: &[T],
    chunk: usize,
    stride: usize,
) {
    copy_runs(src, stride, &mut data[offset..], step, chunk, count);
}

/// Read-only strided view.
#[derive(Debug, Clone)]
pub struct View<'a, T: Scalar> {
    data: &'a [T],
    offset: usize,
    shape: Shape,
    strides: Vec<usize>,
}

impl<'a, T: Scalar> View<'a, T> {
    /// Contiguous view of an entire buffer.
    pub fn full(data: &'a [T], shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.numel());
        let strides = shape.strides();
        View {
            data,
            offset: 0,
            shape,
            strides,
        }
    }

    /// Arbitrary strided view; validated against the buffer length.
    pub fn strided(
        data: &'a [T],
        offset: usize,
        shape: Shape,
        strides: Vec<usize>,
    ) -> Result<Self> {
        validate(data.len(), offset, &shape, &strides)?;
        Ok(View {
            data,
            offset,
            shape,
            strides,
        })
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    pub fn offset(&self) -> usize {
        self.offset
    }

    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Element by multi-index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> T {
        debug_assert_eq!(index.len(), self.shape.rank());
        let mut o = self.offset;
        for (k, &i) in index.iter().enumerate() {
            debug_assert!(i < self.shape.dims()[k]);
            o += i * self.strides[k];
        }
        self.data[o]
    }

    /// Copy the view's elements in row-major order into `out`.
    ///
    /// The inner dimension is copied as a contiguous run when its stride is 1
    /// (the common case for the data bridge), otherwise element-wise.
    pub fn gather_into(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.numel(), "gather_into: wrong output length");
        if self.numel() == 0 {
            return;
        }
        let rank = self.shape.rank();
        if rank == 0 {
            out[0] = self.data[self.offset];
            return;
        }
        let inner = self.shape.dims()[rank - 1];
        let inner_stride = self.strides[rank - 1];
        let rows = row_offsets(self.offset, self.shape.dims(), &self.strides);
        let data = self.data;
        let do_row = |row: usize, dst: &mut [T]| {
            let src_base = rows[row];
            if inner_stride == 1 {
                dst.copy_from_slice(&data[src_base..src_base + inner]);
            } else {
                for (k, d) in dst.iter_mut().enumerate() {
                    *d = data[src_base + k * inner_stride];
                }
            }
        };
        if rows.len() * inner >= 1 << 16 {
            hpacml_par::par_chunks_mut(out, inner, |start, dst| {
                do_row(start / inner, dst);
            });
        } else {
            for (row, dst) in out.chunks_exact_mut(inner).enumerate() {
                do_row(row, dst);
            }
        }
    }

    /// Gather into a freshly allocated dense tensor of the same shape.
    pub fn gather(&self) -> Tensor<T> {
        let mut out = vec![T::ZERO; self.numel()];
        self.gather_into(&mut out);
        Tensor::from_vec(out, self.shape.clone()).expect("gather: shape/data agree by construction")
    }
}

/// Mutable strided view; target of scatter (the `from` direction of a
/// tensor map).
#[derive(Debug)]
pub struct ViewMut<'a, T: Scalar> {
    data: &'a mut [T],
    offset: usize,
    shape: Shape,
    strides: Vec<usize>,
}

impl<'a, T: Scalar> ViewMut<'a, T> {
    /// Contiguous mutable view of an entire buffer.
    pub fn full(data: &'a mut [T], shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.numel());
        let strides = shape.strides();
        ViewMut {
            data,
            offset: 0,
            shape,
            strides,
        }
    }

    /// Arbitrary strided mutable view; validated against the buffer length.
    pub fn strided(
        data: &'a mut [T],
        offset: usize,
        shape: Shape,
        strides: Vec<usize>,
    ) -> Result<Self> {
        validate(data.len(), offset, &shape, &strides)?;
        Ok(ViewMut {
            data,
            offset,
            shape,
            strides,
        })
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Mutable element by multi-index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut T {
        let mut o = self.offset;
        for (k, &i) in index.iter().enumerate() {
            debug_assert!(i < self.shape.dims()[k]);
            o += i * self.strides[k];
        }
        &mut self.data[o]
    }

    /// Write `src` (row-major, same element count) through the view into the
    /// underlying buffer — the reverse memory concretization.
    pub fn scatter_from(&mut self, src: &[T]) {
        assert_eq!(src.len(), self.numel(), "scatter_from: wrong source length");
        if self.numel() == 0 {
            return;
        }
        let rank = self.shape.rank();
        if rank == 0 {
            self.data[self.offset] = src[0];
            return;
        }
        let inner = self.shape.dims()[rank - 1];
        let inner_stride = self.strides[rank - 1];
        let rows = row_offsets(self.offset, self.shape.dims(), &self.strides);
        for (row, s) in src.chunks_exact(inner).enumerate() {
            let dst_base = rows[row];
            if inner_stride == 1 {
                self.data[dst_base..dst_base + inner].copy_from_slice(s);
            } else {
                for (k, v) in s.iter().enumerate() {
                    self.data[dst_base + k * inner_stride] = *v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_view_gathers_identity() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let v = View::full(&data, Shape::new([3, 4]));
        let t = v.gather();
        assert_eq!(t.data(), data.as_slice());
    }

    #[test]
    fn strided_view_selects_submatrix() {
        // 4x4 matrix, take the interior 2x2 block.
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let v = View::strided(&data, 5, Shape::new([2, 2]), vec![4, 1]).unwrap();
        assert_eq!(v.gather().data(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn strided_view_with_step() {
        // Every other element of a 1-D buffer.
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let v = View::strided(&data, 1, Shape::new([5]), vec![2]).unwrap();
        assert_eq!(v.gather().data(), &[1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn view_at_matches_gather() {
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let v = View::strided(&data, 2, Shape::new([2, 3]), vec![12, 2]).unwrap();
        let g = v.gather();
        for idx in Shape::new([2, 3]).indices() {
            assert_eq!(v.at(&idx), g.at(&idx));
        }
    }

    #[test]
    fn out_of_bounds_view_rejected() {
        let data = vec![0.0f32; 10];
        assert!(View::strided(&data, 0, Shape::new([3, 4]), vec![4, 1]).is_err());
        assert!(View::strided(&data, 8, Shape::new([3]), vec![1]).is_err());
        assert!(View::strided(&data, 0, Shape::new([10]), vec![1]).is_ok());
    }

    #[test]
    fn scatter_writes_strided() {
        let mut data = vec![0.0f32; 16];
        {
            let mut v = ViewMut::strided(&mut data, 5, Shape::new([2, 2]), vec![4, 1]).unwrap();
            v.scatter_from(&[1.0, 2.0, 3.0, 4.0]);
        }
        assert_eq!(data[5], 1.0);
        assert_eq!(data[6], 2.0);
        assert_eq!(data[9], 3.0);
        assert_eq!(data[10], 4.0);
        assert_eq!(data[0], 0.0);
        assert_eq!(data[7], 0.0);
    }

    #[test]
    fn gather_then_scatter_roundtrips() {
        let src: Vec<f32> = (0..36).map(|i| i as f32).collect();
        let v = View::strided(&src, 7, Shape::new([2, 3]), vec![12, 2]).unwrap();
        let dense = v.gather();
        let mut dst = vec![0.0f32; 36];
        let mut vm = ViewMut::strided(&mut dst, 7, Shape::new([2, 3]), vec![12, 2]).unwrap();
        vm.scatter_from(dense.data());
        let v2 = View::strided(&dst, 7, Shape::new([2, 3]), vec![12, 2]).unwrap();
        assert_eq!(v2.gather().data(), dense.data());
    }

    #[test]
    fn gather_into_chunks_interleaves() {
        // Two rows of 3 elements, 6 apart: each lands as one run at stride 5.
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; 10];
        gather_chunks_raw(&data, 0, 2, 6, &mut out, 3, 5);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 0.0, 0.0, 6.0, 7.0, 8.0, 0.0, 0.0]);
        // chunk == 1 (a pure sweep view): every element strides independently.
        let mut out = vec![-1.0f32; 8];
        gather_chunks_raw(&data, 0, 4, 1, &mut out, 1, 2);
        assert_eq!(out, vec![0.0, -1.0, 1.0, -1.0, 2.0, -1.0, 3.0, -1.0]);
        // Overlapping source runs (the stencil's `j-1:j+2` window).
        let mut out = vec![0.0f32; 12];
        gather_chunks_raw(&data, 4, 3, 1, &mut out, 3, 4);
        assert_eq!(
            out,
            vec![4.0, 5.0, 6.0, 0.0, 5.0, 6.0, 7.0, 0.0, 6.0, 7.0, 8.0, 0.0]
        );
    }

    #[test]
    fn scatter_from_chunks_inverts_gather_into_chunks() {
        // Every run length the kernel special-cases, and one past them.
        for run in 1..=RUN_FIXED_MAX + 2 {
            let (count, step, stride) = (5usize, run + 2, run + 3);
            let data: Vec<f32> = (0..count * step + 1).map(|i| i as f32).collect();
            let mut packed = vec![-1.0f32; count * stride];
            gather_chunks_raw(&data, 1, count, step, &mut packed, run, stride);
            let mut dst = vec![-1.0f32; data.len()];
            scatter_chunks_raw(&mut dst, 1, count, step, &packed, run, stride);
            for (i, (d, s)) in dst.iter().zip(&data).enumerate() {
                let in_run = i >= 1 && (i - 1) % step < run;
                assert_eq!(*d, if in_run { *s } else { -1.0 }, "run {run}, element {i}");
            }
        }
    }

    #[test]
    fn rank0_view() {
        let data = vec![42.0f32];
        let v = View::strided(&data, 0, Shape::scalar(), vec![]).unwrap();
        assert_eq!(v.gather().data(), &[42.0]);
    }

    #[test]
    fn scatter_rejects_wrong_len() {
        let mut data = vec![0.0f32; 4];
        let mut v = ViewMut::full(&mut data, Shape::new([4]));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.scatter_from(&[1.0, 2.0]);
        }));
        assert!(r.is_err());
    }
}
