//! The run-length copy kernels under the data bridge's compiled plans.
//!
//! [`gather_chunks_raw`] and [`scatter_chunks_raw`] are what every
//! gather and scatter of the bridge (steps 3–4 of the paper's Fig. 4) comes
//! down to: one copy along a single axis — `count` runs of `chunk`
//! contiguous elements, a fixed step apart on the application side and a
//! fixed stride apart on the tensor side — so several slices interleave into
//! one `[sweep, features]` tensor with no index arithmetic per element. The
//! caller (the bridge) validates and classifies each slice once, at
//! plan-compile time, into `(offset, step, run)` and walks the outer axes
//! itself; nothing is analysed per call.

use crate::scalar::Scalar;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
