//! The copy kernels under the data bridge's compiled plans.
//!
//! [`gather_rows_raw`] and [`scatter_chunks_raw`] are what every gather and
//! scatter of the bridge (steps 3–4 of the paper's Fig. 4) comes down to.
//! The caller (the bridge) validates and classifies every slice once, at
//! plan-compile time, and walks the outer axes itself; nothing is analysed
//! per call.
//!
//! The two directions write in different orders, each the one that writes
//! its destination once per line:
//!
//! - A gather writes **rows**: each sweep point's `F` feature values land
//!   with one fixed-width store, `row = [src_0[p], …, src_{F-1}[p]]`. The
//!   kernel is monomorphized on `F` for `1..=`[`GATHER_ROW_MAX`]. On the
//!   258² 5-point stencil (`F = 5`; 1 thread, 2-vCPU AVX-512 KVM guest)
//!   the row store alone takes 47–60 µs, and the same rows written at a
//!   runtime row length, one row per step, 90–150 µs. The bridge's
//!   same-process A/B reads 85–105 µs for the row gather against 340–480
//!   µs for the per-slice pass it replaced, which wrote each slice's runs
//!   into every row of a block, one strided pass per slice.
//! - A scatter writes **runs**: `count` runs of `chunk` contiguous
//!   elements per slice, in slice order, so its writes into the
//!   application array are contiguous and, where slices overlap, the last
//!   slice still wins.

use crate::scalar::Scalar;

/// Widest row [`gather_rows_raw`] writes with one compile-time-width store;
/// a wider row is gathered as consecutive column groups of at most this
/// many features.
pub const GATHER_ROW_MAX: usize = 8;

/// Longest run the scatter kernel copies with a compile-time length.
/// Stencil functors contribute runs of 1 (a point such as `[i-1, j]`) to 3
/// (a range such as `[i, j-1:j+2]`); at these lengths a `memcpy` call per
/// run costs more than the run. Longer runs amortize the call and take the
/// generic arm.
const RUN_FIXED_MAX: usize = 4;

/// The run-length copy kernel under [`scatter_chunks_raw`]: move `count`
/// runs of `run` contiguous elements, run `p` from `src[p * src_step ..]`
/// to `dst[p * dst_step ..]`, in ascending `p` (runs may overlap on either
/// side; a later run wins).
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

/// Row gather — the form every compiled gather of the data bridge runs,
/// with nothing to analyse per call: for `p` in `0..count`, write sweep
/// point `p`'s row of `width` features, `out[p * width + f] =
/// data[base_f + p * step_f]`, where `source(f)` is column `f`'s
/// `(base_f, step_f)`. The bridge walks a plan's outer sweep axes itself
/// and calls this along the innermost one, so several slices compose
/// directly into one `[sweep, features]` tensor without intermediate
/// buffers. Allocation-free.
///
/// Each row is one fixed-width store of a `[T; F]` built from `F` reads,
/// with `F = width` up to [`GATHER_ROW_MAX`]; a wider row is written as
/// consecutive column groups of that many. When every step of a group is
/// 1 (the sweep's inner axis is the array's contiguous one, as in every
/// stencil) its `F` source columns are cut to `count` elements before the
/// loop, so the reads carry no bounds checks.
///
/// Caller contract (checked by the bridge at plan-compile time): every
/// read is in bounds for `data`, and `out` holds `count * width` elements.
pub fn gather_rows_raw<T: Scalar>(
    data: &[T],
    width: usize,
    source: impl Fn(usize) -> (usize, usize),
    count: usize,
    out: &mut [T],
) {
    if count == 0 {
        return;
    }
    let out = &mut out[..count * width];
    for col in (0..width).step_by(GATHER_ROW_MAX) {
        let (source, out) = (|f| source(col + f), &mut out[col..]);
        match width - col {
            1 => rows_fixed::<T, 1>(data, source, count, out, width),
            2 => rows_fixed::<T, 2>(data, source, count, out, width),
            3 => rows_fixed::<T, 3>(data, source, count, out, width),
            4 => rows_fixed::<T, 4>(data, source, count, out, width),
            5 => rows_fixed::<T, 5>(data, source, count, out, width),
            6 => rows_fixed::<T, 6>(data, source, count, out, width),
            7 => rows_fixed::<T, 7>(data, source, count, out, width),
            _ => rows_fixed::<T, GATHER_ROW_MAX>(data, source, count, out, width),
        }
    }
}

/// [`gather_rows_raw`] for `F` columns of rows `width` apart. Rows that
/// are exactly the group (`width == F`, every row of up to
/// [`GATHER_ROW_MAX`] features) are walked as exact `F`-element chunks:
/// with the row length a constant, the row loop vectorizes — at a runtime
/// row length it stays one row per step, 2–3× slower on the stencil.
#[inline(always)]
fn rows_fixed<T: Scalar, const F: usize>(
    data: &[T],
    source: impl Fn(usize) -> (usize, usize),
    count: usize,
    out: &mut [T],
    width: usize,
) {
    let sources: [(usize, usize); F] = std::array::from_fn(source);
    let (bases, steps) = (sources.map(|s| s.0), sources.map(|s| s.1));
    if width == F {
        fill_rows(data, bases, steps, count, out.chunks_exact_mut(F));
    } else {
        fill_rows(data, bases, steps, count, out.chunks_mut(width));
    }
}

#[inline(always)]
fn fill_rows<'a, T: Scalar, const F: usize>(
    data: &[T],
    bases: [usize; F],
    steps: [usize; F],
    count: usize,
    rows: impl Iterator<Item = &'a mut [T]>,
) {
    if steps.iter().all(|&s| s == 1) {
        let cols: [&[T]; F] = std::array::from_fn(|f| &data[bases[f]..bases[f] + count]);
        for (p, row) in rows.enumerate() {
            let row = <&mut [T; F]>::try_from(&mut row[..F]).expect("F-element row");
            *row = std::array::from_fn(|f| cols[f][p]);
        }
    } else {
        for (p, row) in rows.enumerate() {
            let row = <&mut [T; F]>::try_from(&mut row[..F]).expect("F-element row");
            *row = std::array::from_fn(|f| data[bases[f] + p * steps[f]]);
        }
    }
}

/// Run-length scatter along one axis: read run `p` from
/// `src[p * stride .. p * stride + chunk]` and write it at
/// `data[offset + p * step ..]`, in ascending `p` (a later run wins where
/// runs overlap). The bridge calls it once per slice and outer position,
/// in slice order. Allocation-free.
///
/// Caller contract (checked by the bridge at plan-compile time): every run
/// is in bounds for `data` and `src`.
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
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let gather = |cols: &[(usize, usize)], count: usize| {
            let mut out = vec![-1.0f32; count * cols.len()];
            gather_rows_raw(&data, cols.len(), |f| cols[f], count, &mut out);
            out
        };
        // Two unit-step columns 6 apart: each point's pair lands as one row.
        assert_eq!(gather(&[(0, 1), (6, 1)], 3), [0.0, 6.0, 1.0, 7.0, 2.0, 8.0]);
        // Strided columns: one steps by 2, the other by 3.
        assert_eq!(gather(&[(1, 2), (0, 3)], 3), [1.0, 0.0, 3.0, 3.0, 5.0, 6.0]);
        // Overlapping columns (the stencil's `j-1:j+2` window).
        assert_eq!(
            gather(&[(4, 1), (5, 1), (6, 1)], 3),
            [4.0, 5.0, 6.0, 5.0, 6.0, 7.0, 6.0, 7.0, 8.0]
        );
    }

    #[test]
    fn scatter_from_chunks_inverts_gather_into_chunks() {
        // Every run length the scatter special-cases, and one past them;
        // the gather reads each point's run back as one row of `run` columns.
        for run in 1..=RUN_FIXED_MAX + 2 {
            let (count, step, stride) = (5usize, run + 2, run + 3);
            let packed: Vec<f32> = (0..count * stride).map(|i| i as f32).collect();
            let mut dst = vec![-1.0f32; count * step + 1];
            scatter_chunks_raw(&mut dst, 1, count, step, &packed, run, stride);
            for (i, d) in dst.iter().enumerate() {
                let in_run = i >= 1 && (i - 1) % step < run;
                let want = if in_run {
                    packed[(i - 1) / step * stride + (i - 1) % step]
                } else {
                    -1.0
                };
                assert_eq!(*d, want, "run {run}, element {i}");
            }
            let mut back = vec![-1.0f32; count * run];
            gather_rows_raw(&dst, run, |f| (1 + f, step), count, &mut back);
            for (k, b) in back.iter().enumerate() {
                let (p, e) = (k / run, k % run);
                assert_eq!(*b, packed[p * stride + e], "run {run}, cell {k}");
            }
        }
    }
}
