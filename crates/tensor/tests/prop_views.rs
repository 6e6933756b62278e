//! Property-based tests for the strided copy kernels the data bridge runs:
//! gather/scatter must agree with naive index arithmetic for arbitrary
//! in-bounds geometries, at every row width and run length the kernels
//! special-case.

use hpacml_tensor::{gather_rows_raw, scatter_chunks_raw, Tensor, GATHER_ROW_MAX};
use proptest::prelude::*;

/// Strategy: `count` runs of `chunk` elements, `step` apart in a buffer
/// (overlapping when `step < chunk`, like a stencil window) from `offset`,
/// and `stride >= chunk` apart on the packed side. Returns
/// `(offset, count, step, chunk, stride, buffer_len)`, the buffer sized to
/// hold the last run exactly.
fn geometry() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize)> {
    (0usize..16, 1usize..9, 1usize..9, 1usize..7, 0usize..4).prop_map(
        |(offset, count, step, chunk, gap)| {
            let len = offset + (count - 1) * step + chunk;
            (offset, count, step, chunk, chunk + gap, len)
        },
    )
}

/// Strategy: rows of `1..=12` feature columns (every fixed width of the
/// row gather and into its second column group), each column with its own
/// base and a step of 1 (half the draws: the bounds-check-free arm) or
/// `0..9`, and `1..9` rows. Returns `(sources, count)`, one `(base, step)`
/// per column.
fn row_geometry() -> impl Strategy<Value = (Vec<(usize, usize)>, usize)> {
    (1usize..=GATHER_ROW_MAX + 4, 1usize..9, any::<bool>()).prop_flat_map(|(width, count, unit)| {
        let step = if unit {
            Just(1usize).boxed()
        } else {
            (0usize..9).boxed()
        };
        (
            proptest::collection::vec((0usize..24, step), width),
            Just(count),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gather_matches_naive_indexing((sources, count) in row_geometry()) {
        let width = sources.len();
        let len = sources.iter().map(|(b, s)| b + (count - 1) * s + 1).max().unwrap();
        let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let mut out = vec![-1.0f32; count * width];
        gather_rows_raw(&data, width, |f| sources[f], count, &mut out);
        for (k, v) in out.iter().enumerate() {
            let (p, f) = (k / width, k % width);
            let (base, step) = sources[f];
            prop_assert_eq!(*v, data[base + p * step], "row {}, feature {}", p, f);
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips((offset, count, step, chunk, stride, len) in geometry()) {
        // Runs overlap in the buffer when `step < chunk`: aliased cells hold
        // the *last* writer, and the gather must still read back exactly
        // what landed; with disjoint runs that is the payload itself.
        let payload: Vec<f32> = (0..(count - 1) * stride + chunk).map(|i| (i * 7 + 3) as f32).collect();
        let mut buffer = vec![-1.0f32; len];
        scatter_chunks_raw(&mut buffer, offset, count, step, &payload, chunk, stride);
        let mut back = vec![0.0f32; count * chunk];
        gather_rows_raw(&buffer, chunk, |e| (offset + e, step), count, &mut back);
        for p in 0..count {
            for e in 0..chunk {
                let (b, k) = (back[p * chunk + e], offset + p * step + e);
                prop_assert_eq!(b, buffer[k]);
                if step >= chunk {
                    prop_assert_eq!(b, payload[p * stride + e]);
                }
            }
        }
        // Nothing outside the runs is written.
        for (k, v) in buffer.iter().enumerate() {
            let in_run = k >= offset && (0..count).any(|p| (k - offset).wrapping_sub(p * step) < chunk);
            if !in_run {
                prop_assert_eq!(*v, -1.0, "element {} outside every run was written", k);
            }
        }
    }

    #[test]
    fn reshape_preserves_row_major_order(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let numel: usize = dims.iter().product();
        let t = Tensor::from_vec((0..numel).map(|i| i as f32).collect(), dims.clone()).unwrap();
        let flat = t.clone().reshape([numel]).unwrap();
        prop_assert_eq!(flat.data(), t.data());
    }
}
