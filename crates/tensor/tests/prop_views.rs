//! Property-based tests for the strided copy kernels the data bridge runs:
//! gather/scatter must agree with naive index arithmetic for arbitrary
//! in-bounds geometries, at every run length the kernel special-cases.

use hpacml_tensor::{gather_chunks_raw, scatter_chunks_raw, Tensor};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gather_matches_naive_indexing((offset, count, step, chunk, stride, len) in geometry()) {
        let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let mut out = vec![-1.0f32; (count - 1) * stride + chunk];
        gather_chunks_raw(&data, offset, count, step, &mut out, chunk, stride);
        for (k, v) in out.iter().enumerate() {
            let (p, e) = (k / stride, k % stride);
            if e < chunk {
                prop_assert_eq!(*v, data[offset + p * step + e], "run {}, element {}", p, e);
            } else {
                prop_assert_eq!(*v, -1.0, "gap cell {} was written", k);
            }
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
        let mut back = vec![0.0f32; payload.len()];
        gather_chunks_raw(&buffer, offset, count, step, &mut back, chunk, stride);
        for p in 0..count {
            for e in 0..chunk {
                let (b, k) = (back[p * stride + e], offset + p * step + e);
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
