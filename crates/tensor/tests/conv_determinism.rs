//! Training is reproducible across pool widths: `ops::conv2d_backward`
//! keeps each sample's dW/db partials apart and sums them in sample order,
//! so the bits cannot depend on which pool participant finishes first.
//!
//! The shape is the ParticleFilter surrogate's first conv: a batch of 64
//! single-channel 48 × 48 frames, six 6 × 6 filters at stride 3. Every call
//! at pool widths 1, 2 and 3 must give one dW/db bit pattern.

use hpacml_par::{with_pool, Pool};
use hpacml_tensor::ops::{conv2d_backward, Conv2dGeom};
use hpacml_tensor::Tensor;
use std::collections::HashSet;

const CALLS: usize = 50;

/// A deterministic value in [-1, 1) per index (an integer hash, so the
/// inputs have no structure that could make partial sums commute).
fn value(seed: u64, i: usize) -> f32 {
    let mut x = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

fn tensor(seed: u64, dims: [usize; 4]) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec((0..len).map(|i| value(seed, i)).collect(), dims).unwrap()
}

/// The bits of one call's dW and db.
fn gradient_bits(input: &Tensor, weight: &Tensor, dout: &Tensor, g: Conv2dGeom) -> Vec<u32> {
    let (_, dw, db) = conv2d_backward(input, weight, dout, g).unwrap();
    dw.data().iter().chain(&db).map(|v| v.to_bits()).collect()
}

#[test]
fn conv_backward_gives_one_bit_pattern_at_every_pool_width() {
    let g = Conv2dGeom::square(6, 3, 0);
    let input = tensor(1, [64, 1, 48, 48]);
    let weight = tensor(2, [6, 1, 6, 6]);
    let (oh, ow) = g.out_hw(48, 48);
    let dout = tensor(3, [64, 6, oh, ow]);
    let mut patterns = HashSet::new();
    for width in 1..=3 {
        with_pool(&Pool::new(width - 1), || {
            for _ in 0..CALLS {
                patterns.insert(gradient_bits(&input, &weight, &dout, g));
            }
        });
    }
    assert_eq!(
        patterns.len(),
        1,
        "{} distinct dW/db bit patterns in {} calls at pool widths 1-3",
        patterns.len(),
        3 * CALLS
    );
}
