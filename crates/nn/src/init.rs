//! Weight initialization.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a given seed; all initialization flows through here
/// so model builds are reproducible.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Kaiming/He uniform initialization for a weight tensor with `fan_in`
/// incoming connections — the PyTorch default for Linear/Conv layers.
pub(crate) fn kaiming_uniform(rng: &mut SmallRng, fan_in: usize, n: usize) -> Vec<f32> {
    let bound = if fan_in > 0 {
        (1.0 / fan_in as f32).sqrt() * 3.0f32.sqrt()
    } else {
        0.0
    };
    (0..n).map(|_| rng.gen_range(-bound..=bound)).collect()
}

/// Uniform bias initialization matching PyTorch's `1/sqrt(fan_in)` bound.
pub(crate) fn bias_uniform(rng: &mut SmallRng, fan_in: usize, n: usize) -> Vec<f32> {
    let bound = if fan_in > 0 {
        (1.0 / fan_in as f32).sqrt()
    } else {
        0.0
    };
    (0..n).map(|_| rng.gen_range(-bound..=bound)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = kaiming_uniform(&mut rng(7), 16, 100);
        let b = kaiming_uniform(&mut rng(7), 16, 100);
        assert_eq!(a, b);
        let c = kaiming_uniform(&mut rng(8), 16, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn bounds_respected() {
        let fan_in = 64;
        let w = kaiming_uniform(&mut rng(1), fan_in, 10_000);
        let bound = (1.0 / fan_in as f32).sqrt() * 3.0f32.sqrt();
        assert!(w.iter().all(|x| x.abs() <= bound + 1e-7));
        // Values should actually spread out, not collapse.
        let spread = w.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        assert!(spread > bound * 0.9);
    }

    #[test]
    fn zero_fan_in_is_zero() {
        assert!(kaiming_uniform(&mut rng(1), 0, 4).iter().all(|x| *x == 0.0));
        assert!(bias_uniform(&mut rng(1), 0, 4).iter().all(|x| *x == 0.0));
    }
}
