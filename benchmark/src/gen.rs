//! Seeded input generators and the open-loop arrival schedule. Everything
//! the program is fed comes from here, from `--seed`; the program itself
//! never sees the seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One independent stream per (seed, purpose), so adding a generator never
/// shifts the values another one produces.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `n` values uniform in `[-1, 1)`.
pub fn uniform(seed: u64, stream: u64, n: usize) -> Vec<f32> {
    let mut r = rng(seed, stream);
    (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect()
}

/// Absolute due times (ns from the start of the trial) for `pacers` threads
/// that together send `rate_per_s` requests per second for `dur_ns`: request
/// `k` overall is due at `k / rate` and goes to pacer `k % pacers`, so each
/// pacer sends on its own even grid and the grids are offset from one
/// another by an equal fraction of a pacer's gap (half a gap for two). Due
/// times are fixed before the run: a slow reply delays nothing but itself.
pub fn schedule(rate_per_s: u64, pacers: usize, dur_ns: u64) -> Vec<Vec<u64>> {
    let pacers = pacers.max(1);
    let mut lanes = vec![Vec::new(); pacers];
    if rate_per_s == 0 {
        return lanes;
    }
    let total = u128::from(dur_ns) * u128::from(rate_per_s) / 1_000_000_000;
    for k in 0..total {
        let due = k * 1_000_000_000 / u128::from(rate_per_s);
        lanes[(k % pacers as u128) as usize].push(due as u64);
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(uniform(7, 1, 64), uniform(7, 1, 64));
        assert_ne!(uniform(7, 1, 64), uniform(8, 1, 64));
        assert_ne!(uniform(7, 1, 64), uniform(7, 2, 64));
        assert!(uniform(3, 3, 1000).iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn schedule_is_absolute_even_and_offset_by_half_a_gap() {
        let lanes = schedule(4000, 2, 1_000_000_000);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].len() + lanes[1].len(), 4000);
        // Each pacer's own gap is 500 us; the second starts 250 us in.
        assert_eq!(&lanes[0][..3], &[0, 500_000, 1_000_000]);
        assert_eq!(&lanes[1][..3], &[250_000, 750_000, 1_250_000]);
        for lane in &lanes {
            assert!(lane.windows(2).all(|w| w[1] - w[0] == 500_000));
            assert!(*lane.last().unwrap() < 1_000_000_000);
        }
    }

    #[test]
    fn schedule_handles_rates_that_do_not_divide_a_second() {
        let lanes = schedule(3, 2, 2_000_000_000);
        assert_eq!(lanes[0], vec![0, 666_666_666, 1_333_333_333]);
        assert_eq!(lanes[1], vec![333_333_333, 1_000_000_000, 1_666_666_666]);
        assert!(schedule(0, 2, 1_000_000_000).iter().all(Vec::is_empty));
    }
}
