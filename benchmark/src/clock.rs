//! The clock probe: how fast this host's cores run *right now*.
//!
//! The reference host is a 2-vCPU guest on a shared machine whose cores
//! switch between their nominal and their turbo clock by the second, as the
//! other tenants come and go. Everything compute-bound follows: the same
//! `sweep_mlp` operation takes 860 µs in one half-second and 1 180 µs in the
//! next, and for minutes at a time only one of the two states shows. No
//! statistic over a 16 s run removes that; the middle half of ten identical
//! runs spread 13–24 % of their median whichever quantile a run reported.
//!
//! So the compute-bound workloads measure the clock beside the operation.
//! The probe is a fixed number of fused multiply-adds on registers — no
//! memory, no call into the program — so its time is a cycle count over the
//! core's current frequency (and over the share of the core a sibling
//! hardware thread leaves it). A trial's times are scaled by
//! `REFERENCE_US / probe`, that is, reported as **times at the reference
//! clock**: cycles, expressed in microseconds at the speed the reference host
//! runs at most of the time. Two commits measured under different host
//! states then compare; with the scaling ten runs spread 1.4–5.6 %. The
//! probe does not follow every state of the host exactly — where a neighbour
//! slows memory more than arithmetic the operation slows more than the probe
//! — so a trial can still read ~10 % off; the median over trials absorbs it.
//!
//! The workloads whose operation is mostly waiting — for another thread's
//! wake-up, for the file system — are not scaled: a faster clock does not
//! shorten a futex wake or an fsync in proportion.

use std::time::Instant;

/// What the probe takes on the reference host at its nominal clock (the
/// state it is in ~75 % of the time); at turbo it reads ~1 450. A constant
/// of the benchmark: changing it rescales every clock-corrected metric.
pub const REFERENCE_US: f64 = 1850.0;

const CHAINS: usize = 8;
const LANES: usize = 16;
const STEPS: usize = 40_000;
const REPEATS: usize = 5;

/// Eight independent chains of 16-lane fused multiply-adds, `STEPS` long:
/// enough chains to keep both FMA ports busy, so the time follows the clock
/// and what a sibling hardware thread takes of the ports, nothing else.
fn spin() -> [[f32; LANES]; CHAINS] {
    let mut acc = [[1.0f32; LANES]; CHAINS];
    let a = std::hint::black_box([1.000_001f32; LANES]);
    let b = std::hint::black_box([1e-7f32; LANES]);
    for _ in 0..STEPS {
        for chain in acc.iter_mut() {
            for l in 0..LANES {
                chain[l] = chain[l].mul_add(a[l], b[l]);
            }
        }
    }
    acc
}

/// Microseconds the probe takes now: the best of a few repeats, so a stolen
/// time slice does not read as a slow clock. About 10 ms in all.
pub fn probe_us() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(spin());
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that turns a time measured between two probes into a time at
/// the reference clock.
pub fn scale(probe_before_us: f64, probe_after_us: f64) -> f64 {
    2.0 * REFERENCE_US / (probe_before_us + probe_after_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_repeats_and_scales() {
        let (a, b) = (probe_us(), probe_us());
        assert!(a > 0.0 && b > 0.0);
        // Two probes back to back see the same clock, give or take a state
        // switch between them.
        assert!(a / b < 2.0 && b / a < 2.0, "{a} vs {b}");
        // At the reference clock nothing is scaled; a clock twice as fast
        // (probe half as long) doubles the times measured under it.
        assert_eq!(scale(REFERENCE_US, REFERENCE_US), 1.0);
        assert_eq!(scale(REFERENCE_US / 2.0, REFERENCE_US / 2.0), 2.0);
    }
}
