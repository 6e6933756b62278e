//! Parallel runtime substrate for the HPAC-ML reproduction.
//!
//! The paper's evaluation runs both the *accurate* benchmark kernels and the
//! surrogate inference engine on NVIDIA A100 GPUs. This crate is the
//! corresponding substrate in the reproduction: a persistent, work-distributing
//! thread pool on which both execution paths run, so that measured speedups
//! compare like against like.
//!
//! Design (following the idioms of Rayon and *Rust Atomics and Locks*):
//!
//! * one persistent pool of workers that **park** between jobs
//!   ([`parking_lot::Condvar`]), so repeated small dispatches stay cheap;
//! * a job is a lifetime-erased `Fn(Range<usize>)` whose chunk-index space is
//!   partitioned into one atomic claim cursor per participant; each worker
//!   (and the caller, which always participates) self-schedules chunks from
//!   its own cursor and **steals** from the others' once its span runs dry,
//!   so long chunks cannot strand work behind a busy thread;
//! * dispatch is allocation-free: the job slot, cursors and counters are
//!   preallocated and sequence-tagged, so steady-state inference never
//!   allocates in the scheduler;
//! * the caller blocks on a completion barrier before returning, which is what
//!   makes the lifetime erasure sound — borrowed data outlives the job;
//! * nested calls from inside a worker run sequentially inline (no deadlock,
//!   no oversubscription), and stealing moves only *where/when* a chunk runs,
//!   never what it computes — results stay bitwise identical across worker
//!   counts and schedules;
//! * workers take persistent CPU affinity where the platform allows it
//!   (Linux `sched_setaffinity`), giving a stable worker→CPU mapping;
//! * [`with_pool`] scopes the free functions to an explicit pool, which is
//!   how benches compare thread counts within one process.
//!
//! The only `unsafe` in the whole workspace outside of disjoint slice
//! splitting lives here; see the safety comments on `TaskPtr` in
//! [`pool`] (the type itself is private to that module).

pub mod pool;
pub mod slice;

pub use pool::{broadcast, current_parallelism, global, join, parallel_for, with_pool, Pool};
pub use slice::{par_chunks_mut, par_map_inplace};

/// Statistics snapshot for a pool, used by benchmarks and the fig8
/// "was the machine busy" diagnostics.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Number of jobs dispatched so far (including broadcasts).
    pub jobs: u64,
    /// Number of worker threads (excluding callers).
    pub workers: usize,
    /// Total chunks executed across all participants.
    pub chunks: u64,
    /// Chunks a participant claimed from another participant's queue.
    pub steals: u64,
    /// Chunks executed per participant (index 0 aggregates caller threads,
    /// index `i + 1` is worker `i`).
    pub participant_chunks: Vec<u64>,
    /// Per participant, the number of jobs in which it executed at least
    /// one chunk.
    pub participant_jobs: Vec<u64>,
}

impl PoolStats {
    /// Fraction of executed chunks that were stolen rather than claimed
    /// from the executing participant's own span. High values mean the
    /// static partition underestimates imbalance (or chunks are too
    /// coarse); `0.0` when nothing ran.
    pub fn steal_ratio(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.steals as f64 / self.chunks as f64
        }
    }

    /// Mean fraction of participants that did useful work per dispatched
    /// job, in `0.0..=1.0`. Low occupancy with many dispatches means jobs
    /// are too small to feed the pool.
    pub fn occupancy(&self) -> f64 {
        let participants = self.participant_jobs.len() as u64;
        if self.jobs == 0 || participants == 0 {
            return 0.0;
        }
        let active: u64 = self.participant_jobs.iter().sum();
        (active as f64 / (self.jobs * participants) as f64).min(1.0)
    }

    /// Counters accumulated since `base` was snapshotted from the same
    /// pool — for windowed measurements around a specific phase.
    pub fn delta_since(&self, base: &PoolStats) -> PoolStats {
        PoolStats {
            jobs: self.jobs.saturating_sub(base.jobs),
            workers: self.workers,
            chunks: self.chunks.saturating_sub(base.chunks),
            steals: self.steals.saturating_sub(base.steals),
            participant_chunks: self
                .participant_chunks
                .iter()
                .zip(base.participant_chunks.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            participant_jobs: self
                .participant_jobs
                .iter()
                .zip(base.participant_jobs.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn ratios_are_safe_on_empty_stats() {
        let s = PoolStats::default();
        assert_eq!(s.steal_ratio(), 0.0);
        assert_eq!(s.occupancy(), 0.0);
    }

    #[test]
    fn delta_subtracts_a_baseline() {
        let base = PoolStats {
            jobs: 2,
            workers: 3,
            chunks: 10,
            steals: 1,
            participant_chunks: vec![4, 3, 2, 1],
            participant_jobs: vec![2, 1, 1, 1],
        };
        let now = PoolStats {
            jobs: 5,
            workers: 3,
            chunks: 30,
            steals: 4,
            participant_chunks: vec![10, 8, 7, 5],
            participant_jobs: vec![5, 4, 3, 3],
        };
        let d = now.delta_since(&base);
        assert_eq!(d.jobs, 3);
        assert_eq!(d.chunks, 20);
        assert_eq!(d.steals, 3);
        assert_eq!(d.participant_chunks, vec![6, 5, 5, 4]);
        assert_eq!(d.participant_jobs, vec![3, 3, 2, 2]);
        assert!(d.steal_ratio() > 0.0 && d.steal_ratio() < 1.0);
        assert!(d.occupancy() > 0.0 && d.occupancy() <= 1.0);
    }
}
