//! The six workloads and what they share: run configuration, trial
//! bookkeeping, repeated set-up, and host facts.

pub mod collect;
pub mod inproc;
pub mod layers;
pub mod serving;

use crate::report::RunReport;
use crate::stats;
use hpacml_nn::spec::ModelSpec;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Result type of the harness: errors are messages for the operator.
pub type Res<T> = Result<T, String>;

/// Turn any displayable error into a harness message with context.
pub fn ctx<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of one measured trial.
    pub trial: Duration,
    /// Trials in the untraced pass (the traced pass always runs 1 + 2).
    pub trials: usize,
    pub traced: bool,
    /// Private scratch directory of this run (models, dbs); removed after.
    pub dir: PathBuf,
    /// Where the traced pass writes its spans.
    pub trace_path: PathBuf,
}

/// Untimed run-in before the first trial: fills caches, sizes per-thread
/// scratch, lets the adaptive batch wait settle.
pub const WARM_UP: Duration = Duration::from_millis(300);

/// Every `REPLAY_EVERY`-th operation of a traced trial is followed by a
/// replay of its stages through the layers' public functions.
pub const REPLAY_EVERY: u64 = 16;

/// The compute-bound workloads: one caller thread driving a `Session`. They
/// run on a serial pool, in half-second trials, at the reference clock.
pub const IN_PROCESS: [&str; 3] = ["sweep_mlp", "stencil_step", "wide_b1_int8"];

/// Length of one trial. The in-process workloads measure the clock between
/// trials (`clock.rs`), so theirs are short enough for the clock to hold
/// still; a traced trial needs its replays, a serving trial its applies and
/// a collect trial its whole cycles.
pub fn trial_seconds(workload: &str, traced: bool) -> f64 {
    if IN_PROCESS.contains(&workload) && !traced {
        0.5
    } else {
        2.0
    }
}

pub fn run(workload: &str, cfg: &RunCfg) -> Res<RunReport> {
    match workload {
        w if IN_PROCESS.contains(&w) => inproc::run(workload, cfg),
        "collect_stencil" => collect::run(cfg),
        "serve_closed" | "serve_paced_reload" => serving::run(workload, cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One measured trial, summarised: per-operation latencies are dropped when
/// the trial ends, so the harness's own memory stays flat across trials and
/// out of `peak_rss_mb`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Operations that succeeded *and* verified, out of `attempted`.
    pub ok: u64,
    pub attempted: u64,
    /// Of `ok`, those no slower than the workload's latency limit.
    pub within: u64,
    pub wall_ns: u64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// What turns this trial's times into times at the reference clock
    /// (`clock::scale`); 1 for the workloads that are not clock-corrected.
    pub clock: f64,
}

impl Trial {
    /// Summarise the latencies of the `ok_ns.len()` good operations out of
    /// `attempted`, against the workload's latency limit.
    pub fn new(mut ok_ns: Vec<u64>, attempted: u64, wall_ns: u64, limit_us: f64) -> Trial {
        ok_ns.sort_unstable();
        let limit_ns = (limit_us * 1e3) as u64;
        let p = |p: f64| stats::us(stats::percentile(&ok_ns, p));
        Trial {
            ok: ok_ns.len() as u64,
            attempted,
            within: ok_ns.partition_point(|&ns| ns <= limit_ns) as u64,
            wall_ns,
            p50_us: p(0.50),
            p90_us: p(0.90),
            p99_us: p(0.99),
            clock: 1.0,
        }
    }

    /// The same trial, measured between two clock probes.
    pub fn at_clock(self, clock: f64) -> Trial {
        Trial { clock, ..self }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// Run `op` back to back for `dur`. `op(k)` returns the latency of operation
/// `k` if it succeeded and its output verified; verification time is the
/// caller's to keep out of that latency. `next` carries the operation index
/// across trials so input cycles continue where they stopped.
pub fn closed_loop(
    dur: Duration,
    limit_us: f64,
    next: &mut u64,
    mut op: impl FnMut(u64) -> Option<u64>,
) -> Trial {
    let (mut ok_ns, mut attempted) = (Vec::new(), 0u64);
    let start = Instant::now();
    while start.elapsed() < dur {
        attempted += 1;
        ok_ns.extend(op(*next));
        *next += 1;
    }
    Trial::new(ok_ns, attempted, ns_since(start), limit_us)
}

pub fn ns_since(start: Instant) -> u64 {
    ns_between(start, Instant::now())
}

pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// One line per trial: requests sent / succeeded / failed, the medians as
/// measured, and the clock factor where one applies.
pub fn print_trial(name: &str, i: usize, t: &Trial) {
    println!(
        "[{name}] trial {i}: sent {} succeeded {} failed {} p50 {:.1} us p90 {:.1} us clock x{:.3}",
        t.attempted,
        t.ok,
        t.failed(),
        t.p50_us,
        t.p90_us,
        t.clock
    );
}

/// Fold trials into the end-to-end metrics every workload reports:
/// `op_p50_us`, `units_per_s` and `within_limit_share`, each the median over
/// trials; the two timings at the reference clock where the trial carries a
/// clock factor. A failed operation has no latency, completes no units and
/// misses the limit. The limit is applied to times as measured: it sits at
/// 2.5× the median, out of the clock's reach.
pub fn report_trials(report: &mut RunReport, trials: &[Trial], units_per_op: u64) {
    let samples: u64 = trials.iter().map(|t| t.ok).sum();
    report.attempted += trials.iter().map(|t| t.attempted).sum::<u64>();
    report.failed += trials.iter().map(Trial::failed).sum::<u64>();
    report.median_of(
        "op_p50_us",
        trials.iter().map(|t| t.p50_us * t.clock).collect(),
        samples,
    );
    report.median_of(
        "units_per_s",
        trials
            .iter()
            .map(|t| (t.ok * units_per_op) as f64 / (t.wall_ns.max(1) as f64 * t.clock / 1e9))
            .collect(),
        samples,
    );
    report.median_of(
        "within_limit_share",
        trials
            .iter()
            .map(|t| t.within as f64 / t.attempted.max(1) as f64)
            .collect(),
        samples,
    );
}

/// What every traced pass reports about itself: operations attempted and
/// failed (baseline trial included), the tail percentiles, what tracing cost
/// against the untraced baseline trial, and the host. Returns the traced
/// trials' median `op_p50_us`.
pub fn report_traced(report: &mut RunReport, baseline: &Trial, trials: &[Trial]) -> f64 {
    let samples: u64 = trials.iter().map(|t| t.ok).sum();
    report.attempted += baseline.attempted + trials.iter().map(|t| t.attempted).sum::<u64>();
    report.failed += baseline.failed() + trials.iter().map(Trial::failed).sum::<u64>();
    report.median_of(
        "tail.op_p90_us",
        trials.iter().map(|t| t.p90_us).collect(),
        samples,
    );
    report.median_of(
        "tail.op_p99_us",
        trials.iter().map(|t| t.p99_us).collect(),
        samples,
    );
    let traced_p50 = stats::median(&trials.iter().map(|t| t.p50_us).collect::<Vec<_>>());
    report.single(
        "gen.trace_overhead_pct",
        100.0 * (traced_p50 / baseline.p50_us.max(1e-9) - 1.0),
    );
    report.single(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    report.single("host.isa", host_isa().0);
    report.single("host.clock_probe_us", crate::clock::probe_us());
    traced_p50
}

/// Set a workload up several times: `setup(k)` builds everything from
/// nothing in its own directory, drops it again and returns how long the
/// build took. The caller then does the final set-up (number `times.len()`)
/// in its own frame — sessions borrow their region, so the one that is kept
/// cannot be handed back from here — and pushes its time. Fast set-ups
/// repeat more often, so the median is as steady for a 2 ms bootstrap as
/// for a 1 s model load.
pub fn rehearse_setup(mut setup: impl FnMut(usize) -> Res<f64>) -> Res<Vec<f64>> {
    const BUDGET_S: f64 = 0.6;
    let mut times = vec![setup(0)?];
    let reps = ((BUDGET_S / times[0].max(1e-6)).ceil() as usize).clamp(3, 15);
    for k in 1..reps - 1 {
        fresh_engine();
        times.push(setup(k)?);
    }
    fresh_engine();
    Ok(times)
}

/// Models resolved through the process-wide engine would otherwise be served
/// from its cache on every set-up after the first.
fn fresh_engine() {
    hpacml_nn::InferenceEngine::global().clear();
}

/// `setup_s`: everything before the first measured operation — the median
/// of the repeated set-ups plus the warm-up's time box. The box is
/// a constant (`collect_stencil`'s warm-up, one whole cold cycle, overruns
/// it; the box is what counts). It is in the metric because it is part of
/// what a user waits for, and because it keeps a 0.6 ms bootstrap from
/// turning a 0.2 ms wobble of the host's file system into a "30 %
/// regression": work moved into set-up shows once it is a few tens of
/// milliseconds.
pub fn report_setup(report: &mut RunReport, setup_s: Vec<f64>) {
    let n = setup_s.len() as u64;
    report.median_of(
        "setup_s",
        setup_s
            .into_iter()
            .map(|s| s + WARM_UP.as_secs_f64())
            .collect(),
        n,
    );
}

/// The widest SIMD level the host offers, as `(code, name)`; the build uses
/// `target-cpu=native`, so this is what the kernels were compiled for.
pub fn host_isa() -> (f64, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return (3.0, "avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return (2.0, "avx2");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return (1.0, "sse4.2");
        }
    }
    (0.0, "baseline")
}

/// High-water resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Res<f64> {
    let status = ctx(
        "read /proc/self/status",
        std::fs::read_to_string("/proc/self/status"),
    )?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Build `spec` from a fixed seed (part of the workload definition: weights
/// are untrained, cost is what is measured) and save it as `.hml`.
pub fn save_model(path: &Path, spec: &ModelSpec, seed: u64) -> Res<()> {
    let mut model = ctx("build model", spec.build(seed))?;
    ctx(
        "save model",
        hpacml_nn::serialize::save_model(path, spec, &mut model, None, None),
    )
}

/// Median wall time of `f` over `reps` calls, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            ns_since(t0) as f64 / 1e3
        })
        .collect();
    stats::median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_metrics_count_failures_as_misses() {
        let ok_ns = vec![5_000_000, 100_000, 300_000, 200_000];
        let trial = Trial::new(ok_ns, 5, 1_000_000_000, 1000.0);
        assert_eq!((trial.ok, trial.failed(), trial.within), (4, 1, 3));
        assert_eq!((trial.p50_us, trial.p99_us), (200.0, 5000.0));
        let mut r = RunReport::new("w", 1, false);
        report_trials(&mut r, &[trial.clone(), trial.clone()], 10);
        assert_eq!((r.attempted, r.failed), (10, 2));
        assert_eq!(r.get("op_p50_us"), Some(200.0));
        assert_eq!(r.get("units_per_s"), Some(40.0));
        // 3 of 5 attempted were answered correctly within 1000 us.
        assert_eq!(r.get("within_limit_share"), Some(0.6));

        // Measured while the clock ran a quarter faster than the reference:
        // at the reference clock the op is slower and the rate lower; the
        // limit is applied to times as measured.
        let mut r = RunReport::new("w", 1, false);
        report_trials(&mut r, &[trial.at_clock(1.25)], 10);
        assert_eq!(r.get("op_p50_us"), Some(250.0));
        assert_eq!(r.get("units_per_s"), Some(32.0));
        assert_eq!(r.get("within_limit_share"), Some(0.6));
    }

    #[test]
    fn only_untraced_in_process_trials_are_short() {
        for w in IN_PROCESS {
            assert_eq!(
                (trial_seconds(w, false), trial_seconds(w, true)),
                (0.5, 2.0)
            );
        }
        assert_eq!(trial_seconds("serve_closed", false), 2.0);
        assert_eq!(trial_seconds("collect_stencil", false), 2.0);
    }

    #[test]
    fn closed_loop_carries_the_operation_index_across_trials() {
        let mut next = 0u64;
        let mut seen = Vec::new();
        for _ in 0..2 {
            let t = closed_loop(Duration::from_millis(2), 1.0, &mut next, |k| {
                seen.push(k);
                (k % 2 == 0).then_some(1)
            });
            assert!(t.attempted >= 1 && t.wall_ns >= 2_000_000);
            assert!(t.ok <= t.attempted && t.within <= t.ok);
        }
        assert_eq!(seen, (0..next).collect::<Vec<_>>());
    }

    #[test]
    fn setup_rehearses_at_least_twice_and_leaves_the_last_to_the_caller() {
        let mut calls = Vec::new();
        let times = rehearse_setup(|k| {
            calls.push(k);
            Ok(0.3)
        })
        .unwrap();
        assert_eq!((times.len(), calls), (2, vec![0, 1]));
        assert_eq!(rehearse_setup(|_| Ok(0.001)).unwrap().len(), 14);
        assert!(rehearse_setup(|_| Err("no".into())).is_err());
    }

    #[test]
    fn host_facts_are_readable() {
        assert!(peak_rss_mb().unwrap() > 1.0);
        assert!(host_isa().0 >= 0.0);
    }
}
