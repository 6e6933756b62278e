//! The repo's benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, the metrics and how they interact; `/BENCHMARK.json` is the
//! contract this binary is checked against.
//!
//! ```sh
//! # every workload, each in its own subprocess; add --trace for the layer tables
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! # one workload, one JSON result line last (what a driver runs)
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sweep_mlp --seed 1 --seconds 12 --trace 0
//! # regressions between two sets of result files
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```

mod clock;
mod compare;
mod contract;
mod gen;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use contract::Contract;
use json::Json;
use report::RunReport;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{ctx, Res, RunCfg};

/// Where results, traces and scratch files go: inside the benchmark's own
/// directory, whether the command runs from the repo root or from there.
pub fn results_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/results")
    } else {
        PathBuf::from("results")
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trials: Option<usize>,
    traced: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: hpacml-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trials N] [--trace [0|1]] [--out PATH]\n       hpacml-benchmark compare A.json[,A2.json] B.json[,B2.json]";

fn parse_args(args: &[String], contract: &Contract) -> Res<Args> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: contract.run_seconds as f64,
        trials: None,
        traced: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !contract::valid_name(&name) || !contract.workloads.contains(&name) {
                    return Err(format!(
                        "unknown workload `{name}`; known: {}",
                        contract.workloads.join(", ")
                    ));
                }
                out.workload = Some(name);
            }
            "--seed" => out.seed = ctx("--seed", value("a number")?.parse())?,
            "--seconds" => {
                out.seconds = ctx("--seconds", value("a number")?.parse())?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trials" => {
                let n: usize = ctx("--trials", value("a number")?.parse())?;
                if !(1..=64).contains(&n) {
                    return Err("--trials must be 1 to 64".into());
                }
                out.trials = Some(n);
            }
            "--out" => out.out = Some(PathBuf::from(value("a path")?)),
            "--trace-out" => out.trace_out = Some(PathBuf::from(value("a path")?)),
            // `--trace` alone switches tracing on; a driver passes 0 or 1.
            "--trace" => {
                out.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(out)
}

impl Args {
    /// Trials have the workload's length (`workloads::trial_seconds`) unless
    /// `--trials` says otherwise; a shorter run gets fewer trials, never
    /// shorter ones.
    fn trials(&self, workload: &str, traced: bool) -> usize {
        let each = workloads::trial_seconds(workload, traced);
        self.trials
            .unwrap_or_else(|| ((self.seconds / each).floor() as usize).max(1))
    }

    fn run_cfg(&self, workload: &str, dir: PathBuf) -> RunCfg {
        let trials = self.trials(workload, self.traced);
        RunCfg {
            seed: self.seed,
            trial: Duration::from_secs_f64(self.seconds / trials as f64),
            trials,
            traced: self.traced,
            dir,
            trace_path: self
                .trace_out
                .clone()
                .unwrap_or_else(|| results_dir().join("trace.jsonl")),
        }
    }
}

/// The pool width of the in-process workloads unless the caller's
/// environment sets one. Serial: with two pool threads on the reference
/// host's two shared vCPUs an operation waits for the slower of the two, so
/// it reads every disturbance of either core, and the unpinned caller can
/// land on the pinned worker's CPU (operations of 45 ms instead of 0.6 ms
/// were seen). `HPACML_THREADS=2` in the environment measures with the pool.
const IN_PROCESS_THREADS: &str = "1";

/// Run `workload` on a thread of its own. The main thread's stack starts at
/// a random 16-byte offset (ASLR), a new thread's at a fixed offset in its
/// mapping, and the GEMM kernels care: the same `sweep_mlp` binary ran its
/// operation in 233, 262 or 368 µs from one process to the next on the main
/// thread, and in one time always on a spawned one.
fn run_on_own_thread(workload: &str, cfg: RunCfg) -> Res<RunReport> {
    let name = workload.to_string();
    let thread = std::thread::Builder::new()
        .name(name.clone())
        .stack_size(8 << 20)
        .spawn(move || workloads::run(&name, &cfg));
    ctx("spawn workload thread", thread)?
        .join()
        .map_err(|_| format!("{workload}: the workload thread panicked"))?
}

/// Run one workload in this process and print its table and result line.
fn run_one(args: &Args, contract: &Contract, workload: &str) -> Res<bool> {
    println!(
        "[{workload}] seed {} seconds {} trials {} trace {}",
        args.seed,
        args.seconds,
        args.trials(workload, args.traced),
        u8::from(args.traced)
    );
    // Before anything touches the pool: its width is read once.
    if workloads::IN_PROCESS.contains(&workload) && std::env::var_os("HPACML_THREADS").is_none() {
        std::env::set_var("HPACML_THREADS", IN_PROCESS_THREADS);
    }
    let dir = results_dir().join(format!("tmp-{}-{workload}", std::process::id()));
    let result = run_on_own_thread(workload, args.run_cfg(workload, dir.clone()));
    // Models and dbs are scratch: gone whether the run worked or not.
    let _ = std::fs::remove_dir_all(&dir);
    let report: RunReport = result?;
    let line = report.result_line(contract)?;
    report.print_table(contract);
    if let Some(path) = &args.out {
        write_file(path, &report.to_json(contract).render())?;
    }
    println!("{line}");
    Ok(report.correct())
}

fn write_file(path: &Path, text: &str) -> Res<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        ctx("create output dir", std::fs::create_dir_all(dir))?;
    }
    ctx(
        &path.display().to_string(),
        std::fs::write(path, format!("{text}\n")),
    )
}

/// Run every workload, each in its own re-exec'd subprocess so peak RSS, the
/// global pool and the model cache are per workload, then print the
/// end-to-end table and write the suite file.
fn run_suite(args: &Args, contract: &Contract) -> Res<bool> {
    let exe = ctx("current_exe", std::env::current_exe())?;
    let dir = results_dir();
    ctx("create results dir", std::fs::create_dir_all(&dir))?;
    let mut runs: Vec<Json> = Vec::new();
    let mut all_correct = true;
    let mut trace_parts: Vec<PathBuf> = Vec::new();
    for workload in &contract.workloads {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            let suffix = if traced { ".trace" } else { "" };
            let record = dir.join(format!("{workload}{suffix}.json"));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload.as_str()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trials", &args.trials(workload, traced).to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&record);
            if traced {
                let part = dir.join(format!("trace-{workload}.jsonl"));
                cmd.arg("--trace-out").arg(&part);
                trace_parts.push(part);
            }
            let status = ctx("spawn workload", cmd.status())?;
            all_correct &= status.success();
            match std::fs::read_to_string(&record) {
                Ok(text) => runs.push(ctx("workload record", Json::parse(&text))?),
                Err(_) => eprintln!("[suite] {workload}: no record written ({status})"),
            }
            let _ = std::fs::remove_file(&record);
        }
    }
    if !trace_parts.is_empty() {
        let mut all = String::new();
        for part in &trace_parts {
            all.push_str(&std::fs::read_to_string(part).unwrap_or_default());
            let _ = std::fs::remove_file(part);
        }
        ctx("write trace", std::fs::write(dir.join("trace.jsonl"), all))?;
        println!(
            "[suite] spans written to {}",
            dir.join("trace.jsonl").display()
        );
    }

    println!(
        "\nend-to-end metrics, seed {} (median over trials)",
        args.seed
    );
    print!("{:<20}", "workload");
    for d in &contract.end_to_end {
        print!(" {:>27}", format!("{} [{}]", d.name, d.unit));
    }
    println!(" {:>13}", "failed_share");
    for run in runs
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
    {
        print!(
            "{:<20}",
            run.get("workload").and_then(Json::as_str).unwrap_or("?")
        );
        for d in &contract.end_to_end {
            let v = run
                .get("metrics")
                .and_then(|m| m.get(&d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            print!(" {:>27}", v.map_or("-".to_string(), |v| format!("{v:.4}")));
        }
        println!(
            " {:>13}",
            run.get("failed_share")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        );
    }

    let (isa_code, isa) = workloads::host_isa();
    let suite = Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "host",
            Json::obj(vec![
                (
                    "cores",
                    Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                ("isa", Json::Str(isa.to_string())),
                ("isa_code", Json::Num(isa_code)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| dir.join("latest.json"));
    write_file(&out, &suite.render())?;
    println!("[suite] results written to {}", out.display());
    Ok(all_correct)
}

fn real_main() -> Res<bool> {
    let contract = Contract::embedded()?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => compare::main(&contract, a, b),
            _ => Err(USAGE.to_string()),
        };
    }
    let args = parse_args(&argv, &contract)?;
    match &args.workload {
        Some(workload) => run_one(&args, &contract, workload),
        None => run_suite(&args, &contract),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: outputs were wrong or operations failed (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Res<Args> {
        let v: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse_args(&v, &Contract::embedded().unwrap())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve_closed",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_closed"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.trials("serve_closed", false)),
            (42, 12.0, false, 6)
        );
        assert!(args(&["--trace", "1"]).unwrap().traced);
        // A bare `--trace` is a switch, also before another flag.
        let b = args(&["--trace", "--seed", "3"]).unwrap();
        assert!(b.traced && b.seed == 3);
        // Without `--seconds` a run is as long as the contract says.
        let run_seconds = Contract::embedded().unwrap().run_seconds as f64;
        assert_eq!(args(&[]).unwrap().seconds, run_seconds);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "a b"],
            &["--workload"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trials", "0"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_shorter_run_has_fewer_trials_not_shorter_ones() {
        let cfg = |list: &[&str], workload: &str| {
            let cfg = args(list).unwrap().run_cfg(workload, PathBuf::from("x"));
            (cfg.trials, cfg.trial)
        };
        let (half, two) = (Duration::from_millis(500), Duration::from_secs(2));
        assert_eq!(cfg(&["--seconds", "8"], "serve_closed"), (4, two));
        assert_eq!(cfg(&["--seconds", "8"], "sweep_mlp"), (16, half));
        assert_eq!(
            cfg(&["--seconds", "8", "--trace", "1"], "sweep_mlp"),
            (4, two)
        );
        assert_eq!(
            cfg(&["--seconds", "1"], "collect_stencil"),
            (1, Duration::from_secs(1))
        );
        assert_eq!(
            cfg(&["--seconds", "0.2", "--trials", "1"], "sweep_mlp"),
            (1, Duration::from_millis(200))
        );
    }

    /// A 1-trial × 0.2 s run of every workload, untraced and traced: nothing
    /// fails, every metric the contract lists is produced, and every metric
    /// produced is in the contract. One test, because the workloads share
    /// the process-wide pool and engine and their timings should not overlap.
    #[test]
    fn smoke_run_of_every_workload() {
        let contract = Contract::embedded().unwrap();
        let base = results_dir().join(format!("test-smoke-{}", std::process::id()));
        let mut produced = std::collections::BTreeSet::new();
        for workload in &contract.workloads {
            for traced in [false, true] {
                let cfg = RunCfg {
                    seed: 5,
                    trial: Duration::from_millis(200),
                    trials: 1,
                    traced,
                    dir: base.join(format!("{workload}-{traced}")),
                    trace_path: base.join(format!("{workload}.jsonl")),
                };
                let report = workloads::run(workload, &cfg)
                    .unwrap_or_else(|e| panic!("{workload} (traced {traced}): {e}"));
                assert_eq!(report.failed_share(), 0.0, "{workload}: {report:?}");
                assert!(report.attempted > 0 && report.correct());
                let line = report
                    .result_line(&contract)
                    .unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(Json::parse(&line).is_ok());
                if traced {
                    let spans = std::fs::read_to_string(&cfg.trace_path).unwrap();
                    assert!(spans.lines().count() > 0);
                    assert!(spans.lines().all(|l| Json::parse(l).is_ok()));
                } else {
                    for d in &contract.end_to_end {
                        assert!(
                            report.get(&d.name).unwrap() > 0.0,
                            "{workload}: {} is 0",
                            d.name
                        );
                    }
                }
                produced.extend(report.metrics.iter().map(|m| m.name.clone()));
            }
        }
        let listed: std::collections::BTreeSet<String> = contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .map(|d| d.name.clone())
            .collect();
        assert_eq!(
            produced, listed,
            "BENCHMARK.json and the workloads disagree"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }
}
