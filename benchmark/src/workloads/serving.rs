//! The two serving workloads: `serve_closed` (two clients, each waiting for
//! its reply) and `serve_paced_reload` (an open loop on an absolute schedule
//! while `Daemon::apply` alternates two configs). Both drive a `Daemon`
//! bootstrapped from config text; the traced pass of `serve_closed` also
//! drives a `BatchServer` and a `Session` directly, to split the daemon's
//! cost from what lies below it.

use super::layers::{compile_plans, report_par, Replay};
use super::{
    closed_loop, ctx, median_us, ns_between, ns_since, peak_rss_mb, print_trial, rehearse_setup,
    report_setup, report_traced, report_trials, save_model, Res, RunCfg, Trial, REPLAY_EVERY,
    WARM_UP,
};
use crate::gen;
use crate::report::RunReport;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use hpacml_core::{BatchServer, Region};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::ForwardWorkspace;
use hpacml_serve::{Daemon, DaemonBuilder};
use hpacml_tensor::{Precision, Tensor};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const REGION: &str = "demo";
/// Generator threads: the host has two cores.
const CLIENTS: usize = 2;
const SAMPLES_PER_CLIENT: usize = 64;
const MLP: (usize, [usize; 2], usize) = (3, [16, 16], 1);
const MODEL_SEEDS: [u64; 2] = [3, 4];

fn spec() -> ModelSpec {
    ModelSpec::mlp(MLP.0, &MLP.1, MLP.2, Activation::Tanh, 0.0)
}

const MAX_BATCH: [usize; 2] = [8, 4];
const MAX_WAIT: Duration = Duration::from_micros(200);
/// A request answered correctly within this is inside the limit.
const LIMIT_US: f64 = 1000.0;
/// Open loop: total arrival rate, about a third of closed-loop capacity on
/// the 2-core reference host, and the per-request deadline.
const PACED_RATE: u64 = 4000;
const PACED_DEADLINE: Duration = Duration::from_millis(50);
const RELOAD_EVERY: Duration = Duration::from_millis(500);

fn directive_src(model: &Path) -> String {
    format!(
        "#pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))\n\
         #pragma approx tensor functor(single: [i, 0:1] = ([i]))\n\
         #pragma approx tensor map(to: rows(x[0:N]))\n\
         #pragma approx tensor map(from: single(y[0:N]))\n\
         #pragma approx ml(infer) in(x) out(y) model(\"{}\")",
        model.display()
    )
}

fn config_for(model: &Path, max_batch: usize) -> String {
    let directive = directive_src(model)
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!(
        "region {REGION} {{\n directive \"{directive}\";\n bind N 1;\n input x 3;\n output y 1;\n \
         max_batch {max_batch};\n max_wait {}us;\n workers 2;\n}}\n",
        MAX_WAIT.as_micros()
    )
}

/// One client's request cycle with the bitwise-expected reply of each
/// deployed model, computed through `nn` directly.
struct Samples {
    xs: Vec<[f32; 3]>,
    expected: Vec<Vec<f32>>,
}

impl Samples {
    fn new(seed: u64, client: usize, models: &[PathBuf]) -> Res<Samples> {
        let flat = gen::uniform(seed, 10 + client as u64, SAMPLES_PER_CLIENT * 3);
        let xs: Vec<[f32; 3]> = flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
        let x = ctx(
            "sample tensor",
            Tensor::from_vec(flat, [SAMPLES_PER_CLIENT, 3]),
        )?;
        let mut fw = ForwardWorkspace::new();
        let expect = |path: &PathBuf| -> Res<Vec<f32>> {
            let saved = ctx("load model", hpacml_nn::serialize::load_model(path))?;
            let y = ctx(
                "reference forward",
                fw.forward_at(&saved.model, &x, Precision::F32),
            )?;
            Ok(y.data().to_vec())
        };
        Ok(Samples {
            expected: models.iter().map(expect).collect::<Res<_>>()?,
            xs,
        })
    }

    fn verifies(&self, i: usize, y: f32) -> bool {
        self.expected.iter().any(|e| e[i].to_bits() == y.to_bits())
    }
}

/// What a client calls to get one sample answered.
type Submit<'a> = &'a (dyn Fn(&[f32; 3], &mut [f32; 1]) -> Result<(), String> + Sync);

/// One optional tracer per generator thread (scoped threads borrow theirs).
fn lanes(tracers: Option<&mut [Tracer]>, threads: usize) -> Vec<Option<&mut Tracer>> {
    match tracers {
        Some(t) => t.iter_mut().map(Some).collect(),
        None => (0..threads).map(|_| None).collect(),
    }
}

/// Closed loop: every client sends its next request when the previous reply
/// arrives. With tracers (one per client), each request is a root span
/// called `span`.
fn closed_trial(
    submit: Submit<'_>,
    samples: &[Samples],
    dur: Duration,
    tracers: Option<&mut [Tracer]>,
    span: &'static str,
) -> Trial {
    let start = Instant::now();
    let (mut ok_ns, mut attempted) = (Vec::new(), 0u64);
    std::thread::scope(|scope| {
        let clients: Vec<_> = samples
            .iter()
            .zip(lanes(tracers, samples.len()))
            .enumerate()
            .map(|(c, (s, mut tracer))| {
                scope.spawn(move || {
                    let (mut ok, mut attempted) = (Vec::with_capacity(1 << 16), 0u64);
                    while start.elapsed() < dur {
                        let i = attempted as usize % s.xs.len();
                        let mut y = [0.0f32; 1];
                        let t0 = Instant::now();
                        let result = submit(&s.xs[i], &mut y);
                        let t1 = Instant::now();
                        if let Some(t) = &mut tracer {
                            t.push(span, 0, ((c as u64) << 32) | attempted, t0, t1);
                        }
                        attempted += 1;
                        match result {
                            Ok(()) if s.verifies(i, y[0]) => ok.push(ns_between(t0, t1)),
                            Ok(()) => eprintln!("[serve] client {c}: wrong reply for sample {i}"),
                            Err(e) => eprintln!("[serve] client {c}: {e}"),
                        }
                    }
                    (ok, attempted)
                })
            })
            .collect();
        for client in clients {
            let (ok, sent) = client.join().expect("client thread panicked");
            ok_ns.extend(ok);
            attempted += sent;
        }
    });
    Trial::new(ok_ns, attempted, ns_since(start), LIMIT_US)
}

/// One open-loop trial's extras: how late the pacers sent, and the applies.
#[derive(Default)]
struct PacedExtras {
    lag_ns: Vec<u64>,
    apply_ns: Vec<u64>,
    fill: (u64, u64),
}

/// Open loop: each pacer sends on its precomputed absolute schedule whatever
/// happened to earlier requests, and latency counts from the due time. The
/// calling thread applies the two configs alternately every `RELOAD_EVERY`.
/// Tracers, if any: one per pacer, then the reload thread's.
fn paced_trial(
    daemon: &Daemon,
    configs: &[String; 2],
    samples: &[Samples],
    dur: Duration,
    applied: &mut usize,
    tracers: Option<&mut [Tracer]>,
) -> (Trial, PacedExtras) {
    let schedule = gen::schedule(
        PACED_RATE,
        samples.len(),
        u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
    );
    let mut lanes = lanes(tracers, samples.len() + 1);
    let mut reload_tracer = lanes.pop().flatten();
    let start = Instant::now();
    let mut extras = PacedExtras::default();
    let mut ok_ns = Vec::new();
    std::thread::scope(|scope| {
        let pacers: Vec<_> = samples
            .iter()
            .zip(&schedule)
            .zip(lanes)
            .enumerate()
            .map(|(c, ((s, due_ns), mut tracer))| {
                scope.spawn(move || {
                    let mut ok = Vec::with_capacity(due_ns.len());
                    let mut lag = Vec::with_capacity(due_ns.len());
                    for (k, &ns) in due_ns.iter().enumerate() {
                        let due = start + Duration::from_nanos(ns);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let i = k % s.xs.len();
                        let mut y = [0.0f32; 1];
                        let sent = Instant::now();
                        let result = daemon.submit_with_deadline(
                            REGION,
                            &[&s.xs[i]],
                            &mut [&mut y],
                            PACED_DEADLINE,
                        );
                        let end = Instant::now();
                        lag.push(ns_between(due, sent));
                        if let Some(t) = &mut tracer {
                            let op = ((c as u64) << 32) | k as u64;
                            let id = t.push("serve.submit", 0, op, due, end);
                            t.push("gen.lag", id, op, due, sent);
                        }
                        match result {
                            Ok(()) if s.verifies(i, y[0]) => ok.push(ns_between(due, end)),
                            Ok(()) => eprintln!("[serve] pacer {c}: wrong reply for sample {i}"),
                            Err(e) => eprintln!("[serve] pacer {c}: {e}"),
                        }
                    }
                    (ok, lag)
                })
            })
            .collect();

        // The control plane, on this thread: first apply half a period in.
        let mut at = RELOAD_EVERY / 2;
        while at < dur {
            if let Some(wait) = (start + at).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            // The region's counters restart with every snapshot: bank the
            // outgoing snapshot's batch fill first.
            if let Some(s) = daemon.region_stats(REGION) {
                extras.fill.0 += s.batch_submitted;
                extras.fill.1 += s.batches_flushed;
            }
            *applied += 1;
            let t0 = Instant::now();
            let result = daemon.apply(&configs[*applied % 2]);
            let t1 = Instant::now();
            match result {
                Ok(_) => extras.apply_ns.push(ns_between(t0, t1)),
                Err(e) => eprintln!("[serve] apply failed: {e}"),
            }
            if let Some(t) = &mut reload_tracer {
                t.push("serve.apply", 0, *applied as u64, t0, t1);
            }
            at += RELOAD_EVERY;
        }

        for pacer in pacers {
            let (ok, lag) = pacer.join().expect("pacer thread panicked");
            ok_ns.extend(ok);
            extras.lag_ns.extend(lag);
        }
    });
    // Every scheduled request was sent: one lag sample each.
    let attempted = extras.lag_ns.len() as u64;
    (
        Trial::new(ok_ns, attempted, ns_since(start), LIMIT_US),
        extras,
    )
}

/// A bootstrapped daemon that has answered its first request.
struct Deployed {
    daemon: Daemon,
    configs: [String; 2],
    models: [PathBuf; 2],
    setup_s: f64,
    bootstrap_ms: f64,
}

/// Set-up: models saved, configs rendered, daemon bootstrapped, first
/// request answered.
fn setup(dir: &Path, paced: bool, first: &[f32; 3]) -> Res<Deployed> {
    let start = Instant::now();
    ctx("create set-up dir", std::fs::create_dir_all(dir))?;
    let models = [dir.join("v1.hml"), dir.join("v2.hml")];
    // The closed loop deploys v1 only; saving v2 belongs to the reload
    // workload's set-up alone.
    for (path, seed) in models
        .iter()
        .zip(MODEL_SEEDS)
        .take(if paced { 2 } else { 1 })
    {
        save_model(path, &spec(), seed)?;
    }
    let configs = [
        config_for(&models[0], MAX_BATCH[0]),
        config_for(&models[1], MAX_BATCH[1]),
    ];
    let t0 = Instant::now();
    let daemon = ctx("bootstrap", DaemonBuilder::new().bootstrap(&configs[0]))?;
    let bootstrap_ms = ns_since(t0) as f64 / 1e6;
    let mut y = [0.0f32; 1];
    ctx(
        "first request",
        daemon.submit(REGION, &[first], &mut [&mut y]),
    )?;
    Ok(Deployed {
        daemon,
        configs,
        models,
        setup_s: start.elapsed().as_secs_f64(),
        bootstrap_ms,
    })
}

pub fn run(name: &str, cfg: &RunCfg) -> Res<RunReport> {
    let paced = name == "serve_paced_reload";
    let mut report = RunReport::new(name, cfg.seed, cfg.traced);
    let probe = [0.25f32, -0.5, 0.75];

    let mut bootstrap_ms = Vec::new();
    let mut setup_s = rehearse_setup(|k| {
        let d = setup(&cfg.dir.join(format!("setup-{k}")), paced, &probe)?;
        d.daemon.shutdown();
        bootstrap_ms.push(d.bootstrap_ms);
        Ok(d.setup_s)
    })?;
    let Deployed {
        daemon,
        configs,
        models,
        setup_s: last_s,
        bootstrap_ms: last_ms,
    } = setup(&cfg.dir.join("setup-final"), paced, &probe)?;
    setup_s.push(last_s);
    bootstrap_ms.push(last_ms);
    // A reply must match a model that was actually deployed.
    let deployed = &models[..if paced { 2 } else { 1 }];
    let samples: Vec<Samples> = (0..CLIENTS)
        .map(|c| Samples::new(cfg.seed, c, deployed))
        .collect::<Res<_>>()?;

    let submit = |x: &[f32; 3], y: &mut [f32; 1]| {
        daemon
            .submit(REGION, &[x], &mut [y])
            .map_err(|e| e.to_string())
    };
    let mut applied = 0usize;
    // One trial of this workload's loop, with the open loop's extras; a
    // labelled trial prints its line.
    let mut trial_of = |label: Option<usize>,
                        dur: Duration,
                        tracers: Option<&mut [Tracer]>|
     -> (Trial, Option<PacedExtras>) {
        let (trial, extra) = if paced {
            let (t, e) = paced_trial(&daemon, &configs, &samples, dur, &mut applied, tracers);
            (t, Some(e))
        } else {
            let t = closed_trial(&submit, &samples, dur, tracers, "serve.submit");
            (t, None)
        };
        if let Some(i) = label {
            print_trial(name, i, &trial);
            if let Some(e) = &extra {
                let mut lag = e.lag_ns.clone();
                lag.sort_unstable();
                println!(
                    "[{name}] trial {i}: generator lag p90 {:.1} us, {} applies",
                    stats::us(stats::percentile(&lag, 0.9)),
                    e.apply_ns.len()
                );
            }
        }
        (trial, extra)
    };

    trial_of(None, WARM_UP, None);

    if !cfg.traced {
        let trials: Vec<Trial> = (0..cfg.trials)
            .map(|i| trial_of(Some(i), cfg.trial, None).0)
            .collect();
        daemon.shutdown();
        report_setup(&mut report, setup_s);
        report_trials(&mut report, &trials, 1);
        report.single("peak_rss_mb", peak_rss_mb()?);
        return Ok(report);
    }

    let (baseline, _) = trial_of(None, cfg.trial, None);
    let epoch = Instant::now();
    // One tracer per generator thread, plus the reload thread's.
    let mut tracers: Vec<Tracer> = (0..=CLIENTS)
        .map(|c| Tracer::new(epoch, 1 + c as u64))
        .collect();
    let pool_base = hpacml_par::global().stats();
    let (trials, extras): (Vec<Trial>, Vec<Option<PacedExtras>>) = (0..2)
        .map(|i| trial_of(Some(i), cfg.trial, Some(tracers.as_mut_slice())))
        .unzip();
    let extras: Vec<PacedExtras> = extras.into_iter().flatten().collect();
    let fill = daemon.region_stats(REGION);
    let daemon_stats = daemon.stats();

    let traced_p50 = report_traced(&mut report, &baseline, &trials);
    report_par(&mut report, &pool_base);
    report.single(
        "serve.config_parse_us",
        median_us(50, || {
            std::hint::black_box(hpacml_serve::Config::parse(&configs[0]).is_ok());
        }),
    );
    let n = bootstrap_ms.len() as u64;
    report.median_of("serve.bootstrap_ms", bootstrap_ms, n);
    report.single("serve.served", daemon_stats.served as f64);
    report.single("serve.swap_retries", daemon_stats.swap_retries as f64);
    report.single(
        "core.rejected_overload",
        daemon_stats.rejected_overload as f64,
    );
    report.single(
        "core.rejected_deadline",
        daemon_stats.rejected_deadline as f64,
    );
    let (mut submitted, mut flushed) =
        fill.map_or((0, 0), |s| (s.batch_submitted, s.batches_flushed));
    for e in &extras {
        submitted += e.fill.0;
        flushed += e.fill.1;
    }
    report.single("core.batch_fill", submitted as f64 / flushed.max(1) as f64);

    let mut spans: Vec<Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
    if paced {
        let mut lag: Vec<u64> = extras
            .iter()
            .flat_map(|e| e.lag_ns.iter().copied())
            .collect();
        lag.sort_unstable();
        report.single("gen.lag_p90_us", stats::us(stats::percentile(&lag, 0.9)));
        let apply_ms: Vec<f64> = extras
            .iter()
            .flat_map(|e| e.apply_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        let n = apply_ms.len() as u64;
        report.single(
            "serve.apply_max_ms",
            apply_ms.iter().copied().fold(0.0, f64::max),
        );
        report.median_of("serve.swap_p50_ms", apply_ms, n);
        daemon.shutdown();
    } else {
        daemon.shutdown();
        spans.extend(below_the_daemon(
            cfg,
            &samples,
            &models[0],
            traced_p50,
            &mut report,
        )?);
    }
    ctx("write trace", trace::write_jsonl(&cfg.trace_path, &spans))?;
    Ok(report)
}

/// `serve_closed`'s traced extra: the same two clients against a
/// `BatchServer` built directly over a `Session` (same `max_batch` and
/// `max_wait`), then one thread calling `Session::invoke_batch(2)` with its
/// stages replayed — and the layer table these make with the daemon's
/// median: daemon − BatchServer − session − (bridge + nn) − tensor.
fn below_the_daemon(
    cfg: &RunCfg,
    samples: &[Samples],
    model: &Path,
    daemon_p50: f64,
    report: &mut RunReport,
) -> Res<Vec<Span>> {
    let source = directive_src(model);
    let region = ctx("Region::from_source", Region::from_source(REGION, &source))?;
    let binds = Bindings::new().with("N", 1);
    let shapes: [(&str, &[usize]); 2] = [("x", &[3]), ("y", &[1])];
    let session = ctx(
        "Region::session",
        region.session(&binds, &shapes, MAX_BATCH[0]),
    )?;
    let epoch = Instant::now();

    let server = ctx("BatchServer::new", BatchServer::new(&session, MAX_WAIT))?;
    let direct =
        |x: &[f32; 3], y: &mut [f32; 1]| server.submit(&[x], &mut [y]).map_err(|e| e.to_string());
    closed_trial(&direct, samples, WARM_UP, None, "");
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(epoch, 10 + c as u64))
        .collect();
    let direct_trial = closed_trial(
        &direct,
        samples,
        cfg.trial,
        Some(tracers.as_mut_slice()),
        "core.batchserver.submit",
    );
    print_trial("serve_closed/batchserver", 0, &direct_trial);
    server.shutdown();
    report.attempted += direct_trial.attempted;
    report.failed += direct_trial.failed();
    let direct_p50 = direct_trial.p50_us;
    report.single("core.batchserver_op_p50_us", direct_p50);
    report.single("serve.daemon_overhead_us", daemon_p50 - direct_p50);

    // The session on its own: the two clients' samples as one batch of 2.
    let plans = compile_plans(&source, ("x", &[3]), ("y", &[1]), &binds)?;
    let mut replay = Replay::new(
        plans,
        model,
        &spec(),
        MODEL_SEEDS[0],
        Precision::F32,
        CLIENTS,
    )?;
    let mut tracer = Tracer::new(epoch, 20);
    let session_trial = closed_loop(cfg.trial / 2, LIMIT_US, &mut 0, |k| {
        let i = k as usize % SAMPLES_PER_CLIENT;
        let input: Vec<f32> = samples.iter().flat_map(|s| s.xs[i]).collect();
        let mut out = vec![0.0f32; samples.len()];
        let t0 = Instant::now();
        let result = (|| -> hpacml_core::Result<()> {
            let run = session.invoke_batch(samples.len())?.input("x", &input)?;
            let mut outcome = run.run(|| ())?;
            outcome.output("y", &mut out)?;
            outcome.finish()?;
            Ok(())
        })();
        let t1 = Instant::now();
        let id = tracer.push("core.session", 0, k, t0, t1);
        if k.is_multiple_of(REPLAY_EVERY) {
            if let Err(e) = replay.replay(&mut tracer, id, k, &input, samples.len()) {
                eprintln!("[serve] session: replay of op {k} failed: {e}");
                return None;
            }
        }
        match result {
            Ok(()) if samples.iter().zip(&out).all(|(s, y)| s.verifies(i, *y)) => {
                Some(ns_between(t0, t1))
            }
            Ok(()) => {
                eprintln!("[serve] session: wrong output for sample {i}");
                None
            }
            Err(e) => {
                eprintln!("[serve] session: {e}");
                None
            }
        }
    });
    report.attempted += session_trial.attempted;
    report.failed += session_trial.failed();
    let session_p50 = session_trial.p50_us;
    report.single("core.session_op_us", session_p50);
    let mut spans: Vec<Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
    spans.extend(tracer.spans);
    replay.report(report, &spans);
    let replayed = trace::replayed_self_us(&spans, "core.session", REPLAY_EVERY);
    report.single("core.session_overhead_us", stats::median(&replayed));

    let get = |name: &str| report.get(name).unwrap_or(0.0);
    let bridge = get("bridge.gather_us") + get("bridge.scatter_us");
    let (forward, kernels) = (get("nn.forward_us"), replay.kernel_us(&spans));
    println!(
        "[serve_closed] layer table (us, medians; each row the increment over the rows below)"
    );
    println!(
        "  {:<40} {:>9.2}",
        "request through Daemon::submit", daemon_p50
    );
    println!(
        "  {:<40} {:>9.2}",
        "  serve: daemon over BatchServer",
        daemon_p50 - direct_p50
    );
    println!(
        "  {:<40} {:>9.2}",
        "  core: BatchServer over a session call",
        direct_p50 - session_p50
    );
    println!(
        "  {:<40} {:>9.2}",
        "  core: session self time",
        get("core.session_overhead_us")
    );
    println!("  {:<40} {:>9.2}", "  bridge: gather + scatter", bridge);
    println!(
        "  {:<40} {:>9.2}",
        "  nn: forward minus kernels",
        forward - kernels
    );
    println!("  {:<40} {:>9.2}", "  tensor: per-layer kernels", kernels);
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_text_parses_and_carries_the_limits() {
        let text = config_for(Path::new("dir/m.hml"), 4);
        let cfg = hpacml_serve::Config::parse(&text).unwrap();
        assert_eq!(cfg.regions.len(), 1);
        let r = &cfg.regions[0];
        assert_eq!(
            (r.name.as_str(), r.max_batch, r.max_wait),
            (REGION, 4, MAX_WAIT)
        );
        assert_eq!(r.workers, Some(2));
        assert!(r.directive.contains("model(\"dir/m.hml\")"));
        assert_eq!(r.directive, directive_src(Path::new("dir/m.hml")));
    }
}
