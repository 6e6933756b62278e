//! The three in-process inference workloads — `sweep_mlp`, `stencil_step`
//! and `wide_b1_int8`: one caller thread driving a compiled `Session` in a
//! closed loop, the global pool underneath (serial, unless `HPACML_THREADS`
//! says otherwise: see `main.rs`), timed at the reference clock.

use super::layers::{compile_plans, report_par, Replay};
use super::{
    closed_loop, ctx, ns_between, ns_since, peak_rss_mb, print_trial, rehearse_setup, report_setup,
    report_traced, report_trials, save_model, Res, RunCfg, Trial, REPLAY_EVERY, WARM_UP,
};
use crate::clock;
use crate::gen;
use crate::report::RunReport;
use crate::stats;
use crate::trace::{self, Tracer};
use hpacml_core::{PrecisionPolicy, Region, Session};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::ForwardWorkspace;
use hpacml_tensor::{Precision, Tensor};
use std::path::Path;
use std::time::Instant;

/// Grid edge of the stencil workloads: 256×256 interior cells plus a halo.
pub const GRID: usize = 258;
/// The auto-regressive stencil restarts from the initial grid this often, so
/// a reference trajectory of that many steps covers every operation.
const STENCIL_PERIOD: usize = 32;

/// The quickstart's 5-point stencil in, identity out.
pub fn stencil_source(ml_clause: &str) -> String {
    format!(
        "#pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))\n\
         #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))\n\
         #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))\n\
         #pragma approx tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))\n\
         #pragma approx {ml_clause}"
    )
}

/// `rows: [i, 0:F]` in, one value per row out — the sweep functor.
fn rows_source(features: usize, model: &Path) -> String {
    format!(
        "#pragma approx tensor functor(rows: [i, 0:{features}] = ([{features}*i : {features}*i+{features}]))\n\
         #pragma approx tensor functor(single: [i, 0:1] = ([i]))\n\
         #pragma approx tensor map(to: rows(x[0:N]))\n\
         #pragma approx tensor map(from: single(y[0:N]))\n\
         #pragma approx ml(infer) in(x) out(y) model(\"{}\")",
        model.display()
    )
}

/// The harness's own gather of the 5-point stencil — written against the
/// functor's meaning, not the bridge — for the reference trajectory.
pub fn stencil_rows(t: &[f32]) -> Vec<f32> {
    let mut rows = Vec::with_capacity((GRID - 2) * (GRID - 2) * 5);
    for i in 1..GRID - 1 {
        for j in 1..GRID - 1 {
            rows.extend_from_slice(&[t[(i - 1) * GRID + j], t[(i + 1) * GRID + j]]);
            rows.extend_from_slice(&t[i * GRID + j - 1..i * GRID + j + 2]);
        }
    }
    rows
}

/// Write one value per interior cell back into the grid.
pub fn stencil_scatter(y: &[f32], grid: &mut [f32]) {
    for (i, row) in y.chunks_exact(GRID - 2).enumerate() {
        grid[(i + 1) * GRID + 1..(i + 1) * GRID + GRID - 1].copy_from_slice(row);
    }
}

struct Case {
    name: &'static str,
    source: fn(&Path) -> String,
    arrays: (&'static str, &'static str),
    /// Per-sample dims of the input and the output array.
    dims: (Vec<usize>, Vec<usize>),
    binds: Bindings,
    batch: usize,
    mlp: (usize, Vec<usize>, usize),
    model_seed: u64,
    prec: Precision,
    /// Latency limit behind `within_limit_share`: about 2.5× the op's median
    /// on the 2-core reference host, so it only moves when the tail does.
    limit_us: f64,
    units_per_op: u64,
    /// The input cycle; operation `k` uses entry `k % len`. With `feedback`
    /// there is one entry, the state the trajectory restarts from.
    inputs: Vec<Vec<f32>>,
    feedback: bool,
}

impl Case {
    fn new(name: &str, seed: u64) -> Res<Case> {
        let n1 = Bindings::new().with("N", 1);
        Ok(match name {
            "sweep_mlp" => Case {
                name: "sweep_mlp",
                source: |m| rows_source(6, m),
                arrays: ("x", "y"),
                dims: (vec![6], vec![1]),
                binds: n1,
                batch: 1024,
                mlp: (6, vec![128, 64], 1),
                model_seed: 11,
                prec: Precision::F32,
                limit_us: 2000.0,
                units_per_op: 1024,
                // A 65 536-row sweep, 1024 rows per operation.
                inputs: gen::uniform(seed, 1, 65_536 * 6)
                    .chunks_exact(1024 * 6)
                    .map(<[f32]>::to_vec)
                    .collect(),
                feedback: false,
            },
            "stencil_step" => Case {
                name: "stencil_step",
                source: |m| {
                    stencil_source(&format!(
                        "ml(infer) in(t) out(tnew) model(\"{}\")",
                        m.display()
                    ))
                },
                arrays: ("t", "tnew"),
                dims: (vec![GRID, GRID], vec![GRID, GRID]),
                binds: Bindings::new()
                    .with("N", GRID as i64)
                    .with("M", GRID as i64),
                batch: 1,
                mlp: (5, vec![8], 1),
                model_seed: 12,
                prec: Precision::F32,
                limit_us: 5000.0,
                units_per_op: ((GRID - 2) * (GRID - 2)) as u64,
                inputs: vec![gen::uniform(seed, 2, GRID * GRID)],
                feedback: true,
            },
            "wide_b1_int8" => Case {
                name: "wide_b1_int8",
                source: |m| rows_source(64, m),
                arrays: ("x", "y"),
                dims: (vec![64], vec![1]),
                binds: n1,
                batch: 1,
                mlp: (64, vec![4096, 4096], 1),
                model_seed: 13,
                prec: Precision::Int8,
                limit_us: 10_000.0,
                units_per_op: 1,
                // The 256 probe inputs, also the request cycle.
                inputs: gen::uniform(seed, 3, 256 * 64)
                    .chunks_exact(64)
                    .map(<[f32]>::to_vec)
                    .collect(),
                feedback: false,
            },
            other => return Err(format!("`{other}` is not an in-process workload")),
        })
    }

    fn period(&self) -> usize {
        if self.feedback {
            STENCIL_PERIOD
        } else {
            self.inputs.len()
        }
    }

    fn spec(&self) -> ModelSpec {
        ModelSpec::mlp(self.mlp.0, &self.mlp.1, self.mlp.2, Activation::ReLU, 0.0)
    }

    /// Set-up, everything from nothing to a session that has served one
    /// operation (the first operation resolves the model, so it belongs
    /// here): model build + save, `Region::from_source` (+ the precision
    /// policy), `Region::session`, first op. `then` runs with the live
    /// session — sessions borrow their region, so they cannot be returned.
    fn set_up<T>(&self, dir: &Path, then: impl FnOnce(Live<'_>) -> Res<T>) -> Res<T> {
        let start = Instant::now();
        ctx("create set-up dir", std::fs::create_dir_all(dir))?;
        let model = dir.join("model.hml");
        save_model(&model, &self.spec(), self.model_seed)?;
        let region = ctx(
            "Region::from_source",
            Region::from_source(self.name, &(self.source)(&model)),
        )?;
        if self.prec != Precision::F32 {
            ctx(
                "set_precision_policy",
                region.set_precision_policy(&PrecisionPolicy::at(self.prec)),
            )?;
        }
        let built = Instant::now();
        let shapes = [
            (self.arrays.0, self.dims.0.as_slice()),
            (self.arrays.1, self.dims.1.as_slice()),
        ];
        let session = ctx(
            "Region::session",
            region.session(&self.binds, &shapes, self.batch),
        )?;
        let session_us = ns_since(built) as f64 / 1e3;
        self.invoke(&session, &self.inputs[0], &mut self.out_buffer())?;
        then(Live {
            region: &region,
            session: &session,
            model: &model,
            setup_s: start.elapsed().as_secs_f64(),
            session_us,
        })
    }

    /// One call into the top-level API: `input` → `run` → `output` → `finish`.
    fn invoke(&self, session: &Session<'_>, input: &[f32], out: &mut [f32]) -> Res<()> {
        let mut host_ran = false;
        let run = ctx("invoke_batch", session.invoke_batch(self.batch))?;
        let run = ctx("input", run.input(self.arrays.0, input))?;
        let mut outcome = ctx("run", run.run(|| host_ran = true))?;
        ctx("output", outcome.output(self.arrays.1, out))?;
        ctx("finish", outcome.finish())?;
        if host_ran {
            return Err("the host closure ran on an infer-mode region".into());
        }
        Ok(())
    }

    fn out_buffer(&self) -> Vec<f32> {
        if self.feedback {
            // The scatter writes the interior only; the halo must already
            // hold the (constant) boundary values.
            self.inputs[0].clone()
        } else {
            vec![0.0; self.batch * self.dims.1.iter().product::<usize>()]
        }
    }

    /// Expected output of every operation of the cycle, through `nn`
    /// directly (`load_model` + `ForwardWorkspace`), never through `core` or
    /// `bridge`. Also the RMSE of the served precision against the f32
    /// forward over the cycle's inputs (0 when serving f32).
    fn reference(&self, model: &Path) -> Res<(Vec<Vec<f32>>, f64)> {
        let mut saved = ctx("load model", hpacml_nn::serialize::load_model(model))?;
        saved.quantize(self.prec);
        let mut fw = ForwardWorkspace::new();
        let mut forward = |rows: Vec<f32>, prec: Precision| -> Res<Vec<f32>> {
            let n = rows.len() / self.mlp.0;
            let x = ctx("reference input", Tensor::from_vec(rows, [n, self.mlp.0]))?;
            let y = ctx("reference forward", fw.forward_at(&saved.model, &x, prec))?;
            Ok(y.data().to_vec())
        };
        let mut expected = Vec::with_capacity(self.period());
        let (mut sq_err, mut count) = (0.0f64, 0usize);
        if self.feedback {
            let mut grid = self.inputs[0].clone();
            for _ in 0..STENCIL_PERIOD {
                let y = forward(stencil_rows(&grid), self.prec)?;
                stencil_scatter(&y, &mut grid);
                expected.push(grid.clone());
            }
        } else {
            // At least 256 rows per reference pass: the kernels are
            // bit-identical across batch sizes (a documented guarantee this
            // check leans on, and so re-tests), and one pass over a
            // 17M-parameter model per probe would cost seconds. No more than
            // the op's own rows otherwise, so the harness's activations stay
            // smaller than the program's in `peak_rss_mb`.
            let ops_per_pass = 256usize.div_ceil(self.batch);
            let per_op = self.batch * self.dims.1.iter().product::<usize>();
            for group in self.inputs.chunks(ops_per_pass) {
                let rows = group.concat();
                let y = forward(rows.clone(), self.prec)?;
                if self.prec != Precision::F32 {
                    let exact = forward(rows, Precision::F32)?;
                    sq_err += y
                        .iter()
                        .zip(&exact)
                        .map(|(a, b)| f64::from(a - b).powi(2))
                        .sum::<f64>();
                    count += y.len();
                }
                expected.extend(y.chunks_exact(per_op).map(<[f32]>::to_vec));
            }
        }
        Ok((expected, (sq_err / count.max(1) as f64).sqrt()))
    }
}

/// A finished set-up: the live session and what building it cost.
struct Live<'a> {
    region: &'a Region,
    session: &'a Session<'a>,
    model: &'a Path,
    setup_s: f64,
    session_us: f64,
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The closed loop's state: where the cycle is, and the feedback buffers.
struct Driver<'a> {
    case: &'a Case,
    session: &'a Session<'a>,
    expected: &'a [Vec<f32>],
    cur: Vec<f32>,
    out: Vec<f32>,
}

impl Driver<'_> {
    /// Operation `k`: timed call, then (untimed) bitwise verification, then
    /// — in a traced trial, every `REPLAY_EVERY`-th — the replay.
    fn op(&mut self, k: u64, traced: Option<&mut (Tracer, Replay)>) -> Option<u64> {
        let slot = (k % self.case.period() as u64) as usize;
        let input: &[f32] = if self.case.feedback {
            if slot == 0 {
                self.cur.copy_from_slice(&self.case.inputs[0]);
            }
            &self.cur
        } else {
            &self.case.inputs[slot]
        };
        let start = Instant::now();
        let result = self.case.invoke(self.session, input, &mut self.out);
        let end = Instant::now();
        let ok = match result {
            Ok(()) => same_bits(&self.out, &self.expected[slot]),
            Err(e) => {
                eprintln!("[{}] op {k} failed: {e}", self.case.name);
                false
            }
        };
        if let Some((tracer, replay)) = traced {
            let id = tracer.push("op", 0, k, start, end);
            if k.is_multiple_of(REPLAY_EVERY) {
                if let Err(e) = replay.replay(tracer, id, k, input, self.case.batch) {
                    eprintln!("[{}] replay of op {k} failed: {e}", self.case.name);
                    return None;
                }
            }
        }
        if self.case.feedback {
            std::mem::swap(&mut self.cur, &mut self.out);
        }
        ok.then(|| ns_between(start, end))
    }
}

pub fn run(name: &str, cfg: &RunCfg) -> Res<RunReport> {
    let case = Case::new(name, cfg.seed)?;

    // Set up several times. The reference comes from the first set-up's
    // model file, after that set-up is dropped and before the next starts,
    // so the harness's copy of the model never sits beside the program's in
    // `peak_rss_mb`.
    let mut session_us = Vec::new();
    let mut reference = None;
    let mut setup_s = rehearse_setup(|k| {
        let dir = cfg.dir.join(format!("setup-{k}"));
        let s = case.set_up(&dir, |live| {
            session_us.push(live.session_us);
            Ok(live.setup_s)
        })?;
        if reference.is_none() {
            reference = Some(case.reference(&dir.join("model.hml"))?);
        }
        Ok(s)
    })?;
    let (expected, qoi_rmse) = reference.ok_or("set-up never ran")?;

    case.set_up(&cfg.dir.join("setup-final"), |live| {
        setup_s.push(live.setup_s);
        session_us.push(live.session_us);
        let mut report = RunReport::new(name, cfg.seed, cfg.traced);
        let mut driver = Driver {
            case: &case,
            session: live.session,
            expected: &expected,
            cur: case.inputs[0].clone(),
            out: case.out_buffer(),
        };
        let mut next = 0u64;
        closed_loop(WARM_UP, case.limit_us, &mut next, |k| driver.op(k, None));

        if !cfg.traced {
            // A clock probe between every two trials; each trial is scaled
            // by the two probes around it.
            let mut probe = clock::probe_us();
            let trials: Vec<Trial> = (0..cfg.trials)
                .map(|i| {
                    let t =
                        closed_loop(cfg.trial, case.limit_us, &mut next, |k| driver.op(k, None));
                    let before = std::mem::replace(&mut probe, clock::probe_us());
                    let t = t.at_clock(clock::scale(before, probe));
                    print_trial(name, i, &t);
                    t
                })
                .collect();
            report_setup(&mut report, setup_s);
            report_trials(&mut report, &trials, case.units_per_op);
            report.single("peak_rss_mb", peak_rss_mb()?);
            return Ok(report);
        }

        // Traced pass: one untraced trial as the overhead baseline, then two
        // traced trials with replays.
        let baseline = closed_loop(cfg.trial, case.limit_us, &mut next, |k| driver.op(k, None));
        let plans = compile_plans(
            &(case.source)(live.model),
            (case.arrays.0, &case.dims.0),
            (case.arrays.1, &case.dims.1),
            &case.binds,
        )?;
        let replay = Replay::new(
            plans,
            live.model,
            &case.spec(),
            case.model_seed,
            case.prec,
            case.batch,
        )?;
        let mut traced = (Tracer::new(Instant::now(), 1), replay);
        // Start at the top of the input cycle (a replay boundary too: every
        // period is a multiple of `REPLAY_EVERY`), so the feedback trajectory
        // restarts cleanly and both trials replay the same share.
        next = next.next_multiple_of(case.period() as u64);
        live.region.reset_stats();
        let pool_base = hpacml_par::global().stats();
        let trials: Vec<Trial> = (0..2)
            .map(|i| {
                let t = closed_loop(cfg.trial, case.limit_us, &mut next, |k| {
                    driver.op(k, Some(&mut traced))
                });
                print_trial(name, i, &t);
                t
            })
            .collect();
        let region_stats = live.region.stats();
        let (tracer, replay) = traced;
        let spans = tracer.spans;

        let traced_p50 = report_traced(&mut report, &baseline, &trials);
        replay.report(&mut report, &spans);
        report_par(&mut report, &pool_base);
        let n = session_us.len() as u64;
        report.median_of("core.session_build_us", session_us, n);
        // The session's self time: the op minus the replayed stages beneath
        // it, over the operations that were replayed.
        let replayed = trace::replayed_self_us(&spans, "op", REPLAY_EVERY);
        report.single("core.session_overhead_us", stats::median(&replayed));
        let (to, inference, from) = region_stats.breakdown();
        report.single("core.to_tensor_share", to);
        report.single("core.inference_share", inference);
        report.single("core.from_tensor_share", from);
        report.single("core.batch_fill", region_stats.mean_batch_fill());
        // Sessions resolve their plans at build time: misses while serving
        // would mean the plan cache stopped working.
        report.single(
            "bridge.plan_cache_misses",
            region_stats.plan_cache_misses as f64,
        );
        if case.prec != Precision::F32 {
            report.single("tensor.qoi_rmse", qoi_rmse);
        }
        print_layer_table(&report, traced_p50, replay.kernel_us(&spans));
        ctx("write trace", trace::write_jsonl(&cfg.trace_path, &spans))?;
        Ok(report)
    })
}

/// session − (bridge + nn) − tensor: each row the increment over the rows
/// below it.
fn print_layer_table(report: &RunReport, op_us: f64, kernel_us: f64) {
    let get = |name: &str| report.get(name).unwrap_or(0.0);
    let bridge = get("bridge.gather_us") + get("bridge.scatter_us");
    let forward = get("nn.forward_us");
    println!(
        "[{}] layer table (us, median of replayed ops)",
        report.workload
    );
    println!("  {:<34} {:>10.2}", "op (Session input..finish)", op_us);
    println!(
        "  {:<34} {:>10.2}",
        "  core: session self time",
        get("core.session_overhead_us")
    );
    println!("  {:<34} {:>10.2}", "  bridge: gather + scatter", bridge);
    println!(
        "  {:<34} {:>10.2}",
        "  nn: forward minus kernels",
        forward - kernel_us
    );
    println!(
        "  {:<34} {:>10.2}",
        "  tensor: per-layer kernels", kernel_us
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stencil_gather_and_scatter_agree_with_the_functor() {
        let t: Vec<f32> = (0..GRID * GRID).map(|v| v as f32).collect();
        let rows = stencil_rows(&t);
        assert_eq!(rows.len(), (GRID - 2) * (GRID - 2) * 5);
        // Cell (1, 1): up, down, left, centre, right.
        let c = (GRID + 1) as f32;
        assert_eq!(
            &rows[..5],
            &[c - GRID as f32, c + GRID as f32, c - 1.0, c, c + 1.0]
        );
        let mut grid = vec![-1.0f32; GRID * GRID];
        let y: Vec<f32> = (0..(GRID - 2) * (GRID - 2)).map(|v| v as f32).collect();
        stencil_scatter(&y, &mut grid);
        assert_eq!(grid[GRID + 1], 0.0);
        assert_eq!(grid[GRID + 2], 1.0);
        assert_eq!(grid[2 * GRID + 1], (GRID - 2) as f32);
        assert_eq!(grid[0], -1.0);
        assert_eq!(grid[GRID], -1.0);
        assert_eq!(grid[GRID * GRID - 1], -1.0);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = Case::new("sweep_mlp", 1).unwrap();
        let b = Case::new("sweep_mlp", 2).unwrap();
        assert_eq!(a.inputs.len(), 64);
        assert_eq!(a.inputs[0].len(), 1024 * 6);
        assert_ne!(a.inputs[0], b.inputs[0]);
        assert_eq!(a.inputs, Case::new("sweep_mlp", 1).unwrap().inputs);
        assert_eq!(Case::new("wide_b1_int8", 1).unwrap().inputs.len(), 256);
        assert!(Case::new("nope", 1).is_err());
    }
}
