//! `collect_stencil`: the stencil region in `ml(collect)` mode — the host
//! closure runs, the bridge gathers inputs *and* outputs, `core` appends
//! them to the region db, and `store` flushes it. One *cycle* is a fresh
//! region, 16 Jacobi steps, `flush_db`, drop; the flushed file is then
//! reopened and checked, and deleted, so the db stays bounded.

use super::inproc::{stencil_rows, stencil_source, GRID};
use super::layers::{compile_plans, report_par, Plans};
use super::{
    ctx, ns_since, peak_rss_mb, print_trial, rehearse_setup, report_setup, report_traced,
    report_trials, Res, RunCfg, Trial, REPLAY_EVERY, WARM_UP,
};
use crate::gen;
use crate::report::RunReport;
use crate::stats;
use crate::trace::{self, Tracer};
use hpacml_core::{Region, Session};
use hpacml_directive::sema::Bindings;
use hpacml_store::{DType, H5File};
use hpacml_tensor::Tensor;
use std::path::Path;
use std::time::{Duration, Instant};

const NAME: &str = "collect_stencil";
/// Steps per cycle; with [`REPLAY_EVERY`] equal to it, the traced pass
/// replays the first step of every cycle.
const STEPS: usize = 16;
const INTERIOR: usize = (GRID - 2) * (GRID - 2);
/// Latency limit of one cycle behind `within_limit_share`, about 2.5× its
/// median on the 2-core reference host.
const LIMIT_US: f64 = 1_500_000.0;

/// The accurate code region: one Jacobi relaxation step on the interior.
fn jacobi(t: &[f32], tnew: &mut [f32]) {
    for i in 1..GRID - 1 {
        for j in 1..GRID - 1 {
            tnew[i * GRID + j] = 0.25
                * (t[(i - 1) * GRID + j]
                    + t[(i + 1) * GRID + j]
                    + t[i * GRID + j - 1]
                    + t[i * GRID + j + 1]);
        }
    }
}

fn interior(grid: &[f32]) -> Vec<f32> {
    (1..GRID - 1)
        .flat_map(|i| grid[i * GRID + 1..i * GRID + GRID - 1].iter().copied())
        .collect()
}

fn source(db: &Path) -> String {
    stencil_source(&format!(
        "ml(collect) in(t) out(tnew) db(\"{}\")",
        db.display()
    ))
}

fn binds() -> Bindings {
    Bindings::new()
        .with("N", GRID as i64)
        .with("M", GRID as i64)
}

fn session(region: &Region) -> Res<Session<'_>> {
    let dims: &[usize] = &[GRID, GRID];
    ctx(
        "Region::session",
        region.session(&binds(), &[("t", dims), ("tnew", dims)], 1),
    )
}

/// One collect invocation: gather `t`, run the host step, gather `tnew`,
/// append both.
fn step(session: &Session<'_>, t: &[f32], tnew: &mut [f32]) -> Res<()> {
    let run = ctx("input", session.invoke().input("t", t))?;
    let mut outcome = ctx("run", run.run(|| jacobi(t, tnew)))?;
    ctx("output", outcome.output("tnew", tnew))?;
    ctx("finish", outcome.finish())?;
    Ok(())
}

/// What the reopened file must hold: the first and last recorded rows.
struct Expected {
    first_in: Vec<f32>,
    first_out: Vec<f32>,
    last_in: Vec<f32>,
    last_out: Vec<f32>,
}

impl Expected {
    /// The host trajectory from the seeded grid, computed by the harness.
    fn new(grid0: &[f32]) -> Expected {
        let (mut t, mut tnew) = (grid0.to_vec(), grid0.to_vec());
        let mut first = None;
        for s in 0..STEPS {
            jacobi(&t, &mut tnew);
            if s == 0 {
                first = Some((stencil_rows(&t), interior(&tnew)));
            }
            if s + 1 < STEPS {
                std::mem::swap(&mut t, &mut tnew);
            }
        }
        let (first_in, first_out) = first.expect("STEPS > 0");
        Expected {
            first_in,
            first_out,
            last_in: stencil_rows(&t),
            last_out: interior(&tnew),
        }
    }

    /// Check the reopened db's row counts and its first and last rows.
    fn verify(&self, file: &H5File) -> Res<()> {
        let group = ctx("region group", file.root().group(NAME))?;
        let ins = ctx(
            "inputs/t",
            group.group("inputs").and_then(|g| g.dataset("t")),
        )?;
        let outs = ctx(
            "outputs/tnew",
            group.group("outputs").and_then(|g| g.dataset("tnew")),
        )?;
        if ins.rows() != STEPS || outs.rows() != STEPS {
            return Err(format!(
                "db holds {} input and {} output rows, expected {STEPS}",
                ins.rows(),
                outs.rows()
            ));
        }
        for (what, ds, row, want) in [
            ("first input", ins, 0, &self.first_in),
            ("first output", outs, 0, &self.first_out),
            ("last input", ins, STEPS - 1, &self.last_in),
            ("last output", outs, STEPS - 1, &self.last_out),
        ] {
            let got = ctx(what, ds.read_row_f32(row))?;
            if got.len() != want.len()
                || got
                    .iter()
                    .zip(want)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("{what} row differs from the host trajectory"));
            }
        }
        Ok(())
    }
}

/// The traced pass's replay state: the bridge plans compiled by the harness
/// and a scratch in-memory store file per cycle.
struct Traced {
    tracer: Tracer,
    plans: Plans,
    gathered: Tensor,
    db_bytes: Vec<f64>,
}

impl Traced {
    /// Replay one step's bridge and store work as children of `parent`: both
    /// gathers through the harness's plans, then the three appends into a
    /// store file that is never flushed.
    fn replay(
        &mut self,
        parent: u64,
        op: u64,
        t: &[f32],
        tnew: &[f32],
        scratch: &mut H5File,
    ) -> Res<()> {
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(2);
        for (name, plan, data) in [
            ("bridge.gather", &self.plans.to, t),
            ("bridge.gather_out", &self.plans.from, tnew),
        ] {
            let (r, _) = self.tracer.record(name, parent, op, || {
                plan.gather_batch_into(data, 1, &mut self.gathered)
            });
            ctx("replay gather", r)?;
            rows.push(self.gathered.data().to_vec());
        }
        let (in_shape, out_shape) = (&self.plans.to.lhs_shape, &self.plans.from.lhs_shape);
        let (r, _) = self.tracer.record("store.append", parent, op, || {
            let group = scratch.root_mut().group_mut(NAME);
            group
                .group_mut("inputs")
                .dataset_mut("t", DType::F32, in_shape)?
                .append_f32(&rows[0])?;
            group
                .group_mut("outputs")
                .dataset_mut("tnew", DType::F32, out_shape)?
                .append_f32(&rows[1])?;
            group
                .dataset_mut("region_time_ns", DType::F64, &[])?
                .append_f64(&[0.0])
        });
        ctx("replay append", r)?;
        Ok(())
    }
}

/// The cycle loop's state across trials.
struct Collector<'a> {
    dir: &'a Path,
    grid0: &'a [f32],
    expected: &'a Expected,
    /// Cycles started; names each cycle's db.
    serial: u64,
    /// Steps started; the op id of the next one.
    next: u64,
    /// Each finished cycle's region counters, read just before its drop.
    region_stats: Vec<hpacml_core::RegionStats>,
}

impl Collector<'_> {
    /// One cycle — the workload's operation: fresh region, `STEPS` collect
    /// steps, `flush_db`, drop; then (outside the busy time) reopen, verify,
    /// delete. Returns whether it verified, and the busy time. A single
    /// step's median moves ~20 % with the page-fault state of the growing db,
    /// so the steps are spans of the traced pass, not the gated latency.
    fn cycle(&mut self, mut traced: Option<&mut Traced>) -> (Res<()>, u64) {
        self.serial += 1;
        let db = self.dir.join(format!("cycle-{}.h5", self.serial));
        let start = Instant::now();
        // The cycle's root span opens now and is closed once its end is known.
        let op_span = traced.as_deref_mut().map(|tr| {
            (
                tr.tracer.spans.len(),
                tr.tracer.push("op", 0, self.serial, start, start),
            )
        });
        let parent = op_span.map_or(0, |(_, id)| id);
        let mut body = || -> Res<()> {
            let region = ctx(
                "Region::from_source",
                Region::from_source(NAME, &source(&db)),
            )?;
            let session = session(&region)?;
            let (mut t, mut tnew) = (self.grid0.to_vec(), self.grid0.to_vec());
            let mut scratch = H5File::create(self.dir.join("never-flushed.h5"));
            for _ in 0..STEPS {
                let (k, t0) = (self.next, Instant::now());
                self.next += 1;
                step(&session, &t, &mut tnew)?;
                if let Some(tr) = traced.as_deref_mut() {
                    let id = tr
                        .tracer
                        .push("core.collect_step", parent, k, t0, Instant::now());
                    if k.is_multiple_of(REPLAY_EVERY) {
                        tr.replay(id, k, &t, &tnew, &mut scratch)?;
                    }
                }
                std::mem::swap(&mut t, &mut tnew);
            }
            let bytes = region.db_size_bytes();
            let t0 = Instant::now();
            ctx("flush_db", region.flush_db())?;
            if let Some(tr) = traced.as_deref_mut() {
                tr.tracer
                    .push("store.flush", parent, self.next - 1, t0, Instant::now());
                tr.db_bytes.push(bytes as f64);
            }
            self.region_stats.push(region.stats());
            Ok(())
        };
        let result = body();
        let busy = ns_since(start);
        if let (Some(tr), Some((index, _))) = (traced.as_deref_mut(), op_span) {
            tr.tracer.spans[index].end_ns = tr.tracer.ns(start + Duration::from_nanos(busy));
        }
        let result = result.and_then(|()| {
            let t0 = Instant::now();
            let file = ctx("H5File::open", H5File::open(&db))?;
            if let Some(tr) = traced {
                tr.tracer
                    .push("store.open", 0, self.next - 1, t0, Instant::now());
            }
            self.expected.verify(&file)
        });
        let _ = std::fs::remove_file(&db);
        (result, busy)
    }

    /// Cycles back to back for `dur`. The trial's wall time is the cycles'
    /// busy time: the verification between them is the harness's, not the
    /// program's.
    fn trial(&mut self, dur: Duration, mut traced: Option<&mut Traced>) -> Trial {
        let (mut ok_ns, mut attempted, mut busy_ns) = (Vec::new(), 0u64, 0u64);
        let start = Instant::now();
        while start.elapsed() < dur {
            let (result, busy) = self.cycle(traced.as_deref_mut());
            attempted += 1;
            busy_ns += busy;
            match result {
                Ok(()) => ok_ns.push(busy),
                Err(e) => eprintln!("[{NAME}] cycle {} failed: {e}", self.serial),
            }
        }
        Trial::new(ok_ns, attempted, busy_ns, LIMIT_US)
    }
}

pub fn run(cfg: &RunCfg) -> Res<RunReport> {
    let mut report = RunReport::new(NAME, cfg.seed, cfg.traced);
    let grid0 = gen::uniform(cfg.seed, 4, GRID * GRID);
    let expected = Expected::new(&grid0);
    ctx("create run dir", std::fs::create_dir_all(&cfg.dir))?;

    // Set-up: region + session + the first collect step. Every cycle pays it
    // again inside its busy time; this is the same cost seen on its own.
    let mut session_us = Vec::new();
    let mut setup = |k: usize| -> Res<f64> {
        let start = Instant::now();
        let region = ctx(
            "Region::from_source",
            Region::from_source(NAME, &source(&cfg.dir.join(format!("setup-{k}.h5")))),
        )?;
        let built = Instant::now();
        let session = session(&region)?;
        session_us.push(ns_since(built) as f64 / 1e3);
        let mut tnew = grid0.clone();
        step(&session, &grid0, &mut tnew)?;
        let s = start.elapsed().as_secs_f64();
        // Nothing was flushed; keep the drop from writing a db per set-up.
        region.set_db_path(cfg.dir.join("unused.h5"));
        Ok(s)
    };
    let mut setup_s = rehearse_setup(&mut setup)?;
    let k = setup_s.len();
    setup_s.push(setup(k)?);

    let mut collector = Collector {
        dir: &cfg.dir,
        grid0: &grid0,
        expected: &expected,
        serial: 0,
        next: 0,
        region_stats: Vec::new(),
    };
    collector.trial(WARM_UP, None);

    if !cfg.traced {
        let trials: Vec<Trial> = (0..cfg.trials)
            .map(|i| {
                let t = collector.trial(cfg.trial, None);
                print_trial(NAME, i, &t);
                t
            })
            .collect();
        report_setup(&mut report, setup_s);
        report_trials(&mut report, &trials, (STEPS * INTERIOR) as u64);
        report.single("peak_rss_mb", peak_rss_mb()?);
        return Ok(report);
    }

    let baseline = collector.trial(cfg.trial, None);
    let dims: &[usize] = &[GRID, GRID];
    let mut traced = Traced {
        tracer: Tracer::new(Instant::now(), 1),
        plans: compile_plans(
            &source(&cfg.dir.join("unused.h5")),
            ("t", dims),
            ("tnew", dims),
            &binds(),
        )?,
        gathered: Tensor::default(),
        db_bytes: Vec::new(),
    };
    // `STEPS` == `REPLAY_EVERY`: the first step of every cycle is replayed.
    collector.next = collector.next.next_multiple_of(REPLAY_EVERY);
    collector.region_stats.clear();
    let pool_base = hpacml_par::global().stats();
    let trials: Vec<Trial> = (0..2)
        .map(|i| {
            let t = collector.trial(cfg.trial, Some(&mut traced));
            print_trial(NAME, i, &t);
            t
        })
        .collect();
    let region_stats = collector.region_stats;
    let spans = traced.tracer.spans;
    let med = |name: &str| stats::median(&trace::durations_us(&spans, name));

    let traced_p50 = report_traced(&mut report, &baseline, &trials);
    report.single("directive.parse_us", traced.plans.parse_us);
    report.single("bridge.compile_us", traced.plans.compile_us);
    // Both directions are gathers here: inputs and outputs are recorded.
    let gather_us = med("bridge.gather") + med("bridge.gather_out");
    let elems = traced.plans.to.numel() + traced.plans.from.numel();
    report.single("bridge.gather_us", gather_us);
    report.single("bridge.gather_ns_per_elem", gather_us * 1e3 / elems as f64);
    report.single("bridge.bytes_per_op", (2 * 4 * elems) as f64);
    report.single(
        "bridge.plan_cache_misses",
        region_stats
            .iter()
            .map(|s| s.plan_cache_misses)
            .sum::<u64>() as f64
            / region_stats.len().max(1) as f64,
    );
    let flush_us = med("store.flush");
    let db_bytes = stats::median(&traced.db_bytes);
    report.single("store.append_us_per_step", med("store.append"));
    report.single("store.flush_ms", flush_us / 1e3);
    report.single("store.flush_mb_per_s", db_bytes / flush_us.max(1e-9));
    report.single("store.db_bytes", db_bytes);
    report.single("store.open_ms", med("store.open") / 1e3);
    let n = session_us.len() as u64;
    report.median_of("core.session_build_us", session_us, n);
    let step_us = med("core.collect_step");
    report.single("core.collect_op_p50_us", step_us);
    let (collection_ns, invocations) = region_stats.iter().fold((0u64, 0u64), |(c, i), s| {
        (c + s.collection_ns, i + s.invocations)
    });
    report.single(
        "core.collection_us_per_op",
        collection_ns as f64 / 1e3 / invocations.max(1) as f64,
    );
    report_par(&mut report, &pool_base);

    println!("[{NAME}] layer table (us, medians)");
    println!("  {:<34} {:>12.2}", "op (one cycle)", traced_p50);
    println!("  {:<34} {:>12.2}", "  store: flush_db", flush_us);
    println!(
        "  {:<34} {:>12.2}",
        "  region build, drop (flushes again)",
        traced_p50 - flush_us - STEPS as f64 * step_us
    );
    println!("  {:<34} {:>12.2}", "  16 collect steps, each:", step_us);
    println!(
        "  {:<34} {:>12.2}",
        "    bridge: gather in + out", gather_us
    );
    println!(
        "  {:<34} {:>12.2}",
        "    store: append",
        med("store.append")
    );
    println!(
        "  {:<34} {:>12.2}",
        "    core + host closure: the rest",
        step_us - gather_us - med("store.append")
    );
    ctx("write trace", trace::write_jsonl(&cfg.trace_path, &spans))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_rows_follow_the_host_trajectory() {
        let grid0 = gen::uniform(5, 4, GRID * GRID);
        let e = Expected::new(&grid0);
        assert_eq!(e.first_in, stencil_rows(&grid0));
        let mut g1 = grid0.clone();
        jacobi(&grid0, &mut g1);
        assert_eq!(e.first_out, interior(&g1));
        assert_eq!(e.first_out.len(), INTERIOR);
        // The last recorded input is the state after STEPS - 1 steps.
        let (mut t, mut tnew) = (grid0.clone(), grid0);
        for _ in 0..STEPS - 1 {
            jacobi(&t, &mut tnew);
            std::mem::swap(&mut t, &mut tnew);
        }
        assert_eq!(e.last_in, stencil_rows(&t));
        jacobi(&t, &mut tnew);
        assert_eq!(e.last_out, interior(&tnew));
    }
}
