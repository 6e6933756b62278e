//! `compare A.json B.json`: apply the bounds of `BENCHMARK.json` to two sets
//! of result files, one row per workload × end-to-end metric.
//!
//! Each side is one file or several, comma-separated (a *set* of runs); the
//! per-trial values of all its files are pooled, and a side's value is the
//! pool's median — the statistic a run reports. `B` regressed on a
//! metric when its value is worse than `A`'s by more than the bound; when
//! the spread inside either set (the distance between its quartiles, as a
//! share of `A`'s value) is wider than the bound, the row is `unresolved`
//! instead — unless every value of `B` is better than every value of `A`.

use crate::contract::{Contract, MetricDef};
use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// Each side's median.
    pub a: f64,
    pub b: f64,
    /// How much worse `B`'s value is, as a share of `A`'s (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Per-trial values by (workload, metric), pooled over the files of a set.
pub type Pool = BTreeMap<(String, String), Vec<f64>>;

/// Add a result file — a suite file with `runs`, or one workload's record —
/// to `pool`. Traced runs carry no end-to-end metrics and are skipped.
pub fn pool_file(pool: &mut Pool, file: &Json) -> Result<(), String> {
    let runs: Vec<&Json> = match file.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![file],
    };
    for run in runs {
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("result file: a run has no `workload`")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result file: a run has no `metrics`")?;
        for (name, m) in metrics {
            let trials: Vec<f64> = m
                .get("trials")
                .and_then(Json::as_arr)
                .map(|t| t.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            let values = if trials.is_empty() {
                m.get("value").and_then(Json::as_f64).into_iter().collect()
            } else {
                trials
            };
            pool.entry((workload.to_string(), name.clone()))
                .or_default()
                .extend(values);
        }
    }
    Ok(())
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<Row> {
    let bound = def.bound?;
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let (qa, qb) = (stats::quartiles(a), stats::quartiles(b));
    let (va, vb) = (qa.1, qb.1);
    let base = va.abs().max(f64::MIN_POSITIVE);
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (vb - va) / base;
    let spread = ((qa.2 - qa.0).max(qb.2 - qb.0)) / base;
    let all_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Row {
        workload: String::new(),
        metric: def.name.clone(),
        a: va,
        b: vb,
        worse_by,
        spread,
        bound,
        verdict,
    })
}

/// One row per workload × end-to-end metric present on both sides.
pub fn compare(contract: &Contract, a: &Pool, b: &Pool) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &contract.workloads {
        for def in &contract.end_to_end {
            let key = (workload.clone(), def.name.clone());
            if let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) {
                if let Some(mut row) = judge(def, va, vb) {
                    row.workload = workload.clone();
                    rows.push(row);
                }
            }
        }
    }
    rows
}

fn load_set(spec: &str) -> Result<Pool, String> {
    let mut pool = Pool::new();
    for path in spec.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        pool_file(
            &mut pool,
            &Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        )?;
    }
    Ok(pool)
}

/// The `compare` subcommand. Returns whether no row regressed.
pub fn main(contract: &Contract, a: &str, b: &str) -> Result<bool, String> {
    let rows = compare(contract, &load_set(a)?, &load_set(b)?);
    if rows.is_empty() {
        return Err("the two sets share no workload × end-to-end metric".into());
    }
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A value", "B value", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<20} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.bound,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "us".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_on_synthetic_values() {
        let lat = def("op_p50_us", false, 0.10);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0];
        // Within the bound.
        let ok = judge(&lat, &a, &[104.0, 105.0, 103.0, 104.5, 103.5, 104.0]).unwrap();
        assert_eq!(ok.verdict, Verdict::Ok);
        assert!((ok.worse_by - 0.04).abs() < 1e-3);
        // 20 % slower with tight spreads.
        let slow = judge(&lat, &a, &[120.0, 121.0, 119.0, 120.5, 119.5, 120.0]).unwrap();
        assert_eq!(slow.verdict, Verdict::Regressed);
        // Faster is never a regression, however much.
        let fast = judge(&lat, &a, &[50.0, 51.0, 49.0, 50.5, 49.5, 50.0]).unwrap();
        assert_eq!(fast.verdict, Verdict::Ok);
        assert!(fast.worse_by < 0.0);
        // B's quartiles are a third of the value apart: too noisy to call.
        let noisy = judge(&lat, &a, &[80.0, 120.0, 85.0, 115.0, 100.0, 100.0]).unwrap();
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        // A noisy B that is nevertheless better on every single value.
        let clear = judge(&lat, &a, &[40.0, 80.0, 45.0, 75.0, 60.0, 60.0]).unwrap();
        assert_eq!(clear.verdict, Verdict::Ok);
    }

    #[test]
    fn direction_follows_the_metric() {
        let rate = def("units_per_s", true, 0.10);
        let a = [1000.0, 1001.0, 999.0];
        assert_eq!(
            judge(&rate, &a, &[800.0, 801.0, 799.0]).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&rate, &a, &[1300.0, 1301.0, 1299.0]).unwrap().verdict,
            Verdict::Ok
        );
        assert!(judge(&rate, &a, &[]).is_none());
        let unbounded = MetricDef {
            bound: None,
            ..rate
        };
        assert!(judge(&unbounded, &a, &a).is_none());
    }

    fn run_json(workload: &str, traced: bool, op: &[f64]) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(workload.into())),
            ("traced", Json::Bool(traced)),
            (
                "metrics",
                Json::obj(vec![
                    (
                        "op_p50_us",
                        Json::obj(vec![
                            ("value", Json::Num(stats::median(op))),
                            (
                                "trials",
                                Json::Arr(op.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                        ]),
                    ),
                    ("peak_rss_mb", Json::obj(vec![("value", Json::Num(50.0))])),
                ]),
            ),
        ])
    }

    #[test]
    fn files_pool_by_workload_and_metric_and_rows_follow_the_contract() {
        let contract = Contract::embedded().unwrap();
        let suite =
            |runs: Vec<Json>| Json::obj(vec![("seed", Json::Num(1.0)), ("runs", Json::Arr(runs))]);
        let mut a = Pool::new();
        pool_file(
            &mut a,
            &suite(vec![
                run_json("sweep_mlp", false, &[800.0, 801.0]),
                run_json("sweep_mlp", true, &[9999.0]),
                run_json("serve_closed", false, &[130.0, 131.0]),
            ]),
        )
        .unwrap();
        // A second file of the same set, given as a single-run record.
        pool_file(&mut a, &run_json("sweep_mlp", false, &[802.0, 803.0])).unwrap();
        let key = ("sweep_mlp".to_string(), "op_p50_us".to_string());
        assert_eq!(a[&key], vec![800.0, 801.0, 802.0, 803.0]);
        assert_eq!(
            a[&("sweep_mlp".to_string(), "peak_rss_mb".to_string())],
            vec![50.0, 50.0]
        );

        let mut b = Pool::new();
        pool_file(
            &mut b,
            &suite(vec![
                run_json("sweep_mlp", false, &[1200.0, 1201.0]),
                run_json("serve_closed", false, &[131.0, 132.0]),
            ]),
        )
        .unwrap();
        let rows = compare(&contract, &a, &b);
        let find = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .map(|r| r.verdict)
        };
        assert_eq!(find("sweep_mlp", "op_p50_us"), Some(Verdict::Regressed));
        assert_eq!(find("serve_closed", "op_p50_us"), Some(Verdict::Ok));
        assert_eq!(find("sweep_mlp", "peak_rss_mb"), Some(Verdict::Ok));
        // Absent on one side: no row.
        assert_eq!(find("stencil_step", "op_p50_us"), None);
        assert!(pool_file(&mut b, &Json::obj(vec![("metrics", Json::Obj(vec![]))])).is_err());
    }
}
