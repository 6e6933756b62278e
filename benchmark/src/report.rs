//! What one run of one workload reports, and how it is printed.

use crate::contract::{Contract, MetricDef};
use crate::json::Json;
use crate::stats;

/// One named value. `trials` holds the per-trial (or per-set-up) values the
/// median was taken over; counts and computed values have a single entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub trials: Vec<f64>,
    /// Raw samples (operations, requests) behind the trial values.
    pub samples: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        RunReport {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// A metric whose value is the median of per-trial values.
    pub fn median_of(&mut self, name: &str, trials: Vec<f64>, samples: u64) {
        self.push(name, stats::median(&trials), trials, samples);
    }

    fn push(&mut self, name: &str, value: f64, trials: Vec<f64>, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            trials,
            samples,
        });
    }

    /// A count or computed value.
    pub fn single(&mut self, name: &str, value: f64) {
        self.median_of(name, vec![value], 1);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics this pass owes the contract, in contract order. A metric
    /// the contract lists and the workload did not produce is an error of the
    /// harness, except that a per-layer metric of a layer the workload does
    /// not run reads 0.
    pub fn owed<'c>(&self, contract: &'c Contract) -> Result<Vec<(&'c MetricDef, f64)>, String> {
        let defs = if self.traced {
            &contract.per_layer
        } else {
            &contract.end_to_end
        };
        for m in &self.metrics {
            if contract.metric(&m.name).is_none() {
                return Err(format!(
                    "{}: metric `{}` is not in BENCHMARK.json",
                    self.workload, m.name
                ));
            }
        }
        defs.iter()
            .map(|d| match self.get(&d.name) {
                Some(v) if v.is_finite() => Ok((d, v)),
                Some(v) => Err(format!("{}: `{}` is {v}", self.workload, d.name)),
                None if self.traced => Ok((d, 0.0)),
                None => Err(format!("{}: `{}` was not measured", self.workload, d.name)),
            })
            .collect()
    }

    /// The last line of standard output the driver reads.
    pub fn result_line(&self, contract: &Contract) -> Result<String, String> {
        let metrics = self
            .owed(contract)?
            .into_iter()
            .map(|(d, v)| {
                (
                    d.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(v)),
                        ("unit", Json::Str(d.unit.clone())),
                    ]),
                )
            })
            .collect();
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render())
    }

    /// The full record (`--out`): every metric with its per-trial values.
    pub fn to_json(&self, contract: &Contract) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let unit = contract.metric(&m.name).map_or("", |d| d.unit.as_str());
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(unit.to_string())),
                        (
                            "trials",
                            Json::Arr(m.trials.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                        ("samples", Json::Num(m.samples as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with unit, median, quartiles and sample counts.
    pub fn print_table(&self, contract: &Contract) {
        println!(
            "[{}] seed {} ({}) attempted {} failed {} failed_share {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for m in &self.metrics {
            let unit = contract.metric(&m.name).map_or("", |d| d.unit.as_str());
            let (q1, _, q3) = stats::quartiles(&m.trials);
            if m.trials.len() > 1 {
                println!(
                    "  {:<28} {:>14.4} {:<6} q1 {:.4} q3 {:.4} over {} trials, {} samples",
                    m.name,
                    m.value,
                    unit,
                    q1,
                    q3,
                    m.trials.len(),
                    m.samples
                );
            } else {
                println!("  {:<28} {:>14.4} {:<6}", m.name, m.value, unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> Contract {
        Contract::embedded().unwrap()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let c = contract();
        let mut r = RunReport::new("sweep_mlp", 3, false);
        r.attempted = 10;
        for d in &c.end_to_end {
            r.median_of(&d.name, vec![3.0, 1.0, 2.0], 30);
        }
        let line = Json::parse(&r.result_line(&c).unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), c.end_to_end.len());
        let op = line.get("metrics").unwrap().get("op_p50_us").unwrap();
        assert_eq!(op.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(op.get("unit").unwrap().as_str(), Some("us"));
    }

    #[test]
    fn a_failure_or_a_missing_metric_shows() {
        let c = contract();
        let mut r = RunReport::new("sweep_mlp", 3, false);
        r.attempted = 10;
        assert!(r.result_line(&c).unwrap_err().contains("was not measured"));
        r.single("not.in.contract", 1.0);
        assert!(r
            .result_line(&c)
            .unwrap_err()
            .contains("not in BENCHMARK.json"));

        let mut t = RunReport::new("sweep_mlp", 3, true);
        t.attempted = 10;
        t.failed = 1;
        // A traced pass owes every per-layer metric; absent layers read 0.
        let line = Json::parse(&t.result_line(&c).unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            line.get("metrics").unwrap().as_obj().unwrap().len(),
            c.per_layer.len()
        );
    }

    #[test]
    fn full_record_round_trips() {
        let c = contract();
        let mut r = RunReport::new("serve_closed", 9, false);
        r.attempted = 4;
        r.median_of("op_p50_us", vec![130.5, 139.25], 31_000);
        let j = Json::parse(&r.to_json(&c).render()).unwrap();
        let m = j.get("metrics").unwrap().get("op_p50_us").unwrap();
        assert_eq!(m.get("trials").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(m.get("samples").unwrap().as_f64(), Some(31_000.0));
        assert_eq!(j.get("seed").unwrap().as_f64(), Some(9.0));
    }
}
