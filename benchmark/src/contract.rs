//! The benchmark's contract: workload and metric names, units, directions
//! and bounds, read from `/BENCHMARK.json` (embedded at build time so the
//! binary and the file cannot drift apart) and checked at start-up.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

const MAX_WORKLOADS: usize = 8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl Contract {
    /// The contract this binary was built against.
    pub fn embedded() -> Result<Contract, String> {
        Contract::parse(include_str!("../../BENCHMARK.json"))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be a list"))
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut name_of = |item: &Json, what: &str| -> Result<String, String> {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("BENCHMARK.json: a {what} has no name"))?;
            if !valid_name(name) {
                return Err(format!("BENCHMARK.json: bad {what} name `{name}`"));
            }
            if !seen.insert(name.to_string()) {
                return Err(format!("BENCHMARK.json: name `{name}` is used twice"));
            }
            Ok(name.to_string())
        };

        let mut workloads = Vec::new();
        for w in list("workloads")? {
            workloads.push(name_of(w, "workload")?);
        }
        let mut metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDef>, String> {
            let mut out = Vec::new();
            for m in list(key)? {
                let name = name_of(m, "metric")?;
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                if !valid_unit(unit) {
                    return Err(format!("BENCHMARK.json: metric `{name}` has a bad unit"));
                }
                let higher_is_better = match m.get("better").and_then(Json::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err(format!("BENCHMARK.json: metric `{name}`: bad `better`")),
                };
                let bound = m.get("bound").and_then(Json::as_f64);
                if bounded && !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
                    return Err(format!(
                        "BENCHMARK.json: metric `{name}` needs a bound in (0, 0.25]"
                    ));
                }
                out.push(MetricDef {
                    name,
                    unit: unit.to_string(),
                    higher_is_better,
                    bound: if bounded { bound } else { None },
                });
            }
            Ok(out)
        };
        let end_to_end = metrics("end_to_end", true)?;
        let per_layer = metrics("per_layer", false)?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| (1.0..=60.0).contains(s) && s.fract() == 0.0)
            .ok_or("BENCHMARK.json: run_seconds must be a whole number from 1 to 60")?
            as u64;

        for (what, n, lo, hi) in [
            ("workloads", workloads.len(), 2, MAX_WORKLOADS),
            ("end_to_end metrics", end_to_end.len(), 1, MAX_END_TO_END),
            ("per_layer metrics", per_layer.len(), 1, MAX_PER_LAYER),
        ] {
            if !(lo..=hi).contains(&n) {
                return Err(format!("BENCHMARK.json: {n} {what}, allowed {lo} to {hi}"));
            }
        }
        if !end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better)
        {
            return Err("BENCHMARK.json: end_to_end must include setup_s (s, lower)".into());
        }
        Ok(Contract {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_is_valid_and_names_the_six_workloads() {
        let c = Contract::embedded().unwrap();
        assert_eq!(
            c.workloads,
            [
                "sweep_mlp",
                "stencil_step",
                "wide_b1_int8",
                "collect_stencil",
                "serve_closed",
                "serve_paced_reload"
            ]
        );
        assert!(c.metric("op_p50_us").unwrap().bound.is_some());
        assert!(c.metric("nn.forward_us").unwrap().bound.is_none());
    }

    #[test]
    fn names_are_checked() {
        for good in ["op_p50_us", "tensor.l0_gemm_us", "a", "9-x"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    fn with(workloads: usize, e2e_extra: &str) -> String {
        let w: Vec<String> = (0..workloads)
            .map(|i| format!("{{\"name\": \"w{i}\", \"why\": \"x\"}}"))
            .collect();
        format!(
            "{{\"run_seconds\": 5, \"workloads\": [{}], \"end_to_end\": [\
             {{\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.2}}{e2e_extra}], \
             \"per_layer\": [{{\"name\": \"a.b\", \"unit\": \"us\", \"better\": \"lower\"}}]}}",
            w.join(", ")
        )
    }

    #[test]
    fn limits_are_enforced() {
        assert!(Contract::parse(&with(2, "")).is_ok());
        assert!(Contract::parse(&with(1, ""))
            .unwrap_err()
            .contains("workloads"));
        assert!(Contract::parse(&with(9, ""))
            .unwrap_err()
            .contains("workloads"));
        let dup = ", {\"name\": \"w0\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1}";
        assert!(Contract::parse(&with(2, dup))
            .unwrap_err()
            .contains("twice"));
        let wide = ", {\"name\": \"m\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.3}";
        assert!(Contract::parse(&with(2, wide))
            .unwrap_err()
            .contains("bound"));
        let unit = ", {\"name\": \"m\", \"unit\": \"µs\", \"better\": \"lower\", \"bound\": 0.1}";
        assert!(Contract::parse(&with(2, unit))
            .unwrap_err()
            .contains("unit"));
        let no_setup = with(2, "").replace("setup_s", "other_s");
        assert!(Contract::parse(&no_setup).unwrap_err().contains("setup_s"));
    }
}
