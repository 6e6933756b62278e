//! Bayesian optimization: single-objective EI, and the ParEGO-style
//! scalarization the nested search's outer level minimizes.

use crate::gp::Gp;
use crate::space::{Config, Space};
use crate::Result;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Budget and knobs of a BO run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoConfig {
    /// Total objective evaluations (including initial random ones).
    pub iterations: usize,
    /// Random evaluations before the GP takes over.
    pub init_samples: usize,
    /// Random candidates scored by the acquisition per iteration.
    pub candidates: usize,
    pub seed: u64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            iterations: 30,
            init_samples: 6,
            candidates: 512,
            seed: 0,
        }
    }
}

/// One evaluated trial.
#[derive(Debug, Clone)]
pub struct Trial {
    pub unit: Vec<f64>,
    pub config: Config,
    /// Objective values (one entry for single-objective runs).
    pub values: Vec<f64>,
}

/// Minimize a scalar objective over `space`; returns every trial, in order.
pub(crate) fn minimize(
    space: &Space,
    mut objective: impl FnMut(&Config) -> f64,
    cfg: &BoConfig,
) -> Result<Vec<Trial>> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut trials: Vec<Trial> = Vec::with_capacity(cfg.iterations);

    for it in 0..cfg.iterations {
        let unit = if it < cfg.init_samples.max(2) || trials.len() < 2 {
            space.sample_unit(&mut rng)
        } else {
            let values: Vec<f64> = trials.iter().map(|t| t.values[0]).collect();
            propose_ei(space, &trials, &values, cfg, &mut rng)?
        };
        let config = space.decode(&unit)?;
        let value = objective(&config);
        trials.push(Trial {
            unit,
            config,
            values: vec![value],
        });
    }
    Ok(trials)
}

/// Augmented Tchebycheff scalarization over min-max-normalized objectives.
pub(crate) fn scalarize(trials: &[Trial], weights: &[f64]) -> Vec<f64> {
    let k = trials[0].values.len();
    let mut lo = vec![f64::INFINITY; k];
    let mut hi = vec![f64::NEG_INFINITY; k];
    for t in trials {
        for (j, v) in t.values.iter().enumerate() {
            lo[j] = lo[j].min(*v);
            hi[j] = hi[j].max(*v);
        }
    }
    trials
        .iter()
        .map(|t| {
            let mut worst = f64::NEG_INFINITY;
            let mut sum = 0.0;
            for (j, v) in t.values.iter().enumerate() {
                let norm = (v - lo[j]) / (hi[j] - lo[j]).max(1e-12);
                let w = weights.get(j).copied().unwrap_or(1.0 / k as f64);
                worst = worst.max(w * norm);
                sum += w * norm;
            }
            worst + 0.05 * sum
        })
        .collect()
}

/// The best of `cfg.candidates` random points by expected improvement under
/// a GP fit of `values` (one per trial, minimized).
pub(crate) fn propose_ei(
    space: &Space,
    trials: &[Trial],
    values: &[f64],
    cfg: &BoConfig,
    rng: &mut SmallRng,
) -> Result<Vec<f64>> {
    let xs: Vec<Vec<f64>> = trials.iter().map(|t| t.unit.clone()).collect();
    let gp = match Gp::fit_auto(xs, values, 1e-3) {
        Ok(gp) => gp,
        // Degenerate data (e.g. all-equal objectives): fall back to random.
        Err(_) => return Ok(space.sample_unit(rng)),
    };
    let best = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut best_cand = space.sample_unit(rng);
    let mut best_ei = f64::NEG_INFINITY;
    for _ in 0..cfg.candidates {
        let cand = space.sample_unit(rng);
        let ei = gp.expected_improvement(&cand, best);
        if ei > best_ei {
            best_ei = ei;
            best_cand = cand;
        }
    }
    Ok(best_cand)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first trial with the smallest value.
    fn best_trial(trials: &[Trial]) -> &Trial {
        trials
            .iter()
            .min_by(|a, b| a.values[0].total_cmp(&b.values[0]))
            .expect("at least one trial")
    }

    /// BO must beat random search on a smooth bowl within the same budget.
    #[test]
    fn minimizes_quadratic_bowl() {
        let space = Space::new().float("x", -2.0, 2.0).float("y", -2.0, 2.0);
        let objective = |c: &Config| {
            let x = c.get("x").unwrap();
            let y = c.get("y").unwrap();
            (x - 0.7).powi(2) + (y + 0.3).powi(2)
        };
        let cfg = BoConfig {
            iterations: 40,
            init_samples: 8,
            candidates: 256,
            seed: 3,
        };
        let trials = minimize(&space, objective, &cfg).unwrap();
        let best = best_trial(&trials);
        assert!(best.values[0] < 0.05, "best={}", best.values[0]);
        assert!((best.config.get("x").unwrap() - 0.7).abs() < 0.4);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = Space::new().float("x", 0.0, 1.0);
        let run = |seed| {
            let cfg = BoConfig {
                iterations: 12,
                seed,
                ..Default::default()
            };
            let trials = minimize(&space, |c| (c.get("x").unwrap() - 0.5).abs(), &cfg).unwrap();
            best_trial(&trials).values[0]
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn constant_objective_does_not_crash() {
        let space = Space::new().float("x", 0.0, 1.0);
        let cfg = BoConfig {
            iterations: 10,
            ..Default::default()
        };
        let trials = minimize(&space, |_| 1.0, &cfg).unwrap();
        assert_eq!(trials.len(), 10);
    }
}
