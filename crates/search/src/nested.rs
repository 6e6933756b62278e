//! The nested, two-level search driver (paper §V-C).
//!
//! The outer level proposes architectures and jointly minimizes (validation
//! error, inference latency) via ParEGO scalarization; for each proposed
//! architecture the inner level tunes training hyperparameters to minimize
//! validation error. The outer loop stops early after `patience` consecutive
//! trials that improve neither objective (the paper uses 5).

use crate::bo::{minimize, BoConfig, Trial};
use crate::gp::Gp;
use crate::space::{Config, Space};
use crate::Result;
use hpacml_nn::ModelSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a benchmark must provide to be searched.
pub trait SearchProblem {
    /// Architecture space (Table IV row for this benchmark).
    fn arch_space(&self) -> Space;

    /// Hyperparameter space (Table V).
    fn hyper_space(&self) -> Space;

    /// Decode an architecture configuration; `None` if the architecture is
    /// invalid (e.g. a conv stack that collapses the spatial dims).
    fn build_spec(&self, arch: &Config) -> Option<ModelSpec>;

    /// Train the spec with the hyperparameters and return
    /// `(validation error, inference latency in seconds)`.
    fn train_eval(&self, spec: &ModelSpec, hyper: &Config) -> (f64, f64);
}

/// Budget of the nested search.
#[derive(Debug, Clone, Copy)]
pub struct NestedConfig {
    /// Maximum outer (architecture) trials. The paper runs 100.
    pub outer_iters: usize,
    /// Inner (hyperparameter) trials per architecture. The paper runs 30.
    pub inner_iters: usize,
    /// Outer early stopping: stop after this many consecutive trials that
    /// find neither a faster nor a more accurate model. The paper uses 5.
    pub patience: usize,
    pub seed: u64,
}

impl Default for NestedConfig {
    fn default() -> Self {
        NestedConfig {
            outer_iters: 100,
            inner_iters: 30,
            patience: 5,
            seed: 0,
        }
    }
}

/// One fully evaluated architecture.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub arch: Config,
    pub hyper: Config,
    pub spec: ModelSpec,
    pub val_error: f64,
    pub latency_s: f64,
    pub params: usize,
}

/// Run the nested search; returns every evaluated candidate (the scatter
/// points of Figs. 7–8).
pub fn nested_search(problem: &dyn SearchProblem, cfg: &NestedConfig) -> Result<Vec<Candidate>> {
    let arch_space = problem.arch_space();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut outer_trials: Vec<Trial> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut best_err = f64::INFINITY;
    let mut best_lat = f64::INFINITY;
    let mut stale = 0usize;
    let init = 5usize.min(cfg.outer_iters);

    for it in 0..cfg.outer_iters {
        // Propose an architecture: random warmup, then EI on the ParEGO
        // scalarization of (error, latency).
        let unit = if it < init || outer_trials.len() < 2 {
            arch_space.sample_unit(&mut rng)
        } else {
            propose_outer(&arch_space, &outer_trials, &mut rng)?
        };
        let arch = arch_space.decode(&unit)?;
        let spec = match problem.build_spec(&arch) {
            Some(s) => s,
            None => {
                // Invalid architecture: record a strongly penalized trial so
                // the GP learns to avoid the region, but don't waste training.
                outer_trials.push(Trial {
                    unit,
                    config: arch,
                    values: vec![1e6, 1e6],
                });
                continue;
            }
        };

        // Inner level: tune hyperparameters for this architecture.
        let inner_cfg = BoConfig {
            iterations: cfg.inner_iters,
            init_samples: (cfg.inner_iters / 3).max(2),
            candidates: 256,
            seed: cfg.seed.wrapping_add(1000 + it as u64),
        };
        let mut best_inner: Option<(Config, f64, f64)> = None;
        let hyper_space = problem.hyper_space();
        minimize(
            &hyper_space,
            |hyper| {
                let (err, lat) = problem.train_eval(&spec, hyper);
                let better = best_inner
                    .as_ref()
                    .map(|(_, e, _)| err < *e)
                    .unwrap_or(true);
                if better {
                    best_inner = Some((hyper.clone(), err, lat));
                }
                err
            },
            &inner_cfg,
        )?;
        let (hyper, val_error, latency_s) = best_inner.expect("inner loop ran at least one trial");

        outer_trials.push(Trial {
            unit,
            config: arch.clone(),
            values: vec![val_error, latency_s],
        });
        candidates.push(Candidate {
            arch,
            hyper,
            params: spec.param_count(),
            spec,
            val_error,
            latency_s,
        });

        // Early stopping, by the paper's rule.
        let improved = val_error < best_err || latency_s < best_lat;
        best_err = best_err.min(val_error);
        best_lat = best_lat.min(latency_s);
        if improved {
            stale = 0;
        } else {
            stale += 1;
            if cfg.patience > 0 && stale >= cfg.patience {
                break;
            }
        }
    }
    Ok(candidates)
}

/// EI proposal on a fresh random Tchebycheff scalarization of the outer
/// objectives.
fn propose_outer(space: &Space, trials: &[Trial], rng: &mut SmallRng) -> Result<Vec<f64>> {
    let w: f64 = rng.gen();
    let weights = [w, 1.0 - w];
    let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
    for t in trials {
        for j in 0..2 {
            lo[j] = lo[j].min(t.values[j]);
            hi[j] = hi[j].max(t.values[j]);
        }
    }
    let scalarized: Vec<f64> = trials
        .iter()
        .map(|t| {
            let mut worst = f64::NEG_INFINITY;
            let mut sum = 0.0;
            for j in 0..2 {
                let norm = (t.values[j] - lo[j]) / (hi[j] - lo[j]).max(1e-12);
                worst = worst.max(weights[j] * norm);
                sum += weights[j] * norm;
            }
            worst + 0.05 * sum
        })
        .collect();
    let xs: Vec<Vec<f64>> = trials.iter().map(|t| t.unit.clone()).collect();
    let gp = match Gp::fit_auto(xs, &scalarized, 1e-3) {
        Ok(gp) => gp,
        Err(_) => return Ok(space.sample_unit(rng)),
    };
    let best = scalarized.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut best_cand = space.sample_unit(rng);
    let mut best_ei = f64::NEG_INFINITY;
    for _ in 0..256 {
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
    use hpacml_nn::spec::Activation;

    /// A synthetic problem with a known optimum: "architecture" is a width,
    /// error falls with width but latency grows; hyper `lr` has a sweet spot.
    struct Synthetic;

    impl SearchProblem for Synthetic {
        fn arch_space(&self) -> Space {
            Space::new().int("width", 4, 64)
        }

        fn hyper_space(&self) -> Space {
            Space::new().log_float("lr", 1e-4, 1e-1)
        }

        fn build_spec(&self, arch: &Config) -> Option<ModelSpec> {
            let w = arch.get_usize("width").ok()?;
            if w % 13 == 0 {
                return None; // exercise the invalid-arch path
            }
            Some(ModelSpec::mlp(4, &[w], 1, Activation::ReLU, 0.0))
        }

        fn train_eval(&self, spec: &ModelSpec, hyper: &Config) -> (f64, f64) {
            let width = match &spec.layers[0] {
                hpacml_nn::LayerSpec::Linear { out_features, .. } => *out_features as f64,
                _ => 1.0,
            };
            let lr = hyper.get("lr").unwrap();
            let lr_penalty = (lr.log10() + 2.0).powi(2); // best at lr = 1e-2
            let err = 1.0 / width + 0.3 * lr_penalty;
            let lat = width * 1e-4;
            (err, lat)
        }
    }

    #[test]
    fn nested_search_explores_and_improves() {
        let cfg = NestedConfig {
            outer_iters: 12,
            inner_iters: 6,
            patience: 0,
            seed: 2,
        };
        let cands = nested_search(&Synthetic, &cfg).unwrap();
        assert!(cands.len() >= 8, "{} candidates", cands.len());
        // Best error should approach the wide-network optimum.
        let best = cands
            .iter()
            .map(|c| c.val_error)
            .fold(f64::INFINITY, f64::min);
        let worst = cands
            .iter()
            .map(|c| c.val_error)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best < worst, "search must differentiate candidates");
        assert!(best < 0.35, "best err {best}");
        // Latency axis populated.
        assert!(cands.iter().all(|c| c.latency_s > 0.0));
        assert!(cands.iter().all(|c| c.params > 0));
    }

    #[test]
    fn early_stopping_caps_trials() {
        // With patience 1 and a constant objective, the loop must stop fast.
        struct Flat;
        impl SearchProblem for Flat {
            fn arch_space(&self) -> Space {
                Space::new().int("w", 4, 8)
            }
            fn hyper_space(&self) -> Space {
                Space::new().float("lr", 0.1, 0.2)
            }
            fn build_spec(&self, _: &Config) -> Option<ModelSpec> {
                Some(ModelSpec::mlp(2, &[4], 1, Activation::ReLU, 0.0))
            }
            fn train_eval(&self, _: &ModelSpec, _: &Config) -> (f64, f64) {
                (1.0, 1.0)
            }
        }
        let cfg = NestedConfig {
            outer_iters: 50,
            inner_iters: 2,
            patience: 2,
            seed: 1,
        };
        let cands = nested_search(&Flat, &cfg).unwrap();
        assert!(
            cands.len() <= 4,
            "early stop should cap at ~1+patience, got {}",
            cands.len()
        );
    }
}
