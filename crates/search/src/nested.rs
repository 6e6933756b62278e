//! The nested, two-level search driver (paper §V-C).
//!
//! The outer level proposes architectures and jointly minimizes (validation
//! error, inference cost) via ParEGO scalarization; for each proposed
//! architecture the inner level tunes training hyperparameters to minimize
//! validation error. The outer loop stops early after `patience` consecutive
//! trials that improve neither objective (the paper uses 5).
//!
//! The cost objective is the spec's multiply-add count per sample
//! ([`ModelSpec::mac_count`]), not the latency the problem measures: a
//! timed forward moves with the host's load, so the same seed could
//! propose different architectures run to run. This deviates from the
//! paper, which times its trials; the measured latency is still recorded in
//! each [`Candidate`].

use crate::bo::{minimize, propose_ei, scalarize, BoConfig, Trial};
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
    /// `(validation error, inference latency in seconds)`; a failed or
    /// infeasible trial returns `(1e6, 1e6)`.
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
    /// find neither a cheaper nor a more accurate model. The paper uses 5.
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
// lint: allow(crate-local-pub) — returned by `nested_search`, whose callers read the fields without naming the type
pub struct Candidate {
    pub arch: Config,
    pub hyper: Config,
    pub spec: ModelSpec,
    pub val_error: f64,
    pub latency_s: f64,
    pub params: usize,
}

/// Both outer objectives of a failed or infeasible trial.
const PENALTY: f64 = 1e6;

/// Run the nested search; returns every evaluated candidate (the scatter
/// points of Figs. 7–8).
pub fn nested_search(problem: &dyn SearchProblem, cfg: &NestedConfig) -> Result<Vec<Candidate>> {
    let arch_space = problem.arch_space();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut outer_trials: Vec<Trial> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut best_err = f64::INFINITY;
    let mut best_cost = f64::INFINITY;
    let mut stale = 0usize;
    let init = 5usize.min(cfg.outer_iters);

    for it in 0..cfg.outer_iters {
        // Propose an architecture: random warmup, then EI on the ParEGO
        // scalarization of (error, cost).
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
                    values: vec![PENALTY, PENALTY],
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

        // Millions of multiply-adds, so a real architecture stays far below
        // the penalty on this axis too.
        let cost = match spec.mac_count() {
            Ok(macs) if val_error < PENALTY => macs as f64 * 1e-6,
            _ => PENALTY,
        };
        outer_trials.push(Trial {
            unit,
            config: arch.clone(),
            values: vec![val_error, cost],
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
        let improved = val_error < best_err || cost < best_cost;
        best_err = best_err.min(val_error);
        best_cost = best_cost.min(cost);
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
    let scalarized = scalarize(trials, &[w, 1.0 - w]);
    let cfg = BoConfig {
        candidates: 256,
        ..BoConfig::default()
    };
    propose_ei(space, trials, &scalarized, &cfg, rng)
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

    /// [`Synthetic`] with a latency that is noise: what a timed forward
    /// reads on a loaded host.
    struct NoisyLatency(std::cell::Cell<u64>);

    impl SearchProblem for NoisyLatency {
        fn arch_space(&self) -> Space {
            Synthetic.arch_space()
        }

        fn hyper_space(&self) -> Space {
            Synthetic.hyper_space()
        }

        fn build_spec(&self, arch: &Config) -> Option<ModelSpec> {
            Synthetic.build_spec(arch)
        }

        fn train_eval(&self, spec: &ModelSpec, hyper: &Config) -> (f64, f64) {
            let s = self.0.get().wrapping_mul(6364136223846793005);
            self.0.set(s.wrapping_add(1442695040888963407));
            (
                Synthetic.train_eval(spec, hyper).0,
                (s >> 11) as f64 * 1e-16,
            )
        }
    }

    #[test]
    fn same_seed_proposes_the_same_architectures_whatever_the_latency() {
        let cfg = NestedConfig {
            outer_iters: 12,
            inner_iters: 4,
            patience: 3,
            seed: 5,
        };
        let run = |noise: u64| {
            let cands = nested_search(&NoisyLatency(noise.into()), &cfg).unwrap();
            let latencies: Vec<f64> = cands.iter().map(|c| c.latency_s).collect();
            let archs: Vec<String> = cands.into_iter().map(|c| c.spec.summary()).collect();
            (archs, latencies)
        };
        let (first, first_lat) = run(1);
        let (second, second_lat) = run(2);
        assert!(first.len() > 5, "{} candidates", first.len());
        assert_ne!(first_lat, second_lat, "the two runs must time differently");
        assert_eq!(first, second);
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
