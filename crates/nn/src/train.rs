//! Mini-batch training loop with validation tracking and early stopping.

use crate::data::InMemoryDataset;
use crate::loss::Loss;
use crate::model::Sequential;
use crate::optim::{OptimState, Optimizer};
use crate::{NnError, Result};

/// Training hyperparameters — the knobs the paper's inner BO level tunes
/// (learning rate, weight decay, batch size; dropout lives in the spec).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub optimizer: Optimizer,
    pub loss: Loss,
    /// Shuffling/exploration seed.
    pub seed: u64,
    /// Stop after this many epochs without validation improvement (0 = off).
    pub early_stop_patience: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            batch_size: 64,
            optimizer: Optimizer::adam(1e-3, 0.0),
            loss: Loss::Mse,
            seed: 0,
            early_stop_patience: 8,
        }
    }
}

/// Loss curves and the best validation point seen.
#[derive(Debug, Clone)]
// lint: allow(crate-local-pub) — returned by `train`, whose callers read it without naming the type
pub struct History {
    pub train_loss: Vec<f64>,
    pub val_loss: Vec<f64>,
    pub best_val: f64,
    pub best_epoch: usize,
    /// True when training stopped before `epochs` due to patience.
    pub stopped_early: bool,
}

/// Average loss of `model` on `ds` (pure forward, batched).
pub fn evaluate(model: &Sequential, ds: &InMemoryDataset, loss: Loss, batch: usize) -> Result<f64> {
    if ds.is_empty() {
        return Err(NnError::Train("evaluate on empty dataset".into()));
    }
    let mut total = 0.0f64;
    let mut count = 0usize;
    for (x, y) in ds.batches(batch, None) {
        let n = x.dims()[0];
        let pred = model.forward(&x)?;
        let (l, _) = loss.eval(&pred, &y)?;
        total += l * n as f64;
        count += n;
    }
    Ok(total / count.max(1) as f64)
}

/// Train `model` in place. When a validation set is given, tracks the best
/// validation loss, restores the best weights at the end, and applies early
/// stopping with `cfg.early_stop_patience`.
pub fn train(
    model: &mut Sequential,
    train_ds: &InMemoryDataset,
    val_ds: Option<&InMemoryDataset>,
    cfg: &TrainConfig,
) -> Result<History> {
    if train_ds.is_empty() {
        return Err(NnError::Train("training dataset is empty".into()));
    }
    let mut state = OptimState::new(cfg.optimizer);
    let mut history = History {
        train_loss: Vec::with_capacity(cfg.epochs),
        val_loss: Vec::new(),
        best_val: f64::INFINITY,
        best_epoch: 0,
        stopped_early: false,
    };
    let mut best_weights: Option<Vec<Vec<f32>>> = None;
    let mut stale = 0usize;

    for epoch in 0..cfg.epochs {
        let mut total = 0.0f64;
        let mut count = 0usize;
        let shuffle_seed = cfg.seed.wrapping_add(epoch as u64);
        for (x, y) in train_ds.batches(cfg.batch_size, Some(shuffle_seed)) {
            let n = x.dims()[0];
            model.zero_grad();
            let pred = model.forward_train(&x)?;
            let (l, dloss) = cfg.loss.eval(&pred, &y)?;
            if !l.is_finite() {
                return Err(NnError::Train(format!("loss diverged at epoch {epoch}")));
            }
            model.backward(&dloss)?;
            state.step(model);
            total += l * n as f64;
            count += n;
        }
        history.train_loss.push(total / count.max(1) as f64);

        if let Some(val) = val_ds {
            let vl = evaluate(model, val, cfg.loss, cfg.batch_size)?;
            history.val_loss.push(vl);
            if vl < history.best_val {
                history.best_val = vl;
                history.best_epoch = epoch;
                best_weights = Some(model.export_weights());
                stale = 0;
            } else {
                stale += 1;
                if cfg.early_stop_patience > 0 && stale >= cfg.early_stop_patience {
                    history.stopped_early = true;
                    break;
                }
            }
        }
    }

    if let Some(w) = best_weights {
        model.import_weights(&w)?;
    }
    if val_ds.is_none() {
        history.best_val = history.train_loss.last().copied().unwrap_or(f64::INFINITY);
        history.best_epoch = history.train_loss.len().saturating_sub(1);
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Activation, ModelSpec};
    use hpacml_tensor::Tensor;
    use rand::Rng;

    /// y = sin(2x0) + 0.5·x1 — a smooth target an MLP should nail.
    fn toy_dataset(n: usize, seed: u64) -> InMemoryDataset {
        let mut r = crate::init::rng(seed);
        let mut xd = Vec::with_capacity(n * 2);
        let mut yd = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.gen_range(-1.5f32..1.5);
            let b = r.gen_range(-1.5f32..1.5);
            xd.push(a);
            xd.push(b);
            yd.push((2.0 * a).sin() + 0.5 * b);
        }
        InMemoryDataset::new(
            Tensor::from_vec(xd, [n, 2]).unwrap(),
            Tensor::from_vec(yd, [n, 1]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn mlp_learns_smooth_function() {
        let ds = toy_dataset(800, 1);
        let (tr, va) = ds.split(0.8, 2);
        let spec = ModelSpec::mlp(2, &[32, 32], 1, Activation::Tanh, 0.0);
        let mut model = spec.build(3).unwrap();
        let cfg = TrainConfig {
            epochs: 60,
            batch_size: 64,
            optimizer: Optimizer::adam(5e-3, 0.0),
            early_stop_patience: 0,
            ..Default::default()
        };
        let hist = train(&mut model, &tr, Some(&va), &cfg).unwrap();
        assert!(
            hist.best_val < 5e-3,
            "val loss should drop below 5e-3, got {}",
            hist.best_val
        );
        // Loss must actually decrease over training.
        assert!(hist.train_loss.last().unwrap() < &(hist.train_loss[0] * 0.1));
    }

    #[test]
    fn early_stopping_triggers_and_restores_best() {
        let ds = toy_dataset(200, 4);
        let (tr, va) = ds.split(0.7, 5);
        let spec = ModelSpec::mlp(2, &[8], 1, Activation::Tanh, 0.0);
        let mut model = spec.build(6).unwrap();
        // Aggressive LR so validation fluctuates; tiny patience forces a stop.
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 16,
            optimizer: Optimizer::sgd(0.5, 0.0, 0.0),
            early_stop_patience: 3,
            ..Default::default()
        };
        let hist = train(&mut model, &tr, Some(&va), &cfg).unwrap();
        if hist.stopped_early {
            assert!(hist.val_loss.len() < 200);
        }
        // Restored weights must reproduce the recorded best validation loss.
        let vl = evaluate(&model, &va, Loss::Mse, 16).unwrap();
        assert!(
            (vl - hist.best_val).abs() < 1e-9,
            "restored {vl} vs best {}",
            hist.best_val
        );
    }

    #[test]
    fn train_without_validation_uses_train_loss() {
        let ds = toy_dataset(100, 7);
        let spec = ModelSpec::mlp(2, &[8], 1, Activation::ReLU, 0.0);
        let mut model = spec.build(8).unwrap();
        let cfg = TrainConfig {
            epochs: 5,
            ..Default::default()
        };
        let hist = train(&mut model, &ds, None, &cfg).unwrap();
        assert_eq!(hist.val_loss.len(), 0);
        assert_eq!(hist.train_loss.len(), 5);
        assert!(hist.best_val.is_finite());
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = toy_dataset(10, 9).subset(&[]);
        let spec = ModelSpec::mlp(2, &[4], 1, Activation::ReLU, 0.0);
        let mut model = spec.build(1).unwrap();
        assert!(train(&mut model, &ds, None, &TrainConfig::default()).is_err());
        assert!(evaluate(&model, &ds, Loss::Mse, 4).is_err());
    }

    #[test]
    fn weight_snapshot_roundtrip() {
        let spec = ModelSpec::mlp(2, &[4], 1, Activation::ReLU, 0.0);
        let m = spec.build(10).unwrap();
        let w = m.export_weights();
        let mut m2 = spec.build(11).unwrap();
        m2.import_weights(&w).unwrap();
        let x = Tensor::full([3, 2], 0.4f32);
        assert_eq!(
            m.forward(&x).unwrap().data(),
            m2.forward(&x).unwrap().data()
        );
        // Mismatched snapshot rejected.
        let bad = vec![vec![0.0f32; 3]];
        assert!(m2.import_weights(&bad).is_err());
    }
}
