//! Optimizers: SGD with momentum and Adam with decoupled weight decay.
//!
//! The paper's hyperparameter space (Table V) tunes learning rate and weight
//! decay; decoupled decay (AdamW-style) is used so weight decay acts
//! identically for both optimizers.

use crate::model::Sequential;

/// Optimizer selector plus shared hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    Sgd {
        lr: f32,
        momentum: f32,
        weight_decay: f32,
    },
    Adam {
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    },
}

impl Optimizer {
    pub fn sgd(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Optimizer::Sgd {
            lr,
            momentum,
            weight_decay,
        }
    }

    /// Adam with the conventional betas.
    pub fn adam(lr: f32, weight_decay: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
        }
    }

    pub fn lr(&self) -> f32 {
        match self {
            Optimizer::Sgd { lr, .. } | Optimizer::Adam { lr, .. } => *lr,
        }
    }
}

/// Per-parameter optimizer state, allocated lazily on the first step.
pub struct OptimState {
    opt: Optimizer,
    /// SGD: momentum buffer. Adam: first moment.
    m: Vec<Vec<f32>>,
    /// Adam: second moment.
    v: Vec<Vec<f32>>,
    /// Adam: step counter for bias correction.
    t: u64,
}

impl OptimState {
    pub fn new(opt: Optimizer) -> Self {
        OptimState {
            opt,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Apply one update step from the accumulated gradients, then leave the
    /// gradients untouched (caller zeroes them per batch).
    pub fn step(&mut self, model: &mut Sequential) {
        self.t += 1;
        let t = self.t;
        let opt = self.opt;
        let (m, v) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            let n = p.value.numel();
            if m.len() <= idx {
                m.push(vec![0.0; n]);
                v.push(vec![0.0; n]);
            }
            let values = p.value.data_mut();
            let grads = p.grad.data();
            match opt {
                Optimizer::Sgd {
                    lr,
                    momentum,
                    weight_decay,
                } => {
                    let mbuf = &mut m[idx];
                    for i in 0..n {
                        // Decoupled weight decay.
                        let g = grads[i];
                        mbuf[i] = momentum * mbuf[i] + g;
                        values[i] -= lr * (mbuf[i] + weight_decay * values[i]);
                    }
                }
                Optimizer::Adam {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    weight_decay,
                } => {
                    let bc1 = 1.0 - beta1.powi(t as i32);
                    let bc2 = 1.0 - beta2.powi(t as i32);
                    let mbuf = &mut m[idx];
                    let vbuf = &mut v[idx];
                    for i in 0..n {
                        let g = grads[i];
                        mbuf[i] = beta1 * mbuf[i] + (1.0 - beta1) * g;
                        vbuf[i] = beta2 * vbuf[i] + (1.0 - beta2) * g * g;
                        let mhat = mbuf[i] / bc1;
                        let vhat = vbuf[i] / bc2;
                        values[i] -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * values[i]);
                    }
                }
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;
    use crate::layer::Linear;
    use crate::loss::Loss;
    use hpacml_tensor::Tensor;
    use rand::Rng;

    /// Fit y = 2x + 1 with a single linear layer.
    fn fit(opt: Optimizer, steps: usize) -> f64 {
        let mut model = Sequential::new(vec![Box::new(Linear::new(1, 1, &mut rng(3)))]);
        let mut state = OptimState::new(opt);
        let mut r = rng(4);
        let mut last = f64::MAX;
        for _ in 0..steps {
            let xs: Vec<f32> = (0..32).map(|_| r.gen_range(-1.0f32..1.0)).collect();
            let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
            let x = Tensor::from_vec(xs, [32, 1]).unwrap();
            let y = Tensor::from_vec(ys, [32, 1]).unwrap();
            model.zero_grad();
            let pred = model.forward_train(&x).unwrap();
            let (loss, dloss) = Loss::Mse.eval(&pred, &y).unwrap();
            model.backward(&dloss).unwrap();
            state.step(&mut model);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_problem() {
        assert!(fit(Optimizer::sgd(0.1, 0.9, 0.0), 200) < 1e-4);
    }

    #[test]
    fn adam_converges_on_linear_problem() {
        assert!(fit(Optimizer::adam(0.05, 0.0), 300) < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        // Pure decay: zero gradient, positive decay — weights must shrink.
        let mut model = Sequential::new(vec![Box::new(Linear::new(4, 4, &mut rng(5)))]);
        let before: f64 = {
            let mut s = 0.0;
            model.visit_params(&mut |p| {
                s += p
                    .value
                    .data()
                    .iter()
                    .map(|x| (*x as f64).powi(2))
                    .sum::<f64>()
            });
            s
        };
        let mut state = OptimState::new(Optimizer::sgd(0.1, 0.0, 0.5));
        model.zero_grad();
        for _ in 0..10 {
            state.step(&mut model);
        }
        let after: f64 = {
            let mut s = 0.0;
            model.visit_params(&mut |p| {
                s += p
                    .value
                    .data()
                    .iter()
                    .map(|x| (*x as f64).powi(2))
                    .sum::<f64>()
            });
            s
        };
        // 10 steps of lr*wd = 0.05 decay: squared norm shrinks by 0.95^20 ≈ 0.36.
        assert!(after < before * 0.45, "before={before} after={after}");
        assert!(
            after > before * 0.25,
            "decay should not overshoot: {after} vs {before}"
        );
    }
}
