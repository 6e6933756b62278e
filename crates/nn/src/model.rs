//! Sequential model container.

use crate::layer::{Layer, Param};
use crate::Result;
use hpacml_tensor::Tensor;

/// A stack of layers applied in order — the only topology the paper's search
/// spaces (Table IV) generate.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    pub(crate) fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    pub(crate) fn layers_mut(&mut self) -> &mut Vec<Box<dyn Layer>> {
        &mut self.layers
    }

    /// Pure forward pass (inference).
    ///
    /// Routes through this thread's shared inference workspace: the
    /// per-layer activations ping-pong inside reusable arenas, so repeated
    /// calls allocate only the returned output tensor. Hot loops can hold a
    /// [`crate::workspace::ForwardWorkspace`] and use
    /// [`ForwardWorkspace::forward`](crate::workspace::ForwardWorkspace::forward)
    /// to eliminate that last allocation too.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        crate::workspace::with_thread_workspace(|ws| Ok(ws.fw.forward(self, x)?.clone()))
    }

    /// Caching forward pass (training).
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward_train(&cur)?;
        }
        Ok(cur)
    }

    /// Backward pass from the loss gradient; accumulates parameter grads and
    /// returns the gradient w.r.t. the network input.
    pub fn backward(&mut self, dloss: &Tensor) -> Result<Tensor> {
        let mut cur = dloss.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur)?;
        }
        Ok(cur)
    }

    /// Visit every parameter across layers in deterministic order.
    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zero every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count — the "model size" axis of Figs. 7 and 8.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Layer names, for the tests' sanity checks.
    #[cfg(test)]
    pub(crate) fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Every parameter across layers, read-only, in layer order (the order
    /// `export_weights` and `import_weights` use).
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Snapshot every parameter tensor (deterministic order) — the
    /// early-stopping restore point.
    pub fn export_weights(&self) -> Vec<Vec<f32>> {
        let snapshot = |p: &Param| p.value.data().to_vec();
        self.params().into_iter().map(snapshot).collect()
    }

    /// [`Sequential::visit_params`] with each parameter's index, stopping
    /// the work (not the walk) at the first error. Returns how many
    /// parameters the model has.
    pub(crate) fn try_visit_params(
        &mut self,
        f: &mut dyn FnMut(usize, &mut Param) -> Result<()>,
    ) -> Result<usize> {
        let (mut idx, mut out) = (0, Ok(()));
        self.visit_params(&mut |p| {
            if out.is_ok() {
                out = f(idx, p);
            }
            idx += 1;
        });
        out.map(|()| idx)
    }

    /// Restore parameters from an [`Sequential::export_weights`] snapshot.
    pub fn import_weights(&mut self, weights: &[Vec<f32>]) -> Result<()> {
        let err = |msg: String| Err(crate::NnError::Serialize(msg));
        let params = self.try_visit_params(&mut |idx, p| match weights.get(idx) {
            Some(w) if w.len() == p.value.numel() => {
                p.value.data_mut().copy_from_slice(w);
                Ok(())
            }
            Some(w) => err(format!(
                "param {idx}: snapshot has {} values, layer expects {}",
                w.len(),
                p.value.numel()
            )),
            None => err(format!("snapshot has only {} params", weights.len())),
        })?;
        if params != weights.len() {
            return err(format!(
                "snapshot has {} params, model has {params}",
                weights.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;
    use crate::layer::{Linear, ReLU, Tanh};
    use rand::Rng;

    fn mlp(seed: u64) -> Sequential {
        let mut r = rng(seed);
        Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut r)),
            Box::new(Tanh::default()),
            Box::new(Linear::new(8, 8, &mut r)),
            Box::new(ReLU::default()),
            Box::new(Linear::new(8, 2, &mut r)),
        ])
    }

    #[test]
    fn forward_shapes() {
        let m = mlp(1);
        let x = Tensor::zeros([7, 4]);
        assert_eq!(m.forward(&x).unwrap().dims(), &[7, 2]);
        assert_eq!(m.param_count(), (4 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2));
        assert_eq!(
            m.layer_names(),
            vec!["linear", "tanh", "linear", "relu", "linear"]
        );
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut m = mlp(2);
        let mut r = rng(3);
        let x = Tensor::from_shape_fn([5, 4], |_| r.gen_range(-1.0f32..1.0));
        let a = m.forward(&x).unwrap();
        let b = m.forward_train(&x).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn end_to_end_gradient_matches_fd() {
        let mut m = mlp(4);
        let mut r = rng(5);
        let x = Tensor::from_shape_fn([3, 4], |_| r.gen_range(-1.0f32..1.0));
        let y = m.forward_train(&x).unwrap();
        let dy = Tensor::full(y.dims().to_vec(), 1.0f32);
        m.zero_grad();
        let _ = m.forward_train(&x).unwrap();
        let dx = m.backward(&dy).unwrap();
        let eps = 1e-3f32;
        for flat in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fd = (m.forward(&xp).unwrap().sum() - m.forward(&xm).unwrap().sum())
                / (2.0 * eps as f64);
            assert!(
                (fd - dx.data()[flat] as f64).abs() < 3e-2,
                "dx[{flat}]: fd={fd} analytic={}",
                dx.data()[flat]
            );
        }
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut m = mlp(6);
        let x = Tensor::full([2, 4], 0.5f32);
        let y = m.forward_train(&x).unwrap();
        m.backward(&Tensor::full(y.dims().to_vec(), 1.0f32))
            .unwrap();
        let mut nonzero = 0;
        m.visit_params(&mut |p| {
            nonzero += p.grad.data().iter().filter(|g| **g != 0.0).count();
        });
        assert!(nonzero > 0);
        m.zero_grad();
        m.visit_params(&mut |p| {
            assert!(p.grad.data().iter().all(|g| *g == 0.0));
        });
    }
}
