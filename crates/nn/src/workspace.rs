//! Zero-allocation inference workspaces.
//!
//! The steady state of a deployed surrogate is "the same network, the same
//! batch shape, millions of times". [`ForwardWorkspace`] owns a ping-pong
//! pair of activation tensors that are resized in place on every pass, so
//! after the first (warm-up) invocation a forward pass performs **no heap
//! allocation** in the activation path — each layer writes into the opposite
//! arena through [`crate::layer::Layer::forward_into`], except that a run of
//! two or more narrow compiled `Linear` layers is one step
//! ([`hpacml_tensor::gemm::NarrowChain`]): it writes only its last layer's
//! output, and its intermediates never reach an arena.
//!
//! [`InferWorkspace`] adds the normalization staging buffer a
//! [`SavedModel`](crate::serialize::SavedModel) needs for end-to-end
//! (raw-to-raw) inference. A process-wide per-thread instance backs the
//! allocating convenience APIs (`Sequential::forward`, `SavedModel::infer`)
//! so every caller benefits without holding a workspace themselves.

use crate::layer::Layer;
use crate::model::Sequential;
use crate::Result;
use hpacml_tensor::gemm::{InputColumns, NarrowChain};
use hpacml_tensor::quant::Precision;
use hpacml_tensor::{Tensor, TensorError};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Ping-pong activation arena for pure forward passes.
#[derive(Default)]
pub struct ForwardWorkspace {
    ping: Tensor,
    pong: Tensor,
}

impl ForwardWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `model` on `x`, returning a mutable reference to the output
    /// activation held inside the workspace. Steady-state allocation-free
    /// once both arenas have grown to the model's widest activation.
    pub fn forward<'a>(&'a mut self, model: &Sequential, x: &Tensor) -> Result<&'a mut Tensor> {
        self.forward_at(model, x, Precision::F32)
    }

    /// [`ForwardWorkspace::forward`] at a serving precision: layers with
    /// reduced-precision packs route through their quantized kernels;
    /// everything else (and `F32`) is the plain forward. Same arenas,
    /// same zero-allocation steady state.
    ///
    /// The layers run in steps (see `step`): a maximal run of narrow
    /// compiled `Linear` layers is one depth-first chain, every other layer
    /// a step of its own. Which runs is a function of the layer widths
    /// only, and the bits are those of the layers run one by one.
    pub fn forward_at<'a>(
        &'a mut self,
        model: &Sequential,
        x: &Tensor,
        prec: Precision,
    ) -> Result<&'a mut Tensor> {
        let layers = model.layers();
        if layers.is_empty() {
            x.copy_into(&mut self.ping);
            return Ok(&mut self.ping);
        }
        // The first step reads the caller's tensor directly — no staging
        // copy of the input batch on the hot path.
        let ran = step(layers, x, &mut self.ping, prec)?;
        self.rest_from_ping(&layers[ran..], prec)
    }

    /// [`ForwardWorkspace::forward_at`] on an input read in place: when the
    /// model's first step at `prec` is a narrow chain, the chain reads its
    /// inputs straight from `x`'s columns (no gathered tensor) and the
    /// remaining layers run as in `forward_at`, with the same bits as
    /// `forward_at` on the `[m, k]` tensor the columns describe. `None`
    /// when the first step is not a chain: the caller gathers instead.
    pub fn forward_columns_at<'a>(
        &'a mut self,
        model: &Sequential,
        x: &dyn InputColumns,
        prec: Precision,
    ) -> Result<Option<&'a mut Tensor>> {
        let layers = model.layers();
        let chain = chain_at(layers, prec)?;
        if chain.stages() < 2 {
            return Ok(None);
        }
        chain.forward_columns_into(x, &mut self.ping)?;
        self.rest_from_ping(&layers[chain.stages()..], prec)
            .map(Some)
    }

    /// Run `rest` on the activation in `ping`, ping-ponging between the
    /// arenas; returns the one holding the output.
    fn rest_from_ping(
        &mut self,
        mut rest: &[Box<dyn Layer>],
        prec: Precision,
    ) -> Result<&mut Tensor> {
        let (mut cur, mut nxt) = (&mut self.ping, &mut self.pong);
        while !rest.is_empty() {
            rest = &rest[step(rest, cur, nxt, prec)?..];
            std::mem::swap(&mut cur, &mut nxt);
        }
        Ok(cur)
    }

    /// Capacity currently held by the two arenas, in elements — lets tests
    /// assert that repeated passes reuse storage instead of growing it.
    pub fn capacity_elems(&self) -> (usize, usize) {
        (self.ping.capacity(), self.pong.capacity())
    }

    /// Pre-size both activation arenas for `model` fed inputs of `in_dims`
    /// (batch dimension included), by walking the layers' static shape
    /// functions. After reserving for the *largest* batch a caller will use
    /// (e.g. a session's `max_batch`), forward passes at **any** smaller
    /// batch reuse the grown arenas — the zero-allocation guarantee of
    /// runtime-batched inference. Also pre-sizes the per-thread GEMM
    /// scratch (weight panels for uncompiled `Linear`s, im2col panels and
    /// columns) from the layers' scratch hints — on
    /// **every pool participant**, via `hpacml_par::broadcast`, so neither
    /// this thread's first forward nor a worker's first stolen sample
    /// allocates anything. A size no buffer can hold, in an arena or in any
    /// participant's scratch, is a typed error, not an abort. Returns the
    /// widest activation element count, so callers that swap buffers with
    /// the arenas (the runtime's model-output hand-off) can size those to
    /// match.
    pub fn reserve(&mut self, model: &Sequential, in_dims: &[usize]) -> Result<usize> {
        let mut dims = in_dims.to_vec();
        let mut max_elems = checked_numel(&dims)?;
        let mut max_rank = dims.len();
        let (mut b_elems, mut col_elems) = (0usize, 0usize);
        let mut layers = model.layers();
        while !layers.is_empty() {
            // A chain's intermediates never reach an arena: only the last
            // output of each step is sized. (Chains form from widths alone,
            // so the F32 partition is the partition at every rung.)
            let (this, rest) = layers.split_at(step_len(layers, Precision::F32)?);
            for layer in this {
                let (b, c) = layer.scratch_hint(&dims)?;
                b_elems = b_elems.max(b);
                col_elems = col_elems.max(c);
                dims = layer.out_dims(&dims)?;
            }
            max_elems = max_elems.max(checked_numel(&dims)?);
            max_rank = max_rank.max(dims.len());
            layers = rest;
        }
        if b_elems > 0 || col_elems > 0 {
            let refused = OnceLock::new();
            hpacml_par::broadcast(|_| {
                if let Err(e) = hpacml_tensor::gemm::reserve_scratch::<f32>(b_elems, col_elems) {
                    let _ = refused.set(e);
                }
            });
            if let Some(e) = refused.into_inner() {
                return Err(e.into());
            }
        }
        // Reserve the storage without writing it (a granted one is not
        // paged in until a pass uses it), at the widest rank the pass will
        // use, so the in-place per-layer reshapes never regrow a shape
        // vector either.
        let empty = vec![0usize; max_rank.max(1)];
        for arena in [&mut self.ping, &mut self.pong] {
            if arena.capacity() < max_elems || arena.rank() < max_rank {
                arena.try_reserve(max_elems)?;
                arena.resize(&empty);
            }
        }
        Ok(max_elems)
    }
}

/// `Π dims`, or a typed error when the product does not fit a `usize`:
/// the batch dimension of a reservation comes from configuration.
pub(crate) fn checked_numel(dims: &[usize]) -> Result<usize> {
    dims.iter()
        .try_fold(1usize, |p, &d| p.checked_mul(d))
        .ok_or_else(|| TensorError::Reserve { elems: usize::MAX }.into())
}

/// The maximal narrow chain at the head of `layers` at `prec` (possibly
/// empty or a single layer, which then runs on its own), or the error of a
/// rung that could not be encoded.
fn chain_at(layers: &[Box<dyn Layer>], prec: Precision) -> Result<NarrowChain<'_>> {
    let mut chain = NarrowChain::default();
    for layer in layers {
        match layer.narrow_stage(prec)? {
            Some(stage) if chain.push(stage) => {}
            _ => break,
        }
    }
    Ok(chain)
}

/// How many layers the step at the head of `layers` runs: a chain of two or
/// more, else one.
fn step_len(layers: &[Box<dyn Layer>], prec: Precision) -> Result<usize> {
    Ok(chain_at(layers, prec)?.stages().max(1))
}

/// Run the step at the head of `layers` from `x` into `out`: a narrow chain
/// of two or more layers depth-first, else the first layer alone (single
/// narrow layers keep their GEMM tiles). Returns how many layers it ran.
fn step(layers: &[Box<dyn Layer>], x: &Tensor, out: &mut Tensor, prec: Precision) -> Result<usize> {
    let chain = chain_at(layers, prec)?;
    if chain.stages() >= 2 {
        chain.forward_into(x, out)?;
        return Ok(chain.stages());
    }
    layers[0].forward_into(x, out, prec)?;
    Ok(1)
}

/// Workspace for end-to-end [`SavedModel`](crate::serialize::SavedModel)
/// inference: normalization staging plus the forward arena.
#[derive(Default)]
pub struct InferWorkspace {
    pub(crate) staged: Tensor,
    pub(crate) fw: ForwardWorkspace,
}

impl InferWorkspace {
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_WS: RefCell<InferWorkspace> = RefCell::new(InferWorkspace::new());
}

/// Run `f` with this thread's shared inference workspace. The allocating
/// one-shot APIs route through this so repeated calls on one thread reuse
/// the same arenas.
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut InferWorkspace) -> R) -> R {
    THREAD_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        // Reentrant call (e.g. inference from inside another forward's
        // instrumentation): fall back to a fresh workspace rather than
        // panicking on the RefCell.
        Err(_) => f(&mut InferWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Activation, LayerSpec, ModelSpec};
    use crate::NnError;

    #[test]
    fn workspace_forward_matches_allocating_forward() {
        let spec = ModelSpec::mlp(6, &[16, 8], 2, Activation::Tanh, 0.1);
        let model = spec.build(3).unwrap();
        let x = Tensor::from_shape_fn([5, 6], |ix| (ix[0] as f32 - ix[1] as f32) * 0.21);
        let reference = model.forward(&x).unwrap();
        let mut ws = ForwardWorkspace::new();
        for _ in 0..3 {
            let y = ws.forward(&model, &x).unwrap();
            assert_eq!(y.dims(), reference.dims());
            assert_eq!(y.data(), reference.data());
        }
    }

    #[test]
    fn workspace_forward_matches_on_cnn() {
        let spec = ModelSpec::new(
            vec![2, 8, 8],
            vec![
                LayerSpec::Conv2d {
                    in_ch: 2,
                    out_ch: 3,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::ReLU,
                LayerSpec::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    in_features: 3 * 4 * 4,
                    out_features: 2,
                },
                LayerSpec::Sigmoid,
            ],
        );
        let model = spec.build(9).unwrap();
        let x = Tensor::from_shape_fn([2, 2, 8, 8], |ix| (ix[2] * 8 + ix[3]) as f32 * 0.013);
        let reference = model.forward(&x).unwrap();
        let mut ws = ForwardWorkspace::new();
        let y = ws.forward(&model, &x).unwrap();
        assert_eq!(y.data(), reference.data());
    }

    #[test]
    fn arenas_are_reused_across_batches() {
        let spec = ModelSpec::mlp(4, &[32], 1, Activation::ReLU, 0.0);
        let model = spec.build(1).unwrap();
        let mut ws = ForwardWorkspace::new();
        let big = Tensor::full([16, 4], 0.5f32);
        ws.forward(&model, &big).unwrap();
        let warm = ws.capacity_elems();
        // Smaller batch reuses the grown arenas; sizes shrink logically but
        // capacity is retained by Vec semantics (asserted indirectly: no
        // panic, outputs correct, and a repeat big batch needs no regrowth).
        let small = Tensor::full([2, 4], 0.5f32);
        let y_small = ws.forward(&model, &small).unwrap().clone();
        assert_eq!(y_small.dims(), &[2, 1]);
        ws.forward(&model, &big).unwrap();
        assert_eq!(ws.capacity_elems(), warm);
    }

    /// A conv input whose im2col panels no allocator can grant (~40 TB) is a
    /// typed error from every participant's scratch reserve, on a serial
    /// pool and with a worker, not an abort.
    #[test]
    fn reserve_of_a_conv_input_no_scratch_can_hold_is_an_error() {
        let conv = LayerSpec::Conv2d {
            in_ch: 1,
            out_ch: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let model = ModelSpec::new(vec![1, 8, 8], vec![conv]).build(1).unwrap();
        for workers in [0, 1] {
            hpacml_par::with_pool(&hpacml_par::Pool::new(workers), || {
                let mut ws = ForwardWorkspace::new();
                let got = ws.reserve(&model, &[1, 1, 1 << 20, 1 << 20]);
                assert!(
                    matches!(got, Err(NnError::Tensor(TensorError::Reserve { .. }))),
                    "{workers} worker(s): {:?}",
                    got.map(|_| ())
                );
            });
        }
    }

    #[test]
    fn empty_model_is_identity() {
        let model = Sequential::new(vec![]);
        let x = Tensor::full([3, 2], 7.0f32);
        let mut ws = ForwardWorkspace::new();
        assert_eq!(ws.forward(&model, &x).unwrap().data(), x.data());
    }
}
