//! Layers with hand-derived backward passes.
//!
//! Each layer has one inference forward, `forward_into` (pure: no mutation,
//! shareable across threads, writing a caller-owned tensor at a serving
//! precision), and a caching `forward_train` used by the training loop,
//! whose cached activations feed `backward`.

use crate::workspace::checked_numel;
use crate::{NnError, Result};
use hpacml_faults::fault_point;
use hpacml_tensor::gemm::{self, Act, Epilogue, NarrowStage, PackedB};
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::quant::{self, Precision, QPackedB};
use hpacml_tensor::{Tensor, TensorError};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::OnceLock;

/// A trainable tensor together with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Tensor,
    pub grad: Tensor,
}

impl Param {
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims().to_vec());
        Param { value, grad }
    }

    pub fn zero_grad(&mut self) {
        for g in self.grad.data_mut() {
            *g = 0.0;
        }
    }
}

/// A differentiable network layer.
// lint: allow(crate-local-pub) — the element type of `Sequential::new`'s `Vec<Box<dyn Layer>>`; callers box concrete layers without naming the trait
pub trait Layer: Send + Sync {
    #[cfg(test)]
    fn name(&self) -> &'static str;

    /// Pure forward pass (inference) at a serving precision, writing into a
    /// caller-owned output tensor (resized in place) — allocation-free once
    /// `out` has capacity, the contract the zero-alloc inference workspace
    /// relies on. Must not mutate the layer. Layers that carry
    /// reduced-precision weight packs (see [`Layer::quantize`]) route to
    /// their quantized kernel at the finer of `prec` and the precision they
    /// were quantized for (so a bf16 layer asked for int8 serves bf16), and
    /// a mixed-precision model is always well-defined at every ladder rung.
    /// Serving a rung for the first time encodes it, which may fail with a
    /// typed error (see [`Packs::rung`]).
    fn forward_into(&self, x: &Tensor, out: &mut Tensor, prec: Precision) -> Result<()>;

    /// [`Layer::forward_into`] at f32 into a fresh tensor.
    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut y = Tensor::default();
        self.forward_into(x, &mut y, Precision::F32)?;
        Ok(y)
    }

    /// Output dims (batch-inclusive) for a given input dims, without running
    /// the layer. Default: shape-preserving (correct for activations and
    /// dropout; shape-changing layers override).
    fn out_dims(&self, in_dims: &[usize]) -> Result<Vec<usize>> {
        Ok(in_dims.to_vec())
    }

    /// Caching forward pass (training): the values of [`Layer::forward`],
    /// plus whatever `backward` needs.
    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor>;

    /// Backward pass: gradient w.r.t. the layer input, accumulating parameter
    /// gradients. Requires a preceding `forward_train`.
    fn backward(&mut self, dy: &Tensor) -> Result<Tensor>;

    /// Visit every trainable parameter (deterministic order). A layer that
    /// keeps its weights packed hands the visitor row-major copies and
    /// repacks them afterwards.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// The same parameters in the same order, read-only and where the
    /// layer keeps them: nothing to refresh afterwards, so a compiled layer
    /// is left exactly as it is.
    fn params(&self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    /// Number of scalar parameters.
    fn param_count(&self) -> usize {
        0
    }

    // --- inference-compilation hooks (see `crate::fuse`) -------------------

    /// Is this layer the identity at inference time (Dropout)? The compile
    /// pass removes such layers, deleting a full copy sweep per forward.
    fn inference_identity(&self) -> bool {
        false
    }

    /// If this layer is a pure elementwise activation the GEMM epilogue can
    /// fuse (an `ActLayer`), say which.
    fn as_activation(&self) -> Option<Act> {
        None
    }

    /// Offer this layer the activation that follows it, to fold into its own
    /// fused epilogue. Returns `true` if absorbed — the compile pass then
    /// removes the activation layer. Fused layers must produce **bit-equal**
    /// outputs to the unfused pair; only inference-side state may change.
    fn fuse_activation(&mut self, _act: Act) -> bool {
        false
    }

    /// Move immutable weights into the panel layout the steady-state
    /// inference kernels read (once, at compile time). Returns `true` if the
    /// layer serves from packed panels afterwards.
    fn prepack(&mut self) -> bool {
        false
    }

    /// `(b_pack_elems, col_elems)` of per-thread GEMM scratch one forward
    /// pass at `in_dims` (batch included) may use, or a typed error when a
    /// count does not fit a `usize` — lets workspaces pre-size the scratch
    /// (on every pool thread, via `hpacml_par::broadcast`) so even a
    /// session's first invocation allocates nothing. `b` covers uncompiled
    /// `Linear` weight panels and a convolution's im2col panels, `col` the
    /// convolution's zero-padded sample.
    fn scratch_hint(&self, _in_dims: &[usize]) -> Result<(usize, usize)> {
        Ok((0, 0))
    }

    /// Make the layer serve at `target`: encode that rung's weight pack now
    /// and drop any coarser one. A finer rung of the demotion ladder (bf16
    /// for an int8 target) is encoded the first time it is served, since
    /// the online-validation controller may demote at any time but seldom
    /// does. Returns `true` if anything was quantized. `F32` is a no-op
    /// (the f32 panels from [`Layer::prepack`] are that rung).
    fn quantize(&mut self, _target: Precision) -> bool {
        false
    }

    /// This layer as one stage of a depth-first narrow chain at `prec`
    /// (see [`hpacml_tensor::gemm::NarrowChain`]): its packed weights at
    /// that rung, bias and fused activation. Only compiled `Linear` layers
    /// have one; whether a run of them forms a chain is then a pure function
    /// of their widths. An error is a rung that could not be encoded (see
    /// [`Packs::rung`]).
    fn narrow_stage(&self, _prec: Precision) -> Result<Option<NarrowStage<'_>>> {
        Ok(None)
    }
}

fn missing_cache(layer: &'static str) -> NnError {
    NnError::Train(format!("{layer}: backward called without forward_train"))
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = act(x·Wᵀ + b)`, weights `[out, in]`.
///
/// A `Linear` is in one of two forms. Built from a spec, it holds `W`
/// row-major beside its gradient and trains. Compiled for inference
/// ([`Layer::prepack`], which the compile pass runs), it *moves* `W` into
/// [`PackedB`] panels and frees the rows: the panels are then the only f32
/// copy of the weights, and the reduced-precision rungs are encoded from
/// them. `load_model` builds its layers in that form directly. Bias — and,
/// once the compile pass has fused a following activation into this layer,
/// the activation too — is applied in the GEMM epilogue while each output
/// tile is register-hot.
pub struct Linear {
    form: Form,
    /// Activation fused into the epilogue (compile pass; inference only).
    act: Option<Act>,
}

enum Form {
    /// Row-major weights and bias with their gradients, and the input
    /// `backward` reads: a layer that trains.
    Train {
        w: Param,
        b: Param,
        cache_x: Option<Tensor>,
    },
    /// Compiled for inference: the weights only as packs, and the bias.
    Serve { w: Packs, b: Tensor },
}

/// A compiled `Linear`'s weights: the f32 [`PackedB`] panels — the one
/// f32 copy — and the reduced-precision rungs encoded from them.
///
/// A layer quantized for a target serves a request at `prec` at the finer
/// of `prec` and the target ([`Packs::rung`]): the f32 panels, or that
/// rung. Only the target's rung is encoded when the layer is quantized;
/// a finer one is encoded the first time it is served — for an int8 model,
/// when validation first demotes it to bf16 — and kept from then on. So an
/// int8 model holds 5 bytes per weight (f32 + int8), not 7, and the first
/// demotion pays one encode of each layer.
// lint: allow(crate-local-pub) — held by `ParamRef::Packed`, which callers match without naming the type
pub struct Packs {
    f32: PackedB<f32>,
    /// The coarsest rung served; `F32` for a layer never quantized.
    target: Precision,
    bf16: OnceLock<QPackedB>,
    int8: OnceLock<QPackedB>,
    /// Held while a rung is encoded, so threads that first ask for the same
    /// rung at once encode it once.
    encoding: Mutex<()>,
}

impl Packs {
    fn new(f32: PackedB<f32>) -> Self {
        Packs {
            f32,
            target: Precision::F32,
            bf16: OnceLock::new(),
            int8: OnceLock::new(),
            encoding: Mutex::new(()),
        }
    }

    /// The f32 panels.
    pub fn panels(&self) -> &PackedB<f32> {
        &self.f32
    }

    /// The precision a request at `prec` is served at: the finer of `prec`
    /// and the target, so a model never serves coarser than it was
    /// quantized for.
    fn serves(&self, prec: Precision) -> Precision {
        prec.max(self.target)
    }

    fn slot(&self, prec: Precision) -> Option<&OnceLock<QPackedB>> {
        match prec {
            Precision::Int8 => Some(&self.int8),
            Precision::Bf16 => Some(&self.bf16),
            Precision::F32 => None,
        }
    }

    /// The reduced-precision pack serving requests at `prec` — the rung of
    /// the finer of `prec` and the target — encoded from the f32 panels by
    /// [`QPackedB::from_packed`] the first time it is asked for, and the
    /// same pack on every later call. An encode the allocator refuses (or
    /// an injected `nn.rung.encode` fault) is a typed error that leaves the
    /// layer as it was; the next call encodes again. A request the f32
    /// panels serve has no reduced pack: `NnError::Tensor(DimMismatch)`.
    pub fn rung(&self, prec: Precision) -> Result<&QPackedB> {
        let serves = self.serves(prec);
        let Some(slot) = self.slot(serves) else {
            return Err(TensorError::DimMismatch(format!(
                "a request at {prec} is served from the f32 panels"
            ))
            .into());
        };
        if let Some(q) = slot.get() {
            return Ok(q);
        }
        let _one = self.encoding.lock();
        if let Some(q) = slot.get() {
            return Ok(q);
        }
        fault_point!("nn.rung.encode");
        let q = QPackedB::from_packed(&self.f32, serves)?;
        Ok(slot.get_or_init(|| q))
    }

    /// The rung at `prec` if it has been encoded; never encodes one.
    pub fn held(&self, prec: Precision) -> Option<&QPackedB> {
        self.slot(prec)?.get()
    }

    /// Serve from `target` on: drop every rung held (each was encoded from
    /// the panels as they were), then encode the target's. If that encode
    /// fails, the first request served at the target encodes it again and
    /// reports the error.
    fn retarget(&mut self, target: Precision) {
        self.target = target;
        self.bf16.take();
        self.int8.take();
        if target != Precision::F32 {
            let _ = self.rung(target);
        }
    }
}

/// One parameter tensor where its layer keeps it, for reading: row-major
/// values, or a compiled `Linear`'s `[out, in]` weights held only as packs.
/// Either way it reads as the row-major tensor, never as an empty one.
#[derive(Clone, Copy)]
pub enum ParamRef<'a> {
    Rows(&'a [f32]),
    Packed(&'a Packs),
}

impl ParamRef<'_> {
    pub fn numel(self) -> usize {
        match self {
            ParamRef::Rows(v) => v.len(),
            ParamRef::Packed(p) => p.f32.k() * p.f32.n(),
        }
    }

    /// The tensor's values in row-major order.
    pub fn to_vec(self) -> Vec<f32> {
        match self {
            ParamRef::Rows(v) => v.to_vec(),
            ParamRef::Packed(p) => p.f32.read_rows(0).collect(),
        }
    }

    /// Row-major elements from `first` on, little-endian, into `le` (four
    /// bytes each, as many as it holds).
    pub(crate) fn encode_le(self, first: usize, le: &mut [u8]) {
        let put = |(le, v): (&mut [u8], f32)| le.copy_from_slice(&v.to_le_bytes());
        let le = le.chunks_exact_mut(4);
        match self {
            ParamRef::Rows(v) => le.zip(v[first..].iter().copied()).for_each(put),
            ParamRef::Packed(p) => le.zip(p.f32.read_rows(first)).for_each(put),
        }
    }
}

fn compiled_for_inference(layer: &str, what: &str) -> NnError {
    NnError::Train(format!(
        "{layer}: layer was compiled for inference ({what}); \
         rebuild the model from its spec to train"
    ))
}

impl Linear {
    pub fn new(in_features: usize, out_features: usize, rng: &mut SmallRng) -> Self {
        let w = crate::init::kaiming_uniform(rng, in_features, out_features * in_features);
        let b = crate::init::bias_uniform(rng, in_features, out_features);
        Linear::from_params(
            Tensor::from_vec(w, [out_features, in_features]).expect("init size"),
            Tensor::from_vec(b, [out_features]).expect("init size"),
        )
    }

    /// A trainable layer from row-major `[out, in]` weights and its bias.
    pub(crate) fn from_params(w: Tensor, b: Tensor) -> Self {
        let (w, b) = (Param::new(w), Param::new(b));
        Linear {
            form: Form::Train {
                w,
                b,
                cache_x: None,
            },
            act: None,
        }
    }

    /// A compiled layer from weights already in panels — what a loader
    /// decodes a file into. No row-major copy and no gradient exist.
    pub(crate) fn from_panels(w: PackedB<f32>, b: Vec<f32>) -> Self {
        let n = b.len();
        let b = Tensor::from_vec(b, [n]).expect("a bias of n values");
        Linear {
            form: Form::Serve {
                w: Packs::new(w),
                b,
            },
            act: None,
        }
    }

    pub fn in_features(&self) -> usize {
        match &self.form {
            Form::Train { w, .. } => w.value.dims()[1],
            Form::Serve { w, .. } => w.f32.k(),
        }
    }

    pub fn out_features(&self) -> usize {
        match &self.form {
            Form::Train { w, .. } => w.value.dims()[0],
            Form::Serve { w, .. } => w.f32.n(),
        }
    }

    fn bias(&self) -> &[f32] {
        match &self.form {
            Form::Train { b, .. } => b.value.data(),
            Form::Serve { b, .. } => b.data(),
        }
    }

    /// The trainable state, or the typed refusal of a compiled layer.
    fn train_state(&mut self) -> Result<(&mut Param, &mut Param, &mut Option<Tensor>)> {
        match (&mut self.form, self.act) {
            // The following activation layer was removed by the fusion
            // pass; backward would silently skip its gradient.
            (_, Some(_)) => Err(compiled_for_inference("linear", "fused activation")),
            (Form::Serve { .. }, None) => Err(compiled_for_inference("linear", "packed weights")),
            (Form::Train { w, b, cache_x }, None) => Ok((w, b, cache_x)),
        }
    }
}

impl Layer for Linear {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor, prec: Precision) -> Result<()> {
        let epi = Epilogue::col_bias(self.bias()).with_act(self.act);
        match &self.form {
            Form::Train { w, .. } => ops::matmul_transb_into(x, &w.value, out, epi)?,
            Form::Serve { w, .. } => match w.serves(prec) {
                Precision::F32 => gemm::matmul_transb_packed_into(x, &w.f32, epi, out)?,
                prec => quant::matmul_transb_qpacked_into(x, w.rung(prec)?, epi, out)?,
            },
        }
        Ok(())
    }

    fn out_dims(&self, in_dims: &[usize]) -> Result<Vec<usize>> {
        if in_dims.len() != 2 || in_dims[1] != self.in_features() {
            return Err(NnError::BadSpec(format!(
                "linear({}→{}) fed dims {in_dims:?}",
                self.in_features(),
                self.out_features()
            )));
        }
        Ok(vec![in_dims[0], self.out_features()])
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        *self.train_state()?.2 = Some(x.clone());
        self.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let (w, b, cache_x) = self.train_state()?;
        let x = cache_x.as_ref().ok_or_else(|| missing_cache("linear"))?;
        // dx[N, in] = dy[N, out] · W[out, in]; also checks dy's shape.
        let dx = ops::matmul(dy, &w.value)?;
        // dW[out, in] += dyᵀ[out, N] · x[N, in]
        let (rows, out) = (dy.dims()[0], dy.dims()[1]);
        let dy_t = Tensor::from_shape_fn([out, rows], |ix| dy.data()[ix[1] * out + ix[0]]);
        let dw = ops::matmul(&dy_t, x)?;
        for (g, d) in w.grad.data_mut().iter_mut().zip(dw.data()) {
            *g += *d;
        }
        // db[out] += column sums of dy.
        for row in dy.data().chunks_exact(out) {
            for (g, d) in b.grad.data_mut().iter_mut().zip(row) {
                *g += *d;
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match &mut self.form {
            Form::Train { w, b, .. } => {
                f(w);
                f(b);
            }
            Form::Serve { w, b } => {
                // Callers may mutate the weights through the visit
                // (`import_weights`, snapshot restores): hand them the rows,
                // then repack the panels in place, drop the rungs held and
                // re-encode the target's, so a compiled layer never reads
                // stale packs. Only occasional administrative visits land
                // here — compiled layers refuse training.
                let (n, k) = (w.f32.n(), w.f32.k());
                let rows = Tensor::from_vec(w.f32.read_rows(0).collect(), [n, k]);
                let mut wp = Param::new(rows.expect("n·k rows"));
                let mut bp = Param::new(std::mem::take(b));
                f(&mut wp);
                f(&mut bp);
                *b = bp.value;
                w.f32.pack_rows_into(wp.value.data(), n, k);
                w.retarget(w.target);
            }
        }
    }

    fn params(&self) -> Vec<ParamRef<'_>> {
        match &self.form {
            Form::Train { w, b, .. } => vec![
                ParamRef::Rows(w.value.data()),
                ParamRef::Rows(b.value.data()),
            ],
            Form::Serve { w, b } => vec![ParamRef::Packed(w), ParamRef::Rows(b.data())],
        }
    }

    fn param_count(&self) -> usize {
        self.in_features() * self.out_features() + self.bias().len()
    }

    fn fuse_activation(&mut self, act: Act) -> bool {
        // One fused activation per layer; a second one must stay a layer.
        if self.act.is_some() {
            return false;
        }
        self.act = Some(act);
        true
    }

    fn prepack(&mut self) -> bool {
        if let Form::Train { w, b, .. } = &mut self.form {
            // Move, not copy: the rows (and the gradients) are freed once
            // the panels hold the weights.
            let f32 = PackedB::from_transb(&w.value).expect("weights are rank 2");
            let b = std::mem::take(&mut b.value);
            let w = Packs::new(f32);
            self.form = Form::Serve { w, b };
        }
        true
    }

    fn quantize(&mut self, target: Precision) -> bool {
        if target == Precision::F32 {
            return false;
        }
        // Encode the target's rung only. The validation controller may
        // demote int8 → bf16 → f32 at runtime: the f32 rung is the plain
        // packed panels (pack first, so demotion lands on the fast path),
        // and the bf16 rung of an int8 layer is encoded from them the
        // first time it is served.
        self.prepack();
        let Form::Serve { w, .. } = &mut self.form else {
            unreachable!("prepack leaves the layer in panels")
        };
        w.retarget(target);
        true
    }

    fn narrow_stage(&self, prec: Precision) -> Result<Option<NarrowStage<'_>>> {
        let Form::Serve { w, b } = &self.form else {
            return Ok(None);
        };
        Ok(Some(match w.serves(prec) {
            Precision::F32 => NarrowStage::new(&w.f32, b.data(), self.act),
            prec => NarrowStage::quantized(w.rung(prec)?, b.data(), self.act),
        }))
    }

    fn scratch_hint(&self, _in_dims: &[usize]) -> Result<(usize, usize)> {
        match self.form {
            Form::Serve { .. } => Ok((0, 0)), // steady state never repacks
            Form::Train { .. } => {
                let b = PackedB::<f32>::packed_elems(self.in_features(), self.out_features());
                Ok((b, 0))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// An elementwise activation layer, `y = act(x)` by [`Act::apply`]: the
/// formula the fused GEMM epilogue applies, so a fused `Linear→activation`
/// pair and the unfused stack are bit-identical. `A` fixes the activation
/// ([`ActLayer::ACT`]); [`ReLU`], [`Tanh`] and [`Sigmoid`] are the three.
#[derive(Default)]
pub(crate) struct ActLayer<const A: u8> {
    /// What `backward` reads: the input for ReLU, the output otherwise.
    cache: Option<Tensor>,
}

/// Rectified linear unit.
pub(crate) type ReLU = ActLayer<0>;
/// Hyperbolic tangent, by [`hpacml_tensor::Scalar::tanh_activation`].
pub(crate) type Tanh = ActLayer<1>;
/// Logistic sigmoid.
pub(crate) type Sigmoid = ActLayer<2>;

impl<const A: u8> ActLayer<A> {
    /// The activation this layer applies.
    const ACT: Act = match A {
        0 => Act::Relu,
        1 => Act::Tanh,
        _ => Act::Sigmoid,
    };
}

impl<const A: u8> Layer for ActLayer<A> {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        match Self::ACT {
            Act::Relu => "relu",
            Act::Tanh => "tanh",
            Act::Sigmoid => "sigmoid",
        }
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor, _prec: Precision) -> Result<()> {
        x.map_into(out, |v| Self::ACT.apply(v));
        Ok(())
    }

    fn as_activation(&self) -> Option<Act> {
        Some(Self::ACT)
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let y = self.forward(x)?;
        self.cache = Some(match Self::ACT {
            Act::Relu => x.clone(),
            Act::Tanh | Act::Sigmoid => y.clone(),
        });
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let cached = self
            .cache
            .as_ref()
            .ok_or_else(|| missing_cache("activation"))?;
        let mut dx = dy.clone();
        let pairs = dx.data_mut().iter_mut().zip(cached.data());
        match Self::ACT {
            Act::Relu => {
                for (d, xv) in pairs {
                    if *xv <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            Act::Tanh => {
                for (d, yv) in pairs {
                    *d *= 1.0 - yv * yv;
                }
            }
            Act::Sigmoid => {
                for (d, yv) in pairs {
                    *d *= yv * (1.0 - yv);
                }
            }
        }
        Ok(dx)
    }
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: active only in training; identity at inference.
pub struct Dropout {
    pub p: f32,
    rng: SmallRng,
    cache_mask: Option<Vec<f32>>,
}

impl Dropout {
    pub fn new(p: f32, seed: u64) -> Self {
        Dropout {
            p: p.clamp(0.0, 0.95),
            rng: crate::init::rng(seed),
            cache_mask: None,
        }
    }
}

impl Layer for Dropout {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor, _prec: Precision) -> Result<()> {
        x.copy_into(out); // inference-time dropout is the identity
        Ok(())
    }

    fn inference_identity(&self) -> bool {
        true
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        if self.p == 0.0 {
            self.cache_mask = None;
            return Ok(x.clone());
        }
        let keep = 1.0 - self.p;
        let mask: Vec<f32> = (0..x.numel())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = x.clone();
        for (v, m) in y.data_mut().iter_mut().zip(&mask) {
            *v *= m;
        }
        self.cache_mask = Some(mask);
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        match &self.cache_mask {
            None => Ok(dy.clone()),
            Some(mask) => {
                let mut dx = dy.clone();
                for (d, m) in dx.data_mut().iter_mut().zip(mask) {
                    *d *= m;
                }
                Ok(dx)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Collapse `[N, ...]` to `[N, prod(...)]`.
#[derive(Default)]
pub struct Flatten {
    cache_shape: Option<Vec<usize>>,
}

impl Layer for Flatten {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor, _prec: Precision) -> Result<()> {
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        x.copy_into(out);
        out.reshape_in_place(&[n, rest])?;
        Ok(())
    }

    fn out_dims(&self, in_dims: &[usize]) -> Result<Vec<usize>> {
        if in_dims.is_empty() {
            return Err(NnError::BadSpec("flatten fed a scalar".into()));
        }
        Ok(vec![in_dims[0], in_dims[1..].iter().product()])
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        self.cache_shape = Some(x.dims().to_vec());
        self.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let shape = self
            .cache_shape
            .as_ref()
            .ok_or_else(|| missing_cache("flatten"))?;
        Ok(dy.clone().reshape(shape.clone())?)
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution over `[N, C, H, W]`.
///
/// A compiled model may have a following activation fused into the
/// convolution's epilogue. There is nothing to pre-pack: the weights,
/// `[filters, c*kh*kw]` row-major, are the GEMM's `A` operand as stored.
pub struct Conv2d {
    pub w: Param,
    pub b: Param,
    pub geom: Conv2dGeom,
    /// Activation fused into the epilogue (compile pass; inference only).
    act: Option<Act>,
    cache_x: Option<Tensor>,
}

impl Conv2d {
    pub fn new(in_ch: usize, out_ch: usize, geom: Conv2dGeom, rng: &mut SmallRng) -> Self {
        let (kh, kw) = geom.kernel;
        let fan_in = in_ch * kh * kw;
        let w = crate::init::kaiming_uniform(rng, fan_in, out_ch * fan_in);
        let b = crate::init::bias_uniform(rng, fan_in, out_ch);
        Conv2d::from_params(
            Tensor::from_vec(w, [out_ch, in_ch, kh, kw]).expect("init size"),
            Tensor::from_vec(b, [out_ch]).expect("init size"),
            geom,
        )
    }

    pub(crate) fn from_params(w: Tensor, b: Tensor, geom: Conv2dGeom) -> Self {
        Conv2d {
            w: Param::new(w),
            b: Param::new(b),
            geom,
            act: None,
            cache_x: None,
        }
    }

    fn filters(&self) -> usize {
        self.w.value.dims()[0]
    }

    fn taps(&self) -> usize {
        self.w.value.numel() / self.filters().max(1)
    }
}

impl Layer for Conv2d {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor, _prec: Precision) -> Result<()> {
        ops::conv2d_fused_into(
            x,
            &self.w.value,
            self.b.value.data(),
            self.geom,
            self.act,
            out,
        )?;
        Ok(())
    }

    fn out_dims(&self, in_dims: &[usize]) -> Result<Vec<usize>> {
        if in_dims.len() != 4 {
            return Err(NnError::BadSpec(format!("conv2d fed dims {in_dims:?}")));
        }
        let (oh, ow) = self.geom.out_hw(in_dims[2], in_dims[3]);
        Ok(vec![in_dims[0], self.w.value.dims()[0], oh, ow])
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        if self.act.is_some() {
            // See Linear::train_state — compiled models are inference-only.
            return Err(compiled_for_inference("conv2d", "fused activation"));
        }
        self.cache_x = Some(x.clone());
        self.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| missing_cache("conv2d"))?;
        let (dx, dw, db) = ops::conv2d_backward(x, &self.w.value, dy, self.geom)?;
        for (g, d) in self.w.grad.data_mut().iter_mut().zip(dw.data()) {
            *g += *d;
        }
        for (g, d) in self.b.grad.data_mut().iter_mut().zip(&db) {
            *g += *d;
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn params(&self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef::Rows(self.w.value.data()),
            ParamRef::Rows(self.b.value.data()),
        ]
    }

    fn param_count(&self) -> usize {
        self.w.value.numel() + self.b.value.numel()
    }

    fn fuse_activation(&mut self, act: Act) -> bool {
        if self.act.is_some() {
            return false;
        }
        self.act = Some(act);
        true
    }

    fn scratch_hint(&self, in_dims: &[usize]) -> Result<(usize, usize)> {
        if in_dims.len() != 4 {
            return Ok((0, 0));
        }
        let (h, w) = (in_dims[2], in_dims[3]);
        let (oh, ow) = self.geom.out_hw(h, w);
        let l = checked_numel(&[oh, ow])?;
        // Per-sample staging: im2col panels filled from a zero-padded copy
        // of the sample.
        let (ph, pw) = self.geom.pad;
        let padded = checked_numel(&[in_dims[1], h + 2 * ph, w + 2 * pw])?;
        Ok((PackedB::<f32>::packed_elems(self.taps(), l), padded))
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// 2-D max pooling over `[N, C, H, W]`.
pub struct MaxPool2d {
    pub geom: Conv2dGeom,
    cache: Option<(Vec<u32>, Vec<usize>)>,
}

impl MaxPool2d {
    pub fn new(geom: Conv2dGeom) -> Self {
        MaxPool2d { geom, cache: None }
    }
}

impl Layer for MaxPool2d {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor, _prec: Precision) -> Result<()> {
        ops::maxpool2d_into(x, self.geom, out)?;
        Ok(())
    }

    fn out_dims(&self, in_dims: &[usize]) -> Result<Vec<usize>> {
        if in_dims.len() != 4 {
            return Err(NnError::BadSpec(format!("maxpool2d fed dims {in_dims:?}")));
        }
        let (oh, ow) = self.geom.out_hw(in_dims[2], in_dims[3]);
        Ok(vec![in_dims[0], in_dims[1], oh, ow])
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let (y, arg) = ops::maxpool2d(x, self.geom)?;
        self.cache = Some((arg, x.dims().to_vec()));
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let (arg, in_shape) = self
            .cache
            .as_ref()
            .ok_or_else(|| missing_cache("maxpool2d"))?;
        Ok(ops::maxpool2d_backward(dy, arg, in_shape)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    fn fd_check_input<L: Layer>(layer: &mut L, x: &Tensor, tol: f64) {
        // Loss = sum of outputs; analytic dx vs central differences.
        let y = layer.forward_train(x).unwrap();
        let dy = Tensor::full(y.dims().to_vec(), 1.0f32);
        let dx = layer.backward(&dy).unwrap();
        let eps = 1e-3f32;
        for flat in (0..x.numel()).step_by((x.numel() / 7).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fp = layer.forward(&xp).unwrap().sum();
            let fm = layer.forward(&xm).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps as f64);
            assert!(
                (fd - dx.data()[flat] as f64).abs() < tol,
                "input grad at {flat}: fd={fd}, analytic={}",
                dx.data()[flat]
            );
        }
    }

    fn sample_x(n: usize, f: usize, seed: u64) -> Tensor {
        let mut r = rng(seed);
        Tensor::from_shape_fn([n, f], |_| r.gen_range(-1.0f32..1.0))
    }

    #[test]
    fn linear_shapes_and_param_count() {
        let mut l = Linear::new(8, 3, &mut rng(1));
        let y = l.forward(&sample_x(5, 8, 2)).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
        assert_eq!(l.param_count(), 8 * 3 + 3);
        let mut n = 0;
        l.visit_params(&mut |_| n += 1);
        assert_eq!(n, 2);
    }

    /// `quantize` on a `Linear` that was never prepacked packs the f32
    /// panels first and encodes the int8 rung from them, and the bf16 rung
    /// the first time it is asked for: each rung equals packing the weights
    /// directly, in every chain weight and scale, and serves its forward.
    #[test]
    fn quantize_without_a_prepack_packs_first_then_encodes_the_rungs() {
        let (k, n) = (37, 21);
        let mut l = Linear::new(k, n, &mut rng(7));
        assert!(matches!(l.form, Form::Train { .. }));
        let (w, bias) = (l.params()[0].to_vec(), l.params()[1].to_vec());
        let w = Tensor::from_vec(w, [n, k]).unwrap();
        assert!(l.quantize(Precision::Int8));
        let Form::Serve { w: packs, .. } = &l.form else {
            panic!("the f32 rung is packed too")
        };
        assert!(packs.held(Precision::Int8).is_some());
        assert!(packs.held(Precision::Bf16).is_none(), "not served yet");
        let x = sample_x(3, k, 8);
        for prec in [Precision::Bf16, Precision::Int8] {
            let (q, want) = (
                packs.rung(prec).unwrap(),
                QPackedB::from_transb(&w, prec).unwrap(),
            );
            for j in 0..n {
                assert_eq!(
                    q.col_scale(j).to_bits(),
                    want.col_scale(j).to_bits(),
                    "{prec}"
                );
                for kk in 0..k {
                    assert_eq!(
                        q.chain_weight(j, kk).to_bits(),
                        want.chain_weight(j, kk).to_bits()
                    );
                }
            }
            let (mut got, mut direct) = (Tensor::default(), Tensor::default());
            l.forward_into(&x, &mut got, prec).unwrap();
            let epi = Epilogue::col_bias(&bias);
            quant::matmul_transb_qpacked_into(&x, &want, epi, &mut direct).unwrap();
            assert_eq!(got.data(), direct.data(), "{prec}");
        }
    }

    /// Compiling moves the weights: the layer keeps no row-major copy and
    /// no gradient, reads back the same rows, serves the same bits, and
    /// refuses training with or without a fused activation.
    #[test]
    fn prepack_moves_the_weights_into_panels() {
        let (k, n) = (9, 20);
        let x = sample_x(4, k, 31);
        for act in [None, Some(Act::Tanh)] {
            let mut l = Linear::new(k, n, &mut rng(30));
            if let Some(act) = act {
                l.fuse_activation(act);
            }
            let rows = l.params()[0].to_vec();
            let before = l.forward(&x).unwrap();
            assert!(l.prepack());
            let Form::Serve { w, .. } = &l.form else {
                panic!("prepack leaves panels")
            };
            let want = PackedB::from_transb(&Tensor::from_vec(rows.clone(), [n, k]).unwrap());
            assert_eq!(w.panels().panel_data(), want.unwrap().panel_data());
            assert!(matches!(l.params()[0], ParamRef::Packed(_)));
            assert_eq!(l.params()[0].to_vec(), rows);
            assert_eq!(l.forward(&x).unwrap().data(), before.data());
            assert_eq!(l.scratch_hint(&[4, k]).unwrap(), (0, 0));
            let refused = |r: Result<Tensor>| matches!(r, Err(NnError::Train(m)) if m.contains("compiled for inference"));
            assert!(refused(l.forward_train(&x)), "{act:?}");
            assert!(refused(l.backward(&before)), "{act:?}");
        }
    }

    #[test]
    fn linear_input_gradient_matches_fd() {
        let mut l = Linear::new(6, 4, &mut rng(3));
        fd_check_input(&mut l, &sample_x(3, 6, 4), 1e-2);
    }

    /// A trainable `Linear`'s weights and bias.
    fn train_params(l: &mut Linear) -> (&mut Param, &mut Param) {
        match &mut l.form {
            Form::Train { w, b, .. } => (w, b),
            Form::Serve { .. } => panic!("compiled"),
        }
    }

    #[test]
    fn linear_weight_gradient_matches_fd() {
        let mut l = Linear::new(4, 2, &mut rng(5));
        let x = sample_x(3, 4, 6);
        let y = l.forward_train(&x).unwrap();
        let dy = Tensor::full(y.dims().to_vec(), 1.0f32);
        l.backward(&dy).unwrap();
        let eps = 1e-3f32;
        for flat in 0..4 * 2 {
            let w = |l: &mut Linear, v: Option<f32>| {
                let w = &mut train_params(l).0.value.data_mut()[flat];
                *w = v.unwrap_or(*w);
                *w
            };
            let orig = w(&mut l, None);
            w(&mut l, Some(orig + eps));
            let fp = l.forward(&x).unwrap().sum();
            w(&mut l, Some(orig - eps));
            let fm = l.forward(&x).unwrap().sum();
            w(&mut l, Some(orig));
            let fd = (fp - fm) / (2.0 * eps as f64);
            let grad = train_params(&mut l).0.grad.data()[flat];
            assert!((fd - grad as f64).abs() < 1e-2, "w[{flat}]");
        }
        // Bias gradient of a sum-loss is the batch size.
        for g in train_params(&mut l).1.grad.data() {
            assert!((*g - 3.0).abs() < 1e-4);
        }
    }

    #[test]
    fn activations_match_fd() {
        fd_check_input(&mut ReLU::default(), &sample_x(4, 5, 7), 2e-2);
        fd_check_input(&mut Tanh::default(), &sample_x(4, 5, 8), 1e-2);
        fd_check_input(&mut Sigmoid::default(), &sample_x(4, 5, 9), 1e-2);
    }

    #[test]
    fn relu_clamps_negative() {
        let x = Tensor::from_vec(vec![-1.0f32, 0.0, 2.0], [1, 3]).unwrap();
        let y = ReLU::default().forward(&x).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn dropout_train_scales_and_infer_is_identity() {
        let x = Tensor::full([1, 10_000], 1.0f32);
        let mut d = Dropout::new(0.4, 42);
        let y = d.forward_train(&x).unwrap();
        // Kept entries are scaled by 1/keep; mean stays ~1.
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
        let zeros = y.data().iter().filter(|v| **v == 0.0).count();
        assert!((zeros as f64 / 10_000.0 - 0.4).abs() < 0.05);
        // Inference path: identity.
        let yi = d.forward(&x).unwrap();
        assert_eq!(yi.data(), x.data());
        // Backward applies the same mask.
        let dx = d.backward(&Tensor::full([1, 10_000], 1.0f32)).unwrap();
        assert_eq!(dx.data().iter().filter(|v| **v == 0.0).count(), zeros);
    }

    #[test]
    fn dropout_p_zero_is_identity_in_train() {
        let x = sample_x(2, 8, 10);
        let mut d = Dropout::new(0.0, 1);
        assert_eq!(d.forward_train(&x).unwrap().data(), x.data());
    }

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::<f32>::from_shape_fn([2, 3, 4], |ix| (ix[0] + ix[1] + ix[2]) as f32);
        let mut f = Flatten::default();
        let y = f.forward_train(&x).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let back = f.backward(&y).unwrap();
        assert_eq!(back.dims(), &[2, 3, 4]);
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn conv2d_layer_input_gradient_matches_fd() {
        let mut c = Conv2d::new(2, 3, Conv2dGeom::square(3, 1, 1), &mut rng(11));
        let mut r = rng(12);
        let x = Tensor::from_shape_fn([1, 2, 5, 5], |_| r.gen_range(-1.0f32..1.0));
        fd_check_input(&mut c, &x, 3e-2);
        assert_eq!(c.param_count(), 3 * 2 * 9 + 3);
    }

    #[test]
    fn maxpool_layer_backward_routes_gradient() {
        let mut r = rng(13);
        let x = Tensor::from_shape_fn([1, 1, 4, 4], |_| r.gen_range(-1.0f32..1.0));
        let mut p = MaxPool2d::new(Conv2dGeom::square(2, 2, 0));
        let y = p.forward_train(&x).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        let dx = p.backward(&Tensor::full([1, 1, 2, 2], 1.0f32)).unwrap();
        assert_eq!(dx.sum(), 4.0);
    }

    /// Training and inference run the same values: for every layer kind,
    /// `forward_train` equals `forward_into(.., F32)` bit for bit — at
    /// activations past `map_into`'s parallel split, on a two-worker pool,
    /// and equal to the same forward on a serial pool.
    #[test]
    fn forward_train_equals_the_inference_forward_for_every_layer_kind() {
        let mut r = rng(21);
        let img = Tensor::from_shape_fn([4, 4, 128, 128], |_| r.gen_range(-2.0f32..2.0));
        let rows = Tensor::from_shape_fn([1024, 64], |_| r.gen_range(-2.0f32..2.0));
        assert!(img.numel() >= 1 << 16 && rows.numel() >= 1 << 16);
        let cases: Vec<(Box<dyn Layer>, &Tensor)> = vec![
            (Box::new(Linear::new(64, 64, &mut rng(22))), &rows),
            (Box::new(ReLU::default()), &img),
            (Box::new(Tanh::default()), &img),
            (Box::new(Sigmoid::default()), &img),
            (Box::new(Dropout::new(0.0, 23)), &img),
            (Box::new(Flatten::default()), &img),
            (
                Box::new(Conv2d::new(4, 4, Conv2dGeom::square(3, 1, 1), &mut rng(24))),
                &img,
            ),
            (Box::new(MaxPool2d::new(Conv2dGeom::square(2, 2, 0))), &img),
        ];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (pooled, serial) = (hpacml_par::Pool::new(2), hpacml_par::Pool::new(0));
        for (mut layer, x) in cases {
            let (trained, inferred) = hpacml_par::with_pool(&pooled, || {
                let mut y = Tensor::default();
                layer.forward_into(x, &mut y, Precision::F32).unwrap();
                (layer.forward_train(x).unwrap(), y)
            });
            let once = hpacml_par::with_pool(&serial, || layer.forward(x).unwrap());
            assert_eq!(trained.dims(), inferred.dims(), "{}", layer.name());
            assert!(bits(&trained) == bits(&inferred), "{}", layer.name());
            assert!(bits(&once) == bits(&inferred), "{} serial", layer.name());
        }
    }

    /// The hint's element counts are checked products: a conv input whose
    /// im2col columns overflow a `usize` is an error, not a wrapped size.
    #[test]
    fn conv_scratch_hint_of_an_overflowing_input_is_an_error() {
        let c = Conv2d::new(1, 4, Conv2dGeom::square(3, 1, 1), &mut rng(25));
        assert!(c.scratch_hint(&[1, 1, 8, 8]).is_ok());
        assert!(c.scratch_hint(&[1, 1, 1 << 33, 1 << 33]).is_err());
    }

    #[test]
    fn backward_without_forward_train_errors() {
        let mut l = Linear::new(2, 2, &mut rng(14));
        let dy = Tensor::zeros([1, 2]);
        assert!(matches!(l.backward(&dy), Err(NnError::Train(_))));
    }
}
