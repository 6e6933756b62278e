//! Layers with hand-derived backward passes.
//!
//! Each layer offers two forward entry points: a pure `forward` used by the
//! inference engine (no mutation, shareable across threads) and a caching
//! `forward_train` used by the training loop, whose cached activations feed
//! `backward`.

use crate::{NnError, Result};
use hpacml_tensor::gemm::{self, Act, Epilogue, PackedB};
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::quant::{self, Precision, QPackedB};
use hpacml_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::Rng;

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

    /// Pure forward pass (inference). Must not mutate the layer.
    fn forward(&self, x: &Tensor) -> Result<Tensor>;

    /// Pure forward pass writing into a caller-owned output tensor (resized
    /// in place). Built-in layers override this to be allocation-free once
    /// `out` has capacity — the contract the zero-alloc inference workspace
    /// relies on. The default falls back to [`Layer::forward`] + move.
    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
        *out = self.forward(x)?;
        Ok(())
    }

    /// Output dims (batch-inclusive) for a given input dims, without running
    /// the layer. Default: shape-preserving (correct for activations and
    /// dropout; shape-changing layers override).
    fn out_dims(&self, in_dims: &[usize]) -> Result<Vec<usize>> {
        Ok(in_dims.to_vec())
    }

    /// Caching forward pass (training). Default: same as `forward`.
    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        self.forward(x)
    }

    /// Backward pass: gradient w.r.t. the layer input, accumulating parameter
    /// gradients. Requires a preceding `forward_train`.
    fn backward(&mut self, dy: &Tensor) -> Result<Tensor>;

    /// Visit every trainable parameter (deterministic order).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// The same parameters in the same order, read-only: nothing to
    /// refresh afterwards, so a compiled layer is left exactly as it is.
    fn params(&self) -> Vec<&Param> {
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
    /// fuse (`ReLU`/`Tanh`/`Sigmoid`), say which.
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

    /// Pre-pack immutable weights into the panel layout the steady-state
    /// inference kernels read (once, at model load). Returns `true` if
    /// anything was packed.
    fn prepack(&mut self) -> bool {
        false
    }

    /// `(b_pack_elems, col_elems)` of per-thread GEMM scratch one forward
    /// pass at `in_dims` (batch included) may use — lets workspaces
    /// pre-size the scratch (on every pool thread, via
    /// `hpacml_par::broadcast`) so even a session's first invocation
    /// allocates nothing. `b` covers uncompiled `Linear` weight panels and
    /// the conv GEMM routes' im2col panels, `col` the other conv staging
    /// (the GEMM routes' zero-padded sample, the strided direct route's
    /// im2col columns).
    fn scratch_hint(&self, _in_dims: &[usize]) -> (usize, usize) {
        (0, 0)
    }

    /// Pure forward pass at a serving precision. Layers that carry
    /// reduced-precision weight packs (see [`Layer::quantize`]) route to
    /// their quantized kernel; everything else — and every layer at
    /// `F32` — falls back to [`Layer::forward_into`]. A layer asked for a
    /// precision it has no pack for serves the next finer one it does
    /// have (int8 → bf16 → f32), so a mixed-precision model is always
    /// well-defined at every ladder rung.
    fn forward_into_at(&self, x: &Tensor, out: &mut Tensor, _prec: Precision) -> Result<()> {
        self.forward_into(x, out)
    }

    /// Build reduced-precision weight packs so the layer can serve at
    /// `target` — and at every finer rung of the demotion ladder up to
    /// f32, since the online-validation controller may demote at any
    /// time. Returns `true` if anything was quantized. `F32` is a no-op
    /// (the f32 panels from [`Layer::prepack`] are that rung).
    fn quantize(&mut self, _target: Precision) -> bool {
        false
    }
}

fn missing_cache(layer: &'static str) -> NnError {
    NnError::Train(format!("{layer}: backward called without forward_train"))
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = act(x·Wᵀ + b)`, weights stored `[out, in]`.
///
/// Bias — and, once the inference compile pass has fused a following
/// activation into this layer, the activation too — is applied in the GEMM
/// epilogue while each output tile is register-hot. Compiled models also
/// carry the weights pre-packed into [`PackedB`] panels so steady-state
/// forwards never repack.
pub struct Linear {
    pub w: Param,
    pub b: Param,
    /// Panel-packed weights (compile pass; inference only).
    packed: Option<PackedB<f32>>,
    /// Reduced-precision weight panels (quantize pass; inference only).
    /// Both rungs below f32 are kept so the validation-driven demotion
    /// ladder (int8 → bf16 → f32) can move without repacking.
    q_bf16: Option<QPackedB>,
    q_int8: Option<QPackedB>,
    /// Activation fused into the epilogue (compile pass; inference only).
    act: Option<Act>,
    cache_x: Option<Tensor>,
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

    /// Every parameter zero and no random draw: what a loader fills in.
    pub(crate) fn zeroed(in_features: usize, out_features: usize) -> Self {
        Linear::from_params(
            Tensor::zeros([out_features, in_features]),
            Tensor::zeros([out_features]),
        )
    }

    pub(crate) fn from_params(w: Tensor, b: Tensor) -> Self {
        Linear {
            w: Param::new(w),
            b: Param::new(b),
            packed: None,
            q_bf16: None,
            q_int8: None,
            act: None,
            cache_x: None,
        }
    }

    pub fn in_features(&self) -> usize {
        self.w.value.dims()[1]
    }

    pub fn out_features(&self) -> usize {
        self.w.value.dims()[0]
    }

    /// The quantized pack serving requests at `prec`, honoring the
    /// fallthrough rule (a missing int8 pack serves bf16; a missing bf16
    /// pack serves f32 — i.e. `None`).
    fn qpack_for(&self, prec: Precision) -> Option<&QPackedB> {
        match prec {
            Precision::Int8 => self.q_int8.as_ref().or(self.q_bf16.as_ref()),
            Precision::Bf16 => self.q_bf16.as_ref(),
            Precision::F32 => None,
        }
    }
}

impl Layer for Linear {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut y = Tensor::default();
        self.forward_into(x, &mut y)?;
        Ok(y)
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
        let epi = Epilogue::col_bias(self.b.value.data()).with_act(self.act);
        match &self.packed {
            Some(p) => gemm::matmul_transb_packed_into(x, p, epi, out)?,
            None => ops::matmul_transb_into(x, &self.w.value, out, epi)?,
        }
        Ok(())
    }

    fn forward_into_at(&self, x: &Tensor, out: &mut Tensor, prec: Precision) -> Result<()> {
        match self.qpack_for(prec) {
            Some(q) => {
                let epi = Epilogue::col_bias(self.b.value.data()).with_act(self.act);
                quant::matmul_transb_qpacked_into(x, q, epi, out)?;
                Ok(())
            }
            None => self.forward_into(x, out),
        }
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
        if self.act.is_some() {
            // The following activation layer was removed by the fusion pass;
            // backward would silently skip its gradient. Compiled models are
            // inference-only — rebuild from the spec to train.
            return Err(NnError::Train(
                "linear: layer was compiled for inference (fused activation); \
                 rebuild the model from its spec to train"
                    .into(),
            ));
        }
        self.cache_x = Some(x.clone());
        self.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| missing_cache("linear"))?;
        // dW[out, in] += dyᵀ[out, N] · x[N, in]
        let dw = ops::matmul_transa(dy, x)?;
        for (g, d) in self.w.grad.data_mut().iter_mut().zip(dw.data()) {
            *g += *d;
        }
        // db[out] += column sums of dy.
        let out = self.out_features();
        for row in dy.data().chunks_exact(out) {
            for (g, d) in self.b.grad.data_mut().iter_mut().zip(row) {
                *g += *d;
            }
        }
        // dx[N, in] = dy[N, out] · W[out, in]
        Ok(ops::matmul(dy, &self.w.value)?)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
        // Callers may have mutated the weights through the visit
        // (`import_weights`, snapshot restores); refresh the panels so a
        // compiled layer never reads stale packs — and never silently loses
        // its packed steady state to a visit that changed nothing. Training
        // loops visit every step, but compiled layers refuse training, so
        // this repack only runs on occasional administrative visits.
        if self.packed.is_some() {
            self.prepack();
        }
        // Same stale-pack protection for the quantized rungs.
        if self.q_int8.is_some() {
            self.quantize(Precision::Int8);
        } else if self.q_bf16.is_some() {
            self.quantize(Precision::Bf16);
        }
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn param_count(&self) -> usize {
        self.w.value.numel() + self.b.value.numel()
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
        self.packed = Some(PackedB::from_transb(&self.w.value).expect("weights are rank 2"));
        true
    }

    fn quantize(&mut self, target: Precision) -> bool {
        if target == Precision::F32 {
            return false;
        }
        // Build every rung from `target` up: the validation controller
        // may demote int8 → bf16 → f32 at runtime, and each hop must be
        // a pointer swap, not a repack. The f32 rung is the plain packed
        // panels — ensure they exist so demotion lands on the fast path.
        self.q_bf16 = Some(
            QPackedB::from_transb(&self.w.value, Precision::Bf16).expect("weights are rank 2"),
        );
        if target == Precision::Int8 {
            self.q_int8 = Some(
                QPackedB::from_transb(&self.w.value, Precision::Int8).expect("weights are rank 2"),
            );
        } else {
            // A bf16-target model must not keep serving a coarser rung.
            self.q_int8 = None;
        }
        if self.packed.is_none() {
            self.prepack();
        }
        true
    }

    fn scratch_hint(&self, _in_dims: &[usize]) -> (usize, usize) {
        if self.packed.is_some() {
            (0, 0) // steady state never repacks
        } else {
            let b = PackedB::<f32>::packed_elems(self.in_features(), self.out_features());
            (b, 0)
        }
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Default)]
pub struct ReLU {
    cache_x: Option<Tensor>,
}

impl Layer for ReLU {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(x.map(|v| v.max(0.0)))
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
        x.map_into(out, |v| v.max(0.0));
        Ok(())
    }

    fn as_activation(&self) -> Option<Act> {
        Some(Act::Relu)
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        self.cache_x = Some(x.clone());
        self.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let x = self.cache_x.as_ref().ok_or_else(|| missing_cache("relu"))?;
        let mut dx = dy.clone();
        for (d, xv) in dx.data_mut().iter_mut().zip(x.data()) {
            if *xv <= 0.0 {
                *d = 0.0;
            }
        }
        Ok(dx)
    }
}

/// Hyperbolic tangent. Uses the same vectorizable `tanh` the fused GEMM
/// epilogue applies ([`hpacml_tensor::Scalar::tanh_activation`]), so a
/// fused `Linear→Tanh` pair and this standalone layer are bit-identical.
#[derive(Default)]
pub struct Tanh {
    cache_y: Option<Tensor>,
}

impl Layer for Tanh {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(x.map(hpacml_tensor::Scalar::tanh_activation))
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
        x.map_into(out, hpacml_tensor::Scalar::tanh_activation);
        Ok(())
    }

    fn as_activation(&self) -> Option<Act> {
        Some(Act::Tanh)
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let y = self.forward(x)?;
        self.cache_y = Some(y.clone());
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let y = self.cache_y.as_ref().ok_or_else(|| missing_cache("tanh"))?;
        let mut dx = dy.clone();
        for (d, yv) in dx.data_mut().iter_mut().zip(y.data()) {
            *d *= 1.0 - yv * yv;
        }
        Ok(dx)
    }
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid {
    cache_y: Option<Tensor>,
}

impl Layer for Sigmoid {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(x.map(|v| 1.0 / (1.0 + (-v).exp())))
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
        x.map_into(out, |v| 1.0 / (1.0 + (-v).exp()));
        Ok(())
    }

    fn as_activation(&self) -> Option<Act> {
        Some(Act::Sigmoid)
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let y = self.forward(x)?;
        self.cache_y = Some(y.clone());
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let y = self
            .cache_y
            .as_ref()
            .ok_or_else(|| missing_cache("sigmoid"))?;
        let mut dx = dy.clone();
        for (d, yv) in dx.data_mut().iter_mut().zip(y.data()) {
            *d *= yv * (1.0 - yv);
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

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(x.clone())
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
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

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        Ok(x.clone().reshape([n, rest])?)
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
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

    /// Every parameter zero and no random draw: what a loader fills in.
    pub(crate) fn zeroed(in_ch: usize, out_ch: usize, geom: Conv2dGeom) -> Self {
        let (kh, kw) = geom.kernel;
        Conv2d::from_params(
            Tensor::zeros([out_ch, in_ch, kh, kw]),
            Tensor::zeros([out_ch]),
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

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut y = Tensor::default();
        self.forward_into(x, &mut y)?;
        Ok(y)
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
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
            // See Linear::forward_train — compiled models are inference-only.
            return Err(NnError::Train(
                "conv2d: layer was compiled for inference (fused activation); \
                 rebuild the model from its spec to train"
                    .into(),
            ));
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

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
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

    fn scratch_hint(&self, in_dims: &[usize]) -> (usize, usize) {
        if in_dims.len() != 4 {
            return (0, 0);
        }
        let (h, w) = (in_dims[2], in_dims[3]);
        let (oh, ow) = self.geom.out_hw(h, w);
        let l = oh * ow;
        let ckk = self.taps();
        // Per-sample staging: the GEMM route fills im2col panels from a
        // zero-padded copy of the sample, the strided direct route im2col
        // columns.
        if ops::conv_gemm_worthwhile(self.filters(), ckk, l) {
            let (ph, pw) = self.geom.pad;
            let padded = in_dims[1] * (h + 2 * ph) * (w + 2 * pw);
            (PackedB::<f32>::packed_elems(ckk, l), padded)
        } else if self.geom.stride != (1, 1) {
            (0, ckk * l)
        } else {
            (0, 0)
        }
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

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(ops::maxpool2d(x, self.geom)?.0)
    }

    fn forward_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
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

    #[test]
    fn linear_input_gradient_matches_fd() {
        let mut l = Linear::new(6, 4, &mut rng(3));
        fd_check_input(&mut l, &sample_x(3, 6, 4), 1e-2);
    }

    #[test]
    fn linear_weight_gradient_matches_fd() {
        let mut l = Linear::new(4, 2, &mut rng(5));
        let x = sample_x(3, 4, 6);
        let y = l.forward_train(&x).unwrap();
        let dy = Tensor::full(y.dims().to_vec(), 1.0f32);
        l.backward(&dy).unwrap();
        let eps = 1e-3f32;
        for flat in 0..l.w.value.numel() {
            let orig = l.w.value.data()[flat];
            l.w.value.data_mut()[flat] = orig + eps;
            let fp = l.forward(&x).unwrap().sum();
            l.w.value.data_mut()[flat] = orig - eps;
            let fm = l.forward(&x).unwrap().sum();
            l.w.value.data_mut()[flat] = orig;
            let fd = (fp - fm) / (2.0 * eps as f64);
            assert!(
                (fd - l.w.grad.data()[flat] as f64).abs() < 1e-2,
                "w[{flat}]"
            );
        }
        // Bias gradient of a sum-loss is the batch size.
        for g in l.b.grad.data() {
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

    #[test]
    fn backward_without_forward_train_errors() {
        let mut l = Linear::new(2, 2, &mut rng(14));
        let dy = Tensor::zeros([1, 2]);
        assert!(matches!(l.backward(&dy), Err(NnError::Train(_))));
    }
}
