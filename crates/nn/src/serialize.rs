//! `.hml` model files — the reproduction's TorchScript.
//!
//! A saved model is self-contained: architecture spec, trained weights, and
//! the input/output normalizers fitted during training, so a deployed model
//! maps *raw application values* to *raw application values*. The HPAC-ML
//! runtime loads these by path (the `model("...")` clause).
//!
//! Format v3 is a sequence of the store's checksummed frames
//! ([`hpacml_store::frame`]), little-endian:
//!
//! ```text
//! file    : magic "HMLMODEL", version u8 = 3, Header, Weights*, End
//! frame   : cksum:u64, len:u64, body (len bytes)
//! body    : kind:u8, then  0 = Header | 1 = Weights | 2 = End (empty)
//! Header  : prec:u8, spec, norm_in, norm_out, n_tensors:u32, numel:u64*
//! Weights : tensor:u32, first:u64, count:u64, f32* (count values, <= 1 MiB)
//! spec    : rank:u32, input_dims:u64*, n_layers:u32, layer*
//! layer   : tag:u8 + per-variant fields (u64 ints / f32 floats)
//! norm    : present:u8 [axis:u8, len:u32, mean:f32*, std:f32*]
//! ```
//!
//! **One pass, one copy.** [`save_model`] encodes each parameter tensor in
//! row-major order, straight from where its layer keeps it (a trained
//! tensor, or a compiled `Linear`'s packed panels, read back row by row),
//! through one reusable 1 MiB buffer, a frame at a time (each hashed beside
//! its write, [`write_frame`]), into `<path>.tmp`; then `fsync`, rename,
//! directory sync — a crash leaves the old file or the new one, never a torn
//! one (a failed save can leave the `.tmp` behind; the next save overwrites
//! it). A loaded model therefore saves exactly the bytes it was loaded from.
//! Fault seams: `nn.save.write` before the first weight byte, `.sync` before
//! the `fsync`, `.rename` before the rename. [`load_model`] reads a frame at
//! a time into one buffer and builds the network layer by layer as their
//! frames arrive, *without* drawing random weights: it decodes each verified
//! `Weights` frame in place into its tensor — for a `Linear`'s weights,
//! straight into the panels the kernels read, so the row-major matrix, a
//! staging copy and a gradient never exist. Besides that buffer, the only
//! weight-sized memory a load holds is the model it returns.
//!
//! **Verified before allocated.** A frame's length is checked against the
//! bytes the file really has before its buffer grows, its checksum before
//! its body is read, every count in a body against the body's own length
//! before anything is sized by it, the spec's parameter bytes (checked
//! arithmetic) against what is left of the file before the network is
//! built. (A `Linear`'s panels round its outputs up to whole 16-lane
//! panels, so they hold at most 16× its weight bytes — what compiling the
//! decoded rows has always allocated.) `Weights` frames must cover tensor 0
//! from element 0, then tensor 1, … each exactly once and in order; `End`
//! must follow and the file end there. Anything else is
//! `NnError::Serialize`, never a model.
//!
//! v3 is the only version [`load_model`] reads. A file of any other
//! version — the unframed v1/v2 layouts included — is
//! `NnError::Serialize("unsupported .hml version N")`.
//!
//! Weights are always stored at full f32 precision; the precision byte
//! only records the *serving* target. The quantized packs are rebuilt
//! deterministically from the weights: each `Linear`'s f32 weights are
//! packed into panels once (by the loader, or by the compile pass on a
//! built model); the target's pack is encoded from those panels at
//! load/compile time, and a finer rung (bf16 under an int8 target) the
//! first time it is served (bf16 round-to-nearest-even and int8 abs-max
//! scales are pure functions of the weights, so the bits do not depend on
//! when). A model file never bakes in quantization error twice.

use crate::data::{NormAxis, Normalizer};
use crate::fuse::PrecisionPolicy;
use crate::layer::{Conv2d, Linear};
use crate::model::Sequential;
use crate::spec::{LayerSpec, ModelSpec};
use crate::workspace::{checked_numel, with_thread_workspace, InferWorkspace};
use crate::{NnError, Result};
use hpacml_faults::fault_point;
use hpacml_store::frame::{rename_synced, write_frame, Cursor, FrameReader, Truncated};
use hpacml_tensor::gemm::{InputColumns, PackedB};
use hpacml_tensor::ops::Conv2dGeom;
use hpacml_tensor::quant::Precision;
use hpacml_tensor::Tensor;
use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;

const MAGIC: &[u8; 8] = b"HMLMODEL";
const VERSION: u8 = 3;
const HEADER: u8 = 0;
const WEIGHTS: u8 = 1;
const END: u8 = 2;
/// Values per `Weights` frame (1 MiB of payload) — and the size of the one
/// buffer weights pass through, either way.
const FRAME_ELEMS: usize = 1 << 18;

impl std::fmt::Debug for SavedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SavedModel")
            .field("spec", &self.spec.summary())
            .field("params", &self.param_count())
            .field("precision", &self.precision)
            .field("in_norm", &self.in_norm.is_some())
            .field("out_norm", &self.out_norm.is_some())
            .finish()
    }
}

/// A deserialized, inference-ready model.
pub struct SavedModel {
    pub spec: ModelSpec,
    pub model: Sequential,
    pub in_norm: Option<Normalizer>,
    pub out_norm: Option<Normalizer>,
    /// Serving precision target (the coarsest ladder rung this model was
    /// saved/quantized for). `F32` for unquantized models.
    pub precision: Precision,
}

impl SavedModel {
    /// End-to-end inference on raw application-space data: normalize input,
    /// run the network, denormalize output.
    ///
    /// Routes through this thread's shared [`InferWorkspace`], so repeated
    /// calls reuse the activation arenas; only the returned output tensor is
    /// allocated. Hot loops that want the last allocation gone should hold a
    /// workspace and call [`SavedModel::infer_with`] directly.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        with_thread_workspace(|ws| Ok(self.infer_with(ws, x)?.clone()))
    }

    /// End-to-end inference into a caller-owned workspace. Steady-state
    /// allocation-free: normalization stages into `ws`, the forward pass
    /// ping-pongs inside `ws`, and denormalization happens in place on the
    /// returned output buffer.
    pub fn infer_with<'w>(&self, ws: &'w mut InferWorkspace, x: &Tensor) -> Result<&'w mut Tensor> {
        self.infer_with_at(ws, x, self.precision)
    }

    /// [`SavedModel::infer_with`] at an explicit serving precision —
    /// the hook the validation-driven demotion ladder uses to move
    /// between int8/bf16/f32 without touching the model. Layers missing
    /// a pack for `prec` serve the next finer one they have.
    pub fn infer_with_at<'w>(
        &self,
        ws: &'w mut InferWorkspace,
        x: &Tensor,
        prec: Precision,
    ) -> Result<&'w mut Tensor> {
        let y = match &self.in_norm {
            Some(n) => {
                n.transform_into(x, &mut ws.staged);
                ws.fw.forward_at(&self.model, &ws.staged, prec)?
            }
            None => ws.fw.forward_at(&self.model, x, prec)?,
        };
        if let Some(n) = &self.out_norm {
            n.inverse_in_place(y);
        }
        Ok(y)
    }

    /// [`SavedModel::infer_with_at`] on an input read in place (see
    /// [`ForwardWorkspace::forward_columns_at`](crate::ForwardWorkspace::forward_columns_at)):
    /// the same bits, without the gathered `[m, k]` tensor. `None` — the
    /// caller gathers — when the model normalizes its input (the
    /// normalizer reads a gathered tensor) or does not start with a narrow
    /// chain at `prec`.
    pub fn infer_columns_at<'w>(
        &self,
        ws: &'w mut InferWorkspace,
        x: &dyn InputColumns,
        prec: Precision,
    ) -> Result<Option<&'w mut Tensor>> {
        if self.in_norm.is_some() {
            return Ok(None);
        }
        let mut y = ws.fw.forward_columns_at(&self.model, x, prec)?;
        if let (Some(y), Some(n)) = (&mut y, &self.out_norm) {
            n.inverse_in_place(y);
        }
        Ok(y)
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.spec.param_count()
    }

    /// Pre-size `ws` for inference on inputs of `in_dims` (batch dimension
    /// included): the normalization staging buffer, both forward arenas and
    /// the calling thread's per-layer GEMM scratch (weight-pack panels,
    /// im2col columns — see [`crate::ForwardWorkspace::reserve`] for the
    /// pool-worker caveat) grow once, so every later
    /// [`SavedModel::infer_with`] call at that batch — or any smaller one —
    /// performs zero heap allocation.
    /// Compiled sessions call this with their `max_batch` input shape at
    /// warm-up. Returns the widest activation element count (see
    /// [`crate::ForwardWorkspace::reserve`]).
    pub fn reserve_workspace(&self, ws: &mut InferWorkspace, in_dims: &[usize]) -> Result<usize> {
        if self.in_norm.is_some() {
            ws.staged.try_reserve(checked_numel(in_dims)?)?;
        }
        ws.fw.reserve(&self.model, in_dims)
    }

    /// Compile the contained network for inference: drop inference-identity
    /// layers, fuse `Linear`/`Conv2d` → activation pairs into GEMM epilogues
    /// and move the (immutable) weights into panel layouts — see
    /// [`crate::fuse`]. Bit-preserving for inference; applied automatically
    /// by [`load_model`], so every model resolved through the engine runs
    /// the steady-state kernels. A compiled model is inference-only.
    pub fn compile(&mut self) -> crate::fuse::CompileInfo {
        crate::fuse::compile_for_inference_with(
            &mut self.model,
            &PrecisionPolicy {
                target: self.precision,
                ..Default::default()
            },
        )
    }

    /// Quantize the (already compiled) model for serving at `target`:
    /// encodes the target's weight pack on every layer that supports one
    /// (a finer rung is encoded the first time it is served) and records
    /// the target as the model's serving precision.
    /// Returns the number of layers quantized. `F32` reverts the serving
    /// precision without touching existing packs.
    pub fn quantize(&mut self, target: Precision) -> usize {
        self.precision = target;
        if target == Precision::F32 {
            return 0;
        }
        let mut n = 0;
        for l in self.model.layers_mut().iter_mut() {
            if l.quantize(target) {
                n += 1;
            }
        }
        n
    }
}

/// Serialize a trained model (plus normalizers) to `path` at the default
/// f32 serving precision.
pub fn save_model(
    path: impl AsRef<Path>,
    spec: &ModelSpec,
    model: &Sequential,
    in_norm: Option<&Normalizer>,
    out_norm: Option<&Normalizer>,
) -> Result<()> {
    save_model_with_precision(path, spec, model, in_norm, out_norm, Precision::F32)
}

/// [`save_model`] with an explicit serving-precision target. Weights are
/// still stored at f32 (see the module docs); the byte only tells loaders
/// which ladder rung to quantize for.
pub(crate) fn save_model_with_precision(
    path: impl AsRef<Path>,
    spec: &ModelSpec,
    model: &Sequential,
    in_norm: Option<&Normalizer>,
    out_norm: Option<&Normalizer>,
    precision: Precision,
) -> Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let params = model.params();
    let mut head = vec![HEADER, precision.tag()];
    encode_spec(&mut head, spec);
    encode_norm(&mut head, in_norm);
    encode_norm(&mut head, out_norm);
    head.extend((params.len() as u32).to_le_bytes());
    for p in &params {
        head.extend((p.numel() as u64).to_le_bytes());
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let f = File::create(&tmp)?;
    f.write_all_at(&[&MAGIC[..], &[VERSION]].concat(), 0)?;
    let mut at = 9 + write_frame(&f, 9, &head, &[])?;
    fault_point!("nn.save.write");
    let mut buf = Vec::new();
    for (tensor, p) in params.iter().enumerate() {
        let numel = p.numel();
        for first in (0..numel).step_by(FRAME_ELEMS) {
            let count = FRAME_ELEMS.min(numel - first);
            let mut head = vec![WEIGHTS];
            head.extend((tensor as u32).to_le_bytes());
            head.extend((first as u64).to_le_bytes());
            head.extend((count as u64).to_le_bytes());
            buf.resize(count * 4, 0);
            p.encode_le(first, &mut buf);
            at += write_frame(&f, at, &head, &buf)?;
        }
    }
    write_frame(&f, at, &[END], &[])?;
    fault_point!("nn.save.sync");
    f.sync_all()?;
    fault_point!("nn.save.rename");
    Ok(rename_synced(tmp.as_ref(), path)?)
}

/// Load a `.hml` model from disk and rebuild the network with its weights.
pub fn load_model(path: impl AsRef<Path>) -> Result<SavedModel> {
    let mut f = File::open(path.as_ref())?;
    let mut magic = [0u8; 9];
    let Some(left) = f.metadata()?.len().checked_sub(9) else {
        return Err(bad("file too short"));
    };
    f.read_exact(&mut magic)?;
    if magic[..8] != MAGIC[..] {
        return Err(bad("not an .hml model (bad magic)"));
    }
    if magic[8] != VERSION {
        return Err(bad(format!("unsupported .hml version {}", magic[8])));
    }
    let mut saved = load_v3(FrameReader::new(f, left))?;
    // Models loaded from disk are inference models: compile once here
    // (fusion + weight pre-packing + quantization at the recorded
    // serving precision) so every forward pass downstream — engine cache
    // hits, compiled sessions, batched invokes — runs the steady-state
    // kernels without ever repacking. The read buffer is gone by now.
    saved.compile();
    Ok(saved)
}

fn bad(msg: impl Into<String>) -> NnError {
    NnError::Serialize(msg.into())
}

/// The body of the next frame, which must verify and be of `kind`.
fn next_body(frames: &mut FrameReader<File>, kind: u8) -> Result<&[u8]> {
    match frames.next_frame()? {
        None => Err(bad("truncated file: a frame is cut short or missing")),
        Some(frame) if !frame.sound => Err(bad("a frame fails its checksum")),
        Some(frame) => match frame.body.split_first() {
            Some((&k, body)) if k == kind => Ok(body),
            _ => Err(bad(format!("expected a frame of kind {kind}"))),
        },
    }
}

fn load_v3(frames: FrameReader<File>) -> Result<SavedModel> {
    let mut weights = Weights {
        frames,
        numels: Vec::new(),
        tensor: 0,
    };
    let mut cur = Cursor::new(next_body(&mut weights.frames, HEADER)?);
    let mut saved = decode_header(&mut cur)?;
    let n = cur.u32()? as usize;
    if n.checked_mul(8) != Some(cur.remaining()) {
        return Err(bad(format!("header lists {n} tensors in the wrong space")));
    }
    weights.numels = (0..n).map(|_| Ok(cur.u64()?)).collect::<Result<_>>()?;
    let bytes = saved.spec.checked_param_count();
    let bytes = bytes.and_then(|n| u64::try_from(n).ok()?.checked_mul(4));
    if bytes.is_none_or(|b| b > weights.frames.left()) {
        return Err(bad("spec has more parameters than the file has bytes"));
    }
    // Each layer is built from its frames as they are read: a `Linear`'s
    // weights are decoded straight into its panels, so the row-major matrix
    // never exists.
    let model = saved.spec.instantiate(0, |layer| {
        Ok(Some(match *layer {
            LayerSpec::Linear {
                in_features: k,
                out_features: n,
            } => {
                let mut w = PackedB::zeroed(k, n);
                weights.next_tensor(n * k, |first, le| w.write_rows(first, f32s(le)))?;
                Box::new(Linear::from_panels(w, weights.next_vec(n)?))
            }
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
            } => {
                let dims = [out_ch, in_ch, kernel, kernel];
                let w = Tensor::from_vec(weights.next_vec(dims.iter().product())?, dims)?;
                let b = Tensor::from_vec(weights.next_vec(out_ch)?, [out_ch])?;
                let geom = Conv2dGeom::square(kernel, stride, pad);
                Box::new(Conv2d::from_params(w, b, geom))
            }
            _ => return Ok(None),
        }))
    });
    saved.model = model.map_err(|e| match e {
        NnError::BadSpec(e) => bad(format!("spec does not build: {e}")),
        e => e,
    })?;
    if weights.tensor != n {
        let tensors = weights.tensor;
        return Err(bad(format!("header lists {n} tensors, spec has {tensors}")));
    }
    if !next_body(&mut weights.frames, END)?.is_empty() || weights.frames.left() != 0 {
        return Err(bad("bytes after the end of the model"));
    }
    Ok(saved)
}

/// The `Weights` frames of a file, read one tensor at a time in order.
struct Weights {
    frames: FrameReader<File>,
    /// Each tensor's element count, as the header lists it.
    numels: Vec<u64>,
    /// The tensor due next.
    tensor: usize,
}

impl Weights {
    /// Read the next tensor, `numel` values, whatever frames it spans:
    /// each verified frame's little-endian values go to
    /// `put(first element, bytes)` in place.
    fn next_tensor(&mut self, numel: usize, mut put: impl FnMut(usize, &[u8])) -> Result<()> {
        let tensor = self.tensor;
        if self.numels.get(tensor) != Some(&(numel as u64)) {
            return Err(bad(format!("tensor {tensor}: header and spec disagree")));
        }
        let mut at = 0;
        while at < numel {
            let mut cur = Cursor::new(next_body(&mut self.frames, WEIGHTS)?);
            let (t, first, count) = (cur.u32()?, cur.u64()?, cur.u64()?);
            let due = (t as usize, first) == (tensor, at as u64);
            let fits = (1..=(numel - at) as u64).contains(&count)
                && count.checked_mul(4) == Some(cur.remaining() as u64);
            if !(due && fits) {
                return Err(bad(format!(
                    "weights ({t}, {first}, {count}) where tensor {tensor} element {at} is due"
                )));
            }
            put(at, cur.take(cur.remaining())?);
            at += count as usize;
        }
        self.tensor += 1;
        Ok(())
    }

    /// The next tensor as a plain vector.
    fn next_vec(&mut self, numel: usize) -> Result<Vec<f32>> {
        let mut values = vec![0.0; numel];
        self.next_tensor(numel, |first, le| decode_f32s(&mut values[first..], le))?;
        Ok(values)
    }
}

/// Little-endian `f32`s.
fn f32s(le: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
    let f32 = |le: &[u8]| f32::from_le_bytes(le.try_into().expect("chunks_exact(4)"));
    le.chunks_exact(4).map(f32)
}

fn decode_f32s(values: &mut [f32], le: &[u8]) {
    values.iter_mut().zip(f32s(le)).for_each(|(v, le)| *v = le);
}

/// What the header says before any weight; the model is empty until
/// [`load_v3`] builds it.
fn decode_header(cur: &mut Cursor) -> Result<SavedModel> {
    let tag = cur.u8()?;
    let precision =
        Precision::from_tag(tag).ok_or_else(|| bad(format!("bad precision tag {tag}")))?;
    Ok(SavedModel {
        precision,
        spec: decode_spec(cur)?,
        model: Sequential::new(Vec::new()),
        in_norm: decode_norm(cur)?,
        out_norm: decode_norm(cur)?,
    })
}

fn encode_spec(buf: &mut Vec<u8>, spec: &ModelSpec) {
    let dims = |buf: &mut Vec<u8>, dims: &[usize]| {
        dims.iter()
            .for_each(|d| buf.extend((*d as u64).to_le_bytes()));
    };
    buf.extend((spec.input_shape.len() as u32).to_le_bytes());
    dims(buf, &spec.input_shape);
    buf.extend((spec.layers.len() as u32).to_le_bytes());
    for l in &spec.layers {
        match *l {
            LayerSpec::Linear {
                in_features,
                out_features,
            } => dims(push(buf, 0), &[in_features, out_features]),
            LayerSpec::ReLU => buf.push(1),
            LayerSpec::Tanh => buf.push(2),
            LayerSpec::Sigmoid => buf.push(3),
            LayerSpec::Dropout { p } => push(buf, 4).extend(p.to_le_bytes()),
            LayerSpec::Flatten => buf.push(5),
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
            } => dims(push(buf, 6), &[in_ch, out_ch, kernel, stride, pad]),
            LayerSpec::MaxPool2d { kernel, stride } => dims(push(buf, 7), &[kernel, stride]),
        }
    }
}

/// `buf` with `tag` appended.
fn push(buf: &mut Vec<u8>, tag: u8) -> &mut Vec<u8> {
    buf.push(tag);
    buf
}

fn decode_spec(cur: &mut Cursor) -> Result<ModelSpec> {
    let dim = |cur: &mut Cursor| -> Result<usize> {
        usize::try_from(cur.u64()?).map_err(|_| bad("dimension does not fit a usize"))
    };
    let rank = cur.u32()? as usize;
    if rank > 8 {
        return Err(bad(format!("implausible input rank {rank}")));
    }
    let input_shape = (0..rank).map(|_| dim(cur)).collect::<Result<_>>()?;
    // Every layer is at least its tag byte: a count the rest of the header
    // cannot hold is a lie, caught before it sizes anything.
    let n = cur.u32()? as usize;
    if n > cur.remaining() {
        return Err(bad(format!("{n} layers in {} bytes", cur.remaining())));
    }
    let mut layers = Vec::new();
    for _ in 0..n {
        layers.push(match cur.u8()? {
            0 => LayerSpec::Linear {
                in_features: dim(cur)?,
                out_features: dim(cur)?,
            },
            1 => LayerSpec::ReLU,
            2 => LayerSpec::Tanh,
            3 => LayerSpec::Sigmoid,
            4 => LayerSpec::Dropout { p: cur.f32()? },
            5 => LayerSpec::Flatten,
            6 => LayerSpec::Conv2d {
                in_ch: dim(cur)?,
                out_ch: dim(cur)?,
                kernel: dim(cur)?,
                stride: dim(cur)?,
                pad: dim(cur)?,
            },
            7 => LayerSpec::MaxPool2d {
                kernel: dim(cur)?,
                stride: dim(cur)?,
            },
            other => return Err(bad(format!("bad layer tag {other}"))),
        });
    }
    Ok(ModelSpec::new(input_shape, layers))
}

fn encode_norm(buf: &mut Vec<u8>, norm: Option<&Normalizer>) {
    match norm {
        None => buf.push(0),
        Some(n) => {
            buf.push(1);
            buf.push(n.axis.tag());
            buf.extend((n.mean.len() as u32).to_le_bytes());
            for v in n.mean.iter().chain(&n.std) {
                buf.extend(v.to_le_bytes());
            }
        }
    }
}

fn decode_norm(cur: &mut Cursor) -> Result<Option<Normalizer>> {
    match cur.u8()? {
        0 => Ok(None),
        1 => {
            let axis = NormAxis::from_tag(cur.u8()?)?;
            // `take` refuses a length the header cannot hold before
            // anything is sized by it.
            let bytes = (cur.u32()? as usize).checked_mul(4).ok_or(Truncated)?;
            let mut f32s = || -> Result<Vec<f32>> {
                let le = cur.take(bytes)?;
                let mut values = vec![0.0; bytes / 4];
                decode_f32s(&mut values, le);
                Ok(values)
            };
            let (mean, std) = (f32s()?, f32s()?);
            Ok(Some(Normalizer { axis, mean, std }))
        }
        other => Err(bad(format!("bad normalizer tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Activation;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpacml-nn-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mlp_roundtrip_preserves_predictions() {
        let spec = ModelSpec::mlp(3, &[16, 8], 2, Activation::Tanh, 0.2);
        let model = spec.build(5).unwrap();
        let x = Tensor::from_shape_fn([4, 3], |ix| (ix[0] as f32 - ix[1] as f32) * 0.3);
        let before = model.forward(&x).unwrap();

        let in_norm = Normalizer::fit(&x, NormAxis::PerFeature).unwrap();
        let path = tmp("mlp.hml");
        save_model(&path, &spec, &model, Some(&in_norm), None).unwrap();

        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.spec, spec);
        assert_eq!(loaded.param_count(), spec.param_count());
        assert_eq!(loaded.in_norm, Some(in_norm.clone()));
        assert_eq!(loaded.out_norm, None);
        // Raw forward (no norm) must match exactly.
        let after = loaded.model.forward(&x).unwrap();
        assert_eq!(before.data(), after.data());
        // infer() applies the input normalizer.
        let normed = loaded.model.forward(&in_norm.transform(&x)).unwrap();
        assert_eq!(loaded.infer(&x).unwrap().data(), normed.data());
    }

    #[test]
    fn cnn_roundtrip() {
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
            ],
        );
        let model = spec.build(9).unwrap();
        let x = Tensor::from_shape_fn([2, 2, 8, 8], |ix| (ix[2] * 8 + ix[3]) as f32 * 0.01);
        let before = model.forward(&x).unwrap();
        let path = tmp("cnn.hml");
        save_model(&path, &spec, &model, None, None).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.model.forward(&x).unwrap().data(), before.data());
    }

    #[test]
    fn output_norm_applied_on_infer() {
        let spec = ModelSpec::mlp(1, &[], 1, Activation::ReLU, 0.0);
        let model = spec.build(1).unwrap();
        let out_norm = Normalizer {
            axis: NormAxis::PerFeature,
            mean: vec![100.0],
            std: vec![10.0],
        };
        let path = tmp("outnorm.hml");
        save_model(&path, &spec, &model, None, Some(&out_norm)).unwrap();
        let loaded = load_model(&path).unwrap();
        let x = Tensor::full([1, 1], 0.5f32);
        let raw = loaded.model.forward(&x).unwrap().data()[0];
        let scaled = loaded.infer(&x).unwrap().data()[0];
        assert!((scaled - (raw * 10.0 + 100.0)).abs() < 1e-5);
    }

    #[test]
    fn precision_tag_round_trips_and_quantizes_on_load() {
        let spec = ModelSpec::mlp(4, &[16], 2, Activation::Tanh, 0.0);
        let model = spec.build(8).unwrap();
        let path = tmp("int8.hml");
        save_model_with_precision(&path, &spec, &model, None, None, Precision::Int8).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.precision, Precision::Int8);

        let x = Tensor::from_shape_fn([5, 4], |ix| (ix[0] * 4 + ix[1]) as f32 * 0.07 - 0.5);
        let mut ws = InferWorkspace::new();
        // The model's default serving route is its recorded precision...
        let qy = loaded.infer_with(&mut ws, &x).unwrap().clone();
        let qy2 = loaded
            .infer_with_at(&mut ws, &x, Precision::Int8)
            .unwrap()
            .clone();
        assert_eq!(qy.data(), qy2.data());
        // ...and every finer ladder rung is available and close to f32.
        let by = loaded
            .infer_with_at(&mut ws, &x, Precision::Bf16)
            .unwrap()
            .clone();
        let fy = loaded
            .infer_with_at(&mut ws, &x, Precision::F32)
            .unwrap()
            .clone();
        for ((q, b), f) in qy.data().iter().zip(by.data()).zip(fy.data()) {
            assert!((q - f).abs() < 0.1, "int8 drifted: {q} vs {f}");
            assert!((b - f).abs() < 0.05, "bf16 drifted: {b} vs {f}");
        }
    }

    #[test]
    fn bad_precision_tag_rejected() {
        let spec = ModelSpec::mlp(2, &[4], 1, Activation::ReLU, 0.0);
        let model = spec.build(2).unwrap();
        let path = tmp("badprec.hml");
        // A header frame whose checksum is computed over the bad tag: the
        // tag itself must be refused.
        let mut head = vec![HEADER, 0xEE];
        encode_spec(&mut head, &spec);
        head.extend([0, 0, 0, 0, 0, 0]); // no normalizers, no tensors
        let f = File::create(&path).unwrap();
        f.write_all_at(b"HMLMODEL\x03", 0).unwrap();
        write_frame(&f, 9, &head, &[]).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(NnError::Serialize(msg)) if msg.contains("precision tag")
        ));
        // Flipped under a checksum computed over the good tag, the same
        // byte is caught by the checksum first.
        save_model(&path, &spec, &model, None, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!((bytes[8], bytes[25], bytes[26]), (VERSION, HEADER, 0));
        bytes[26] = 0xEE;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(NnError::Serialize(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn corrupt_files_rejected() {
        let path = tmp("bad.hml");
        std::fs::write(&path, b"NOTMODEL").unwrap();
        assert!(load_model(&path).is_err());
        std::fs::write(&path, b"HM").unwrap();
        assert!(load_model(&path).is_err());
        // Versions before the framed layout are no longer read, and the
        // refusal leaves the file as it is.
        for version in [1u8, 2] {
            let mut bytes = b"HMLMODEL".to_vec();
            bytes.push(version);
            bytes.extend([0; 24]);
            std::fs::write(&path, &bytes).unwrap();
            let want = format!("unsupported .hml version {version}");
            assert!(matches!(
                load_model(&path),
                Err(NnError::Serialize(msg)) if msg == want
            ));
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        // Truncated real model.
        let spec = ModelSpec::mlp(2, &[4], 1, Activation::ReLU, 0.0);
        let model = spec.build(2).unwrap();
        let good = tmp("good.hml");
        save_model(&good, &spec, &model, None, None).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(load_model(&path).is_err());
    }
}
