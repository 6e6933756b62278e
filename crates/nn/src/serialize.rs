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
//! **One pass, one copy.** [`save_model`] encodes each parameter tensor
//! straight from `Param::value` through one reusable 1 MiB buffer, a frame
//! at a time, into `<path>.tmp`; then `fsync`, rename, directory sync — a
//! crash leaves the old file or the new one, never a torn one (a failed save
//! can leave the `.tmp` behind; the next save overwrites it). Fault seams:
//! `nn.save.write` before the first weight byte, `.sync` before the `fsync`,
//! `.rename` before the rename. [`load_model`] reads a frame at a time into
//! one buffer and decodes each verified `Weights` frame in place into its
//! tensor of a network built *without* drawing random weights: besides that
//! buffer, the only weight-sized memory a load holds is the model it returns.
//!
//! **Verified before allocated.** A frame's length is checked against the
//! bytes the file really has before its buffer grows, its checksum before
//! its body is read, every count in a body against the body's own length
//! before anything is sized by it, the spec's parameter bytes (checked
//! arithmetic) against what is left of the file before the network is
//! built. `Weights` frames must cover tensor 0 from element 0, then tensor
//! 1, … each exactly once and in order; `End` must follow and the file end
//! there. Anything else is `NnError::Serialize`, never a model.
//!
//! **v1 / v2** (the same header fields unframed and unchecksummed — v1
//! without `prec`, implicitly f32 — then `n_tensors:u32, { len:u64, f32* }*`)
//! still load: read whole, so the one allocation is the file's own size,
//! then through the same cursor with the same checks minus the checksum,
//! decoded in place. The next save writes v3.
//!
//! Weights are always stored at full f32 precision; the precision byte
//! only records the *serving* target. The quantized packs are rebuilt
//! deterministically from the f32 weights at load/compile time (bf16
//! round-to-nearest-even and int8 abs-max scales are pure functions of
//! the weights), so a model file never bakes in quantization error twice.

use crate::data::{NormAxis, Normalizer};
use crate::fuse::PrecisionPolicy;
use crate::model::Sequential;
use crate::spec::{LayerSpec, ModelSpec};
use crate::workspace::{with_thread_workspace, InferWorkspace};
use crate::{NnError, Result};
use hpacml_faults::fault_point;
use hpacml_store::frame::{rename_synced, write_frame, Cursor, FrameReader, Truncated};
use hpacml_tensor::quant::Precision;
use hpacml_tensor::Tensor;
use std::fs::File;
use std::io::{Read, Write};
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
    /// saved/quantized for). `F32` for v1 files and unquantized models.
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
        let numel: usize = in_dims.iter().product();
        if self.in_norm.is_some() && ws.staged.capacity() < numel {
            ws.staged.resize(&[numel]);
        }
        ws.fw.reserve(&self.model, in_dims)
    }

    /// Compile the contained network for inference: drop inference-identity
    /// layers, fuse `Linear`/`Conv2d` → activation pairs into GEMM epilogues
    /// and pre-pack the (immutable) weights into panel layouts — see
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
    /// builds reduced-precision weight packs on every layer that supports
    /// them and records the target as the model's serving precision.
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
        head.extend((p.value.numel() as u64).to_le_bytes());
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&[&MAGIC[..], &[VERSION]].concat())?;
    write_frame(&mut f, &head, &[])?;
    fault_point!("nn.save.write");
    let mut buf = Vec::new();
    for (tensor, p) in params.iter().enumerate() {
        for (k, values) in p.value.data().chunks(FRAME_ELEMS).enumerate() {
            let mut head = vec![WEIGHTS];
            head.extend((tensor as u32).to_le_bytes());
            head.extend(((k * FRAME_ELEMS) as u64).to_le_bytes());
            head.extend((values.len() as u64).to_le_bytes());
            buf.resize(values.len() * 4, 0);
            for (le, v) in buf.chunks_exact_mut(4).zip(values) {
                le.copy_from_slice(&v.to_le_bytes());
            }
            write_frame(&mut f, &head, &buf)?;
        }
    }
    write_frame(&mut f, &[END], &[])?;
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
    let mut saved = match magic[8] {
        VERSION => load_v3(FrameReader::new(f, left))?,
        version @ 1..=2 => load_legacy(version, f, left)?,
        version => return Err(bad(format!("unsupported .hml version {version}"))),
    };
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

fn load_v3(mut frames: FrameReader<File>) -> Result<SavedModel> {
    let mut cur = Cursor::new(next_body(&mut frames, HEADER)?);
    let mut saved = decode_header(&mut cur, VERSION)?;
    let n = cur.u32()? as usize;
    if n.checked_mul(8) != Some(cur.remaining()) {
        return Err(bad(format!("header lists {n} tensors in the wrong space")));
    }
    let numels: Vec<u64> = (0..n).map(|_| Ok(cur.u64()?)).collect::<Result<_>>()?;
    build_blank(&mut saved, frames.left())?;
    let tensors = saved.model.try_visit_params(&mut |tensor, p| {
        let values = p.value.data_mut();
        if numels.get(tensor) != Some(&(values.len() as u64)) {
            return Err(bad(format!("tensor {tensor}: header and spec disagree")));
        }
        let mut at = 0;
        while at < values.len() {
            let mut cur = Cursor::new(next_body(&mut frames, WEIGHTS)?);
            let (t, first, count) = (cur.u32()?, cur.u64()?, cur.u64()?);
            let due = (t as usize, first) == (tensor, at as u64);
            let fits = (1..=(values.len() - at) as u64).contains(&count)
                && count.checked_mul(4) == Some(cur.remaining() as u64);
            if !(due && fits) {
                return Err(bad(format!(
                    "weights ({t}, {first}, {count}) where tensor {tensor} element {at} is due"
                )));
            }
            let end = at + count as usize;
            decode_f32s(&mut values[at..end], cur.take(cur.remaining())?);
            at = end;
        }
        Ok(())
    })?;
    if tensors != n {
        return Err(bad(format!("header lists {n} tensors, spec has {tensors}")));
    }
    if !next_body(&mut frames, END)?.is_empty() || frames.left() != 0 {
        return Err(bad("bytes after the end of the model"));
    }
    Ok(saved)
}

/// v1/v2, read whole (the one allocation is the file's own size) and
/// decoded through the cursor straight into the tensors.
fn load_legacy(version: u8, mut f: File, left: u64) -> Result<SavedModel> {
    let mut raw = vec![0; usize::try_from(left).map_err(|_| bad("file too large"))?];
    f.read_exact(&mut raw)?;
    let mut cur = Cursor::new(&raw);
    let mut saved = decode_header(&mut cur, version)?;
    let n = cur.u32()? as usize;
    build_blank(&mut saved, cur.remaining() as u64)?;
    let tensors = saved.model.try_visit_params(&mut |tensor, p| {
        let values = p.value.data_mut();
        if cur.u64()? != values.len() as u64 {
            return Err(bad(format!("tensor {tensor}: file and spec disagree")));
        }
        // No overflow: `build_blank` saw all the parameter bytes fit the file.
        decode_f32s(values, cur.take(values.len() * 4)?);
        Ok(())
    })?;
    if tensors != n {
        return Err(bad(format!("file holds {n} tensors, spec has {tensors}")));
    }
    Ok(saved)
}

fn decode_f32s(values: &mut [f32], le: &[u8]) {
    for (v, le) in values.iter_mut().zip(le.chunks_exact(4)) {
        *v = f32::from_le_bytes(le.try_into().expect("chunks_exact(4)"));
    }
}

/// Build `saved.model` — every parameter zero — once the spec's parameters
/// are known to fit in the `left` bytes that remain of the file.
fn build_blank(saved: &mut SavedModel, left: u64) -> Result<()> {
    let bytes = saved.spec.checked_param_count();
    let bytes = bytes.and_then(|n| u64::try_from(n).ok()?.checked_mul(4));
    if bytes.is_none_or(|b| b > left) {
        return Err(bad("spec has more parameters than the file has bytes"));
    }
    let model = saved.spec.build_zeroed();
    saved.model = model.map_err(|e| bad(format!("spec does not build: {e}")))?;
    Ok(())
}

/// What every version's header says before any weight; the model is empty
/// until [`build_blank`].
fn decode_header(cur: &mut Cursor, version: u8) -> Result<SavedModel> {
    // v1 files predate the precision byte and are implicitly f32.
    let precision = match version {
        1 => Precision::F32,
        _ => {
            let tag = cur.u8()?;
            Precision::from_tag(tag).ok_or_else(|| bad(format!("bad precision tag {tag}")))?
        }
    };
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

    /// The v2 writer as it shipped — and, with `prec: None`, the v1 writer
    /// before it. Test-only since v3, so the legacy loader keeps real input.
    fn legacy_bytes(
        spec: &ModelSpec,
        model: &Sequential,
        prec: Option<u8>,
        norms: [Option<&Normalizer>; 2],
    ) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(if prec.is_some() { 2 } else { 1 });
        buf.extend(prec);
        encode_spec(&mut buf, spec);
        encode_norm(&mut buf, norms[0]);
        encode_norm(&mut buf, norms[1]);
        let weights = model.export_weights();
        buf.extend((weights.len() as u32).to_le_bytes());
        for w in &weights {
            buf.extend((w.len() as u64).to_le_bytes());
            w.iter().for_each(|v| buf.extend(v.to_le_bytes()));
        }
        buf
    }

    #[test]
    fn v1_files_still_load_as_f32() {
        // No precision byte, implicitly f32. Models saved before the
        // version bumps must keep loading bit-for-bit.
        let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
        let model = spec.build(6).unwrap();
        let x = Tensor::from_shape_fn([4, 3], |ix| (ix[0] as f32 - ix[1] as f32) * 0.11);
        let before = model.forward(&x).unwrap();
        let path = tmp("v1_compat.hml");
        std::fs::write(&path, legacy_bytes(&spec, &model, None, [None; 2])).unwrap();

        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.precision, Precision::F32);
        assert_eq!(loaded.model.forward(&x).unwrap().data(), before.data());
    }

    #[test]
    fn v2_fixture_loads_to_the_same_predictions_and_resaves_as_v3() {
        // Written by the parent commit's `save_model_with_precision`; the
        // helper reproduces it byte for byte.
        let fixture: &[u8] = include_bytes!("../tests/fixtures/sample_v2.hml");
        let spec = ModelSpec::mlp(3, &[8], 2, Activation::Tanh, 0.1);
        let model = spec.build(6).unwrap();
        let in_norm = Normalizer {
            axis: NormAxis::PerFeature,
            mean: vec![0.5, -1.0, 2.0],
            std: vec![1.0, 2.0, 0.5],
        };
        let out_norm = Normalizer {
            axis: NormAxis::Global,
            mean: vec![10.0],
            std: vec![4.0],
        };
        let norms = [Some(&in_norm), Some(&out_norm)];
        let tag = Precision::Bf16.tag();
        assert_eq!(legacy_bytes(&spec, &model, Some(tag), norms), fixture);

        let path = tmp("sample_v2.hml");
        std::fs::write(&path, fixture).unwrap();
        let old = load_model(&path).unwrap();
        assert_eq!((&old.spec, old.precision), (&spec, Precision::Bf16));
        assert_eq!(
            (&old.in_norm, &old.out_norm),
            (&Some(in_norm), &Some(out_norm))
        );
        assert_eq!(old.model.export_weights(), model.export_weights());
        let x = Tensor::from_shape_fn([5, 3], |ix| ix[0] as f32 * 0.4 - ix[1] as f32);
        let want = old.infer(&x).unwrap();

        // The upgrade is the next save of what was loaded.
        let norms = (old.in_norm.as_ref(), old.out_norm.as_ref());
        save_model_with_precision(&path, &spec, &old.model, norms.0, norms.1, old.precision)
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[..9], *b"HMLMODEL\x03");
        let new = load_model(&path).unwrap();
        assert_eq!(new.infer(&x).unwrap().data(), want.data());
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
        std::fs::write(&path, legacy_bytes(&spec, &model, Some(0xEE), [None; 2])).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(NnError::Serialize(msg)) if msg.contains("precision tag")
        ));
        // In a v3 file the same byte sits under the header's checksum.
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
