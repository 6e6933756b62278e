//! Reduced-precision weight storage for the inference GEMM: bf16 and
//! int8-symmetric packed panels with **f32 accumulation everywhere**.
//!
//! # Why this module exists
//!
//! Every forward pass walks the whole packed weight panel once, and for
//! models larger than the last-level cache that walk is a DRAM read.
//! Where that stream is the bound — a single row against a wide layer,
//! once the row's tile keeps enough chains in flight (see `crate::gemm`'s
//! *Batch-1 rows*) — halving (bf16) or quartering (int8) the bytes per
//! weight converts into forward-pass speedup, on any host, including
//! single-core ones, where there is no parallel lever left to pull.
//!
//! # What lives here
//!
//! No kernel and no packer. This module supplies the two things that are
//! about quantization — the scalar codecs with their `gemm::PanelCodec`
//! decoders, and [`QPackedB`] encoding/audit — to the one macro-kernel in
//! [`crate::gemm`], which every precision runs: the same stripe split, `kc`
//! slabs, register and narrow tiles, epilogue and store.
//!
//! A [`QPackedB`] is encoded from the f32 [`PackedB`] panels
//! ([`QPackedB::from_packed`]), whose layout every rung stores: the
//! weights are transposed into panels once, by `gemm`'s one packer, and
//! each rung is then a pass over the panels in storage order — bf16 one
//! encode per element, int8 one abs-max pass over each panel's rows (a
//! lane is an output channel) and one quantize per element.
//!
//! # Determinism
//!
//! The reduced rungs keep the crate-wide bitwise-determinism contract (see
//! [`crate::gemm`]): each stored weight maps to **one canonical f32** at the
//! panel-row load ([`QPackedB::chain_weight`]: `bf16_decode`, or the int8
//! integer `q as f32`, which is exact), and from there every output element
//! is the driver's single ascending-`k` f32 add-chain (`acc += a * w`, no
//! `mul_add`), then the codec's finish — `acc * scale[j]` once per int8
//! column ([`QPackedB::col_scale`]), nothing for bf16 — then bias and
//! activation. Decode and finish are pure per-element functions of the
//! packed panel — independent of thread count, `KC` blocking (the partials
//! a slab leaves in `C` are unscaled; only the last slab scales), stripe
//! boundaries, tile shape and batch size — so quantized results are a pure
//! function of the quantized panel, not the schedule. bf16 equals the f32
//! kernel run on the decoded weights bit for bit.
//!
//! # Encodings
//!
//! * **bf16**: the top 16 bits of the f32 representation, encoded with
//!   round-to-nearest-even and stored as `u16`. Decode is a lossless
//!   shift back into the high half of an f32 — exactly representable, no
//!   arithmetic.
//! * **int8 symmetric**: per-output-channel scale `absmax / 127` (abs-max
//!   over that channel's weights; a channel holding a NaN gets a NaN scale,
//!   so its output is NaN as on the other rungs), `q = round(w / scale)`
//!   clamped to `±127` (`f32::round`, half-away-from-zero — deterministic,
//!   no FPU mode dependence). **Integer chain, then scale**: the chain
//!   multiplies the stored integers (`acc + a * (q as f32)`) and each
//!   column's finished chain is multiplied by its scale once, ahead of bias
//!   and activation — per-channel scaling after the accumulation (Jacob et
//!   al., CVPR 2018), which saves a multiply per weight over decoding every
//!   weight to `q as f32 * scale`. That redefined the int8 rung's bits: an
//!   output is `(Σ a·q)·scale`, one rounding more per output and one fewer
//!   per weight than `Σ a·(q·scale)`. Zero maps to zero exactly, so panel
//!   padding decodes to `0.0` at both precisions.

use crate::gemm::{self, Epilogue, PackedB, PanelCodec, Panels, NR};
use crate::tensor::Tensor;
use crate::{Result, TensorError};

// ---------------------------------------------------------------------------
// Precision tags
// ---------------------------------------------------------------------------

/// Weight storage precision for inference. Accumulation is always f32;
/// the tag only selects how packed weights are stored and decoded.
///
/// Ordered coarsest-first so that `Int8 < Bf16 < F32` reads as "less
/// precise < more precise" — the demotion ladder walks toward `F32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Precision {
    /// int8 symmetric, per-output-channel scales (4x weight bandwidth).
    Int8,
    /// bfloat16 round-to-nearest-even (2x weight bandwidth).
    Bf16,
    /// Full f32 storage — the existing kernels, byte-exact baseline.
    F32,
}

impl Precision {
    /// Stable serialization tag (model files, wire formats).
    pub fn tag(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::Bf16 => 1,
            Precision::Int8 => 2,
        }
    }

    /// Inverse of [`Precision::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Precision::F32),
            1 => Some(Precision::Bf16),
            2 => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Human-readable name (bench keys, logs, and the serving config's
    /// `precision` word).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
            Precision::Int8 => "int8",
        }
    }

    /// Inverse of [`Precision::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        [Precision::F32, Precision::Bf16, Precision::Int8]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Scalar codecs
// ---------------------------------------------------------------------------

/// Encode an f32 as bf16 (top 16 bits) with round-to-nearest-even.
/// NaN payloads are truncated but kept NaN (quiet bit forced).
#[inline(always)]
pub(crate) fn bf16_encode(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        // Truncation could zero a signaling NaN's payload into an
        // infinity; force a quiet-NaN bit instead.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7FFF + ((bits >> 16) & 1);
    (bits.wrapping_add(round) >> 16) as u16
}

/// Decode a bf16 back to f32 — exact (bf16 values are a subset of f32).
#[inline(always)]
pub(crate) fn bf16_decode(q: u16) -> f32 {
    f32::from_bits((q as u32) << 16)
}

/// Symmetric int8 scale for a channel with the given abs-max. An all-zero
/// channel gets scale `1.0` so decode still maps `0 -> 0.0` exactly.
#[inline]
pub(crate) fn int8_scale(absmax: f32) -> f32 {
    if absmax == 0.0 {
        1.0
    } else {
        absmax / 127.0
    }
}

/// Quantize one weight against its channel scale. `f32::round` is
/// half-away-from-zero — a deterministic scalar op, no FPU rounding-mode
/// dependence — and the clamp keeps the encoding symmetric (`-128` unused).
/// A NaN quotient stores `0`.
///
/// Equal to `(v / scale).round().clamp(-127.0, 127.0) as i8` for every
/// input, but that saturating cast compiles to one scalar convert per
/// weight. The clamped value is an integer in `±127` (or NaN, sent to
/// `0.0` first), so adding `1.5·2²³` — where the f32 spacing is exactly 1 —
/// leaves it in the low mantissa bits, and the low byte of the sum's bits
/// is its two's complement. Both steps vectorize.
#[inline(always)]
pub(crate) fn int8_quantize(v: f32, scale: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0; // 1.5·2²³, bits 0x4B40_0000
    let r = (v / scale).round().clamp(-127.0, 127.0);
    let r = if r.is_nan() { 0.0 } else { r };
    (r + MAGIC).to_bits() as i8
}

/// The f32 an int8 weight stands for (`q · scale`): the quantization
/// error's reference. The GEMM never forms it; its chain runs on `q`.
#[cfg(test)]
fn int8_dequantize(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

// ---------------------------------------------------------------------------
// Quantized packed B panels
// ---------------------------------------------------------------------------

/// Reduced-precision storage behind a [`QPackedB`].
#[derive(Debug, Clone)]
enum QData {
    Bf16(Vec<u16>),
    Int8(Vec<i8>),
}

/// The `B` operand of a `Linear` forward (`C = A · Bᵀ`), packed exactly
/// like [`crate::gemm::PackedB`] — `NR`-wide column panels, `k`-major,
/// zero-padded past column `n` — but stored at reduced precision plus a
/// per-column f32 scale table (all `1.0` for bf16; per-output-channel
/// `absmax/127` for int8, padded with `1.0`, which the int8 chains apply
/// after their last `k`).
///
/// Weights are immutable at inference, so layers build one of these once
/// at compile/quantize time and steady-state forwards only ever read it.
#[derive(Debug, Clone)]
pub struct QPackedB {
    k: usize,
    n: usize,
    /// Per-column scales, padded with `1.0` to whole `NR`-wide panels.
    scales: Vec<f32>,
    data: QData,
}

impl QPackedB {
    /// Bytes of packed weight storage — the bandwidth the forward pass
    /// actually streams (bench reporting).
    pub fn packed_bytes(&self) -> usize {
        match &self.data {
            QData::Bf16(d) => d.len() * 2,
            QData::Int8(d) => d.len(),
        }
    }

    /// Pack a rank-2 transb tensor `[n, k]` (the `Linear` weight layout
    /// `w[out, in]`) at the given precision: the f32 panels first, then
    /// [`QPackedB::from_packed`]. `F32` has no quantized pack — callers keep
    /// using [`crate::gemm::PackedB`] for it.
    pub fn from_transb(t: &Tensor<f32>, prec: Precision) -> Result<Self> {
        QPackedB::from_packed(&PackedB::from_transb(t)?, prec)
    }

    /// Encode f32 panels at the given precision. The panels already have
    /// the layout every rung stores, so each encode is a pass over them in
    /// storage order — no transpose: bf16 encodes element by element; int8
    /// takes each lane's abs-max over its panel's `k` rows (a lane is an
    /// output channel), then quantizes element by element. Padding lanes
    /// hold `0.0`, so they store `0` with scale `1.0`. Storage the allocator
    /// refuses is [`TensorError::Reserve`], not an abort: a rung may be
    /// encoded on a serving thread, the first time it is asked for.
    pub fn from_packed(pb: &PackedB<f32>, prec: Precision) -> Result<Self> {
        let (k, n) = (pb.k(), pb.n());
        let src = pb.panel_data();
        let lanes = n.div_ceil(NR) * NR;
        let mut scales = reserved(lanes)?;
        scales.resize(lanes, 1.0f32);
        let data = match prec {
            Precision::F32 => {
                return Err(TensorError::DimMismatch(
                    "QPackedB::from_packed: F32 uses the unquantized PackedB".into(),
                ))
            }
            Precision::Bf16 => {
                let mut d = reserved(src.len())?;
                d.extend(src.iter().map(|&v| bf16_encode(v)));
                QData::Bf16(d)
            }
            Precision::Int8 => {
                let mut d = reserved(src.len())?;
                if k > 0 {
                    for (panel, s) in src.chunks_exact(k * NR).zip(scales.chunks_exact_mut(NR)) {
                        let lanes = panel_scales(panel);
                        s.copy_from_slice(&lanes);
                        for row in panel.as_chunks::<NR>().0 {
                            let mut q = [0i8; NR];
                            quantize_row(row, &lanes, &mut q);
                            d.extend_from_slice(&q);
                        }
                    }
                }
                QData::Int8(d)
            }
        };
        Ok(QPackedB { k, n, scales, data })
    }

    /// The f32 the accumulator chain multiplies for output channel `j`,
    /// input `kk`: the decoded bf16, or the stored int8 integer as f32.
    /// Oracle accessor, not a hot path.
    pub fn chain_weight(&self, j: usize, kk: usize) -> f32 {
        assert!(
            j < self.n && kk < self.k,
            "QPackedB::chain_weight: out of range"
        );
        let p = j / NR;
        let idx = (p * self.k + kk) * NR + (j % NR);
        match &self.data {
            QData::Bf16(d) => bf16_decode(d[idx]),
            QData::Int8(d) => d[idx] as f32,
        }
    }

    /// What output channel `j`'s finished chain is multiplied by before bias
    /// and activation: its int8 scale, or `1.0` for bf16 (whose chain is
    /// not scaled at all). Oracle accessor, not a hot path.
    pub fn col_scale(&self, j: usize) -> f32 {
        assert!(j < self.n, "QPackedB::col_scale: out of range");
        self.scales[j]
    }

    /// Logical dims `[k, n]` of the packed matrix.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Decode the first `NARROW_N` lanes of the first `dst.len()` panel rows
    /// through this pack's codec (`n ≤ NARROW_N`: one panel) — the weights a
    /// `gemm::NarrowChain` layer multiplies — and return the scales its
    /// chains finish with (int8), if any.
    pub(crate) fn decode_narrow_rows(
        &self,
        dst: &mut [[f32; gemm::NARROW_N]],
    ) -> Option<[f32; gemm::NARROW_N]> {
        let scales = &self.scales[..];
        match &self.data {
            QData::Bf16(data) => gemm::decode_rows::<f32, Bf16Panel>(Panels { data, scales }, dst),
            QData::Int8(data) => gemm::decode_rows::<f32, Int8Panel>(Panels { data, scales }, dst),
        }
    }

    /// Worst-case int8 round-trip error in scale units:
    /// `max |w - q·scale| / scale` over all weights. For a
    /// correct symmetric quantizer this is ≤ 0.5 (half a quantization
    /// step); bf16 packs report the analogous bound in ulps-at-bf16,
    /// which round-to-nearest-even also keeps ≤ 0.5.
    #[cfg(test)]
    fn max_abs_scale_err(&self, t: &Tensor<f32>) -> f32 {
        let (n, k) = (self.n, self.k);
        assert_eq!(t.dims(), &[n, k], "max_abs_scale_err: dims mismatch");
        let bt = t.data();
        let mut worst = 0.0f32;
        for j in 0..n {
            for kk in 0..k {
                let w = bt[j * k + kk];
                let dq = self.chain_weight(j, kk) * self.col_scale(j);
                let step = match self.data {
                    QData::Bf16(_) => {
                        // One bf16 ulp at w's magnitude: 7 explicit
                        // mantissa bits → spacing 2^-7 of the binade base.
                        let e = f32::from_bits(w.to_bits() & 0x7F80_0000);
                        if e == 0.0 {
                            f32::MIN_POSITIVE
                        } else {
                            e * (1.0 / 128.0)
                        }
                    }
                    QData::Int8(_) => self.scales[j],
                };
                worst = worst.max((w - dq).abs() / step);
            }
        }
        worst
    }
}

/// An empty `Vec` with room for exactly `len` values, or the typed refusal.
fn reserved<T>(len: usize) -> Result<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|_| TensorError::Reserve { elems: len })?;
    Ok(v)
}

/// One panel row quantized against its lanes' scales: one 16-lane divide,
/// round, clamp and narrowing store. Kept out of line on purpose: inlined
/// into the row loop, LLVM's loop vectorizer took the loop across rows
/// instead, loading each lane with a gather, and a 4096 × 4096 pack took
/// 41–45 ms against 27–28 ms (one thread of a 2-vCPU AVX-512 KVM guest).
#[inline(never)]
fn quantize_row(row: &[f32; NR], scales: &[f32; NR], q: &mut [i8; NR]) {
    *q = std::array::from_fn(|j| int8_quantize(row[j], scales[j]));
}

/// The int8 scales of one f32 panel's `NR` lanes: `int8_scale` of each
/// lane's abs-max over the panel's rows, NaN for a lane that holds a NaN
/// (`f32::max` skips NaN, so the flag is kept apart from the max; a NaN
/// weight must not quantize to a silent 0 beside its channel's others).
fn panel_scales(panel: &[f32]) -> [f32; NR] {
    let mut max = [0.0f32; NR];
    let mut nan = [false; NR];
    for row in panel.chunks_exact(NR) {
        for ((m, is_nan), &v) in max.iter_mut().zip(&mut nan).zip(row) {
            *m = m.max(v.abs());
            *is_nan |= v.is_nan();
        }
    }
    std::array::from_fn(|j| int8_scale(if nan[j] { f32::NAN } else { max[j] }))
}

// ---------------------------------------------------------------------------
// Panel codecs
// ---------------------------------------------------------------------------

/// bf16 panels: a lossless shift; reads no scale.
struct Bf16Panel;

impl PanelCodec<f32> for Bf16Panel {
    type Q = u16;
    #[inline(always)]
    fn decode(raw: u16, _scale: f32) -> f32 {
        bf16_decode(raw)
    }
}

/// int8 panels: the chain multiplies the stored integer (`q as f32`,
/// exact), and each column's finished chain is multiplied by its scale.
struct Int8Panel;

impl PanelCodec<f32> for Int8Panel {
    type Q = i8;
    const SCALED: bool = true;
    #[inline(always)]
    fn decode(raw: i8, _scale: f32) -> f32 {
        raw as f32
    }
}

// ---------------------------------------------------------------------------
// Tensor-level entry points
// ---------------------------------------------------------------------------

/// `C[m, n] = epilogue(A[m, k] · Bᵀ)` against quantized packed weights —
/// the reduced-precision `Linear` forward kernel. `c` is resized in place
/// (allocation-free once it has capacity). Bit-identical across pool
/// widths, `KC` blocking and batch sizes, like every kernel in the crate.
pub fn matmul_transb_qpacked_into(
    a: &Tensor<f32>,
    qb: &QPackedB,
    epi: Epilogue<'_, f32>,
    c: &mut Tensor<f32>,
) -> Result<()> {
    let kc = gemm::slab_depth(a.dims().first().copied().unwrap_or(0), qb.k);
    matmul_transb_qpacked_into_kc(a, qb, epi, c, kc)
}

/// [`matmul_transb_qpacked_into`] with an explicit cache-slab depth — the
/// hook the tests sweep, mirroring the f32 entry points.
pub(crate) fn matmul_transb_qpacked_into_kc(
    a: &Tensor<f32>,
    qb: &QPackedB,
    epi: Epilogue<'_, f32>,
    c: &mut Tensor<f32>,
    kc: usize,
) -> Result<()> {
    let n = qb.n;
    let (m, k) = gemm::check_operands("matmul_transb_qpacked", a, n, qb.k, &epi)?;
    c.resize(&[m, n]);
    let (a, scales, c) = (a.data(), &qb.scales[..], c.data_mut());
    match &qb.data {
        QData::Bf16(data) => {
            let b = Panels { data, scales };
            gemm::gemm_driver::<f32, Bf16Panel>(m, n, k, a, b, epi, c, kc, false)
        }
        QData::Int8(data) => {
            let b = Panels { data, scales };
            gemm::gemm_driver::<f32, Int8Panel>(m, n, k, a, b, epi, c, kc, false)
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{Act, Bias};
    use proptest::prelude::*;

    fn lcg(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    /// Naive reference — one accumulator per element over the weights the
    /// chain multiplies, ascending k, then the column scale (`1` for bf16,
    /// where `x * 1.0 == x`), then bias and activation: the canonical
    /// semantics the quantized kernel must reproduce bit for bit.
    fn reference_q(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        qb: &QPackedB,
        epi: &Epilogue<'_, f32>,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * qb.chain_weight(j, kk);
                }
                acc *= qb.col_scale(j);
                acc = match epi.bias {
                    Bias::None => acc,
                    Bias::Col(b) => acc + b[j],
                    Bias::Row(b) => acc + b[i],
                };
                if let Some(act) = epi.act {
                    acc = act.apply(acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// The packer this module had before the rungs were encoded from the
    /// f32 panels, kept as the oracle of [`QPackedB::from_packed`]: each
    /// channel's abs-max folded over its row of the `[n, k]` weights, and
    /// every stored element read back out of the row-major matrix with a
    /// strided gather, quantized with the saturating cast.
    fn strided_oracle(t: &Tensor<f32>, prec: Precision) -> QPackedB {
        let (n, k) = (t.dims()[0], t.dims()[1]);
        let bt = t.data();
        let panels = n.div_ceil(NR);
        let mut scales = vec![1.0f32; panels * NR];
        let data = match prec {
            Precision::F32 => unreachable!("no quantized f32 pack"),
            Precision::Bf16 => {
                let mut d = vec![0u16; panels * k * NR];
                strided_pack(bt, n, k, &mut d, |_, v| bf16_encode(v));
                QData::Bf16(d)
            }
            Precision::Int8 => {
                for (s, ch) in scales.iter_mut().zip(bt.chunks_exact(k.max(1))) {
                    let absmax = ch.iter().fold(0.0f32, |m, &v| {
                        if m.is_nan() || v.is_nan() {
                            f32::NAN
                        } else {
                            m.max(v.abs())
                        }
                    });
                    *s = int8_scale(absmax);
                }
                let mut d = vec![0i8; panels * k * NR];
                strided_pack(bt, n, k, &mut d, |j, v| {
                    (v / scales[j]).round().clamp(-127.0, 127.0) as i8
                });
                QData::Int8(d)
            }
        };
        QPackedB { k, n, scales, data }
    }

    /// The oracle's packer: `encode(column, value)` per panel element, each
    /// gathered from the row-major `[n, k]` weights; `encode(column, 0)`
    /// past column `n`.
    fn strided_pack<Q>(
        bt: &[f32],
        n: usize,
        k: usize,
        dst: &mut [Q],
        encode: impl Fn(usize, f32) -> Q,
    ) {
        for p in 0..n.div_ceil(NR) {
            let panel = &mut dst[p * k * NR..(p + 1) * k * NR];
            for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    let col = p * NR + j;
                    *v = encode(col, if col < n { bt[col * k + kk] } else { 0.0 });
                }
            }
        }
    }

    /// Byte-for-byte equality of two packs: dims, every stored element
    /// (padding lanes included) and every scale's bits.
    fn assert_same_pack(got: &QPackedB, want: &QPackedB, what: &str) {
        assert_eq!((got.k, got.n), (want.k, want.n), "{what}: dims");
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.scales), bits(&want.scales), "{what}: scales");
        match (&got.data, &want.data) {
            (QData::Bf16(g), QData::Bf16(w)) => assert!(g == w, "{what}: bf16 panels"),
            (QData::Int8(g), QData::Int8(w)) => assert!(g == w, "{what}: int8 panels"),
            _ => panic!("{what}: packs of different precisions"),
        }
    }

    /// `[n, k]` weights from `seed` with the encodes' edge cases, one kind
    /// per channel, cycling: plain; ±inf, ±0, subnormals, ±0.5 and the
    /// largest finite values sprinkled in; every weight subnormal or tiny;
    /// one NaN (quiet, with a payload, or signaling) among plain weights;
    /// all zero; abs-max exactly 127 (scale 1) over ±x.5 — exact ties of
    /// the int8 rounding.
    fn edge_weights(n: usize, k: usize, seed: u64) -> Vec<f32> {
        const SPECIAL: [f32; 9] = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -1e-45,
            f32::MIN_POSITIVE,
            f32::MAX,
            -0.5,
        ];
        const NAN_BITS: [u32; 4] = [0x7FC0_0000, 0x7FC0_0001, 0xFFC1_2345, 0x7F80_0001];
        let mut w = lcg(seed, n * k);
        if k == 0 {
            return w;
        }
        let mut s = seed | 1;
        let mut draw = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        for (j, ch) in w.chunks_exact_mut(k).enumerate() {
            match j % 6 {
                0 => {}
                1 => {
                    for v in ch.iter_mut() {
                        let r = draw();
                        if r % 4 == 0 {
                            *v = SPECIAL[r / 4 % SPECIAL.len()];
                        }
                    }
                }
                2 => ch.iter_mut().for_each(|v| *v *= 1e-38),
                3 => ch[draw() % k] = f32::from_bits(NAN_BITS[draw() % NAN_BITS.len()]),
                4 => ch.fill(0.0),
                _ => {
                    for (kk, v) in ch.iter_mut().enumerate() {
                        *v = (kk % 254) as f32 - 126.5;
                    }
                    ch[0] = -127.0;
                }
            }
        }
        w
    }

    #[test]
    fn bf16_codec_round_trips_exact_values() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 96.0, -1024.0] {
            assert_eq!(bf16_decode(bf16_encode(v)), v, "v={v}");
        }
        assert_eq!(bf16_decode(bf16_encode(f32::INFINITY)), f32::INFINITY);
        assert!(bf16_decode(bf16_encode(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
        // bf16 up; nearest-even keeps the even (lower) one.
        let halfway = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_decode(bf16_encode(halfway)), 1.0);
        // Just above halfway rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(bf16_decode(bf16_encode(above)), f32::from_bits(0x3F81_0000));
        // Odd-mantissa halfway rounds up to the even neighbor.
        let odd_half = f32::from_bits(0x3F81_8000);
        assert_eq!(
            bf16_decode(bf16_encode(odd_half)),
            f32::from_bits(0x3F82_0000)
        );
    }

    #[test]
    fn int8_quantizer_is_symmetric_and_bounded() {
        let scale = int8_scale(3.5);
        assert_eq!(int8_quantize(3.5, scale), 127);
        assert_eq!(int8_quantize(-3.5, scale), -127);
        assert_eq!(int8_quantize(0.0, scale), 0);
        assert_eq!(int8_scale(0.0), 1.0);
        // Round-trip error never exceeds half a step.
        for v in lcg(7, 1000) {
            let s = int8_scale(1.0);
            let err = (v - int8_dequantize(int8_quantize(v, s), s)).abs();
            assert!(err <= 0.5 * s + f32::EPSILON, "v={v} err={err}");
        }
    }

    #[test]
    fn qpacked_gemm_bitwise_matches_dequant_reference() {
        for prec in [Precision::Bf16, Precision::Int8] {
            for &(m, k, n) in &[
                (1usize, 1usize, 1usize),
                (1, 7, 30),
                (3, 4, 5),
                (8, 16, 16),
                (9, 3, 17),
                (17, 9, 23),
                (64, 33, 48),
                (70, 64, 64),
            ] {
                let a = Tensor::from_vec(lcg(m as u64 * 31 + 1, m * k), [m, k]).unwrap();
                let bt = Tensor::from_vec(lcg(n as u64 * 17 + 2, n * k), [n, k]).unwrap();
                let bias = lcg(99, n);
                let qb = QPackedB::from_transb(&bt, prec).unwrap();
                for epi in [
                    Epilogue::none(),
                    Epilogue::col_bias(&bias).with_act(Some(Act::Tanh)),
                    Epilogue::col_bias(&bias).with_act(Some(Act::Relu)),
                ] {
                    let want = reference_q(m, n, k, a.data(), &qb, &epi);
                    let mut c = Tensor::zeros([0usize; 2]);
                    matmul_transb_qpacked_into(&a, &qb, epi, &mut c).unwrap();
                    assert_eq!(c.data(), &want[..], "{prec} ({m},{k},{n})");
                }
            }
        }
    }

    #[test]
    fn kc_slabs_do_not_change_quantized_results() {
        // The single row against 136 columns (nine panels) runs two
        // grouped tiles and a ragged 1-panel one.
        for (m, k, n) in [(13usize, 37usize, 29usize), (1, 37, 136)] {
            let a = Tensor::from_vec(lcg(5, m * k), [m, k]).unwrap();
            let bt = Tensor::from_vec(lcg(6, n * k), [n, k]).unwrap();
            let bias = lcg(7, n);
            for prec in [Precision::Bf16, Precision::Int8] {
                let qb = QPackedB::from_transb(&bt, prec).unwrap();
                let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Tanh));
                let mut base = Tensor::zeros([0usize; 2]);
                matmul_transb_qpacked_into_kc(&a, &qb, epi, &mut base, 1).unwrap();
                for kc in [2usize, 3, 8, 16, 64, 4096] {
                    let mut c = Tensor::zeros([0usize; 2]);
                    matmul_transb_qpacked_into_kc(&a, &qb, epi, &mut c, kc).unwrap();
                    assert_eq!(c.data(), base.data(), "{prec} kc={kc}");
                }
            }
        }
    }

    /// The four shape families of `tests/prop_quant_gemm.rs` (general,
    /// narrow, batch-1 wide, full tiles).
    fn shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
        prop_oneof![
            (1usize..70, 1usize..40, 0usize..50, any::<u64>()),
            (1usize..200, 1usize..=8, 0usize..50, any::<u64>()),
            (1usize..=2, 40usize..=150, 0usize..=300, any::<u64>()),
            (
                2usize..=40,
                (1usize..=4, 0usize..3).prop_map(|(p, d)| 16 * p - 1 + d),
                0usize..=300,
                any::<u64>(),
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cache-slab depth partitions the `k` chain into partials that
        /// are stored and reloaded losslessly — no `kc` may change a bit.
        #[test]
        fn quantized_gemm_bits_survive_kc_blocking((m, n, k, seed) in shape()) {
            let a = Tensor::from_vec(lcg(seed, m * k), [m, k]).unwrap();
            let btt = Tensor::from_vec(lcg(seed ^ 0xA5A5A5A5, n * k), [n, k]).unwrap();
            let bias = lcg(seed ^ 0x777, n);
            let epi = Epilogue::col_bias(Box::leak(bias.into_boxed_slice()))
                .with_act(Some(Act::Tanh));
            for prec in [Precision::Bf16, Precision::Int8] {
                let qb = QPackedB::from_transb(&btt, prec).unwrap();
                let mut base = Tensor::zeros([0usize; 2]);
                matmul_transb_qpacked_into(&a, &qb, epi, &mut base).unwrap();
                for kc in [1usize, 3, 16, 1 << 20] {
                    let mut c = Tensor::zeros([0usize; 2]);
                    matmul_transb_qpacked_into_kc(&a, &qb, epi, &mut c, kc).unwrap();
                    prop_assert_eq!(c.data(), base.data(), "{:?}, kc {}", prec, kc);
                }
            }
        }
    }

    #[test]
    fn bf16_pack_of_bf16_exact_weights_matches_f32_kernel() {
        // Weights already on the bf16 grid survive the pack losslessly,
        // so the quantized kernel must equal the f32 kernel bit for bit.
        let (m, k, n) = (9usize, 24usize, 33usize);
        let bt_exact: Vec<f32> = lcg(8, n * k)
            .into_iter()
            .map(|v| bf16_decode(bf16_encode(v)))
            .collect();
        let a = Tensor::from_vec(lcg(9, m * k), [m, k]).unwrap();
        let btt = Tensor::from_vec(bt_exact, [n, k]).unwrap();
        let bias = lcg(10, n);
        let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Sigmoid));
        let qb = QPackedB::from_transb(&btt, Precision::Bf16).unwrap();
        let pb = crate::gemm::PackedB::from_transb(&btt).unwrap();
        let mut cq = Tensor::zeros([0usize; 2]);
        matmul_transb_qpacked_into(&a, &qb, epi, &mut cq).unwrap();
        let mut cf = Tensor::zeros([0usize; 2]);
        crate::gemm::matmul_transb_packed_into(&a, &pb, epi, &mut cf).unwrap();
        assert_eq!(cq.data(), cf.data());
    }

    #[test]
    fn precision_tags_round_trip() {
        for p in [Precision::F32, Precision::Bf16, Precision::Int8] {
            assert_eq!(Precision::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Precision::from_tag(9), None);
        for p in [Precision::F32, Precision::Bf16, Precision::Int8] {
            assert_eq!(Precision::from_name(p.name()), Some(p));
        }
        assert_eq!(Precision::from_name("F32"), None);
        // The ladder order the fallback controller walks.
        assert!(Precision::Int8 < Precision::Bf16);
        assert!(Precision::Bf16 < Precision::F32);
    }

    #[test]
    fn scale_err_bound_holds() {
        let bt = Tensor::from_vec(lcg(11, 40 * 24), [40, 24]).unwrap();
        for prec in [Precision::Bf16, Precision::Int8] {
            let qb = QPackedB::from_transb(&bt, prec).unwrap();
            let err = qb.max_abs_scale_err(&bt);
            assert!(err <= 0.5 + 1e-4, "{prec}: err={err}");
        }
    }

    #[test]
    fn zero_channel_gets_unit_scale_and_exact_zero() {
        let mut w = lcg(12, 5 * 8);
        for v in &mut w[2 * 8..3 * 8] {
            *v = 0.0;
        }
        let bt = Tensor::from_vec(w, [5, 8]).unwrap();
        let qb = QPackedB::from_transb(&bt, Precision::Int8).unwrap();
        assert_eq!(qb.scales[2], 1.0);
        for kk in 0..8 {
            assert_eq!(qb.chain_weight(2, kk), 0.0);
        }
    }

    /// A NaN weight poisons its channel's scale, so that column's output is
    /// NaN at int8 as it is at bf16 (and f32) — not the plausible value its
    /// other weights would give if the NaN quantized to 0. The other
    /// columns are untouched.
    #[test]
    fn nan_weight_gives_a_nan_column_on_every_rung() {
        let (m, k, n) = (3usize, 10usize, 5usize);
        let mut w = lcg(13, n * k);
        w[3 * k + 4] = f32::NAN;
        let bt = Tensor::from_vec(w, [n, k]).unwrap();
        let a = Tensor::from_vec(lcg(14, m * k), [m, k]).unwrap();
        for prec in [Precision::Bf16, Precision::Int8] {
            let qb = QPackedB::from_transb(&bt, prec).unwrap();
            let mut c = Tensor::zeros([0usize; 2]);
            matmul_transb_qpacked_into(&a, &qb, Epilogue::none(), &mut c).unwrap();
            for (idx, v) in c.data().iter().enumerate() {
                assert_eq!(
                    v.is_nan(),
                    idx % n == 3,
                    "{prec}: C[{}, {}] = {v}",
                    idx / n,
                    idx % n
                );
            }
        }
        let qb = QPackedB::from_transb(&bt, Precision::Int8).unwrap();
        assert!(qb.col_scale(3).is_nan());
        assert!(qb.col_scale(2).is_finite());
    }

    /// The packs encoded from the f32 panels equal the strided packer's
    /// byte for byte, on every `n` from 1 to 70 (ragged panels of every
    /// width) at depths 0, 1, 5, 256 and 300, over weights holding NaN,
    /// ±inf, ±0, subnormals, an all-zero channel and exact int8 ties.
    #[test]
    fn packs_from_the_f32_panels_equal_the_strided_oracle() {
        for n in 1..=70usize {
            for k in [0usize, 1, 5, 256, 300] {
                let w = edge_weights(n, k, (n * 1000 + k) as u64);
                let t = Tensor::from_vec(w, [n, k]).unwrap();
                let pb = PackedB::from_transb(&t).unwrap();
                for prec in [Precision::Bf16, Precision::Int8] {
                    let what = format!("{prec} n={n} k={k}");
                    let got = QPackedB::from_packed(&pb, prec).unwrap();
                    assert_same_pack(&got, &strided_oracle(&t, prec), &what);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same equality at random shapes and seeds, from a grow-only
        /// pack first filled for a larger matrix: only the first
        /// `packed_elems(k, n)` panel elements are read.
        #[test]
        fn packs_from_a_reused_f32_pack_equal_the_strided_oracle(
            n in 1usize..70,
            k in 0usize..40,
            seed in any::<u64>(),
        ) {
            let mut pb = PackedB::new();
            let big = edge_weights(80, 48, seed ^ 0xBEEF);
            pb.pack_rows_into(&big, 80, 48);
            let w = edge_weights(n, k, seed);
            pb.pack_rows_into(&w, n, k);
            let t = Tensor::from_vec(w, [n, k]).unwrap();
            for prec in [Precision::Bf16, Precision::Int8] {
                let got = QPackedB::from_packed(&pb, prec).unwrap();
                assert_same_pack(&got, &strided_oracle(&t, prec), &format!("{prec} n={n} k={k}"));
            }
        }
    }

    #[test]
    fn int8_quantize_equals_the_saturating_cast() {
        let scales = [1.0f32, 0.0, 1e-40, f32::INFINITY, f32::NAN, 0.37, -2.0];
        let mut s = 5u32;
        for i in 0..200_000u32 {
            s = s.wrapping_mul(747796405).wrapping_add(2891336453);
            let v = f32::from_bits(s.rotate_left(i % 32));
            for scale in scales {
                let want = (v / scale).round().clamp(-127.0, 127.0) as i8;
                assert_eq!(
                    int8_quantize(v, scale),
                    want,
                    "v={v:e} ({:#x}) scale={scale}",
                    v.to_bits()
                );
            }
        }
        for t in -300..=300 {
            let v = t as f32 * 0.5;
            assert_eq!(
                int8_quantize(v, 1.0),
                v.round().clamp(-127.0, 127.0) as i8,
                "{v}"
            );
        }
    }

    /// Same-process A/B of the two ways to build the reduced rungs of one
    /// `k = n = 4096` weight matrix (the hidden layer `wide_b1_int8` is made
    /// of): the strided packer this module had (each rung transposes the
    /// row-major weights again) against encoding the f32 panels the compile
    /// pass has already packed. One thread, alternating calls, p50 of each;
    /// prints both times per rung and asserts the packs equal byte for byte.
    /// Run it in the release build with `--nocapture --test-threads=1`.
    #[test]
    fn packs_from_panels_against_strided_oracle_same_process() {
        let (k, n, calls) = if cfg!(debug_assertions) {
            (256, 256, 2)
        } else {
            (4096, 4096, 9)
        };
        let t = Tensor::from_vec(lcg(31, n * k), [n, k]).unwrap();
        let pb = PackedB::from_transb(&t).unwrap();
        let time_us = |f: &mut dyn FnMut() -> QPackedB| {
            // lint: allow(no-wall-clock) — a test's stopwatch around whole calls; no result reads it
            let start = std::time::Instant::now();
            let q = f();
            (start.elapsed().as_secs_f64() * 1e6, q)
        };
        let p50 = |t: &mut Vec<f64>| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        let mut line = format!("[{n}, {k}] weights, 1 thread, p50 of {calls}:");
        for prec in [Precision::Bf16, Precision::Int8] {
            let (mut t_old, mut t_new) = (Vec::new(), Vec::new());
            for _ in 0..calls {
                let (us, old) = time_us(&mut || strided_oracle(&t, prec));
                t_old.push(us);
                let (us, new) = time_us(&mut || QPackedB::from_packed(&pb, prec).unwrap());
                t_new.push(us);
                assert_same_pack(&new, &old, &format!("{prec}"));
            }
            line += &format!(
                " {prec} strided {:.0} µs, from panels {:.0} µs;",
                p50(&mut t_old),
                p50(&mut t_new)
            );
        }
        println!("{line}");
    }

    /// The int8 rung as it was before the chain ran on the stored integers:
    /// every weight decoded to `q as f32 * scale`, no finishing scale.
    struct DecodeScaledInt8;
    impl PanelCodec<f32> for DecodeScaledInt8 {
        type Q = i8;
        #[inline(always)]
        fn decode(raw: i8, scale: f32) -> f32 {
            int8_dequantize(raw, scale)
        }
    }

    /// Same-process A/B of the int8 rung against the rung it replaced
    /// (every weight decoded to `q·scale`, `k` walked in `KC` slabs) and
    /// against bf16 at `m = 1, k = n = 4096` + bias + ReLU (the batch-1
    /// layer `wide_b1_int8` is made of): one thread, alternating calls, p50
    /// of 200 of each. Prints the three times; asserts each output against
    /// its oracle bit for bit (the replaced rung's: the chain over
    /// `q·scale`). Run it in the release build with `--nocapture
    /// --test-threads=1`.
    #[test]
    fn int8_against_decode_scaled_int8_and_bf16_same_process() {
        let (k, n, calls) = if cfg!(debug_assertions) {
            (512, 512, 3)
        } else {
            (4096, 4096, 200)
        };
        let a = Tensor::from_vec(lcg(21, k), [1, k]).unwrap();
        let bt = Tensor::from_vec(lcg(22, n * k), [n, k]).unwrap();
        let bias = lcg(23, n);
        let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Relu));
        let q8 = QPackedB::from_transb(&bt, Precision::Int8).unwrap();
        let q16 = QPackedB::from_transb(&bt, Precision::Bf16).unwrap();
        let QData::Int8(q8_data) = &q8.data else {
            unreachable!("an int8 pack stores i8")
        };
        let old = |c: &mut Vec<f32>| {
            let b = Panels {
                data: &q8_data[..],
                scales: &q8.scales[..],
            };
            let kc = gemm::KC;
            gemm::gemm_driver::<f32, DecodeScaledInt8>(1, n, k, a.data(), b, epi, c, kc, false);
        };
        let (mut c8, mut c16, mut c_old) = (
            Tensor::zeros([0usize; 2]),
            Tensor::zeros([0usize; 2]),
            vec![0.0f32; n],
        );
        let mut t = [Vec::new(), Vec::new(), Vec::new()];
        let time_us = |f: &mut dyn FnMut()| {
            // lint: allow(no-wall-clock) — a test's stopwatch around whole calls; no result reads it
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        };
        hpacml_par::with_pool(&hpacml_par::Pool::new(0), || {
            for _ in 0..calls {
                t[0].push(time_us(&mut || {
                    matmul_transb_qpacked_into(&a, &q8, epi, &mut c8).unwrap()
                }));
                t[1].push(time_us(&mut || old(&mut c_old)));
                t[2].push(time_us(&mut || {
                    matmul_transb_qpacked_into(&a, &q16, epi, &mut c16).unwrap()
                }));
            }
        });
        assert_eq!(
            c8.data(),
            &reference_q(1, n, k, a.data(), &q8, &epi)[..],
            "int8"
        );
        assert_eq!(
            c16.data(),
            &reference_q(1, n, k, a.data(), &q16, &epi)[..],
            "bf16"
        );
        let mut want_old = vec![0.0f32; n];
        for (j, out) in want_old.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for kk in 0..k {
                // `q as f32 * scale`, the weight the replaced rung multiplied.
                acc += a.data()[kk] * (q8.chain_weight(j, kk) * q8.col_scale(j));
            }
            *out = Act::Relu.apply(acc + bias[j]);
        }
        assert_eq!(c_old, want_old, "int8, decoded as q·scale");
        let p50 = |t: &mut Vec<f64>| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        println!(
            "[1,{k}]·[{k},{n}] + bias + ReLU, 1 thread, p50 of {calls}: int8 {:.1} µs, \
             int8 decoded as q·scale in KC slabs {:.1} µs, bf16 {:.1} µs",
            p50(&mut t[0]),
            p50(&mut t[1]),
            p50(&mut t[2])
        );
    }
}
