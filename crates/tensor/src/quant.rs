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
//! No kernel. This module supplies the two things that are about
//! quantization — the scalar codecs with their `gemm::PanelCodec`
//! decoders, and [`QPackedB`] packing/audit — to the one macro-kernel in
//! [`crate::gemm`], which every precision runs: the same stripe split, `kc`
//! slabs, register and narrow tiles, epilogue and store.
//!
//! # Determinism
//!
//! The reduced rungs keep the crate-wide bitwise-determinism contract (see
//! [`crate::gemm`]): each stored weight maps to **one canonical f32**
//! (`bf16_decode`, or `int8 as f32 * scale`) at the panel-row load, and
//! from there every output element is the driver's single ascending-`k`
//! f32 add-chain (`acc += a * dequant(b)`, no `mul_add`). Decoding is a
//! pure per-element function of the packed panel — independent of thread
//! count, `KC` blocking, stripe boundaries, tile shape and batch size — so
//! quantized results are a pure function of the quantized panel, not the
//! schedule, and equal the f32 kernel run on the decoded weights bit for
//! bit.
//!
//! # Encodings
//!
//! * **bf16**: the top 16 bits of the f32 representation, encoded with
//!   round-to-nearest-even and stored as `u16`. Decode is a lossless
//!   shift back into the high half of an f32 — exactly representable, no
//!   arithmetic.
//! * **int8 symmetric**: per-output-channel scale `absmax / 127` (abs-max
//!   over that channel's weights), `q = round(w / scale)` clamped to
//!   `±127` (`f32::round`, half-away-from-zero — deterministic, no FPU
//!   mode dependence). Decode is `q as f32 * scale`. Zero maps to zero
//!   exactly, so panel padding decodes to `0.0` at both precisions.

use crate::gemm::{self, Epilogue, PanelCodec, Panels, KC, NR};
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

    /// Human-readable name (bench keys, logs).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
            Precision::Int8 => "int8",
        }
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
#[inline(always)]
pub(crate) fn int8_quantize(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// Decode one int8 weight: the canonical f32 the accumulator chain sees.
#[inline(always)]
pub(crate) fn int8_dequantize(q: i8, scale: f32) -> f32 {
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
/// `absmax/127` for int8, padded with `1.0`).
///
/// Weights are immutable at inference, so layers build one of these once
/// at compile/quantize time and steady-state forwards only ever read it.
#[derive(Debug, Clone)]
pub struct QPackedB {
    k: usize,
    n: usize,
    /// Per-column dequant scales, padded with `1.0` to whole `NR`-wide
    /// panels.
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
    /// `w[out, in]`) at the given precision. `F32` has no quantized pack —
    /// callers keep using [`crate::gemm::PackedB`] for it.
    pub fn from_transb(t: &Tensor<f32>, prec: Precision) -> Result<Self> {
        if t.rank() != 2 {
            return Err(TensorError::DimMismatch(format!(
                "QPackedB::from_transb: expected rank 2, got {:?}",
                t.dims()
            )));
        }
        let (n, k) = (t.dims()[0], t.dims()[1]);
        let bt = t.data();
        let panels = n.div_ceil(NR);
        let mut scales = vec![1.0f32; panels * NR];
        let data = match prec {
            Precision::F32 => {
                return Err(TensorError::DimMismatch(
                    "QPackedB::from_transb: F32 uses the unquantized PackedB".into(),
                ))
            }
            Precision::Bf16 => {
                let mut d = vec![0u16; panels * k * NR];
                gemm::pack_transb_panels(bt, n, k, &mut d, |_, v| bf16_encode(v));
                QData::Bf16(d)
            }
            Precision::Int8 => {
                // Per-output-channel abs-max scales: output channel j is
                // row j of the transb weight matrix = packed column j.
                for (s, ch) in scales.iter_mut().zip(bt.chunks_exact(k.max(1))) {
                    *s = int8_scale(ch.iter().fold(0.0f32, |m, v| m.max(v.abs())));
                }
                let mut d = vec![0i8; panels * k * NR];
                gemm::pack_transb_panels(bt, n, k, &mut d, |j, v| int8_quantize(v, scales[j]));
                QData::Int8(d)
            }
        };
        Ok(QPackedB { k, n, scales, data })
    }

    /// The canonical f32 a stored weight decodes to: `dequant(j, kk)` for
    /// output channel `j`, input `kk` — the exact value the accumulator
    /// chain sees. Test/calibration oracle, not a hot path.
    pub fn dequant(&self, j: usize, kk: usize) -> f32 {
        assert!(j < self.n && kk < self.k, "QPackedB::dequant: out of range");
        let p = j / NR;
        let idx = (p * self.k + kk) * NR + (j % NR);
        match &self.data {
            QData::Bf16(d) => bf16_decode(d[idx]),
            QData::Int8(d) => int8_dequantize(d[idx], self.scales[j]),
        }
    }

    /// Worst-case int8 round-trip error in scale units:
    /// `max |w - dequant(quant(w))| / scale` over all weights. For a
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
                let dq = self.dequant(j, kk);
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

/// int8 panels: `q as f32 * scale` against the element's channel scale.
struct Int8Panel;

impl PanelCodec<f32> for Int8Panel {
    type Q = i8;
    #[inline(always)]
    fn decode(raw: i8, scale: f32) -> f32 {
        int8_dequantize(raw, scale)
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
    matmul_transb_qpacked_into_kc(a, qb, epi, c, KC)
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
            gemm::gemm_driver::<f32, Bf16Panel>(m, n, k, a, b, epi, c, kc)
        }
        QData::Int8(data) => {
            let b = Panels { data, scales };
            gemm::gemm_driver::<f32, Int8Panel>(m, n, k, a, b, epi, c, kc)
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

    /// Naive reference over the *dequantized* weights: one accumulator
    /// per element, ascending k — the canonical semantics the quantized
    /// kernel must reproduce bit for bit.
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
                    acc += a[i * k + kk] * qb.dequant(j, kk);
                }
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
            assert_eq!(qb.dequant(2, kk), 0.0);
        }
    }
}
