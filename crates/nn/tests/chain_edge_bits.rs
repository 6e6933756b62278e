//! The narrow chain's fused finish on edge values: lanes holding NaN, ±0.0,
//! ±inf and values past the tanh clamp (±7.9053115) go through chains of
//! 2–8 layers with every activation and every codec, first-layer `k` in
//! {1, 5, 16, 17, 256}, and row counts whose blocks cross 16-row boundaries
//! and end ragged. Each layer's chain is finished (scale, bias, activation)
//! as the next layer loads it, so a mistake in that order, or a lane of one
//! row leaking into another, shows here first. The bits must be those of
//! the layers run one by one, from a row-major tensor and from the same rows
//! read in place in runs of uneven length.

use hpacml_nn::layer::Linear;
use hpacml_nn::{ForwardWorkspace, Layer, Sequential};
use hpacml_tensor::gemm::InputColumns;
use hpacml_tensor::{Act, Precision, Tensor};

const ACTS: [Option<Act>; 4] = [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)];
const PRECS: [Precision; 3] = [Precision::F32, Precision::Bf16, Precision::Int8];
const TANH_CLAMP: f32 = 7.905_311_5;

/// The edge values a lane may hold.
const EDGES: [f32; 10] = [
    f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    TANH_CLAMP,
    -TANH_CLAMP,
    TANH_CLAMP * 1.5,
    -TANH_CLAMP * 3.0,
    1e-30,
];

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// An edge value one time in four, else a value in `[-12, 12)`: wide
    /// enough that hidden features pass the tanh clamp and saturate the
    /// sigmoid.
    fn lane(&mut self) -> f32 {
        if self.below(4) == 0 {
            EDGES[self.below(EDGES.len())]
        } else {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32 * 24.0 - 12.0
        }
    }
}

/// Compiled `Linear` layers `widths[0] → widths[1] → …` with `acts[s]` fused
/// into layer `s`, packed and quantized for `prec`.
fn stack(widths: &[usize], acts: &[Option<Act>], prec: Precision, seed: u64) -> Vec<Linear> {
    let mut rng = hpacml_nn::init::rng(seed);
    widths
        .windows(2)
        .zip(acts)
        .map(|(w, &act)| {
            let mut l = Linear::new(w[0], w[1], &mut rng);
            if let Some(act) = act {
                assert!(l.fuse_activation(act));
            }
            l.prepack();
            l.quantize(prec);
            l
        })
        .collect()
}

fn model(layers: Vec<Linear>) -> Sequential {
    Sequential::new(
        layers
            .into_iter()
            .map(|l| Box::new(l) as Box<dyn Layer>)
            .collect(),
    )
}

fn layer_by_layer(layers: &[Linear], x: &Tensor, prec: Precision) -> Tensor {
    let mut cur = x.clone();
    for l in layers {
        let mut out = Tensor::default();
        l.forward_into(&cur, &mut out, prec).unwrap();
        cur = out;
    }
    cur
}

/// A row-major `[m, k]` input held feature-major in runs: run `q` of
/// `len[q]` rows keeps feature `f` of its row `r` at
/// `start[q] + f·len[q] + r`.
struct Runs {
    data: Vec<f32>,
    k: usize,
    lens: Vec<usize>,
    starts: Vec<usize>,
}

impl Runs {
    fn new(x: &Tensor, lens: Vec<usize>) -> Runs {
        let (m, k) = (x.dims()[0], x.dims()[1]);
        assert_eq!(lens.iter().sum::<usize>(), m);
        let (mut data, mut starts, mut row0) = (Vec::new(), Vec::new(), 0);
        for &len in &lens {
            starts.push(data.len());
            for f in 0..k {
                data.extend((0..len).map(|r| x.data()[(row0 + r) * k + f]));
            }
            row0 += len;
        }
        Runs {
            data,
            k,
            lens,
            starts,
        }
    }
}

impl InputColumns for Runs {
    fn data(&self) -> &[f32] {
        &self.data
    }

    fn dims(&self) -> (usize, usize) {
        (self.lens.iter().sum(), self.k)
    }

    fn runs(
        &self,
        row0: usize,
        rows: usize,
        base: &mut [usize],
        f: &mut dyn FnMut(&[usize], usize),
    ) {
        let (end, mut first) = (row0 + rows, 0);
        for (&len, &start) in self.lens.iter().zip(&self.starts) {
            let (lo, hi) = (row0.max(first), end.min(first + len));
            if lo < hi {
                for (fi, b) in base.iter_mut().enumerate() {
                    *b = start + fi * len + (lo - first);
                }
                f(base, hi - lo);
            }
            first += len;
        }
    }
}

/// Equal bits, or NaN on both sides: which NaN an add of two NaN operands
/// returns follows the operand order the optimizer gave it, in the per-layer
/// kernels as in the chain, so only NaN-ness is compared.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}");
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            same(g, w),
            "{what}: element {i} is {g:?} ({:#x}), layer by layer {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn edge_lanes_give_the_layer_by_layer_bits() {
    let mut rng = Rng(42);
    let mut case = 0u64;
    for len in 2..=8usize {
        for k in [1usize, 5, 16, 17, 256] {
            for prec in PRECS {
                case += 1;
                let mut widths = vec![k];
                widths.extend((0..len).map(|_| 1 + rng.below(8)));
                let rot = rng.below(4);
                let acts: Vec<_> = (0..len).map(|s| ACTS[(rot + s) % 4]).collect();
                let layers = stack(&widths, &acts, prec, case);
                let chained = model(stack(&widths, &acts, prec, case));
                let rows = [1usize, 15, 17, 33, 40, 70][rng.below(6)];
                let x = Tensor::from_shape_fn([rows, k], |_| rng.lane());
                let want = layer_by_layer(&layers, &x, prec);
                let what = format!("{prec} widths {widths:?} acts {acts:?} rows {rows}");
                let mut ws = ForwardWorkspace::new();
                let got = ws.forward_at(&chained, &x, prec).unwrap().clone();
                assert_same(&got, &want, &format!("{what}, row-major"));
                // Runs of uneven length: blocks cross from one run into the
                // next, and full blocks start mid-run.
                let mut lens = Vec::new();
                let mut left = rows;
                while left > 0 {
                    let l = (1 + rng.below(37)).min(left);
                    lens.push(l);
                    left -= l;
                }
                let cols = Runs::new(&x, lens.clone());
                let got = ws
                    .forward_columns_at(&chained, &cols, prec)
                    .unwrap()
                    .expect("a chain")
                    .clone();
                assert_same(&got, &want, &format!("{what}, in place in runs {lens:?}"));
            }
        }
    }
}
