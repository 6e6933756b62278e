//! Datasets, train/validation splits, mini-batching and normalization.
//!
//! Mirrors the paper's workflow (§V-B): collected data are split into a
//! training/validation set and a test set; features and targets are
//! standardized for training, with the normalization folded into the saved
//! model so the deployed surrogate maps raw application values end-to-end.

use crate::{NnError, Result};
use hpacml_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A pair of sample-major tensors `x: [N, ...]`, `y: [N, ...]`.
#[derive(Debug, Clone)]
pub struct InMemoryDataset {
    pub x: Tensor,
    pub y: Tensor,
}

impl InMemoryDataset {
    pub fn new(x: Tensor, y: Tensor) -> Result<Self> {
        if x.dims().is_empty() || y.dims().is_empty() || x.dims()[0] != y.dims()[0] {
            return Err(NnError::Train(format!(
                "dataset: x {:?} and y {:?} disagree on sample count",
                x.dims(),
                y.dims()
            )));
        }
        Ok(InMemoryDataset { x, y })
    }

    pub fn len(&self) -> usize {
        self.x.dims()[0]
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-sample element counts of (x, y).
    pub(crate) fn sample_numel(&self) -> (usize, usize) {
        (
            self.x.dims()[1..].iter().product::<usize>().max(1),
            self.y.dims()[1..].iter().product::<usize>().max(1),
        )
    }

    /// Copy the selected samples into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let (xs, ys) = self.sample_numel();
        let mut xd = Vec::with_capacity(indices.len() * xs);
        let mut yd = Vec::with_capacity(indices.len() * ys);
        for &i in indices {
            xd.extend_from_slice(&self.x.data()[i * xs..(i + 1) * xs]);
            yd.extend_from_slice(&self.y.data()[i * ys..(i + 1) * ys]);
        }
        let mut xdims = self.x.dims().to_vec();
        xdims[0] = indices.len();
        let mut ydims = self.y.dims().to_vec();
        ydims[0] = indices.len();
        InMemoryDataset {
            x: Tensor::from_vec(xd, xdims).expect("subset shape"),
            y: Tensor::from_vec(yd, ydims).expect("subset shape"),
        }
    }

    /// Shuffled split into `(first, second)` where `first` holds
    /// `round(frac·N)` samples.
    pub fn split(&self, frac: f64, seed: u64) -> (Self, Self) {
        let n = self.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut SmallRng::seed_from_u64(seed));
        let cut = ((n as f64) * frac).round() as usize;
        let cut = cut.min(n);
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Iterate `(x_batch, y_batch)` mini-batches, optionally shuffled.
    pub(crate) fn batches(&self, batch_size: usize, shuffle: Option<u64>) -> Batches<'_> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        if let Some(seed) = shuffle {
            order.shuffle(&mut SmallRng::seed_from_u64(seed));
        }
        Batches {
            ds: self,
            order,
            batch_size: batch_size.max(1),
            pos: 0,
        }
    }
}

/// Mini-batch iterator over an [`InMemoryDataset`].
pub(crate) struct Batches<'a> {
    ds: &'a InMemoryDataset,
    order: Vec<usize>,
    batch_size: usize,
    pos: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Tensor);

    fn next(&mut self) -> Option<(Tensor, Tensor)> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.order.len());
        let part = self.ds.subset(&self.order[self.pos..end]);
        self.pos = end;
        Some((part.x, part.y))
    }
}

/// Which axis carries independent statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormAxis {
    /// One (mean, std) per trailing-dim feature — rank-2 `[N, F]` data.
    PerFeature,
    /// One (mean, std) per channel (dim 1) — rank-4 `[N, C, H, W]` data.
    PerChannel,
    /// A single global (mean, std).
    Global,
}

impl NormAxis {
    pub(crate) fn tag(self) -> u8 {
        match self {
            NormAxis::PerFeature => 0,
            NormAxis::PerChannel => 1,
            NormAxis::Global => 2,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Result<Self> {
        match t {
            0 => Ok(NormAxis::PerFeature),
            1 => Ok(NormAxis::PerChannel),
            2 => Ok(NormAxis::Global),
            other => Err(NnError::Serialize(format!("bad norm axis tag {other}"))),
        }
    }
}

/// Standardization: `x' = (x - mean) / std` per group given by [`NormAxis`].
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    pub axis: NormAxis,
    pub mean: Vec<f32>,
    pub std: Vec<f32>,
}

const STD_FLOOR: f64 = 1e-8;

impl Normalizer {
    /// Fit statistics over the sample dimension of `x`.
    pub fn fit(x: &Tensor, axis: NormAxis) -> Result<Self> {
        let groups = Self::group_count(x.dims(), axis)?;
        let mut sums = vec![0.0f64; groups];
        let mut sqs = vec![0.0f64; groups];
        let mut counts = vec![0usize; groups];
        Self::for_each_group(x.dims(), axis, x.data(), |g, v| {
            sums[g] += v as f64;
            sqs[g] += (v as f64) * (v as f64);
            counts[g] += 1;
        });
        let mut mean = Vec::with_capacity(groups);
        let mut std = Vec::with_capacity(groups);
        for g in 0..groups {
            let n = counts[g].max(1) as f64;
            let m = sums[g] / n;
            let var = (sqs[g] / n - m * m).max(0.0);
            mean.push(m as f32);
            std.push(var.sqrt().max(STD_FLOOR) as f32);
        }
        Ok(Normalizer { axis, mean, std })
    }

    fn group_count(dims: &[usize], axis: NormAxis) -> Result<usize> {
        match axis {
            NormAxis::PerFeature => {
                if dims.len() < 2 {
                    return Err(NnError::Train(format!(
                        "per-feature normalization needs rank >= 2, got {dims:?}"
                    )));
                }
                Ok(*dims.last().unwrap())
            }
            NormAxis::PerChannel => {
                if dims.len() != 4 {
                    return Err(NnError::Train(format!(
                        "per-channel normalization needs [N, C, H, W], got {dims:?}"
                    )));
                }
                Ok(dims[1])
            }
            NormAxis::Global => Ok(1),
        }
    }

    /// Map each element to its statistics group.
    fn for_each_group(dims: &[usize], axis: NormAxis, data: &[f32], mut f: impl FnMut(usize, f32)) {
        match axis {
            NormAxis::PerFeature => {
                let fdim = *dims.last().unwrap();
                for (i, v) in data.iter().enumerate() {
                    f(i % fdim, *v);
                }
            }
            NormAxis::PerChannel => {
                let (c, hw) = (dims[1], dims[2] * dims[3]);
                for (i, v) in data.iter().enumerate() {
                    f((i / hw) % c, *v);
                }
            }
            NormAxis::Global => {
                for v in data {
                    f(0, *v);
                }
            }
        }
    }

    fn apply(&self, x: &Tensor, forward: bool) -> Tensor {
        let mut out = x.clone();
        self.apply_in_place(&mut out, forward);
        out
    }

    /// Standardize.
    pub fn transform(&self, x: &Tensor) -> Tensor {
        self.apply(x, true)
    }

    /// Standardize into a caller-owned tensor (resized in place;
    /// allocation-free once `out` has capacity).
    pub(crate) fn transform_into(&self, x: &Tensor, out: &mut Tensor) {
        x.copy_into(out);
        self.transform_in_place(out);
    }

    /// Standardize in place (allocation-free).
    pub(crate) fn transform_in_place(&self, x: &mut Tensor) {
        self.apply_in_place(x, true);
    }

    /// Undo standardization in place (allocation-free).
    pub(crate) fn inverse_in_place(&self, x: &mut Tensor) {
        self.apply_in_place(x, false);
    }

    fn apply_in_place(&self, x: &mut Tensor, forward: bool) {
        // Precompute the two layout constants from the shape, then mutate the
        // data; avoids cloning the dims vector on the hot path.
        let dims = x.dims();
        let group_extent = match self.axis {
            NormAxis::PerFeature => *dims.last().unwrap_or(&1),
            NormAxis::PerChannel => dims[1],
            NormAxis::Global => 1,
        };
        let inner = match self.axis {
            NormAxis::PerFeature => 1,
            NormAxis::PerChannel => dims[2] * dims[3],
            NormAxis::Global => 1,
        };
        let (mean, std) = (&self.mean, &self.std);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            let g = (i / inner) % group_extent;
            *v = if forward {
                (*v - mean[g]) / std[g]
            } else {
                *v * std[g] + mean[g]
            };
        }
    }

    /// Undo standardization.
    pub fn inverse(&self, x: &Tensor) -> Tensor {
        self.apply(x, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize) -> InMemoryDataset {
        let x = Tensor::from_shape_fn([n, 3], |ix| (ix[0] * 3 + ix[1]) as f32);
        let y = Tensor::from_shape_fn([n, 1], |ix| ix[0] as f32);
        InMemoryDataset::new(x, y).unwrap()
    }

    #[test]
    fn mismatched_counts_rejected() {
        let x = Tensor::<f32>::zeros([4, 2]);
        let y = Tensor::<f32>::zeros([5, 1]);
        assert!(InMemoryDataset::new(x, y).is_err());
    }

    #[test]
    fn subset_copies_rows() {
        let d = ds(10);
        let s = d.subset(&[2, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.x.data(), &[6.0, 7.0, 8.0, 21.0, 22.0, 23.0]);
        assert_eq!(s.y.data(), &[2.0, 7.0]);
    }

    #[test]
    fn split_partitions_everything() {
        let d = ds(100);
        let (a, b) = d.split(0.8, 42);
        assert_eq!(a.len(), 80);
        assert_eq!(b.len(), 20);
        // Together they must cover all row labels exactly once.
        let mut seen: Vec<f32> = a.y.data().iter().chain(b.y.data()).copied().collect();
        seen.sort_by(f32::total_cmp);
        let expect: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(seen, expect);
        // Deterministic per seed.
        let (a2, _) = d.split(0.8, 42);
        assert_eq!(a.y.data(), a2.y.data());
    }

    #[test]
    fn batches_cover_dataset() {
        let d = ds(10);
        let total: usize = d.batches(3, None).map(|(x, _)| x.dims()[0]).sum();
        assert_eq!(total, 10);
        let sizes: Vec<usize> = d.batches(3, None).map(|(x, _)| x.dims()[0]).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        // Shuffled batches still cover every sample.
        let mut ys: Vec<f32> = d
            .batches(4, Some(7))
            .flat_map(|(_, y)| y.data().to_vec())
            .collect();
        ys.sort_by(f32::total_cmp);
        assert_eq!(ys, (0..10).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn per_feature_normalizer_standardizes() {
        let x = Tensor::from_vec(vec![0.0f32, 100.0, 2.0, 200.0, 4.0, 300.0], [3, 2]).unwrap();
        let nz = Normalizer::fit(&x, NormAxis::PerFeature).unwrap();
        assert!((nz.mean[0] - 2.0).abs() < 1e-6);
        assert!((nz.mean[1] - 200.0).abs() < 1e-5);
        let t = nz.transform(&x);
        // Column means ~0, stds ~1.
        let col0: f32 = (0..3).map(|i| t.data()[i * 2]).sum::<f32>() / 3.0;
        assert!(col0.abs() < 1e-6);
        let back = nz.inverse(&t);
        assert!(back.max_abs_diff(&x).unwrap() < 1e-4);
    }

    #[test]
    fn per_channel_normalizer_roundtrips() {
        let x = Tensor::from_shape_fn([2, 3, 2, 2], |ix| (ix[1] * 10 + ix[2]) as f32);
        let nz = Normalizer::fit(&x, NormAxis::PerChannel).unwrap();
        assert_eq!(nz.mean.len(), 3);
        let back = nz.inverse(&nz.transform(&x));
        assert!(back.max_abs_diff(&x).unwrap() < 1e-4);
    }

    #[test]
    fn global_normalizer() {
        let x = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], [4, 1]).unwrap();
        let nz = Normalizer::fit(&x, NormAxis::Global).unwrap();
        assert_eq!(nz.mean.len(), 1);
        assert!((nz.mean[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn constant_feature_does_not_divide_by_zero() {
        let x = Tensor::from_vec(vec![5.0f32; 8], [4, 2]).unwrap();
        let nz = Normalizer::fit(&x, NormAxis::PerFeature).unwrap();
        let t = nz.transform(&x);
        assert!(t.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn axis_validation() {
        let x = Tensor::<f32>::zeros([4]);
        assert!(Normalizer::fit(&x, NormAxis::PerFeature).is_err());
        let x = Tensor::<f32>::zeros([4, 2]);
        assert!(Normalizer::fit(&x, NormAxis::PerChannel).is_err());
    }
}
