//! Owned, contiguous, row-major tensors.

use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::{Result, TensorError};

/// An owned dense tensor with row-major layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T: Scalar = f32> {
    data: Vec<T>,
    shape: Shape,
}

impl<T: Scalar> Tensor<T> {
    /// Build from raw data; `data.len()` must equal `shape.numel()`.
    pub fn from_vec(data: Vec<T>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![T::ZERO; shape.numel()],
            shape,
        }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: T) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Build element-by-element from a function of the multi-index.
    pub fn from_shape_fn(shape: impl Into<Shape>, f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = shape.into();
        let mut f = f;
        let data = shape.indices().map(|idx| f(&idx)).collect();
        Tensor { data, shape }
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Elements the backing storage can hold without reallocating — what the
    /// inference workspaces reserve up front and tests assert stays flat.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Grow the backing storage to hold `numel` elements without touching
    /// the shape or the data, or a typed error when the allocator refuses —
    /// for sizes that come from configuration, where an infallible
    /// allocation would abort the process.
    pub fn try_reserve(&mut self, numel: usize) -> Result<()> {
        self.data
            .try_reserve(numel.saturating_sub(self.data.len()))
            .map_err(|_| TensorError::Reserve { elems: numel })
    }

    pub fn data(&self) -> &[T] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element access by multi-index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> T {
        self.data[self.shape.offset_of(index)]
    }

    /// Reshape this tensor in place to `dims`, growing or shrinking the
    /// backing storage as needed. Existing element values are preserved only
    /// up to `min(old, new)` elements; callers are expected to overwrite the
    /// contents. In steady state (same or smaller numel, same rank) this
    /// performs no heap allocation, which is what the inference workspaces
    /// rely on.
    pub fn resize(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        self.data.resize(self.shape.numel(), T::ZERO);
    }

    /// Reshape in place without touching the data; the new dims must describe
    /// the same element count. Allocation-free when the rank fits the shape's
    /// existing capacity.
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<()> {
        let numel: usize = dims.iter().product();
        if numel != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        self.shape.set_dims(dims);
        Ok(())
    }

    /// Write `f` applied to every element of `self` into `out`, resizing
    /// `out` to match. Allocation-free once `out` has capacity; from
    /// `1 << 16` elements on, the current pool splits the pass.
    pub fn map_into(&self, out: &mut Tensor<T>, f: impl Fn(T) -> T + Sync) {
        out.resize(self.dims());
        let apply = |dst: &mut [T], src: &[T]| {
            for (o, x) in dst.iter_mut().zip(src) {
                *o = f(*x);
            }
        };
        if self.data.len() >= 1 << 16 {
            hpacml_par::par_chunks_mut(&mut out.data, 4096, |start, dst| {
                apply(dst, &self.data[start..])
            });
        } else {
            apply(&mut out.data, &self.data);
        }
    }

    /// Copy `self` verbatim into `out`, resizing `out` to match.
    pub fn copy_into(&self, out: &mut Tensor<T>) {
        out.resize(self.dims());
        out.data.copy_from_slice(&self.data);
    }

    /// Reinterpret as a new shape with the same element count. O(1).
    pub fn reshape(self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.dims().to_vec(),
                to: shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data,
            shape,
        })
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|x| x.to_f64()).sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.sum() / self.data.len() as f64
    }

    /// Max |a - b| over all elements; errors on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor<T>) -> Result<f64> {
        if self.shape != other.shape {
            return Err(TensorError::DimMismatch(format!(
                "{} vs {}",
                self.shape, other.shape
            )));
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max))
    }
}

impl<T: Scalar> Default for Tensor<T> {
    /// An empty rank-1 tensor — the natural seed for workspace arenas that
    /// grow on first use via [`Tensor::resize`].
    fn default() -> Self {
        Tensor {
            data: Vec::new(),
            shape: Shape::new([0usize]),
        }
    }
}

impl<T: Scalar> std::ops::Index<&[usize]> for Tensor<T> {
    type Output = T;
    fn index(&self, index: &[usize]) -> &T {
        &self.data[self.shape.offset_of(index)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0f32; 6], [2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0f32; 5], [2, 3]),
            Err(TensorError::ShapeDataMismatch { .. })
        ));
    }

    #[test]
    fn zeros_full_and_at() {
        let t = Tensor::<f32>::zeros([2, 2]);
        assert_eq!(t.at(&[1, 1]), 0.0);
        let t = Tensor::full([2, 2], 7.0f32);
        assert_eq!(t.at(&[0, 1]), 7.0);
    }

    #[test]
    fn from_shape_fn_indexes_correctly() {
        let t = Tensor::<f64>::from_shape_fn([3, 4], |ix| (ix[0] * 10 + ix[1]) as f64);
        assert_eq!(t.at(&[2, 3]), 23.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [2, 3]).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.at(&[2, 1]), 5.0);
        assert!(Tensor::<f32>::zeros([2, 3]).reshape([4, 2]).is_err());
    }

    #[test]
    fn resize_reuses_capacity_and_reshape_in_place_checks() {
        let mut t = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let cap = t.data.capacity();
        t.resize(&[3, 2]);
        assert_eq!(t.dims(), &[3, 2]);
        t.resize(&[1, 4]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.data.capacity(), cap, "shrinking must not reallocate");
        assert!(t.reshape_in_place(&[4, 1]).is_ok());
        assert!(t.reshape_in_place(&[5]).is_err());
    }

    #[test]
    fn map_into_and_copy_into() {
        let t = Tensor::from_vec(vec![1.0f32, -2.0], [2]).unwrap();
        let mut out = Tensor::zeros([7]);
        t.map_into(&mut out, |x| x * 3.0);
        assert_eq!(out.dims(), &[2]);
        assert_eq!(out.data(), &[3.0, -6.0]);
        let mut c = Tensor::zeros([0]);
        t.copy_into(&mut c);
        assert_eq!(c.data(), t.data());
    }

    #[test]
    fn map_and_mean() {
        let t = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], [4]).unwrap();
        let mut m = Tensor::default();
        t.map_into(&mut m, |x| x * 2.0);
        assert_eq!(m.data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(m.mean(), 5.0);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(vec![1.0f32, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![1.5f32, 1.0], [2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        let c = Tensor::<f32>::zeros([3]);
        assert!(a.max_abs_diff(&c).is_err());
    }
}
