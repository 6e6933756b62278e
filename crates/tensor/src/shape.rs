//! Shapes, row-major strides and index arithmetic.

use crate::{Result, TensorError};

/// The extents of an n-dimensional tensor. Row-major (C) layout throughout.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
// lint: allow(crate-local-pub) — in `Tensor`'s constructors (`impl Into<Shape>`) and `Tensor::shape`; callers pass a `Vec<usize>` and never name it
pub struct Shape(Vec<usize>);

impl Shape {
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    pub fn rank(&self) -> usize {
        self.0.len()
    }

    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.0.len(),
            })
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides in *elements* (last dim has stride 1).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-index; panics in debug if out of range.
    #[inline]
    pub(crate) fn offset_of(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.0.len(), "index rank mismatch");
        let strides = self.strides();
        let mut off = 0usize;
        for (k, &i) in index.iter().enumerate() {
            debug_assert!(
                i < self.0[k],
                "index {i} out of bound {} on axis {k}",
                self.0[k]
            );
            off += i * strides[k];
        }
        off
    }

    /// Iterate every multi-index in row-major order. Intended for tests and
    /// cold paths; hot kernels use explicit loops.
    pub(crate) fn indices(&self) -> IndexIter {
        IndexIter {
            dims: self.0.clone(),
            cur: vec![0; self.0.len()],
            remaining: self.numel(),
        }
    }

    /// Overwrite the dims in place, reusing the existing allocation when the
    /// capacity suffices. This is what lets workspace tensors change shape on
    /// every forward pass without touching the heap in steady state.
    pub(crate) fn set_dims(&mut self, dims: &[usize]) {
        self.0.clear();
        self.0.extend_from_slice(dims);
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Row-major multi-index iterator.
pub(crate) struct IndexIter {
    dims: Vec<usize>,
    cur: Vec<usize>,
    remaining: usize,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.cur.clone();
        self.remaining -= 1;
        // Increment like an odometer.
        for axis in (0..self.dims.len()).rev() {
            self.cur[axis] += 1;
            if self.cur[axis] < self.dims[axis] {
                break;
            }
            self.cur[axis] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for IndexIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_strides() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new([0usize; 0]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset_of(&[]), 0);
    }

    #[test]
    fn offset_of_matches_manual() {
        let s = Shape::new([4, 5, 6]);
        assert_eq!(s.offset_of(&[0, 0, 0]), 0);
        assert_eq!(s.offset_of(&[1, 2, 3]), 30 + 12 + 3);
        assert_eq!(s.offset_of(&[3, 4, 5]), s.numel() - 1);
    }

    #[test]
    fn index_iter_row_major_order() {
        let s = Shape::new([2, 3]);
        let all: Vec<Vec<usize>> = s.indices().collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn index_iter_len_matches_numel() {
        let s = Shape::new([3, 1, 4]);
        assert_eq!(s.indices().count(), 12);
    }

    #[test]
    fn dim_out_of_range_errors() {
        let s = Shape::new([2, 2]);
        assert!(matches!(s.dim(5), Err(TensorError::AxisOutOfRange { .. })));
    }
}
