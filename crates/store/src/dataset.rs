//! Typed n-dimensional datasets with an appendable outer dimension.

use crate::{Result, StoreError};

/// Element type of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    F32,
    F64,
    I64,
}

impl DType {
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F64 => 8,
            DType::I64 => 8,
        }
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F64 => 1,
            DType::I64 => 2,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(DType::F32),
            1 => Ok(DType::F64),
            2 => Ok(DType::I64),
            other => Err(StoreError::Corrupt(format!("bad dtype tag {other}"))),
        }
    }
}

/// A dataset of logical shape `[rows, inner_shape...]` where `rows` grows by
/// appending. Raw storage is little-endian bytes.
#[derive(Debug, Clone)]
// lint: allow(crate-local-pub) — returned by `Group::dataset`, which callers read without naming the type
pub struct Dataset {
    dtype: DType,
    /// Shape of one entry (may be empty: scalar entries).
    inner_shape: Vec<usize>,
    /// Number of appended entries (the outer dimension).
    rows: usize,
    data: Vec<u8>,
    /// `(id, rows)`: which on-disk dataset holds this one's first `rows`
    /// rows. Written only by the file codec; `(0, 0)` is "none". A clone
    /// keeps it and stays a true extension because the API is append-only.
    pub(crate) persisted: (u64, usize),
}

/// Value equality; where the rows are persisted is not part of the value.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        (self.dtype, &self.inner_shape, self.rows, &self.data)
            == (other.dtype, &other.inner_shape, other.rows, &other.data)
    }
}

impl Dataset {
    pub fn new(dtype: DType, inner_shape: Vec<usize>) -> Self {
        Dataset {
            dtype,
            inner_shape,
            rows: 0,
            data: Vec::new(),
            persisted: (0, 0),
        }
    }

    /// Bytes of one entry, or `Corrupt` when a (decoded, untrusted) shape
    /// overflows. Scalar entries (empty inner shape) occupy one element.
    pub(crate) fn row_bytes(dtype: DType, inner_shape: &[usize]) -> Result<usize> {
        inner_shape
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .and_then(|n| n.max(1).checked_mul(dtype.size_bytes()))
            .ok_or_else(|| StoreError::Corrupt(format!("entry shape {inner_shape:?} overflows")))
    }

    pub(crate) fn from_parts(
        dtype: DType,
        inner_shape: Vec<usize>,
        rows: usize,
        data: Vec<u8>,
    ) -> Result<Self> {
        let expect = Self::row_bytes(dtype, &inner_shape)?.checked_mul(rows);
        if expect != Some(data.len()) {
            return Err(StoreError::Corrupt(format!(
                "dataset payload {} bytes, expected {rows} rows of {inner_shape:?}",
                data.len()
            )));
        }
        Ok(Dataset {
            dtype,
            inner_shape,
            rows,
            data,
            persisted: (0, 0),
        })
    }

    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Shape of a single entry.
    pub fn inner_shape(&self) -> &[usize] {
        &self.inner_shape
    }

    /// Number of entries appended so far (the appendable outer dim).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Full logical shape `[rows, inner...]`.
    pub fn shape(&self) -> Vec<usize> {
        let mut s = vec![self.rows];
        s.extend_from_slice(&self.inner_shape);
        s
    }

    /// Number of elements in one entry.
    pub fn entry_numel(&self) -> usize {
        self.inner_shape.iter().product::<usize>().max(1)
    }

    /// Total raw payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw bytes of rows `row..`.
    pub(crate) fn raw_from(&self, row: usize) -> &[u8] {
        &self.data[row * self.entry_numel() * self.dtype.size_bytes()..]
    }

    fn check_dtype(&self, expected: DType) -> Result<()> {
        if self.dtype != expected {
            return Err(StoreError::TypeMismatch {
                expected,
                actual: self.dtype,
            });
        }
        Ok(())
    }

    fn check_batch(&self, len: usize) -> Result<usize> {
        let entry = self.entry_numel();
        if !len.is_multiple_of(entry) {
            return Err(StoreError::ShapeMismatch(format!(
                "batch of {len} elements is not a multiple of entry size {entry}"
            )));
        }
        Ok(len / entry)
    }

    /// Append one or more entries of f32 data (length must be a multiple of
    /// the entry size). Returns the new row count.
    pub fn append_f32(&mut self, batch: &[f32]) -> Result<usize> {
        self.check_dtype(DType::F32)?;
        let new_rows = self.check_batch(batch.len())?;
        self.data.reserve(batch.len() * 4);
        for v in batch {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        self.rows += new_rows;
        Ok(self.rows)
    }

    /// Append f64 entries.
    pub fn append_f64(&mut self, batch: &[f64]) -> Result<usize> {
        self.check_dtype(DType::F64)?;
        let new_rows = self.check_batch(batch.len())?;
        self.data.reserve(batch.len() * 8);
        for v in batch {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        self.rows += new_rows;
        Ok(self.rows)
    }

    /// Append i64 entries.
    pub fn append_i64(&mut self, batch: &[i64]) -> Result<usize> {
        self.check_dtype(DType::I64)?;
        let new_rows = self.check_batch(batch.len())?;
        self.data.reserve(batch.len() * 8);
        for v in batch {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        self.rows += new_rows;
        Ok(self.rows)
    }

    /// Read the whole dataset as f32.
    pub fn read_f32(&self) -> Result<Vec<f32>> {
        self.check_dtype(DType::F32)?;
        Ok(self
            .data
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Read the whole dataset as f64.
    pub fn read_f64(&self) -> Result<Vec<f64>> {
        self.check_dtype(DType::F64)?;
        Ok(self
            .data
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Read the whole dataset as i64.
    pub fn read_i64(&self) -> Result<Vec<i64>> {
        self.check_dtype(DType::I64)?;
        Ok(self
            .data
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Read a single entry (row) as f32.
    pub fn read_row_f32(&self, row: usize) -> Result<Vec<f32>> {
        self.check_dtype(DType::F32)?;
        if row >= self.rows {
            return Err(StoreError::NotFound(format!("row {row} of {}", self.rows)));
        }
        let entry = self.entry_numel();
        let start = row * entry * 4;
        Ok(self.data[start..start + entry * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_f32() {
        let mut d = Dataset::new(DType::F32, vec![2, 3]);
        assert_eq!(d.append_f32(&[1.0; 6]).unwrap(), 1);
        assert_eq!(d.append_f32(&[2.0; 12]).unwrap(), 3);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.shape(), vec![3, 2, 3]);
        let all = d.read_f32().unwrap();
        assert_eq!(all.len(), 18);
        assert_eq!(d.read_row_f32(1).unwrap(), vec![2.0; 6]);
        assert!(d.read_row_f32(3).is_err());
    }

    #[test]
    fn scalar_entries() {
        let mut d = Dataset::new(DType::F64, vec![]);
        d.append_f64(&[1.5]).unwrap();
        d.append_f64(&[2.5, 3.5]).unwrap();
        assert_eq!(d.rows(), 3);
        assert_eq!(d.read_f64().unwrap(), vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let mut d = Dataset::new(DType::F32, vec![2]);
        assert!(matches!(
            d.append_f64(&[1.0, 2.0]),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(d.read_i64().is_err());
    }

    #[test]
    fn partial_entry_rejected() {
        let mut d = Dataset::new(DType::F32, vec![4]);
        assert!(matches!(
            d.append_f32(&[1.0; 6]),
            Err(StoreError::ShapeMismatch(_))
        ));
        assert_eq!(d.rows(), 0);
    }

    #[test]
    fn i64_roundtrip_and_sizes() {
        let mut d = Dataset::new(DType::I64, vec![2]);
        d.append_i64(&[-1, i64::MAX]).unwrap();
        assert_eq!(d.read_i64().unwrap(), vec![-1, i64::MAX]);
        assert_eq!(d.size_bytes(), 16);
        assert_eq!(DType::F32.size_bytes(), 4);
    }
}
