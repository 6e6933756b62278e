//! h5lite — a hierarchical, HDF5-like data store.
//!
//! HPAC-ML's data-collection mode stores, per annotated region, an HDF5 group
//! containing three datasets: the gathered *inputs*, the gathered *outputs*,
//! and the *execution time* of the wrapped code region (§IV-B of the paper).
//! The outer dataset dimension is appendable — one entry per region
//! invocation — which is exactly what PyTorch data loaders consume.
//!
//! No HDF5 crate is available offline, so this crate implements the subset of
//! the model HPAC-ML relies on: named groups forming a tree, n-dimensional
//! typed datasets whose outer dimension grows by appending, scalar/string
//! attributes, and a single-file binary codec. See DESIGN.md §1 for the
//! substitution rationale.

pub mod codec;
pub mod dataset;
pub mod file;
pub mod frame;
pub mod group;

pub use dataset::{DType, Dataset};
pub use file::{H5File, RecoveryReport};
pub use group::{Attr, Group};

/// Errors raised by the store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// File did not start with the h5lite magic or had a bad version.
    BadMagic,
    /// The file ended mid-record or contained an invalid tag.
    Corrupt(String),
    /// Type mismatch between a dataset's dtype and the requested access.
    TypeMismatch { expected: DType, actual: DType },
    /// Appended batch does not match the dataset's inner shape.
    ShapeMismatch(String),
    /// A path component was not found or had the wrong node kind.
    NotFound(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic => write!(f, "not an h5lite file (bad magic)"),
            StoreError::Corrupt(s) => write!(f, "corrupt file: {s}"),
            StoreError::TypeMismatch { expected, actual } => {
                write!(
                    f,
                    "dtype mismatch: dataset is {actual:?}, access expects {expected:?}"
                )
            }
            StoreError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
            StoreError::NotFound(s) => write!(f, "not found: {s}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<frame::Truncated> for StoreError {
    fn from(_: frame::Truncated) -> Self {
        StoreError::Corrupt("record overruns its buffer".into())
    }
}

impl From<hpacml_faults::InjectedFault> for StoreError {
    fn from(f: hpacml_faults::InjectedFault) -> Self {
        StoreError::Io(f.into())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
