//! Dense n-dimensional tensors for HPAC-ML.
//!
//! This crate is the reproduction's stand-in for the tensor layer the paper
//! gets from Torch: owned dense tensors for the NN engine, plus the
//! copy kernels ([`gather_rows_raw`], [`scatter_chunks_raw`]) the data
//! bridge (Fig. 4 of the paper) moves every element through between
//! application arrays and tensors — the two memory-concretization
//! primitives the bridge's compiled plans are built on.
//!
//! Compute kernels (matmul, im2col convolution, pooling) run on the
//! [`hpacml_par`] pool, the same substrate the accurate benchmark kernels run
//! on, so surrogate-vs-accurate timings compare like for like.

pub mod gemm;
pub mod linalg;
pub mod ops;
pub mod quant;
pub mod scalar;
pub mod shape;
pub mod tensor;
pub mod view;

pub use gemm::{Act, Bias, Epilogue, PackedB};
pub use quant::{Precision, QPackedB};
pub use scalar::Scalar;
pub use shape::Shape;
pub use tensor::Tensor;
pub use view::{gather_rows_raw, scatter_chunks_raw, GATHER_ROW_MAX};

/// Errors raised by tensor construction and shape manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by the shape does not match the data.
    ShapeDataMismatch { expected: usize, actual: usize },
    /// Reshape target has a different element count.
    ReshapeMismatch { from: Vec<usize>, to: Vec<usize> },
    /// An axis index was out of range for the tensor rank.
    AxisOutOfRange { axis: usize, rank: usize },
    /// Dimension mismatch in a binary op (matmul, zip, ...).
    DimMismatch(String),
    /// A linear-algebra routine failed (e.g. Cholesky of a non-SPD matrix).
    Numerical(String),
    /// The allocator refused storage for this many elements.
    Reserve { elems: usize },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => {
                write!(f, "shape expects {expected} elements but data has {actual}")
            }
            TensorError::ReshapeMismatch { from, to } => {
                write!(
                    f,
                    "cannot reshape {from:?} into {to:?}: element counts differ"
                )
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::DimMismatch(s) => write!(f, "dimension mismatch: {s}"),
            TensorError::Numerical(s) => write!(f, "numerical error: {s}"),
            TensorError::Reserve { elems } => {
                write!(f, "cannot reserve storage for {elems} elements")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
