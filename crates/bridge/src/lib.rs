//! The HPAC-ML **data bridge**: the machinery of the paper's Fig. 4.
//!
//! A *tensor functor* describes how individual application-memory elements
//! form one tensor entry; a *tensor map* applies the functor over concrete
//! index ranges ("memory concretization"). The bridge compiles a
//! (functor, map, array-shape, bindings) quadruple through the paper's four
//! steps:
//!
//! 1. **Symbolic shape extraction** ([`extract`]) — per RHS slice and
//!    dimension, the affine offset and element count (the `[-1, 0, 1]` /
//!    `[0, -1, 3]` descriptors of Fig. 4);
//! 2. **Symbolic shape resolution** ([`resolve`]) — start/extent/stride of
//!    the resulting tensor dimensions once the sweep ranges are known;
//! 3. **Tensor wrapping** ([`wrap`]) — zero-copy strided views over
//!    application memory (bounds-checked, no elements moved);
//! 4. **Tensor composition** ([`compose`]) — flatten the added dimensions,
//!    concatenate the per-slice tensors and reshape into the LHS tensor.
//!
//! The `from` direction reuses steps 1–3 and *scatters* instead of composing,
//! exactly as §IV-A describes.
//!
//! [`plan::CompiledMap`] packages the result for the runtime: `gather` for
//! `map(to: ...)` and `scatter` for `map(from: ...)`.

pub mod compose;
pub mod extract;
pub mod plan;
pub mod resolve;
pub mod wrap;

pub use plan::{compile, CompiledMap};

use hpacml_directive::DirectiveError;
use hpacml_tensor::TensorError;

/// Errors raised while compiling or executing a data-bridge plan.
#[derive(Debug)]
pub enum BridgeError {
    /// Front-end (grammar/semantic) failure.
    Directive(DirectiveError),
    /// View/shape failure from the tensor layer.
    Tensor(TensorError),
    /// Structural mismatch between functor, map target and array.
    Plan(String),
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Directive(e) => write!(f, "directive error: {e}"),
            BridgeError::Tensor(e) => write!(f, "tensor error: {e}"),
            BridgeError::Plan(s) => write!(f, "bridge plan error: {s}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<DirectiveError> for BridgeError {
    fn from(e: DirectiveError) -> Self {
        BridgeError::Directive(e)
    }
}

impl From<TensorError> for BridgeError {
    fn from(e: TensorError) -> Self {
        BridgeError::Tensor(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BridgeError>;
