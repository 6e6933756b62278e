//! The HPAC-ML **data bridge**: the machinery of the paper's Fig. 4.
//!
//! A *tensor functor* describes how individual application-memory elements
//! form one tensor entry; a *tensor map* applies the functor over concrete
//! index ranges ("memory concretization"). [`compile`] takes a
//! (functor, map, array-shape, bindings) quadruple through the paper's four
//! steps once, and the [`CompiledMap`] it returns moves the data on every
//! invocation:
//!
//! 1. **Symbolic shape extraction** (`extract`) — per RHS slice and
//!    dimension, the affine offset and element count (the `[-1, 0, 1]` /
//!    `[0, -1, 3]` descriptors of Fig. 4);
//! 2. **Symbolic shape resolution** (`resolve`) — start/extent/stride of
//!    the resulting tensor dimensions once the sweep ranges are known;
//! 3. **Tensor wrapping** — compile-time validation of each resolved
//!    strided view against the array (bounds, strides, feature columns,
//!    overflow) and its classification into contiguous runs for the copy
//!    kernel; no wrapper object outlives [`compile`];
//! 4. **Tensor composition** — the row gather
//!    ([`CompiledMap::gather_batch_into`]): each sweep point's features,
//!    from every slice, land as one row of the LHS tensor in one store, so
//!    flatten, concatenate and reshape never materialize.
//!
//! The `from` direction reuses steps 1–3 and *scatters* instead of composing
//! ([`CompiledMap::scatter_batch`]), exactly as §IV-A describes.

mod extract;
mod plan;
mod resolve;

pub use plan::{compile, CompiledMap, PlanColumns};

use hpacml_directive::DirectiveError;

/// Errors raised while compiling or executing a data-bridge plan.
#[derive(Debug)]
pub enum BridgeError {
    /// Front-end (grammar/semantic) failure.
    Directive(DirectiveError),
    /// Structural mismatch between functor, map target and array.
    Plan(String),
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Directive(e) => write!(f, "directive error: {e}"),
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

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BridgeError>;
