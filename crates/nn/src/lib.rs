//! Neural-network engine for HPAC-ML surrogates.
//!
//! The paper uses Torch (the C++ PyTorch API) as the inference backend and
//! trains models offline in Python. No Torch binding exists in the offline
//! crate set, so this crate implements the full contract the HPAC-ML runtime
//! and evaluation need:
//!
//! * **inference** — load an opaque model file and run batched forward passes
//!   ([`engine::InferenceEngine`] with per-path model caching, mirroring the
//!   runtime's lazy model loading described in §IV-B);
//! * **training** — layers with hand-derived backward passes, SGD/Adam(W)
//!   optimizers and a mini-batch training loop, so the repo can actually
//!   train the thousands of models the evaluation campaign requires;
//! * **architecture-as-data** — [`spec::ModelSpec`] describes a network as a
//!   value (with static shape inference), which is what the Bayesian
//!   neural-architecture search manipulates;
//! * **model files** — the `.hml` format ([`serialize`]) plays the role of
//!   TorchScript: a language-agnostic on-disk model (spec + weights +
//!   normalization) loaded by path at application run time.

pub mod data;
pub mod engine;
pub mod fuse;
pub mod init;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod serialize;
pub mod spec;
pub mod train;
pub mod workspace;

pub use data::{InMemoryDataset, Normalizer};
pub use engine::InferenceEngine;
pub use fuse::{compile_for_inference, compile_for_inference_with, CompileInfo, PrecisionPolicy};
pub use layer::Layer;
pub use model::Sequential;
pub use serialize::SavedModel;
pub use spec::{LayerSpec, ModelSpec};
pub use train::{train, History, TrainConfig};
pub use workspace::{ForwardWorkspace, InferWorkspace};

use hpacml_tensor::TensorError;

/// Errors raised by the NN engine.
#[derive(Debug)]
pub enum NnError {
    /// Shape/arity problem surfaced by the tensor layer.
    Tensor(TensorError),
    /// An architecture spec failed shape inference or validation.
    BadSpec(String),
    /// Model (de)serialization failure.
    Serialize(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Training diverged or was misconfigured.
    Train(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BadSpec(s) => write!(f, "bad model spec: {s}"),
            NnError::Serialize(s) => write!(f, "model serialization: {s}"),
            NnError::Io(e) => write!(f, "io error: {e}"),
            NnError::Train(s) => write!(f, "training error: {s}"),
        }
    }
}

impl std::error::Error for NnError {}

impl From<hpacml_faults::InjectedFault> for NnError {
    fn from(f: hpacml_faults::InjectedFault) -> Self {
        NnError::Io(f.into())
    }
}

impl From<hpacml_store::frame::Truncated> for NnError {
    fn from(_: hpacml_store::frame::Truncated) -> Self {
        NnError::Serialize("truncated file".into())
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<std::io::Error> for NnError {
    fn from(e: std::io::Error) -> Self {
        NnError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
