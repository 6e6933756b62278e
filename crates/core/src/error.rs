//! Error type unifying the runtime's failure modes.

use hpacml_bridge::BridgeError;
use hpacml_directive::DirectiveError;
use hpacml_nn::NnError;
use hpacml_store::StoreError;
use hpacml_tensor::TensorError;

/// Errors raised by the HPAC-ML runtime.
#[derive(Debug)]
pub enum CoreError {
    /// Directive parsing or semantic analysis failed.
    Directive(DirectiveError),
    /// Data-bridge compilation or execution failed.
    Bridge(BridgeError),
    /// Tensor manipulation failed.
    Tensor(TensorError),
    /// Model load/inference failed.
    Nn(NnError),
    /// Data-collection store failure.
    Store(StoreError),
    /// Region construction or invocation misuse.
    Region(String),
    /// Admission control or batched serving failure (typed, so chaos tests
    /// and callers can distinguish overload from deadline from batch
    /// execution failures).
    Serve(ServeError),
}

/// Typed failures of the [`BatchServer`](crate::serve::BatchServer) serving
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the submit: the server already has
    /// `max_pending` samples staged or executing. Back off and resubmit.
    Overloaded {
        region: String,
        pending: usize,
        max_pending: usize,
    },
    /// The submit's deadline budget cannot be met: the forming batch
    /// flushes `flush_in_ns` from now, later than the caller's
    /// `budget_ns`. Rejected up front instead of stranding the sample.
    Deadline {
        region: String,
        budget_ns: u64,
        flush_in_ns: u64,
    },
    /// The server was shut down; no further submissions are accepted.
    ShutDown { region: String },
    /// The submit's arrays do not match the session's declared per-sample
    /// shapes (count or length). Misuse, rejected before staging.
    Arity { region: String, msg: String },
    /// The batched pass this sample was coalesced into failed. Carries the
    /// member's slot and the batch fill at failure time so fan-out
    /// diagnostics are actionable.
    Batch {
        region: String,
        member: usize,
        fill: usize,
        msg: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                region,
                pending,
                max_pending,
            } => write!(
                f,
                "region `{region}`: overloaded ({pending} samples pending, cap {max_pending})"
            ),
            ServeError::Deadline {
                region,
                budget_ns,
                flush_in_ns,
            } => write!(
                f,
                "region `{region}`: deadline unmeetable (budget {budget_ns}ns, \
                 forming batch flushes in {flush_in_ns}ns)"
            ),
            ServeError::ShutDown { region } => {
                write!(
                    f,
                    "region `{region}`: BatchServer is shut down; submission rejected"
                )
            }
            ServeError::Arity { region, msg } => write!(f, "region `{region}`: {msg}"),
            ServeError::Batch {
                region,
                member,
                fill,
                msg,
            } => write!(
                f,
                "region `{region}`: batched forward pass failed for member {member} \
                 of {fill}: {msg}"
            ),
        }
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Directive(e) => write!(f, "{e}"),
            CoreError::Bridge(e) => write!(f, "{e}"),
            CoreError::Tensor(e) => write!(f, "{e}"),
            CoreError::Nn(e) => write!(f, "{e}"),
            CoreError::Store(e) => write!(f, "{e}"),
            CoreError::Region(s) => write!(f, "region error: {s}"),
            CoreError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DirectiveError> for CoreError {
    fn from(e: DirectiveError) -> Self {
        CoreError::Directive(e)
    }
}

impl From<BridgeError> for CoreError {
    fn from(e: BridgeError) -> Self {
        CoreError::Bridge(e)
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        CoreError::Serve(e)
    }
}

impl From<hpacml_faults::InjectedFault> for CoreError {
    fn from(f: hpacml_faults::InjectedFault) -> Self {
        CoreError::Store(StoreError::Io(f.into()))
    }
}
