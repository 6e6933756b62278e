//! Nested Bayesian-driven model exploration (paper §V-C).
//!
//! The paper uses the Adaptive Experimentation platform (Ax) orchestrated by
//! Parsl to run a *nested, two-level, multi-objective* Bayesian optimization:
//! the outer level proposes neural architectures (Table IV spaces), the inner
//! level tunes training hyperparameters (Table V) to minimize validation
//! error for each proposed architecture; the outer level jointly minimizes
//! inference latency and validation error, with early stopping after five
//! consecutive trials without improvement.
//!
//! Neither Ax nor Parsl is available offline, so this crate implements the
//! same algorithmic structure from scratch:
//!
//! * [`gp`] — Gaussian-process regression (RBF kernel, Cholesky solves) on
//!   the unit cube;
//! * [`bo`] — Expected-Improvement Bayesian optimization, plus ParEGO-style
//!   random-Tchebycheff scalarization for the two-objective outer level;
//! * [`space`] — typed parameter spaces (float/log-float/int/choice);
//! * [`spaces`] — the paper's Table IV architecture spaces and Table V
//!   hyperparameter space, and the decoding from configurations to
//!   [`hpacml_nn::ModelSpec`]s;
//! * [`nested`] — the outer/inner driver with the paper's early stopping;
//!   its cost objective is the spec's multiply-add count where the paper
//!   times each trial (a stated deviation, see the module).

pub mod bo;
pub mod gp;
pub mod nested;
pub mod space;
pub mod spaces;

pub use nested::{nested_search, NestedConfig, SearchProblem};
pub use space::{Config, Param, Space};

/// Errors raised by the search stack.
#[derive(Debug)]
// lint: allow(crate-local-pub) — the error of every public search entry point; callers format it without naming the type
pub enum SearchError {
    /// GP fit failed (degenerate kernel matrix even after jitter).
    Gp(String),
    /// Invalid space definition or configuration.
    Space(String),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Gp(s) => write!(f, "gp error: {s}"),
            SearchError::Space(s) => write!(f, "space error: {s}"),
        }
    }
}

impl std::error::Error for SearchError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SearchError>;
