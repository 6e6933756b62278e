//! Front end for the HPAC-ML programming model.
//!
//! The paper implements its directives as `#pragma` extensions in Clang
//! (parser, semantic analysis and AST extensions — §IV). This crate is the
//! corresponding front end in the reproduction: a lexer, recursive-descent
//! parser and semantic analyzer for the *exact grammar of Fig. 3*:
//!
//! ```text
//! #pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
//! #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))
//! #pragma approx ml(predicated: use_model) in(t) out(tnew) model("m.hml") db("d.h5")
//! ```
//!
//! Directive strings are parsed when an approx region is constructed (the
//! moral equivalent of compile time for a pragma); the resulting AST is what
//! the data bridge (`hpacml-bridge`) consumes.

pub mod ast;
mod lex;
pub mod parse;
pub mod sema;

pub use ast::{
    BinOp, Direction, Directive, Expr, FunctorDecl, MapDirective, MapTarget, MlDirective, MlMode,
    SSpec, Slice,
};
pub use lex::unescape;
pub use parse::{parse_directive, parse_directives};
pub use sema::{Bindings, FunctorInfo};

/// Errors from lexing, parsing or semantic analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectiveError {
    /// Unexpected character during lexing.
    Lex { pos: usize, message: String },
    /// Parse failure with location and expectation.
    Parse { pos: usize, message: String },
    /// Semantic rule violation (symbol mismatch, non-affine expression, ...).
    Sema(String),
    /// An identifier was not bound at evaluation time.
    Unbound(String),
}

impl std::fmt::Display for DirectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectiveError::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            DirectiveError::Parse { pos, message } => {
                write!(f, "parse error at byte {pos}: {message}")
            }
            DirectiveError::Sema(s) => write!(f, "semantic error: {s}"),
            DirectiveError::Unbound(s) => write!(f, "unbound identifier `{s}`"),
        }
    }
}

impl std::error::Error for DirectiveError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DirectiveError>;
