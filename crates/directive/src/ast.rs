//! AST for the three HPAC-ML directive forms, plus symbolic-expression
//! evaluation.

use crate::{DirectiveError, Result};
use std::collections::BTreeSet;

/// Binary arithmetic operator inside slice expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A symbolic/integer expression (`s-expr` / `c-expr` in the grammar).
///
/// Identifiers are *symbolic constants* (`i`, `j`) inside functor
/// declarations and *integer variables* (`N`, `M`) inside map targets; both
/// resolve through [`crate::sema::Bindings`] at evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Int(i64),
    Ident(String),
    Neg(Box<Expr>),
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Evaluate with every identifier bound. Arithmetic is checked: a value
    /// that does not fit an `i64` is a [`DirectiveError::Sema`], never a
    /// panic or a wrapped result.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<i64>) -> Result<i64> {
        let v = match self {
            Expr::Int(v) => Some(*v),
            Expr::Ident(name) => {
                return lookup(name).ok_or_else(|| DirectiveError::Unbound(name.clone()))
            }
            Expr::Neg(e) => e.eval(lookup)?.checked_neg(),
            Expr::Bin { op, lhs, rhs } => {
                let l = lhs.eval(lookup)?;
                let r = rhs.eval(lookup)?;
                match op {
                    BinOp::Add => l.checked_add(r),
                    BinOp::Sub => l.checked_sub(r),
                    BinOp::Mul => l.checked_mul(r),
                    BinOp::Div if r == 0 => {
                        return Err(DirectiveError::Sema(
                            "division by zero in slice expression".into(),
                        ));
                    }
                    BinOp::Div => l.checked_div(r),
                }
            }
        };
        v.ok_or_else(|| DirectiveError::Sema(format!("`{self}` overflows a 64-bit integer")))
    }

    /// Collect every identifier mentioned.
    pub fn symbols(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Int(_) => {}
            Expr::Ident(n) => {
                out.insert(n.clone());
            }
            Expr::Neg(e) => e.symbols(out),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.symbols(out);
                rhs.symbols(out);
            }
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Ident(n) => write!(f, "{n}"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Bin { op, lhs, rhs } => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                write!(f, "({lhs} {sym} {rhs})")
            }
        }
    }
}

/// One slice inside a specifier: `start [: stop [: step]]`. A bare expression
/// (no colon) is a single-element index.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub start: Expr,
    pub stop: Option<Expr>,
    pub step: Option<Expr>,
}

impl Slice {
    pub fn index(e: Expr) -> Self {
        Slice {
            start: e,
            stop: None,
            step: None,
        }
    }

    pub fn range(start: Expr, stop: Expr) -> Self {
        Slice {
            start,
            stop: Some(stop),
            step: None,
        }
    }

    /// True when this slice addresses exactly one element.
    pub fn is_single(&self) -> bool {
        self.stop.is_none()
    }

    pub fn symbols(&self, out: &mut BTreeSet<String>) {
        self.start.symbols(out);
        if let Some(s) = &self.stop {
            s.symbols(out);
        }
        if let Some(s) = &self.step {
            s.symbols(out);
        }
    }
}

impl std::fmt::Display for Slice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.start)?;
        if let Some(stop) = &self.stop {
            write!(f, ":{stop}")?;
            if let Some(step) = &self.step {
                write!(f, ":{step}")?;
            }
        }
        Ok(())
    }
}

/// A bracketed slice list: `[s-slice, ...]` (an `ss-specifier`).
#[derive(Debug, Clone, PartialEq)]
pub struct SSpec(pub Vec<Slice>);

impl SSpec {
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    pub fn symbols(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for s in &self.0 {
            s.symbols(&mut out);
        }
        out
    }
}

impl std::fmt::Display for SSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

/// `#pragma approx tensor functor(name: lhs = (rhs, ...))`.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctorDecl {
    pub name: String,
    pub lhs: SSpec,
    pub rhs: Vec<SSpec>,
}

/// Data-movement direction of a tensor map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Application memory → tensor space (region inputs).
    To,
    /// Tensor space → application memory (region outputs).
    From,
}

/// The concrete target of a functor application: `array[c-slice, ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MapTarget {
    pub array: String,
    pub slices: Vec<Slice>,
}

/// `#pragma approx tensor map(to|from: functor(array[ranges]))`.
#[derive(Debug, Clone, PartialEq)]
pub struct MapDirective {
    pub direction: Direction,
    pub functor: String,
    pub target: MapTarget,
}

/// Execution mode of the `ml` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlMode {
    /// Always run surrogate inference.
    Infer,
    /// Always run the accurate path and record inputs/outputs.
    Collect,
    /// Decide per invocation from a host boolean.
    Predicated,
}

/// `#pragma approx ml(mode[: cond]) in(...) out(...) inout(...) model(...)
/// db(...) [if(...)]`.
///
/// Per the grammar (`mapped-memory ::= fa-expr | mapped-target-list`), the
/// `in`/`out`/`inout` clauses may either name arrays already covered by a
/// `tensor map` directive or embed a functor application directly — which is
/// how the paper's benchmarks get away with a single standalone map
/// directive (Table II's "a tensor mapping for the input").
#[derive(Debug, Clone, PartialEq)]
pub struct MlDirective {
    pub mode: MlMode,
    /// Raw text of the mode's boolean expression, if present. The host
    /// program supplies the actual value at invocation time (in C this is an
    /// arbitrary C expression the compiler re-emits; here it is surfaced via
    /// the region API).
    pub cond: Option<String>,
    pub inputs: Vec<String>,
    pub outputs: Vec<String>,
    pub inouts: Vec<String>,
    /// Tensor maps embedded in in/out/inout clauses as `fa-expr`s.
    pub embedded_maps: Vec<MapDirective>,
    pub model: Option<String>,
    pub database: Option<String>,
    /// Raw text of the `if` clause controlling surrogate usage fraction
    /// (paper §VI, Observation 4).
    pub if_cond: Option<String>,
}

/// Any parsed directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    Functor(FunctorDecl),
    Map(MapDirective),
    Ml(MlDirective),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind<'a>(pairs: &'a [(&'a str, i64)]) -> impl Fn(&str) -> Option<i64> + 'a {
        move |name| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
    }

    #[test]
    fn expr_eval_arithmetic() {
        // (i - 1) * 2 + N / 3
        let e = Expr::Bin {
            op: BinOp::Add,
            lhs: Box::new(Expr::Bin {
                op: BinOp::Mul,
                lhs: Box::new(Expr::Bin {
                    op: BinOp::Sub,
                    lhs: Box::new(Expr::Ident("i".into())),
                    rhs: Box::new(Expr::Int(1)),
                }),
                rhs: Box::new(Expr::Int(2)),
            }),
            rhs: Box::new(Expr::Bin {
                op: BinOp::Div,
                lhs: Box::new(Expr::Ident("N".into())),
                rhs: Box::new(Expr::Int(3)),
            }),
        };
        let v = e.eval(&bind(&[("i", 5), ("N", 9)])).unwrap();
        assert_eq!(v, (5 - 1) * 2 + 9 / 3);
    }

    #[test]
    fn unbound_symbol_errors() {
        let e = Expr::Ident("q".into());
        assert!(matches!(
            e.eval(&bind(&[])),
            Err(DirectiveError::Unbound(_))
        ));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::Bin {
            op: BinOp::Div,
            lhs: Box::new(Expr::Int(1)),
            rhs: Box::new(Expr::Int(0)),
        };
        assert!(matches!(e.eval(&bind(&[])), Err(DirectiveError::Sema(_))));
    }

    #[test]
    fn overflowing_arithmetic_errors() {
        let int = |v| Box::new(Expr::Int(v));
        let bin = |op, l, r| Expr::Bin {
            op,
            lhs: int(l),
            rhs: int(r),
        };
        for e in [
            bin(BinOp::Add, i64::MAX, 1),
            bin(BinOp::Sub, i64::MIN, 1),
            bin(BinOp::Mul, 1 << 62, 2),
            bin(BinOp::Div, i64::MIN, -1),
            Expr::Neg(int(i64::MIN)),
        ] {
            let err = e.eval(&bind(&[])).unwrap_err();
            assert!(
                matches!(&err, DirectiveError::Sema(s) if s.contains("overflows")),
                "{e}: {err}"
            );
        }
        // The edges themselves still evaluate.
        assert_eq!(
            bin(BinOp::Add, i64::MAX - 1, 1).eval(&bind(&[])).unwrap(),
            i64::MAX
        );
        assert_eq!(
            bin(BinOp::Div, i64::MIN, 1).eval(&bind(&[])).unwrap(),
            i64::MIN
        );
    }

    #[test]
    fn symbols_collected() {
        let s = Slice {
            start: Expr::Ident("i".into()),
            stop: Some(Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Ident("j".into())),
                rhs: Box::new(Expr::Int(2)),
            }),
            step: None,
        };
        let spec = SSpec(vec![s, Slice::index(Expr::Int(0))]);
        let syms = spec.symbols();
        assert_eq!(syms.into_iter().collect::<Vec<_>>(), vec!["i", "j"]);
    }

    #[test]
    fn display_roundtrip_reads_naturally() {
        let spec = SSpec(vec![
            Slice::index(Expr::Ident("i".into())),
            Slice::range(Expr::Int(0), Expr::Int(5)),
        ]);
        assert_eq!(format!("{spec}"), "[i, 0:5]");
    }
}
