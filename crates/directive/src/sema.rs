//! Semantic analysis of functor declarations.
//!
//! Mirrors the checks HPAC-ML's Clang extension performs after parsing
//! (§IV-A): the LHS of a functor must split into *sweep* dimensions
//! (named by symbolic constants) and constant *feature* dimensions; every RHS
//! slice must be affine in the sweep symbols with a constant element count;
//! and the total number of elements the RHS contributes per sweep point must
//! equal the LHS feature extent.
//!
//! The affine coefficients extracted here are exactly what the data bridge's
//! *symbolic shape extraction* step consumes (offsets = constant terms,
//! strides = symbol coefficients).

use crate::ast::{Expr, FunctorDecl, Slice};
use crate::{DirectiveError, Result};
use std::collections::BTreeMap;

/// Concrete values for integer variables (`N`, `M`) and, during bridge
/// evaluation, sweep symbols.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings(BTreeMap<String, i64>);

impl Bindings {
    pub fn new() -> Self {
        Bindings::default()
    }

    pub fn with(mut self, name: impl Into<String>, value: i64) -> Self {
        self.0.insert(name.into(), value);
        self
    }

    pub fn set(&mut self, name: impl Into<String>, value: i64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<i64> {
        self.0.get(name).copied()
    }

    /// Closure adapter for [`Expr::eval`].
    pub fn lookup(&self) -> impl Fn(&str) -> Option<i64> + '_ {
        move |name| self.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Iterate `(name, value)` pairs in sorted (BTreeMap) order — the stable
    /// form cache keys are built from.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Affine decomposition of an expression over a symbol set:
/// `expr = Σ coeff[s]·s + constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineForm {
    pub coeffs: BTreeMap<String, i64>,
    pub constant: i64,
}

/// Decompose `expr` as affine over `syms` (identifiers outside `syms` are
/// rejected); errors if the expression is not affine (e.g. `i*i`, `i*j`).
pub fn affine_form(expr: &Expr, syms: &[String]) -> Result<AffineForm> {
    let mut used = std::collections::BTreeSet::new();
    expr.symbols(&mut used);
    for u in &used {
        if !syms.contains(u) {
            return Err(DirectiveError::Sema(format!(
                "expression `{expr}` uses `{u}` which is not a sweep symbol of this functor"
            )));
        }
    }
    let eval_at =
        |assign: &dyn Fn(&str) -> i64| -> Result<i64> { expr.eval(&|name| Some(assign(name))) };
    let overflow =
        || DirectiveError::Sema(format!("expression `{expr}` overflows a 64-bit integer"));
    let constant = eval_at(&|_| 0)?;
    let mut coeffs = BTreeMap::new();
    for s in syms {
        let v = eval_at(&|name| if name == s { 1 } else { 0 })?;
        coeffs.insert(s.clone(), v.checked_sub(constant).ok_or_else(overflow)?);
    }
    // Verify affinity at probe points: all-ones and a skewed assignment.
    for probe in [1i64, 3] {
        let probe_val = eval_at(&|name| {
            let idx = syms.iter().position(|s| s == name).unwrap_or(0) as i64;
            probe + idx
        })?;
        let predicted = syms
            .iter()
            .enumerate()
            .try_fold(constant, |p, (k, s)| {
                coeffs[s].checked_mul(probe + k as i64)?.checked_add(p)
            })
            .ok_or_else(overflow)?;
        if probe_val != predicted {
            return Err(DirectiveError::Sema(format!(
                "expression `{expr}` is not affine in the sweep symbols"
            )));
        }
    }
    Ok(AffineForm { coeffs, constant })
}

/// One analyzed dimension of a functor's LHS.
#[derive(Debug, Clone, PartialEq)]
pub enum LhsDim {
    /// A bare symbolic constant: one sweep dimension.
    Sweep(String),
    /// A constant range: a feature dimension of the given extent.
    Feature(usize),
}

/// The result of semantic analysis for one functor declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctorInfo {
    pub decl: FunctorDecl,
    /// LHS dimension classification, in order.
    pub lhs_dims: Vec<LhsDim>,
    /// Sweep symbols in LHS order.
    pub sweep_syms: Vec<String>,
    /// Product of feature-dim extents (elements per sweep point on the LHS).
    pub feature_extent: usize,
    /// Per-RHS-slice element count per sweep point.
    pub rhs_elem_counts: Vec<usize>,
}

/// Extent of a slice whose bounds must be constant with respect to `syms`
/// (symbol terms may appear but must cancel, e.g. `j-1 : j+2` has extent 3).
fn slice_extent(slice: &Slice, syms: &[String], what: &str) -> Result<usize> {
    let stop = match &slice.stop {
        None => return Ok(1),
        Some(s) => s,
    };
    let start_form = affine_form(&slice.start, syms)?;
    let stop_form = affine_form(stop, syms)?;
    for s in syms {
        if start_form.coeffs[s] != stop_form.coeffs[s] {
            return Err(DirectiveError::Sema(format!(
                "{what}: slice `{slice}` has a symbol-dependent extent"
            )));
        }
    }
    let span = stop_form
        .constant
        .checked_sub(start_form.constant)
        .ok_or_else(|| {
            DirectiveError::Sema(format!("{what}: slice `{slice}` has an overflowing extent"))
        })?;
    let step = match &slice.step {
        None => 1,
        Some(e) => {
            let form = affine_form(e, syms)?;
            if form.coeffs.values().any(|c| *c != 0) {
                return Err(DirectiveError::Sema(format!(
                    "{what}: slice `{slice}` has a symbol-dependent step"
                )));
            }
            form.constant
        }
    };
    if step <= 0 {
        return Err(DirectiveError::Sema(format!(
            "{what}: slice `{slice}` has non-positive step {step}"
        )));
    }
    if span <= 0 {
        return Err(DirectiveError::Sema(format!(
            "{what}: slice `{slice}` has non-positive extent {span}"
        )));
    }
    Ok(((span - 1) / step + 1) as usize)
}

/// Run semantic analysis on a functor declaration.
pub fn analyze(decl: &FunctorDecl) -> Result<FunctorInfo> {
    // 1. Classify LHS dims: bare symbol = sweep, constant slice = feature.
    let mut lhs_dims = Vec::with_capacity(decl.lhs.rank());
    let mut sweep_syms: Vec<String> = Vec::new();
    for slice in &decl.lhs.0 {
        if slice.is_single() {
            match &slice.start {
                Expr::Ident(name) => {
                    if sweep_syms.contains(name) {
                        return Err(DirectiveError::Sema(format!(
                            "functor `{}`: sweep symbol `{name}` appears twice on the LHS",
                            decl.name
                        )));
                    }
                    sweep_syms.push(name.clone());
                    lhs_dims.push(LhsDim::Sweep(name.clone()));
                    continue;
                }
                Expr::Int(_) => {
                    lhs_dims.push(LhsDim::Feature(1));
                    continue;
                }
                other => {
                    return Err(DirectiveError::Sema(format!(
                        "functor `{}`: LHS dimension `{other}` must be a bare symbol or a constant range",
                        decl.name
                    )));
                }
            }
        }
        // Constant range: may not involve symbols at all.
        let extent = slice_extent(slice, &[], &format!("functor `{}` LHS", decl.name))?;
        lhs_dims.push(LhsDim::Feature(extent));
    }
    let too_many = || {
        DirectiveError::Sema(format!(
            "functor `{}` has more feature elements per point than a usize holds",
            decl.name
        ))
    };
    let feature_extent = lhs_dims
        .iter()
        .filter_map(|d| match d {
            LhsDim::Feature(e) => Some(*e),
            LhsDim::Sweep(_) => None,
        })
        .try_fold(1usize, |p, e| p.checked_mul(e))
        .ok_or_else(too_many)?
        .max(1);

    // 2. RHS slices: affine in the sweep symbols, constant element counts.
    let mut rhs_elem_counts = Vec::with_capacity(decl.rhs.len());
    for spec in &decl.rhs {
        let mut count = 1usize;
        for slice in &spec.0 {
            // Affinity of the start expression (and stop via slice_extent).
            affine_form(&slice.start, &sweep_syms)?;
            let extent = slice_extent(slice, &sweep_syms, &format!("functor `{}` RHS", decl.name))?;
            count = count.checked_mul(extent).ok_or_else(too_many)?;
        }
        rhs_elem_counts.push(count);
    }

    // 3. LHS feature extent must match the RHS contribution.
    let rhs_total = rhs_elem_counts
        .iter()
        .try_fold(0usize, |t, &c| t.checked_add(c))
        .ok_or_else(too_many)?;
    if rhs_total != feature_extent {
        return Err(DirectiveError::Sema(format!(
            "functor `{}`: LHS declares {feature_extent} feature element(s) per point but the RHS provides {rhs_total}",
            decl.name
        )));
    }

    Ok(FunctorInfo {
        decl: decl.clone(),
        lhs_dims,
        sweep_syms,
        feature_extent,
        rhs_elem_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_directive;
    use crate::Directive;

    fn functor(src: &str) -> FunctorDecl {
        match parse_directive(src).unwrap() {
            Directive::Functor(f) => f,
            other => panic!("expected functor, got {other:?}"),
        }
    }

    #[test]
    fn fig2_input_functor_analyzes() {
        let f =
            functor("tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))");
        let info = analyze(&f).unwrap();
        assert_eq!(info.sweep_syms, vec!["i", "j"]);
        assert_eq!(info.feature_extent, 5);
        assert_eq!(info.rhs_elem_counts, vec![1, 1, 3]);
        assert_eq!(
            info.lhs_dims,
            vec![
                LhsDim::Sweep("i".into()),
                LhsDim::Sweep("j".into()),
                LhsDim::Feature(5)
            ]
        );
    }

    #[test]
    fn fig2_output_functor_analyzes() {
        let f = functor("tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))");
        let info = analyze(&f).unwrap();
        assert_eq!(info.feature_extent, 1);
        assert_eq!(info.rhs_elem_counts, vec![1]);
    }

    #[test]
    fn flat_feature_block_functor() {
        // Rows of 6 features from a flat array: [i, 0:6] = ([6*i : 6*i+6]).
        let f = functor("tensor functor(rows: [i, 0:6] = ([6*i : 6*i+6]))");
        let info = analyze(&f).unwrap();
        assert_eq!(info.sweep_syms, vec!["i"]);
        assert_eq!(info.feature_extent, 6);
        assert_eq!(info.rhs_elem_counts, vec![6]);
    }

    #[test]
    fn extent_mismatch_rejected() {
        let f = functor("tensor functor(bad: [i, 0:4] = ([i-1], [i+1]))");
        let err = analyze(&f).unwrap_err();
        assert!(matches!(err, DirectiveError::Sema(s) if s.contains("4 feature")));
    }

    #[test]
    fn non_affine_rhs_rejected() {
        let f = functor("tensor functor(sq: [i, 0:1] = ([i*i]))");
        assert!(matches!(analyze(&f), Err(DirectiveError::Sema(_))));
    }

    #[test]
    fn symbol_dependent_extent_rejected() {
        let f = functor("tensor functor(varlen: [i, 0:3] = ([0:i]))");
        assert!(analyze(&f).is_err());
    }

    #[test]
    fn foreign_symbol_rejected() {
        let f = functor("tensor functor(foreign: [i, 0:1] = ([k]))");
        let err = analyze(&f).unwrap_err();
        assert!(matches!(err, DirectiveError::Sema(s) if s.contains('k')));
    }

    #[test]
    fn duplicate_sweep_symbol_rejected() {
        let f = functor("tensor functor(dup: [i, i, 0:1] = ([i, i]))");
        assert!(analyze(&f).is_err());
    }

    #[test]
    fn stepped_slice_extent() {
        let f = functor("tensor functor(s: [i, 0:3] = ([2*i : 2*i+6 : 2]))");
        let info = analyze(&f).unwrap();
        assert_eq!(info.rhs_elem_counts, vec![3]);
    }

    #[test]
    fn negative_or_zero_extent_rejected() {
        let f = functor("tensor functor(z: [i, 0:1] = ([5:5]))");
        assert!(analyze(&f).is_err());
    }

    /// Probing `2^62·i + 2^62·i` for affinity evaluates it at `i = 1`,
    /// where it is `2^63`: a typed error, not an overflow panic.
    #[test]
    fn affine_probe_overflow_is_a_sema_error() {
        let f = functor(
            "tensor functor(big: [i, 0:1] = ([4611686018427387904*i + 4611686018427387904*i]))",
        );
        let err = analyze(&f).unwrap_err();
        assert!(
            matches!(&err, DirectiveError::Sema(s) if s.contains("overflows")),
            "{err}"
        );
    }

    /// A slice whose span does not fit an `i64`, and one whose span does but
    /// whose rounded-up element count used to overflow on the way.
    #[test]
    fn slice_extent_overflow_is_a_sema_error() {
        let f = functor("tensor functor(wide: [i, 0:1] = ([-2 : 9223372036854775807]))");
        let err = analyze(&f).unwrap_err();
        assert!(
            matches!(&err, DirectiveError::Sema(s) if s.contains("overflowing extent")),
            "{err}"
        );
        // Span i64::MAX, step 2: 2^62 elements, which the LHS does not hold.
        let f = functor("tensor functor(half: [i, 0:1] = ([0 : 9223372036854775807 : 2]))");
        let err = analyze(&f).unwrap_err();
        assert!(
            matches!(&err, DirectiveError::Sema(s) if s.contains("provides 4611686018427387904")),
            "{err}"
        );
    }

    /// Element counts multiply extents and add slices: 2^32 × 2^32 on
    /// either side, and RHS slices of 2^63 - 1, 2^63 - 1 and 2, do not fit
    /// a `usize`.
    #[test]
    fn element_count_overflow_is_a_sema_error() {
        for src in [
            "tensor functor(l: [i, 0:4294967296, 0:4294967296] = ([i]))",
            "tensor functor(r: [i, 0:1] = ([0:4294967296, 0:4294967296]))",
            "tensor functor(t: [i, 0:1] = ([0:9223372036854775807], [0:9223372036854775807], [0:2]))",
        ] {
            let err = analyze(&functor(src)).unwrap_err();
            assert!(
                matches!(&err, DirectiveError::Sema(s) if s.contains("than a usize holds")),
                "{src}: {err}"
            );
        }
    }

    #[test]
    fn affine_form_extracts_coefficients() {
        let f = functor("tensor functor(c: [i, j, 0:1] = ([3*i - 2, j + 4]))");
        let info = analyze(&f).unwrap();
        let e = &info.decl.rhs[0].0[0].start;
        let form = affine_form(e, &info.sweep_syms).unwrap();
        assert_eq!(form.constant, -2);
        assert_eq!(form.coeffs["i"], 3);
        assert_eq!(form.coeffs["j"], 0);
    }

    #[test]
    fn bindings_builder() {
        let b = Bindings::new().with("N", 16).with("M", 8);
        assert_eq!(b.get("N"), Some(16));
        assert_eq!(b.get("Q"), None);
        assert_eq!(b.names().collect::<Vec<_>>(), vec!["M", "N"]);
        let look = b.lookup();
        assert_eq!(look("M"), Some(8));
    }
}
