//! Step 2 — symbolic shape resolution.
//!
//! Combine the extracted slice descriptors with the concrete sweep ranges
//! from the tensor map target and the target array's memory strides. The
//! result is, per RHS slice, a flat-memory view descriptor: base offset plus
//! `(count, stride)` per resulting tensor dimension — the Start/End/Stride
//! triples of the paper's Fig. 4.

use crate::extract::SliceExtract;
use crate::{BridgeError, Result};
use hpacml_directive::ast::{MapTarget, Slice};
use hpacml_directive::sema::Bindings;

/// One concretized sweep symbol: the range its values take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SweepRange {
    pub symbol: String,
    pub start: i64,
    /// Number of points.
    pub count: usize,
    pub step: i64,
}

/// Resolve the map target's concrete slices into sweep ranges, binding them
/// positionally to the functor's sweep symbols (paper §III-B: "i goes from 1
/// to N−1; j is similarly concretized").
pub(crate) fn resolve_sweep(
    sweep_syms: &[String],
    target: &MapTarget,
    binds: &Bindings,
) -> Result<Vec<SweepRange>> {
    if target.slices.len() != sweep_syms.len() {
        return Err(BridgeError::Plan(format!(
            "map target `{}` supplies {} range(s) but the functor has {} sweep symbol(s)",
            target.array,
            target.slices.len(),
            sweep_syms.len()
        )));
    }
    sweep_syms
        .iter()
        .zip(&target.slices)
        .map(|(symbol, slice)| resolve_one(symbol, slice, binds))
        .collect()
}

fn resolve_one(symbol: &str, slice: &Slice, binds: &Bindings) -> Result<SweepRange> {
    let start = slice.start.eval(&binds.lookup())?;
    let (count, step) = match &slice.stop {
        None => (1usize, 1i64),
        Some(stop) => {
            let stop_v = stop.eval(&binds.lookup())?;
            let step = match &slice.step {
                None => 1i64,
                Some(e) => e.eval(&binds.lookup())?,
            };
            if step <= 0 {
                return Err(BridgeError::Plan(format!(
                    "sweep range `{slice}` for `{symbol}` has non-positive step {step}"
                )));
            }
            let span = fits(stop_v.checked_sub(start), || {
                format!("sweep range `{slice}` for `{symbol}` ({start}..{stop_v})")
            })?;
            if span <= 0 {
                return Err(BridgeError::Plan(format!(
                    "sweep range `{slice}` for `{symbol}` is empty ({start}..{stop_v})"
                )));
            }
            (((span - 1) / step + 1) as usize, step)
        }
    };
    Ok(SweepRange {
        symbol: symbol.to_string(),
        start,
        count,
        step,
    })
}

/// A resolved flat-memory view for one RHS slice: `offset` plus one
/// `(count, stride)` pair per tensor dimension — sweep dimensions first (in
/// sweep-symbol order), then the slice's own range dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResolvedView {
    pub offset: i64,
    pub dims: Vec<(usize, i64)>,
    /// How many of `dims` are sweep dimensions.
    pub sweep_rank: usize,
}

/// Resolve one extracted RHS slice against the array's row-major strides and
/// the concrete sweep ranges.
///
/// The flat address of element `(k_1..k_s, e_1..e_r)` (sweep indices `k`,
/// within-slice indices `e`) is
/// `offset + Σ_s k_s·σ_s + Σ_d e_d·(S_d·step_d)` where
/// `σ_s = sweep_step_s · Σ_d S_d·a_{d,s}` and `offset` folds the affine
/// constants and sweep starts.
pub(crate) fn resolve_slice(
    ex: &SliceExtract,
    array_dims: &[usize],
    sweep: &[SweepRange],
) -> Result<ResolvedView> {
    if ex.dims.len() != array_dims.len() {
        return Err(BridgeError::Plan(format!(
            "RHS slice has {} dimension(s) but the target array has rank {}",
            ex.dims.len(),
            array_dims.len()
        )));
    }
    // Row-major strides of the target array.
    let rank = array_dims.len();
    let mut strides = vec![1i64; rank];
    for d in (0..rank.saturating_sub(1)).rev() {
        let extent = i64::try_from(array_dims[d + 1]).ok();
        strides[d] = fits(extent.and_then(|e| strides[d + 1].checked_mul(e)), || {
            format!("row-major stride of array shape {array_dims:?}")
        })?;
    }

    // Base offset: affine constants plus sweep starts.
    let offset = fits(
        ex.dims
            .iter()
            .enumerate()
            .try_fold(0i64, |offset, (d, dim)| {
                let first_index = sweep.iter().try_fold(dim.start.constant, |first, sr| {
                    dim.start.coeffs[&sr.symbol]
                        .checked_mul(sr.start)?
                        .checked_add(first)
                })?;
                strides[d].checked_mul(first_index)?.checked_add(offset)
            }),
        || "base offset of an RHS slice".to_string(),
    )?;

    let mut dims = Vec::with_capacity(sweep.len() + rank);
    // Sweep dimensions, in sweep-symbol order.
    for sr in sweep {
        let coeff_sum = ex.dims.iter().enumerate().try_fold(0i64, |sum, (d, dim)| {
            strides[d]
                .checked_mul(dim.start.coeffs[&sr.symbol])?
                .checked_add(sum)
        });
        let stride = fits(coeff_sum.and_then(|c| c.checked_mul(sr.step)), || {
            format!("memory stride for sweep symbol `{}`", sr.symbol)
        })?;
        if sr.count > 1 && stride < 0 {
            return Err(BridgeError::Plan(format!(
                "negative memory stride for sweep symbol `{}` (reversed sweeps are not supported)",
                sr.symbol
            )));
        }
        dims.push((sr.count, stride));
    }
    // Within-slice range dimensions (extent > 1, or explicit ranges).
    for (d, dim) in ex.dims.iter().enumerate() {
        if dim.extent > 1 {
            let stride = fits(strides[d].checked_mul(dim.step), || {
                "memory stride of an RHS slice range".to_string()
            })?;
            dims.push((dim.extent, stride));
        }
    }
    Ok(ResolvedView {
        offset,
        dims,
        sweep_rank: sweep.len(),
    })
}

/// Unwrap a checked 64-bit result, or name `what` overflowed as a typed
/// plan error: bindings and directive strings come from config text, so an
/// address that does not fit must be rejected, never wrapped.
fn fits(v: Option<i64>, what: impl FnOnce() -> String) -> Result<i64> {
    v.ok_or_else(|| BridgeError::Plan(format!("{} overflows a 64-bit index", what())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use hpacml_directive::parse::parse_directive;
    use hpacml_directive::sema::analyze;
    use hpacml_directive::Directive;

    fn setup(
        functor_src: &str,
        map_src: &str,
        binds: &Bindings,
    ) -> (Vec<SliceExtract>, Vec<SweepRange>) {
        let info = match parse_directive(functor_src).unwrap() {
            Directive::Functor(f) => analyze(&f).unwrap(),
            other => panic!("{other:?}"),
        };
        let map = match parse_directive(map_src).unwrap() {
            Directive::Map(m) => m,
            other => panic!("{other:?}"),
        };
        let ex = extract(&info).unwrap();
        let sweep = resolve_sweep(&info.sweep_syms, &map.target, binds).unwrap();
        (ex, sweep)
    }

    #[test]
    fn fig4_resolution_matches_paper() {
        // N=M: a 2-D grid t[N][M]; interior sweep. The paper's Fig. 4 shows
        // slice [i-1, j] resolving to stride [M, 1] starting at t[0][1].
        let binds = Bindings::new().with("N", 6).with("M", 7);
        let (ex, sweep) = setup(
            "tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))",
            "tensor map(to: ifnctr(t[1:N-1, 1:M-1]))",
            &binds,
        );
        assert_eq!(
            sweep[0],
            SweepRange {
                symbol: "i".into(),
                start: 1,
                count: 4,
                step: 1
            }
        );
        assert_eq!(
            sweep[1],
            SweepRange {
                symbol: "j".into(),
                start: 1,
                count: 5,
                step: 1
            }
        );

        // Slice [i-1, j]: first element at (0, 1) → flat 0*7 + 1 = 1.
        let r0 = resolve_slice(&ex[0], &[6, 7], &sweep).unwrap();
        assert_eq!(r0.offset, 1);
        assert_eq!(r0.dims, vec![(4, 7), (5, 1)]);
        assert_eq!(r0.sweep_rank, 2);

        // Slice [i+1, j]: first element at (2, 1) → 15.
        let r1 = resolve_slice(&ex[1], &[6, 7], &sweep).unwrap();
        assert_eq!(r1.offset, 2 * 7 + 1);

        // Slice [i, j-1:j+2]: first element at (1, 0) → 7; adds a 3-wide dim.
        let r2 = resolve_slice(&ex[2], &[6, 7], &sweep).unwrap();
        assert_eq!(r2.offset, 7);
        assert_eq!(r2.dims, vec![(4, 7), (5, 1), (3, 1)]);
    }

    #[test]
    fn flat_feature_rows_resolution() {
        let binds = Bindings::new().with("N", 10);
        let (ex, sweep) = setup(
            "tensor functor(rows: [i, 0:6] = ([6*i : 6*i+6]))",
            "tensor map(to: rows(poses[0:N]))",
            &binds,
        );
        let r = resolve_slice(&ex[0], &[60], &sweep).unwrap();
        assert_eq!(r.offset, 0);
        assert_eq!(r.dims, vec![(10, 6), (6, 1)]);
    }

    #[test]
    fn sweep_count_mismatch_rejected() {
        let binds = Bindings::new().with("N", 4);
        let info = match parse_directive("tensor functor(f: [i, j, 0:1] = ([i, j]))").unwrap() {
            Directive::Functor(f) => analyze(&f).unwrap(),
            other => panic!("{other:?}"),
        };
        let map = match parse_directive("tensor map(to: f(t[0:N]))").unwrap() {
            Directive::Map(m) => m,
            other => panic!("{other:?}"),
        };
        assert!(resolve_sweep(&info.sweep_syms, &map.target, &binds).is_err());
    }

    #[test]
    fn rank_mismatch_rejected() {
        let binds = Bindings::new().with("N", 4);
        let (ex, sweep) = setup(
            "tensor functor(f: [i, 0:1] = ([i]))",
            "tensor map(to: f(t[0:N]))",
            &binds,
        );
        assert!(resolve_slice(&ex[0], &[4, 4], &sweep).is_err());
    }

    #[test]
    fn empty_sweep_range_rejected() {
        let binds = Bindings::new().with("N", 1);
        let info = match parse_directive("tensor functor(f: [i, 0:1] = ([i]))").unwrap() {
            Directive::Functor(f) => analyze(&f).unwrap(),
            other => panic!("{other:?}"),
        };
        let map = match parse_directive("tensor map(to: f(t[1:N-1]))").unwrap() {
            Directive::Map(m) => m,
            other => panic!("{other:?}"),
        };
        assert!(resolve_sweep(&info.sweep_syms, &map.target, &binds).is_err());
    }

    #[test]
    fn stepped_sweep() {
        let binds = Bindings::new().with("N", 10);
        let (ex, sweep) = setup(
            "tensor functor(f: [i, 0:1] = ([i]))",
            "tensor map(to: f(t[0:N:2]))",
            &binds,
        );
        assert_eq!(sweep[0].count, 5);
        let r = resolve_slice(&ex[0], &[10], &sweep).unwrap();
        assert_eq!(r.dims, vec![(5, 2)]);
    }

    #[test]
    fn pinned_symbol_single_index() {
        // A single index in the map pins the symbol: f(t[3]) sweeps one point.
        let binds = Bindings::new();
        let (ex, sweep) = setup(
            "tensor functor(f: [i, 0:1] = ([i]))",
            "tensor map(to: f(t[3]))",
            &binds,
        );
        assert_eq!(
            sweep[0],
            SweepRange {
                symbol: "i".into(),
                start: 3,
                count: 1,
                step: 1
            }
        );
        let r = resolve_slice(&ex[0], &[10], &sweep).unwrap();
        assert_eq!(r.offset, 3);
    }
}
