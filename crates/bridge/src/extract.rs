//! Step 1 — symbolic shape extraction.
//!
//! For every RHS slice of a functor, extract per-dimension descriptors: the
//! affine form of the first accessed index (offset as a function of the sweep
//! symbols) and the number of elements retrieved (with its step). These are
//! the `[offset, offset, elements]` vectors of the paper's Fig. 4, kept
//! symbolic in the sweep symbols.

use crate::{BridgeError, Result};
use hpacml_directive::ast::{SSpec, Slice};
use hpacml_directive::sema::{affine_form, AffineForm, FunctorInfo};

/// One dimension of one RHS slice after extraction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DimExtract {
    /// Affine form of the first index accessed in this dimension.
    pub start: AffineForm,
    /// Elements retrieved along this dimension (1 for single indices).
    pub extent: usize,
    /// Step between retrieved elements (1 unless the slice has a step).
    pub step: i64,
}

/// All dimensions of one RHS slice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SliceExtract {
    pub dims: Vec<DimExtract>,
}

fn extract_dim(slice: &Slice, syms: &[String]) -> Result<DimExtract> {
    let start = affine_form(&slice.start, syms)?;
    let (extent, step) = match &slice.stop {
        None => (1usize, 1i64),
        Some(stop) => {
            let stop_form = affine_form(stop, syms)?;
            for s in syms {
                if start.coeffs[s] != stop_form.coeffs[s] {
                    return Err(BridgeError::Plan(format!(
                        "slice `{slice}` has a symbol-dependent extent"
                    )));
                }
            }
            let span = stop_form
                .constant
                .checked_sub(start.constant)
                .ok_or_else(|| {
                    BridgeError::Plan(format!("slice `{slice}` has an overflowing extent"))
                })?;
            let step = match &slice.step {
                None => 1i64,
                Some(e) => affine_form(e, syms)?.constant,
            };
            if step <= 0 || span <= 0 {
                return Err(BridgeError::Plan(format!(
                    "slice `{slice}` has non-positive extent or step"
                )));
            }
            (((span - 1) / step + 1) as usize, step)
        }
    };
    Ok(DimExtract {
        start,
        extent,
        step,
    })
}

/// Extract every RHS slice of an analyzed functor.
pub(crate) fn extract(info: &FunctorInfo) -> Result<Vec<SliceExtract>> {
    info.decl
        .rhs
        .iter()
        .map(|spec: &SSpec| {
            let dims = spec
                .0
                .iter()
                .map(|s| extract_dim(s, &info.sweep_syms))
                .collect::<Result<Vec<_>>>()?;
            Ok(SliceExtract { dims })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpacml_directive::parse::parse_directive;
    use hpacml_directive::sema::analyze;
    use hpacml_directive::Directive;

    fn info(src: &str) -> FunctorInfo {
        match parse_directive(src).unwrap() {
            Directive::Functor(f) => analyze(&f).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fig4_extraction_offsets() {
        // The paper's example: offsets (-1, 0), (1, 0) and (0, -1) with 3 elements.
        let info =
            info("tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))");
        let ex = extract(&info).unwrap();
        assert_eq!(ex.len(), 3);
        // Slice [i-1, j]: constants (-1, 0), coeff on own symbol 1, extents 1.
        assert_eq!(ex[0].dims[0].start.constant, -1);
        assert_eq!(ex[0].dims[0].start.coeffs["i"], 1);
        assert_eq!(ex[0].dims[1].start.constant, 0);
        assert_eq!(ex[0].dims[1].start.coeffs["j"], 1);
        assert!(ex[0].dims.iter().all(|d| d.extent == 1));
        // Slice [i+1, j]: constants (1, 0).
        assert_eq!(ex[1].dims[0].start.constant, 1);
        // Slice [i, j-1:j+2]: second dim offset -1, 3 elements.
        assert_eq!(ex[2].dims[1].start.constant, -1);
        assert_eq!(ex[2].dims[1].extent, 3);
    }

    #[test]
    fn stepped_and_scaled_extraction() {
        let info = info("tensor functor(rows: [i, 0:3] = ([6*i : 6*i+6 : 2]))");
        let ex = extract(&info).unwrap();
        assert_eq!(ex[0].dims[0].start.coeffs["i"], 6);
        assert_eq!(ex[0].dims[0].extent, 3);
        assert_eq!(ex[0].dims[0].step, 2);
    }
}
