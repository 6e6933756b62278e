//! Property-based tests for the directive front end: display → parse
//! roundtrips, evaluation consistency, sema invariants over random affine
//! functors, and every near miss of the app directives (a truncation or a
//! one-char substitution) a typed outcome.

use hpacml_directive::ast::Directive;
use hpacml_directive::parse::{parse_directive, parse_directives};
use hpacml_directive::sema::{affine_form, analyze, Bindings};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random affine accesses `a*i + b : a*i + b + e` survive the full
    /// parse → analyze pipeline with the extent and coefficients intact.
    #[test]
    fn affine_functors_analyze_correctly(
        a in 1i64..6,
        b in -5i64..6,
        extent in 1i64..6,
    ) {
        let src = format!(
            "tensor functor(f: [i, 0:{extent}] = ([{a}*i + {b} : {a}*i + {b} + {extent}]))"
        );
        let info = match parse_directive(&src).unwrap() {
            Directive::Functor(f) => analyze(&f).unwrap(),
            other => panic!("{other:?}"),
        };
        prop_assert_eq!(info.sweep_syms.clone(), vec!["i".to_string()]);
        prop_assert_eq!(info.feature_extent, extent as usize);
        let form = affine_form(&info.decl.rhs[0].0[0].start, &info.sweep_syms).unwrap();
        prop_assert_eq!(form.constant, b);
        prop_assert_eq!(form.coeffs["i"], a);
    }

    /// Expressions printed by Display re-parse to something that evaluates
    /// identically at arbitrary bindings.
    #[test]
    fn display_parse_eval_roundtrip(
        c0 in -9i64..10,
        c1 in 1i64..5,
        x in -20i64..20,
    ) {
        let src = format!("tensor functor(g: [i, 0:1] = ([{c1}*i + {c0}]))");
        let d1 = parse_directive(&src).unwrap();
        let expr1 = match &d1 {
            Directive::Functor(f) => f.rhs[0].0[0].start.clone(),
            other => panic!("{other:?}"),
        };
        // Print and re-parse through a fresh functor.
        let reprinted = format!("tensor functor(g: [i, 0:1] = ([{expr1}]))");
        let d2 = parse_directive(&reprinted).unwrap();
        let expr2 = match &d2 {
            Directive::Functor(f) => f.rhs[0].0[0].start.clone(),
            other => panic!("{other:?}"),
        };
        let lookup = |name: &str| if name == "i" { Some(x) } else { None };
        prop_assert_eq!(expr1.eval(&lookup).unwrap(), expr2.eval(&lookup).unwrap());
        prop_assert_eq!(expr1.eval(&lookup).unwrap(), c1 * x + c0);
    }

    /// Sweep ranges decode consistently for arbitrary positive bounds.
    #[test]
    fn map_ranges_bind_symbols(lo in 0i64..5, span in 1i64..20, step in 1i64..4) {
        let src = format!("tensor map(to: f(x[{lo}:{}:{step}]))", lo + span);
        let map = match parse_directive(&src).unwrap() {
            Directive::Map(m) => m,
            other => panic!("{other:?}"),
        };
        let binds = Bindings::new();
        let slice = &map.target.slices[0];
        let start = slice.start.eval(&binds.lookup()).unwrap();
        prop_assert_eq!(start, lo);
        let stop = slice.stop.as_ref().unwrap().eval(&binds.lookup()).unwrap();
        prop_assert_eq!(stop, lo + span);
    }

    /// Junk input never panics the parser — it errors.
    #[test]
    fn parser_never_panics(s in "[a-z0-9:,()\\[\\]*+\\- ]{0,48}") {
        let _ = parse_directive(&s);
    }
}

/// Every directive string the benchmark apps annotate their regions with,
/// read from their sources so that a new or edited directive is swept too.
fn app_directives() -> Vec<&'static str> {
    let sources = [
        include_str!("../../apps/src/binomial.rs"),
        include_str!("../../apps/src/bonds/mod.rs"),
        include_str!("../../apps/src/minibude.rs"),
        include_str!("../../apps/src/miniweather.rs"),
        include_str!("../../apps/src/particlefilter.rs"),
    ];
    let directives: Vec<&str> = sources
        .iter()
        .flat_map(|src| src.lines())
        .filter_map(|line| line.trim().strip_prefix('"')?.strip_suffix("\","))
        .filter(|s| s.starts_with("#pragma approx"))
        .collect();
    assert!(directives.len() >= 19, "found {directives:?}");
    directives
}

/// Every truncation of `s` at a char boundary, and every single-char
/// substitution from a set of characters the grammar gives meaning to (or
/// that sit outside ASCII).
fn near_misses(s: &str) -> Vec<String> {
    const SUBS: [char; 7] = ['(', '-', '"', '\\', 'é', '\0', '{'];
    let mut out: Vec<String> = (0..=s.len())
        .filter(|&end| s.is_char_boundary(end))
        .map(|end| s[..end].to_string())
        .collect();
    for (at, c) in s.char_indices() {
        for sub in SUBS {
            let (head, tail) = (&s[..at], &s[at + c.len_utf8()..]);
            out.push(format!("{head}{sub}{tail}"));
        }
    }
    out
}

/// The near misses of every app directive parse and analyze to a value or a
/// typed error, never a panic.
#[test]
fn near_misses_of_the_app_directives_are_typed() {
    for directive in app_directives() {
        for text in near_misses(directive) {
            let outcome = std::panic::catch_unwind(|| {
                for d in parse_directives(&text)? {
                    if let Directive::Functor(f) = d {
                        analyze(&f)?;
                    }
                }
                Ok::<_, hpacml_directive::DirectiveError>(())
            });
            assert!(outcome.is_ok(), "panicked on {text:?}");
        }
    }
}
