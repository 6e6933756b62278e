//! Property tests for the config parser: totality over garbage and over
//! every near miss of a valid config (never a panic), and
//! parse→render→parse as the identity on valid configs.

use hpacml_core::{ErrorMetric, Precision};
use hpacml_directive::sema::analyze;
use hpacml_directive::{parse_directives, Directive};
use hpacml_serve::config::{Config, DaemonConfig, RegionConfig, ValidationConfig};
use proptest::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Totality: arbitrary input must parse or error, never panic.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printable_soup_never_panics(raw in proptest::collection::vec(0usize..96, 0..80)) {
        let text: String = raw
            .iter()
            .map(|i| if *i == 95 { '\n' } else { (32 + *i as u8) as char })
            .collect();
        let _ = Config::parse(&text);
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..16, 0..40)) {
        const VOCAB: &[&str] = &[
            "daemon", "region", "{", "}", ";", "\"", "directive", "input",
            "output", "max_wait", "10xs", "bind", "validation", "#", "precision",
            "\\",
        ];
        let text = picks
            .iter()
            .map(|i| VOCAB[*i])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = Config::parse(&text);
    }

    #[test]
    fn truncations_of_a_valid_config_never_panic(cut in 0usize..400) {
        let full = sample_config(3, 7).render();
        // Truncate at a char boundary at-or-below the requested cut.
        let mut end = cut.min(full.len());
        while !full.is_char_boundary(end) {
            end -= 1;
        }
        let _ = Config::parse(&full[..end]);
    }
}

/// Every truncation of `s` at a char boundary, and every single-char
/// substitution from a set of characters the grammars give meaning to (or
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

/// The near misses of a rendered config parse to a config or a typed error,
/// never a panic; and the directive text of each that parses goes on
/// through the directive parser and sema the same way.
#[test]
fn near_misses_of_a_rendered_config_are_typed() {
    for text in near_misses(&sample_config(3, 7).render()) {
        let outcome = std::panic::catch_unwind(|| {
            let Ok(config) = Config::parse(&text) else {
                return;
            };
            for region in &config.regions {
                for d in parse_directives(&region.directive).into_iter().flatten() {
                    if let Directive::Functor(f) = d {
                        let _ = analyze(&f);
                    }
                }
            }
        });
        assert!(outcome.is_ok(), "panicked on {text:?}");
    }
}

// ---------------------------------------------------------------------------
// Round trip: render(parse(·)) is a fixed point, parse(render(c)) == c.
// ---------------------------------------------------------------------------

/// Deterministically build a valid-by-construction `Config` from a handful
/// of drawn scalars. Names are index-derived so uniqueness holds for free;
/// everything else (sizes, durations, policies) is driven by `knob`.
fn sample_config(nregions: usize, knob: u64) -> Config {
    let pick = |salt: u64, m: u64| (knob.wrapping_mul(0x9e37_79b9).wrapping_add(salt)) % m;
    let tricky = ["plain", "qu\"ote", "line\nbreak", "tab\tand\\slash", ""];
    let mut regions = Vec::new();
    for r in 0..nregions {
        let salt = r as u64;
        let validation = if pick(salt, 3) == 0 {
            Some(ValidationConfig {
                metric: [ErrorMetric::Rmse, ErrorMetric::Mape, ErrorMetric::MaxAbs]
                    [pick(salt + 1, 3) as usize],
                budget: 0.001 * (1 + pick(salt + 2, 5000)) as f64,
                rate: (pick(salt + 3, 2) == 0).then(|| 1 + pick(salt + 3, 64) as u32),
                window: (pick(salt + 4, 2) == 0).then(|| 1 + pick(salt + 4, 128) as usize),
                batch_samples: (pick(salt + 5, 2) == 0).then(|| 1 + pick(salt + 5, 8) as usize),
            })
        } else {
            None
        };
        regions.push(RegionConfig {
            name: format!("r{r}"),
            directive: format!(
                "#pragma approx {} {}",
                tricky[pick(salt + 6, tricky.len() as u64) as usize],
                salt
            ),
            model: (pick(salt + 7, 2) == 0).then(|| format!("models/m{r}.hml")),
            db: (pick(salt + 8, 3) == 0).then(|| format!("db/d{r}.h5")),
            binds: (0..pick(salt + 9, 3))
                .map(|b| (format!("b{b}"), pick(salt + b, 2000) as i64 - 1000))
                .collect(),
            inputs: (0..1 + pick(salt + 10, 3))
                .map(|i| (format!("in{i}"), 1 + pick(salt + i, 16) as usize))
                .collect(),
            outputs: (0..1 + pick(salt + 11, 3))
                .map(|o| (format!("out{o}"), 1 + pick(salt + o + 40, 16) as usize))
                .collect(),
            max_batch: 1 + pick(salt + 12, 256) as usize,
            max_wait: Duration::from_nanos(pick(salt + 13, 5_000_000_000)),
            max_pending: (pick(salt + 14, 2) == 0).then(|| 1 + pick(salt + 14, 512) as usize),
            deadline: (pick(salt + 15, 2) == 0)
                .then(|| Duration::from_micros(1 + pick(salt + 15, 1_000_000))),
            workers: (pick(salt + 16, 2) == 0).then(|| 1 + pick(salt + 16, 8) as usize),
            precision: [Precision::F32, Precision::Bf16, Precision::Int8]
                [pick(salt + 17, 3) as usize],
            calib_rows: (pick(salt + 18, 3) == 0).then(|| 1 + pick(salt + 18, 4096) as usize),
            validation,
        });
    }
    Config {
        daemon: DaemonConfig {
            workers: 1 + pick(100, 8) as usize,
            max_pending: (pick(101, 2) == 0).then(|| 1 + pick(101, 512) as usize),
            deadline: (pick(102, 2) == 0).then(|| Duration::from_millis(1 + pick(102, 10_000))),
        },
        regions,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_render_parse_round_trips(nregions in 0usize..5, knob in 0u64..u64::MAX) {
        let original = sample_config(nregions, knob);
        let text = original.render();
        let parsed = Config::parse(&text).expect("rendered config must parse");
        prop_assert_eq!(&parsed, &original);
        // And render is a fixed point: canonical text re-renders byte-equal.
        prop_assert_eq!(parsed.render(), text);
    }
}
