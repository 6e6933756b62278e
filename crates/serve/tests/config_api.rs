//! The config grammar: full-surface parses, typed line-numbered errors,
//! and canonical rendering.

use hpacml_core::{ErrorMetric, Precision};
use hpacml_serve::Config;
use std::time::Duration;

#[test]
fn full_grammar_parses() {
    let cfg = Config::parse(
        r##"
        # serving topology for the stencil app
        daemon {
            workers 4;
            max_pending 256;
            deadline 200ms;
        }

        region stencil {
            directive "#pragma approx ml(infer) in(x) out(y) model(\"m.hml\")";
            model "override.hml";
            db "db/stencil.h5";
            bind N 1;
            bind M 9;
            input x 3;
            output y 1;
            max_batch 64;
            max_wait 200us;
            max_pending 128;
            deadline 2ms;
            workers 3;
            precision int8;
            calib_rows 512;
            validation {
                metric rmse;
                budget 0.05;
                rate 16;
                window 32;
                batch_samples 2;
            }
        }

        region plain {
            directive "d";
            input a 2;   # two features
            output b 4;
        }
        "##,
    )
    .unwrap();

    assert_eq!(cfg.daemon.workers, 4);
    assert_eq!(cfg.daemon.max_pending, Some(256));
    assert_eq!(cfg.daemon.deadline, Some(Duration::from_millis(200)));
    assert_eq!(cfg.regions.len(), 2);

    let r = &cfg.regions[0];
    assert_eq!(r.name, "stencil");
    assert_eq!(
        r.directive,
        "#pragma approx ml(infer) in(x) out(y) model(\"m.hml\")"
    );
    assert_eq!(r.model.as_deref(), Some("override.hml"));
    assert_eq!(r.db.as_deref(), Some("db/stencil.h5"));
    assert_eq!(r.binds, vec![("N".to_string(), 1), ("M".to_string(), 9)]);
    assert_eq!(r.inputs, vec![("x".to_string(), 3)]);
    assert_eq!(r.outputs, vec![("y".to_string(), 1)]);
    assert_eq!(r.max_batch, 64);
    assert_eq!(r.max_wait, Duration::from_micros(200));
    assert_eq!(r.max_pending, Some(128));
    assert_eq!(r.deadline, Some(Duration::from_millis(2)));
    assert_eq!(r.workers, Some(3));
    assert_eq!(r.precision, Precision::Int8);
    assert_eq!(r.calib_rows, Some(512));
    let v = r.validation.as_ref().unwrap();
    assert_eq!(v.metric, ErrorMetric::Rmse);
    assert_eq!(v.budget, 0.05);
    assert_eq!(v.rate, Some(16));
    assert_eq!(v.window, Some(32));
    assert_eq!(v.batch_samples, Some(2));

    // Effective limits resolve through the daemon defaults.
    assert_eq!(r.effective_max_pending(&cfg.daemon), Some(128));
    let p = &cfg.regions[1];
    assert_eq!(p.effective_max_pending(&cfg.daemon), Some(256));
    assert_eq!(
        p.effective_deadline(&cfg.daemon),
        Some(Duration::from_millis(200))
    );
    assert_eq!(p.precision, Precision::F32);
    assert!(p.validation.is_none());
}

#[test]
fn daemon_block_is_optional_with_defaults() {
    let cfg = Config::parse(r#"region r { directive "d"; input x 1; output y 1; }"#).unwrap();
    assert_eq!(cfg.daemon.workers, hpacml_serve::config::DEFAULT_WORKERS);
    assert_eq!(cfg.daemon.max_pending, None);
    assert_eq!(
        cfg.regions[0].max_batch,
        hpacml_serve::config::DEFAULT_MAX_BATCH
    );
    assert_eq!(
        cfg.regions[0].max_wait,
        hpacml_serve::config::DEFAULT_MAX_WAIT
    );

    let empty = Config::parse("").unwrap();
    assert!(empty.regions.is_empty());
}

#[test]
fn string_escapes_round_trip() {
    let cfg = Config::parse(
        "region r { directive \"a \\\"quoted\\\" line\\nwith\\ttabs and \\\\slash\"; input x 1; output y 1; }",
    )
    .unwrap();
    assert_eq!(
        cfg.regions[0].directive,
        "a \"quoted\" line\nwith\ttabs and \\slash"
    );
    let again = Config::parse(&cfg.render()).unwrap();
    assert_eq!(again, cfg);
}

#[test]
fn durations_parse_all_units_and_render_canonically() {
    let cfg = Config::parse(
        r#"
        region r {
            directive "d"; input x 1; output y 1;
            max_wait 1500us;
            deadline 3s;
        }
        "#,
    )
    .unwrap();
    assert_eq!(cfg.regions[0].max_wait, Duration::from_micros(1500));
    assert_eq!(cfg.regions[0].deadline, Some(Duration::from_secs(3)));
    // 1500us renders as 1500us (not 1.5ms); 3s stays 3s.
    let text = cfg.render();
    assert!(text.contains("max_wait 1500us;"), "{text}");
    assert!(text.contains("deadline 3s;"), "{text}");

    let ns = Config::parse(r#"region r { directive "d"; input x 1; output y 1; max_wait 999ns; }"#)
        .unwrap();
    assert_eq!(ns.regions[0].max_wait, Duration::from_nanos(999));
    assert!(ns.render().contains("max_wait 999ns;"));
}

#[test]
fn render_is_canonical_and_idempotent() {
    let cfg = Config::parse(
        r#"
        daemon { workers 2; }
        region a { directive "one"; bind N 4; input x 3; output y 2;
                   max_batch 8; max_wait 50us; precision bf16;
                   validation { metric mape; budget 1.5; } }
        "#,
    )
    .unwrap();
    let text = cfg.render();
    let reparsed = Config::parse(&text).unwrap();
    assert_eq!(reparsed, cfg);
    assert_eq!(reparsed.render(), text, "render must be a fixed point");
}

fn parse_err(src: &str) -> hpacml_serve::ConfigError {
    Config::parse(src).unwrap_err()
}

#[test]
fn errors_carry_line_numbers_and_causes() {
    let e = parse_err("daemon {\n  workers 2;\n  turbo 9;\n}");
    assert_eq!(e.line, 3);
    assert!(e.msg.contains("unknown daemon setting 'turbo'"), "{e}");

    let e = parse_err(
        "region r {\n directive \"d\"; input x 1; output y 1;\n max_wait 10lightyears;\n}",
    );
    assert_eq!(e.line, 3);
    assert!(e.msg.contains("unknown duration unit"), "{e}");

    let e = parse_err("region r { directive \"d\"; input x 1; output y 1; }\nregion r { directive \"d\"; input a 1; output b 1; }");
    assert_eq!(e.line, 2);
    assert!(e.msg.contains("duplicate region 'r'"), "{e}");

    let e = parse_err(
        "region r {\n directive \"d\";\n directive \"again\";\n input x 1; output y 1; }",
    );
    assert_eq!(e.line, 3);
    assert!(e.msg.contains("duplicate 'directive'"), "{e}");

    let e = parse_err("region r { directive \"unterminated");
    assert!(e.msg.contains("unterminated string"), "{e}");

    let e = parse_err("region r { directive \"d\"; input x 1; output y 1; max_batch 0; }");
    assert!(e.msg.contains("max_batch must be at least 1"), "{e}");

    let e = parse_err("region r { directive \"d\"; input x 1; output x 1; }");
    assert!(e.msg.contains("duplicate array 'x'"), "{e}");

    let e = parse_err("region r { directive \"d\"; input x 1; output y 1; precision f64; }");
    assert!(e.msg.contains("unknown precision 'f64'"), "{e}");

    let e = parse_err(
        "region r { directive \"d\"; input x 1; output y 1;\n validation { metric rmse; } }",
    );
    assert!(e.msg.contains("missing 'budget'"), "{e}");

    let e = parse_err("region r { directive \"d\"; output y 1; }");
    assert!(e.msg.contains("declares no inputs"), "{e}");

    let e = parse_err("region r { input x 1; output y 1; }");
    assert!(e.msg.contains("has no directive"), "{e}");

    let e = parse_err("upstream r { }");
    assert!(
        e.msg.contains("unknown top-level directive 'upstream'"),
        "{e}"
    );

    let e = parse_err("region 9lives { directive \"d\"; input x 1; output y 1; }");
    assert!(e.msg.contains("invalid region name '9lives'"), "{e}");

    let e = parse_err("region r { directive \"d\"; input x 1; output y 1;");
    assert!(e.msg.contains("unclosed 'region r' block"), "{e}");

    let e = parse_err("region r { directive \"d\"; input x 1; output y 1; validation { metric rmse; budget -0.5; } }");
    assert!(e.msg.contains("budget must be positive"), "{e}");
}
