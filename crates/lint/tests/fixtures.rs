//! Every shipped rule has a fixture proving it fires on a known-bad snippet
//! and a fixture proving its documented escape hatch (or native fix)
//! suppresses it. Fixtures live in `fixtures/` and are never compiled; the
//! pseudo-paths below place each one in the scope its rule polices.

use hpacml_lint::{all_rules, analyze_source, Finding, WordIndex};

fn lint(pseudo_path: &str, src: &str) -> Vec<Finding> {
    analyze_source(pseudo_path, src, &all_rules(), None)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn no_fma_fires_in_kernel_code() {
    let f = lint(
        "crates/tensor/src/fixture.rs",
        include_str!("../fixtures/no_fma/fire.rs"),
    );
    assert_eq!(rules_of(&f), ["no-fma"], "{f:?}");
    assert_eq!(f[0].line, 5);
}

#[test]
fn no_fma_escape_hatch_suppresses() {
    let f = lint(
        "crates/tensor/src/fixture.rs",
        include_str!("../fixtures/no_fma/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn no_fma_is_scoped_to_kernel_crates() {
    // The same bad snippet outside tensor/nn/bridge src is not kernel code.
    let f = lint(
        "crates/apps/src/fixture.rs",
        include_str!("../fixtures/no_fma/fire.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn quant_kernel_path_is_in_kernel_scope() {
    // `crates/tensor/src/quant.rs` (the reduced-precision GEMM subsystem)
    // must sit inside the kernel-scope prefix: a dequantize-accumulate loop
    // with FMA contraction and wall-clock timing draws both kernel rules.
    let f = lint(
        "crates/tensor/src/quant.rs",
        include_str!("../fixtures/quant_kernel/fire.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["no-wall-clock", "no-wall-clock", "no-fma"],
        "{f:?}"
    );
}

#[test]
fn quant_kernel_canonical_loop_is_clean() {
    // The shipped idiom — decode each weight to one canonical f32, then the
    // same separate mul/add chain as the f32 kernel — lints clean.
    let f = lint(
        "crates/tensor/src/quant.rs",
        include_str!("../fixtures/quant_kernel/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn no_wall_clock_fires_on_instant_and_import() {
    let f = lint(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/no_wall_clock/fire.rs"),
    );
    assert_eq!(rules_of(&f), ["no-wall-clock", "no-wall-clock"], "{f:?}");
}

#[test]
fn no_wall_clock_escape_hatch_suppresses() {
    let f = lint(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/no_wall_clock/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn no_hash_collections_fires() {
    let f = lint(
        "crates/bridge/src/fixture.rs",
        include_str!("../fixtures/no_hash_collections/fire.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["no-hash-collections", "no-hash-collections"],
        "{f:?}"
    );
}

#[test]
fn no_hash_collections_escape_hatch_suppresses() {
    let f = lint(
        "crates/bridge/src/fixture.rs",
        include_str!("../fixtures/no_hash_collections/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn no_unsafe_fires_outside_allowlist() {
    let f = lint(
        "crates/store/src/fixture.rs",
        include_str!("../fixtures/no_unsafe/fire.rs"),
    );
    assert_eq!(rules_of(&f), ["no-unsafe"], "{f:?}");
}

#[test]
fn no_unsafe_escape_hatch_suppresses() {
    let f = lint(
        "crates/store/src/fixture.rs",
        include_str!("../fixtures/no_unsafe/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn safety_comment_fires_on_undocumented_allowed_unsafe() {
    // Same snippet, but inside the allowlist: `no-unsafe` stays quiet and
    // the audit rule demands a SAFETY comment instead.
    let f = lint(
        "crates/par/src/fixture.rs",
        include_str!("../fixtures/safety_comment/fire.rs"),
    );
    assert_eq!(rules_of(&f), ["safety-comment"], "{f:?}");
}

#[test]
fn safety_comment_satisfied_by_safety_comments() {
    // Includes the statement-continuation case: `let x: T =` on one line,
    // `unsafe { … }` on the next, SAFETY above the `let`.
    let f = lint(
        "crates/par/src/fixture.rs",
        include_str!("../fixtures/safety_comment/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn atomic_ordering_fires_on_bare_variant_and_variant_import() {
    let f = lint(
        "crates/store/src/fixture.rs",
        include_str!("../fixtures/atomic_ordering/fire.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["atomic-ordering", "atomic-ordering"],
        "{f:?}"
    );
}

#[test]
fn atomic_ordering_explicit_spelling_and_escape_pass() {
    let f = lint(
        "crates/store/src/fixture.rs",
        include_str!("../fixtures/atomic_ordering/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn std_sync_lock_fires_on_brace_imports() {
    let f = lint(
        "crates/search/src/fixture.rs",
        include_str!("../fixtures/std_sync_lock/fire.rs"),
    );
    assert_eq!(rules_of(&f), ["std-sync-lock", "std-sync-lock"], "{f:?}");
}

#[test]
fn std_sync_lock_escape_hatch_suppresses() {
    let f = lint(
        "crates/search/src/fixture.rs",
        include_str!("../fixtures/std_sync_lock/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn lock_across_wait_fires_on_recv_and_foreign_wait() {
    let f = lint(
        "crates/core/src/serve_fixture.rs",
        include_str!("../fixtures/lock_across_wait/fire.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["lock-across-wait", "lock-across-wait"],
        "{f:?}"
    );
}

#[test]
fn lock_across_wait_guard_handover_and_scoping_pass() {
    let f = lint(
        "crates/core/src/serve_fixture.rs",
        include_str!("../fixtures/lock_across_wait/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn lock_across_wait_is_scoped_to_core() {
    let f = lint(
        "crates/apps/src/fixture.rs",
        include_str!("../fixtures/lock_across_wait/fire.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn lock_across_wait_covers_the_serving_daemon() {
    // The daemon's swap/retire protocol (store the new snapshot, shut the
    // old servers down, wait out their in-flight batches) lives in
    // `crates/serve/src/` and leans on the same guard discipline as the
    // batch server, so the rule fires there too…
    let f = lint(
        "crates/serve/src/daemon_fixture.rs",
        include_str!("../fixtures/lock_across_wait/fire.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["lock-across-wait", "lock-across-wait"],
        "{f:?}"
    );
    // …and the handover/early-drop patterns the daemon actually uses pass.
    let f = lint(
        "crates/serve/src/daemon_fixture.rs",
        include_str!("../fixtures/lock_across_wait/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn serve_crate_is_not_on_the_unsafe_allowlist() {
    let f = lint(
        "crates/serve/src/snapshot_fixture.rs",
        include_str!("../fixtures/no_unsafe/fire.rs"),
    );
    assert_eq!(rules_of(&f), ["no-unsafe"], "{f:?}");
}

#[test]
fn allow_justification_fires_without_adjacent_comment() {
    let f = lint(
        "crates/apps/src/fixture.rs",
        include_str!("../fixtures/allow_justification/fire.rs"),
    );
    assert_eq!(rules_of(&f), ["allow-justification"], "{f:?}");
}

#[test]
fn allow_justification_accepts_preceding_or_trailing_comment() {
    let f = lint(
        "crates/apps/src/fixture.rs",
        include_str!("../fixtures/allow_justification/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

/// The three `dead_pub` fixtures as one corpus: definitions plus the test
/// file that calls one of them.
fn dead_pub_corpus() -> WordIndex {
    let mut corpus = WordIndex::default();
    for src in [
        include_str!("../fixtures/dead_pub/fire.rs"),
        include_str!("../fixtures/dead_pub/allow.rs"),
        include_str!("../fixtures/dead_pub/caller.rs"),
    ] {
        corpus.add(&hpacml_lint::lexer::lex(src));
    }
    corpus
}

#[test]
fn dead_pub_fires_on_unnamed_and_prose_only_functions() {
    let f = analyze_source(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/dead_pub/fire.rs"),
        &all_rules(),
        Some(&dead_pub_corpus()),
    );
    assert_eq!(rules_of(&f), ["dead-pub", "dead-pub"], "{f:?}");
    assert!(f[0].message.contains("orphaned_getter"), "{f:?}");
    assert!(f[1].message.contains("praised_in_prose"), "{f:?}");
}

#[test]
fn dead_pub_test_reference_and_escape_pass() {
    let f = analyze_source(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/dead_pub/allow.rs"),
        &all_rules(),
        Some(&dead_pub_corpus()),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn dead_pub_is_scoped_to_crate_sources_and_needs_a_corpus() {
    // Definitions are only looked for under `crates/*/src/`…
    for path in ["crates/nn/tests/fixture.rs", "examples/fixture.rs"] {
        let f = analyze_source(
            path,
            include_str!("../fixtures/dead_pub/fire.rs"),
            &all_rules(),
            Some(&dead_pub_corpus()),
        );
        assert!(f.is_empty(), "{path}: {f:?}");
    }
    // …and a file linted on its own has nothing to be unused *in*.
    let f = lint(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/dead_pub/fire.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn fault_point_seam_grants_no_exemptions() {
    // An injection seam is ordinary code to the lint: a wall-clock delay
    // smuggled in next to a `fault_point!` still fires in kernel scope, and
    // a reasonless escape on the seam's delay loop suppresses nothing.
    let f = lint(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/fault_point/fire.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["no-wall-clock", "no-wall-clock", "escape-hygiene"],
        "{f:?}"
    );
    assert!(f[2].message.contains("without a justification"), "{f:?}");
}

#[test]
fn fault_point_shipped_seam_idiom_is_clean() {
    // The idiom every shipped seam uses — named `fault_point!` calls plus
    // deterministic spin-tick delays — needs no escape hatch at all.
    let f = lint(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/fault_point/allow.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn reasonless_escape_keeps_finding_and_flags_the_escape() {
    let f = lint(
        "crates/tensor/src/fixture.rs",
        include_str!("../fixtures/escape_hygiene/fire.rs"),
    );
    // The escape without a justification does NOT suppress `no-fma`, and
    // both malformed escapes are findings in their own right (line order).
    assert_eq!(
        rules_of(&f),
        ["escape-hygiene", "no-fma", "escape-hygiene"],
        "{f:?}"
    );
    assert!(f[0].message.contains("without a justification"), "{f:?}");
    assert!(f[2].message.contains("unknown rule"), "{f:?}");
}

#[test]
fn rule_selection_restricts_the_run() {
    let only = hpacml_lint::parse_rules("no-unsafe").unwrap();
    let f = analyze_source(
        "crates/store/src/fixture.rs",
        include_str!("../fixtures/atomic_ordering/fire.rs"),
        &only,
        None,
    );
    assert!(f.is_empty(), "{f:?}");
    assert!(hpacml_lint::parse_rules("no-such-rule").is_err());
    assert!(hpacml_lint::parse_rules("").is_err());
}
