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

/// The `crate_local_pub` fixtures as one corpus, each file placed in the
/// compilation unit it stands for: `fire.rs` and `allow.rs` define items in
/// `nn`'s lib, and `users/` names them from the same crate, from another
/// crate, from `nn`'s tests, main and bin, from `examples/` and from
/// `benchmark/src/`.
fn crate_local_pub_corpus() -> WordIndex {
    let mut corpus = WordIndex::default();
    for (path, src) in [
        (
            "crates/nn/src/fixture.rs",
            include_str!("../fixtures/crate_local_pub/fire.rs"),
        ),
        (
            "crates/nn/src/fixture_allow.rs",
            include_str!("../fixtures/crate_local_pub/allow.rs"),
        ),
        (
            "crates/nn/src/sibling.rs",
            include_str!("../fixtures/crate_local_pub/users/sibling.rs"),
        ),
        (
            "crates/apps/src/prose.rs",
            include_str!("../fixtures/crate_local_pub/users/prose.rs"),
        ),
        (
            "crates/apps/src/lib.rs",
            include_str!("../fixtures/crate_local_pub/users/other_crate.rs"),
        ),
        (
            "crates/nn/tests/api.rs",
            include_str!("../fixtures/crate_local_pub/users/own_tests.rs"),
        ),
        (
            "crates/nn/src/main.rs",
            include_str!("../fixtures/crate_local_pub/users/own_main.rs"),
        ),
        (
            "crates/nn/src/bin/tool.rs",
            include_str!("../fixtures/crate_local_pub/users/own_bin.rs"),
        ),
        (
            "examples/demo.rs",
            include_str!("../fixtures/crate_local_pub/users/example.rs"),
        ),
        (
            "benchmark/src/main.rs",
            include_str!("../fixtures/crate_local_pub/users/benchmark.rs"),
        ),
    ] {
        corpus.add(path, src);
    }
    corpus
}

#[test]
fn crate_local_pub_fires_on_every_kind_and_on_names_used_elsewhere_only_in_prose() {
    let f = analyze_source(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/crate_local_pub/fire.rs"),
        &all_rules(),
        Some(&crate_local_pub_corpus()),
    );
    assert!(f.iter().all(|f| f.rule == "crate-local-pub"), "{f:?}");
    let flagged: Vec<&str> = f
        .iter()
        .map(|f| f.message.split('`').nth(1).expect("quoted item"))
        .collect();
    assert_eq!(
        flagged,
        [
            "pub fn only_here",
            "pub struct OnlyHereStruct",
            "pub enum OnlyHereEnum",
            "pub const ONLY_HERE_CONST",
            "pub trait OnlyHereTrait",
            "pub type OnlyHereAlias",
            "pub fn only_here_method",
            "pub fn praised_in_prose",
            "pub static QUOTED_IN_A_STRING",
            "pub fn shown_in_a_text_block",
        ],
        "{f:?}"
    );
}

#[test]
fn crate_local_pub_other_units_exported_macros_doc_tests_and_escapes_pass() {
    let f = analyze_source(
        "crates/nn/src/fixture_allow.rs",
        include_str!("../fixtures/crate_local_pub/allow.rs"),
        &all_rules(),
        Some(&crate_local_pub_corpus()),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn crate_local_pub_is_scoped_to_crate_sources_and_needs_a_corpus() {
    // Items are only looked for under `crates/*/src/`…
    for path in ["crates/nn/tests/fixture.rs", "examples/fixture.rs"] {
        let f = analyze_source(
            path,
            include_str!("../fixtures/crate_local_pub/fire.rs"),
            &all_rules(),
            Some(&crate_local_pub_corpus()),
        );
        assert!(f.is_empty(), "{path}: {f:?}");
    }
    // …and a file linted on its own (no `--workspace`) has no corpus to be
    // crate-local *in*.
    let f = lint(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/crate_local_pub/fire.rs"),
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
