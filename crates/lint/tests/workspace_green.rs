//! The tree must be lint-green: `cargo test` itself enforces the same
//! invariants CI's `hpacml-lint --workspace` step does, so a violation
//! fails the suite even before the dedicated CI step runs.

use hpacml_lint::{all_rules, find_workspace_root, lint_workspace};
use std::path::Path;

#[test]
fn workspace_has_zero_findings() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let findings = lint_workspace(&root, &all_rules()).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "workspace must be lint-green:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_walk_covers_every_crate() {
    // Guard against the walker silently skipping a crate: every member
    // under crates/ must contribute at least its lib/main source file.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let files: Vec<String> = hpacml_lint::workspace_files(&root)
        .expect("workspace walk")
        .iter()
        .map(|p| {
            p.strip_prefix(&root)
                .expect("workspace file under root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ dir") {
        let crate_dir = entry.expect("dir entry").path();
        if !crate_dir.join("Cargo.toml").is_file() {
            continue;
        }
        let name = crate_dir
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let prefix = format!("crates/{name}/src/");
        assert!(
            files.iter().any(|f| f.starts_with(&prefix)),
            "walker found no sources under {prefix}"
        );
    }
    // Fixtures are deliberately unreachable: they exist to violate rules.
    assert!(
        !files.iter().any(|f| f.contains("fixtures/")),
        "fixtures must not be linted as workspace sources"
    );
    // The fault-injection crate is not exempt from the discipline it
    // perturbs: both of its sources must be on the walk explicitly.
    for must in ["crates/faults/src/lib.rs", "crates/faults/src/retry.rs"] {
        assert!(files.iter().any(|f| f == must), "walker must lint {must}");
    }
    // The serving daemon carries the swap/retire concurrency protocol; its
    // sources must be on the walk so the extended lock-across-wait scope
    // actually polices them.
    for must in [
        "crates/serve/src/lib.rs",
        "crates/serve/src/config.rs",
        "crates/serve/src/daemon.rs",
        "crates/serve/src/snapshot.rs",
    ] {
        assert!(files.iter().any(|f| f == must), "walker must lint {must}");
    }
}
