//! Command-line handling shared by the harness binaries (`parse_args`).

use std::process::Command;

#[test]
fn unparsable_seed_exits_2_with_a_message() {
    let workdir = std::env::temp_dir().join(format!("hpacml-bench-args-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--seed", "nope", "--workdir"])
        .arg(&workdir)
        .output()
        .expect("run table2");
    let _ = std::fs::remove_dir_all(&workdir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nope"), "stderr: {stderr}");
}
