//! CLI for the workspace lint pass.
//!
//! ```text
//! hpacml-lint --workspace            # lint every crates/*/{src,tests} file
//! hpacml-lint path/to/file.rs dir/   # lint explicit files or directories
//! hpacml-lint --workspace --json     # machine-readable findings
//! hpacml-lint --rules no-fma,no-unsafe --workspace
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage/IO error.

use hpacml_lint::{
    all_rules, analyze_source, find_workspace_root, lint_workspace, parse_rules, rules, Finding,
};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: hpacml-lint [--workspace] [--rules <id,...>] [--json] [paths...]\n\
                     rules: see `hpacml-lint --list-rules`";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut enabled = all_rules();
    let mut json = false;
    let mut workspace = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--rules" => {
                let Some(spec) = args.next() else {
                    eprintln!("--rules needs a comma-separated id list\n{USAGE}");
                    return 2;
                };
                match parse_rules(&spec) {
                    Ok(set) => enabled = set,
                    Err(e) => {
                        eprintln!("hpacml-lint: {e}");
                        return 2;
                    }
                }
            }
            "--list-rules" => {
                for r in rules::ALL_RULES {
                    println!("{r}");
                }
                return 0;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return 2;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if !workspace && paths.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = find_workspace_root(&cwd).unwrap_or_else(|| cwd.clone());

    let mut findings: Vec<Finding> = Vec::new();
    let mut files = 0usize;
    if workspace {
        match lint_workspace(&root, &enabled) {
            Ok(f) => {
                files += hpacml_lint::workspace_files(&root)
                    .map(|v| v.len())
                    .unwrap_or(0);
                findings.extend(f);
            }
            Err(e) => {
                eprintln!("hpacml-lint: {e}");
                return 2;
            }
        }
    }
    for p in &paths {
        let targets: Vec<PathBuf> = if p.is_dir() {
            match collect(p) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("hpacml-lint: {}: {e}", p.display());
                    return 2;
                }
            }
        } else {
            vec![p.clone()]
        };
        for t in targets {
            let Ok(src) = std::fs::read_to_string(&t) else {
                eprintln!("hpacml-lint: cannot read {}", t.display());
                return 2;
            };
            files += 1;
            let rel = t
                .canonicalize()
                .ok()
                .and_then(|c| root.canonicalize().ok().map(|r| (c, r)))
                .and_then(|(c, r)| c.strip_prefix(&r).map(|p| p.to_path_buf()).ok())
                .unwrap_or_else(|| t.clone());
            // No corpus for loose paths: `dead-pub` runs under `--workspace`.
            findings.extend(analyze_source(
                &rel.to_string_lossy().replace('\\', "/"),
                &src,
                &enabled,
                None,
            ));
        }
    }
    findings.sort();
    findings.dedup();

    if json {
        let objs: Vec<String> = findings.iter().map(Finding::to_json).collect();
        println!("[{}]", objs.join(","));
    } else {
        for f in &findings {
            println!("{f}");
        }
        eprintln!(
            "hpacml-lint: {files} file(s) checked, {} finding(s)",
            findings.len()
        );
    }
    if findings.is_empty() {
        0
    } else {
        1
    }
}

fn collect(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}
