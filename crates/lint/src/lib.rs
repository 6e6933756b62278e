//! `hpacml-lint` — the in-repo static-analysis pass.
//!
//! The workspace's correctness story (surrogate results bit-identical across
//! thread counts, batch sizes, layouts and fallback modes) rests on
//! source-level invariants that tests can only probe after the fact. This
//! crate enforces them at the line that would break them: determinism lints
//! for the kernel crates, an unsafe audit, concurrency discipline,
//! allow-attribute hygiene, and a ratchet on the public surface: a `pub`
//! item no other crate, test, bin, example or benchmark names is flagged
//! (`crate-local-pub`). See [`rules`]
//! for the rule table and the README "Static analysis & invariants" section
//! for rationale.
//!
//! Escape hatch: a finding on line `L` is suppressed by a comment on `L` or
//! `L-1` of the form
//!
//! ```text
//! // lint: allow(<rule-id>) — <why this is sound here>
//! ```
//!
//! The justification is mandatory; an escape without one (or naming an
//! unknown rule) is itself a finding (`escape-hygiene`).

mod lexer;
pub mod rules;

pub use rules::WordIndex;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One diagnostic: `file:line: rule — message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    /// 1-based.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} — {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// JSON object form (hand-rolled: the workspace is offline, no serde).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            esc(&self.file),
            self.line,
            self.rule,
            esc(&self.message)
        )
    }
}

/// Where a file sits in the workspace, which decides which rules apply.
/// Derived purely from the workspace-relative path (forward slashes).
pub(crate) struct FileScope {
    pub rel: String,
    /// Kernel code: `crates/{tensor,nn,bridge}/src/` — the determinism rules.
    pub kernel: bool,
    /// `unsafe` allowlist: `crates/par/`, `vendor/`, and the
    /// counting-allocator test harnesses (`tests/alloc_free_*.rs`).
    pub unsafe_allowed: bool,
    /// `crates/core/src/` — the lock-across-wait rule.
    pub core_src: bool,
    /// `crates/serve/src/` — the daemon's swap/drain protocol leans on the
    /// same guard discipline as the batch server, so lock-across-wait
    /// applies there too.
    pub serve_src: bool,
    /// `crates/*/src/` — where `crate-local-pub` looks for `pub` items.
    pub crate_src: bool,
}

impl FileScope {
    pub fn of(rel: &str) -> Self {
        let rel = rel.replace('\\', "/");
        let kernel = ["crates/tensor/src/", "crates/nn/src/", "crates/bridge/src/"]
            .iter()
            .any(|p| rel.starts_with(p));
        let harness = rel.contains("/tests/")
            && Path::new(&rel)
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("alloc_free_"));
        let unsafe_allowed =
            rel.starts_with("crates/par/") || rel.starts_with("vendor/") || harness;
        let core_src = rel.starts_with("crates/core/src/");
        let serve_src = rel.starts_with("crates/serve/src/");
        let crate_src = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, in_crate)| in_crate.starts_with("src/"));
        FileScope {
            rel,
            kernel,
            unsafe_allowed,
            core_src,
            serve_src,
            crate_src,
        }
    }

    /// Build a finding at 0-based line `i`.
    pub(crate) fn finding(
        &self,
        i: usize,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            file: self.rel.clone(),
            line: i + 1,
            rule,
            message: message.into(),
        }
    }
}

/// Parse one `lint: allow(<rule>)` occurrence out of a comment. Returns
/// `(rule_id, justification)` per occurrence. Only rule-id-shaped names
/// (lowercase + hyphens) count: prose that *mentions* the syntax with a
/// placeholder (`lint: allow(...)`) is not an escape.
fn parse_escapes(comment: &str) -> Vec<(String, String)> {
    const TAG: &str = "lint: allow(";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = comment[from..].find(TAG) {
        let start = from + rel + TAG.len();
        let Some(close) = comment[start..].find(')') else {
            break;
        };
        let rule = comment[start..start + close].trim().to_string();
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            from = start + close + 1;
            continue;
        }
        let reason = comment[start + close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || "—–:-".contains(c))
            .trim()
            .to_string();
        out.push((rule, reason));
        from = start + close + 1;
    }
    out
}

/// The full enabled-rule set.
pub fn all_rules() -> BTreeSet<String> {
    rules::ALL_RULES.iter().map(|r| r.to_string()).collect()
}

/// Parse a `--rules a,b,c` selection; errors on unknown ids.
pub fn parse_rules(spec: &str) -> Result<BTreeSet<String>, String> {
    let mut set = BTreeSet::new();
    for id in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !rules::ALL_RULES.contains(&id) {
            return Err(format!(
                "unknown rule `{id}` (known: {})",
                rules::ALL_RULES.join(", ")
            ));
        }
        set.insert(id.to_string());
    }
    if set.is_empty() {
        return Err("empty rule selection".to_string());
    }
    Ok(set)
}

/// Analyze one file's source. `rel` is the workspace-relative path used for
/// scoping and reporting; findings come back sorted by line. `corpus` is
/// the word index of the tree the file belongs to; the cross-file
/// `crate-local-pub` rule only runs when there is one.
pub fn analyze_source(
    rel: &str,
    src: &str,
    enabled: &BTreeSet<String>,
    corpus: Option<&WordIndex>,
) -> Vec<Finding> {
    let scope = FileScope::of(rel);
    let lexed = lexer::lex(src);
    let mut findings = Vec::new();
    rules::run_all(&scope, &lexed, enabled, corpus, &mut findings);

    // Apply the escape hatch: a justified `lint: allow(<rule>)` on the
    // finding's line or the line above suppresses it.
    findings.retain(|f| {
        let i = f.line - 1;
        let mut escaped = false;
        for j in [Some(i), i.checked_sub(1)].into_iter().flatten() {
            if let Some(c) = lexed.comments.get(j) {
                for (rule, reason) in parse_escapes(c) {
                    if rule == f.rule && !reason.is_empty() {
                        escaped = true;
                    }
                }
            }
        }
        !escaped
    });

    // Escape hygiene: every escape must name a real rule and justify itself.
    if enabled.contains("escape-hygiene") {
        for (j, c) in lexed.comments.iter().enumerate() {
            for (rule, reason) in parse_escapes(c) {
                if !rules::ALL_RULES.contains(&rule.as_str()) {
                    findings.push(scope.finding(
                        j,
                        "escape-hygiene",
                        format!(
                            "`lint: allow({rule})` names an unknown rule (known: {})",
                            rules::ALL_RULES.join(", ")
                        ),
                    ));
                } else if reason.is_empty() {
                    findings.push(scope.finding(
                        j,
                        "escape-hygiene",
                        format!(
                            "`lint: allow({rule})` without a justification; write \
                             `// lint: allow({rule}) — <why this is sound here>`"
                        ),
                    ));
                }
            }
        }
    }

    findings.sort();
    findings
}

/// Enumerate the lintable files under `root`: the umbrella `src/`, plus
/// every `crates/*/src` and `crates/*/tests` tree. Fixture directories and
/// `vendor/` are intentionally not walked (vendored stand-ins are not this
/// workspace's code). Deterministic (sorted) order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    collect_rs(&root.join("src"), &mut out)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut out)?;
            collect_rs(&m.join("tests"), &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Index every identifier a `pub` item could be used from, by compilation
/// unit: the lintable files plus the umbrella crate's `examples/` and the
/// standalone `benchmark/src/`, which call into `crates/*` but are not
/// linted.
fn corpus_index(root: &Path) -> std::io::Result<WordIndex> {
    let mut files = workspace_files(root)?;
    collect_rs(&root.join("examples"), &mut files)?;
    collect_rs(&root.join("benchmark").join("src"), &mut files)?;
    let mut index = WordIndex::default();
    for path in files {
        index.add(&rel_path(root, &path), &std::fs::read_to_string(&path)?);
    }
    Ok(index)
}

/// `path` relative to `root`, with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every workspace file under `root`, returning all findings.
pub fn lint_workspace(root: &Path, enabled: &BTreeSet<String>) -> std::io::Result<Vec<Finding>> {
    let corpus = if enabled.contains("crate-local-pub") {
        Some(corpus_index(root)?)
    } else {
        None
    };
    let mut findings = Vec::new();
    for path in workspace_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        findings.extend(analyze_source(
            &rel_path(root, &path),
            &src,
            enabled,
            corpus.as_ref(),
        ));
    }
    findings.sort();
    Ok(findings)
}

/// Locate the workspace root by walking up from `start` to the first
/// `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
