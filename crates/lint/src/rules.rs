//! The lint rules. Each rule scans the masked code (and the captured
//! comments) of one file and reports findings; `lib.rs` applies the
//! per-line escape hatch afterwards. One rule, `crate-local-pub`, also
//! consults a [`WordIndex`] over the whole workspace.
//!
//! Rule scopes follow the invariants the workspace actually depends on:
//!
//! | id                    | scope                      | invariant |
//! |-----------------------|----------------------------|-----------|
//! | `no-fma`              | tensor/nn/bridge `src/`    | ascending-k accumulator chains must not be FMA-contracted |
//! | `no-wall-clock`       | tensor/nn/bridge `src/`    | kernel results must not depend on wall-clock reads |
//! | `no-hash-collections` | tensor/nn/bridge `src/`    | no randomized iteration order in kernel code |
//! | `no-unsafe`           | everywhere but allowlist   | `unsafe` is confined to `crates/par` (+ alloc harnesses) |
//! | `safety-comment`      | the allowlist              | every allowed `unsafe` carries a `// SAFETY:` comment |
//! | `atomic-ordering`     | everywhere                 | atomics name `Ordering::…` at the call site |
//! | `std-sync-lock`       | everywhere                 | `parking_lot` is the workspace lock standard |
//! | `lock-across-wait`    | `crates/{core,serve}/src/` | no lock guard held across an unrelated blocking wait |
//! | `allow-justification` | everywhere                 | every `#[allow(...)]` has an adjacent `//` justification |
//! | `crate-local-pub`     | `crates/*/src/`            | every `pub` item is named by another compilation unit |

use crate::lexer::Lexed;
use crate::{FileScope, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Every shipped rule id, in documentation order.
pub const ALL_RULES: &[&str] = &[
    "no-fma",
    "no-wall-clock",
    "no-hash-collections",
    "no-unsafe",
    "safety-comment",
    "atomic-ordering",
    "std-sync-lock",
    "lock-across-wait",
    "allow-justification",
    "crate-local-pub",
    "escape-hygiene",
];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of `word` in `line` with non-identifier characters on both
/// sides.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let at = from + rel;
        let before_ok = line[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = line[at + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

fn contains_word(line: &str, word: &str) -> bool {
    !word_positions(line, word).is_empty()
}

/// Collect the argument text of a call whose opening `(` is at
/// `(line, col)` in the masked code, scanning across lines to the matching
/// close paren (bounded, in case of pathological input).
fn call_args(code: &[String], line: usize, col: usize) -> String {
    let mut depth = 0usize;
    let mut out = String::new();
    for (li, l) in code.iter().enumerate().skip(line).take(80) {
        let start = if li == line { col } else { 0 };
        for c in l[start.min(l.len())..].chars() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    if depth <= 1 {
                        return out;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            if depth >= 1 && !(depth == 1 && c == '(') {
                out.push(c);
            }
        }
        out.push(' ');
    }
    out
}

/// `.method(` occurrences of `method` on `line`; returns the column of the
/// opening paren for each.
fn method_calls(line: &str, method: &str) -> Vec<usize> {
    let pat = format!(".{method}(");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(&pat) {
        let at = from + rel;
        out.push(at + pat.len() - 1);
        from = at + pat.len();
    }
    out
}

pub(crate) fn det_no_fma(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !scope.kernel {
        return;
    }
    for (i, l) in lexed.code.iter().enumerate() {
        if contains_word(l, "mul_add") {
            out.push(scope.finding(
                i,
                "no-fma",
                "`mul_add` contracts multiply+add into an FMA, which changes result bits \
                 per target; kernel code must keep plain `a * b + c` accumulator chains \
                 (the determinism contract of tensor::gemm)",
            ));
        }
    }
}

pub(crate) fn det_no_wall_clock(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !scope.kernel {
        return;
    }
    for (i, l) in lexed.code.iter().enumerate() {
        for word in ["Instant", "SystemTime"] {
            if contains_word(l, word) {
                out.push(scope.finding(
                    i,
                    "no-wall-clock",
                    format!(
                        "`{word}` in kernel code: results and control flow must not depend \
                         on wall-clock reads; hoist timing to the caller (apps/bench layer)"
                    ),
                ));
            }
        }
    }
}

pub(crate) fn det_no_hash_collections(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !scope.kernel {
        return;
    }
    for (i, l) in lexed.code.iter().enumerate() {
        for word in ["HashMap", "HashSet"] {
            if contains_word(l, word) {
                out.push(scope.finding(
                    i,
                    "no-hash-collections",
                    format!(
                        "`{word}` iteration order is randomized per process; kernel code \
                         must use BTreeMap/BTreeSet (or sorted keys) so every walk is \
                         deterministic"
                    ),
                ));
            }
        }
    }
}

pub(crate) fn unsafe_rules(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, l) in lexed.code.iter().enumerate() {
        if !contains_word(l, "unsafe") {
            continue;
        }
        if !scope.unsafe_allowed {
            out.push(scope.finding(
                i,
                "no-unsafe",
                "`unsafe` outside the allowlist (crates/par, vendor/, counting-allocator \
                 test harnesses); move the unsafety behind a safe hpacml-par API",
            ));
            continue;
        }
        // Allowed site: it must still carry a SAFETY comment — on the same
        // line, or in the contiguous comment/blank block right above. Lines
        // that are statement continuations (the previous line ends mid-
        // expression) are scanned through, so `let x: T =\n  unsafe { … }`
        // still sees the comment above the `let`.
        let mut documented = lexed.comments[i].contains("SAFETY");
        let mut j = i;
        while !documented && j > 0 {
            j -= 1;
            let comment = &lexed.comments[j];
            let code = lexed.code[j].trim_end();
            let continuation = ["=", "(", ",", "+", "&&", "||", ".", "<", ">"]
                .iter()
                .any(|s| code.ends_with(s));
            if comment.contains("SAFETY") || comment.contains("# Safety") {
                documented = true;
            } else if code.trim().is_empty() || continuation {
                continue; // blank, comment-only, or mid-statement: keep going
            } else {
                break; // real code: the comment block (if any) ended
            }
        }
        if !documented {
            out.push(scope.finding(
                i,
                "safety-comment",
                "allowed `unsafe` without a `// SAFETY:` comment on the preceding lines; \
                 state the invariant that makes this sound",
            ));
        }
    }
}

/// Atomic RMW/CAS methods that unambiguously belong to `std::sync::atomic`
/// types — these must name an `Ordering` in their argument list.
const ATOMIC_ONLY_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Methods shared with non-atomic types (`Vec::swap`, an engine's `load`,
/// …): flagged only when a bare ordering variant appears without its
/// `Ordering::` path — the imported-variant spelling the rule exists to ban.
const AMBIGUOUS_METHODS: &[&str] = &["load", "store", "swap"];

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn has_bare_ordering_variant(args: &str) -> bool {
    for v in ORDERING_VARIANTS {
        for at in word_positions(args, v) {
            if !args[..at].ends_with("Ordering::") {
                return true;
            }
        }
    }
    false
}

pub(crate) fn atomic_ordering(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, l) in lexed.code.iter().enumerate() {
        if l.contains("use ") && l.contains("std::sync::atomic::Ordering::") {
            out.push(scope.finding(
                i,
                "atomic-ordering",
                "importing `Ordering` variants directly hides the ordering at call \
                 sites; import `Ordering` itself and write `Ordering::<X>` per call",
            ));
        }
        for m in ATOMIC_ONLY_METHODS {
            for col in method_calls(l, m) {
                let args = call_args(&lexed.code, i, col);
                if !contains_word(&args, "Ordering") && !has_bare_ordering_variant(&args) {
                    out.push(scope.finding(
                        i,
                        "atomic-ordering",
                        format!(
                            "atomic `.{m}(…)` without an explicit `Ordering::…` argument; \
                             default-ordering helper wrappers are forbidden"
                        ),
                    ));
                } else if has_bare_ordering_variant(&args) {
                    out.push(scope.finding(
                        i,
                        "atomic-ordering",
                        format!(
                            "atomic `.{m}(…)` names a bare ordering variant; spell it \
                             `Ordering::<X>` so the ordering is visible at the call site"
                        ),
                    ));
                }
            }
        }
        for m in AMBIGUOUS_METHODS {
            for col in method_calls(l, m) {
                let args = call_args(&lexed.code, i, col);
                if has_bare_ordering_variant(&args) {
                    out.push(scope.finding(
                        i,
                        "atomic-ordering",
                        format!(
                            "atomic `.{m}(…)` names a bare ordering variant; spell it \
                             `Ordering::<X>` so the ordering is visible at the call site"
                        ),
                    ));
                }
            }
        }
    }
}

pub(crate) fn std_sync_lock(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, l) in lexed.code.iter().enumerate() {
        if !l.contains("std::sync::") {
            continue;
        }
        for prim in ["Mutex", "RwLock", "Condvar"] {
            let direct = l.contains(&format!("std::sync::{prim}"));
            let braced = l.contains("use ") && contains_word(l, prim);
            if direct || braced {
                out.push(scope.finding(
                    i,
                    "std-sync-lock",
                    format!(
                        "`std::sync::{prim}` is forbidden; `parking_lot::{prim}` is the \
                         workspace standard (non-poisoning guards, no `.unwrap()` noise)"
                    ),
                ));
            }
        }
    }
}

/// Waits that hand a named guard to the condvar (releasing the lock) are
/// fine; everything else that blocks while a guard is live is flagged.
pub(crate) fn lock_across_wait(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !scope.core_src && !scope.serve_src {
        return;
    }
    // (guard name, brace depth at binding)
    let mut guards: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    for (i, l) in lexed.code.iter().enumerate() {
        // New guard binding: `let [mut] name = ….lock();`
        if l.contains(".lock()") {
            if let Some(let_at) = l.find("let ") {
                let rest = l[let_at + 4..].trim_start();
                let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
                if !name.is_empty() && l.find('=').is_some_and(|eq| eq > let_at) {
                    guards.push((name, depth));
                }
            }
        }
        for c in l.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|(_, d)| *d <= depth);
                }
                _ => {}
            }
        }
        // Explicit early drop ends the guard's liveness.
        guards.retain(|(name, _)| !l.contains(&format!("drop({name})")));
        if guards.is_empty() {
            continue;
        }
        let held = guards
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join("`, `");
        if l.contains("thread::sleep") || l.contains(".join()") || l.contains(".recv(") {
            out.push(scope.finding(
                i,
                "lock-across-wait",
                format!(
                    "blocking call while lock guard `{held}` is held; publish/flush \
                     first, then block (see BatchServer::execute's ordering rule)"
                ),
            ));
        }
        for m in ["wait", "wait_for", "wait_timeout", "wait_while"] {
            for col in method_calls(l, m) {
                let args = call_args(&lexed.code, i, col);
                let hands_over = guards.iter().any(|(n, _)| contains_word(&args, n));
                if !hands_over {
                    out.push(scope.finding(
                        i,
                        "lock-across-wait",
                        format!(
                            "`.{m}(…)` parks without handing over the held guard \
                             `{held}`; waiting on one cell while holding another lock \
                             is the batch-server deadlock pattern"
                        ),
                    ));
                }
            }
        }
    }
}

pub(crate) fn allow_justification(scope: &FileScope, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, l) in lexed.code.iter().enumerate() {
        if !l.contains("#[allow(") && !l.contains("#![allow(") {
            continue;
        }
        let same_line = lexed.plain_comment(i).is_some();
        let prev_line = i > 0 && lexed.plain_comment(i - 1).is_some();
        if !same_line && !prev_line {
            out.push(scope.finding(
                i,
                "allow-justification",
                "`#[allow(...)]` without an adjacent `//` justification comment; say \
                 why the lint misfires here (doc comments describe the item, not the \
                 waiver)",
            ));
        }
    }
}

/// The stand-in unit of code that compiles in another crate although it
/// sits in this one: `#[macro_export]` bodies expand in the caller's crate,
/// and doc tests are built as crates of their own.
const ELSEWHERE: &str = "<another crate>";

/// The compilation unit a workspace-relative path belongs to: a crate's lib
/// (`crates/X/src`), one of its bins (`src/main.rs`, `src/bin/<name>`), its
/// integration tests (`crates/X/tests`), or one of the umbrella's trees
/// (`src`, `examples`, `benchmark/src`).
fn unit_of(rel: &str) -> String {
    match rel.split('/').collect::<Vec<_>>().as_slice() {
        ["crates", _, "src", "main.rs"] => rel.to_string(),
        ["crates", krate, "src", "bin", bin, ..] => {
            format!("crates/{krate}/src/bin/{}", bin.trim_end_matches(".rs"))
        }
        ["crates", krate, tree, ..] => format!("crates/{krate}/{tree}"),
        ["benchmark", tree, ..] => format!("benchmark/{tree}"),
        [top, ..] => top.to_string(),
        [] => String::new(),
    }
}

/// Per masked-code line: is it inside a `#[macro_export] macro_rules!`
/// body (the attribute's line through the definition's closing delimiter)?
fn macro_export_lines(lexed: &Lexed) -> Vec<bool> {
    let mut inside = vec![false; lexed.code.len()];
    let mut i = 0;
    while i < lexed.code.len() {
        if !lexed.code[i].contains("#[macro_export]") {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut opened = false;
        while i < lexed.code.len() {
            inside[i] = true;
            for c in lexed.code[i].chars() {
                match c {
                    '{' | '(' | '[' => {
                        depth += 1;
                        opened |= lexed.code[i].contains("macro_rules!");
                    }
                    '}' | ')' | ']' => depth -= 1,
                    _ => {}
                }
            }
            i += 1;
            if opened && depth == 0 {
                break;
            }
        }
    }
    inside
}

/// The Rust code blocks of a file's doc comments (`///`, `//!`), lexed as
/// one file: rustdoc compiles each as a crate of its own. Hidden `# ` lines
/// count; `text`, `ignore` and other non-Rust fences do not.
fn doc_test_code(lexed: &Lexed) -> Lexed {
    let mut code = String::new();
    let mut rust_block = None;
    for c in &lexed.comments {
        let Some(doc) = c.strip_prefix(['/', '!']) else {
            rust_block = None;
            continue;
        };
        let line = doc.strip_prefix(' ').unwrap_or(doc);
        if let Some(info) = line.trim_start().strip_prefix("```") {
            rust_block = match rust_block {
                Some(_) => None,
                None => Some(info.split(',').map(str::trim).all(|t| {
                    ["", "rust", "no_run", "should_panic", "compile_fail"].contains(&t)
                        || t.starts_with("edition")
                })),
            };
        } else if rust_block == Some(true) {
            let hidden = line.trim_start();
            let shown = match hidden.strip_prefix('#') {
                Some(rest) if rest.is_empty() || rest.starts_with(' ') => rest,
                _ => line,
            };
            code.push_str(shown);
            code.push('\n');
        }
    }
    crate::lexer::lex(&code)
}

/// Which compilation units name each identifier in their masked code — the
/// corpus `crate-local-pub` looks names up in. Comments and literals are
/// already blanked by the lexer, so prose that mentions an item is not a use
/// of it; doc-test code and `#[macro_export]` bodies count as another
/// crate's.
#[derive(Default)]
pub struct WordIndex {
    units: BTreeMap<String, BTreeSet<String>>,
}

impl WordIndex {
    /// Index one file's source; `rel` is its workspace-relative path, which
    /// decides its compilation unit.
    pub fn add(&mut self, rel: &str, src: &str) {
        let lexed = &crate::lexer::lex(src);
        let unit = unit_of(rel);
        let exported = macro_export_lines(lexed);
        for (l, exported) in lexed.code.iter().zip(exported) {
            self.add_words(l, if exported { ELSEWHERE } else { &unit });
        }
        for l in &doc_test_code(lexed).code {
            self.add_words(l, ELSEWHERE);
        }
    }

    fn add_words(&mut self, line: &str, unit: &str) {
        for word in line.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
            self.units
                .entry(word.to_string())
                .or_default()
                .insert(unit.to_string());
        }
    }

    fn named_outside(&self, word: &str, unit: &str) -> bool {
        self.units
            .get(word)
            .is_some_and(|units| units.iter().any(|u| u != unit))
    }
}

/// The `(kind, name)` a `pub` item on `line` declares: a fn (method or free,
/// qualifiers allowed), struct, enum, union, trait, type alias, const or
/// static. `pub(crate)` and narrower are not public surface; `pub use`,
/// `pub mod` and fields are not items this rule narrows.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let at = *word_positions(line, "pub").first()?;
    let mut toks = line[at + 3..].split_whitespace().peekable();
    while toks.next_if(|t| ["async", "unsafe"].contains(t)).is_some() {}
    let mut kind = toks.next()?;
    if kind == "const" && toks.next_if_eq(&"fn").is_some() {
        kind = "fn";
    }
    if kind == "static" {
        toks.next_if_eq(&"mut");
    }
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "union", "trait", "type", "const", "static",
    ];
    if !KINDS.contains(&kind) {
        return None;
    }
    let name = toks.next()?;
    let end = name.find(|c| !is_ident(c)).unwrap_or(name.len());
    (end > 0).then(|| (kind, &name[..end]))
}

/// A `pub` item in `crates/*/src` whose name no other compilation unit's
/// code holds is used by nothing that needs it public: not another crate,
/// not this crate's tests or bins, not an example, the benchmark, an
/// exported macro or a doc test. Matching is by name, so an item that shares
/// its name with something used elsewhere hides behind it.
pub(crate) fn crate_local_pub(
    scope: &FileScope,
    lexed: &Lexed,
    corpus: &WordIndex,
    out: &mut Vec<Finding>,
) {
    if !scope.crate_src {
        return;
    }
    let unit = unit_of(&scope.rel);
    for (i, l) in lexed.code.iter().enumerate() {
        let Some((kind, name)) = pub_item(l) else {
            continue;
        };
        if !corpus.named_outside(name, &unit) {
            out.push(scope.finding(
                i,
                "crate-local-pub",
                format!(
                    "`pub {kind} {name}` is named in no compilation unit but `{unit}` (no \
                     other crate, tests/, bin, example, benchmark/src, exported macro or \
                     doc test); make it `pub(crate)`, and delete it if rustc then finds it \
                     dead"
                ),
            ));
        }
    }
}

/// Dispatch every enabled rule over one lexed file. `corpus` is the
/// workspace word index; without one the cross-file rule does not run.
pub(crate) fn run_all(
    scope: &FileScope,
    lexed: &Lexed,
    enabled: &BTreeSet<String>,
    corpus: Option<&WordIndex>,
    out: &mut Vec<Finding>,
) {
    let on = |id: &str| enabled.contains(id);
    if on("no-fma") {
        det_no_fma(scope, lexed, out);
    }
    if on("no-wall-clock") {
        det_no_wall_clock(scope, lexed, out);
    }
    if on("no-hash-collections") {
        det_no_hash_collections(scope, lexed, out);
    }
    if on("no-unsafe") || on("safety-comment") {
        let mut raw = Vec::new();
        unsafe_rules(scope, lexed, &mut raw);
        raw.retain(|f| on(f.rule));
        out.append(&mut raw);
    }
    if on("atomic-ordering") {
        atomic_ordering(scope, lexed, out);
    }
    if on("std-sync-lock") {
        std_sync_lock(scope, lexed, out);
    }
    if on("lock-across-wait") {
        lock_across_wait(scope, lexed, out);
    }
    if on("allow-justification") {
        allow_justification(scope, lexed, out);
    }
    if let Some(corpus) = corpus.filter(|_| on("crate-local-pub")) {
        crate_local_pub(scope, lexed, corpus, out);
    }
}
