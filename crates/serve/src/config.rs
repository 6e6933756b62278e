//! Declarative serving configuration.
//!
//! An nginx-style grammar — `key value… ;` statements grouped by braces —
//! declares the daemon's regions, their models, batching limits, and
//! precision/validation policies:
//!
//! ```text
//! daemon {
//!     workers 4;            # accepted, ignored (see below)
//!     max_pending 256;      # default admission cap (per region)
//!     deadline 200ms;       # default per-request batch-join budget
//! }
//!
//! region stencil {
//!     directive "#pragma approx ...";
//!     model "models/stencil.hml";
//!     db "db/stencil.h5";
//!     bind N 1;
//!     input x 3;            # per-sample element count
//!     output y 1;
//!     max_batch 64;
//!     max_wait 200us;
//!     max_pending 128;      # overrides the daemon default
//!     deadline 2ms;
//!     precision int8;
//!     calib_rows 512;
//!     validation {
//!         metric rmse;
//!         budget 0.05;
//!         rate 16;
//!         window 32;
//!         batch_samples 2;
//!     }
//! }
//! ```
//!
//! `workers` (daemon-wide or per region) is accepted and ignored: submits run
//! on the caller's thread, so there is no worker pool for it to size. It is
//! still parsed, range-checked and rendered so existing config files load.
//!
//! `#` comments run to end of line; strings are double-quoted with `\"`,
//! `\\`, `\n`, `\t` escapes. The parser is hand-rolled (zero dependencies)
//! and total: any input produces either a [`Config`] or a line-numbered
//! [`ConfigError`], never a panic. [`Config::render`] emits the canonical
//! form; `parse(render(parse(text)))` equals `parse(text)` for every valid
//! `text` (pinned by proptest in `tests/prop_config.rs`).

use hpacml_core::{ErrorMetric, Precision};
use std::fmt;
use std::time::Duration;

/// Value of the ignored `workers` directive when the config does not say.
pub const DEFAULT_WORKERS: usize = 2;
/// Coalescing width when a region does not declare `max_batch`.
pub const DEFAULT_MAX_BATCH: usize = 16;
/// Leader wait bound when a region does not declare `max_wait`.
pub const DEFAULT_MAX_WAIT: Duration = Duration::from_micros(200);

/// A parsed serving configuration: daemon-wide defaults plus one entry per
/// region, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    pub daemon: DaemonConfig,
    pub regions: Vec<RegionConfig>,
}

/// The `daemon { … }` block: daemon-wide defaults that regions inherit
/// unless they override.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Accepted, ignored: submits run on the caller's thread.
    pub workers: usize,
    /// Default admission cap for regions that declare none.
    pub max_pending: Option<usize>,
    /// Default per-request batch-join budget for regions that declare none.
    pub deadline: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: DEFAULT_WORKERS,
            max_pending: None,
            deadline: None,
        }
    }
}

/// One `region <name> { … }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionConfig {
    pub name: String,
    /// The `#pragma approx` source compiled into the region.
    pub directive: String,
    /// Model path override (`Region::builder(..).model(..)`).
    pub model: Option<String>,
    /// Database path override.
    pub db: Option<String>,
    /// Symbol bindings for the directive (`bind N 1;`), in file order.
    pub binds: Vec<(String, i64)>,
    /// Per-sample input arrays: name and element count, in file order.
    pub inputs: Vec<(String, usize)>,
    /// Per-sample output arrays: name and element count, in file order.
    pub outputs: Vec<(String, usize)>,
    pub max_batch: usize,
    pub max_wait: Duration,
    /// Admission cap; falls back to the daemon default, else unbounded.
    pub max_pending: Option<usize>,
    /// Batch-join budget; falls back to the daemon default, else unbounded.
    pub deadline: Option<Duration>,
    /// Accepted, ignored: submits run on the caller's thread.
    pub workers: Option<usize>,
    pub precision: Precision,
    /// Calibration-row cap for reduced-precision policies.
    pub calib_rows: Option<usize>,
    pub validation: Option<ValidationConfig>,
}

impl RegionConfig {
    /// A region with only the required fields set and every limit at its
    /// default — the starting point the parser fills in.
    fn named(name: String) -> Self {
        RegionConfig {
            name,
            directive: String::new(),
            model: None,
            db: None,
            binds: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            max_batch: DEFAULT_MAX_BATCH,
            max_wait: DEFAULT_MAX_WAIT,
            max_pending: None,
            deadline: None,
            workers: None,
            precision: Precision::F32,
            calib_rows: None,
            validation: None,
        }
    }

    /// The admission cap in force once daemon defaults are applied.
    pub fn effective_max_pending(&self, daemon: &DaemonConfig) -> Option<usize> {
        self.max_pending.or(daemon.max_pending)
    }

    /// The batch-join budget in force once daemon defaults are applied.
    pub fn effective_deadline(&self, daemon: &DaemonConfig) -> Option<Duration> {
        self.deadline.or(daemon.deadline)
    }
}

/// A `validation { … }` block: metric and budget are required, the
/// sampling knobs keep the policy's own defaults when absent.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationConfig {
    pub metric: ErrorMetric,
    pub budget: f64,
    pub rate: Option<u32>,
    pub window: Option<usize>,
    pub batch_samples: Option<usize>,
}

/// A parse failure: the offending line and what went wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError {
        line,
        msg: msg.into(),
    })
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    Word(String),
    Str(String),
    LBrace,
    RBrace,
    Semi,
}

impl TokKind {
    fn describe(&self) -> String {
        match self {
            TokKind::Word(w) => format!("'{w}'"),
            TokKind::Str(_) => "string".into(),
            TokKind::LBrace => "'{'".into(),
            TokKind::RBrace => "'}'".into(),
            TokKind::Semi => "';'".into(),
        }
    }
}

#[derive(Debug, Clone)]
struct Tok {
    kind: TokKind,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<Tok>, ConfigError> {
    let mut toks = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1usize;
    while let Some(c) = chars.next() {
        match c {
            '\n' => line += 1,
            c if c.is_whitespace() => {}
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => toks.push(Tok {
                kind: TokKind::LBrace,
                line,
            }),
            '}' => toks.push(Tok {
                kind: TokKind::RBrace,
                line,
            }),
            ';' => toks.push(Tok {
                kind: TokKind::Semi,
                line,
            }),
            '"' => {
                let start = line;
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return err(start, "unterminated string"),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(c) => match hpacml_directive::unescape(c) {
                                Some(e) => s.push(e),
                                None => return err(line, format!("unknown escape '\\{c}'")),
                            },
                            None => return err(start, "unterminated string"),
                        },
                        Some('\n') => {
                            s.push('\n');
                            line += 1;
                        }
                        Some(other) => s.push(other),
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Str(s),
                    line: start,
                });
            }
            first => {
                let mut w = String::new();
                w.push(first);
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || matches!(c, '{' | '}' | ';' | '"' | '#') {
                        break;
                    }
                    w.push(c);
                    chars.next();
                }
                toks.push(Tok {
                    kind: TokKind::Word(w),
                    line,
                });
            }
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    last_line: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn line(&self) -> usize {
        self.peek().map_or(self.last_line, |t| t.line)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_word(&mut self, what: &str) -> Result<(String, usize), ConfigError> {
        let line = self.line();
        match self.next() {
            Some(Tok {
                kind: TokKind::Word(w),
                line,
            }) => Ok((w, line)),
            Some(t) => err(
                t.line,
                format!("expected {what}, found {}", t.kind.describe()),
            ),
            None => err(line, format!("expected {what}, found end of input")),
        }
    }

    fn expect_str(&mut self, what: &str) -> Result<(String, usize), ConfigError> {
        let line = self.line();
        match self.next() {
            Some(Tok {
                kind: TokKind::Str(s),
                line,
            }) => Ok((s, line)),
            Some(t) => err(
                t.line,
                format!("expected quoted {what}, found {}", t.kind.describe()),
            ),
            None => err(line, format!("expected quoted {what}, found end of input")),
        }
    }

    fn expect_kind(&mut self, kind: TokKind) -> Result<usize, ConfigError> {
        let line = self.line();
        match self.next() {
            Some(t) if t.kind == kind => Ok(t.line),
            Some(t) => err(
                t.line,
                format!("expected {}, found {}", kind.describe(), t.kind.describe()),
            ),
            None => err(
                line,
                format!("expected {}, found end of input", kind.describe()),
            ),
        }
    }
}

fn ident(word: &str, line: usize, what: &str) -> Result<String, ConfigError> {
    let mut chars = word.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if head_ok && word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Ok(word.to_string())
    } else {
        err(line, format!("invalid {what} '{word}'"))
    }
}

fn parse_usize(word: &str, line: usize, key: &str) -> Result<usize, ConfigError> {
    match word.parse::<usize>() {
        Ok(v) => Ok(v),
        Err(_) => err(
            line,
            format!("{key}: expected a non-negative integer, found '{word}'"),
        ),
    }
}

fn parse_positive(word: &str, line: usize, key: &str) -> Result<usize, ConfigError> {
    let v = parse_usize(word, line, key)?;
    if v == 0 {
        return err(line, format!("{key} must be at least 1"));
    }
    Ok(v)
}

fn parse_i64(word: &str, line: usize, key: &str) -> Result<i64, ConfigError> {
    match word.parse::<i64>() {
        Ok(v) => Ok(v),
        Err(_) => err(line, format!("{key}: expected an integer, found '{word}'")),
    }
}

fn parse_f64(word: &str, line: usize, key: &str) -> Result<f64, ConfigError> {
    match word.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => err(
            line,
            format!("{key}: expected a finite number, found '{word}'"),
        ),
    }
}

/// `150ns` / `200us` / `2ms` / `5s` → `Duration`. Canonical rendering picks
/// the largest unit that divides evenly, so parse∘render is the identity.
fn parse_duration(word: &str, line: usize, key: &str) -> Result<Duration, ConfigError> {
    let split = word
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(word.len());
    let (digits, unit) = word.split_at(split);
    let Ok(value) = digits.parse::<u64>() else {
        return err(
            line,
            format!("{key}: expected a duration like '200us', found '{word}'"),
        );
    };
    let mult: u64 = match unit {
        "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        _ => {
            return err(
                line,
                format!("{key}: unknown duration unit '{unit}' (use ns/us/ms/s)"),
            )
        }
    };
    match value.checked_mul(mult) {
        Some(ns) => Ok(Duration::from_nanos(ns)),
        None => err(line, format!("{key}: duration '{word}' overflows")),
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Quote + escape a string for the config grammar.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// Tracks `key already set on line N` for duplicate detection.
struct Once {
    key: &'static str,
    set_at: Option<usize>,
}

impl Once {
    fn new(key: &'static str) -> Self {
        Once { key, set_at: None }
    }

    fn set(&mut self, line: usize) -> Result<(), ConfigError> {
        match self.set_at {
            Some(prev) => err(
                line,
                format!("duplicate '{}' (already set on line {prev})", self.key),
            ),
            None => {
                self.set_at = Some(line);
                Ok(())
            }
        }
    }
}

impl Config {
    /// Parse a configuration. Total over arbitrary input: returns a
    /// line-numbered [`ConfigError`] on any malformed text, never panics.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let toks = lex(src)?;
        let last_line = toks.last().map_or(1, |t| t.line);
        let mut p = Parser {
            toks,
            pos: 0,
            last_line,
        };
        let mut daemon: Option<DaemonConfig> = None;
        let mut regions: Vec<RegionConfig> = Vec::new();
        while p.peek().is_some() {
            let (word, line) = p.expect_word("'daemon' or 'region'")?;
            match word.as_str() {
                "daemon" => {
                    if daemon.is_some() {
                        return err(line, "duplicate 'daemon' block");
                    }
                    daemon = Some(parse_daemon_block(&mut p)?);
                }
                "region" => {
                    let (raw, nline) = p.expect_word("region name")?;
                    let name = ident(&raw, nline, "region name")?;
                    if regions.iter().any(|r| r.name == name) {
                        return err(nline, format!("duplicate region '{name}'"));
                    }
                    regions.push(parse_region_block(&mut p, name, nline)?);
                }
                other => {
                    return err(
                        line,
                        format!(
                            "unknown top-level directive '{other}' (expected 'daemon' or 'region')"
                        ),
                    )
                }
            }
        }
        Ok(Config {
            daemon: daemon.unwrap_or_default(),
            regions,
        })
    }

    /// Emit the canonical text form: every effective field written out,
    /// durations in their largest even unit, strings quoted. Parsing the
    /// render reproduces the `Config` exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("daemon {\n");
        out.push_str(&format!("    workers {};\n", self.daemon.workers));
        if let Some(mp) = self.daemon.max_pending {
            out.push_str(&format!("    max_pending {mp};\n"));
        }
        if let Some(d) = self.daemon.deadline {
            out.push_str(&format!("    deadline {};\n", fmt_duration(d)));
        }
        out.push_str("}\n");
        for r in &self.regions {
            out.push_str(&format!("\nregion {} {{\n", r.name));
            out.push_str(&format!("    directive {};\n", quote(&r.directive)));
            if let Some(m) = &r.model {
                out.push_str(&format!("    model {};\n", quote(m)));
            }
            if let Some(db) = &r.db {
                out.push_str(&format!("    db {};\n", quote(db)));
            }
            for (name, v) in &r.binds {
                out.push_str(&format!("    bind {name} {v};\n"));
            }
            for (name, n) in &r.inputs {
                out.push_str(&format!("    input {name} {n};\n"));
            }
            for (name, n) in &r.outputs {
                out.push_str(&format!("    output {name} {n};\n"));
            }
            out.push_str(&format!("    max_batch {};\n", r.max_batch));
            out.push_str(&format!("    max_wait {};\n", fmt_duration(r.max_wait)));
            if let Some(mp) = r.max_pending {
                out.push_str(&format!("    max_pending {mp};\n"));
            }
            if let Some(d) = r.deadline {
                out.push_str(&format!("    deadline {};\n", fmt_duration(d)));
            }
            if let Some(w) = r.workers {
                out.push_str(&format!("    workers {w};\n"));
            }
            out.push_str(&format!("    precision {};\n", r.precision.name()));
            if let Some(rows) = r.calib_rows {
                out.push_str(&format!("    calib_rows {rows};\n"));
            }
            if let Some(v) = &r.validation {
                out.push_str("    validation {\n");
                out.push_str(&format!("        metric {};\n", v.metric.word()));
                out.push_str(&format!("        budget {};\n", v.budget));
                if let Some(rate) = v.rate {
                    out.push_str(&format!("        rate {rate};\n"));
                }
                if let Some(w) = v.window {
                    out.push_str(&format!("        window {w};\n"));
                }
                if let Some(k) = v.batch_samples {
                    out.push_str(&format!("        batch_samples {k};\n"));
                }
                out.push_str("    }\n");
            }
            out.push_str("}\n");
        }
        out
    }
}

fn parse_daemon_block(p: &mut Parser) -> Result<DaemonConfig, ConfigError> {
    p.expect_kind(TokKind::LBrace)?;
    let mut cfg = DaemonConfig::default();
    let mut workers = Once::new("workers");
    let mut max_pending = Once::new("max_pending");
    let mut deadline = Once::new("deadline");
    loop {
        match p.peek().map(|t| t.kind.clone()) {
            Some(TokKind::RBrace) => {
                p.next();
                return Ok(cfg);
            }
            None => return err(p.line(), "unclosed 'daemon' block"),
            _ => {}
        }
        let (key, line) = p.expect_word("a daemon setting")?;
        match key.as_str() {
            "workers" => {
                workers.set(line)?;
                let (v, vline) = p.expect_word("worker count")?;
                cfg.workers = parse_positive(&v, vline, "workers")?;
            }
            "max_pending" => {
                max_pending.set(line)?;
                let (v, vline) = p.expect_word("pending cap")?;
                cfg.max_pending = Some(parse_positive(&v, vline, "max_pending")?);
            }
            "deadline" => {
                deadline.set(line)?;
                let (v, vline) = p.expect_word("deadline")?;
                cfg.deadline = Some(parse_duration(&v, vline, "deadline")?);
            }
            other => return err(line, format!("unknown daemon setting '{other}'")),
        }
        p.expect_kind(TokKind::Semi)?;
    }
}

fn parse_region_block(
    p: &mut Parser,
    name: String,
    name_line: usize,
) -> Result<RegionConfig, ConfigError> {
    p.expect_kind(TokKind::LBrace)?;
    let mut r = RegionConfig::named(name);
    let mut directive = Once::new("directive");
    let mut model = Once::new("model");
    let mut db = Once::new("db");
    let mut max_batch = Once::new("max_batch");
    let mut max_wait = Once::new("max_wait");
    let mut max_pending = Once::new("max_pending");
    let mut deadline = Once::new("deadline");
    let mut workers = Once::new("workers");
    let mut precision = Once::new("precision");
    let mut calib_rows = Once::new("calib_rows");
    let mut validation = Once::new("validation");
    loop {
        match p.peek().map(|t| t.kind.clone()) {
            Some(TokKind::RBrace) => {
                p.next();
                break;
            }
            None => return err(p.line(), format!("unclosed 'region {}' block", r.name)),
            _ => {}
        }
        let (key, line) = p.expect_word("a region setting")?;
        match key.as_str() {
            "directive" => {
                directive.set(line)?;
                r.directive = p.expect_str("directive source")?.0;
            }
            "model" => {
                model.set(line)?;
                r.model = Some(p.expect_str("model path")?.0);
            }
            "db" => {
                db.set(line)?;
                r.db = Some(p.expect_str("db path")?.0);
            }
            "bind" => {
                let (sym, sline) = p.expect_word("bind symbol")?;
                let sym = ident(&sym, sline, "bind symbol")?;
                if r.binds.iter().any(|(n, _)| *n == sym) {
                    return err(sline, format!("duplicate bind '{sym}'"));
                }
                let (v, vline) = p.expect_word("bind value")?;
                r.binds.push((sym, parse_i64(&v, vline, "bind")?));
            }
            "input" | "output" => {
                let (arr, aline) = p.expect_word("array name")?;
                let arr = ident(&arr, aline, "array name")?;
                let both = r.inputs.iter().chain(r.outputs.iter());
                if both.clone().any(|(n, _)| *n == arr) {
                    return err(aline, format!("duplicate array '{arr}'"));
                }
                let (v, vline) = p.expect_word("element count")?;
                let count = parse_positive(&v, vline, &key)?;
                if key == "input" {
                    r.inputs.push((arr, count));
                } else {
                    r.outputs.push((arr, count));
                }
            }
            "max_batch" => {
                max_batch.set(line)?;
                let (v, vline) = p.expect_word("batch size")?;
                r.max_batch = parse_positive(&v, vline, "max_batch")?;
            }
            "max_wait" => {
                max_wait.set(line)?;
                let (v, vline) = p.expect_word("wait bound")?;
                r.max_wait = parse_duration(&v, vline, "max_wait")?;
            }
            "max_pending" => {
                max_pending.set(line)?;
                let (v, vline) = p.expect_word("pending cap")?;
                r.max_pending = Some(parse_positive(&v, vline, "max_pending")?);
            }
            "deadline" => {
                deadline.set(line)?;
                let (v, vline) = p.expect_word("deadline")?;
                r.deadline = Some(parse_duration(&v, vline, "deadline")?);
            }
            "workers" => {
                workers.set(line)?;
                let (v, vline) = p.expect_word("worker count")?;
                r.workers = Some(parse_positive(&v, vline, "workers")?);
            }
            "precision" => {
                precision.set(line)?;
                let (v, vline) = p.expect_word("precision")?;
                r.precision = Precision::from_name(&v).ok_or(ConfigError {
                    line: vline,
                    msg: format!("unknown precision '{v}' (use f32/bf16/int8)"),
                })?;
            }
            "calib_rows" => {
                calib_rows.set(line)?;
                let (v, vline) = p.expect_word("row cap")?;
                r.calib_rows = Some(parse_positive(&v, vline, "calib_rows")?);
            }
            "validation" => {
                validation.set(line)?;
                r.validation = Some(parse_validation_block(p)?);
                continue; // block form: no trailing ';'
            }
            other => return err(line, format!("unknown region setting '{other}'")),
        }
        p.expect_kind(TokKind::Semi)?;
    }
    if r.directive.is_empty() {
        return err(name_line, format!("region '{}' has no directive", r.name));
    }
    if r.inputs.is_empty() {
        return err(name_line, format!("region '{}' declares no inputs", r.name));
    }
    if r.outputs.is_empty() {
        return err(
            name_line,
            format!("region '{}' declares no outputs", r.name),
        );
    }
    Ok(r)
}

fn parse_validation_block(p: &mut Parser) -> Result<ValidationConfig, ConfigError> {
    let open = p.expect_kind(TokKind::LBrace)?;
    let mut metric: Option<ErrorMetric> = None;
    let mut budget: Option<f64> = None;
    let mut cfg = ValidationConfig {
        metric: ErrorMetric::Rmse,
        budget: 0.0,
        rate: None,
        window: None,
        batch_samples: None,
    };
    let mut metric_once = Once::new("metric");
    let mut budget_once = Once::new("budget");
    let mut rate = Once::new("rate");
    let mut window = Once::new("window");
    let mut batch_samples = Once::new("batch_samples");
    loop {
        match p.peek().map(|t| t.kind.clone()) {
            Some(TokKind::RBrace) => {
                p.next();
                break;
            }
            None => return err(p.line(), "unclosed 'validation' block"),
            _ => {}
        }
        let (key, line) = p.expect_word("a validation setting")?;
        match key.as_str() {
            "metric" => {
                metric_once.set(line)?;
                let (v, vline) = p.expect_word("metric")?;
                metric = Some(ErrorMetric::from_word(&v).ok_or(ConfigError {
                    line: vline,
                    msg: format!("unknown metric '{v}' (use rmse/mape/max_abs)"),
                })?);
            }
            "budget" => {
                budget_once.set(line)?;
                let (v, vline) = p.expect_word("error budget")?;
                let b = parse_f64(&v, vline, "budget")?;
                if b <= 0.0 {
                    return err(vline, "budget must be positive");
                }
                budget = Some(b);
            }
            "rate" => {
                rate.set(line)?;
                let (v, vline) = p.expect_word("sample rate")?;
                let n = parse_positive(&v, vline, "rate")?;
                cfg.rate = Some(u32::try_from(n).map_err(|_| ConfigError {
                    line: vline,
                    msg: format!("rate {n} too large"),
                })?);
            }
            "window" => {
                window.set(line)?;
                let (v, vline) = p.expect_word("window")?;
                cfg.window = Some(parse_positive(&v, vline, "window")?);
            }
            "batch_samples" => {
                batch_samples.set(line)?;
                let (v, vline) = p.expect_word("samples per batch")?;
                cfg.batch_samples = Some(parse_positive(&v, vline, "batch_samples")?);
            }
            other => return err(line, format!("unknown validation setting '{other}'")),
        }
        p.expect_kind(TokKind::Semi)?;
    }
    cfg.metric = match metric {
        Some(m) => m,
        None => return err(open, "validation block missing 'metric'"),
    };
    cfg.budget = match budget {
        Some(b) => b,
        None => return err(open, "validation block missing 'budget'"),
    };
    Ok(cfg)
}
