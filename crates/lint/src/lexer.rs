//! A small comment/string-aware Rust lexer for the lint pass.
//!
//! The rules in this crate are textual, so the only lexical job that matters
//! is *masking*: replacing the contents of comments, string literals and char
//! literals with spaces so that rule patterns never match inside them, while
//! keeping every remaining byte at its original line/column. The lexer also
//! captures the comment text per line, because several rules read comments
//! (`// SAFETY:`, `// lint: allow(...)`, allow-attribute justifications).
//!
//! Handled token classes (the tricky ones have unit tests below):
//!
//! * line comments `//…` and doc comments `///…` / `//!…`;
//! * block comments `/* … */`, **nested** per the Rust grammar;
//! * string literals `"…"` with escapes, byte strings `b"…"`, C strings
//!   `c"…"`;
//! * raw strings `r"…"`, `r#"…"#` (any hash depth), `br#"…"#`, `cr"…"`;
//! * raw identifiers `r#fn` (not strings — left as code);
//! * char literals `'x'`, `'\n'`, `b'x'` vs. lifetimes `'a`, `'static` and
//!   loop labels `'outer:`.

/// One file, lexed: per-line masked code and per-line comment text.
pub(crate) struct Lexed {
    /// Source lines with comment bodies and literal contents replaced by
    /// spaces. Columns are preserved, so findings can point at real code.
    pub code: Vec<String>,
    /// Comment text per line ("" when the line has no comment). Doc-comment
    /// text keeps its leading `/` (from `///`) or `!` (from `//!`) so rules
    /// can tell doc comments from plain ones.
    pub comments: Vec<String>,
}

impl Lexed {
    /// True if the comment on `line` (0-based) is a plain (non-doc) comment
    /// with any content.
    pub(crate) fn plain_comment(&self, line: usize) -> Option<&str> {
        let c = self.comments.get(line)?.trim();
        if c.is_empty() || c.starts_with('/') || c.starts_with('!') {
            return None;
        }
        Some(c)
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Try to match a string-literal prefix (`"`, `r"`, `b"`, `br#"`, `c"`, …)
/// at `i`. Returns `(prefix_len, hashes, raw)` of the opening sequence up to
/// and including the quote.
fn string_open(chars: &[char], i: usize) -> Option<(usize, usize, bool)> {
    let mut j = i;
    let mut raw = false;
    // Up to two prefix letters out of {b, c, r}; `r` may come first or last.
    for _ in 0..2 {
        match chars.get(j) {
            Some('r') => {
                raw = true;
                j += 1;
            }
            Some('b') | Some('c') if !raw => j += 1,
            _ => break,
        }
    }
    let mut hashes = 0;
    if raw {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) == Some(&'"') {
        Some((j + 1 - i, hashes, raw))
    } else {
        None
    }
}

/// Lex `src` into masked code lines plus per-line comment text.
pub(crate) fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];
    let newline = |code: &mut Vec<String>, comments: &mut Vec<String>| {
        code.push(String::new());
        comments.push(String::new());
    };
    let mut i = 0;
    let mut prev_code: char = ' ';
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                newline(&mut code, &mut comments);
                prev_code = ' ';
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment: capture text after `//`, blank the code side.
                code.last_mut().unwrap().push_str("  ");
                i += 2;
                while i < chars.len() && chars[i] != '\n' {
                    comments.last_mut().unwrap().push(chars[i]);
                    code.last_mut().unwrap().push(' ');
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment, nested. Body text goes to the comment side.
                code.last_mut().unwrap().push_str("  ");
                i += 2;
                let mut depth = 1usize;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        comments.last_mut().unwrap().push_str("/*");
                        code.last_mut().unwrap().push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        if depth > 0 {
                            comments.last_mut().unwrap().push_str("*/");
                        }
                        code.last_mut().unwrap().push_str("  ");
                        i += 2;
                    } else if chars[i] == '\n' {
                        newline(&mut code, &mut comments);
                        i += 1;
                    } else {
                        comments.last_mut().unwrap().push(chars[i]);
                        code.last_mut().unwrap().push(' ');
                        i += 1;
                    }
                }
                prev_code = ' ';
            }
            'r' | 'b' | 'c' | '"' if !is_ident(prev_code) || c == '"' => {
                if let Some((open_len, hashes, raw)) = string_open(&chars, i) {
                    // Emit the opening sequence as code (it is harmless and
                    // keeps columns aligned), mask the body, emit the close.
                    for k in 0..open_len {
                        code.last_mut().unwrap().push(chars[i + k]);
                    }
                    i += open_len;
                    loop {
                        if i >= chars.len() {
                            break; // unterminated: tolerate, rustc will complain
                        }
                        if chars[i] == '"' {
                            let mut ok = true;
                            for k in 0..hashes {
                                if chars.get(i + 1 + k) != Some(&'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                for k in 0..=hashes {
                                    code.last_mut().unwrap().push(chars[i + k]);
                                }
                                i += 1 + hashes;
                                break;
                            }
                        }
                        if chars[i] == '\n' {
                            newline(&mut code, &mut comments);
                            i += 1;
                        } else if !raw && chars[i] == '\\' {
                            // Escape sequence: skip the escaped char too,
                            // unless it is a line continuation's newline.
                            code.last_mut().unwrap().push(' ');
                            i += 1;
                            if i < chars.len() && chars[i] != '\n' {
                                code.last_mut().unwrap().push(' ');
                                i += 1;
                            }
                        } else {
                            code.last_mut().unwrap().push(' ');
                            i += 1;
                        }
                    }
                    prev_code = '"';
                } else {
                    code.last_mut().unwrap().push(c);
                    prev_code = c;
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime. `'\…'` and `'x'` are literals;
                // anything else (`'a`, `'static`, `'outer:`) is a lifetime
                // or label and stays code.
                let is_char_lit = match chars.get(i + 1) {
                    Some('\\') => true,
                    Some(&n) => n != '\'' && chars.get(i + 2) == Some(&'\''),
                    None => false,
                };
                if is_char_lit {
                    code.last_mut().unwrap().push('\'');
                    i += 1;
                    while i < chars.len() && chars[i] != '\'' {
                        if chars[i] == '\\' {
                            code.last_mut().unwrap().push_str("  ");
                            i += 2;
                        } else {
                            code.last_mut().unwrap().push(' ');
                            i += 1;
                        }
                    }
                    if i < chars.len() {
                        code.last_mut().unwrap().push('\'');
                        i += 1;
                    }
                    prev_code = '\'';
                } else {
                    code.last_mut().unwrap().push('\'');
                    prev_code = '\'';
                    i += 1;
                }
            }
            _ => {
                code.last_mut().unwrap().push(c);
                prev_code = c;
                i += 1;
            }
        }
    }
    Lexed { code, comments }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        lex(src).code.join("\n")
    }

    #[test]
    fn line_comments_are_masked_and_captured() {
        let l = lex("let x = 1; // trailing note\n// full line\nlet y = 2;");
        assert!(l.code[0].contains("let x = 1;"));
        assert!(!l.code[0].contains("trailing"));
        assert_eq!(l.comments[0].trim(), "trailing note");
        assert_eq!(l.comments[1].trim(), "full line");
        assert!(l.code[2].contains("let y = 2;"));
    }

    #[test]
    fn doc_comments_keep_their_marker() {
        let l = lex("/// docs here\n//! inner docs\n// plain\nfn f() {}");
        assert!(l.comments[0].starts_with('/'));
        assert!(l.comments[1].starts_with('!'));
        assert!(l.plain_comment(0).is_none());
        assert!(l.plain_comment(1).is_none());
        assert_eq!(l.plain_comment(2), Some("plain"));
    }

    #[test]
    fn nested_block_comments_terminate_at_the_right_depth() {
        let src = "a /* outer /* inner */ still comment */ b /* x */ c";
        let masked = code_of(src);
        assert!(masked.contains('a'));
        assert!(masked.contains('b'));
        assert!(masked.contains('c'));
        assert!(!masked.contains("inner"));
        assert!(!masked.contains("still"));
    }

    #[test]
    fn block_comment_spanning_lines_masks_every_line() {
        let l = lex("code1 /* one\ntwo // not a line comment\nthree */ code2");
        assert!(l.code[0].contains("code1"));
        assert!(!l.code[1].contains("two"));
        assert!(l.code[2].contains("code2"));
        assert!(l.comments[1].contains("two"));
    }

    #[test]
    fn string_contents_are_masked_including_comment_lookalikes() {
        let masked = code_of(r#"let s = "// not a comment /* nope */ unsafe";"#);
        assert!(!masked.contains("comment"));
        assert!(!masked.contains("unsafe"));
        assert!(masked.contains("let s ="));
    }

    #[test]
    fn escaped_quotes_do_not_end_the_string() {
        let masked = code_of(r#"let s = "he said \"hi\" to me"; let t = 1;"#);
        assert!(!masked.contains("said"));
        assert!(masked.contains("let t = 1;"));
    }

    #[test]
    fn raw_strings_with_hashes_and_inner_quotes() {
        let src = "let s = r#\"quote \" and // and unsafe\"#; let u = 2;";
        let masked = code_of(src);
        assert!(!masked.contains("unsafe"));
        assert!(masked.contains("let u = 2;"));
    }

    #[test]
    fn byte_and_c_strings_are_strings() {
        let masked = code_of("let a = b\"unsafe\"; let b2 = c\"HashMap\"; done();");
        assert!(!masked.contains("unsafe"));
        assert!(!masked.contains("HashMap"));
        assert!(masked.contains("done();"));
    }

    #[test]
    fn raw_byte_strings() {
        let masked = code_of("let a = br#\"mul_add \" here\"#; tail();");
        assert!(!masked.contains("mul_add"));
        assert!(masked.contains("tail();"));
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let masked = code_of("let r#fn = 1; let x = r#fn + 1;");
        assert!(masked.contains("r#fn"));
        assert!(masked.contains("+ 1;"));
    }

    #[test]
    fn identifier_ending_in_r_before_string() {
        // `ptr` ends in `r` — the `r` must not be taken as a raw-string
        // prefix for the macro string that follows.
        let masked = code_of("let ptr = 0; write!(w, \"mul_add\").ok();");
        assert!(masked.contains("let ptr = 0;"));
        assert!(!masked.contains("mul_add"));
        assert!(masked.contains(".ok();"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let masked = code_of("fn f<'a>(x: &'a str) -> char { let c = 'x'; let q = '\\''; c }");
        assert!(masked.contains("<'a>"));
        assert!(masked.contains("&'a str"));
        assert!(!masked.contains("'x'")); // contents masked
        assert!(masked.contains("let c ="));
    }

    #[test]
    fn byte_char_and_static_lifetime() {
        let masked = code_of("const S: &'static str = \"s\"; let b = b'\\n'; end();");
        assert!(masked.contains("&'static str"));
        assert!(masked.contains("end();"));
    }

    #[test]
    fn loop_labels_stay_code() {
        let masked = code_of("'outer: loop { break 'outer; }");
        assert!(masked.contains("'outer: loop"));
        assert!(masked.contains("break 'outer;"));
    }

    #[test]
    fn multiline_string_preserves_line_count() {
        let src = "let s = \"line one\nline two\";\nafter();";
        let l = lex(src);
        assert_eq!(l.code.len(), 3);
        assert!(!l.code[1].contains("line two"));
        assert!(l.code[2].contains("after();"));
    }

    #[test]
    fn string_line_continuation_preserves_line_count() {
        let l = lex("let s = \"one \\\n    two\";\nafter();");
        assert_eq!(l.code.len(), 3);
        assert!(l.code[2].contains("after();"));
    }

    #[test]
    fn columns_are_preserved_for_masked_regions() {
        let src = "abc(\"xy\", z);";
        let l = lex(src);
        assert_eq!(l.code[0].len(), src.len());
        assert_eq!(l.code[0].find("z").unwrap(), src.find('z').unwrap());
    }
}
