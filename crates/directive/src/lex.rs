//! Tokenizer for HPAC-ML directive strings.

use crate::{DirectiveError, Result};

/// Token kinds. Keywords (`approx`, `tensor`, `to`, ...) are plain
/// identifiers; the parser matches them contextually, as Clang does for
/// pragma keywords.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Hash,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Colon,
    Comma,
    Eq,
    Plus,
    Minus,
    Star,
    Slash,
}

/// A token with its starting byte offset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub tok: Tok,
    pub pos: usize,
}

/// What a backslash followed by `c` stands for in a string literal, or
/// `None` for an unknown escape (a typed error). The daemon's config grammar
/// reads its strings by the same rule, so a directive quoted inside a config
/// string means the same thing in both languages.
pub fn unescape(c: char) -> Option<char> {
    match c {
        '"' => Some('"'),
        '\\' => Some('\\'),
        'n' => Some('\n'),
        't' => Some('\t'),
        _ => None,
    }
}

/// Tokenize a directive string. Backslash-newline continuations (as used in
/// multi-line C pragmas, cf. the paper's Fig. 2) are treated as whitespace.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '\\' => {
                // Line continuation: skip the backslash and following newline.
                i += 1;
                while i < bytes.len() && (bytes[i] == b'\r' || bytes[i] == b'\n') {
                    i += 1;
                }
            }
            '#' => {
                out.push(Token {
                    tok: Tok::Hash,
                    pos: i,
                });
                i += 1;
            }
            '[' => {
                out.push(Token {
                    tok: Tok::LBracket,
                    pos: i,
                });
                i += 1;
            }
            ']' => {
                out.push(Token {
                    tok: Tok::RBracket,
                    pos: i,
                });
                i += 1;
            }
            '(' => {
                out.push(Token {
                    tok: Tok::LParen,
                    pos: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    tok: Tok::RParen,
                    pos: i,
                });
                i += 1;
            }
            ':' => {
                out.push(Token {
                    tok: Tok::Colon,
                    pos: i,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    tok: Tok::Comma,
                    pos: i,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    tok: Tok::Eq,
                    pos: i,
                });
                i += 1;
            }
            '+' => {
                out.push(Token {
                    tok: Tok::Plus,
                    pos: i,
                });
                i += 1;
            }
            '-' => {
                out.push(Token {
                    tok: Tok::Minus,
                    pos: i,
                });
                i += 1;
            }
            '*' => {
                out.push(Token {
                    tok: Tok::Star,
                    pos: i,
                });
                i += 1;
            }
            '/' => {
                out.push(Token {
                    tok: Tok::Slash,
                    pos: i,
                });
                i += 1;
            }
            '"' => {
                let start = i;
                let mut s = String::new();
                let mut chars = src[start + 1..].char_indices();
                let unterminated = || DirectiveError::Lex {
                    pos: start,
                    message: "unterminated string literal".into(),
                };
                loop {
                    match chars.next().ok_or_else(unterminated)? {
                        (off, '"') => {
                            i = start + 1 + off + 1;
                            break;
                        }
                        (off, '\\') => {
                            let (_, e) = chars.next().ok_or_else(unterminated)?;
                            s.push(unescape(e).ok_or_else(|| DirectiveError::Lex {
                                pos: start + 1 + off,
                                message: format!("unknown escape `\\{e}` in string literal"),
                            })?);
                        }
                        (_, c) => s.push(c),
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    pos: start,
                });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v: i64 = text.parse().map_err(|_| DirectiveError::Lex {
                    pos: start,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                out.push(Token {
                    tok: Tok::Int(v),
                    pos: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(src[start..i].to_string()),
                    pos: start,
                });
            }
            _ => {
                // `i` is on a character boundary: every other arm steps
                // over ASCII bytes, and strings end on their closing quote.
                let other = src[i..].chars().next().unwrap_or_default();
                return Err(DirectiveError::Lex {
                    pos: i,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_functor_directive() {
        let toks = kinds("#pragma approx tensor functor(f: [i, 0:5] = ([i-1]))");
        assert_eq!(toks[0], Tok::Hash);
        assert_eq!(toks[1], Tok::Ident("pragma".into()));
        assert!(toks.contains(&Tok::Ident("functor".into())));
        assert!(toks.contains(&Tok::Int(5)));
        assert!(toks.contains(&Tok::Minus));
    }

    #[test]
    fn string_literals_with_escapes() {
        let toks = kinds(r#"model("/path/to/model.hml") db("a\"b")"#);
        assert!(toks.contains(&Tok::Str("/path/to/model.hml".into())));
        assert!(toks.contains(&Tok::Str("a\"b".into())));
    }

    /// A string literal is read as characters: a path outside ASCII stays
    /// the path (it used to come back one `char` per UTF-8 byte).
    #[test]
    fn non_ascii_string_literals_survive() {
        let toks = kinds(r#"model("/tmp/é.hml") db("données/δ.h5")"#);
        assert!(toks.contains(&Tok::Str("/tmp/é.hml".into())));
        assert!(toks.contains(&Tok::Str("données/δ.h5".into())));
        let toks = lex(r#"db("é") x"#).unwrap();
        assert_eq!(
            toks[4].pos, 9,
            "positions after a non-ASCII literal are byte offsets"
        );
    }

    /// The config grammar's escape rule: `\n` is a newline, `\t` a tab, and
    /// an unknown escape is a typed error, not the escaped character.
    #[test]
    fn escapes_follow_the_config_rule() {
        let toks = kinds(r#"db("a\nb\tc\\d")"#);
        assert!(toks.contains(&Tok::Str("a\nb\tc\\d".into())));
        assert!(matches!(
            lex(r#"db("a\qb")"#),
            Err(DirectiveError::Lex { pos: 5, .. })
        ));
        assert!(matches!(
            lex(r#"db("a\"#),
            Err(DirectiveError::Lex { pos: 3, .. })
        ));
    }

    #[test]
    fn non_ascii_outside_a_literal_is_named_in_the_error() {
        let Err(DirectiveError::Lex { message, .. }) = lex("a é") else {
            panic!("expected a lex error");
        };
        assert!(message.contains('é'), "{message}");
    }

    #[test]
    fn line_continuations_are_whitespace() {
        let toks = kinds("tensor \\\n   map(to: f(t[0:4]))");
        assert_eq!(toks[0], Tok::Ident("tensor".into()));
        assert_eq!(toks[1], Tok::Ident("map".into()));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(matches!(
            lex("model(\"oops"),
            Err(DirectiveError::Lex { .. })
        ));
    }

    #[test]
    fn unexpected_char_is_error() {
        assert!(matches!(lex("a ; b"), Err(DirectiveError::Lex { .. })));
    }

    #[test]
    fn positions_are_byte_offsets() {
        let toks = lex("ab [cd]").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 3);
        assert_eq!(toks[2].pos, 4);
    }
}
