//! Recursive-descent parser for HPAC-ML directives.

use crate::ast::*;
use crate::lex::{lex, Tok, Token};
use crate::{DirectiveError, Result};

/// Deepest expression a directive may spell. Each parenthesis, each unary
/// minus and each binary operator of a chain is one level: the parser
/// recurses once per parenthesis or minus, and every later pass over an
/// `Expr` (evaluation, printing, drop) once per node of a chain. Real
/// index expressions are a handful of levels deep; a deeper one is a
/// parse error rather than a stack overflow.
const MAX_EXPR_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Expression levels open at the current token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn here(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|t| t.pos)
            .unwrap_or_else(|| self.toks.last().map(|t| t.pos + 1).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(DirectiveError::Parse {
            pos: self.here(),
            message: message.into(),
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        match self.bump() {
            Some(t) if t == tok => Ok(()),
            Some(t) => Err(DirectiveError::Parse {
                pos: self.toks[self.pos - 1].pos,
                message: format!("expected {tok:?}, found {t:?}"),
            }),
            None => Err(DirectiveError::Parse {
                pos: self.here(),
                message: format!("expected {tok:?}, found end of directive"),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(DirectiveError::Parse {
                pos: self.here(),
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        let p = self.here();
        let id = self.expect_ident()?;
        if id != kw {
            return Err(DirectiveError::Parse {
                pos: p,
                message: format!("expected keyword `{kw}`, found `{id}`"),
            });
        }
        Ok(())
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    // -- expressions --------------------------------------------------------

    /// Open one more expression level, or fail past [`MAX_EXPR_DEPTH`].
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return self.err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            ));
        }
        Ok(())
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let rhs = self.parse_term()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let rhs = self.parse_unary()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if matches!(self.peek(), Some(Tok::Minus)) {
            self.bump();
            self.descend()?;
            let e = self.parse_unary()?;
            self.depth -= 1;
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::Ident(s)) => Ok(Expr::Ident(s)),
            Some(Tok::LParen) => {
                self.descend()?;
                let e = self.parse_expr()?;
                self.depth -= 1;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(DirectiveError::Parse {
                pos: self.here(),
                message: format!("expected expression, found {other:?}"),
            }),
        }
    }

    // -- slices -------------------------------------------------------------

    fn parse_slice(&mut self) -> Result<Slice> {
        let start = self.parse_expr()?;
        if !matches!(self.peek(), Some(Tok::Colon)) {
            return Ok(Slice::index(start));
        }
        self.bump();
        let stop = self.parse_expr()?;
        let step = if matches!(self.peek(), Some(Tok::Colon)) {
            self.bump();
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Slice {
            start,
            stop: Some(stop),
            step,
        })
    }

    fn parse_sspec(&mut self) -> Result<SSpec> {
        self.expect(Tok::LBracket)?;
        let mut slices = vec![self.parse_slice()?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.bump();
            slices.push(self.parse_slice()?);
        }
        self.expect(Tok::RBracket)?;
        Ok(SSpec(slices))
    }

    // -- functor ------------------------------------------------------------

    fn parse_functor_clause(&mut self) -> Result<FunctorDecl> {
        self.expect_keyword("functor")?;
        self.expect(Tok::LParen)?;
        let name = self.expect_ident()?;
        self.expect(Tok::Colon)?;
        let lhs = self.parse_sspec()?;
        self.expect(Tok::Eq)?;
        // The RHS list is parenthesized; tolerate extra grouping parentheses
        // as in the paper's Fig. 2 (`= ( ([..], [..]) )`).
        let mut depth = 0usize;
        while matches!(self.peek(), Some(Tok::LParen)) {
            self.bump();
            depth += 1;
        }
        if depth == 0 {
            return self.err("expected `(` before functor right-hand side");
        }
        let mut rhs = vec![self.parse_sspec()?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.bump();
            rhs.push(self.parse_sspec()?);
        }
        for _ in 0..depth {
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::RParen)?; // clause paren
        Ok(FunctorDecl { name, lhs, rhs })
    }

    // -- map ----------------------------------------------------------------

    fn parse_map_clause(&mut self) -> Result<MapDirective> {
        self.expect_keyword("map")?;
        self.expect(Tok::LParen)?;
        let dirkw = self.expect_ident()?;
        let direction = match dirkw.as_str() {
            "to" => Direction::To,
            "from" => Direction::From,
            other => {
                return self.err(format!("expected `to` or `from`, found `{other}`"));
            }
        };
        self.expect(Tok::Colon)?;
        let functor = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let array = self.expect_ident()?;
        self.expect(Tok::LBracket)?;
        let mut slices = vec![self.parse_slice()?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.bump();
            slices.push(self.parse_slice()?);
        }
        self.expect(Tok::RBracket)?;
        self.expect(Tok::RParen)?; // functor application
        self.expect(Tok::RParen)?; // clause
        Ok(MapDirective {
            direction,
            functor,
            target: MapTarget { array, slices },
        })
    }

    // -- ml -----------------------------------------------------------------

    /// Capture raw token text until the balanced closing `)` of the current
    /// clause (the `)` itself is consumed). Used for host-language boolean
    /// expressions, which HPAC-ML re-emits rather than interprets.
    fn raw_until_close(&mut self) -> Result<String> {
        let mut depth = 0usize;
        let mut parts: Vec<String> = Vec::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated clause"),
                Some(Tok::LParen) => {
                    depth += 1;
                    parts.push("(".into());
                    self.bump();
                }
                Some(Tok::RParen) => {
                    if depth == 0 {
                        self.bump();
                        return Ok(parts.join(" "));
                    }
                    depth -= 1;
                    parts.push(")".into());
                    self.bump();
                }
                Some(t) => {
                    parts.push(match t {
                        Tok::Ident(s) => s.clone(),
                        Tok::Int(v) => v.to_string(),
                        Tok::Str(s) => format!("\"{s}\""),
                        Tok::Hash => "#".into(),
                        Tok::LBracket => "[".into(),
                        Tok::RBracket => "]".into(),
                        Tok::Colon => ":".into(),
                        Tok::Comma => ",".into(),
                        Tok::Eq => "=".into(),
                        Tok::Plus => "+".into(),
                        Tok::Minus => "-".into(),
                        Tok::Star => "*".into(),
                        Tok::Slash => "/".into(),
                        Tok::LParen | Tok::RParen => unreachable!(),
                    });
                    self.bump();
                }
            }
        }
    }

    /// Parse a `mapped-memory` clause body: a comma-separated list where
    /// each entry is either a bare array name or an embedded functor
    /// application `functor(array[ranges])` (grammar: `fa-expr`), in which
    /// case a map directive with the given direction is synthesized.
    fn parse_mapped_memory(
        &mut self,
        direction: Direction,
        embedded: &mut Vec<MapDirective>,
    ) -> Result<Vec<String>> {
        self.expect(Tok::LParen)?;
        let mut names = Vec::new();
        loop {
            let ident = self.expect_ident()?;
            if matches!(self.peek(), Some(Tok::LParen)) {
                // fa-expr: ident is a functor name applied to a target.
                self.bump();
                let array = self.expect_ident()?;
                self.expect(Tok::LBracket)?;
                let mut slices = vec![self.parse_slice()?];
                while matches!(self.peek(), Some(Tok::Comma)) {
                    self.bump();
                    slices.push(self.parse_slice()?);
                }
                self.expect(Tok::RBracket)?;
                self.expect(Tok::RParen)?;
                names.push(array.clone());
                embedded.push(MapDirective {
                    direction,
                    functor: ident,
                    target: MapTarget { array, slices },
                });
            } else {
                names.push(ident);
            }
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.bump();
                continue;
            }
            break;
        }
        self.expect(Tok::RParen)?;
        Ok(names)
    }

    fn parse_string_clause(&mut self) -> Result<String> {
        self.expect(Tok::LParen)?;
        let s = match self.bump() {
            Some(Tok::Str(s)) => s,
            other => {
                return Err(DirectiveError::Parse {
                    pos: self.here(),
                    message: format!("expected string literal, found {other:?}"),
                })
            }
        };
        self.expect(Tok::RParen)?;
        Ok(s)
    }

    fn parse_ml_clause(&mut self) -> Result<MlDirective> {
        self.expect_keyword("ml")?;
        self.expect(Tok::LParen)?;
        let modekw = self.expect_ident()?;
        let mode = match modekw.as_str() {
            "infer" => MlMode::Infer,
            "collect" => MlMode::Collect,
            "predicated" => MlMode::Predicated,
            other => {
                return self.err(format!(
                    "expected `infer`, `collect` or `predicated`, found `{other}`"
                ));
            }
        };
        let cond = if matches!(self.peek(), Some(Tok::Colon)) {
            self.bump();
            Some(self.raw_until_close()?)
        } else {
            self.expect(Tok::RParen)?;
            None
        };

        let mut d = MlDirective {
            mode,
            cond,
            inputs: Vec::new(),
            outputs: Vec::new(),
            inouts: Vec::new(),
            embedded_maps: Vec::new(),
            model: None,
            database: None,
            if_cond: None,
        };
        while let Some(Tok::Ident(kw)) = self.peek() {
            let kw = kw.clone();
            match kw.as_str() {
                "in" => {
                    self.bump();
                    d.inputs = self.parse_mapped_memory(Direction::To, &mut d.embedded_maps)?;
                }
                "out" => {
                    self.bump();
                    d.outputs = self.parse_mapped_memory(Direction::From, &mut d.embedded_maps)?;
                }
                "inout" => {
                    self.bump();
                    // inout embeds both directions.
                    let mut to_maps = Vec::new();
                    d.inouts = self.parse_mapped_memory(Direction::To, &mut to_maps)?;
                    for m in &to_maps {
                        let mut from = m.clone();
                        from.direction = Direction::From;
                        d.embedded_maps.push(from);
                    }
                    d.embedded_maps.extend(to_maps);
                }
                "model" => {
                    self.bump();
                    d.model = Some(self.parse_string_clause()?);
                }
                "db" | "database" => {
                    self.bump();
                    d.database = Some(self.parse_string_clause()?);
                }
                "if" => {
                    self.bump();
                    self.expect(Tok::LParen)?;
                    d.if_cond = Some(self.raw_until_close()?);
                }
                other => {
                    return self.err(format!("unknown ml clause `{other}`"));
                }
            }
        }
        Ok(d)
    }

    // -- top level ----------------------------------------------------------

    fn parse_one(&mut self) -> Result<Directive> {
        // Optional `#pragma approx` prefix.
        if matches!(self.peek(), Some(Tok::Hash)) {
            self.bump();
            self.expect_keyword("pragma")?;
        }
        if self.at_keyword("approx") {
            self.bump();
        }
        if self.at_keyword("tensor") {
            self.bump();
            if self.at_keyword("functor") {
                return Ok(Directive::Functor(self.parse_functor_clause()?));
            }
            if self.at_keyword("map") {
                return Ok(Directive::Map(self.parse_map_clause()?));
            }
            return self.err("expected `functor` or `map` after `tensor`");
        }
        if self.at_keyword("ml") {
            return Ok(Directive::Ml(self.parse_ml_clause()?));
        }
        self.err("expected `tensor functor`, `tensor map` or `ml` directive")
    }
}

/// Parse a single directive string (with or without the `#pragma approx`
/// prefix; backslash continuations allowed).
pub fn parse_directive(src: &str) -> Result<Directive> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let d = p.parse_one()?;
    if p.pos != p.toks.len() {
        return Err(DirectiveError::Parse {
            pos: p.here(),
            message: "trailing tokens after directive".into(),
        });
    }
    Ok(d)
}

/// Parse a block of text containing several `#pragma approx ...` directives
/// (each introduced by `#`), as they appear in an annotated source file.
pub fn parse_directives(src: &str) -> Result<Vec<Directive>> {
    let toks = lex(src)?;
    // Split the token stream at each `#`.
    let mut groups: Vec<Vec<Token>> = Vec::new();
    for t in toks {
        if t.tok == Tok::Hash || groups.is_empty() {
            groups.push(Vec::new());
        }
        groups
            .last_mut()
            .expect("non-empty by construction")
            .push(t);
    }
    groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|g| {
            let mut p = Parser {
                toks: g,
                pos: 0,
                depth: 0,
            };
            let d = p.parse_one()?;
            if p.pos != p.toks.len() {
                return Err(DirectiveError::Parse {
                    pos: p.here(),
                    message: "trailing tokens after directive".into(),
                });
            }
            Ok(d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact program of the paper's Fig. 2.
    const FIG2: &str = r#"
        #pragma approx tensor functor(ifnctr: \
            [i, j, 0:5] = ( ([i-1, j], [i+1, j], \
            [i, j-1:j+2])))
        #pragma approx tensor functor(ofnctr: \
            [i, j, 0:1] = ([i, j]))
        #pragma approx tensor map(to: \
            ifnctr(t[1:N-1, 1:M-1]))
        #pragma approx tensor map(from: \
            ofnctr(tnew[1:N-1, 1:M-1]))
        #pragma approx ml(predicated:true) in(t) out(tnew) \
            db("/path/data.h5") model("/path/model.pt")
    "#;

    #[test]
    fn parses_fig2_program() {
        let ds = parse_directives(FIG2).unwrap();
        assert_eq!(ds.len(), 5);
        match &ds[0] {
            Directive::Functor(f) => {
                assert_eq!(f.name, "ifnctr");
                assert_eq!(f.lhs.rank(), 3);
                assert_eq!(f.rhs.len(), 3);
                assert_eq!(format!("{}", f.lhs), "[i, j, 0:5]");
                assert_eq!(format!("{}", f.rhs[2]), "[i, (j - 1):(j + 2)]");
            }
            other => panic!("expected functor, got {other:?}"),
        }
        match &ds[2] {
            Directive::Map(m) => {
                assert_eq!(m.direction, Direction::To);
                assert_eq!(m.functor, "ifnctr");
                assert_eq!(m.target.array, "t");
                assert_eq!(m.target.slices.len(), 2);
            }
            other => panic!("expected map, got {other:?}"),
        }
        match &ds[4] {
            Directive::Ml(ml) => {
                assert_eq!(ml.mode, MlMode::Predicated);
                assert_eq!(ml.cond.as_deref(), Some("true"));
                assert_eq!(ml.inputs, vec!["t"]);
                assert_eq!(ml.outputs, vec!["tnew"]);
                assert_eq!(ml.database.as_deref(), Some("/path/data.h5"));
                assert_eq!(ml.model.as_deref(), Some("/path/model.pt"));
            }
            other => panic!("expected ml, got {other:?}"),
        }
    }

    #[test]
    fn parses_without_pragma_prefix() {
        let d = parse_directive("tensor functor(f: [i, 0:2] = ([i], [i+1]))").unwrap();
        match d {
            Directive::Functor(f) => {
                assert_eq!(f.name, "f");
                assert_eq!(f.rhs.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ml_modes_and_clauses() {
        let d = parse_directive(
            r#"ml(infer) in(a, b) out(c) model("m.hml") database("d.h5") if(step * 3)"#,
        )
        .unwrap();
        match d {
            Directive::Ml(ml) => {
                assert_eq!(ml.mode, MlMode::Infer);
                assert_eq!(ml.inputs, vec!["a", "b"]);
                assert_eq!(ml.if_cond.as_deref(), Some("step * 3"));
            }
            other => panic!("{other:?}"),
        }
        let d = parse_directive("ml(collect) inout(state)").unwrap();
        match d {
            Directive::Ml(ml) => {
                assert_eq!(ml.mode, MlMode::Collect);
                assert_eq!(ml.inouts, vec!["state"]);
                assert!(ml.model.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slice_with_step_parses() {
        let d = parse_directive("tensor map(to: f(x[0:N:2]))").unwrap();
        match d {
            Directive::Map(m) => {
                let s = &m.target.slices[0];
                assert!(s.step.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_and_arithmetic_expressions() {
        let d = parse_directive("tensor functor(g: [i, 0:1] = ([2*i - 3]))").unwrap();
        match d {
            Directive::Functor(f) => {
                let lookup = |n: &str| if n == "i" { Some(4) } else { None };
                let v = f.rhs[0].0[0].start.eval(&lookup).unwrap();
                assert_eq!(v, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_directive("tensor functor(f [i] = ([i]))").is_err()); // missing ':'
        assert!(parse_directive("tensor map(sideways: f(x[0:1]))").is_err());
        assert!(parse_directive("ml(sometimes)").is_err());
        assert!(parse_directive("tensor frobnicate(f)").is_err());
        assert!(parse_directive("ml(infer) bogus(x)").is_err());
        assert!(parse_directive("ml(infer) in(a) extra junk").is_err());
        assert!(parse_directive("ml(infer) model(unquoted)").is_err());
    }

    #[test]
    fn embedded_fa_expr_in_ml_clause() {
        // The grammar's `mapped-memory ::= fa-expr | ...` form: the output
        // map lives inside the ml clause (how Table II reaches 4 directives).
        let d = parse_directive("ml(predicated:use_model) in(poses) out(oenergy(energies[0:N]))")
            .unwrap();
        match d {
            Directive::Ml(ml) => {
                assert_eq!(ml.inputs, vec!["poses"]);
                assert_eq!(ml.outputs, vec!["energies"]);
                assert_eq!(ml.embedded_maps.len(), 1);
                let m = &ml.embedded_maps[0];
                assert_eq!(m.direction, Direction::From);
                assert_eq!(m.functor, "oenergy");
                assert_eq!(m.target.array, "energies");
            }
            other => panic!("{other:?}"),
        }
        // inout with an embedded map synthesizes both directions.
        let d = parse_directive("ml(collect) inout(st(state[0:4, 0:NZ, 0:NX]))").unwrap();
        match d {
            Directive::Ml(ml) => {
                assert_eq!(ml.inouts, vec!["state"]);
                assert_eq!(ml.embedded_maps.len(), 2);
                let dirs: Vec<Direction> = ml.embedded_maps.iter().map(|m| m.direction).collect();
                assert!(dirs.contains(&Direction::To));
                assert!(dirs.contains(&Direction::From));
            }
            other => panic!("{other:?}"),
        }
    }

    /// `tensor functor(g: [i, 0:1] = ([E]))` with `E` spelled by `shape`
    /// at `levels` levels: parses up to [`MAX_EXPR_DEPTH`], and past it is
    /// a parse error, at 10^5 levels too (which overflowed the stack).
    fn depth_is_bounded(shape: fn(usize) -> String) {
        let functor = |levels| format!("tensor functor(g: [i, 0:1] = ([{}]))", shape(levels));
        assert!(parse_directive(&functor(MAX_EXPR_DEPTH)).is_ok());
        for levels in [MAX_EXPR_DEPTH + 1, 100_000] {
            match parse_directive(&functor(levels)) {
                Err(DirectiveError::Parse { message, .. }) => {
                    assert!(message.contains("nested deeper"), "{message}")
                }
                other => panic!("{levels} levels: {other:?}"),
            }
        }
    }

    #[test]
    fn nested_parentheses_are_bounded() {
        depth_is_bounded(|n| format!("{}i{}", "(".repeat(n), ")".repeat(n)));
    }

    #[test]
    fn unary_minus_runs_are_bounded() {
        depth_is_bounded(|n| format!("{}i", "-".repeat(n)));
    }

    #[test]
    fn binary_chains_are_bounded() {
        depth_is_bounded(|n| vec!["i"; n + 1].join("+"));
    }

    #[test]
    fn predicated_with_complex_condition() {
        let d = parse_directive("ml(predicated: (step / 10) * 2) out(y) db(\"x.h5\")").unwrap();
        match d {
            Directive::Ml(ml) => {
                assert_eq!(ml.cond.as_deref(), Some("( step / 10 ) * 2"));
            }
            other => panic!("{other:?}"),
        }
    }
}
