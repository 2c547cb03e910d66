//! A parser for the surface syntax printed by [`crate::pretty`].
//!
//! The text-editor integration prototype (Sec. 5.2) requires a
//! "syntax-recognizing text editor": livelit invocations are serialized into
//! the buffer as `$name@u{model}(splice : τ; ...)` and parsed back out, with
//! models round-tripping through surface-syntax values. This module is that
//! recognizer: a hand-written lexer and recursive-descent parser for types
//! and unexpanded expressions (external expressions are the livelit-free
//! subset).

use std::fmt;

use crate::external::EExp;
use crate::ident::{HoleName, Label, LivelitName, TVar, Var};
use crate::ops::BinOp;
use crate::typ::Typ;
use crate::unexpanded::{LivelitAp, Splice, UCaseArm, UExp};
use crate::value::eexp_to_iexp_value;

/// How deeply input may nest: the parser rejects source that nests deeper,
/// and `hazel serve` rejects a document (its program with every prelude
/// `def` folded in as a `let`) that does. Every pass over a program
/// recurses, so this bounds the stack a pass over input can take; values
/// that evaluation builds are not bounded by it. At this depth
/// the slowest-growing pass measured, nested livelit splices, uses about a
/// third of the serving threads' stack.
pub const MAX_DEPTH: usize = 512;

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses an unexpanded expression (the full language, livelits included).
///
/// Unnumbered holes (`?`) and unnumbered livelit invocations (`$name{...}`)
/// are assigned fresh hole names above any explicitly numbered hole.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_uexp(src: &str) -> Result<UExp, ParseError> {
    let _span = livelit_trace::span("parse");
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        auto_holes: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(renumber_auto_holes(e))
}

/// Parses an external expression: like [`parse_uexp`] but rejecting livelit
/// invocations.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or if the source contains a
/// livelit invocation.
pub fn parse_eexp(src: &str) -> Result<EExp, ParseError> {
    let u = parse_uexp(src)?;
    u.to_eexp().map_err(|name| ParseError {
        line: 1,
        col: 1,
        message: format!("livelit invocation {name} not allowed in external expression"),
    })
}

/// Parses a type.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_typ(src: &str) -> Result<Typ, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        auto_holes: 0,
        depth: 0,
    };
    let t = p.typ()?;
    p.expect_eof()?;
    Ok(t)
}

// ------------------------------------------------------------------------
// Lexer
// ------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Op(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
    col: usize,
}

/// Multi-character operators, longest first so greedy matching is correct.
const OPERATORS: &[&str] = &[
    "==^", "==.", "<=.", ">=.", "==", "<=", "<|", "<.", ">=", ">.", "|>", "<", ">", "+.", "-.",
    "->", "*.", "/.", "&&", "||", "::", "+", "-", "*", "/", "^", "=", ":", ".", ",", ";", "(", ")",
    "[", "]", "{", "}", "|", "?", "$", "@", "'",
];

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol) = (line, col);
        let advance = |n: usize, i: &mut usize, line: &mut usize, col: &mut usize| {
            for k in 0..n {
                if chars[*i + k] == '\n' {
                    *line += 1;
                    *col = 1;
                } else {
                    *col += 1;
                }
            }
            *i += n;
        };
        if c.is_whitespace() {
            advance(1, &mut i, &mut line, &mut col);
            continue;
        }
        // Comments: (* ... *) in the ML tradition the paper uses.
        if c == '(' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            let mut j = i + 2;
            while j < chars.len() && depth > 0 {
                if chars[j] == '(' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&')') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            if depth > 0 {
                return Err(ParseError {
                    line: tline,
                    col: tcol,
                    message: "unterminated comment".into(),
                });
            }
            advance(j - i, &mut i, &mut line, &mut col);
            continue;
        }
        if c == '"' {
            let mut s = String::new();
            let mut j = i + 1;
            loop {
                match chars.get(j) {
                    None => {
                        return Err(ParseError {
                            line: tline,
                            col: tcol,
                            message: "unterminated string literal".into(),
                        })
                    }
                    Some('"') => {
                        j += 1;
                        break;
                    }
                    Some('\\') => {
                        match chars.get(j + 1) {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            other => {
                                return Err(ParseError {
                                    line: tline,
                                    col: tcol,
                                    message: format!("bad escape {other:?}"),
                                })
                            }
                        }
                        j += 2;
                    }
                    Some(other) => {
                        s.push(*other);
                        j += 1;
                    }
                }
            }
            advance(j - i, &mut i, &mut line, &mut col);
            out.push(SpannedTok {
                tok: Tok::Str(s),
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
            // A '.' makes it a float — including the paper's trailing-dot
            // style `36.` — unless followed by an identifier (projection
            // never applies to numbers, so this only matters defensively).
            let mut is_float = false;
            if chars.get(j) == Some(&'.') {
                let after = chars.get(j + 1);
                if after.is_some_and(char::is_ascii_digit) {
                    is_float = true;
                    j += 1;
                    while j < chars.len() && chars[j].is_ascii_digit() {
                        j += 1;
                    }
                } else if !after.is_some_and(|c| c.is_alphanumeric() || *c == '_') {
                    is_float = true;
                    j += 1;
                }
            }
            let text: String = chars[i..j].iter().collect();
            let tok = if is_float {
                let normalized = if text.ends_with('.') {
                    format!("{text}0")
                } else {
                    text.clone()
                };
                Tok::Float(normalized.parse().map_err(|_| ParseError {
                    line: tline,
                    col: tcol,
                    message: format!("bad float literal {text}"),
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| ParseError {
                    line: tline,
                    col: tcol,
                    message: format!("integer literal {text} out of range"),
                })?)
            };
            advance(j - i, &mut i, &mut line, &mut col);
            out.push(SpannedTok {
                tok,
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            advance(j - i, &mut i, &mut line, &mut col);
            out.push(SpannedTok {
                tok: Tok::Ident(text),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Operators, longest match first.
        let mut matched = None;
        for op in OPERATORS {
            if chars[i..].starts_with(&op.chars().collect::<Vec<_>>()[..]) {
                matched = Some(*op);
                break;
            }
        }
        match matched {
            Some(op) => {
                advance(op.len(), &mut i, &mut line, &mut col);
                out.push(SpannedTok {
                    tok: Tok::Op(op),
                    line: tline,
                    col: tcol,
                });
            }
            None => {
                return Err(ParseError {
                    line: tline,
                    col: tcol,
                    message: format!("unexpected character {c:?}"),
                })
            }
        }
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

// ------------------------------------------------------------------------
// Parser
// ------------------------------------------------------------------------

const KEYWORDS: &[&str] = &[
    "fun", "fix", "let", "in", "if", "then", "else", "case", "lcase", "end", "inj", "roll",
    "unroll", "nehole", "true", "false", "mu", "livelit", "def",
];

/// Auto-assigned holes are numbered from the top of the range during
/// parsing and renumbered to small fresh names afterwards.
const AUTO_BASE: u64 = u64::MAX / 2;

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
    auto_holes: u64,
    /// The current nesting level, at most [`MAX_DEPTH`]. Every nested
    /// expression or type counts, and so does every loop that builds a
    /// nested node without recursing: each operator of a left-associative
    /// chain nests the chain so far one level deeper, and each element of
    /// a list literal after the first nests its `Cons` one level deeper.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn here(&self) -> (usize, usize) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_op(&mut self, op: &'static str) -> bool {
        if self.peek() == &Tok::Op(op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: &'static str) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{op}`, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = self.peek() {
            if s == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword `{kw}`, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) if !KEYWORDS.contains(&s.as_str()) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input {:?}", self.peek())))
        }
    }

    fn fresh_auto_hole(&mut self) -> HoleName {
        let u = HoleName(AUTO_BASE + self.auto_holes);
        self.auto_holes += 1;
        u
    }

    /// Enters one more nesting level, failing past [`MAX_DEPTH`].
    fn deeper(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("input nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parses with `f` one nesting level deeper.
    fn nested<T>(&mut self, f: fn(&mut Parser) -> Result<T, ParseError>) -> Result<T, ParseError> {
        self.deeper()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    // -- types ------------------------------------------------------------

    fn typ(&mut self) -> Result<Typ, ParseError> {
        self.nested(Parser::typ_arrow)
    }

    fn typ_arrow(&mut self) -> Result<Typ, ParseError> {
        let lhs = self.typ_atom()?;
        if self.eat_op("->") {
            let rhs = self.typ()?;
            Ok(Typ::arrow(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn typ_atom(&mut self) -> Result<Typ, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => match s.as_str() {
                "Int" => {
                    self.bump();
                    Ok(Typ::Int)
                }
                "Float" => {
                    self.bump();
                    Ok(Typ::Float)
                }
                "Bool" => {
                    self.bump();
                    Ok(Typ::Bool)
                }
                "Str" => {
                    self.bump();
                    Ok(Typ::Str)
                }
                "Unit" => {
                    self.bump();
                    Ok(Typ::Unit)
                }
                "List" => {
                    self.bump();
                    self.expect_op("(")?;
                    let t = self.typ()?;
                    self.expect_op(")")?;
                    Ok(Typ::list(t))
                }
                "mu" => {
                    self.bump();
                    self.expect_op("'")?;
                    let tv = self.ident()?;
                    self.expect_op(".")?;
                    let body = self.typ()?;
                    Ok(Typ::rec(tv.as_str(), body))
                }
                other => Err(self.error(format!("expected a type, found `{other}`"))),
            },
            Tok::Op("'") => {
                self.bump();
                let tv = self.ident()?;
                Ok(Typ::Var(TVar::new(tv)))
            }
            Tok::Op("(") => {
                self.bump();
                if self.eat_op(")") {
                    return Ok(Typ::Unit);
                }
                if self.peek() == &Tok::Op(".") {
                    // Labeled product type.
                    let mut fields = Vec::new();
                    loop {
                        self.expect_op(".")?;
                        let l = self.label()?;
                        let t = self.typ()?;
                        fields.push((l, t));
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    self.expect_op(")")?;
                    return Ok(Typ::Prod(fields));
                }
                let first = self.typ()?;
                if self.eat_op(")") {
                    return Ok(first);
                }
                let mut fields = vec![first];
                while self.eat_op(",") {
                    fields.push(self.typ()?);
                }
                self.expect_op(")")?;
                Ok(Typ::tuple(fields))
            }
            Tok::Op("[") => {
                self.bump();
                let mut arms = Vec::new();
                loop {
                    self.expect_op(".")?;
                    let l = self.label()?;
                    // Optional payload type; absent means Unit.
                    let t = match self.peek() {
                        Tok::Op("|") | Tok::Op("]") => Typ::Unit,
                        _ => self.typ()?,
                    };
                    arms.push((l, t));
                    if !self.eat_op("|") {
                        break;
                    }
                }
                self.expect_op("]")?;
                Ok(Typ::Sum(arms))
            }
            other => Err(self.error(format!("expected a type, found {other:?}"))),
        }
    }

    fn label(&mut self) -> Result<Label, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(Label::new(s))
            }
            other => Err(self.error(format!("expected a label, found {other:?}"))),
        }
    }

    // -- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<UExp, ParseError> {
        self.nested(Parser::expr_form)
    }

    fn expr_form(&mut self) -> Result<UExp, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => match s.as_str() {
                "fun" => {
                    self.bump();
                    let x = self.ident()?;
                    self.expect_op(":")?;
                    // The annotation is atomic so that its `->` cannot be
                    // confused with the body arrow; arrow annotations are
                    // parenthesized: `fun f : (Int -> Int) -> ...`.
                    let t = self.typ_atom()?;
                    self.expect_op("->")?;
                    let body = self.expr()?;
                    Ok(UExp::Lam(Var::new(x), t, Box::new(body)))
                }
                "fix" => {
                    self.bump();
                    let x = self.ident()?;
                    self.expect_op(":")?;
                    let t = self.typ_atom()?;
                    self.expect_op("->")?;
                    let body = self.expr()?;
                    Ok(UExp::Fix(Var::new(x), t, Box::new(body)))
                }
                "let" => {
                    self.bump();
                    let rec = self.eat_keyword("rec");
                    let x = self.ident()?;
                    let ann = if self.eat_op(":") {
                        Some(self.typ()?)
                    } else {
                        None
                    };
                    self.expect_op("=")?;
                    let def = self.expr()?;
                    self.expect_keyword("in")?;
                    let body = self.expr()?;
                    if rec {
                        let t = ann
                            .clone()
                            .ok_or_else(|| self.error("`let rec` requires a type annotation"))?;
                        Ok(UExp::Let(
                            Var::new(x.clone()),
                            ann,
                            Box::new(UExp::Fix(Var::new(x), t, Box::new(def))),
                            Box::new(body),
                        ))
                    } else {
                        Ok(UExp::Let(Var::new(x), ann, Box::new(def), Box::new(body)))
                    }
                }
                "if" => {
                    self.bump();
                    let c = self.expr_op()?;
                    self.expect_keyword("then")?;
                    let t = self.expr()?;
                    self.expect_keyword("else")?;
                    let e = self.expr()?;
                    Ok(UExp::If(Box::new(c), Box::new(t), Box::new(e)))
                }
                "case" => {
                    self.bump();
                    let scrut = self.expr_op()?;
                    let mut arms = Vec::new();
                    while self.eat_op("|") {
                        self.expect_op(".")?;
                        let l = self.label()?;
                        let x = self.ident()?;
                        self.expect_op("->")?;
                        let body = self.expr()?;
                        arms.push(UCaseArm {
                            label: l,
                            var: Var::new(x),
                            body,
                        });
                    }
                    self.expect_keyword("end")?;
                    Ok(UExp::Case(Box::new(scrut), arms))
                }
                "lcase" => {
                    self.bump();
                    let scrut = self.expr_op()?;
                    self.expect_op("|")?;
                    self.expect_op("[")?;
                    self.expect_op("]")?;
                    self.expect_op("->")?;
                    let nil = self.expr()?;
                    self.expect_op("|")?;
                    let h = self.ident()?;
                    self.expect_op("::")?;
                    let t = self.ident()?;
                    self.expect_op("->")?;
                    let cons = self.expr()?;
                    self.expect_keyword("end")?;
                    Ok(UExp::ListCase(
                        Box::new(scrut),
                        Box::new(nil),
                        Var::new(h),
                        Var::new(t),
                        Box::new(cons),
                    ))
                }
                _ => self.expr_op(),
            },
            _ => self.expr_op(),
        }
    }

    /// Operator expressions by precedence climbing, starting with the
    /// pipelining operators of Sec. 2.4.1: `x |> f` (left-associative) and
    /// `f <| x` (right-associative) are sugar for application, "which allow
    /// multiple livelits to form dataflows". They desugar here, so the
    /// printer renders the application form.
    fn expr_op(&mut self) -> Result<UExp, ParseError> {
        let lhs = self.expr_or()?;
        if self.peek() == &Tok::Op("|>") {
            let depth = self.depth;
            let mut acc = lhs;
            while self.eat_op("|>") {
                self.deeper()?;
                let f = self.expr_or()?;
                acc = UExp::Ap(Box::new(f), Box::new(acc));
            }
            self.depth = depth;
            Ok(acc)
        } else if self.eat_op("<|") {
            let rhs = self.nested(Parser::expr_op)?;
            Ok(UExp::Ap(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    /// A left-associative chain of the binary operators `op` recognizes,
    /// between `operand`s. Each operator nests the chain so far one level
    /// deeper.
    fn chain(
        &mut self,
        operand: fn(&mut Parser) -> Result<UExp, ParseError>,
        op: fn(&Tok) -> Option<BinOp>,
    ) -> Result<UExp, ParseError> {
        let depth = self.depth;
        let mut lhs = operand(self)?;
        while let Some(op) = op(self.peek()) {
            self.bump();
            self.deeper()?;
            let rhs = operand(self)?;
            lhs = UExp::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn expr_or(&mut self) -> Result<UExp, ParseError> {
        self.chain(Parser::expr_and, |t| {
            (t == &Tok::Op("||")).then_some(BinOp::Or)
        })
    }

    fn expr_and(&mut self) -> Result<UExp, ParseError> {
        self.chain(Parser::expr_cmp, |t| {
            (t == &Tok::Op("&&")).then_some(BinOp::And)
        })
    }

    fn expr_cmp(&mut self) -> Result<UExp, ParseError> {
        let lhs = self.expr_cons()?;
        let op = match self.peek() {
            Tok::Op("<") => Some(BinOp::Lt),
            Tok::Op("<=") => Some(BinOp::Le),
            Tok::Op(">") => Some(BinOp::Gt),
            Tok::Op(">=") => Some(BinOp::Ge),
            Tok::Op("==") => Some(BinOp::Eq),
            Tok::Op("<.") => Some(BinOp::FLt),
            Tok::Op("<=.") => Some(BinOp::FLe),
            Tok::Op(">.") => Some(BinOp::FGt),
            Tok::Op(">=.") => Some(BinOp::FGe),
            Tok::Op("==.") => Some(BinOp::FEq),
            Tok::Op("==^") => Some(BinOp::StrEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.expr_cons()?;
            Ok(UExp::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    /// `::` and `^`, right-associative.
    fn expr_cons(&mut self) -> Result<UExp, ParseError> {
        let lhs = self.expr_add()?;
        if self.eat_op("::") {
            let rhs = self.nested(Parser::expr_cons)?;
            Ok(UExp::Cons(Box::new(lhs), Box::new(rhs)))
        } else if self.eat_op("^") {
            let rhs = self.nested(Parser::expr_cons)?;
            Ok(UExp::Bin(BinOp::Concat, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn expr_add(&mut self) -> Result<UExp, ParseError> {
        self.chain(Parser::expr_mul, |t| match t {
            Tok::Op("+") => Some(BinOp::Add),
            Tok::Op("-") => Some(BinOp::Sub),
            Tok::Op("+.") => Some(BinOp::FAdd),
            Tok::Op("-.") => Some(BinOp::FSub),
            _ => None,
        })
    }

    fn expr_mul(&mut self) -> Result<UExp, ParseError> {
        self.chain(Parser::expr_app, |t| match t {
            Tok::Op("*") => Some(BinOp::Mul),
            Tok::Op("/") => Some(BinOp::Div),
            Tok::Op("*.") => Some(BinOp::FMul),
            Tok::Op("/.") => Some(BinOp::FDiv),
            _ => None,
        })
    }

    fn expr_app(&mut self) -> Result<UExp, ParseError> {
        // Prefix keyword forms that bind at application level.
        if let Tok::Ident(s) = self.peek() {
            match s.as_str() {
                "inj" => {
                    self.bump();
                    self.expect_op("[")?;
                    let t = self.typ()?;
                    self.expect_op("]")?;
                    self.expect_op(".")?;
                    let l = self.label()?;
                    let payload = self.expr_proj()?;
                    return Ok(UExp::Inj(t, l, Box::new(payload)));
                }
                "roll" => {
                    self.bump();
                    self.expect_op("[")?;
                    let t = self.typ()?;
                    self.expect_op("]")?;
                    let inner = self.expr_proj()?;
                    return Ok(UExp::Roll(t, Box::new(inner)));
                }
                "unroll" => {
                    self.bump();
                    let inner = self.expr_proj()?;
                    return Ok(UExp::Unroll(Box::new(inner)));
                }
                "nehole" => {
                    self.bump();
                    self.expect_op("[")?;
                    let u = self.hole_number()?;
                    self.expect_op("]")?;
                    let inner = self.expr_proj()?;
                    return Ok(UExp::NonEmptyHole(u, Box::new(inner)));
                }
                _ => {}
            }
        }
        let depth = self.depth;
        let mut lhs = self.expr_proj()?;
        while self.starts_atom() {
            self.deeper()?;
            let arg = self.expr_proj()?;
            lhs = UExp::Ap(Box::new(lhs), Box::new(arg));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn starts_atom(&self) -> bool {
        match self.peek() {
            Tok::Int(_) | Tok::Float(_) | Tok::Str(_) => true,
            Tok::Ident(s) => !KEYWORDS.contains(&s.as_str()) || s == "true" || s == "false",
            Tok::Op("(") | Tok::Op("[") | Tok::Op("?") | Tok::Op("$") => true,
            _ => false,
        }
    }

    fn expr_proj(&mut self) -> Result<UExp, ParseError> {
        let depth = self.depth;
        let mut e = self.atom()?;
        while self.peek() == &Tok::Op(".") && matches!(self.peek2(), Tok::Ident(_)) {
            self.bump();
            self.deeper()?;
            let l = self.label()?;
            e = UExp::Proj(Box::new(e), l);
        }
        self.depth = depth;
        Ok(e)
    }

    fn hole_number(&mut self) -> Result<HoleName, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) if n >= 0 => {
                self.bump();
                Ok(HoleName(n as u64))
            }
            other => Err(self.error(format!("expected a hole number, found {other:?}"))),
        }
    }

    fn atom(&mut self) -> Result<UExp, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(UExp::Int(n))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(UExp::Float(x))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(UExp::Str(s))
            }
            Tok::Op("-") => {
                // Negative literal.
                self.bump();
                match self.peek().clone() {
                    Tok::Int(n) => {
                        self.bump();
                        Ok(UExp::Int(-n))
                    }
                    Tok::Float(x) => {
                        self.bump();
                        Ok(UExp::Float(-x))
                    }
                    other => Err(self.error(format!(
                        "expected a numeric literal after unary minus, found {other:?}"
                    ))),
                }
            }
            Tok::Ident(s) => match s.as_str() {
                "true" => {
                    self.bump();
                    Ok(UExp::Bool(true))
                }
                "false" => {
                    self.bump();
                    Ok(UExp::Bool(false))
                }
                _ if KEYWORDS.contains(&s.as_str()) => {
                    Err(self.error(format!("unexpected keyword `{s}`")))
                }
                _ => {
                    self.bump();
                    Ok(UExp::Var(Var::new(s)))
                }
            },
            Tok::Op("?") => {
                self.bump();
                let u = match self.peek() {
                    Tok::Int(n) if *n >= 0 => {
                        let u = HoleName(*n as u64);
                        self.bump();
                        u
                    }
                    _ => self.fresh_auto_hole(),
                };
                Ok(UExp::EmptyHole(u))
            }
            Tok::Op("$") => self.livelit(),
            Tok::Op("(") => {
                self.bump();
                if self.eat_op(")") {
                    return Ok(UExp::Unit);
                }
                if self.peek() == &Tok::Op(".") && matches!(self.peek2(), Tok::Ident(_)) {
                    // Labeled tuple.
                    let mut fields = Vec::new();
                    loop {
                        self.expect_op(".")?;
                        let l = self.label()?;
                        let e = self.expr()?;
                        fields.push((l, e));
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    self.expect_op(")")?;
                    return Ok(UExp::Tuple(fields));
                }
                let first = self.expr()?;
                if self.eat_op(")") {
                    return Ok(first);
                }
                if self.eat_op(":") {
                    let t = self.typ()?;
                    self.expect_op(")")?;
                    return Ok(UExp::Asc(Box::new(first), t));
                }
                let mut fields = vec![first];
                while self.eat_op(",") {
                    fields.push(self.expr()?);
                }
                self.expect_op(")")?;
                Ok(UExp::Tuple(
                    fields
                        .into_iter()
                        .enumerate()
                        .map(|(i, e)| (Label::positional(i), e))
                        .collect(),
                ))
            }
            Tok::Op("[") => {
                // List literal: [T| e1, e2, ...] or [T|]. It folds into a
                // `Cons` chain, so each element after the first nests one
                // level deeper.
                self.bump();
                let t = self.typ()?;
                self.expect_op("|")?;
                let depth = self.depth;
                let mut elems = Vec::new();
                if self.peek() != &Tok::Op("]") {
                    elems.push(self.expr()?);
                    while self.eat_op(",") {
                        self.deeper()?;
                        elems.push(self.expr()?);
                    }
                }
                self.depth = depth;
                self.expect_op("]")?;
                Ok(elems.into_iter().rev().fold(UExp::Nil(t), |acc, e| {
                    UExp::Cons(Box::new(e), Box::new(acc))
                }))
            }
            other => Err(self.error(format!("expected an expression, found {other:?}"))),
        }
    }

    /// `$name@u{model}(e : τ; ...)` — the serialized livelit invocation
    /// syntax of the text-editor integration.
    fn livelit(&mut self) -> Result<UExp, ParseError> {
        self.expect_op("$")?;
        let name = self.ident()?;
        let hole = if self.eat_op("@") {
            self.hole_number()?
        } else {
            self.fresh_auto_hole()
        };
        self.expect_op("{")?;
        let model_expr = self.expr()?;
        self.expect_op("}")?;
        let model_eexp = model_expr
            .to_eexp()
            .map_err(|n| self.error(format!("livelit model may not contain livelit {n}")))?;
        let model = eexp_to_iexp_value(&model_eexp)
            .ok_or_else(|| self.error("livelit model must be a serializable value"))?;
        let mut splices = Vec::new();
        if self.eat_op("(") {
            if self.peek() != &Tok::Op(")") {
                loop {
                    let e = self.expr()?;
                    self.expect_op(":")?;
                    let t = self.typ()?;
                    splices.push(Splice::new(e, t));
                    if !self.eat_op(";") {
                        break;
                    }
                }
            }
            self.expect_op(")")?;
        }
        Ok(UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new(name),
            model,
            splices,
            hole,
        })))
    }
}

/// Parses the items of a module file (see [`crate::module`]): livelit
/// declarations, `def` bindings (terminated by `;;`), then the main
/// expression.
pub(crate) fn parse_module_items(src: &str) -> Result<crate::module::Module, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        auto_holes: 0,
        depth: 0,
    };
    let mut livelits = Vec::new();
    let mut defs = Vec::new();
    loop {
        if p.peek_is_ident("livelit") {
            livelits.push(p.livelit_decl()?);
        } else if p.peek_is_ident("def") {
            defs.push(p.lib_def()?);
        } else {
            break;
        }
    }
    let main = p.expr()?;
    p.expect_eof()?;
    Ok(crate::module::Module {
        livelits,
        defs,
        main: renumber_auto_holes(main),
    })
}

impl Parser {
    fn peek_is_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// `livelit $a (x : τ)* at τ { model τ init e ; expand e }`
    fn livelit_decl(&mut self) -> Result<crate::module::LivelitDecl, ParseError> {
        self.bump(); // `livelit`
        self.expect_op("$")?;
        let name = self.ident()?;
        let mut params = Vec::new();
        while self.eat_op("(") {
            let x = self.ident()?;
            self.expect_op(":")?;
            let t = self.typ()?;
            self.expect_op(")")?;
            params.push((Var::new(x), t));
        }
        if !self.eat_keyword("at") {
            return Err(self.error("expected `at` in livelit declaration"));
        }
        let expansion_ty = self.typ()?;
        self.expect_op("{")?;
        if !self.eat_keyword("model") {
            return Err(self.error("expected `model` in livelit declaration"));
        }
        let model_ty = self.typ()?;
        if !self.eat_keyword("init") {
            return Err(self.error("expected `init` in livelit declaration"));
        }
        let init_model = self.module_eexp()?;
        self.expect_op(";")?;
        if !self.eat_keyword("expand") {
            return Err(self.error("expected `expand` in livelit declaration"));
        }
        let expand = self.module_eexp()?;
        self.expect_op("}")?;
        Ok(crate::module::LivelitDecl {
            name: LivelitName::new(name),
            params,
            expansion_ty,
            model_ty,
            init_model,
            expand,
        })
    }

    /// `def x : τ = e ;;`
    fn lib_def(&mut self) -> Result<crate::module::LibDef, ParseError> {
        self.bump(); // `def`
        let x = self.ident()?;
        self.expect_op(":")?;
        let ty = self.typ()?;
        self.expect_op("=")?;
        let def = self.module_eexp()?;
        // Terminated by `;;` so juxtaposition application cannot swallow
        // the next item.
        self.expect_op(";")?;
        self.expect_op(";")?;
        Ok(crate::module::LibDef {
            var: Var::new(x),
            ty,
            def,
        })
    }

    fn module_eexp(&mut self) -> Result<EExp, ParseError> {
        let e = self.expr()?;
        e.to_eexp().map_err(|n| {
            self.error(format!(
                "livelit invocation {n} is not allowed inside module definitions"
            ))
        })
    }
}

/// Remaps auto-assigned hole names (from the top of the `u64` range) to
/// small names fresh with respect to the explicitly numbered holes.
fn renumber_auto_holes(e: UExp) -> UExp {
    let used = e.hole_names();
    let max_explicit = used
        .iter()
        .filter(|u| u.0 < AUTO_BASE)
        .map(|u| u.0 + 1)
        .max()
        .unwrap_or(0);
    if used.iter().all(|u| u.0 < AUTO_BASE) {
        return e;
    }
    let autos: Vec<HoleName> = used.into_iter().filter(|u| u.0 >= AUTO_BASE).collect();
    let remap: std::collections::BTreeMap<HoleName, HoleName> = autos
        .iter()
        .enumerate()
        .map(|(i, u)| (*u, HoleName(max_explicit + i as u64)))
        .collect();
    e.map(&mut |e| match e {
        UExp::EmptyHole(u) => UExp::EmptyHole(remap.get(&u).copied().unwrap_or(u)),
        UExp::NonEmptyHole(u, inner) => {
            UExp::NonEmptyHole(remap.get(&u).copied().unwrap_or(u), inner)
        }
        UExp::Livelit(mut ap) => {
            if let Some(new) = remap.get(&ap.hole) {
                ap.hole = *new;
            }
            UExp::Livelit(ap)
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use crate::pretty::{print_eexp, print_uexp};

    fn roundtrip(src: &str) -> UExp {
        let e = parse_uexp(src).unwrap_or_else(|err| panic!("parse {src:?}: {err}"));
        let printed = print_uexp(&e, 100);
        let reparsed =
            parse_uexp(&printed).unwrap_or_else(|err| panic!("reparse {printed:?}: {err}"));
        assert_eq!(e, reparsed, "print/parse roundtrip failed for {src:?}");
        e
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let e = parse_eexp("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            build::add(build::int(1), build::mul(build::int(2), build::int(3)))
        );
        roundtrip("1 + 2 * 3");
        roundtrip("(1 + 2) * 3");
    }

    #[test]
    fn parses_float_ops_and_trailing_dot() {
        let e = parse_eexp("36. +. 24.5").unwrap();
        assert_eq!(e, build::fadd(build::float(36.0), build::float(24.5)));
    }

    #[test]
    fn parses_lambda_let_ap() {
        let e = parse_eexp("let f = fun x : Int -> x + 1 in f 41").unwrap();
        let expected = build::elet(
            "f",
            build::lam("x", Typ::Int, build::add(build::var("x"), build::int(1))),
            build::ap(build::var("f"), build::int(41)),
        );
        assert_eq!(e, expected);
    }

    #[test]
    fn let_rec_desugars_to_fix() {
        let e = parse_eexp(
            "let rec f : Int -> Int = fun n : Int -> if n <= 0 then 0 else f (n - 1) in f 3",
        )
        .unwrap();
        match e {
            EExp::Let(_, Some(_), def, _) => assert!(matches!(*def, EExp::Fix(..))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_tuples_records_proj() {
        roundtrip("(1, 2, 3)");
        let e = parse_eexp("(.r 57, .g 107).g").unwrap();
        assert_eq!(
            e,
            build::proj(
                build::record([("r", build::int(57)), ("g", build::int(107))]),
                "g"
            )
        );
    }

    #[test]
    fn parses_case_and_inj() {
        let src = "case inj[[.Some Int | .None]].Some 5 | .Some n -> n | .None w -> 0 end";
        let e = roundtrip(src);
        assert!(matches!(e, UExp::Case(..)));
    }

    #[test]
    fn parses_lists_and_lcase() {
        let e = parse_eexp("[Int| 1, 2, 3]").unwrap();
        assert_eq!(
            e,
            build::list(Typ::Int, [build::int(1), build::int(2), build::int(3)])
        );
        roundtrip("lcase [Int| 1] | [] -> 0 | h :: t -> h end");
        roundtrip("1 :: 2 :: [Int|]");
    }

    #[test]
    fn parses_holes() {
        let e = parse_uexp("?3 ").unwrap();
        assert_eq!(e, UExp::EmptyHole(HoleName(3)));
        // Unnumbered holes get fresh names above explicit ones.
        let e = parse_uexp("(?5, ?, ?)").unwrap();
        let names = e.hole_names();
        assert!(names.contains(&HoleName(5)));
        assert!(names.contains(&HoleName(6)));
        assert!(names.contains(&HoleName(7)));
    }

    #[test]
    fn parses_livelit_invocation() {
        let src = r#"$color@2{(.sel 1)}(57 : Int; 107 : Int)"#;
        let e = roundtrip(src);
        match &e {
            UExp::Livelit(ap) => {
                assert_eq!(ap.name, LivelitName::new("color"));
                assert_eq!(ap.hole, HoleName(2));
                assert_eq!(ap.splices.len(), 2);
                assert_eq!(ap.splices[0].ty, Typ::Int);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn livelit_splices_may_contain_livelits() {
        let src = r#"$color{()}($slider{0}(: wrong"#;
        assert!(parse_uexp(src).is_err());
        let good = r#"$color{()}($slider@9{0}() : Int)"#;
        let e = parse_uexp(good).unwrap();
        assert_eq!(e.livelit_aps().len(), 2);
    }

    #[test]
    fn pipeline_operators_desugar_to_application() {
        // x |> f |> g  ==  g (f x)
        let e = parse_eexp("1 |> f |> g").unwrap();
        assert_eq!(
            e,
            build::ap(build::var("g"), build::ap(build::var("f"), build::int(1)))
        );
        // f <| g <| 1  ==  f (g 1)
        let e = parse_eexp("f <| g <| 1").unwrap();
        assert_eq!(
            e,
            build::ap(build::var("f"), build::ap(build::var("g"), build::int(1)))
        );
        // Livelit dataflows: averages |> $grade_cutoffs-style piping parses.
        let e = parse_uexp("averages |> $cutoffs@0{()}").unwrap();
        assert!(matches!(e, UExp::Ap(..)));
        // Mixing directions without parens is rejected.
        assert!(parse_eexp("1 |> f <| 2").is_err());
    }

    #[test]
    fn parses_types() {
        assert_eq!(
            parse_typ("Int -> Int -> Bool").unwrap().to_string(),
            "Int -> Int -> Bool"
        );
        assert_eq!(
            parse_typ("(.r Int, .g Int, .b Int, .a Int)").unwrap(),
            Typ::prod([
                (Label::new("r"), Typ::Int),
                (Label::new("g"), Typ::Int),
                (Label::new("b"), Typ::Int),
                (Label::new("a"), Typ::Int),
            ])
        );
        assert_eq!(
            parse_typ("[.Some Int | .None]").unwrap(),
            Typ::sum([
                (Label::new("Some"), Typ::Int),
                (Label::new("None"), Typ::Unit)
            ])
        );
        assert_eq!(parse_typ("List(Float)").unwrap(), Typ::list(Typ::Float));
        let nat = parse_typ("mu 't. [.Z | .S 't]").unwrap();
        assert!(matches!(nat, Typ::Rec(..)));
    }

    #[test]
    fn comments_are_skipped() {
        let e = parse_eexp("1 + (* a (* nested *) comment *) 2").unwrap();
        assert_eq!(e, build::add(build::int(1), build::int(2)));
    }

    #[test]
    fn negative_literals() {
        assert_eq!(parse_eexp("-3").unwrap(), build::int(-3));
        assert_eq!(
            parse_eexp("1 - -2").unwrap(),
            build::sub(build::int(1), build::int(-2))
        );
    }

    #[test]
    fn strings_with_escapes() {
        let e = parse_eexp(r#""a\"b\n""#).unwrap();
        assert_eq!(e, build::string("a\"b\n"));
        roundtrip(r#""a\"b\n""#);
    }

    #[test]
    fn ascription_parses() {
        let e = parse_eexp("(? : Int)").unwrap();
        assert!(matches!(e, EExp::Asc(..)));
    }

    #[test]
    fn printed_programs_reparse() {
        // A larger program exercising most forms.
        let src = "let rec sum : List(Float) -> Float = fun xs : List(Float) -> \
                   lcase xs | [] -> 0. | h :: t -> h +. sum t end in \
                   sum [Float| 1., 2.5, 3.]";
        let e = parse_eexp(src).unwrap();
        let printed = print_eexp(&e, 80);
        let reparsed = parse_eexp(&printed).unwrap();
        assert_eq!(e, reparsed);
    }

    #[test]
    fn every_nesting_form_is_bounded() {
        // Each form nested `k` times: the parser refuses it or returns a
        // term that nests at most `MAX_DEPTH` levels, and far past the
        // bound it refuses. The stack has room for the unoptimized
        // parser's recursion at the bound.
        let check = || {
            let forms: [fn(usize) -> String; 12] = [
                |k| "(".repeat(k) + "1" + &")".repeat(k),
                |k| "(1, ".repeat(k) + "1" + &")".repeat(k),
                |k| format!("[Int| {}1]", "1, ".repeat(k)),
                |k| "1".to_string() + &" + 1".repeat(k),
                |k| "true".to_string() + &" || true".repeat(k),
                |k| "f".to_string() + &" 1".repeat(k),
                |k| "x".to_string() + &".a".repeat(k),
                |k| "1".to_string() + &" |> f".repeat(k),
                |k| "f <| ".repeat(k) + "1",
                |k| "1 :: ".repeat(k) + "[Int|]",
                |k| "let x = 1 in ".repeat(k) + "x",
                |k| "$f{()}(".repeat(k) + "1" + &" : Int)".repeat(k),
            ];
            for form in forms {
                for k in (MAX_DEPTH - 2..=MAX_DEPTH + 2).chain([4 * MAX_DEPTH]) {
                    let src = form(k);
                    match parse_uexp(&src) {
                        Ok(e) => assert!(k < 4 * MAX_DEPTH && e.depth() <= MAX_DEPTH, "{src}"),
                        Err(err) => assert!(err.message.contains("nests deeper"), "{err}"),
                    }
                }
            }
            let arrows = "Int -> ".repeat(4 * MAX_DEPTH) + "Int";
            let err = parse_typ(&arrows).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{err}");
        };
        let big_stack = std::thread::Builder::new().stack_size(64 << 20);
        big_stack.spawn(check).unwrap().join().unwrap();
    }
}
