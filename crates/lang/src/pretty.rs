//! A width-aware pretty printer (Sec. 5.3).
//!
//! Hazel "uses an optimizing pretty printer based on the work of Bernardy to
//! determine layout. This system relies fundamentally on character counts."
//! This module implements a Wadler-style document algebra with groups and
//! nesting, laid out against a character-count width budget — the same
//! discipline (character units, not pixels) the paper prescribes for livelit
//! layout.
//!
//! The printers here define the canonical surface syntax; [`crate::parse`]
//! reads the same syntax back (print ∘ parse round-trips are property-tested
//! in the parser module).

use std::rc::Rc;

use crate::external::EExp;
use crate::internal::IExp;
use crate::typ::Typ;
use crate::unexpanded::UExp;

/// A layout document.
#[derive(Debug, Clone)]
pub enum Doc {
    /// The empty document.
    Nil,
    /// Literal text (must not contain newlines).
    Text(String),
    /// A line break that renders as a space when the enclosing group fits.
    Line,
    /// A line break that renders as nothing when the enclosing group fits.
    SoftLine,
    /// Concatenation.
    Concat(Rc<Doc>, Rc<Doc>),
    /// Indents line breaks in the inner document by `usize` spaces.
    Nest(usize, Rc<Doc>),
    /// A group: rendered flat if it fits the remaining width.
    Group(Rc<Doc>),
}

impl Doc {
    /// The empty document.
    pub fn nil() -> Doc {
        Doc::Nil
    }

    /// Literal text.
    pub fn text(s: impl Into<String>) -> Doc {
        Doc::Text(s.into())
    }

    /// Space-or-newline.
    pub fn line() -> Doc {
        Doc::Line
    }

    /// Nothing-or-newline.
    pub fn softline() -> Doc {
        Doc::SoftLine
    }

    /// Concatenates two documents.
    pub fn concat(self, other: Doc) -> Doc {
        match (&self, &other) {
            (Doc::Nil, _) => other,
            (_, Doc::Nil) => self,
            _ => Doc::Concat(Rc::new(self), Rc::new(other)),
        }
    }

    /// Indents inner line breaks.
    pub fn nest(self, indent: usize) -> Doc {
        Doc::Nest(indent, Rc::new(self))
    }

    /// Groups this document for fit-based layout.
    pub fn group(self) -> Doc {
        Doc::Group(Rc::new(self))
    }

    /// Joins documents with a separator.
    pub fn join(docs: impl IntoIterator<Item = Doc>, sep: Doc) -> Doc {
        let mut out = Doc::Nil;
        for (i, d) in docs.into_iter().enumerate() {
            if i > 0 {
                out = out.concat(sep.clone());
            }
            out = out.concat(d);
        }
        out
    }

    /// Renders the document within `width` character columns.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        let mut stack: Vec<(usize, Mode, &Doc)> = vec![(0, Mode::Break, self)];
        let mut col = 0usize;
        while let Some((indent, mode, doc)) = stack.pop() {
            match doc {
                Doc::Nil => {}
                Doc::Text(s) => {
                    out.push_str(s);
                    col += s.chars().count();
                }
                Doc::Line => match mode {
                    Mode::Flat => {
                        out.push(' ');
                        col += 1;
                    }
                    Mode::Break => {
                        out.push('\n');
                        out.push_str(&" ".repeat(indent));
                        col = indent;
                    }
                },
                Doc::SoftLine => match mode {
                    Mode::Flat => {}
                    Mode::Break => {
                        out.push('\n');
                        out.push_str(&" ".repeat(indent));
                        col = indent;
                    }
                },
                Doc::Concat(a, b) => {
                    stack.push((indent, mode, b));
                    stack.push((indent, mode, a));
                }
                Doc::Nest(n, inner) => {
                    stack.push((indent + n, mode, inner));
                }
                Doc::Group(inner) => {
                    let mode = if fits(width.saturating_sub(col), inner) {
                        Mode::Flat
                    } else {
                        Mode::Break
                    };
                    stack.push((indent, mode, inner));
                }
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Flat,
    Break,
}

/// Whether `doc`, rendered flat, fits in `remaining` columns.
fn fits(mut remaining: usize, doc: &Doc) -> bool {
    let mut stack: Vec<&Doc> = vec![doc];
    while let Some(d) = stack.pop() {
        match d {
            Doc::Nil | Doc::SoftLine => {}
            Doc::Text(s) => {
                let n = s.chars().count();
                if n > remaining {
                    return false;
                }
                remaining -= n;
            }
            Doc::Line => {
                if remaining == 0 {
                    return false;
                }
                remaining -= 1;
            }
            Doc::Concat(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            Doc::Nest(_, inner) | Doc::Group(inner) => stack.push(inner),
        }
    }
    true
}

// ------------------------------------------------------------------------
// Expression printing
// ------------------------------------------------------------------------

const INDENT: usize = 2;

/// Precedence levels used for parenthesization; see `crate::parse` for the
/// matching grammar.
mod prec {
    pub const EXPR: u8 = 0;
    pub const OR: u8 = 1;
    pub const CONS: u8 = 4;
    pub const AP: u8 = 7;
    pub const PROJ: u8 = 8;
    pub const ATOM: u8 = 9;
}

/// Renders a type for a binder annotation position (`fun x : τ ->`),
/// parenthesizing forms whose greedy parse would swallow the body arrow.
fn ann_typ(t: &Typ) -> String {
    match t {
        Typ::Arrow(..) | Typ::Rec(..) => format!("({t})"),
        _ => t.to_string(),
    }
}

fn parens_if(cond: bool, d: Doc) -> Doc {
    if cond {
        Doc::text("(").concat(d).concat(Doc::text(")"))
    } else {
        d
    }
}

/// Pretty-prints an unexpanded expression to the given width.
pub fn print_uexp(e: &UExp, width: usize) -> String {
    uexp_doc(e, prec::EXPR).group().render(width)
}

/// Pretty-prints an external expression to the given width.
pub fn print_eexp(e: &EExp, width: usize) -> String {
    print_uexp(&UExp::from_eexp(e), width)
}

/// Pretty-prints an internal expression to the given width.
pub fn print_iexp(d: &IExp, width: usize) -> String {
    iexp_doc(d, prec::EXPR).group().render(width)
}

fn escape_str(s: &str) -> String {
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

fn float_text(x: f64) -> String {
    let base = if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    };
    // Negative literals are parenthesized so that argument positions
    // (`f -7.0`) cannot be re-parsed as subtraction.
    if base.starts_with('-') {
        format!("({base})")
    } else {
        base
    }
}

fn int_text(n: i64) -> String {
    if n < 0 {
        format!("({n})")
    } else {
        n.to_string()
    }
}

fn uexp_doc(e: &UExp, p: u8) -> Doc {
    use UExp::*;
    match e {
        Var(x) => Doc::text(x.as_str()),
        Int(n) => Doc::text(int_text(*n)),
        Float(x) => Doc::text(float_text(*x)),
        Bool(b) => Doc::text(if *b { "true" } else { "false" }),
        Str(s) => Doc::text(escape_str(s)),
        Unit => Doc::text("()"),
        Lam(x, t, body) => parens_if(
            p > prec::EXPR,
            Doc::text(format!("fun {x} : {} ->", ann_typ(t)))
                .concat(Doc::line().concat(uexp_doc(body, prec::EXPR)).nest(INDENT))
                .group(),
        ),
        Fix(x, t, body) => parens_if(
            p > prec::EXPR,
            Doc::text(format!("fix {x} : {} ->", ann_typ(t)))
                .concat(Doc::line().concat(uexp_doc(body, prec::EXPR)).nest(INDENT))
                .group(),
        ),
        Ap(f, a) => parens_if(
            p > prec::AP,
            uexp_doc(f, prec::AP)
                .concat(Doc::line().concat(uexp_doc(a, prec::AP + 1)).nest(INDENT))
                .group(),
        ),
        Let(x, ann, def, body) => {
            let header = match ann {
                Some(t) => format!("let {x} : {t} ="),
                None => format!("let {x} ="),
            };
            parens_if(
                p > prec::EXPR,
                Doc::text(header)
                    .concat(
                        Doc::line()
                            .concat(uexp_doc(def, prec::EXPR))
                            .nest(INDENT)
                            .group(),
                    )
                    .concat(Doc::line())
                    .concat(Doc::text("in"))
                    .concat(Doc::line())
                    .concat(uexp_doc(body, prec::EXPR)),
            )
        }
        Bin(op, a, b) => {
            let op_p = op.precedence();
            // Left-associative except cons/concat at level 4.
            let (lp, rp) = if op_p == prec::CONS {
                (op_p + 1, op_p)
            } else {
                (op_p, op_p + 1)
            };
            parens_if(
                p > op_p,
                uexp_doc(a, lp)
                    .concat(Doc::text(format!(" {} ", op.symbol())))
                    .concat(uexp_doc(b, rp))
                    .group(),
            )
        }
        Cons(h, t) => parens_if(
            p > prec::CONS,
            uexp_doc(h, prec::CONS + 1)
                .concat(Doc::text(" :: "))
                .concat(uexp_doc(t, prec::CONS))
                .group(),
        ),
        If(c, t, e2) => parens_if(
            p > prec::EXPR,
            Doc::text("if ")
                .concat(uexp_doc(c, prec::OR))
                .concat(Doc::line())
                .concat(Doc::text("then "))
                .concat(uexp_doc(t, prec::OR).nest(INDENT))
                .concat(Doc::line())
                .concat(Doc::text("else "))
                .concat(uexp_doc(e2, prec::OR).nest(INDENT))
                .group(),
        ),
        Tuple(fields) => {
            // 0- and 1-ary positional tuples would be ambiguous with unit
            // and parenthesization, so only 2+-ary positional tuples use
            // bare positional syntax.
            let positional = fields.len() >= 2
                && fields
                    .iter()
                    .enumerate()
                    .all(|(i, (l, _))| *l == crate::ident::Label::positional(i));
            let items = fields.iter().map(|(l, fe)| {
                if positional {
                    uexp_doc(fe, prec::OR)
                } else {
                    Doc::text(format!(".{l} ")).concat(uexp_doc(fe, prec::OR))
                }
            });
            Doc::text("(")
                .concat(
                    Doc::softline()
                        .concat(Doc::join(items, Doc::text(",").concat(Doc::line())))
                        .nest(INDENT),
                )
                .concat(Doc::softline())
                .concat(Doc::text(")"))
                .group()
        }
        Proj(scrut, l) => uexp_doc(scrut, prec::PROJ).concat(Doc::text(format!(".{l}"))),
        Inj(t, l, payload) => parens_if(
            p > prec::AP,
            Doc::text(format!("inj[{t}].{l} ")).concat(uexp_doc(payload, prec::ATOM)),
        ),
        Case(scrut, arms) => parens_if(
            p > prec::EXPR,
            Doc::text("case ")
                .concat(uexp_doc(scrut, prec::OR))
                .concat(Doc::join(
                    arms.iter().map(|arm| {
                        Doc::line()
                            .concat(Doc::text(format!("| .{} {} -> ", arm.label, arm.var)))
                            .concat(uexp_doc(&arm.body, prec::OR).nest(INDENT))
                    }),
                    Doc::nil(),
                ))
                .concat(Doc::line())
                .concat(Doc::text("end"))
                .group(),
        ),
        Nil(t) => Doc::text(format!("[{t}|]")),
        ListCase(scrut, nil, h, t, cons) => parens_if(
            p > prec::EXPR,
            Doc::text("lcase ")
                .concat(uexp_doc(scrut, prec::OR))
                .concat(Doc::line())
                .concat(Doc::text("| [] -> "))
                .concat(uexp_doc(nil, prec::OR).nest(INDENT))
                .concat(Doc::line())
                .concat(Doc::text(format!("| {h} :: {t} -> ")))
                .concat(uexp_doc(cons, prec::OR).nest(INDENT))
                .concat(Doc::line())
                .concat(Doc::text("end"))
                .group(),
        ),
        Roll(t, inner) => parens_if(
            p > prec::AP,
            Doc::text(format!("roll[{t}] ")).concat(uexp_doc(inner, prec::ATOM)),
        ),
        Unroll(inner) => parens_if(
            p > prec::AP,
            Doc::text("unroll ").concat(uexp_doc(inner, prec::ATOM)),
        ),
        Asc(inner, t) => Doc::text("(")
            .concat(uexp_doc(inner, prec::EXPR))
            .concat(Doc::text(format!(" : {t})"))),
        EmptyHole(u) => Doc::text(format!("?{}", u.0)),
        NonEmptyHole(u, inner) => Doc::text(format!("nehole[{}] ", u.0))
            .concat(parens_if(true, uexp_doc(inner, prec::EXPR))),
        Livelit(ap) => {
            let model = print_iexp_value(&ap.model);
            let head = Doc::text(format!("{}@{}{{{model}}}", ap.name, ap.hole.0));
            if ap.splices.is_empty() {
                head
            } else {
                let items = ap.splices.iter().map(|s| {
                    uexp_doc(&s.exp, prec::EXPR).concat(Doc::text(format!(" : {}", s.ty)))
                });
                head.concat(Doc::text("("))
                    .concat(
                        Doc::softline()
                            .concat(Doc::join(items, Doc::text(";").concat(Doc::line())))
                            .nest(INDENT),
                    )
                    .concat(Doc::softline())
                    .concat(Doc::text(")"))
                    .group()
            }
        }
    }
}

/// Prints an internal expression that is expected to be a serializable
/// value (a livelit model) in *surface syntax*, so that it can be parsed
/// back by the text-editor integration.
///
/// # Panics
///
/// Panics if the model contains non-value forms that have no surface
/// syntax (holes, applications, ...). Model types are first-order by
/// construction (Sec. 3.2.1: "the model type supports automatic
/// serialization"), so models are always printable.
pub fn print_iexp_value(d: &IExp) -> String {
    let e = crate::value::iexp_value_to_eexp(d)
        .expect("livelit models must be serializable first-order values");
    // Flat rendering: models are embedded in one-line invocation syntax.
    print_eexp(&e, usize::MAX)
}

fn iexp_doc(d: &IExp, p: u8) -> Doc {
    use IExp::*;
    match d {
        Var(x) => Doc::text(x.as_str()),
        Int(n) => Doc::text(int_text(*n)),
        Float(x) => Doc::text(float_text(*x)),
        Bool(b) => Doc::text(if *b { "true" } else { "false" }),
        Str(s) => Doc::text(escape_str(s)),
        Unit => Doc::text("()"),
        Lam(x, t, body) => parens_if(
            p > prec::EXPR,
            Doc::text(format!("fun {x} : {} ->", ann_typ(t)))
                .concat(Doc::line().concat(iexp_doc(body, prec::EXPR)).nest(INDENT))
                .group(),
        ),
        Fix(x, t, body) => parens_if(
            p > prec::EXPR,
            Doc::text(format!("fix {x} : {} ->", ann_typ(t)))
                .concat(Doc::line().concat(iexp_doc(body, prec::EXPR)).nest(INDENT))
                .group(),
        ),
        Ap(f, a) => parens_if(
            p > prec::AP,
            iexp_doc(f, prec::AP)
                .concat(Doc::line().concat(iexp_doc(a, prec::AP + 1)).nest(INDENT))
                .group(),
        ),
        Bin(op, a, b) => {
            let op_p = op.precedence();
            parens_if(
                p > op_p,
                iexp_doc(a, op_p)
                    .concat(Doc::text(format!(" {} ", op.symbol())))
                    .concat(iexp_doc(b, op_p + 1))
                    .group(),
            )
        }
        Cons(h, t) => parens_if(
            p > prec::CONS,
            iexp_doc(h, prec::CONS + 1)
                .concat(Doc::text(" :: "))
                .concat(iexp_doc(t, prec::CONS))
                .group(),
        ),
        If(c, t, e2) => parens_if(
            p > prec::EXPR,
            Doc::text("if ")
                .concat(iexp_doc(c, prec::OR))
                .concat(Doc::text(" then "))
                .concat(iexp_doc(t, prec::OR))
                .concat(Doc::text(" else "))
                .concat(iexp_doc(e2, prec::OR))
                .group(),
        ),
        Tuple(fields) => {
            let positional = fields.len() >= 2
                && fields
                    .iter()
                    .enumerate()
                    .all(|(i, (l, _))| *l == crate::ident::Label::positional(i));
            let items = fields.iter().map(|(l, fe)| {
                if positional {
                    iexp_doc(fe, prec::OR)
                } else {
                    Doc::text(format!(".{l} ")).concat(iexp_doc(fe, prec::OR))
                }
            });
            Doc::text("(")
                .concat(Doc::join(items, Doc::text(", ")))
                .concat(Doc::text(")"))
                .group()
        }
        Proj(scrut, l) => iexp_doc(scrut, prec::PROJ).concat(Doc::text(format!(".{l}"))),
        Inj(t, l, payload) => parens_if(
            p > prec::AP,
            Doc::text(format!("inj[{t}].{l} ")).concat(iexp_doc(payload, prec::ATOM)),
        ),
        Case(scrut, arms) => parens_if(
            p > prec::EXPR,
            Doc::text("case ")
                .concat(iexp_doc(scrut, prec::OR))
                .concat(Doc::join(
                    arms.iter().map(|arm| {
                        Doc::line()
                            .concat(Doc::text(format!("| .{} {} -> ", arm.label, arm.var)))
                            .concat(iexp_doc(&arm.body, prec::OR).nest(INDENT))
                    }),
                    Doc::nil(),
                ))
                .concat(Doc::line())
                .concat(Doc::text("end"))
                .group(),
        ),
        Nil(t) => Doc::text(format!("[{t}|]")),
        ListCase(scrut, nil, h, t, cons) => parens_if(
            p > prec::EXPR,
            Doc::text("lcase ")
                .concat(iexp_doc(scrut, prec::OR))
                .concat(Doc::text(" | [] -> "))
                .concat(iexp_doc(nil, prec::OR))
                .concat(Doc::text(format!(" | {h} :: {t} -> ")))
                .concat(iexp_doc(cons, prec::OR))
                .concat(Doc::text(" end"))
                .group(),
        ),
        Roll(t, inner) => parens_if(
            p > prec::AP,
            Doc::text(format!("roll[{t}] ")).concat(iexp_doc(inner, prec::ATOM)),
        ),
        Unroll(inner) => parens_if(
            p > prec::AP,
            Doc::text("unroll ").concat(iexp_doc(inner, prec::ATOM)),
        ),
        EmptyHole(u, sigma) => {
            if sigma.is_empty() {
                Doc::text(format!("?{}", u.0))
            } else {
                let entries = sigma
                    .iter()
                    .map(|(x, e)| Doc::text(format!("{x} := ")).concat(iexp_doc(e, prec::OR)));
                Doc::text(format!("?{}<", u.0))
                    .concat(Doc::join(entries, Doc::text(", ")))
                    .concat(Doc::text(">"))
                    .group()
            }
        }
        NonEmptyHole(u, _sigma, inner) => Doc::text(format!("nehole[{}] (", u.0))
            .concat(iexp_doc(inner, prec::EXPR))
            .concat(Doc::text(")")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn doc_flat_when_it_fits() {
        let d = Doc::text("a")
            .concat(Doc::line())
            .concat(Doc::text("b"))
            .group();
        assert_eq!(d.render(80), "a b");
        assert_eq!(d.render(2), "a\nb");
    }

    #[test]
    fn nest_indents_broken_lines() {
        let d = Doc::text("head")
            .concat(Doc::line().concat(Doc::text("body")).nest(2))
            .group();
        assert_eq!(d.render(4), "head\n  body");
    }

    #[test]
    fn prints_simple_expressions() {
        assert_eq!(
            print_eexp(&add(int(1), mul(int(2), int(3))), 80),
            "1 + 2 * 3"
        );
        assert_eq!(
            print_eexp(&mul(add(int(1), int(2)), int(3)), 80),
            "(1 + 2) * 3"
        );
        assert_eq!(print_eexp(&float(36.0), 80), "36.0");
        assert_eq!(print_eexp(&string("a\"b"), 80), "\"a\\\"b\"");
    }

    #[test]
    fn prints_lambda_and_let() {
        let e = elet("x", int(1), ap(lam("y", Typ::Int, var("y")), var("x")));
        let flat = print_eexp(&e, 120);
        assert_eq!(flat, "let x = 1 in (fun y : Int -> y) x");
    }

    #[test]
    fn narrow_width_breaks_lines() {
        let e = elet("some_variable", int(100), add(var("some_variable"), int(1)));
        let narrow = print_eexp(&e, 20);
        assert!(narrow.contains('\n'), "expected line breaks in: {narrow}");
    }

    #[test]
    fn prints_labeled_tuple() {
        let e = record([("r", int(57)), ("g", int(107))]);
        assert_eq!(print_eexp(&e, 80), "(.r 57, .g 107)");
        assert_eq!(print_eexp(&tuple([int(1), int(2)]), 80), "(1, 2)");
    }

    #[test]
    fn prints_holes() {
        assert_eq!(print_eexp(&hole(3), 80), "?3");
    }

    #[test]
    fn prints_cons_right_associatively() {
        let e = cons(int(1), cons(int(2), nil(Typ::Int)));
        assert_eq!(print_eexp(&e, 80), "1 :: 2 :: [Int|]");
    }

    #[test]
    fn prints_iexp_closure_environment() {
        use crate::ident::{HoleName, Var};
        use crate::internal::Sigma;
        let d = IExp::EmptyHole(
            HoleName(2),
            Sigma::from_iter([(Var::new("x"), IExp::Int(5))]),
        );
        assert_eq!(print_iexp(&d, 80), "?2<x := 5>");
    }
}
