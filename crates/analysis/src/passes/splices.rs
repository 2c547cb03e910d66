//! Splice discipline: each splice should be referenced exactly once.
//!
//! "Each splice is evaluated exactly once" (Sec. 3.2.3) is the cost and
//! effect discipline clients rely on. A splice the expansion never
//! references is *dead* — it is editable in the GUI but its edits cannot
//! change the program's meaning. A splice referenced more than once either
//! duplicates work or, under effects, duplicates effects.

use hazel_lang::external::EExp;
use hazel_lang::ident::Var;
use hazel_lang::unexpanded::LivelitAp;
use livelit_core::expansion::{expand_invocation, ExpandError, PExpansion};

use crate::analyzer::{AnalysisInput, Pass};
use crate::diagnostic::{Code, Diagnostic, Location, Severity};

/// The splice-discipline pass.
pub struct SpliceDiscipline;

impl Pass for SpliceDiscipline {
    fn name(&self) -> &'static str {
        "splice-discipline"
    }

    fn run(&self, input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
        input
            .program
            .livelit_aps()
            .into_iter()
            .flat_map(|ap| check_invocation(ap, &expand_invocation(input.phi, ap)))
            .collect()
    }
}

/// Checks the evaluated-once discipline for one invocation, given its
/// expansion (premises 1–5 of `ELivelit`), producing the `LL0101`/`LL0102`
/// diagnostics. A failed expansion has nothing to check.
pub fn check_invocation(
    ap: &LivelitAp,
    expansion: &Result<PExpansion, ExpandError>,
) -> Vec<Diagnostic> {
    let Ok(pe) = expansion else {
        return Vec::new();
    };
    let name = &ap.name;
    let mut out = Vec::new();
    for (index, count) in splice_reference_counts(&pe.pexpansion, ap.splices.len())
        .into_iter()
        .enumerate()
    {
        let location = Location::Splice {
            hole: ap.hole,
            index,
        };
        if count == 0 {
            out.push(
                Diagnostic::new(
                    Code::DeadSplice,
                    Severity::Warning,
                    location,
                    format!(
                        "splice {index} of {name} is never referenced by the expansion; \
                         edits to it cannot affect the result"
                    ),
                )
                .with_note("splices are evaluated exactly once (Sec. 3.2.3)".to_string()),
            );
        } else if count > 1 {
            out.push(
                Diagnostic::new(
                    Code::DuplicatedSplice,
                    Severity::Warning,
                    location,
                    format!(
                        "splice {index} of {name} is referenced {count} times by the \
                         expansion; splices should be referenced exactly once"
                    ),
                )
                .with_note("splices are evaluated exactly once (Sec. 3.2.3)".to_string()),
            );
        }
    }
    out
}

/// Per-splice reference counts for an invocation with `splices` splices,
/// in splice order.
///
/// The parameterized expansion has curried type `{τi}^(i<n) → τ_expand`;
/// when it is syntactically a chain of lambdas, each binder stands for
/// one splice and its free-occurrence count in the remaining body is
/// that splice's reference count. The result covers the peeled prefix
/// only: an expansion that is not a syntactic lambda chain (e.g. one
/// produced by an application) stops the peel.
fn splice_reference_counts(pexpansion: &EExp, splices: usize) -> Vec<usize> {
    let mut counts = Vec::with_capacity(splices);
    let mut term = pexpansion;
    for _ in 0..splices {
        let EExp::Lam(x, _, body) = term else {
            break;
        };
        counts.push(count_free_occurrences(body, x));
        term = body;
    }
    counts
}

/// Counts free occurrences of `x` in `e`, respecting shadowing.
fn count_free_occurrences(e: &EExp, x: &Var) -> usize {
    use EExp::*;
    match e {
        Var(y) => usize::from(y == x),
        Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) | EmptyHole(_) => 0,
        Lam(y, _, body) | Fix(y, _, body) => {
            if y == x {
                0
            } else {
                count_free_occurrences(body, x)
            }
        }
        Let(y, _, def, body) => {
            count_free_occurrences(def, x)
                + if y == x {
                    0
                } else {
                    count_free_occurrences(body, x)
                }
        }
        Ap(a, b) | Bin(_, a, b) | Cons(a, b) => {
            count_free_occurrences(a, x) + count_free_occurrences(b, x)
        }
        If(c, t, e) => {
            count_free_occurrences(c, x)
                + count_free_occurrences(t, x)
                + count_free_occurrences(e, x)
        }
        Tuple(fields) => fields
            .iter()
            .map(|(_, e)| count_free_occurrences(e, x))
            .sum(),
        Proj(e, _) | Inj(_, _, e) | Roll(_, e) | Unroll(e) | Asc(e, _) | NonEmptyHole(_, e) => {
            count_free_occurrences(e, x)
        }
        Case(scrut, arms) => {
            count_free_occurrences(scrut, x)
                + arms
                    .iter()
                    .map(|arm| {
                        if arm.var == *x {
                            0
                        } else {
                            count_free_occurrences(&arm.body, x)
                        }
                    })
                    .sum::<usize>()
        }
        ListCase(scrut, nil, h, t, cons) => {
            count_free_occurrences(scrut, x)
                + count_free_occurrences(nil, x)
                + if h == x || t == x {
                    0
                } else {
                    count_free_occurrences(cons, x)
                }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::build::*;
    use hazel_lang::typ::Typ;

    #[test]
    fn counting_respects_shadowing() {
        // fun x -> x + x counts x twice inside, but the binder shadows.
        let inner = lam("x", Typ::Int, add(var("x"), var("x")));
        assert_eq!(count_free_occurrences(&inner, &Var::new("x")), 0);
        let open = add(var("x"), var("x"));
        assert_eq!(count_free_occurrences(&open, &Var::new("x")), 2);
        let letbound = EExp::Let(Var::new("x"), None, Box::new(var("x")), Box::new(var("x")));
        // The definition occurrence is free; the body occurrence is bound.
        assert_eq!(count_free_occurrences(&letbound, &Var::new("x")), 1);
    }
}
