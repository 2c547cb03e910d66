//! Typing for internal expressions: `Δ; Γ ⊢ d : τ` (Sec. 4.1).
//!
//! The internal language is a contextual type theory: the hole context Δ
//! assigns each hole `u` a type and a context, `u :: τ[Γ]`, and a hole
//! closure `⦇⦈⟨u;σ⟩` is well-typed when its substitution σ maps each
//! variable of the hole's context to a well-typed term in the *current*
//! context. This module implements that judgement algorithmically; it is
//! what the executable Preservation theorem (Thm. 4.2) checks against.

use crate::internal::{IExp, Sigma};
use crate::typ::Typ;
use crate::typing::{Ctx, Delta, TypeError};

/// Synthesizes the type of internal expression `d` under `Δ; Γ`.
///
/// # Errors
///
/// Returns a [`TypeError`] if `d` is ill-typed, including when a hole
/// closure's substitution fails to cover its hole's recorded context.
pub fn syn_internal(delta: &Delta, ctx: &Ctx, d: &IExp) -> Result<Typ, TypeError> {
    use IExp::*;
    match d {
        Var(x) => ctx
            .get(x)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVar(x.clone())),
        Lam(x, t, body) => {
            let body_ty = syn_internal(delta, &ctx.extend(x.clone(), t.clone()), body)?;
            Ok(Typ::arrow(t.clone(), body_ty))
        }
        Fix(x, t, body) => {
            let body_ty = syn_internal(delta, &ctx.extend(x.clone(), t.clone()), body)?;
            if &body_ty == t {
                Ok(t.clone())
            } else {
                Err(TypeError::Mismatch {
                    expected: t.clone(),
                    found: body_ty,
                })
            }
        }
        Ap(f, a) => {
            let f_ty = syn_internal(delta, ctx, f)?;
            match f_ty {
                Typ::Arrow(dom, cod) => {
                    let a_ty = syn_internal(delta, ctx, a)?;
                    if a_ty == *dom {
                        Ok(*cod)
                    } else {
                        Err(TypeError::Mismatch {
                            expected: *dom,
                            found: a_ty,
                        })
                    }
                }
                other => Err(TypeError::NotAFunction(other)),
            }
        }
        Int(_) => Ok(Typ::Int),
        Float(_) => Ok(Typ::Float),
        Bool(_) => Ok(Typ::Bool),
        Str(_) => Ok(Typ::Str),
        Unit => Ok(Typ::Unit),
        Bin(op, a, b) => {
            let operand = op.operand_typ();
            check(delta, ctx, a, &operand)?;
            check(delta, ctx, b, &operand)?;
            Ok(op.result_typ())
        }
        If(c, t, e) => {
            check(delta, ctx, c, &Typ::Bool)?;
            let then_ty = syn_internal(delta, ctx, t)?;
            check(delta, ctx, e, &then_ty)?;
            Ok(then_ty)
        }
        Tuple(fields) => {
            let mut tys = Vec::with_capacity(fields.len());
            for (l, e) in fields {
                tys.push((l.clone(), syn_internal(delta, ctx, e)?));
            }
            Ok(Typ::Prod(tys))
        }
        Proj(scrut, l) => {
            let scrut_ty = syn_internal(delta, ctx, scrut)?;
            scrut_ty
                .field(l)
                .cloned()
                .ok_or_else(|| TypeError::BadProjection(scrut_ty.clone(), l.clone()))
        }
        Inj(sum_ty, l, payload) => {
            let payload_ty = sum_ty
                .arm(l)
                .ok_or_else(|| TypeError::BadInjection(sum_ty.clone(), l.clone()))?;
            check(delta, ctx, payload, payload_ty)?;
            Ok(sum_ty.clone())
        }
        Case(scrut, arms) => {
            let scrut_ty = syn_internal(delta, ctx, scrut)?;
            let sum_arms = match &scrut_ty {
                Typ::Sum(sum_arms) => sum_arms.clone(),
                other => return Err(TypeError::NotASum(other.clone())),
            };
            if arms.len() != sum_arms.len() {
                return Err(TypeError::InexhaustiveCase {
                    scrutinee: scrut_ty,
                });
            }
            let mut result: Option<Typ> = None;
            for arm in arms {
                let payload_ty = sum_arms
                    .iter()
                    .find(|(l, _)| l == &arm.label)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| TypeError::InexhaustiveCase {
                        scrutinee: scrut_ty.clone(),
                    })?;
                let arm_ctx = ctx.extend(arm.var.clone(), payload_ty);
                let body_ty = syn_internal(delta, &arm_ctx, &arm.body)?;
                match &result {
                    None => result = Some(body_ty),
                    Some(t) => {
                        if &body_ty != t {
                            return Err(TypeError::Mismatch {
                                expected: t.clone(),
                                found: body_ty,
                            });
                        }
                    }
                }
            }
            result.ok_or(TypeError::CannotSynthesize("a case with no arms"))
        }
        Nil(t) => Ok(Typ::list(t.clone())),
        Cons(h, t) => {
            let h_ty = syn_internal(delta, ctx, h)?;
            let list_ty = Typ::list(h_ty);
            check(delta, ctx, t, &list_ty)?;
            Ok(list_ty)
        }
        ListCase(scrut, nil, h, t, cons) => {
            let scrut_ty = syn_internal(delta, ctx, scrut)?;
            let elem_ty = match &scrut_ty {
                Typ::List(elem) => (**elem).clone(),
                other => return Err(TypeError::NotAList(other.clone())),
            };
            let nil_ty = syn_internal(delta, ctx, nil)?;
            let cons_ctx = ctx
                .extend(h.clone(), elem_ty)
                .extend(t.clone(), scrut_ty.clone());
            check(delta, &cons_ctx, cons, &nil_ty)?;
            Ok(nil_ty)
        }
        Roll(rec_ty, body) => {
            let unrolled = rec_ty
                .unroll()
                .ok_or_else(|| TypeError::NotRecursive(rec_ty.clone()))?;
            check(delta, ctx, body, &unrolled)?;
            Ok(rec_ty.clone())
        }
        Unroll(body) => {
            let rec_ty = syn_internal(delta, ctx, body)?;
            rec_ty.unroll().ok_or(TypeError::NotRecursive(rec_ty))
        }
        EmptyHole(u, sigma) => {
            let hyp = delta.get(*u).ok_or(TypeError::DuplicateHole(*u))?.clone();
            check_sigma(delta, ctx, sigma, &hyp.ctx)?;
            Ok(hyp.ty)
        }
        NonEmptyHole(u, sigma, inner) => {
            let hyp = delta.get(*u).ok_or(TypeError::DuplicateHole(*u))?.clone();
            check_sigma(delta, ctx, sigma, &hyp.ctx)?;
            // The inner expression must be well-typed at *some* type.
            let _ = syn_internal(delta, ctx, inner)?;
            Ok(hyp.ty)
        }
    }
}

fn check(delta: &Delta, ctx: &Ctx, d: &IExp, expected: &Typ) -> Result<(), TypeError> {
    let found = syn_internal(delta, ctx, d)?;
    if &found == expected {
        Ok(())
    } else {
        Err(TypeError::Mismatch {
            expected: expected.clone(),
            found,
        })
    }
}

/// Checks `σ : Γ′ ⇝ Γ`: the substitution provides a well-typed term
/// (under the ambient `Γ`) for every variable of the hole's context `Γ′`.
fn check_sigma(delta: &Delta, ctx: &Ctx, sigma: &Sigma, hole_ctx: &Ctx) -> Result<(), TypeError> {
    for (x, x_ty) in hole_ctx.iter() {
        let entry = sigma
            .get(x)
            .ok_or_else(|| TypeError::UnboundVar(x.clone()))?;
        check(delta, ctx, entry, x_ty)?;
    }
    Ok(())
}

/// Convenience: checks `Δ; Γ ⊢ d : τ` and reports mismatches.
///
/// # Errors
///
/// See [`syn_internal`].
pub fn check_internal(delta: &Delta, ctx: &Ctx, d: &IExp, expected: &Typ) -> Result<(), TypeError> {
    check(delta, ctx, d, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::elab::elab_syn;
    use crate::eval::{eval_traced, DEFAULT_FUEL};
    use crate::ident::HoleName;

    #[test]
    fn elaboration_output_is_well_typed() {
        // Theorem 4.1 on an example: Γ ⊢ e ⇝ d : τ ⊣ Δ implies Δ;Γ ⊢ d : τ.
        let e = elet("x", int(5), add(var("x"), asc(hole(0), Typ::Int)));
        let (d, ty, delta) = elab_syn(&Ctx::empty(), &e).unwrap();
        assert_eq!(syn_internal(&delta, &Ctx::empty(), &d).unwrap(), ty);
    }

    #[test]
    fn preservation_on_example() {
        // Theorem 4.2 on an example: evaluation preserves the type.
        let e = ap(
            lam("x", Typ::Int, tuple([var("x"), asc(hole(0), Typ::Bool)])),
            int(3),
        );
        let (d, ty, delta) = elab_syn(&Ctx::empty(), &e).unwrap();
        let result = eval_traced(&d, DEFAULT_FUEL).unwrap();
        assert_eq!(syn_internal(&delta, &Ctx::empty(), &result).unwrap(), ty);
    }

    #[test]
    fn hole_closure_with_missing_entry_rejected() {
        // A hole whose Δ context requires x but whose σ lacks it.
        let e = elet("x", int(1), asc(hole(0), Typ::Int));
        let (d, _, delta) = elab_syn(&Ctx::empty(), &e).unwrap();
        // Strip the σ entry for x out of the closure.
        let broken = match eval_traced(&d, DEFAULT_FUEL).unwrap() {
            IExp::EmptyHole(u, _) => IExp::EmptyHole(u, Sigma::empty()),
            other => panic!("unexpected {other:?}"),
        };
        assert!(matches!(
            syn_internal(&delta, &Ctx::empty(), &broken),
            Err(TypeError::UnboundVar(_))
        ));
    }

    #[test]
    fn unknown_hole_name_rejected() {
        let d = IExp::EmptyHole(HoleName(99), Sigma::empty());
        assert!(syn_internal(&Delta::empty(), &Ctx::empty(), &d).is_err());
    }

    #[test]
    fn sigma_entries_typed_against_hole_context() {
        // Hole typed under Γ' = {x : Int}; σ maps x to a Bool → reject.
        let e = elet("x", int(1), asc(hole(0), Typ::Int));
        let (d, _, delta) = elab_syn(&Ctx::empty(), &e).unwrap();
        let broken = match eval_traced(&d, DEFAULT_FUEL).unwrap() {
            IExp::EmptyHole(u, _) => IExp::EmptyHole(
                u,
                Sigma::from_iter([(crate::ident::Var::new("x"), IExp::Bool(true))]),
            ),
            other => panic!("unexpected {other:?}"),
        };
        assert!(matches!(
            syn_internal(&delta, &Ctx::empty(), &broken),
            Err(TypeError::Mismatch { .. })
        ));
    }
}
