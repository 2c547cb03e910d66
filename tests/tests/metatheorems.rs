//! Executable metatheorems: property-based tests of the theorems of Sec. 4,
//! quantified over seeded random well-typed programs (the Rust analogue of
//! the paper's Agda mechanization).
//!
//! - Theorem 4.1 (Typed Elaboration)
//! - Theorem 4.2 (Preservation / finality)
//! - Theorem 4.4 (Typed Expansion)
//! - Theorem 4.9 (Post-Collection Resumption)
//! - the `Exp` encoding isomorphism (Sec. 4.2.1)
//! - commutativity of evaluation and hole filling (the Thm. 4.9 linchpin)
//!
//! Each property runs over an explicit seed range (the generator in
//! `integration_tests` is fully seeded), so the suite is deterministic and
//! needs no property-testing framework.

use hazel::lang::elab::elab_syn;
use hazel::lang::eval::fill;
use hazel::lang::final_form::{is_final, is_indet, is_value};
use hazel::lang::internal_typing::syn_internal;
use hazel::lang::typing::syn;
use hazel::prelude::*;
use integration_tests::spec::{normalize, Evaluator};
use integration_tests::{on_big_stack, test_phi, Gen, GenConfig};

const FUEL: u64 = 2_000_000;
const CASES: u64 = 160;

fn eval_big(d: &IExp) -> Result<IExp, hazel::lang::eval::EvalError> {
    on_big_stack(|| Evaluator::with_fuel(FUEL).eval(d))
}

/// Theorem 4.1 (Typed Elaboration): if Γ ⊢ e : τ then e elaborates to
/// some d with Δ; Γ ⊢ d : τ.
#[test]
fn thm_4_1_typed_elaboration() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, ty) = g.program(&phi);
        // Work with the expansion (an external expression).
        let (e, e_ty, _) = hazel::core::expand_typed(&phi, &Ctx::empty(), &u)
            .expect("generated programs are well-typed");
        assert_eq!(e_ty, ty, "seed {seed}");
        // Elaboration succeeds...
        let (d, d_ty, delta) =
            elab_syn(&Ctx::empty(), &e).expect("well-typed expressions elaborate (Thm 4.1)");
        assert_eq!(d_ty, ty, "seed {seed}");
        // ...and the result is well-typed internally at the same type.
        let internal_ty = syn_internal(&delta, &Ctx::empty(), &d)
            .expect("elaboration output is internally well-typed (Thm 4.1)");
        assert_eq!(internal_ty, ty, "seed {seed}");
    }
}

/// Theorem 4.2 (Preservation): if Δ; · ⊢ d : τ and d ⇓ d′ then d′ is
/// final and Δ; · ⊢ d′ : τ.
#[test]
fn thm_4_2_preservation() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, ty) = g.program(&phi);
        let (e, _, _) = hazel::core::expand_typed(&phi, &Ctx::empty(), &u).expect("well-typed");
        let (d, _, delta) = elab_syn(&Ctx::empty(), &e).expect("elaborates");
        let result = eval_big(&d).expect("generated programs terminate");
        assert!(
            is_final(&result),
            "seed {seed}: evaluation produced a non-final result: {result:?}"
        );
        let result_ty = syn_internal(&delta, &Ctx::empty(), &result)
            .expect("result is internally well-typed (Thm 4.2)");
        assert_eq!(result_ty, ty, "seed {seed}");
    }
}

/// Theorem 4.4 (Typed Expansion): if Φ; Γ ⊢ ê ⇝ e : τ then Γ ⊢ e : τ.
#[test]
fn thm_4_4_typed_expansion() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, ty) = g.program(&phi);
        // The rewriting stage alone...
        let e = hazel::core::expand(&phi, &u).expect("expansion succeeds");
        // ...produces an external expression of the same type (Thm 4.4).
        let (found, _) = syn(&Ctx::empty(), &e)
            .expect("expansions of well-typed programs are well-typed (Thm 4.4)");
        assert_eq!(found, ty, "seed {seed}");
    }
}

/// Theorem 4.9 (Post-Collection Resumption): filling the livelit holes
/// of the evaluated cc-expansion and resuming equals evaluating the
/// full expansion from scratch.
#[test]
fn thm_4_9_post_collection_resumption() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, _ty) = g.program(&phi);
        let collection = hazel::core::collect(&phi, &u).expect("collection succeeds");
        let d1 = collection.resume_result().expect("resumption evaluates");
        let d2 = hazel::core::cc::eval_full(&phi, &u, FUEL).expect("full eval");
        // Equality holds up to normalization of residual redexes in
        // positions evaluation cannot reach (stuck-branch bodies) — see
        // `integration_tests::spec::normalize`.
        let n1 = on_big_stack(|| normalize(&d1, FUEL)).expect("normalizes");
        let n2 = on_big_stack(|| normalize(&d2, FUEL)).expect("normalizes");
        assert_eq!(n1, n2, "seed {seed}");
    }
}

/// The `Exp` encoding isomorphism (Sec. 4.2.1): decode ∘ encode = id.
#[test]
fn encoding_isomorphism() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (e, _) = g.eexp_program();
        let encoded = hazel::core::encoding::encode(&e);
        let decoded = hazel::core::encoding::decode(&encoded).expect("encodings always decode");
        assert_eq!(decoded, e, "seed {seed}");
    }
}

/// Evaluation commutes with hole filling (the paper's "key observation"
/// in the Thm. 4.9 proof): eval(fill(d)) = eval(fill(eval(d))).
#[test]
fn evaluation_commutes_with_hole_filling() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::with_config(
            seed,
            GenConfig {
                hole_pct: 25,
                livelit_pct: 0,
                ..GenConfig::default()
            },
        );
        let (u, _ty) = g.program(&phi);
        let e = u.to_eexp().expect("no livelits at 0%");
        let (d, _, delta) = elab_syn(&Ctx::empty(), &e).expect("elaborates");

        // Closed fill values for every hole, at the hole's recorded type.
        let mut filler = Gen::with_config(
            seed ^ 0xABCD,
            GenConfig {
                hole_pct: 0,
                livelit_pct: 0,
                exp_depth: 2,
                ..GenConfig::default()
            },
        );
        let phi0 = LivelitCtx::new();
        let mut fills: Vec<(HoleName, IExp)> = Vec::new();
        for (u_name, hyp) in delta.iter() {
            // Fill terms must be closed (they are spliced under binders);
            // generate under the empty context.
            let fe = filler
                .uexp(&phi0, &Ctx::empty(), &hyp.ty, 2)
                .to_eexp()
                .expect("no livelits");
            let (fd, _, _) = elab_syn(&Ctx::empty(), &fe).expect("fill elaborates");
            fills.push((*u_name, fd));
        }

        // Path A: fill everything, then evaluate.
        let mut filled = d.clone();
        for (u_name, fd) in &fills {
            filled = fill(&filled, &|u| (u == *u_name).then_some(fd));
        }
        let a = eval_big(&filled).expect("terminates");

        // Path B: evaluate first (recording closures), then fill, then
        // resume by evaluating again.
        let stuck = eval_big(&d).expect("terminates");
        let mut refilled = stuck;
        for (u_name, fd) in &fills {
            refilled = fill(&refilled, &|u| (u == *u_name).then_some(fd));
        }
        let b = eval_big(&refilled).expect("terminates");

        let na = on_big_stack(|| normalize(&a, FUEL)).expect("normalizes");
        let nb = on_big_stack(|| normalize(&b, FUEL)).expect("normalizes");
        assert_eq!(na, nb, "seed {seed}");
    }
}

/// Results classify exhaustively: every evaluation result is a value or
/// indeterminate, never both.
#[test]
fn final_classification_is_exclusive() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, _) = g.program(&phi);
        let (e, _, _) = hazel::core::expand_typed(&phi, &Ctx::empty(), &u).expect("types");
        let (d, _, _) = elab_syn(&Ctx::empty(), &e).expect("elaborates");
        let result = eval_big(&d).expect("terminates");
        assert!(
            is_value(&result) ^ is_indet(&result),
            "seed {seed}: value and indet must be exclusive and exhaustive on finals: {result:?}"
        );
    }
}

/// Programs without holes evaluate to values (holes are the only source
/// of indeterminacy).
#[test]
fn hole_free_programs_produce_values() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (e, _) = g.eexp_program();
        let (d, _, _) = elab_syn(&Ctx::empty(), &e).expect("elaborates");
        let result = eval_big(&d).expect("terminates");
        assert!(
            is_value(&result),
            "seed {seed}: hole-free result not a value: {result:?}"
        );
    }
}

/// Evaluation is deterministic.
#[test]
fn evaluation_is_deterministic() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, _) = g.program(&phi);
        let (e, _, _) = hazel::core::expand_typed(&phi, &Ctx::empty(), &u).expect("types");
        let (d, _, _) = elab_syn(&Ctx::empty(), &e).expect("elaborates");
        assert_eq!(eval_big(&d), eval_big(&d), "seed {seed}");
    }
}

/// The cc-expansion types at the same type as the full expansion —
/// the typing side of the Sec. 4.3.1 construction (the livelit hole
/// stands in for the parameterized expansion at the same type).
#[test]
fn cc_expansion_preserves_the_type() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, ty) = g.program(&phi);
        let (e_cc, omega, errors) = hazel::core::cc::cc_expand(&phi, &u);
        assert!(
            errors.is_empty(),
            "seed {seed}: cc-expansion marks nothing on well-typed programs"
        );
        let (cc_ty, _) = syn(&Ctx::empty(), &e_cc).expect("cc-expansion types");
        assert_eq!(cc_ty, ty, "seed {seed}");
        // Ω has exactly one entry per livelit invocation.
        assert_eq!(omega.len(), u.livelit_aps().len(), "seed {seed}");
    }
}

/// Print/parse round-trip on generated unexpanded programs (livelit
/// invocations included) — the Sec. 5.2 persistence property.
#[test]
fn print_parse_roundtrip() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, _) = g.program(&phi);
        for width in [30, 80, 200] {
            let printed = hazel::lang::pretty::print_uexp(&u, width);
            let reparsed = hazel::lang::parse::parse_uexp(&printed)
                .unwrap_or_else(|err| panic!("reparse at width {width}: {err}\n{printed}"));
            assert_eq!(reparsed, u, "seed {seed} width {width}:\n{printed}");
        }
    }
}
