//! Language-level properties beyond the headline metatheorems: evaluation
//! idempotence, type/print round-trips, value-typing agreement, typing vs.
//! elaboration agreement, parser robustness, and layout discipline.
//!
//! All properties run over explicit seed ranges through the deterministic
//! [`integration_tests::XorShift`] generator; a richer shrinking-capable
//! fuzz pass lives behind the `proptest` feature (see `proptest_fuzz.rs`).

use hazel::lang::elab::elab_syn;
use hazel::lang::internal_typing::syn_internal;
use hazel::lang::parse::{parse_typ, parse_uexp};
use hazel::lang::pretty::{print_uexp, Doc};
use hazel::lang::typing::syn;
use hazel::prelude::*;
use integration_tests::spec::Evaluator;
use integration_tests::{on_big_stack, test_phi, Gen, GenConfig, XorShift};

const FUEL: u64 = 2_000_000;
const CASES: u64 = 120;

/// Evaluation is idempotent on results: eval(eval(d)) = eval(d).
#[test]
fn evaluation_is_idempotent() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (u, _) = g.program(&phi);
        let (e, _, _) = hazel::core::expand_typed(&phi, &Ctx::empty(), &u).expect("types");
        let (d, _, _) = elab_syn(&Ctx::empty(), &e).expect("elaborates");
        let once = on_big_stack(|| Evaluator::with_fuel(FUEL).eval(&d)).expect("terminates");
        let twice = on_big_stack(|| Evaluator::with_fuel(FUEL).eval(&once)).expect("terminates");
        assert_eq!(once, twice, "seed {seed}");
    }
}

/// Types round-trip through their surface syntax.
#[test]
fn typ_print_parse_roundtrip() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        for depth in 0..4 {
            let ty = g.typ(depth);
            let printed = ty.to_string();
            let reparsed =
                parse_typ(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
            assert_eq!(reparsed, ty, "seed {seed}");
        }
    }
}

/// `value_has_typ` agrees with the internal type system on evaluation
/// results that are values.
#[test]
fn value_typing_agrees_with_internal_typing() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (e, ty) = g.eexp_program();
        let (d, _, delta) = elab_syn(&Ctx::empty(), &e).expect("elaborates");
        let result = on_big_stack(|| Evaluator::with_fuel(FUEL).eval(&d)).expect("terminates");
        // Hole-free results are values...
        assert!(hazel::lang::final_form::is_value(&result), "seed {seed}");
        // ...and the first-order ones satisfy value_has_typ exactly when
        // internal typing agrees (functions are not "serializable values",
        // so skip results containing lambdas).
        let first_order = hazel::lang::value::iexp_value_to_eexp(&result).is_some();
        if first_order {
            assert!(
                hazel::lang::value::value_has_typ(&result, &ty),
                "seed {seed}"
            );
            let internal = syn_internal(&delta, &Ctx::empty(), &result).expect("types");
            assert_eq!(internal, ty, "seed {seed}");
        }
    }
}

/// Elaboration types exactly like typing: on random programs, well-typed or
/// not, `elab_syn` synthesizes the type `syn` does and fails with the same
/// error — so closure collection can take τ from its one elaboration pass.
#[test]
fn elaboration_agrees_with_typing() {
    let phi = test_phi();
    let mut ill_typed = 0;
    for seed in 0..CASES {
        let mut g = Gen::with_config(
            seed,
            GenConfig {
                livelit_pct: 0,
                ..GenConfig::default()
            },
        );
        let (program, _) = g.program(&phi);
        // Replace one random subterm by an unbound variable or by a closed
        // term of a random type, which usually breaks typing.
        let mut nodes = 0u64;
        let _ = program.map(&mut |e| {
            nodes += 1;
            e
        });
        let target = 1 + XorShift::new(seed ^ 0xE1AB).below(nodes);
        let mut at = 0u64;
        let mutated = program.map(&mut |e| {
            at += 1;
            if at != target {
                e
            } else if seed % 3 == 0 {
                UExp::Var(Var::new("unbound"))
            } else {
                let ty = g.typ(1);
                g.uexp(&phi, &Ctx::empty(), &ty, 2)
            }
        });
        let e = mutated.to_eexp().expect("no livelits");
        let typed = syn(&Ctx::empty(), &e).map(|(ty, _)| ty);
        let elaborated = elab_syn(&Ctx::empty(), &e).map(|(_, ty, _)| ty);
        ill_typed += u32::from(typed.is_err());
        assert_eq!(elaborated, typed, "seed {seed}: {mutated}");
    }
    assert!(ill_typed >= CASES as u32 / 4, "only {ill_typed} ill-typed");
}

/// The parser never panics on arbitrary printable garbage.
#[test]
fn parser_is_panic_free() {
    let mut rng = XorShift::new(0xF00D);
    for _ in 0..500 {
        let len = rng.index(81);
        let src: String = (0..len)
            .map(|_| {
                // Printable ASCII plus a sprinkling of multibyte chars.
                match rng.below(20) {
                    0 => 'λ',
                    1 => '→',
                    2 => '⊢',
                    _ => char::from(32 + rng.below(95) as u8),
                }
            })
            .collect();
        let _ = parse_uexp(&src);
        let _ = parse_typ(&src);
    }
}

/// The parser never panics on inputs built from the language's own
/// token vocabulary (denser than uniformly random strings).
#[test]
fn parser_is_panic_free_on_tokens() {
    const TOKENS: [&str; 24] = [
        "let", "in", "fun", "->", ":", "Int", "(", ")", "[", "]", "|", "$x", "@", "{", "}", "?",
        "1", "x", "+", ".", "\"", "case", "end", "::",
    ];
    let mut rng = XorShift::new(0xBEEF);
    for _ in 0..500 {
        let n = rng.index(25);
        let src = (0..n)
            .map(|_| TOKENS[rng.index(TOKENS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = parse_uexp(&src);
    }
}

/// Layout discipline: when a flat rendering would fit the width budget,
/// the pretty printer produces a single line; groups only break when
/// they must (Sec. 5.3's character-count discipline).
#[test]
fn printer_uses_one_line_when_it_fits() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::with_config(
            seed,
            GenConfig {
                exp_depth: 2,
                ..GenConfig::default()
            },
        );
        let (u, _) = g.program(&phi);
        let flat = print_uexp(&u, usize::MAX);
        if !flat.contains('\n') {
            let within = print_uexp(&u, flat.chars().count());
            assert_eq!(within, flat, "seed {seed}: breaking despite fitting");
        }
    }
}

/// Substitution does not change hole names, only environments.
#[test]
fn substitution_preserves_hole_names() {
    let phi = test_phi();
    for seed in 0..CASES {
        let mut g = Gen::with_config(
            seed,
            GenConfig {
                hole_pct: 30,
                livelit_pct: 0,
                ..GenConfig::default()
            },
        );
        let (u, _) = g.program(&phi);
        let e = u.to_eexp().expect("no livelits");
        let (d, _, _) = elab_syn(&Ctx::empty(), &e).expect("elaborates");
        let result = on_big_stack(|| Evaluator::with_fuel(FUEL).eval(&d)).expect("terminates");
        let before: std::collections::BTreeSet<HoleName> =
            d.hole_closures().iter().map(|(u, _)| *u).collect();
        let after: std::collections::BTreeSet<HoleName> =
            result.hole_closures().iter().map(|(u, _)| *u).collect();
        // Evaluation can drop holes (untaken branches) but never invent
        // names.
        assert!(
            after.is_subset(&before),
            "seed {seed}: {after:?} ⊄ {before:?}"
        );
    }
}

#[test]
fn doc_engine_renders_deterministically() {
    // The Doc layout engine is deterministic and honors nest/group
    // interactions on a handcrafted document.
    let doc = Doc::text("let x =")
        .concat(
            Doc::line()
                .concat(Doc::text("aaaa"))
                .concat(Doc::line())
                .concat(Doc::text("bbbb"))
                .nest(2),
        )
        .group();
    assert_eq!(doc.render(80), "let x = aaaa bbbb");
    assert_eq!(doc.render(10), "let x =\n  aaaa\n  bbbb");
    assert_eq!(doc.render(10), doc.render(10));
}

#[test]
fn width_budgets_are_respected_where_possible() {
    // Every line of a narrow rendering fits the budget unless a single
    // token exceeds it.
    let phi = test_phi();
    for seed in 0..30 {
        let mut g = Gen::new(seed);
        let (u, _) = g.program(&phi);
        for width in [30usize, 50] {
            let out = print_uexp(&u, width);
            for line in out.lines() {
                let len = line.chars().count();
                if len > width {
                    // Permissible only if the line is one unbreakable
                    // token chain (no break opportunities) — approximated
                    // by checking the overflow line has no spaces after
                    // its indentation that the printer could break at.
                    // Long atoms (strings, livelit heads) cause these.
                    let trimmed = line.trim_start();
                    assert!(
                        trimmed.len() > width / 2,
                        "seed {seed} width {width}: overly long line {line:?}"
                    );
                }
            }
        }
    }
}
