//! The interned pipeline must be bit-identical to the seed tree pipeline.
//!
//! The hash-consed `TermStore` re-implements substitution (path-copying
//! with free-variable skipping and a memo table), the environment machine
//! evaluates over it, and the expansion cache short-circuits premises 2–5
//! of `ELivelit`. None of that may be observable: over seeded random
//! programs, parse → expand → elaborate → closure collection → live
//! splice evaluation must produce results identical to the seed
//! semantics, including the recorded σ inside hole closures (`IExp`
//! equality on results compares closures structurally). The machine's
//! agreement with the tree evaluator on the same programs (values, σ and
//! error classes, plus its own fuel boundary) is `machine_props`' subject.

use hazel::core::{eval_splice, eval_splice_in_env};
use hazel::lang::elab::elab_syn;
use hazel::lang::eval::DEFAULT_FUEL;
use hazel::lang::TermStore;
use hazel::prelude::*;
use integration_tests::{on_big_stack, test_phi, Gen, GenConfig};

const CASES: u64 = 60;

fn gen_full(seed: u64) -> Gen {
    // Holes *and* livelits: holes exercise σ recording in closures, the
    // livelits exercise expansion and collection.
    Gen::with_config(
        seed,
        GenConfig {
            exp_depth: 4,
            hole_pct: 15,
            livelit_pct: 25,
            typ_depth: 2,
        },
    )
}

/// Expands and elaborates a generated program, or `None` when the random
/// program fails a pipeline stage (both pipelines share these stages, so
/// nothing interned is being skipped).
fn elaborated(phi: &LivelitCtx, program: &UExp) -> Option<IExp> {
    let (expanded, _, _) = expand_typed(phi, &Ctx::empty(), program).ok()?;
    let (d, _, _) = elab_syn(&Ctx::empty(), &expanded).ok()?;
    Some(d)
}

#[test]
fn interning_a_program_roundtrips_and_is_deterministic() {
    let phi = test_phi();
    for seed in 0..CASES {
        let (program, _) = gen_full(seed).program(&phi);
        let Some(d) = elaborated(&phi, &program) else {
            continue;
        };
        let mut a = TermStore::new();
        let mut b = TermStore::new();
        let ta = a.intern_iexp(&d);
        let tb = b.intern_iexp(&d);
        assert_eq!(ta, tb, "seed {seed}: interning is order/store dependent");
        assert_eq!(a.to_iexp(ta), d, "seed {seed}: roundtrip changed the term");
        // Re-interning the roundtripped tree is a no-op.
        let before = a.len();
        assert_eq!(a.intern_iexp(&a.to_iexp(ta).clone()), ta);
        assert_eq!(
            a.len(),
            before,
            "seed {seed}: roundtrip re-intern grew the store"
        );
    }
}

#[test]
fn expansion_cache_is_observationally_transparent() {
    // The same Φ expands every program twice: the second pass is served
    // from the expansion cache and must be indistinguishable, and both
    // must equal a cold Φ built from scratch... which is only possible to
    // state per-Φ-instance, since definitions carry identity. So: warm
    // vs. cold runs of the full judgement must agree exactly.
    let warm_phi = test_phi();
    for seed in 0..CASES {
        let (program, _) = gen_full(seed).program(&warm_phi);
        let first = expand_typed(&warm_phi, &Ctx::empty(), &program).map_err(|e| e.to_string());
        let second = expand_typed(&warm_phi, &Ctx::empty(), &program).map_err(|e| e.to_string());
        assert_eq!(first, second, "seed {seed}: cached expansion diverges");
        let cold_phi = test_phi();
        let cold = expand_typed(&cold_phi, &Ctx::empty(), &program).map_err(|e| e.to_string());
        assert_eq!(first, cold, "seed {seed}: warm and cold Φ diverge");
    }
}

/// Collects every livelit invocation in a program.
fn invocations(e: &UExp) -> Vec<LivelitAp> {
    let mut aps = Vec::new();
    let _ = e.map(&mut |n| {
        if let UExp::Livelit(ap) = &n {
            aps.push((**ap).clone());
        }
        n
    });
    aps
}

#[test]
fn interned_live_splice_eval_matches_seed_path() {
    // eval_splice (the interned fast path over the collection's shared
    // term store) against eval_splice_in_env (the unbatched reference
    // path: tree-level σ realization, then one `eval_traced`), for
    // every collected closure of every invocation and every one of its
    // splices — results, indeterminacy classification, absence (`None`),
    // and errors must all agree.
    let phi = test_phi();
    let mut compared = 0u32;
    for seed in 0..CASES {
        let (program, _) = gen_full(seed).program(&phi);
        let Ok(collection) = collect(&phi, &program) else {
            continue;
        };
        for ap in invocations(&program) {
            let Some(hyp) = collection.delta.get(ap.hole) else {
                continue;
            };
            let n_envs = collection.envs_for(ap.hole).len();
            for i in 0..n_envs {
                for splice in &ap.splices {
                    let fast = eval_splice(&phi, &collection, ap.hole, i, &splice.exp, &splice.ty);
                    let sigma = &collection.envs_for(ap.hole)[i];
                    let reference = eval_splice_in_env(
                        &phi,
                        &hyp.ctx,
                        sigma,
                        &splice.exp,
                        &splice.ty,
                        DEFAULT_FUEL,
                    );
                    assert_eq!(
                        fast, reference,
                        "seed {seed}, hole {:?}, env {i}: live paths diverge",
                        ap.hole
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(
        compared > 50,
        "property vacuous: only {compared} splice evaluations compared"
    );
}

#[test]
fn resume_result_matches_full_evaluation_through_the_store() {
    // Theorem 4.9 end-to-end, with both sides running the environment
    // machine internally: fill-and-resume equals expand-then-evaluate.
    // As in the seed metatheorem test, equality holds up to normalization
    // of residual redexes in positions evaluation cannot reach.
    use integration_tests::spec::normalize;
    let phi = test_phi();
    for seed in 0..CASES {
        let (program, _) = gen_full(seed).program(&phi);
        let Ok(collection) = collect(&phi, &program) else {
            continue;
        };
        let resumed = collection.resume_result();
        let full = hazel::core::cc::eval_full(&phi, &program, DEFAULT_FUEL);
        match (resumed, full) {
            (Ok(d1), Ok(d2)) => {
                let n1 = on_big_stack(|| normalize(&d1, DEFAULT_FUEL)).expect("normalizes");
                let n2 = on_big_stack(|| normalize(&d2, DEFAULT_FUEL)).expect("normalizes");
                assert_eq!(n1, n2, "seed {seed}: resumption diverges");
            }
            (r, f) => assert_eq!(
                r.is_ok(),
                f.is_ok(),
                "seed {seed}: one path fails where the other succeeds"
            ),
        }
    }
}
