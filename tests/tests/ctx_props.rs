//! The persistent typing context is unobservable: over random scripts of
//! `extend` (with shadowing) on any earlier version, a [`Ctx`] agrees with
//! a `BTreeMap` model on `get`, `iter`, `vars`, `len` and `==` after every
//! step, and extending a version never changes it.
//!
//! Seeds are explicit and deterministic ([`integration_tests::XorShift`]).

use std::collections::BTreeMap;

use hazel::prelude::*;
use integration_tests::{Gen, XorShift};

const SCRIPTS: u64 = 200;
const STEPS: usize = 120;

type Model = BTreeMap<Var, Typ>;

/// Checks every read of `ctx` against `model`; `names` are the variables a
/// script can bind, so absent ones are looked up too.
fn agree(ctx: &Ctx, model: &Model, names: &[Var], at: &str) {
    assert_eq!(ctx.len(), model.len(), "{at}: len");
    assert_eq!(ctx.is_empty(), model.is_empty(), "{at}: is_empty");
    assert!(ctx.iter().eq(model.iter()), "{at}: iter");
    assert!(ctx.vars().eq(model.keys()), "{at}: vars");
    for x in names {
        assert_eq!(ctx.get(x), model.get(x), "{at}: get {x}");
    }
}

#[test]
fn persistent_ctx_agrees_with_a_map_model() {
    for seed in 0..SCRIPTS {
        let mut rng = XorShift::new(seed);
        let mut types = Gen::new(seed);
        // Few names, so most extensions shadow an existing binding; some
        // scripts use more names, so trees grow several levels deep.
        let width = if seed % 4 == 0 { 64 } else { 6 };
        let names: Vec<Var> = (0..width).map(|i| Var::new(format!("x{i}"))).collect();
        let mut versions: Vec<(Ctx, Model)> = vec![(Ctx::empty(), Model::new())];
        for step in 0..STEPS {
            let at = format!("seed {seed} step {step}");
            // Extend a random earlier version, usually the latest.
            let base = if rng.below(4) == 0 {
                rng.index(versions.len())
            } else {
                versions.len() - 1
            };
            let x = names[rng.index(names.len())].clone();
            let ty = types.typ(rng.below(3) as u32);
            let (ctx, model) = &versions[base];
            let ctx = ctx.extend(x.clone(), ty.clone());
            let mut model = model.clone();
            model.insert(x, ty);
            agree(&ctx, &model, &names, &at);

            // `==` against a random version, and against the same bindings
            // inserted in another order (a differently shaped tree).
            let (other, other_model) = &versions[rng.index(versions.len())];
            assert_eq!(ctx == *other, model == *other_model, "{at}: ==");
            let mut shuffled: Vec<(Var, Typ)> = model.clone().into_iter().collect();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.index(i + 1));
            }
            let rebuilt = Ctx::from_bindings(shuffled);
            assert_eq!(rebuilt, ctx, "{at}: == across shapes");
            assert_eq!(ctx.clone(), ctx, "{at}: == on a clone");
            versions.push((ctx, model));
        }
        // Persistence: every version still reads as it did when made.
        for (i, (ctx, model)) in versions.iter().enumerate() {
            agree(ctx, model, &names, &format!("seed {seed} version {i}"));
        }
    }
}

/// `from_bindings` keeps the last binding of a repeated variable, as
/// collecting into a map does.
#[test]
fn from_bindings_lets_later_bindings_shadow() {
    let x = Var::new("x");
    let ctx = Ctx::from_bindings([(x.clone(), Typ::Int), (x.clone(), Typ::Bool)]);
    assert_eq!(ctx.len(), 1);
    assert_eq!(ctx.get(&x), Some(&Typ::Bool));
    assert_ne!(ctx, Ctx::from_bindings([(x, Typ::Int)]));
}
