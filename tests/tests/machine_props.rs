//! The environment machine must be unobservable: it must agree with the
//! substitution-based tree evaluator, the spec oracle, on everything but
//! cost.
//!
//! `MachineEvaluator` replaces substitution with persistent environments
//! and Rust recursion with an explicit frame stack. None of that may be
//! observable: over seeded random programs *and* adversarial hand-rolled
//! internal terms (free variables, division by zero, ill-typed
//! applications, unguarded recursion), the machine must agree with the
//! tree evaluator on values, recorded σ environments and the `EvalError`
//! taxonomy. The two count fuel in different units (tree steps, machine
//! transitions), so fuel exhaustion is compared only as an outcome: a
//! divergent term runs out on both sides. The machine's own fuel
//! contract is exact: a budget of `F` transitions either suffices, and
//! then the result is unchanged, or stops the run after `F + 1`.

use hazel::core::eval_splice;
use hazel::lang::elab::elab_syn;
use hazel::lang::eval::{EvalError, DEFAULT_FUEL};
use hazel::lang::machine::MachineEvaluator;
use hazel::lang::TermStore;
use hazel::prelude::*;
use hazel::trace::{Counter, StatsSink, Tracer};
use integration_tests::spec::Evaluator;
use integration_tests::{on_big_stack, test_phi, Gen, GenConfig, XorShift};

const CASES: u64 = 60;

fn gen_full(seed: u64) -> Gen {
    // Same population as the store property suite: holes exercise σ
    // recording, livelits exercise expansion, collection, and splices.
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
/// program fails a shared pipeline stage.
fn elaborated(phi: &LivelitCtx, program: &UExp) -> Option<IExp> {
    let (expanded, _, _) = expand_typed(phi, &Ctx::empty(), program).ok()?;
    let (d, _, _) = elab_syn(&Ctx::empty(), &expanded).ok()?;
    Some(d)
}

/// Runs the machine on `d` with the given fuel: its outcome and the
/// transitions it used.
fn run_machine(d: &IExp, fuel: u64) -> (Result<IExp, EvalError>, u64) {
    let mut store = TermStore::new();
    let t = store.intern_iexp(d);
    let mut machine = MachineEvaluator::with_fuel(&mut store, fuel);
    let result = machine.eval(t);
    let transitions = machine.counters().transitions;
    (result.map(|r| store.to_iexp(r)), transitions)
}

#[test]
fn machine_matches_tree_on_random_programs() {
    let phi = test_phi();
    let mut compared = 0u32;
    for seed in 0..CASES {
        let (program, _) = gen_full(seed).program(&phi);
        let Some(d) = elaborated(&phi, &program) else {
            continue;
        };
        let tree = Evaluator::with_fuel(DEFAULT_FUEL).eval(&d);
        let (machined, _) = run_machine(&d, DEFAULT_FUEL);
        assert_eq!(machined, tree, "seed {seed}: machine vs tree diverge");
        // Hole closures — σ included — agree exactly.
        if let (Ok(a), Ok(b)) = (&tree, &machined) {
            assert_eq!(
                a.hole_closures(),
                b.hole_closures(),
                "seed {seed}: σ diverge"
            );
        }
        compared += 1;
    }
    assert!(
        u64::from(compared) >= CASES / 2,
        "only {compared} programs compared"
    );
}

/// An adversarial internal-term generator: unlike `Gen`, which produces
/// well-typed programs, this produces terms with free variables, holes
/// whose σ entries are open, ill-typed redexes (applying an integer,
/// branching on a list), division by zero, and unguarded `fix` — the
/// populations where the error taxonomy and fuel exhaustion must agree.
fn gen_adversarial(rng: &mut XorShift, depth: u32) -> IExp {
    let vars = ["a", "b", "c"];
    if depth == 0 {
        return match rng.below(6) {
            0 => IExp::Int(rng.range(-3, 4)),
            1 => IExp::Bool(rng.bool()),
            2 => IExp::Var(Var::new(vars[rng.index(vars.len())])),
            3 => IExp::EmptyHole(
                HoleName(rng.below(4)),
                Sigma::identity([&Var::new(vars[rng.index(vars.len())])]),
            ),
            4 => IExp::Nil(Typ::Int),
            _ => IExp::Unit,
        };
    }
    let sub = |rng: &mut XorShift| Box::new(gen_adversarial(rng, depth - 1));
    match rng.below(12) {
        0 => {
            let op = [BinOp::Add, BinOp::Div, BinOp::Le, BinOp::Mul][rng.index(4)];
            IExp::Bin(op, sub(rng), sub(rng))
        }
        1 => IExp::If(sub(rng), sub(rng), sub(rng)),
        2 => IExp::Ap(sub(rng), sub(rng)),
        3 => IExp::Lam(Var::new(vars[rng.index(vars.len())]), Typ::Int, sub(rng)),
        4 => IExp::Fix(
            Var::new(vars[rng.index(vars.len())]),
            Typ::arrow(Typ::Int, Typ::Int),
            sub(rng),
        ),
        5 => IExp::Cons(sub(rng), sub(rng)),
        6 => IExp::ListCase(
            sub(rng),
            sub(rng),
            Var::new("h"),
            Var::new("t"),
            Box::new(gen_adversarial(rng, depth - 1)),
        ),
        7 => IExp::NonEmptyHole(HoleName(rng.below(4)), Sigma::empty(), sub(rng)),
        8 => IExp::Bin(BinOp::Div, sub(rng), Box::new(IExp::Int(0))),
        9 => IExp::Ap(Box::new(IExp::Int(3)), sub(rng)),
        10 => IExp::Tuple(vec![
            (Label::new("l"), gen_adversarial(rng, depth - 1)),
            (Label::new("r"), gen_adversarial(rng, depth - 1)),
        ]),
        _ => IExp::Proj(sub(rng), Label::new("l")),
    }
}

/// Tree fuel for the adversarial agreement check, in tree steps.
const TREE_FUEL: u64 = 5_000;
/// Machine fuel for the same check, in transitions: ample for every term
/// the tree finishes within [`TREE_FUEL`].
const MACHINE_FUEL: u64 = 100_000;

#[test]
fn machine_agrees_on_adversarial_terms_at_tiny_and_large_fuels() {
    // The recursive tree *oracle* needs a big stack for unguarded fix at
    // fuel 5000 — the machine itself does not (see
    // `deep_redex_evaluates_on_a_small_stack`).
    on_big_stack(machine_agrees_on_adversarial_terms_body);
}

fn machine_agrees_on_adversarial_terms_body() {
    let mut out_of_fuel_seen = 0u32;
    let mut errors_seen = 0u32;
    for seed in 0..200u64 {
        let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(17));
        let d = gen_adversarial(&mut rng, 4);
        // Agreement under ample fuel: same value, σ and error, and a
        // divergent term runs out of fuel on both sides.
        let tree = Evaluator::with_fuel(TREE_FUEL).eval(&d);
        let (machined, used) = run_machine(&d, MACHINE_FUEL);
        assert_eq!(
            machined, tree,
            "seed {seed}: machine vs tree diverge on {d:?}"
        );
        match &machined {
            Err(EvalError::OutOfFuel) => out_of_fuel_seen += 1,
            Err(_) => errors_seen += 1,
            Ok(_) => {}
        }
        // The fuel boundary: a budget of `fuel` transitions leaves a run
        // that fits unchanged and stops any other after `fuel + 1`.
        for fuel in [5u64, 50, 5_000] {
            let (at_fuel, used_at_fuel) = run_machine(&d, fuel);
            if used <= fuel {
                assert_eq!(at_fuel, machined, "seed {seed} fuel {fuel}");
                assert_eq!(used_at_fuel, used, "seed {seed} fuel {fuel}");
            } else {
                assert_eq!(
                    at_fuel,
                    Err(EvalError::OutOfFuel),
                    "seed {seed} fuel {fuel}"
                );
                assert_eq!(used_at_fuel, fuel + 1, "seed {seed} fuel {fuel}");
            }
        }
    }
    // The generator must actually exercise the error taxonomy.
    assert!(out_of_fuel_seen > 0, "no OutOfFuel cases generated");
    assert!(errors_seen > 0, "no typed-error cases generated");
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
fn repeated_splice_evaluation_misses_the_splice_cache_once() {
    let phi = test_phi();
    // let baseline = 57 in $sum2(baseline + 50, 1) — one livelit with a
    // splice that uses a client variable, so evaluation is non-trivial.
    let program = UExp::Let(
        Var::new("baseline"),
        None,
        Box::new(UExp::Int(57)),
        Box::new(UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$sum2"),
            model: IExp::Unit,
            splices: vec![
                Splice::new(
                    UExp::Bin(
                        BinOp::Add,
                        Box::new(UExp::Var(Var::new("baseline"))),
                        Box::new(UExp::Int(50)),
                    ),
                    Typ::Int,
                ),
                Splice::new(UExp::Int(1), Typ::Int),
            ],
            hole: HoleName(0),
        }))),
    );
    let collection = collect(&phi, &program).expect("fixed program collects");
    let mut checked = 0u32;
    for ap in invocations(&program) {
        if collection.envs_for(ap.hole).is_empty() {
            continue;
        }
        for splice in &ap.splices {
            let sink = StatsSink::new();
            let tracer = Tracer::deterministic(sink.clone());
            let _guard = hazel::trace::install(&tracer);
            // The first evaluation misses; the repeats must hit, since the
            // key is (interned splice, σ id).
            let first = eval_splice(&phi, &collection, ap.hole, 0, &splice.exp, &splice.ty);
            let second = eval_splice(&phi, &collection, ap.hole, 0, &splice.exp, &splice.ty);
            let third = eval_splice(&phi, &collection, ap.hole, 0, &splice.exp, &splice.ty);
            assert_eq!(
                first, second,
                "a cache hit must return the evaluated result"
            );
            assert_eq!(first, third, "a cache hit must return the evaluated result");
            let stats = sink.snapshot();
            assert_eq!(
                stats.counter(Counter::SpliceCacheMisses),
                1,
                "repeated evaluation missed the splice cache more than once"
            );
            assert_eq!(stats.counter(Counter::SpliceCacheHits), 2);
            checked += 1;
        }
        break;
    }
    assert!(checked > 0, "no splice was exercised");
}

#[test]
fn deep_redex_evaluates_on_a_small_stack() {
    // A 10k-deep application chain: (λx. x + 10000) ((λx. x + 9999) (…
    // (λx. x + 1) 0 …)). The tree evaluator needs a big-stack thread
    // for this; the machine's control state lives on its frame
    // arena, so a 64 KiB thread stack must suffice.
    let depth: i64 = 10_000;
    let built = std::thread::Builder::new()
        .stack_size(64 * 1024)
        .spawn(move || {
            use hazel::lang::store::Node;
            let mut store = TermStore::new();
            let mut term = store.intern(Node::Int(0));
            for k in 1..=depth {
                let lam = {
                    let x = store.intern_var(&Var::new("x"));
                    let body = {
                        let vx = store.intern(Node::Var(x));
                        let kk = store.intern(Node::Int(k));
                        store.intern(Node::Bin(BinOp::Add, vx, kk))
                    };
                    store.intern(Node::Lam(x, Typ::Int, body))
                };
                term = store.intern(Node::Ap(lam, term));
            }
            let mut machine = MachineEvaluator::with_fuel(&mut store, DEFAULT_FUEL);
            let result = machine.eval(term).expect("deep redex evaluates");
            store.to_iexp(result)
        })
        .expect("spawn small-stack thread")
        .join()
        .expect("machine must not overflow a 64 KiB stack");
    assert_eq!(built, IExp::Int((1..=depth).sum()));
}
