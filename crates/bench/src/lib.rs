//! Workload builders shared by the benchmark harness (see EXPERIMENTS.md
//! for the experiment index B1–B13 the `livelit-bench` binary regenerates;
//! `livelit-bench --only Bn` runs a single experiment).

use hazel::lang::build;
use hazel::lang::unexpanded::{LivelitAp, Splice};
use hazel::prelude::*;

/// A livelit context with `$sum2` (two Int splices → their sum) and a
/// family of "wide" livelits `$wideK` with `K` Int splices.
pub fn bench_phi(widths: &[usize]) -> LivelitCtx {
    let mut phi = LivelitCtx::new();
    phi.define(LivelitDef::native(
        "$sum2",
        vec![],
        Typ::Int,
        Typ::Unit,
        |_| {
            Ok(build::lams(
                [("a", Typ::Int), ("b", Typ::Int)],
                build::add(build::var("a"), build::var("b")),
            ))
        },
    ))
    .expect("well-formed");
    for &k in widths {
        phi.define(LivelitDef::native(
            format!("$wide{k}"),
            vec![],
            Typ::Int,
            Typ::Unit,
            move |_| {
                let params: Vec<(String, Typ)> =
                    (0..k).map(|i| (format!("s{i}"), Typ::Int)).collect();
                let body = (1..k).fold(build::var("s0"), |acc, i| {
                    build::add(acc, build::var(&format!("s{i}")))
                });
                Ok(params
                    .into_iter()
                    .rev()
                    .fold(body, |acc, (x, t)| build::lam(&x, t, acc)))
            },
        ))
        .expect("well-formed");
    }
    phi
}

/// A `$sum2` invocation over two literal splices.
pub fn sum2_invocation(hole: u64) -> UExp {
    UExp::Livelit(Box::new(LivelitAp {
        name: LivelitName::new("$sum2"),
        model: IExp::Unit,
        splices: vec![
            Splice::new(UExp::Int(hole as i64), Typ::Int),
            Splice::new(UExp::Int(1), Typ::Int),
        ],
        hole: HoleName(hole),
    }))
}

/// A `$wideK` invocation with `k` literal splices.
pub fn wide_invocation(k: usize, hole: u64) -> UExp {
    UExp::Livelit(Box::new(LivelitAp {
        name: LivelitName::new(format!("$wide{k}")),
        model: IExp::Unit,
        splices: (0..k)
            .map(|i| Splice::new(UExp::Int(i as i64), Typ::Int))
            .collect(),
        hole: HoleName(hole),
    }))
}

/// A program with `n` livelit invocations summed together:
/// `$sum2(...) + $sum2(...) + ...`.
pub fn many_invocations(n: usize) -> UExp {
    (1..n).fold(sum2_invocation(0), |acc, i| {
        UExp::Bin(
            BinOp::Add,
            Box::new(acc),
            Box::new(sum2_invocation(i as u64)),
        )
    })
}

/// A program with `n` let bindings in scope at a single `$sum2` invocation
/// whose splice references the innermost binding — closure environments of
/// size `n`.
pub fn deep_scope_invocation(n: usize) -> UExp {
    let splice = Splice::new(UExp::Var(Var::new(format!("x{}", n - 1))), Typ::Int);
    let inv = UExp::Livelit(Box::new(LivelitAp {
        name: LivelitName::new("$sum2"),
        model: IExp::Unit,
        splices: vec![splice, Splice::new(UExp::Int(1), Typ::Int)],
        hole: HoleName(0),
    }));
    (0..n).rev().fold(inv, |acc, i| {
        UExp::Let(
            Var::new(format!("x{i}")),
            None,
            Box::new(UExp::Int(i as i64)),
            Box::new(acc),
        )
    })
}

/// A program that performs `n` units of real evaluation work (a recursive
/// sum from `n` down to 0) and then uses the result in a `$sum2` splice —
/// the workload where fill-and-resume (Sec. 4.3.2) pays off versus full
/// re-evaluation.
pub fn expensive_then_livelit(n: i64) -> UExp {
    use hazel::lang::parse::parse_uexp;
    let src = format!(
        "let rec sum_to : Int -> Int = fun k : Int -> \
           if k <= 0 then 0 else k + sum_to (k - 1) in \
         let heavy = sum_to {n} in \
         $sum2@0{{()}}(heavy : Int; 1 : Int)"
    );
    parse_uexp(&src).expect("workload parses")
}

/// A generated external expression of roughly the requested size, for
/// layout and encoding benchmarks.
pub fn sized_program(seed: u64, target_nodes: usize) -> EExp {
    use integration_tests::{Gen, GenConfig};
    let mut depth = 3;
    loop {
        let mut g = Gen::with_config(
            seed,
            GenConfig {
                exp_depth: depth,
                hole_pct: 0,
                livelit_pct: 0,
                typ_depth: 2,
            },
        );
        let (e, _) = g.eexp_program();
        if e.size() >= target_nodes || depth >= 10 {
            return e;
        }
        depth += 1;
    }
}

/// An internal expression with `n` nested redexes:
/// `(λx_n. x_n + (λx_{n-1}. x_{n-1} + (... 0 ...)) (n-1)) n`.
///
/// Each β-reduction substitutes into a body whose tail is the entire
/// remaining chain, so a tree-copying substitution does O(n) work per redex
/// — O(n²) total — while the term store's free-variable mask sees the tail
/// is closed and skips it, for O(n) total. This is the B11 workload.
pub fn deep_redex_chain(n: usize) -> IExp {
    (1..=n).fold(IExp::Int(0), |acc, i| {
        let x = Var::new(format!("x{i}"));
        IExp::Ap(
            Box::new(IExp::Lam(
                x.clone(),
                Typ::Int,
                Box::new(IExp::Bin(BinOp::Add, Box::new(IExp::Var(x)), Box::new(acc))),
            )),
            Box::new(IExp::Int(i as i64)),
        )
    })
}

/// An internal expression with `n` nested redexes whose bodies each bury
/// `k` occurrences of the bound variable under a branch that is never
/// taken: `(λx. x + (if x < 0 then x + x + ... + x else acc)) i`.
///
/// Substitution-based evaluators rewrite eagerly, so every β-step must
/// path-copy (and re-intern, for the store) the dead `k`-node payload —
/// O(n·k) work that produces nothing. The environment machine just binds
/// `x` in the live environment and never decodes the untaken branch, so
/// its cost is O(n) regardless of `k`. Every lambda binds the same
/// variable, which keeps the hash-consed input small: the payload interns
/// once and the whole term is O(n + k) distinct nodes. This is the B18
/// workload; the evaluated result is `Σ 1..=n`, as in [`deep_redex_chain`].
pub fn deep_guarded_chain(n: usize, k: usize) -> IExp {
    let x = Var::new("x");
    let payload = (1..k).fold(IExp::Var(x.clone()), |acc, _| {
        IExp::Bin(BinOp::Add, Box::new(IExp::Var(x.clone())), Box::new(acc))
    });
    (1..=n).fold(IExp::Int(0), |acc, i| {
        let dead = IExp::If(
            Box::new(IExp::Bin(
                BinOp::Lt,
                Box::new(IExp::Var(x.clone())),
                Box::new(IExp::Int(0)),
            )),
            Box::new(payload.clone()),
            Box::new(acc),
        );
        IExp::Ap(
            Box::new(IExp::Lam(
                x.clone(),
                Typ::Int,
                Box::new(IExp::Bin(
                    BinOp::Add,
                    Box::new(IExp::Var(x.clone())),
                    Box::new(dead),
                )),
            )),
            Box::new(IExp::Int(i as i64)),
        )
    })
}

/// A view tree with `n` leaf nodes for diff benchmarks.
pub fn sized_view(n: usize) -> hazel::mvu::Html<u32> {
    use hazel::mvu::html::tags::div;
    use hazel::mvu::Html;
    let rows: Vec<Html<u32>> = (0..n)
        .map(|i| {
            Html::node(
                "tr",
                vec![
                    Html::text(format!("cell-{i}")),
                    Html::text(format!("{}", i * 7 % 100)),
                ],
            )
        })
        .collect();
    div(rows)
}

/// `sized_view` with the text of row `edit` changed — a localized edit.
pub fn sized_view_edited(n: usize, edit: usize) -> hazel::mvu::Html<u32> {
    use hazel::mvu::Html;
    let mut view = sized_view(n);
    if let Html::Element { children, .. } = &mut view {
        if let Some(Html::Element { children: row, .. }) = children.get_mut(edit) {
            row[1] = Html::text("EDITED");
        }
    }
    view
}
