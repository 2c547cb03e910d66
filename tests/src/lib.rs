//! Shared infrastructure for the integration test suite: seeded random
//! generators of well-typed programs (with holes and livelit invocations)
//! used by the executable-metatheorem tests and the benchmark harness.
//!
//! The generators are *type-directed*: [`Gen::uexp`] produces an unexpanded
//! expression that synthesizes a requested type under a requested context,
//! by construction. Holes appear as ascribed empty holes (so they
//! synthesize anywhere), livelit invocations are drawn from the test
//! livelit context of [`test_phi`], and generated programs avoid partial
//! operations (`/`) and general recursion so they always evaluate to a
//! final result.
//!
//! Randomness comes from a self-contained xorshift generator ([`XorShift`])
//! rather than the `rand` crate, so the suite builds with no network access.

use std::collections::BTreeMap;

use hazel::lang::external::EExp;
use hazel::lang::unexpanded::{Splice, UCaseArm};
use hazel::prelude::*;

/// A small, deterministic xorshift64* pseudo-random generator.
///
/// Quality is far beyond what type-directed program generation needs, the
/// stream is stable across platforms and Rust versions (unlike `StdRng`),
/// and it keeps the test suite free of external dependencies.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Creates a generator from a seed. Any seed is fine, including 0
    /// (seeds are scrambled through a splitmix64 step first).
    pub fn new(seed: u64) -> XorShift {
        // One splitmix64 round guarantees a nonzero internal state and
        // decorrelates consecutive seeds.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniform index into a slice of length `len` (`len` must be nonzero).
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// A uniform value in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Runs `f` on a scoped thread with a 512 MiB stack and returns its result.
///
/// The tree evaluator (the spec oracle the suites compare against) and
/// `normalize` recurse on redex depth; generated programs and adversarial
/// terms can recurse deeper than a test thread's default stack allows.
/// Production code never needs this: it evaluates on the environment
/// machine, whose control state lives on an explicit frame arena.
///
/// # Panics
///
/// Panics if the thread cannot be spawned, or propagates a panic from `f`.
pub fn on_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(512 * 1024 * 1024)
            .spawn_scoped(scope, f)
            .expect("spawn big-stack thread")
            .join()
            .expect("big-stack thread panicked")
    })
}

/// The legacy rebuild-everything view pass: computes every instance's view
/// from scratch with no retained state. This is the differential oracle
/// the engine's retained views are validated against by the
/// `view_arena_props` suite on random edit scripts, and B17's legacy
/// column.
pub fn compute_views_from_scratch(
    registry: &LivelitRegistry,
    doc: &Document,
    collection: &hazel::core::cc::Collection,
    fuel: u64,
) -> (
    BTreeMap<HoleName, Html<Action>>,
    BTreeMap<HoleName, CmdError>,
) {
    let phi = registry.phi();
    let mut views = BTreeMap::new();
    let mut view_errors = BTreeMap::new();
    for u in doc.livelit_holes() {
        let Some(instance) = doc.instance(u) else {
            continue;
        };
        let gamma = collection
            .delta
            .get(u)
            .map(|hyp| hyp.ctx.clone())
            .unwrap_or_else(|| doc.prelude_ctx());
        match instance.view_live(&phi, &gamma, collection, fuel) {
            Ok(view) => {
                views.insert(u, view);
            }
            Err(e) => {
                view_errors.insert(u, e);
            }
        }
    }
    (views, view_errors)
}

/// The test livelit context: simple livelits at several types, used to
/// pepper generated programs with invocations.
///
/// - `$k7 at Int` — constant, no splices.
/// - `$sum2 at Int` — two `Int` splices, expands to their sum.
/// - `$pairup at (Int, Bool)` — one splice of each type.
/// - `$fsum at Float` — two `Float` splices.
pub fn test_phi() -> LivelitCtx {
    use hazel::lang::build::*;
    let mut phi = LivelitCtx::new();
    phi.define(LivelitDef::native(
        "$k7",
        vec![],
        Typ::Int,
        Typ::Unit,
        |_| Ok(int(7)),
    ))
    .expect("well-formed");
    phi.define(LivelitDef::native(
        "$sum2",
        vec![],
        Typ::Int,
        Typ::Unit,
        |_| {
            Ok(lams(
                [("a", Typ::Int), ("b", Typ::Int)],
                add(var("a"), var("b")),
            ))
        },
    ))
    .expect("well-formed");
    phi.define(LivelitDef::native(
        "$pairup",
        vec![],
        Typ::tuple([Typ::Int, Typ::Bool]),
        Typ::Unit,
        |_| {
            Ok(lams(
                [("a", Typ::Int), ("b", Typ::Bool)],
                tuple([var("a"), var("b")]),
            ))
        },
    ))
    .expect("well-formed");
    phi.define(LivelitDef::native(
        "$fsum",
        vec![],
        Typ::Float,
        Typ::Unit,
        |_| {
            Ok(lams(
                [("a", Typ::Float), ("b", Typ::Float)],
                fadd(var("a"), var("b")),
            ))
        },
    ))
    .expect("well-formed");
    phi
}

/// Generation tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum type depth.
    pub typ_depth: u32,
    /// Maximum expression depth.
    pub exp_depth: u32,
    /// Per-node probability (in percent) of emitting an ascribed hole.
    pub hole_pct: u32,
    /// Per-node probability (in percent) of emitting a livelit invocation
    /// when one exists at the requested type.
    pub livelit_pct: u32,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            typ_depth: 2,
            exp_depth: 4,
            hole_pct: 10,
            livelit_pct: 20,
        }
    }
}

/// A seeded, type-directed program generator.
pub struct Gen {
    rng: XorShift,
    next_hole: u64,
    /// Configuration.
    pub config: GenConfig,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Gen {
        Gen::with_config(seed, GenConfig::default())
    }

    /// Creates a generator with explicit configuration.
    pub fn with_config(seed: u64, config: GenConfig) -> Gen {
        Gen {
            rng: XorShift::new(seed),
            next_hole: 0,
            config,
        }
    }

    fn fresh_hole(&mut self) -> HoleName {
        let u = HoleName(self.next_hole);
        self.next_hole += 1;
        u
    }

    fn pct(&mut self, p: u32) -> bool {
        self.rng.below(100) < u64::from(p)
    }

    fn fresh_var(&mut self, ctx: &Ctx) -> Var {
        loop {
            let x = Var::new(format!("v{}", self.rng.below(10_000)));
            if ctx.get(&x).is_none() {
                return x;
            }
        }
    }

    /// Generates a random (closed) type.
    pub fn typ(&mut self, depth: u32) -> Typ {
        if depth == 0 {
            return match self.rng.below(5) {
                0 => Typ::Int,
                1 => Typ::Float,
                2 => Typ::Bool,
                3 => Typ::Str,
                _ => Typ::Unit,
            };
        }
        match self.rng.below(8) {
            0 => Typ::Int,
            1 => Typ::Float,
            2 => Typ::Bool,
            3 => Typ::arrow(self.typ(depth - 1), self.typ(depth - 1)),
            4 => {
                let n = 1 + self.rng.below(3);
                Typ::tuple((0..n).map(|_| self.typ(depth - 1)))
            }
            5 => {
                let n = 1 + self.rng.below(3);
                Typ::sum((0..n).map(|i| (Label::new(format!("C{i}")), self.typ(depth - 1))))
            }
            6 => Typ::list(self.typ(depth - 1)),
            _ => Typ::Str,
        }
    }

    /// Generates an unexpanded expression that *synthesizes* `ty` under
    /// `ctx`. All holes are ascribed; all binders are annotated.
    pub fn uexp(&mut self, phi: &LivelitCtx, ctx: &Ctx, ty: &Typ, depth: u32) -> UExp {
        let hole_pct = self.config.hole_pct;
        if self.pct(hole_pct) {
            return UExp::Asc(Box::new(UExp::EmptyHole(self.fresh_hole())), ty.clone());
        }
        let livelit_pct = self.config.livelit_pct;
        if self.pct(livelit_pct) {
            if let Some(inv) = self.livelit_at(phi, ctx, ty, depth) {
                return inv;
            }
        }
        if depth == 0 {
            return self.leaf(ctx, ty);
        }
        match self.rng.below(10) {
            0 => {
                // let x : τ' = e' in e
                let def_ty = self.typ(self.config.typ_depth.min(depth - 1));
                let def = self.uexp(phi, ctx, &def_ty, depth - 1);
                let x = self.fresh_var(ctx);
                let body = self.uexp(phi, &ctx.extend(x.clone(), def_ty.clone()), ty, depth - 1);
                UExp::Let(x, Some(def_ty), Box::new(def), Box::new(body))
            }
            1 => {
                let c = self.uexp(phi, ctx, &Typ::Bool, depth - 1);
                let t = self.uexp(phi, ctx, ty, depth - 1);
                let e = self.uexp(phi, ctx, ty, depth - 1);
                UExp::If(Box::new(c), Box::new(t), Box::new(e))
            }
            2 => {
                // (fun x : τ' -> e) e'  — a beta redex.
                let arg_ty = self.typ(self.config.typ_depth.min(depth - 1));
                let x = self.fresh_var(ctx);
                let body = self.uexp(phi, &ctx.extend(x.clone(), arg_ty.clone()), ty, depth - 1);
                let arg = self.uexp(phi, ctx, &arg_ty, depth - 1);
                UExp::Ap(
                    Box::new(UExp::Lam(x, arg_ty, Box::new(body))),
                    Box::new(arg),
                )
            }
            3 => {
                // Projection from a tuple containing ty.
                let extra = self.typ(self.config.typ_depth.min(depth - 1));
                let pos = self.rng.index(2);
                let fields: Vec<Typ> = if pos == 0 {
                    vec![ty.clone(), extra]
                } else {
                    vec![extra, ty.clone()]
                };
                let tuple_exp = UExp::Tuple(
                    fields
                        .iter()
                        .enumerate()
                        .map(|(i, t)| (Label::positional(i), self.uexp(phi, ctx, t, depth - 1)))
                        .collect(),
                );
                UExp::Proj(Box::new(tuple_exp), Label::positional(pos))
            }
            4 => {
                // case over a small generated sum.
                let payload = self.typ(self.config.typ_depth.min(depth - 1));
                let sum_ty = Typ::sum([
                    (Label::new("L"), payload.clone()),
                    (Label::new("R"), Typ::Unit),
                ]);
                let scrut = self.uexp(phi, ctx, &sum_ty, depth - 1);
                let xl = self.fresh_var(ctx);
                let body_l = self.uexp(phi, &ctx.extend(xl.clone(), payload), ty, depth - 1);
                let xr = self.fresh_var(ctx);
                let body_r = self.uexp(phi, &ctx.extend(xr.clone(), Typ::Unit), ty, depth - 1);
                UExp::Case(
                    Box::new(scrut),
                    vec![
                        UCaseArm {
                            label: Label::new("L"),
                            var: xl,
                            body: body_l,
                        },
                        UCaseArm {
                            label: Label::new("R"),
                            var: xr,
                            body: body_r,
                        },
                    ],
                )
            }
            _ => self.intro(phi, ctx, ty, depth),
        }
    }

    /// A type-directed introduction form at `ty`.
    fn intro(&mut self, phi: &LivelitCtx, ctx: &Ctx, ty: &Typ, depth: u32) -> UExp {
        match ty {
            Typ::Int => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][self.rng.index(3)];
                UExp::Bin(
                    op,
                    Box::new(self.uexp(phi, ctx, &Typ::Int, depth - 1)),
                    Box::new(self.uexp(phi, ctx, &Typ::Int, depth - 1)),
                )
            }
            Typ::Float => {
                let op = [BinOp::FAdd, BinOp::FSub, BinOp::FMul][self.rng.index(3)];
                UExp::Bin(
                    op,
                    Box::new(self.uexp(phi, ctx, &Typ::Float, depth - 1)),
                    Box::new(self.uexp(phi, ctx, &Typ::Float, depth - 1)),
                )
            }
            Typ::Bool => {
                let op =
                    [BinOp::Lt, BinOp::Le, BinOp::Eq, BinOp::And, BinOp::Or][self.rng.index(5)];
                let operand = op.operand_typ();
                UExp::Bin(
                    op,
                    Box::new(self.uexp(phi, ctx, &operand, depth - 1)),
                    Box::new(self.uexp(phi, ctx, &operand, depth - 1)),
                )
            }
            Typ::Str => UExp::Bin(
                BinOp::Concat,
                Box::new(self.uexp(phi, ctx, &Typ::Str, depth - 1)),
                Box::new(self.uexp(phi, ctx, &Typ::Str, depth - 1)),
            ),
            Typ::Arrow(dom, cod) => {
                let x = self.fresh_var(ctx);
                let body = self.uexp(phi, &ctx.extend(x.clone(), (**dom).clone()), cod, depth - 1);
                UExp::Lam(x, (**dom).clone(), Box::new(body))
            }
            Typ::Prod(fields) => UExp::Tuple(
                fields
                    .iter()
                    .map(|(l, t)| (l.clone(), self.uexp(phi, ctx, t, depth - 1)))
                    .collect(),
            ),
            Typ::Sum(arms) => {
                let (l, t) = arms[self.rng.index(arms.len())].clone();
                UExp::Inj(ty.clone(), l, Box::new(self.uexp(phi, ctx, &t, depth - 1)))
            }
            Typ::List(elem) => {
                let n = self.rng.below(3);
                (0..n).fold(UExp::Nil((**elem).clone()), |acc, _| {
                    UExp::Cons(
                        Box::new(self.uexp(phi, ctx, elem, depth - 1)),
                        Box::new(acc),
                    )
                })
            }
            Typ::Unit => UExp::Unit,
            // Recursive types and variables are exercised by unit tests;
            // random generation keeps to first-order shapes.
            Typ::Var(_) | Typ::Rec(..) => {
                UExp::Asc(Box::new(UExp::EmptyHole(self.fresh_hole())), ty.clone())
            }
        }
    }

    /// A minimal form at `ty`: a variable of the right type when one is in
    /// scope, otherwise a literal/value form.
    fn leaf(&mut self, ctx: &Ctx, ty: &Typ) -> UExp {
        let candidates: Vec<Var> = ctx
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(x, _)| x.clone())
            .collect();
        if !candidates.is_empty() && self.pct(50) {
            let x = candidates[self.rng.index(candidates.len())].clone();
            return UExp::Var(x);
        }
        match ty {
            Typ::Int => UExp::Int(self.rng.range(-100, 100)),
            Typ::Float => UExp::Float(self.rng.range(-100, 100) as f64 / 2.0),
            Typ::Bool => UExp::Bool(self.rng.bool()),
            Typ::Str => UExp::Str(format!("s{}", self.rng.below(100))),
            Typ::Unit => UExp::Unit,
            Typ::Arrow(dom, cod) => {
                let x = self.fresh_var(ctx);
                let body = self.leaf(&ctx.extend(x.clone(), (**dom).clone()), cod);
                UExp::Lam(x, (**dom).clone(), Box::new(body))
            }
            Typ::Prod(fields) => UExp::Tuple(
                fields
                    .iter()
                    .map(|(l, t)| (l.clone(), self.leaf(ctx, t)))
                    .collect(),
            ),
            Typ::Sum(arms) => {
                let (l, t) = arms[self.rng.index(arms.len())].clone();
                UExp::Inj(ty.clone(), l, Box::new(self.leaf(ctx, &t)))
            }
            Typ::List(elem) => UExp::Nil((**elem).clone()),
            Typ::Var(_) | Typ::Rec(..) => {
                UExp::Asc(Box::new(UExp::EmptyHole(self.fresh_hole())), ty.clone())
            }
        }
    }

    /// A livelit invocation at `ty`, if the test context has one.
    fn livelit_at(&mut self, phi: &LivelitCtx, ctx: &Ctx, ty: &Typ, depth: u32) -> Option<UExp> {
        let matching: Vec<(LivelitName, Vec<Typ>)> = phi
            .iter()
            .filter(|(_, def)| &def.expansion_ty == ty)
            .map(|(name, _)| {
                let splice_tys = match name.as_str() {
                    "sum2" => vec![Typ::Int, Typ::Int],
                    "pairup" => vec![Typ::Int, Typ::Bool],
                    "fsum" => vec![Typ::Float, Typ::Float],
                    _ => vec![],
                };
                (name.clone(), splice_tys)
            })
            .collect();
        if matching.is_empty() {
            return None;
        }
        let (name, splice_tys) = matching[self.rng.index(matching.len())].clone();
        let splices = splice_tys
            .into_iter()
            .map(|st| {
                let exp = self.uexp(phi, ctx, &st, depth.saturating_sub(1));
                Splice::new(exp, st)
            })
            .collect();
        Some(UExp::Livelit(Box::new(LivelitAp {
            name,
            model: IExp::Unit,
            splices,
            hole: self.fresh_hole(),
        })))
    }

    /// Generates a closed unexpanded program at a random type.
    pub fn program(&mut self, phi: &LivelitCtx) -> (UExp, Typ) {
        let ty = self.typ(self.config.typ_depth);
        let e = self.uexp(phi, &Ctx::empty(), &ty, self.config.exp_depth);
        (e, ty)
    }

    /// Generates a closed, hole-free, livelit-free external expression.
    pub fn eexp_program(&mut self) -> (EExp, Typ) {
        let saved = self.config;
        self.config.hole_pct = 0;
        self.config.livelit_pct = 0;
        let phi = LivelitCtx::new();
        let (e, ty) = self.program(&phi);
        self.config = saved;
        (e.to_eexp().expect("no livelits generated"), ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel::lang::typing::syn;

    #[test]
    fn xorshift_is_deterministic_and_spread() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Seed 0 must not degenerate into a constant stream.
        let mut z = XorShift::new(0);
        let mut counts = [0u32; 10];
        for _ in 0..1_000 {
            counts[z.index(10)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 50), "{counts:?}");
    }

    #[test]
    fn generated_programs_are_well_typed_by_construction() {
        let phi = test_phi();
        for seed in 0..100 {
            let mut g = Gen::new(seed);
            let (e, ty) = g.program(&phi);
            let (expanded, found, _) = hazel::core::expand_typed(&phi, &Ctx::empty(), &e)
                .unwrap_or_else(|err| panic!("seed {seed}: generated program failed: {err}\n{e}"));
            assert_eq!(found, ty, "seed {seed}");
            let (direct, _) = syn(&Ctx::empty(), &expanded).expect("types directly");
            assert_eq!(direct, ty);
        }
    }

    #[test]
    fn eexp_programs_have_no_holes() {
        for seed in 0..20 {
            let mut g = Gen::new(seed);
            let (e, ty) = g.eexp_program();
            assert!(e.hole_names().is_empty());
            let (found, _) = syn(&Ctx::empty(), &e).expect("well-typed");
            assert_eq!(found, ty);
        }
    }
}
