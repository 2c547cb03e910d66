//! The pass registry: analyses run over a `(Φ, program)` pair.

use hazel_lang::typing::Ctx;
use hazel_lang::unexpanded::{LivelitAp, UExp};
use livelit_core::def::LivelitCtx;
use livelit_core::expansion::expand_invocation;

use crate::diagnostic::{Diagnostic, Report};
use crate::passes;

/// Everything a pass may look at: the livelit context Φ, the (unexpanded)
/// program, and the typing context its free variables live in.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisInput<'a> {
    /// The livelit definitions in scope.
    pub phi: &'a LivelitCtx,
    /// The program under analysis (including any prelude bindings, already
    /// folded in as `let`s — see `Document::full_program`).
    pub program: &'a UExp,
    /// The typing context for the program's free variables (usually empty
    /// when the prelude is folded into the program).
    pub ctx: &'a Ctx,
}

/// One static analysis over an [`AnalysisInput`].
pub trait Pass {
    /// A short, stable, kebab-case name (used in `--passes` listings).
    fn name(&self) -> &'static str;
    /// Runs the pass, returning its findings in any order.
    fn run(&self, input: &AnalysisInput<'_>) -> Vec<Diagnostic>;
}

/// A registry of passes, run in registration order over one input.
#[derive(Default)]
pub struct Analyzer {
    passes: Vec<Box<dyn Pass>>,
}

impl Analyzer {
    /// An analyzer with no passes.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// An analyzer with the five standard passes: hygiene, splice
    /// discipline, hole audit, definition lints, and expansion determinism.
    pub fn with_default_passes() -> Analyzer {
        let mut analyzer = Analyzer::new();
        analyzer.register(Box::new(passes::hygiene::Hygiene));
        analyzer.register(Box::new(passes::splices::SpliceDiscipline));
        analyzer.register(Box::new(passes::holes::HoleAudit));
        analyzer.register(Box::new(passes::definitions::DefinitionLints));
        analyzer.register(Box::new(passes::determinism::Determinism));
        analyzer
    }

    /// Adds a pass to the registry.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The registered pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass and collects the findings into a deterministic
    /// [`Report`].
    pub fn analyze(&self, input: &AnalysisInput<'_>) -> Report {
        let _span = livelit_trace::span("analysis.run");
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            let _span = livelit_trace::span_prefixed("analysis.pass.", pass.name());
            diagnostics.extend(pass.run(input));
        }
        Report::from_diagnostics(diagnostics)
    }
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("passes", &self.pass_names())
            .finish()
    }
}

/// Runs the invocation-scoped analyses (hygiene, splice discipline,
/// determinism) for a single livelit invocation.
///
/// This is the unit of incremental recomputation: the findings depend only
/// on `(Φ, ap)`, so an editor can cache them per hole and recompute only
/// the invocations an edit actually touched.
pub fn analyze_invocation(phi: &LivelitCtx, ap: &LivelitAp) -> Vec<Diagnostic> {
    let _span = livelit_trace::span("analysis.invocation");
    let mut out = Vec::new();
    // One expansion serves both hygiene and splice discipline.
    let expansion = {
        let _span = livelit_trace::span("analysis.pass.hygiene");
        let expansion = expand_invocation(phi, ap);
        out.extend(passes::hygiene::check_invocation(ap, &expansion));
        expansion
    };
    {
        let _span = livelit_trace::span("analysis.pass.splice-discipline");
        out.extend(passes::splices::check_invocation(ap, &expansion));
    }
    {
        let _span = livelit_trace::span("analysis.pass.determinism");
        out.extend(passes::determinism::check_invocation(phi, ap));
    }
    out
}
