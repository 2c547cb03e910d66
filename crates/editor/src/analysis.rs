//! Editor-side diagnostics: batch analysis of a document, and an
//! incremental analyzer that recomputes per-invocation findings only for
//! the invocations an edit actually touched.
//!
//! The invocation-scoped passes (hygiene, splice discipline, determinism)
//! depend only on `(Φ, ap)` — the livelit context and the invocation's
//! own model and splices. An edit to one livelit's model or splices
//! therefore invalidates only that hole's findings; every other hole's
//! findings are reused from cache. This is the same dirty-set discipline
//! the evaluation engine uses (see [`crate::incremental`]).

use std::collections::BTreeMap;

use hazel_lang::ident::HoleName;
use hazel_lang::unexpanded::{LivelitAp, UExp};
use livelit_analysis::flow::{FlowAnalyzer, FlowUnit};
use livelit_analysis::passes::definitions::DefinitionLints;
use livelit_analysis::passes::holes::HoleAudit;
use livelit_analysis::{analyze_invocation, AnalysisInput, Diagnostic, Pass, Report};
use livelit_core::expansion::ExpandError;

use crate::doc::Document;
use crate::registry::LivelitRegistry;

/// Runs the full default analysis over a document: the invocation-scoped
/// passes for every livelit invocation, the hole audit, and the
/// definition lints for every registered livelit.
pub fn analyze_document(registry: &LivelitRegistry, doc: &Document) -> Report {
    IncrementalAnalyzer::new().analyze(registry, doc)
}

/// A per-hole cache of invocation-scoped findings, plus the incremental
/// dataflow analyzer for the program- and definition-scoped flow passes.
#[derive(Debug, Default)]
pub struct IncrementalAnalyzer {
    cache: BTreeMap<HoleName, (LivelitAp, Vec<Diagnostic>)>,
    /// The demand-driven dataflow driver (LL05xx/LL06xx/LL07xx): keyed on
    /// hash-consed roots, it re-scans only the units an edit changed.
    flow: FlowAnalyzer,
    /// The prelude the cached flow units were built from, and those
    /// units (one per definition, the program slot last) — rebuilding
    /// them per run would pay an allocation per prelude term node when
    /// ordinary edits only ever touch the program.
    flow_prelude: Vec<crate::doc::PreludeBinding>,
    flow_units: Vec<FlowUnit>,
    /// How many invocations were (re)analyzed across all runs.
    pub invocation_runs: usize,
    /// How many invocations were served from cache across all runs.
    pub cache_hits: usize,
}

impl IncrementalAnalyzer {
    /// An analyzer with an empty cache.
    pub fn new() -> IncrementalAnalyzer {
        IncrementalAnalyzer::default()
    }

    /// Analyzes the document, reusing cached per-invocation findings for
    /// every invocation whose `(name, model, splices)` is unchanged since
    /// the last run.
    pub fn analyze(&mut self, registry: &LivelitRegistry, doc: &Document) -> Report {
        let _span = livelit_trace::span("analysis.run");
        let phi = registry.phi();
        // The prelude definitions were typed when the module was opened
        // and contain no livelit invocations (they are already-expanded
        // terms), so every program-scoped pass runs over the program
        // alone under a context carrying the definitions' declared types.
        // A single-definition edit then pays for the program, not for the
        // whole library (see bench B15); the library definitions
        // themselves are covered by the flow units below.
        let program = doc.program().clone();
        let ctx = doc.prelude_ctx();

        // Invocation-scoped findings, through the cache.
        let mut diagnostics = Vec::new();
        let mut all_clean = true;
        let mut live: BTreeMap<HoleName, (LivelitAp, Vec<Diagnostic>)> = BTreeMap::new();
        for ap in program.livelit_aps() {
            let found = match self.cache.get(&ap.hole) {
                Some((cached_ap, cached)) if cached_ap == ap => {
                    self.cache_hits += 1;
                    livelit_trace::count(livelit_trace::Counter::AnalyzerCacheHits, 1);
                    cached.clone()
                }
                _ => {
                    self.invocation_runs += 1;
                    livelit_trace::count(livelit_trace::Counter::AnalyzerCacheMisses, 1);
                    analyze_invocation(&phi, ap)
                }
            };
            // Only error-severity findings gate the whole-program typing
            // check below: warnings and infos (e.g. LL0601 purity notes)
            // do not make expansion meaningless.
            all_clean &= found
                .iter()
                .all(|d| d.severity != livelit_analysis::Severity::Error);
            diagnostics.extend(found.iter().cloned());
            live.insert(ap.hole, (ap.clone(), found));
        }
        // Holes that disappeared drop out of the cache with `live`.
        self.cache = live;

        // Program-scoped passes are cheap relative to expansion and run
        // unconditionally: the hole audit and the definition lints...
        let input = AnalysisInput {
            phi: &phi,
            program: &program,
            ctx: &ctx,
        };
        {
            let _span = livelit_trace::span("analysis.pass.hole-audit");
            diagnostics.extend(HoleAudit.run(&input));
        }
        {
            let _span = livelit_trace::span("analysis.pass.definition-lints");
            diagnostics.extend(DefinitionLints.run(&input));
        }
        // The incremental dataflow passes: per-definition dirty-set
        // invalidation over the prelude plus the program, with the run's
        // incrementality reported through the flow counters.
        {
            let _span = livelit_trace::span("analysis.pass.flow");
            if self.flow_units.is_empty() || self.flow_prelude.as_slice() != doc.prelude() {
                self.flow_prelude = doc.prelude().to_vec();
                self.flow_units = flow_units(doc);
            } else {
                // Same prelude: only the program slot (always last) can
                // have changed.
                let last = self.flow_units.last_mut().expect("program unit");
                last.term = doc.program().clone();
            }
            let run = self.flow.analyze(&phi, &self.flow_units);
            livelit_trace::count(livelit_trace::Counter::FlowDirtyDefs, run.dirty_defs);
            if run.facts_computed > 0 {
                livelit_trace::count(
                    livelit_trace::Counter::FlowFactsComputed,
                    run.facts_computed,
                );
            }
            if run.facts_reused > 0 {
                livelit_trace::count(livelit_trace::Counter::FlowFactsReused, run.facts_reused);
            }
            diagnostics.extend(run.diagnostics);
        }
        // ...plus the whole-program splice typing check (ELivelit premise
        // 6, LL0006), meaningful only once every invocation validates.
        if all_clean {
            if let Err(ExpandError::Type(e)) =
                livelit_core::expansion::expand_typed(&phi, &ctx, &program)
            {
                diagnostics.push(Diagnostic::new(
                    livelit_analysis::Code::SpliceType,
                    livelit_analysis::Severity::Error,
                    livelit_analysis::Location::Program,
                    format!("program does not type check after expansion: {e}"),
                ));
            }
        }

        Report::from_diagnostics(diagnostics)
    }

    /// Drops one hole's cached findings, forcing recomputation next run.
    pub fn invalidate(&mut self, hole: HoleName) {
        self.cache.remove(&hole);
    }

    /// The number of holes currently cached.
    pub fn cached_holes(&self) -> usize {
        self.cache.len()
    }
}

/// The flow-analysis units of a document: one per prelude definition
/// (keyed by its bound name) plus the program itself.
pub fn flow_units(doc: &Document) -> Vec<FlowUnit> {
    let mut units: Vec<FlowUnit> = doc
        .prelude()
        .iter()
        .map(|b| FlowUnit::def(b.var.to_string(), UExp::from_eexp(&b.def)))
        .collect();
    units.push(FlowUnit::program(doc.program().clone()));
    units
}
