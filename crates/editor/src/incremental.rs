//! The incremental engine: fill-and-resume as an editor service.
//!
//! Sec. 4.3.2: "If the editor has already performed environment collection,
//! then it can simply continue from where it left off by filling and
//! resuming the remaining top-level livelit holes." The cc-expansion — and
//! therefore the collected proto-result and environments — depends only on
//! the program *skeleton* (code, splices, types), not on livelit models:
//! models enter the pipeline solely through the parameterized expansions
//! gathered in Ω. So an edit that changes only models (a slider drag, a
//! paddle drag, a palette click) can reuse the cached proto-result and
//! merely rebuild Ω before filling and resuming.
//!
//! [`IncrementalEngine::run`] detects this case by *interning* the
//! program's model-erased skeleton into a hash-consed term store
//! ([`hazel_lang::store::TermStore::intern_uexp_skeleton`]) and comparing
//! compact [`TermId`]s: two programs intern to the same id exactly when
//! they differ at most in livelit models. This replaces the old approach of
//! building a model-erased copy of the whole tree and deep-comparing it on
//! every run — the interner shares all unchanged subtrees, so an edit pays
//! for the spine it changed, not for the program size.

use hazel_lang::eval::{EvalError, DEFAULT_FUEL};
use hazel_lang::store::{TermId, TermStore};
use livelit_core::cc::{CollectError, Omega};
use livelit_core::expansion::{expand_invocation, ExpandError};

use hazel_lang::ident::HoleName;

use crate::doc::Document;
use crate::engine::{run_with_fuel_in, EngineError, EngineOutput};
use crate::registry::LivelitRegistry;
use crate::views::{ViewDelta, ViewRetainer};

/// Bound on the engine-owned skeleton store; past this many interned nodes
/// the store (and with it the cache) is reset, so an unboundedly long edit
/// session cannot grow it without limit.
const SKELETON_STORE_CAP: usize = 1 << 20;

/// An engine that caches closure collection across edits and re-runs only
/// fill-and-resume when an edit touched nothing but livelit models.
pub struct IncrementalEngine {
    fuel: u64,
    /// Interns model-erased program skeletons across edits; successive
    /// program versions share all unchanged subtrees.
    store: TermStore,
    cached: Option<Cached>,
    /// Retained view snapshots, kept across both the fast and full paths
    /// so unchanged instances reuse their memoized views and changed ones
    /// diff against what was last published.
    retainer: ViewRetainer,
    /// Statistics: how many runs took the incremental path.
    pub incremental_hits: usize,
    /// Statistics: how many runs re-collected from scratch.
    pub full_runs: usize,
}

struct Cached {
    skeleton: TermId,
    output: EngineOutput,
}

impl IncrementalEngine {
    /// Creates an engine with the default fuel budget.
    pub fn new() -> IncrementalEngine {
        IncrementalEngine::with_fuel(DEFAULT_FUEL)
    }

    /// Creates an engine with an explicit fuel budget.
    pub fn with_fuel(fuel: u64) -> IncrementalEngine {
        IncrementalEngine {
            fuel,
            store: TermStore::new(),
            cached: None,
            retainer: ViewRetainer::new(),
            incremental_hits: 0,
            full_runs: 0,
        }
    }

    /// Runs the pipeline, incrementally when possible.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn run(
        &mut self,
        registry: &LivelitRegistry,
        doc: &Document,
    ) -> Result<&EngineOutput, EngineError> {
        let program = doc.full_program();
        if self.store.len() > SKELETON_STORE_CAP {
            self.store = TermStore::new();
            self.cached = None;
            self.retainer.clear();
        }
        let current_skeleton = self.store.intern_uexp_skeleton(&program);
        self.store.report_trace_counters();

        let reusable = self.cached.as_ref().is_some_and(|c| {
            c.skeleton == current_skeleton && c.output.collection.errors.is_empty()
        });

        if reusable {
            // Fast path: rebuild Ω from the current models (premises 1–5 of
            // ELivelit per invocation), then continue the cached run from
            // its evaluated cc-expansion, updating it in place. The cached
            // run marked nothing, so every invocation has an Ω entry.
            let phi = registry.phi();
            let omega = {
                let _span = livelit_trace::span("engine.omega");
                program
                    .livelit_aps()
                    .into_iter()
                    .map(|ap| Ok((ap.hole, expand_invocation(&phi, ap)?.elab)))
                    .collect::<Result<Omega, ExpandError>>()
            };
            // An error means a model change broke expansion (e.g. an
            // ill-typed model): fall through to the full path, which marks
            // the error.
            if let Ok(omega) = omega {
                let output = &mut self.cached.as_mut().expect("checked above").output;
                if let Err(e) = fill_and_resume(output, omega) {
                    // The cached run is partly updated: drop it, so the
                    // next run takes the full path.
                    self.cached = None;
                    return Err(EngineError::Collect(CollectError::Eval(e)));
                }
                // Views depend on models and environments; recompute them
                // (through the retainer, so unchanged instances are memo
                // hits).
                crate::engine::recompute_views(
                    registry,
                    doc,
                    output,
                    self.fuel,
                    &mut self.retainer,
                );
                self.incremental_hits += 1;
                livelit_trace::count(livelit_trace::Counter::IncrementalFastPaths, 1);
                return Ok(&self.cached.as_ref().expect("kept above").output);
            }
        }

        // Full path. The retainer is threaded through so retained views
        // survive full recollection too: an instance whose memo key still
        // matches (e.g. one with no collected σ) stays a memo hit, and
        // changed ones diff against their retained snapshots.
        let output = run_with_fuel_in(registry, doc, self.fuel, &mut self.retainer)?;
        self.full_runs += 1;
        livelit_trace::count(livelit_trace::Counter::IncrementalFullRuns, 1);
        self.cached = Some(Cached {
            skeleton: current_skeleton,
            output,
        });
        Ok(&self.cached.as_ref().expect("just set").output)
    }

    /// Drops the cache (e.g. when the registry changes). Also drops every
    /// retained view snapshot — registry changes can alter view *functions*,
    /// which memo keys do not capture.
    pub fn invalidate(&mut self) {
        self.cached = None;
        self.retainer.clear();
    }

    /// The retained generation/patch state for hole `u`'s view, if any —
    /// what the server needs to derive a render reply from the acked
    /// generation.
    pub fn view_delta(&self, u: HoleName) -> Option<ViewDelta> {
        self.retainer.delta(u)
    }

    /// Nodes in this engine's retained view snapshots.
    pub fn retained_view_nodes(&self) -> u64 {
        self.retainer.retained_nodes()
    }
}

impl Default for IncrementalEngine {
    fn default() -> IncrementalEngine {
        IncrementalEngine::new()
    }
}

/// Installs the fresh Ω in `output`'s collection, re-resumes the
/// environments it reaches, and recomputes the program result by
/// fill-and-resume (Sec. 4.3.2).
fn fill_and_resume(output: &mut EngineOutput, omega: Omega) -> Result<(), EvalError> {
    let _span = livelit_trace::span("engine.resume");
    output.collection.refresh_after_omega_change(omega)?;
    output.result = output.collection.resume_result()?;
    Ok(())
}
