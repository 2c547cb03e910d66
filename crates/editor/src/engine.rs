//! The live programming engine: the edit → feedback pipeline (Sec. 5.1).
//!
//! After every edit, Hazel re-runs: typed expansion → elaboration →
//! evaluation with closure collection → livelit view computation. Every
//! editor state is semantically meaningful; livelit failure modes are
//! marked with non-empty holes so "erroneous expressions ... do not prevent
//! other parts of the program from evaluating" (Sec. 2.4.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use hazel_lang::eval::DEFAULT_FUEL;
use hazel_lang::external::EExp;
use hazel_lang::ident::HoleName;
use hazel_lang::internal::IExp;
use hazel_lang::unexpanded::UExp;
use livelit_core::cc::{collect_with_fuel, CollectError, Collection};
use livelit_core::def::LivelitCtx;
use livelit_core::expansion::{expand, expand_invocation, ExpandError};
use livelit_core::live::{eval_splices, SpliceJob};
use livelit_mvu::html::Html;
use livelit_mvu::livelit::{Action, CmdError};

use crate::doc::{DocError, Document};
use crate::registry::LivelitRegistry;
use crate::views::{view_key, ViewKey, ViewRetainer};

/// A livelit error marked during the pre-pass, attributed to the invocation
/// (hole) it arose at.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkedError {
    /// The livelit hole whose invocation failed.
    pub hole: HoleName,
    /// The failure.
    pub error: ExpandError,
}

/// Everything the editor needs to refresh the display after an edit.
///
/// The program's type is [`Collection::ty`]; its full expansion, which
/// only inspection reads (Sec. 2.2's toggle), is built on demand by
/// [`expansion`].
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// The closure collection (cc-expansion, its type, Ω, environments per
    /// livelit).
    pub collection: Collection,
    /// The final program result, computed by fill-and-resume from the
    /// collection (Sec. 4.3.2) — not by re-evaluating from scratch.
    pub result: IExp,
    /// Livelit failures marked as non-empty holes during the pre-pass.
    pub errors: Vec<MarkedError>,
    /// The computed view for each livelit instance, under its selected
    /// closure. Shared with the retainer's snapshot, so an unchanged view
    /// is an `Arc` clone, not a tree copy.
    pub views: BTreeMap<HoleName, Arc<Html<Action>>>,
    /// View-computation failures, displayed in place of the GUI (not
    /// semantic errors, Sec. 5.1).
    pub view_errors: BTreeMap<HoleName, CmdError>,
}

/// An engine failure (the program itself is broken in a way error-marking
/// cannot absorb).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Expansion/typing/evaluation of the (marked) program failed.
    Collect(CollectError),
    /// A document operation failed.
    Doc(DocError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Collect(e) => write!(f, "{e}"),
            EngineError::Doc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CollectError> for EngineError {
    fn from(e: CollectError) -> EngineError {
        EngineError::Collect(e)
    }
}

impl From<DocError> for EngineError {
    fn from(e: DocError) -> EngineError {
        EngineError::Doc(e)
    }
}

/// Marks failing livelit invocations with empty holes (at their invocation
/// hole name) so the rest of the program still evaluates, returning the
/// marked program and the errors. This implements the non-empty-hole error
/// marking of Sec. 5.1 for the `ELivelit` failure modes.
pub fn mark_livelit_errors(phi: &LivelitCtx, program: &UExp) -> (UExp, Vec<MarkedError>) {
    let mut errors = Vec::new();
    let marked = program.map(&mut |e| match e {
        UExp::Livelit(ap) => match expand_invocation(phi, &ap) {
            Ok(pe) => {
                // Keep the invocation, but remember its type for the
                // fallback hole if a *splice* fails later: not needed —
                // splice failures are their own invocations' failures.
                let _ = pe;
                UExp::Livelit(ap)
            }
            Err(error) => {
                errors.push(MarkedError {
                    hole: ap.hole,
                    error,
                });
                // Replace the invocation with an ascribed hole at the
                // expansion type when known, so the surrounding program
                // still types; otherwise a bare hole.
                match phi.get(&ap.name) {
                    Some(def) => {
                        UExp::Asc(Box::new(UExp::EmptyHole(ap.hole)), def.expansion_ty.clone())
                    }
                    None => UExp::EmptyHole(ap.hole),
                }
            }
        },
        other => other,
    });
    (marked, errors)
}

/// Runs the full pipeline on a document.
///
/// # Errors
///
/// Returns [`EngineError`] when the program is broken beyond error-marking
/// (ill-typed outside livelits, diverging, ...).
pub fn run(registry: &LivelitRegistry, doc: &Document) -> Result<EngineOutput, EngineError> {
    run_with_fuel(registry, doc, DEFAULT_FUEL)
}

/// [`run`] with an explicit fuel budget.
///
/// # Errors
///
/// See [`run`].
pub fn run_with_fuel(
    registry: &LivelitRegistry,
    doc: &Document,
    fuel: u64,
) -> Result<EngineOutput, EngineError> {
    // One-shot runs get a throwaway retainer; the incremental engine
    // threads its persistent one through `run_with_fuel_in` so retained
    // trees survive across edits.
    let mut retainer = ViewRetainer::new();
    run_with_fuel_in(registry, doc, fuel, &mut retainer)
}

/// [`run_with_fuel`] building views into a caller-owned [`ViewRetainer`].
///
/// # Errors
///
/// See [`run`].
pub(crate) fn run_with_fuel_in(
    registry: &LivelitRegistry,
    doc: &Document,
    fuel: u64,
    retainer: &mut ViewRetainer,
) -> Result<EngineOutput, EngineError> {
    let _span = livelit_trace::span("engine.run");
    let phi = registry.phi();
    let program = doc.full_program();

    // Pre-pass: absorb livelit failures into holes.
    let (marked, errors) = {
        let _span = livelit_trace::span("engine.mark");
        mark_livelit_errors(&phi, &program)
    };

    // Closure collection over the marked program.
    let collection = {
        let _span = livelit_trace::span("engine.collect");
        collect_with_fuel(&phi, &marked, fuel)?
    };

    // Final result by fill-and-resume (Sec. 4.3.2).
    let result = {
        let _span = livelit_trace::span("engine.resume");
        collection.resume_result().map_err(CollectError::Eval)?
    };
    if livelit_trace::enabled() {
        livelit_trace::count(
            livelit_trace::Counter::HolesRemaining,
            result.hole_closures().len() as u64,
        );
    }

    let mut output = EngineOutput {
        collection,
        result,
        errors,
        views: BTreeMap::new(),
        view_errors: BTreeMap::new(),
    };
    recompute_views(registry, doc, &mut output, fuel, retainer);
    Ok(output)
}

/// The full expansion of the document's program (Sec. 2.2's expansion
/// toggle), with failing livelit invocations marked as in [`run`].
///
/// # Errors
///
/// See [`ExpandError`]; a program that [`run`] accepts always expands.
pub fn expansion(registry: &LivelitRegistry, doc: &Document) -> Result<EExp, ExpandError> {
    let phi = registry.phi();
    let (marked, _) = mark_livelit_errors(&phi, &doc.full_program());
    expand(&phi, &marked)
}

/// Recomputes each livelit's view under its selected closure, in place.
/// Used by both the full pipeline and the incremental fast path (views
/// depend on models and environments, which both may have changed).
///
/// Views are built through `retainer`: an instance whose [`view_key`]
/// matches its retained one reuses the retained snapshot without
/// recomputing anything; otherwise the fresh view is diffed against the
/// retained snapshot (storing a script of only the changed nodes) or
/// retained anew.
pub(crate) fn recompute_views(
    registry: &LivelitRegistry,
    doc: &Document,
    output: &mut EngineOutput,
    fuel: u64,
    retainer: &mut ViewRetainer,
) {
    let _span = livelit_trace::span("engine.views");
    let phi = registry.phi();
    output.views.clear();
    output.view_errors.clear();
    retainer.begin_refresh();
    // Memo pass first: an instance whose key matches pays only the key
    // build (including the σ fingerprint — the change detection), never
    // splice elaboration or view construction.
    let mut misses: Vec<(HoleName, ViewKey)> = Vec::new();
    for u in doc.livelit_holes() {
        let Some(instance) = doc.instance(u) else {
            continue;
        };
        let key = view_key(instance, &output.collection, fuel);
        if let Some(snapshot) = retainer.memo_hit(u, &key) {
            output.views.insert(u, snapshot);
            continue;
        }
        misses.push((u, key));
    }
    // Prewarm the splice-result cache in one batch: every splice of every
    // *missed* instance, under its selected closure. The batch evaluates
    // each distinct cache miss once; the per-splice `eval_splice` calls
    // the views make below then hit the cache.
    let mut jobs: Vec<SpliceJob<'_>> = Vec::new();
    for (u, _) in &misses {
        let Some(instance) = doc.instance(*u) else {
            continue;
        };
        let envs = output.collection.envs_for(*u);
        if envs.is_empty() {
            continue;
        }
        let env_index = instance.selected_env.min(envs.len() - 1);
        for (_r, info) in instance.store().iter() {
            jobs.push(SpliceJob {
                u: *u,
                env_index,
                splice: &info.content,
                ty: &info.ty,
            });
        }
    }
    // Errors are cached per splice and resurface identically when the
    // view asks for that splice, so the batch's own slots are not needed.
    let _ = eval_splices(&phi, &output.collection, &jobs);
    for (u, key) in misses {
        let Some(instance) = doc.instance(u) else {
            continue;
        };
        let gamma = output
            .collection
            .delta
            .get(u)
            .map(|hyp| hyp.ctx.clone())
            .unwrap_or_else(|| doc.prelude_ctx());
        match instance.view_live(&phi, &gamma, &output.collection, fuel) {
            Ok(view) => {
                output.views.insert(u, retainer.install(u, key, view));
            }
            Err(e) => {
                retainer.remove(u);
                output.view_errors.insert(u, e);
            }
        }
    }
    // Instances that vanished from the document release their trees.
    let live = &output.views;
    retainer.retain_holes(|u| live.contains_key(&u));
    if livelit_trace::enabled() {
        let (reused, rebuilt) = retainer.refresh_stats();
        if reused > 0 {
            livelit_trace::count(livelit_trace::Counter::ViewNodesReused, reused);
        }
        if rebuilt > 0 {
            livelit_trace::count(livelit_trace::Counter::ViewNodesRebuilt, rebuilt);
        }
        let retained = retainer.retained_nodes();
        if retained > 0 {
            livelit_trace::count(livelit_trace::Counter::ViewArenaLive, retained);
        }
    }
}
