//! The live programming engine: the edit → feedback pipeline (Sec. 5.1).
//!
//! After every edit, Hazel re-runs: typed expansion → elaboration →
//! evaluation with closure collection → livelit view computation. Every
//! editor state is semantically meaningful; closure collection marks
//! livelit failure modes with holes so "erroneous expressions ... do not
//! prevent other parts of the program from evaluating" (Sec. 2.4.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use hazel_lang::eval::DEFAULT_FUEL;
use hazel_lang::external::EExp;
use hazel_lang::ident::HoleName;
use hazel_lang::internal::IExp;
use hazel_lang::unexpanded::UExp;
use livelit_core::cc::{collect_with_fuel, CollectError, Collection};
use livelit_core::expansion::expand_marked;
use livelit_mvu::html::Html;
use livelit_mvu::livelit::{Action, CmdError};

use crate::doc::{DocError, Document};
use crate::registry::LivelitRegistry;
use crate::views::{view_key, ViewKey, ViewRetainer};

/// Everything the editor needs to refresh the display after an edit.
///
/// The program's type is [`Collection::ty`] and its marked livelit
/// failures are [`Collection::errors`]; its full expansion, which only
/// inspection reads (Sec. 2.2's toggle), is built on demand by
/// [`expansion`].
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// The closure collection (cc-expansion, its type, Ω, marked failures,
    /// environments per livelit).
    pub collection: Collection,
    /// The final program result, computed by fill-and-resume from the
    /// collection (Sec. 4.3.2) — not by re-evaluating from scratch.
    pub result: IExp,
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
    run_with_fuel_in(registry, doc, &doc.full_program(), fuel, &mut retainer)
}

/// [`run_with_fuel`] on `program`, the document's
/// [`Document::full_program`], building views into a caller-owned
/// [`ViewRetainer`].
///
/// # Errors
///
/// See [`run`].
pub(crate) fn run_with_fuel_in(
    registry: &LivelitRegistry,
    doc: &Document,
    program: &UExp,
    fuel: u64,
    retainer: &mut ViewRetainer,
) -> Result<EngineOutput, EngineError> {
    let _span = livelit_trace::span("engine.run");
    let phi = registry.phi();

    // Closure collection, which marks failing invocations as holes.
    let collection = {
        let _span = livelit_trace::span("engine.collect");
        collect_with_fuel(&phi, program, fuel)?
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
        views: BTreeMap::new(),
        view_errors: BTreeMap::new(),
    };
    recompute_views(registry, doc, &mut output, fuel, retainer);
    Ok(output)
}

/// The full expansion of the document's program (Sec. 2.2's expansion
/// toggle), with failing livelit invocations marked as in [`run`].
pub fn expansion(registry: &LivelitRegistry, doc: &Document) -> EExp {
    expand_marked(&registry.phi(), &doc.full_program()).0
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
    // splice evaluation or view construction.
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
