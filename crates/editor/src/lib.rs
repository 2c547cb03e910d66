//! `hazel-editor`: the live programming engine hosting livelits.
//!
//! This crate is the headless analogue of the Hazel environment described
//! in Sec. 5 of *Filling Typed Holes with Live GUIs* (PLDI 2021):
//!
//! - a [`registry::LivelitRegistry`] of livelit implementations and
//!   abbreviations (decentralized extensibility),
//! - persistent [`doc::Document`]s pairing an unexpanded program with live
//!   livelit [`livelit_mvu::host::Instance`]s (only models and splices
//!   persist; expansions regenerate),
//! - the [`engine`]: after every edit — typed expansion with non-empty-hole
//!   error marking for each `ELivelit` failure mode, closure collection,
//!   fill-and-resume result computation, and view recomputation,
//! - character-grid [`render`]ing honoring the paper's character-count
//!   layout discipline (Sec. 5.3),
//! - plain-[`text`] buffer integration: serialize and restore livelit
//!   invocations through surface syntax (Sec. 5.2),
//! - a replayable, serializable edit-[`actions`] layer (session recording
//!   in lieu of the paper's deferred action semantics).

#![warn(missing_docs)]

pub mod actions;
pub mod analysis;
pub mod doc;
pub mod engine;
pub mod incremental;
pub mod inspect;
pub mod module;
pub mod registry;
pub mod render;
pub mod text;
pub mod views;

pub use actions::{apply_action, replay, EditAction, EditScript, Recorder, ReplayError};
pub use analysis::{analyze_document, IncrementalAnalyzer};
pub use doc::{DocError, Document, PreludeBinding};
pub use engine::{expansion, run, run_with_fuel, EngineError, EngineOutput, MarkedError};
pub use incremental::IncrementalEngine;
pub use inspect::{describe_diagnostics, describe_livelit, describe_splice, describe_timings};
pub use module::{open_module, ModuleError, ObjectLivelit};
pub use registry::{LivelitRegistry, RegistryError};
pub use render::{
    render_boxed, render_dashboard, render_diagnostics, render_session, render_view,
    InstanceResolver, OpaqueResolver, SpliceResolver,
};
pub use text::{load_buffer, save_buffer, BufferError};
pub use views::{view_key, ViewDelta, ViewKey, ViewRetainer};
