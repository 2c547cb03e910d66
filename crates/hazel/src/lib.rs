//! `hazel`: the full livelit programming system — a facade over the crates
//! reproducing *Filling Typed Holes with Live GUIs* (PLDI 2021).
//!
//! - [`lang`] — the Hazelnut-Live-style language of typed holes
//!   (`hazel-lang`): expressions, typing, elaboration, evaluation of
//!   incomplete programs, parsing, pretty printing.
//! - [`core`] — the typed livelit calculus (`livelit-core`): definitions,
//!   typed macro expansion, closure collection, live splice evaluation.
//! - [`mvu`] — the model–view–update–expand architecture (`livelit-mvu`):
//!   the `Livelit` trait, command interpreters, Html trees and diffing,
//!   splice stores, abbreviations.
//! - [`editor`] — the live programming engine (`hazel-editor`): documents,
//!   the edit pipeline with error marking, closure selection, rendering,
//!   and text-buffer integration.
//! - [`analysis`] — static diagnostics (`livelit-analysis`): hygiene and
//!   capture validation, splice discipline, hole audits, definition lints,
//!   and expansion determinism, each with a stable `LLxxxx` code.
//! - [`std`] — the standard livelit library (`livelit-std`): `$color`,
//!   `$slider`/`$percent`, `$checkbox`, `$dataframe`, `$grade_cutoffs`,
//!   `$basic_adjustments`, the image substrate, and the grading library.
//! - [`server`] — the headless document service (`livelit-server`):
//!   multi-session line-delimited JSON protocol over the incremental
//!   engine, shipping view diffs instead of full re-renders; see
//!   `hazel serve` on the CLI.
//! - [`trace`] — structured observability (`livelit-trace`): spans,
//!   counters, and pluggable sinks over every phase of the pipeline; see
//!   `hazel trace` / `hazel stats` on the CLI.
//!
//! # Quickstart
//!
//! ```
//! use hazel::prelude::*;
//!
//! // A registry with the full standard livelit library.
//! let mut registry = LivelitRegistry::new();
//! hazel::std::register_all(&mut registry);
//!
//! // A program with a typed hole, parsed from surface syntax.
//! let program = hazel::lang::parse::parse_uexp(
//!     "let baseline = 57 in (?0 : (.r Int, .g Int, .b Int, .a Int))")?;
//! let mut doc = Document::new(&registry, vec![], program)?;
//!
//! // Fill the hole with the $color livelit and run the live pipeline.
//! doc.fill_hole_with_livelit(&registry, hazel::lang::HoleName(0), "$color", vec![])?;
//! let out = hazel::editor::run(&registry, &doc)?;
//! assert!(out.collection.errors.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use hazel_editor as editor;
pub use hazel_lang as lang;
pub use livelit_analysis as analysis;
pub use livelit_core as core;
pub use livelit_mvu as mvu;
pub use livelit_server as server;
pub use livelit_std as std;
pub use livelit_trace as trace;

/// Commonly used items, for `use hazel::prelude::*`.
pub mod prelude {
    pub use hazel_editor::{
        load_buffer, run, save_buffer, Document, LivelitRegistry, PreludeBinding,
    };
    pub use hazel_lang::build;
    pub use hazel_lang::{
        BinOp, Ctx, Delta, EExp, HoleName, IExp, Label, LivelitAp, LivelitName, Sigma, Splice, Typ,
        TypeError, UExp, Var,
    };
    pub use livelit_analysis::{AnalysisInput, Analyzer, Code, Diagnostic, Report, Severity};
    pub use livelit_core::{collect, expand, expand_typed, LivelitCtx, LivelitDef};
    pub use livelit_mvu::{
        Action, CmdError, ContextBinding, Dim, Html, Instance, Livelit, Model, SpliceRef,
        UpdateCtx, ViewCtx,
    };
}
