//! `livelit-analysis`: static diagnostics for livelit programs.
//!
//! The paper's `ELivelit` rule (Fig. 5) checks each livelit invocation at
//! expansion time; Hazel surfaces failures as marked holes (Sec. 5.1).
//! This crate turns those checks — plus the disciplines the paper states
//! but does not mechanize — into a batch analysis engine with stable lint
//! codes:
//!
//! - **hygiene** ([`passes::hygiene`]): every `ELivelit` premise, per
//!   invocation, `LL0001`–`LL0008`;
//! - **splice discipline** ([`passes::splices`]): dead and duplicated
//!   splice references against the evaluated-once rule (Sec. 3.2.3),
//!   `LL0101`/`LL0102`;
//! - **hole audit** ([`passes::holes`]): the remaining-hole inventory from
//!   Δ with expected types and environments (Sec. 4.1),
//!   `LL0201`–`LL0203`;
//! - **definition lints** ([`passes::definitions`]): well-formedness,
//!   first-order models, closed expansion types, naming (Def. 4.3,
//!   Sec. 3.1), `LL0301`–`LL0304`;
//! - **determinism** ([`passes::determinism`]): expand-twice-and-diff for
//!   impure native expansion functions (Sec. 3.2.5), `LL0401` — gated by
//!   the static purity verdict below, so it runs only on the residue the
//!   static analysis cannot prove;
//! - **dataflow** ([`flow`]): the demand-driven incremental framework
//!   over the hash-consed term store — reachability/liveness `LL05xx`,
//!   static expansion purity `LL06xx`, and hole-context facts `LL07xx` —
//!   with per-definition dirty-set invalidation
//!   ([`flow::FlowAnalyzer`]).
//!
//! # Example
//!
//! ```
//! use hazel_lang::{Ctx, HoleName, IExp, LivelitAp, Typ, UExp};
//! use livelit_core::def::{LivelitCtx, LivelitDef};
//! use livelit_analysis::{AnalysisInput, Analyzer, Code};
//!
//! // A livelit whose expansion leaks a variable from the client's scope.
//! let mut phi = LivelitCtx::new();
//! phi.define(LivelitDef::native("$leaky", vec![], Typ::Int, Typ::Unit,
//!     |_| Ok(hazel_lang::build::var("client_secret"))))?;
//! let program = UExp::Livelit(Box::new(LivelitAp {
//!     name: "$leaky".into(),
//!     model: IExp::Unit,
//!     splices: vec![],
//!     hole: HoleName(0),
//! }));
//!
//! let report = Analyzer::with_default_passes().analyze(&AnalysisInput {
//!     phi: &phi,
//!     program: &program,
//!     ctx: &Ctx::empty(),
//! });
//! assert!(report.codes().contains(&Code::NotClosed)); // LL0004
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analyzer;
pub mod diagnostic;
pub mod flow;
pub mod passes;
pub mod sarif;

pub use analyzer::{analyze_invocation, AnalysisInput, Analyzer, Pass};
pub use diagnostic::{json_string, Code, Diagnostic, Location, Report, Severity};
pub use flow::{FlowAnalyzer, FlowUnit};
pub use passes::definitions::{definition_errors, lint_def};
