//! `hazel-lang`: the Hazelnut-Live-style language of typed holes that the
//! livelit calculus (PLDI 2021, "Filling Typed Holes with Live GUIs") is
//! built on.
//!
//! This crate provides the three expression sorts of the paper's Fig. 4 —
//! unexpanded expressions `ê` ([`unexpanded::UExp`]), external expressions
//! `e` ([`external::EExp`]), and internal expressions `d`
//! ([`internal::IExp`]) — together with:
//!
//! - bidirectional typing `Γ ⊢ e : τ` producing hole contexts Δ
//!   ([`typing`]),
//! - elaboration `Γ ⊢ e ⇝ d : τ ⊣ Δ` initializing identity substitutions on
//!   hole closures ([`elab`]),
//! - contextual internal typing `Δ; Γ ⊢ d : τ` ([`internal_typing`]),
//! - fuel-limited evaluation of incomplete programs on a CEK-style
//!   environment machine ([`machine`]), with hole filling `⟦d/u⟧` and
//!   resumption ([`eval`]),
//! - the value/indeterminate/final classification ([`final_form`]),
//! - a surface-syntax parser ([`parse`]) and a width-aware pretty printer
//!   ([`pretty`]),
//! - builder DSLs for external expressions ([`build`]) and internal values
//!   ([`value::iv`]).
//!
//! # Example
//!
//! Evaluation proceeds *around* holes, recording closures:
//!
//! ```
//! use hazel_lang::build::*;
//! use hazel_lang::typ::Typ;
//! use hazel_lang::typing::Ctx;
//!
//! // (fun x : Int -> x + ?0) 5   — the hole blocks the sum, but the
//! // closure records x = 5 for later live evaluation.
//! let e = ap(lam("x", Typ::Int, add(var("x"), asc(hole(0), Typ::Int))), int(5));
//! let (d, ty, _delta) = hazel_lang::elab::elab_syn(&Ctx::empty(), &e)?;
//! assert_eq!(ty, Typ::Int);
//! let result = hazel_lang::eval::eval_traced(&d, hazel_lang::eval::DEFAULT_FUEL)?;
//! assert!(hazel_lang::final_form::is_indet(&result));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod elab;
pub mod eval;
pub mod external;
pub mod final_form;
pub mod ident;
pub mod internal;
pub mod internal_typing;
pub mod machine;
pub mod module;
pub mod ops;
pub mod parse;
pub mod pretty;
pub mod store;
pub mod typ;
pub mod typing;
pub mod unexpanded;
pub mod value;

pub use external::EExp;
pub use ident::{HoleName, Label, LivelitName, TVar, Var};
pub use internal::{IExp, Sigma};
pub use machine::{MachineCounters, MachineEvaluator};
pub use ops::BinOp;
pub use store::{TermId, TermStore, VarId};
pub use typ::Typ;
pub use typing::{Ctx, Delta, TypeError};
pub use unexpanded::{LivelitAp, Splice, UExp};
