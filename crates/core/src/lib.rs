//! `livelit-core`: the typed livelit calculus of *Filling Typed Holes with
//! Live GUIs* (PLDI 2021) — the paper's primary contribution.
//!
//! Livelits are live graphical literals that fill typed holes. This crate
//! implements their semantics, independent of any GUI framework:
//!
//! - livelit definitions and contexts Φ with well-formedness (Def. 4.3)
//!   ([`def`]),
//! - the `Exp` reflection encoding `e ↓ d` / `d ↑ e` (Sec. 4.2.1) — both
//!   the string scheme ([`encoding`]) and the paper's sketched recursive-sum
//!   scheme ([`encoding_structural`]),
//! - typed macro expansion, rule `ELivelit` with all six premises and all
//!   client-facing failure modes (Fig. 5) ([`expansion`]),
//! - two-phase closure collection — cc-expansion, proto-environment
//!   collection, `fillΩ`, resumption (Sec. 4.3) — and incremental
//!   fill-and-resume result computation ([`cc`]),
//! - live splice evaluation under collected closures (Sec. 2.5) ([`live`]).
//!
//! # Example
//!
//! ```
//! use hazel_lang::build::*;
//! use hazel_lang::{HoleName, IExp, Typ, UExp, Var, LivelitAp, Splice};
//! use livelit_core::def::{LivelitCtx, LivelitDef};
//!
//! // A livelit with one Int splice that expands to `fun s -> s * 2`.
//! let mut phi = LivelitCtx::new();
//! phi.define(LivelitDef::native("$double", vec![], Typ::Int, Typ::Unit,
//!     |_model| Ok(lam("s", Typ::Int, mul(var("s"), int(2))))))?;
//!
//! // let x = 21 in $double(x)
//! let program = UExp::Let(
//!     Var::new("x"), None,
//!     Box::new(UExp::Int(21)),
//!     Box::new(UExp::Livelit(Box::new(LivelitAp {
//!         name: "$double".into(),
//!         model: IExp::Unit,
//!         splices: vec![Splice::new(UExp::Var(Var::new("x")), Typ::Int)],
//!         hole: HoleName(0),
//!     }))));
//!
//! // Collect closures, then compute the result by fill-and-resume.
//! let collection = livelit_core::cc::collect(&phi, &program)?;
//! assert_eq!(collection.resume_result()?, IExp::Int(42));
//! // The collected environment supports live splice evaluation: x = 21.
//! assert_eq!(collection.envs_for(HoleName(0))[0].get(&Var::new("x")),
//!            Some(&IExp::Int(21)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cc;
pub mod def;
pub mod encoding;
pub mod encoding_structural;
pub mod expansion;
pub mod live;
pub mod module;

pub use cc::{collect, collect_with_fuel, Collection, Omega};
pub use def::{EncodingScheme, ExpandFn, ExpansionKey, LivelitCtx, LivelitDef};
pub use expansion::{expand, expand_marked, expand_typed, ExpandError, MarkedError};
pub use live::{eval_splice, eval_splice_in_env, LiveError, LiveResult};
