//! A demand-driven, incremental dataflow-analysis framework over the
//! hash-consed term store.
//!
//! The pieces compose bottom-up:
//!
//! - [`engine`] — a generic monotone-fixpoint solver over an arbitrary
//!   join-semilattice, plus the [`engine::FactMemo`] that keys per-term
//!   facts on hash-consed `TermId`s so structurally shared subterms are
//!   analyzed once.
//! - [`facts`] — the term facts themselves: free-variable use counts,
//!   fillable-hole inventories, and effect bits, computed bottom-up and
//!   memoized by `TermId`.
//! - [`liveness`] — the `LL05xx` reachability/liveness family: unused
//!   bindings, unreachable match arms and branches, and (via the
//!   cross-definition fixpoint in [`analyzer`]) unused definitions.
//! - [`purity`] — the `LL06xx` static purity/effect inference for
//!   expansion functions: a conservative effect lattice over the
//!   elaborated internal language that proves most expansions
//!   deterministic, so the dynamic `LL0401` double-expansion check runs
//!   only on the residue.
//! - [`holectx`] — the `LL07xx` hole-context facts: liveness flows
//!   *through* holes (a binding in scope at a hole may gain uses when the
//!   hole is filled), and holes in unreachable code are flagged vacuous.
//! - [`analyzer`] — [`analyzer::FlowAnalyzer`]: the stateful,
//!   per-definition incremental driver with dirty-set invalidation.

pub mod analyzer;
pub mod engine;
pub mod facts;
pub mod holectx;
pub mod liveness;
pub mod purity;

pub use analyzer::{FlowAnalyzer, FlowUnit};
pub use engine::{FactMemo, Fixpoint, Lattice, SolveStats};
pub use facts::TermFacts;
pub use purity::{infer_def, Purity};
