//! The splice-reference graph, derived from memoized term facts.
//!
//! The splice-discipline lints (`LL0101` dead splice, `LL0102`
//! duplicated splice) need, for each splice of an invocation, the number
//! of references the parameterized expansion makes to it. The original
//! pass recomputed that with an ad-hoc recursive walk per splice —
//! O(splices × |expansion|) per invocation, from scratch on every
//! analysis run. Here the counts are instead read off the [`TermFacts`]
//! of the expansion's hash-consed skeleton: interning is shared with
//! everything else that interns the same expansion, the per-term facts
//! are memoized by `TermId`, and all splices of an invocation are
//! answered by one bottom-up pass.
//!
//! The store and memo are thread-local rather than global so parallel
//! analysis tasks never contend (and never observe each other's memo
//! state, keeping per-task tallies deterministic).

use std::cell::RefCell;

use hazel_lang::store::{Node, TermStore};
use hazel_lang::unexpanded::{LivelitAp, UExp};
use livelit_core::def::LivelitCtx;
use livelit_core::expansion::expand_invocation;

use super::engine::FactMemo;
use super::facts::{FactScout, TermFacts};
use crate::diagnostic::{Code, Diagnostic, Location, Severity};

thread_local! {
    /// Per-thread skeleton store + fact memo for expansion analysis.
    static GRAPH: RefCell<(TermStore, FactMemo<TermFacts>)> =
        RefCell::new((TermStore::new(), FactMemo::new()));
}

/// Per-splice reference counts for one invocation, in splice order.
///
/// The parameterized expansion has curried type `{τi}^(i<n) → τ_expand`;
/// when it is syntactically a chain of lambdas, each binder stands for
/// one splice and its free-occurrence count in the remaining body is
/// that splice's reference count. The returned vector covers the peeled
/// prefix only — expansions that are not syntactic lambda chains (e.g.
/// produced by an application) stop the peel, and a failed expansion
/// yields `None`.
pub fn splice_reference_counts(phi: &LivelitCtx, ap: &LivelitAp) -> Option<Vec<u32>> {
    let pe = expand_invocation(phi, ap).ok()?;
    let skeleton = UExp::from_eexp(&pe.pexpansion);
    Some(GRAPH.with(|cell| {
        let mut graph = cell.borrow_mut();
        let (store, memo) = &mut *graph;
        let root = store.intern_uexp_skeleton(&skeleton);
        let mut scout = FactScout::new(store, memo);
        let mut counts = Vec::with_capacity(ap.splices.len());
        let mut term = root;
        for _ in 0..ap.splices.len() {
            let Node::Lam(x, _, body) = store.node(term) else {
                break;
            };
            let (x, body) = (*x, *body);
            counts.push(scout.facts(body).uses(x));
            term = body;
        }
        let (overlay, _tally) = scout.into_overlay();
        memo.absorb(overlay);
        counts
    }))
}

/// Checks the evaluated-once discipline for one invocation, producing
/// the `LL0101`/`LL0102` diagnostics.
pub fn check_invocation(phi: &LivelitCtx, ap: &LivelitAp) -> Vec<Diagnostic> {
    let Some(counts) = splice_reference_counts(phi, ap) else {
        return Vec::new();
    };
    let name = &ap.name;
    let mut out = Vec::new();
    for (index, count) in counts.into_iter().enumerate() {
        let location = Location::Splice {
            hole: ap.hole,
            index,
        };
        if count == 0 {
            out.push(
                Diagnostic::new(
                    Code::DeadSplice,
                    Severity::Warning,
                    location,
                    format!(
                        "splice {index} of {name} is never referenced by the expansion; \
                         edits to it cannot affect the result"
                    ),
                )
                .with_note("splices are evaluated exactly once (Sec. 3.2.3)".to_string()),
            );
        } else if count > 1 {
            out.push(
                Diagnostic::new(
                    Code::DuplicatedSplice,
                    Severity::Warning,
                    location,
                    format!(
                        "splice {index} of {name} is referenced {count} times by the \
                         expansion; splices should be referenced exactly once"
                    ),
                )
                .with_note("splices are evaluated exactly once (Sec. 3.2.3)".to_string()),
            );
        }
    }
    out
}
