//! Hole audit: what holes remain, at what types, in which environments,
//! and which livelits (if any) could fill them.
//!
//! The hole context Δ assigns every remaining hole an expected type and a
//! typing environment (Sec. 4.1). The audit surfaces that inventory, flags
//! holes no registered livelit can fill (by expansion type, Sec. 2.3), and
//! notes invocations that will be marked as non-empty holes (Sec. 5.1).

use std::collections::BTreeSet;

use hazel_lang::typing::syn;
use livelit_core::expansion::expand_marked;

use crate::analyzer::{AnalysisInput, Pass};
use crate::diagnostic::{Code, Diagnostic, Location, Severity};

/// How many in-scope bindings a hole-inventory note lists before eliding.
const MAX_CTX_NOTES: usize = 8;

/// The hole-audit pass.
pub struct HoleAudit;

impl Pass for HoleAudit {
    fn name(&self) -> &'static str {
        "hole-audit"
    }

    fn run(&self, input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        // Stay live in the face of failing invocations, exactly as the
        // editor does: mark them as holes and audit the rest.
        let (expanded, marked) = expand_marked(input.phi, input.program);
        let failed: BTreeSet<_> = marked.iter().map(|m| m.hole).collect();
        for u in &failed {
            out.push(Diagnostic::new(
                Code::NonEmptyHole,
                Severity::Info,
                Location::Hole(*u),
                "this invocation is marked as a non-empty hole; the rest of the \
                 program stays live"
                    .to_string(),
            ));
        }

        // Holes consumed by livelit invocations are filled or marked; the
        // ones left in Δ after expansion are genuinely open.
        let livelit_holes: BTreeSet<_> = input
            .program
            .livelit_aps()
            .iter()
            .map(|ap| ap.hole)
            .collect();

        let Ok((_, delta)) = syn(input.ctx, &expanded) else {
            // The program does not type check even with failures
            // marked; the hygiene pass reports why.
            return out;
        };

        for (u, hyp) in delta.iter() {
            if livelit_holes.contains(u) {
                continue;
            }
            let mut inventory = Diagnostic::new(
                Code::HoleInventory,
                Severity::Info,
                Location::Hole(*u),
                format!("empty hole of type {}", hyp.ty),
            );
            let mut bindings: Vec<String> = hyp
                .ctx
                .iter()
                .map(|(x, ty)| format!("in scope: {x} : {ty}"))
                .collect();
            if bindings.len() > MAX_CTX_NOTES {
                let elided = bindings.len() - MAX_CTX_NOTES;
                bindings.truncate(MAX_CTX_NOTES);
                bindings.push(format!("... and {elided} more binding(s)"));
            }
            for note in bindings {
                inventory = inventory.with_note(note);
            }
            out.push(inventory);

            let fillers: Vec<String> = input
                .phi
                .iter()
                .filter(|(_, def)| def.expansion_ty == hyp.ty)
                .map(|(name, _)| name.to_string())
                .collect();
            if fillers.is_empty() {
                out.push(Diagnostic::new(
                    Code::HoleUninhabitable,
                    Severity::Info,
                    Location::Hole(*u),
                    format!(
                        "no registered livelit expands at type {}; this hole can \
                         only be filled textually",
                        hyp.ty
                    ),
                ));
            }
        }
        out
    }
}
