//! Hygiene and capture validation: every `ELivelit` premise, statically.
//!
//! Each livelit invocation is run through `expand_invocation` (premises
//! 1–5 of `ELivelit`, Fig. 5) and any failure is mapped to a stable code.
//! When every invocation validates, the whole program is expanded and type
//! checked so splice type errors under the invocation-site Γ (premise 6)
//! surface too.

use hazel_lang::unexpanded::LivelitAp;
use livelit_core::expansion::{expand_invocation, ExpandError, PExpansion};

use crate::analyzer::{AnalysisInput, Pass};
use crate::diagnostic::{Code, Diagnostic, Location, Severity};

/// The hygiene pass.
pub struct Hygiene;

impl Pass for Hygiene {
    fn name(&self) -> &'static str {
        "hygiene"
    }

    fn run(&self, input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut all_ok = true;
        for ap in input.program.livelit_aps() {
            let found = check_invocation(ap, &expand_invocation(input.phi, ap));
            all_ok &= found.is_empty();
            out.extend(found);
        }
        // Premise 6: splices must have their declared types under the
        // invocation-site Γ. Only meaningful once every invocation's own
        // premises hold (otherwise expansion stops at the earlier failure).
        if all_ok {
            if let Err(ExpandError::Type(e)) =
                livelit_core::expansion::expand_typed(input.phi, input.ctx, input.program)
            {
                out.push(Diagnostic::new(
                    Code::SpliceType,
                    Severity::Error,
                    Location::Program,
                    format!("program does not type check after expansion: {e}"),
                ));
            }
        }
        out
    }
}

/// Reports the failure, if any, of premises 1–5 of `ELivelit` for one
/// invocation, given their outcome.
pub fn check_invocation(
    ap: &LivelitAp,
    expansion: &Result<PExpansion, ExpandError>,
) -> Vec<Diagnostic> {
    match expansion {
        Ok(_) => Vec::new(),
        Err(e) => vec![diagnose_expand_error(ap, e)],
    }
}

/// Maps an [`ExpandError`] for the invocation at `ap.hole` to a diagnostic
/// with a stable code.
pub fn diagnose_expand_error(ap: &LivelitAp, error: &ExpandError) -> Diagnostic {
    let hole = Location::Hole(ap.hole);
    match error {
        ExpandError::UnboundLivelit(name) => Diagnostic::new(
            Code::UnboundLivelit,
            Severity::Error,
            hole,
            format!("livelit {name} is not registered"),
        ),
        ExpandError::ModelType { livelit, expected } => Diagnostic::new(
            Code::ModelType,
            Severity::Error,
            hole,
            format!("{livelit}: model value is not of the declared model type"),
        )
        .with_note(format!("declared model type: {expected}")),
        ExpandError::ExpandEval { livelit, error } => Diagnostic::new(
            Code::ExpandFailure,
            Severity::Error,
            hole,
            format!("{livelit}: expansion function failed to evaluate: {error}"),
        ),
        ExpandError::NativeExpand { livelit, message } => Diagnostic::new(
            Code::ExpandFailure,
            Severity::Error,
            hole,
            format!("{livelit}: expansion function failed: {message}"),
        ),
        ExpandError::Decode { livelit, error } => Diagnostic::new(
            Code::ExpandFailure,
            Severity::Error,
            hole,
            format!("{livelit}: encoded expansion failed to decode: {error}"),
        ),
        ExpandError::NotClosed { livelit, free } => {
            let mut d = Diagnostic::new(
                Code::NotClosed,
                Severity::Error,
                hole,
                format!(
                    "{livelit}: expansion is not context-independent; it captures \
                     variable(s) from the invocation site"
                ),
            );
            for x in free {
                d = d.with_note(format!("captured: {x}"));
            }
            d
        }
        ExpandError::Validation {
            livelit,
            expected,
            error,
        } => Diagnostic::new(
            Code::ExpansionType,
            Severity::Error,
            hole,
            format!("{livelit}: parameterized expansion is not of type {expected}"),
        )
        .with_note(format!("{error}")),
        ExpandError::MissingParameters {
            livelit,
            declared,
            supplied,
        } => Diagnostic::new(
            Code::MissingParameters,
            Severity::Error,
            hole,
            format!(
                "{livelit} declares {declared} parameter(s) but only {supplied} \
                 splice(s) were supplied"
            ),
        ),
        ExpandError::ParameterType {
            livelit,
            index,
            expected,
            found,
        } => Diagnostic::new(
            Code::ParameterType,
            Severity::Error,
            Location::Splice {
                hole: ap.hole,
                index: *index,
            },
            format!("{livelit}: parameter {index} has type {found}, expected {expected}"),
        ),
        ExpandError::Type(e) => Diagnostic::new(
            Code::SpliceType,
            Severity::Error,
            hole,
            format!("splice does not type check: {e}"),
        ),
    }
}
