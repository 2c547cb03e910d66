//! Cursor inspection: the typing information Hazel shows as the cursor
//! moves.
//!
//! - "Hazel displays the information in the livelit declaration when the
//!   cursor is on the livelit's name, just as it displays typing
//!   information in other situations" (Sec. 2.3) — [`describe_livelit`].
//! - "The livelit provides an expected type for each splice when it is
//!   created. ... Hazel displays and uses the expected type when the cursor
//!   is on the splice" (Sec. 2.4.2) — [`describe_splice`].
//! - [`describe_timings`] — the observability panel: per-phase timings and
//!   pipeline counters for the most recent edit, fed by a
//!   [`livelit_trace::StatsSink`] the host installs around edit handling.

use hazel_lang::ident::{HoleName, LivelitName};
use livelit_analysis::Report;
use livelit_mvu::splice::SpliceRef;
use livelit_trace::{fmt_ns, Counter, Stats};

use crate::doc::Document;
use crate::registry::LivelitRegistry;

/// The declaration summary shown when the cursor is on a livelit's name:
/// `livelit $slider (Int) (Int) at Int`, plus the abbreviation chain when
/// the name is an abbreviation.
pub fn describe_livelit(registry: &LivelitRegistry, name: &LivelitName) -> Option<String> {
    let (livelit, prefix) = registry.resolve(name).ok()??;
    let params = livelit
        .param_tys()
        .iter()
        .map(|t| format!("({t})"))
        .collect::<Vec<_>>()
        .join(" ");
    let head = if params.is_empty() {
        format!("livelit {} at {}", livelit.name(), livelit.expansion_ty())
    } else {
        format!(
            "livelit {} {params} at {}",
            livelit.name(),
            livelit.expansion_ty()
        )
    };
    if name == &livelit.name() {
        Some(head)
    } else {
        Some(format!(
            "{name} = {} applied to {} parameter(s) — {head}",
            livelit.name(),
            prefix.len(),
        ))
    }
}

/// The diagnostics shown when the cursor is on the hole `u` — the
/// analysis findings for that invocation (or empty hole), one rendered
/// block per finding, each tagged with its stable `LL` code.
///
/// Returns `None` when the report has nothing to say about this hole, so
/// callers can suppress the panel entirely.
pub fn describe_diagnostics(report: &Report, hole: HoleName) -> Option<String> {
    let found = report.for_hole(hole);
    if found.is_empty() {
        return None;
    }
    Some(
        found
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n"),
    )
}

/// The per-edit timing panel: what each pipeline phase cost during the
/// edits aggregated in `stats`, plus the pipeline counters that explain
/// the work (expansions, closures, splices, cache hits).
///
/// The host wires this up by installing a tracer over a
/// [`livelit_trace::StatsSink`] around its edit loop (exactly what the
/// `hazel stats` subcommand does for a batch run) and handing the
/// [`Stats`] snapshot here after each edit. Returns `None` when nothing
/// was recorded, so callers can suppress the panel entirely.
pub fn describe_timings(stats: &Stats) -> Option<String> {
    if stats.spans.is_empty() && stats.counters.is_empty() {
        return None;
    }
    let mut out = String::new();
    // Engine phases first — the per-edit story — then everything else
    // alphabetically (both halves inherit the BTreeMap order).
    for engine_pass in [true, false] {
        for (name, s) in &stats.spans {
            if name.starts_with("engine.") == engine_pass {
                out.push_str(&format!(
                    "{:<28} {:>10}  ×{}\n",
                    name,
                    fmt_ns(s.total_ns),
                    s.count
                ));
            }
        }
    }
    let interesting = [
        Counter::ExpansionsPerformed,
        Counter::ClosuresCollected,
        Counter::SplicesEvaluated,
        Counter::MachineSteps,
        Counter::ViewDiffPatches,
        Counter::AnalyzerCacheHits,
        Counter::AnalyzerCacheMisses,
        Counter::IncrementalFastPaths,
        Counter::IncrementalFullRuns,
        Counter::SpliceCacheHits,
        Counter::SpliceCacheMisses,
    ];
    let counters: Vec<String> = interesting
        .iter()
        .filter(|c| stats.counter(**c) > 0)
        .map(|c| format!("{} {}", c.as_str(), stats.counter(*c)))
        .collect();
    if !counters.is_empty() {
        out.push_str(&counters.join(" · "));
        out.push('\n');
    }
    Some(out)
}

/// The expected-type summary shown when the cursor is on a splice of the
/// livelit at `hole`: `splice s2 of $color : Int = baseline + 50`.
pub fn describe_splice(doc: &Document, hole: HoleName, splice: SpliceRef) -> Option<String> {
    let instance = doc.instance(hole)?;
    let info = instance.store().get(splice)?;
    let role = if info.is_param { "parameter" } else { "splice" };
    Some(format!(
        "{role} {splice} of {} : {} = {}",
        instance.name(),
        info.ty,
        hazel_lang::pretty::print_uexp(&info.content, 60),
    ))
}
