//! Character-grid rendering (Sec. 5.3).
//!
//! Layout "relies fundamentally on character counts", so livelit views are
//! rendered into a grid of characters: block elements stack their children,
//! rows join them side by side, and splice editors and result views are
//! resolved through a [`SpliceResolver`] to the text the editor would
//! display. Inline livelits are one character row high; multi-line livelits
//! occupy a block (Sec. 5.3).

use livelit_mvu::html::Html;
use livelit_mvu::splice::SpliceRef;

/// Resolves the opaque editor/result regions of a view to display text.
pub trait SpliceResolver {
    /// The current text of the splice's editor.
    fn editor_text(&self, r: SpliceRef) -> String;
    /// The rendered evaluation result for the splice, if available.
    fn result_text(&self, r: SpliceRef) -> Option<String>;
}

/// A resolver that renders every splice as its reference — useful in tests
/// and for detached views.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpaqueResolver;

impl SpliceResolver for OpaqueResolver {
    fn editor_text(&self, r: SpliceRef) -> String {
        format!("<{r}>")
    }

    fn result_text(&self, _r: SpliceRef) -> Option<String> {
        None
    }
}

fn pad_to(s: &str, width: usize) -> String {
    let mut out: String = s.chars().take(width).collect();
    while out.chars().count() < width {
        out.push(' ');
    }
    out
}

/// Block-level tags: children are stacked vertically.
const BLOCK_TAGS: &[&str] = &["div", "table", "section", "ul"];
/// Row-level tags: children are joined horizontally.
const ROW_TAGS: &[&str] = &["tr", "row"];

/// Renders a view to lines of text.
pub fn render_view<A>(view: &Html<A>, resolver: &impl SpliceResolver) -> Vec<String> {
    match view {
        Html::Text(s) => s.split('\n').map(str::to_owned).collect(),
        Html::Editor { splice, dim } => {
            vec![format!(
                "[{}]",
                pad_to(&resolver.editor_text(*splice), dim.width)
            )]
        }
        Html::ResultView { splice, dim } => {
            let text = resolver
                .result_text(*splice)
                .unwrap_or_else(|| "∅".to_owned());
            vec![pad_to(&text, dim.width)]
        }
        Html::Element { tag, children, .. } => {
            if ROW_TAGS.contains(&tag.as_str()) {
                render_row(children, resolver)
            } else if BLOCK_TAGS.contains(&tag.as_str()) {
                let mut lines = Vec::new();
                for child in children {
                    lines.extend(render_view(child, resolver));
                }
                if lines.is_empty() {
                    lines.push(String::new());
                }
                lines
            } else {
                // Inline: join children on one line (first line of each).
                let mut line = String::new();
                let mut extra: Vec<String> = Vec::new();
                for child in children {
                    let child_lines = render_view(child, resolver);
                    if let Some((first, rest)) = child_lines.split_first() {
                        line.push_str(first);
                        extra.extend(rest.iter().cloned());
                    }
                }
                let mut lines = vec![line];
                lines.extend(extra);
                lines
            }
        }
    }
}

fn render_row<A>(children: &[Html<A>], resolver: &impl SpliceResolver) -> Vec<String> {
    let rendered: Vec<Vec<String>> = children.iter().map(|c| render_view(c, resolver)).collect();
    let height = rendered.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = rendered
        .iter()
        .map(|lines| lines.iter().map(|l| l.chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = Vec::with_capacity(height);
    for row in 0..height {
        let mut line = String::new();
        for (cell, width) in rendered.iter().zip(&widths) {
            let text = cell.get(row).map(String::as_str).unwrap_or("");
            line.push_str(&pad_to(text, *width));
            line.push(' ');
        }
        out.push(line.trim_end().to_owned());
    }
    if out.is_empty() {
        out.push(String::new());
    }
    out
}

/// Renders an analysis report as character-grid lines: a gutter glyph per
/// severity (`✗` error, `!` warning, `·` info), the stable `LL` code, the
/// location, and the message, with notes indented beneath.
///
/// Returns no lines for an empty report, so callers can splice the block
/// into a session rendering only when there is something to show.
pub fn render_diagnostics(report: &livelit_analysis::Report) -> Vec<String> {
    use livelit_analysis::Severity;
    let mut out = Vec::new();
    for d in report.diagnostics() {
        let glyph = match d.severity {
            Severity::Error => '✗',
            Severity::Warning => '!',
            Severity::Info => '·',
        };
        out.push(format!(
            "{glyph} [{}] {}: {}",
            d.code, d.location, d.message
        ));
        for note in &d.notes {
            out.push(format!("    note: {note}"));
        }
    }
    out
}

/// Renders a view inside a simple box frame, labeled with the livelit name
/// — how multi-line livelits appear embedded in the program text.
pub fn render_boxed<A>(label: &str, view: &Html<A>, resolver: &impl SpliceResolver) -> Vec<String> {
    let body = render_view(view, resolver);
    let width = body
        .iter()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(0)
        .max(label.chars().count() + 2);
    let mut out = Vec::with_capacity(body.len() + 2);
    out.push(format!(
        "┌─{}{}┐",
        label,
        "─".repeat(width - label.chars().count())
    ));
    for line in body {
        out.push(format!("│ {}│", pad_to(&line, width)));
    }
    out.push(format!("└─{}┘", "─".repeat(width)));
    out
}

/// Renders a full editing session: the program text followed by each
/// livelit's live GUI, honoring the livelit's layout class (Sec. 5.3) —
/// inline livelits render as a single unboxed row, multi-line livelits as
/// a framed block clipped to their declared row budget.
pub fn render_session(
    registry: &crate::registry::LivelitRegistry,
    doc: &crate::doc::Document,
    out: &crate::engine::EngineOutput,
    width: usize,
) -> String {
    let mut lines = Vec::new();
    lines.push(hazel_lang::pretty::print_uexp(doc.program(), width));
    lines.push(String::new());
    let phi = registry.phi();
    for u in doc.livelit_holes() {
        let Some(instance) = doc.instance(u) else {
            continue;
        };
        let Some(view) = out.views.get(&u) else {
            if let Some(err) = out.view_errors.get(&u) {
                // View errors display in place of the GUI (Sec. 5.1).
                lines.push(format!("{} at {u}: view error: {err}", instance.name()));
            }
            continue;
        };
        let resolver = InstanceResolver::selected(instance, &phi, &out.collection, u);
        match instance.layout() {
            livelit_mvu::LivelitLayout::Inline => {
                let rendered = render_view(view, &resolver);
                let row = rendered.first().map(String::as_str).unwrap_or("");
                lines.push(format!("{u} ▸ {} {row}", instance.name()));
            }
            livelit_mvu::LivelitLayout::MultiLine { max_rows } => {
                let label = format!("{} @{u}", instance.name());
                let mut boxed = render_boxed(&label, view, &resolver);
                if boxed.len() > max_rows + 2 {
                    boxed.truncate(max_rows + 1);
                    boxed.push("└─ ⋯ (clipped) ─┘".to_owned());
                }
                lines.extend(boxed);
            }
        }
    }
    lines.join("\n")
}

/// Renders only the livelit GUIs, in the "dashboard" style the paper
/// sketches for end-user programming (Sec. 5.3): "users with limited
/// programming experience could interact with a collection of livelits laid
/// out separately ... without necessarily even being aware that their
/// interactions are actually edits to an underlying typed functional
/// program."
pub fn render_dashboard(
    registry: &crate::registry::LivelitRegistry,
    doc: &crate::doc::Document,
    out: &crate::engine::EngineOutput,
) -> String {
    let mut lines = Vec::new();
    let phi = registry.phi();
    for u in doc.livelit_holes() {
        let (Some(instance), Some(view)) = (doc.instance(u), out.views.get(&u)) else {
            continue;
        };
        let resolver = InstanceResolver::selected(instance, &phi, &out.collection, u);
        lines.extend(render_boxed(&instance.name().to_string(), view, &resolver));
        lines.push(String::new());
    }
    lines.join("\n")
}

/// A resolver backed by a live instance: splice editors show the splice's
/// pretty-printed contents, result views show the live evaluation result
/// under one of the closures collected for the instance's hole.
///
/// Result views evaluate through the collection's interned term store and
/// splice-result cache ([`livelit_core::live::eval_splice`]), so repeated
/// renders of an unchanged splice are cache hits rather than re-walks.
pub struct InstanceResolver<'a> {
    /// The instance whose store backs the splices.
    pub instance: &'a livelit_mvu::host::Instance,
    /// The livelit context for expanding splices.
    pub phi: &'a livelit_core::def::LivelitCtx,
    /// The closure collection backing live evaluation.
    pub collection: &'a livelit_core::cc::Collection,
    /// The livelit hole this instance fills.
    pub hole: hazel_lang::ident::HoleName,
    /// Which collected closure to evaluate under.
    pub env_index: usize,
}

impl<'a> InstanceResolver<'a> {
    /// A resolver evaluating under the instance's selected closure (as its
    /// view does), clamped to the closures collected for `hole`.
    pub(crate) fn selected(
        instance: &'a livelit_mvu::host::Instance,
        phi: &'a livelit_core::def::LivelitCtx,
        collection: &'a livelit_core::cc::Collection,
        hole: hazel_lang::ident::HoleName,
    ) -> InstanceResolver<'a> {
        let env_index = instance
            .selected_env
            .min(collection.envs_for(hole).len().saturating_sub(1));
        InstanceResolver {
            instance,
            phi,
            collection,
            hole,
            env_index,
        }
    }
}

impl SpliceResolver for InstanceResolver<'_> {
    fn editor_text(&self, r: SpliceRef) -> String {
        match self.instance.store().get(r) {
            Some(info) => hazel_lang::pretty::print_uexp(&info.content, usize::MAX),
            None => format!("<dangling {r}>"),
        }
    }

    fn result_text(&self, r: SpliceRef) -> Option<String> {
        let info = self.instance.store().get(r)?;
        let result = livelit_core::live::eval_splice(
            self.phi,
            self.collection,
            self.hole,
            self.env_index,
            &info.content,
            &info.ty,
        )
        .ok()??;
        Some(hazel_lang::pretty::print_iexp(result.exp(), usize::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livelit_mvu::html::tags::*;
    use livelit_mvu::html::{Dim, Html};

    #[test]
    fn text_renders_as_lines() {
        let v: Html<()> = Html::text("ab\ncd");
        assert_eq!(render_view(&v, &OpaqueResolver), vec!["ab", "cd"]);
    }

    #[test]
    fn div_stacks_children() {
        let v: Html<()> = div(vec![Html::text("a"), Html::text("b")]);
        assert_eq!(render_view(&v, &OpaqueResolver), vec!["a", "b"]);
    }

    #[test]
    fn span_joins_inline() {
        let v: Html<()> = span(vec![Html::text("a"), Html::text("b")]);
        assert_eq!(render_view(&v, &OpaqueResolver), vec!["ab"]);
    }

    #[test]
    fn row_joins_columns_with_padding() {
        let v: Html<()> = Html::node("tr", vec![Html::text("left"), Html::text("r")]);
        assert_eq!(render_view(&v, &OpaqueResolver), vec!["left r"]);
    }

    #[test]
    fn editor_uses_resolver_and_width() {
        let v: Html<()> = Html::Editor {
            splice: SpliceRef(3),
            dim: Dim::fixed_width(6),
        };
        assert_eq!(render_view(&v, &OpaqueResolver), vec!["[<s3>  ]"]);
    }

    #[test]
    fn result_view_shows_placeholder_when_unavailable() {
        let v: Html<()> = Html::ResultView {
            splice: SpliceRef(1),
            dim: Dim::fixed_width(3),
        };
        assert_eq!(render_view(&v, &OpaqueResolver), vec!["∅  "]);
    }

    #[test]
    fn boxed_view_has_frame() {
        let v: Html<()> = div(vec![Html::text("body")]);
        let lines = render_boxed("$x", &v, &OpaqueResolver);
        assert!(lines[0].starts_with("┌─$x"));
        assert!(lines.last().unwrap().starts_with("└─"));
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn overflow_truncated_to_dim_width() {
        let v: Html<()> = Html::Editor {
            splice: SpliceRef(0),
            dim: Dim::fixed_width(2),
        };
        // "<s0>" truncated to 2 chars.
        assert_eq!(render_view(&v, &OpaqueResolver), vec!["[<s]"]);
    }
}
