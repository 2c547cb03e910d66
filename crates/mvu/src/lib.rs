//! `livelit-mvu`: the model–view–update–**expand** architecture for livelit
//! GUIs (Sec. 3 of *Filling Typed Holes with Live GUIs*, PLDI 2021).
//!
//! This crate provides everything a livelit *provider* programs against:
//!
//! - the [`livelit::Livelit`] trait — `init` / `view` / `update` / `expand`
//!   with declared model, expansion, parameter types and definition-site
//!   context,
//! - the command interpreters [`livelit::UpdateCtx`] (`new_splice`,
//!   `set_splice`, ...) and [`livelit::ViewCtx`] (`eval_splice`, `editor`,
//!   `result_view`),
//! - immutable [`html::Html`] view trees and positional diffing via the
//!   [`mod@diff`] module (Sec. 3.2.4),
//! - the [`splice::SpliceStore`] with context-independence checks
//!   (Sec. 3.2.1),
//! - livelit [`abbrev`]iations (partial parameter application, Sec. 2.4.1),
//! - the [`host::Instance`] driving the livelit lifecycle at one invocation
//!   site and projecting it back into the syntax tree.

#![warn(missing_docs)]

pub mod abbrev;
pub mod diff;
pub mod host;
pub mod html;
pub mod livelit;
pub mod splice;

pub use abbrev::AbbrevCtx;
pub use diff::{apply, diff, diff_into, rebuilt_nodes, try_apply, Patch, PatchError};
pub use host::{def_for, Instance};
pub use html::{Dim, EventKind, Html};
pub use livelit::{
    Action, CmdError, ContextBinding, Livelit, LivelitLayout, Model, UpdateCtx, ViewCtx,
};
pub use splice::{SpliceRef, SpliceStore};

/// A retained re-render, as the editor's view retainer performs it: the
/// retained snapshot is reconciled with a freshly computed view by diffing
/// into a reused scratch buffer, the nodes shipped in `Replace` and
/// `AppendChild` payloads count as rebuilt, and the snapshot rolls forward
/// to the new view. These are the node-accounting cases of the retained
/// render path.
#[cfg(test)]
mod reconcile {
    use crate::diff::{diff, diff_into, rebuilt_nodes, try_apply, Patch};
    use crate::html::Html;

    /// What one re-render did, in nodes of the new view: every new node is
    /// either `reused` (kept in place, patched at most) or `rebuilt`
    /// (shipped fresh in a payload).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Stats {
        reused: usize,
        rebuilt: usize,
    }

    /// The nodes of `new` a positional walk keeps in place, computed from
    /// the two trees alone: text nodes (patched at most), unchanged
    /// editor/result leaves, and same-tag elements with their common
    /// prefix of children.
    fn kept_in_place(old: &Html<u32>, new: &Html<u32>) -> usize {
        match (old, new) {
            (Html::Text(_), Html::Text(_)) => 1,
            (Html::Editor { .. }, Html::Editor { .. })
            | (Html::ResultView { .. }, Html::ResultView { .. }) => usize::from(old == new),
            (
                Html::Element {
                    tag: t1,
                    children: c1,
                    ..
                },
                Html::Element {
                    tag: t2,
                    children: c2,
                    ..
                },
            ) if t1 == t2 => {
                1 + c1
                    .iter()
                    .zip(c2)
                    .map(|(a, b)| kept_in_place(a, b))
                    .sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Re-renders the retained `snapshot` as `new` through `scratch` and
    /// checks the contract on the way: the stored script is exactly
    /// `diff(old, new)` and rolls the old snapshot forward to `new`, and
    /// the rebuilt payload nodes plus the nodes kept in place partition
    /// `new`.
    fn rerender(snapshot: &mut Html<u32>, new: &Html<u32>, scratch: &mut Vec<Patch<u32>>) -> Stats {
        scratch.clear();
        diff_into(snapshot, new, scratch);
        assert_eq!(
            *scratch,
            diff(snapshot, new),
            "patch script must match diff"
        );
        assert_eq!(try_apply(snapshot, scratch), Ok(new.clone()));
        let stats = Stats {
            reused: kept_in_place(snapshot, new),
            rebuilt: rebuilt_nodes(scratch),
        };
        assert_eq!(
            stats.reused + stats.rebuilt,
            new.size(),
            "every new node is reused or rebuilt"
        );
        *snapshot = new.clone();
        stats
    }

    mod tests {
        use super::*;
        use crate::html::tags::*;
        use crate::html::Dim;
        use crate::splice::SpliceRef;

        /// One re-render of a fresh snapshot of `old`; returns its stats
        /// and the stored patch script.
        fn check(old: &Html<u32>, new: &Html<u32>) -> (Stats, Vec<Patch<u32>>) {
            let mut snapshot = old.clone();
            let mut scratch = Vec::new();
            let stats = rerender(&mut snapshot, new, &mut scratch);
            assert_eq!(snapshot, *new, "the snapshot must hold the new view");
            (stats, scratch)
        }

        fn editor(splice: u64) -> Html<u32> {
            Html::Editor {
                splice: SpliceRef(splice),
                dim: Dim::fixed_width(20),
            }
        }

        #[test]
        fn identical_trees_reuse_everything() {
            let t: Html<u32> = div(vec![
                Html::text("x"),
                span(vec![Html::text("y")]).attr("k", "v"),
            ]);
            let (stats, patches) = check(&t, &t.clone());
            assert!(patches.is_empty());
            assert_eq!(stats.rebuilt, 0);
            assert_eq!(stats.reused, t.size());
        }

        #[test]
        fn text_edit_patches_in_place() {
            let old: Html<u32> = div(vec![Html::text("57")]);
            let new: Html<u32> = div(vec![Html::text("58")]);
            let (stats, patches) = check(&old, &new);
            assert_eq!(patches, vec![Patch::SetText(vec![0], "58".into())]);
            assert_eq!(stats.rebuilt, 0);
        }

        #[test]
        fn attr_and_handler_edits_patch_in_place() {
            let old: Html<u32> = div(vec![button(vec![]).attr("class", "a").on_click(1)]);
            let new: Html<u32> = div(vec![button(vec![]).attr("class", "b").on_click(2)]);
            let (stats, patches) = check(&old, &new);
            assert_eq!(patches.len(), 2, "one SetAttrs and one SetHandlers");
            assert_eq!(stats.rebuilt, 0);
        }

        #[test]
        fn child_growth_rebuilds_only_the_appended_subtree() {
            let old: Html<u32> = div(vec![Html::text("a")]);
            let new: Html<u32> = div(vec![Html::text("a"), span(vec![Html::text("b")])]);
            let (stats, _) = check(&old, &new);
            assert_eq!(stats.rebuilt, 2, "the appended span subtree only");
            assert_eq!(stats.reused, 2);
        }

        #[test]
        fn child_shrink_truncates_and_frees() {
            let old: Html<u32> = div(vec![Html::text("a"), span(vec![Html::text("b")])]);
            let new: Html<u32> = div(vec![Html::text("a")]);
            let (stats, patches) = check(&old, &new);
            assert_eq!(patches, vec![Patch::TruncateChildren(vec![], 1)]);
            assert_eq!(stats.rebuilt, 0);
            assert_eq!(
                stats.reused,
                old.size() - 2,
                "the truncated span subtree is no longer retained"
            );
        }

        #[test]
        fn tag_change_rebuilds_the_subtree_at_a_stable_root() {
            let old: Html<u32> = div(vec![span(vec![Html::text("deep")])]);
            let new: Html<u32> = div(vec![button(vec![Html::text("deep")])]);
            let (stats, patches) = check(&old, &new);
            assert_eq!(
                patches,
                vec![Patch::Replace(vec![0], button(vec![Html::text("deep")]))]
            );
            assert_eq!(stats.rebuilt, 2, "the replaced button subtree");
            assert_eq!(stats.reused, 1, "the root div stays in place");
        }

        #[test]
        fn kind_change_at_the_root_keeps_the_root_id() {
            let old: Html<u32> = Html::text("x");
            let new: Html<u32> = div(vec![Html::text("y")]);
            let (stats, patches) = check(&old, &new);
            assert_eq!(patches, vec![Patch::Replace(vec![], new.clone())]);
            assert_eq!(stats.rebuilt, new.size());
        }

        #[test]
        fn editor_leaf_change_is_a_replace() {
            let (stats, patches) = check(&editor(0), &editor(1));
            assert_eq!(patches, vec![Patch::Replace(vec![], editor(1))]);
            assert_eq!(stats.rebuilt, 1);
        }

        #[test]
        fn editor_to_result_is_a_kind_mismatch() {
            let result: Html<u32> = Html::ResultView {
                splice: SpliceRef(0),
                dim: Dim::fixed_width(20),
            };
            let (stats, patches) = check(&editor(0), &result);
            assert_eq!(patches, vec![Patch::Replace(vec![], result)]);
            assert_eq!(stats.rebuilt, 1);
        }

        #[test]
        fn repeated_reconciles_stay_consistent() {
            // A drag-like sequence: one retained snapshot re-rendered
            // through several versions with one scratch buffer; each step
            // must match diff against the previous version, and only the
            // appended spans are rebuilt.
            let versions: Vec<Html<u32>> = (0..6u32)
                .map(|i| {
                    let mut children = vec![Html::text(format!("v{i}"))];
                    for j in 0..(i % 3) {
                        children.push(span(vec![Html::text(format!("c{j}"))]));
                    }
                    div(children).attr("step", i.to_string())
                })
                .collect();
            let mut snapshot = versions[0].clone();
            let mut scratch = Vec::new();
            for (w, rebuilt) in versions.windows(2).zip([2, 2, 0, 2, 2]) {
                let stats = rerender(&mut snapshot, &w[1], &mut scratch);
                assert_eq!(scratch, diff(&w[0], &w[1]));
                assert_eq!(snapshot, w[1]);
                assert_eq!(stats.rebuilt, rebuilt);
            }
        }
    }
}
