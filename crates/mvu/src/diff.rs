//! View-tree diffing (Sec. 3.2.4).
//!
//! "When the model is updated, a new view is computed. The system then
//! performs a diff between the old and new view in order to efficiently
//! perform the necessary imperative updates to the editor's visual state."
//!
//! The diff is positional: a patch addresses a node by its child-index path
//! from the root. The correctness contract — `apply(old, diff(old, new)) ==
//! new` — is unit-tested here and property-tested in the integration suite.

use crate::html::Html;

/// A path from the root to a node: the sequence of child indices.
pub type Path = Vec<usize>;

/// One imperative update to the rendered view.
#[derive(Debug, Clone, PartialEq)]
pub enum Patch<A> {
    /// Replace the node at `path` wholesale.
    Replace(Path, Html<A>),
    /// Change the text of the text node at `path`.
    SetText(Path, String),
    /// Replace the attributes of the element at `path`.
    SetAttrs(Path, Vec<(String, String)>),
    /// Replace the handlers of the element at `path`.
    SetHandlers(Path, Vec<(crate::html::EventKind, A)>),
    /// Append a child to the element at `path`.
    AppendChild(Path, Html<A>),
    /// Remove the last child of the element at `path`.
    TruncateChildren(Path, usize),
}

impl<A> Patch<A> {
    /// The path this patch applies to.
    pub fn path(&self) -> &Path {
        match self {
            Patch::Replace(p, _)
            | Patch::SetText(p, _)
            | Patch::SetAttrs(p, _)
            | Patch::SetHandlers(p, _)
            | Patch::AppendChild(p, _)
            | Patch::TruncateChildren(p, _) => p,
        }
    }
}

/// Computes a patch script transforming `old` into `new`, recorded as an
/// `mvu.diff` span with `view_diff_*` counters.
pub fn diff<A: Clone + PartialEq>(old: &Html<A>, new: &Html<A>) -> Vec<Patch<A>> {
    let _span = livelit_trace::span("mvu.diff");
    let mut patches = Vec::new();
    diff_into(old, new, &mut patches);
    if livelit_trace::enabled() {
        livelit_trace::count(
            livelit_trace::Counter::ViewDiffNodes,
            (old.size() + new.size()) as u64,
        );
        livelit_trace::count(
            livelit_trace::Counter::ViewDiffPatches,
            patches.len() as u64,
        );
    }
    patches
}

/// The untraced core of [`diff`]: appends the patch script onto a
/// caller-owned buffer, so render loops can reuse one allocation across
/// instances instead of growing a fresh `Vec` per diff.
pub fn diff_into<A: Clone + PartialEq>(old: &Html<A>, new: &Html<A>, out: &mut Vec<Patch<A>>) {
    diff_at(old, new, &mut Vec::new(), out);
}

/// The nodes of the new tree a patch script ships fresh: the sizes of its
/// `Replace` and `AppendChild` payloads. Every other node of the new tree
/// keeps its position in the old one (patched in place at most), so a
/// script from [`diff`] reuses `new.size() - rebuilt_nodes(&script)` nodes.
pub fn rebuilt_nodes<A>(patches: &[Patch<A>]) -> usize {
    patches
        .iter()
        .map(|patch| match patch {
            Patch::Replace(_, tree) | Patch::AppendChild(_, tree) => tree.size(),
            _ => 0,
        })
        .sum()
}

fn diff_at<A: Clone + PartialEq>(
    old: &Html<A>,
    new: &Html<A>,
    path: &mut Path,
    out: &mut Vec<Patch<A>>,
) {
    match (old, new) {
        (Html::Text(a), Html::Text(b)) => {
            if a != b {
                out.push(Patch::SetText(path.clone(), b.clone()));
            }
        }
        (
            Html::Editor {
                splice: s1,
                dim: d1,
            },
            Html::Editor {
                splice: s2,
                dim: d2,
            },
        )
        | (
            Html::ResultView {
                splice: s1,
                dim: d1,
            },
            Html::ResultView {
                splice: s2,
                dim: d2,
            },
        ) => {
            if s1 != s2 || d1 != d2 {
                out.push(Patch::Replace(path.clone(), new.clone()));
            }
        }
        (
            Html::Element {
                tag: t1,
                attrs: a1,
                handlers: h1,
                children: c1,
            },
            Html::Element {
                tag: t2,
                attrs: a2,
                handlers: h2,
                children: c2,
            },
        ) => {
            if t1 != t2 {
                out.push(Patch::Replace(path.clone(), new.clone()));
                return;
            }
            if a1 != a2 {
                out.push(Patch::SetAttrs(path.clone(), a2.clone()));
            }
            if h1 != h2 {
                out.push(Patch::SetHandlers(path.clone(), h2.clone()));
            }
            let common = c1.len().min(c2.len());
            for i in 0..common {
                path.push(i);
                diff_at(&c1[i], &c2[i], path, out);
                path.pop();
            }
            if c2.len() < c1.len() {
                out.push(Patch::TruncateChildren(path.clone(), c2.len()));
            }
            for child in &c2[common..] {
                out.push(Patch::AppendChild(path.clone(), child.clone()));
            }
        }
        _ => out.push(Patch::Replace(path.clone(), new.clone())),
    }
}

/// Why a patch script could not be applied to a tree: the script was not
/// produced by [`diff`] against that tree (it is *stale* — e.g. a server
/// client acknowledged a different view than the one it actually holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The path indexes a child that does not exist.
    PathOutOfBounds(Path),
    /// The path descends into a text/editor/result leaf.
    PathIntoLeaf(Path),
    /// The patch kind does not match the node it addresses (e.g. `SetText`
    /// on an element). The string names the patch kind.
    WrongNodeKind(Path, &'static str),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let render_path = |p: &Path| {
            p.iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join(".")
        };
        match self {
            PatchError::PathOutOfBounds(p) => {
                write!(f, "patch path [{}] is out of bounds", render_path(p))
            }
            PatchError::PathIntoLeaf(p) => {
                write!(f, "patch path [{}] descends into a leaf", render_path(p))
            }
            PatchError::WrongNodeKind(p, kind) => {
                write!(
                    f,
                    "{kind} at path [{}] addresses a node of the wrong kind",
                    render_path(p)
                )
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// Applies a patch script produced by [`diff`].
///
/// # Panics
///
/// Panics if a patch path does not address a node of the right shape —
/// which indicates the script was not produced by [`diff`] against this
/// tree. Server-side code that cannot trust the script must use
/// [`try_apply`] instead.
pub fn apply<A: Clone>(tree: &Html<A>, patches: &[Patch<A>]) -> Html<A> {
    match try_apply(tree, patches) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Applies a patch script, reporting a malformed or stale script as an
/// error instead of panicking. On `Err` the input tree is untouched (the
/// partially patched clone is discarded).
///
/// # Errors
///
/// See [`PatchError`].
pub fn try_apply<A: Clone>(tree: &Html<A>, patches: &[Patch<A>]) -> Result<Html<A>, PatchError> {
    let mut out = tree.clone();
    for patch in patches {
        apply_one(&mut out, patch)?;
    }
    Ok(out)
}

fn node_at_mut<'a, A>(
    tree: &'a mut Html<A>,
    path: &[usize],
) -> Result<&'a mut Html<A>, PatchError> {
    let mut cur = tree;
    for (depth, &i) in path.iter().enumerate() {
        match cur {
            Html::Element { children, .. } => {
                cur = children
                    .get_mut(i)
                    .ok_or_else(|| PatchError::PathOutOfBounds(path[..=depth].to_vec()))?;
            }
            _ => return Err(PatchError::PathIntoLeaf(path[..=depth].to_vec())),
        }
    }
    Ok(cur)
}

fn apply_one<A: Clone>(tree: &mut Html<A>, patch: &Patch<A>) -> Result<(), PatchError> {
    match patch {
        Patch::Replace(path, new) => {
            *node_at_mut(tree, path)? = new.clone();
        }
        Patch::SetText(path, s) => match node_at_mut(tree, path)? {
            Html::Text(t) => *t = s.clone(),
            _ => return Err(PatchError::WrongNodeKind(path.clone(), "SetText")),
        },
        Patch::SetAttrs(path, attrs) => match node_at_mut(tree, path)? {
            Html::Element { attrs: a, .. } => *a = attrs.clone(),
            _ => return Err(PatchError::WrongNodeKind(path.clone(), "SetAttrs")),
        },
        Patch::SetHandlers(path, handlers) => match node_at_mut(tree, path)? {
            Html::Element { handlers: h, .. } => *h = handlers.clone(),
            _ => return Err(PatchError::WrongNodeKind(path.clone(), "SetHandlers")),
        },
        Patch::AppendChild(path, child) => match node_at_mut(tree, path)? {
            Html::Element { children, .. } => children.push(child.clone()),
            _ => return Err(PatchError::WrongNodeKind(path.clone(), "AppendChild")),
        },
        Patch::TruncateChildren(path, len) => match node_at_mut(tree, path)? {
            Html::Element { children, .. } => children.truncate(*len),
            _ => return Err(PatchError::WrongNodeKind(path.clone(), "TruncateChildren")),
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::html::tags::*;
    use crate::html::{Dim, EventKind, Html};
    use crate::splice::SpliceRef;

    fn check_roundtrip(old: &Html<u32>, new: &Html<u32>) -> Vec<Patch<u32>> {
        let patches = diff(old, new);
        assert_eq!(&apply(old, &patches), new, "apply(old, diff) != new");
        patches
    }

    #[test]
    fn identical_trees_produce_no_patches() {
        let t: Html<u32> = div(vec![Html::text("x"), span(vec![])]);
        assert!(diff(&t, &t.clone()).is_empty());
    }

    #[test]
    fn text_change_is_a_single_set_text() {
        let old: Html<u32> = div(vec![Html::text("57")]);
        let new: Html<u32> = div(vec![Html::text("58")]);
        let patches = check_roundtrip(&old, &new);
        assert_eq!(patches, vec![Patch::SetText(vec![0], "58".into())]);
    }

    #[test]
    fn attr_change_is_localized() {
        let old: Html<u32> = div(vec![span(vec![]).attr("class", "a")]);
        let new: Html<u32> = div(vec![span(vec![]).attr("class", "b")]);
        let patches = check_roundtrip(&old, &new);
        assert_eq!(patches.len(), 1);
        assert!(matches!(patches[0], Patch::SetAttrs(..)));
    }

    #[test]
    fn handler_change_detected() {
        let old: Html<u32> = button(vec![]).on_click(1);
        let new: Html<u32> = button(vec![]).on_click(2);
        let patches = check_roundtrip(&old, &new);
        assert!(matches!(patches[0], Patch::SetHandlers(..)));
    }

    #[test]
    fn child_growth_appends() {
        let old: Html<u32> = div(vec![Html::text("a")]);
        let new: Html<u32> = div(vec![Html::text("a"), Html::text("b")]);
        let patches = check_roundtrip(&old, &new);
        assert_eq!(patches.len(), 1);
        assert!(matches!(patches[0], Patch::AppendChild(..)));
    }

    #[test]
    fn child_shrink_truncates() {
        let old: Html<u32> = div(vec![Html::text("a"), Html::text("b")]);
        let new: Html<u32> = div(vec![Html::text("a")]);
        let patches = check_roundtrip(&old, &new);
        assert_eq!(patches, vec![Patch::TruncateChildren(vec![], 1)]);
    }

    #[test]
    fn tag_change_replaces_subtree() {
        let old: Html<u32> = div(vec![span(vec![Html::text("deep")])]);
        let new: Html<u32> = div(vec![button(vec![Html::text("deep")])]);
        let patches = check_roundtrip(&old, &new);
        assert_eq!(patches.len(), 1);
        assert!(matches!(patches[0], Patch::Replace(..)));
    }

    #[test]
    fn editor_nodes_compared_by_splice_and_dim() {
        let old: Html<u32> = Html::Editor {
            splice: SpliceRef(0),
            dim: Dim::fixed_width(20),
        };
        let same = old.clone();
        assert!(diff(&old, &same).is_empty());
        let moved: Html<u32> = Html::Editor {
            splice: SpliceRef(1),
            dim: Dim::fixed_width(20),
        };
        check_roundtrip(&old, &moved);
    }

    #[test]
    fn kind_change_replaces() {
        let old: Html<u32> = Html::text("x");
        let new: Html<u32> = span(vec![]);
        let patches = check_roundtrip(&old, &new);
        assert!(matches!(patches[0], Patch::Replace(..)));
    }

    #[test]
    fn deep_localized_edit_produces_deep_path() {
        let old: Html<u32> = div(vec![div(vec![div(vec![Html::text("old")])])]);
        let new: Html<u32> = div(vec![div(vec![div(vec![Html::text("new")])])]);
        let patches = check_roundtrip(&old, &new);
        assert_eq!(patches[0].path(), &vec![0, 0, 0]);
    }

    #[test]
    fn events_variants_distinct() {
        assert_ne!(EventKind::Click, EventKind::Drag);
    }

    #[test]
    fn try_apply_matches_apply_on_valid_scripts() {
        let old: Html<u32> = div(vec![Html::text("a"), span(vec![]).attr("k", "v")]);
        let new: Html<u32> = div(vec![Html::text("b"), span(vec![]).attr("k", "w")]);
        let patches = diff(&old, &new);
        assert_eq!(try_apply(&old, &patches), Ok(new));
    }

    #[test]
    fn try_apply_stale_script_is_err_not_panic() {
        // A script diffed against a two-child tree, applied to a leaf: the
        // acked-view desync a server must survive.
        let old: Html<u32> = div(vec![Html::text("a"), Html::text("b")]);
        let new: Html<u32> = div(vec![Html::text("a"), Html::text("c")]);
        let patches = diff(&old, &new);
        let stale: Html<u32> = Html::text("x");
        assert_eq!(
            try_apply(&stale, &patches),
            Err(PatchError::PathIntoLeaf(vec![1]))
        );
        let shallow: Html<u32> = div(vec![Html::text("a")]);
        assert_eq!(
            try_apply(&shallow, &patches),
            Err(PatchError::PathOutOfBounds(vec![1]))
        );
    }

    #[test]
    fn try_apply_wrong_kind_is_err() {
        let tree: Html<u32> = div(vec![span(vec![])]);
        let patch = Patch::SetText(vec![0], "x".into());
        assert_eq!(
            try_apply(&tree, &[patch]),
            Err(PatchError::WrongNodeKind(vec![0], "SetText"))
        );
    }

    #[test]
    #[should_panic(expected = "descends into a leaf")]
    fn apply_still_panics_on_malformed_scripts() {
        let tree: Html<u32> = Html::text("x");
        let patch = Patch::SetText(vec![0], "y".into());
        let _ = apply(&tree, &[patch]);
    }
}
