//! Retained livelit views: memoized views and stored patch scripts.
//!
//! The [`ViewRetainer`] keeps, per livelit instance, the view tree it
//! last published (its *snapshot*) and a [`ViewKey`] over the inputs that
//! view was computed from. A render either hits the memo (the snapshot is
//! reused without recomputing anything) or computes a fresh view and
//! diffs it against the snapshot, storing the patch script — which is
//! proportional to the *changed* nodes — for the server to ship.
//!
//! ## Memo keys
//!
//! A livelit view is a pure function of what [`livelit_mvu::ViewCtx`]
//! exposes: the model, the splice store contents (`splice_typ`,
//! `editor`/`result_view`, and `eval_splice` read them), whether a closure
//! is selected (`has_env`), and the selected σ itself — which reaches the
//! view only through `eval_splice` results, themselves determined by the
//! splice contents, the invocation-site Γ, σ, Φ, and the fuel budget.
//! [`ViewKey`] captures exactly those inputs. σ is represented by its
//! content-addressed fingerprint from
//! [`livelit_core::cc::Collection::sigma_fingerprint`]: a σ id paired
//! with the interning-lineage nonce, so ids from different collections
//! never compare equal (a from-scratch collection conservatively misses).
//! Γ and Φ are not in the key: Γ changes only with the program skeleton —
//! which forces a fresh collection and therefore a fresh lineage nonce —
//! and registry changes go through [`crate::IncrementalEngine::invalidate`],
//! which clears the retainer.
//!
//! ## Generations
//!
//! Each snapshot carries a generation stamp from one retainer-wide
//! monotonic counter, bumped exactly when a diff against the previous
//! snapshot was non-empty. The server acks the generation a client last
//! applied: a render whose retained generation equals the acked one ships
//! an empty patch list; one exactly one step ahead ships the stored patch
//! script; anything else falls back to the full tree. The counter is
//! never reset — [`ViewRetainer::clear`] keeps it — so stamps never alias
//! across invalidations.

use std::collections::BTreeMap;
use std::sync::Arc;

use hazel_lang::ident::{HoleName, LivelitName};
use hazel_lang::typ::Typ;
use hazel_lang::unexpanded::UExp;
use livelit_core::cc::Collection;
use livelit_mvu::host::Instance;
use livelit_mvu::html::Html;
use livelit_mvu::livelit::{Action, Model};
use livelit_mvu::splice::SpliceRef;
use livelit_mvu::{diff_into, rebuilt_nodes, Patch};

/// Everything a livelit's view output can depend on (see the module docs
/// for the soundness argument). Two equal keys guarantee bit-identical
/// views, so a key match skips view computation entirely.
#[derive(Debug, PartialEq)]
pub struct ViewKey {
    name: LivelitName,
    model: Model,
    splices: Vec<(SpliceRef, Typ, UExp, bool)>,
    /// The σ fingerprint `(lineage nonce, σ id)` of the selected closure —
    /// `None` when the view cannot observe σ (no splices to evaluate) or
    /// no closure was collected.
    env: Option<(u64, u32)>,
    has_env: bool,
    fuel: u64,
}

/// Builds the memo key for one instance under `collection`.
pub fn view_key(instance: &Instance, collection: &Collection, fuel: u64) -> ViewKey {
    let u = instance.hole();
    let envs = collection.envs_for(u);
    let has_env = !envs.is_empty();
    let splices: Vec<(SpliceRef, Typ, UExp, bool)> = instance
        .store()
        .iter()
        .map(|(r, info)| (*r, info.ty.clone(), info.content.clone(), info.is_param))
        .collect();
    let env = if has_env && !splices.is_empty() {
        let env_index = instance.selected_env.min(envs.len() - 1);
        collection.sigma_fingerprint(u, env_index)
    } else {
        None
    };
    ViewKey {
        name: instance.name(),
        model: instance.model().clone(),
        splices,
        env,
        has_env,
        fuel,
    }
}

/// What the server needs to turn a retained snapshot into a render reply.
#[derive(Debug, Clone)]
pub struct ViewDelta {
    /// The generation of the current snapshot.
    pub gen: u64,
    /// The generation the snapshot had before its last non-empty diff.
    pub prev_gen: u64,
    /// The patch script of that last diff: exactly
    /// `diff(snapshot@prev_gen, snapshot@gen)`.
    pub last_patches: Arc<Vec<Patch<Action>>>,
}

/// One instance's retained state.
struct Retained {
    key: ViewKey,
    /// Node count of the snapshot (cached for O(1) memo-hit accounting).
    size: u64,
    gen: u64,
    prev_gen: u64,
    snapshot: Arc<Html<Action>>,
    last_patches: Arc<Vec<Patch<Action>>>,
}

/// The per-engine retained view store: each instance's snapshot, memo
/// key, and generation stamps, plus a reusable patch scratch buffer.
pub struct ViewRetainer {
    retained: BTreeMap<HoleName, Retained>,
    /// Monotonic generation source; never reset (see module docs).
    next_gen: u64,
    /// Scratch buffer diffs write into, reused across instances and
    /// renders so steady-state renders with no patches allocate nothing.
    scratch: Vec<Patch<Action>>,
    reused: u64,
    rebuilt: u64,
}

impl ViewRetainer {
    /// An empty retainer.
    pub fn new() -> ViewRetainer {
        ViewRetainer {
            retained: BTreeMap::new(),
            next_gen: 1,
            scratch: Vec::new(),
            reused: 0,
            rebuilt: 0,
        }
    }

    /// Resets the per-refresh reuse statistics.
    pub fn begin_refresh(&mut self) {
        self.reused = 0;
        self.rebuilt = 0;
    }

    /// The nodes reused/rebuilt since [`ViewRetainer::begin_refresh`].
    pub fn refresh_stats(&self) -> (u64, u64) {
        (self.reused, self.rebuilt)
    }

    /// Nodes currently retained across every instance's snapshot.
    pub fn retained_nodes(&self) -> u64 {
        self.retained.values().map(|entry| entry.size).sum()
    }

    /// Returns the retained snapshot when `key` matches the one the
    /// retained view was computed from — the caller then skips view
    /// computation entirely. The whole snapshot counts as reused.
    pub fn memo_hit(&mut self, u: HoleName, key: &ViewKey) -> Option<Arc<Html<Action>>> {
        let entry = self.retained.get(&u)?;
        if entry.key != *key {
            return None;
        }
        self.reused += entry.size;
        Some(Arc::clone(&entry.snapshot))
    }

    /// Installs a freshly computed view: diffs it against the retained
    /// snapshot when one exists (bumping the generation and storing the
    /// script exactly when it is non-empty) or retains it as a new
    /// snapshot. Returns the snapshot to publish.
    ///
    /// Nodes shipped inside `Replace`/`AppendChild` payloads count as
    /// rebuilt; every other node of the new view counts as reused.
    pub fn install(&mut self, u: HoleName, key: ViewKey, view: Html<Action>) -> Arc<Html<Action>> {
        let size = view.size() as u64;
        match self.retained.get_mut(&u) {
            Some(entry) => {
                self.scratch.clear();
                diff_into(&entry.snapshot, &view, &mut self.scratch);
                let rebuilt = rebuilt_nodes(&self.scratch) as u64;
                self.reused += size - rebuilt;
                self.rebuilt += rebuilt;
                entry.size = size;
                entry.key = key;
                if !self.scratch.is_empty() {
                    entry.prev_gen = entry.gen;
                    entry.gen = self.next_gen;
                    self.next_gen += 1;
                    // drain().collect() moves the patches out while keeping
                    // the scratch buffer's capacity for the next instance.
                    entry.last_patches = Arc::new(self.scratch.drain(..).collect());
                    entry.snapshot = Arc::new(view);
                }
                Arc::clone(&entry.snapshot)
            }
            None => {
                self.rebuilt += size;
                let gen = self.next_gen;
                self.next_gen += 1;
                let snapshot = Arc::new(view);
                self.retained.insert(
                    u,
                    Retained {
                        key,
                        size,
                        gen,
                        // Self-referential on a fresh entry: there is no
                        // older tree a patch script could start from.
                        prev_gen: gen,
                        snapshot: Arc::clone(&snapshot),
                        last_patches: Arc::new(Vec::new()),
                    },
                );
                snapshot
            }
        }
    }

    /// Drops the retained state for `u` (its view errored or vanished).
    pub fn remove(&mut self, u: HoleName) {
        self.retained.remove(&u);
    }

    /// Drops retained state for every hole `keep` rejects.
    pub fn retain_holes(&mut self, mut keep: impl FnMut(HoleName) -> bool) {
        self.retained.retain(|&u, _| keep(u));
    }

    /// The generation/patch state for `u`, if retained.
    pub fn delta(&self, u: HoleName) -> Option<ViewDelta> {
        let entry = self.retained.get(&u)?;
        Some(ViewDelta {
            gen: entry.gen,
            prev_gen: entry.prev_gen,
            last_patches: Arc::clone(&entry.last_patches),
        })
    }

    /// Drops every snapshot. The generation counter is *not* reset, so
    /// stamps handed out before the clear never alias later ones.
    pub fn clear(&mut self) {
        self.retained.clear();
    }
}

impl Default for ViewRetainer {
    fn default() -> ViewRetainer {
        ViewRetainer::new()
    }
}
