//! The incremental flow-analysis driver.
//!
//! [`FlowAnalyzer`] is the stateful front end of the dataflow framework:
//! it owns the skeleton store and fact memo and finds the dirty units
//! (the program plus each prelude definition) per run — definition
//! units by structural equality against the cached term (they carry no
//! livelit models, so this agrees with the model-erased skeleton), the
//! program by re-interning, where an unchanged unit hits the same
//! hash-consed root `TermId`. Clean units are skipped wholesale, their
//! diagnostics served from cache. Dirty units are re-scanned in unit
//! order against the *pre-run* memo, each into a private overlay that is
//! absorbed only once every unit is scanned, so a unit's fact tallies
//! depend only on the unit itself. Cross-definition reachability
//! (`LL0503`) is solved by the generic [`Fixpoint`] engine with
//! per-definition invalidation.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hazel_lang::ident::LivelitName;
use hazel_lang::store::{TermId, TermStore};
use hazel_lang::unexpanded::UExp;
use livelit_core::def::LivelitCtx;

use super::engine::{FactMemo, FactTally, Fixpoint, Lattice};
use super::facts::{FactScout, TermFacts};
use super::liveness;
use super::{holectx, purity};
use crate::diagnostic::{Code, Diagnostic, Location, Severity};

/// One analysis unit: the program, or one prelude definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowUnit {
    /// Stable unit name ("program", or the definition's bound name).
    pub name: String,
    /// Where this unit's findings are reported.
    pub location: Location,
    /// The unit's unexpanded term (models are erased at interning).
    pub term: UExp,
}

impl FlowUnit {
    /// The whole-program unit.
    pub fn program(term: UExp) -> FlowUnit {
        FlowUnit {
            name: "program".to_string(),
            location: Location::Program,
            term,
        }
    }

    /// A prelude-definition unit.
    pub fn def(name: impl Into<String>, term: UExp) -> FlowUnit {
        let name = name.into();
        FlowUnit {
            location: Location::Def(name.clone()),
            name,
            term,
        }
    }
}

/// The outcome of one [`FlowAnalyzer::analyze`] run.
#[derive(Debug, Clone, Default)]
pub struct FlowRun {
    /// All flow diagnostics, across every unit (cached and fresh).
    pub diagnostics: Vec<Diagnostic>,
    /// Units re-analyzed this run (the dirty set).
    pub dirty_defs: u64,
    /// Per-term facts computed fresh this run.
    pub facts_computed: u64,
    /// Per-term facts served from the memo this run.
    pub facts_reused: u64,
}

/// Per-unit cached state.
struct UnitState {
    root: TermId,
    /// The unit's term as last analyzed — the cheap dirty test for
    /// definition units, which carry no livelit models and so compare
    /// structurally exactly as their model-erased skeletons would.
    term: UExp,
    location: Location,
    diags: Vec<Diagnostic>,
    facts: Arc<TermFacts>,
    /// Names of prelude definitions this unit references (free vars).
    refs: BTreeSet<String>,
}

/// The two-point reachability lattice for cross-definition liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reach(bool);

impl Lattice for Reach {
    fn bottom() -> Self {
        Reach(false)
    }
    fn join_from(&mut self, other: &Self) -> bool {
        let changed = other.0 && !self.0;
        self.0 |= other.0;
        changed
    }
}

/// The stateful incremental dataflow analyzer.
#[derive(Default)]
pub struct FlowAnalyzer {
    store: TermStore,
    memo: FactMemo<TermFacts>,
    units: BTreeMap<String, UnitState>,
    reach: Fixpoint<usize, Reach>,
    /// The unit-name order the reachability indices refer to.
    reach_keys: Vec<String>,
    /// The unreachable definitions from the last reachability solve —
    /// served as-is when an edit changed no unit's reference set.
    reach_unused: Vec<String>,
    purity_memo: BTreeMap<LivelitName, purity::Purity>,
}

impl FlowAnalyzer {
    /// An empty analyzer.
    pub fn new() -> FlowAnalyzer {
        FlowAnalyzer::default()
    }

    /// Drops all cached state (the from-scratch baseline).
    pub fn clear(&mut self) {
        self.store = TermStore::new();
        self.memo.clear();
        self.units.clear();
        self.reach.clear();
        self.reach_keys.clear();
        self.reach_unused.clear();
        self.purity_memo.clear();
    }

    /// Analyzes the document's units, re-scanning only those whose
    /// hash-consed root changed since the previous run.
    pub fn analyze(&mut self, phi: &LivelitCtx, units: &[FlowUnit]) -> FlowRun {
        // Phase 1 (sequential): find the dirty units. Definition units
        // carry no livelit models (prelude definitions are
        // already-expanded terms), so plain structural equality against
        // the cached term agrees with the model-erasing skeleton
        // interning and an unchanged definition skips the re-intern
        // entirely; everything else (the program, whose models erase at
        // interning) re-interns, and equal skeletons hitting the same id
        // is the dirty test.
        let incoming: BTreeSet<&str> = units.iter().map(|u| u.name.as_str()).collect();
        let removed: Vec<String> = self
            .units
            .keys()
            .filter(|k| !incoming.contains(k.as_str()))
            .cloned()
            .collect();
        for k in &removed {
            self.units.remove(k);
        }
        let mut dirty: Vec<(&FlowUnit, TermId)> = Vec::new();
        for u in units {
            let cached = self.units.get(&u.name);
            if matches!(u.location, Location::Def(_)) && cached.is_some_and(|s| s.term == u.term) {
                continue;
            }
            let root = self.store.intern_uexp_skeleton(&u.term);
            if cached.map(|s| s.root) != Some(root) {
                dirty.push((u, root));
            }
        }

        // Phase 2: scan each dirty unit against the pre-run memo, so its
        // fact tallies depend only on its own unit.
        let scan = |root: TermId| {
            let mut scout = FactScout::new(&self.store, &self.memo);
            let facts = scout.facts(root);
            let events = liveness::scan(&self.store, &mut scout, root);
            let (overlay, tally) = scout.into_overlay();
            (facts, events, overlay, tally)
        };
        let scanned: Vec<_> = dirty.iter().map(|(_, root)| scan(*root)).collect();

        // Phase 3 (sequential, unit order): absorb overlays and tallies,
        // rebuild per-unit diagnostics and reference sets. Definitions
        // entering or leaving some dirty unit's reference set are the
        // only ones whose reachability can have changed.
        let mut tally = FactTally::default();
        let mut refs_changed: BTreeSet<String> = BTreeSet::new();
        for ((u, root), (facts, events, overlay, unit_tally)) in dirty.iter().zip(scanned) {
            self.memo.absorb(overlay);
            tally.absorb(unit_tally);
            let mut diags = liveness::diagnostics(&events, &u.location);
            diags.extend(holectx::diagnostics(&events, &u.location));
            let refs: BTreeSet<String> = facts
                .use_counts
                .keys()
                .map(|x| self.store.var(*x).to_string())
                .collect();
            match self.units.get(&u.name) {
                Some(old) => refs_changed.extend(old.refs.symmetric_difference(&refs).cloned()),
                None => refs_changed.extend(refs.iter().cloned()),
            }
            self.units.insert(
                u.name.clone(),
                UnitState {
                    root: *root,
                    term: u.term.clone(),
                    location: u.location.clone(),
                    diags,
                    facts,
                    refs,
                },
            );
        }

        // Phase 4: cross-definition reachability (LL0503) through the
        // fixpoint engine, invalidating only the definitions whose
        // client sets the dirty units actually reshaped.
        let unused = self.solve_reachability(&refs_changed, !removed.is_empty());

        // Phase 5: assemble — cached per-unit diagnostics, unused-def
        // findings, and purity verdicts for every invoked livelit.
        let any_fillable_hole = self.units.values().any(|s| !s.facts.holes.is_empty());
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        for state in self.units.values() {
            diagnostics.extend(state.diags.iter().cloned());
        }
        for name in unused {
            let (severity, note) = if any_fillable_hole {
                (
                    Severity::Info,
                    "the program has fillable holes; a fill may create the first \
                     reference (Sec. 4.1)",
                )
            } else {
                (
                    Severity::Warning,
                    "no program expression or hole references this definition",
                )
            };
            diagnostics.push(
                Diagnostic::new(
                    Code::UnusedDefinition,
                    severity,
                    Location::Def(name.clone()),
                    format!("definition `{name}` is never used by the program"),
                )
                .with_note(note.to_string()),
            );
        }
        diagnostics.extend(self.purity_diagnostics(phi));

        FlowRun {
            diagnostics,
            dirty_defs: dirty.len() as u64,
            facts_computed: tally.computed,
            facts_reused: tally.reused,
        }
    }

    /// The purity verdict for one livelit (memoized).
    pub fn purity_of(&mut self, phi: &LivelitCtx, name: &LivelitName) -> purity::Purity {
        if let Some(p) = self.purity_memo.get(name) {
            return *p;
        }
        let p = phi
            .get(name)
            .map(purity::infer_def)
            .unwrap_or(purity::Purity::Unknown);
        self.purity_memo.insert(name.clone(), p);
        p
    }

    /// `LL0602` for every invoked livelit proven pure but recursive.
    fn purity_diagnostics(&mut self, phi: &LivelitCtx) -> Vec<Diagnostic> {
        let invoked: BTreeSet<LivelitName> = self
            .units
            .values()
            .flat_map(|s| s.facts.livelits.iter().cloned())
            .collect();
        let mut out = Vec::new();
        for name in invoked {
            if self.purity_of(phi, &name) == purity::Purity::PureMayDiverge {
                out.push(
                    Diagnostic::new(
                        Code::ExpansionMayDiverge,
                        Severity::Info,
                        Location::Livelit(name.clone()),
                        format!(
                            "the expansion function of {name} is pure but uses general \
                             recursion; expansion may diverge"
                        ),
                    )
                    .with_note(
                        "proven deterministic (LL06xx), so the dynamic determinism \
                         check is skipped, but termination is not guaranteed"
                            .to_string(),
                    ),
                );
            }
        }
        out
    }

    /// Solves definition reachability and returns the unreachable
    /// definition names, in name order.
    ///
    /// A unit's reachability depends only on *who references it* — its
    /// clients — never on its own contents, so an edit that left every
    /// reference set alone cannot move any fact and the previous solve's
    /// answer is served unchanged, without touching the adjacency.
    fn solve_reachability(
        &mut self,
        refs_changed: &BTreeSet<String>,
        units_removed: bool,
    ) -> Vec<String> {
        let keys_unchanged = !units_removed
            && self.units.len() == self.reach_keys.len()
            && self.units.keys().zip(&self.reach_keys).all(|(a, b)| a == b);
        if keys_unchanged && refs_changed.is_empty() {
            return self.reach_unused.clone();
        }
        let keys: Vec<String> = self.units.keys().cloned().collect();
        let index: BTreeMap<&str, usize> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i))
            .collect();
        let is_root: Vec<bool> = keys
            .iter()
            .map(|k| matches!(self.units[k].location, Location::Program))
            .collect();
        // clients[k] = units whose free variables reference definition k.
        let mut clients: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
        for (j, kj) in keys.iter().enumerate() {
            for r in &self.units[kj].refs {
                if let Some(&k) = index.get(r.as_str()) {
                    clients[k].push(j);
                }
            }
        }
        // No program unit: reachability is meaningless; report nothing.
        if !is_root.iter().any(|&r| r) {
            self.reach.clear();
            self.reach_keys.clear();
            self.reach_unused.clear();
            return Vec::new();
        }
        let seeds: Vec<usize> = if !keys_unchanged {
            // Key set changed: indices shifted, start over.
            self.reach.clear();
            self.reach_keys = keys.clone();
            (0..keys.len()).collect()
        } else {
            // Exactly the definitions that entered or left some dirty
            // unit's reference set have reshaped client sets; transitive
            // readers are handled by the engine's recorded dependencies.
            let changed: BTreeSet<usize> = refs_changed
                .iter()
                .filter_map(|r| index.get(r.as_str()).copied())
                .collect();
            self.reach.invalidate(changed).into_iter().collect()
        };
        self.reach.solve(seeds, |k, resolve| {
            if is_root[k] {
                return Reach(true);
            }
            Reach(clients[k].iter().any(|&j| resolve(j).0))
        });
        self.reach_unused = keys
            .iter()
            .enumerate()
            .filter(|(k, _)| !is_root[*k] && !self.reach.fact(k).0)
            .map(|(_, name)| name.clone())
            .collect();
        self.reach_unused.clone()
    }
}

impl std::fmt::Debug for FlowAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowAnalyzer")
            .field("units", &self.units.keys().collect::<Vec<_>>())
            .field("memo", &self.memo.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::parse::parse_uexp;

    fn unit(name: &str, src: &str) -> FlowUnit {
        if name == "program" {
            FlowUnit::program(parse_uexp(src).unwrap())
        } else {
            FlowUnit::def(name, parse_uexp(src).unwrap())
        }
    }

    #[test]
    fn unchanged_units_are_not_dirty() {
        let phi = LivelitCtx::new();
        let mut fa = FlowAnalyzer::new();
        let units = vec![
            unit("helper", "fun x : Int -> x + 1"),
            unit("program", "helper 41"),
        ];
        let first = fa.analyze(&phi, &units);
        assert_eq!(first.dirty_defs, 2);
        let second = fa.analyze(&phi, &units);
        assert_eq!(second.dirty_defs, 0);
        assert_eq!(second.facts_computed, 0);
        assert_eq!(first.diagnostics, second.diagnostics);
    }

    #[test]
    fn single_def_edit_dirties_one_unit_and_reuses_facts() {
        let phi = LivelitCtx::new();
        let mut fa = FlowAnalyzer::new();
        let units = vec![
            unit("helper", "fun x : Int -> x + 1"),
            unit("other", "fun y : Int -> y * 2"),
            unit("program", "helper (other 1)"),
        ];
        fa.analyze(&phi, &units);
        let edited = vec![
            unit("helper", "fun x : Int -> x + 2"),
            unit("other", "fun y : Int -> y * 2"),
            unit("program", "helper (other 1)"),
        ];
        let run = fa.analyze(&phi, &edited);
        assert_eq!(run.dirty_defs, 1);
        assert!(run.facts_reused > 0, "shared subterms must hit the memo");
    }

    #[test]
    fn unused_definitions_are_found_through_the_fixpoint() {
        let phi = LivelitCtx::new();
        let mut fa = FlowAnalyzer::new();
        // `orphan` references `deep`, but nothing references `orphan`:
        // both are unreachable from the program.
        let units = vec![
            unit("deep", "fun x : Int -> x"),
            unit("orphan", "fun y : Int -> deep y"),
            unit("used", "fun z : Int -> z + 1"),
            unit("program", "used 1"),
        ];
        let run = fa.analyze(&phi, &units);
        let unused: Vec<&Diagnostic> = run
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::UnusedDefinition)
            .collect();
        assert_eq!(unused.len(), 2, "diags: {:?}", run.diagnostics);
        assert!(unused.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn unused_definition_downgrades_to_info_when_holes_exist() {
        let phi = LivelitCtx::new();
        let mut fa = FlowAnalyzer::new();
        let units = vec![
            unit("orphan", "fun y : Int -> y"),
            unit("program", "1 + ?1"),
        ];
        let run = fa.analyze(&phi, &units);
        let unused: Vec<&Diagnostic> = run
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::UnusedDefinition)
            .collect();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].severity, Severity::Info);
    }

    #[test]
    fn editing_the_program_rechecks_definition_reachability() {
        let phi = LivelitCtx::new();
        let mut fa = FlowAnalyzer::new();
        let base = vec![
            unit("helper", "fun x : Int -> x"),
            unit("program", "helper 1"),
        ];
        let run = fa.analyze(&phi, &base);
        assert!(run
            .diagnostics
            .iter()
            .all(|d| d.code != Code::UnusedDefinition));
        // Drop the reference: helper becomes unused.
        let edited = vec![unit("helper", "fun x : Int -> x"), unit("program", "2")];
        let run = fa.analyze(&phi, &edited);
        assert!(run
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnusedDefinition));
    }

    #[test]
    fn unused_binding_and_dead_branch_are_reported() {
        let phi = LivelitCtx::new();
        let mut fa = FlowAnalyzer::new();
        let units = vec![unit("program", "let dead = 1 in if true then 2 else 3")];
        let run = fa.analyze(&phi, &units);
        let codes: Vec<Code> = run.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::UnusedBinding), "codes: {codes:?}");
        assert!(codes.contains(&Code::UnreachableArm), "codes: {codes:?}");
    }

    #[test]
    fn unused_binding_with_hole_in_scope_is_informational() {
        let phi = LivelitCtx::new();
        let mut fa = FlowAnalyzer::new();
        let units = vec![unit("program", "let pending = 1 in ?1")];
        let run = fa.analyze(&phi, &units);
        let codes: Vec<Code> = run.diagnostics.iter().map(|d| d.code).collect();
        assert!(!codes.contains(&Code::UnusedBinding), "codes: {codes:?}");
        assert!(codes.contains(&Code::LiveOnlyAtHoles), "codes: {codes:?}");
    }
}
