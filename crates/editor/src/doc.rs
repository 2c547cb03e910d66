//! Persistent documents: a program skeleton plus live livelit instances.
//!
//! A document is an unexpanded program whose livelit invocations are backed
//! by live [`Instance`]s. The invocation nodes in the syntax tree carry the
//! persisted state (model + splices); [`Document::sync`] re-projects each
//! instance into its node after interaction. Documents also carry a
//! *prelude* of library bindings (e.g. the grading library of Fig. 1c),
//! which are in scope for the program and for splices.

use std::collections::BTreeMap;

use hazel_lang::external::EExp;
use hazel_lang::ident::{HoleName, LivelitName, Var};
use hazel_lang::typ::Typ;
use hazel_lang::typing::Ctx;
use hazel_lang::unexpanded::{LivelitAp, UExp};
use livelit_mvu::host::Instance;
use livelit_mvu::livelit::CmdError;

use crate::registry::LivelitRegistry;

/// A library binding available to the program and to splices.
#[derive(Debug, Clone, PartialEq)]
pub struct PreludeBinding {
    /// The bound name.
    pub var: Var,
    /// Its type.
    pub ty: Typ,
    /// Its definition (may only reference earlier prelude bindings).
    pub def: EExp,
}

impl PreludeBinding {
    /// Creates a prelude binding.
    pub fn new(var: impl Into<Var>, ty: Typ, def: EExp) -> PreludeBinding {
        PreludeBinding {
            var: var.into(),
            ty,
            def,
        }
    }
}

/// A document-level failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DocError {
    /// An invocation names a livelit that is not registered.
    UnknownLivelit(LivelitName),
    /// An abbreviation chain is cyclic.
    AbbrevCycle(LivelitName),
    /// Two livelit invocations share a hole name.
    DuplicateHole(HoleName),
    /// No instance exists at this hole.
    NoInstance(HoleName),
    /// A livelit command failed.
    Cmd(CmdError),
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocError::UnknownLivelit(n) => write!(f, "unknown livelit {n}"),
            DocError::AbbrevCycle(n) => write!(f, "abbreviation cycle through {n}"),
            DocError::DuplicateHole(u) => write!(f, "duplicate livelit hole {u}"),
            DocError::NoInstance(u) => write!(f, "no livelit instance at hole {u}"),
            DocError::Cmd(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DocError {}

impl From<CmdError> for DocError {
    fn from(e: CmdError) -> DocError {
        DocError::Cmd(e)
    }
}

/// Hole names for livelit-internal splices are allocated from this base so
/// they cannot collide with program holes.
const SPLICE_HOLE_BASE: u64 = 1 << 20;

/// A live document.
#[derive(Clone)]
pub struct Document {
    /// Library bindings wrapped around the program.
    pub prelude: Vec<PreludeBinding>,
    program: UExp,
    instances: BTreeMap<HoleName, Instance>,
    next_hole: u64,
    next_splice_hole_base: u64,
    sync_errors: BTreeMap<HoleName, CmdError>,
}

impl Document {
    /// Creates a document from an unexpanded program, instantiating (or
    /// restoring) an instance for every livelit invocation in it.
    ///
    /// Invocations whose splice lists are empty but whose livelit declares
    /// splices are treated as *fresh* (run `init`); otherwise the instance
    /// is restored from the persisted model and splices.
    ///
    /// # Errors
    ///
    /// See [`DocError`].
    pub fn new(
        registry: &LivelitRegistry,
        prelude: Vec<PreludeBinding>,
        program: UExp,
    ) -> Result<Document, DocError> {
        let next_hole = program.next_hole_name().0;
        let mut doc = Document {
            prelude,
            program,
            instances: BTreeMap::new(),
            next_hole,
            next_splice_hole_base: SPLICE_HOLE_BASE,
            sync_errors: BTreeMap::new(),
        };
        doc.instantiate_all(registry)?;
        doc.sync()?;
        Ok(doc)
    }

    fn alloc_splice_hole_base(&mut self) -> u64 {
        let base = self.next_splice_hole_base;
        self.next_splice_hole_base += 1 << 10;
        base
    }

    fn instantiate_all(&mut self, registry: &LivelitRegistry) -> Result<(), DocError> {
        let aps: Vec<LivelitAp> = self.program.livelit_aps().into_iter().cloned().collect();
        for ap in aps {
            if self.instances.contains_key(&ap.hole) {
                return Err(DocError::DuplicateHole(ap.hole));
            }
            let (livelit, prefix) = registry
                .resolve(&ap.name)
                .map_err(|_| DocError::AbbrevCycle(ap.name.clone()))?
                .ok_or_else(|| DocError::UnknownLivelit(ap.name.clone()))?;
            let base = self.alloc_splice_hole_base();
            let instance = if ap.splices.is_empty() && ap.model == hazel_lang::IExp::Unit {
                // Fresh invocation: supply abbreviation-prefix parameters
                // plus any explicit leading splices, then run init.
                Instance::new(livelit, ap.hole, prefix, base)?
            } else {
                Instance::restore(livelit, &ap, base)?
            };
            self.instances.insert(ap.hole, instance);
        }
        Ok(())
    }

    /// The current program (with invocation nodes synced to instances).
    pub fn program(&self) -> &UExp {
        &self.program
    }

    /// The prelude bindings, in scope order.
    pub fn prelude(&self) -> &[PreludeBinding] {
        &self.prelude
    }

    /// The typing context induced by the prelude.
    pub fn prelude_ctx(&self) -> Ctx {
        Ctx::from_bindings(self.prelude.iter().map(|b| (b.var.clone(), b.ty.clone())))
    }

    /// The program with the prelude bindings wrapped around it — what the
    /// engine expands and evaluates.
    pub fn full_program(&self) -> UExp {
        self.prelude
            .iter()
            .rev()
            .fold(self.program.clone(), |acc, b| {
                UExp::Let(
                    b.var.clone(),
                    Some(b.ty.clone()),
                    Box::new(UExp::from_eexp(&b.def)),
                    Box::new(acc),
                )
            })
    }

    /// The nesting depth of [`Self::full_program`], computed without
    /// building it: each prelude binding is one more `let` around the
    /// program.
    pub fn depth(&self) -> usize {
        self.prelude
            .iter()
            .rev()
            .fold(self.program.depth(), |inner, b| {
                1 + inner.max(UExp::from_eexp(&b.def).depth())
            })
    }

    /// The instance at a livelit hole.
    pub fn instance(&self, u: HoleName) -> Option<&Instance> {
        self.instances.get(&u)
    }

    /// Mutable access to the instance at a livelit hole.
    pub fn instance_mut(&mut self, u: HoleName) -> Option<&mut Instance> {
        self.instances.get_mut(&u)
    }

    /// All livelit holes in the document, in order.
    pub fn livelit_holes(&self) -> Vec<HoleName> {
        self.instances.keys().copied().collect()
    }

    /// Allocates a fresh program hole name.
    pub fn fresh_hole(&mut self) -> HoleName {
        let u = HoleName(self.next_hole);
        self.next_hole += 1;
        u
    }

    /// Re-projects every instance into its invocation node. Call after
    /// dispatching actions or editing splices.
    ///
    /// An instance whose `expand` fails keeps its previous invocation node
    /// — the failure is recorded (see [`Self::sync_errors`]) and will also
    /// surface as a marked non-empty hole when the engine runs (Sec. 5.1),
    /// so one broken livelit cannot take down the document.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` is kept for future stricter
    /// modes.
    pub fn sync(&mut self) -> Result<(), DocError> {
        self.sync_errors.clear();
        let mut invocations: BTreeMap<HoleName, LivelitAp> = BTreeMap::new();
        for (u, inst) in &self.instances {
            match inst.invocation() {
                Ok(inv) => {
                    invocations.insert(*u, inv);
                }
                Err(e) => {
                    self.sync_errors.insert(*u, e);
                }
            }
        }
        self.program = self.program.map(&mut |e| match e {
            UExp::Livelit(ap) => match invocations.get(&ap.hole) {
                Some(inv) => UExp::Livelit(Box::new(inv.clone())),
                None => UExp::Livelit(ap),
            },
            other => other,
        });
        Ok(())
    }

    /// Dispatches an action to the instance at `u` and syncs.
    ///
    /// # Errors
    ///
    /// See [`DocError`].
    pub fn dispatch(
        &mut self,
        u: HoleName,
        action: &livelit_mvu::livelit::Action,
    ) -> Result<(), DocError> {
        self.instances
            .get_mut(&u)
            .ok_or(DocError::NoInstance(u))?
            .dispatch(action)?;
        self.sync()
    }

    /// Edits a splice's contents as the client (formula-bar editing) and
    /// syncs.
    ///
    /// # Errors
    ///
    /// See [`DocError`].
    pub fn edit_splice(
        &mut self,
        u: HoleName,
        r: livelit_mvu::splice::SpliceRef,
        e: UExp,
    ) -> Result<(), DocError> {
        self.instances
            .get_mut(&u)
            .ok_or(DocError::NoInstance(u))?
            .edit_splice(r, e)?;
        self.sync()
    }

    /// Pushes an edited result value back into the livelit at `u`
    /// (bidirectional editing, Sec. 7) and syncs. Returns `Ok(false)` if
    /// the livelit declines the push.
    ///
    /// # Errors
    ///
    /// See [`DocError`].
    pub fn push_result(
        &mut self,
        u: HoleName,
        new_value: &hazel_lang::IExp,
    ) -> Result<bool, DocError> {
        let pushed = self
            .instances
            .get_mut(&u)
            .ok_or(DocError::NoInstance(u))?
            .push_result(new_value)?;
        if pushed {
            self.sync()?;
        }
        Ok(pushed)
    }

    /// Selects which collected closure the livelit at `u` sees (the Fig. 2
    /// sidebar toggle).
    ///
    /// # Errors
    ///
    /// Fails if there is no instance at `u`.
    pub fn select_closure(&mut self, u: HoleName, index: usize) -> Result<(), DocError> {
        self.instances
            .get_mut(&u)
            .ok_or(DocError::NoInstance(u))?
            .selected_env = index;
        Ok(())
    }

    /// Per-livelit failures recorded by the last [`Self::sync`]: instances
    /// whose `expand` failed and whose invocation nodes are therefore
    /// stale.
    pub fn sync_errors(&self) -> &BTreeMap<HoleName, CmdError> {
        &self.sync_errors
    }

    /// Inserts a fresh livelit invocation wherever the program has the
    /// empty hole `at` — the "filling a typed hole with a GUI" edit action.
    /// Abbreviation-prefix parameters are applied automatically; further
    /// parameters may be supplied as `params`.
    ///
    /// # Errors
    ///
    /// See [`DocError`].
    pub fn fill_hole_with_livelit(
        &mut self,
        registry: &LivelitRegistry,
        at: HoleName,
        name: impl Into<LivelitName>,
        params: Vec<UExp>,
    ) -> Result<(), DocError> {
        let name = name.into();
        let (livelit, mut all_params) = registry
            .resolve(&name)
            .map_err(|_| DocError::AbbrevCycle(name.clone()))?
            .ok_or_else(|| DocError::UnknownLivelit(name.clone()))?;
        all_params.extend(params);
        let base = self.alloc_splice_hole_base();
        let instance = Instance::new(livelit, at, all_params, base)?;
        let invocation = instance.invocation()?;
        self.instances.insert(at, instance);
        self.program = self.program.map(&mut |e| match e {
            UExp::EmptyHole(u) if u == at => UExp::Livelit(Box::new(invocation.clone())),
            other => other,
        });
        Ok(())
    }
}

impl std::fmt::Debug for Document {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Document")
            .field("prelude", &self.prelude.len())
            .field("instances", &self.instances.keys().collect::<Vec<_>>())
            .finish()
    }
}
