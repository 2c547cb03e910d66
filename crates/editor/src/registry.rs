//! The livelit registry: implementations and abbreviations in scope.
//!
//! "Providers define livelits in libraries. Clients invoke livelits by
//! name" — decentralized extensibility (Sec. 1.2). The registry is the
//! editor's library path: it maps names to [`Livelit`] implementations,
//! resolves abbreviations, and derives the calculus-level livelit context Φ
//! used by expansion and closure collection.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use hazel_lang::ident::LivelitName;
use hazel_lang::unexpanded::UExp;
use livelit_analysis::Diagnostic;
use livelit_core::def::LivelitCtx;
use livelit_mvu::abbrev::{AbbrevCtx, AbbrevError};
use livelit_mvu::host::def_for;
use livelit_mvu::livelit::Livelit;

/// A rejected registration: the definition failed its error-severity lints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError {
    /// The livelit that failed to register.
    pub name: LivelitName,
    /// The error-severity lint findings, with stable `LL` codes.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot register {}:", self.name)?;
        for d in &self.diagnostics {
            write!(f, "\n  {}", d.render())?;
        }
        Ok(())
    }
}

impl std::error::Error for RegistryError {}

/// A resolved livelit: the base implementation and the prefix of applied
/// parameter expressions contributed by abbreviations.
pub type Resolved = (Arc<dyn Livelit>, Vec<UExp>);

/// A registry of livelit implementations and abbreviations.
#[derive(Default, Clone)]
pub struct LivelitRegistry {
    impls: BTreeMap<LivelitName, Arc<dyn Livelit>>,
    abbrevs: AbbrevCtx,
    /// Memoized Φ. Deriving definitions assigns each a fresh identity, and
    /// the expansion cache is keyed on those identities — rebuilding Φ per
    /// engine run would therefore start the cache cold every time. Clones
    /// of the memoized context share one expansion cache instead.
    phi_cache: Arc<Mutex<Option<LivelitCtx>>>,
}

impl LivelitRegistry {
    /// An empty registry.
    pub fn new() -> LivelitRegistry {
        LivelitRegistry::default()
    }

    /// Registers a livelit implementation under its own name, after
    /// linting its calculus-level definition.
    ///
    /// Registration is where Hazel "check\[s\] that the definition is
    /// well-formed" rather than at every invocation; a definition that
    /// fails an error-severity lint (`LL0301`, `LL0303`, `LL0304`) is
    /// rejected with the findings instead of panicking later in [`phi`].
    /// Warning-severity findings (e.g. `LL0302` naming) do not block
    /// registration.
    ///
    /// [`phi`]: LivelitRegistry::phi
    ///
    /// # Errors
    ///
    /// Returns the error-severity lint findings for a rejected definition.
    pub fn register(&mut self, livelit: Arc<dyn Livelit>) -> Result<(), RegistryError> {
        let def = def_for(&livelit);
        let diagnostics = livelit_analysis::definition_errors(&def);
        if !diagnostics.is_empty() {
            return Err(RegistryError {
                name: livelit.name(),
                diagnostics,
            });
        }
        self.impls.insert(livelit.name(), livelit);
        // A fresh Arc, not a clear of the shared one: clones of this
        // registry keep their (still-valid) memoized Φ.
        self.phi_cache = Arc::new(Mutex::new(None));
        Ok(())
    }

    /// Defines an abbreviation `let $name = $base e1 ... ek in ...`
    /// (partial parameter application, Sec. 2.4.1).
    pub fn define_abbrev(
        &mut self,
        name: impl Into<LivelitName>,
        base: impl Into<LivelitName>,
        applied: Vec<UExp>,
    ) {
        self.abbrevs.define(name, base, applied);
    }

    /// Looks up an implementation by (unabbreviated) name.
    pub fn get(&self, name: &LivelitName) -> Option<&Arc<dyn Livelit>> {
        self.impls.get(name)
    }

    /// Resolves a possibly-abbreviated name to its base implementation and
    /// the prefix of applied parameter expressions.
    ///
    /// # Errors
    ///
    /// Returns `Err` for abbreviation cycles; `Ok(None)` when the base name
    /// is not registered.
    pub fn resolve(&self, name: &LivelitName) -> Result<Option<Resolved>, AbbrevError> {
        let (base, prefix) = self.abbrevs.resolve(name)?;
        Ok(self.impls.get(&base).map(|l| (Arc::clone(l), prefix)))
    }

    /// Derives the livelit context Φ for the calculus: one definition per
    /// registered implementation. Memoized until the next registration, so
    /// repeated calls return clones sharing one expansion cache.
    pub fn phi(&self) -> LivelitCtx {
        let mut cached = self.phi_cache.lock().expect("phi cache poisoned");
        if let Some(phi) = cached.as_ref() {
            return phi.clone();
        }
        let mut phi = LivelitCtx::new();
        for livelit in self.impls.values() {
            // register linted this definition, and def_for produces native
            // definitions, which Φ-well-formedness trusts (Sec. 3.2.5) —
            // so define cannot fail here. Defensively skip rather than
            // panic if it somehow does; the hygiene pass will then report
            // the invocation as unbound (LL0001).
            let _ = phi.define(def_for(livelit));
        }
        *cached = Some(phi.clone());
        phi
    }

    /// Iterates over registered implementations in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&LivelitName, &Arc<dyn Livelit>)> {
        self.impls.iter()
    }

    /// The number of registered implementations.
    pub fn len(&self) -> usize {
        self.impls.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.impls.is_empty()
    }
}

impl std::fmt::Debug for LivelitRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LivelitRegistry")
            .field("impls", &self.impls.keys().collect::<Vec<_>>())
            .finish()
    }
}
