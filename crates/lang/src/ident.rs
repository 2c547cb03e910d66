//! Identifier newtypes: variables, type variables, labels, hole names, and
//! livelit names.
//!
//! The calculus in the paper (Fig. 4) ranges `x` over expression variables,
//! `t` over type variables, `u` over hole names, and `$a` over livelit names.
//! Each of these gets its own newtype so they cannot be confused
//! ([C-NEWTYPE]).
//!
//! Names are shared, not copied: each identifier holds an `Arc<str>`, so a
//! clone is a reference-count bump. Equality, ordering and hashing are by
//! content, so maps keyed by identifiers iterate in string order.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

macro_rules! string_ident {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates an identifier from anything string-like.
            pub fn new(s: impl AsRef<str>) -> Self {
                $name(Arc::from(s.as_ref()))
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name(Arc::from(s))
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name(Arc::from(s))
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }
    };
}

string_ident! {
    /// An expression variable, `x` in the paper's grammar.
    Var
}

string_ident! {
    /// A type variable, `t` in the paper's grammar (bound by `μ(t.τ)`).
    TVar
}

string_ident! {
    /// A field label in a labeled product or sum.
    ///
    /// Hazel writes field labels as `.label` (Sec. 2.3); positional tuple
    /// components use synthesized labels `_0`, `_1`, ....
    Label
}

string_ident! {
    /// A livelit name, `$a` in the paper's grammar.
    ///
    /// The stored string does *not* include the `$` sigil; `Display` adds it.
    LivelitNameInner
}

/// A livelit name such as `$color`.
///
/// Printed with the `$` sigil the paper uses to distinguish livelit names
/// from variables (Sec. 1.2, "Decentralized Extensibility").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LivelitName(Arc<str>);

impl LivelitName {
    /// Creates a livelit name. A leading `$`, if present, is stripped.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        LivelitName(Arc::from(s.strip_prefix('$').unwrap_or(s)))
    }

    /// The name without the `$` sigil.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for LivelitName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl From<&str> for LivelitName {
    fn from(s: &str) -> Self {
        LivelitName::new(s)
    }
}

impl From<String> for LivelitName {
    fn from(s: String) -> Self {
        LivelitName::new(s)
    }
}

/// A hole name, `u` in the paper's grammar.
///
/// Hole names are unique within an external expression but may be duplicated
/// during internal evaluation (Sec. 4.1), which is why internal holes carry
/// environments distinguishing their instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HoleName(pub u64);

impl HoleName {
    /// Creates a hole name from a raw index.
    pub fn new(n: u64) -> Self {
        HoleName(n)
    }
}

impl fmt::Display for HoleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl Label {
    /// The synthesized label for positional tuple component `i`.
    pub fn positional(i: usize) -> Label {
        Label::new(format!("_{i}"))
    }

    /// Whether this label is a synthesized positional label.
    pub fn is_positional(&self) -> bool {
        self.0
            .strip_prefix('_')
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_roundtrip() {
        let x = Var::new("baseline");
        assert_eq!(x.as_str(), "baseline");
        assert_eq!(x.to_string(), "baseline");
        assert_eq!(Var::from("baseline"), x);
    }

    #[test]
    fn livelit_name_strips_sigil() {
        assert_eq!(LivelitName::new("$color"), LivelitName::new("color"));
        assert_eq!(LivelitName::new("color").to_string(), "$color");
    }

    #[test]
    fn hole_name_display() {
        assert_eq!(HoleName::new(3).to_string(), "u3");
    }

    #[test]
    fn positional_labels() {
        assert_eq!(Label::positional(0).as_str(), "_0");
        assert!(Label::positional(12).is_positional());
        assert!(!Label::new("r").is_positional());
        assert!(!Label::new("_").is_positional());
        assert!(!Label::new("_x1").is_positional());
    }

    #[test]
    fn idents_are_ordered_for_map_keys() {
        let mut v = vec![Var::new("b"), Var::new("a")];
        v.sort();
        assert_eq!(v, vec![Var::new("a"), Var::new("b")]);
    }
}
