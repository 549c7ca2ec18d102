//! PAG nodes: variables (local or global) and allocation-site objects.
//!
//! Mirrors the node syntax of the paper's Fig. 1:
//! `n := v | o`, `v := l | g`.

use crate::ids::{MethodId, TypeId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The kind of a PAG node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A local variable `l`, owned by a method.
    Local {
        /// The method the local belongs to.
        method: MethodId,
    },
    /// A global variable `g` (a static field of some class). Globals are
    /// analysed context-insensitively (Algorithm 1, line 9).
    Global,
    /// An abstract object `o` named by its allocation site.
    Object {
        /// The method containing the allocation site.
        method: MethodId,
    },
}

impl NodeKind {
    /// Whether the node is a variable (local or global), as opposed to an
    /// object.
    #[inline]
    pub fn is_variable(self) -> bool {
        !matches!(self, NodeKind::Object { .. })
    }

    /// Whether the node is an allocation-site object.
    #[inline]
    pub fn is_object(self) -> bool {
        matches!(self, NodeKind::Object { .. })
    }

    /// Whether the node is a local variable.
    #[inline]
    pub fn is_local(self) -> bool {
        matches!(self, NodeKind::Local { .. })
    }

    /// Whether the node is a global variable.
    #[inline]
    pub fn is_global(self) -> bool {
        matches!(self, NodeKind::Global)
    }

    /// The owning method, if the node is method-scoped.
    #[inline]
    pub fn method(self) -> Option<MethodId> {
        match self {
            NodeKind::Local { method } | NodeKind::Object { method } => Some(method),
            NodeKind::Global => None,
        }
    }
}

/// A node's human-readable name: a range of a text shared by every name a
/// [`crate::PagBuilder`] wrote, so a frozen graph holds one allocation for
/// all its names, and a clone is a reference-count bump. 16 bytes: a thin
/// pointer to the text and the range as two `u32`s.
///
/// Compared, hashed, displayed and debug-printed as the string it reads;
/// `From<String>` and `From<&str>` give a name with a text of its own.
#[derive(Clone)]
pub struct NodeName {
    text: Arc<Box<str>>,
    start: u32,
    len: u32,
}

impl NodeName {
    /// The name `text[start .. start + len]`.
    pub(crate) fn range(text: &Arc<Box<str>>, start: usize, len: usize) -> Self {
        let at = |i: usize| u32::try_from(i).expect("a graph's names fit in 4 GiB of text");
        NodeName {
            text: Arc::clone(text),
            start: at(start),
            len: at(len),
        }
    }

    /// The same range of another text.
    pub(crate) fn rebased(&self, text: &Arc<Box<str>>) -> Self {
        NodeName {
            text: Arc::clone(text),
            ..*self
        }
    }

    /// Whether the name is a range of `text`.
    pub(crate) fn is_in(&self, text: &Arc<Box<str>>) -> bool {
        Arc::ptr_eq(&self.text, text)
    }

    /// The name.
    #[inline]
    pub fn as_str(&self) -> &str {
        let start = self.start as usize;
        &self.text[start..start + self.len as usize]
    }
}

impl Deref for NodeName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for NodeName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for NodeName {}

impl PartialEq<str> for NodeName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for NodeName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Hash for NodeName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl From<String> for NodeName {
    fn from(name: String) -> Self {
        let len = name.len();
        NodeName::range(&Arc::new(name.into_boxed_str()), 0, len)
    }
}

impl From<&str> for NodeName {
    fn from(name: &str) -> Self {
        NodeName::from(name.to_owned())
    }
}

/// Per-node metadata stored by the [`crate::Pag`]: 32 bytes.
#[derive(Clone, Debug)]
pub struct NodeInfo {
    /// What kind of node this is.
    pub kind: NodeKind,
    /// The static (declared) type of the variable, or the concrete type of
    /// the object. Used by query scheduling to estimate dependence depths.
    pub ty: TypeId,
    /// Human-readable name (e.g. `v1@main` or `o@Vector.<init>:6`), used in
    /// reports and DOT dumps only. A graph frozen by a [`crate::PagBuilder`]
    /// keeps the names it wrote in one text ([`NodeName`]).
    pub name: NodeName,
    /// Whether the node belongs to application code (as opposed to library
    /// code). The paper issues queries for all application-code locals.
    pub is_application: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        let l = NodeKind::Local {
            method: MethodId(0),
        };
        let g = NodeKind::Global;
        let o = NodeKind::Object {
            method: MethodId(1),
        };
        assert!(l.is_variable() && l.is_local() && !l.is_global() && !l.is_object());
        assert!(g.is_variable() && g.is_global() && !g.is_local() && !g.is_object());
        assert!(o.is_object() && !o.is_variable());
    }

    #[test]
    fn owning_method() {
        assert_eq!(
            NodeKind::Local {
                method: MethodId(3)
            }
            .method(),
            Some(MethodId(3))
        );
        assert_eq!(NodeKind::Global.method(), None);
        assert_eq!(
            NodeKind::Object {
                method: MethodId(5)
            }
            .method(),
            Some(MethodId(5))
        );
    }
}
