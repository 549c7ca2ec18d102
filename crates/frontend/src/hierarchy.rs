//! Class-hierarchy resolution: subtype queries, method lookup, and CHA
//! (Class Hierarchy Analysis) virtual-dispatch resolution.

use crate::ir::{Name, NameMap, Program};
use std::fmt;

/// An error produced while resolving a program's class hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HierarchyError {
    /// A class `extends` a name that is not defined.
    UnknownSuperclass {
        /// The subclass.
        class: String,
        /// The missing superclass name.
        superclass: String,
    },
    /// Two classes share a name.
    DuplicateClass(String),
    /// The `extends` chain contains a cycle.
    InheritanceCycle(String),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::UnknownSuperclass { class, superclass } => {
                write!(f, "class `{class}` extends unknown class `{superclass}`")
            }
            HierarchyError::DuplicateClass(c) => write!(f, "duplicate class `{c}`"),
            HierarchyError::InheritanceCycle(c) => {
                write!(f, "inheritance cycle involving class `{c}`")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// Resolved class hierarchy over a [`Program`].
#[derive(Debug)]
pub(crate) struct Hierarchy<'p> {
    /// The underlying program.
    pub(crate) program: &'p Program,
    by_name: NameMap<&'p Name, usize>,
    /// Direct subclasses of each class.
    children: Vec<Vec<usize>>,
    /// Direct superclass index, if any.
    parent: Vec<Option<usize>>,
}

impl<'p> Hierarchy<'p> {
    /// Builds and validates the hierarchy.
    pub(crate) fn new(program: &'p Program) -> Result<Self, HierarchyError> {
        let mut by_name = NameMap::default();
        for (i, c) in program.classes.iter().enumerate() {
            if by_name.insert(&c.name, i).is_some() {
                return Err(HierarchyError::DuplicateClass(c.name.to_string()));
            }
        }
        let mut parent = vec![None; program.classes.len()];
        let mut children = vec![Vec::new(); program.classes.len()];
        for (i, c) in program.classes.iter().enumerate() {
            if let Some(sup) = &c.superclass {
                let pi = *by_name
                    .get(sup)
                    .ok_or_else(|| HierarchyError::UnknownSuperclass {
                        class: c.name.to_string(),
                        superclass: sup.to_string(),
                    })?;
                parent[i] = Some(pi);
                children[pi].push(i);
            }
        }
        // Detect inheritance cycles by walking each chain with a step bound.
        for (i, c) in program.classes.iter().enumerate() {
            let mut cur = parent[i];
            let mut steps = 0;
            while let Some(p) = cur {
                steps += 1;
                if steps > program.classes.len() {
                    return Err(HierarchyError::InheritanceCycle(c.name.to_string()));
                }
                cur = parent[p];
            }
        }
        Ok(Hierarchy {
            program,
            by_name,
            children,
            parent,
        })
    }

    /// Index of a class by name.
    pub(crate) fn class_index(&self, name: &Name) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Direct superclass index.
    pub(crate) fn parent(&self, class: usize) -> Option<usize> {
        self.parent[class]
    }

    /// All subtypes of `class`, including itself (preorder).
    pub(crate) fn subtypes(&self, class: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.children[c].iter().copied());
        }
        out
    }

    /// Resolves the implementation of method `name` seen from `class`,
    /// walking up the superclass chain (Java method inheritance). Returns
    /// `(defining class index, method index within that class)`.
    pub(crate) fn resolve_method(&self, class: usize, name: &Name) -> Option<(usize, usize)> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(mi) = self.program.classes[c]
                .methods
                .iter()
                .position(|m| m.name == *name)
            {
                return Some((c, mi));
            }
            cur = self.parent[c];
        }
        None
    }

    /// CHA dispatch: possible targets of a virtual call `recv.name(..)`
    /// where `recv`'s declared type is `decl_class`. Considers every subtype
    /// of the declared type and resolves the method each would execute;
    /// deduplicates the resulting set.
    pub(crate) fn dispatch(&self, decl_class: usize, name: &Name) -> Vec<(usize, usize)> {
        let mut targets = Vec::new();
        for sub in self.subtypes(decl_class) {
            if let Some(t) = self.resolve_method(sub, name) {
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
        }
        targets.sort_unstable();
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(src: &str) -> Program {
        parse(src).unwrap()
    }

    #[test]
    fn resolves_subtypes_and_dispatch() {
        let p = prog(
            "class A { method m() { } method n() { } }
             class B extends A { method m() { } }
             class C extends B { }",
        );
        let h = Hierarchy::new(&p).unwrap();
        let [a, b, c] = ["A", "B", "C"].map(|n| h.class_index(&n.into()).unwrap());
        let [m, n] = ["m", "n"].map(Name::from);
        let mut subs = h.subtypes(a);
        subs.sort_unstable();
        assert_eq!(subs, vec![a, b, c]);
        assert_eq!(h.subtypes(b), vec![b, c]);
        // m is overridden in B: dispatch from A sees both A.m and B.m
        // (C inherits B.m, already in the set).
        let targets = h.dispatch(a, &m);
        assert_eq!(targets, vec![(a, 0), (b, 0)]);
        // n is only defined in A.
        assert_eq!(h.dispatch(a, &n), vec![(a, 1)]);
        // Dispatch from B only sees B.m.
        assert_eq!(h.dispatch(b, &m), vec![(b, 0)]);
    }

    #[test]
    fn inherited_method_resolution() {
        let p = prog("class A { method m() { } } class B extends A { }");
        let h = Hierarchy::new(&p).unwrap();
        let [a, b] = ["A", "B"].map(|n| h.class_index(&n.into()).unwrap());
        assert_eq!(h.resolve_method(b, &"m".into()), Some((a, 0)));
        assert_eq!(h.resolve_method(b, &"zzz".into()), None);
    }

    #[test]
    fn unknown_superclass_error() {
        let p = prog("class A extends Ghost { }");
        assert_eq!(
            Hierarchy::new(&p).unwrap_err(),
            HierarchyError::UnknownSuperclass {
                class: "A".into(),
                superclass: "Ghost".into()
            }
        );
    }

    #[test]
    fn duplicate_class_error() {
        let p = prog("class A { } class A { }");
        assert!(matches!(
            Hierarchy::new(&p).unwrap_err(),
            HierarchyError::DuplicateClass(_)
        ));
    }

    #[test]
    fn inheritance_cycle_error() {
        // The parser allows forward references, so a cycle is expressible.
        let p = prog("class A extends B { } class B extends A { }");
        assert!(matches!(
            Hierarchy::new(&p).unwrap_err(),
            HierarchyError::InheritanceCycle(_)
        ));
    }
}
