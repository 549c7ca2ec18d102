//! The mini-Java intermediate representation.
//!
//! This IR plays the role Soot's Jimple plays in the paper: a typed,
//! three-address representation of an object-oriented program from which the
//! Pointer Assignment Graph is extracted. It supports exactly the features
//! the analysis is sensitive to: classes with single inheritance, instance
//! fields, static fields (globals), virtual and static calls, allocations,
//! assignments, field loads/stores, and array accesses (collapsed into the
//! distinguished `arr` field, as in the paper).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An identifier: a shared, immutable string behind one thin pointer
/// (8 bytes, where an `Arc<str>` would be 16). Building one from a string
/// allocates twice, the counted box and the text, so both producers of
/// programs — the parser and the synthetic generator — intern: each
/// distinct spelling is built once, equal names share it, and a clone is a
/// reference-count bump. Derefs to `str` and prints as itself.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name(Arc<Box<str>>);

impl Name {
    /// Whether `a` and `b` are the same interned spelling, not just equal
    /// text.
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self.0, f)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::new(s.into()))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::new(s.into_boxed_str()))
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        **self.0 == **other
    }
}

/// A type reference, by name.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// The `int` primitive (stands in for all primitives).
    Int,
    /// A class type, by name.
    Class(Name),
    /// An array of some element type.
    Array(Box<TypeRef>),
}

impl TypeRef {
    /// Whether this is a reference type.
    pub fn is_ref(&self) -> bool {
        !matches!(self, TypeRef::Int)
    }

    /// The element spelling (`int` or the class name) and the array rank.
    pub(crate) fn base_and_rank(&self) -> (&str, usize) {
        let (mut ty, mut rank) = (self, 0);
        while let TypeRef::Array(elem) = ty {
            (ty, rank) = (elem, rank + 1);
        }
        match ty {
            TypeRef::Class(c) => (c, rank),
            _ => ("int", rank),
        }
    }
}

/// Canonical spelling: `Obj`, `Obj[]`, `int`.
impl fmt::Display for TypeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (base, rank) = self.base_and_rank();
        f.write_str(base)?;
        (0..rank).try_for_each(|_| f.write_str("[]"))
    }
}

/// A reference to a storage location in statements.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// A method-local variable (including parameters and `this`).
    Local(Name),
    /// A static field `Class.field` — a global.
    Static(Name, Name),
}

/// Prints as the source spells it: `x`, `Class.field`.
impl fmt::Display for VarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarRef::Local(n) => write!(f, "{n}"),
            VarRef::Static(c, n) => write!(f, "{c}.{n}"),
        }
    }
}

/// One statement of a method body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `dst = new C` (also used for array allocations with `C` an array type).
    New {
        /// Destination variable.
        dst: VarRef,
        /// Allocated type.
        ty: TypeRef,
    },
    /// `dst = src`.
    Assign {
        /// Destination.
        dst: VarRef,
        /// Source.
        src: VarRef,
    },
    /// `dst = base.field`.
    Load {
        /// Destination.
        dst: VarRef,
        /// Base object reference.
        base: VarRef,
        /// Field name.
        field: Name,
    },
    /// `base.field = src`.
    Store {
        /// Base object reference.
        base: VarRef,
        /// Field name.
        field: Name,
        /// Source.
        src: VarRef,
    },
    /// `dst = base[]` — array element load (collapsed `arr` field).
    ArrayLoad {
        /// Destination.
        dst: VarRef,
        /// Array reference.
        base: VarRef,
    },
    /// `base[] = src` — array element store.
    ArrayStore {
        /// Array reference.
        base: VarRef,
        /// Source.
        src: VarRef,
    },
    /// A virtual call `dst = recv.method(args...)`; dispatch is resolved by
    /// CHA from the declared type of `recv`.
    VirtualCall {
        /// Optional destination for the return value.
        dst: Option<VarRef>,
        /// Receiver.
        recv: VarRef,
        /// Method name.
        method: Name,
        /// Actual arguments, boxed at their count: a call keeps no
        /// capacity word.
        args: Box<[VarRef]>,
    },
    /// A static call `dst = C.method(args...)`.
    StaticCall {
        /// Optional destination for the return value.
        dst: Option<VarRef>,
        /// Class owning the static method.
        class: Name,
        /// Method name.
        method: Name,
        /// Actual arguments, boxed at their count: a call keeps no
        /// capacity word.
        args: Box<[VarRef]>,
    },
    /// `return x;` (only reference-typed returns are modelled).
    Return {
        /// Returned value, if any.
        val: Option<VarRef>,
    },
}

/// A declared field (instance or static).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: Name,
    /// Declared type.
    pub ty: TypeRef,
}

/// A local-variable declaration (`var x: T;`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalDecl {
    /// Variable name.
    pub name: Name,
    /// Declared type.
    pub ty: TypeRef,
}

/// A method definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodDecl {
    /// Method name (no overloading: names are unique per class).
    pub name: Name,
    /// Whether the method is static (no implicit `this`).
    pub is_static: bool,
    /// Declared parameters (excluding the implicit `this`).
    pub params: Vec<LocalDecl>,
    /// Return type, if the method returns a value.
    pub ret: Option<TypeRef>,
    /// Declared locals.
    pub locals: Vec<LocalDecl>,
    /// The body.
    pub body: Vec<Stmt>,
}

/// A class definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassDecl {
    /// Class name.
    pub name: Name,
    /// Direct superclass name, if any.
    pub superclass: Option<Name>,
    /// Whether the class belongs to application code (queries are issued for
    /// application-code locals only).
    pub is_application: bool,
    /// Instance fields.
    pub fields: Vec<FieldDecl>,
    /// Static fields (globals).
    pub statics: Vec<FieldDecl>,
    /// Methods.
    pub methods: Vec<MethodDecl>,
}

/// A whole program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// All classes.
    pub classes: Vec<ClassDecl>,
}

impl Program {
    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Total number of methods.
    pub fn method_count(&self) -> usize {
        self.classes.iter().map(|c| c.methods.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// The parsed 108 k-node program and the node tables of its extracted
    /// and collapsed graphs are live at `open_project`'s heap peak: a field
    /// that regrows these fails here first.
    #[test]
    fn layout_is_pinned() {
        assert_eq!(size_of::<Name>(), 8);
        assert_eq!(size_of::<VarRef>(), 16);
        assert_eq!(size_of::<TypeRef>(), 16);
        assert_eq!(size_of::<LocalDecl>(), 24);
        assert_eq!(size_of::<Stmt>(), 64, "a call's args are a boxed slice");
        assert_eq!(size_of::<parcfl_pag::NodeName>(), 16);
        assert_eq!(size_of::<parcfl_pag::NodeInfo>(), 32);
    }

    #[test]
    fn type_ref_display_and_refness() {
        assert_eq!(TypeRef::Int.to_string(), "int");
        assert!(!TypeRef::Int.is_ref());
        let arr = TypeRef::Array(Box::new(TypeRef::Class("Obj".into())));
        assert_eq!(arr.to_string(), "Obj[]");
        assert!(arr.is_ref());
        let arr2 = TypeRef::Array(Box::new(arr));
        assert_eq!(arr2.to_string(), "Obj[][]");
    }

    #[test]
    fn program_lookups() {
        let p = Program {
            classes: vec![ClassDecl {
                name: "A".into(),
                superclass: None,
                is_application: true,
                fields: vec![],
                statics: vec![],
                methods: vec![MethodDecl {
                    name: "m".into(),
                    is_static: false,
                    params: vec![],
                    ret: None,
                    locals: vec![],
                    body: vec![Stmt::Return { val: None }],
                }],
            }],
        };
        assert!(p.class("A").is_some());
        assert!(p.class("B").is_none());
        assert_eq!(p.method_count(), 1);
    }
}
