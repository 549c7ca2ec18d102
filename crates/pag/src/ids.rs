//! Dense integer identifiers for every entity in the analysed program.
//!
//! All identifiers are newtypes over `u32`, which keeps the hot graph
//! structures compact (see the type-size guidance in the Rust Performance
//! Book). Conversions to/from `usize` are explicit so that accidental mixing
//! of id spaces is a compile error.

/// Declares a `u32`-backed dense identifier newtype.
macro_rules! dense_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Constructs an id from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Constructs an id from a `usize` index, panicking on overflow.
            #[inline]
            pub fn from_usize(raw: usize) -> Self {
                debug_assert!(raw <= u32::MAX as usize);
                Self(raw as u32)
            }

            /// Returns the raw index as `usize` for slice indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

dense_id!(
    /// A PAG node: a local variable, a global (static field), or an
    /// allocation-site object.
    NodeId,
    "n"
);
dense_id!(
    /// A field name (`f` in `ld(f)` / `st(f)`). Array elements are collapsed
    /// into the distinguished field [`FieldId::ARR`], as in the paper.
    FieldId,
    "f"
);
dense_id!(
    /// A call site (`i` in `param_i` / `ret_i`).
    CallSiteId,
    "cs"
);
dense_id!(
    /// A reference type (class) or primitive type in the analysed program.
    TypeId,
    "t"
);
dense_id!(
    /// A method of the analysed program.
    MethodId,
    "m"
);

impl FieldId {
    /// The special field all array elements are collapsed into (`arr` in the
    /// paper, Section II-A).
    pub const ARR: FieldId = FieldId(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let id = NodeId::from_usize(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(NodeId::new(42), id);
    }

    #[test]
    fn debug_formatting_uses_prefix() {
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(format!("{}", FieldId(3)), "f3");
        assert_eq!(format!("{:?}", CallSiteId(1)), "cs1");
        assert_eq!(format!("{:?}", TypeId(0)), "t0");
        assert_eq!(format!("{:?}", MethodId(9)), "m9");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(FieldId::ARR <= FieldId(1));
    }
}
