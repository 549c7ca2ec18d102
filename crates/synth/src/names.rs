//! Identifier construction for generated programs.

use parcfl_frontend::ir::Name;

/// Class name for a value class (leaf types, level 1).
pub fn value_class(i: usize) -> Name {
    format!("Val{i}").into()
}

/// Class name for a box class (single-field containers of varying depth).
pub fn box_class(i: usize) -> Name {
    format!("Box{i}").into()
}

/// Class name for a collection class (array-backed, Vector-like).
pub fn coll_class(i: usize) -> Name {
    format!("Coll{i}").into()
}

/// Class name for an application class.
pub fn app_class(i: usize) -> Name {
    format!("App{i}").into()
}

/// Method name for the k-th generated method of a class.
pub fn method(k: usize) -> Name {
    format!("m{k}").into()
}

/// Local-variable name.
pub fn local(k: usize) -> Name {
    format!("v{k}").into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_per_index() {
        assert_ne!(value_class(0), value_class(1));
        assert_eq!(box_class(3), "Box3");
        assert_eq!(coll_class(0), "Coll0");
        assert_eq!(app_class(7), "App7");
        assert_eq!(method(2), "m2");
        assert_eq!(local(9), "v9");
    }
}
