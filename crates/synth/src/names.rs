//! Identifier construction for generated programs.
//!
//! Building a [`Name`] from a string allocates twice, so the generator
//! interns as the parser does: one [`Names`] table per generated program
//! builds each distinct spelling once and hands out clones, and is dropped
//! when the program is done.

use parcfl_frontend::ir::Name;
use std::collections::HashMap;

/// Every spelling one program uses so far.
#[derive(Default)]
pub(crate) struct Names {
    values: Vec<Name>,
    boxes: Vec<Name>,
    colls: Vec<Name>,
    apps: Vec<Name>,
    methods: Vec<Name>,
    locals: Vec<Name>,
    /// Fixed spellings: `this`, `get`, field and parameter names.
    fixed: HashMap<&'static str, Name>,
}

/// `{prefix}{i}`. The generator numbers every kind from 0 up, so building
/// the spellings below `i` with it builds none that goes unused.
fn numbered(slots: &mut Vec<Name>, prefix: &str, i: usize) -> Name {
    while slots.len() <= i {
        slots.push(format!("{prefix}{}", slots.len()).into());
    }
    slots[i].clone()
}

/// A fixed spelling.
pub(crate) fn fixed(names: &mut Names, s: &'static str) -> Name {
    names.fixed.entry(s).or_insert_with(|| s.into()).clone()
}

/// Class name for a value class (leaf types, level 1).
pub(crate) fn value_class(names: &mut Names, i: usize) -> Name {
    numbered(&mut names.values, "Val", i)
}

/// Class name for a box class (single-field containers of varying depth).
pub(crate) fn box_class(names: &mut Names, i: usize) -> Name {
    numbered(&mut names.boxes, "Box", i)
}

/// Class name for a collection class (array-backed, Vector-like).
pub(crate) fn coll_class(names: &mut Names, i: usize) -> Name {
    numbered(&mut names.colls, "Coll", i)
}

/// Class name for an application class.
pub(crate) fn app_class(names: &mut Names, i: usize) -> Name {
    numbered(&mut names.apps, "App", i)
}

/// Method name for the k-th generated method of a class.
pub(crate) fn method(names: &mut Names, k: usize) -> Name {
    numbered(&mut names.methods, "m", k)
}

/// Local-variable name.
pub(crate) fn local(names: &mut Names, k: usize) -> Name {
    numbered(&mut names.locals, "v", k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    #[test]
    fn names_are_distinct_per_index() {
        let n = &mut Names::default();
        assert_ne!(value_class(n, 0), value_class(n, 1));
        assert_eq!(box_class(n, 3), "Box3");
        assert_eq!(coll_class(n, 0), "Coll0");
        assert_eq!(app_class(n, 7), "App7");
        assert_eq!(method(n, 2), "m2");
        assert_eq!(local(n, 9), "v9");
        assert_eq!(fixed(n, "this"), "this");
    }

    /// Fixed spellings; `v1` is also what [`local`] spells for 1.
    const FIXED: [&str; 3] = ["this", "get", "v1"];

    /// Spelling `i` of kind `kind`, and the name the generator builds for it.
    fn synthesised(names: &mut Names, kind: usize, i: usize) -> (String, Name) {
        let name = match kind {
            0 => local(names, i),
            1 => method(names, i),
            2 => box_class(names, i),
            _ => fixed(names, FIXED[i % FIXED.len()]),
        };
        (name.to_string(), name)
    }

    proptest! {
        /// The generator's, the parser's and `From`'s names of a spelling
        /// are one name: equal exactly when their text is, and hashed
        /// alike when equal.
        #[test]
        fn names_are_equal_exactly_when_their_text_is(
            picks in collection::vec((0..4usize, 0..6usize), 1..12),
        ) {
            let names = &mut Names::default();
            let mut all: Vec<(String, Name)> = Vec::new();
            for &(kind, i) in &picks {
                let (text, name) = synthesised(names, kind, i);
                all.push((text.clone(), Name::from(text.as_str())));
                all.push((text.clone(), Name::from(text.clone())));
                all.push((text, name));
            }
            let spellings: Vec<String> = all.iter().step_by(3).map(|(t, _)| t.clone()).collect();
            let fields: String = spellings.iter().map(|t| format!("field {t}: int; ")).collect();
            let parsed = parcfl_frontend::parse(&format!("class C {{ {fields}}}")).unwrap();
            let parsed = parsed.classes[0].fields.iter().map(|f| f.name.clone());
            all.extend(spellings.into_iter().zip(parsed));
            let keys = RandomState::new();
            for (s, a) in &all {
                prop_assert_eq!(&**a, s.as_str());
                for (t, b) in &all {
                    prop_assert_eq!(a == b, s == t, "{s} against {t}");
                    if a == b {
                        prop_assert_eq!(keys.hash_one(a), keys.hash_one(b));
                    }
                }
            }
        }
    }

    #[test]
    fn each_spelling_is_built_once() {
        let n = &mut Names::default();
        assert!(Name::ptr_eq(&local(n, 4), &local(n, 4)));
        assert!(Name::ptr_eq(&fixed(n, "get"), &fixed(n, "get")));
        assert!(!Name::ptr_eq(&local(n, 4), &local(n, 5)));
    }
}
