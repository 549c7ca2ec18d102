//! A lightweight table of the analysed program's types.
//!
//! Query scheduling (paper Section III-C2) estimates dependences between
//! variables from their static types: the *level* `L(t)` of a type is the
//! height of its field-containment hierarchy (modulo recursion), and the
//! dependence depth of a variable of type `t` is `1/L(t)`.
//!
//! The table is produced by the frontend and consumed by the scheduler, so
//! it lives here in the shared `pag` crate.

use crate::ids::{FieldId, TypeId};

/// Metadata for one type of the analysed program.
#[derive(Clone, Debug)]
pub struct TypeInfo {
    /// Human-readable name (class name, or primitive name).
    pub name: String,
    /// Whether the type is a reference type (class/array). Primitive types
    /// have `L(t) = 0`.
    pub is_ref: bool,
    /// Instance fields: `(field, declared type)` pairs. Only reference-typed
    /// fields influence `L(t)`, but all are recorded.
    pub fields: Vec<(FieldId, TypeId)>,
    /// Direct superclass, if any (used by the frontend's CHA).
    pub supertype: Option<TypeId>,
}

/// The table of all types, indexed by [`TypeId`], and the count of the
/// program's fields. A field's name is not kept: nothing reads it back,
/// and the frontend interns names in its own map.
#[derive(Clone, Debug)]
pub struct TypeTable {
    types: Vec<TypeInfo>,
    /// Number of fields interned, the builtin `arr` included.
    fields: u32,
}

/// [`TypeTable::new`]: `arr` is predeclared here too.
impl Default for TypeTable {
    fn default() -> Self {
        TypeTable::new()
    }
}

impl TypeTable {
    /// Creates an empty table with the distinguished `arr` field predeclared
    /// at [`FieldId::ARR`].
    pub fn new() -> Self {
        TypeTable {
            types: Vec::new(),
            fields: 1,
        }
    }

    /// Adds a type and returns its id.
    pub fn add_type(&mut self, info: TypeInfo) -> TypeId {
        let id = TypeId::from_usize(self.types.len());
        self.types.push(info);
        id
    }

    /// Adds a field and returns its id, the next one free. Its `name` is
    /// not kept.
    pub fn add_field(&mut self, _name: impl Into<String>) -> FieldId {
        let id = FieldId::new(self.fields);
        self.fields += 1;
        id
    }

    /// Number of types.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.types.len()
    }

    /// Number of fields (including the builtin `arr`).
    pub fn field_count(&self) -> usize {
        self.fields as usize
    }

    /// Looks up a type.
    pub fn get(&self, id: TypeId) -> &TypeInfo {
        &self.types[id.index()]
    }

    /// Mutable lookup (the frontend patches fields in as it parses).
    pub fn get_mut(&mut self, id: TypeId) -> &mut TypeInfo {
        &mut self.types[id.index()]
    }

    /// Computes `L(t)` for every type:
    ///
    /// ```text
    /// L(t) = max_{t_i in FT(t)} L(t_i) + 1   if isRef(t)
    /// L(t) = 0                               otherwise
    /// ```
    ///
    /// "Modulo recursion": mutually recursive types form cycles in the
    /// field-reference graph; all members of a strongly connected component
    /// receive the same level, computed as if the intra-component field
    /// references contributed no extra height.
    pub fn levels(&self) -> Vec<u32> {
        let n = self.types.len();
        // Field-reference graph: t -> type of each reference-typed field.
        let succ: Vec<Vec<usize>> = self
            .types
            .iter()
            .map(|t| {
                if !t.is_ref {
                    return Vec::new();
                }
                t.fields
                    .iter()
                    .filter(|(_, ft)| self.types[ft.index()].is_ref)
                    .map(|(_, ft)| ft.index())
                    .collect()
            })
            .collect();

        let scc = crate::algo::tarjan_scc(n, |v| succ[v].iter().copied());
        // Components are emitted in reverse topological order by Tarjan:
        // every successor's component is finished before its predecessors'.
        // Walk components in that order so successor levels are ready.
        let mut level = vec![0u32; n];
        let mut comp_level = vec![0u32; scc.component_count()];
        for comp in 0..scc.component_count() {
            let members: Vec<usize> = scc.members_usize(comp).collect();
            let mut best = 0u32;
            let mut any_ref = false;
            for &v in &members {
                if !self.types[v].is_ref {
                    continue;
                }
                any_ref = true;
                for &s in &succ[v] {
                    let sc = scc.component_of(s);
                    if sc != comp {
                        best = best.max(comp_level[sc]);
                    }
                }
            }
            let l = if any_ref { best + 1 } else { 0 };
            comp_level[comp] = l;
            for &v in &members {
                level[v] = if self.types[v].is_ref { l } else { 0 };
            }
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(name: &str, is_ref: bool) -> TypeInfo {
        TypeInfo {
            name: name.to_string(),
            is_ref,
            fields: Vec::new(),
            supertype: None,
        }
    }

    #[test]
    fn interning_and_lookup() {
        let mut t = TypeTable::new();
        assert_eq!(FieldId::ARR.index(), 0);
        assert_eq!(t.field_count(), 1, "`arr` is predeclared");
        let f = t.add_field("elems");
        assert_eq!(f, FieldId(1), "the first field added follows `arr`");
        assert_eq!(t.add_field(String::from("next")), FieldId(2));
        let a = t.add_type(ty("A", true));
        assert_eq!(t.get(a).name, "A");
        assert_eq!(t.len(), 1);
        assert_eq!(t.field_count(), 3);
    }

    #[test]
    fn levels_flat_hierarchy() {
        let mut t = TypeTable::new();
        let prim = t.add_type(ty("int", false));
        let leaf = t.add_type(ty("Leaf", true)); // no ref fields: L = 1
        let f = t.add_field("x");
        let mid = t.add_type(TypeInfo {
            name: "Mid".into(),
            is_ref: true,
            fields: vec![(f, leaf)],
            supertype: None,
        });
        let g = t.add_field("y");
        let top = t.add_type(TypeInfo {
            name: "Top".into(),
            is_ref: true,
            fields: vec![(g, mid), (f, prim)],
            supertype: None,
        });
        let lv = t.levels();
        assert_eq!(lv[prim.index()], 0);
        assert_eq!(lv[leaf.index()], 1);
        assert_eq!(lv[mid.index()], 2);
        assert_eq!(lv[top.index()], 3);
    }

    #[test]
    fn levels_recursive_types_collapse() {
        // LinkedList { next: LinkedList, elem: Obj } — recursion must not
        // make L infinite; the SCC is treated as one level above `Obj`.
        let mut t = TypeTable::new();
        let obj = t.add_type(ty("Obj", true));
        let fnext = t.add_field("next");
        let felem = t.add_field("elem");
        let list = t.add_type(TypeInfo {
            name: "LinkedList".into(),
            is_ref: true,
            fields: vec![(felem, obj)],
            supertype: None,
        });
        // Patch in the self-recursive field after creation.
        let list_idx = list;
        t.get_mut(list_idx).fields.push((fnext, list));
        let lv = t.levels();
        assert_eq!(lv[obj.index()], 1);
        assert_eq!(lv[list.index()], 2);
    }

    #[test]
    fn levels_mutual_recursion() {
        let mut t = TypeTable::new();
        let f = t.add_field("f");
        let a = t.add_type(ty("A", true));
        let b = t.add_type(ty("B", true));
        t.get_mut(a).fields.push((f, b));
        t.get_mut(b).fields.push((f, a));
        let lv = t.levels();
        // A and B are in one SCC: both get the same finite level.
        assert_eq!(lv[a.index()], lv[b.index()]);
        assert_eq!(lv[a.index()], 1);
    }
}
