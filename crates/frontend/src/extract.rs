//! PAG extraction: lowers a resolved mini-Java [`Program`] to the
//! [`Pag`] of the paper's Fig. 1.
//!
//! Normalisations performed here (mirroring what Soot's PAG builder does):
//!
//! * every use of a static field in a non-assignment position goes through a
//!   fresh temporary local, so that `ld(f)`/`st(f)`/`param`/`ret` edges
//!   connect only locals (Fig. 1 permits globals only on `assign_g` edges);
//! * array loads/stores collapse into the distinguished `arr` field;
//! * virtual calls are resolved by CHA against the receiver's declared type;
//!   one call-site id is shared by all dispatch targets of a statement;
//! * calls inside a call-graph recursion cycle are lowered to plain
//!   assignments (`assign_l`) instead of `param_i`/`ret_i` — the paper's
//!   "recursion cycles of the call graph are collapsed" (Section IV-A),
//!   which keeps calling contexts finite.

use crate::callgraph::{CallGraph, MethodIdx};
use crate::hierarchy::{Hierarchy, HierarchyError};
use crate::ir::{MethodDecl, Program, Stmt, TypeRef, VarRef};
use parcfl_pag::{
    EdgeKind, FieldId, MethodId, NodeId, NodeKind, Pag, PagBuilder, TypeId, TypeInfo,
};
use std::collections::HashMap;
use std::fmt;

/// An extraction failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtractError {
    /// Hierarchy resolution failed.
    Hierarchy(HierarchyError),
    /// A statement references an undeclared variable.
    UndeclaredVariable {
        /// Enclosing class.
        class: String,
        /// Enclosing method.
        method: String,
        /// The missing variable name.
        var: String,
    },
    /// A statement references an unknown static field.
    UnknownStatic {
        /// The class named in the reference.
        class: String,
        /// The field name.
        field: String,
    },
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Hierarchy(e) => write!(f, "{e}"),
            ExtractError::UndeclaredVariable { class, method, var } => {
                write!(f, "undeclared variable `{var}` in {class}.{method}")
            }
            ExtractError::UnknownStatic { class, field } => {
                write!(f, "unknown static field `{class}.{field}`")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

impl From<HierarchyError> for ExtractError {
    fn from(e: HierarchyError) -> Self {
        ExtractError::Hierarchy(e)
    }
}

/// The result of PAG extraction.
#[derive(Debug)]
pub struct Extraction {
    /// The frozen graph.
    pub pag: Pag,
    /// Non-fatal findings (unresolved calls, arity mismatches, …).
    pub warnings: Vec<String>,
}

/// Extracts the PAG of `program`.
pub fn extract(program: &Program) -> Result<Extraction, ExtractError> {
    let hierarchy = Hierarchy::new(program)?;
    let mut warnings = Vec::new();
    let callgraph = CallGraph::build(&hierarchy, &mut warnings);
    let mut ex = Extractor {
        h: &hierarchy,
        cg: &callgraph,
        builder: PagBuilder::new(),
        types: HashMap::new(),
        fields: HashMap::new(),
        class_ty: Vec::new(),
        globals: HashMap::new(),
        methods: Vec::new(),
        cur: 0,
        env: HashMap::new(),
        suffix: String::new(),
        calls: 0,
        warnings,
        tmp_counter: 0,
    };
    ex.intern_types();
    ex.declare_globals();
    ex.declare_methods();
    ex.lower_bodies()?;
    Ok(Extraction {
        pag: ex.builder.freeze(),
        warnings: ex.warnings,
    })
}

/// The lowering state. Names are looked up as `&str` borrowed from the
/// program: the only strings this allocates are the PAG's own names.
struct Extractor<'p> {
    h: &'p Hierarchy<'p>,
    cg: &'p CallGraph,
    builder: PagBuilder,
    /// (element spelling, array rank) → type id; `int` spells
    /// [`TypeRef::Int`].
    types: HashMap<(&'p str, usize), TypeId>,
    fields: HashMap<&'p str, FieldId>,
    /// Class index → type id.
    class_ty: Vec<TypeId>,
    /// (class index, static field name) → its global node and type.
    globals: HashMap<(usize, &'p str), (NodeId, TypeId)>,
    /// Dense method index → PAG method id, first node (`this`, the
    /// parameters and the locals are numbered from it) and return node.
    methods: Vec<(MethodId, NodeId, Option<NodeId>)>,
    /// The method being lowered (dense index), its variables, the
    /// `@Class.method` suffix of its node names, and the call statements
    /// lowered so far (which index [`CallGraph::call_targets`]).
    cur: usize,
    env: HashMap<&'p str, NodeId>,
    suffix: String,
    calls: usize,
    warnings: Vec<String>,
    tmp_counter: u32,
}

impl<'p> Extractor<'p> {
    /// The class name and declaration of dense method `m`.
    fn method(&self, m: usize) -> (&'p str, &'p MethodDecl) {
        let program: &'p Program = self.h.program;
        let class = &program.classes[self.cg.methods[m].0];
        (&class.name, &class.methods[self.cg.methods[m].1])
    }

    fn is_application(&self, m: usize) -> bool {
        self.h.program.classes[self.cg.methods[m].0].is_application
    }

    // ----- types -----

    fn intern_types(&mut self) {
        // Intern `int` and all classes first so fields can refer to any
        // class (including forward references).
        let program = self.h.program;
        self.add_type(("int", 0), "int".into(), false, Vec::new());
        for c in &program.classes {
            let id = self.add_type((&c.name, 0), c.name.to_string(), true, Vec::new());
            self.class_ty.push(id);
        }
        // Patch superclass links and instance fields (may intern array
        // types and field names as a side effect).
        for (ci, c) in program.classes.iter().enumerate() {
            let sup = c.superclass.as_ref().and_then(|s| self.h.class_index(s));
            let fields = c.fields.iter();
            let resolved = fields.map(|fd| (self.field_id(&fd.name), self.type_id(&fd.ty)));
            let resolved = resolved.collect();
            let info = self.builder.types_mut().get_mut(self.class_ty[ci]);
            info.supertype = sup.map(|si| self.class_ty[si]);
            info.fields = resolved;
        }
    }

    fn add_type(
        &mut self,
        key: (&'p str, usize),
        name: String,
        is_ref: bool,
        fields: Vec<(FieldId, TypeId)>,
    ) -> TypeId {
        let info = TypeInfo {
            name,
            is_ref,
            fields,
            supertype: None,
        };
        let id = self.builder.types_mut().add_type(info);
        self.types.insert(key, id);
        id
    }

    /// The id of `ty`, interning it — element type first, then each rank
    /// — if it is new.
    fn type_id(&mut self, ty: &'p TypeRef) -> TypeId {
        let (base, rank) = ty.base_and_rank();
        if let Some(&id) = self.types.get(&(base, rank)) {
            return id;
        }
        let mut id = match self.types.get(&(base, 0)) {
            Some(&id) => id,
            None => {
                // Undefined class used as a type: an opaque ref type.
                let warning = format!("reference to undefined class `{base}`");
                self.warnings.push(warning);
                self.add_type((base, 0), base.to_string(), true, Vec::new())
            }
        };
        for r in 1..=rank {
            id = match self.types.get(&(base, r)) {
                Some(&id) => id,
                None => {
                    let name = format!("{base}{}", "[]".repeat(r));
                    self.add_type((base, r), name, true, vec![(FieldId::ARR, id)])
                }
            };
        }
        id
    }

    fn field_id(&mut self, name: &'p str) -> FieldId {
        let types = self.builder.types_mut();
        *self
            .fields
            .entry(name)
            .or_insert_with(|| types.add_field(name))
    }

    // ----- declarations -----

    fn declare_globals(&mut self) {
        let program: &'p Program = self.h.program;
        for (ci, c) in program.classes.iter().enumerate() {
            for sf in &c.statics {
                let ty = self.type_id(&sf.ty);
                let name = format_args!("{}.{}", c.name, sf.name);
                let node = self
                    .builder
                    .add_named(NodeKind::Global, ty, name, c.is_application);
                self.globals.insert((ci, &sf.name), (node, ty));
            }
        }
    }

    fn declare_methods(&mut self) {
        for m in 0..self.cg.len() {
            let (class, method) = self.method(m);
            let qualified = format!("{class}.{}", method.name);
            let suffix = format!("@{qualified}");
            let mid = self.builder.add_method(qualified);
            let first = NodeId::from_usize(self.builder.node_count());
            let is_application = self.is_application(m);
            let local = |b: &mut PagBuilder, name: &str, ty| {
                let kind = NodeKind::Local { method: mid };
                b.add_named(kind, ty, format_args!("{name}{suffix}"), is_application)
            };
            if !method.is_static {
                let this_ty = self.class_ty[self.cg.methods[m].0];
                local(&mut self.builder, "this", this_ty);
            }
            for v in method.params.iter().chain(&method.locals) {
                let ty = self.type_id(&v.ty);
                local(&mut self.builder, &v.name, ty);
            }
            let ret = method.ret.as_ref().map(|rt| {
                let ty = self.type_id(rt);
                local(&mut self.builder, "$ret", ty)
            });
            self.methods.push((mid, first, ret));
        }
    }

    // ----- body lowering -----

    fn lower_bodies(&mut self) -> Result<(), ExtractError> {
        for m in 0..self.cg.len() {
            let (class, method) = self.method(m);
            self.cur = m;
            self.suffix = format!("@{class}.{}", method.name);
            // `this`, parameters and locals in node order; a later
            // declaration of a name shadows an earlier one.
            self.env.clear();
            let declared = method.params.iter().chain(&method.locals);
            let this = (!method.is_static).then_some("this");
            let names = this.into_iter().chain(declared.map(|v| &*v.name));
            let first = self.methods[m].1.index();
            for (slot, name) in names.enumerate() {
                self.env.insert(name, NodeId::from_usize(first + slot));
            }
            for (si, stmt) in method.body.iter().enumerate() {
                self.lower_stmt(si, stmt)?;
            }
        }
        Ok(())
    }

    fn local(&self, name: &str) -> Result<NodeId, ExtractError> {
        self.env.get(name).copied().ok_or_else(|| {
            let (class, method) = self.method(self.cur);
            ExtractError::UndeclaredVariable {
                class: class.to_string(),
                method: method.name.to_string(),
                var: name.to_string(),
            }
        })
    }

    /// The global node of `class.field` and its declared type.
    fn global(&self, class: &str, field: &str) -> Result<(NodeId, TypeId), ExtractError> {
        // Statics are inherited: walk up the superclass chain.
        let mut cur = self.h.class_index(class);
        while let Some(c) = cur {
            if let Some(&global) = self.globals.get(&(c, field)) {
                return Ok(global);
            }
            cur = self.h.parent(c);
        }
        Err(ExtractError::UnknownStatic {
            class: class.to_string(),
            field: field.to_string(),
        })
    }

    fn fresh_tmp(&mut self, ty: TypeId) -> NodeId {
        self.tmp_counter += 1;
        let kind = NodeKind::Local {
            method: self.methods[self.cur].0,
        };
        let name = format_args!("$tmp{}", self.tmp_counter);
        let is_application = self.is_application(self.cur);
        self.builder.add_named(kind, ty, name, is_application)
    }

    /// Materialises a readable local for `v`: statics go through a fresh
    /// temp via an `assign_g` edge.
    fn read(&mut self, v: &VarRef) -> Result<NodeId, ExtractError> {
        match v {
            VarRef::Local(name) => self.local(name),
            VarRef::Static(class, field) => {
                let (g, gty) = self.global(class, field)?;
                let tmp = self.fresh_tmp(gty);
                self.builder.add_edge(g, tmp, EdgeKind::AssignGlobal);
                Ok(tmp)
            }
        }
    }

    /// Writes `src` into `dst` along an edge of `kind`. A static `dst` is
    /// reached through a fresh temp of its type and an `assign_g` edge, so
    /// that `kind` connects locals only.
    fn write(&mut self, dst: &VarRef, src: NodeId, kind: EdgeKind) -> Result<(), ExtractError> {
        match dst {
            VarRef::Local(name) => {
                let d = self.local(name)?;
                self.builder.add_edge(src, d, kind);
            }
            VarRef::Static(class, field) => {
                let (g, gty) = self.global(class, field)?;
                let tmp = self.fresh_tmp(gty);
                self.builder.add_edge(src, tmp, kind);
                self.builder.add_edge(tmp, g, EdgeKind::AssignGlobal);
            }
        }
        Ok(())
    }

    fn lower_stmt(&mut self, si: usize, stmt: &'p Stmt) -> Result<(), ExtractError> {
        match stmt {
            Stmt::New { dst, ty } => {
                let tid = self.type_id(ty);
                let kind = NodeKind::Object {
                    method: self.methods[self.cur].0,
                };
                let name = format_args!("o{si}{}", self.suffix);
                let is_application = self.is_application(self.cur);
                let obj = self.builder.add_named(kind, tid, name, is_application);
                match dst {
                    VarRef::Local(_) => self.write(dst, obj, EdgeKind::New)?,
                    VarRef::Static(class, field) => {
                        // new edges must target locals: go through a temp
                        // of the allocated type.
                        let tmp = self.fresh_tmp(tid);
                        self.builder.add_edge(obj, tmp, EdgeKind::New);
                        let (g, _) = self.global(class, field)?;
                        self.builder.add_edge(tmp, g, EdgeKind::AssignGlobal);
                    }
                }
            }
            // An assignment with a global side is one assign_g edge, as in
            // Fig. 1 (a global-to-global copy goes through a temp).
            Stmt::Assign { dst, src } => match (dst, src) {
                (VarRef::Static(class, field), _) => {
                    let s = self.read(src)?;
                    let (g, _) = self.global(class, field)?;
                    self.builder.add_edge(s, g, EdgeKind::AssignGlobal);
                }
                (_, VarRef::Static(class, field)) => {
                    let (g, _) = self.global(class, field)?;
                    self.write(dst, g, EdgeKind::AssignGlobal)?;
                }
                (_, VarRef::Local(name)) => {
                    let s = self.local(name)?;
                    self.write(dst, s, EdgeKind::AssignLocal)?;
                }
            },
            Stmt::Load { dst, base, .. } | Stmt::ArrayLoad { dst, base } => {
                let f = self.field_of(stmt);
                let b = self.read(base)?;
                self.write(dst, b, EdgeKind::Load(f))?;
            }
            Stmt::Store { base, src, .. } | Stmt::ArrayStore { base, src } => {
                let f = self.field_of(stmt);
                let b = self.read(base)?;
                let s = self.read(src)?;
                // Store dst.f = src: edge src -> base labelled st(f).
                self.builder.add_edge(s, b, EdgeKind::Store(f));
            }
            Stmt::VirtualCall {
                dst, recv, args, ..
            } => {
                let recv_node = self.read(recv)?;
                self.lower_call(Some(recv_node), args, dst)?;
            }
            Stmt::StaticCall { dst, args, .. } => self.lower_call(None, args, dst)?,
            Stmt::Return { val: Some(v) } => match self.methods[self.cur].2 {
                Some(ret) => {
                    let s = self.read(v)?;
                    self.builder.add_edge(s, ret, EdgeKind::AssignLocal);
                }
                None => {
                    let (class, method) = self.method(self.cur);
                    let warning =
                        format!("return with value in void method {class}.{}", method.name);
                    self.warnings.push(warning);
                }
            },
            Stmt::Return { val: None } => {}
        }
        Ok(())
    }

    /// The field a load or store accesses; array elements are `arr`.
    fn field_of(&mut self, stmt: &'p Stmt) -> FieldId {
        match stmt {
            Stmt::Load { field, .. } | Stmt::Store { field, .. } => self.field_id(field),
            _ => FieldId::ARR,
        }
    }

    /// Lowers the next call statement against the targets the call graph
    /// resolved for it. Every instance target's first formal is `this`:
    /// `recv` flows into it, and a static call (no `recv`) leaves it
    /// unbound with a warning.
    fn lower_call(
        &mut self,
        recv: Option<NodeId>,
        args: &[VarRef],
        dst: &Option<VarRef>,
    ) -> Result<(), ExtractError> {
        let cg = self.cg;
        let targets = cg.call_targets(self.calls);
        self.calls += 1;
        if targets.is_empty() {
            // Already warned during call-graph construction.
            return Ok(());
        }
        let site = self.builder.fresh_call_site();
        // Read actuals once (temps for statics are shared across targets).
        let actuals = args.iter().map(|a| self.read(a));
        let actuals = actuals.collect::<Result<Vec<_>, _>>()?;
        let (caller_class, caller) = self.method(self.cur);
        for &t in targets {
            let (param, ret) = if cg.is_recursive_call(MethodIdx(self.cur as u32), t) {
                (EdgeKind::AssignLocal, EdgeKind::AssignLocal)
            } else {
                (EdgeKind::Param(site), EdgeKind::Ret(site))
            };
            let (class, target) = self.method(t.0 as usize);
            let (_, first, ret_node) = self.methods[t.0 as usize];
            let mut formal = first.index();
            if !target.is_static {
                match recv {
                    Some(r) => self.builder.add_edge(r, NodeId::from_usize(formal), param),
                    None => self.warnings.push(format!(
                        "static call to instance method {class}.{} from {caller_class}.{}: \
                         `this` left unbound",
                        target.name, caller.name
                    )),
                }
                formal += 1;
            }
            if target.params.len() != actuals.len() {
                self.warnings.push(format!(
                    "arity mismatch calling {class}.{} from {caller_class}.{}: {} actuals vs {} formals",
                    target.name,
                    caller.name,
                    actuals.len(),
                    target.params.len()
                ));
            }
            for (i, &a) in actuals.iter().take(target.params.len()).enumerate() {
                self.builder
                    .add_edge(a, NodeId::from_usize(formal + i), param);
            }
            if let Some(d) = dst {
                match ret_node {
                    // A static destination goes through a temp so ret
                    // edges connect locals only.
                    Some(ret_node) => self.write(d, ret_node, ret)?,
                    None => self.warnings.push(format!(
                        "call result assigned from void method {class}.{}",
                        target.name
                    )),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use parcfl_pag::stats::PagStats;

    fn ex(src: &str) -> Extraction {
        extract(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn allocation_and_assign() {
        let e = ex("class Obj { }
                    class A { method m() { var x: Obj; var y: Obj; x = new Obj; y = x; } }");
        let s = PagStats::of(&e.pag);
        assert_eq!(s.new_edges, 1);
        assert_eq!(s.assign_local, 1);
        assert_eq!(s.objects, 1);
        let x = e.pag.node_by_name("x@A.m").unwrap();
        let y = e.pag.node_by_name("y@A.m").unwrap();
        assert!(e.pag.incoming(x).iter().any(|ed| ed.kind == EdgeKind::New));
        assert!(e.pag.incoming(y).iter().any(|ed| ed.src == x));
    }

    #[test]
    fn loads_stores_and_arrays() {
        let e = ex("class Obj { }
                    class A { field f: Obj;
                      method m(o: Obj) {
                        var t: Obj; var a: Obj[];
                        t = this.f;
                        this.f = o;
                        a = new Obj[];
                        t = a[];
                        a[] = o;
                      } }");
        let s = PagStats::of(&e.pag);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 2);
        // Array accesses use the distinguished ARR field.
        assert_eq!(e.pag.loads_of(FieldId::ARR).len(), 1);
        assert_eq!(e.pag.stores_of(FieldId::ARR).len(), 1);
    }

    #[test]
    fn store_edge_orientation() {
        // this.f = o  ==>  edge o -> this labelled st(f).
        let e = ex("class Obj { }
                    class A { field f: Obj; method m(o: Obj) { this.f = o; } }");
        let this = e.pag.node_by_name("this@A.m").unwrap();
        let o = e.pag.node_by_name("o@A.m").unwrap();
        let stores: Vec<_> = e
            .pag
            .edges()
            .iter()
            .filter(|ed| matches!(ed.kind, EdgeKind::Store(_)))
            .collect();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].src, o);
        assert_eq!(stores[0].dst, this);
    }

    #[test]
    fn static_access_normalised_through_temp() {
        let e = ex("class Obj { }
                    class A { static field g: Obj;
                      method m() { var t: Obj; t = A.g; A.g = t; } }");
        let s = PagStats::of(&e.pag);
        // Exactly-one-global assignments are single assign_g edges (no temp).
        assert_eq!(s.assign_global, 2);
        assert_eq!(s.globals, 1);
        let g = e.pag.node_by_name("A.g").unwrap();
        assert!(e.pag.kind(g).is_global());
    }

    #[test]
    fn call_edges_param_ret() {
        let e = ex("class Obj { }
                    class A {
                      method id(o: Obj): Obj { return o; }
                      method m(x: Obj) { var r: Obj; r = call this.id(x); }
                    }");
        let s = PagStats::of(&e.pag);
        // param edges: receiver->this and x->o; ret edge: $ret->r.
        assert_eq!(s.params, 2);
        assert_eq!(s.rets, 1);
        // return o; lowers to o -> $ret assign_l.
        let ret = e.pag.node_by_name("$ret@A.id").unwrap();
        let o = e.pag.node_by_name("o@A.id").unwrap();
        assert!(e.pag.incoming(ret).iter().any(|ed| ed.src == o));
    }

    #[test]
    fn recursive_calls_become_assignments() {
        let e = ex("class Obj { }
                    class A {
                      method f(o: Obj): Obj { var r: Obj; r = call this.g(o); return r; }
                      method g(o: Obj): Obj { var r: Obj; r = call this.f(o); return r; }
                    }");
        let s = PagStats::of(&e.pag);
        assert_eq!(s.params, 0, "recursive cycle params must be collapsed");
        assert_eq!(s.rets, 0);
        assert!(s.assign_local > 0);
    }

    #[test]
    fn virtual_dispatch_produces_edges_per_target() {
        let e = ex("class Obj { }
                    class B { method f(o: Obj): Obj { return o; } }
                    class C extends B { method f(o: Obj): Obj { return o; } }
                    class A { method m(b: B, x: Obj) { var r: Obj; r = call b.f(x); } }");
        let s = PagStats::of(&e.pag);
        // Two targets: (recv + arg) x 2 params, 2 ret edges, one shared site.
        assert_eq!(s.params, 4);
        assert_eq!(s.rets, 2);
        assert_eq!(e.pag.call_site_count(), 1);
    }

    #[test]
    fn undeclared_variable_is_error() {
        let err = extract(&parse("class A { method m() { x = y; } }").unwrap()).unwrap_err();
        assert!(matches!(err, ExtractError::UndeclaredVariable { .. }));
        assert!(err.to_string().contains('`'));
    }

    #[test]
    fn unknown_static_is_error() {
        let err = extract(&parse("class A { method m() { var t: A; t = A.ghost; } }").unwrap())
            .unwrap_err();
        assert!(matches!(err, ExtractError::UnknownStatic { .. }));
    }

    #[test]
    fn inherited_static_resolves() {
        let e = ex("class P { static field g: P; }
                    class A extends P { method m() { var t: P; t = A.g; } }");
        assert_eq!(PagStats::of(&e.pag).globals, 1);
    }

    #[test]
    fn application_flag_propagates() {
        let e = ex("lib class L { method m() { var x: L; x = new L; } }
                    app class A { method m() { var y: L; y = new L; } }");
        let x = e.pag.node_by_name("x@L.m").unwrap();
        let y = e.pag.node_by_name("y@A.m").unwrap();
        assert!(!e.pag.node(x).is_application);
        assert!(e.pag.node(y).is_application);
    }

    #[test]
    fn void_return_value_warns() {
        let p = parse("class A { method m() { var t: A; t = new A; return t; } }").unwrap();
        let e = extract(&p).unwrap();
        assert!(e.warnings.iter().any(|w| w.contains("void")));
    }

    #[test]
    fn static_call_to_instance_method_skips_this() {
        let e = ex("class A { method m(a: A) { } }
                    class B { method k() { var b: B; call A.m(b); } }");
        let edges = e.pag.edges().iter();
        let params: Vec<_> = edges
            .filter(|ed| matches!(ed.kind, EdgeKind::Param(_)))
            .collect();
        assert_eq!(params.len(), 1);
        assert_eq!(e.pag.node(params[0].dst).name, "a@A.m");
        assert_eq!(e.warnings.len(), 1, "{:?}", e.warnings);
        assert!(e.warnings[0].contains("static call to instance method A.m from B.k"));
    }

    #[test]
    fn arity_mismatch_warns() {
        let e = ex("class Obj { }
                    class A {
                      method f(a: Obj, b: Obj) { }
                      method m(x: Obj) { call this.f(x); }
                    }");
        assert!(e.warnings.iter().any(|w| w.contains("arity")));
    }
}
