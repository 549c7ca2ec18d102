//! Metamorphic source relations: edits of a program's text that must not
//! change what the frontend builds from it, checked through the whole
//! frontend (print, parse, extract).
//!
//! Each relation must give the same PAG up to an isomorphism that keeps
//! names (mapped through a renaming where the relation renames), and the
//! same `run_seq` answers by name:
//!
//! * reversing the class order, which renumbers types, fields, methods,
//!   nodes and call sites (and, on [`STATICS`], moves a static read from
//!   before its class's declaration to after it: the given order takes the
//!   parser's exact second pass, the reversed one does not);
//! * reversing each class's method order;
//! * renaming every parameter and local;
//! * adding an uncalled method and an uncalled class: the old graph is
//!   kept as it was, and what is added touches only what is added.
//!
//! An isomorphism is checked on canonical keys: a node by its name (a
//! temp, whose `$tmp` number counts across methods, by its method and its
//! rank there), a call site by its caller and its rank there, and a field
//! by the edges that carry it. The programs are the `.mj` corpus in
//! `examples/programs/`, [`STATICS`] and two small generated programs.
//!
//! Also here: a program whose every [`Name`] is built apart, sharing no
//! spelling, extracts to the very graph its parsed text does.

use parcfl::core::SolverConfig;
use parcfl::frontend::ir::{
    ClassDecl, FieldDecl, LocalDecl, MethodDecl, Name, Program, Stmt, TypeRef, VarRef,
};
use parcfl::frontend::{extract, parse, pretty::pretty};
use parcfl::pag::{EdgeKind, MethodId, NodeInfo, NodeKind, Pag};
use parcfl::runtime::run_seq;
use parcfl::synth::{generate, Profile};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Statics read and written through temps, an inherited static, a static
/// call, and a static read (`B.g`) before `class B` is declared.
const STATICS: &str = "
lib class Obj { }
class A {
  static field h: Obj;
  method m(): Obj { var t: Obj; var u: Obj; t = B.g; A.h = t; B.g = A.h; u = call B.s(t); return u; }
}
class P { static field g: Obj; }
class B extends P {
  static method s(x: Obj): Obj { var y: Obj; y = new Obj; B.g = y; return x; }
  static method main() { var a: A; var r: Obj; a = new A; r = call a.m(); B.g = new Obj; }
}
";

fn programs() -> Vec<(String, String)> {
    let dir = format!("{}/examples/programs", env!("CARGO_MANIFEST_DIR"));
    let mut texts = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "mj") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            texts.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    texts.sort();
    assert!(texts.len() >= 3, "the corpus has at least three programs");
    texts.push(("STATICS".into(), STATICS.into()));
    for seed in [1, 2] {
        texts.push((
            format!("tiny({seed})"),
            pretty(&generate(&Profile::tiny(seed))),
        ));
    }
    texts
}

/// `p` with every name rebuilt by `f(name, is_variable)`, where
/// `is_variable` marks a parameter, a local or a variable a statement names.
fn map_names(p: &Program, f: &mut dyn FnMut(&Name, bool) -> Name) -> Program {
    fn ty(t: &TypeRef, f: &mut dyn FnMut(&Name, bool) -> Name) -> TypeRef {
        match t {
            TypeRef::Int => TypeRef::Int,
            TypeRef::Class(c) => TypeRef::Class(f(c, false)),
            TypeRef::Array(e) => TypeRef::Array(Box::new(ty(e, f))),
        }
    }
    fn var(v: &VarRef, f: &mut dyn FnMut(&Name, bool) -> Name) -> VarRef {
        match v {
            VarRef::Local(n) => VarRef::Local(f(n, true)),
            VarRef::Static(c, n) => VarRef::Static(f(c, false), f(n, false)),
        }
    }
    fn args(a: &[VarRef], f: &mut dyn FnMut(&Name, bool) -> Name) -> Box<[VarRef]> {
        a.iter().map(|v| var(v, f)).collect()
    }
    fn stmt(s: &Stmt, f: &mut dyn FnMut(&Name, bool) -> Name) -> Stmt {
        match s {
            Stmt::New { dst, ty: t } => Stmt::New {
                dst: var(dst, f),
                ty: ty(t, f),
            },
            Stmt::Assign { dst, src } => Stmt::Assign {
                dst: var(dst, f),
                src: var(src, f),
            },
            Stmt::Load { dst, base, field } => Stmt::Load {
                dst: var(dst, f),
                base: var(base, f),
                field: f(field, false),
            },
            Stmt::Store { base, field, src } => Stmt::Store {
                base: var(base, f),
                field: f(field, false),
                src: var(src, f),
            },
            Stmt::ArrayLoad { dst, base } => Stmt::ArrayLoad {
                dst: var(dst, f),
                base: var(base, f),
            },
            Stmt::ArrayStore { base, src } => Stmt::ArrayStore {
                base: var(base, f),
                src: var(src, f),
            },
            Stmt::VirtualCall {
                dst,
                recv,
                method,
                args: a,
            } => Stmt::VirtualCall {
                dst: dst.as_ref().map(|d| var(d, f)),
                recv: var(recv, f),
                method: f(method, false),
                args: args(a, f),
            },
            Stmt::StaticCall {
                dst,
                class,
                method,
                args: a,
            } => Stmt::StaticCall {
                dst: dst.as_ref().map(|d| var(d, f)),
                class: f(class, false),
                method: f(method, false),
                args: args(a, f),
            },
            Stmt::Return { val } => Stmt::Return {
                val: val.as_ref().map(|v| var(v, f)),
            },
        }
    }
    let decls = |ds: &[LocalDecl], f: &mut dyn FnMut(&Name, bool) -> Name| -> Vec<LocalDecl> {
        let decl = |d: &LocalDecl| LocalDecl {
            name: f(&d.name, true),
            ty: ty(&d.ty, f),
        };
        ds.iter().map(decl).collect()
    };
    let fields = |fs: &[FieldDecl], f: &mut dyn FnMut(&Name, bool) -> Name| -> Vec<FieldDecl> {
        let field = |d: &FieldDecl| FieldDecl {
            name: f(&d.name, false),
            ty: ty(&d.ty, f),
        };
        fs.iter().map(field).collect()
    };
    let classes = p.classes.iter().map(|c| ClassDecl {
        name: f(&c.name, false),
        superclass: c.superclass.as_ref().map(|s| f(s, false)),
        is_application: c.is_application,
        fields: fields(&c.fields, f),
        statics: fields(&c.statics, f),
        methods: c
            .methods
            .iter()
            .map(|m| MethodDecl {
                name: f(&m.name, false),
                is_static: m.is_static,
                params: decls(&m.params, f),
                ret: m.ret.as_ref().map(|t| ty(t, f)),
                locals: decls(&m.locals, f),
                body: m.body.iter().map(|s| stmt(s, f)).collect(),
            })
            .collect(),
    });
    Program {
        classes: classes.collect(),
    }
}

/// Each query's answer by key: `(object, call sites)` pairs, or `None` for
/// out of budget.
type Answers = BTreeMap<String, Option<Vec<(String, Vec<String>)>>>;

/// A graph on canonical keys.
#[derive(Debug, PartialEq)]
struct Canon {
    /// Key → kind and method, type name, application flag.
    nodes: BTreeMap<String, (String, String, bool)>,
    /// (src key, dst key, kind and payload), sorted.
    edges: Vec<(String, String, String)>,
    /// Each query's answer.
    answers: Answers,
}

fn method_of(pag: &Pag, info: &NodeInfo) -> Option<String> {
    match info.kind {
        NodeKind::Local { method } | NodeKind::Object { method } => {
            Some(pag.method_name(method).to_string())
        }
        NodeKind::Global => None,
    }
}

/// `pag` on canonical keys, each node's name first passed through
/// `rename`.
fn canon(pag: &Pag, rename: &dyn Fn(&NodeInfo) -> String) -> Canon {
    // Nodes: temps by method, repeated names by rank.
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut key = Vec::new();
    let mut nodes = BTreeMap::new();
    for n in pag.node_ids() {
        let info = pag.node(n);
        let base = match info.name.strip_prefix("$tmp") {
            Some(_) => format!("$tmp@{}", method_of(pag, info).unwrap()),
            None => rename(info),
        };
        let rank = seen.entry(base.clone()).or_insert(0);
        let k = format!("{base}#{rank}");
        *rank += 1;
        let kind = match info.kind {
            NodeKind::Local { .. } => "local",
            NodeKind::Global => "global",
            NodeKind::Object { .. } => "object",
        };
        let kind = format!("{kind}@{}", method_of(pag, info).unwrap_or_default());
        let ty = pag.types().get(info.ty).name.clone();
        nodes.insert(k.clone(), (kind, ty, info.is_application));
        key.push(k);
    }
    // Call sites: by caller, in id order.
    let mut callers: BTreeMap<u32, String> = BTreeMap::new();
    for e in pag.edges() {
        let (site, caller) = match e.kind {
            EdgeKind::Param(s) => (s, e.src),
            EdgeKind::Ret(s) => (s, e.dst),
            _ => continue,
        };
        let caller = method_of(pag, pag.node(caller)).expect("a call site's caller is a method");
        callers.insert(site.raw(), caller);
    }
    let mut ranks: HashMap<&str, usize> = HashMap::new();
    let mut site: HashMap<u32, String> = HashMap::new();
    for (&s, caller) in &callers {
        let rank = ranks.entry(caller).or_insert(0);
        site.insert(s, format!("{caller}#{rank}"));
        *rank += 1;
    }
    // Fields: by the edges that carry them.
    let mut carried: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for e in pag.edges() {
        let (f, op) = match e.kind {
            EdgeKind::Load(f) => (f, "ld"),
            EdgeKind::Store(f) => (f, "st"),
            _ => continue,
        };
        let (src, dst) = (&key[e.src.index()], &key[e.dst.index()]);
        carried
            .entry(f.raw())
            .or_default()
            .push(format!("{op} {src}->{dst}"));
    }
    let field: HashMap<u32, String> = carried
        .into_iter()
        .map(|(f, mut edges)| {
            edges.sort();
            (f, edges.join(","))
        })
        .collect();
    let mut edges: Vec<(String, String, String)> = pag
        .edges()
        .iter()
        .map(|e| {
            let kind = match e.kind {
                EdgeKind::New => "new".to_string(),
                EdgeKind::AssignLocal => "assign_l".to_string(),
                EdgeKind::AssignGlobal => "assign_g".to_string(),
                EdgeKind::Load(f) => format!("ld({})", field[&f.raw()]),
                EdgeKind::Store(f) => format!("st({})", field[&f.raw()]),
                EdgeKind::Param(s) => format!("param({})", site[&s.raw()]),
                EdgeKind::Ret(s) => format!("ret({})", site[&s.raw()]),
            };
            (key[e.src.index()].clone(), key[e.dst.index()].clone(), kind)
        })
        .collect();
    edges.sort();
    // Answers of every application local.
    let queries = pag.application_locals();
    let run = run_seq(pag, &queries, &SolverConfig::default());
    let answers = run
        .answers
        .iter()
        .map(|(q, a)| {
            let set = a.complete().map(|set| {
                let mut pairs: Vec<(String, Vec<String>)> = set
                    .iter()
                    .map(|(o, ctx)| {
                        let sites = ctx.as_slice().iter().map(|s| site[s].clone());
                        (key[o.index()].clone(), sites.collect())
                    })
                    .collect();
                pairs.sort();
                pairs
            });
            (key[q.index()].clone(), set)
        })
        .collect();
    Canon {
        nodes,
        edges,
        answers,
    }
}

fn same_name(info: &NodeInfo) -> String {
    info.name.to_string()
}

/// The graph and answers of `program`, through its text.
fn through_text(program: &Program, rename: &dyn Fn(&NodeInfo) -> String) -> Canon {
    let text = pretty(program);
    let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let e = extract(&reparsed).unwrap_or_else(|e| panic!("{e}\n{text}"));
    canon(&e.pag, rename)
}

#[test]
fn reordering_classes_keeps_the_graph_and_answers() {
    for (name, text) in programs() {
        let mut program = parse(&text).unwrap();
        let before = through_text(&program, &same_name);
        program.classes.reverse();
        assert_eq!(before, through_text(&program, &same_name), "{name}");
    }
}

#[test]
fn reordering_methods_keeps_the_graph_and_answers() {
    for (name, text) in programs() {
        let mut program = parse(&text).unwrap();
        let before = through_text(&program, &same_name);
        program.classes.iter_mut().for_each(|c| c.methods.reverse());
        assert_eq!(before, through_text(&program, &same_name), "{name}");
    }
}

#[test]
fn renaming_locals_renames_their_nodes_only() {
    const SUFFIX: &str = "_renamed";
    // A declared variable `x@C.m` becomes `x_renamed@C.m`; `this`, `$ret`,
    // temps, objects and globals keep their names.
    let renamed = |info: &NodeInfo| {
        let name: &str = &info.name;
        let (var, method) = name.split_once('@').unwrap_or((name, ""));
        match info.kind {
            NodeKind::Local { .. } if !matches!(var, "this" | "$ret") => {
                format!("{var}{SUFFIX}@{method}")
            }
            _ => info.name.to_string(),
        }
    };
    for (name, text) in programs() {
        let program = parse(&text).unwrap();
        let before = through_text(&program, &renamed);
        let mut rename = |n: &Name, is_variable: bool| match is_variable && *n != "this" {
            true => Name::from(format!("{n}{SUFFIX}")),
            false => n.clone(),
        };
        let after = through_text(&map_names(&program, &mut rename), &same_name);
        assert_eq!(before, after, "{name}");
    }
}

#[test]
fn an_uncalled_method_and_class_add_only_themselves() {
    let uncalled = |class: &str| {
        let text = format!(
            "class Zz {{ method zz() {{ var a: {class}; var b: {class}; a = new {class}; b = a; }} }}"
        );
        let mut added = parse(&text).unwrap().classes.remove(0);
        added.name = Name::from(format!("Zz{class}"));
        added
    };
    for (name, text) in programs() {
        let mut program = parse(&text).unwrap();
        let before = through_text(&program, &same_name);
        let first = program.classes[0].name.to_string();
        let method = uncalled(&first).methods.remove(0);
        program.classes[0].methods.push(method);
        let class = uncalled(&first);
        program.classes.push(class);
        let after = through_text(&program, &same_name);

        for (key, node) in &before.nodes {
            assert_eq!(after.nodes.get(key), Some(node), "{name}: {key}");
        }
        let old: BTreeSet<&(String, String, String)> = before.edges.iter().collect();
        let new: BTreeSet<&(String, String, String)> = after.edges.iter().collect();
        assert!(old.is_subset(&new), "{name}: an old edge is gone");
        for (src, dst, kind) in new.difference(&old) {
            let added = |k: &String| !before.nodes.contains_key(k);
            assert!(added(src) && added(dst), "{name}: {src} -{kind}-> {dst}");
        }
        // `this`, `a`, `b` and an object, in each of the two methods.
        assert_eq!(after.nodes.len(), before.nodes.len() + 8, "{name}");
        for (query, answer) in &before.answers {
            assert_eq!(after.answers.get(query), Some(answer), "{name}: {query}");
        }
    }
}

#[test]
fn names_built_apart_extract_to_the_parsed_graph() {
    for (name, text) in programs() {
        let parsed = parse(&text).unwrap();
        let apart = map_names(&parsed, &mut |n, _| Name::from(n.to_string()));
        assert_eq!(apart, parsed, "{name}: equal by text");
        let (a, b) = (&apart.classes[0].name, &parsed.classes[0].name);
        assert!(!Name::ptr_eq(a, b));
        let (x, y) = (extract(&parsed).unwrap().pag, extract(&apart).unwrap().pag);
        assert_eq!(x.node_count(), y.node_count(), "{name}");
        for n in x.node_ids() {
            let (p, q) = (x.node(n), y.node(n));
            assert_eq!((p.kind, p.ty, &p.name), (q.kind, q.ty, &q.name), "{name}");
            assert_eq!(p.is_application, q.is_application, "{name}");
        }
        assert_eq!(x.edges(), y.edges(), "{name}");
        let methods = |g: &Pag| {
            let ids = (0..g.method_count()).map(MethodId::from_usize);
            ids.map(|m| g.method_name(m).to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(methods(&x), methods(&y), "{name}");
    }
}
