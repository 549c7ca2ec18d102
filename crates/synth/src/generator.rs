//! The workload generator: a [`Profile`] plus seed deterministically
//! produces a mini-Java [`Program`] that then flows through the *real*
//! frontend pipeline (hierarchy → CHA call graph → PAG extraction → cycle
//! collapsing), exactly as a Soot-extracted benchmark would.
//!
//! Programs are assembled from statement *idioms* rather than uniformly
//! random statements, so every generated statement is well typed and the
//! graphs contain the structures the paper's techniques exercise:
//!
//! * **alloc chains** — assignment paths that give scheduling its
//!   connection distances;
//! * **container traffic** — Vector-like library collections written and
//!   read through aliases (the long, repeatedly-traversed paths data
//!   sharing shortcuts);
//! * **field traffic** — box objects with nested reference fields (type
//!   levels for dependence depths);
//! * **calls** — intra-application virtual calls with CHA fan-out and
//!   wrapper (identity) methods that stress context matching;
//! * **globals** — static fields flowing context-insensitively.

use crate::names::{self, Names};
use crate::profile::Profile;
use parcfl_frontend::ir::{
    ClassDecl, FieldDecl, LocalDecl, MethodDecl, Name, Program, Stmt, TypeRef, VarRef,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates the program for `profile`.
pub fn generate(profile: &Profile) -> Program {
    Generator::new(profile).build()
}

struct Generator<'p> {
    p: &'p Profile,
    rng: StdRng,
    /// Per-application-class choice of which collection class its static
    /// `cache` holds.
    cache_coll: Vec<usize>,
    /// This program's spellings, each built once.
    names: Names,
}

/// A method body under construction.
struct Body {
    locals: Vec<LocalDecl>,
    stmts: Vec<Stmt>,
    next_local: usize,
}

impl Body {
    fn new() -> Body {
        Body {
            locals: Vec::new(),
            stmts: Vec::new(),
            next_local: 0,
        }
    }

    fn fresh(&mut self, names: &mut Names, ty: TypeRef) -> Name {
        let name = names::local(names, self.next_local);
        self.next_local += 1;
        self.locals.push(LocalDecl {
            name: name.clone(),
            ty,
        });
        name
    }

    fn push(&mut self, s: Stmt) {
        self.stmts.push(s);
    }
}

/// A reference to the local `name`.
fn lv(name: &Name) -> VarRef {
    VarRef::Local(name.clone())
}

impl<'p> Generator<'p> {
    fn new(p: &'p Profile) -> Self {
        let mut rng = StdRng::seed_from_u64(p.seed);
        let cache_coll = (0..p.app_classes)
            .map(|_| rng.random_range(0..p.collections.max(1)))
            .collect();
        Generator {
            p,
            rng,
            cache_coll,
            names: Names::default(),
        }
    }

    fn name(&mut self, s: &'static str) -> Name {
        names::fixed(&mut self.names, s)
    }

    /// A reference to the local of a fixed spelling (`this`, a parameter).
    fn lv(&mut self, s: &'static str) -> VarRef {
        VarRef::Local(self.name(s))
    }

    fn value_ty(&mut self) -> TypeRef {
        let i = self.rng.random_range(0..self.p.value_classes);
        TypeRef::Class(names::value_class(&mut self.names, i))
    }

    fn build(mut self) -> Program {
        let mut classes = Vec::new();

        // Library: the value-class hierarchy. Val0 is the root "Object";
        // the rest extend it so collections of Val0 can hold any value.
        for i in 0..self.p.value_classes {
            classes.push(ClassDecl {
                name: names::value_class(&mut self.names, i),
                superclass: (i > 0).then(|| names::value_class(&mut self.names, 0)),
                is_application: false,
                fields: Vec::new(),
                statics: Vec::new(),
                methods: Vec::new(),
            });
        }

        // Library: nested boxes. Box0 holds a value; Box{i} holds Box{i-1}
        // — a containment ladder giving distinct type levels for the
        // dependence-depth heuristic.
        for i in 0..self.p.box_classes {
            let inner = if i == 0 {
                TypeRef::Class(names::value_class(&mut self.names, 0))
            } else {
                TypeRef::Class(names::box_class(&mut self.names, i - 1))
            };
            classes.push(ClassDecl {
                name: names::box_class(&mut self.names, i),
                superclass: None,
                is_application: false,
                fields: vec![FieldDecl {
                    name: self.name("val"),
                    ty: inner.clone(),
                }],
                statics: Vec::new(),
                methods: vec![
                    // method set(e: Inner) { this.val = e; }
                    MethodDecl {
                        name: self.name("set"),
                        is_static: false,
                        params: vec![LocalDecl {
                            name: self.name("e"),
                            ty: inner.clone(),
                        }],
                        ret: None,
                        locals: vec![],
                        body: vec![Stmt::Store {
                            base: self.lv("this"),
                            field: self.name("val"),
                            src: self.lv("e"),
                        }],
                    },
                    // method get(): Inner { var r: Inner; r = this.val; return r; }
                    MethodDecl {
                        name: self.name("get"),
                        is_static: false,
                        params: vec![],
                        ret: Some(inner.clone()),
                        locals: vec![LocalDecl {
                            name: self.name("r"),
                            ty: inner.clone(),
                        }],
                        body: vec![
                            Stmt::Load {
                                dst: self.lv("r"),
                                base: self.lv("this"),
                                field: self.name("val"),
                            },
                            Stmt::Return {
                                val: Some(self.lv("r")),
                            },
                        ],
                    },
                ],
            });
        }

        // Library: array-backed collections of Val0 — the paper's Fig. 2
        // Vector, idiom for idiom (add writes t.arr, get reads it).
        let elem = TypeRef::Class(names::value_class(&mut self.names, 0));
        let arr = TypeRef::Array(Box::new(elem.clone()));
        for i in 0..self.p.collections {
            classes.push(ClassDecl {
                name: names::coll_class(&mut self.names, i),
                superclass: None,
                is_application: false,
                fields: vec![FieldDecl {
                    name: self.name("elems"),
                    ty: arr.clone(),
                }],
                statics: Vec::new(),
                methods: vec![
                    MethodDecl {
                        name: self.name("<init>"),
                        is_static: false,
                        params: vec![],
                        ret: None,
                        locals: vec![LocalDecl {
                            name: self.name("t"),
                            ty: arr.clone(),
                        }],
                        body: vec![
                            Stmt::New {
                                dst: self.lv("t"),
                                ty: arr.clone(),
                            },
                            Stmt::Store {
                                base: self.lv("this"),
                                field: self.name("elems"),
                                src: self.lv("t"),
                            },
                        ],
                    },
                    MethodDecl {
                        name: self.name("add"),
                        is_static: false,
                        params: vec![LocalDecl {
                            name: self.name("e"),
                            ty: elem.clone(),
                        }],
                        ret: None,
                        locals: vec![LocalDecl {
                            name: self.name("t"),
                            ty: arr.clone(),
                        }],
                        body: vec![
                            Stmt::Load {
                                dst: self.lv("t"),
                                base: self.lv("this"),
                                field: self.name("elems"),
                            },
                            Stmt::ArrayStore {
                                base: self.lv("t"),
                                src: self.lv("e"),
                            },
                        ],
                    },
                    MethodDecl {
                        name: self.name("get"),
                        is_static: false,
                        params: vec![],
                        ret: Some(elem.clone()),
                        locals: vec![
                            LocalDecl {
                                name: self.name("t"),
                                ty: arr.clone(),
                            },
                            LocalDecl {
                                name: self.name("r"),
                                ty: elem.clone(),
                            },
                        ],
                        body: vec![
                            Stmt::Load {
                                dst: self.lv("t"),
                                base: self.lv("this"),
                                field: self.name("elems"),
                            },
                            Stmt::ArrayLoad {
                                dst: self.lv("r"),
                                base: self.lv("t"),
                            },
                            Stmt::Return {
                                val: Some(self.lv("r")),
                            },
                        ],
                    },
                ],
            });
        }

        // Application classes.
        for a in 0..self.p.app_classes {
            let superclass = if a > 0 && self.rng.random_range(0..100) < self.p.subclass_percent {
                Some(names::app_class(
                    &mut self.names,
                    self.rng.random_range(0..a),
                ))
            } else {
                None
            };
            let mut methods = Vec::new();
            // A wrapper (identity) helper: context-sensitivity stress.
            methods.push(MethodDecl {
                name: self.name("id"),
                is_static: false,
                params: vec![LocalDecl {
                    name: self.name("x"),
                    ty: TypeRef::Class(names::value_class(&mut self.names, 0)),
                }],
                ret: Some(TypeRef::Class(names::value_class(&mut self.names, 0))),
                locals: vec![],
                body: vec![Stmt::Return {
                    val: Some(self.lv("x")),
                }],
            });
            // Static globals per class: a shared value and a shared
            // collection (the structure all methods read and write at the
            // empty calling context — the traffic data sharing amortises).
            let statics = vec![
                FieldDecl {
                    name: self.name("shared"),
                    ty: TypeRef::Class(names::value_class(&mut self.names, 0)),
                },
                FieldDecl {
                    name: self.name("cache"),
                    ty: TypeRef::Class(names::coll_class(&mut self.names, self.cache_coll[a])),
                },
            ];
            for m in 0..self.p.methods_per_class {
                methods.push(self.gen_method(a, m));
            }
            classes.push(ClassDecl {
                name: names::app_class(&mut self.names, a),
                superclass,
                is_application: true,
                fields: vec![FieldDecl {
                    name: self.name("state"),
                    ty: TypeRef::Class(names::value_class(&mut self.names, 0)),
                }],
                statics,
                methods,
            });
        }

        Program { classes }
    }

    fn gen_method(&mut self, class_idx: usize, m: usize) -> MethodDecl {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let mut body = Body::new();
        // The first method of each class installs the class's shared
        // collection.
        if m == 0 {
            let cty = TypeRef::Class(names::coll_class(
                &mut self.names,
                self.cache_coll[class_idx],
            ));
            let c = body.fresh(&mut self.names, cty.clone());
            body.push(Stmt::New {
                dst: lv(&c),
                ty: cty,
            });
            body.push(Stmt::VirtualCall {
                dst: None,
                recv: lv(&c),
                method: self.name("<init>"),
                args: Box::new([]),
            });
            body.push(Stmt::Assign {
                dst: VarRef::Static(
                    names::app_class(&mut self.names, class_idx),
                    self.name("cache"),
                ),
                src: lv(&c),
            });
        }
        // Every method starts with a seed value the idioms can draw on.
        let seed_var = body.fresh(&mut self.names, base.clone());
        let alloc_ty = self.value_ty();
        body.push(Stmt::New {
            dst: lv(&seed_var),
            ty: alloc_ty,
        });
        let mut last_value = seed_var;

        for _ in 0..self.p.idioms_per_method {
            let w = &self.p.idiom_weights;
            let total: u32 = w.iter().sum();
            let mut pick = self.rng.random_range(0..total);
            let mut idiom = 0;
            for (i, &wi) in w.iter().enumerate() {
                if pick < wi {
                    idiom = i;
                    break;
                }
                pick -= wi;
            }
            match idiom {
                0 => self.idiom_alloc_chain(&mut body, &mut last_value),
                1 => self.idiom_container(&mut body, &mut last_value),
                2 => self.idiom_field(&mut body, &mut last_value),
                3 => self.idiom_call(&mut body, class_idx, &mut last_value),
                4 => self.idiom_global(&mut body, class_idx, &mut last_value),
                5 => self.idiom_wrapper(&mut body, class_idx, &mut last_value),
                6 => self.idiom_shared_container(&mut body, class_idx, &mut last_value),
                7 => self.idiom_cross_call(&mut body, &mut last_value),
                _ => self.idiom_ladder(&mut body, &mut last_value),
            }
        }

        // Methods alternate between void and value-returning.
        let ret = m.is_multiple_of(2).then(|| base.clone());
        if ret.is_some() {
            body.push(Stmt::Return {
                val: Some(lv(&last_value)),
            });
        }
        MethodDecl {
            name: names::method(&mut self.names, m),
            is_static: false,
            params: vec![LocalDecl {
                name: self.name("p0"),
                ty: base,
            }],
            ret,
            // At their exact size, as the parser leaves them.
            locals: body.locals.into_boxed_slice().into(),
            body: body.stmts.into_boxed_slice().into(),
        }
    }

    /// `a = new V; b = a; c = b; ...` — connection-distance fodder.
    fn idiom_alloc_chain(&mut self, body: &mut Body, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let ty = self.value_ty();
        let a = body.fresh(&mut self.names, base.clone());
        body.push(Stmt::New { dst: lv(&a), ty });
        let mut prev = a;
        let len = self.rng.random_range(1..4);
        for _ in 0..len {
            let nxt = body.fresh(&mut self.names, base.clone());
            body.push(Stmt::Assign {
                dst: lv(&nxt),
                src: lv(&prev),
            });
            prev = nxt;
        }
        *last = prev;
    }

    /// `c = new Coll; call c.<init>(); call c.add(v); r = call c.get();`
    fn idiom_container(&mut self, body: &mut Body, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let k = self.rng.random_range(0..self.p.collections.max(1));
        let cty = TypeRef::Class(names::coll_class(&mut self.names, k));
        let c = body.fresh(&mut self.names, cty);
        body.push(Stmt::New {
            dst: lv(&c),
            ty: TypeRef::Class(names::coll_class(&mut self.names, k)),
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&c),
            method: self.name("<init>"),
            args: Box::new([]),
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&c),
            method: self.name("add"),
            args: Box::new([lv(last)]),
        });
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&c),
            method: self.name("get"),
            args: Box::new([]),
        });
        *last = r;
    }

    /// `b = new Box0; call b.set(v); b1 = b; …; bK = bK-1;
    /// r = call bK.get();` — the base pointer reaches the read through a
    /// long def-use chain, so the alias computation of the load (which must
    /// walk the chain to find the allocation) happens *inside* the
    /// `ReachableNodes` frame. This is what makes frames expensive enough
    /// for budget exhaustion to strike mid-frame — the precondition for
    /// unfinished jmp edges and early terminations (paper Fig. 3b).
    fn idiom_field(&mut self, body: &mut Body, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let bty = TypeRef::Class(names::box_class(&mut self.names, 0));
        let b = body.fresh(&mut self.names, bty.clone());
        body.push(Stmt::New {
            dst: lv(&b),
            ty: bty.clone(),
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&b),
            method: self.name("set"),
            args: Box::new([lv(last)]),
        });
        let mut cur = b;
        let chain = self.rng.random_range(8..24);
        for _ in 0..chain {
            let nxt = body.fresh(&mut self.names, bty.clone());
            body.push(Stmt::Assign {
                dst: lv(&nxt),
                src: lv(&cur),
            });
            cur = nxt;
        }
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&cur),
            method: self.name("get"),
            args: Box::new([]),
        });
        // Occasionally wrap in a deeper box to exercise the ladder (and
        // give scheduling distinct type levels to order).
        if self.p.box_classes > 1 && self.rng.random_bool(0.4) {
            let deep_i = self.rng.random_range(1..self.p.box_classes);
            let dty = TypeRef::Class(names::box_class(&mut self.names, deep_i));
            let d = body.fresh(&mut self.names, dty.clone());
            body.push(Stmt::New {
                dst: lv(&d),
                ty: dty,
            });
            // Boxes hold the next box down; we only exercise get.
            let inner_ty = TypeRef::Class(names::box_class(&mut self.names, deep_i - 1));
            let got = body.fresh(&mut self.names, inner_ty);
            body.push(Stmt::VirtualCall {
                dst: Some(lv(&got)),
                recv: lv(&d),
                method: self.name("get"),
                args: Box::new([]),
            });
        }
        *last = r;
    }

    /// `r = call this.mK(v);` — intra-class calls chain method-local flows
    /// into cross-method param/ret paths (and recursion when mK ends up
    /// calling back, which the frontend collapses).
    fn idiom_call(&mut self, body: &mut Body, _class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        // Target one of the even (value-returning) generated methods.
        let even_count = self.p.methods_per_class.div_ceil(2);
        let k = 2 * self.rng.random_range(0..even_count.max(1));
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: self.lv("this"),
            method: names::method(&mut self.names, k),
            args: Box::new([lv(last)]),
        });
        *last = r;
    }

    /// `AppK.shared = v; r = AppK.shared;` — context-insensitive global
    /// flow.
    fn idiom_global(&mut self, body: &mut Body, class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let owner = names::app_class(&mut self.names, self.rng.random_range(0..=class_idx));
        body.push(Stmt::Assign {
            dst: VarRef::Static(owner.clone(), self.name("shared")),
            src: lv(last),
        });
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::Assign {
            dst: lv(&r),
            src: VarRef::Static(owner, self.name("shared")),
        });
        *last = r;
    }

    /// `c = AppK.cache; call c.add(v); r = call c.get();` — traffic on a
    /// globally shared collection. Globals reset the calling context, so
    /// the (expensive) alias computations these trigger are keyed at
    /// contexts many queries share — prime data-sharing territory.
    fn idiom_shared_container(&mut self, body: &mut Body, class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let owner = self.rng.random_range(0..=class_idx);
        let cty = TypeRef::Class(names::coll_class(&mut self.names, self.cache_coll[owner]));
        let c = body.fresh(&mut self.names, cty);
        body.push(Stmt::Assign {
            dst: lv(&c),
            src: VarRef::Static(names::app_class(&mut self.names, owner), self.name("cache")),
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&c),
            method: self.name("add"),
            args: Box::new([lv(last)]),
        });
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&c),
            method: self.name("get"),
            args: Box::new([]),
        });
        *last = r;
    }

    /// `h = new AppJ; r = call h.mK(v);` — cross-class call web: value
    /// flows thread through many classes, giving the call graph breadth
    /// (and occasional recursion cycles, which the frontend collapses).
    fn idiom_cross_call(&mut self, body: &mut Body, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let j = self.rng.random_range(0..self.p.app_classes);
        let hty = TypeRef::Class(names::app_class(&mut self.names, j));
        let h = body.fresh(&mut self.names, hty.clone());
        body.push(Stmt::New {
            dst: lv(&h),
            ty: hty,
        });
        let even_count = self.p.methods_per_class.div_ceil(2);
        let k = 2 * self.rng.random_range(0..even_count.max(1));
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&h),
            method: names::method(&mut self.names, k),
            args: Box::new([lv(last)]),
        });
        *last = r;
    }

    /// Builds a nested-box ladder and reads it back down:
    ///
    /// ```text
    /// b0 = new Box0; call b0.set(v);
    /// b1 = new Box1; call b1.set(b0);   ...up to the deepest box...
    /// tK-1 = call bK.get();  ...  r = call t0.get();
    /// ```
    ///
    /// All `BoxJ.val` fields share one field name, so the alias test at
    /// each unwrapping level matches every `set` site at every level — the
    /// per-level fan-in multiplies and the deepest reads cost orders of
    /// magnitude more than flat queries. This is the workload's pathological
    /// tail: the queries that exhaust the paper's budget `B`, leave
    /// unfinished jmp edges behind, and give later queries their early
    /// terminations.
    fn idiom_ladder(&mut self, body: &mut Body, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let depth = self.p.box_classes;
        // Build upward.
        let mut boxes: Vec<Name> = Vec::with_capacity(depth);
        for j in 0..depth {
            let bty = TypeRef::Class(names::box_class(&mut self.names, j));
            let b = body.fresh(&mut self.names, bty.clone());
            body.push(Stmt::New {
                dst: lv(&b),
                ty: bty,
            });
            let arg = if j == 0 { lv(last) } else { lv(&boxes[j - 1]) };
            body.push(Stmt::VirtualCall {
                dst: None,
                recv: lv(&b),
                method: self.name("set"),
                args: Box::new([arg]),
            });
            boxes.push(b);
        }
        // Read back down.
        let mut cur = boxes[depth - 1].clone();
        for j in (0..depth.saturating_sub(1)).rev() {
            let ty = TypeRef::Class(names::box_class(&mut self.names, j));
            let t = body.fresh(&mut self.names, ty);
            body.push(Stmt::VirtualCall {
                dst: Some(lv(&t)),
                recv: lv(&cur),
                method: self.name("get"),
                args: Box::new([]),
            });
            cur = t;
        }
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&cur),
            method: self.name("get"),
            args: Box::new([]),
        });
        *last = r;
    }

    /// `r = call this.id(v);` — the wrapper pattern whose `param_i`/`ret_i`
    /// pairs context-sensitivity must match.
    fn idiom_wrapper(&mut self, body: &mut Body, _class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(&mut self.names, 0));
        let r = body.fresh(&mut self.names, base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: self.lv("this"),
            method: self.name("id"),
            args: Box::new([lv(last)]),
        });
        *last = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{table1_profiles, Profile};
    use parcfl_frontend::extract::extract;

    #[test]
    fn deterministic_generation() {
        let p = Profile::tiny(42);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a, b, "same seed, same program");
        let c = generate(&Profile::tiny(43));
        assert_ne!(a, c, "different seed, different program");
    }

    #[test]
    fn generated_programs_extract_cleanly() {
        let p = Profile::tiny(7);
        let prog = generate(&p);
        let e = extract(&prog).expect("generated program must extract");
        assert!(e.pag.node_count() > 20);
        assert!(e.pag.edge_count() > 20);
        assert!(
            !e.pag.application_locals().is_empty(),
            "app locals exist for querying"
        );
        // No undefined-class or unresolved-call warnings allowed from the
        // generator (arity/void warnings would indicate idiom bugs too).
        assert!(
            e.warnings.is_empty(),
            "generator produced warnings: {:?}",
            e.warnings
        );
    }

    #[test]
    fn generated_source_round_trips_through_parser() {
        let prog = generate(&Profile::tiny(3));
        let text = parcfl_frontend::pretty::pretty(&prog);
        let reparsed = parcfl_frontend::parse(&text).expect("round trip");
        assert_eq!(prog, reparsed);
    }

    fn type_names<'a>(ty: &'a TypeRef, out: &mut Vec<&'a Name>) {
        match ty {
            TypeRef::Int => {}
            TypeRef::Class(c) => out.push(c),
            TypeRef::Array(elem) => type_names(elem, out),
        }
    }

    fn var_names<'a>(v: &'a VarRef, out: &mut Vec<&'a Name>) {
        match v {
            VarRef::Local(n) => out.push(n),
            VarRef::Static(c, f) => out.extend([c, f]),
        }
    }

    fn exact<T>(list: &Vec<T>) {
        assert_eq!(list.len(), list.capacity(), "a list with spare capacity");
    }

    /// Every `body`, `locals` and `params` of `program` is at its exact
    /// size, and any two equal names share one allocation. A call's `args`
    /// are a boxed slice, exact by type: the `Stmt` size pin holds them to
    /// it (a `Vec` there would make a statement 72 bytes).
    fn assert_compact(program: &Program) {
        assert_eq!(
            std::mem::size_of::<Stmt>(),
            64,
            "a call keeps a capacity word"
        );
        let mut names = Vec::new();
        for class in &program.classes {
            names.push(&class.name);
            names.extend(&class.superclass);
            for f in class.fields.iter().chain(&class.statics) {
                names.push(&f.name);
                type_names(&f.ty, &mut names);
            }
            for m in &class.methods {
                names.push(&m.name);
                m.ret.iter().for_each(|ty| type_names(ty, &mut names));
                exact(&m.params);
                exact(&m.locals);
                exact(&m.body);
                for d in m.params.iter().chain(&m.locals) {
                    names.push(&d.name);
                    type_names(&d.ty, &mut names);
                }
                for s in &m.body {
                    match s {
                        Stmt::New { dst, ty } => {
                            var_names(dst, &mut names);
                            type_names(ty, &mut names);
                        }
                        Stmt::Assign { dst: a, src: b }
                        | Stmt::ArrayLoad { dst: a, base: b }
                        | Stmt::ArrayStore { base: a, src: b } => {
                            var_names(a, &mut names);
                            var_names(b, &mut names);
                        }
                        Stmt::Load {
                            dst: a,
                            base: b,
                            field,
                        }
                        | Stmt::Store {
                            base: b,
                            field,
                            src: a,
                        } => {
                            var_names(a, &mut names);
                            var_names(b, &mut names);
                            names.push(field);
                        }
                        Stmt::VirtualCall {
                            dst,
                            recv,
                            method,
                            args,
                        } => {
                            dst.iter().for_each(|d| var_names(d, &mut names));
                            var_names(recv, &mut names);
                            names.push(method);
                            args.iter().for_each(|a| var_names(a, &mut names));
                        }
                        Stmt::StaticCall {
                            dst,
                            class,
                            method,
                            args,
                        } => {
                            dst.iter().for_each(|d| var_names(d, &mut names));
                            names.extend([class, method]);
                            args.iter().for_each(|a| var_names(a, &mut names));
                        }
                        Stmt::Return { val } => val.iter().for_each(|v| var_names(v, &mut names)),
                    }
                }
            }
        }
        let mut first: std::collections::HashMap<&str, &Name> = Default::default();
        for n in names {
            let spelling = first.entry(n).or_insert(n);
            assert!(Name::ptr_eq(spelling, n), "`{n}` is allocated twice");
        }
    }

    #[test]
    fn generated_and_parsed_programs_are_compact() {
        for seed in 0..6 {
            let prog = generate(&Profile::tiny(seed));
            assert_compact(&prog);
            let text = parcfl_frontend::pretty::pretty(&prog);
            assert_eq!(text.len(), text.capacity(), "text with spare capacity");
            assert_compact(&parcfl_frontend::parse(&text).expect("round trip"));
        }
    }

    #[test]
    fn all_table1_profiles_generate_and_extract() {
        for p in table1_profiles() {
            let prog = generate(&p);
            let e =
                extract(&prog).unwrap_or_else(|err| panic!("{} failed to extract: {err}", p.name));
            assert!(
                e.warnings.is_empty(),
                "{} warnings: {:?}",
                p.name,
                e.warnings
            );
            assert!(
                e.pag.application_locals().len() >= 30,
                "{} too few queries: {}",
                p.name,
                e.pag.application_locals().len()
            );
        }
    }

    #[test]
    fn heavier_profiles_make_bigger_graphs() {
        let ps = table1_profiles();
        let jess = ps.iter().find(|p| p.name == "_202_jess").unwrap();
        let check = ps.iter().find(|p| p.name == "_200_check").unwrap();
        let gj = extract(&generate(jess)).unwrap().pag;
        let gc = extract(&generate(check)).unwrap().pag;
        assert!(gj.node_count() > gc.node_count());
    }
}
