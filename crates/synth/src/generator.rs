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

use crate::names;
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

    fn fresh(&mut self, ty: TypeRef) -> Name {
        let name = names::local(self.next_local);
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

fn lv(name: &str) -> VarRef {
    VarRef::Local(name.into())
}

impl<'p> Generator<'p> {
    fn new(p: &'p Profile) -> Self {
        let mut rng = StdRng::seed_from_u64(p.seed);
        let cache_coll = (0..p.app_classes)
            .map(|_| rng.random_range(0..p.collections.max(1)))
            .collect();
        Generator { p, rng, cache_coll }
    }

    fn value_ty(&mut self) -> TypeRef {
        let i = self.rng.random_range(0..self.p.value_classes);
        TypeRef::Class(names::value_class(i))
    }

    fn build(mut self) -> Program {
        let mut classes = Vec::new();

        // Library: the value-class hierarchy. Val0 is the root "Object";
        // the rest extend it so collections of Val0 can hold any value.
        for i in 0..self.p.value_classes {
            classes.push(ClassDecl {
                name: names::value_class(i),
                superclass: (i > 0).then(|| names::value_class(0)),
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
                TypeRef::Class(names::value_class(0))
            } else {
                TypeRef::Class(names::box_class(i - 1))
            };
            classes.push(ClassDecl {
                name: names::box_class(i),
                superclass: None,
                is_application: false,
                fields: vec![FieldDecl {
                    name: "val".into(),
                    ty: inner.clone(),
                }],
                statics: Vec::new(),
                methods: vec![
                    // method set(e: Inner) { this.val = e; }
                    MethodDecl {
                        name: "set".into(),
                        is_static: false,
                        params: vec![LocalDecl {
                            name: "e".into(),
                            ty: inner.clone(),
                        }],
                        ret: None,
                        locals: vec![],
                        body: vec![Stmt::Store {
                            base: lv("this"),
                            field: "val".into(),
                            src: lv("e"),
                        }],
                    },
                    // method get(): Inner { var r: Inner; r = this.val; return r; }
                    MethodDecl {
                        name: "get".into(),
                        is_static: false,
                        params: vec![],
                        ret: Some(inner.clone()),
                        locals: vec![LocalDecl {
                            name: "r".into(),
                            ty: inner.clone(),
                        }],
                        body: vec![
                            Stmt::Load {
                                dst: lv("r"),
                                base: lv("this"),
                                field: "val".into(),
                            },
                            Stmt::Return { val: Some(lv("r")) },
                        ],
                    },
                ],
            });
        }

        // Library: array-backed collections of Val0 — the paper's Fig. 2
        // Vector, idiom for idiom (add writes t.arr, get reads it).
        let elem = TypeRef::Class(names::value_class(0));
        let arr = TypeRef::Array(Box::new(elem.clone()));
        for i in 0..self.p.collections {
            classes.push(ClassDecl {
                name: names::coll_class(i),
                superclass: None,
                is_application: false,
                fields: vec![FieldDecl {
                    name: "elems".into(),
                    ty: arr.clone(),
                }],
                statics: Vec::new(),
                methods: vec![
                    MethodDecl {
                        name: "<init>".into(),
                        is_static: false,
                        params: vec![],
                        ret: None,
                        locals: vec![LocalDecl {
                            name: "t".into(),
                            ty: arr.clone(),
                        }],
                        body: vec![
                            Stmt::New {
                                dst: lv("t"),
                                ty: arr.clone(),
                            },
                            Stmt::Store {
                                base: lv("this"),
                                field: "elems".into(),
                                src: lv("t"),
                            },
                        ],
                    },
                    MethodDecl {
                        name: "add".into(),
                        is_static: false,
                        params: vec![LocalDecl {
                            name: "e".into(),
                            ty: elem.clone(),
                        }],
                        ret: None,
                        locals: vec![LocalDecl {
                            name: "t".into(),
                            ty: arr.clone(),
                        }],
                        body: vec![
                            Stmt::Load {
                                dst: lv("t"),
                                base: lv("this"),
                                field: "elems".into(),
                            },
                            Stmt::ArrayStore {
                                base: lv("t"),
                                src: lv("e"),
                            },
                        ],
                    },
                    MethodDecl {
                        name: "get".into(),
                        is_static: false,
                        params: vec![],
                        ret: Some(elem.clone()),
                        locals: vec![
                            LocalDecl {
                                name: "t".into(),
                                ty: arr.clone(),
                            },
                            LocalDecl {
                                name: "r".into(),
                                ty: elem.clone(),
                            },
                        ],
                        body: vec![
                            Stmt::Load {
                                dst: lv("t"),
                                base: lv("this"),
                                field: "elems".into(),
                            },
                            Stmt::ArrayLoad {
                                dst: lv("r"),
                                base: lv("t"),
                            },
                            Stmt::Return { val: Some(lv("r")) },
                        ],
                    },
                ],
            });
        }

        // Application classes.
        for a in 0..self.p.app_classes {
            let superclass = if a > 0 && self.rng.random_range(0..100) < self.p.subclass_percent {
                Some(names::app_class(self.rng.random_range(0..a)))
            } else {
                None
            };
            let mut methods = Vec::new();
            // A wrapper (identity) helper: context-sensitivity stress.
            methods.push(MethodDecl {
                name: "id".into(),
                is_static: false,
                params: vec![LocalDecl {
                    name: "x".into(),
                    ty: TypeRef::Class(names::value_class(0)),
                }],
                ret: Some(TypeRef::Class(names::value_class(0))),
                locals: vec![],
                body: vec![Stmt::Return { val: Some(lv("x")) }],
            });
            // Static globals per class: a shared value and a shared
            // collection (the structure all methods read and write at the
            // empty calling context — the traffic data sharing amortises).
            let statics = vec![
                FieldDecl {
                    name: "shared".into(),
                    ty: TypeRef::Class(names::value_class(0)),
                },
                FieldDecl {
                    name: "cache".into(),
                    ty: TypeRef::Class(names::coll_class(self.cache_coll[a])),
                },
            ];
            for m in 0..self.p.methods_per_class {
                methods.push(self.gen_method(a, m));
            }
            classes.push(ClassDecl {
                name: names::app_class(a),
                superclass,
                is_application: true,
                fields: vec![FieldDecl {
                    name: "state".into(),
                    ty: TypeRef::Class(names::value_class(0)),
                }],
                statics,
                methods,
            });
        }

        Program { classes }
    }

    fn gen_method(&mut self, class_idx: usize, m: usize) -> MethodDecl {
        let base = TypeRef::Class(names::value_class(0));
        let mut body = Body::new();
        // The first method of each class installs the class's shared
        // collection.
        if m == 0 {
            let cty = TypeRef::Class(names::coll_class(self.cache_coll[class_idx]));
            let c = body.fresh(cty.clone());
            body.push(Stmt::New {
                dst: lv(&c),
                ty: cty,
            });
            body.push(Stmt::VirtualCall {
                dst: None,
                recv: lv(&c),
                method: "<init>".into(),
                args: vec![],
            });
            body.push(Stmt::Assign {
                dst: VarRef::Static(names::app_class(class_idx), "cache".into()),
                src: lv(&c),
            });
        }
        // Every method starts with a seed value the idioms can draw on.
        let seed_var = body.fresh(base.clone());
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
            name: names::method(m),
            is_static: false,
            params: vec![LocalDecl {
                name: "p0".into(),
                ty: base,
            }],
            ret,
            locals: body.locals,
            body: body.stmts,
        }
    }

    /// `a = new V; b = a; c = b; ...` — connection-distance fodder.
    fn idiom_alloc_chain(&mut self, body: &mut Body, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(0));
        let ty = self.value_ty();
        let a = body.fresh(base.clone());
        body.push(Stmt::New { dst: lv(&a), ty });
        let mut prev = a;
        let len = self.rng.random_range(1..4);
        for _ in 0..len {
            let nxt = body.fresh(base.clone());
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
        let base = TypeRef::Class(names::value_class(0));
        let k = self.rng.random_range(0..self.p.collections.max(1));
        let cty = TypeRef::Class(names::coll_class(k));
        let c = body.fresh(cty);
        body.push(Stmt::New {
            dst: lv(&c),
            ty: TypeRef::Class(names::coll_class(k)),
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&c),
            method: "<init>".into(),
            args: vec![],
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&c),
            method: "add".into(),
            args: vec![lv(last)],
        });
        let r = body.fresh(base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&c),
            method: "get".into(),
            args: vec![],
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
        let base = TypeRef::Class(names::value_class(0));
        let bty = TypeRef::Class(names::box_class(0));
        let b = body.fresh(bty.clone());
        body.push(Stmt::New {
            dst: lv(&b),
            ty: bty.clone(),
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&b),
            method: "set".into(),
            args: vec![lv(last)],
        });
        let mut cur = b;
        let chain = self.rng.random_range(8..24);
        for _ in 0..chain {
            let nxt = body.fresh(bty.clone());
            body.push(Stmt::Assign {
                dst: lv(&nxt),
                src: lv(&cur),
            });
            cur = nxt;
        }
        let r = body.fresh(base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&cur),
            method: "get".into(),
            args: vec![],
        });
        // Occasionally wrap in a deeper box to exercise the ladder (and
        // give scheduling distinct type levels to order).
        if self.p.box_classes > 1 && self.rng.random_bool(0.4) {
            let deep_i = self.rng.random_range(1..self.p.box_classes);
            let dty = TypeRef::Class(names::box_class(deep_i));
            let d = body.fresh(dty.clone());
            body.push(Stmt::New {
                dst: lv(&d),
                ty: dty,
            });
            // Boxes hold the next box down; we only exercise get.
            let inner_ty = TypeRef::Class(names::box_class(deep_i - 1));
            let got = body.fresh(inner_ty);
            body.push(Stmt::VirtualCall {
                dst: Some(lv(&got)),
                recv: lv(&d),
                method: "get".into(),
                args: vec![],
            });
        }
        *last = r;
    }

    /// `r = call this.mK(v);` — intra-class calls chain method-local flows
    /// into cross-method param/ret paths (and recursion when mK ends up
    /// calling back, which the frontend collapses).
    fn idiom_call(&mut self, body: &mut Body, _class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(0));
        // Target one of the even (value-returning) generated methods.
        let even_count = self.p.methods_per_class.div_ceil(2);
        let k = 2 * self.rng.random_range(0..even_count.max(1));
        let r = body.fresh(base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv("this"),
            method: names::method(k),
            args: vec![lv(last)],
        });
        *last = r;
    }

    /// `AppK.shared = v; r = AppK.shared;` — context-insensitive global
    /// flow.
    fn idiom_global(&mut self, body: &mut Body, class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(0));
        let owner = names::app_class(self.rng.random_range(0..=class_idx));
        body.push(Stmt::Assign {
            dst: VarRef::Static(owner.clone(), "shared".into()),
            src: lv(last),
        });
        let r = body.fresh(base);
        body.push(Stmt::Assign {
            dst: lv(&r),
            src: VarRef::Static(owner, "shared".into()),
        });
        *last = r;
    }

    /// `c = AppK.cache; call c.add(v); r = call c.get();` — traffic on a
    /// globally shared collection. Globals reset the calling context, so
    /// the (expensive) alias computations these trigger are keyed at
    /// contexts many queries share — prime data-sharing territory.
    fn idiom_shared_container(&mut self, body: &mut Body, class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(0));
        let owner = self.rng.random_range(0..=class_idx);
        let cty = TypeRef::Class(names::coll_class(self.cache_coll[owner]));
        let c = body.fresh(cty);
        body.push(Stmt::Assign {
            dst: lv(&c),
            src: VarRef::Static(names::app_class(owner), "cache".into()),
        });
        body.push(Stmt::VirtualCall {
            dst: None,
            recv: lv(&c),
            method: "add".into(),
            args: vec![lv(last)],
        });
        let r = body.fresh(base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&c),
            method: "get".into(),
            args: vec![],
        });
        *last = r;
    }

    /// `h = new AppJ; r = call h.mK(v);` — cross-class call web: value
    /// flows thread through many classes, giving the call graph breadth
    /// (and occasional recursion cycles, which the frontend collapses).
    fn idiom_cross_call(&mut self, body: &mut Body, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(0));
        let j = self.rng.random_range(0..self.p.app_classes);
        let hty = TypeRef::Class(names::app_class(j));
        let h = body.fresh(hty.clone());
        body.push(Stmt::New {
            dst: lv(&h),
            ty: hty,
        });
        let even_count = self.p.methods_per_class.div_ceil(2);
        let k = 2 * self.rng.random_range(0..even_count.max(1));
        let r = body.fresh(base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&h),
            method: names::method(k),
            args: vec![lv(last)],
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
        let base = TypeRef::Class(names::value_class(0));
        let depth = self.p.box_classes;
        // Build upward.
        let mut boxes: Vec<Name> = Vec::with_capacity(depth);
        for j in 0..depth {
            let bty = TypeRef::Class(names::box_class(j));
            let b = body.fresh(bty.clone());
            body.push(Stmt::New {
                dst: lv(&b),
                ty: bty,
            });
            let arg = if j == 0 { lv(last) } else { lv(&boxes[j - 1]) };
            body.push(Stmt::VirtualCall {
                dst: None,
                recv: lv(&b),
                method: "set".into(),
                args: vec![arg],
            });
            boxes.push(b);
        }
        // Read back down.
        let mut cur = boxes[depth - 1].clone();
        for j in (0..depth.saturating_sub(1)).rev() {
            let ty = TypeRef::Class(names::box_class(j));
            let t = body.fresh(ty);
            body.push(Stmt::VirtualCall {
                dst: Some(lv(&t)),
                recv: lv(&cur),
                method: "get".into(),
                args: vec![],
            });
            cur = t;
        }
        let r = body.fresh(base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv(&cur),
            method: "get".into(),
            args: vec![],
        });
        *last = r;
    }

    /// `r = call this.id(v);` — the wrapper pattern whose `param_i`/`ret_i`
    /// pairs context-sensitivity must match.
    fn idiom_wrapper(&mut self, body: &mut Body, _class_idx: usize, last: &mut Name) {
        let base = TypeRef::Class(names::value_class(0));
        let r = body.fresh(base);
        body.push(Stmt::VirtualCall {
            dst: Some(lv(&r)),
            recv: lv("this"),
            method: "id".into(),
            args: vec![lv(last)],
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
