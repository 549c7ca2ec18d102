//! CHA call-graph construction and recursion-cycle detection.
//!
//! The paper (Section IV-A) collapses "recursion cycles of the call graph":
//! call sites whose caller and callee belong to the same strongly connected
//! component of the call graph are treated context-insensitively during PAG
//! extraction (their `param_i`/`ret_i` edges become plain assignments),
//! which keeps call-string contexts finite.

use crate::hierarchy::Hierarchy;
use crate::ir::{Stmt, TypeRef, VarRef};
use parcfl_pag::algo::{tarjan_scc, SccResult};
use std::collections::HashMap;
use std::ops::Range;

/// A dense method index across the whole program.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodIdx(pub u32);

/// The program-wide method table plus the CHA call graph.
pub struct CallGraph {
    /// `(class index, method index within class)` for each dense method.
    pub methods: Vec<(usize, usize)>,
    /// Dense index of each class's first method, and the method count.
    class_start: Vec<u32>,
    /// Successor methods (call targets) per method, deduplicated.
    pub callees: Vec<Vec<MethodIdx>>,
    /// Per call statement — program order: methods in dense order, each
    /// body in statement order — its targets as a range of `targets`.
    calls: Vec<Range<u32>>,
    /// Target lists, one per distinct (class, method name, dispatch kind).
    targets: Vec<MethodIdx>,
    scc: SccResult,
}

impl CallGraph {
    /// Builds the call graph for a resolved program. Call statements whose
    /// target cannot be resolved are skipped (they contribute no edges);
    /// `warnings` records them. CHA dispatch runs once per (declared
    /// class, method name).
    pub fn build(h: &Hierarchy<'_>, warnings: &mut Vec<String>) -> CallGraph {
        let classes = &h.program.classes;
        let mut methods = Vec::new();
        let mut class_start = Vec::with_capacity(classes.len() + 1);
        for (ci, c) in classes.iter().enumerate() {
            class_start.push(methods.len() as u32);
            methods.extend((0..c.methods.len()).map(|mi| (ci, mi)));
        }
        class_start.push(methods.len() as u32);
        let dense = |(c, m): (usize, usize)| MethodIdx(class_start[c] + m as u32);

        let (mut calls, mut targets) = (Vec::new(), Vec::new());
        let mut resolved = HashMap::new();
        // The caller's variables: name → type of its first declaration.
        let mut declared: HashMap<&str, &TypeRef> = HashMap::new();
        let mut callees: Vec<Vec<MethodIdx>> = vec![Vec::new(); methods.len()];
        for (&(ci, mi), out) in methods.iter().zip(&mut callees) {
            let method = &classes[ci].methods[mi];
            let (cname, mname) = (&classes[ci].name, &method.name);
            declared.clear();
            for l in method.params.iter().chain(&method.locals) {
                declared.entry(&l.name).or_insert(&l.ty);
            }
            for stmt in &method.body {
                let (decl, name, virtual_call) = match stmt {
                    Stmt::VirtualCall {
                        recv, method: name, ..
                    } => {
                        // Dispatch from the declared type of the receiver.
                        let decl = match recv {
                            VarRef::Local(r) if !method.is_static && *r == "this" => Some(ci),
                            VarRef::Local(r) => match declared.get(&**r) {
                                Some(TypeRef::Class(c)) => h.class_index(c),
                                _ => None,
                            },
                            // Receivers are locals (the parser guarantees it).
                            VarRef::Static(..) => None,
                        };
                        (decl, name, true)
                    }
                    Stmt::StaticCall {
                        class,
                        method: name,
                        ..
                    } => (h.class_index(class), name, false),
                    _ => continue,
                };
                let range = decl.map_or(0..0, |d| {
                    let range = resolved
                        .entry((d, &**name, virtual_call))
                        .or_insert_with(|| {
                            let start = targets.len() as u32;
                            if virtual_call {
                                targets.extend(h.dispatch(d, name).into_iter().map(dense));
                            } else {
                                targets.extend(h.resolve_method(d, name).map(dense));
                            }
                            start..targets.len() as u32
                        });
                    range.clone()
                });
                if range.is_empty() {
                    warnings.push(match stmt {
                        Stmt::StaticCall { class, .. } => {
                            format!("unresolved static call `{class}.{name}` in {cname}.{mname}")
                        }
                        _ if decl.is_some() => {
                            format!("unresolved virtual call to `{name}` in {cname}.{mname}")
                        }
                        _ => {
                            format!("virtual call on receiver of non-class type in {cname}.{mname}")
                        }
                    });
                }
                out.extend_from_slice(&targets[range.start as usize..range.end as usize]);
                calls.push(range);
            }
            // Sorted so that statement order cannot leak into anything
            // downstream.
            out.sort_unstable();
            out.dedup();
        }

        let n = methods.len();
        let scc = tarjan_scc(n, |v| callees[v].iter().map(|m| m.0 as usize));
        CallGraph {
            methods,
            class_start,
            callees,
            calls,
            targets,
            scc,
        }
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether there are no methods.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Whether a call from `caller` to `callee` is recursive (both in the
    /// same call-graph SCC). Self-calls are trivially recursive.
    pub fn is_recursive_call(&self, caller: MethodIdx, callee: MethodIdx) -> bool {
        self.scc.component_of(caller.0 as usize) == self.scc.component_of(callee.0 as usize)
    }

    /// Dense index for a `(class, method)` pair.
    pub fn method_idx(&self, class: usize, method: usize) -> MethodIdx {
        MethodIdx(self.class_start[class] + method as u32)
    }

    /// The resolved targets of the `call`-th call statement (counted in
    /// program order); empty if it did not resolve.
    pub fn call_targets(&self, call: usize) -> &[MethodIdx] {
        let range = &self.calls[call];
        &self.targets[range.start as usize..range.end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn graph(src: &str) -> (CallGraph, Vec<String>) {
        let p = parse(src).unwrap();
        let p = Box::leak(Box::new(p)); // tests only: extend lifetime
        let h = Hierarchy::new(p).unwrap();
        let mut w = Vec::new();
        (CallGraph::build(&h, &mut w), w)
    }

    #[test]
    fn direct_and_virtual_edges() {
        let (cg, w) = graph(
            "class A { method m(x: B) { call x.f(); } }
             class B { method f() { } }
             class C extends B { method f() { } }",
        );
        assert!(w.is_empty());
        let am = cg.method_idx(0, 0);
        // A.m can reach B.f and C.f via CHA on declared type B.
        assert_eq!(cg.callees[am.0 as usize].len(), 2);
    }

    #[test]
    fn recursion_detection() {
        let (cg, _) = graph(
            "class A {
               method f() { call this.g(); }
               method g() { call this.f(); }
               method h() { call this.h(); }
               method k() { call this.f(); }
             }",
        );
        let f = cg.method_idx(0, 0);
        let g = cg.method_idx(0, 1);
        let hh = cg.method_idx(0, 2);
        let k = cg.method_idx(0, 3);
        assert!(cg.is_recursive_call(f, g));
        assert!(cg.is_recursive_call(g, f));
        assert!(cg.is_recursive_call(hh, hh)); // self-recursion
        assert!(!cg.is_recursive_call(k, f)); // k calls into the cycle but is outside it
    }

    #[test]
    fn unresolved_calls_warn() {
        let (cg, w) = graph("class A { method m() { call this.ghost(); } }");
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("ghost"));
        assert_eq!(cg.len(), 1);
    }

    #[test]
    fn static_call_resolution() {
        let (cg, w) = graph("class A { static method s() { } method m() { call A.s(); } }");
        assert!(w.is_empty());
        let m = cg.method_idx(0, 1);
        let s = cg.method_idx(0, 0);
        assert_eq!(cg.callees[m.0 as usize], vec![s]);
    }
}
