//! Solver unit tests over small programs lowered by the real frontend.

use crate::config::{SolverConfig, StateBackend};
use crate::jmp::{Dir, ExhaustedStarts, JmpStore, NoJmpStore, SharedJmpStore};
use crate::solver::Solver;
use crate::stats::{Answer, QueryOutput};
use parcfl_frontend::build_pag;
use parcfl_pag::{EdgeKind, NodeId, Pag};

fn pag(src: &str) -> Pag {
    build_pag(src).unwrap().pag
}

fn node(pag: &Pag, name: &str) -> NodeId {
    pag.node_by_name(name)
        .unwrap_or_else(|| panic!("no node named {name}"))
}

/// Runs a points-to query and returns the context-insensitive object set as
/// sorted names.
fn pts_names(pag: &Pag, cfg: &SolverConfig, store: &dyn JmpStore, var: &str) -> Vec<String> {
    let mut solver = Solver::new(pag, cfg, store);
    let out = solver.points_to_query(node(pag, var), 0);
    let nodes = out
        .answer
        .nodes()
        .unwrap_or_else(|| panic!("query on {var} ran out of budget"));
    let mut names: Vec<String> = nodes
        .iter()
        .map(|&n| pag.node(n).name.to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn direct_allocation() {
    let p = pag("class Obj { }
                 class A { method m() { var x: Obj; x = new Obj; } }");
    let cfg = SolverConfig::default();
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "x@A.m"), vec!["o0@A.m"]);
}

#[test]
fn assignment_chain() {
    let p = pag("class Obj { }
                 class A { method m() {
                   var a: Obj; var b: Obj; var c: Obj;
                   a = new Obj; b = a; c = b;
                 } }");
    let cfg = SolverConfig::default();
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "c@A.m"), vec!["o0@A.m"]);
    // a does not point to anything b/c points to (flow is directional).
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "a@A.m"), vec!["o0@A.m"]);
}

#[test]
fn globals_flow_context_insensitively() {
    let p = pag("class Obj { }
                 class A {
                   static field g: Obj;
                   method set() { var t: Obj; t = new Obj; A.g = t; }
                   method get() { var u: Obj; u = A.g; }
                 }");
    let cfg = SolverConfig::default();
    assert_eq!(
        pts_names(&p, &cfg, &NoJmpStore, "u@A.get"),
        vec!["o0@A.set"]
    );
}

/// The classic context-sensitivity litmus test: an identity method called
/// from two sites must not conflate its arguments (the paper's Fig. 2
/// `s1main`/`o20` discussion).
#[test]
fn context_sensitivity_rejects_unrealisable_paths() {
    let src = "class Obj { }
               class P extends Obj { }
               class Q extends Obj { }
               class A {
                 method id(o: Obj): Obj { return o; }
                 method m() {
                   var a: Obj; var b: Obj; var x: Obj; var y: Obj;
                   a = new P;
                   b = new Q;
                   x = call this.id(a);
                   y = call this.id(b);
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "x@A.m"), vec!["o0@A.m"]);
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "y@A.m"), vec!["o1@A.m"]);

    // A context-INsensitive run conflates the two.
    let ci = SolverConfig {
        context_sensitive: false,
        ..SolverConfig::default()
    };
    assert_eq!(
        pts_names(&p, &ci, &NoJmpStore, "x@A.m"),
        vec!["o0@A.m", "o1@A.m"]
    );
}

#[test]
fn field_sensitivity_through_alias() {
    // q.f = y; x = p.f; with p, q aliases of the same object: x sees y's
    // object. A second, non-aliased container must stay separate.
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p: Box; var q: Box; var r: Box;
                   var x: Obj; var y: Obj; var z: Obj;
                   p = new Box;
                   q = p;
                   r = new Box;
                   y = new Obj;
                   z = new Obj;
                   q.f = y;
                   r.f = z;
                   x = p.f;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    // x = p.f must see only y's object (through the p/q alias), not z's.
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "x@A.m"), vec!["o3@A.m"]);
}

#[test]
fn field_sensitivity_distinguishes_fields() {
    let src = "class Obj { }
               class Box { field f: Obj; field g: Obj; }
               class A {
                 method m() {
                   var b: Box; var x: Obj; var y: Obj; var u: Obj; var v: Obj;
                   b = new Box;
                   x = new Obj;
                   y = new Obj;
                   b.f = x;
                   b.g = y;
                   u = b.f;
                   v = b.g;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "u@A.m"), vec!["o1@A.m"]);
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "v@A.m"), vec!["o2@A.m"]);
}

#[test]
fn array_collapse_conflates_elements() {
    let src = "class Obj { }
               class A {
                 method m() {
                   var arr: Obj[]; var x: Obj; var y: Obj; var u: Obj;
                   arr = new Obj[];
                   x = new Obj; y = new Obj;
                   arr[] = x;
                   arr[] = y;
                   u = arr[];
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    // All elements collapse into `arr`: u sees both stores.
    assert_eq!(
        pts_names(&p, &cfg, &NoJmpStore, "u@A.m"),
        vec!["o1@A.m", "o2@A.m"]
    );
}

#[test]
fn flows_to_is_dual_of_points_to() {
    let src = "class Obj { }
               class A { method m() {
                 var a: Obj; var b: Obj;
                 a = new Obj; b = a;
               } }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
    let o = node(&p, "o0@A.m");
    let out = solver.flows_to_query(o, 0);
    let mut names: Vec<String> = out
        .answer
        .nodes()
        .unwrap()
        .iter()
        .map(|&n| p.node(n).name.to_string())
        .collect();
    names.sort();
    assert_eq!(names, vec!["a@A.m", "b@A.m"]);
}

#[test]
fn budget_exhaustion_reports_out_of_budget() {
    let src = "class Obj { }
               class A { method m() {
                 var a: Obj; var b: Obj; var c: Obj; var d: Obj;
                 a = new Obj; b = a; c = b; d = c;
               } }";
    let p = pag(src);
    let cfg = SolverConfig::default().with_budget(2);
    let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
    let out = solver.points_to_query(node(&p, "d@A.m"), 0);
    assert_eq!(out.answer, Answer::OutOfBudget);
    assert!(!out.stats.early_terminated);
    assert_eq!(out.stats.charged_steps, 3, "aborts on the tick after B");
}

#[test]
fn steps_are_counted_per_pop() {
    let src = "class Obj { }
               class A { method m() { var a: Obj; a = new Obj; } }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
    let out = solver.points_to_query(node(&p, "a@A.m"), 0);
    assert_eq!(out.stats.charged_steps, 1);
    assert_eq!(out.stats.traversed_steps, 1);
}

/// Data sharing: a second query that traverses *through* a node whose
/// `ReachableNodes` result was recorded must take the finished shortcut,
/// produce the same answer, and traverse fewer steps.
#[test]
fn finished_shortcut_reused_across_queries() {
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p: Box; var q: Box;
                   var x1: Obj; var w: Obj; var y: Obj;
                   p = new Box;
                   q = p;
                   y = new Obj;
                   q.f = y;
                   x1 = p.f;
                   w = x1;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig {
        tau_finished: 0, // record every shortcut for this test
        tau_unfinished: 0,
        ..SolverConfig::default()
    };
    let store = SharedJmpStore::new();

    let baseline = pts_names(&p, &SolverConfig::default(), &NoJmpStore, "w@A.m");

    let mut solver = Solver::new(&p, &cfg, &store);
    let first = solver.points_to_query(node(&p, "x1@A.m"), 0);
    assert!(
        first.stats.finished_published > 0,
        "first query records jmps"
    );
    assert!(store.stats().finished_entries > 0);

    // The second query reaches x1 via `w = x1` and takes x1's shortcut
    // instead of redoing the alias computation.
    let second = solver.points_to_query(node(&p, "w@A.m"), 0);
    assert!(
        second.stats.shortcuts_taken > 0,
        "second query takes shortcuts"
    );
    assert!(second.stats.steps_saved > 0);
    assert!(
        second.stats.charged_steps > second.stats.traversed_steps,
        "charged includes the shortcut cost: {:?}",
        second.stats
    );

    // Same answer as without sharing.
    let mut names: Vec<String> = second
        .answer
        .nodes()
        .unwrap()
        .iter()
        .map(|&n| p.node(n).name.to_string())
        .collect();
    names.sort();
    assert_eq!(names, baseline);
}

/// An out-of-budget query must leave unfinished jmp evidence that lets an
/// identical later query terminate early (fewer traversed steps).
#[test]
fn unfinished_jmp_causes_early_termination() {
    // The alias computation for `x1 = p.f` must itself exhaust the budget,
    // so the failure happens inside the ReachableNodes(x1) frame: the base
    // pointer p is at the end of a long assignment chain.
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p0: Box; var c1: Box; var c2: Box; var c3: Box;
                   var c4: Box; var c5: Box; var p: Box;
                   var x1: Obj; var y: Obj;
                   p0 = new Box;
                   c1 = p0; c2 = c1; c3 = c2; c4 = c3; c5 = c4; p = c5;
                   y = new Obj;
                   p0.f = y;
                   x1 = p.f;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig {
        tau_finished: 0,
        tau_unfinished: 0,
        budget: 5,
        ..SolverConfig::default()
    };
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &cfg, &store);

    let first = solver.points_to_query(node(&p, "x1@A.m"), 0);
    assert_eq!(first.answer, Answer::OutOfBudget);
    assert!(
        first.stats.unfinished_published > 0,
        "OOB query must record unfinished jmps: {:?}",
        first.stats
    );
    assert!(store.stats().unfinished > 0);

    let second = solver.points_to_query(node(&p, "x1@A.m"), 0);
    assert_eq!(second.answer, Answer::OutOfBudget);
    assert!(second.stats.early_terminated, "{:?}", second.stats);
    assert!(second.stats.traversed_steps < first.stats.traversed_steps);
}

/// `a0 = new Obj; a1 = a0; …; a{n} = a{n-1}; q1 = a{n}; q2 = q1;` plus
/// `q1 = v` with `v = new Obj`: backward from `q1` the walk is `n + 3`
/// pops long, forward from `v`'s object it is three.
fn chain_into_q1(n: usize) -> Pag {
    let vars: String = (0..=n).map(|i| format!(" var a{i}: Obj;")).collect();
    let copies: String = (1..=n).map(|i| format!(" a{i} = a{};", i - 1)).collect();
    pag(&format!(
        "class Obj {{ }} class A {{ method m() {{ var q1: Obj; var q2: Obj; var v: Obj;{vars} \
         a0 = new Obj;{copies} q1 = a{n}; v = new Obj; q1 = v; q2 = q1; }} }}"
    ))
}

fn starts(store: &SharedJmpStore) -> &ExhaustedStarts {
    store
        .exhausted_starts()
        .expect("a sharing store keeps starts")
}

/// A query that runs out of its budget `B` leaves its start with bound
/// `B + 1`, and a later query whose walk pops that start at the empty
/// context stops there, long before its own budget runs out.
#[test]
fn a_walk_that_pops_an_exhausted_start_terminates_early() {
    let p = chain_into_q1(100);
    let cfg = SolverConfig::default()
        .with_budget(40)
        .without_tau_thresholds();
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &cfg, &store);
    let (q1, q2) = (node(&p, "q1@A.m"), node(&p, "q2@A.m"));

    let first = solver.points_to_query(q1, 0);
    assert_eq!(first.answer, Answer::OutOfBudget);
    assert!(!first.stats.early_terminated);
    assert_eq!(first.stats.traversed_steps, 41);
    assert_eq!(starts(&store).get(Dir::Bwd, q1).map(|(s, _)| s), Some(41));

    let second = solver.points_to_query(q2, 0);
    assert_eq!(second.answer, Answer::OutOfBudget);
    assert!(second.stats.early_terminated, "{:?}", second.stats);
    // `q2`, then `q1`.
    assert_eq!(second.stats.traversed_steps, 2);
    // The rule's own verdict is evidence too: `q2` is recorded.
    assert_eq!(starts(&store).get(Dir::Bwd, q2).map(|(s, _)| s), Some(41));
    assert_eq!(starts(&store).len(), 2);

    // Neither sharing-free nor fresh, a solver under the same budget
    // agrees that `q2` runs out.
    let plain = Solver::new(&p, &cfg, &NoJmpStore).points_to_query(q2, 0);
    assert_eq!(plain.answer, Answer::OutOfBudget);
    assert!(plain.stats.traversed_steps > 40);
}

/// The rule reads only what it proves: the walk's direction, the empty
/// context, a budget below the bound, an entry visible at the reader's
/// instant — and a store that holds none of the other exits.
#[test]
fn exhausted_starts_fire_only_where_they_hold() {
    let p = chain_into_q1(100);
    let tight = SolverConfig::default()
        .with_budget(40)
        .without_tau_thresholds();
    let (q1, q2) = (node(&p, "q1@A.m"), node(&p, "q2@A.m"));
    let store = SharedJmpStore::new();
    let first = Solver::new(&p, &tight, &store).points_to_query(q1, 500);
    assert_eq!(first.answer, Answer::OutOfBudget);
    let (s, created_at) = starts(&store).get(Dir::Bwd, q1).unwrap();
    assert_eq!((s, created_at), (41, 500 + 41));

    // Across directions: `v`'s object flows through `q1` forward in three
    // pops, and the backward bound says nothing about that.
    let v = node(&p, "v@A.m");
    let new_v = p
        .edges()
        .iter()
        .find(|e| e.dst == v && e.kind == EdgeKind::New);
    let o = new_v.expect("v's allocation").src;
    let fwd = Solver::new(&p, &tight, &store).flows_to_query(o, 0);
    let reached = fwd.answer.nodes().expect("forward walk completes");
    assert!(
        reached.contains(&q1) && reached.contains(&q2),
        "{reached:?}"
    );
    assert!(!fwd.stats.early_terminated);

    // Under a budget the bound does not exceed: recorded under 40, read
    // under 1000, `q2` completes through the whole chain.
    let ample = tight.clone().with_budget(1000);
    let wide = Solver::new(&p, &ample, &store).points_to_query(q2, 0);
    assert_eq!(wide.answer.nodes().map(|n| n.len()), Some(2));
    assert!(!wide.stats.early_terminated);
    // Under the same budget and below it, it fires.
    for b in [40, 12] {
        let cfg = tight.clone().with_budget(b);
        let out = Solver::new(&p, &cfg, &store).points_to_query(q2, 0);
        assert!(out.stats.early_terminated, "budget {b}");
    }

    // On the virtual clock a reader before the stamp does not see it.
    let before = SharedJmpStore::new();
    Solver::new(&p, &tight, &before).points_to_query(q1, 500);
    let mut lane = Solver::new(&p, &tight, &before).in_batch(0, true);
    assert!(lane.points_to_query(q2, 541).stats.early_terminated);
    assert!(!lane.points_to_query(q2, 0).stats.early_terminated);

    // At a non-empty context: `id`'s `r` is exhausted from the empty
    // context, where its `param` edges lead to both callers' arguments
    // and one of them down a long chain. From `y`, the walk enters `r`
    // under `y`'s call site and sees only `s`.
    let vars: String = (0..=100).map(|i| format!(" var a{i}: Obj;")).collect();
    let copies: String = (1..=100).map(|i| format!(" a{i} = a{};", i - 1)).collect();
    let p = pag(&format!(
        "class Obj {{ }} class A {{ \
         method id(x: Obj): Obj {{ var r: Obj; r = x; return r; }} \
         method m() {{ var s: Obj; var y: Obj; var z: Obj;{vars} a0 = new Obj;{copies} \
         z = call this.id(a100); s = new Obj; y = call this.id(s); }} }}"
    ));
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &tight, &store);
    let r = solver.points_to_query(node(&p, "r@A.id"), 0);
    assert_eq!(r.answer, Answer::OutOfBudget);
    assert_eq!(starts(&store).len(), 1);
    let y = solver.points_to_query(node(&p, "y@A.m"), 0);
    assert_eq!(y.answer.nodes().map(|n| n.len()), Some(1), "{:?}", y.stats);
}

/// A burn and an unfinished-entry early termination leave no start: a
/// re-entry depends on the frames around the walk, and an unfinished
/// bound was measured from another frame, so neither shows that the
/// query's own walk costs more than `B`.
#[test]
fn burns_and_unfinished_exits_leave_no_start() {
    // `x = p.f` with `p = x`: answering `x` needs `ReachableNodes(x)`,
    // whose `PointsTo(p)` pops `x` and needs it again — a re-entry.
    let p = pag("class Box { field f: Box; }
                 class A { method m() {
                   var p: Box; var x: Box; var y: Box;
                   p = new Box; p.f = p; x = p.f; p = x; y = x;
                 } }");
    let cfg = SolverConfig::default()
        .with_budget(1_000)
        .without_tau_thresholds();
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &cfg, &store);
    let (x, y) = (node(&p, "x@A.m"), node(&p, "y@A.m"));
    let burned = solver.points_to_query(x, 0);
    assert_eq!(burned.answer, Answer::OutOfBudget);
    assert!(!burned.stats.early_terminated);
    assert!(burned.stats.unfinished_published > 0);
    // Both later queries end on the unfinished entry the burn left.
    for q in [x, y] {
        let out = solver.points_to_query(q, 0);
        assert!(out.stats.early_terminated, "{:?}", out.stats);
    }
    assert!(starts(&store).is_empty());

    // The depth guard: in a chain of 600 loads `x0` opens one traversal
    // past `MAX_RECURSION_DEPTH` and burns (see
    // `scratch_is_clean_after_budget_exhaustion`).
    let vars: String = (0..=600).map(|i| format!(" var x{i}: Box;")).collect();
    let loads: String = (0..600).map(|i| format!(" x{i} = x{}.f;", i + 1)).collect();
    let chain = pag(&format!(
        "class Box {{ field f: Box; }} class A {{ method m() {{ var y: Box;{vars}{loads} \
         x600 = new Box; y = new Box; x600.f = y; }} }}"
    ));
    let cfg = SolverConfig::default().without_tau_thresholds();
    let store = SharedJmpStore::new();
    let deep = std::thread::scope(|s| {
        let worker = std::thread::Builder::new().stack_size(64 << 20);
        let run = worker.spawn_scoped(s, || {
            Solver::new(&chain, &cfg, &store).points_to_query(node(&chain, "x0@A.m"), 0)
        });
        run.unwrap().join().expect("the chain fits the stack")
    });
    assert_eq!(deep.answer, Answer::OutOfBudget);
    assert!(!deep.stats.early_terminated);
    assert!(starts(&store).is_empty());
}

/// Sharing must never change answers, only costs: sweep every
/// application-code variable of a program with heap traffic and compare.
#[test]
fn sharing_preserves_answers_program_wide() {
    let src = "class Obj { }
               class Node { field next: Node; field val: Obj; }
               class A {
                 method build(): Node {
                   var n1: Node; var n2: Node; var v: Obj;
                   n1 = new Node;
                   n2 = new Node;
                   v = new Obj;
                   n1.next = n2;
                   n2.val = v;
                   return n1;
                 }
                 method m() {
                   var h: Node; var t: Node; var x: Obj;
                   h = call this.build();
                   t = h.next;
                   x = t.val;
                 }
               }";
    let p = pag(src);
    let plain = SolverConfig::default();
    let sharing = SolverConfig {
        tau_finished: 0,
        tau_unfinished: 0,
        ..SolverConfig::default()
    };
    let store = SharedJmpStore::new();
    let mut s1 = Solver::new(&p, &plain, &NoJmpStore);
    let mut s2 = Solver::new(&p, &sharing, &store);
    for v in p.application_locals() {
        let a = s1.points_to_query(v, 0).answer;
        let b = s2.points_to_query(v, 0).answer;
        assert_eq!(a, b, "answers diverged on {}", p.node(v).name);
    }
    // The chained loads above must have resolved through the call.
    let x = pts_names(&p, &plain, &NoJmpStore, "x@A.m");
    assert_eq!(x, vec!["o2@A.build"]);
}

#[test]
fn tau_thresholds_suppress_publication() {
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p: Box; var y: Obj; var x: Obj;
                   p = new Box;
                   y = new Obj;
                   p.f = y;
                   x = p.f;
                 }
               }";
    let p = pag(src);
    // This tiny program's ReachableNodes costs only a handful of steps,
    // below the default τF: nothing may be recorded.
    let cfg = SolverConfig::default();
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &cfg, &store);
    let out = solver.points_to_query(node(&p, "x@A.m"), 0);
    assert!(matches!(out.answer, Answer::Complete(_)));
    assert_eq!(store.stats().total_edges(), 0, "τF filters small shortcuts");
}

#[test]
fn recursion_guard_degrades_to_out_of_budget() {
    // Mutually-dependent heap loads force a re-entrant call: PointsTo(p)
    // asks ReachableNodes(p), whose alias step asks PointsTo(q), whose
    // ReachableNodes(q) asks PointsTo(p) again. The solver burns the rest
    // of the budget at once, never hanging or overflowing, and publishes
    // an unfinished jmp for each ReachableNodes frame open at that moment.
    let p = pag("class Box { field f: Box; }
                 class A { method m() {
                   var p: Box; var q: Box;
                   p = new Box; q = p.f; q.f = p; p = q.f;
                 } }");
    let cfg = SolverConfig {
        tau_unfinished: 0,
        ..SolverConfig::default()
    };
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &cfg, &store);
    let out = solver.points_to_query(node(&p, "p@A.m"), 0);
    assert_eq!(out.answer, Answer::OutOfBudget);
    let b = cfg.budget;
    let steps = (out.stats.traversed_steps, out.stats.charged_steps);
    assert_eq!(steps, (b + 1, b + 1));
    // R(p) opened after one step, R(q) after two: each `s` is what the
    // query had charged since (capped at B).
    let mut published = Vec::new();
    store.for_each(|&(dir, x, c), e| {
        assert!(!e.is_finished() && dir == Dir::Bwd && c.is_empty());
        published.push((p.node(x).name.as_str(), e.steps()));
    });
    published.sort();
    assert_eq!(published, [("p@A.m", b), ("q@A.m", b - 1)]);
    assert_eq!(out.stats.unfinished_published, 2);
}

/// One scripted question for [`reused_matches_fresh`].
enum Ask {
    Pts(&'static str),
    Flows(&'static str),
}

/// Answers `script` twice — on one solver that keeps its scratch, and on a
/// solver created for each question — and holds every output of the
/// first to the second, field for field. Each side publishes into its own
/// store, so the two evolve in lockstep; both stores carry an interner,
/// so context ids agree when the thresholds let nothing be published too.
fn reused_matches_fresh(p: &Pag, cfg: &SolverConfig, script: &[Ask]) -> Vec<QueryOutput> {
    let (reused_store, fresh_store) = (SharedJmpStore::new(), SharedJmpStore::new());
    let mut reused = Solver::new(p, cfg, &reused_store);
    let ask = |solver: &mut Solver<'_>, ask: &Ask| match ask {
        Ask::Pts(v) => solver.points_to_query(node(p, v), 0),
        Ask::Flows(o) => solver.flows_to_query(node(p, o), 0),
    };
    script
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let kept = ask(&mut reused, a);
            let fresh = ask(&mut Solver::new(p, cfg, &fresh_store), a);
            assert_eq!(kept.answer, fresh.answer, "question {i} under {cfg:?}");
            assert_eq!(kept.stats, fresh.stats, "question {i} under {cfg:?}");
            kept
        })
        .collect()
}

/// The scratch is reset at query entry: a query that follows an
/// out-of-budget exit or a depth-guard burn — both unwind through `?`
/// with their frames still open — starts from exactly the state a fresh
/// solver would.
#[test]
fn scratch_is_clean_after_budget_exhaustion() {
    // `x1 = p.f` needs PointsTo(p) (7 steps down the chain) and then
    // FlowsTo(o0) (8 more): under budget 10 it dies inside FlowsTo, nested
    // in ReachableNodes(x1), leaving all three calls open. Everything else
    // fits the budget.
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p0: Box; var c1: Box; var c2: Box; var c3: Box;
                   var c4: Box; var c5: Box; var p: Box;
                   var x1: Obj; var y: Obj;
                   p0 = new Box;
                   c1 = p0; c2 = c1; c3 = c2; c4 = c3; c5 = c4; p = c5;
                   y = new Obj;
                   p0.f = y;
                   x1 = p.f;
                 }
               }";
    let p = pag(src);
    // After each exhausting `x1`: the calls it left open, asked at top
    // level (a stale open frame would burn them), then `x1` again (a stale
    // frame would publish twice).
    let script = [
        Ask::Pts("x1@A.m"),
        Ask::Flows("o0@A.m"),
        Ask::Pts("p@A.m"),
        Ask::Pts("y@A.m"),
        Ask::Pts("x1@A.m"),
        Ask::Pts("c3@A.m"),
        Ask::Flows("o0@A.m"),
        Ask::Pts("x1@A.m"),
    ];
    // The depth guard at its real bound. In an `x_i = x_{i+1}.f` chain of
    // 600 loads ending in a store `x600.f = y`, answering `x_i` nests one
    // PointsTo per load: `x89`'s 511 loads stay under the guard, `x88`'s
    // 512 and `x0`'s 600 burn the budget on opening one traversal past
    // `MAX_RECURSION_DEPTH`. An unoptimised build needs ≈ 10 KB of stack
    // per level (DESIGN.md §7), so this runs on a worker-sized stack.
    let vars: String = (0..=600).map(|i| format!(" var x{i}: Box;")).collect();
    let loads: String = (0..600).map(|i| format!(" x{i} = x{}.f;", i + 1)).collect();
    let chain = pag(&format!(
        "class Box {{ field f: Box; }} class A {{ method m() {{ var y: Box;{vars}{loads} \
         x600 = new Box; y = new Box; x600.f = y; }} }}"
    ));
    let deep = ["x0@A.m", "x89@A.m", "x88@A.m", "x0@A.m"].map(Ask::Pts);
    let oob = |o: &QueryOutput| o.answer == Answer::OutOfBudget;
    for state in [StateBackend::Hash, StateBackend::Dense] {
        for (publishing, record_footprints) in [(false, false), (true, false), (true, true)] {
            let tau = if publishing { 0 } else { u64::MAX };
            let cfg = SolverConfig {
                tau_finished: tau,
                tau_unfinished: tau,
                record_footprints,
                state,
                ..SolverConfig::default()
            };
            let short = cfg.clone().with_budget(10);
            let outs = reused_matches_fresh(&p, &short, &script);
            assert!([0, 4, 7].iter().all(|&i| oob(&outs[i])), "x1 exhausts");
            let rest = outs[1..4].iter().chain(&outs[5..7]);
            assert!(rest.into_iter().all(|o| !oob(o)), "the rest completes");
            assert!(outs[0].stats.state_words > 0);
            if publishing {
                assert!(outs[0].stats.unfinished_published > 0, "{short:?}");
                assert!(outs[4].stats.early_terminated, "{short:?}");
            }

            let outs = std::thread::scope(|s| {
                let worker = std::thread::Builder::new().stack_size(64 << 20);
                let run = worker.spawn_scoped(s, || reused_matches_fresh(&chain, &cfg, &deep));
                run.unwrap().join().expect("the chain fits the stack")
            });
            let (b, first) = (cfg.budget, &outs[0].stats);
            assert_eq!((first.charged_steps, first.traversed_steps), (b + 1, b + 1));
            assert!(!oob(&outs[1]) && oob(&outs[3]), "{cfg:?}");
            // Shared, `x89`'s finished entry lets `x88` through; alone, its
            // 512 loads reach the guard.
            assert_eq!(oob(&outs[2]), !publishing, "{cfg:?}");
            assert_eq!(outs[3].stats.early_terminated, publishing, "{cfg:?}");
        }
    }
}

#[test]
fn query_on_isolated_variable_is_empty() {
    let src = "class Obj { }
               class A { method m() { var lonely: Obj; return; } }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
    let out = solver.points_to_query(node(&p, "lonely@A.m"), 0);
    assert_eq!(out.answer, Answer::Complete(vec![].into()));
}

/// Virtual-time visibility: on the virtual clock a query starting before
/// an entry's creation must not see it; one starting after must.
#[test]
fn virtual_clock_gates_visibility() {
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p: Box; var q: Box; var x1: Obj; var x2: Obj; var y: Obj;
                   p = new Box;
                   q = p;
                   y = new Obj;
                   q.f = y;
                   x1 = p.f;
                   x2 = p.f;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig {
        tau_finished: 0,
        tau_unfinished: 0,
        ..SolverConfig::default()
    };
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &cfg, &store).in_batch(0, true);

    // Query 1 runs at virtual times [1000, ...): publishes entries ~1000+.
    let first = solver.points_to_query(node(&p, "x1@A.m"), 1000);
    let published_work = first.stats.traversed_steps;

    // A query whose whole execution precedes the publication sees nothing.
    let early = solver.points_to_query(node(&p, "x2@A.m"), 0);
    assert_eq!(early.stats.shortcuts_taken, 0, "entries not yet visible");

    // A query starting after the publication takes the shortcut.
    let late = solver.points_to_query(node(&p, "x2@A.m"), 1000 + published_work + 1);
    assert!(late.stats.shortcuts_taken > 0);
    assert_eq!(early.answer, late.answer);

    // Off the virtual clock (a real thread) the early query takes it too:
    // the stamp is the publisher's clock, not a claim about the reader's.
    let real = Solver::new(&p, &cfg, &store).points_to_query(node(&p, "x2@A.m"), 0);
    assert!(real.stats.shortcuts_taken > 0);
    assert_eq!(real.answer, late.answer);
}

/// A lane materialises each call string once: two answers holding the
/// same context hold one allocation of it.
#[test]
fn answers_of_one_lane_share_their_contexts() {
    let p = pag("class Obj { }
                 class A {
                   method mk(): Obj { var t: Obj; t = new Obj; return t; }
                   method m() {
                     var x: Obj; var z: Obj;
                     x = call this.mk();
                     z = x;
                   }
                 }");
    let (cfg, store) = (SolverConfig::default(), SharedJmpStore::new());
    let mut solver = Solver::new(&p, &cfg, &store);
    let mut ask = |var: &str| solver.points_to_query(node(&p, var), 0).answer;
    let (x, z) = (ask("x@A.m"), ask("z@A.m"));
    let (x, z) = (&x.complete().unwrap()[0], &z.complete().unwrap()[0]);
    assert_eq!(x, z);
    assert_eq!(
        x.1.as_slice().len(),
        1,
        "the object is reached through the call"
    );
    assert_eq!(x.1.as_slice().as_ptr(), z.1.as_slice().as_ptr());
}

#[test]
fn three_level_call_chain_contexts_match() {
    // Values threaded through three nested calls must keep their origins
    // separate at every level.
    let src = "class Obj { }
               class P extends Obj { }
               class Q extends Obj { }
               class A {
                 method l3(o: Obj): Obj { return o; }
                 method l2(o: Obj): Obj { var r: Obj; r = call this.l3(o); return r; }
                 method l1(o: Obj): Obj { var r: Obj; r = call this.l2(o); return r; }
                 method m() {
                   var a: Obj; var b: Obj; var x: Obj; var y: Obj;
                   a = new P;
                   b = new Q;
                   x = call this.l1(a);
                   y = call this.l1(b);
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "x@A.m"), vec!["o0@A.m"]);
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "y@A.m"), vec!["o1@A.m"]);
}

#[test]
fn flows_to_respects_contexts_forward() {
    // Forward duality of the wrapper test: the P object flows to a and x
    // but NOT to y (which only receives the Q object).
    let src = "class Obj { }
               class P extends Obj { }
               class Q extends Obj { }
               class A {
                 method id(o: Obj): Obj { return o; }
                 method m() {
                   var a: Obj; var b: Obj; var x: Obj; var y: Obj;
                   a = new P;
                   b = new Q;
                   x = call this.id(a);
                   y = call this.id(b);
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
    let o_p = node(&p, "o0@A.m");
    let reached = solver.flows_to_query(o_p, 0).answer.nodes().unwrap();
    let names: Vec<String> = reached
        .iter()
        .map(|&n| p.node(n).name.to_string())
        .collect();
    assert!(names.contains(&"a@A.m".to_string()), "{names:?}");
    assert!(names.contains(&"x@A.m".to_string()), "{names:?}");
    assert!(
        !names.contains(&"y@A.m".to_string()),
        "P must not flow to y: {names:?}"
    );
}

#[test]
fn globals_clear_context_in_both_directions() {
    // Values stored into a static from one call chain are visible from
    // any other chain (globals are context-insensitive), even though the
    // local paths would be unrealisable.
    let src = "class Obj { }
               class A {
                 static field g: Obj;
                 method put(o: Obj) { A.g = o; }
                 method take(): Obj { var r: Obj; r = A.g; return r; }
                 method m() {
                   var v: Obj; var w: Obj;
                   v = new Obj;
                   call this.put(v);
                   w = call this.take();
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    assert_eq!(pts_names(&p, &cfg, &NoJmpStore, "w@A.m"), vec!["o0@A.m"]);
}

#[test]
fn mismatched_return_site_blocks_flow() {
    // w takes from `take`, but nothing ever flows into A.g from this
    // program path: the *other* static f is written instead.
    let src = "class Obj { }
               class A {
                 static field g: Obj;
                 static field h: Obj;
                 method m() {
                   var v: Obj; var w: Obj;
                   v = new Obj;
                   A.h = v;
                   w = A.g;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    assert_eq!(
        pts_names(&p, &cfg, &NoJmpStore, "w@A.m"),
        Vec::<String>::new(),
        "distinct statics do not conflate"
    );
}

#[test]
fn charged_steps_equal_traversed_without_sharing() {
    let src = "class Obj { }
               class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }";
    let p = pag(src);
    let cfg = SolverConfig::default();
    let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
    let out = solver.points_to_query(node(&p, "b@A.m"), 0);
    assert_eq!(out.stats.charged_steps, out.stats.traversed_steps);
    assert_eq!(out.stats.steps_saved, 0);
    assert_eq!(out.stats.shortcuts_taken, 0);
    assert!(out.stats.mem_items >= out.stats.traversed_steps);
}

#[test]
fn early_termination_implies_out_of_budget_answer() {
    // Structural invariant over a whole shared batch: ET ⇒ OOB.
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p0: Box; var c1: Box; var c2: Box; var c3: Box; var p: Box;
                   var x1: Obj; var x2: Obj; var y: Obj;
                   p0 = new Box;
                   c1 = p0; c2 = c1; c3 = c2; p = c3;
                   y = new Obj;
                   p0.f = y;
                   x1 = p.f;
                   x2 = p.f;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig {
        tau_finished: 0,
        tau_unfinished: 0,
        budget: 5,
        ..SolverConfig::default()
    };
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &cfg, &store);
    for v in p.application_locals() {
        let out = solver.points_to_query(v, 0);
        if out.stats.early_terminated {
            assert_eq!(out.answer, Answer::OutOfBudget);
        }
    }
}

mod witness_tests {
    use super::*;
    use crate::witness::Via;

    #[test]
    fn witness_for_assignment_chain() {
        let p = pag("class Obj { }
                     class A { method m() {
                       var a: Obj; var b: Obj; var c: Obj;
                       a = new Obj; b = a; c = b;
                     } }");
        let cfg = SolverConfig::default();
        let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
        let c = node(&p, "c@A.m");
        let (out, trace) = solver.traced_points_to_query(c, 0);
        let objs = out.answer.complete().unwrap().to_vec();
        assert_eq!(objs.len(), 1);
        let (o, ctx) = &objs[0];
        let w = trace.witness(*o, ctx).expect("witness exists");
        let names: Vec<String> = w
            .steps
            .iter()
            .map(|s| p.node(s.node).name.to_string())
            .collect();
        assert_eq!(names, vec!["c@A.m", "b@A.m", "a@A.m", "o0@A.m"]);
        assert!(matches!(w.steps[0].via, Via::Edge(_)));
        assert!(matches!(w.steps[2].via, Via::New));
        assert!(matches!(w.steps[3].via, Via::Object));
        assert_eq!(w.steps.len(), 4);
        // Rendering mentions every node once.
        let text = w.render(&p);
        for n in names {
            assert!(text.contains(&n), "{text}");
        }
    }

    #[test]
    fn witness_through_heap_hop_is_alias_step() {
        let p = pag("class Obj { }
                     class Box { field f: Obj; }
                     class A { method m() {
                       var bx: Box; var v: Obj; var r: Obj;
                       bx = new Box;
                       v = new Obj;
                       bx.f = v;
                       r = bx.f;
                     } }");
        let cfg = SolverConfig::default();
        let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
        let r = node(&p, "r@A.m");
        let (out, trace) = solver.traced_points_to_query(r, 0);
        let objs = out.answer.complete().unwrap().to_vec();
        assert_eq!(objs.len(), 1);
        let (o, ctx) = &objs[0];
        let w = trace.witness(*o, ctx).unwrap();
        // r -[alias]-> v -[new]-> o1.
        assert!(
            w.steps.iter().any(|s| matches!(s.via, Via::Alias)),
            "{:?}",
            w.steps
        );
    }

    #[test]
    fn witness_none_for_foreign_object() {
        let p = pag("class Obj { }
                     class A { method m() {
                       var a: Obj; var z: Obj;
                       a = new Obj; z = new Obj;
                     } }");
        let cfg = SolverConfig::default();
        let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
        let a = node(&p, "a@A.m");
        let (_, trace) = solver.traced_points_to_query(a, 0);
        // z's object never reaches a.
        let z_obj = node(&p, "o1@A.m");
        assert!(trace.witness(z_obj, &crate::Ctx::empty()).is_none());
    }

    #[test]
    fn traced_answers_match_untraced() {
        let p = pag("class Obj { }
                     class A {
                       method id(o: Obj): Obj { return o; }
                       method m() {
                         var a: Obj; var x: Obj;
                         a = new Obj;
                         x = call this.id(a);
                       }
                     }");
        let cfg = SolverConfig::default();
        let mut solver = Solver::new(&p, &cfg, &NoJmpStore);
        for v in p.application_locals() {
            let plain = solver.points_to_query(v, 0);
            let (traced, trace) = solver.traced_points_to_query(v, 0);
            assert_eq!(plain.answer, traced.answer);
            // Every object in the answer has a witness.
            if let Some(objs) = traced.answer.complete() {
                for (o, c) in objs {
                    assert!(
                        trace.witness(*o, c).is_some(),
                        "missing witness for {} in pts({})",
                        p.node(*o).name,
                        p.node(v).name
                    );
                }
            }
        }
    }
}

/// A recording solver hands each complete answer the footprint of
/// everything the query read — top-level reads, nested traversals' and
/// what a shortcut stands for — and nothing else gets one.
#[test]
fn complete_answers_leave_with_their_whole_query_footprint() {
    use crate::footprint::{dirtying, Footprint};
    use crate::jmp::JmpEntry;
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p: Box; var v: Obj; var x: Obj; var y: Obj; var far: Obj;
                   p = new Box; v = new Obj; p.f = v; x = p.f; y = x;
                   far = new Obj;
                 }
               }";
    let p = pag(src);
    let n = |name: &str| node(&p, &format!("{name}@A.m"));
    let f = parcfl_pag::FieldId::new(1);
    let publishing = SolverConfig::default().without_tau_thresholds();
    let recording = publishing.clone().with_footprints();

    // Off, out of budget: none.
    let off = Solver::new(&p, &publishing, &NoJmpStore).points_to_query(n("y"), 0);
    assert!(off.answer.complete().is_some() && off.footprint.is_none());
    let starved = recording.clone().with_budget(1);
    let oob = Solver::new(&p, &starved, &NoJmpStore).points_to_query(n("y"), 0);
    assert_eq!(
        (oob.answer, oob.footprint.is_none()),
        (Answer::OutOfBudget, true)
    );

    // On: the top-level reads (y, x), the alias step's (p, v, the field)
    // and not the rest of the program — with or without a store.
    let reads = |fp: &Footprint, n: NodeId| fp.intersects(&dirtying(&[n.raw()], &[]));
    let touches = |out: &QueryOutput, want: bool| {
        let fp = out.footprint.as_ref().expect("a complete recorded answer");
        for name in ["x", "p", "v"] {
            assert_eq!(reads(fp, n(name)), want, "{name}");
        }
        assert_eq!(fp.intersects(&dirtying(&[], &[f.raw()])), want);
        assert!(reads(fp, n("y")) && !reads(fp, n("far")));
    };
    touches(
        &Solver::new(&p, &recording, &NoJmpStore).points_to_query(n("y"), 0),
        true,
    );
    let store = SharedJmpStore::new();
    let mut solver = Solver::new(&p, &recording, &store);
    let first = solver.points_to_query(n("x"), 0);
    assert!(first.stats.finished_published > 0);
    // A query that only takes the shortcut reads what the shortcut read.
    let second = solver.points_to_query(n("y"), 0);
    assert!(second.stats.shortcuts_taken > 0);
    assert!(second.stats.traversed_steps < off.stats.traversed_steps);
    touches(&second, true);
    assert_eq!(second.answer, off.answer);

    // A shortcut without a footprint leaves the answer without one; a
    // query that never meets it keeps its own.
    let bare = SharedJmpStore::new();
    store.for_each(|key, entry| {
        if let JmpEntry::Finished {
            total_steps, rch, ..
        } = entry
        {
            bare.publish_finished(*key, *total_steps, rch.clone(), 0, None);
        }
    });
    let mut solver = Solver::new(&p, &recording, &bare);
    let poisoned = solver.points_to_query(n("y"), 0);
    assert_eq!(poisoned.answer, off.answer);
    assert!(poisoned.stats.shortcuts_taken > 0 && poisoned.footprint.is_none());
    let clean = solver.points_to_query(n("far"), 0);
    assert_eq!(clean.footprint.expect("no shortcut taken").node_count(), 1);
}

/// A solver kept across a `clear` or an invalidation serves nothing the
/// store dropped: its lane copy of the entries it was served goes with the
/// store's epoch, and the next query costs what a fresh solver's does.
#[test]
fn kept_solver_serves_nothing_the_store_dropped() {
    use crate::footprint::dirtying;
    let src = "class Obj { }
               class Box { field f: Obj; }
               class A {
                 method m() {
                   var p: Box; var v: Obj; var x: Obj; var y: Obj;
                   p = new Box; v = new Obj; p.f = v; x = p.f; y = x;
                 }
               }";
    let p = pag(src);
    let cfg = SolverConfig::default()
        .without_tau_thresholds()
        .with_footprints();
    let (x, y) = (node(&p, "x@A.m"), node(&p, "y@A.m"));
    let cold = Solver::new(&p, &cfg, &SharedJmpStore::new()).points_to_query(y, 0);
    let store = SharedJmpStore::new();
    let mut kept = Solver::new(&p, &cfg, &store);
    // Publishes `x`'s entry, then copies it into the lane on the first hit
    // and serves the second from the copy.
    kept.points_to_query(x, 0);
    for _ in 0..2 {
        let warm = kept.points_to_query(y, 0);
        assert_eq!(warm.stats.shortcuts_taken, 1);
        assert!(warm.stats.traversed_steps < cold.stats.traversed_steps);
    }
    let same_as_cold = |out: QueryOutput| {
        assert_eq!(out.answer, cold.answer);
        assert_eq!(out.stats, cold.stats);
    };
    store.clear();
    same_as_cold(kept.points_to_query(y, 0));
    // The re-run published the entry again; copy it, then dirty a node it
    // read.
    assert_eq!(kept.points_to_query(y, 0).stats.shortcuts_taken, 1);
    let dirty = dirtying(&[node(&p, "p@A.m").raw()], &[]);
    assert_eq!(store.invalidate_delta(&dirty), (1, 0));
    same_as_cold(kept.points_to_query(y, 0));
}
