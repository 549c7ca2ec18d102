//! Runs the full pipeline over every `.mj` program in `examples/programs/`
//! and checks per-program expectations.

use parcfl::core::{NoJmpStore, Solver, SolverConfig};
use parcfl::frontend::build_pag;
use parcfl::pag::Pag;

fn load(name: &str) -> Pag {
    let path = format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let e = build_pag(&src).expect(name);
    assert!(e.warnings.is_empty(), "{name}: {:?}", e.warnings);
    e.pag
}

fn pts(pag: &Pag, cfg: &SolverConfig, var: &str) -> Vec<String> {
    let store = NoJmpStore;
    let mut solver = Solver::new(pag, cfg, &store);
    let v = pag.node_by_name(var).expect(var);
    let mut names: Vec<String> = solver
        .points_to_query(v, 0)
        .answer
        .nodes()
        .unwrap_or_else(|| panic!("{var}: out of budget"))
        .iter()
        .map(|&o| pag.node(o).name.to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn every_corpus_program_parses_and_extracts() {
    let dir = format!("{}/examples/programs", env!("CARGO_MANIFEST_DIR"));
    let mut count = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "mj") {
            let src = std::fs::read_to_string(&path).unwrap();
            let e = build_pag(&src).unwrap_or_else(|err| panic!("{path:?}: {err}"));
            assert!(e.pag.node_count() > 0);
            count += 1;
        }
    }
    assert!(count >= 3, "corpus has at least three programs");
}

#[test]
fn vector_precision() {
    let pag = load("vector.mj");
    let cfg = SolverConfig::default();
    assert_eq!(pts(&pag, &cfg, "s1@Main.main").len(), 1);
    assert_eq!(pts(&pag, &cfg, "s2@Main.main").len(), 1);
    assert_ne!(
        pts(&pag, &cfg, "s1@Main.main"),
        pts(&pag, &cfg, "s2@Main.main")
    );
}

#[test]
fn linked_list_recursive_heap_exhausts_budget_but_locals_resolve() {
    let pag = load("linked_list.mj");
    let cfg = SolverConfig::default();
    // The formal of push sees both pushed objects (context-insensitive
    // union over the two call sites is correct here: both really reach it).
    let v = pts(&pag, &cfg, "v@List.push");
    assert_eq!(v.len(), 2, "{v:?}");

    // Walking the recursive `next` chain makes the alias computation
    // cyclically self-dependent; the demand-driven algorithm re-traverses
    // until the budget runs out (the budget exists for exactly this —
    // Section II-B3). The query must terminate with OutOfBudget, not hang.
    let store = NoJmpStore;
    let mut solver = Solver::new(&pag, &cfg, &store);
    let got = pag.node_by_name("got@Main.main").unwrap();
    let out = solver.points_to_query(got, 0);
    assert_eq!(out.answer, parcfl::core::Answer::OutOfBudget);
    assert!(
        out.stats.charged_steps > cfg.budget,
        "budget fully consumed"
    );

    // The call-graph recursion (walk -> walk) was collapsed at extraction:
    // self-recursive param/ret edges became plain assignments.
    let e = parcfl::pag::stats::PagStats::of(&pag);
    assert!(e.params > 0);
}

#[test]
fn observer_dispatch_reaches_both_listeners() {
    let pag = load("observer.mj");
    let cfg = SolverConfig::default();
    // The event flows into both concrete listeners' fields via CHA.
    let seen = pts(&pag, &cfg, "seen@Main.main");
    assert_eq!(seen, vec!["o5@Main.main"], "{seen:?}");
    // e@Logger.on and e@Counter.on both receive the event.
    for formal in ["e@Logger.on", "e@Counter.on"] {
        let p = pts(&pag, &cfg, formal);
        assert_eq!(p, vec!["o5@Main.main"], "{formal}");
    }
}
