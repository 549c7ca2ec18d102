//! End-to-end reproduction of the paper's running example (Fig. 2): the
//! `Vector` program whose points-to facts Section II walks through.
//!
//! The headline facts:
//! * `s1main` points to `o16` (the `String`) — the realisable path matches
//!   `param17`/`param17-bar` then `param18`/`ret18`;
//! * `s1main` does **not** point to `o20` (the `Integer`) — that path is
//!   unrealisable under context-sensitivity, but appears when contexts are
//!   ignored;
//! * the array object allocated in the constructor flows into `t_get`
//!   through the `st(elems)`/`ld(elems)` alias pair (`o6` flows to `t_get`).

use parcfl_core::{NoJmpStore, Solver, SolverConfig};
use parcfl_frontend::build_pag;
use parcfl_pag::{NodeId, Pag};

/// The Fig. 2 program, transliterated into `.mj`.
const VECTOR_MJ: &str = r#"
    lib class Object { }
    lib class String extends Object { }
    lib class Integer extends Object { }
    class Vector {
        field elems: Object[];
        method <init>() {
            var t: Object[];
            t = new Object[];
            this.elems = t;
        }
        method add(e: Object) {
            var t: Object[];
            t = this.elems;
            t[] = e;
        }
        method get(i: int): Object {
            var t: Object[];
            var r: Object;
            t = this.elems;
            r = t[];
            return r;
        }
    }
    class Main {
        static method main() {
            var v1: Vector; var n1: String; var s1: Object;
            var v2: Vector; var n2: Integer; var s2: Object;
            var i: int;
            v1 = new Vector;
            call v1.<init>();
            n1 = new String;
            call v1.add(n1);
            s1 = call v1.get(i);
            v2 = new Vector;
            call v2.<init>();
            n2 = new Integer;
            call v2.add(n2);
            s2 = call v2.get(i);
        }
    }
"#;

fn pts_names(pag: &Pag, cfg: &SolverConfig, var: &str) -> Vec<String> {
    let store = NoJmpStore;
    let mut solver = Solver::new(pag, cfg, &store);
    let v = pag.node_by_name(var).expect(var);
    let out = solver.points_to_query(v, 0);
    let mut names: Vec<String> = out
        .answer
        .nodes()
        .unwrap_or_else(|| panic!("{var} ran out of budget"))
        .iter()
        .map(|&n| pag.node(n).name.to_string())
        .collect();
    names.sort();
    names
}

fn object_of(names: &[String], alloc_ty: &str) -> bool {
    // Statement indices vary with transliteration; match by method+content.
    names.iter().any(|n| n.contains(alloc_ty))
}

#[test]
fn s1_points_to_string_not_integer() {
    let pag = build_pag(VECTOR_MJ).unwrap().pag;
    let cfg = SolverConfig::default();
    let s1 = pts_names(&pag, &cfg, "s1@Main.main");

    // Exactly one object: the String allocation (statement index 2 of
    // main). Integers never reach s1 under context-sensitivity.
    assert_eq!(s1.len(), 1, "s1 pts: {s1:?}");
    assert_eq!(s1, vec!["o2@Main.main"]);

    let s2 = pts_names(&pag, &cfg, "s2@Main.main");
    assert_eq!(s2, vec!["o7@Main.main"], "s2 sees only the Integer");
}

#[test]
fn context_insensitive_analysis_conflates_the_vectors() {
    let pag = build_pag(VECTOR_MJ).unwrap().pag;
    let cfg = SolverConfig {
        context_sensitive: false,
        ..SolverConfig::default()
    };
    let s1 = pts_names(&pag, &cfg, "s1@Main.main");
    // Without context matching the unrealisable path to the Integer
    // appears: the paper's precision argument (Section II-B2).
    assert_eq!(
        s1,
        vec!["o2@Main.main", "o7@Main.main"],
        "insensitive analysis must conflate String and Integer"
    );
}

#[test]
fn constructor_array_flows_to_get_temp() {
    // o6-analog: the Object[] allocated in Vector.<init> flows to t@get
    // via the st(elems)/ld(elems) alias pair.
    let pag = build_pag(VECTOR_MJ).unwrap().pag;
    let cfg = SolverConfig::default();
    let t_get = pts_names(&pag, &cfg, "t@Vector.get");
    assert_eq!(t_get.len(), 1, "t@get pts: {t_get:?}");
    assert!(
        t_get[0].contains("@Vector.<init>"),
        "t@get must see the constructor's array: {t_get:?}"
    );
}

#[test]
fn flows_to_duality_on_the_example() {
    // For every (object o, var v) with o ∈ pts(v): v ∈ flowsTo(o).
    let pag = build_pag(VECTOR_MJ).unwrap().pag;
    let cfg = SolverConfig::default();
    let store = NoJmpStore;
    let mut solver = Solver::new(&pag, &cfg, &store);
    let queries: Vec<NodeId> = pag.application_locals();
    for &v in &queries {
        let pts = solver.points_to_query(v, 0);
        let Some(objs) = pts.answer.nodes() else {
            continue;
        };
        for o in objs {
            let ft = solver.flows_to_query(o, 0);
            let vars = ft
                .answer
                .nodes()
                .expect("flows-to within budget on this small example");
            assert!(
                vars.contains(&v),
                "duality violated: {} ∈ pts({}) but not vice versa",
                pag.node(o).name,
                pag.node(v).name
            );
        }
    }
}

#[test]
fn fig2_statistics_are_sane() {
    let e = build_pag(VECTOR_MJ).unwrap();
    assert!(e.warnings.is_empty(), "{:?}", e.warnings);
    let stats = parcfl_pag::stats::PagStats::of(&e.pag);
    assert_eq!(stats.methods, 4, "<init>, add, get, main");
    assert!(stats.params >= 5, "param edges for receivers and args");
    assert!(stats.rets >= 2, "two get call sites");
    assert!(stats.loads >= 3);
    assert!(stats.stores >= 2);
    // Sanity on helper used above.
    assert!(object_of(
        &["o0@Vector.<init>".to_string()],
        "Vector.<init>"
    ));
}
