//! Quickstart: analyse the paper's Fig. 2 `Vector` program and print the
//! points-to sets of its `main` locals.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parcfl::core::{NoJmpStore, Solver, SolverConfig};
use parcfl::frontend::build_pag;

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

fn main() {
    // 1. Frontend: parse + extract the Pointer Assignment Graph.
    let extraction = build_pag(VECTOR_MJ).expect("valid program");
    let pag = extraction.pag;
    println!("PAG: {}", parcfl::pag::stats::PagStats::of(&pag));

    // 2. Demand-driven, context- and field-sensitive points-to queries.
    let cfg = SolverConfig::default();
    let store = NoJmpStore;
    let mut solver = Solver::new(&pag, &cfg, &store);

    println!("\npoints-to sets of Main.main locals:");
    for v in pag.application_locals() {
        let info = pag.node(v);
        if !info.name.ends_with("@Main.main") {
            continue;
        }
        let out = solver.points_to_query(v, 0);
        match out.answer.nodes() {
            Some(objs) => {
                let names: Vec<_> = objs.iter().map(|&o| pag.node(o).name.as_str()).collect();
                println!(
                    "  {:<16} -> {:<40} ({} steps)",
                    info.name,
                    names.join(", "),
                    out.stats.traversed_steps
                );
            }
            None => println!("  {:<16} -> (out of budget)", info.name),
        }
    }

    // 3. The headline precision fact: s1 sees the String, never the
    //    Integer (context-sensitivity rejects the unrealisable path).
    let s1 = pag.node_by_name("s1@Main.main").unwrap();
    let objs = solver.points_to_query(s1, 0).answer.nodes().unwrap();
    assert_eq!(objs.len(), 1);
    println!("\nok: s1 points to exactly one object (the String allocation).");
}
