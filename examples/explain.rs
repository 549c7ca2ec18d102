//! Witness explanations: *why* does a variable point to an object?
//!
//! Uses the traced query API to print, for every object in a points-to
//! set, the chain of PAG edges the analysis followed — the kind of output
//! a debugging client (one of the paper's motivating applications) shows
//! its user.
//!
//! ```sh
//! cargo run --release --example explain
//! ```

use parcfl::core::{NoJmpStore, Solver, SolverConfig};
use parcfl::frontend::build_pag;

const PROGRAM: &str = r#"
    lib class Obj { }
    class Box {
        field f: Obj;
        method set(v: Obj) { this.f = v; }
    }
    class Factory {
        method wrap(v: Obj): Box {
            var b: Box;
            b = new Box;
            call b.set(v);
            return b;
        }
    }
    class Main {
        method run(fac: Factory) {
            var v: Obj; var bx: Box; var out: Obj; var copy: Obj;
            v = new Obj;
            bx = call fac.wrap(v);
            out = bx.f;
            copy = out;
        }
    }
"#;

fn main() {
    let pag = build_pag(PROGRAM).expect("valid program").pag;
    let cfg = SolverConfig::default();
    let store = NoJmpStore;
    let mut solver = Solver::new(&pag, &cfg, &store);

    for name in ["copy@Main.run", "bx@Main.run"] {
        let v = pag.node_by_name(name).unwrap();
        let (out, trace) = solver.traced_points_to_query(v, 0);
        let objs = out.answer.complete().expect("within budget").to_vec();
        println!("{name} may point to {} object(s):", objs.len());
        for (o, c) in &objs {
            println!("\nwhy {} ∈ pts({name}):", pag.node(*o).name);
            match trace.witness(*o, c) {
                Some(w) => println!("{}", w.render(&pag)),
                None => println!("  (no witness recorded)"),
            }
        }
        println!();
    }
}
