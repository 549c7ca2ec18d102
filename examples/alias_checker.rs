//! A demand-driven **alias disambiguation** client — one of the paper's
//! motivating applications (Section I cites alias disambiguation [21]).
//!
//! Two variables may alias iff their context-sensitive points-to sets
//! intersect. Demand-driven CFL-reachability answers exactly the queries
//! the client asks, instead of analysing the whole program.
//!
//! ```sh
//! cargo run --release --example alias_checker
//! ```

use parcfl::core::{NoJmpStore, Solver, SolverConfig};
use parcfl::frontend::build_pag;
use parcfl::pag::{NodeId, Pag};

const PROGRAM: &str = r#"
    lib class Obj { }
    class Buffer {
        field data: Obj;
    }
    class Worker {
        method fill(b: Buffer, v: Obj) {
            b.data = v;
        }
        method drain(b: Buffer): Obj {
            var r: Obj;
            r = b.data;
            return r;
        }
        method run() {
            var in1: Buffer; var in2: Buffer; var shared: Buffer;
            var v1: Obj; var v2: Obj;
            var out1: Obj; var out2: Obj; var both: Obj;
            in1 = new Buffer;
            in2 = new Buffer;
            shared = in1;
            v1 = new Obj;
            v2 = new Obj;
            call this.fill(in1, v1);
            call this.fill(in2, v2);
            out1 = call this.drain(in1);
            out2 = call this.drain(in2);
            both = call this.drain(shared);
        }
    }
"#;

/// May `a` and `b` refer to the same object? `None` = unknown (a query ran
/// out of budget, so the client must assume they may).
fn may_alias(solver: &mut Solver<'_>, a: NodeId, b: NodeId) -> Option<bool> {
    let na = solver.points_to_query(a, 0).answer.nodes()?;
    let nb = solver.points_to_query(b, 0).answer.nodes()?;
    Some(na.iter().any(|o| nb.contains(o)))
}

fn var(pag: &Pag, name: &str) -> NodeId {
    pag.node_by_name(name).expect(name)
}

fn main() {
    let pag = build_pag(PROGRAM).expect("valid program").pag;
    let cfg = SolverConfig::default();
    let store = NoJmpStore;
    let mut solver = Solver::new(&pag, &cfg, &store);

    let pairs = [
        ("in1@Worker.run", "in2@Worker.run"),
        ("in1@Worker.run", "shared@Worker.run"),
        ("out1@Worker.run", "out2@Worker.run"),
        ("out1@Worker.run", "both@Worker.run"),
        ("v1@Worker.run", "out1@Worker.run"),
    ];
    println!("alias queries over Worker.run:");
    for (a, b) in pairs {
        let verdict = may_alias(&mut solver, var(&pag, a), var(&pag, b));
        println!(
            "  {:<18} ~ {:<18} : {}",
            a.split('@').next().unwrap(),
            b.split('@').next().unwrap(),
            match verdict {
                Some(true) => "MAY alias",
                Some(false) => "NO alias",
                None => "unknown (budget)",
            }
        );
    }

    // The interesting precision facts, asserted:
    assert_eq!(
        may_alias(
            &mut solver,
            var(&pag, "in1@Worker.run"),
            var(&pag, "in2@Worker.run")
        ),
        Some(false),
        "distinct buffers never alias"
    );
    assert_eq!(
        may_alias(
            &mut solver,
            var(&pag, "in1@Worker.run"),
            var(&pag, "shared@Worker.run")
        ),
        Some(true),
        "shared = in1 aliases"
    );
    assert_eq!(
        may_alias(
            &mut solver,
            var(&pag, "out1@Worker.run"),
            var(&pag, "out2@Worker.run")
        ),
        Some(false),
        "context-sensitive drains stay separate"
    );
    assert_eq!(
        may_alias(
            &mut solver,
            var(&pag, "out1@Worker.run"),
            var(&pag, "both@Worker.run")
        ),
        Some(true),
        "draining the shared buffer returns v1's object too"
    );
    println!("\nok: all alias verdicts as expected.");
}
