//! Batch-mode analysis — the paper's deployment scenario: a client
//! requests points-to information for *all* locals of the application code
//! at once, and the parallel runtime answers them with data sharing and
//! query scheduling.
//!
//! Generates a Table I-shaped synthetic benchmark, runs `SeqCFL` and
//! `ParCFL` in its three configurations through a persistent
//! [`AnalysisSession`], prints the speedup breakdown, then shows what a
//! session that stays alive saves a follow-up request: the answers it
//! already holds are served as they are, the rest over a warm jmp store.
//!
//! ```sh
//! cargo run --release --example batch_analysis [benchmark-name]
//! ```

use parcfl::runtime::{run_seq, AnalysisSession, Backend, Mode};
use parcfl::synth::{build_bench, table1_profiles};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "_202_jess".into());
    let profile = table1_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark `{name}`; available:");
            for p in table1_profiles() {
                eprintln!("  {}", p.name);
            }
            std::process::exit(1);
        });

    println!("benchmark {name}: generating and extracting...");
    let b = build_bench(&profile);
    println!(
        "  PAG: {} nodes, {} edges; {} queries; budget B = {}",
        b.raw_nodes,
        b.raw_edges,
        b.queries.len(),
        b.solver.budget
    );

    let seq = run_seq(&b.pag, &b.queries, &b.solver);
    println!(
        "\nSeqCFL: {} steps traversed, {} queries answered, {} out of budget ({:?} wall)",
        seq.stats.traversed_steps, seq.stats.completed, seq.stats.out_of_budget, seq.stats.wall
    );

    for (label, mode, threads) in [
        ("ParCFL(16, naive)", Mode::Naive, 16),
        ("ParCFL(16, D)    ", Mode::DataSharing, 16),
        ("ParCFL(16, DQ)   ", Mode::DataSharingSched, 16),
    ] {
        // One cold session per mode: each configuration starts from an
        // empty jmp store, exactly like the paper's one-shot runs.
        let mut session = AnalysisSession::new(&b.pag)
            .with_threads(threads)
            .with_solver(b.solver.clone());
        let r = session.submit(&b.queries, mode, Backend::Simulated);
        assert_eq!(r.stats.queries, b.queries.len());
        println!(
            "{label}: speedup {:>6.1}x | traversed {:>10} | saved {:>10} | jmps {:>6} | ETs {}",
            seq.stats.makespan as f64 / r.stats.makespan as f64,
            r.stats.traversed_steps,
            r.stats.steps_saved,
            r.stats.jmp_edges,
            r.stats.early_terminations,
        );
    }

    // The service scenario: keep a DQ session alive across requests. It
    // answers half the locals, then all of them: the half it holds answers
    // for is not traversed again, and the warm store turns the first
    // request's work into shortcuts for the other half.
    let mut session = AnalysisSession::new(&b.pag)
        .with_threads(16)
        .with_solver(b.solver.clone());
    let half = &b.queries[..b.queries.len() / 2];
    session.submit(half, Mode::DataSharingSched, Backend::Simulated);
    let warm = session.submit(&b.queries, Mode::DataSharingSched, Backend::Simulated);
    let cold = AnalysisSession::new(&b.pag)
        .with_threads(16)
        .with_solver(b.solver.clone())
        .submit(&b.queries, Mode::DataSharingSched, Backend::Simulated);
    println!(
        "\nfollow-up request (DQ): traversed {:>10} vs cold {:>10} | {} answers kept | warm hits {:>6} | {} entries resident",
        warm.stats.traversed_steps,
        cold.stats.traversed_steps,
        warm.stats.retained_answers,
        warm.stats.warm_hits,
        session.store_entries(),
    );
    println!(
        "session totals: {} batches, {} queries, {} steps traversed",
        session.cumulative().batches,
        session.cumulative().queries,
        session.cumulative().traversed_steps,
    );
    println!(
        "\n(simulated 16-thread virtual time; see DESIGN.md for the \
         single-core substitution argument)"
    );
}
