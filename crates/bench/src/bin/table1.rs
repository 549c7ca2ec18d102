//! Regenerates **Table I** — benchmark information and statistics.
//!
//! Columns mirror the paper: class/method counts, PAG node/edge counts,
//! query count, `#Jumps` (jmp edges added under data sharing), `#S` (total steps traversed by SeqCFL), `R_S` (steps
//! saved per step traversed with sharing), `S_g` (average query-group
//! size), `#ETs` (early terminations without scheduling) and `R_ET` (the
//! ratio of ETs with scheduling over without).
//!
//! Standard output is deterministic (`results/regen.sh --check` compares it
//! with the committed `results/table1.txt`), so the paper's one host-clock
//! column, the sequential analysis time `T_Seq`, goes to standard error.

use parcfl_bench::run_mode;
use parcfl_runtime::{run_seq, Mode};

fn main() {
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>7} {:>6} {:>6} {:>6}",
        "Benchmark",
        "#Classes",
        "#Methods",
        "#Nodes",
        "#Edges",
        "#Queries",
        "#Jumps",
        "#S",
        "RS",
        "Sg",
        "#ETs",
        "RET"
    );
    let suite = parcfl_synth::build_suite();
    let mut tot = [0.0f64; 6];
    for b in &suite {
        let seq = run_seq(&b.pag, &b.queries, &b.solver);
        // #Jumps / R_S / #ETs come from a 16-thread data-sharing run, as in
        // the paper's Columns 8-13 (ETs "without query scheduling").
        let d = run_mode(b, Mode::DataSharing, 16);
        let dq = run_mode(b, Mode::DataSharingSched, 16);
        let sg =
            parcfl_runtime::schedule_for(&b.pag, &b.queries, Mode::DataSharingSched).avg_group_size;
        // R_ET is only meaningful when the unscheduled run produced enough
        // early terminations for a ratio; tiny denominators print as "-".
        let ret = if d.stats.early_terminations >= 5 {
            Some(dq.stats.early_terminations as f64 / d.stats.early_terminations as f64)
        } else if d.stats.early_terminations == 0 && dq.stats.early_terminations == 0 {
            Some(1.0)
        } else {
            None
        };
        let tseq_ms = seq.stats.wall.as_secs_f64() * 1e3;
        eprintln!("{:<16} TSeq(ms) {tseq_ms:>10.2}", b.name);
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>7.2} {:>6.1} {:>6} {:>6}",
            b.name,
            b.classes,
            b.methods,
            b.raw_nodes,
            b.raw_edges,
            b.queries.len(),
            d.stats.jmp_edges,
            seq.stats.traversed_steps,
            d.stats.rs_ratio(),
            sg,
            d.stats.early_terminations,
            ret.map_or("-".to_string(), |r| format!("{r:.2}")),
        );
        tot[0] += b.queries.len() as f64;
        tot[1] += tseq_ms;
        tot[2] += d.stats.jmp_edges as f64;
        tot[3] += seq.stats.traversed_steps as f64;
        tot[4] += d.stats.rs_ratio();
        tot[5] += sg;
    }
    let n = suite.len() as f64;
    eprintln!("{:<16} TSeq(ms) {:>10.2}", "Average", tot[1] / n);
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8.0} {:>8.0} {:>10.0} {:>7.2} {:>6.1} {:>6} {:>6}",
        "Average",
        "-",
        "-",
        "-",
        "-",
        tot[0] / n,
        tot[2] / n,
        tot[3] / n,
        tot[4] / n,
        tot[5] / n,
        "-",
        "-"
    );
}
