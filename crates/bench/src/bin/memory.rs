//! Regenerates the **memory usage** comparison of Section IV-D5.
//!
//! The paper reports that ParCFL¹⁶_DQ *reduces* peak memory versus SeqCFL
//! by ~35% despite storing jmp edges, because avoiding redundant traversals
//! shrinks the transient analysis state; in the worst cases (tomcat, fop)
//! it consumes slightly more (103–118%).
//!
//! GC makes byte-exact peaks unmeasurable even in the paper ("it is
//! difficult to monitor memory usage precisely"); our metric is an
//! allocation-volume proxy: work-list/visited-set insertions and touched
//! state words summed over queries, plus the jmp store's approximate bytes
//! for the parallel runs (see `QueryStats::mem_items`).

use parcfl_bench::run_mode;
use parcfl_runtime::{run_seq, Mode};

fn main() {
    println!(
        "{:<16} {:>14} {:>14} {:>12} {:>8}",
        "Benchmark", "SeqCFL(items)", "DQ16(items)", "jmp(bytes)", "ratio"
    );
    let suite = parcfl_synth::build_suite();
    let mut ratios = Vec::new();
    for b in &suite {
        let seq = run_seq(&b.pag, &b.queries, &b.solver);
        let dq = run_mode(b, Mode::DataSharingSched, 16);
        // Convert the jmp store's byte estimate into "items" at the same
        // granularity as mem_items (one item ≈ one 24-byte set entry).
        let jmp_items = dq.stats.jmp_bytes as u64 / 24;
        let ratio = (dq.stats.mem_items + jmp_items) as f64 / seq.stats.mem_items.max(1) as f64;
        ratios.push(ratio);
        println!(
            "{:<16} {:>14} {:>14} {:>12} {:>7.0}%",
            b.name,
            seq.stats.mem_items,
            dq.stats.mem_items,
            dq.stats.jmp_bytes,
            ratio * 100.0
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "\naverage: ParCFL16_DQ allocation volume is {:.0}% of SeqCFL's \
         (paper: ~65% on average, 103-118% in the worst cases)",
        avg * 100.0
    );
}
