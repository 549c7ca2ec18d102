//! Regenerates **Table II** — comparing different parallel pointer
//! analyses — and backs it with a quantitative sidebar: a real run of our
//! Andersen substrate (whole-program, the algorithm all seven comparators
//! parallelise) versus the demand-driven CFL analysis answering only the
//! queries a client actually asks.
//!
//! Additionally emits a machine-readable `BENCH_solver.json` (schema tag
//! `parcfl_bench::diff::SCHEMA_TAG`): per bench, the headline DQ simulated run
//! plus sequential dense-state / hash-state rows, each carrying every
//! deterministic `RunStats` metric, one record per line, so CI can gate
//! solver behaviour by `cmp` with the committed `results/BENCH_solver.json`
//! (`results/regen.sh --check`) without scraping the human tables. `--smoke`
//! restricts the run to the smallest synthetic profile plus `luindex`
//! (the cheapest one whose jmp store fills) and skips the wall-clock
//! sidebar; `--json PATH` overrides the artifact location.

use parcfl_bench::diff::{row_json, SCHEMA_TAG};
use parcfl_bench::run_mode;
use parcfl_core::{NoJmpStore, Solver, SolverConfig, StateBackend};
use parcfl_runtime::{run_seq, Mode};
use parcfl_synth::{build_bench, table1_profiles, Bench};
use std::io::Write;

struct Row {
    work: &'static str,
    algorithm: &'static str,
    on_demand: bool,
    context: bool,
    field: bool,
    flow: &'static str,
    applications: &'static str,
    platform: &'static str,
}

const ROWS: [Row; 8] = [
    Row {
        work: "[8] Mendez-Lojo+",
        algorithm: "Andersen's",
        on_demand: false,
        context: false,
        field: true,
        flow: "no",
        applications: "C",
        platform: "CPU",
    },
    Row {
        work: "[3] Edvinsson+",
        algorithm: "Andersen's",
        on_demand: false,
        context: false,
        field: false,
        flow: "partial",
        applications: "Java",
        platform: "CPU",
    },
    Row {
        work: "[7] Mendez-Lojo+",
        algorithm: "Andersen's",
        on_demand: false,
        context: false,
        field: true,
        flow: "no",
        applications: "C",
        platform: "GPU",
    },
    Row {
        work: "[14] Putta+Nasre",
        algorithm: "Andersen's",
        on_demand: false,
        context: true,
        field: false,
        flow: "no",
        applications: "C",
        platform: "CPU",
    },
    Row {
        work: "[9] Nagaraj+Gov.",
        algorithm: "Andersen's",
        on_demand: false,
        context: false,
        field: true,
        flow: "yes",
        applications: "C",
        platform: "CPU",
    },
    Row {
        work: "[10] Nasre",
        algorithm: "Andersen's",
        on_demand: false,
        context: false,
        field: true,
        flow: "yes",
        applications: "C",
        platform: "GPU",
    },
    Row {
        work: "[20] Su+",
        algorithm: "Andersen's",
        on_demand: false,
        context: false,
        field: true,
        flow: "no",
        applications: "C",
        platform: "CPU-GPU",
    },
    Row {
        work: "this paper",
        algorithm: "CFL-Reachability",
        on_demand: true,
        context: true,
        field: true,
        flow: "no",
        applications: "Java",
        platform: "CPU",
    },
];

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// JSON threads per-bench record (DataSharingSched, simulated).
const JSON_THREADS: usize = 8;

/// Runs each bench on the headline DQ simulated configuration and on the
/// sequential solver under both visited-state backends (DESIGN.md §11),
/// and writes the machine-readable artifact.
fn emit_bench_json(path: &str, benches: &[Bench], smoke: bool) {
    let mut records = Vec::with_capacity(benches.len() * 3);
    for b in benches {
        let seq_on = |state| {
            let cfg = SolverConfig {
                state,
                ..b.solver.clone()
            };
            run_seq(&b.pag, &b.queries, &cfg)
        };
        let headline = run_mode(b, Mode::DataSharingSched, JSON_THREADS);
        let (dense, hash) = (seq_on(StateBackend::Dense), seq_on(StateBackend::Hash));
        assert_eq!(
            dense.sorted_answers(),
            hash.sorted_answers(),
            "{}: state backends must be bit-identical",
            b.name
        );
        records.push(row_json(&b.name, "dq-sim", "dense", &headline.stats));
        records.push(row_json(&b.name, "seq-dense", "dense", &dense.stats));
        records.push(row_json(&b.name, "seq-hash", "hash", &hash.stats));
    }
    let body = format!(
        concat!(
            "{{\"schema\":\"{}\",\"mode\":\"DataSharingSched\",",
            "\"threads\":{},\"backend\":\"simulated\",\"smoke\":{},\"benches\":[\n  {}\n]}}\n"
        ),
        SCHEMA_TAG,
        JSON_THREADS,
        smoke,
        records.join(",\n  "),
    );
    let mut f = std::fs::File::create(path).expect("create bench json");
    f.write_all(body.as_bytes()).expect("write bench json");
    println!(
        "\nwrote {path} ({} benches, {} rows)",
        benches.len(),
        records.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_solver.json".to_string());

    if smoke {
        // CI smoke: the smallest synthetic profile (proves the solver runs
        // and the artifact lands) plus `luindex`, the cheapest profile that
        // clears τF — without it no gated row ever sees data sharing.
        let profiles = table1_profiles();
        let luindex = profiles
            .iter()
            .find(|p| p.name == "luindex")
            .expect("luindex is a Table-I profile");
        let benches = [build_bench(&profiles[0]), build_bench(luindex)];
        emit_bench_json(&json_path, &benches, true);
        return;
    }

    println!(
        "{:<18} {:<18} {:>9} {:>8} {:>6} {:>8} {:>6} {:>9}",
        "Analysis", "Algorithm", "On-demand", "Context", "Field", "Flow", "Lang", "Platform"
    );
    for r in ROWS {
        println!(
            "{:<18} {:<18} {:>9} {:>8} {:>6} {:>8} {:>6} {:>9}",
            r.work,
            r.algorithm,
            tick(r.on_demand),
            tick(r.context),
            tick(r.field),
            r.flow,
            r.applications,
            r.platform
        );
    }

    // Quantitative sidebar: whole-program Andersen vs k demand queries.
    println!("\n--- sidebar: whole-program vs demand-driven on one benchmark ---");
    let suite = parcfl_synth::build_suite();
    let b = suite.iter().find(|b| b.name == "avrora").unwrap();
    let t0 = std::time::Instant::now();
    let whole = parcfl_andersen::analyze(&b.pag);
    let andersen_wall = t0.elapsed();

    let store = NoJmpStore;
    let mut solver = Solver::new(&b.pag, &b.solver, &store);
    for k in [1usize, 10, 100] {
        let t2 = std::time::Instant::now();
        let steps: u64 = (b.queries.iter().take(k))
            .map(|&q| solver.points_to_query(q, 0).stats.traversed_steps)
            .sum();
        let demand_wall = t2.elapsed();
        // Standard output is deterministic (`results/regen.sh --check`):
        // steps there, the host's clock on standard error.
        println!("k={k:<4} demand-driven: {steps} steps");
        eprintln!(
            "k={k:<4} demand-driven: {demand_wall:?} vs whole-program Andersen: {andersen_wall:?}"
        );
    }
    println!("Andersen propagations: {}", whole.propagations);
    println!(
        "Precision: CFL is context-sensitive; Andersen conflates call sites \
         (see tests/properties.rs::andersen_over_approximates_cfl)."
    );

    emit_bench_json(&json_path, &suite, false);
}
