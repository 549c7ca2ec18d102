//! Regenerates **Table II** — comparing different parallel pointer
//! analyses — and backs it with a quantitative sidebar: a real run of our
//! Andersen substrate (whole-program, the algorithm all seven comparators
//! parallelise) versus the demand-driven CFL analysis answering only the
//! queries a client actually asks.
//!
//! Additionally emits a machine-readable `BENCH_solver.json` (schema
//! `parcfl-bench-solver/6`): per bench, the headline DQ simulated run
//! plus sequential dense-state / hash-state rows, with makespan,
//! traversed/charged steps, peak allocation proxy, peak state words
//! and the dense-vs-hash wall ratio, so CI and perf-tracking scripts can
//! diff solver behaviour without scraping the human tables. Each row is
//! run `--repeat N` times (default 3) and `wall_ms` (and the wall-derived
//! ratio) uses the median — single-shot walls on a loaded host are too
//! noisy to gate on. `--smoke` restricts the run to the smallest
//! synthetic profile and skips the wall-clock sidebars; `--json PATH`
//! overrides the artifact location; `--only SUBSTR` keeps only benches
//! whose name contains SUBSTR (fast A/B on one benchmark).
//!
//! `--trace-out PATH` additionally re-runs the first bench with
//! `TraceLevel::Full` on the *simulated* backend (deterministic, so the
//! CI artifact is reproducible) and writes the Chrome-trace JSON there —
//! load it in `chrome://tracing` or Perfetto.

use parcfl_bench::{cfg_for, run_mode};
use parcfl_core::{NoJmpStore, Solver, SolverConfig, StateBackend};
use parcfl_runtime::{run_seq, run_simulated, Mode, RunResult, TraceLevel};
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

/// One `BENCH_solver.json` record, rendered by hand: the artifact must not
/// cost a serde dependency, and every field is a scalar. `row` labels the
/// configuration the record measured (state × dispatch); `wall_ms` is the
/// median over the `--repeat` runs of the row.
fn json_record(b: &Bench, row: &str, state: &str, r: &RunResult, wall_ms: f64) -> String {
    let s = &r.stats;
    format!(
        concat!(
            "{{\"bench\":\"{}\",\"row\":\"{}\",\"state\":\"{}\",",
            "\"queries\":{},\"completed\":{},",
            "\"out_of_budget\":{},\"makespan\":{},\"traversed_steps\":{},",
            "\"charged_steps\":{},\"steps_saved\":{},\"jmp_edges\":{},",
            "\"store_entries\":{},\"peak_mem_items\":{},\"peak_state_words\":{},",
            "\"interner_ctxs\":{},\"jmp_bytes\":{},\"wall_ms\":{:.3}}}"
        ),
        b.name,
        row,
        state,
        s.queries,
        s.completed,
        s.out_of_budget,
        s.makespan,
        s.traversed_steps,
        s.charged_steps,
        s.steps_saved,
        s.jmp_edges,
        s.store_entries,
        s.peak_mem_items,
        s.peak_state_words,
        s.interner_ctxs,
        s.jmp_bytes,
        wall_ms,
    )
}

/// Median of the collected per-repeat walls (ms). `xs` is non-empty.
fn median_ms(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    xs[xs.len() / 2]
}

/// Runs every row closure once per repeat pass, **interleaved with a
/// rotating start offset** — pass `p` runs rows `p, p+1, …` (mod N) — so
/// slow wall-clock drift on a throttling host (frequency scaling, noisy
/// neighbours) hits every configuration equally: no row always runs
/// coldest-first or hottest-last. With `repeat` a multiple of N each row
/// occupies every within-pass position the same number of times. Returns
/// the last result per row (all observables except wall are
/// deterministic across repeats) and each row's median wall in ms.
fn repeated_interleaved<const N: usize>(
    repeat: usize,
    mut runs: [Box<dyn FnMut() -> RunResult + '_>; N],
) -> ([RunResult; N], [f64; N]) {
    let mut walls: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(repeat));
    let mut last: [Option<RunResult>; N] = std::array::from_fn(|_| None);
    for pass in 0..repeat.max(1) {
        for k in 0..N {
            let i = (pass + k) % N;
            let r = runs[i]();
            walls[i].push(r.stats.wall.as_secs_f64() * 1e3);
            last[i] = Some(r);
        }
    }
    (last.map(|r| r.expect("repeat >= 1")), walls.map(median_ms))
}

/// Runs each bench on the headline DQ simulated configuration and on the
/// sequential solver under both visited-state backends (DESIGN.md §11),
/// and writes the machine-readable artifact with the dense-vs-hash
/// sequential wall-time ratio. The three rows of a bench interleave their
/// repeats ([`repeated_interleaved`]) so the wall medians feeding the
/// ratio are drift-fair.
fn emit_bench_json(path: &str, benches: &[Bench], smoke: bool, repeat: usize) {
    let mut records = Vec::with_capacity(benches.len() * 3);
    for b in benches {
        let dense_cfg = SolverConfig {
            state: StateBackend::Dense,
            ..b.solver.clone()
        };
        let hash_cfg = SolverConfig {
            state: StateBackend::Hash,
            ..b.solver.clone()
        };
        let ([headline, dense, hash], [headline_wall, dense_wall, hash_wall]) =
            repeated_interleaved(
                repeat,
                [
                    Box::new(|| run_mode(b, Mode::DataSharingSched, JSON_THREADS)),
                    Box::new(|| run_seq(&b.pag, &b.queries, &dense_cfg)),
                    Box::new(|| run_seq(&b.pag, &b.queries, &hash_cfg)),
                ],
            );
        assert_eq!(
            dense.sorted_answers(),
            hash.sorted_answers(),
            "{}: state backends must be bit-identical",
            b.name
        );
        let dense_speedup = if dense_wall == 0.0 {
            1.0
        } else {
            hash_wall / dense_wall
        };
        records.push(json_record(b, "dq-sim", "dense", &headline, headline_wall));
        records.push(json_record(b, "seq-dense", "dense", &dense, dense_wall));
        let mut h = json_record(b, "seq-hash", "hash", &hash, hash_wall);
        let extra = format!(",\"dense_vs_hash_speedup\":{dense_speedup:.3}}}");
        h.replace_range(h.len() - 1.., &extra);
        records.push(h);
    }
    let body = format!(
        concat!(
            "{{\"schema\":\"parcfl-bench-solver/6\",\"mode\":\"DataSharingSched\",",
            "\"threads\":{},\"backend\":\"simulated\",\"smoke\":{},\"repeat\":{},\"benches\":[\n  {}\n]}}\n"
        ),
        JSON_THREADS,
        smoke,
        repeat.max(1),
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

/// Re-runs `b`'s headline DQ configuration with full tracing on the
/// deterministic simulated backend and writes the Chrome-trace JSON
/// artifact.
fn emit_trace(path: &str, b: &Bench) {
    let cfg = cfg_for(b, Mode::DataSharingSched, JSON_THREADS).with_tracing(TraceLevel::Full);
    let trace = run_simulated(&b.pag, &b.queries, &cfg)
        .trace
        .expect("Full tracing yields a trace");
    std::fs::write(path, trace.to_chrome_json()).expect("write chrome trace");
    println!(
        "wrote {path} ({} events across {} workers, {} dropped)",
        trace.event_count(),
        trace.workers.len(),
        trace.dropped()
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
    let trace_path = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let repeat = args
        .iter()
        .position(|a| a == "--repeat")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(3)
        .max(1);

    if smoke {
        // CI smoke: smallest synthetic profile only, no wall-clock
        // sidebars — just prove the solver runs and the artifact lands.
        let profiles = table1_profiles();
        let b = build_bench(&profiles[0]);
        emit_bench_json(&json_path, std::slice::from_ref(&b), true, repeat);
        if let Some(p) = &trace_path {
            emit_trace(p, &b);
        }
        return;
    }

    if let Some(pat) = &only {
        // Filtered A/B run: just the JSON rows for the matching benches,
        // no paper table or sidebars.
        let suite: Vec<Bench> = parcfl_synth::build_suite()
            .into_iter()
            .filter(|b| b.name.contains(pat.as_str()))
            .collect();
        assert!(!suite.is_empty(), "--only {pat} matched no benches");
        emit_bench_json(&json_path, &suite, false, repeat);
        if let Some(p) = &trace_path {
            emit_trace(p, &suite[0]);
        }
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
    let t1 = std::time::Instant::now();
    let par = parcfl_andersen::analyze_parallel(&b.pag, 4);
    let andersen_par_wall = t1.elapsed();
    assert_eq!(whole.total_pts(), par.total_pts());

    let store = NoJmpStore;
    let mut solver = Solver::new(&b.pag, &b.solver, &store);
    for k in [1usize, 10, 100] {
        let t2 = std::time::Instant::now();
        for &q in b.queries.iter().take(k) {
            let _ = solver.points_to_query(q, 0);
        }
        let demand_wall = t2.elapsed();
        println!(
            "k={k:<4} demand-driven: {demand_wall:?} vs whole-program Andersen: {andersen_wall:?}"
        );
    }
    println!(
        "Andersen propagations: {} (seq) — parallel(4 workers) identical result in {:?}",
        whole.propagations, andersen_par_wall
    );
    println!(
        "Precision: CFL is context-sensitive; Andersen conflates call sites \
         (see tests/properties.rs::andersen_over_approximates_cfl)."
    );

    emit_bench_json(&json_path, &suite, false, repeat);
    if let Some(p) = &trace_path {
        emit_trace(p, &suite[0]);
    }
}
