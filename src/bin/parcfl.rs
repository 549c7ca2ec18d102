//! The `parcfl` command-line tool: analyse `.mj` programs from the shell.
//!
//! ```text
//! parcfl query <file.mj> [--var NAME]... [--budget N] [--insensitive]
//! parcfl alias <file.mj> --var A --var B [--budget N] [--insensitive]
//! parcfl stats <file.mj>
//! parcfl dot   <file.mj>
//! parcfl bench <benchmark-name> [--threads N] [--mode naive|d|dq] [--threaded]
//! parcfl gen   <benchmark-name>
//! parcfl why   <file.mj> --var NAME [--budget N] [--insensitive]
//! parcfl check [--fuzz N] [--seed S] [--no-shrink] [--chaos] [--delta]
//!              [--chaos-invalidation] [--out PATH]
//! parcfl check --replay <file.snap>
//! ```

use parcfl::core::{NoJmpStore, Solver, SolverConfig};
use parcfl::frontend::build_pag;
use parcfl::pag::Pag;
use parcfl::runtime::{run_seq, Backend, Mode, RunConfig};
use std::io::Write;
use std::process::exit;

/// Prints a line to stdout, exiting quietly when the downstream pipe has
/// been closed (e.g. `parcfl query … | head`): EPIPE is a normal way for a
/// consumer to say "enough", not a crash.
fn out(line: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{line}").is_err() {
        exit(0);
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

/// A subcommand and the flags it accepts: those that take a value, then
/// those that stand alone.
type Command = (
    fn(&[String]),
    &'static [&'static str],
    &'static [&'static str],
);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let (run, valued, switches): Command = match cmd.as_str() {
        "query" => (cmd_query, &["--var", "--budget"], &["--insensitive"]),
        "alias" => (cmd_alias, &["--var", "--budget"], &["--insensitive"]),
        "stats" => (cmd_stats, &[], &[]),
        "dot" => (cmd_dot, &[], &[]),
        "bench" => (cmd_bench, &["--threads", "--mode"], &["--threaded"]),
        "check" => (
            cmd_check,
            &["--fuzz", "--seed", "--out", "--replay"],
            &["--no-shrink", "--chaos", "--delta", "--chaos-invalidation"],
        ),
        "gen" => (cmd_gen, &[], &[]),
        "why" => (cmd_why, &["--var", "--budget"], &["--insensitive"]),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            exit(2);
        }
    };
    check_flags(cmd, &args[1..], valued, switches);
    run(&args[1..]);
}

/// Exits 2 at the first `--flag` the subcommand does not accept, and at a
/// value-taking flag that is last or followed by another flag. A flag
/// that is silently ignored runs a different analysis than the one asked
/// for and still exits 0.
fn check_flags(cmd: &str, args: &[String], valued: &[&str], switches: &[&str]) {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if valued.contains(&a) {
            if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                eprintln!("{a} expects a value");
                exit(2);
            }
            i += 1;
        } else if a.starts_with("--") && !switches.contains(&a) {
            eprintln!("unknown flag `{a}` for `parcfl {cmd}` (see `parcfl help`)");
            exit(2);
        }
        i += 1;
    }
}

fn usage() {
    eprintln!(
        "parcfl — demand-driven CFL-reachability pointer analysis

USAGE:
  parcfl query <file.mj> [--var NAME]... [--budget N] [--insensitive]
      Print points-to sets (all application locals, or the named variables;
      names match the `local@Class.method` form, or any suffix of it).
  parcfl alias <file.mj> --var A --var B [--budget N] [--insensitive]
      May-alias verdict for two variables.
  parcfl stats <file.mj>
      PAG statistics after extraction and cycle collapsing.
  parcfl dot <file.mj>
      Graphviz DOT of the PAG on stdout.
  parcfl bench <name> [--threads N] [--mode naive|d|dq] [--threaded]
      Run one Table-I benchmark and report the speedup over SeqCFL.
      --threaded uses real OS threads instead of the virtual-time
      simulator, reports the wall-clock speedup beside the ratio of
      SeqCFL's steps to theirs, and the work-list contention they saw.
  parcfl gen <name>
      Print a Table-I benchmark's generated mini-Java source on stdout
      (feed it back through `parcfl query`/`stats`/`dot`).
  parcfl why <file.mj> --var NAME [--budget N] [--insensitive]
      Explain each object in NAME's points-to set with a witness path.
  parcfl check [--fuzz N] [--seed S] [--no-shrink] [--chaos] [--delta]
               [--chaos-invalidation] [--out PATH]
      Differential fuzzing: N seeded scenarios (default 25) across
      modes/backends/schedules, each checked against the naive oracle and
      the Andersen inclusion solution. A quarter of eligible iterations
      mutate the PAG mid-session and re-query against warm state;
      --delta forces that dimension on for every eligible iteration. On
      failure the counterexample is shrunk (disable with --no-shrink),
      written to PATH (default counterexample.snap) and the exit code is
      1. --seed overrides PARCFL_TEST_SEED; --chaos injects a
      context-blind jmp-store fault and --chaos-invalidation disables
      delta invalidation entirely — both prove the harness catches the
      corresponding real bugs (expected exit 1).
  parcfl check --replay <file.snap>
      Re-run a recorded counterexample snapshot exactly as captured and
      report whether it still disagrees with the oracle."
    );
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

fn load(args: &[String]) -> (Pag, Vec<parcfl::pag::NodeId>) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("expected a .mj file path");
        exit(2);
    };
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    // The CLI analyses the *uncollapsed* graph: assign-cycle collapsing is
    // a batch-mode optimisation that renames merged variables, which would
    // make `--var` lookups fail for non-representative members. Queries on
    // the original graph are equally precise.
    let e = build_pag(&src).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    });
    let queries = e.pag.application_locals();
    (e.pag, queries)
}

fn solver_config(args: &[String]) -> SolverConfig {
    let mut cfg = SolverConfig::default();
    if let Some(b) = flag_value(args, "--budget") {
        cfg.budget = b.parse().unwrap_or_else(|_| {
            eprintln!("--budget expects an integer");
            exit(2);
        });
    }
    if args.iter().any(|a| a == "--insensitive") {
        cfg.context_sensitive = false;
    }
    cfg
}

/// `--threads N`, or `default` without the flag.
fn threads_flag(args: &[String], default: usize) -> usize {
    flag_value(args, "--threads").map_or(default, |t| {
        t.parse().unwrap_or_else(|_| {
            eprintln!("--threads expects an integer");
            exit(2);
        })
    })
}

/// `--mode naive|d|dq`, DQ without the flag.
fn mode_flag(args: &[String]) -> Mode {
    match flag_value(args, "--mode").as_deref() {
        None | Some("dq") => Mode::DataSharingSched,
        Some("d") => Mode::DataSharing,
        Some("naive") => Mode::Naive,
        Some(other) => {
            eprintln!("unknown mode `{other}` (naive|d|dq)");
            exit(2);
        }
    }
}

fn resolve(pag: &Pag, name: &str) -> parcfl::pag::NodeId {
    // Exact match first, then unique suffix match.
    if let Some(n) = pag.node_by_name(name) {
        return n;
    }
    let matches: Vec<_> = pag
        .node_ids()
        .filter(|&n| {
            let full = &pag.node(n).name;
            full.ends_with(name) || full.starts_with(&format!("{name}@"))
        })
        .collect();
    match matches.as_slice() {
        [one] => *one,
        [] => {
            eprintln!("no variable matches `{name}`");
            exit(1);
        }
        many => {
            eprintln!("`{name}` is ambiguous:");
            for &m in many {
                eprintln!("  {}", pag.node(m).name);
            }
            exit(1);
        }
    }
}

fn cmd_query(args: &[String]) {
    let (pag, all) = load(args);
    let cfg = solver_config(args);
    let wanted = flag_values(args, "--var");
    let targets: Vec<_> = if wanted.is_empty() {
        all
    } else {
        wanted.iter().map(|w| resolve(&pag, w)).collect()
    };
    let store = NoJmpStore;
    let mut solver = Solver::new(&pag, &cfg, &store);
    for v in targets {
        let out = solver.points_to_query(v, 0);
        match out.answer.nodes() {
            Some(objs) => {
                let names: Vec<_> = objs.iter().map(|&o| pag.node(o).name.as_str()).collect();
                outln!(
                    "{:<32} -> {{{}}} ({} steps)",
                    pag.node(v).name,
                    names.join(", "),
                    out.stats.traversed_steps
                );
            }
            None => outln!("{:<32} -> out of budget", pag.node(v).name),
        }
    }
}

fn cmd_alias(args: &[String]) {
    let (pag, _) = load(args);
    let cfg = solver_config(args);
    let vars = flag_values(args, "--var");
    if vars.len() != 2 {
        eprintln!("alias requires exactly two --var arguments");
        exit(2);
    }
    let store = NoJmpStore;
    let mut c = parcfl::clients::client(&pag, &cfg, &store);
    let a = resolve(&pag, &vars[0]);
    let b = resolve(&pag, &vars[1]);
    outln!(
        "{} ~ {} : {:?}",
        pag.node(a).name,
        pag.node(b).name,
        c.may_alias(a, b)
    );
}

fn cmd_stats(args: &[String]) {
    let (pag, queries) = load(args);
    outln!("{}", parcfl::pag::stats::PagStats::of(&pag));
    outln!("application-code query candidates: {}", queries.len());
}

fn cmd_dot(args: &[String]) {
    let (pag, _) = load(args);
    let _ = std::io::stdout()
        .lock()
        .write_all(parcfl::pag::dot::to_dot(&pag).as_bytes());
}

fn cmd_gen(args: &[String]) {
    let Some(name) = args.first() else {
        eprintln!("expected a benchmark name");
        exit(2);
    };
    let Some(profile) = parcfl::synth::table1_profiles()
        .into_iter()
        .find(|p| &p.name == name)
    else {
        eprintln!("unknown benchmark `{name}`");
        exit(1);
    };
    let program = parcfl::synth::generate(&profile);
    let _ = std::io::stdout()
        .lock()
        .write_all(parcfl::frontend::pretty::pretty(&program).as_bytes());
}

fn cmd_why(args: &[String]) {
    let (pag, _) = load(args);
    let cfg = solver_config(args);
    let vars = flag_values(args, "--var");
    let [name] = vars.as_slice() else {
        eprintln!("why requires exactly one --var argument");
        exit(2);
    };
    let v = resolve(&pag, name);
    let store = NoJmpStore;
    let mut solver = Solver::new(&pag, &cfg, &store);
    let (out, trace) = solver.traced_points_to_query(v, 0);
    match out.answer.complete() {
        None => outln!("{}: out of budget", pag.node(v).name),
        Some([]) => {
            outln!("{}: points to nothing", pag.node(v).name)
        }
        Some(objs) => {
            for (o, c) in objs {
                outln!(
                    "--- {} may point to {} ---",
                    pag.node(v).name,
                    pag.node(*o).name
                );
                match trace.witness(*o, c) {
                    Some(w) => outln!("{}", w.render(&pag)),
                    None => outln!("(no witness recorded)"),
                }
            }
        }
    }
}

fn cmd_bench(args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("expected a benchmark name; one of:");
        for p in parcfl::synth::table1_profiles() {
            eprintln!("  {}", p.name);
        }
        exit(2);
    };
    let Some(profile) = parcfl::synth::table1_profiles()
        .into_iter()
        .find(|p| &p.name == name)
    else {
        eprintln!("unknown benchmark `{name}`");
        exit(1);
    };
    let threads = threads_flag(args, 16);
    let mode = mode_flag(args);
    let threaded = args.iter().any(|a| a == "--threaded");
    let b = parcfl::synth::build_bench(&profile);
    let seq = run_seq(&b.pag, &b.queries, &b.solver);
    let backend = if threaded {
        Backend::Threaded
    } else {
        Backend::Simulated
    };
    let mut cfg = RunConfig::new(mode, threads, backend);
    cfg.solver = b.solver.clone();
    let par = parcfl::runtime::run(&b.pag, &b.queries, &cfg);
    // On real threads `makespan` is the batch's traversed steps: the
    // ratio measures work saved, and the speedup is the wall clock's.
    let steps = seq.stats.makespan as f64 / par.stats.makespan as f64;
    let speedup = if threaded {
        let wall = seq.stats.wall.as_secs_f64() / par.stats.wall.as_secs_f64();
        format!("wall speedup {wall:.1}x, work ratio {steps:.1}x")
    } else {
        format!("speedup {steps:.1}x")
    };
    outln!(
        "{name}: {} queries; SeqCFL {} steps; ParCFL({threads}, {}) \
         {speedup} (jmps {}, ETs {}, wall {:?})",
        b.queries.len(),
        seq.stats.makespan,
        mode.label(),
        par.stats.jmp_edges,
        par.stats.early_terminations,
        par.stats.wall
    );
    if threaded {
        let t = par.stats.obs_totals();
        outln!(
            "dispatch: {} work-list pops, lock wait {:?}",
            t.local_pops,
            t.lock_wait()
        );
    }
}

fn cmd_check(args: &[String]) {
    use parcfl::check::{failure_detail, run_fuzz, test_seed, FuzzConfig, Scenario};

    if let Some(path) = flag_value(args, "--replay") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
        let scenario = Scenario::from_snapshot(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1);
        });
        outln!(
            "{path}: {} nodes, {} edges, {} queries, {} edits{}{}",
            scenario.pag.node_count(),
            scenario.pag.edge_count(),
            scenario.queries.len(),
            scenario.deltas.len(),
            if scenario.fault.blind_jmp_keys {
                " [chaos fault injected]"
            } else {
                ""
            },
            if scenario.fault.skip_invalidation {
                " [invalidation disabled]"
            } else {
                ""
            }
        );
        match failure_detail(&scenario) {
            Some(detail) => {
                outln!("still fails: {detail}");
                exit(1);
            }
            None => outln!("replays clean: solver agrees with the oracle"),
        }
        return;
    }

    let iters: u64 = flag_value(args, "--fuzz")
        .map(|n| {
            n.parse().unwrap_or_else(|_| {
                eprintln!("--fuzz expects an integer");
                exit(2);
            })
        })
        .unwrap_or(25);
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("--seed expects an integer");
            exit(2);
        }),
        None => test_seed(),
    };
    let cfg = FuzzConfig {
        iters,
        seed,
        shrink: !args.iter().any(|a| a == "--no-shrink"),
        chaos: args.iter().any(|a| a == "--chaos"),
        delta: args.iter().any(|a| a == "--delta"),
        skip_invalidation: args.iter().any(|a| a == "--chaos-invalidation"),
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg);
    outln!(
        "fuzz: {} iterations, seed {seed}; {} answers compared, {} skipped \
         (out of budget), {} skipped (oracle step cap)",
        report.iters_run,
        report.compared,
        report.skipped_oob,
        report.skipped_cap
    );
    outln!(
        "soundness: every completed demand answer within the Andersen \
         inclusion solution; precision {:.3} (demand {} / inclusion {} pts entries)",
        report.precision_ratio(),
        report.demand_pts,
        report.inclusion_pts
    );
    match report.failure {
        None => outln!("ok: no differential mismatches, no soundness violations"),
        Some(f) => {
            let out_path =
                flag_value(args, "--out").unwrap_or_else(|| "counterexample.snap".to_string());
            outln!(
                "FAILURE at iteration {} (seed {}): {}",
                f.iteration,
                f.seed,
                f.detail
            );
            if let Some(st) = f.shrink_stats {
                outln!(
                    "shrunk {} -> {} edges, {} -> {} queries, {} -> {} edits \
                     in {} predicate checks",
                    st.edges.0,
                    st.edges.1,
                    st.queries.0,
                    st.queries.1,
                    st.deltas.0,
                    st.deltas.1,
                    st.checks
                );
            }
            std::fs::write(&out_path, f.scenario.to_snapshot()).unwrap_or_else(|e| {
                eprintln!("cannot write {out_path}: {e}");
                exit(1);
            });
            outln!("counterexample written to {out_path}");
            outln!("reproduce: parcfl check --fuzz {iters} --seed {}", f.seed);
            exit(1);
        }
    }
}
