//! Structure-aware no-panic fuzz of the snapshot parser: whatever a
//! `.snap` file says, `Scenario::from_snapshot` returns a scenario or an
//! error and never panics, and writing a scenario it returns out and
//! parsing that again is a fixpoint. The inputs are every
//! `tests/corpus/*.snap` file and the writer's output for a generated
//! scenario; each mutant drops one line, duplicates one line, or replaces
//! one numeric token with a seeded draw from `0..=16`. The seed is fixed;
//! `PARCFL_FUZZ_ITERS` scales the number of mutants per input (default
//! 100).

use parcfl::check::{Fault, Scenario, SimPerturb};
use parcfl::core::SolverConfig;
use parcfl::runtime::{Backend, Mode, TraceLevel};
use parcfl::synth::mutate::{canonicalize, sample_edits};
use parcfl::synth::{build_bench, Profile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x736e_6170_667a;

fn iters() -> usize {
    std::env::var("PARCFL_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// `(name, text)` of every input: the corpus, and a generated scenario
/// with every directive and run key the writer emits.
fn inputs() -> Vec<(String, String)> {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut inputs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).unwrap())
        })
        .collect();
    inputs.sort();
    let b = build_bench(&Profile::tiny(SEED));
    let pag = canonicalize(&b.pag);
    let generated = Scenario {
        queries: b.queries[..6].to_vec(),
        mode: Mode::DataSharingSched,
        backend: Backend::Simulated,
        threads: 3,
        solver: SolverConfig::default().with_budget(5_000),
        fetch_cost: 2,
        perturb: Some(SimPerturb {
            seed: 9,
            fetch_jitter: 3,
            pick_window: 4,
            scramble_ties: true,
        }),
        trace_level: TraceLevel::Spans,
        deltas: sample_edits(&pag, SEED, 3),
        fault: Fault {
            blind_jmp_keys: true,
            skip_invalidation: true,
        },
        pag,
    };
    inputs.push(("Profile::tiny".into(), generated.to_snapshot()));
    inputs
}

/// Whether `text` parses; `what` names it if the parser panics or a
/// scenario it returns does not write out as a fixpoint.
fn parses(text: &str, what: &dyn Fn() -> String) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let once = Scenario::from_snapshot(text).ok()?.to_snapshot();
        let back = Scenario::from_snapshot(&once).expect("the writer's output parses");
        assert_eq!(back.to_snapshot(), once, "writing is a fixpoint");
        Some(())
    }));
    let parsed = outcome.unwrap_or_else(|_| panic!("{} failed:\n{text}", what()));
    parsed.is_some()
}

/// Whether a whitespace-separated token holds a number, bare or as the
/// value of a `key=value` pair.
fn numeric(tok: &str) -> bool {
    let value = tok.rsplit('=').next().unwrap();
    !value.is_empty() && value.bytes().all(|c| c.is_ascii_digit())
}

/// One seeded mutant of `lines`.
fn mutant(lines: &[&str], rng: &mut StdRng) -> String {
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let pick = rng.random_range(0..out.len());
    match rng.random_range(0..3) {
        0 => drop(out.remove(pick)),
        1 => out.insert(rng.random_range(0..=out.len()), out[pick].clone()),
        _ => {
            let spots: Vec<(usize, usize)> = (0..out.len())
                .flat_map(|i| {
                    let toks = out[i].split(' ').enumerate();
                    toks.filter(|(_, t)| numeric(t)).map(move |(j, _)| (i, j))
                })
                .collect();
            let (i, j) = spots[rng.random_range(0..spots.len())];
            let mut toks: Vec<String> = out[i].split(' ').map(String::from).collect();
            let draw = rng.random_range(0..=16u32);
            toks[j] = match toks[j].split_once('=') {
                Some((key, _)) => format!("{key}={draw}"),
                None => draw.to_string(),
            };
            out[i] = toks.join(" ");
        }
    }
    out.join("\n")
}

/// Every input is in the writer's format: it parses, and its `run` line is
/// the one `to_snapshot` writes for it.
#[test]
fn every_input_parses_in_the_writers_format() {
    let run = |t: &str| t.lines().find(|l| l.starts_with("run ")).map(String::from);
    for (name, text) in inputs() {
        let sc = Scenario::from_snapshot(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run(&text), run(&sc.to_snapshot()), "{name}");
        assert!(parses(&text, &|| name.clone()));
    }
}

#[test]
fn mutated_snapshots_are_ok_or_an_error() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut parsed, mut total) = (0, 0);
    for (name, text) in inputs() {
        let lines: Vec<&str> = text.lines().collect();
        for it in 0..iters() {
            let what = || format!("{name}, mutant {it} (seed {SEED:#x})");
            parsed += usize::from(parses(&mutant(&lines, &mut rng), &what));
            total += 1;
        }
    }
    // Dropping a comment keeps a file valid; dropping `counts` does not.
    assert!(0 < parsed && parsed < total, "{parsed} of {total} parsed");
}
