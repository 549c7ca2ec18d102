//! Byte-level no-panic fuzz of the text-to-PAG path: whatever bytes come
//! in, `parse` → `extract` → `collapse_assign_cycles` returns a graph or a
//! typed error and never panics. The inputs are the `.mj` programs of
//! `examples/programs/` and a small generated program, truncated at every
//! byte, with seeded byte flips and with seeded splices of one input into
//! another. The seed is fixed; `PARCFL_FUZZ_ITERS` scales the number of
//! flipped and spliced inputs per program (default 100).

use parcfl::frontend::{cycles::collapse_assign_cycles, extract, parse, pretty::pretty};
use parcfl::synth::{generate, Profile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x6d6a_6675_7a7a;

fn iters() -> usize {
    std::env::var("PARCFL_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

fn corpus() -> Vec<Vec<u8>> {
    let dir = format!("{}/examples/programs", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "mj"))
        .collect();
    paths.sort();
    let mut inputs: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
    inputs.push(pretty(&generate(&Profile::tiny(SEED))).into_bytes());
    inputs
}

/// Runs the pipeline on `bytes` (decoded lossily: the frontend takes
/// `&str`); `what` names the input if anything panics. Returns whether it
/// produced a graph.
fn pipeline(bytes: &[u8], what: &dyn Fn() -> String) -> bool {
    let src = String::from_utf8_lossy(bytes);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(program) = parse(&src) else {
            return false;
        };
        let Ok(e) = extract(&program) else {
            return false;
        };
        let collapsed = collapse_assign_cycles(&e.pag);
        assert_eq!(collapsed.remap.len(), e.pag.node_count());
        true
    }));
    outcome.unwrap_or_else(|_| panic!("the frontend panicked on {}:\n{src}", what()))
}

#[test]
fn every_truncation_is_ok_or_a_typed_error() {
    for (i, input) in corpus().iter().enumerate() {
        assert!(
            pipeline(input, &|| format!("input {i}")),
            "input {i} builds"
        );
        for cut in 0..input.len() {
            pipeline(&input[..cut], &|| format!("input {i} cut at byte {cut}"));
        }
    }
}

#[test]
fn flipped_and_spliced_bytes_are_ok_or_a_typed_error() {
    let inputs = corpus();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut built = 0;
    for (i, input) in inputs.iter().enumerate() {
        for it in 0..iters() {
            let what = || format!("input {i}, mutant {it} (seed {SEED:#x})");
            let mut flipped = input.clone();
            for _ in 0..rng.random_range(1..4) {
                let at = rng.random_range(0..flipped.len());
                flipped[at] = rng.random_range(0..=255u8);
            }
            built += usize::from(pipeline(&flipped, &what));

            let donor = &inputs[rng.random_range(0..inputs.len())];
            let from = rng.random_range(0..donor.len());
            let span = &donor[from..donor.len().min(from + rng.random_range(1..64))];
            let at = rng.random_range(0..=input.len());
            let spliced = [&input[..at], span, &input[at..]].concat();
            built += usize::from(pipeline(&spliced, &what));
        }
    }
    // Some mutants land in comments or whitespace and still build.
    assert!(built > 0);
}
