//! Regression corpus replay: every `tests/corpus/*.snap` scenario must
//! parse, run on its recorded configuration, and agree with the naive
//! oracle and the Andersen inclusion solution. See tests/corpus/README.md
//! for the format and the workflow for adding entries.

use parcfl::check::{failure_detail, Fault, Scenario};

#[test]
fn corpus_snapshots_replay_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    entries.sort();
    // An empty corpus passes: the test pins whatever has been committed,
    // it does not require anything to have been committed.
    for path in entries {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut scenario = Scenario::from_snapshot(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Counterexamples are committed as found — including injected
        // faults. Replay checks the production solver, so fault
        // injection (context-blind jmp keys, skipped delta
        // invalidation) is cleared.
        scenario.fault = Fault::default();
        if let Some(detail) = failure_detail(&scenario) {
            panic!("{name}: replay disagrees with the oracle: {detail}");
        }
    }
}
