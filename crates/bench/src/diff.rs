//! The drift gate's artifact: the rows of `BENCH_solver.json`
//! (DESIGN.md §9).
//!
//! A row of the artifact is one bench × configuration and holds every
//! **deterministic** metric of [`RunStats::SCHEMA`] — every row whose unit
//! is not host-clock time. Those are bit-reproducible for a given
//! configuration (virtual-time simulation, seeded synthesis), so any drift
//! is a behaviour change, the file as a whole is byte-deterministic, and
//! the gate is `cmp`: `results/regen.sh --check` compares the one `table2`
//! writes with the committed `results/BENCH_solver.json`, and on a
//! mismatch prints `diff -u` — one record per line, so the drifted rows
//! are the output. Wall time is the frozen `benchmark/` crate's subject,
//! not this one's. Which keys are written is read off the schema: a new
//! metric is in the artifact, and under the gate, the moment it is
//! declared — and the PR that declares it re-records the file.

use parcfl_runtime::RunStats;
use std::fmt::Write as _;

/// The artifact's `schema` tag.
pub const SCHEMA_TAG: &str = "parcfl-bench-solver/10";

/// One artifact record: `row` labels the configuration measured (state ×
/// dispatch), followed by every deterministic metric of `stats`.
pub fn row_json(bench: &str, row: &str, state: &str, stats: &RunStats) -> String {
    let mut out = format!("{{\"bench\":\"{bench}\",\"row\":\"{row}\",\"state\":\"{state}\"");
    for (m, value) in stats.scalars().filter(|(m, _)| m.is_deterministic()) {
        let _ = write!(out, ",\"{}\":{value}", m.name);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What is written is what `cmp` gates: every metric whose unit is not
    /// time, and host-clock time never.
    #[test]
    fn every_schema_row_is_written_and_gated_iff_not_time() {
        let row = row_json("jess", "dq-sim", "dense", &RunStats::default());
        for m in RunStats::SCHEMA {
            let timed = m.unit == parcfl_runtime::Unit::Seconds;
            let written = row.contains(&format!(",\"{}\":", m.name));
            assert_eq!(written, !timed, "{}", m.name);
        }
        assert!(
            row.contains("\"makespan\":"),
            "virtual time is deterministic"
        );
        assert!(!row.contains("\"wall\":"));
    }
}
