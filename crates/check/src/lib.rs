//! # parcfl-check — correctness tooling
//!
//! Three independent pillars that cross-check the production analysis
//! (see DESIGN.md §10):
//!
//! 1. [`oracle`] — a small, obviously-correct CFL-reachability solver
//!    (plain `Vec` contexts, no jmp store, no budget) used as the exact
//!    reference for differential testing on tiny/small programs.
//! 2. [`andersen_check`] — every completed demand answer must be a subset
//!    of the Andersen whole-program solution on the same PAG; the size
//!    gap is the demand analysis' precision.
//! 3. [`run_fuzz`] — a seeded scenario fuzzer driving the simulated
//!    backend through perturbed interleavings (and the threaded backend
//!    through real ones), differential-checking every run; failures are
//!    shrunk to minimal counterexamples and serialised as a [`Scenario`]
//!    for the regression corpus in `tests/corpus/`.
//!
//! Exposed to users as `parcfl check` (see `parcfl check --help`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod andersen_check;
pub mod diff;
mod fuzz;
mod inject;
pub mod oracle;
pub mod seed;
mod shrink;
mod snapshot;

pub use andersen_check::check_soundness;
pub use diff::{diff_answers, with_big_stack, OracleCache};
pub use fuzz::{failure_detail, run_fuzz, scenario_fails, FuzzConfig, FuzzFailure, FuzzReport};
pub use inject::{Fault, SimPerturb};
pub use oracle::{Oracle, OracleConfig};
pub use seed::test_seed;
pub use snapshot::Scenario;
