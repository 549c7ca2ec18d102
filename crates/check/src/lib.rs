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
//! 3. [`fuzz`] — a seeded scenario fuzzer driving the simulated backend
//!    through perturbed interleavings (and the threaded backend through
//!    real ones), differential-checking every run; failures are shrunk
//!    ([`mod@shrink`]) to minimal counterexamples and serialised
//!    ([`snapshot`]) for the regression corpus in `tests/corpus/`.
//!
//! Exposed to users as `parcfl check` (see `parcfl check --help`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod andersen_check;
pub mod diff;
pub mod fuzz;
pub mod inject;
pub mod oracle;
pub mod seed;
pub mod shrink;
pub mod snapshot;

pub use andersen_check::{check_soundness, check_soundness_against, SoundnessReport};
pub use diff::{diff_answers, with_big_stack, DiffReport, Mismatch, OracleCache};
pub use fuzz::{
    failure_detail, incremental_divergence, run_fuzz, scenario_fails, FuzzConfig, FuzzFailure,
    FuzzReport,
};
pub use inject::{Fault, SimPerturb};
pub use oracle::{IncompleteReason, Oracle, OracleAnswer, OracleConfig};
pub use seed::{test_seed, DEFAULT_SEED, SEED_ENV};
pub use shrink::{shrink, ShrinkStats};
pub use snapshot::Scenario;
