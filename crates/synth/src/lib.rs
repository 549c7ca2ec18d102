//! # parcfl-synth — synthetic benchmark suite
//!
//! The paper evaluates on 20 Java benchmarks (SPEC JVM98 + DaCapo 2009)
//! whose PAGs Soot extracts from bytecode. Neither those benchmarks nor
//! Soot are available here, so this crate generates mini-Java programs
//! with the same structural mix (library collections, nested containers,
//! wrapper methods, globals, CHA dispatch fan-out) and pushes them through
//! the *real* frontend pipeline. Profiles are named after, and scaled
//! from, the paper's Table I rows — see DESIGN.md for the substitution
//! argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod mutate;
mod names;
pub mod profile;
pub mod stress;
pub mod suite;

pub use generator::generate;
pub use profile::{table1_profiles, Profile};
pub use stress::sweep_stress_bench;
pub use suite::{build_bench, build_suite, Bench};
