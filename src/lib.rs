//! # parcfl — parallel pointer analysis with CFL-reachability
//!
//! Umbrella crate re-exporting the whole system. See README.md for a tour.

#![forbid(unsafe_code)]

pub mod clients;

pub use parcfl_runtime::AnalysisSession;

pub use parcfl_andersen as andersen;
pub use parcfl_bench as bench;
pub use parcfl_check as check;
pub use parcfl_concurrent as concurrent;
pub use parcfl_core as core;
pub use parcfl_frontend as frontend;
pub use parcfl_pag as pag;
pub use parcfl_runtime as runtime;
pub use parcfl_sched as sched;
pub use parcfl_synth as synth;
