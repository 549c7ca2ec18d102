//! # parcfl-core — demand-driven CFL-reachability pointer analysis
//!
//! The paper's primary contribution: a context- and field-sensitive,
//! budget-bounded, demand-driven points-to analysis over a Pointer
//! Assignment Graph, with the *data sharing* scheme that records traversed
//! paths as `jmp` shortcut edges in a concurrent store so that concurrent
//! (and subsequent) queries avoid redundant graph traversals.
//!
//! * [`Solver`] — Algorithms 1 & 2 (`PointsTo`, `FlowsTo`,
//!   `ReachableNodes`);
//! * [`Ctx`] — call-string calling contexts;
//! * [`jmp`] — the shortcut store (finished/unfinished entries, Fig. 3);
//! * [`SolverConfig`] — budget `B`, thresholds `τF`/`τU`, toggles;
//! * [`QueryStats`] and [`JmpHistogram`] — per-query statistics and the
//!   Fig. 7 histogram.
//!
//! ```
//! use parcfl_core::{Solver, SolverConfig, NoJmpStore};
//!
//! let src = "class Obj { }
//!            class A { method m() { var x: Obj; x = new Obj; } }";
//! let pag = parcfl_frontend::build_pag(src).unwrap().pag;
//! let cfg = SolverConfig::default();
//! let store = NoJmpStore;
//! let mut solver = Solver::new(&pag, &cfg, &store);
//! let x = pag.node_by_name("x@A.m").unwrap();
//! let out = solver.points_to_query(x, 0);
//! assert_eq!(out.answer.nodes().unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod context;
mod footprint;
pub mod jmp;
mod solver;
mod stats;
mod witness;

pub use config::{SolverConfig, StateBackend};
pub use context::Ctx;
pub use footprint::{DirtySet, Footprint};
pub use jmp::{Dir, JmpEntry, JmpStore, NoJmpStore, SharedJmpStore};
pub use parcfl_concurrent::{CtxId, CtxInterner};
pub use solver::{CtxNode, Solver};
pub use stats::{Answer, AnswerSet, JmpHistogram, QueryOutput, QueryStats};
pub use witness::{Trace, Witness};

#[cfg(test)]
mod tests;
