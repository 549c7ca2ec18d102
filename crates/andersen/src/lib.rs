//! # parcfl-andersen — inclusion-based whole-program baseline
//!
//! Andersen's analysis \[2\] is the algorithm every prior parallel pointer
//! analysis in the paper's Table II parallelises. It is implemented here as
//! a runnable substrate so the Table II comparison can be backed by a
//! quantitative sidebar: whole-program cost versus `k` on-demand
//! CFL-reachability queries ("why demand-driven analysis exists").
//!
//! Field-sensitive (Java-style `(object, field)` slots), context- and
//! flow-insensitive. [`analyze`] is a sequential difference-propagation
//! worklist.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod solver;

pub use solver::{analyze, AndersenResult};
