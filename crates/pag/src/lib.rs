//! # parcfl-pag — Pointer Assignment Graph
//!
//! The program representation of "Parallel Pointer Analysis with
//! CFL-Reachability" (Su, Ye, Xue — ICPP 2014), Fig. 1: a directed graph
//! whose nodes are local variables, globals and allocation-site objects, and
//! whose edges are the seven statement kinds (`new`, `assign_l`, `assign_g`,
//! `ld(f)`, `st(f)`, `param_i`, `ret_i`), oriented in the direction of value
//! flow.
//!
//! The crate also hosts:
//!
//! * [`types::TypeTable`] — the analysed program's type metadata, needed by
//!   query scheduling for dependence-depth estimation;
//! * [`algo`] — graph utilities (iterative Tarjan SCC, DAG longest paths,
//!   union-find) shared by the frontend and the scheduler;
//! * [`stats::PagStats`] — structural statistics (Table I columns);
//! * [`dot`] — Graphviz export.
//!
//! The `jmp` shortcut edges of the extended PAG (paper Fig. 4) are an
//! *overlay* maintained by `parcfl-core`'s concurrent jmp store; the graph
//! here stays immutable and is shared read-only across threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod delta;
pub mod dot;
mod edge;
mod graph;
mod ids;
mod node;
pub mod stats;
pub mod types;

pub use delta::{DeltaEffect, DeltaOp, PagDelta};
pub use edge::{Edge, EdgeClass, EdgeKind, EDGE_CLASSES};
pub use graph::{ClassSlices, PackedAdj, Pag, PagBuilder};
pub use ids::{CallSiteId, FieldId, MethodId, NodeId, TypeId};
pub use node::{NodeInfo, NodeKind, NodeName};
pub use types::TypeInfo;
