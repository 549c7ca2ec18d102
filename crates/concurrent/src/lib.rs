//! # parcfl-concurrent — concurrency substrate
//!
//! The shared-memory building blocks of the parallel analysis:
//!
//! * [`fxhash`] — the Fx hash function plus `FxHashMap`/`FxHashSet`
//!   aliases used for all hot hash tables;
//! * [`sharded_map::ShardedMap`] — a sharded concurrent map, our equivalent
//!   of the `ConcurrentHashMap` the paper uses to manage `jmp` edges, with
//!   first-writer-wins `try_insert` matching the paper's race rules;
//! * [`interner::CtxInterner`] — the hash-consed calling-context table:
//!   contexts become `Copy` 32-bit [`interner::CtxId`]s with lock-free
//!   resolve and sharded-lock first-time interning;
//! * [`worklist::SharedWorkList`] — the lock-protected shared query work
//!   list of Section III-A, the runtime's only dispatch structure, with
//!   the per-worker record of what fetching from it cost
//!   ([`worklist::WorkerObs`]);
//! * [`bitset`] — chunked bitsets over the dense `CtxId` space and the
//!   [`bitset::StateSet`] visited-state tables (hash and dense) the solver
//!   hot loop selects between (DESIGN.md §11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod fxhash;
pub mod interner;
pub mod sharded_map;
pub mod worklist;

pub use bitset::{kernel, Chunk, ChunkedBitset, DenseVisitSet, HashVisitSet, StateSet, CHUNK_BITS};
pub use fxhash::{FxHashMap, FxHashSet};
pub use interner::{CtxId, CtxInterner, CtxMirror};
pub use sharded_map::ShardedMap;
pub use worklist::{SharedWorkList, StealQueues, WorkerObs};
