//! # parcfl-concurrent — concurrency substrate
//!
//! The shared-memory building blocks of the parallel analysis:
//!
//! * [`FxHasher`] — the Fx hash function plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases used for all hot hash tables;
//! * [`ShardedMap`] — a sharded concurrent map, our equivalent of the
//!   `ConcurrentHashMap` the paper uses to manage `jmp` edges, with
//!   first-writer-wins `try_insert` matching the paper's race rules;
//! * [`CtxInterner`] — the hash-consed calling-context table: contexts
//!   become `Copy` 32-bit [`CtxId`]s with lock-free resolve and
//!   sharded-lock first-time interning;
//! * [`SharedWorkList`] — the lock-protected shared query work list of
//!   Section III-A, the runtime's only dispatch structure, with the
//!   per-worker record of what fetching from it cost ([`WorkerObs`]);
//! * [`bitset`] — chunked bitsets over the dense `CtxId` space and the
//!   [`StateSet`] visited-state tables (hash and dense) the solver hot
//!   loop selects between (DESIGN.md §11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
mod fxhash;
mod interner;
mod sharded_map;
mod worklist;

pub use bitset::{ChunkedBitset, DenseVisitSet, HashVisitSet, StateSet, CHUNK_BITS};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use interner::{CtxId, CtxInterner, CtxMirror};
pub use sharded_map::ShardedMap;
pub use worklist::{SharedWorkList, StealQueues, WorkerObs};
