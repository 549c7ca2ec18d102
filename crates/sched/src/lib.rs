//! # parcfl-sched — query scheduling
//!
//! The paper's second technique (Section III-C): when queries arrive in
//! batch mode, the order they are issued in determines how many early
//! terminations the unfinished `jmp` edges can trigger. This crate
//! implements the static schedule:
//!
//! 1. [`Groups`] — queries are grouped by connectivity under the `direct`
//!    relation (assignments, parameters, returns; grammar (5));
//! 2. flow depths (longest value-flow path into each variable, through
//!    the heap too), then connection distances (longest direct path
//!    through it), both modulo recursion, order queries *within* a group;
//!    dependence depths (`1/L(t)` from the type containment hierarchy)
//!    order the groups themselves;
//! 3. [`build_schedule`] — groups are rebalanced towards the mean size `M`
//!    (split/merge) and emitted in increasing-DD order.
//!
//! Long-lived clients (analysis sessions answering many batches over one
//! PAG) use [`ScheduleCache`] to compute the query-independent metadata
//! once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod groups;
mod metrics;
mod schedule;

pub use cache::ScheduleCache;
pub use groups::Groups;
pub use schedule::{build_schedule, Schedule, ScheduleOptions};
