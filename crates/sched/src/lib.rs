//! # parcfl-sched — query scheduling
//!
//! The paper's second technique (Section III-C): when queries arrive in
//! batch mode, the order they are issued in determines how many early
//! terminations the unfinished `jmp` edges can trigger. This crate
//! implements the static schedule:
//!
//! 1. [`groups`] — queries are grouped by connectivity under the `direct`
//!    relation (assignments, parameters, returns; grammar (5));
//! 2. [`metrics`] — connection distances (longest direct path through each
//!    variable, modulo recursion) order queries *within* a group;
//!    dependence depths (`1/L(t)` from the type containment hierarchy)
//!    order the groups themselves;
//! 3. [`schedule`] — groups are rebalanced towards the mean size `M`
//!    (split/merge) and emitted in increasing-DD order.
//!
//! Long-lived clients (analysis sessions answering many batches over one
//! PAG) use [`cache::ScheduleCache`] to compute the query-independent
//! metadata once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod groups;
pub mod metrics;
pub mod schedule;

pub use cache::ScheduleCache;
pub use groups::Groups;
pub use schedule::{build_schedule, build_schedule_with_levels, Schedule, ScheduleOptions};
