//! Reusable per-PAG scheduling metadata.
//!
//! Schedule construction has two cost classes: the per-type level table
//! (`pag.types().levels()`, query-independent — one pass over the type
//! hierarchy) and the per-query-set work (grouping, flow depths and
//! connection distances, ordering). A [`ScheduleCache`] computes the level
//! table once, lazily, and builds every schedule over it.
//!
//! Whole schedules are not kept. A session answers a query it has asked
//! before from the answer it kept, before any schedule is asked for, so
//! the query set that reaches this cache is a different one after every
//! edit: a memo keyed on it served no workload (ROADMAP item 3(c)).

use crate::schedule::{build_schedule_with_levels, Schedule, ScheduleOptions};
use parcfl_pag::{NodeId, Pag};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Scheduling metadata for one PAG: the type-level table, computed once.
/// Bind it to one graph and its edited revisions — the table depends only
/// on the type hierarchy, which edge edits never touch.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    levels: OnceLock<Vec<u32>>,
    built: AtomicU64,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// Builds the schedule for `queries` under `opts` over the level
    /// table, which the first call computes.
    pub fn schedule(&self, pag: &Pag, queries: &[NodeId], opts: &ScheduleOptions) -> Schedule {
        let levels = self.levels.get_or_init(|| pag.types().levels());
        self.built.fetch_add(1, Ordering::Relaxed);
        build_schedule_with_levels(pag, queries, opts, levels)
    }

    /// Schedules built so far.
    pub fn misses(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Source-compatibility shim for the frozen `benchmark/` crate, which
    /// reads `sched.cache.hit_share` off it: no schedule is memoised, so
    /// none is ever served from a memo.
    #[doc(hidden)]
    pub fn hits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::build_schedule;
    use parcfl_frontend::build_pag;

    #[test]
    fn cached_schedule_matches_direct_build() {
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj; var c: Obj; var d: Obj;
                     a = new Obj; b = a; c = b;
                     d = new Obj;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let opts = ScheduleOptions::default();
        let cache = ScheduleCache::new();
        // The second build reuses the first one's level table.
        for built in 1..=2 {
            let cached = cache.schedule(&pag, &queries, &opts);
            let direct = build_schedule(&pag, &queries, &opts);
            assert_eq!(cached.groups, direct.groups);
            assert_eq!(cached.avg_group_size, direct.avg_group_size);
            assert_eq!((cache.misses(), cache.hits()), (built, 0));
        }
    }
}
