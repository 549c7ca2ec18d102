//! The lock-protected shared work list of the paper's parallelisation
//! strategies (Section III-A): threads repeatedly fetch the next query (or
//! group of queries) until the list is empty — and [`WorkerObs`], the
//! per-worker record of what fetching from it cost.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Duration;

/// Per-worker dispatch observability: one record per worker per batch,
/// filled by the runtime's batch driver (groups fetched, queries
/// answered, steps traversed) and by the threaded fetch path (time spent
/// acquiring the work-list lock).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerObs {
    /// Worker index within the batch.
    pub worker: usize,
    /// Groups this worker fetched from the work list.
    pub local_pops: u64,
    /// Queries this worker answered.
    pub queries: u64,
    /// Steps this worker traversed.
    pub steps: u64,
    /// Nanoseconds spent acquiring the work-list lock — the contention
    /// measure of the paper's single shared list.
    pub lock_wait_ns: u64,
}

impl WorkerObs {
    /// A zeroed record for worker `worker`.
    pub fn new(worker: usize) -> Self {
        WorkerObs {
            worker,
            ..WorkerObs::default()
        }
    }

    /// Lock wait as a [`Duration`].
    pub fn lock_wait(&self) -> Duration {
        Duration::from_nanos(self.lock_wait_ns)
    }

    /// Folds another record's counters in (the owning `worker` index is
    /// kept): sessions sum batch records per worker slot.
    pub fn absorb(&mut self, other: &WorkerObs) {
        self.local_pops += other.local_pops;
        self.queries += other.queries;
        self.steps += other.steps;
        self.lock_wait_ns += other.lock_wait_ns;
    }
}

/// A FIFO work list shared by query-processing threads.
///
/// The naive strategy pushes individual queries; the scheduled strategy
/// pushes whole groups (reducing synchronisation, Section III-C) — the
/// element type `T` is either a query or a `Vec` of queries.
pub struct SharedWorkList<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> SharedWorkList<T> {
    /// Creates an empty work list.
    pub(crate) fn new() -> Self {
        SharedWorkList {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Creates a work list pre-filled in order.
    pub fn with_items(items: impl IntoIterator<Item = T>) -> Self {
        SharedWorkList {
            queue: Mutex::new(items.into_iter().collect()),
        }
    }

    /// Fetches the next item, or `None` when the list is (momentarily)
    /// empty.
    pub fn pop(&self) -> Option<T> {
        self.queue.lock().pop_front()
    }

    /// [`Self::pop`] plus the nanoseconds spent acquiring the list's lock
    /// — the contention measure [`WorkerObs::lock_wait_ns`] aggregates
    /// (every worker pays this wait on *every* fetch).
    pub fn pop_timed(&self) -> (Option<T>, u64) {
        let t0 = std::time::Instant::now();
        let mut q = self.queue.lock();
        let wait = t0.elapsed().as_nanos() as u64;
        (q.pop_front(), wait)
    }
}

impl<T> Default for SharedWorkList<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Source-compatibility shim for the frozen `benchmark/` crate, which
/// still drains a "stealing" queue in its dispatch micro-loop: the
/// work-stealing scheduler lost its ledger row and was deleted
/// (DESIGN.md §7), so this is the one FIFO [`SharedWorkList`] under the
/// old name.
#[doc(hidden)]
pub struct StealQueues<T>(SharedWorkList<T>);

impl<T> StealQueues<T> {
    /// One shared list holding `items` in order, whatever `workers` is.
    pub fn round_robin(_workers: usize, items: impl IntoIterator<Item = T>) -> Self {
        StealQueues(SharedWorkList::with_items(items))
    }

    /// [`SharedWorkList::pop`]; `obs` is left untouched.
    pub fn next(&self, _worker: usize, _obs: &mut WorkerObs) -> Option<T> {
        self.0.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let w = SharedWorkList::with_items([1, 2, 3]);
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn pop_timed_fetches_and_accounts() {
        let w = SharedWorkList::with_items([1, 2]);
        let (a, _) = w.pop_timed();
        assert_eq!(a, Some(1));
        let (b, _) = w.pop_timed();
        assert_eq!(b, Some(2));
        let (c, _) = w.pop_timed();
        assert_eq!(c, None);
    }

    #[test]
    fn steal_queues_shim_drains_fifo() {
        let q = StealQueues::round_robin(1, 0..100u32);
        let mut obs = WorkerObs::new(0);
        let drained: Vec<u32> = std::iter::from_fn(|| q.next(0, &mut obs)).collect();
        assert_eq!(drained, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_drain_is_exact() {
        let w: Arc<SharedWorkList<u32>> = Arc::new(SharedWorkList::with_items(0..10_000));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(x) = w.pop() {
                        got.push(x);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..10_000).collect::<Vec<_>>(),
            "every item exactly once"
        );
    }
}
