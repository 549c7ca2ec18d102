//! The bounded per-worker event buffer.
//!
//! One ring per worker, owned by that worker for the whole batch: access
//! is single-threaded by construction — no locks, no atomics, no
//! synchronisation of any kind on the record path. The buffer is allocated
//! once up front and never grows; when it fills, new events are *dropped
//! and counted* — recording must never block the solver and never
//! reallocate mid-query.

use crate::Event;

/// Default ring capacity (events per worker per batch). At 24 bytes per
/// event this is 1.5 MiB per worker: 32 768 queries' spans.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A bounded, drop-counting, never-blocking event buffer.
pub struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `cap` events (allocated eagerly; capacity 0
    /// allocates nothing and drops everything).
    pub fn new(cap: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Records `e`, or counts it dropped when the ring is full. Never
    /// blocks, never reallocates.
    #[inline]
    pub fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, yielding its events (record order) and the drop
    /// count.
    pub fn into_parts(self) -> (Vec<Event>, u64) {
        (self.buf, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(ts: u64) -> Event {
        Event {
            ts,
            kind: EventKind::QueryStart,
            a: ts as u32,
            b: 0,
        }
    }

    #[test]
    fn records_in_order_until_full_then_counts_drops() {
        let mut r = EventRing::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2, "overflow is counted, not silently lost");
        let (events, dropped) = r.into_parts();
        assert_eq!(dropped, 2);
        assert_eq!(
            events.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "record order preserved; newest events are the ones dropped"
        );
    }

    #[test]
    fn never_reallocates() {
        let mut r = EventRing::new(128);
        let ptr_before = r.buf.as_ptr();
        for i in 0..1_000 {
            r.push(ev(i));
        }
        assert_eq!(
            r.buf.as_ptr(),
            ptr_before,
            "the buffer must stay where it was allocated"
        );
        assert_eq!(r.len(), 128);
        assert_eq!(r.dropped(), 1_000 - 128);
    }

    #[test]
    fn zero_capacity_drops_everything_without_allocating() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.capacity(), 0);
    }
}
