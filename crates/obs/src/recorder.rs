//! The per-worker recording facade and the trace a run hands back.

use crate::ring::{EventRing, DEFAULT_RING_CAPACITY};
use crate::{Event, EventKind, TraceLevel};
use std::time::Instant;

/// Where a recorder's timestamps come from.
#[derive(Copy, Clone, Debug)]
pub enum TraceClock {
    /// Wall clock: timestamps are nanoseconds since the given epoch (the
    /// batch start, shared by every worker so their tracks align).
    Real(Instant),
    /// Caller-supplied virtual time: the simulator passes the traversal-
    /// step instant explicitly on every record call.
    External,
}

/// One worker's event sink for one batch.
///
/// Owned by exactly one worker: recording is a level check, a clock read,
/// and a bounded buffer push — no locks anywhere. At [`TraceLevel::Off`]
/// [`Self::span`] returns after one branch on a constant field and the
/// ring holds no allocation at all.
pub struct TraceRecorder {
    level: TraceLevel,
    clock: TraceClock,
    ring: EventRing,
}

impl TraceRecorder {
    /// A wall-clock recorder stamping nanoseconds since `epoch`.
    pub fn real(level: TraceLevel, epoch: Instant) -> Self {
        Self::with_capacity(level, TraceClock::Real(epoch), DEFAULT_RING_CAPACITY)
    }

    /// A virtual-time recorder: every record call supplies its own
    /// timestamp (the simulator's traversal-step clock).
    pub fn external(level: TraceLevel) -> Self {
        Self::with_capacity(level, TraceClock::External, DEFAULT_RING_CAPACITY)
    }

    /// A recorder with an explicit ring capacity (`Off` always gets 0).
    pub fn with_capacity(level: TraceLevel, clock: TraceClock, cap: usize) -> Self {
        let cap = if level.enabled() { cap } else { 0 };
        TraceRecorder {
            level,
            clock,
            ring: EventRing::new(cap),
        }
    }

    /// The timestamp to record: the wall clock's elapsed nanoseconds, or
    /// the caller's virtual instant. Only called after the level check —
    /// `Off` never reads any clock.
    #[inline]
    fn stamp(&self, vts: u64) -> u64 {
        match self.clock {
            TraceClock::Real(epoch) => epoch.elapsed().as_nanos() as u64,
            TraceClock::External => vts,
        }
    }

    /// Records a span event. `vts` is the virtual timestamp under an
    /// external clock, ignored otherwise.
    #[inline]
    pub fn span(&mut self, kind: EventKind, vts: u64, a: u32, b: u32) {
        if !self.level.enabled() {
            return;
        }
        self.ring.push(Event {
            ts: self.stamp(vts),
            kind,
            a,
            b,
        });
    }

    /// Consumes the recorder into the worker's share of the run trace.
    pub fn into_trace(self, worker: usize) -> WorkerTrace {
        let (events, dropped) = self.ring.into_parts();
        WorkerTrace {
            worker,
            events,
            dropped,
        }
    }
}

/// One worker's recorded events for one batch.
#[derive(Clone, Debug, Default)]
pub struct WorkerTrace {
    /// Worker index.
    pub worker: usize,
    /// Events in record order (per-worker timestamps are monotone).
    pub events: Vec<Event>,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// Everything a traced run recorded: one track per worker.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Per-worker tracks.
    pub workers: Vec<WorkerTrace>,
}

impl RunTrace {
    /// Total events across all workers.
    pub fn event_count(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut r = TraceRecorder::external(TraceLevel::Off);
        r.span(EventKind::QueryStart, 1, 2, 3);
        let t = r.into_trace(0);
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 0, "Off drops nothing: it never pushes");
    }

    #[test]
    fn spans_stamp_the_callers_virtual_time() {
        let mut r = TraceRecorder::external(TraceLevel::Spans);
        r.span(EventKind::QueryStart, 10, 7, 0);
        r.span(EventKind::QueryEnd, 12, 7, 1);
        let t = r.into_trace(2);
        assert_eq!(t.worker, 2);
        assert_eq!(
            t.events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![EventKind::QueryStart, EventKind::QueryEnd]
        );
        assert_eq!(t.events[0].ts, 10, "external clock uses the caller's ts");
    }

    #[test]
    fn full_records_everything() {
        // Everything there is to record is the spans `Spans` records.
        let mut full = TraceRecorder::external(TraceLevel::Full);
        let mut spans = TraceRecorder::external(TraceLevel::Spans);
        for r in [&mut full, &mut spans] {
            r.span(EventKind::QueryStart, 1, 0, 0);
            r.span(EventKind::QueryEnd, 2, 0, 1);
        }
        let events = full.into_trace(0).events;
        assert_eq!(events.len(), 2);
        assert_eq!(events, spans.into_trace(0).events);
    }

    #[test]
    fn real_clock_is_monotone() {
        let mut r = TraceRecorder::real(TraceLevel::Spans, Instant::now());
        r.span(EventKind::QueryStart, 999, 0, 0);
        r.span(EventKind::QueryEnd, 0, 0, 1);
        let t = r.into_trace(0);
        assert!(t.events[0].ts <= t.events[1].ts);
    }

    #[test]
    fn run_trace_totals() {
        let mut r1 = TraceRecorder::external(TraceLevel::Spans);
        r1.span(EventKind::QueryStart, 1, 0, 0);
        let mut r2 = TraceRecorder::with_capacity(TraceLevel::Spans, TraceClock::External, 1);
        r2.span(EventKind::QueryStart, 1, 0, 0);
        r2.span(EventKind::QueryEnd, 2, 0, 1);
        let t = RunTrace {
            workers: vec![r1.into_trace(0), r2.into_trace(1)],
        };
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.workers[1].dropped, 1, "the second span fell off");
    }
}
