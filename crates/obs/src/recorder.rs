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
/// Owned by exactly one worker thread (the type is deliberately not
/// `Sync`): recording is a level check, a clock read, and a bounded buffer
/// push — no locks anywhere. At [`TraceLevel::Off`] both entry points
/// return after one branch on a constant field and the ring holds no
/// allocation at all.
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

    /// The recorder's level.
    #[inline]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether span events are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// Whether hot-path instant events are recorded.
    #[inline]
    pub fn full(&self) -> bool {
        self.level.full()
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

    /// Records a span-skeleton event (`Spans` and `Full`). `vts` is the
    /// virtual timestamp under an external clock, ignored otherwise.
    #[inline]
    pub fn span(&self, kind: EventKind, vts: u64, a: u32, b: u32) {
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

    /// Records a hot-path instant event (`Full` only). `vts` as in
    /// [`Self::span`].
    #[inline]
    pub fn instant(&self, kind: EventKind, vts: u64, a: u32, b: u32) {
        if !self.level.full() {
            return;
        }
        self.ring.push(Event {
            ts: self.stamp(vts),
            kind,
            a,
            b,
        });
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped on ring overflow.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
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
    /// Worker index (one exporter track per worker).
    pub worker: usize,
    /// Events in record order (per-worker timestamps are monotone).
    pub events: Vec<Event>,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// Everything a traced run recorded: one track per worker.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Whether timestamps are wall-clock nanoseconds (`true`) or virtual
    /// traversal steps (`false`); decides the exporters' time scale.
    pub real_time: bool,
    /// Per-worker tracks.
    pub workers: Vec<WorkerTrace>,
}

impl RunTrace {
    /// Total events across all workers.
    pub fn event_count(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Total events dropped across all workers.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Renders the Chrome-trace JSON (see [`crate::chrome`]).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::chrome_trace_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let r = TraceRecorder::external(TraceLevel::Off);
        r.span(EventKind::QueryStart, 1, 2, 3);
        r.instant(EventKind::JmpHit, 4, 5, 6);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0, "Off drops nothing: it never pushes");
        let t = r.into_trace(0);
        assert!(t.events.is_empty());
    }

    #[test]
    fn spans_records_spans_but_not_instants() {
        let r = TraceRecorder::external(TraceLevel::Spans);
        r.span(EventKind::QueryStart, 10, 7, 0);
        r.instant(EventKind::JmpHit, 11, 7, 0);
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
        let r = TraceRecorder::external(TraceLevel::Full);
        r.span(EventKind::QueryStart, 1, 0, 0);
        r.instant(EventKind::Eviction, 2, 3, 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn real_clock_is_monotone() {
        let r = TraceRecorder::real(TraceLevel::Spans, Instant::now());
        r.span(EventKind::QueryStart, 999, 0, 0);
        r.span(EventKind::QueryEnd, 0, 0, 1);
        let t = r.into_trace(0);
        assert!(t.events[0].ts <= t.events[1].ts);
    }

    #[test]
    fn run_trace_totals() {
        let r1 = TraceRecorder::external(TraceLevel::Spans);
        r1.span(EventKind::QueryStart, 1, 0, 0);
        let r2 = TraceRecorder::with_capacity(TraceLevel::Spans, TraceClock::External, 1);
        r2.span(EventKind::QueryStart, 1, 0, 0);
        r2.span(EventKind::QueryEnd, 2, 0, 1);
        let t = RunTrace {
            real_time: false,
            workers: vec![r1.into_trace(0), r2.into_trace(1)],
        };
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.dropped(), 1);
    }
}
