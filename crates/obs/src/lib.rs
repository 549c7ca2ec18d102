//! # parcfl-obs — observability substrate
//!
//! The diagnostic layer every executor (inline, simulated, threaded)
//! records into (DESIGN.md §9):
//!
//! * [`TraceRecorder`] — a per-worker, allocation-free event sink: a
//!   bounded [`ring::EventRing`] of timestamped query spans, a no-op when
//!   tracing is [`TraceLevel::Off`]. Each worker owns its recorder (no
//!   locks, no atomics on the record path);
//! * [`LogHistogram`] / [`ObsHists`] — fixed-bucket log2 latency
//!   histograms (query latency, lock wait, group makespan)
//!   that merge slot-wise into run statistics;
//! * [`prometheus`] — a text-exposition-format renderer for counters and
//!   histograms, consumed by `AnalysisSession::metrics_snapshot()`.
//!
//! This crate depends on nothing, so every layer of the pipeline can
//! record into it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod prometheus;
pub mod recorder;
pub mod ring;

pub use hist::{LogHistogram, ObsHists};
pub use prometheus::PromText;
pub use recorder::{RunTrace, TraceClock, TraceRecorder, WorkerTrace};
pub use ring::EventRing;

/// How much the pipeline records (`RunConfig::tracing`).
// `Full` is a shim that callers still construct, not a non-exhaustive marker.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// No events. The recording API compiles to a branch on a constant
    /// field — unmeasurable on real workloads (the acceptance budget in
    /// DESIGN.md §9 is < 2% on `table2 --smoke`; measured well below).
    #[default]
    Off,
    /// One `QueryStart` / `QueryEnd` pair per query, on the worker that
    /// ran it.
    Spans,
    /// Source-compatibility shim for the frozen `benchmark/` crate: the
    /// hot-path instants it once added are gone, and it records exactly
    /// what [`TraceLevel::Spans`] records.
    #[doc(hidden)]
    Full,
}

impl TraceLevel {
    /// Whether anything is recorded at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, TraceLevel::Off)
    }

    /// Parses a flag spelling: `off` or `spans`. `full`, the spelling of
    /// the deleted hot-path level, reads as `spans`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "spans" | "full" => Some(TraceLevel::Spans),
            _ => None,
        }
    }
}

/// What happened. `a`/`b` are the two `u32` payload slots of [`Event`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A query began. `a` = query node id.
    QueryStart,
    /// A query finished. `a` = query node id, `b` = 1 if the answer was
    /// complete, 0 if out of budget.
    QueryEnd,
}

/// One timestamped event: 24 bytes, `Copy`, no payload allocation.
///
/// `ts` is nanoseconds since the batch start on a real-thread lane, or
/// the lane's virtual-step instant on a simulated one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Timestamp (ns since the batch start, or virtual steps).
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload slot (meaning per [`EventKind`]).
    pub a: u32,
    /// Second payload slot (meaning per [`EventKind`]).
    pub b: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ladder() {
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Spans.enabled());
        assert!(TraceLevel::Full.enabled());
        assert_eq!(TraceLevel::parse("spans"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse("full"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse("bogus"), None);
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
    }

    #[test]
    fn event_is_compact() {
        assert_eq!(std::mem::size_of::<Event>(), 24);
    }
}
