//! # parcfl-obs — observability substrate
//!
//! The diagnostic layer every executor (inline, simulated, threaded) and
//! the session service emit into (DESIGN.md §9):
//!
//! * [`TraceRecorder`] — a per-worker, allocation-free event sink: a
//!   bounded [`ring::EventRing`] of timestamped [`Event`]s behind a cheap
//!   `#[inline]` API that is a no-op when tracing is [`TraceLevel::Off`].
//!   Each worker owns its recorder (single-threaded interior mutability,
//!   no locks, no atomics on the record path);
//! * [`LogHistogram`] / [`ObsHists`] — fixed-bucket log2 latency
//!   histograms (query latency, lock wait, group makespan)
//!   that merge slot-wise into run statistics;
//! * [`chrome`] — `chrome://tracing` / Perfetto JSON export of a
//!   [`RunTrace`] (one track per worker, spans from `QueryStart`/`End`
//!   pairs, instant events for evictions/jmp traffic);
//! * [`prometheus`] — a text-exposition-format renderer for counters and
//!   histograms, consumed by `AnalysisSession::metrics_snapshot()`.
//!
//! This crate depends on nothing, so every layer of the pipeline can
//! record into it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod prometheus;
pub mod recorder;
pub mod ring;

pub use chrome::chrome_trace_json;
pub use hist::{LogHistogram, ObsHists};
pub use prometheus::PromText;
pub use recorder::{RunTrace, TraceClock, TraceRecorder, WorkerTrace};
pub use ring::EventRing;

/// How much the pipeline records (`RunConfig::tracing`).
///
/// The level is a strict ladder: everything a lower level records, higher
/// levels record too.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// No events. The recording API compiles to a branch on a constant
    /// field — unmeasurable on real workloads (the acceptance budget in
    /// DESIGN.md §9 is < 2% on `table2 --smoke`; measured well below).
    #[default]
    Off,
    /// Span skeleton only: `QueryStart`/`QueryEnd`, `GroupDequeued`,
    /// `BatchStart`/`BatchEnd` — enough for a per-worker timeline.
    Spans,
    /// Spans plus instant events from the hot paths: jmp hits/inserts,
    /// evictions, early terminations.
    Full,
}

impl TraceLevel {
    /// Whether anything is recorded at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, TraceLevel::Off)
    }

    /// Whether hot-path instant events are recorded.
    #[inline]
    pub fn full(self) -> bool {
        matches!(self, TraceLevel::Full)
    }

    /// Parses a CLI/flag spelling (`off`, `spans`, `full`).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "spans" => Some(TraceLevel::Spans),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// What happened. The discriminant is the whole event vocabulary of the
/// pipeline; payload meaning per kind is documented on each variant
/// (`a`/`b` are the two `u32` payload slots of [`Event`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A query began. `a` = query node id.
    QueryStart,
    /// A query finished. `a` = query node id, `b` = 1 if the answer was
    /// complete, 0 if out of budget.
    QueryEnd,
    /// A worker fetched a query group. `a` = group size.
    GroupDequeued,
    /// A finished jmp entry served a shortcut. `a` = node id,
    /// `b` = steps saved (saturated to `u32::MAX`).
    JmpHit,
    /// A jmp entry was published. `a` = node id, `b` = 1 finished,
    /// 0 unfinished.
    JmpInsert,
    /// The bounded store evicted entries on this worker's publish.
    /// `a` = entries evicted.
    Eviction,
    /// An unfinished jmp entry proved the remaining budget insufficient.
    /// `a` = node id.
    EarlyTermination,
    /// A session batch began. `a` = batch index.
    BatchStart,
    /// A session batch ended. `a` = batch index, `b` = queries answered.
    BatchEnd,
}

impl EventKind {
    /// Short display name used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::QueryStart => "query_start",
            EventKind::QueryEnd => "query_end",
            EventKind::GroupDequeued => "group_dequeued",
            EventKind::JmpHit => "jmp_hit",
            EventKind::JmpInsert => "jmp_insert",
            EventKind::Eviction => "eviction",
            EventKind::EarlyTermination => "early_termination",
            EventKind::BatchStart => "batch_start",
            EventKind::BatchEnd => "batch_end",
        }
    }
}

/// One timestamped event: 24 bytes, `Copy`, no payload allocation.
///
/// `ts` is nanoseconds since the batch epoch under a real clock, or the
/// virtual-step instant under the simulator's external clock (the owning
/// [`RunTrace`] records which).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Timestamp (ns since epoch, or virtual steps).
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
        assert!(!TraceLevel::Off.full());
        assert!(!TraceLevel::Spans.full());
        assert!(TraceLevel::Full.full());
        assert_eq!(TraceLevel::parse("spans"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse("bogus"), None);
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
    }

    #[test]
    fn span_kinds() {
        assert_eq!(EventKind::Eviction.label(), "eviction");
    }

    #[test]
    fn event_is_compact() {
        assert_eq!(std::mem::size_of::<Event>(), 24);
    }
}
