//! What a traced run records: one [`QuerySpan`] per query, on the worker
//! that ran it, in the order it ran them (DESIGN.md §9).

use parcfl_pag::NodeId;

/// How much the pipeline records (`RunConfig::tracing`).
// `Full` is a shim that callers still construct, not a non-exhaustive marker.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// No spans: a lane allocates nothing and pushes nothing.
    #[default]
    Off,
    /// One [`QuerySpan`] per query, on the worker that ran it.
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
    pub(crate) fn enabled(self) -> bool {
        !matches!(self, TraceLevel::Off)
    }

    /// Parses a flag spelling: `off` or `spans`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "spans" => Some(TraceLevel::Spans),
            _ => None,
        }
    }
}

/// One query a worker ran.
///
/// `start` and `end` are on the lane's clock: nanoseconds since the batch
/// start on real threads, virtual steps on the simulator. `end - start` is
/// the query's latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QuerySpan {
    /// The query variable.
    pub query: NodeId,
    /// When the query began.
    pub start: u64,
    /// When its answer was ready.
    pub end: u64,
    /// Whether the answer was complete (`false`: out of budget).
    pub(crate) complete: bool,
}

/// One worker's spans for one batch.
#[derive(Clone, Debug)]
pub struct WorkerTrace {
    /// Worker index.
    pub worker: usize,
    /// One span per query the worker ran, in run order.
    pub events: Vec<QuerySpan>,
    /// Source-compatibility shim for the frozen `benchmark/` crate: spans
    /// are never dropped, so this is always 0.
    #[doc(hidden)]
    pub dropped: u64,
}

/// Everything a traced run recorded: one track per worker.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Per-worker tracks, in worker order.
    pub workers: Vec<WorkerTrace>,
}
