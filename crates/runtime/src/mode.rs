//! Run configuration: parallelisation strategy × execution backend.

use crate::trace::TraceLevel;
use parcfl_core::SolverConfig;

/// The paper's three parallelisation strategies (Section III / IV-C).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `ParCFL_naive`: shared work list only, no sharing, no scheduling.
    Naive,
    /// `ParCFL_D`: naive + the data-sharing scheme (Algorithm 2).
    DataSharing,
    /// `ParCFL_DQ`: data sharing + query scheduling (Section III-C).
    DataSharingSched,
}

impl Mode {
    /// Whether the jmp store is active in this mode.
    pub fn shares_data(self) -> bool {
        !matches!(self, Mode::Naive)
    }

    /// Whether the DQ schedule is used (vs. input order, one query per
    /// fetch).
    pub(crate) fn schedules_queries(self) -> bool {
        matches!(self, Mode::DataSharingSched)
    }

    /// Display label matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Naive => "naive",
            Mode::DataSharing => "D",
            Mode::DataSharingSched => "DQ",
        }
    }
}

/// Source-compatibility shim for the frozen `benchmark/` crate: the
/// matrix engine is gone (DESIGN.md §11) and every variant runs the
/// demand solver. See [`RunConfig::with_engine`].
#[doc(hidden)]
pub enum Engine {
    Demand,
    Matrix,
    Auto,
}

/// How the parallel run executes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Real OS threads (correct anywhere; speedups require real cores).
    Threaded,
    /// Deterministic discrete-event simulation in traversal-step virtual
    /// time — the substitution for the paper's 16-core machine (see
    /// DESIGN.md). Jmp-store visibility is gated by virtual timestamps.
    Simulated,
}

/// A complete parallel-run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Strategy.
    pub mode: Mode,
    /// Worker-thread count `t` (real or simulated).
    pub(crate) threads: usize,
    /// Execution backend.
    pub backend: Backend,
    /// Solver configuration. Whether the run shares data is the mode's
    /// decision, not a solver parameter.
    pub solver: SolverConfig,
    /// Overrides the DQ schedule's group-size cap (None = the default cap
    /// of 1: dispatch follows the DQ *order* query by query). The frozen
    /// benchmark reads it; the `ablation_group` experiment passes its caps
    /// to [`crate::schedule_with_cap`] directly.
    pub group_cap: Option<usize>,
    /// Tracing level (DESIGN.md §9). `Off` (the default) keeps the whole
    /// pipeline free of recording work; `Spans` records one
    /// [`crate::QuerySpan`] per query on the worker that ran it, returned
    /// as [`crate::RunResult::trace`]. Answers and step counts are
    /// identical at both levels.
    pub(crate) tracing: TraceLevel,
}

impl RunConfig {
    /// A configuration with paper defaults.
    pub fn new(mode: Mode, threads: usize, backend: Backend) -> Self {
        RunConfig {
            mode,
            threads,
            backend,
            solver: SolverConfig::default(),
            group_cap: None,
            tracing: TraceLevel::Off,
        }
    }

    /// Overrides the solver configuration.
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Source-compatibility shim for the frozen `benchmark/` crate: the
    /// work-stealing dispatcher is gone (DESIGN.md §7), so this returns
    /// the configuration unchanged and the run uses the one work list.
    #[doc(hidden)]
    pub fn with_stealing(self, _stealing: bool) -> Self {
        self
    }

    /// Sets the event-tracing level.
    pub fn with_tracing(mut self, tracing: TraceLevel) -> Self {
        self.tracing = tracing;
        self
    }

    /// Source-compatibility shim for the frozen `benchmark/` crate:
    /// there is one engine, so this returns the configuration unchanged.
    #[doc(hidden)]
    pub fn with_engine(self, _engine: Engine) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_properties() {
        assert!(!Mode::Naive.shares_data());
        assert!(Mode::DataSharing.shares_data());
        assert!(Mode::DataSharingSched.shares_data());
        assert!(!Mode::Naive.schedules_queries());
        assert!(!Mode::DataSharing.schedules_queries());
        assert!(Mode::DataSharingSched.schedules_queries());
        assert_eq!(Mode::Naive.label(), "naive");
        assert_eq!(Mode::DataSharing.label(), "D");
        assert_eq!(Mode::DataSharingSched.label(), "DQ");
    }
}
