//! Solver configuration.

use std::fmt;
use std::str::FromStr;

/// How the demand solver stores its visited-state tables (DESIGN.md §11).
///
/// Both backends are **bit-identical** in every observable output —
/// answers, step counts, publication decisions — because the tables are
/// pure membership structures whose iteration order the solver never
/// depends on. `Hash` is the reference: differential tests, the
/// benchmark's correctness gate and the `parcfl check --fuzz` backend
/// dimension prove that claim against it on every run. It is not a user
/// choice — `Dense` is faster on every ledger workload.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum StateBackend {
    /// `FxHashMap<node, FxHashSet<ctx>>` — the historical layout.
    Hash,
    /// Paged inline-first rows per node, spilling to chunked `CtxId`
    /// bitsets — the default, pooled per solver.
    #[default]
    Dense,
}

impl StateBackend {
    /// Stable lower-case name (snapshots, JSON).
    pub fn name(self) -> &'static str {
        match self {
            StateBackend::Hash => "hash",
            StateBackend::Dense => "dense",
        }
    }
}

impl fmt::Display for StateBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StateBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "hash" => Ok(StateBackend::Hash),
            "dense" => Ok(StateBackend::Dense),
            other => Err(format!("unknown state backend `{other}` (hash|dense)")),
        }
    }
}

/// Tunable parameters of the demand-driven analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolverConfig {
    /// The per-query budget `B`: the maximum number of node traversals
    /// (steps) any single query may perform, counting all nested recursive
    /// traversals. The paper sets 75,000.
    pub budget: u64,
    /// `τF`: a finished `jmp` set is published only when its recomputation
    /// cost (total steps of the `ReachableNodes` call) is at least this.
    /// Filters out cheap shortcuts whose map-synchronisation cost exceeds
    /// their benefit (Section IV-A).
    ///
    /// The default is 20, not the paper's 100. The paper tuned 100 for a
    /// contended `ConcurrentHashMap` at 16 threads. Here an insert costs
    /// about as much as one traversal step, so cheaper shortcuts pay too.
    /// On two real threads, τF ∈ {0, 5, 10, 20} all halve `table1_cold`'s
    /// wall time against 100 (threaded steps 21.2 M → 5.3 M), and 20 holds
    /// the fewest jmp bytes of the four. Above 20 the saving falls off
    /// fast: τF = 25 already traverses 8.6 M steps, τF = 30 9.2 M
    /// (EXPERIMENTS.md §IV-D2).
    pub tau_finished: u64,
    /// `τU`: an unfinished `jmp(s) ⇒ O` edge is published only when
    /// `s ≥ τU` (paper: 10,000; wall time measured flat from 0 to 10,000
    /// at the default τF).
    pub tau_unfinished: u64,
    /// Whether calling contexts are tracked (`param`/`ret` matched as
    /// balanced parentheses). Off = field-sensitive-only analysis, grammar
    /// (2) with all assignment kinds merged.
    pub context_sensitive: bool,
    /// Visited-state table representation (see [`StateBackend`]). Purely a
    /// performance/memory choice: answers and costs are bit-identical
    /// across backends.
    pub state: StateBackend,
    /// Whether traversals record reverse-dependency [`crate::Footprint`]s
    /// alongside finished jmp publishes, enabling
    /// selective invalidation after a `PagDelta` (DESIGN.md §12). Off by
    /// default: one-shot runs pay nothing. Sessions that support
    /// `apply_delta` force it on. Pure metadata — answers, step counts and
    /// publication decisions are bit-identical either way.
    pub record_footprints: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            budget: 75_000,
            tau_finished: 20,
            tau_unfinished: 10_000,
            context_sensitive: true,
            state: StateBackend::default(),
            record_footprints: false,
        }
    }
}

impl SolverConfig {
    /// Overrides the budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Disables the selective-insertion thresholds (for the τ ablation of
    /// Section IV-D2: all jmp edges are recorded).
    pub fn without_tau_thresholds(mut self) -> Self {
        self.tau_finished = 0;
        self.tau_unfinished = 0;
        self
    }

    /// Selects the visited-state table representation.
    pub fn with_state(mut self, state: StateBackend) -> Self {
        self.state = state;
        self
    }

    /// Enables reverse-dependency footprint recording (see the field
    /// docs; answers are identical either way).
    pub fn with_footprints(mut self) -> Self {
        self.record_footprints = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_except_tau_finished() {
        let c = SolverConfig::default();
        assert_eq!(c.budget, 75_000);
        assert_eq!(c.tau_finished, 20);
        assert_eq!(c.tau_unfinished, 10_000);
        assert!(c.context_sensitive);
    }

    #[test]
    fn state_backend_names_round_trip() {
        for b in [StateBackend::Hash, StateBackend::Dense] {
            assert_eq!(b.name().parse::<StateBackend>().unwrap(), b);
        }
        assert!("csr".parse::<StateBackend>().is_err());
        assert_eq!(SolverConfig::default().state, StateBackend::Dense);
    }

    #[test]
    fn builders() {
        let c = SolverConfig::default()
            .with_budget(5)
            .without_tau_thresholds();
        assert_eq!(c.budget, 5);
        assert_eq!(c.tau_finished, 0);
        assert_eq!(c.tau_unfinished, 0);
    }
}
