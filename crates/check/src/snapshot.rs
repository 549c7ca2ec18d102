//! Self-contained failing scenarios and their on-disk snapshot format.
//!
//! A [`Scenario`] bundles everything needed to replay one analysis run:
//! the PAG, the query set, the mode/backend/thread configuration, the
//! solver knobs and the optional simulator perturbation. The fuzzer turns
//! a mismatching iteration into a `Scenario`, the shrinker minimises it,
//! and [`Scenario::to_snapshot`] serialises the result as a small text
//! file (conventionally `*.snap`) checked into `tests/corpus/`.
//!
//! ## Snapshot format v1
//!
//! Line-oriented text; `#` starts a comment. The graph is stored in the
//! canonical form produced by `parcfl_synth::mutate::canonicalize` (node
//! names, types and method identities scrubbed — only what the solver's
//! semantics depend on survives), so parsing rebuilds a graph that is
//! analysis-equivalent, not byte-equal, to the original.
//!
//! ```text
//! # free-form comment
//! run mode=dq backend=sim threads=3 fetch=1 budget=75000 tauf=100 tauu=100 ctx=1 chaos=0 state=dense trace=off
//! perturb pseed=7 jitter=3 window=4 scramble=1   (optional)
//! counts nodes=5 fields=2 callsites=1
//! node 0 local 1       # node <id> <local|global|obj> <is_application>
//! node 1 obj 0
//! edge 1 0 new         # edge <src> <dst> <kind> [<field or call-site id>]
//! edge 0 2 ld 1
//! query 0              # one per demand PointsTo query
//! ```
//!
//! Edge kind tokens: `new`, `assign_l`, `assign_g`, `ld <field>`,
//! `st <field>`, `param <site>`, `ret <site>`. The one `counts` line comes
//! before every `node`, `edge` and `delta` line, and a field or call-site
//! id must be below the count it declares.
//!
//! ## Incremental (mutate-then-requery) scenarios
//!
//! A scenario may carry an edit script: the run line then has a
//! `delta=<n>` key declaring the op count and, after the query lines,
//! one `delta add|del <src> <dst> <kind> [payload]` line per op (same
//! kind tokens as `edge`). Replay runs the queries cold through an
//! [`parcfl_runtime::AnalysisSession`], applies each op as its own
//! [`PagDelta`] (selective invalidation), re-submits after each, and
//! reports the final warm answers. The optional `chaosinval=1` run key
//! sets [`Fault::skip_invalidation`] — the fault injection that answers
//! every revision of the graph from one never-invalidated store, which
//! the differential battery must catch. Both keys are omitted when
//! inactive so legacy snapshots stay byte-identical. A session takes no
//! simulator hook and prices a fetch at one step, so `perturb`, `chaos=`
//! and `fetch=` do not reach a replay through one (the fuzzer samples
//! neither of the first two with an edit script).

use crate::inject::{replay_reusing_store, Fault, Inject, SimPerturb};
use parcfl_core::{SharedJmpStore, SolverConfig, StateBackend};
use parcfl_pag::{
    CallSiteId, DeltaOp, Edge, EdgeKind, FieldId, NodeId, NodeKind, Pag, PagBuilder, PagDelta,
};
use parcfl_runtime::sim::run_simulated_hooked;
use parcfl_runtime::{
    run_threaded_batch, schedule_with_cap, AnalysisSession, Backend, DeltaReport, Mode, RunConfig,
    RunResult, TraceLevel,
};
use parcfl_synth::mutate::canonical_types;
use std::fmt::Write as _;

/// A complete, replayable analysis run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The pointer-assignment graph under analysis.
    pub pag: Pag,
    /// Demand `PointsTo` query variables.
    pub queries: Vec<NodeId>,
    /// Parallelisation strategy.
    pub mode: Mode,
    /// Execution backend.
    pub backend: Backend,
    /// Worker count.
    pub threads: usize,
    /// Solver knobs (budget, τ, sensitivity, state backend).
    pub solver: SolverConfig,
    /// Simulated cost of one work-list fetch, which the scenario's
    /// dispatch hook charges (a [`RunConfig`] has no such field).
    pub fetch_cost: u64,
    /// Seeded simulator perturbation (simulated backend only).
    pub perturb: Option<SimPerturb>,
    /// Trace recording level. Tracing is observation-only by contract,
    /// so fuzzing this dimension checks that recording spans perturbs
    /// no answer or deterministic counter.
    pub trace_level: TraceLevel,
    /// Mutate-then-requery edit script. Empty means a plain one-shot
    /// run; non-empty routes [`Self::run`] through an analysis session
    /// that answers cold, applies each op as its own delta (selective
    /// invalidation of jmp/answer state) and re-queries warm.
    pub deltas: Vec<DeltaOp>,
    /// Injected faults (none in anything but the harness's self-tests).
    pub fault: Fault,
}

impl Scenario {
    /// The run configuration this scenario describes.
    pub fn run_config(&self) -> RunConfig {
        RunConfig::new(self.mode, self.threads, self.backend)
            .with_solver(self.solver.clone())
            .with_tracing(self.trace_level)
    }

    /// Replays the scenario once and returns the answers. Scenarios
    /// with an edit script return the final warm re-query result (see
    /// [`Self::run_incremental`]).
    pub fn run(&self) -> RunResult {
        self.run_on(&SharedJmpStore::new())
    }

    /// [`Self::run`] on the caller's `store`, so a check can read what the
    /// run left there. A sharing mode fills it; a scenario with an edit
    /// script runs through a session of its own and leaves it empty.
    pub fn run_on(&self, store: &SharedJmpStore) -> RunResult {
        if !self.deltas.is_empty() {
            return self.run_incremental().0;
        }
        let cfg = self.run_config();
        match self.backend {
            Backend::Threaded => {
                let schedule =
                    schedule_with_cap(&self.pag, &self.queries, self.mode, cfg.group_cap);
                run_threaded_batch(&self.pag, &schedule, &cfg, store, 0)
            }
            Backend::Simulated => {
                let schedule = schedule_with_cap(&self.pag, &self.queries, self.mode, None);
                let mut inject = Inject::new(self);
                run_simulated_hooked(&self.pag, &schedule, &cfg, store, 0, &mut inject).0
            }
        }
    }

    /// Replays the mutate-then-requery script: answers the query set
    /// cold, then for each edit op applies a single-op [`PagDelta`]
    /// through [`AnalysisSession::apply_delta`] (selective warm-state
    /// invalidation) and re-submits the same queries. Returns the final
    /// warm result, the edited graph, and one [`DeltaReport`] per op.
    /// With [`Fault::skip_invalidation`] there is no session and nothing
    /// is invalidated: the same batches run against one store.
    pub fn run_incremental(&self) -> (RunResult, Pag, Vec<DeltaReport>) {
        if self.fault.skip_invalidation {
            return replay_reusing_store(self);
        }
        let mut session = AnalysisSession::new(&self.pag)
            .with_threads(self.threads)
            .with_solver(self.solver.clone())
            .with_tracing(self.trace_level);
        let mut result = session.submit(&self.queries, self.mode, self.backend);
        let mut reports = Vec::with_capacity(self.deltas.len());
        for op in &self.deltas {
            let mut delta = PagDelta::new();
            delta.push(*op);
            reports.push(session.apply_delta(&delta));
            result = session.submit(&self.queries, self.mode, self.backend);
        }
        let pag = session.pag().clone();
        (result, pag, reports)
    }

    /// The graph after the whole edit script: every op folded into one
    /// [`PagDelta`] and applied from scratch. Ops apply in order to the
    /// same edge set, so this equals the one-at-a-time application the
    /// incremental replay performs — it is the graph cold-run oracles
    /// must be consulted against.
    pub fn final_pag(&self) -> Pag {
        if self.deltas.is_empty() {
            return self.pag.clone();
        }
        let mut delta = PagDelta::new();
        for op in &self.deltas {
            delta.push(*op);
        }
        self.pag.apply_delta(&delta).0
    }

    /// Serialises the scenario in snapshot format v1. The graph should
    /// already be canonical (see module docs); serialisation stores only
    /// canonical node attributes either way.
    pub fn to_snapshot(&self) -> String {
        let mut s = String::new();
        s.push_str("# parcfl-check counterexample snapshot v1\n");
        s.push_str("# Replay: parcfl check --replay <this file>\n");
        let _ = write!(
            s,
            "run mode={} backend={} threads={} fetch={} budget={} tauf={} tauu={} ctx={} chaos={} state={} trace={}",
            match self.mode {
                Mode::Naive => "naive",
                Mode::DataSharing => "d",
                Mode::DataSharingSched => "dq",
            },
            match self.backend {
                Backend::Simulated => "sim",
                Backend::Threaded => "threaded",
            },
            self.threads,
            self.fetch_cost,
            self.solver.budget,
            self.solver.tau_finished,
            self.solver.tau_unfinished,
            self.solver.context_sensitive as u8,
            self.fault.blind_jmp_keys as u8,
            self.solver.state.name(),
            // The hidden `Full` records what `Spans` does.
            match self.trace_level {
                TraceLevel::Off => "off",
                TraceLevel::Spans | TraceLevel::Full => "spans",
            },
        );
        // Both keys are omitted when inactive so pre-delta corpus files
        // round-trip byte-identically.
        if !self.deltas.is_empty() {
            let _ = write!(s, " delta={}", self.deltas.len());
        }
        if self.fault.skip_invalidation {
            s.push_str(" chaosinval=1");
        }
        s.push('\n');
        if let Some(p) = self.perturb {
            let _ = writeln!(
                s,
                "perturb pseed={} jitter={} window={} scramble={}",
                p.seed, p.fetch_jitter, p.pick_window, p.scramble_ties as u8
            );
        }
        let _ = writeln!(
            s,
            "counts nodes={} fields={} callsites={}",
            self.pag.node_count(),
            self.pag.types().field_count(),
            self.pag.call_site_count()
        );
        for n in self.pag.node_ids() {
            let info = self.pag.node(n);
            let kind = match info.kind {
                NodeKind::Local { .. } => "local",
                NodeKind::Global => "global",
                NodeKind::Object { .. } => "obj",
            };
            let _ = writeln!(s, "node {} {} {}", n.raw(), kind, info.is_application as u8);
        }
        for e in self.pag.edges() {
            let _ = writeln!(
                s,
                "edge {} {} {}",
                e.src.raw(),
                e.dst.raw(),
                kind_token(e.kind)
            );
        }
        for q in &self.queries {
            let _ = writeln!(s, "query {}", q.raw());
        }
        for op in &self.deltas {
            let (verb, e) = match op {
                DeltaOp::AddEdge(e) => ("add", e),
                DeltaOp::RemoveEdge(e) => ("del", e),
            };
            let _ = writeln!(
                s,
                "delta {verb} {} {} {}",
                e.src.raw(),
                e.dst.raw(),
                kind_token(e.kind)
            );
        }
        s
    }

    /// Parses snapshot format v1 back into a scenario.
    pub fn from_snapshot(text: &str) -> Result<Scenario, String> {
        let mut mode = Mode::Naive;
        let mut backend = Backend::Simulated;
        let mut threads = 1usize;
        let mut fetch_cost = 1u64;
        let mut solver = SolverConfig::default();
        let mut trace_level = TraceLevel::Off;
        let mut perturb: Option<SimPerturb> = None;
        let mut builder: Option<PagBuilder> = None;
        let mut declared_nodes = 0usize;
        // The `(fields, callsites)` the `counts` line declared.
        let mut declared_ids: Option<(usize, usize)> = None;
        let mut declared_deltas: Option<usize> = None;
        let mut queries: Vec<NodeId> = Vec::new();
        let mut edges: Vec<(NodeId, NodeId, EdgeKind)> = Vec::new();
        let mut deltas: Vec<DeltaOp> = Vec::new();
        let mut fault = Fault::default();

        for (ln, raw_line) in text.lines().enumerate() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |m: String| format!("line {}: {m}", ln + 1);
            let mut toks = line.split_whitespace();
            match toks.next().unwrap() {
                "run" => {
                    for kv in toks {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("bad run token `{kv}`")))?;
                        match k {
                            "mode" => {
                                mode = match v {
                                    "naive" => Mode::Naive,
                                    "d" => Mode::DataSharing,
                                    "dq" => Mode::DataSharingSched,
                                    _ => return Err(err(format!("unknown mode `{v}`"))),
                                }
                            }
                            "backend" => {
                                backend = match v {
                                    "sim" => Backend::Simulated,
                                    "threaded" => Backend::Threaded,
                                    _ => return Err(err(format!("unknown backend `{v}`"))),
                                }
                            }
                            "threads" => threads = parse(v, &err)?,
                            "fetch" => fetch_cost = parse(v, &err)?,
                            "budget" => solver.budget = parse(v, &err)?,
                            "tauf" => solver.tau_finished = parse(v, &err)?,
                            "tauu" => solver.tau_unfinished = parse(v, &err)?,
                            "ctx" => solver.context_sensitive = parse::<u8, _>(v, &err)? != 0,
                            "chaos" => fault.blind_jmp_keys = parse::<u8, _>(v, &err)? != 0,
                            // `state`/`trace` are absent in older corpus
                            // files; missing keys keep the defaults.
                            "state" => solver.state = v.parse::<StateBackend>().map_err(&err)?,
                            "trace" => {
                                trace_level = TraceLevel::parse(v)
                                    .ok_or_else(|| err(format!("unknown trace level `{v}`")))?
                            }
                            // `delta`/`chaosinval` are absent in
                            // pre-incremental corpus files: no edit
                            // script, no fault injection.
                            "delta" => declared_deltas = Some(parse(v, &err)?),
                            "chaosinval" => fault.skip_invalidation = parse::<u8, _>(v, &err)? != 0,
                            _ => return Err(err(format!("unknown run key `{k}`"))),
                        }
                    }
                }
                "perturb" => {
                    let mut p = SimPerturb::default();
                    for kv in toks {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("bad perturb token `{kv}`")))?;
                        match k {
                            "pseed" => p.seed = parse(v, &err)?,
                            "jitter" => p.fetch_jitter = parse(v, &err)?,
                            "window" => p.pick_window = parse(v, &err)?,
                            "scramble" => p.scramble_ties = parse::<u8, _>(v, &err)? != 0,
                            _ => return Err(err(format!("unknown perturb key `{k}`"))),
                        }
                    }
                    perturb = Some(p);
                }
                "counts" => {
                    if builder.is_some() {
                        return Err(err("a second `counts` line".into()));
                    }
                    let mut nodes = 0usize;
                    let mut fields = 1usize;
                    let mut callsites = 0usize;
                    for kv in toks {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("bad counts token `{kv}`")))?;
                        match k {
                            "nodes" => nodes = parse(v, &err)?,
                            "fields" => fields = parse(v, &err)?,
                            "callsites" => callsites = parse(v, &err)?,
                            _ => return Err(err(format!("unknown counts key `{k}`"))),
                        }
                    }
                    let (types, _) = canonical_types(fields);
                    let mut b = PagBuilder::with_types(types);
                    b.add_method("m");
                    for _ in 0..callsites {
                        b.fresh_call_site();
                    }
                    declared_nodes = nodes;
                    declared_ids = Some((fields, callsites));
                    builder = Some(b);
                }
                "node" => {
                    let b = builder
                        .as_mut()
                        .ok_or_else(|| err("node before counts".into()))?;
                    let idx: u32 = parse(next(&mut toks, &err)?, &err)?;
                    let kind_tok = next(&mut toks, &err)?;
                    let app = parse::<u8, _>(next(&mut toks, &err)?, &err)? != 0;
                    let m0 = parcfl_pag::MethodId::new(0);
                    let kind = match kind_tok {
                        "local" => NodeKind::Local { method: m0 },
                        "global" => NodeKind::Global,
                        "obj" => NodeKind::Object { method: m0 },
                        _ => return Err(err(format!("unknown node kind `{kind_tok}`"))),
                    };
                    let ty = parcfl_pag::TypeId::new(0);
                    let got = b.add_named(kind, ty, format_args!("n{idx}"), app);
                    if got.raw() != idx {
                        return Err(err(format!(
                            "node ids must be dense and in order (expected {}, saw {idx})",
                            got.raw()
                        )));
                    }
                }
                "edge" => {
                    let src = NodeId::new(parse(next(&mut toks, &err)?, &err)?);
                    let dst = NodeId::new(parse(next(&mut toks, &err)?, &err)?);
                    let kind = parse_kind(&mut toks, declared_ids, &err)?;
                    edges.push((src, dst, kind));
                }
                "query" => {
                    queries.push(NodeId::new(parse(next(&mut toks, &err)?, &err)?));
                }
                "delta" => {
                    let verb = next(&mut toks, &err)?;
                    let src = NodeId::new(parse(next(&mut toks, &err)?, &err)?);
                    let dst = NodeId::new(parse(next(&mut toks, &err)?, &err)?);
                    let kind = parse_kind(&mut toks, declared_ids, &err)?;
                    let edge = Edge { src, dst, kind };
                    deltas.push(match verb {
                        "add" => DeltaOp::AddEdge(edge),
                        "del" => DeltaOp::RemoveEdge(edge),
                        v => return Err(err(format!("unknown delta verb `{v}`"))),
                    });
                }
                k => return Err(err(format!("unknown directive `{k}`"))),
            }
        }

        let mut b = builder.ok_or("snapshot has no `counts` line")?;
        if b.node_count() != declared_nodes {
            return Err(format!(
                "declared {declared_nodes} nodes but parsed {}",
                b.node_count()
            ));
        }
        for (src, dst, kind) in edges {
            if src.index() >= declared_nodes || dst.index() >= declared_nodes {
                return Err(format!("edge endpoint out of range ({src:?} -> {dst:?})"));
            }
            b.add_edge(src, dst, kind);
        }
        let pag = b.freeze();
        for q in &queries {
            if q.index() >= declared_nodes {
                return Err(format!("query {q:?} out of range"));
            }
        }
        match declared_deltas {
            Some(n) if n != deltas.len() => {
                return Err(format!(
                    "declared {n} delta ops but parsed {}",
                    deltas.len()
                ))
            }
            None if !deltas.is_empty() => {
                return Err("delta lines without a `delta=` run key".into())
            }
            _ => {}
        }
        for op in &deltas {
            let e = op.edge();
            if e.src.index() >= declared_nodes || e.dst.index() >= declared_nodes {
                return Err(format!(
                    "delta endpoint out of range ({:?} -> {:?})",
                    e.src, e.dst
                ));
            }
        }
        Ok(Scenario {
            pag,
            queries,
            mode,
            backend,
            threads,
            solver,
            fetch_cost,
            perturb,
            trace_level,
            deltas,
            fault,
        })
    }
}

/// The snapshot token for an edge kind (shared by `edge` and `delta`
/// lines).
fn kind_token(kind: EdgeKind) -> String {
    match kind {
        EdgeKind::New => "new".to_string(),
        EdgeKind::AssignLocal => "assign_l".to_string(),
        EdgeKind::AssignGlobal => "assign_g".to_string(),
        EdgeKind::Load(f) => format!("ld {}", f.raw()),
        EdgeKind::Store(f) => format!("st {}", f.raw()),
        EdgeKind::Param(i) => format!("param {}", i.raw()),
        EdgeKind::Ret(i) => format!("ret {}", i.raw()),
    }
}

/// Parses an edge-kind token, plus the field or call site the kind takes:
/// one below the `(fields, callsites)` the `counts` line declared.
fn parse_kind<'t>(
    toks: &mut impl Iterator<Item = &'t str>,
    declared: Option<(usize, usize)>,
    err: &impl Fn(String) -> String,
) -> Result<EdgeKind, String> {
    let (fields, sites) = declared.ok_or_else(|| err("edge before counts".into()))?;
    let kind = next(toks, err)?;
    let mut id = |what: &str, count: usize| -> Result<u32, String> {
        let v: u32 = parse(next(toks, err)?, err)?;
        if v as usize >= count {
            return Err(err(format!("{what} {v} out of range ({count} declared)")));
        }
        Ok(v)
    };
    Ok(match kind {
        "new" => EdgeKind::New,
        "assign_l" => EdgeKind::AssignLocal,
        "assign_g" => EdgeKind::AssignGlobal,
        "ld" => EdgeKind::Load(FieldId::new(id("field", fields)?)),
        "st" => EdgeKind::Store(FieldId::new(id("field", fields)?)),
        "param" => EdgeKind::Param(CallSiteId::new(id("call site", sites)?)),
        "ret" => EdgeKind::Ret(CallSiteId::new(id("call site", sites)?)),
        k => return Err(err(format!("unknown edge kind `{k}`"))),
    })
}

fn next<'t>(
    toks: &mut impl Iterator<Item = &'t str>,
    err: &impl Fn(String) -> String,
) -> Result<&'t str, String> {
    toks.next().ok_or_else(|| err("missing token".into()))
}

fn parse<T: std::str::FromStr, E: Fn(String) -> String>(v: &str, err: &E) -> Result<T, String> {
    v.parse()
        .map_err(|_| err(format!("cannot parse number `{v}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_synth::mutate::canonicalize;
    use parcfl_synth::{build_bench, Profile};

    fn sample_scenario() -> Scenario {
        let b = build_bench(&Profile::tiny(5));
        Scenario {
            pag: canonicalize(&b.pag),
            queries: b.queries[..4.min(b.queries.len())].to_vec(),
            mode: Mode::DataSharingSched,
            backend: Backend::Simulated,
            threads: 3,
            solver: SolverConfig {
                budget: 12_345,
                tau_finished: 0,
                tau_unfinished: 0,
                ..SolverConfig::default()
            },
            fetch_cost: 2,
            perturb: Some(SimPerturb {
                seed: 9,
                fetch_jitter: 3,
                pick_window: 4,
                scramble_ties: true,
            }),
            trace_level: TraceLevel::Off,
            deltas: vec![],
            fault: Fault::default(),
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let sc = sample_scenario();
        let text = sc.to_snapshot();
        let back = Scenario::from_snapshot(&text).expect("parse");
        assert_eq!(back.pag.node_count(), sc.pag.node_count());
        assert_eq!(back.pag.edges(), sc.pag.edges());
        assert_eq!(back.pag.call_site_count(), sc.pag.call_site_count());
        assert_eq!(back.pag.types().field_count(), sc.pag.types().field_count());
        assert_eq!(back.queries, sc.queries);
        assert_eq!(back.mode, sc.mode);
        assert_eq!(back.backend, sc.backend);
        assert_eq!(back.threads, sc.threads);
        assert_eq!(back.solver, sc.solver);
        assert_eq!(back.fetch_cost, sc.fetch_cost);
        assert_eq!(back.perturb, sc.perturb);
        assert_eq!(back.trace_level, sc.trace_level);
        assert_eq!(back.fault, sc.fault);
        // Serialising the parsed scenario reproduces the text exactly.
        assert_eq!(back.to_snapshot(), text);
    }

    #[test]
    fn engine_and_state_keys_default_when_absent() {
        // Older snapshots carry no state/trace keys: they parse to the
        // default state backend and tracing off.
        let text = sample_scenario().to_snapshot();
        let legacy = text.replace(" state=dense", "").replace(" trace=off", "");
        let back = Scenario::from_snapshot(&legacy).expect("legacy parse");
        assert_eq!(back.solver.state, SolverConfig::default().state);
        assert_eq!(back.trace_level, TraceLevel::Off);
        // Keys of deleted features are not part of the format.
        for bad in [" engine=demand", " packed=0", " memo=0", " trace=full"] {
            let old = legacy.replace(" chaos=", &format!("{bad} chaos="));
            assert!(Scenario::from_snapshot(&old).is_err(), "{bad} is rejected");
        }
        let capped = text.replace("\ncounts ", "\nstore cap=32\ncounts ");
        assert!(Scenario::from_snapshot(&capped).is_err(), "store cap=");
    }

    /// A field or call site past what `counts` declares is an error naming
    /// its line, on `edge` and `delta` lines alike: it used to reach the
    /// graph's field index and panic.
    #[test]
    fn ids_past_the_declared_counts_are_rejected() {
        let head =
            "run delta=1\ncounts nodes=2 fields=1 callsites=1\nnode 0 local 1\nnode 1 local 1";
        for bad in [
            "edge 0 1 ld 7",
            "edge 0 1 st 1",
            "edge 0 1 param 1",
            "delta add 0 1 ld 1",
            "delta del 0 1 ret 1",
        ] {
            let err = Scenario::from_snapshot(&format!("{head}\n{bad}")).expect_err(bad);
            assert!(
                err.starts_with("line 5: ") && err.contains("out of range"),
                "{err}"
            );
        }
        let fine = format!("{head}\nedge 0 1 ld 0\nedge 1 0 param 0\ndelta add 0 1 ret 0");
        assert!(Scenario::from_snapshot(&fine).is_ok());
        let twice = format!("{head}\ncounts nodes=2 fields=1 callsites=1");
        assert!(Scenario::from_snapshot(&twice).is_err(), "a second counts");
        assert!(Scenario::from_snapshot("edge 0 1 new\ncounts nodes=2").is_err());
    }

    #[test]
    fn delta_script_round_trips_and_legacy_stays_clean() {
        let mut sc = sample_scenario();
        // Sessions have no perturbation hook; delta scenarios carry none.
        sc.perturb = None;
        sc.fault.skip_invalidation = true;
        let e0 = sc.pag.edges()[0];
        sc.deltas = vec![
            DeltaOp::RemoveEdge(e0),
            DeltaOp::AddEdge(Edge {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                kind: EdgeKind::AssignLocal,
            }),
        ];
        let text = sc.to_snapshot();
        assert!(text.contains(" delta=2"), "run line declares the op count");
        assert!(text.contains(" chaosinval=1"), "fault key serialised");
        let back = Scenario::from_snapshot(&text).expect("parse");
        assert_eq!(back.deltas, sc.deltas);
        assert!(back.fault.skip_invalidation);
        assert_eq!(back.to_snapshot(), text, "byte-identical round trip");

        // A scenario without edits emits neither key nor any delta line.
        let plain = sample_scenario().to_snapshot();
        assert!(!plain.contains("delta"));
        assert!(!plain.contains("chaosinval"));

        // Declared count must match, ops need the run key, endpoints
        // must be in range, and the verb must be known.
        let short = text.replace(" delta=2", " delta=3");
        assert!(Scenario::from_snapshot(&short).is_err(), "count mismatch");
        let keyless = text.replace(" delta=2", "");
        assert!(Scenario::from_snapshot(&keyless).is_err(), "missing key");
        assert!(Scenario::from_snapshot(
            "run delta=1\ncounts nodes=1 fields=1 callsites=0\nnode 0 local 1\ndelta add 0 9 new"
        )
        .is_err());
        assert!(Scenario::from_snapshot(
            "run delta=1\ncounts nodes=1 fields=1 callsites=0\nnode 0 local 1\ndelta zap 0 0 new"
        )
        .is_err());
    }

    #[test]
    fn incremental_replay_matches_cold_run_on_final_graph() {
        let mut sc = sample_scenario();
        sc.perturb = None;
        sc.solver.budget = 5_000_000;
        let e0 = sc.pag.edges()[0];
        sc.deltas = vec![DeltaOp::RemoveEdge(e0)];
        let (warm, edited, reports) = sc.run_incremental();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].noop, "removing a present edge is effective");
        assert_eq!(edited.edge_count(), sc.pag.edge_count() - 1);
        assert_eq!(edited.edges(), sc.final_pag().edges());
        let mut cold = sc.clone();
        cold.pag = sc.final_pag();
        cold.deltas.clear();
        assert_eq!(
            warm.sorted_answers(),
            cold.run().sorted_answers(),
            "warm incremental answers equal a cold run on the edited graph"
        );
        // run() routes through the incremental path for delta scenarios.
        assert_eq!(sc.run().sorted_answers(), warm.sorted_answers());
    }

    #[test]
    fn round_trip_preserves_answers() {
        let sc = sample_scenario();
        let back = Scenario::from_snapshot(&sc.to_snapshot()).expect("parse");
        let a = sc.run().sorted_answers();
        let b = back.run().sorted_answers();
        assert_eq!(a, b, "replay of a snapshot is bit-identical");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Scenario::from_snapshot("").is_err(), "no counts");
        assert!(
            Scenario::from_snapshot("counts nodes=1 fields=1 callsites=0\nnode 0 bogus 1").is_err()
        );
        assert!(Scenario::from_snapshot(
            "counts nodes=1 fields=1 callsites=0\nnode 0 local 1\nedge 0 5 new"
        )
        .is_err());
    }
}
