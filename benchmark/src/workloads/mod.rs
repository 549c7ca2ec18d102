//! The four workloads. Each stresses different layers, so that an
//! optimisation has one workload that exercises its mechanism and one
//! that bypasses it (predicted: no change). `benchmark/README.md` records
//! why each exists.

pub mod dense_small;
pub mod edit_requery;
pub mod micro;
pub mod open_project;
pub mod table1_cold;

use crate::metrics::Metrics;
use crate::rng::{mix, Rng};
use crate::span::Tracer;
use crate::verify::{self, Batch, PassOut, Tally};
use parcfl_core::SolverConfig;
use parcfl_pag::{NodeId, Pag, PagBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["table1_cold", "open_project", "edit_requery", "dense_small"];

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "table1_cold" => Some(Box::new(table1_cold::Table1Cold)),
        "open_project" => Some(Box::new(open_project::OpenProject)),
        "edit_requery" => Some(Box::new(edit_requery::EditRequery)),
        "dense_small" => Some(Box::new(dense_small::DenseSmall)),
        _ => None,
    }
}

/// What a workload's set-up generated, for the `info` line: a noisy or
/// odd run is recognisable from its own output.
#[derive(Default, Clone, Copy, Debug)]
pub struct Sizes {
    pub programs: usize,
    pub nodes: usize,
    pub edges: usize,
    pub queries: usize,
    pub source_bytes: usize,
}

/// The clock of one `[set-up, pass]` iteration. The workload calls
/// [`Iteration::setup_done`] between the two halves; the harness reads
/// the pass's end.
pub struct Iteration {
    pub started: Instant,
    /// When set-up ended, with the process CPU clock at that instant.
    pub setup_end: Option<(Instant, f64)>,
    pub sizes: Sizes,
}

impl Iteration {
    pub fn start() -> Self {
        Iteration {
            started: Instant::now(),
            setup_end: None,
            sizes: Sizes::default(),
        }
    }

    pub fn setup_done(&mut self, sizes: Sizes) {
        self.sizes = sizes;
        self.setup_end = Some((Instant::now(), crate::clock::process_cpu_s()));
    }
}

/// What the out-of-band checks of one run found.
#[derive(Default)]
pub struct Checked {
    /// One reference batch per batch of the pass, in `PassOut::all` order.
    pub reference: Vec<Batch>,
    /// Oracle and Andersen findings on the warm-up pass.
    pub tally: Tally,
    /// Sampled oracle queries skipped at the oracle's step cap.
    pub oracle_skipped: usize,
}

/// One batch of the warm-up pass with the graph and configuration that
/// produced it: what [`check_batches`] holds to account.
pub struct Subject<'a> {
    pub pag: &'a Pag,
    pub queries: &'a [NodeId],
    pub solver: &'a SolverConfig,
    pub got: &'a Batch,
    /// Completed answers of `got` to put to the oracle.
    pub oracle_sample: usize,
    /// Whether to hold `got` to Andersen soundness as well.
    pub andersen: bool,
}

/// The `run_seq` reference, the oracle sample and Andersen soundness for
/// every subject, in subject order. Subjects are checked on two threads:
/// nothing here is timed.
pub fn check_batches(seed: u64, subjects: &[Subject<'_>]) -> Checked {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(s) = subjects.get(i) else {
                return done;
            };
            let mut rng = Rng::new(mix(seed, 0xC0DE + i as u64));
            let mut reference = verify::reference(s.pag, s.queries, s.solver, &mut rng);
            reference.label = s.got.label.clone();
            let (mut tally, skipped) =
                verify::oracle(s.pag, &s.got.answers, s.oracle_sample, &mut rng);
            if s.andersen {
                tally += verify::andersen(s.pag, &s.got.answers);
            }
            done.push((i, reference, tally, skipped));
        }
    };
    let mut done = std::thread::scope(|s| {
        let other = s.spawn(work);
        let mut mine = work();
        mine.extend(other.join().expect("check thread panicked"));
        mine
    });
    done.sort_by_key(|d| d.0);
    let mut checked = Checked::default();
    for (_, reference, tally, skipped) in done {
        checked.reference.push(reference);
        checked.tally += tally;
        checked.oracle_skipped += skipped;
    }
    checked
}

/// A builder holding `pag`'s types, methods, call sites, nodes and edges,
/// ready to freeze again (so that `freeze` can be timed on its own).
pub fn replay(pag: &Pag) -> PagBuilder {
    let mut b = PagBuilder::with_types(pag.types().clone());
    for method in 0..pag.method_count() {
        b.add_method(pag.method_name(parcfl_pag::MethodId::from_usize(method)));
    }
    for _ in 0..pag.call_site_count() {
        b.fresh_call_site();
    }
    for n in pag.node_ids() {
        b.add_node(pag.node(n).clone());
    }
    for e in pag.edges() {
        b.add_edge(e.src, e.dst, e.kind);
    }
    b
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// The committed hex digest of the reference for
    /// [`verify::DIGEST_SEED`] (`expected/<name>.seed1.digest`).
    fn expected_digest(&self) -> &'static str;

    /// `N`: timed passes per run. A constant, not a time budget, so two
    /// commits do identical work.
    fn passes(&self) -> usize;

    /// Threads the pass uses (never more than the box's two).
    fn threads(&self) -> usize;

    /// Sets up from scratch, calls `it.setup_done`, runs one pass through
    /// the system's fused entry points with the program's own tracing off.
    fn iteration(&self, seed: u64, it: &mut Iteration) -> PassOut;

    /// The reference for every batch of `warm`, plus the oracle and
    /// Andersen checks of `warm` itself. Regenerates the inputs from
    /// `seed`; nothing here is timed.
    fn check(&self, seed: u64, warm: &PassOut) -> Checked;

    /// The traced run's extra pass: the same work as [`Self::iteration`]
    /// stage by stage, each call into a layer's public function inside a
    /// span under the root span `"pass"`; then this workload's probes
    /// under `"probe.*"` root spans. Fills this workload's per-layer rows.
    fn traced(&self, seed: u64, tr: &mut Tracer, m: &mut Metrics) -> PassOut;
}

/// How long `f` took, in seconds.
pub fn seconds<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

/// Best of `reps` timings of `f`, in seconds.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| seconds(&mut f))
        .fold(f64::INFINITY, f64::min)
}
