//! The repo's benchmark: one command runs one workload, checks every
//! answer and prints every metric by name and unit. It drives the system
//! only through the crates' public functions. `README.md` beside this
//! crate has the metric tables and the reasons behind each workload.
//!
//! ```text
//! parcfl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! parcfl-benchmark agree    [--runs 5] [--seed 1]
//! parcfl-benchmark baseline [--seed 1]
//! ```

mod alloc;
mod clock;
mod compare;
mod json;
mod metrics;
mod rng;
mod span;
mod stats;
mod verify;
mod workloads;

use json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use span::Tracer;
use std::process::ExitCode;
use std::time::Instant;
use verify::{PassOut, Tally};
use workloads::{Iteration, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Ceiling on the timed loop, not its length: see [`measure`].
    pub seconds: f64,
    pub trace: bool,
    /// Two timed passes instead of `N`: for this crate's own tests.
    /// Metrics of a quick run are not valid for comparison.
    pub quick: bool,
    /// Test hook: alter one points-to set of the warm-up pass.
    pub corrupt: bool,
}

/// Untraced timed passes of a traced run: enough for the denominator of
/// `bench.trace.overhead`, so that the probes fit in the run.
const TRACED_RUN_PASSES: usize = 1;

/// Fewest timed passes a run keeps however slow the box is.
const MIN_PASSES: usize = 2;

struct Measured {
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    cpu_s: Vec<f64>,
    peak_heap_bytes: usize,
    attempted: usize,
    completed: usize,
    /// Queries checked over all passes, and those found wrong.
    tally: Tally,
    check_s: f64,
    metrics: Metrics,
}

/// A run: `N + 1` iterations of `[set-up from scratch, timed] → [one
/// pass, timed]`. Iteration 0 is the warm-up: answers verified, heap
/// counted, excluded from the timings. Set-up repeats before every pass
/// so that its samples spread over the whole run and catch a quiet
/// window as the passes do.
///
/// `N` is the workload's constant. `--seconds` only cuts the loop short
/// (never below [`MIN_PASSES`]) on a box so slow that the run would
/// outlast it; every reported time is a minimum over passes of identical
/// work, so a cut run stays comparable, with fewer chances at a quiet
/// window.
fn measure(w: &dyn Workload, opts: &Opts) -> Measured {
    let n = match (opts.quick, opts.trace) {
        (true, _) => MIN_PASSES.min(w.passes()),
        (false, true) => TRACED_RUN_PASSES,
        (false, false) => w.passes(),
    };
    let run_start = Instant::now();
    let steal_before = clock::steal_ticks();
    let mut out = Measured {
        setup_s: Vec::new(),
        pass_s: Vec::new(),
        cpu_s: Vec::new(),
        peak_heap_bytes: 0,
        attempted: 0,
        completed: 0,
        tally: Tally::default(),
        check_s: 0.0,
        metrics: Metrics::default(),
    };
    let mut warm: Option<(PassOut, workloads::Checked)> = None;
    let mut sizes = workloads::Sizes::default();
    let against = |pass: &PassOut, (warm, checked): &(PassOut, workloads::Checked)| {
        let mut tally = verify::passes_agree(pass, warm);
        for (got, want) in pass.all().zip(&checked.reference) {
            tally += verify::same_where_both_complete(&got.answers, &want.answers);
        }
        tally
    };
    for i in 0..=n {
        if i == 0 {
            alloc::start();
        }
        let mut it = Iteration::start();
        let mut pass = w.iteration(opts.seed, &mut it);
        let (pass_end, cpu_end) = (Instant::now(), clock::process_cpu_s());
        if i == 0 {
            out.peak_heap_bytes = alloc::stop();
        }
        let (setup_end, cpu_mid) = it.setup_end.expect("the workload marks the end of set-up");
        out.setup_s.push((setup_end - it.started).as_secs_f64());
        sizes = it.sizes;
        let checking = Instant::now();
        match &warm {
            None => {
                if opts.corrupt {
                    assert!(verify::corrupt(&mut pass), "nothing to corrupt");
                }
                let checked = w.check(opts.seed, &pass);
                out.tally += checked.tally;
                let reference_digest = verify::digest(&checked.reference);
                println!(
                    "info check reference_digest={reference_digest:016x} oracle_skipped_at_cap={}",
                    checked.oracle_skipped
                );
                if opts.seed == verify::DIGEST_SEED {
                    let expected = w.expected_digest().trim();
                    out.tally.compared += 1;
                    if u64::from_str_radix(expected, 16) != Ok(reference_digest) {
                        out.tally.failed += 1;
                        println!("info check digest_mismatch expected={expected}");
                    }
                }
                let warm_up = (pass, checked);
                // The warm-up against its own reference.
                out.tally += against(&warm_up.0, &warm_up);
                warm = Some(warm_up);
            }
            Some(warm) => {
                out.pass_s.push((pass_end - setup_end).as_secs_f64());
                out.cpu_s.push(cpu_end - cpu_mid);
                out.attempted += pass.attempted();
                out.completed += pass.completed();
                out.tally += against(&pass, warm);
            }
        }
        out.check_s += checking.elapsed().as_secs_f64();
        let timed = out.pass_s.len();
        if timed >= MIN_PASSES.min(n)
            && timed < n
            && run_start.elapsed().as_secs_f64() > opts.seconds
        {
            println!(
                "info cut passes_run={timed} passes_planned={n} budget_s={}",
                opts.seconds
            );
            break;
        }
    }

    let (q1, q3) = stats::quartiles(&out.pass_s);
    println!(
        "info run workload={} seed={} trace={} quick={} nproc={} threads={} passes={} \
         programs={} nodes={} edges={} queries={} source_bytes={}",
        w.name(),
        opts.seed,
        opts.trace as u8,
        opts.quick as u8,
        std::thread::available_parallelism().map_or(0, usize::from),
        w.threads(),
        out.pass_s.len(),
        sizes.programs,
        sizes.nodes,
        sizes.edges,
        sizes.queries,
        sizes.source_bytes,
    );
    println!(
        "info noise pass_min_s={:.6} pass_q1_s={q1:.6} pass_median_s={:.6} pass_q3_s={q3:.6} \
         pass_iqr_share={:.4} setup_median_s={:.6} steal_ticks={} rss_peak_mb={:.1}",
        stats::min(&out.pass_s),
        stats::median(&out.pass_s),
        stats::iqr_share(&out.pass_s),
        stats::median(&out.setup_s),
        match (steal_before, clock::steal_ticks()) {
            (Some(a), Some(b)) => (b - a).to_string(),
            _ => "unknown".into(),
        },
        clock::vm_hwm_mb().unwrap_or(0.0),
    );

    if opts.trace {
        let (warm, _) = warm.as_ref().expect("iteration 0 ran");
        let mut tr = Tracer::new(w.name());
        let traced = w.traced(opts.seed, &mut tr, &mut out.metrics);
        let checking = Instant::now();
        out.tally += verify::passes_agree(&traced, warm);
        out.check_s += checking.elapsed().as_secs_f64();
        let m = &mut out.metrics;
        m.set(
            "bench.trace.overhead",
            metrics::ratio(tr.total_s("pass"), stats::min(&out.pass_s)),
        );
        m.set("bench.trace.coverage", tr.coverage("pass"));
        m.set("bench.check.busy_s", out.check_s);
        m.set("bench.pass.median_s", stats::median(&out.pass_s));
        m.set("bench.pass.iqr_share", stats::iqr_share(&out.pass_s));
        m.set("bench.rss.peak_mb", clock::vm_hwm_mb().unwrap_or(0.0));
        match write_trace(&tr, w.name()) {
            Ok(path) => println!("info trace file={path} spans={}", tr.spans().len()),
            Err(e) => println!("info trace not_written={e}"),
        }
    }
    out
}

/// Where this crate's files live, relative to the working directory:
/// `benchmark` when run from the repo root, as the driver does, `.` when
/// run from inside the crate.
pub fn crate_dir() -> &'static str {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark"
    } else {
        "."
    }
}

fn write_trace(tr: &Tracer, workload: &str) -> std::io::Result<String> {
    let dir = format!("{}/out", crate_dir());
    std::fs::create_dir_all(&dir)?;
    let path = format!("{dir}/{workload}.trace.json");
    std::fs::write(&path, tr.to_json().to_string())?;
    Ok(path)
}

/// The contract's result line, preceded by one readable line per metric.
fn report(m: &Measured, opts: &Opts) -> (Json, bool) {
    let mut rows: Vec<(&str, &str, f64)> = Vec::new();
    if opts.trace {
        // Every per-layer row, every time; a row another workload owns
        // reads 0.
        for (name, unit, _) in PER_LAYER {
            rows.push((name, unit, m.metrics.get(name).unwrap_or(0.0)));
        }
    } else {
        let value = |name: &str| match name {
            "setup_s" => stats::min(&m.setup_s),
            "wall_s" => stats::min(&m.pass_s),
            "cpu_s" => stats::min(&m.cpu_s),
            // Decimal megabytes of live heap.
            "peak_heap_mb" => m.peak_heap_bytes as f64 / 1e6,
            "completed_share" => metrics::ratio(m.completed as f64, m.attempted as f64),
            other => unreachable!("{other} is not an end-to-end metric"),
        };
        for (name, unit, _) in END_TO_END {
            rows.push((name, unit, value(name)));
        }
    }
    let correct = m.tally.failed == 0 && m.tally.compared > 0;
    for (name, unit, value) in &rows {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "check correct {correct} compared {} failed {}",
        m.tally.compared, m.tally.failed
    );
    if opts.quick {
        println!("info quick run: metrics are not valid for comparison");
    }
    let metrics = rows
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(m.tally.compared.max(1) as f64),
        ),
        ("failed".into(), Json::Num(m.tally.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    (line, correct)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: parcfl-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      parcfl-benchmark agree [--runs <r>] [--seed <n>] [--quick]\n\
         \x20      parcfl-benchmark baseline [--seed <n>] [--quick]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, flags) = match args.first().map(String::as_str) {
        Some(s @ ("agree" | "baseline")) => (Some(s), &args[1..]),
        _ => (None, &args[..]),
    };
    let mut opts = Opts {
        workload: String::new(),
        seed: verify::DIGEST_SEED,
        seconds: 30.0,
        trace: false,
        quick: false,
        corrupt: false,
    };
    let mut runs = 5usize;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let ok = match flag.as_str() {
            "--workload" => value().map(|v| opts.workload = v.into()).is_some(),
            "--seed" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| opts.seed = v)
                .is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| opts.seconds = v)
                .is_some(),
            "--trace" => match value() {
                Some("0") => true,
                Some("1") => {
                    opts.trace = true;
                    true
                }
                _ => false,
            },
            "--runs" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| runs = v)
                .is_some(),
            "--quick" => {
                opts.quick = true;
                true
            }
            "--corrupt-one-answer" => {
                opts.corrupt = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument near `{flag}`");
            return usage();
        }
    }
    match sub {
        Some("agree") => return compare::agree(&opts, runs.max(1)),
        Some("baseline") => return compare::baseline(&opts),
        _ => {}
    }
    let Some(w) = workloads::by_name(&opts.workload) else {
        eprintln!("unknown workload `{}`", opts.workload);
        return usage();
    };
    let measured = measure(w.as_ref(), &opts);
    let (line, correct) = report(&measured, &opts);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, seed: u64, trace: bool, corrupt: bool) -> (Json, bool) {
        let opts = Opts {
            workload: workload.into(),
            seed,
            seconds: 60.0,
            trace,
            quick: true,
            corrupt,
        };
        let w = workloads::by_name(workload).unwrap();
        let _window = alloc::TEST_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        report(&measure(w.as_ref(), &opts), &opts)
    }

    /// The final line parses back, has exactly the contract's keys, and
    /// carries every end-to-end metric with a non-zero value.
    #[test]
    fn result_line_round_trips_with_the_contract_keys() {
        let (line, correct) = quick("dense_small", 5, false, false);
        assert!(correct);
        let back = Json::parse(&line.to_string()).unwrap();
        assert_eq!(back, line);
        let keys: Vec<_> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct").unwrap().as_bool(), Some(true));
        assert!(back.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(back.get("failed").unwrap().as_f64(), Some(0.0));
        let metrics = back.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.0).collect::<Vec<_>>());
        for (name, m) in metrics {
            assert!(m.get("value").unwrap().as_f64().unwrap() > 0.0, "{name}");
            assert!(m.get("unit").unwrap().as_str().is_some());
        }
    }

    /// One altered points-to set: `correct` false, counted in `failed`.
    #[test]
    fn a_wrong_answer_fails_the_run() {
        let (line, correct) = quick("dense_small", 5, false, true);
        assert!(!correct);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
        assert!(line.get("failed").unwrap().as_f64().unwrap() >= 1.0);
    }

    /// A traced run prints every per-layer row and owns a covered pass.
    #[test]
    fn traced_run_prints_every_per_layer_row() {
        let (line, correct) = quick("dense_small", 5, true, false);
        assert!(correct);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, PER_LAYER.iter().map(|d| d.0).collect::<Vec<_>>());
        let value = |n: &str| {
            line.get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(value("bench.trace.coverage") > 0.5);
        assert!(value("core.matrix.traversed_steps") > 0.0);
        assert_eq!(
            value("frontend.parse.busy_s"),
            0.0,
            "another workload's row"
        );
    }

    /// Same seed, same inputs and reference digest; another seed, another
    /// program text, query order and reference sample — and the same
    /// (constant) edit scripts.
    #[test]
    fn inputs_follow_the_seed() {
        use workloads::{dense_small, edit_requery, open_project};
        let texts = |seed| -> Vec<String> {
            open_project::inputs(seed)
                .into_iter()
                .map(|p| p.text)
                .collect()
        };
        assert_eq!(texts(3), texts(3));
        assert_ne!(texts(3), texts(4), "different seed, different program");
        let orders = |seed| -> Vec<_> {
            dense_small::inputs(seed)
                .into_iter()
                .map(|b| b.queries)
                .collect()
        };
        assert_eq!(orders(3), orders(3));
        assert_ne!(orders(3), orders(4));
        let (a, b) = (edit_requery::inputs(3), edit_requery::inputs(4));
        assert_ne!(a.bench.queries, b.bench.queries);
        assert_eq!(format!("{:?}", a.deltas), format!("{:?}", b.deltas));

        let reference = |seed| {
            let w = workloads::by_name("dense_small").unwrap();
            let warm = w.iteration(seed, &mut Iteration::start());
            verify::digest(&w.check(seed, &warm).reference)
        };
        assert_eq!(reference(3), reference(3));
        assert_ne!(
            reference(3),
            reference(4),
            "another seed samples other queries"
        );
    }
}
