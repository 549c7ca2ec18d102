//! The frontend's cost per phase, in on-CPU nanoseconds of the calling
//! thread (`/proc/thread-self/schedstat`), over `open_project`'s two
//! programs: the `tomcat` profile with 8× and 16× its application classes
//! (≈ 54 k and ≈ 108 k PAG nodes), printed as `.mj` text.
//!
//! Four phases, each over both programs, each run `--reps` times (default
//! 5) with the fastest kept:
//!
//! * `lex`: the token stream alone, counted as it streams by
//!   (`lexer::count_tokens`);
//! * `parse`: text to IR, lexing included;
//! * `extract`: IR to frozen PAG (hierarchy, call graph, lowering, freeze);
//! * `collapse`: the assign-cycle collapse of the extracted graph.
//!
//! It also prints `parse + extract`, the fastest repetition's sum of the
//! two: text to first graph, what the pass's front end costs.
//!
//! Every repetition's work must equal the pinned work below: a change that
//! claims a faster front end must build the same graphs. The benchmark's
//! `open_project` rotates each class's methods by a seeded amount; that
//! renumbers nodes but moves none of these counts, so the probe parses the
//! generated order. `--reps 1` is the CI gate.
//!
//! ```text
//! cargo run --release -p parcfl-bench --bin frontend_probe [-- --reps N]
//! ```

use parcfl_bench::thread_cpu_ns;
use parcfl_frontend::cycles::collapse_assign_cycles;
use parcfl_frontend::{extract, lexer, parse, pretty::pretty};
use parcfl_synth::{generate, table1_profiles};

/// Multipliers of `tomcat`'s `app_classes`, as `open_project`'s.
const SCALES: [usize; 2] = [8, 16];
/// Tokens of both programs, end-of-input tokens included.
const TOKENS: usize = 1_603_018;
/// Nodes and edges of each program's extracted graph.
const EXTRACTED: [(usize, usize); 2] = [(53_680, 75_816), (107_839, 152_701)];
/// Nodes the collapse merges, over both programs.
const MERGED: usize = 144;

/// The phases, in the order they run.
const PHASES: [&str; 4] = ["lex", "parse", "extract", "collapse"];

/// What one repetition did: on-CPU nanoseconds per phase, and its work.
#[derive(Clone, Copy, Default)]
struct Rep {
    ns: [u64; 4],
    tokens: usize,
    extracted: [(usize, usize); 2],
    merged: usize,
}

/// Runs `body` on this thread and adds its on-CPU time to `ns`.
fn timed<T>(ns: &mut u64, body: impl FnOnce() -> T) -> T {
    let start = thread_cpu_ns();
    let out = body();
    *ns += thread_cpu_ns() - start;
    out
}

fn rep(texts: &[String]) -> Rep {
    let mut r = Rep::default();
    for (i, text) in texts.iter().enumerate() {
        let [lex, parse_ns, extract_ns, collapse] = &mut r.ns;
        r.tokens += timed(lex, || lexer::count_tokens(text).expect("lexes"));
        let program = timed(parse_ns, || parse(text).expect("parses"));
        let extracted = timed(extract_ns, || extract(&program).expect("extracts"));
        r.extracted[i] = (extracted.pag.node_count(), extracted.pag.edge_count());
        let collapsed = timed(collapse, || collapse_assign_cycles(&extracted.pag));
        r.merged += collapsed.merged_nodes;
    }
    r
}

fn main() {
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => reps = n,
                _ => {
                    eprintln!("--reps takes a positive count");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}` (usage: frontend_probe [--reps N])");
                std::process::exit(2);
            }
        }
    }
    let tomcat = table1_profiles()
        .into_iter()
        .find(|p| p.name == "tomcat")
        .expect("tomcat is a Table-I row");
    let texts: Vec<String> = SCALES
        .iter()
        .map(|&scale| {
            let mut profile = tomcat.clone();
            profile.app_classes *= scale;
            pretty(&generate(&profile))
        })
        .collect();
    let runs: Vec<Rep> = (0..reps).map(|_| rep(&texts)).collect();

    let bytes: usize = texts.iter().map(String::len).sum();
    println!(
        "on-CPU time of this thread (/proc/thread-self/schedstat), fastest of {reps}, \
         over tomcat x{SCALES:?} ({bytes} bytes of text)"
    );
    let rows = PHASES.iter().enumerate().map(|(p, &label)| {
        let ns: Vec<u64> = runs.iter().map(|r| r.ns[p]).collect();
        (label, ns)
    });
    let front: Vec<u64> = runs.iter().map(|r| r.ns[1] + r.ns[2]).collect();
    for (label, ns) in rows.chain([("parse + extract", front)]) {
        let best = ns.iter().min().expect("at least one repetition");
        let all: Vec<String> = ns
            .iter()
            .map(|&t| format!("{:.2}", t as f64 / 1e6))
            .collect();
        println!(
            "{label:<16} {:>9.3} ms  (passes: {})",
            *best as f64 / 1e6,
            all.join(" ")
        );
    }
    let w = runs[0];
    println!(
        "{} tokens; extracted nodes / edges {:?}; {} nodes merged by the collapse",
        w.tokens, w.extracted, w.merged
    );
    // Every repetition does the same work, and it is the pinned work.
    for r in &runs {
        assert_eq!(r.tokens, TOKENS, "the token count moved");
        assert_eq!(r.extracted, EXTRACTED, "the extracted graphs moved");
        assert_eq!(r.merged, MERGED, "the collapse moved");
    }
}
