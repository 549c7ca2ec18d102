//! `agree` and `baseline`: the benchmark judging and recording itself,
//! by running this same binary as child processes.

use crate::json::Json;
use crate::metrics::{BOUNDS, END_TO_END};
use crate::stats::median;
use crate::workloads::NAMES;
use crate::Opts;
use std::process::{Command, ExitCode};

/// One child run; its result line's `metrics` as `(name, value)` rows.
fn child(workload: &str, opts: &Opts, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() || line.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload}: run failed its checks: {last}"));
    }
    let metrics = line
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or(format!("{name}: no value"))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let delta = if better == "lower" { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Two sets of `runs` runs of this binary, alternating set by set, so
/// that slow drift of the box lands on both. For each (workload,
/// end-to-end metric) pair: the two set medians and their difference in
/// the worse direction against the metric's bound. Exit 1 if any pair
/// exceeds its bound — same code must agree with itself before a
/// difference between two commits means anything.
pub fn agree(opts: &Opts, runs: usize) -> ExitCode {
    println!(
        "agree: 2 sets x {runs} runs, seed {}{}",
        opts.seed,
        if opts.quick {
            ", QUICK (not valid)"
        } else {
            ""
        }
    );
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    let mut exceeded = 0;
    for workload in NAMES {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..runs {
            for set in &mut sets {
                match child(workload, opts, false) {
                    Ok(rows) => set.push(rows),
                    Err(e) => {
                        eprintln!("agree: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
        for ((name, _, better), bound) in END_TO_END.iter().zip(BOUNDS) {
            let medians = sets.each_ref().map(|set| {
                let values: Vec<f64> = set
                    .iter()
                    .flat_map(|rows| rows.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect();
                median(&values)
            });
            // Same code on both sides: either direction is disagreement.
            let diff = worse_by(medians[0], medians[1], better).abs();
            let ok = diff <= bound;
            exceeded += !ok as usize;
            println!(
                "{workload:<14} {name:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                medians[0],
                medians[1],
                diff * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "EXCEEDS" }
            );
        }
    }
    println!(
        "agree: {exceeded} of {} pairs exceed their bound",
        NAMES.len() * END_TO_END.len()
    );
    if exceeded == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One untraced and one traced run per workload, written together as
/// `results/baseline.seed<seed>.json` in the crate's directory (or
/// printed, if that cannot be written).
pub fn baseline(opts: &Opts) -> ExitCode {
    let mut doc = Vec::new();
    for workload in NAMES {
        let mut entry = Vec::new();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            match child(workload, opts, trace) {
                Ok(rows) => entry.push((
                    key.to_string(),
                    Json::Obj(rows.into_iter().map(|(n, v)| (n, Json::Num(v))).collect()),
                )),
                Err(e) => {
                    eprintln!("baseline: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        doc.push((workload.to_string(), Json::Obj(entry)));
    }
    // One metric per line: the file is read by people and by `diff`.
    let text = Json::Obj(doc)
        .to_string()
        .replace("{\"", "{\n\"")
        .replace(", \"", ",\n\"")
        .replace("}", "\n}");
    let dir = format!("{}/results", crate::crate_dir());
    let path = format!("{dir}/baseline.seed{}.json", opts.seed);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text)) {
        Ok(()) => println!("baseline: wrote {path}"),
        Err(e) => println!("baseline: {path} not written ({e})\n{text}"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(2.0, 2.2, "lower") - 0.1).abs() < 1e-12);
        assert!((worse_by(2.0, 1.8, "lower") + 0.1).abs() < 1e-12);
        assert!((worse_by(0.9, 0.81, "higher") - 0.1).abs() < 1e-12);
        assert!(worse_by(0.9, 0.99, "higher") < 0.0);
    }
}
