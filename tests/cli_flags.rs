//! The `parcfl` binary rejects what it does not understand: a flag a
//! subcommand does not accept (or a value-taking flag without a value)
//! exits 2 naming the flag, instead of running the default analysis and
//! exiting 0 — which is what `--state hash`, `--stealing` and
//! `--engine matrix` did after the options behind them were removed.

use std::process::{Command, Output};

const PROGRAM: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/programs/linked_list.mj"
);

fn parcfl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parcfl"))
        .args(args)
        .output()
        .expect("parcfl runs")
}

#[test]
fn removed_and_unknown_flags_exit_2_naming_the_flag() {
    for (flags, named) in [
        (&["--engine", "matrix"][..], "--engine"),
        (&["--state", "hash"], "--state"),
        (&["--stealing"], "--stealing"),
        (&["--budget"], "--budget"),
        (&["--budget", "--insensitive"], "--budget"),
        (&["--var", "head", "--no-such-flag"], "--no-such-flag"),
    ] {
        let out = parcfl(&[&["query", PROGRAM], flags].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: nothing was analysed");
    }
    // The same program with flags `query` does accept still answers.
    let out = parcfl(&["query", PROGRAM, "--budget", "500", "--insensitive"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty());
    // A removed subcommand is an unknown command like any other.
    let out = parcfl(&["trace", PROGRAM]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "trace: {stderr}");
    assert!(stderr.contains("unknown command `trace`"), "{stderr}");
    assert!(out.stdout.is_empty(), "trace: nothing was analysed");
}

/// A flag value that does not parse is a usage error like any other: a
/// message naming the flag and exit 2 — `--threads abc` used to abort with
/// a `ParseIntError` backtrace and exit 101.
#[test]
fn unparsable_flag_values_exit_2_naming_the_flag() {
    for (flags, named) in [
        (["--threads", "abc"], "--threads expects an integer"),
        (["--threads", "-1"], "--threads expects an integer"),
        (["--mode", "fast"], "unknown mode `fast`"),
    ] {
        let out = parcfl(&[&["bench", "luindex"], &flags[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: nothing ran");
    }
}

/// On real threads the speedup is the wall clock's; the step ratio is
/// reported as the work it is.
#[test]
fn threaded_bench_reports_wall_speedup() {
    let out = parcfl(&["bench", "_999_checkit", "--threaded", "--threads", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("wall speedup"), "{stdout}");
    assert!(stdout.contains("work ratio"), "{stdout}");
}

/// A snapshot naming a field its `counts` line does not declare is a
/// malformed input: `check --replay` names the line and exits 1. It used
/// to panic building the graph and exit 101.
#[test]
fn replaying_a_snapshot_with_an_undeclared_field_exits_1() {
    let path = format!("{}/undeclared_field.snap", env!("CARGO_TARGET_TMPDIR"));
    let snap = "run mode=d backend=sim\ncounts nodes=2 fields=1 callsites=0\n\
                node 0 local 1\nnode 1 local 1\nedge 0 1 ld 7\nquery 1\n";
    std::fs::write(&path, snap).expect("write the snapshot");
    let out = parcfl(&["check", "--replay", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 5: field 7 out of range"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Each `--flag` of the usage text, under the subcommand whose entry
/// mentions it, gets past flag validation. Every flag is followed by a
/// `1` (a value if it takes one, a stray operand if not) and the operands
/// name nothing that exists, so each command stops at its first lookup
/// (`check` takes no operand and is pointed at a missing snapshot).
#[test]
fn every_flag_in_the_usage_text_is_accepted() {
    let usage = String::from_utf8(parcfl(&["help"]).stderr).expect("usage is utf-8");
    let mut cmd = "";
    let mut checked = 0;
    for line in usage.lines() {
        if let Some(entry) = line.strip_prefix("  parcfl ") {
            cmd = entry.split_whitespace().next().expect("subcommand name");
        }
        if cmd.is_empty() {
            continue;
        }
        for token in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if !token.starts_with("--") || token.len() == 2 {
                continue;
            }
            let mut args = vec![cmd, "no-such-operand", "no-such-operand", token, "1"];
            if cmd == "check" {
                args.extend(["--replay", "no-such-operand"]);
            }
            let out = parcfl(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !stderr.contains("unknown flag") && !stderr.contains("expects a value"),
                "parcfl {cmd} {token}: {stderr}"
            );
            assert_ne!(
                out.status.code(),
                Some(0),
                "parcfl {cmd} {token} found work"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 27,
        "only {checked} flag mentions found in:\n{usage}"
    );
}
