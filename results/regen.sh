#!/usr/bin/env bash
# Re-records the committed output of every paper-figure reproducer and of
# warm_cache (whose warm < cold, identical-answers asserts run only here),
# or with --check verifies it: each binary's standard output is deterministic and
# must equal results/<name>.txt byte for byte. So is the BENCH_solver.json
# table2 writes beside it (every deterministic RunStats counter of three
# configurations per Table-I bench, one record per line): it is recorded
# as, and checked against, results/BENCH_solver.json, and that check is the
# counter drift gate — a PR that changes or adds a counter on purpose
# re-records it here. Wall time per binary, from bash's SECONDS, goes to
# results/timings.txt when recording, and ablation_tau's wall-clock table
# (its standard error) to results/ablation_tau.time; a check writes
# nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
check=false
if [ "${1:-}" = --check ]; then check=true; fi

cargo build --release --offline -p parcfl-bench # so the walls below time the runs alone
# table2 writes BENCH_solver.json into its working directory.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

stale=()
# Records the working directory's file $1 as results/$1, or checks it.
gate() {
    if ! $check; then
        cp "$1" "$root/results/$1"
    elif ! cmp "$1" "$root/results/$1"; then
        diff -u "$root/results/$1" "$1" >&2 || true
        stale+=("$1")
    fi
}
timings=""
for name in table1 table2 fig6 fig7 fig8 memory ablation_tau ablation_group warm_cache; do
    # Each binary's standard error goes to fd 3: the script's own, shared
    # rather than re-opened, so a redirected run (`--check 2> log`) keeps
    # what came before it, a stale file's `diff -u` included.
    if [ "$name" = ablation_tau ] && ! $check; then
        exec 3>"$root/results/$name.time"
    else
        exec 3>&2
    fi
    SECONDS=0
    cargo run --release --offline -q --manifest-path "$root/Cargo.toml" -p parcfl-bench --bin "$name" \
        >"$name.txt" 2>&3
    exec 3>&-
    timings+="$name ${SECONDS}s"$'\n'
    gate "$name.txt"
done
gate BENCH_solver.json
$check || printf %s "$timings" >"$root/results/timings.txt"

if [ ${#stale[@]} -gt 0 ]; then
    echo "stale against their own binaries: ${stale[*]} (re-record with results/regen.sh)" >&2
    exit 1
fi
