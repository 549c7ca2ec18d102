#!/usr/bin/env bash
# Re-records the committed output of every paper-figure reproducer, or with
# --check verifies it: each binary's standard output is deterministic and
# must equal results/<name>.txt byte for byte. Wall time per binary, from
# bash's SECONDS, goes to results/timings.txt when recording; a check
# writes nothing. (BENCH_baseline.json is the counter gate's baseline and
# has its own job and re-recording rule: CI's bench-regress.)
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
timings=""
for name in table1 table2 fig6 fig7 fig8 memory ablation_tau ablation_group; do
    SECONDS=0
    cargo run --release --offline -q --manifest-path "$root/Cargo.toml" -p parcfl-bench --bin "$name" \
        >"$name.txt"
    timings+="$name ${SECONDS}s"$'\n'
    if $check; then
        cmp "$name.txt" "$root/results/$name.txt" || stale+=("$name.txt")
    else
        cp "$name.txt" "$root/results/$name.txt"
    fi
done
$check || printf %s "$timings" >"$root/results/timings.txt"

if [ ${#stale[@]} -gt 0 ]; then
    echo "stale against their own binaries: ${stale[*]} (re-record with results/regen.sh)" >&2
    exit 1
fi
