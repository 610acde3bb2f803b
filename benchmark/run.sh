#!/usr/bin/env bash
# The repository benchmark (see BENCHMARK.json and benchmark/README.md).
#
#   benchmark/run.sh [--seed S] [--seconds X] [--smoke]
#       Builds, then runs all five workloads one after another, each in its
#       own process: first the end-to-end pass (tracing off), then the
#       traced pass for the per-layer numbers. Prints every metric as
#       `workload metric value unit`, writes benchmark/out/results.json and
#       exits non-zero if any correctness check fails.
#       --smoke: 2 repetitions of 1/20 of the traced pass's work, all checks
#       on (for CI).
#
#   benchmark/run.sh --workload W [--seed S] [--seconds X] [--trace 0|1]
#       One pass of one workload. The last line of standard output is the
#       result object {"correct", "attempted", "failed", "metrics"}.
#
# Nothing is read or written outside the checkout: build output goes to
# $CARGO_TARGET_DIR (default benchmark/target), everything else to
# benchmark/out.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/out"
workload="" seed=1 seconds=20 trace=0 smoke=0

while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --smoke) smoke=1; shift ;;
        -h|--help) sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
# Repetitions follow from --seconds (5 a second) and their size from the
# pass, unless this is the smoke run.
shape=()
if [ "$smoke" = 1 ]; then
    shape=(--reps 2 --rep-seconds 0.1)
fi

# Build from source, as shipped (the release profile is copied from the
# root manifest). Cargo's progress goes to stderr; stdout stays results.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/pfair-benchmark"
mkdir -p "$out"

# The daemon workloads run on one CPU. Spread over two, every hand-off
# between the daemon's threads wakes a halted vCPU, and what that costs
# (25 us or 2 us) depends on how busy the box was a moment ago: the same
# binary then measures 24 us or 115 us a round trip from one run to the
# next. On one CPU a hand-off is a context switch, whatever came before.
pin_for() {
    pin=()
    case "$1" in
        admit_*)
            if command -v taskset >/dev/null && taskset -c 0 true 2>/dev/null; then
                pin=(taskset -c 0)
            else
                echo "run.sh: WARNING cannot pin $1 to one CPU (no usable taskset); expect bimodal latencies" >&2
            fi ;;
    esac
}

if [ -n "$workload" ]; then
    pin_for "$workload"
    exec ${pin[@]+"${pin[@]}"} "$bin" run "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" ${shape[@]+"${shape[@]}"} --out-dir "$out"
fi

# ---- all workloads --------------------------------------------------------

cpus=$(nproc)
load=$(cut -d' ' -f1-3 /proc/loadavg)
model=$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -n 1)
commit=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)

# Noise guard: a busy box turns every number into a measurement of the
# neighbours. Warn, record the load, and carry on.
if awk -v l="${load%% *}" -v n="$cpus" 'BEGIN { exit !(l > n) }'; then
    echo "run.sh: WARNING 1-minute load ${load%% *} exceeds nproc $cpus; results will be noisy" >&2
fi

rm -f "$out"/*.run.json
failed=0
# One process at a time, never two workloads at once.
for w in fig3_sweep pack_exact engine_pd2 admit_rtt admit_pipelined; do
    pin_for "$w"
    for t in 0 1; do
        ${pin[@]+"${pin[@]}"} "$bin" run "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
            ${shape[@]+"${shape[@]}"} --out-dir "$out" --json-out "$out/$w.trace$t.run.json" \
            | grep -v '^{' || failed=1
    done
done

{
    printf '{\n"env": {"nproc": %s, "loadavg_at_start": "%s", "cpu_model": "%s", ' \
        "$cpus" "$load" "$model"
    printf '"commit": "%s", "seed": %s, "seconds": %s, "smoke": %s},\n"runs": [\n' \
        "$commit" "$seed" "$seconds" "$smoke"
    first=1
    for f in "$out"/*.run.json; do
        [ "$first" = 1 ] || printf ',\n'
        first=0
        cat "$f"
    done
    printf '\n]\n}\n'
} > "$out/results.json"
rm -f "$out"/*.run.json

if [ "$failed" = 1 ]; then
    echo "run.sh: a correctness check FAILED (see the lines above)" >&2
    exit 1
fi
echo "run.sh: all checks passed; results in $out/results.json" >&2
