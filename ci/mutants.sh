#!/usr/bin/env bash
# Mutation check: every mutant in ci/mutants.txt must fail tier-1.
#
# Copies the checkout (tracked and untracked, not ignored files) to a
# scratch directory, checks that tier-1 passes there unmutated, then, one
# catalogue line at a time, applies the mutant, runs
# `cargo test -q --no-fail-fast` and restores the file. Prints a kill
# table naming the tests that failed under each mutant.
#
# Exits 1 on a surviving mutant, on a catalogue line whose original
# snippet does not occur exactly once in its file, or on a mutant that
# does not build (the catalogue must name real, compilable mutants), and
# 2 if the unmutated copy fails its tests.
#
# Usage: ci/mutants.sh
# Environment: MUTANTS_WORK (scratch directory, default a fresh mktemp
# dir), CARGO_TARGET_DIR (default <work>/target). A test run longer than
# an hour is stopped and counts as a kill.
set -euo pipefail
# `&` in a replacement is literal text here, not the matched snippet.
shopt -u patsub_replacement 2>/dev/null || true
repo=$(cd "$(dirname "$0")/.." && pwd)
work=${MUTANTS_WORK:-$(mktemp -d)}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}
limit=3600

mkdir -p "$work/src"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    xargs -0 cp --parents -t "$work/src")
cd "$work/src"

# Runs tier-1's tests; leaves the output in $work/log and returns cargo's
# status (124 on a timeout).
run_tests() {
    timeout "$limit" cargo test -q --no-fail-fast >"$work/log" 2>&1
}

# The tests that failed in $work/log, one line, space-separated.
failed_tests() {
    sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$work/log" | tr '\n' ' '
}

echo "mutants: baseline run in $work/src" >&2
if ! run_tests; then
    echo "mutants: the unmutated copy fails its tests:" >&2
    tail -n 40 "$work/log" >&2
    exit 2
fi

status=0 n=0
printf '%-3s %-9s %-42s %s\n' "#" verdict "mutant" "killed by"
while IFS=$'\t' read -r file original mutant rule; do
    [[ -z "$file" || "$file" == \#* ]] && continue
    n=$((n + 1))
    label="$file: $original"
    if [[ -z "$original" || -z "$mutant" || -z "$rule" || ! -f "$file" ]]; then
        printf '%-3s %-9s %-42s %s\n' "$n" malformed "$label" "(needs file, original, mutant, rule)"
        status=1
        continue
    fi
    content=$(<"$file")
    rest=${content#*"$original"}
    if [[ "$rest" == "$content" || "$rest" == *"$original"* ]]; then
        printf '%-3s %-9s %-42s %s\n' "$n" stale "$label" "(the original must occur exactly once)"
        status=1
        continue
    fi
    cp "$file" "$work/original"
    printf '%s\n' "${content/"$original"/"$mutant"}" >"$file"
    set +e
    run_tests
    code=$?
    set -e
    cp "$work/original" "$file"
    if ((code == 0)); then
        verdict=SURVIVED killers="-- ($rule)"
        status=1
    elif ((code == 124)); then
        verdict=killed killers="(timeout after ${limit}s)"
    elif grep -q '^error\(\[E[0-9]*\]\)\?:' "$work/log" && [[ -z "$(failed_tests)" ]]; then
        verdict=no-build killers="(the mutant does not compile)"
        status=1
    else
        verdict=killed killers=$(failed_tests)
    fi
    printf '%-3s %-9s %-42s %s\n' "$n" "$verdict" "$label" "$killers"
done <"$repo/ci/mutants.txt"

if ((status != 0)); then
    echo "mutants: a mutant survived, or a catalogue line is stale or broken" >&2
fi
exit "$status"
