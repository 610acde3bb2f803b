#!/usr/bin/env bash
# Every `pub` item in a library crate has a consumer outside that crate.
#
# Lists each `pub` fn, struct, enum, trait, const, static, type or union
# in `crates/*/src` (binaries under `src/bin/` excluded) whose name no
# file outside the crate's own library source mentions. Consumers are
# other crates, binaries, examples, tests under `tests/` and
# `benchmark/src`. Such an item should be `pub(crate)`, private or
# deleted.
#
# The exceptions are the items a public signature names: rustc's
# `private_interfaces` lint (or E0446, for an associated type) keeps them
# `pub`. They are listed in `ci/pub-consumers.allow`, one per line as
# `<file> <item>  <reason>`. An entry that no longer matches a flagged
# item is stale and fails the check too.
#
# The match is by whole word, so it errs towards passing: an item whose
# name also names something else (`new`, `len`) is never flagged.
#
# Usage: ci/pub-consumers.sh   (from anywhere; exits 1 on any finding)
set -euo pipefail
cd "$(dirname "$0")/.."

allow_file=ci/pub-consumers.allow
item_re='^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern[[:space:]]+"[^"]*")[[:space:]]+)*(fn|struct|enum|trait|const|static|type|union)[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)'

declare -A allowed=()
while read -r file item _; do
    [[ -z "${file:-}" || "$file" == \#* ]] && continue
    allowed["$file $item"]=1
done <"$allow_file"

declare -A used_allow=()
findings=0
shopt -s globstar
for file in crates/*/src/**/*.rs; do
    [[ "$file" == */src/bin/* ]] && continue
    crate_src=${file%%/src/*}/src
    lineno=0
    while IFS= read -r line; do
        lineno=$((lineno + 1))
        [[ "$line" =~ $item_re ]] || continue
        name=${BASH_REMATCH[4]}
        # A consumer is any file outside this crate's library source; the
        # crate's own binaries count.
        consumers=$(grep -rlw --include='*.rs' -e "$name" crates tests examples benchmark/src |
            grep -v "^$crate_src/" || true)
        if [[ -z "$consumers" && -d "$crate_src/bin" ]]; then
            consumers=$(grep -rlw --include='*.rs' -e "$name" "$crate_src/bin" || true)
        fi
        [[ -n "$consumers" ]] && continue
        if [[ -n "${allowed["$file $name"]:-}" ]]; then
            used_allow["$file $name"]=1
            continue
        fi
        echo "$file:$lineno: pub $name has no consumer outside its crate"
        findings=$((findings + 1))
    done <"$file"
done

for entry in "${!allowed[@]}"; do
    if [[ -z "${used_allow["$entry"]:-}" ]]; then
        echo "$allow_file: stale entry '$entry' (not a flagged pub item)"
        findings=$((findings + 1))
    fi
done

if ((findings > 0)); then
    echo "pub-consumers: $findings finding(s); narrow the item to pub(crate) or"
    echo "private, delete it, or (only if a public signature needs it) list it in"
    echo "$allow_file with the reason."
    exit 1
fi
echo "pub-consumers: every pub item has a consumer or an allowlisted reason"
