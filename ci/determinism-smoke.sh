#!/usr/bin/env bash
# Determinism smoke: every parallel sweep command of `pfair` must emit
# byte-identical CSV at --threads 1 and --threads 4.
#
# The roster is DERIVED, not maintained: `pfair` lists its commands, and
# every one whose module (crates/experiments/src/bin/pfair/<command>.rs)
# instantiates SweepDriver is picked up automatically. The script fails
# loudly if such a command has no smoke_args case below — adding a sweep
# command without wiring it into this gate is a CI error by construction.
#
# Env: BIN_DIR (default ./target/release), METRICS_DIR (default
# smoke-metrics) for the --threads 1 run's --metrics-out JSON.
set -eu

B=${BIN_DIR:-./target/release}
OUT=${METRICS_DIR:-smoke-metrics}
mkdir -p "$OUT"

# `pfair` alone exits 2 and lists its commands on stderr.
commands=$("$B/pfair" 2>&1 | sed -n 's/^commands: //p' || true)
if [ -z "$commands" ]; then
  echo "$0: $B/pfair listed no commands" >&2
  exit 1
fi

sweep_commands() {
  for name in $commands; do
    if grep -q 'SweepDriver::new(' "crates/experiments/src/bin/pfair/$name.rs"; then
      echo "$name"
    fi
  done
}

# Small-but-representative flags per command; keep each under ~10 s.
smoke_args() {
  case "$1" in
    ablation)   echo "--sets 5 --seed 3" ;;
    erfair)     echo "--tasks 8 --cpus 2 --sets 2 --slots 500 --seed 3" ;;
    faults)     echo "--tasks 5 --util 1.25 --sets 2 --horizon 300 --seed 3" ;;
    fig3)       echo "--tasks 10 --sets 4 --points 6 --seed 3" ;;
    fig4)       echo "--tasks 10 --sets 4 --points 6 --seed 3" ;;
    locking)    echo "--cpus 2 --slots 2000 --seed 3" ;;
    quantum)    echo "--tasks 10 --sets 4 --seed 3" ;;
    rmff)       echo "--cpus 4 --tasks 8 --sets 10 --seed 3" ;;
    slack)      echo "--tasks 5 --util 1.25 --sets 2 --horizon 400 --seed 3" ;;
    switches)   echo "--tasks 8 --sets 2 --horizon 100000 --seed 3" ;;
    tournament) echo "--cpus 2 --tasks 6 --sets 3 --horizon 720 --seed 3" ;;
    *)          return 1 ;;
  esac
}

status=0
for name in $(sweep_commands); do
  if ! args=$(smoke_args "$name"); then
    echo "$0: sweep command '$name' uses SweepDriver but has no smoke_args" \
         "case — add one to ci/determinism-smoke.sh" >&2
    status=1
    continue
  fi
  # shellcheck disable=SC2086
  "$B/pfair" "$name" $args --csv --threads 1 --metrics-out "$OUT/$name.json" > "$name.t1.csv"
  # shellcheck disable=SC2086
  "$B/pfair" "$name" $args --csv --threads 4 > "$name.t4.csv"
  diff "$name.t1.csv" "$name.t4.csv"
  echo "$name: byte-identical across thread counts"
  rm -f "$name.t1.csv" "$name.t4.csv"
done
exit "$status"
