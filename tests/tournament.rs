//! Tournament + slack sweep gate (CI): the scorecard (and a `fig3` panel)
//! must be byte-identical at any `--threads`, the scorecard's CSV must
//! carry the documented schema, and a slack-reservation run traced under
//! a fault storm must re-verify offline through `verify_trace`.
//!
//! Exercises the full binary surface via `CARGO_BIN_EXE_*`: set
//! generation from `(seed, set index)`, the exact global-EDF test inside
//! the scoring path, SweepDriver sharding, and the schema-v2 trace
//! round-trip.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Small but full-roster: 8 U/M steps × 8 schemes = 64 points, 3 sets
/// each, one 720-quantum hyperperiod per exact-test simulation.
const TOURNAMENT: [&str; 11] = [
    "--cpus",
    "2",
    "--tasks",
    "6",
    "--sets",
    "3",
    "--horizon",
    "720",
    "--seed",
    "3",
    "--csv",
];

const FIG3: [&str; 9] = [
    "--tasks", "8", "--sets", "2", "--points", "3", "--seed", "3", "--csv",
];

const SLACK: [&str; 11] = [
    "--tasks",
    "5",
    "--util",
    "1.25",
    "--sets",
    "2",
    "--horizon",
    "400",
    "--seed",
    "3",
    "--csv",
];

fn run(bin: &str, args: &[&str], extra: &[&str]) -> Output {
    let exe = match bin {
        "tournament" => env!("CARGO_BIN_EXE_tournament"),
        "fig3" => env!("CARGO_BIN_EXE_fig3"),
        "slack" => env!("CARGO_BIN_EXE_slack"),
        "verify_trace" => env!("CARGO_BIN_EXE_verify_trace"),
        other => panic!("unknown binary {other}"),
    };
    Command::new(exe)
        .args(args)
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"))
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn temp_path(tag: &str) -> (PathBuf, String) {
    let p = std::env::temp_dir().join(format!("pfair-tourn-{}-{tag}", std::process::id()));
    let s = p.to_str().unwrap().to_string();
    (p, s)
}

#[test]
fn tournament_and_fig3_are_byte_identical_across_threads() {
    for (bin, args, rows) in [("tournament", &TOURNAMENT[..], 64), ("fig3", &FIG3[..], 3)] {
        let expected = stdout_of(&run(bin, args, &["--threads", "1"]));
        assert_eq!(expected.lines().count(), 1 + rows, "{bin}: rows missing");
        let t4 = stdout_of(&run(bin, args, &["--threads", "4"]));
        assert_eq!(t4, expected, "{bin}: --threads 4 must match --threads 1");
    }
}

#[test]
fn tournament_csv_schema_and_scorecard_sanity() {
    let csv = stdout_of(&run("tournament", &TOURNAMENT, &["--threads", "2"]));
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "U/M,scheme,sched,rm_ll,rm_exact,gfb,preempt/kj,migr/kj,infl_util"
    );
    let rows: Vec<&str> = lines.collect();
    // 8 U/M steps × the full 8-scheme roster.
    assert_eq!(rows.len(), 64, "one row per (step, scheme)");
    let mut gedf_rows = 0;
    for row in rows {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), 9, "row {row}");
        let sched: f64 = cols[2].parse().expect("sched ratio parses");
        assert!((0.0..=1.0).contains(&sched), "row {row}");
        if cols[1] == "G-EDF" {
            gedf_rows += 1;
            // The GFB bound is sufficient-only: it can never accept a set
            // the exact test rejects, so per point gfb ≤ sched.
            let gfb: f64 = cols[5].parse().expect("gfb ratio parses");
            assert!(gfb <= sched + 1e-9, "bound beat the exact test: {row}");
            // Global schemes have no per-processor RM columns.
            assert_eq!(cols[3], "-", "row {row}");
        }
        if ["FF", "BF", "WF", "NF", "FFD", "BFD"].contains(&cols[1]) {
            // Partitioned EDF never migrates; the column is 0.0 or "-"
            // (no set accepted at this utilization).
            assert!(cols[7] == "0.0" || cols[7] == "-", "row {row}");
        }
    }
    assert_eq!(gedf_rows, 8);
}

#[test]
fn slack_is_byte_identical_across_threads() {
    let t1 = stdout_of(&run("slack", &SLACK, &["--threads", "1"]));
    let t4 = stdout_of(&run("slack", &SLACK, &["--threads", "4"]));
    assert_eq!(t4, t1);
    let mut lines = t1.lines();
    assert_eq!(
        lines.next().unwrap(),
        "fault,strategy,procs,degraded,recover,worst,stuck,miss,viol"
    );
    // 3 fault kinds × 4 reservation strategies; violations always 0 —
    // every run is verified against the declared set's windows.
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 12);
    for row in &rows {
        assert_eq!(row.split(',').next_back().unwrap(), "0", "row {row}");
    }
}

#[test]
fn slack_faulted_trace_reverifies_offline() {
    let (tr, tr_str) = temp_path("trace.json");
    let _ = std::fs::remove_file(&tr);
    let out = run(
        "slack",
        &SLACK,
        &[
            "--threads",
            "1",
            "--trace",
            &tr_str,
            "--trace-kind",
            "mixed",
            "--trace-strategy",
            "margin25",
        ],
    );
    stdout_of(&out);
    assert!(tr.exists(), "trace file must be written");

    let verified = run("verify_trace", &["--input", &tr_str], &[]);
    assert!(
        verified.status.success(),
        "faulted slack trace failed offline verification: {}",
        String::from_utf8_lossy(&verified.stderr)
    );
    let _ = std::fs::remove_file(&tr);
}

#[test]
fn bad_flags_exit_two() {
    let out = run("slack", &["--recovery", "bogus"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(
        "slack",
        &["--trace", "/tmp/x.json", "--trace-kind", "bogus"],
        &[],
    );
    assert_eq!(out.status.code(), Some(2));
    let out = run(
        "slack",
        &["--trace", "/tmp/x.json", "--trace-strategy", "bogus"],
        &[],
    );
    assert_eq!(out.status.code(), Some(2));
}
