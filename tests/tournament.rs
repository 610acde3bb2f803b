//! Tournament + slack sweep gate (CI): the scorecard (and a `fig3` panel)
//! must be byte-identical at any `--threads`, the scorecard's CSV must
//! carry the documented schema, a slack-reservation run traced under
//! a fault storm must re-verify offline through `verify_trace`, and
//! `verify_trace` answers a damaged trace with exit 1, never a panic.
//!
//! Exercises the full command surface through `pfair` itself: set
//! generation from `(seed, set index)`, the exact global-EDF test inside
//! the scoring path, SweepDriver sharding, and the schema-v2 trace
//! round-trip.

use proptest::prelude::*;
use sched_sim::{ScheduleTrace, TraceEvent};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

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

/// Runs `pfair <command> args… extra…`.
fn run(command: &str, args: &[&str], extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pfair"))
        .arg(command)
        .args(args)
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn pfair {command}: {e}"))
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

/// A valid trace of a fault-stop run with full recovery (CI's faulted
/// trace smoke), written and read once.
fn faults_trace() -> &'static ScheduleTrace {
    static TRACE: OnceLock<ScheduleTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let (tr, tr_str) = temp_path("faults-trace.json");
        let args = [
            "--tasks",
            "5",
            "--util",
            "1.25",
            "--sets",
            "1",
            "--horizon",
            "300",
            "--seed",
            "3",
            "--recovery",
            "full",
            "--trace",
            &tr_str,
            "--trace-kind",
            "failstop",
            "--trace-level",
            "0.25",
        ];
        stdout_of(&run("faults", &args, &[]));
        let json = std::fs::read_to_string(&tr).unwrap();
        let _ = std::fs::remove_file(&tr);
        ScheduleTrace::from_json(&json).expect("a valid trace")
    })
}

/// One numeric field of a trace.
enum Field<'a> {
    U32(&'a mut u32),
    U64(&'a mut u64),
}

/// Every numeric field of `trace` in four groups: the processor count,
/// the tasks' parameters, the slots' ids and the events' fields.
fn fields(trace: &mut ScheduleTrace) -> [Vec<Field<'_>>; 4] {
    let header = vec![Field::U32(&mut trace.processors)];
    let mut tasks = Vec::new();
    for (e, p) in &mut trace.tasks {
        tasks.extend([Field::U64(e), Field::U64(p)]);
    }
    let slots = trace.slots.iter_mut().flatten().map(Field::U32).collect();
    let mut out = Vec::new();
    for ev in &mut trace.events {
        match ev {
            TraceEvent::ProcDown { slot, proc } => out.extend([Field::U64(slot), Field::U32(proc)]),
            TraceEvent::QuantumLoss { slot, proc, task } => {
                out.extend([Field::U64(slot), Field::U32(proc), Field::U32(task)])
            }
            TraceEvent::Overrun {
                slot,
                task,
                job,
                extra,
            } => out.extend([
                Field::U64(slot),
                Field::U32(task),
                Field::U64(job),
                Field::U64(extra),
            ]),
            TraceEvent::Burst { task, job, delay } => {
                out.extend([Field::U32(task), Field::U64(job), Field::U64(delay)])
            }
            TraceEvent::Shed { slot, task } => out.extend([Field::U64(slot), Field::U32(task)]),
            TraceEvent::Rejoin {
                slot,
                task,
                exec,
                period,
            } => out.extend([
                Field::U64(slot),
                Field::U32(task),
                Field::U64(exec),
                Field::U64(period),
            ]),
            TraceEvent::CatchUp { slot } => out.push(Field::U64(slot)),
            TraceEvent::Capacity { slot, processors } => {
                out.extend([Field::U64(slot), Field::U32(processors)])
            }
        }
    }
    [header, tasks, slots, out]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One field of a valid faulted trace, of each group in turn, set to
    /// 0, 1, 2, 99 or a type's maximum: `verify_trace` accepts the result
    /// or refuses it with a message and exit 1. A panic would be exit 101.
    #[test]
    fn verify_trace_refuses_a_damaged_trace_without_panicking(
        group in 0usize..4,
        site in 0usize..100_000,
        value in prop::sample::select(vec![0u64, 1, 2, 99, u64::from(u32::MAX), u64::MAX]),
    ) {
        let mut trace = faults_trace().clone();
        let mut groups = fields(&mut trace);
        let fields = &mut groups[group];
        let n = fields.len();
        prop_assert!(n > 0, "the trace has no field of group {}", group);
        match &mut fields[site % n] {
            Field::U32(f) => **f = u32::try_from(value).unwrap_or(u32::MAX),
            Field::U64(f) => **f = value,
        }
        let (tr, tr_str) = temp_path(&format!("damaged-{site}-{value}.json"));
        std::fs::write(&tr, trace.to_json()).unwrap();
        let out = run("verify_trace", &["--input", &tr_str], &[]);
        let _ = std::fs::remove_file(&tr);
        let stderr = String::from_utf8_lossy(&out.stderr);
        match out.status.code() {
            Some(0) => {}
            Some(1) => prop_assert!(!stderr.is_empty(), "exit 1 without a message"),
            code => prop_assert!(
                false,
                "group {} field {} = {}: exit {:?}: {}",
                group,
                site % n,
                value,
                code,
                stderr
            ),
        }
    }
}
