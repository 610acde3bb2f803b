//! Trace verifier: load an archived JSON schedule trace (written by
//! `show --trace`, `faults --trace`, or [`sched_sim::ScheduleTrace`]) and
//! re-verify it.
//!
//! Clean traces are checked against the Pfair lag bound and per-subtask
//! window containment. Traces whose `events` record schedule
//! perturbations — IS arrival bursts, recovery sheds/rejoins, ERfair
//! catch-up — are checked against their *event-adjusted* windows, so
//! archived faulted runs are verifiable too. Legacy (schema v1) traces
//! without an `events` field load and verify unchanged.
//!
//! ```text
//! cargo run --release -p experiments --bin verify_trace -- --input trace.json
//! ```
//!
//! Exits non-zero on verification failure — usable as a regression gate on
//! archived schedules. Exit codes: 1 = verification failed, 2 = usage or
//! unreadable/unparseable input.

use experiments::{Args, Flag};
use sched_sim::ScheduleTrace;

/// Every flag `verify_trace` accepts.
const FLAGS: &[Flag] = &[Flag::value("input", "FILE")];

fn main() {
    let args = Args::parse("verify_trace", &[FLAGS]);
    let Some(path) = args.get("input") else {
        eprintln!("verify_trace: --input <trace.json> is required");
        std::process::exit(2);
    };
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("verify_trace: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let trace = match ScheduleTrace::from_json(&json) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("verify_trace: cannot parse {path}: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "{path}: {} tasks, M = {}, {} slots, {} misses recorded, {} events{}",
        trace.tasks.len(),
        trace.processors,
        trace.slots.len(),
        trace.metrics.misses,
        trace.events.len(),
        if trace.is_perturbed() {
            " (schedule perturbed: event-aware check)"
        } else {
            ""
        }
    );
    match trace.verify() {
        Ok(()) => {
            if trace.is_perturbed() {
                println!("verified: event-adjusted window containment holds ✓");
            } else {
                println!("verified: lag bound and window containment hold ✓");
            }
        }
        Err(e) => {
            eprintln!("VERIFICATION FAILED: {e}");
            std::process::exit(1);
        }
    }
}
