//! Fig. 2(b): per-slot scheduling overhead of PD² on 2, 4, 8, and 16
//! processors, as a function of task count.
//!
//! ```text
//! cargo run --release -p experiments --bin fig2b -- [--sets 50] [--slots 20000] [--seed 1] [--threads 1] [--point-retries 1] [--metrics-out m.json] [--csv]
//! ```
//!
//! This binary *measures wall time*, so its points default to running
//! serially (`--threads 1`): concurrent measurement loops would contend
//! for the very cores being timed and corrupt the numbers. `--threads`
//! still works for smoke runs where the timings don't matter.

use experiments::fig2::{measure_pd2_observed, PAPER_PROC_COUNTS, PAPER_TASK_COUNTS};
use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use stats::ci99_halfwidth;

/// The flags `fig2b` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("sets", "N"),
    Flag::value("slots", "N"),
    Flag::value("seed", "N"),
];

fn main() {
    let args = Args::parse("fig2b", &[FLAGS, SWEEP_FLAGS]);
    let sets: usize = args.get_or("sets", 50);
    let horizon_slots: u64 = args.get_or("slots", 20_000);
    let seed: u64 = args.get_or("seed", 1);
    let rec = recorder(&args);

    let mut driver = SweepDriver::serial_by_default(&args, "fig2b");
    eprintln!(
        "fig2b: {sets} sets per point, {horizon_slots} slots each, {} threads",
        driver.threads()
    );
    let mut headers = vec!["N".to_string()];
    for &m in &PAPER_PROC_COUNTS {
        headers.push(format!("{m} procs (µs)"));
        headers.push("±99%".to_string());
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let keys: Vec<String> = PAPER_TASK_COUNTS.iter().map(|n| format!("N={n}")).collect();
    let rows = driver.run(&keys, &rec, |i, shard| {
        let n = PAPER_TASK_COUNTS[i];
        let mut row = vec![n.to_string()];
        for &m in &PAPER_PROC_COUNTS {
            let w = measure_pd2_observed(n, m, sets, horizon_slots, seed, shard);
            row.push(format!("{:.3}", w.mean()));
            row.push(format!("{:.3}", ci99_halfwidth(&w)));
        }
        eprintln!("  N={n}: {}", row[1..].join(" "));
        row
    });
    driver.finish(&args, &rec, &header_refs, rows);
}
