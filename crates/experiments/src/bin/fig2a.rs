//! Fig. 2(a): per-invocation scheduling overhead of EDF and PD² on one
//! processor, as a function of task count.
//!
//! ```text
//! cargo run --release -p experiments --bin fig2a -- [--sets 100] [--horizon 1000000] [--slots 20000] [--seed 1] [--threads 1] [--point-retries 1] [--metrics-out m.json] [--csv]
//! ```
//!
//! This binary *measures wall time*, so its points default to running
//! serially (`--threads 1`): concurrent measurement loops would contend
//! for the very cores being timed and corrupt the numbers. `--threads`
//! still works for smoke runs where the timings don't matter.

use experiments::fig2::{measure_edf_observed, measure_pd2_observed, PAPER_TASK_COUNTS};
use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use stats::ci99_halfwidth;

/// The flags `fig2a` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("sets", "N"),
    Flag::value("horizon", "US"),
    Flag::value("slots", "N"),
    Flag::value("seed", "N"),
];

fn main() {
    let args = Args::parse("fig2a", &[FLAGS, SWEEP_FLAGS]);
    let sets: usize = args.get_or("sets", 100);
    let horizon_us: u64 = args.get_or("horizon", 1_000_000);
    let horizon_slots: u64 = args.get_or("slots", 20_000);
    let seed: u64 = args.get_or("seed", 1);
    let rec = recorder(&args);

    let mut driver = SweepDriver::serial_by_default(&args, "fig2a");
    eprintln!(
        "fig2a: {sets} sets per N, EDF horizon {horizon_us}µs, PD2 horizon {horizon_slots} slots, {} threads",
        driver.threads()
    );
    let keys: Vec<String> = PAPER_TASK_COUNTS.iter().map(|n| format!("N={n}")).collect();
    let rows = driver.run(&keys, &rec, |i, shard| {
        let n = PAPER_TASK_COUNTS[i];
        let edf = measure_edf_observed(n, sets, horizon_us, seed, shard);
        let pd2 = measure_pd2_observed(n, 1, sets, horizon_slots, seed, shard);
        eprintln!("  N={n}: EDF {:.3}µs  PD2 {:.3}µs", edf.mean(), pd2.mean());
        vec![
            n.to_string(),
            format!("{:.3}", edf.mean()),
            format!("{:.3}", ci99_halfwidth(&edf)),
            format!("{:.3}", pd2.mean()),
            format!("{:.3}", ci99_halfwidth(&pd2)),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &["N", "EDF (µs)", "±99%", "PD2 (µs)", "±99%"],
        rows,
    );
}
