//! Quantum-size sweep (paper §4 "Challenges"): processors PD² needs as the
//! quantum varies, exposing the rounding-vs-overhead trade-off.
//!
//! ```text
//! pfair quantum [--tasks 50] [--util 10] [--sets 100] [--seed 1] [--threads N] [--metrics-out m.json] [--csv]
//! ```

use experiments::quantum::{run_quantum_point, QUANTUM_SWEEP_US};
use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use overhead::OverheadParams;
use stats::ci99_halfwidth;
use std::ops::Bound::{Excluded, Included};

/// The flags `quantum` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "N"),
    Flag::value("util", "X"),
    Flag::value("sets", "N"),
    Flag::value("seed", "N"),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair quantum", &[FLAGS, SWEEP_FLAGS], argv);
    let n: usize = args.get_in("tasks", 50, 1..);
    let util: f64 = args.get_in("util", n as f64 / 5.0, (Excluded(0.0), Included(n as f64)));
    let sets: usize = args.get_in("sets", 100, 1..);
    let seed: u64 = args.get_or("seed", 1);
    let params = OverheadParams::paper2003();
    let rec = recorder(&args);

    let driver = SweepDriver::new(&args);
    eprintln!(
        "quantum sweep: N={n}, U={util}, {sets} sets, {} threads",
        driver.threads()
    );
    let keys: Vec<String> = QUANTUM_SWEEP_US.iter().map(|q| format!("q={q}")).collect();
    let rows = driver.run(&keys, &rec, |i, _shard| {
        let p = run_quantum_point(n, util, sets, seed, &params, QUANTUM_SWEEP_US[i]);
        vec![
            p.quantum_us.to_string(),
            format!("{:.2}", p.pd2_procs.mean()),
            format!("{:.2}", ci99_halfwidth(&p.pd2_procs)),
            p.failures.to_string(),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &["q (µs)", "PD2 procs", "±99%", "failures"],
        rows,
    );
}
