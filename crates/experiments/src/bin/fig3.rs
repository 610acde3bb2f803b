//! Fig. 3: minimum processors required by PD² vs. EDF-FF as total
//! utilization grows, with Equation (3) overhead inflation.
//!
//! ```text
//! cargo run --release -p experiments --bin fig3 -- [--tasks 50] [--sets 200] [--points 15] [--seed 1] [--threads N] [--point-retries 1] [--metrics-out m.json] [--csv]
//! ```
//!
//! The paper's Fig. 3 panels are `--tasks 50 | 100 | 250 | 500`.
//!
//! Points run through [`experiments::SweepDriver`] — sharded across
//! `--threads` workers with byte-identical output for any thread count.
//! With `--metrics-out`, the exported JSON carries the sweep telemetry
//! (per-point latency, pool utilization, partition probe counts) plus
//! scheduler-tick and dispatch counters from a short PD² simulation of
//! one sampled task set per point, which cross-checks the analytic
//! processor count against an actual miss-free schedule.

use experiments::fig34::{paper_utilization_sweep, run_point_observed};
use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use overhead::OverheadParams;
use pfair_core::sched::SchedConfig;
use sched_sim::MultiSim;
use stats::ci99_halfwidth;
use workload::{CacheDelayDist, TaskSetGenerator};

/// Simulates one sampled task set per point under PD² dispatch for a few
/// hundred quanta, feeding `rec` with `sched.*`/`sim.*` counters.
fn simulate_sample(n: usize, total_util: f64, seed: u64, rec: &obs::Recorder) {
    let _span = rec.timer("fig3.sample_sim_ns").start();
    let mut gen = TaskSetGenerator::new(n, total_util, seed);
    let phys = gen.generate();
    let Ok(tasks) = phys.to_quantum_tasks(1_000) else {
        rec.counter("fig3.sample_sim_skipped").incr();
        return;
    };
    let m = tasks.min_processors();
    let mut sim = MultiSim::new(&tasks, SchedConfig::pd2(m));
    sim.set_recorder(rec);
    let metrics = sim.run(500);
    if metrics.misses > 0 {
        rec.counter("fig3.sample_sim_misses").add(metrics.misses);
    }
}

/// The flags `fig3` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "N"),
    Flag::value("sets", "N"),
    Flag::value("points", "N"),
    Flag::value("seed", "N"),
];

fn main() {
    let args = Args::parse("fig3", &[FLAGS, SWEEP_FLAGS]);
    let n: usize = args.get_or("tasks", 50);
    let sets: usize = args.get_or("sets", 200);
    let points: usize = args.get_or("points", 15);
    let seed: u64 = args.get_or("seed", 1);
    let params = OverheadParams::paper2003();
    let dist = CacheDelayDist::paper2003();
    let rec = recorder(&args);

    let mut driver = SweepDriver::new(&args, "fig3");
    eprintln!(
        "fig3: N={n}, {sets} sets per point, {points} utilization points, {} threads",
        driver.threads()
    );
    let utils = paper_utilization_sweep(n, points);
    let keys: Vec<String> = utils.iter().map(|u| format!("U={u:.4}")).collect();
    let rows = driver.run(&keys, &rec, |i, shard| {
        let u = utils[i];
        let p = run_point_observed(n, u, sets, seed, &params, dist, shard);
        if shard.is_enabled() {
            simulate_sample(n, u, seed, shard);
        }
        eprintln!(
            "  U={u:.2}: PD2 {:.2}  EDF-FF {:.2}  (failures: pd2={} edf={} panics={})",
            p.pd2_procs.mean(),
            p.edf_procs.mean(),
            p.pd2_failures,
            p.edf_failures,
            p.worker_panics
        );
        vec![
            format!("{u:.2}"),
            format!("{:.2}", p.pd2_procs.mean()),
            format!("{:.2}", ci99_halfwidth(&p.pd2_procs)),
            format!("{:.2}", p.edf_procs.mean()),
            format!("{:.2}", ci99_halfwidth(&p.edf_procs)),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &["U", "PD2 procs", "±99%", "EDF-FF procs", "±99%"],
        rows,
    );
}
