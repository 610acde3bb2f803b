//! ERfair work conservation (paper §2): "Work-conserving algorithms are of
//! interest because they tend to improve job response times, especially in
//! lightly-loaded systems."
//!
//! Compares job response times and idle quanta under plain Pfair,
//! intra-job ERfair, unrestricted early release, and — as the partitioned
//! reference — EDF-FF (work-conserving per processor), across system
//! loads, on identical workloads.
//!
//! ```text
//! cargo run --release -p experiments --bin erfair -- [--tasks 20] [--cpus 4] [--sets 30] [--slots 5000] [--seed 1] [--threads N] [--point-retries 1] [--metrics-out m.json] [--csv]
//! ```
//!
//! Each (load, algorithm) pair is one sweep point under
//! [`experiments::SweepDriver`]; workloads derive from `(seed, set index)`
//! alone, so every algorithm sees identical task sets and the output is
//! byte-identical for any `--threads`.

use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use pfair_core::sched::{EarlyRelease, SchedConfig};
use pfair_model::{Task, TaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched_sim::MultiSim;
use stats::Welford;

fn workload(n: usize, target: f64, seed: u64) -> TaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let draws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0f64)).collect();
    let sum: f64 = draws.iter().sum();
    draws
        .into_iter()
        .map(|d| {
            let u = (d * target / sum).min(0.95);
            let e = rng.gen_range(1u64..=5);
            let p = ((e as f64 / u).ceil() as u64).max(e + 1);
            Task::new(e, p).expect("valid by construction")
        })
        .collect()
}

/// The algorithms compared at each load; `None` is the EDF-FF reference.
const MODES: [(&str, Option<EarlyRelease>); 4] = [
    ("EDF-FF", None),
    ("Pfair", Some(EarlyRelease::None)),
    ("ERfair", Some(EarlyRelease::IntraJob)),
    ("ER-unrestricted", Some(EarlyRelease::Unrestricted)),
];

const LOADS: [f64; 3] = [0.3, 0.6, 0.9];

/// One table row for the partitioned EDF-FF reference at `load`.
fn edf_ff_row(n: usize, m: u32, sets: usize, slots: u64, seed: u64, load: f64) -> Vec<String> {
    let mut resp = Welford::new();
    let mut idle = Welford::new();
    let mut misses = 0u64;
    let mut max_resp = 0u64;
    for s in 0..sets {
        let tasks = workload(n, load * m as f64, seed ^ ((s as u64) << 13));
        let pairs: Vec<(u64, u64)> = tasks.iter().map(|(_, t)| (t.exec, t.period)).collect();
        let acc = partition::EdfUtilization::new(&pairs);
        let part = partition::partition_unbounded(
            pairs.len(),
            &acc,
            partition::Heuristic::FirstFit,
            partition::SortOrder::DecreasingUtilization,
            |i| {
                let (e, p) = pairs[i];
                (e as f64 / p as f64, p)
            },
        )
        .expect("per-task weight < 1 always packs");
        // Use however many processors FF needed (≥ m is possible).
        let mut sim = sched_sim::PartitionedSim::new(
            &pairs,
            &part.assignment,
            part.processors,
            uniproc::Discipline::Edf,
        );
        let stats = sim.run(slots);
        resp.push(stats.mean_response());
        max_resp = max_resp.max(stats.response_max);
        idle.push(stats.idle_time as f64 / (slots * part.processors as u64) as f64);
        misses += stats.deadline_misses;
    }
    vec![
        format!("{load:.1}"),
        "EDF-FF".to_string(),
        format!("{:.2}", resp.mean()),
        format!("{max_resp} (max)"),
        format!("{:.3}", idle.mean()),
        misses.to_string(),
    ]
}

/// One table row for a Pfair variant `er` at `load`.
#[allow(clippy::too_many_arguments)]
fn pfair_row(
    n: usize,
    m: u32,
    sets: usize,
    slots: u64,
    seed: u64,
    load: f64,
    name: &str,
    er: EarlyRelease,
) -> Vec<String> {
    let mut resp = Welford::new();
    let mut all_samples = stats::Samples::new();
    let mut idle = Welford::new();
    let mut misses = 0u64;
    for s in 0..sets {
        let tasks = workload(n, load * m as f64, seed ^ ((s as u64) << 13));
        let cfg = SchedConfig::pd2(m).with_early_release(er);
        let mut sim = MultiSim::new(&tasks, cfg);
        sim.record_responses();
        let metrics = sim.run(slots);
        resp.merge(&sim.response_times());
        if let Some(samples) = sim.response_samples() {
            all_samples.merge(samples);
        }
        idle.push(metrics.idle_quanta as f64 / (slots * m as u64) as f64);
        misses += metrics.misses;
    }
    let p99 = if all_samples.is_empty() {
        f64::NAN
    } else {
        all_samples.percentile(99.0)
    };
    vec![
        format!("{load:.1}"),
        name.to_string(),
        format!("{:.2}", resp.mean()),
        format!("{p99:.1}"),
        format!("{:.3}", idle.mean()),
        misses.to_string(),
    ]
}

/// The flags `erfair` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "N"),
    Flag::value("cpus", "N"),
    Flag::value("sets", "N"),
    Flag::value("slots", "N"),
    Flag::value("seed", "N"),
];

fn main() {
    let args = Args::parse("erfair", &[FLAGS, SWEEP_FLAGS]);
    let n: usize = args.get_or("tasks", 20);
    let m: u32 = args.get_or("cpus", 4);
    let sets: usize = args.get_or("sets", 30);
    let slots: u64 = args.get_or("slots", 5_000);
    let seed: u64 = args.get_or("seed", 1);
    let rec = recorder(&args);

    let mut driver = SweepDriver::new(&args, "erfair");
    eprintln!(
        "erfair: N={n}, M={m}, {sets} sets × {slots} slots, {} threads",
        driver.threads()
    );
    let points: Vec<(f64, usize)> = LOADS
        .iter()
        .flat_map(|&load| (0..MODES.len()).map(move |mode| (load, mode)))
        .collect();
    let keys: Vec<String> = points
        .iter()
        .map(|(load, mode)| format!("load={load:.1} algo={}", MODES[*mode].0))
        .collect();
    let rows = driver.run(&keys, &rec, |i, _shard| {
        let (load, mode) = points[i];
        let (name, er) = MODES[mode];
        match er {
            None => edf_ff_row(n, m, sets, slots, seed, load),
            Some(er) => pfair_row(n, m, sets, slots, seed, load, name, er),
        }
    });
    driver.finish(
        &args,
        &rec,
        &[
            "load",
            "mode",
            "mean response (slots)",
            "p99 response",
            "idle fraction",
            "misses",
        ],
        rows,
    );
}
