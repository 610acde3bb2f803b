//! §4 accounting measured head-to-head: preemptions, migrations, and
//! context switches per job under EDF-FF (partitioned, event-driven) vs.
//! PD² (global, quantum-driven with affinity dispatch), on the *same*
//! workloads.
//!
//! The paper's analytic bounds say: EDF suffers ≤ 1 preemption (≤ 2
//! context switches) per job and never migrates; a PD² job of `E` quanta
//! in a period of `P` suffers ≤ min(E−1, P−E) preemptions. This command
//! shows where the measured counts actually fall — typically far below the
//! PD² bound thanks to affinity dispatch.
//!
//! ```text
//! pfair switches [--tasks 20] [--sets 20] [--horizon 1000000] [--seed 1] [--threads N] [--metrics-out m.json] [--csv]
//! ```
//!
//! Each (mean-utilization, algorithm) pair is one sweep point under
//! [`experiments::SweepDriver`]; workloads derive from `(seed, set
//! index)` alone, so both algorithms see identical task sets and the
//! output is byte-identical for any `--threads`.

use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use partition::{partition_unbounded, EdfUtilization, Heuristic, SortOrder};
use pfair_core::sched::SchedConfig;
use sched_sim::{MultiSim, PartitionedSim};
use stats::Welford;
use uniproc::Discipline;
use workload::TaskSetGenerator;

const MEAN_UTILS: [f64; 3] = [0.1, 0.25, 0.45];
const ALGOS: [&str; 2] = ["EDF-FF", "PD2"];

/// One EDF-FF row at `mean_util` over `sets` shared workloads.
fn edf_row(n: usize, sets: usize, horizon_us: u64, seed: u64, mean_util: f64) -> Vec<String> {
    let mut pre = Welford::new();
    let mut ctx = Welford::new();
    for s in 0..sets {
        let mut gen = TaskSetGenerator::new(n, mean_util * n as f64, seed ^ ((s as u64) << 9));
        let phys = gen.generate();
        let pairs: Vec<(u64, u64)> = phys.iter().map(|t| (t.wcet_us, t.period_us)).collect();
        let acc = EdfUtilization::new(&pairs);
        let part = partition_unbounded(n, &acc, Heuristic::FirstFit, SortOrder::None, |i| {
            let (e, p) = pairs[i];
            (e as f64 / p as f64, p)
        })
        .expect("plain-utilization FF always packs (U ≤ 1 per task)");
        let mut psim =
            PartitionedSim::new(&pairs, &part.assignment, part.processors, Discipline::Edf);
        let pstats = psim.run(horizon_us);
        if pstats.completed_jobs > 0 {
            pre.push(pstats.preemptions as f64 / pstats.completed_jobs as f64);
            ctx.push(pstats.context_switches as f64 / pstats.completed_jobs as f64);
        }
    }
    vec![
        format!("{mean_util:.2}"),
        "EDF-FF".into(),
        format!("{:.3}", pre.mean()),
        format!("{:.3}", ctx.mean()),
        "0.000".into(),
        "-".into(),
    ]
}

/// One PD² row at `mean_util` over the same `sets` workloads, quantized.
fn pd2_row(n: usize, sets: usize, horizon_us: u64, seed: u64, mean_util: f64) -> Vec<String> {
    let quantum_us = 1_000u64;
    let mut pre = Welford::new();
    let mut ctx = Welford::new();
    let mut mig = Welford::new();
    let mut bound = Welford::new();
    for s in 0..sets {
        let mut gen = TaskSetGenerator::new(n, mean_util * n as f64, seed ^ ((s as u64) << 9));
        let phys = gen.generate();
        let tasks = phys
            .to_quantum_tasks(quantum_us)
            .expect("generator emits quantum-aligned periods");
        let m = tasks.min_processors();
        let mut msim = MultiSim::new(&tasks, SchedConfig::pd2(m));
        let metrics = msim.run(horizon_us / quantum_us);
        // Jobs *started* by the horizon (a partial final job can still
        // incur preemptions, so it must appear in the denominator for
        // the bound comparison to be sound).
        let slots = horizon_us / quantum_us;
        let jobs: u64 = tasks.iter().map(|(_, t)| slots.div_ceil(t.period)).sum();
        if jobs > 0 {
            pre.push(metrics.preemptions as f64 / jobs as f64);
            ctx.push(metrics.context_switches as f64 / jobs as f64);
            mig.push(metrics.migrations as f64 / jobs as f64);
            let b: u64 = tasks
                .iter()
                .map(|(_, t)| slots.div_ceil(t.period) * (t.exec - 1).min(t.period - t.exec))
                .sum();
            bound.push(b as f64 / jobs as f64);
        }
    }
    vec![
        format!("{mean_util:.2}"),
        "PD2".into(),
        format!("{:.3}", pre.mean()),
        format!("{:.3}", ctx.mean()),
        format!("{:.3}", mig.mean()),
        format!("{:.3}", bound.mean()),
    ]
}

/// The flags `switches` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "N"),
    Flag::value("sets", "N"),
    Flag::value("horizon", "N"),
    Flag::value("seed", "N"),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair switches", &[FLAGS, SWEEP_FLAGS], argv);
    let n: usize = args.get_in("tasks", 20, 1..);
    let sets: usize = args.get_in("sets", 20, 1..);
    let horizon_us: u64 = args.get_or("horizon", 1_000_000);
    let seed: u64 = args.get_or("seed", 1);
    let rec = recorder(&args);

    let driver = SweepDriver::new(&args);
    eprintln!(
        "switches: N={n}, {sets} sets, horizon {horizon_us}µs, {} threads",
        driver.threads()
    );
    let points: Vec<(f64, usize)> = MEAN_UTILS
        .iter()
        .flat_map(|&u| (0..ALGOS.len()).map(move |a| (u, a)))
        .collect();
    let keys: Vec<String> = points
        .iter()
        .map(|(u, a)| format!("u={u:.2} algo={}", ALGOS[*a]))
        .collect();
    let rows = driver.run(&keys, &rec, |i, _shard| {
        let (mean_util, algo) = points[i];
        if algo == 0 {
            edf_row(n, sets, horizon_us, seed, mean_util)
        } else {
            pd2_row(n, sets, horizon_us, seed, mean_util)
        }
    });
    driver.finish(
        &args,
        &rec,
        &[
            "mean util",
            "algo",
            "preempt/job",
            "ctxsw/job",
            "migr/job",
            "pd2 bound/job",
        ],
        rows,
    );
}
