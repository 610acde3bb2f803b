//! §3 — achievable utilization of the partitioning variants vs. PD².
//!
//! The paper: RM-FF guarantees only ~41% of capacity \[30\]; any EDF
//! partitioning heuristic is capped at `(M+1)/2` in the worst case (and the
//! Lopez bound in between); PD² schedules every feasible set (`Σw ≤ M`).
//! This command measures *acceptance ratios*: the fraction of random task
//! sets each approach schedules, as normalized utilization `U/M` sweeps
//! toward 1.
//!
//! ```text
//! pfair rmff [--cpus 8] [--tasks 24] [--sets 300] [--seed 1] [--threads N] [--metrics-out m.json] [--csv]
//! ```
//!
//! Each `U/M` step is one sweep point under [`experiments::SweepDriver`];
//! task sets derive from `(seed, set index)` alone, so the output is
//! byte-identical for any `--threads`.

use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use partition::{partition, EdfUtilization, Heuristic, RmExact, RmLiuLayland, SortOrder};
use workload::TaskSetGenerator;

const STEPS: [u32; 8] = [3, 4, 5, 6, 7, 8, 9, 10];

/// The flags `rmff` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("cpus", "N"),
    Flag::value("tasks", "N"),
    Flag::value("sets", "N"),
    Flag::value("seed", "N"),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair rmff", &[FLAGS, SWEEP_FLAGS], argv);
    let m: u32 = args.get_in("cpus", 8, 1..=1024);
    let n: usize = args.get_in("tasks", 24, 1..);
    let sets: usize = args.get_in("sets", 300, 1..);
    let seed: u64 = args.get_or("seed", 1);
    let rec = recorder(&args);

    let driver = SweepDriver::new(&args);
    eprintln!(
        "rmff: M={m}, N={n}, {sets} sets per point, {} threads",
        driver.threads()
    );
    let keys: Vec<String> = STEPS
        .iter()
        .map(|step| format!("U/M={:.1}", *step as f64 / 10.0))
        .collect();
    let rows = driver.run(&keys, &rec, |i, _shard| {
        let frac = STEPS[i] as f64 / 10.0;
        let total = frac * m as f64;
        let mut accepted = [0usize; 5];
        for s in 0..sets {
            let mut gen = TaskSetGenerator::new(n, total, seed ^ ((s as u64) << 16));
            let set = gen.generate();
            let pairs: Vec<(u64, u64)> = set.iter().map(|t| (t.wcet_us, t.period_us)).collect();
            let keys = |i: usize| {
                let (e, p) = pairs[i];
                (e as f64 / p as f64, p)
            };

            let rm_ll = RmLiuLayland::new(&pairs);
            if partition(n, &rm_ll, Heuristic::FirstFit, SortOrder::None, m, keys).is_some() {
                accepted[0] += 1;
            }
            let rm_ex = RmExact::new(&pairs);
            if partition(n, &rm_ex, Heuristic::FirstFit, SortOrder::None, m, keys).is_some() {
                accepted[1] += 1;
            }
            let edf = EdfUtilization::new(&pairs);
            if partition(n, &edf, Heuristic::FirstFit, SortOrder::None, m, keys).is_some() {
                accepted[2] += 1;
            }
            if partition(
                n,
                &edf,
                Heuristic::FirstFit,
                SortOrder::DecreasingUtilization,
                m,
                keys,
            )
            .is_some()
            {
                accepted[3] += 1;
            }
            // PD²: the exact feasibility condition, Equation (2).
            let u: f64 = set.total_utilization();
            if u <= m as f64 + 1e-9 {
                accepted[4] += 1;
            }
        }
        let pct = |a: usize| format!("{:.2}", a as f64 / sets as f64);
        vec![
            format!("{frac:.1}"),
            pct(accepted[0]),
            pct(accepted[1]),
            pct(accepted[2]),
            pct(accepted[3]),
            pct(accepted[4]),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &[
            "U/M",
            "RM-FF (LL)",
            "RM-FF (exact)",
            "EDF-FF",
            "EDF-FFD",
            "PD2",
        ],
        rows,
    );
}
