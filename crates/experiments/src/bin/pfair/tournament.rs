//! Scheduler tournament — Lupu et al.'s multi-criteria comparison
//! (PAPERS.md), extended to global schemes: every packing heuristic
//! (FF/BF/WF/NF/FFD/BFD) against global PD² and exact-test global EDF,
//! scored on schedulability, preemptions, migrations, and
//! overhead-inflated utilization — not acceptance ratio alone.
//!
//! ```text
//! pfair tournament [--cpus 4] [--tasks 12] \
//!     [--sets 40] [--horizon 1440] [--seed 1] [--threads N] \
//!     [--metrics-out m.json] [--csv]
//! ```
//!
//! Points are (normalized utilization `U/M`) × (scheme); each point
//! generates `--sets` task sets from `(seed, set index)` alone — every
//! scheme scores the *same* sets, and output is byte-identical at any
//! `--threads`. Periods snap to a
//! divisor-of-720-quanta grid so the exact Goossens–Yomsi global-EDF test
//! simulates at most one 720-quantum hyperperiod per set.
//!
//! Columns (`-` = criterion not applicable, or no set both accepted and
//! simulated):
//!
//! - `sched` — acceptance ratio under the scheme's own test (packed:
//!   EDF-utilization partition; PD²: `ΣWt ≤ M`; G-EDF: exact test);
//! - `rm_ll`, `rm_exact` — packed schemes re-partitioned per-processor
//!   under RM Liu–Layland / RM exact TDA;
//! - `gfb` — the sufficient Goossens–Funk–Baruah bound (G-EDF row only;
//!   `sched − gfb` is exactly what the exact test buys);
//! - `preempt/kj`, `migr/kj` — mean preemptions / migrations per 1000
//!   released jobs over the accepted sets, simulated for `--horizon`;
//! - `infl_util` — mean Section 4 overhead-inflated utilization `Σe'/p`
//!   normalized by `--cpus`.

use experiments::tournament::{generate_set, score, Scheme};
use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use stats::Welford;

/// Normalized-utilization steps `U/M` swept for every scheme.
const STEPS: [u32; 8] = [3, 4, 5, 6, 7, 8, 9, 10];

fn fmt_ratio(hits: usize, sets: usize) -> String {
    format!("{:.2}", hits as f64 / sets as f64)
}

fn fmt_opt(w: &Welford, digits: usize) -> String {
    if w.count() == 0 {
        "-".to_string()
    } else {
        format!("{:.*}", digits, w.mean())
    }
}

/// The flags `tournament` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("cpus", "N"),
    Flag::value("tasks", "N"),
    Flag::value("sets", "N"),
    Flag::value("horizon", "N"),
    Flag::value("seed", "N"),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair tournament", &[FLAGS, SWEEP_FLAGS], argv);
    let m: u32 = args.get_in("cpus", 4, 1..=1024);
    let n: usize = args.get_in("tasks", 12, 1..);
    let sets: usize = args.get_in("sets", 40, 1..);
    let horizon: u64 = args.get_or("horizon", 1_440);
    let seed: u64 = args.get_or("seed", 1);
    let rec = recorder(&args);

    let driver = SweepDriver::new(&args);
    eprintln!(
        "tournament: M={m}, N={n}, {sets} sets per point, horizon {horizon}, {} threads",
        driver.threads()
    );

    let schemes = Scheme::all();
    let points: Vec<(u32, Scheme)> = STEPS
        .iter()
        .flat_map(|&s| schemes.iter().map(move |&sch| (s, sch)))
        .collect();
    let keys: Vec<String> = points
        .iter()
        .map(|(s, sch)| format!("U/M={:.1} scheme={}", *s as f64 / 10.0, sch.name()))
        .collect();

    let rows = driver.run(&keys, &rec, |i, shard| {
        let (step, scheme) = points[i];
        let frac = step as f64 / 10.0;
        let total_util = frac * m as f64;
        let accepted_counter = shard.counter("tournament.accepted");
        let mut accepted = 0usize;
        let mut rm_ll = 0usize;
        let mut rm_ll_n = 0usize;
        let mut rm_exact = 0usize;
        let mut rm_exact_n = 0usize;
        let mut gfb = 0usize;
        let mut gfb_n = 0usize;
        let mut preempt = Welford::new();
        let mut migr = Welford::new();
        let mut infl = Welford::new();
        for s in 0..sets {
            // Sets derive from (seed, set index) alone: every scheme at
            // this U/M step scores the same families.
            let set = generate_set(n, total_util, seed, s);
            let sc = score(&set, scheme, m, horizon);
            if sc.accepted {
                accepted += 1;
                accepted_counter.incr();
            }
            if let Some(v) = sc.rm_ll {
                rm_ll_n += 1;
                rm_ll += v as usize;
            }
            if let Some(v) = sc.rm_exact {
                rm_exact_n += 1;
                rm_exact += v as usize;
            }
            if let Some(v) = sc.gfb_bound {
                gfb_n += 1;
                gfb += v as usize;
            }
            if let (Some(p), Some(g)) = (sc.preemptions, sc.migrations) {
                if sc.jobs > 0 {
                    preempt.push(p as f64 * 1_000.0 / sc.jobs as f64);
                    migr.push(g as f64 * 1_000.0 / sc.jobs as f64);
                }
            }
            if let Some(u) = sc.inflated_util {
                infl.push(u);
            }
        }
        let opt_ratio = |hits: usize, n: usize| {
            if n == 0 {
                "-".to_string()
            } else {
                fmt_ratio(hits, n)
            }
        };
        vec![
            format!("{frac:.1}"),
            scheme.name().to_string(),
            fmt_ratio(accepted, sets),
            opt_ratio(rm_ll, rm_ll_n),
            opt_ratio(rm_exact, rm_exact_n),
            opt_ratio(gfb, gfb_n),
            fmt_opt(&preempt, 1),
            fmt_opt(&migr, 1),
            fmt_opt(&infl, 3),
        ]
    });

    driver.finish(
        &args,
        &rec,
        &[
            "U/M",
            "scheme",
            "sched",
            "rm_ll",
            "rm_exact",
            "gfb",
            "preempt/kj",
            "migr/kj",
            "infl_util",
        ],
        rows,
    );
}
