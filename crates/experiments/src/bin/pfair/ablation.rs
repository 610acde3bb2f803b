//! Tie-break ablation (E12): how often does each priority policy miss
//! deadlines on feasible, fully-utilizing task sets?
//!
//! PD², PD, and PF are optimal — zero misses, always. EPDF (no tie-breaks)
//! is only optimal up to two processors; this command quantifies its miss
//! rate as M grows, demonstrating that the b-bit and group deadline are
//! load-bearing.
//!
//! ```text
//! pfair ablation [--sets 200] [--seed 7] [--threads N] [--metrics-out m.json] [--csv]
//! ```
//!
//! Each (M, policy) pair is one sweep point under
//! [`experiments::SweepDriver`]; every point reseeds its own RNG from
//! `--seed`, so all policies face identical task sets and the output is
//! byte-identical for any `--threads`.

use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use pfair_core::sched::SchedConfig;
use pfair_core::Policy;
use pfair_model::TaskSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched_sim::MultiSim;

/// Full-utilization sets of heavy tasks (the EPDF-hard regime).
fn heavy_set(rng: &mut StdRng, m: u32) -> TaskSet {
    let mut budget = (m as u64) * 60;
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    loop {
        let (e, p, cost) = match rng.gen_range(0..5) {
            0 => (1u64, 2u64, 30u64),
            1 => (3, 5, 36),
            2 => (2, 3, 40),
            3 => (3, 4, 45),
            _ => (5, 6, 50),
        };
        if cost > budget {
            break;
        }
        pairs.push((e, p));
        budget -= cost;
    }
    if budget > 0 {
        pairs.push((budget, 60));
    }
    TaskSet::from_pairs(pairs).expect("valid")
}

const PROC_COUNTS: [u32; 5] = [2, 3, 4, 6, 8];

/// The flags `ablation` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[Flag::value("sets", "N"), Flag::value("seed", "N")];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair ablation", &[FLAGS, SWEEP_FLAGS], argv);
    let sets: usize = args.get_in("sets", 200, 1..);
    let seed: u64 = args.get_or("seed", 7);
    let rec = recorder(&args);

    let driver = SweepDriver::new(&args);
    eprintln!(
        "ablation: {sets} full-utilization heavy task sets per M, {} threads",
        driver.threads()
    );
    let points: Vec<(u32, Policy)> = PROC_COUNTS
        .iter()
        .flat_map(|&m| Policy::ALL.iter().map(move |&pol| (m, pol)))
        .collect();
    let keys: Vec<String> = points
        .iter()
        .map(|(m, pol)| format!("M={m} policy={}", pol.name()))
        .collect();
    let rows = driver.run(&keys, &rec, |i, _shard| {
        let (m, pol) = points[i];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad_sets = 0usize;
        let mut total = 0u64;
        let mut max_tardiness = 0u64;
        for _ in 0..sets {
            let set = heavy_set(&mut rng, m);
            let horizon = (4 * set.hyperperiod()).min(20_000);
            let mut sim = MultiSim::new(&set, SchedConfig::pd2(m).with_policy(pol));
            let misses = sim.run(horizon).misses;
            total += misses;
            bad_sets += usize::from(misses > 0);
            for miss in sim.scheduler().misses() {
                max_tardiness = max_tardiness.max(miss.tardiness());
            }
        }
        vec![
            m.to_string(),
            pol.name().to_string(),
            format!("{bad_sets}/{sets}"),
            total.to_string(),
            max_tardiness.to_string(),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &[
            "M",
            "policy",
            "sets w/ misses",
            "total misses",
            "max tardiness",
        ],
        rows,
    );
}
