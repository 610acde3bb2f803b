//! §5.1 — synchronization under Pfair scheduling: quantum-boundary ("skip")
//! locking measured over real PD² schedules, across critical-section
//! lengths and contention levels.
//!
//! The paper's claim: "when critical-section durations are short compared
//! to the quantum length … this approach can be used to provide
//! synchronization with very little overhead." The table quantifies it:
//! spin time and deferral rates stay negligible until sections approach
//! the quantum length.
//!
//! ```text
//! cargo run --release -p experiments --bin locking -- [--cpus 4] [--slots 20000] [--seed 1] [--threads N] [--point-retries 1] [--metrics-out m.json] [--csv]
//! ```
//!
//! The PD² schedule is computed once and shared read-only by every
//! point; each critical-section range is one sweep point under
//! [`experiments::SweepDriver`], with byte-identical output for any
//! `--threads` (the lock simulator's draws are seeded per point).

use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use pfair_core::sched::SchedConfig;
use pfair_model::TaskSet;
use pfair_sync::{pfair_blocking_bound, CsConfig, LockSim};
use sched_sim::MultiSim;

const CS_RANGES: [(u64, u64); 5] = [(1, 10), (5, 50), (50, 200), (200, 500), (500, 900)];

/// The flags `locking` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("cpus", "N"),
    Flag::value("slots", "N"),
    Flag::value("seed", "N"),
];

fn main() {
    let args = Args::parse("locking", &[FLAGS, SWEEP_FLAGS]);
    let m: u32 = args.get_or("cpus", 4);
    let slots: u64 = args.get_or("slots", 20_000);
    let seed: u64 = args.get_or("seed", 1);
    let rec = recorder(&args);

    // A fully loaded M-processor system of heavy tasks (worst contention:
    // all M processors busy every slot).
    let mut pairs = vec![(2u64, 3u64); (m as usize) * 3 / 2];
    let used: f64 = pairs.len() as f64 * 2.0 / 3.0;
    if used < m as f64 {
        pairs.push((((m as f64 - used) * 6.0) as u64, 6));
    }
    let set = TaskSet::from_pairs(pairs).unwrap();
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(m));
    sim.record_schedule();
    sim.run(slots);
    let schedule = sim.schedule().unwrap().to_vec();

    let mut driver = SweepDriver::new(&args, "locking");
    eprintln!(
        "locking: M={m}, {} tasks, {slots} slots, 1 resource (max contention), {} threads",
        set.len(),
        driver.threads()
    );
    let keys: Vec<String> = CS_RANGES
        .iter()
        .map(|(lo, hi)| format!("cs={lo}-{hi}"))
        .collect();
    let rows = driver.run(&keys, &rec, |i, _shard| {
        let (lo, hi) = CS_RANGES[i];
        let cfg = CsConfig {
            quantum_us: 1_000,
            resources: 1,
            request_prob: 0.8,
            cs_len_us: (lo, hi),
            seed,
        };
        let mut lock = LockSim::new(set.len(), cfg);
        let stats = lock.run_schedule(&schedule);
        assert_eq!(stats.boundary_violations, 0, "protocol invariant");
        let total = stats.completed + stats.deferrals;
        vec![
            format!("{lo}-{hi}"),
            stats.completed.to_string(),
            format!("{:.3}", stats.deferrals as f64 / total.max(1) as f64),
            format!("{:.2}", stats.mean_spin_us()),
            stats.max_spin_us.to_string(),
            pfair_blocking_bound(m, hi).to_string(),
            stats.max_latency_slots.to_string(),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &[
            "CS len (µs)",
            "completed",
            "defer rate",
            "mean spin (µs)",
            "max spin (µs)",
            "analytic bound",
            "max latency (slots)",
        ],
        rows,
    );
}
