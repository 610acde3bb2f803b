//! Scheduler-tournament scoring: Lupu et al.'s multi-criteria comparison
//! of partitioning heuristics, extended to the paper's global schemes.
//!
//! Lupu et al. (PAPERS.md) argue that ranking partitioning heuristics on
//! acceptance ratio alone hides most of the story — the *same* heuristic
//! can win on schedulability and lose on preemptions or overhead-inflated
//! utilization. This module scores every scheme of
//! [`Scheme::ALL`] on four criteria per generated task set:
//!
//! 1. **Schedulability** — the scheme's own acceptance test: an
//!    EDF-utilization partition for the packing heuristics, `ΣWt ≤ M`
//!    (Equation (2)) for PD², and the exact Goossens–Yomsi hyperperiod
//!    test ([`sched_sim::exact_gedf_schedulable`]) for global EDF; the
//!    packed schemes additionally report RM-LL and RM-exact partitions,
//!    and global EDF its Goossens–Funk–Baruah utilization bound.
//! 2. **Preemptions** — simulated over a common horizon, normalized per
//!    1000 released jobs.
//! 3. **Migrations** — same normalization; structurally zero for every
//!    partitioned scheme.
//! 4. **Overhead-inflated utilization** — Section 4 cost model via
//!    `crates/overhead`, normalized by the processor count.
//!
//! Generated periods snap to a divisor-of-[`HYPERPERIOD_QUANTA`] grid so
//! the exact global-EDF test's feasibility interval stays ≤ 720 quanta
//! for every set, whatever the generator seed.

use overhead::{inflate_edf, inflate_pd2, OverheadParams};
use partition::{partition, EdfUtilization, Heuristic, RmExact, RmLiuLayland, SortOrder};
use pfair_core::SchedConfig;
use pfair_model::{PhysTask, TaskSet};
use sched_sim::{
    exact_gedf_schedulable, gedf_utilization_bound_schedulable, GlobalEdf, MultiSim, PartitionedSim,
};
use uniproc::Discipline;
use workload::TaskSetGenerator;

/// Hyperperiod ceiling (quanta): every generated period divides this.
pub const HYPERPERIOD_QUANTA: u64 = 720;

/// Allowed periods, in quanta: the divisors of [`HYPERPERIOD_QUANTA`] in
/// `[10, 720]` — a spread of ~2 orders of magnitude, hyperperiod ≤ 720.
pub const PERIOD_GRID: [u64; 22] = [
    10, 12, 15, 16, 18, 20, 24, 30, 36, 40, 45, 48, 60, 72, 80, 90, 120, 144, 180, 240, 360, 720,
];

/// One tournament column: a partitioning scheme or a global scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// A bin-packing heuristic with its pre-sort (FF/BF/WF/NF/FFD/BFD).
    Packed(Heuristic, SortOrder, &'static str),
    /// Global PD² (accepts exactly `ΣWt ≤ M`).
    Pd2,
    /// Global EDF under the exact Goossens–Yomsi acceptance test.
    GlobalEdf,
}

impl Scheme {
    /// Every scheme the tournament compares, packed schemes first. Built
    /// from [`partition::PACKING_SCHEMES`] so a heuristic added there
    /// automatically enters the tournament.
    pub fn all() -> Vec<Scheme> {
        let mut all: Vec<Scheme> = partition::PACKING_SCHEMES
            .iter()
            .map(|&(h, o, name)| Scheme::Packed(h, o, name))
            .collect();
        all.push(Scheme::Pd2);
        all.push(Scheme::GlobalEdf);
        all
    }

    /// Display/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Packed(_, _, name) => name,
            Scheme::Pd2 => "PD2",
            Scheme::GlobalEdf => "G-EDF",
        }
    }
}

/// One generated tournament task set, in both domains the scorers need.
#[derive(Debug, Clone)]
pub struct TournamentSet {
    /// Quantum-domain `(exec, period)` pairs, periods on [`PERIOD_GRID`].
    pub pairs: Vec<(u64, u64)>,
    /// The same tasks in µs (for the Section 4 overhead model).
    pub phys: Vec<PhysTask>,
    /// Per-task cache-related preemption delay `D(T)` (µs).
    pub cache_d_us: Vec<f64>,
}

/// Generates the tournament set for `(seed, set index)` — and nothing
/// else, so sweeps over sets are order- and thread-independent. Periods
/// are drawn by [`TaskSetGenerator`] and snapped to [`PERIOD_GRID`];
/// utilizations are preserved through the snap (cost rounds to the
/// nearest quantum, min 1).
pub fn generate_set(n: usize, total_util: f64, seed: u64, set_index: usize) -> TournamentSet {
    let set_seed = seed ^ ((set_index as u64) << 16);
    let mut gen = TaskSetGenerator::new(n, total_util, set_seed)
        .with_quantum(QUANTUM_US)
        .with_period_range(PERIOD_GRID[0] * QUANTUM_US, HYPERPERIOD_QUANTA * QUANTUM_US);
    let raw = gen.generate();
    let mut pairs = Vec::with_capacity(n);
    let mut phys = Vec::with_capacity(n);
    for t in raw.iter() {
        let u = t.wcet_us as f64 / t.period_us as f64;
        let p = snap_to_grid(t.period_us / QUANTUM_US);
        let e = ((u * p as f64).round() as u64).clamp(1, p);
        pairs.push((e, p));
        phys.push(PhysTask::new(e * QUANTUM_US, p * QUANTUM_US));
    }
    // Cache delays D(T) from the paper's distribution, drawn from the
    // set identity alone (distinct stream from the generator's).
    let mut rng =
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(set_seed ^ 0x9e37_79b9_7f4a_7c15);
    let cache_d_us = workload::CacheDelayDist::paper2003().sample_n(&mut rng, pairs.len());
    TournamentSet {
        pairs,
        phys,
        cache_d_us,
    }
}

/// Quantum size (µs) used throughout the tournament — the paper's 1 ms.
pub const QUANTUM_US: u64 = 1_000;

/// Nearest [`PERIOD_GRID`] entry (ties resolve downward).
fn snap_to_grid(p_quanta: u64) -> u64 {
    let mut best = PERIOD_GRID[0];
    let mut best_dist = u64::MAX;
    for &g in &PERIOD_GRID {
        let dist = p_quanta.abs_diff(g);
        if dist < best_dist {
            best = g;
            best_dist = dist;
        }
    }
    best
}

/// Per-set, per-scheme criteria. `None` marks a criterion that does not
/// apply to the scheme (RM packings for global schemes, the GFB bound for
/// partitioned ones) or that requires an accepted set (simulation and
/// inflation columns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetScore {
    /// The scheme's own (primary) acceptance verdict.
    pub accepted: bool,
    /// Partitioned under RM Liu–Layland per processor (packed only).
    pub rm_ll: Option<bool>,
    /// Partitioned under RM exact TDA per processor (packed only).
    pub rm_exact: Option<bool>,
    /// Goossens–Funk–Baruah utilization bound (global EDF only).
    pub gfb_bound: Option<bool>,
    /// Preemptions over the simulated horizon (accepted sets only).
    pub preemptions: Option<u64>,
    /// Migrations over the simulated horizon (accepted sets only).
    pub migrations: Option<u64>,
    /// Jobs released over the horizon (the rate denominator).
    pub jobs: u64,
    /// Overhead-inflated utilization `Σ e'/p / M` (accepted sets only).
    pub inflated_util: Option<f64>,
}

/// Scores one scheme on one set: acceptance under the scheme's criteria,
/// a simulation over `horizon` quanta when accepted, and the Section 4
/// overhead-inflated utilization.
pub fn score(set: &TournamentSet, scheme: Scheme, m: u32, horizon: u64) -> SetScore {
    let n = set.pairs.len();
    let jobs: u64 = set.pairs.iter().map(|&(_, p)| horizon / p).sum();
    let params = OverheadParams::paper2003();
    let mut out = SetScore {
        jobs,
        ..SetScore::default()
    };
    match scheme {
        Scheme::Packed(h, order, _) => {
            let keys = |i: usize| {
                let (e, p) = set.pairs[i];
                (e as f64 / p as f64, p)
            };
            let edf = EdfUtilization::new(&set.pairs);
            let result = partition(n, &edf, h, order, m, keys);
            out.accepted = result.is_some();
            let rm_ll = RmLiuLayland::new(&set.pairs);
            out.rm_ll = Some(partition(n, &rm_ll, h, order, m, keys).is_some());
            let rm_ex = RmExact::new(&set.pairs);
            out.rm_exact = Some(partition(n, &rm_ex, h, order, m, keys).is_some());
            if let Some(r) = result {
                let mut sim = PartitionedSim::new(&set.pairs, &r.assignment, m, Discipline::Edf);
                let stats = sim.run(horizon);
                out.preemptions = Some(stats.preemptions);
                out.migrations = Some(0);
                // Inflate against the processor-local max D(U): on each
                // processor every task can be preempted by (at most) its
                // co-located tasks, so their largest cache delay is the
                // conservative per-preemption surcharge (Section 4).
                let mut total = 0.0f64;
                for group in r.groups() {
                    let max_d = group
                        .iter()
                        .map(|&i| set.cache_d_us[i])
                        .fold(0.0f64, f64::max);
                    for &i in &group {
                        let t = set.phys[i];
                        total += inflate_edf(t, &params, n, max_d) / t.period_us as f64;
                    }
                }
                out.inflated_util = Some(total / m as f64);
            }
        }
        Scheme::Pd2 => {
            let Ok(tasks) = TaskSet::from_pairs(set.pairs.iter().copied()) else {
                return out;
            };
            out.accepted = tasks.feasible_on(m);
            if out.accepted {
                let mut sim = MultiSim::new(&tasks, SchedConfig::pd2(m));
                let metrics = sim.run(horizon);
                out.preemptions = Some(metrics.preemptions);
                out.migrations = Some(metrics.migrations);
                // Any task may preempt any other under a global scheme:
                // the surcharge is the set-wide max D(T).
                let max_d = set.cache_d_us.iter().copied().fold(0.0f64, f64::max);
                let total: f64 = set
                    .phys
                    .iter()
                    .map(|&t| match inflate_pd2(t, &params, m, n, max_d) {
                        Ok(inf) => inf.weight.to_f64(),
                        // Overhead inflation overloads the task: it
                        // saturates at a full processor.
                        Err(_) => 1.0,
                    })
                    .sum();
                out.inflated_util = Some(total / m as f64);
            }
        }
        Scheme::GlobalEdf => {
            // `PERIOD_GRID` periods keep the hyperperiod ≤ 720, so only a
            // hand-built set can reach `Err`; it scores as not accepted.
            out.accepted = exact_gedf_schedulable(&set.pairs, m) == Ok(true);
            out.gfb_bound = Some(gedf_utilization_bound_schedulable(&set.pairs, m));
            if out.accepted {
                let tasks = TaskSet::from_pairs(set.pairs.iter().copied())
                    .expect("gEDF-schedulable tasks have weight ≤ 1");
                let metrics = MultiSim::with_policy(&tasks, m, GlobalEdf).run(horizon);
                out.preemptions = Some(metrics.preemptions);
                out.migrations = Some(metrics.migrations);
                let max_d = set.cache_d_us.iter().copied().fold(0.0f64, f64::max);
                let total: f64 = set
                    .phys
                    .iter()
                    .map(|&t| inflate_edf(t, &params, n, max_d) / t.period_us as f64)
                    .sum();
                out.inflated_util = Some(total / m as f64);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_divides_hyperperiod() {
        for &g in &PERIOD_GRID {
            assert_eq!(HYPERPERIOD_QUANTA % g, 0, "{g} must divide 720");
        }
    }

    #[test]
    fn generated_sets_stay_on_grid_and_near_target_util() {
        for s in 0..10 {
            let set = generate_set(12, 3.0, 42, s);
            assert_eq!(set.pairs.len(), 12);
            let mut util = 0.0;
            for &(e, p) in &set.pairs {
                assert!(PERIOD_GRID.contains(&p), "period {p} off grid");
                assert!(e >= 1 && e <= p);
                util += e as f64 / p as f64;
            }
            // Snapping and rounding move utilization, but not wildly.
            assert!((util - 3.0).abs() < 1.0, "util drifted to {util}");
            assert_eq!(set.cache_d_us.len(), 12);
            assert!(set.cache_d_us.iter().all(|&d| (0.0..=100.0).contains(&d)));
        }
    }

    #[test]
    fn set_generation_depends_only_on_seed_and_index() {
        let a = generate_set(8, 2.5, 7, 3);
        let b = generate_set(8, 2.5, 7, 3);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.cache_d_us, b.cache_d_us);
    }

    #[test]
    fn scheme_roster_is_packed_plus_globals() {
        let all = Scheme::all();
        assert_eq!(all.len(), partition::PACKING_SCHEMES.len() + 2);
        let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["FF", "BF", "WF", "NF", "FFD", "BFD", "PD2", "G-EDF"]
        );
    }

    #[test]
    fn only_pd2_accepts_the_full_utilization_counterexample() {
        // Three weight-2/3 tasks on M = 2 (U = M): no partitioning fits
        // them, and global EDF provably misses — after two slots serving
        // tasks 0 and 1, task 2 holds 2 quanta of work with 1 slot to its
        // deadline. The exact test must agree with that simulation, and
        // only Pfair (PD²) schedules the set. This is the tournament's
        // reason to exist: the three columns disagree by design.
        let set = TournamentSet {
            pairs: vec![(2, 3), (2, 3), (2, 3)],
            phys: vec![PhysTask::new(2_000, 3_000); 3],
            cache_d_us: vec![10.0; 3],
        };
        for scheme in Scheme::all() {
            let score = score(&set, scheme, 2, 720);
            match scheme {
                Scheme::Packed(..) => assert!(!score.accepted, "{}", scheme.name()),
                Scheme::Pd2 => {
                    assert!(score.accepted, "PD2");
                    assert!(score.preemptions.is_some());
                }
                Scheme::GlobalEdf => assert!(!score.accepted, "G-EDF"),
            }
        }
        // With one more processor, exact global EDF accepts too.
        let relaxed = score(&set, Scheme::GlobalEdf, 3, 720);
        assert!(relaxed.accepted);
        assert!(relaxed.preemptions.is_some());
    }

    #[test]
    fn global_edf_scores_hyperperiod_overflow_as_rejected() {
        // Periods are the 16 primes 2..=53: lcm ≈ 3.3·10¹⁹ > u64::MAX.
        let primes = [
            2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
        ];
        let set = TournamentSet {
            pairs: primes.iter().map(|&p| (1, p)).collect(),
            phys: primes
                .iter()
                .map(|&p| PhysTask::new(QUANTUM_US, p * QUANTUM_US))
                .collect(),
            cache_d_us: vec![10.0; primes.len()],
        };
        let s = score(&set, Scheme::GlobalEdf, 4, 720);
        assert!(!s.accepted);
        assert!(s.gfb_bound.is_some());
    }

    #[test]
    fn partitioned_schemes_never_migrate() {
        let set = generate_set(8, 2.0, 11, 0);
        for &(h, o, name) in &partition::PACKING_SCHEMES {
            let s = score(&set, Scheme::Packed(h, o, name), 4, 720);
            if s.accepted {
                assert_eq!(s.migrations, Some(0), "{name}");
            }
        }
    }

    #[test]
    fn scoring_is_deterministic() {
        let set = generate_set(10, 2.8, 5, 2);
        for scheme in Scheme::all() {
            assert_eq!(score(&set, scheme, 4, 720), score(&set, scheme, 4, 720));
        }
    }
}
