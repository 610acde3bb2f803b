//! # pfair-bench
//!
//! Criterion benches for the ablations DESIGN.md names, one target each.
//! They compare alternatives against each other on one machine; what a
//! change costs or gains end to end is measured by the repository
//! benchmark (`benchmark/`, `BENCHMARK.json`), not here.
//!
//! * `sched_overhead` (E3/E4) — Fig. 2: per-invocation cost of the PD² and
//!   EDF schedulers across task and processor counts.
//! * `priority_cmp` (E12) — the comparator ablation: PD²'s O(1) tie-breaks
//!   vs. PF's recursive b-bit chain vs. bare EPDF.
//! * `quantum_sweep` (E11) — the PD² overhead analysis re-run per quantum
//!   size.
//! * `queue_ablation` (E20) — binary heap vs. sorted vector vs. linear
//!   scan as the ready queue ([`queue`]).
//!
//! Shared deterministic workload builders live here so every bench sees
//! identical inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod queue;

use pfair_model::{Task, TaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic feasible quantum-domain task set: `n` tasks with total
/// weight ≈ `0.9·min(n, m)` (the Fig. 2 measurement regime).
pub fn quantum_workload(n: usize, m: u32, seed: u64) -> TaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = 0.9 * (n as f64).min(m as f64);
    let draws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0f64)).collect();
    let sum: f64 = draws.iter().sum();
    draws
        .into_iter()
        .map(|d| {
            let u = (d * budget / sum).min(0.95);
            let e = rng.gen_range(1u64..=4);
            let p = ((e as f64 / u).ceil() as u64).max(e + 1);
            Task::new(e, p).expect("e < p by construction")
        })
        .collect()
}

/// Deterministic `(exec, period)` µs pairs with total utilization `target`
/// (for the EDF event simulator).
pub fn phys_pairs(n: usize, target: f64, seed: u64) -> Vec<(u64, u64)> {
    let mut gen = workload::TaskSetGenerator::new(n, target, seed);
    gen.generate()
        .iter()
        .map(|t| (t.wcet_us, t.period_us))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_workload_is_feasible() {
        for &(n, m) in &[(50usize, 1u32), (500, 4), (1000, 16)] {
            let set = quantum_workload(n, m, 9);
            assert_eq!(set.len(), n);
            assert!(set.feasible_on(m));
        }
    }

    #[test]
    fn phys_pairs_hit_target() {
        let pairs = phys_pairs(100, 5.0, 3);
        let u: f64 = pairs.iter().map(|&(e, p)| e as f64 / p as f64).sum();
        assert!((u - 5.0).abs() < 0.1);
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(quantum_workload(40, 2, 7), quantum_workload(40, 2, 7));
        assert_eq!(phys_pairs(40, 2.0, 7), phys_pairs(40, 2.0, 7));
    }
}
