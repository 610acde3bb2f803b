//! Quantum-size trade-off (paper §4, "Challenges in Pfair scheduling").
//!
//! Shrinking the quantum reduces rounding loss (`⌈e/q⌉` over-approximates
//! less) but multiplies the per-quantum scheduling and context-switch
//! charges; growing it does the reverse. The paper calls analyzing this
//! trade-off an open problem — this harness computes the empirical curve:
//! PD²'s total inflated utilization (and processors needed) as a function
//! of `q` for a fixed workload.

use overhead::{pd2_processors_required, OverheadParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::Welford;
use workload::{CacheDelayDist, TaskSetGenerator};

/// One row of the quantum sweep.
#[derive(Debug, Clone)]
pub struct QuantumPoint {
    /// Quantum size (µs).
    pub quantum_us: u64,
    /// Processors PD² needs at this quantum.
    pub pd2_procs: Welford,
    /// Sets that became unschedulable at this quantum.
    pub failures: usize,
}

/// Quantum sizes (µs) that divide the 10 ms period grid used below.
pub const QUANTUM_SWEEP_US: [u64; 7] = [100, 250, 500, 1_000, 2_000, 5_000, 10_000];

/// Computes one quantum-size point over `sets` random task sets of `n`
/// tasks at the given total utilization. Periods are generated as
/// multiples of 10 ms so every quantum in [`QUANTUM_SWEEP_US`] divides
/// them. Every set's generator and delay draws derive from
/// `(seed, set index)` alone, so the points of one sweep differ only in
/// the quantum, and a point's statistics are independent of which other
/// points run around it, or on which worker — the property
/// `SweepDriver`'s thread-count determinism needs.
pub fn run_quantum_point(
    n: usize,
    total_util: f64,
    sets: usize,
    seed: u64,
    base: &OverheadParams,
    quantum_us: u64,
) -> QuantumPoint {
    let dist = CacheDelayDist::paper2003();
    let mut point = QuantumPoint {
        quantum_us,
        pd2_procs: Welford::new(),
        failures: 0,
    };
    let params = OverheadParams {
        quantum_us,
        ..*base
    };
    for s in 0..sets {
        let mut gen = TaskSetGenerator::new(n, total_util, seed ^ ((s as u64) << 22))
            .with_quantum(10_000)
            .with_period_range(10_000, 1_000_000);
        let set = gen.generate();
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17) ^ ((s as u64) << 22));
        let d = dist.sample_n(&mut rng, n);
        match pd2_processors_required(&set.tasks, &params, &d, (4 * n) as u32) {
            Ok(m) => point.pd2_procs.push(m as f64),
            Err(_) => point.failures += 1,
        }
    }
    point
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(n: usize, total_util: f64, sets: usize, seed: u64) -> Vec<QuantumPoint> {
        let base = OverheadParams::paper2003();
        QUANTUM_SWEEP_US
            .iter()
            .map(|&q| run_quantum_point(n, total_util, sets, seed, &base, q))
            .collect()
    }

    #[test]
    fn sweep_produces_all_points() {
        let pts = sweep(10, 2.0, 3, 5);
        assert_eq!(pts.len(), QUANTUM_SWEEP_US.len());
        for p in &pts {
            assert_eq!(p.pd2_procs.count() as usize + p.failures, 3);
        }
    }

    #[test]
    fn extreme_quanta_cost_more_than_the_middle() {
        // U-shaped curve: very small quanta pay overhead, very large pay
        // rounding. The 1 ms middle should need no more processors than
        // both extremes (averaged over sets).
        let pts = sweep(20, 5.0, 5, 11);
        let by_q = |q: u64| {
            pts.iter()
                .find(|p| p.quantum_us == q)
                .map(|p| {
                    if p.pd2_procs.count() == 0 {
                        f64::INFINITY // all sets failed: maximally costly
                    } else {
                        p.pd2_procs.mean() + 100.0 * p.failures as f64
                    }
                })
                .unwrap()
        };
        let mid = by_q(1_000);
        assert!(mid <= by_q(100) + 1e-9, "tiny quantum should not beat 1ms");
        assert!(
            mid <= by_q(10_000) + 1e-9,
            "huge quantum should not beat 1ms"
        );
    }
}
