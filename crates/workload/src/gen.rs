//! Random task-set generation.

use pfair_model::{PhysTask, PhysTaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded generator of physical task sets with a total-utilization target.
///
/// Utilizations are drawn i.i.d. uniform, scaled to sum to the target, and
/// redistributed so no single task exceeds utilization 1 (a sequential task
/// cannot use more than one processor). Periods are drawn log-uniformly
/// from multiples of the quantum in `[min_period_us, max_period_us]`, so
/// every generated set is PD²-compatible. Execution costs are
/// `max(1, round(u·p))` µs.
///
/// # Examples
///
/// ```
/// use workload::TaskSetGenerator;
///
/// let mut g = TaskSetGenerator::new(50, 10.0, 42);
/// let set = g.generate();
/// assert_eq!(set.len(), 50);
/// // The realized utilization is close to the target (rounding to whole
/// // microseconds perturbs it slightly).
/// assert!((set.total_utilization() - 10.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct TaskSetGenerator {
    /// Number of tasks per set.
    pub n: usize,
    /// Target total utilization (must be ≤ n).
    pub total_util: f64,
    /// Quantum size (µs); periods are multiples of this. Default 1000.
    pub quantum_us: u64,
    /// Minimum period (µs). Default 10 ms.
    pub min_period_us: u64,
    /// Maximum period (µs). Default 1 s.
    pub max_period_us: u64,
    rng: StdRng,
}

impl TaskSetGenerator {
    /// Creates a generator with the paper's defaults (1 ms quantum, periods
    /// in \[10 ms, 1 s\]).
    pub fn new(n: usize, total_util: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one task");
        assert!(
            total_util > 0.0 && total_util <= n as f64,
            "total utilization {total_util} impossible for {n} tasks"
        );
        TaskSetGenerator {
            n,
            total_util,
            quantum_us: 1_000,
            min_period_us: 10_000,
            max_period_us: 1_000_000,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the period range (µs); both ends are rounded to quantum
    /// multiples.
    pub fn with_period_range(mut self, min_us: u64, max_us: u64) -> Self {
        assert!(min_us <= max_us);
        self.min_period_us = min_us;
        self.max_period_us = max_us;
        self
    }

    /// Overrides the quantum (µs).
    pub fn with_quantum(mut self, quantum_us: u64) -> Self {
        assert!(quantum_us > 0);
        self.quantum_us = quantum_us;
        self
    }

    /// Draws per-task utilizations summing to `total_util`, capped at 1.
    fn draw_utilizations(&mut self) -> Vec<f64> {
        let n = self.n;
        let mut u: Vec<f64> = (0..n).map(|_| self.rng.gen_range(0.01..1.0)).collect();
        // Scale to the target, then clamp-and-redistribute any excess over
        // 1.0 (rarely more than a couple of rounds).
        for _ in 0..64 {
            let sum: f64 = u.iter().sum();
            let scale = self.total_util / sum;
            let mut excess = 0.0;
            let mut head_room_idx = Vec::new();
            for (i, v) in u.iter_mut().enumerate() {
                *v *= scale;
                if *v > 1.0 {
                    excess += *v - 1.0;
                    *v = 1.0;
                } else if *v < 1.0 {
                    head_room_idx.push(i);
                }
            }
            if excess < 1e-12 {
                break;
            }
            // Spread the excess over tasks with headroom proportionally.
            let room: f64 = head_room_idx.iter().map(|&i| 1.0 - u[i]).sum();
            for &i in &head_room_idx {
                u[i] += excess * (1.0 - u[i]) / room;
            }
        }
        u
    }

    /// Generates one task set.
    pub fn generate(&mut self) -> PhysTaskSet {
        let utils = self.draw_utilizations();
        let q = self.quantum_us;
        let lo = (self.min_period_us / q).max(1);
        let hi = (self.max_period_us / q).max(lo);
        let (ln_lo, ln_hi) = (
            (lo as f64).ln(),
            (hi as f64).ln().max((lo as f64).ln() + 1e-9),
        );
        utils
            .into_iter()
            .map(|u| {
                // Log-uniform period in quanta.
                let p_quanta = self.rng.gen_range(ln_lo..=ln_hi).exp().round() as u64;
                let p_quanta = p_quanta.clamp(lo, hi);
                let period_us = p_quanta * q;
                let wcet_us = ((u * period_us as f64).round() as u64).clamp(1, period_us);
                PhysTask::new(wcet_us, period_us)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_utilization_target() {
        for &(n, u) in &[(10usize, 1.0f64), (50, 10.0), (100, 3.3), (250, 80.0)] {
            let mut g = TaskSetGenerator::new(n, u, 7);
            let set = g.generate();
            assert_eq!(set.len(), n);
            let total = set.total_utilization();
            assert!(
                (total - u).abs() < 0.05 + u * 0.01,
                "n={n} target={u} got={total}"
            );
        }
    }

    #[test]
    fn no_task_exceeds_unit_utilization() {
        // Target close to n forces many capped tasks.
        let mut g = TaskSetGenerator::new(20, 19.0, 3);
        let set = g.generate();
        for t in set.iter() {
            assert!(t.utilization() <= 1.0 + 1e-12, "{t}");
        }
        assert!((set.total_utilization() - 19.0).abs() < 0.2);
    }

    #[test]
    fn periods_are_quantum_multiples_in_range() {
        let mut g = TaskSetGenerator::new(100, 5.0, 11);
        let set = g.generate();
        for t in set.iter() {
            assert_eq!(t.period_us % 1_000, 0);
            assert!((10_000..=1_000_000).contains(&t.period_us));
            assert!(t.wcet_us >= 1);
            assert!(t.wcet_us <= t.period_us);
        }
    }

    #[test]
    fn seeding_is_reproducible() {
        let a = TaskSetGenerator::new(30, 4.0, 99).generate();
        let b = TaskSetGenerator::new(30, 4.0, 99).generate();
        assert_eq!(a, b);
        let c = TaskSetGenerator::new(30, 4.0, 100).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn custom_quantum_and_periods() {
        let mut g = TaskSetGenerator::new(10, 2.0, 5)
            .with_quantum(500)
            .with_period_range(5_000, 50_000);
        let set = g.generate();
        for t in set.iter() {
            assert_eq!(t.period_us % 500, 0);
            assert!((5_000..=50_000).contains(&t.period_us));
        }
    }

    #[test]
    fn many_sets_are_independent() {
        let mut g = TaskSetGenerator::new(10, 2.0, 5);
        assert_ne!(g.generate(), g.generate());
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn rejects_impossible_target() {
        let _ = TaskSetGenerator::new(3, 4.0, 0);
    }
}
