//! Uniprocessor RM schedulability tests.
//!
//! These are the acceptance tests used by the partitioning heuristics of
//! the paper's Section 3:
//!
//! * **RM, Liu–Layland bound**: sufficient if `Σ eᵢ/pᵢ ≤ n(2^{1/n} − 1)`
//!   (the "69%" bound the paper contrasts with the exact test).
//! * **RM, exact**: Lehoczky/Joseph–Pandya time-demand analysis \[25\] —
//!   necessary and sufficient for synchronous implicit-deadline tasks. The
//!   paper notes that using this exact test turns partitioning into "a more
//!   complex bin-packing problem involving variable-sized bins".
//!
//! Tasks are `(exec, period)` pairs in any consistent time unit.

/// The Liu–Layland RM utilization bound `n(2^{1/n} − 1)` for `n` tasks.
/// Approaches `ln 2 ≈ 0.693` as `n → ∞`.
///
/// `n = 0` returns 1.0: the bound is vacuous for an empty set (there is
/// nothing to schedule, so *any* utilization budget up to the whole
/// processor is acceptable), and the formula itself would be
/// `0 · (2^∞ − 1) = ∞·0`. Returning 1.0 — the `n = 1` value — keeps the
/// bound monotonically non-increasing in `n` and keeps the empty set
/// within the bound without a NaN detour.
pub fn rm_ll_bound(n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Worst-case response time of the task at `index` under RM with the given
/// higher-or-equal-priority interference set, by time-demand iteration:
/// `R ← eᵢ + Σ_{j ∈ hp(i)} ⌈R/pⱼ⌉·eⱼ`. Returns `None` if the iteration
/// exceeds the task's period (unschedulable).
///
/// Priorities are rate-monotonic: tasks with *strictly smaller* periods,
/// plus earlier-indexed tasks with equal periods, interfere.
fn rm_response_time(tasks: &[(u64, u64)], index: usize) -> Option<u64> {
    let (e_i, p_i) = tasks[index];
    let hp: Vec<(u64, u64)> = tasks
        .iter()
        .enumerate()
        .filter(|&(j, &(_, p))| p < p_i || (p == p_i && j < index))
        .map(|(_, &t)| t)
        .collect();
    let mut r = e_i;
    loop {
        let demand: u64 = e_i
            + hp.iter()
                .map(|&(e, p)| r.div_ceil(p).saturating_mul(e))
                .sum::<u64>();
        if demand > p_i {
            return None;
        }
        if demand == r {
            return Some(r);
        }
        r = demand;
    }
}

/// Exact RM test (synchronous, implicit deadlines): every task's worst-case
/// response time fits within its period \[25\].
pub fn rm_exact_schedulable(tasks: &[(u64, u64)]) -> bool {
    (0..tasks.len()).all(|i| rm_response_time(tasks, i).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ll_bound_values() {
        assert!((rm_ll_bound(1) - 1.0).abs() < 1e-12);
        assert!((rm_ll_bound(2) - 0.8284271).abs() < 1e-6);
        // n → ∞ limit is ln 2.
        assert!((rm_ll_bound(100_000) - std::f64::consts::LN_2).abs() < 1e-4);
        assert_eq!(rm_ll_bound(0), 1.0);
    }

    #[test]
    fn empty_set_is_vacuously_schedulable_everywhere() {
        // Every acceptance test must agree on the n = 0 edge — a bin
        // packer probes empty processors constantly.
        assert!(0.0 <= rm_ll_bound(0));
        assert!(rm_exact_schedulable(&[]));
    }

    #[test]
    fn rm_exact_accepts_what_ll_rejects() {
        // Harmonic task set at U = 1: RM schedules it (exact test passes)
        // though it blows past the LL bound.
        let tasks = [(1u64, 2u64), (1, 4), (2, 8)];
        let u: f64 = tasks.iter().map(|&(e, p)| e as f64 / p as f64).sum();
        assert!(u > rm_ll_bound(tasks.len()));
        assert!(rm_exact_schedulable(&tasks));
    }

    #[test]
    fn rm_exact_rejects_unschedulable() {
        // (2,5) & (4,7): response time of the second task is 8 > 7.
        let tasks = [(2u64, 5u64), (4, 7)];
        assert_eq!(rm_response_time(&tasks, 1), None);
        assert!(!rm_exact_schedulable(&tasks));
    }

    #[test]
    fn response_time_values() {
        // Classic example: (1,4), (2,6), (3,13).
        let tasks = [(1u64, 4u64), (2, 6), (3, 13)];
        assert_eq!(rm_response_time(&tasks, 0), Some(1));
        assert_eq!(rm_response_time(&tasks, 1), Some(3));
        // R₂: 3 + ⌈R/4⌉·1 + ⌈R/6⌉·2 → 3+1+2=6 → 3+2+2=7 → 3+2+4=9 →
        // 3+3+4=10 → 3+3+4=10 converged.
        assert_eq!(rm_response_time(&tasks, 2), Some(10));
    }

    #[test]
    fn equal_periods_use_index_priority() {
        let tasks = [(2u64, 6u64), (2, 6), (2, 6)];
        assert_eq!(rm_response_time(&tasks, 0), Some(2));
        assert_eq!(rm_response_time(&tasks, 1), Some(4));
        assert_eq!(rm_response_time(&tasks, 2), Some(6));
        assert!(rm_exact_schedulable(&tasks));
    }

    proptest! {
        /// The Liu–Layland bound is sufficient: a set within it passes the
        /// exact test (on random sets).
        #[test]
        fn prop_test_hierarchy(
            es in prop::collection::vec(1u64..20, 1..6),
            ps in prop::collection::vec(1u64..50, 1..6),
        ) {
            let n = es.len().min(ps.len());
            let tasks: Vec<(u64, u64)> = es.iter().zip(&ps).take(n)
                .map(|(&e, &p)| (e.min(p.max(1)), p.max(1)))
                .collect();
            let u: f64 = tasks.iter().map(|&(e, p)| e as f64 / p as f64).sum();
            if u <= rm_ll_bound(tasks.len()) + 1e-12 {
                prop_assert!(rm_exact_schedulable(&tasks),
                    "LL accepted but exact rejected: {:?}", tasks);
            }
        }

        /// The exact RM verdict agrees with simulation over a hyperperiod
        /// (for synchronous implicit-deadline sets, the synchronous busy
        /// period is the worst case).
        #[test]
        fn prop_exact_matches_simulation(
            raw in prop::collection::vec((1u64..6, 2u64..16), 1..5),
        ) {
            let tasks: Vec<(u64, u64)> = raw.iter()
                .map(|&(e, p)| (e.min(p), p))
                .collect();
            let hyper: u64 = tasks.iter().map(|&(_, p)| p)
                .fold(1, |a, b| a / gcd(a, b) * b);
            let mut sim = crate::UniSim::new(&tasks, crate::Discipline::Rm);
            let stats = sim.run(2 * hyper);
            let predicted = rm_exact_schedulable(&tasks);
            prop_assert_eq!(predicted, stats.deadline_misses == 0,
                "tasks {:?}: exact={} sim misses={}",
                tasks, predicted, stats.deadline_misses);
        }
    }

    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
}
