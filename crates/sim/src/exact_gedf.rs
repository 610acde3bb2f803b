//! Exact global-EDF schedulability (Goossens–Yomsi, PAPERS.md).
//!
//! For a *synchronous* implicit-deadline periodic task set, preemptive
//! global EDF on `m` processors is deterministic, and every period divides
//! the hyperperiod `H = lcm(p_1, …, p_n)`. If the schedule is miss-free
//! over `[0, H)` then the state at `H` (all jobs complete, a fresh
//! synchronous release) equals the state at `0`, so the schedule repeats
//! forever — i.e. the set is schedulable **iff** no deadline is missed in
//! the first hyperperiod. Unlike the uniprocessor case there is *no*
//! critical-instant theorem for global EDF (the Dhall effect breaks the
//! usual utilization arguments), so this feasibility-interval simulation
//! is the canonical *exact* test, complementing the sufficient
//! Goossens–Funk–Baruah utilization bound exposed here as
//! [`gedf_utilization_bound_schedulable`].
//!
//! The simulation is slot-exact but fast-forwards over stretches where no
//! decision can change: whenever every pending job is running (at most
//! `m` pending), all of them progress one quantum per slot until the next
//! release or the earliest completion, so the intervening slots are
//! advanced in one step. Early TRUE exits at idle instants are *unsound*
//! on multiprocessors (idleness does not imply the rest of the
//! hyperperiod is safe), so the test always covers `[0, H)`.

use pfair_model::Slot;

/// Greatest common divisor.
fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Hyperperiod `lcm` of all periods, or `None` on overflow or an empty /
/// zero-period set. The feasibility interval of the exact test.
pub(crate) fn hyperperiod(tasks: &[(u64, u64)]) -> Option<u64> {
    let mut h: u64 = 1;
    for &(_, p) in tasks {
        if p == 0 {
            return None;
        }
        h = h.checked_mul(p / gcd(h, p))?;
    }
    Some(h)
}

/// Sufficient utilization bound for global EDF (Goossens, Funk & Baruah):
/// a synchronous implicit-deadline periodic set is schedulable on `m`
/// processors if `U ≤ m·(1 − u_max) + u_max` where `u_max` is the largest
/// single-task utilization. Exact in neither direction — [`exact_gedf_schedulable`]
/// accepts strictly more sets (and never fewer; see the property tests).
///
/// The empty set is vacuously schedulable (`U = 0`, `u_max = 0`).
pub fn gedf_utilization_bound_schedulable(tasks: &[(u64, u64)], m: u32) -> bool {
    if m == 0 {
        return tasks.is_empty();
    }
    if tasks.is_empty() {
        return true;
    }
    let mut total = 0.0f64;
    let mut u_max = 0.0f64;
    for &(e, p) in tasks {
        if p == 0 || e > p {
            return false;
        }
        let u = e as f64 / p as f64;
        total += u;
        u_max = u_max.max(u);
    }
    total <= (m as f64) * (1.0 - u_max) + u_max
}

/// Exact global-EDF schedulability of a synchronous implicit-deadline
/// periodic task set `(exec, period)` (quantum domain) on `m` processors:
/// simulates preemptive job-level global EDF over one hyperperiod and
/// reports whether any deadline is missed (the Goossens–Yomsi
/// feasibility-interval argument — see the module docs).
///
/// Ties between equal deadlines break by task index, matching
/// [`GlobalEdf`](crate::GlobalEdf); since EDF's miss-free property
/// does not depend on the tie-break, the verdict is tie-break-independent.
///
/// The empty set is vacuously schedulable and a task with `exec > period`
/// is trivially not. A hyperperiod that overflows `u64`, or a zero
/// period, is reported as `Err(HyperperiodOverflow)`.
///
/// # Examples
///
/// The Dhall set is infeasible under global EDF although `U ≤ m`:
///
/// ```
/// use sched_sim::exact_gedf::exact_gedf_schedulable;
///
/// // Two light (1, 9) tasks + one weight-1 (10, 10) task: U ≈ 1.22 ≤ 2.
/// assert_eq!(exact_gedf_schedulable(&[(1, 9), (1, 9), (10, 10)], 2), Ok(false));
/// // The same set fits on three processors.
/// assert_eq!(exact_gedf_schedulable(&[(1, 9), (1, 9), (10, 10)], 3), Ok(true));
/// ```
pub fn exact_gedf_schedulable(tasks: &[(u64, u64)], m: u32) -> Result<bool, HyperperiodOverflow> {
    // Tasks with zero cost place no demand; drop them up front so the
    // fast paths below see only real work (their periods still cannot be
    // zero — that is a malformed task, reported via the hyperperiod).
    if tasks.iter().any(|&(_, p)| p == 0) {
        return Err(HyperperiodOverflow);
    }
    let tasks: Vec<(u64, u64)> = tasks.iter().copied().filter(|&(e, _)| e > 0).collect();
    if tasks.is_empty() {
        return Ok(true);
    }
    if m == 0 || tasks.iter().any(|&(e, p)| e > p) {
        return Ok(false);
    }
    let h = hyperperiod(&tasks).ok_or(HyperperiodOverflow)?;
    // Exact utilization test in hyperperiod units: total demand per
    // hyperperiod must fit the m processors (necessary condition; u128
    // keeps the sum exact).
    let demand: u128 = tasks
        .iter()
        .map(|&(e, p)| e as u128 * (h / p) as u128)
        .sum();
    if demand > m as u128 * h as u128 {
        return Ok(false);
    }
    // Each task alone on a processor: always schedulable (e ≤ p).
    if tasks.len() <= m as usize {
        return Ok(true);
    }
    Ok(simulate_gedf(&tasks, m as usize, h))
}

/// Error from [`exact_gedf_schedulable`]: the feasibility interval
/// (hyperperiod) does not fit in `u64`, or a period is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HyperperiodOverflow;

impl std::fmt::Display for HyperperiodOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hyperperiod overflows u64 (or a period is zero)")
    }
}

impl std::error::Error for HyperperiodOverflow {}

/// Deterministic preemptive global-EDF simulation over `[0, horizon)`;
/// `true` iff miss-free. All tasks have `0 < e ≤ p` and all periods
/// divide `horizon`.
fn simulate_gedf(tasks: &[(u64, u64)], m: usize, horizon: u64) -> bool {
    let n = tasks.len();
    // Remaining quanta of the current job; 0 = between jobs.
    let mut rem: Vec<u64> = vec![0; n];
    // Next release slot per task (synchronous: all release at 0).
    let mut next_release: Vec<Slot> = vec![0; n];
    // Absolute deadline of the current job (valid while rem > 0).
    let mut deadline: Vec<Slot> = vec![0; n];
    // Scratch: pending task indices ordered by (deadline, index).
    let mut pending: Vec<usize> = Vec::with_capacity(n);

    let mut t: Slot = 0;
    while t < horizon {
        // Releases due at t. A carried-over job would have its implicit
        // deadline exactly here, so leftover work means a miss.
        let mut next_event = horizon;
        for i in 0..n {
            if next_release[i] == t {
                if rem[i] > 0 {
                    return false;
                }
                rem[i] = tasks[i].0;
                deadline[i] = t + tasks[i].1;
                next_release[i] = t + tasks[i].1;
            }
            next_event = next_event.min(next_release[i]);
        }
        debug_assert!(next_event > t);

        pending.clear();
        pending.extend((0..n).filter(|&i| rem[i] > 0));
        if pending.is_empty() {
            // Idle stretch: nothing can happen until the next release.
            t = next_event;
            continue;
        }
        if pending.len() <= m {
            // Every pending job runs every slot until a release or the
            // earliest completion — advance the whole stretch at once.
            let min_rem = pending.iter().map(|&i| rem[i]).min().unwrap();
            let delta = (next_event - t).min(min_rem);
            for &i in &pending {
                rem[i] -= delta;
            }
            t += delta;
            continue;
        }
        // Contended slot: the m earliest deadlines run one quantum.
        pending.sort_unstable_by_key(|&i| (deadline[i], i));
        for &i in &pending[..m] {
            rem[i] -= 1;
        }
        t += 1;
    }
    // All deadlines of jobs released before `horizon` are ≤ `horizon`
    // (periods divide the horizon), so leftover work is a miss at H.
    rem.iter().all(|&r| r == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_edf::{dhall_task_set, GlobalEdf};
    use crate::MultiSim;
    use pfair_model::TaskSet;
    use proptest::prelude::*;

    #[test]
    fn empty_set_is_schedulable() {
        assert_eq!(exact_gedf_schedulable(&[], 1), Ok(true));
        assert_eq!(exact_gedf_schedulable(&[], 0), Ok(true));
        assert!(gedf_utilization_bound_schedulable(&[], 4));
        assert!(gedf_utilization_bound_schedulable(&[], 0));
    }

    #[test]
    fn zero_cost_tasks_place_no_demand() {
        assert_eq!(exact_gedf_schedulable(&[(0, 5), (0, 7)], 1), Ok(true));
        assert_eq!(exact_gedf_schedulable(&[(0, 5), (3, 3)], 1), Ok(true));
    }

    #[test]
    fn overloaded_task_rejected() {
        assert_eq!(exact_gedf_schedulable(&[(5, 4)], 8), Ok(false));
        assert!(!gedf_utilization_bound_schedulable(&[(5, 4)], 8));
    }

    #[test]
    fn zero_processors_reject_nonempty() {
        assert_eq!(exact_gedf_schedulable(&[(1, 2)], 0), Ok(false));
        assert!(!gedf_utilization_bound_schedulable(&[(1, 2)], 0));
    }

    #[test]
    fn utilization_overload_rejected() {
        // U = 3/2 > 1 processor.
        assert_eq!(
            exact_gedf_schedulable(&[(1, 2), (2, 3), (1, 3)], 1),
            Ok(false)
        );
    }

    #[test]
    fn uniprocessor_full_utilization_accepted() {
        // U = 1 exactly: EDF is optimal on one processor.
        assert_eq!(
            exact_gedf_schedulable(&[(1, 2), (1, 3), (1, 6)], 1),
            Ok(true)
        );
    }

    #[test]
    fn dhall_set_rejected_at_m_accepted_at_m_plus_one() {
        for m in [2u32, 3, 4] {
            let pairs: Vec<(u64, u64)> = dhall_task_set(m, 10)
                .iter()
                .map(|(_, t)| (t.exec, t.period))
                .collect();
            assert_eq!(
                exact_gedf_schedulable(&pairs, m),
                Ok(false),
                "Dhall set must be gEDF-infeasible on M={m}"
            );
            assert_eq!(exact_gedf_schedulable(&pairs, m + 1), Ok(true));
        }
    }

    #[test]
    fn exact_accepts_where_bound_rejects() {
        // The point of an exact test: (2,3), (2,3), (1,3) on m = 2 has
        // U = 5/3 and u_max = 2/3, so the GFB bound m(1−u_max)+u_max = 4/3
        // rejects — yet the hyperperiod-3 schedule is miss-free.
        let set = [(2u64, 3u64), (2, 3), (1, 3)];
        assert!(!gedf_utilization_bound_schedulable(&set, 2));
        assert_eq!(exact_gedf_schedulable(&set, 2), Ok(true));
    }

    #[test]
    fn hyperperiod_computation() {
        assert_eq!(hyperperiod(&[(1, 4), (1, 6)]), Some(12));
        assert_eq!(hyperperiod(&[]), Some(1));
        assert_eq!(hyperperiod(&[(1, 0)]), None);
        assert_eq!(hyperperiod(&[(1, u64::MAX), (1, u64::MAX - 1)]), None);
    }

    #[test]
    fn overflow_reported_not_panicked() {
        let huge = [(1u64, u64::MAX), (1, u64::MAX - 1), (1, 7), (1, 11)];
        assert_eq!(exact_gedf_schedulable(&huge, 4), Err(HyperperiodOverflow));
    }

    /// Brute-force verdict from the slot loop's [`GlobalEdf`] policy:
    /// miss-free over one hyperperiod. The ledger's `finalize` counts a job
    /// due exactly at the horizon H that never completed, so running to H
    /// observes every deadline in `[0, H]`.
    fn brute_force(pairs: &[(u64, u64)], m: u32) -> bool {
        let h = hyperperiod(pairs).unwrap();
        let set = TaskSet::from_pairs(pairs.iter().copied()).unwrap();
        let mut sim = MultiSim::with_policy(&set, m, GlobalEdf);
        sim.run(h);
        sim.finalize_faults().job_misses == 0
    }

    proptest! {
        /// The exact test agrees with brute-force global-EDF simulation
        /// on random ≤4-task sets (ISSUE 9 property-test corpus).
        #[test]
        fn prop_exact_matches_brute_force(
            periods in prop::collection::vec(2u64..13, 1..=4),
            fracs in prop::collection::vec(1u64..=12, 4),
            m in 1u32..=3,
        ) {
            let pairs: Vec<(u64, u64)> = periods
                .iter()
                .zip(&fracs)
                .map(|(&p, &f)| (((f * p) / 12).max(1), p))
                .collect();
            prop_assert_eq!(
                exact_gedf_schedulable(&pairs, m),
                Ok(brute_force(&pairs, m)),
                "set {:?} on m={}", pairs, m
            );
        }

        /// The GFB utilization bound is sufficient: whatever it accepts,
        /// the exact test accepts too.
        #[test]
        fn prop_bound_implies_exact(
            periods in prop::collection::vec(2u64..13, 1..=4),
            fracs in prop::collection::vec(1u64..=12, 4),
            m in 1u32..=3,
        ) {
            let pairs: Vec<(u64, u64)> = periods
                .iter()
                .zip(&fracs)
                .map(|(&p, &f)| (((f * p) / 12).max(1), p))
                .collect();
            if gedf_utilization_bound_schedulable(&pairs, m) {
                prop_assert_eq!(
                    exact_gedf_schedulable(&pairs, m),
                    Ok(true),
                    "bound accepted but exact rejected: {:?} on m={}", pairs, m
                );
            }
        }
    }
}
