//! Overload detection and load-shedding primitives.
//!
//! The paper's dynamic-task theory (Section 5.2, after \[38\]) already
//! gives the *mechanism* for reacting to capacity changes: tasks may leave
//! at a safe point and rejoin under the `Σ wt ≤ M` admission test. This
//! module supplies the *policy* side used by the fault-recovery layer in
//! the `faults` crate:
//!
//! * [`LagWatchdog`] — detects sustained overload from the observed
//!   per-slot maximum application lag. A single noisy slot does not trip
//!   it; `trip_after` consecutive slots above the threshold do.
//! * [`plan_shedding`] — picks which tasks to drop, heaviest weight first,
//!   when the processor count falls below the active weight sum (fail-stop
//!   loss). Shedding the heaviest tasks restores feasibility with the
//!   fewest departures, protecting the largest number of remaining tasks.
//!
//! ERfair catch-up — the third recovery policy — needs no code here: it is
//! [`PfairScheduler::set_early_release`](crate::sched::PfairScheduler::set_early_release)
//! with [`EarlyRelease::Unrestricted`](crate::sched::EarlyRelease), which
//! lets backlogged tasks absorb idle slots until their lag re-converges.

use pfair_model::{Slot, TaskId};

/// Sustained-overload detector over a per-slot lag signal.
///
/// Feed it the maximum observed application lag each slot via
/// [`observe`](LagWatchdog::observe); it trips once the signal has stayed
/// at or above `threshold` for `trip_after` consecutive slots. Under
/// fault-free Pfair scheduling per-task lag stays in (−1, 1), so any
/// threshold ≥ 1 only fires on genuine fault-induced backlog.
#[derive(Debug, Clone)]
pub struct LagWatchdog {
    threshold: f64,
    trip_after: u64,
    above: u64,
    tripped_at: Option<Slot>,
}

impl LagWatchdog {
    /// A watchdog tripping after `trip_after` consecutive slots with lag
    /// ≥ `threshold`.
    pub fn new(threshold: f64, trip_after: u64) -> Self {
        assert!(trip_after > 0, "trip_after must be at least 1");
        LagWatchdog {
            threshold,
            trip_after,
            above: 0,
            tripped_at: None,
        }
    }

    /// Records the lag observed in slot `t`. Returns `true` exactly on the
    /// slot the watchdog newly trips (so callers can edge-trigger recovery
    /// actions).
    pub fn observe(&mut self, t: Slot, max_lag: f64) -> bool {
        if max_lag >= self.threshold {
            self.above += 1;
            if self.above == self.trip_after && self.tripped_at.is_none() {
                self.tripped_at = Some(t);
                return true;
            }
        } else {
            self.above = 0;
        }
        false
    }

    /// Re-arms a tripped watchdog (call once recovery has re-converged).
    pub fn reset(&mut self) {
        self.above = 0;
        self.tripped_at = None;
    }
}

/// Picks tasks to shed, heaviest first, until the remaining total weight
/// fits `capacity` processors.
///
/// `active` holds `(id, weight)` for every currently active task (weights
/// as `f64`, e.g. via `Weight::to_f64`). Returns the ids to drop, in
/// shedding order. Ties on weight break toward the higher id, so the
/// longest-lived tasks survive. A small epsilon absorbs the f64 rounding
/// of weights that sum exactly to the capacity.
pub fn plan_shedding(active: &[(TaskId, f64)], capacity: u32) -> Vec<TaskId> {
    const EPS: f64 = 1e-9;
    let mut remaining: f64 = active.iter().map(|(_, w)| w).sum();
    let mut by_weight: Vec<(TaskId, f64)> = active.to_vec();
    by_weight.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
    let mut shed = Vec::new();
    for (id, w) in by_weight {
        if remaining <= f64::from(capacity) + EPS {
            break;
        }
        remaining -= w;
        shed.push(id);
    }
    shed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_requires_consecutive_slots() {
        let mut wd = LagWatchdog::new(2.0, 3);
        assert!(!wd.observe(0, 5.0));
        assert!(!wd.observe(1, 5.0));
        assert!(!wd.observe(2, 0.5)); // dips below: streak resets
        assert!(!wd.observe(3, 5.0));
        assert!(!wd.observe(4, 5.0));
        assert!(wd.observe(5, 5.0)); // third consecutive slot trips

        // Already tripped: further observations do not re-trip.
        assert!(!wd.observe(6, 9.0));
        wd.reset();
        // Re-armed: a fresh streak of three trips again.
        assert!(!wd.observe(7, 5.0));
        assert!(!wd.observe(8, 5.0));
        assert!(wd.observe(9, 5.0));
    }

    #[test]
    fn shedding_drops_heaviest_until_feasible() {
        let active = [
            (TaskId(0), 0.9),
            (TaskId(1), 0.5),
            (TaskId(2), 0.8),
            (TaskId(3), 0.3),
        ];
        // Σ = 2.5; on 2 processors shedding the single heaviest (0.9)
        // brings it to 1.6 ≤ 2.
        assert_eq!(plan_shedding(&active, 2), vec![TaskId(0)]);
        // On 1 processor: 0.9 and 0.8 must both go (1.6 → 0.8 ≤ 1).
        assert_eq!(plan_shedding(&active, 1), vec![TaskId(0), TaskId(2)]);
        // Already feasible: shed nothing.
        assert_eq!(plan_shedding(&active, 3), Vec::<TaskId>::new());
    }

    #[test]
    fn shedding_tolerates_exact_fit() {
        // Three tasks of weight 2/3 sum to exactly 2.0 in rationals but
        // not in f64; the epsilon keeps them all.
        let w = 2.0 / 3.0;
        let active = [(TaskId(0), w), (TaskId(1), w), (TaskId(2), w)];
        assert_eq!(plan_shedding(&active, 2), Vec::<TaskId>::new());
        // One processor: drop two (ties break toward the higher id).
        assert_eq!(plan_shedding(&active, 1), vec![TaskId(2), TaskId(1)]);
    }

    #[test]
    fn empty_system_sheds_nothing() {
        assert_eq!(plan_shedding(&[], 0), Vec::<TaskId>::new());
    }
}
