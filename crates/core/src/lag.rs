//! Lag computation and Pfair schedule validation.
//!
//! The lag of task `T` at time `t` measures deviation from the ideal fluid
//! schedule: `lag(T, t) = wt(T)·t − Σ_{u<t} S(T, u)` (paper, Section 2).
//! A schedule is Pfair iff every lag stays strictly inside `(−1, 1)`
//! (Equation (1)).
//!
//! The checker here operates on an explicit schedule — a slot-indexed list
//! of the tasks allocated in that slot — and is used by the property tests
//! and by `sched-sim`'s verification layer.

use pfair_model::{Rat, Slot, TaskId, TaskSet, Weight};
use std::fmt;

/// The fluid ("ideal") allocation `wt(T)·t` a task should have received by
/// time `t`.
fn ideal_allocation(w: Weight, t: Slot) -> Rat {
    w.as_rat() * Rat::from(t)
}

/// `lag(T, t)` given the actual allocation count through slot `t − 1`.
pub fn lag(w: Weight, t: Slot, allocated: u64) -> Rat {
    ideal_allocation(w, t) - Rat::from(allocated)
}

/// A violation found by [`check_pfair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// More tasks scheduled in a slot than processors.
    TooManyInSlot {
        /// Offending slot.
        slot: Slot,
        /// Number of tasks scheduled there.
        count: usize,
    },
    /// The same task appears twice in one slot (parallelism is forbidden).
    DuplicateInSlot {
        /// Offending slot.
        slot: Slot,
        /// The duplicated task.
        task: TaskId,
    },
    /// A task's lag left `(−1, 1)`.
    LagOutOfBounds {
        /// The task whose lag broke the bound.
        task: TaskId,
        /// Time at which the bound broke.
        time: Slot,
        /// The offending lag value.
        lag: Rat,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TooManyInSlot { slot, count } => {
                write!(f, "slot {slot}: {count} tasks exceed processor count")
            }
            Violation::DuplicateInSlot { slot, task } => {
                write!(f, "slot {slot}: task {task} scheduled twice")
            }
            Violation::LagOutOfBounds { task, time, lag } => {
                write!(f, "lag({task}, {time}) = {lag} outside (-1, 1)")
            }
        }
    }
}

/// Validates that `schedule` (slot → tasks allocated in that slot) is a
/// Pfair schedule of the **synchronous periodic** task set on `m`
/// processors: per-slot capacity, no intra-slot parallelism, and the lag
/// bound at every instant `1..=horizon`. Returns the first violation found.
pub fn check_pfair(tasks: &TaskSet, schedule: &[Vec<TaskId>], m: u32) -> Result<(), Violation> {
    let mut alloc = vec![0u64; tasks.len()];
    let mut seen: Vec<Option<Slot>> = vec![None; tasks.len()];
    for (t, slot_tasks) in schedule.iter().enumerate() {
        let t = t as Slot;
        if slot_tasks.len() > m as usize {
            return Err(Violation::TooManyInSlot {
                slot: t,
                count: slot_tasks.len(),
            });
        }
        for &id in slot_tasks {
            if seen[id.index()] == Some(t) {
                return Err(Violation::DuplicateInSlot { slot: t, task: id });
            }
            seen[id.index()] = Some(t);
            alloc[id.index()] += 1;
        }
        // Check lags at time t + 1.
        for (id, task) in tasks.iter() {
            let l = lag(task.weight(), t + 1, alloc[id.index()]);
            if l <= -Rat::ONE || l >= Rat::ONE {
                return Err(Violation::LagOutOfBounds {
                    task: id,
                    time: t + 1,
                    lag: l,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_model::Task;

    fn ts(pairs: &[(u64, u64)]) -> TaskSet {
        TaskSet::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn ideal_and_lag_values() {
        let w = Weight::new(8, 11).unwrap();
        assert_eq!(ideal_allocation(w, 11), Rat::from(8u64));
        assert_eq!(lag(w, 11, 8), Rat::ZERO);
        assert_eq!(lag(w, 2, 1), Rat::new(16, 11) - Rat::ONE); // 5/11
        assert_eq!(lag(w, 2, 2), Rat::new(16 - 22, 11)); // -6/11
    }

    #[test]
    fn accepts_a_correct_schedule() {
        // Weight 1/2 on one processor, alternating slots.
        let tasks = ts(&[(1, 2)]);
        let schedule = vec![vec![TaskId(0)], vec![], vec![TaskId(0)], vec![]];
        assert_eq!(check_pfair(&tasks, &schedule, 1), Ok(()));
    }

    #[test]
    fn rejects_overcommitted_slot() {
        let tasks = ts(&[(1, 2), (1, 2)]);
        let schedule = vec![vec![TaskId(0), TaskId(1)]];
        assert!(matches!(
            check_pfair(&tasks, &schedule, 1),
            Err(Violation::TooManyInSlot { slot: 0, count: 2 })
        ));
    }

    #[test]
    fn rejects_parallelism() {
        let tasks = ts(&[(2, 2)]);
        let schedule = vec![vec![TaskId(0), TaskId(0)]];
        assert!(matches!(
            check_pfair(&tasks, &schedule, 2),
            Err(Violation::DuplicateInSlot { .. })
        ));
    }

    #[test]
    fn rejects_starvation_via_lag() {
        // Weight 1/2 never scheduled: lag reaches 1 at t = 2.
        let tasks = ts(&[(1, 2)]);
        let schedule = vec![vec![], vec![]];
        let err = check_pfair(&tasks, &schedule, 1).unwrap_err();
        assert!(matches!(
            err,
            Violation::LagOutOfBounds {
                task: TaskId(0),
                time: 2,
                ..
            }
        ));
        assert!(err.to_string().contains("lag"));
    }

    #[test]
    fn rejects_overallocation_via_lag() {
        // Weight 1/2 scheduled twice in a row: lag(2) = 1 − 2 = −1.
        let tasks = ts(&[(1, 2)]);
        let schedule = vec![vec![TaskId(0)], vec![TaskId(0)]];
        let err = check_pfair(&tasks, &schedule, 1).unwrap_err();
        assert!(matches!(err, Violation::LagOutOfBounds { time: 2, .. }));
    }

    #[test]
    fn weight_one_task_must_run_every_slot() {
        let mut tasks = TaskSet::new();
        tasks.push(Task::new(1, 1).unwrap());
        let good = vec![vec![TaskId(0)], vec![TaskId(0)]];
        assert_eq!(check_pfair(&tasks, &good, 1), Ok(()));
        let bad = vec![vec![TaskId(0)], vec![]];
        assert!(check_pfair(&tasks, &bad, 1).is_err());
    }
}
