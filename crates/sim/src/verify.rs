//! Schedule verification: window containment.
//!
//! [`pfair_core::lag::check_pfair`] validates the lag bound; this module
//! adds the equivalent (for synchronous periodic tasks) but more
//! diagnostic *window* view: the `k`-th quantum allocated to task `T` must
//! land inside `w(T_k) = [r(T_k), d(T_k))`. A schedule satisfies the lag
//! bound iff it satisfies window containment (paper, Section 2), and the
//! property tests assert exactly that equivalence.
//!
//! # Event-aware verification
//!
//! Faulted runs perturb the scheduler in ways the synchronous windows do
//! not model — but every perturbation the simulator supports has an exact
//! window-level meaning, so a perturbed schedule is still checkable given
//! the [`TraceEvent`] record of what happened:
//!
//! * [`TraceEvent::Burst`] — the IS model: job `j` arriving `δ` late adds
//!   `δ` to the task's cumulative offset θ, and subtask `T_k` of job ≥ `j`
//!   occupies `[r(T_k) + θ, d(T_k) + θ)` (paper, Section 3).
//! * [`TraceEvent::Shed`] — the task leaves under the safe leave rule and
//!   is dropped from the check at its departure slot; any later
//!   allocation to it is a violation.
//! * [`TraceEvent::Rejoin`] — the §5.2 join rule: the new incarnation's
//!   windows are the synchronous windows shifted right by the join slot
//!   (the scheduler admits it with θ = join time).
//! * [`TraceEvent::CatchUp`] — ERfair: from the trip slot on, subtasks
//!   may legally run *before* their Pfair releases, so only the deadline
//!   half of each window — equivalent to the ERfair lag bound
//!   `lag < 1` — remains enforceable.
//! * [`TraceEvent::Capacity`], [`TraceEvent::ProcDown`],
//!   [`TraceEvent::QuantumLoss`], [`TraceEvent::Overrun`] — no effect on
//!   window containment (capacity only shrinks the per-slot pick count;
//!   the others steal useful work without touching the scheduler).
//!
//! Feed events to [`IncrementalWindowCheck::apply_event`] as they happen
//! (or use [`ScheduleTrace::verify`](crate::ScheduleTrace::verify) for an
//! archived schedule) and
//! every recovery policy becomes verifiable, not just fault-free runs.

use crate::trace::TraceEvent;
use pfair_model::{Slot, Task, TaskId, TaskSet, Weight};
use std::fmt;

/// A subtask scheduled outside its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowViolation {
    /// The offending task.
    pub task: TaskId,
    /// 1-based subtask index.
    pub index: u64,
    /// Slot in which the subtask was scheduled.
    pub slot: Slot,
    /// The window it should have been inside.
    pub release: Slot,
    /// Window deadline.
    pub deadline: Slot,
}

impl fmt::Display for WindowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subtask {} of {} scheduled in slot {} outside window [{}, {})",
            self.index, self.task, self.slot, self.release, self.deadline
        )
    }
}

/// Checks window containment of a synchronous periodic schedule: the `k`-th
/// allocation of each task must fall within `[r(T_k), d(T_k))`. Returns the
/// first violation.
pub fn check_windows(tasks: &TaskSet, schedule: &[Vec<TaskId>]) -> Result<(), WindowViolation> {
    check_windows_with_events(tasks, schedule, &[])
}

/// Checks window containment of an archived schedule under the recorded
/// fault/recovery events (see the module docs for the per-event
/// semantics). Job-keyed burst events apply from the start; slot-keyed
/// events are applied before their slot is checked, in slot order.
///
/// With an empty event list this is exactly the strict synchronous check.
pub(crate) fn check_windows_with_events(
    tasks: &TaskSet,
    schedule: &[Vec<TaskId>],
    events: &[TraceEvent],
) -> Result<(), WindowViolation> {
    let mut check = IncrementalWindowCheck::new(tasks);
    let mut slotted: Vec<&TraceEvent> = Vec::new();
    for ev in events {
        match ev.slot() {
            None => check.apply_event(ev), // job-keyed: applies globally
            Some(_) => slotted.push(ev),
        }
    }
    // Stable by slot, preserving recorded order within a slot (a shed and
    // a rejoin can share one).
    slotted.sort_by_key(|ev| ev.slot());
    let mut next = 0;
    for (t, slot_tasks) in schedule.iter().enumerate() {
        while next < slotted.len() && slotted[next].slot() <= Some(t as Slot) {
            check.apply_event(slotted[next]);
            next += 1;
        }
        check.observe_slot(slot_tasks)?;
    }
    Ok(())
}

/// Per-task window bookkeeping for [`IncrementalWindowCheck`].
#[derive(Debug, Clone)]
struct CheckTask {
    weight: Weight,
    /// Unreduced per-job execution cost (job boundaries depend on it).
    exec: u64,
    /// Allocations observed so far (the last seen subtask index).
    count: u64,
    /// Slot the task's windows are measured from (join slot; 0 initially).
    origin: Slot,
    /// Cleared when the task is shed: no further allocations are legal.
    active: bool,
    /// Recorded burst delays as `(job, delay)`, ascending by job.
    bursts: Vec<(u64, u64)>,
}

impl CheckTask {
    /// Total window shift of subtask `k`: the origin plus the cumulative
    /// IS offset θ through `k`'s job — mirroring the scheduler, which adds
    /// each job's delay to θ when it queues the job's first subtask.
    fn shift(&self, k: u64) -> Slot {
        let job = (k - 1) / self.exec;
        self.bursts
            .iter()
            .take_while(|&&(j, _)| j <= job)
            .fold(self.origin, |shift, &(_, d)| shift.saturating_add(d))
    }

    /// `[r(T_k), d(T_k)) = [⌊(k−1)/w⌋, ⌈k/w⌉)` shifted by `shift`, each
    /// end held at `Slot::MAX` where it lies past it: an archived trace may
    /// carry any period, burst or rejoin slot. Worked out here rather than
    /// by `pfair_core::subtask`, so the checker shares no formula with the
    /// scheduler it checks.
    fn window(&self, k: u64, shift: Slot) -> (Slot, Slot) {
        let (num, den) = (
            u128::from(self.weight.numer()),
            u128::from(self.weight.denom()),
        );
        let at = |x: u128| Slot::try_from(x).unwrap_or(Slot::MAX).saturating_add(shift);
        let r = u128::from(k - 1) * den / num;
        let d = (u128::from(k) * den).div_ceil(num);
        (at(r), at(d))
    }
}

/// Online version of [`check_windows`] and of the event-aware check behind
/// [`ScheduleTrace::verify`](crate::ScheduleTrace::verify):
/// feed it each slot's scheduled tasks as the simulation produces them and
/// it reports the first window violation immediately, without retaining
/// the schedule. Used by the fault-injection runner as an invariant
/// watchdog over *every* recovery policy: perturbations are accounted for
/// by feeding their [`TraceEvent`]s through [`Self::apply_event`] before
/// the affected slot is observed.
#[derive(Debug, Clone)]
pub struct IncrementalWindowCheck {
    tasks: Vec<CheckTask>,
    now: Slot,
    /// Slot from which ERfair catch-up relaxes the release half of the
    /// check (`None` = never engaged: strict windows throughout).
    er_from: Option<Slot>,
}

impl IncrementalWindowCheck {
    /// A checker for the given (initial) task set.
    pub fn new(tasks: &TaskSet) -> Self {
        IncrementalWindowCheck {
            tasks: tasks
                .iter()
                .map(|(_, t)| CheckTask {
                    weight: t.weight(),
                    exec: t.exec,
                    count: 0,
                    origin: 0,
                    active: true,
                    bursts: Vec::new(),
                })
                .collect(),
            now: 0,
            er_from: None,
        }
    }

    /// Incorporates one recorded event (see the module docs). Slot-keyed
    /// events must be applied before the slot they are keyed to is
    /// observed; burst events may be applied at any point before the
    /// delayed job's subtasks appear. Events that do not affect window
    /// containment are accepted and ignored, so callers can feed the raw
    /// stream. Inconsistent rejoins (ids that do not extend the task list,
    /// or invalid parameters) are ignored rather than trusted.
    pub fn apply_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Burst { task, job, delay } => {
                if let Some(ct) = self.tasks.get_mut(task as usize) {
                    let pos = ct.bursts.partition_point(|&(j, _)| j < job);
                    ct.bursts.insert(pos, (job, delay));
                }
            }
            TraceEvent::Shed { task, .. } => {
                if let Some(ct) = self.tasks.get_mut(task as usize) {
                    ct.active = false;
                }
            }
            TraceEvent::Rejoin {
                slot,
                task,
                exec,
                period,
            } => {
                // The scheduler assigns fresh ids densely, so an honest
                // rejoin extends the list by exactly one.
                if task as usize == self.tasks.len() {
                    if let Ok(t) = Task::new(exec, period) {
                        self.tasks.push(CheckTask {
                            weight: t.weight(),
                            exec: t.exec,
                            count: 0,
                            origin: slot,
                            active: true,
                            bursts: Vec::new(),
                        });
                    }
                }
            }
            TraceEvent::CatchUp { slot } => {
                self.er_from = Some(self.er_from.map_or(slot, |s| s.min(slot)));
            }
            TraceEvent::ProcDown { .. }
            | TraceEvent::QuantumLoss { .. }
            | TraceEvent::Overrun { .. }
            | TraceEvent::Capacity { .. } => {}
        }
    }

    /// Observes the scheduler's picks for the next slot.
    pub fn observe_slot(&mut self, slot_tasks: &[TaskId]) -> Result<(), WindowViolation> {
        let t = self.now;
        self.now += 1;
        let relaxed = self.er_from.is_some_and(|s| t >= s);
        for &id in slot_tasks {
            let Some(ct) = self.tasks.get_mut(id.index()) else {
                continue; // joined outside the event record: not modeled
            };
            let k = ct.count + 1;
            let (r, d) = ct.window(k, ct.shift(k));
            // A shed task must never be scheduled again; its next window
            // is as good a diagnostic as any.
            let early = t < r && !relaxed;
            if !ct.active || early || t >= d {
                return Err(WindowViolation {
                    task: id,
                    index: k,
                    slot: t,
                    release: r,
                    deadline: d,
                });
            }
            ct.count = k;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MultiSim;
    use pfair_core::lag::check_pfair;
    use pfair_core::sched::SchedConfig;
    use pfair_core::Policy;
    use proptest::prelude::*;

    fn ts(pairs: &[(u64, u64)]) -> TaskSet {
        TaskSet::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn accepts_pd2_schedule() {
        let set = ts(&[(2, 3), (2, 3), (2, 3)]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
        sim.record_schedule();
        sim.run(30);
        assert_eq!(check_windows(&set, sim.schedule().unwrap()), Ok(()));
    }

    /// The incremental checker agrees with the batch checker slot for slot
    /// and ignores unknown (dynamically joined) ids.
    #[test]
    fn incremental_check_matches_batch() {
        let set = ts(&[(2, 3), (1, 2), (3, 7)]);
        let m = set.min_processors();
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(m));
        sim.record_schedule();
        sim.run(2 * set.hyperperiod());
        let schedule = sim.schedule().unwrap();

        let mut inc = IncrementalWindowCheck::new(&set);
        for slot in schedule {
            assert_eq!(inc.observe_slot(slot), Ok(()));
        }

        // A violation surfaces on exactly the offending slot…
        let mut inc = IncrementalWindowCheck::new(&ts(&[(1, 4)]));
        assert_eq!(inc.observe_slot(&[TaskId(0)]), Ok(()));
        let v = inc.observe_slot(&[TaskId(0)]).unwrap_err();
        assert_eq!((v.index, v.slot), (2, 1));
        // …and unknown ids are skipped rather than panicking.
        let mut inc = IncrementalWindowCheck::new(&ts(&[(1, 4)]));
        assert_eq!(inc.observe_slot(&[TaskId(7)]), Ok(()));
    }

    #[test]
    fn rejects_early_and_late() {
        let set = ts(&[(1, 4)]);
        // First window is [0, 4); scheduling in slot 4 is late for T1…
        let late = vec![vec![], vec![], vec![], vec![], vec![TaskId(0)]];
        let v = check_windows(&set, &late).unwrap_err();
        assert_eq!((v.index, v.slot), (1, 4));
        assert!(v.to_string().contains("outside window"));
        // …and the second subtask's window is [4, 8): slot 1 is early.
        let early = vec![vec![TaskId(0)], vec![TaskId(0)]];
        let v = check_windows(&set, &early).unwrap_err();
        assert_eq!((v.index, v.slot), (2, 1));
    }

    /// A burst event shifts the task's later windows right, making an
    /// otherwise-early allocation illegal and an otherwise-late one legal.
    #[test]
    fn burst_event_shifts_windows() {
        let set = ts(&[(1, 4)]);
        // Job 1 (subtask 2) delayed by 2: its window moves [4, 8) → [6, 10).
        let burst = TraceEvent::Burst {
            task: 0,
            job: 1,
            delay: 2,
        };
        // Slot 5 is legal synchronously but early under the burst…
        let mut sched = vec![
            vec![TaskId(0)],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![TaskId(0)],
        ];
        assert_eq!(check_windows(&set, &sched), Ok(()));
        let v = check_windows_with_events(&set, &sched, &[burst]).unwrap_err();
        assert_eq!((v.index, v.slot, v.release), (2, 5, 6));
        // …while slot 8 is late synchronously but fine under the burst.
        sched.truncate(5);
        sched.extend([vec![], vec![], vec![], vec![TaskId(0)]]);
        assert!(check_windows(&set, &sched).is_err());
        assert_eq!(check_windows_with_events(&set, &sched, &[burst]), Ok(()));
    }

    /// Shed drops the task from the check at its slot; a later allocation
    /// to the departed id is flagged.
    #[test]
    fn shed_event_drops_task_and_flags_zombies() {
        let set = ts(&[(1, 2), (1, 4)]);
        let shed = TraceEvent::Shed { slot: 2, task: 1 };
        // Task 1 scheduled at slot 0, then shed at slot 2: clean.
        let clean = vec![vec![TaskId(0), TaskId(1)], vec![], vec![TaskId(0)], vec![]];
        assert_eq!(check_windows_with_events(&set, &clean, &[shed]), Ok(()));
        // The same schedule with a post-shed allocation is rejected.
        let zombie = vec![
            vec![TaskId(0), TaskId(1)],
            vec![],
            vec![TaskId(0)],
            vec![TaskId(1)],
        ];
        let v = check_windows_with_events(&set, &zombie, &[shed]).unwrap_err();
        assert_eq!((v.task, v.slot), (TaskId(1), 3));
    }

    /// A rejoined task's windows start at its join slot (§5.2 join rule).
    #[test]
    fn rejoin_event_models_shifted_windows() {
        let set = ts(&[(1, 2)]);
        let events = [
            TraceEvent::Shed { slot: 0, task: 0 },
            TraceEvent::Rejoin {
                slot: 3,
                task: 1,
                exec: 1,
                period: 2,
            },
        ];
        // New id 1 joins at slot 3: first window [3, 5), second [5, 7).
        let ok = vec![
            vec![],
            vec![],
            vec![],
            vec![TaskId(1)],
            vec![],
            vec![TaskId(1)],
        ];
        assert_eq!(check_windows_with_events(&set, &ok, &events), Ok(()));
        // Scheduling it before the join-shifted release is a violation.
        let early = vec![vec![], vec![], vec![], vec![TaskId(1)], vec![TaskId(1)]];
        let v = check_windows_with_events(&set, &early, &events).unwrap_err();
        assert_eq!((v.task, v.index, v.slot, v.release), (TaskId(1), 2, 4, 5));
    }

    /// From the catch-up slot on, early allocations are legal (ERfair) but
    /// late ones still are not.
    #[test]
    fn catchup_event_relaxes_releases_only() {
        let set = ts(&[(1, 4)]);
        // Subtask 2's window is [4, 8); slot 1 is early.
        let early = vec![vec![TaskId(0)], vec![TaskId(0)]];
        assert!(check_windows(&set, &early).is_err());
        let engaged = [TraceEvent::CatchUp { slot: 1 }];
        assert_eq!(check_windows_with_events(&set, &early, &engaged), Ok(()));
        // …but only from the trip slot: engaged at slot 2 it is still early.
        let late_trip = [TraceEvent::CatchUp { slot: 2 }];
        assert!(check_windows_with_events(&set, &early, &late_trip).is_err());
        // Deadlines keep biting under ER: slot 8 is past subtask 2's d.
        let late = vec![
            vec![TaskId(0)],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![TaskId(0)],
        ];
        assert!(check_windows_with_events(&set, &late, &engaged).is_err());
    }

    /// Window containment ⟺ Pfair lag bound, on randomly generated
    /// schedules. (Kept outside the proptest glob because proptest's
    /// prelude re-exports an incompatible `Rng` trait.)
    #[test]
    fn window_and_lag_checks_agree_on_real_schedules() {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            // Random feasible set.
            let n = rng.gen_range(2..6);
            let mut pairs = Vec::new();
            for _ in 0..n {
                let p = rng.gen_range(2u64..12);
                let e = rng.gen_range(1..=p);
                pairs.push((e, p));
            }
            let set = ts(&pairs);
            let m = set.min_processors();
            let mut sim = MultiSim::new(&set, SchedConfig::pd2(m));
            sim.record_schedule();
            sim.run(2 * set.hyperperiod().min(5_000));
            let schedule = sim.schedule().unwrap().to_vec();
            let lag_ok = check_pfair(&set, &schedule, m).is_ok();
            let win_ok = check_windows(&set, &schedule).is_ok();
            assert_eq!(lag_ok, win_ok, "set {pairs:?}");
            assert!(win_ok, "PD2 schedules are always valid: {pairs:?}");
        }
    }

    proptest! {
        /// PD² passes both checks for arbitrary feasible task sets — the
        /// optimality property (Srinivasan & Anderson [39]) observed
        /// empirically.
        #[test]
        fn prop_pd2_always_valid(
            raw in prop::collection::vec((1u64..8, 2u64..14), 2..7),
            seed_m_extra in 0u32..2,
        ) {
            let pairs: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
            let set = ts(&pairs);
            let m = set.min_processors() + seed_m_extra;
            let horizon = (2 * set.hyperperiod()).min(4_000);
            let mut sim = MultiSim::new(&set, SchedConfig::pd2(m));
            sim.record_schedule();
            sim.run(horizon);
            prop_assert_eq!(sim.metrics().misses, 0);
            prop_assert_eq!(check_windows(&set, sim.schedule().unwrap()), Ok(()));
            prop_assert!(check_pfair(&set, sim.schedule().unwrap(), m).is_ok());
        }

        /// PF and PD are optimal too: no misses on feasible sets.
        #[test]
        fn prop_pf_pd_optimal(
            raw in prop::collection::vec((1u64..6, 2u64..10), 2..6),
            pol in prop::sample::select(vec![Policy::Pf, Policy::Pd]),
        ) {
            let pairs: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
            let set = ts(&pairs);
            let m = set.min_processors();
            let horizon = (2 * set.hyperperiod()).min(3_000);
            let mut sim = MultiSim::new(&set, SchedConfig::pd2(m).with_policy(pol));
            let metrics = sim.run(horizon);
            prop_assert_eq!(metrics.misses, 0, "{} missed", pol.name());
        }
    }
}
