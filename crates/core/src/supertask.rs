//! Supertasking (paper, Section 5.5).
//!
//! Moir and Ramamurthy \[29\] proposed binding non-migratory tasks to a
//! processor by bundling them into a *supertask* that competes under Pfair
//! scheduling with the cumulative weight of its *component tasks*; whenever
//! the supertask is scheduled, one of its components executes, selected by
//! an internal uniprocessor scheduler (EDF here, as in \[16\]).
//!
//! As the paper's Fig. 5 shows, naive supertasking is **unsound**: a
//! component task can miss its deadline even though the supertask receives
//! its full Pfair allocation, because the allocation may arrive at the
//! wrong times within the component's period. Holman and Anderson \[16\]
//! showed that deadlines can be guaranteed by *reweighting*: when EDF is
//! used internally, it suffices to inflate the supertask's weight by
//! `1/p_min`, where `p_min` is the smallest component period
//! ([`Supertask::reweighted_weight`]).
//!
//! [`Supertask`] tracks component jobs and performs the internal EDF
//! dispatch; [`run_with_supertask`] drives a [`PfairScheduler`] with one
//! supertask mixed into a set of ordinary tasks and reports component-level
//! deadline misses — the harness behind the Fig. 5 reproduction.

use crate::sched::{PfairScheduler, SchedConfig};
use pfair_model::{Rat, Slot, Task, TaskId, TaskSet, WeightError};
use std::fmt;

/// A component task bound inside a supertask: synchronous periodic with
/// integer execution cost and period in quanta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Component {
    /// Execution cost per job, quanta.
    pub exec: u64,
    /// Period, quanta.
    pub period: u64,
}

impl Component {
    /// Creates a component; parameters validated like a [`Task`].
    pub fn new(exec: u64, period: u64) -> Result<Self, WeightError> {
        Task::new(exec, period)?;
        Ok(Component { exec, period })
    }

    /// Component utilization as an exact rational.
    pub fn utilization(&self) -> Rat {
        Rat::new(self.exec as i128, self.period as i128)
    }
}

/// A deadline miss by a component job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentMiss {
    /// Index of the component within the supertask.
    pub component: usize,
    /// 0-based job index.
    pub job: u64,
    /// The absolute deadline that was missed.
    pub deadline: Slot,
    /// Quanta still owed at the deadline.
    pub remaining: u64,
}

impl fmt::Display for ComponentMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "component {} job {} missed deadline {} ({} quanta short)",
            self.component, self.job, self.deadline, self.remaining
        )
    }
}

/// Per-component execution state.
#[derive(Debug, Clone)]
struct CompState {
    /// Quanta remaining for the current job.
    remaining: u64,
    /// 0-based index of the current job.
    job: u64,
    /// Whether the current job's miss has already been recorded.
    miss_recorded: bool,
}

/// A supertask: a bundle of component tasks scheduled internally by EDF.
#[derive(Debug, Clone)]
pub struct Supertask {
    components: Vec<Component>,
    state: Vec<CompState>,
    misses: Vec<ComponentMiss>,
    /// Next slot `on_slot` expects.
    now: Slot,
}

impl Supertask {
    /// Creates a supertask over the given components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or the cumulative utilization
    /// exceeds 1 (a supertask occupies at most one processor).
    pub fn new(components: Vec<Component>) -> Self {
        assert!(!components.is_empty(), "supertask needs components");
        let total: Rat = components.iter().map(Component::utilization).sum();
        assert!(
            total <= Rat::ONE,
            "supertask utilization {total} exceeds one processor"
        );
        let state = components
            .iter()
            .map(|c| CompState {
                remaining: c.exec,
                job: 0,
                miss_recorded: false,
            })
            .collect();
        Supertask {
            components,
            state,
            misses: Vec::new(),
            now: 0,
        }
    }

    /// Cumulative weight `Σ wt(component)` as an exact rational.
    pub fn cumulative_weight(&self) -> Rat {
        self.components.iter().map(Component::utilization).sum()
    }

    /// The competing [`Task`] with the *naive* cumulative weight — the
    /// configuration Fig. 5 shows to be unsound.
    fn naive_task(&self) -> Task {
        let w = self.cumulative_weight();
        Task::new(w.numer() as u64, w.denom() as u64).expect("0 < Σwt ≤ 1")
    }

    /// Smallest component period `p_min`.
    fn min_period(&self) -> u64 {
        self.components
            .iter()
            .map(|c| c.period)
            .min()
            .expect("nonempty")
    }

    /// The Holman–Anderson reweighted weight `Σ wt + 1/p_min`, sufficient
    /// for EDF-scheduled components \[16\]. Saturates at 1.
    pub fn reweighted_weight(&self) -> Rat {
        let w = self.cumulative_weight() + Rat::new(1, self.min_period() as i128);
        w.min(Rat::ONE)
    }

    /// The competing [`Task`] with the reweighted (safe) weight.
    pub fn reweighted_task(&self) -> Task {
        let w = self.reweighted_weight();
        Task::new(w.numer() as u64, w.denom() as u64).expect("0 < w ≤ 1")
    }

    /// Component deadline misses recorded so far.
    pub fn misses(&self) -> &[ComponentMiss] {
        &self.misses
    }

    /// Advances the supertask through slot `t`. `granted` says whether the
    /// global scheduler allocated this slot to the supertask; if so, the
    /// earliest-deadline pending component job receives the quantum.
    ///
    /// Slots must be presented consecutively starting from 0.
    pub fn on_slot(&mut self, t: Slot, granted: bool) {
        assert_eq!(t, self.now, "supertask slots must advance in order");
        self.now = t + 1;

        // Release: a job of component c is current during
        // [job·p, (job+1)·p); roll jobs forward at period boundaries.
        for (idx, st) in self.state.iter_mut().enumerate() {
            let c = self.components[idx];
            while t >= (st.job + 1) * c.period {
                // Old job's deadline passed; misses were recorded at the
                // boundary check below. Account any unfinished work as
                // abandoned (the paper's model: misses are hard failures,
                // the demo only needs their detection).
                st.job += 1;
                st.remaining = c.exec;
                st.miss_recorded = false;
            }
        }

        // Internal EDF: earliest absolute deadline, ties by index.
        if granted {
            let pick = self
                .state
                .iter()
                .enumerate()
                .filter(|(_, st)| st.remaining > 0)
                .min_by_key(|(idx, st)| ((st.job + 1) * self.components[*idx].period, *idx))
                .map(|(idx, _)| idx);
            if let Some(idx) = pick {
                self.state[idx].remaining -= 1;
            }
        }

        // Miss detection at time t+1: any current job whose deadline is
        // ≤ t+1 with work remaining has missed.
        for (idx, st) in self.state.iter_mut().enumerate() {
            let c = self.components[idx];
            let deadline = (st.job + 1) * c.period;
            if st.remaining > 0 && deadline <= t + 1 && !st.miss_recorded {
                st.miss_recorded = true;
                self.misses.push(ComponentMiss {
                    component: idx,
                    job: st.job,
                    deadline,
                    remaining: st.remaining,
                });
            }
        }
    }
}

/// Result of [`run_with_supertask`].
#[derive(Debug)]
pub struct SupertaskRun {
    /// The slot-indexed schedule (which global tasks ran when).
    pub schedule: Vec<Vec<TaskId>>,
    /// The id under which the supertask competed.
    pub supertask_id: TaskId,
    /// The supertask, carrying component misses.
    pub supertask: Supertask,
    /// Pfair-level misses of the global scheduler (empty when feasible).
    pub pfair_misses: usize,
}

/// Schedules `normal` tasks plus one supertask on `cfg.processors`
/// processors for `horizon` slots. `reweighted` selects the safe
/// Holman–Anderson weight instead of the naive cumulative weight.
///
/// The supertask is appended *after* the normal tasks, so it has the
/// highest task id; `cfg.higher_id_first` then controls how genuinely
/// arbitrary priority ties between it and equal-parameter tasks resolve.
pub fn run_with_supertask(
    normal: &TaskSet,
    supertask: Supertask,
    cfg: SchedConfig,
    horizon: Slot,
    reweighted: bool,
) -> SupertaskRun {
    let mut all = normal.clone();
    let st_task = if reweighted {
        supertask.reweighted_task()
    } else {
        supertask.naive_task()
    };
    let supertask_id = all.push(st_task);
    let mut sched = PfairScheduler::new(&all, cfg);
    let mut supertask = supertask;
    let mut schedule = Vec::with_capacity(horizon as usize);
    let mut slot = Vec::new();
    for t in 0..horizon {
        slot.clear();
        sched.tick(t, &mut slot);
        supertask.on_slot(t, slot.contains(&supertask_id));
        schedule.push(slot.clone());
    }
    SupertaskRun {
        schedule,
        supertask_id,
        supertask,
        pfair_misses: sched.misses().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::Policy;

    fn fig5_supertask() -> Supertask {
        Supertask::new(vec![
            Component::new(1, 5).unwrap(),  // T, weight 1/5
            Component::new(1, 45).unwrap(), // U, weight 1/45
        ])
    }

    fn fig5_normal_tasks() -> TaskSet {
        TaskSet::from_pairs([(1u64, 2u64), (1, 3), (1, 3), (2, 9)]).unwrap()
    }

    #[test]
    fn cumulative_weight_matches_paper() {
        let s = fig5_supertask();
        // 1/5 + 1/45 = 2/9 (paper, Fig. 5 caption).
        assert_eq!(s.cumulative_weight(), Rat::new(2, 9));
        assert_eq!(s.naive_task(), Task::new(2, 9).unwrap());
    }

    #[test]
    fn reweighting_adds_one_over_min_period() {
        let s = fig5_supertask();
        // 2/9 + 1/5 = 19/45.
        assert_eq!(s.reweighted_weight(), Rat::new(19, 45));
        assert_eq!(s.reweighted_task(), Task::new(19, 45).unwrap());
    }

    #[test]
    fn reweight_saturates_at_one() {
        let s = Supertask::new(vec![Component::new(9, 10).unwrap()]);
        assert_eq!(s.reweighted_weight(), Rat::ONE);
    }

    /// Paper Fig. 5: under naive supertasking on two processors, component
    /// T (weight 1/5) misses a deadline at time 10 — for at least one
    /// resolution of the genuinely arbitrary priority ties.
    #[test]
    fn fig5_naive_supertask_misses() {
        // Both residual tie orders produce component misses; the
        // higher-id-first order realizes the paper's exact figure (T's
        // job over [5,10) starves because S's second subtask ran at slot 4).
        let mut exact_figure = false;
        for higher_id_first in [false, true] {
            let cfg = SchedConfig::pd2(2)
                .with_policy(Policy::Pd2)
                .with_higher_id_first(higher_id_first);
            let run = run_with_supertask(&fig5_normal_tasks(), fig5_supertask(), cfg, 45, false);
            assert_eq!(
                run.pfair_misses, 0,
                "the supertask itself is Pfair-feasible"
            );
            let misses = run.supertask.misses();
            assert!(
                !misses.is_empty(),
                "naive supertasking must miss (Fig. 5), order {higher_id_first}"
            );
            // Component 0 is T (weight 1/5) in every case.
            assert_eq!(misses[0].component, 0);
            if misses[0].deadline == 10 && misses[0].job == 1 {
                exact_figure = true;
            }
        }
        assert!(exact_figure, "one tie order reproduces the miss at t=10");
    }

    /// With Holman–Anderson reweighting the same system is miss-free.
    #[test]
    fn fig5_reweighted_supertask_is_safe() {
        // Reweighted S has weight 19/45; total = 1/2+1/3+1/3+2/9+19/45 =
        // 163/90 ≤ 2, still feasible.
        for higher_id_first in [false, true] {
            let cfg = SchedConfig::pd2(2).with_higher_id_first(higher_id_first);
            let run =
                run_with_supertask(&fig5_normal_tasks(), fig5_supertask(), cfg, 10 * 45, true);
            assert_eq!(run.pfair_misses, 0);
            assert!(
                run.supertask.misses().is_empty(),
                "reweighted run missed: {:?}",
                run.supertask.misses()
            );
        }
    }

    /// A lone supertask on one processor with full allocation never misses:
    /// internal EDF on a unit-capacity "processor" is optimal.
    #[test]
    fn dedicated_supertask_never_misses() {
        let mut s = Supertask::new(vec![
            Component::new(1, 2).unwrap(),
            Component::new(1, 3).unwrap(),
            Component::new(1, 7).unwrap(),
        ]);
        // 1/2 + 1/3 + 1/7 = 41/42 ≤ 1; grant every slot.
        for t in 0..84 {
            s.on_slot(t, true);
        }
        assert!(s.misses().is_empty(), "{:?}", s.misses());
    }

    /// Starving the supertask produces recorded misses with remaining work.
    #[test]
    fn starved_supertask_reports_misses() {
        let mut s = Supertask::new(vec![Component::new(1, 3).unwrap()]);
        for t in 0..9 {
            s.on_slot(t, false);
        }
        // Jobs 0, 1, 2 all miss.
        assert_eq!(s.misses().len(), 3);
        assert_eq!(s.misses()[0].deadline, 3);
        assert_eq!(s.misses()[0].remaining, 1);
        assert!(s.misses()[0].to_string().contains("missed"));
    }

    #[test]
    fn internal_edf_prefers_earliest_deadline() {
        let mut s = Supertask::new(vec![
            Component::new(1, 10).unwrap(), // deadline 10
            Component::new(1, 4).unwrap(),  // deadline 4 — must win slot 0
        ]);
        s.on_slot(0, true);
        assert_eq!(s.state[1].remaining, 0);
        assert_eq!(s.state[0].remaining, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds one processor")]
    fn overfull_supertask_rejected() {
        let _ = Supertask::new(vec![
            Component::new(2, 3).unwrap(),
            Component::new(1, 2).unwrap(),
        ]);
    }
}
