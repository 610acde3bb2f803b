//! Partitioned quantum EDF, the paper's straw man (Section 1), as a
//! [`Dispatch`] policy of the slot loop PD² runs in: packed once by
//! first-fit decreasing, each live processor runs the earliest-deadline
//! arrived job of its own tasks. A fail-stopped processor takes its whole
//! partition down, the rigidity the degradation comparison exposes.

use partition::{partition, EdfUtilization, Heuristic::FirstFit, SortOrder::DecreasingUtilization};
use pfair_model::{Slot, TaskId, TaskSet};
use sched_sim::{Dispatch, JobLedger};

/// Partitioned quantum EDF over a first-fit decreasing packing.
pub(crate) struct PartitionedEdf {
    /// Processor of each task.
    home: Vec<u32>,
    /// Tasks of each processor.
    groups: Vec<Vec<TaskId>>,
}

impl PartitionedEdf {
    /// Packs `tasks` onto `m` processors; `None` if they do not first-fit,
    /// the admission loss partitioned schemes hit before any fault fires.
    pub(crate) fn pack(tasks: &TaskSet, m: u32) -> Option<Self> {
        let pairs: Vec<(u64, u64)> = tasks.iter().map(|(_, t)| (t.exec, t.period)).collect();
        let keys = |i: usize| (pairs[i].0 as f64 / pairs[i].1 as f64, pairs[i].1);
        let acc = EdfUtilization::new(&pairs);
        let packed = partition(pairs.len(), &acc, FirstFit, DecreasingUtilization, m, keys)?;
        let mut groups = vec![Vec::new(); m as usize];
        for (i, &p) in packed.assignment.iter().enumerate() {
            groups[p as usize].push(TaskId(i as u32));
        }
        Some(PartitionedEdf {
            home: packed.assignment,
            groups,
        })
    }
}

impl Dispatch for PartitionedEdf {
    fn pick(&mut self, t: Slot, jobs: &JobLedger, live: &[u32], out: &mut Vec<TaskId>) {
        for &p in live {
            let ready = self.groups[p as usize]
                .iter()
                .filter(|&&id| jobs.arrival(id) <= t);
            out.extend(ready.min_by_key(|&&id| (jobs.deadline(id), id)));
        }
    }

    fn home(&self, id: TaskId) -> Option<u32> {
        self.home.get(id.index()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultConfig, FaultPlan};
    use crate::runner::run_edf;
    use proptest::prelude::*;
    use sched_sim::MultiSim;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The slot loop's affinity rule, checked on the partitioned
        /// policy under fail-stop, loss and bursts: every task runs only on
        /// its home processor, so a task scheduled in slots t−1 and t keeps
        /// its processor and no task ever migrates.
        #[test]
        fn prop_partitioned_tasks_never_leave_home(
            raw in prop::collection::vec((1u64..6, 2u64..10), 1..=5),
            m in 1u32..=3,
            seed in 0u64..u64::MAX,
        ) {
            let tasks = TaskSet::from_pairs(raw.into_iter().map(|(e, p)| (e.min(p), p))).unwrap();
            let Some(policy) = PartitionedEdf::pack(&tasks, m) else {
                return Err(TestCaseError::Reject);
            };
            let home = policy.home.clone();
            let cfg = FaultConfig {
                loss_rate: 0.1,
                fail_every: 7,
                fail_duration: 3,
                max_down: m - 1,
                burst_rate: 0.2,
                burst_max: 2,
                ..FaultConfig::none(seed)
            };
            let mut sim = MultiSim::with_policy(&tasks, m, policy);
            sim.set_fault_hook(Box::new(FaultPlan::new(cfg)));
            for _ in 0..60 {
                for (p, id) in sim.step().iter().enumerate() {
                    if let Some(id) = id {
                        prop_assert_eq!(home[id.index()] as usize, p, "task {:?}", id);
                    }
                }
            }
            prop_assert_eq!(sim.metrics().migrations, 0);
        }
    }

    #[test]
    fn fault_free_full_utilization_meets_every_deadline() {
        // Two processors, each packed to utilization 1 by first-fit
        // decreasing: {1/2, 1/2} and {1/3, 1/3, 1/3}.
        let tasks = TaskSet::from_pairs([(1u64, 2u64), (1, 2), (1, 3), (1, 3), (1, 3)]).unwrap();
        let fin = run_edf(&tasks, 2, FaultConfig::none(0), 60).unwrap();
        assert_eq!(fin.job_misses, 0, "{fin:?}");
        assert_eq!(fin.jobs_due, 30 + 30 + 20 + 20 + 20);
        assert!(fin.jobs_completed >= fin.jobs_due);
        assert!(fin.max_app_lag <= 1.0 + 1e-9);
    }

    #[test]
    fn overloaded_set_is_rejected_at_admission() {
        let tasks = TaskSet::from_pairs([(2u64, 3u64), (2, 3), (2, 3)]).unwrap();
        assert!(PartitionedEdf::pack(&tasks, 2).is_none());
    }

    #[test]
    fn failstop_starves_the_dead_partition() {
        let tasks = TaskSet::from_pairs([(1u64, 2u64), (1, 2)]).unwrap();
        let cfg = FaultConfig {
            fail_every: 4,
            fail_duration: 4, // one processor permanently down from slot 4
            max_down: 1,
            ..FaultConfig::none(5)
        };
        let fin = run_edf(&tasks, 2, cfg, 40).unwrap();
        // The victim partition misses roughly every job after slot 4; the
        // survivor is untouched.
        assert!(fin.job_misses >= 10, "{fin:?}");
        assert!(fin.dead_proc_quanta >= 30, "{fin:?}");
        assert!(
            fin.jobs_completed >= 18,
            "survivor keeps meeting deadlines: {fin:?}"
        );
    }
}
