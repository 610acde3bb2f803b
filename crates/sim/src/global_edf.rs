//! Job-level global EDF on `M` processors — the Dhall-effect baseline.
//!
//! The paper's Section 1 motivates Pfair scheduling with Dhall & Liu's
//! observation \[13\] that global EDF "can result in arbitrarily-low
//! processor utilization": one heavy task plus `M` light tasks with
//! marginally earlier deadlines starves the heavy task at a total
//! utilization barely above 1. [`GlobalEdf`] reproduces that effect as a
//! [`Dispatch`] policy of [`MultiSim`](crate::MultiSim): each slot runs the
//! `M` arrived jobs with the earliest deadlines (ties by task index), read
//! from the loop's [`JobLedger`] and scored by its one miss rule — a tardy
//! job keeps running and counts one miss.

use crate::engine::Dispatch;
use crate::ledger::JobLedger;
use pfair_model::{Slot, TaskId, TaskSet};

/// Job-level global EDF (see module docs).
///
/// # Examples
///
/// ```
/// use pfair_model::TaskSet;
/// use sched_sim::{GlobalEdf, MultiSim};
///
/// // Dhall effect: U = 2/4 + 1 = 1.5 ≤ M = 2, yet global EDF misses.
/// let tasks = TaskSet::from_pairs([(1u64, 4u64), (1, 4), (5, 5)]).unwrap();
/// let mut sim = MultiSim::with_policy(&tasks, 2, GlobalEdf);
/// sim.run(100);
/// assert!(sim.finalize_faults().job_misses > 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalEdf;

impl Dispatch for GlobalEdf {
    fn pick(&mut self, t: Slot, jobs: &JobLedger, live: &[u32], out: &mut Vec<TaskId>) {
        out.extend(jobs.tasks().filter(|&id| jobs.arrival(id) <= t));
        out.sort_unstable_by_key(|&id| (jobs.deadline(id), id));
        out.truncate(live.len());
    }
}

/// Builds the canonical discrete Dhall-effect task set for `m` processors:
/// `m` light tasks `(1, p−1)` — whose deadlines fall strictly before the
/// heavy task's — plus one weight-1 task `(p, p)`. Total utilization
/// `1 + m/(p−1)`, arbitrarily close to 1 for large `p`, yet global EDF
/// misses on `m` processors while PD² does not.
pub fn dhall_task_set(m: u32, p: u64) -> TaskSet {
    assert!(p >= 3);
    let mut pairs = vec![(1u64, p - 1); m as usize];
    pairs.push((p, p));
    TaskSet::from_pairs(pairs).expect("valid dhall set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MultiSim, RunMetrics};
    use crate::ledger::FaultMetrics;
    use pfair_core::sched::SchedConfig;

    /// Runs G-EDF over `0..horizon`: dispatch metrics and finalized jobs.
    fn run(set: &TaskSet, m: u32, horizon: Slot) -> (RunMetrics, FaultMetrics) {
        let mut sim = MultiSim::with_policy(set, m, GlobalEdf);
        let metrics = sim.run(horizon);
        (metrics, sim.finalize_faults())
    }

    #[test]
    fn dhall_effect_misses_under_global_edf() {
        for m in [2u32, 4, 8] {
            let set = dhall_task_set(m, 10);
            // U = 1 + m/10 ≤ m for m ≥ 2.
            assert!(set.feasible_on(m));
            let (_, jobs) = run(&set, m, 200);
            assert!(
                jobs.job_misses > 0,
                "global EDF must exhibit the Dhall effect on M={m}"
            );
        }
    }

    #[test]
    fn same_sets_are_schedulable_by_pd2() {
        for m in [2u32, 4, 8] {
            let set = dhall_task_set(m, 10);
            let mut sim = MultiSim::new(&set, SchedConfig::pd2(m));
            let metrics = sim.run(200);
            assert_eq!(metrics.misses, 0, "PD2 schedules the Dhall set on M={m}");
        }
    }

    #[test]
    fn underloaded_global_edf_is_fine() {
        // Light load, no heavy task: global EDF does well.
        let set = TaskSet::from_pairs([(1u64, 5u64), (1, 7), (2, 11), (1, 4)]).unwrap();
        let (_, jobs) = run(&set, 2, 5_000);
        assert_eq!(jobs.job_misses, 0);
        assert!(jobs.jobs_completed > 0);
    }

    #[test]
    fn single_processor_global_edf_matches_feasibility() {
        // On one processor, (quantum-level) EDF schedules any U ≤ 1 set.
        let set = TaskSet::from_pairs([(1u64, 2u64), (1, 3), (1, 6)]).unwrap();
        let (metrics, jobs) = run(&set, 1, 600);
        assert_eq!(jobs.job_misses, 0);
        assert_eq!(metrics.idle_quanta, 0);
    }

    #[test]
    fn accounting_adds_up() {
        let (metrics, _) = run(&dhall_task_set(2, 10), 2, 100);
        assert_eq!(metrics.allocated_quanta + metrics.idle_quanta, 200);
    }

    #[test]
    fn no_migrations_on_one_processor() {
        let set = TaskSet::from_pairs([(1u64, 2u64), (2, 6), (1, 6)]).unwrap();
        let (metrics, _) = run(&set, 1, 600);
        assert_eq!(metrics.migrations, 0);
        // (2, 6) is interleaved by the tighter (1, 2) deadlines.
        assert!(metrics.preemptions > 0);
    }

    #[test]
    fn affinity_keeps_uncontended_tasks_put() {
        // Two tasks on two processors: each keeps its processor forever.
        let set = TaskSet::from_pairs([(1u64, 2u64), (2, 3)]).unwrap();
        let (metrics, jobs) = run(&set, 2, 600);
        assert_eq!(metrics.preemptions, 0);
        assert_eq!(metrics.migrations, 0);
        assert_eq!(jobs.job_misses, 0);
    }

    /// A task that ran in slot t−1 keeps its processor even when a
    /// higher-priority task last ran there. A = (1,2), B = (1,3) and
    /// C = (2,3) on M = 2 over two hyperperiods, miss-free; a task resumes
    /// on another processor three times:
    /// - slot 2: C keeps P0 from slot 1, so A (on P0 at slot 0) takes P1;
    /// - slot 6: A resumes on P1, so B (on P1 at slot 3) takes P0;
    /// - slot 9: C keeps P0 from slot 8, so B (on P0 at slot 6) takes P1.
    ///
    /// Handing each task back the processor it last used, in deadline
    /// order, instead moves C at slot 9 (B takes P0 back) and again at
    /// slot 10 (A takes P1 back): four migrations.
    #[test]
    fn consecutive_quanta_keep_their_processor() {
        let set = TaskSet::from_pairs([(1u64, 2u64), (1, 3), (2, 3)]).unwrap();
        let (metrics, jobs) = run(&set, 2, 12);
        assert_eq!(jobs.job_misses, 0);
        assert_eq!(metrics.migrations, 3);
    }

    #[test]
    fn misses_scale_with_horizon() {
        let set = dhall_task_set(2, 10);
        let (_, short) = run(&set, 2, 100);
        let (_, long) = run(&set, 2, 1_000);
        assert!(long.job_misses > short.job_misses);
    }
}
