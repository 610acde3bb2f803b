//! Partitioned EDF under the same fault process, for degradation
//! comparisons.
//!
//! [`QuantumEdfSim`] is the paper's partitioned-EDF straw man (Section 1)
//! subjected to the *same* [`FaultPlan`] as the PD² simulator: tasks are
//! placed once by first-fit decreasing-utilization (via the `partition`
//! crate's [`EdfUtilization`] test), then each processor runs quantum-
//! granularity EDF over its own tasks. Fault draws are keyed identically —
//! overruns and bursts by `(task, job)`, lost quanta by `(slot,
//! processor)`, fail-stop events by the event counter — so both schedulers
//! face the same adversary; only their reactions differ. A fail-stopped
//! processor takes *all* of its partition's tasks down with it for the
//! duration, which is precisely the rigidity the comparison is meant to
//! expose (a global Pfair scheduler just loses one quantum's worth of
//! capacity).
//!
//! Job progress is scored by the same [`sched_sim::JobLedger`] the PD²
//! simulator feeds — one rule for what a useful quantum, a late job and a
//! due job are — so rows from both simulators land in one table.

use partition::{partition, EdfUtilization, Heuristic, SortOrder};
use pfair_model::{Slot, TaskId, TaskSet};
use sched_sim::{FaultHook, FaultMetrics, JobLedger, SlotFaults};

use crate::plan::FaultPlan;

/// Quantum-granularity partitioned EDF driven by a [`FaultPlan`].
#[derive(Debug)]
pub struct QuantumEdfSim {
    ledger: JobLedger,
    /// Tasks of each processor (first-fit groups).
    groups: Vec<Vec<TaskId>>,
    plan: FaultPlan,
    /// Scratch: the plan's directives for the current slot.
    scratch: SlotFaults,
}

impl QuantumEdfSim {
    /// Partitions `tasks` onto `m` processors (first-fit, decreasing
    /// utilization) and prepares the simulator. `None` if the set does not
    /// first-fit under the EDF utilization test — the Dhall-style
    /// admission failure partitioned schemes hit before any fault fires;
    /// callers should report it as an admission loss rather than a crash.
    pub fn new(tasks: &TaskSet, m: u32, mut plan: FaultPlan) -> Option<Self> {
        let pairs: Vec<(u64, u64)> = tasks.iter().map(|(_, t)| (t.exec, t.period)).collect();
        let acc = EdfUtilization::new(&pairs);
        let result = partition(
            pairs.len(),
            &acc,
            Heuristic::FirstFit,
            SortOrder::DecreasingUtilization,
            m,
            |i| {
                let (e, p) = pairs[i];
                (e as f64 / p as f64, p)
            },
        )?;
        let mut groups = vec![Vec::new(); m as usize];
        let mut ledger = JobLedger::default();
        for ((id, t), &proc) in tasks.iter().zip(&result.assignment) {
            groups[proc as usize].push(id);
            ledger.push(t.exec, t.period, 0, &mut plan);
        }
        Some(QuantumEdfSim {
            ledger,
            groups,
            plan,
            scratch: SlotFaults::default(),
        })
    }

    /// Simulates slot `t` across all processors.
    fn step(&mut self, t: Slot) {
        self.scratch.clear();
        self.plan
            .slot_faults(t, self.groups.len() as u32, &mut self.scratch);
        for (p, group) in self.groups.iter().enumerate() {
            let p = p as u32;
            if self.scratch.down.contains(&p) {
                self.ledger.metrics.dead_proc_quanta += 1;
                continue;
            }
            // EDF among this processor's tasks whose current job has
            // arrived (a job in the ledger always has work left).
            let pick = group
                .iter()
                .copied()
                .filter(|&id| self.ledger.arrival(id) <= t)
                .min_by_key(|&id| (self.ledger.deadline(id), id));
            let Some(id) = pick else {
                continue;
            };
            if self.scratch.wasted.contains(&p) {
                self.ledger.metrics.wasted_quanta += 1;
                continue;
            }
            self.ledger.useful_quantum(id, t, &mut self.plan);
        }
        self.ledger.close_slot(t, |_| true);
    }

    /// Runs slots `0..horizon` and finalizes the ledger (every deadline at
    /// or before the horizon counts toward `jobs_due`; unfinished due jobs
    /// are misses).
    pub fn run(mut self, horizon: Slot) -> FaultMetrics {
        for t in 0..horizon {
            self.step(t);
        }
        self.ledger.finalize(horizon, &mut self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultConfig;

    #[test]
    fn fault_free_full_utilization_meets_every_deadline() {
        // Two processors, each packed to utilization 1 by first-fit
        // decreasing: {1/2, 1/2} and {1/3, 1/3, 1/3}.
        let tasks = TaskSet::from_pairs([(1u64, 2u64), (1, 2), (1, 3), (1, 3), (1, 3)]).unwrap();
        let plan = FaultPlan::new(FaultConfig::none(0));
        let sim = QuantumEdfSim::new(&tasks, 2, plan).unwrap();
        let fin = sim.run(60);
        assert_eq!(fin.job_misses, 0, "{fin:?}");
        assert_eq!(fin.jobs_due, 30 + 30 + 20 + 20 + 20);
        assert!(fin.jobs_completed >= fin.jobs_due);
        assert!(fin.max_app_lag <= 1.0 + 1e-9);
    }

    #[test]
    fn overloaded_set_is_rejected_at_admission() {
        let tasks = TaskSet::from_pairs([(2u64, 3u64), (2, 3), (2, 3)]).unwrap();
        assert!(QuantumEdfSim::new(&tasks, 2, FaultPlan::new(FaultConfig::none(0))).is_none());
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
        let sim = QuantumEdfSim::new(&tasks, 2, FaultPlan::new(cfg)).unwrap();
        let fin = sim.run(40);
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
