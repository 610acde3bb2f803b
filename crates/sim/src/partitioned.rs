//! Partitioned-EDF multiprocessor simulation.
//!
//! Under partitioning, "each processor schedules tasks independently from a
//! local ready queue" (paper, Section 1). [`PartitionedSim`] runs one
//! event-driven [`UniSim`] per processor over a given task→processor
//! assignment, aggregating the per-processor statistics — the concrete
//! counterpart to the paper's Section 4 accounting (preemptions ≤ jobs,
//! zero migrations by construction) and the baseline against which
//! `MultiSim`'s PD² preemption/migration counts are compared in the
//! `switches` experiment.

use uniproc::{Discipline, UniSim, UniStats};

/// Aggregated statistics from a partitioned run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionedStats {
    /// Sum of job response times across processors.
    pub response_sum: u64,
    /// Largest single job response time.
    pub response_max: u64,
    /// Sum over processors of scheduler invocations.
    pub invocations: u64,
    /// Total preemptions (all local — partitioning never migrates).
    pub preemptions: u64,
    /// Total context switches.
    pub context_switches: u64,
    /// Total released jobs.
    pub released_jobs: u64,
    /// Total completed jobs.
    pub completed_jobs: u64,
    /// Total deadline misses.
    pub deadline_misses: u64,
    /// Total idle time (time units × processors).
    pub idle_time: u64,
}

impl PartitionedStats {
    /// Mean job response time across the whole system.
    pub fn mean_response(&self) -> f64 {
        if self.completed_jobs == 0 {
            0.0
        } else {
            self.response_sum as f64 / self.completed_jobs as f64
        }
    }
}

impl PartitionedStats {
    fn accumulate(&mut self, s: UniStats) {
        self.response_sum += s.response_sum;
        self.response_max = self.response_max.max(s.response_max);
        self.invocations += s.invocations;
        self.preemptions += s.preemptions;
        self.context_switches += s.context_switches;
        self.released_jobs += s.released_jobs;
        self.completed_jobs += s.completed_jobs;
        self.deadline_misses += s.deadline_misses;
        self.idle_time += s.idle_time;
    }
}

/// A multiprocessor system scheduled by partitioning: per-processor EDF
/// (or RM) over a fixed task assignment.
///
/// # Examples
///
/// ```
/// use sched_sim::PartitionedSim;
/// use uniproc::Discipline;
///
/// // Two processors: {(1,2),(1,3)} and {(2,3)}.
/// let tasks = [(1u64, 2u64), (1, 3), (2, 3)];
/// let assignment = [0u32, 0, 1];
/// let mut sim = PartitionedSim::new(&tasks, &assignment, 2, Discipline::Edf);
/// let stats = sim.run(6_000);
/// assert_eq!(stats.deadline_misses, 0);
/// ```
#[derive(Debug)]
pub struct PartitionedSim {
    sims: Vec<UniSim>,
}

impl PartitionedSim {
    /// Creates per-processor simulators from `(exec, period)` tasks and a
    /// task→processor `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if an assignment index is out of range or some processor has
    /// an index gap (processors must be `0..m`).
    pub fn new(tasks: &[(u64, u64)], assignment: &[u32], m: u32, discipline: Discipline) -> Self {
        assert_eq!(tasks.len(), assignment.len());
        let mut groups: Vec<Vec<(u64, u64)>> = vec![Vec::new(); m as usize];
        for (t, &proc) in tasks.iter().zip(assignment) {
            groups[proc as usize].push(*t);
        }
        PartitionedSim {
            sims: groups
                .into_iter()
                .map(|g| UniSim::new(&g, discipline))
                .collect(),
        }
    }

    /// Runs every processor to `horizon` and returns aggregated stats.
    pub fn run(&mut self, horizon: u64) -> PartitionedStats {
        let mut agg = PartitionedStats::default();
        for sim in &mut self.sims {
            agg.accumulate(sim.run(horizon));
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-test FF packing to avoid a dependency cycle with the
    /// `partition` crate (which is downstream of nothing here, but keeping
    /// `sched-sim` independent of it keeps the DAG clean).
    fn first_fit(tasks: &[(u64, u64)], m: u32) -> Option<Vec<u32>> {
        let mut load = vec![(0u64, 1u64); m as usize]; // running Σe/p as fraction num/den
        let mut assign = Vec::with_capacity(tasks.len());
        'outer: for &(e, p) in tasks {
            for (i, l) in load.iter_mut().enumerate() {
                // l + e/p ≤ 1 ⇔ l.0·p + e·l.1 ≤ p·l.1
                if l.0 * p + e * l.1 <= p * l.1 {
                    *l = (l.0 * p + e * l.1, l.1 * p);
                    assign.push(i as u32);
                    continue 'outer;
                }
            }
            return None;
        }
        Some(assign)
    }

    #[test]
    fn partitioned_edf_schedules_partitionable_sets() {
        let tasks = [(1u64, 2u64), (1, 3), (1, 4), (2, 5), (1, 6)];
        let assign = first_fit(&tasks, 2).unwrap();
        let mut sim = PartitionedSim::new(&tasks, &assign, 2, Discipline::Edf);
        let stats = sim.run(60_000);
        assert_eq!(stats.deadline_misses, 0);
        assert!(stats.completed_jobs > 0);
    }

    #[test]
    fn preemptions_bounded_by_jobs() {
        // The paper's Section 4: "Under EDF, the number of preemptions is
        // at most the number of jobs."
        let tasks = [(1u64, 3u64), (2, 7), (3, 11), (1, 5), (2, 9), (1, 4)];
        let assign = first_fit(&tasks, 2).unwrap();
        let mut sim = PartitionedSim::new(&tasks, &assign, 2, Discipline::Edf);
        let stats = sim.run(100_000);
        assert!(stats.preemptions <= stats.released_jobs);
        assert!(stats.context_switches <= 2 * stats.released_jobs);
    }

    #[test]
    fn overloaded_processor_misses() {
        // Deliberately bad assignment: both 2/3 tasks on processor 0.
        let tasks = [(2u64, 3u64), (2, 3)];
        let assign = [0u32, 0];
        let mut sim = PartitionedSim::new(&tasks, &assign, 2, Discipline::Edf);
        let stats = sim.run(3_000);
        assert!(stats.deadline_misses > 0);
        // A first-fit packing on 2 processors handles it fine.
        let good = first_fit(&tasks, 2).unwrap();
        let mut sim = PartitionedSim::new(&tasks, &good, 2, Discipline::Edf);
        assert_eq!(sim.run(3_000).deadline_misses, 0);
    }

    #[test]
    fn rm_discipline_works_too() {
        let tasks = [(1u64, 4u64), (1, 5), (1, 6)];
        let assign = [0u32, 0, 0];
        let mut sim = PartitionedSim::new(&tasks, &assign, 1, Discipline::Rm);
        let stats = sim.run(60_000);
        assert_eq!(stats.deadline_misses, 0);
    }
}
