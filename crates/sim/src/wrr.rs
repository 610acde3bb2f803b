//! Weighted round-robin, of which "PD² can be thought of as a
//! deadline-based variant" (§4). [`Wrr`] is the classical variant as a
//! [`Dispatch`] policy: rounds of `L` slots, task `T` entitled to
//! `⌈wt(T)·L⌉` quanta a round (at least one), served in a fixed cyclic
//! order. Fair over long horizons but blind to deadlines, so its tests
//! find feasible sets it misses and PD² meets; it is built only for them.

use crate::engine::Dispatch;
use crate::ledger::JobLedger;
use pfair_model::{Slot, TaskId, TaskSet};

/// Global weighted round-robin (see module docs).
pub(crate) struct Wrr {
    round_len: u64,
    /// Quanta each task is entitled to per round.
    entitled: Vec<u64>,
    /// Entitlement left in the current round.
    quota: Vec<u64>,
    /// Cyclic service pointer.
    cursor: usize,
}

impl Wrr {
    /// Round-robin over `tasks` with rounds of `round_len` slots.
    pub(crate) fn new(tasks: &TaskSet, round_len: u64) -> Self {
        assert!(round_len >= 1);
        let entitled: Vec<u64> = tasks
            .iter()
            .map(|(_, t)| (t.exec * round_len).div_ceil(t.period).max(1))
            .collect();
        Wrr {
            round_len,
            quota: entitled.clone(),
            entitled,
            cursor: 0,
        }
    }
}

impl Dispatch for Wrr {
    fn pick(&mut self, t: Slot, jobs: &JobLedger, live: &[u32], out: &mut Vec<TaskId>) {
        if t % self.round_len == 0 {
            self.quota.copy_from_slice(&self.entitled);
        }
        // Serve up to `live` tasks cyclically: quota and an arrived job.
        let n = self.quota.len();
        for i in (0..n).map(|k| (self.cursor + k) % n) {
            if out.len() < live.len() && self.quota[i] > 0 && jobs.arrival(TaskId(i as u32)) <= t {
                self.quota[i] -= 1;
                out.push(TaskId(i as u32));
            }
        }
        self.cursor = (self.cursor + 1) % n.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MultiSim, RunMetrics};
    use crate::ledger::FaultMetrics;
    use pfair_core::sched::SchedConfig;

    fn ts(pairs: &[(u64, u64)]) -> TaskSet {
        TaskSet::from_pairs(pairs.iter().copied()).unwrap()
    }

    /// Runs WRR over `0..horizon`: dispatch metrics and finalized jobs.
    fn run(set: &TaskSet, m: u32, round_len: u64, horizon: Slot) -> (RunMetrics, FaultMetrics) {
        let mut sim = MultiSim::with_policy(set, m, Wrr::new(set, round_len));
        let metrics = sim.run(horizon);
        (metrics, sim.finalize_faults())
    }

    /// WRR is proportionally fair over long horizons: allocations track
    /// weights within a round of slack.
    #[test]
    fn wrr_is_long_run_proportional() {
        let set = ts(&[(1, 2), (1, 3), (1, 6)]);
        let (metrics, _) = run(&set, 1, 6, 6_000);
        // U = 1: no idling once rounds are aligned (round = hyperperiod).
        assert_eq!(metrics.idle_quanta, 0);
        assert_eq!(metrics.allocated_quanta, 6_000);
    }

    /// The headline gap: a feasible set WRR misses but PD² schedules.
    /// Deadline-blind cyclic service starves a short-period task whenever
    /// the cursor gap `≈ n/M` exceeds its period: here n = 8 tasks on
    /// M = 2 processors (gap ≈ 4) against a victim of period 3.
    #[test]
    fn wrr_misses_where_pd2_meets() {
        let mut pairs = vec![(1u64, 3u64)]; // the victim
        pairs.extend(vec![(5u64, 21u64); 7]);
        let set = ts(&pairs);
        assert_eq!(set.total_utilization(), pfair_model::Rat::from(2u64));
        let horizon = 40 * set.hyperperiod();

        let mut pd2 = MultiSim::new(&set, SchedConfig::pd2(2));
        assert_eq!(pd2.run(horizon).misses, 0, "PD2 is optimal");

        for round in [3u64, 7, 21, 42] {
            let (_, jobs) = run(&set, 2, round, horizon);
            assert!(jobs.job_misses > 0, "WRR must miss at round length {round}");
        }
    }

    /// With a round of 1 slot WRR degenerates to plain round-robin.
    #[test]
    fn degenerate_round_robin() {
        let set = ts(&[(1, 2), (1, 2)]);
        let (metrics, jobs) = run(&set, 1, 1, 1_000);
        // Perfectly alternating: everyone meets deadlines here.
        assert_eq!(jobs.job_misses, 0);
        assert_eq!(metrics.allocated_quanta, 1_000);
    }

    #[test]
    fn accounting_adds_up() {
        let set = ts(&[(1, 4), (1, 8)]);
        let (metrics, _) = run(&set, 2, 8, 800);
        assert_eq!(metrics.allocated_quanta + metrics.idle_quanta, 1_600);
        // U = 3/8: exactly that fraction of capacity is used.
        assert_eq!(metrics.allocated_quanta, 800 * 3 / 8);
    }
}
