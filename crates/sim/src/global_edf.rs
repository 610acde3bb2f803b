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
//!
//! [`Cbs`] is the same pick with one task served by a constant-bandwidth
//! server \[1\], §5.3's "additional mechanism" for temporal isolation
//! under EDF: "the deadline of a job is postponed when it consumes its
//! worst-case execution time … Though effective, the use of such
//! mechanisms increases scheduling overhead." It counts that overhead.

use crate::engine::Dispatch;
use crate::ledger::JobLedger;
use pfair_model::{Slot, TaskId, TaskSet};

/// Appends the `live.len()` arrived jobs with the earliest `deadline`,
/// ties by task index.
fn edf_pick(
    t: Slot,
    jobs: &JobLedger,
    live: &[u32],
    out: &mut Vec<TaskId>,
    deadline: impl Fn(TaskId) -> Slot,
) {
    out.extend(jobs.tasks().filter(|&id| jobs.arrival(id) <= t));
    out.sort_unstable_by_key(|&id| (deadline(id), id));
    out.truncate(live.len());
}

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
        edf_pick(t, jobs, live, out, |id| jobs.deadline(id));
    }
}

/// Global EDF with one task of the set served by a constant-bandwidth
/// server (Abeni & Buttazzo). The server task's declared `(exec, period)`
/// are its budget `Q` and period `P`; its real demand is whatever the
/// ledger says ([`JobLedger::set_demand`]). The rules, of which each
/// recharge and each postponement counts as one rule invocation:
///
/// * *wake-up* — a server job arriving at `t` finds the server idle; if
///   `budget·P ≥ (d_s − t)·Q`, then `d_s ← t + P` and `budget ← Q`;
/// * *dispatch* — the server competes at `d_s`, every other task at its
///   ledger deadline (ties by task index);
/// * *service* — each slot the server runs costs one unit of budget; at
///   zero, `budget ← Q` and `d_s ← d_s + P`.
///
/// An honest server (demand = `Q`, no release bursts) keeps `d_s` equal to
/// its ledger deadline, so it schedules exactly as [`GlobalEdf`]; an
/// overrunning one is held to `Q/P` whenever the other tasks need the
/// processors.
///
/// # Examples
///
/// ```
/// use pfair_model::{TaskId, TaskSet};
/// use sched_sim::{Cbs, MultiSim};
///
/// // Task 0 is served with Q = 2 per P = 10; one processor.
/// let tasks = TaskSet::from_pairs([(2u64, 10u64), (2, 5), (1, 4)]).unwrap();
/// let mut sim = MultiSim::with_policy(&tasks, 1, Cbs::new(&tasks, TaskId(0)));
/// sim.run(100);
/// assert_eq!(sim.finalize_faults().job_misses, 0);
/// // Even an honest server costs a wake-up and a postponement a period.
/// assert_eq!(sim.scheduler().rule_invocations(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct Cbs {
    server: TaskId,
    /// Budget per server period, `Q`.
    q: u64,
    /// Server period, `P`.
    p: u64,
    /// Budget left.
    budget: u64,
    /// Server deadline `d_s`.
    deadline: Slot,
    /// Wake-up recharges plus budget-exhaustion postponements.
    rules: u64,
}

impl Cbs {
    /// Serves task `server` of `tasks` by a CBS with budget and period its
    /// declared `(exec, period)`.
    pub fn new(tasks: &TaskSet, server: TaskId) -> Self {
        let task = &tasks[server];
        Cbs {
            server,
            q: task.exec,
            p: task.period,
            budget: task.exec,
            deadline: 0,
            rules: 0,
        }
    }

    /// CBS rule invocations so far: §5.3's "increased scheduling
    /// overhead", work plain EDF never does.
    pub fn rule_invocations(&self) -> u64 {
        self.rules
    }
}

impl Dispatch for Cbs {
    fn pick(&mut self, t: Slot, jobs: &JobLedger, live: &[u32], out: &mut Vec<TaskId>) {
        // A job arriving now had no predecessor pending: the server was idle.
        if jobs.arrival(self.server) == t
            && self.budget * self.p >= self.deadline.saturating_sub(t) * self.q
        {
            self.deadline = t + self.p;
            self.budget = self.q;
            self.rules += 1;
        }
        let (server, d_s) = (self.server, self.deadline);
        edf_pick(t, jobs, live, out, |id| {
            if id == server {
                d_s
            } else {
                jobs.deadline(id)
            }
        });
        if out.contains(&server) {
            self.budget -= 1;
            if self.budget == 0 {
                self.budget = self.q;
                self.deadline += self.p;
                self.rules += 1;
            }
        }
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
    use crate::engine::{MultiSim, NoFaults, RunMetrics};
    use crate::ledger::FaultMetrics;
    use pfair_core::sched::SchedConfig;
    use proptest::prelude::*;

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

    /// The server of the CBS tests, the last task of [`cbs_set`].
    const SERVER: TaskId = TaskId(2);

    /// Hard tasks (2,5) and (1,4) (U = 0.65) plus a (2,10) server: Q = 2,
    /// P = 10, U = 0.85 in all.
    fn cbs_set() -> TaskSet {
        TaskSet::from_pairs([(2u64, 5u64), (1, 4), (2, 10)]).unwrap()
    }

    /// Runs `policy` on one processor over [`cbs_set`], the server
    /// demanding `demand` quanta a job; returns the finalized run with its
    /// schedule recorded.
    fn serve<P: Dispatch>(policy: P, demand: u64, horizon: Slot) -> MultiSim<P> {
        let mut sim = MultiSim::with_policy(&cbs_set(), 1, policy);
        sim.record_schedule();
        sim.set_fault_hook(Box::new(NoFaults))
            .set_demand(SERVER, demand);
        sim.run(horizon);
        sim.finalize_faults();
        sim
    }

    fn hard_misses<P: Dispatch>(sim: &MultiSim<P>) -> u64 {
        sim.task_misses(TaskId(0)) + sim.task_misses(TaskId(1))
    }

    fn server_quanta<P: Dispatch>(sim: &MultiSim<P>) -> usize {
        let schedule = sim.schedule().unwrap();
        schedule.iter().filter(|s| s.contains(&SERVER)).count()
    }

    #[test]
    fn cbs_serves_within_bandwidth_when_honest() {
        // One quantum a period: half the server's bandwidth.
        let sim = serve(Cbs::new(&cbs_set(), SERVER), 1, 10_000);
        assert_eq!(hard_misses(&sim), 0);
        assert_eq!(sim.task_misses(SERVER), 0);
        assert_eq!(server_quanta(&sim), 1_000);
    }

    /// 4 quanta a period: 2× the server's bandwidth.
    #[test]
    fn vanilla_edf_leaks_the_overload() {
        let sim = serve(GlobalEdf, 4, 10_000);
        assert!(hard_misses(&sim) > 0, "plain EDF must harm the hard tasks");
    }

    #[test]
    fn cbs_isolates_hard_tasks_from_overload() {
        let sim = serve(Cbs::new(&cbs_set(), SERVER), 4, 10_000);
        assert_eq!(hard_misses(&sim), 0, "CBS must confine the overload");
        // Work-conserving: the server gets its bandwidth plus the slack
        // the hard tasks leave (1 − 0.65), never more.
        let quanta = server_quanta(&sim);
        assert!(quanta >= 10_000 / 10 * 2 - 2, "bandwidth floor: {quanta}");
        assert!(quanta <= 3_500 + 4, "hard-task slack ceiling: {quanta}");
    }

    #[test]
    fn isolation_costs_bookkeeping() {
        // §5.3: "the use of such mechanisms increases scheduling overhead."
        // Under sustained overload a postponement recurs every Q quanta.
        let sim = serve(Cbs::new(&cbs_set(), SERVER), 4, 10_000);
        let rules = sim.scheduler().rule_invocations();
        assert!(rules > 500, "got {rules}");
    }

    #[test]
    fn idle_server_recharges_eagerly() {
        // A one-quantum job never exhausts Q = 2, so every rule is the
        // wake-up of a job arriving to an idle server: one per period.
        let sim = serve(Cbs::new(&cbs_set(), SERVER), 1, 10_000);
        assert_eq!(sim.scheduler().rule_invocations(), 10_000 / 10);
        assert_eq!(sim.task_misses(SERVER), 0);
    }

    proptest! {
        /// A server whose demand is its declared cost keeps its deadline
        /// equal to its job's, so CBS schedules exactly as global EDF.
        #[test]
        fn prop_honest_cbs_is_global_edf(
            raw in prop::collection::vec((1u64..6, 2u64..10), 1..=5),
            m in 1u32..=3,
            server in 0usize..5,
        ) {
            let set = TaskSet::from_pairs(raw.iter().map(|&(e, p)| (e.min(p), p))).unwrap();
            let server = TaskId((server % set.len()) as u32);
            let mut gedf = MultiSim::with_policy(&set, m, GlobalEdf);
            let mut cbs = MultiSim::with_policy(&set, m, Cbs::new(&set, server));
            gedf.record_schedule();
            cbs.record_schedule();
            prop_assert_eq!(gedf.run(120), cbs.run(120));
            prop_assert_eq!(gedf.schedule(), cbs.schedule());
        }
    }
}
