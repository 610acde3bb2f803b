//! The job and fault layer's vocabulary, shared by every policy of the
//! slot loop: what a fault is ([`FaultHook`], [`SlotFaults`]),
//! what it does to a job's progress ([`JobLedger`]), and how the damage is
//! scored ([`FaultMetrics`]).
//!
//! [`MultiSim`](crate::MultiSim)'s slot loop decides which task receives a
//! quantum and whether that quantum was lost to a fault; every quantum
//! that did useful work is credited to the ledger, and
//! [`MultiSim::finalize_faults`](crate::MultiSim::finalize_faults) closes
//! the run out. The ledger is also the job state every
//! [`Dispatch`](crate::Dispatch) policy but PD² picks from: job-level
//! global EDF, the constant-bandwidth server, weighted round-robin and the
//! `faults` crate's partitioned quantum EDF. So every row of a comparison
//! is scored by one rule: a job is late if it completes past its deadline,
//! a tardy job keeps running and counts one miss, and a job due by the
//! horizon that never completes counts one miss when the run is finalized.
//! The ledger keeps that count per task as well as in total.

use crate::trace::TraceEvent;
use pfair_model::{Slot, TaskId};

/// Faults applied to one slot, filled in by a [`FaultHook`].
#[derive(Debug, Clone, Default)]
pub struct SlotFaults {
    /// Processors that are fail-stopped this slot: they execute nothing,
    /// and scheduled tasks that no longer fit on the surviving processors
    /// are dropped (lowest priority first).
    pub down: Vec<u32>,
    /// Processors whose quantum is dispatched but produces no useful work
    /// (quantum jitter / a lost tick). Ignored for processors that are
    /// also down.
    pub wasted: Vec<u32>,
}

impl SlotFaults {
    /// Resets both lists (called by the engine before each slot).
    pub fn clear(&mut self) {
        self.down.clear();
        self.wasted.clear();
    }
}

/// Injects faults into a simulation run (see the
/// [`engine`](crate::engine) module docs).
///
/// Implementations must be deterministic functions of their own state and
/// the query arguments: the recovery layer holds an independent clone of
/// the plan and relies on both copies agreeing slot by slot.
pub trait FaultHook {
    /// Fills `out` with the faults for slot `t` on an `m`-processor
    /// system. `out` arrives cleared.
    fn slot_faults(&mut self, t: Slot, m: u32, out: &mut SlotFaults);

    /// Extra quanta of demand for `job` (0-based) of `task` beyond its
    /// declared WCET. Queried exactly once per job, when its declared work
    /// completes. The default never overruns.
    fn overrun(&mut self, task: TaskId, job: u64) -> u64 {
        let _ = (task, job);
        0
    }

    /// Total release delay (slots) accumulated through `job` of `task` —
    /// the cumulative IS offset from arrival bursts, which shifts the
    /// job's application deadline. The default is the synchronous periodic
    /// process (no delay).
    fn release_delay(&mut self, task: TaskId, job: u64) -> u64 {
        let _ = (task, job);
        0
    }
}

/// Fault-layer counters, kept apart from [`RunMetrics`](crate::RunMetrics)
/// so the scheduler and dispatch view is untouched by the fault machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultMetrics {
    /// Dispatched quanta that produced no useful work (jitter).
    pub wasted_quanta: u64,
    /// Scheduled quanta dropped because their processors were fail-stopped.
    pub dropped_quanta: u64,
    /// Processor-slots lost to fail-stop (one per down processor per slot).
    pub dead_proc_quanta: u64,
    /// Jobs that demanded quanta beyond their declared WCET.
    pub overruns: u64,
    /// Total extra quanta demanded by overrunning jobs.
    pub overrun_quanta: u64,
    /// Application-level jobs completed.
    pub jobs_completed: u64,
    /// Application-level jobs due by the end of the run (filled in when
    /// the run is finalized; 0 before that).
    pub jobs_due: u64,
    /// Application-level job deadline misses (late completions, plus —
    /// once the run is finalized — due jobs that never finished).
    pub job_misses: u64,
    /// Largest observed job tardiness (slots past the deadline).
    pub max_tardiness: u64,
    /// Largest observed application lag: `wt·elapsed − useful_quanta` over
    /// all live tasks and slots. Bounded near 1 in a fault-free run;
    /// grows with injected load.
    pub max_app_lag: f64,
}

impl FaultMetrics {
    /// Deadline-miss ratio over the jobs due in the run (finalize first so
    /// `jobs_due` is filled in).
    pub fn miss_ratio(&self) -> f64 {
        if self.jobs_due == 0 {
            0.0
        } else {
            self.job_misses as f64 / self.jobs_due as f64
        }
    }
}

/// One task's application-level progress.
#[derive(Debug, Clone, Copy)]
struct TaskJobs {
    exec: u64,
    period: u64,
    /// Slot from which this task's jobs are measured (join time).
    origin: Slot,
    /// Jobs completed so far (the current job's 0-based index).
    job: u64,
    /// Useful quanta into the current job.
    done: u64,
    /// Quanta the current job needs (`exec`, plus any overrun).
    needed: u64,
    /// Whether the current job's overrun draw already happened.
    overrun_applied: bool,
    /// Useful quanta over the task's lifetime.
    useful_total: u64,
    /// Utilization `exec / period`, for the application-lag signal.
    weight_f: f64,
    /// Arrival of the current job (`origin + job·period + burst delay`):
    /// quanta granted before it carry no application work, so ERfair
    /// catch-up cannot run jobs that have not arrived. The job's deadline
    /// is one period later.
    arrival: Slot,
    /// Slot at which the task was retired (shed), if any; retired tasks
    /// stop accruing lag and due jobs.
    retired_at: Option<Slot>,
    /// This task's share of [`FaultMetrics::job_misses`].
    misses: u64,
}

/// Application-level job accounting: a job completes only after `exec`
/// (plus any overrun) *useful* quanta, and is late if that happens after
/// `arrival + period`. Its current job — arrival and deadline — is what
/// every policy but PD² picks from.
#[derive(Debug, Default)]
pub struct JobLedger {
    tasks: Vec<TaskJobs>,
    /// Counters so far. The ledger maintains the job-level ones; the
    /// slot loop that owns the ledger adds the quanta it lost to faults
    /// (`wasted_quanta`, `dropped_quanta`, `dead_proc_quanta`).
    pub(crate) metrics: FaultMetrics,
    last_max_lag: f64,
    finalized: bool,
}

impl JobLedger {
    /// Starts tracking a task whose job 0 nominally arrives at `origin`;
    /// it takes the next [`TaskId`] (ids follow registration order).
    pub(crate) fn push(&mut self, exec: u64, period: u64, origin: Slot, hook: &mut dyn FaultHook) {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskJobs {
            exec,
            period,
            origin,
            job: 0,
            done: 0,
            needed: exec,
            overrun_applied: false,
            useful_total: 0,
            weight_f: exec as f64 / period as f64,
            arrival: origin + hook.release_delay(id, 0),
            retired_at: None,
            misses: 0,
        });
    }

    /// Decouples the application-level demand of task `id` from the cost
    /// it was registered with: each of its jobs consumes `actual_exec`
    /// useful quanta (plus any overrun draws) while the scheduler keeps
    /// serving the declared — possibly larger — reservation. The app-lag
    /// signal is rebased to the actual utilization, so
    /// reserved-but-unneeded capacity does not read as accumulating lag.
    /// Call before the task's first quantum, so job 0 sees the new demand.
    ///
    /// # Panics
    ///
    /// Panics if `actual_exec` is zero.
    pub fn set_demand(&mut self, id: TaskId, actual_exec: u64) {
        assert!(actual_exec >= 1, "a job needs at least one quantum");
        let a = &mut self.tasks[id.index()];
        a.exec = actual_exec;
        if a.job == 0 && a.done == 0 && !a.overrun_applied {
            a.needed = actual_exec;
        }
        a.weight_f = actual_exec as f64 / a.period as f64;
    }

    /// Marks a task as retired (shed by recovery) at slot `t`: it stops
    /// accruing application lag, and only jobs due by `t` count against it
    /// in [`finalize`](Self::finalize).
    pub(crate) fn retire(&mut self, id: TaskId, t: Slot) {
        let a = &mut self.tasks[id.index()];
        a.retired_at = a.retired_at.or(Some(t));
    }

    /// Every tracked task, in id order.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Arrival slot of the task's current job.
    pub fn arrival(&self, id: TaskId) -> Slot {
        self.tasks[id.index()].arrival
    }

    /// Absolute deadline of the task's current job: one period past its
    /// (possibly burst-delayed) arrival.
    pub fn deadline(&self, id: TaskId) -> Slot {
        let a = &self.tasks[id.index()];
        a.arrival + a.period
    }

    /// Credits task `id` with one useful quantum in slot `t`. A quantum
    /// granted before the current job's arrival carries no application
    /// work. The job's overrun is drawn once, at the quantum its declared
    /// work finishes; a drawn overrun is returned as the
    /// [`TraceEvent::Overrun`] describing it. A job whose demand is met
    /// completes at `t + 1` and is late past its deadline.
    pub(crate) fn useful_quantum(
        &mut self,
        id: TaskId,
        t: Slot,
        hook: &mut dyn FaultHook,
    ) -> Option<TraceEvent> {
        let a = &mut self.tasks[id.index()];
        if t < a.arrival {
            return None;
        }
        a.useful_total += 1;
        a.done += 1;
        let mut overrun = None;
        if a.done == a.needed && !a.overrun_applied {
            a.overrun_applied = true;
            let extra = hook.overrun(id, a.job);
            if extra > 0 {
                a.needed += extra;
                self.metrics.overruns += 1;
                self.metrics.overrun_quanta += extra;
                overrun = Some(TraceEvent::Overrun {
                    slot: t,
                    task: id.0,
                    job: a.job,
                    extra,
                });
            }
        }
        if a.done >= a.needed {
            let deadline = a.arrival + a.period;
            self.metrics.jobs_completed += 1;
            if t + 1 > deadline {
                a.misses += 1;
                self.metrics.job_misses += 1;
                self.metrics.max_tardiness = self.metrics.max_tardiness.max(t + 1 - deadline);
            }
            a.job += 1;
            a.done = 0;
            a.needed = a.exec;
            a.overrun_applied = false;
            a.arrival = a.origin + a.job * a.period + hook.release_delay(id, a.job);
        }
        overrun
    }

    /// Closes slot `t`: records the maximum application lag
    /// (`wt·elapsed − useful_quanta`) over the tasks not retired — the
    /// overload signal — and folds it into the run's maximum.
    pub(crate) fn close_slot(&mut self, t: Slot) {
        self.last_max_lag = self
            .tasks
            .iter()
            .filter(|a| a.retired_at.is_none())
            .map(|a| {
                let elapsed = (t + 1).saturating_sub(a.origin) as f64;
                a.weight_f * elapsed - a.useful_total as f64
            })
            .reduce(f64::max)
            .unwrap_or(0.0);
        self.metrics.max_app_lag = self.metrics.max_app_lag.max(self.last_max_lag);
    }

    /// Maximum application lag observed in the most recently closed slot.
    pub(crate) fn current_max_lag(&self) -> f64 {
        self.last_max_lag
    }

    /// Closes out the accounting of a run that ended at `horizon`: counts
    /// every job that was due (deadline at or before the horizon, or the
    /// task's retirement) but never completed as a miss, and fills in
    /// [`FaultMetrics::jobs_due`]. Idempotent; returns the final metrics.
    pub(crate) fn finalize(&mut self, horizon: Slot, hook: &mut dyn FaultHook) -> FaultMetrics {
        if self.finalized {
            return self.metrics;
        }
        self.finalized = true;
        for (i, a) in self.tasks.iter_mut().enumerate() {
            let id = TaskId(i as u32);
            let cutoff = a.retired_at.unwrap_or(horizon);
            let mut due = 0u64;
            while a.origin + (due + 1) * a.period + hook.release_delay(id, due) <= cutoff {
                due += 1;
            }
            // Jobs 0..a.job completed (late ones already counted as
            // misses); due jobs beyond that never will.
            let unfinished = due.saturating_sub(a.job);
            a.misses += unfinished;
            self.metrics.jobs_due += due;
            self.metrics.job_misses += unfinished;
        }
        self.metrics
    }

    /// Task `id`'s job misses under the rule that fills
    /// [`FaultMetrics::job_misses`]: its late completions, plus — once the
    /// run is finalized — its due jobs that never finished.
    pub(crate) fn misses(&self, id: TaskId) -> u64 {
        self.tasks[id.index()].misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Overruns and per-job burst delays by `(task, job)`; logs every
    /// overrun query so tests can count the draws.
    #[derive(Default)]
    struct Script {
        overruns: std::collections::HashMap<(u32, u64), u64>,
        /// Burst delay of each job of every task (cumulated on query).
        bursts: Vec<u64>,
        overrun_queries: Vec<(u32, u64)>,
    }

    impl FaultHook for Script {
        fn slot_faults(&mut self, _t: Slot, _m: u32, _out: &mut SlotFaults) {}
        fn overrun(&mut self, task: TaskId, job: u64) -> u64 {
            self.overrun_queries.push((task.0, job));
            self.overruns.get(&(task.0, job)).copied().unwrap_or(0)
        }
        fn release_delay(&mut self, _task: TaskId, job: u64) -> u64 {
            self.bursts.iter().take(job as usize + 1).sum()
        }
    }

    #[test]
    fn overrun_is_drawn_once_per_job_when_declared_work_finishes() {
        let mut hook = Script::default();
        hook.overruns.insert((0, 0), 2);
        let mut ledger = JobLedger::default();
        ledger.push(2, 10, 0, &mut hook);
        // Quantum 1 of job 0: declared work unfinished, nothing is drawn.
        assert_eq!(ledger.useful_quantum(TaskId(0), 0, &mut hook), None);
        assert!(hook.overrun_queries.is_empty());
        // Quantum 2 finishes the declared work: the draw happens here.
        assert_eq!(
            ledger.useful_quantum(TaskId(0), 1, &mut hook),
            Some(TraceEvent::Overrun {
                slot: 1,
                task: 0,
                job: 0,
                extra: 2
            })
        );
        // The two extra quanta finish the job without a second draw.
        assert_eq!(ledger.useful_quantum(TaskId(0), 2, &mut hook), None);
        assert_eq!(ledger.metrics.jobs_completed, 0);
        assert_eq!(ledger.useful_quantum(TaskId(0), 3, &mut hook), None);
        assert_eq!(ledger.metrics.jobs_completed, 1);
        assert_eq!(hook.overrun_queries, [(0, 0)]);
        // Job 1 arrives at slot 10 and draws its own (zero) overrun.
        ledger.useful_quantum(TaskId(0), 10, &mut hook);
        ledger.useful_quantum(TaskId(0), 11, &mut hook);
        assert_eq!(hook.overrun_queries, [(0, 0), (0, 1)]);
        let m = ledger.metrics;
        assert_eq!((m.overruns, m.overrun_quanta, m.jobs_completed), (1, 2, 2));
        assert_eq!(m.job_misses, 0);
    }

    #[test]
    fn deadline_is_arrival_plus_period_under_bursts() {
        let mut hook = Script {
            bursts: vec![0, 3, 0, 2],
            ..Script::default()
        };
        let (exec, period, origin) = (1u64, 4u64, 7u64);
        let mut ledger = JobLedger::default();
        ledger.push(exec, period, origin, &mut hook);
        for job in 0..6u64 {
            let delay = hook.release_delay(TaskId(0), job);
            // The form both simulators used before sharing the ledger.
            assert_eq!(ledger.arrival(TaskId(0)), origin + job * period + delay);
            assert_eq!(
                ledger.deadline(TaskId(0)),
                origin + (job + 1) * period + delay
            );
            // A quantum before the arrival carries no work; one at the
            // arrival completes the one-quantum job on time.
            let at = ledger.arrival(TaskId(0));
            ledger.useful_quantum(TaskId(0), at - 1, &mut hook);
            assert_eq!(ledger.metrics.jobs_completed, job);
            ledger.useful_quantum(TaskId(0), at, &mut hook);
            assert_eq!(ledger.metrics.jobs_completed, job + 1);
        }
        assert_eq!(ledger.metrics.job_misses, 0);
        // One slot past the deadline is a miss with tardiness 1.
        let late = ledger.deadline(TaskId(0));
        ledger.useful_quantum(TaskId(0), late, &mut hook);
        assert_eq!(ledger.metrics.job_misses, 1);
        assert_eq!(ledger.misses(TaskId(0)), 1);
        assert_eq!(ledger.metrics.max_tardiness, 1);
    }

    #[test]
    fn finalize_charges_unfinished_due_jobs_and_honours_retirement() {
        let mut hook = Script::default();
        let mut ledger = JobLedger::default();
        ledger.push(1, 5, 0, &mut hook); // runs to the horizon
        ledger.push(1, 5, 0, &mut hook); // retired at slot 12
        ledger.push(2, 5, 10, &mut hook); // joins at 10, never served
        for job in 0..3 {
            ledger.useful_quantum(TaskId(0), job * 5, &mut hook);
        }
        ledger.useful_quantum(TaskId(1), 0, &mut hook);
        ledger.retire(TaskId(1), 12);
        ledger.retire(TaskId(1), 30); // the first retirement stands
        ledger.close_slot(19);
        // Task 2 is owed 2/5 · 10 slots; the retired task accrues nothing.
        assert_eq!(ledger.current_max_lag(), 4.0);
        let fin = ledger.finalize(20, &mut hook);
        // Due by 20: four jobs of task 0 (three done), two of task 1 by
        // its retirement at 12 (one done), two of task 2 (none done).
        assert_eq!(fin.jobs_due, 4 + 2 + 2);
        assert_eq!(fin.job_misses, 1 + 1 + 2);
        let per_task: Vec<u64> = ledger.tasks().map(|id| ledger.misses(id)).collect();
        assert_eq!(per_task, [1, 1, 2]);
        assert_eq!(fin.jobs_completed, 4);
        assert_eq!(ledger.finalize(40, &mut hook), fin, "idempotent");
    }
}
