//! Seeded, deterministic fault plans.
//!
//! A [`FaultPlan`] is a pure function from `(seed, query)` to fault
//! decisions: every draw hashes the seed together with the query
//! coordinates (processor and slot for slot faults, task and job for
//! overruns and bursts) through a SplitMix64 finalizer. That makes plans
//! *stateless* in the sense that matters for recovery: the
//! [`RecoveryController`](crate::RecoveryController) holds an independent
//! clone of the plan and computes the same fail-stop windows the simulator
//! sees, with no shared mutable state and no dependence on query order.

use pfair_core::sched::DelayModel;
use pfair_core::subtask::SubtaskIndex;
use pfair_model::{Slot, TaskId, TaskSet};
use sched_sim::{FaultHook, SlotFaults, TraceEvent};

/// Fault intensity knobs. All faults are off by default; rates are
/// probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for every random draw.
    pub seed: u64,
    /// Probability that a job overruns its declared WCET.
    pub overrun_rate: f64,
    /// Extra quanta per overrunning job: uniform in `1..=overrun_max`.
    pub overrun_max: u64,
    /// Per processor-slot probability that a dispatched quantum is wasted
    /// (quantum jitter / lost tick).
    pub loss_rate: f64,
    /// A processor fail-stop event starts every `fail_every` slots
    /// (0 disables fail-stop faults).
    pub fail_every: u64,
    /// How long each fail-stop event keeps its processor down.
    pub fail_duration: u64,
    /// At most this many processors down in any one slot.
    pub max_down: u32,
    /// Probability that a job's arrival is burst-delayed (IS model).
    pub burst_rate: f64,
    /// Extra delay per burst: uniform in `1..=burst_max` slots.
    pub burst_max: u64,
    /// Slot-keyed faults (loss, fail-stop) and overruns only fire inside
    /// `[window_start, window_end)`; used by re-convergence tests to stop
    /// injecting and watch lag recover. Bursts are job-keyed and ignore
    /// the window.
    pub window_start: Slot,
    /// Exclusive end of the fault window.
    pub window_end: Slot,
}

impl FaultConfig {
    /// The zero-fault plan: every rate 0, no fail-stop events.
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            overrun_rate: 0.0,
            overrun_max: 0,
            loss_rate: 0.0,
            fail_every: 0,
            fail_duration: 0,
            max_down: 0,
            burst_rate: 0.0,
            burst_max: 0,
            window_start: 0,
            window_end: Slot::MAX,
        }
    }
}

// Domain-separation constants for the hash draws (arbitrary odd values).
const K_OVERRUN: u64 = 0x9e37_79b9_7f4a_7c15;
const K_OVERRUN_MAG: u64 = 0xbf58_476d_1ce4_e5b9;
const K_LOSS: u64 = 0x94d0_49bb_1331_11eb;
const K_FAIL: u64 = 0xd6e8_feb8_6659_fd93;
const K_BURST: u64 = 0xa076_1d64_78bd_642f;
const K_BURST_MAG: u64 = 0xe703_7ed1_a0b4_28db;

/// SplitMix64 finalizer: avalanches every input bit across the output.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic fault plan (see module docs). Cheap to clone; clones
/// agree on every draw.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Most recent slot seen by `slot_faults` — gates job-keyed overruns
    /// to the fault window without changing any draw.
    t_now: Slot,
}

impl FaultPlan {
    /// Builds a plan from its config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg, t_now: 0 }
    }

    fn draw(&self, kind: u64, a: u64, b: u64) -> u64 {
        mix(self
            .cfg
            .seed
            .wrapping_add(kind)
            .wrapping_add(mix(a.wrapping_add(kind)))
            .wrapping_add(mix(b.wrapping_mul(0x2545_f491_4f6c_dd1d))))
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&self, kind: u64, a: u64, b: u64) -> f64 {
        (self.draw(kind, a, b) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn in_window(&self, t: Slot) -> bool {
        t >= self.cfg.window_start && t < self.cfg.window_end
    }

    /// Burst delay (slots) added to the arrival of `job` of `task`. Job 0
    /// always arrives synchronously (the scheduler releases a task's
    /// first subtask unconditionally at join time); bursts postpone the
    /// arrivals of subsequent jobs, as in the IS model.
    pub fn burst_delay(&self, task: TaskId, job: u64) -> u64 {
        if job == 0 || self.cfg.burst_rate <= 0.0 || self.cfg.burst_max == 0 {
            return 0;
        }
        if self.unit(K_BURST, u64::from(task.0), job) < self.cfg.burst_rate {
            1 + self.draw(K_BURST_MAG, u64::from(task.0), job) % self.cfg.burst_max
        } else {
            0
        }
    }

    /// Cumulative burst delay through `job` of `task` (the IS offset).
    fn cumulative_delay(&self, task: TaskId, job: u64) -> u64 {
        (0..=job).map(|j| self.burst_delay(task, j)).sum()
    }

    /// Appends the processors fail-stopped in slot `t` (at most
    /// `max_down`) to `out`. Event `k ≥ 1` starts at `k·fail_every`,
    /// lasts `fail_duration`, and takes down a hashed processor.
    fn downs_at(&self, t: Slot, m: u32, out: &mut Vec<u32>) {
        let every = self.cfg.fail_every;
        if every == 0 || m == 0 || self.cfg.max_down == 0 || !self.in_window(t) {
            return;
        }
        let dur = self.cfg.fail_duration.max(1);
        let k_hi = t / every;
        let k_lo = t.saturating_sub(dur - 1).div_ceil(every).max(1);
        for k in k_lo..=k_hi {
            let start = k * every;
            if start > t || t >= start + dur || !self.in_window(start) {
                continue;
            }
            let p = (self.draw(K_FAIL, k, 0) % u64::from(m)) as u32;
            if !out.contains(&p) && (out.len() as u32) < self.cfg.max_down {
                out.push(p);
            }
        }
    }

    /// Number of processors down in slot `t` — the recovery controller's
    /// view of capacity, identical to what the simulator experiences.
    pub(crate) fn down_count_at(&self, t: Slot, m: u32) -> u32 {
        let mut downs = Vec::new();
        self.downs_at(t, m, &mut downs);
        downs.len() as u32
    }

    /// Every non-zero burst draw that can matter within a `horizon`-slot
    /// run of `tasks`, as [`TraceEvent::Burst`] records for the trace /
    /// the event-aware window checker. The scheduler queues at most one
    /// subtask of a task per slot, so job `j` of a task with execution
    /// requirement `e` (first subtask index `j·e + 1`) cannot be reached
    /// before slot `j·e`; jobs beyond `horizon / e + 1` never surface.
    pub(crate) fn burst_events(&self, tasks: &TaskSet, horizon: Slot) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        if self.cfg.burst_rate <= 0.0 || self.cfg.burst_max == 0 {
            return out;
        }
        for (id, task) in tasks.iter() {
            for job in 1..=horizon / task.exec + 1 {
                let delay = self.burst_delay(id, job);
                if delay > 0 {
                    out.push(TraceEvent::Burst {
                        task: id.0,
                        job,
                        delay,
                    });
                }
            }
        }
        out
    }

    /// The arrival-burst side of the plan as a scheduler [`DelayModel`],
    /// for the given (initial) task set.
    pub(crate) fn delays(&self, tasks: &TaskSet) -> PlanDelays {
        PlanDelays {
            plan: FaultPlan::new(self.cfg),
            execs: tasks.iter().map(|(_, t)| t.exec).collect(),
        }
    }
}

impl FaultHook for FaultPlan {
    fn slot_faults(&mut self, t: Slot, m: u32, out: &mut SlotFaults) {
        self.t_now = t;
        self.downs_at(t, m, &mut out.down);
        if self.cfg.loss_rate > 0.0 && self.in_window(t) {
            for p in 0..m {
                if self.unit(K_LOSS, t, u64::from(p)) < self.cfg.loss_rate {
                    out.wasted.push(p);
                }
            }
        }
    }

    fn overrun(&mut self, task: TaskId, job: u64) -> u64 {
        if self.cfg.overrun_rate <= 0.0 || self.cfg.overrun_max == 0 || !self.in_window(self.t_now)
        {
            return 0;
        }
        if self.unit(K_OVERRUN, u64::from(task.0), job) < self.cfg.overrun_rate {
            1 + self.draw(K_OVERRUN_MAG, u64::from(task.0), job) % self.cfg.overrun_max
        } else {
            0
        }
    }

    fn release_delay(&mut self, task: TaskId, job: u64) -> u64 {
        self.cumulative_delay(task, job)
    }
}

/// The burst-arrival process of a [`FaultPlan`] as an intra-sporadic
/// [`DelayModel`]: job `j`'s first subtask is delayed by the plan's burst
/// draw for `(task, j)`, shifting the rest of the task's windows (offsets
/// are non-decreasing, as the IS model requires). Task ids beyond the
/// initial set are never delayed.
#[derive(Debug, Clone)]
pub(crate) struct PlanDelays {
    plan: FaultPlan,
    execs: Vec<u64>,
}

impl DelayModel for PlanDelays {
    fn delay(&mut self, task: TaskId, i: SubtaskIndex) -> u64 {
        let Some(&e) = self.execs.get(task.index()) else {
            return 0;
        };
        if (i - 1) % e != 0 {
            return 0; // not the first subtask of a job
        }
        self.plan.burst_delay(task, (i - 1) / e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_failstop() -> FaultConfig {
        FaultConfig {
            fail_every: 10,
            fail_duration: 3,
            max_down: 1,
            ..FaultConfig::none(7)
        }
    }

    #[test]
    fn zero_plan_never_faults() {
        let mut plan = FaultPlan::new(FaultConfig::none(123));
        let mut out = SlotFaults::default();
        for t in 0..500 {
            out.clear();
            plan.slot_faults(t, 8, &mut out);
            assert!(out.down.is_empty() && out.wasted.is_empty(), "slot {t}");
        }
        assert_eq!(plan.overrun(TaskId(0), 3), 0);
        assert_eq!(plan.release_delay(TaskId(2), 9), 0);
    }

    #[test]
    fn clones_agree_on_every_draw() {
        let cfg = FaultConfig {
            overrun_rate: 0.3,
            overrun_max: 4,
            loss_rate: 0.2,
            burst_rate: 0.25,
            burst_max: 5,
            ..cfg_failstop()
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = a.clone();
        let mut oa = SlotFaults::default();
        let mut ob = SlotFaults::default();
        for t in 0..200 {
            oa.clear();
            ob.clear();
            a.slot_faults(t, 4, &mut oa);
            b.slot_faults(t, 4, &mut ob);
            assert_eq!(oa.down, ob.down);
            assert_eq!(oa.wasted, ob.wasted);
            assert_eq!(a.down_count_at(t, 4), oa.down.len() as u32);
        }
        for task in 0..4u32 {
            for job in 0..20 {
                assert_eq!(a.overrun(TaskId(task), job), b.overrun(TaskId(task), job));
                assert_eq!(
                    a.release_delay(TaskId(task), job),
                    b.release_delay(TaskId(task), job)
                );
            }
        }
    }

    #[test]
    fn failstop_windows_follow_the_schedule() {
        let plan = FaultPlan::new(cfg_failstop());
        let mut out = Vec::new();
        // Event 1 covers slots 10..13, event 2 covers 20..23, …
        for t in [10u64, 11, 12, 20, 21, 22] {
            out.clear();
            plan.downs_at(t, 4, &mut out);
            assert_eq!(out.len(), 1, "slot {t}");
        }
        for t in [0u64, 9, 13, 19, 23] {
            out.clear();
            plan.downs_at(t, 4, &mut out);
            assert!(out.is_empty(), "slot {t}");
        }
    }

    #[test]
    fn max_down_caps_concurrent_failures() {
        let cfg = FaultConfig {
            fail_every: 2,
            fail_duration: 10, // events overlap heavily
            max_down: 2,
            ..FaultConfig::none(3)
        };
        let plan = FaultPlan::new(cfg);
        let mut out = Vec::new();
        for t in 0..100 {
            out.clear();
            plan.downs_at(t, 8, &mut out);
            assert!(out.len() <= 2, "slot {t}: {out:?}");
        }
    }

    #[test]
    fn window_gates_slot_faults() {
        let cfg = FaultConfig {
            loss_rate: 1.0,
            window_start: 50,
            window_end: 60,
            ..FaultConfig::none(1)
        };
        let mut plan = FaultPlan::new(cfg);
        let mut out = SlotFaults::default();
        for t in 0..100 {
            out.clear();
            plan.slot_faults(t, 2, &mut out);
            if (50..60).contains(&t) {
                assert_eq!(out.wasted.len(), 2, "slot {t}");
            } else {
                assert!(out.wasted.is_empty(), "slot {t}");
            }
        }
    }

    #[test]
    fn cumulative_delay_is_monotone() {
        let cfg = FaultConfig {
            burst_rate: 0.5,
            burst_max: 3,
            ..FaultConfig::none(9)
        };
        let plan = FaultPlan::new(cfg);
        let mut prev = 0;
        let mut any = false;
        for job in 0..50 {
            let c = plan.cumulative_delay(TaskId(1), job);
            assert!(c >= prev);
            any |= c > prev;
            prev = c;
        }
        assert!(any, "a 0.5 burst rate must delay something in 50 jobs");
    }

    #[test]
    fn burst_events_enumerate_the_plan_draws() {
        let cfg = FaultConfig {
            burst_rate: 0.4,
            burst_max: 2,
            ..FaultConfig::none(11)
        };
        let plan = FaultPlan::new(cfg);
        let tasks = TaskSet::from_pairs([(2u64, 6u64), (1, 4)]).unwrap();
        let events = plan.burst_events(&tasks, 40);
        assert!(!events.is_empty(), "0.4 rate over 40 slots must burst");
        for ev in &events {
            let TraceEvent::Burst { task, job, delay } = *ev else {
                panic!("burst_events emitted {ev:?}");
            };
            assert!(delay > 0);
            assert_eq!(delay, plan.burst_delay(TaskId(task), job));
            let exec = tasks.iter().nth(task as usize).unwrap().1.exec;
            assert!(job <= 40 / exec + 1, "job {job} unreachable in 40 slots");
        }
        // A zero-rate plan has no burst record.
        let quiet = FaultPlan::new(FaultConfig::none(11));
        assert!(quiet.burst_events(&tasks, 40).is_empty());
    }

    #[test]
    fn delay_model_matches_cumulative_draws() {
        let cfg = FaultConfig {
            burst_rate: 0.4,
            burst_max: 2,
            ..FaultConfig::none(11)
        };
        let plan = FaultPlan::new(cfg);
        let tasks = TaskSet::from_pairs([(2u64, 6u64), (1, 4)]).unwrap();
        let mut delays = plan.delays(&tasks);
        // Task 0 has e=2: subtasks 1,3,5,… open jobs 0,1,2,…
        let mut cum = 0;
        for job in 0..10 {
            let i = job * 2 + 1; // first subtask of `job`
            let d = delays.delay(TaskId(0), i);
            assert_eq!(d, plan.burst_delay(TaskId(0), job));
            assert_eq!(delays.delay(TaskId(0), i + 1), 0, "second subtask");
            cum += d;
            assert_eq!(cum, plan.cumulative_delay(TaskId(0), job));
        }
        // Unknown (joined) ids are never delayed.
        assert_eq!(delays.delay(TaskId(9), 1), 0);
    }
}
