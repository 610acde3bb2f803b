//! Overload recovery driven by a [`FaultPlan`].
//!
//! The loop that drives a [`MultiSim`] calls
//! [`RecoveryController::before_slot`] ahead of every
//! [`MultiSim::step`] — the slot boundary, where `join`/`leave`/capacity
//! changes are legal ([`run_pd2`](crate::run_pd2) is that loop). Once per
//! slot the controller recomputes the plan's fail-stop capacity (clones of
//! a plan agree on every draw, so its view matches what the simulator
//! will experience) and applies the configured [`RecoveryPolicy`]:
//!
//! * **capacity tracking** —
//!   [`set_processors`](pfair_core::PfairScheduler::set_processors)
//!   follows the number of live processors, so the scheduler stops
//!   over-selecting tasks that the dead processors would silently drop;
//! * **load shedding** — when `Σ wt` exceeds live capacity,
//!   [`plan_shedding`] picks the heaviest tasks, which leave under the
//!   paper's safe leave rule and are queued for rejoin;
//! * **rejoin** — shed tasks retry
//!   [`join`](pfair_core::PfairScheduler::join) every slot; admission
//!   succeeds once the departed weight frees and capacity returns;
//! * **ERfair catch-up** — a [`LagWatchdog`] over the per-slot maximum
//!   application lag trips into [`EarlyRelease::Unrestricted`]; the
//!   backlog is *drained* once lag falls back under the low-water mark.
//!
//! Every intervention is recorded through [`MultiSim::push_event`] (a
//! no-op unless [`MultiSim::record_events`] is enabled), so traces of
//! recovered runs carry the shed/rejoin/catch-up/capacity record the
//! event-aware verifier needs.
//!
//! Catch-up is **sticky**: the eligibility rule is never restored to
//! plain Pfair. The scheduler is fault-oblivious — lost quanta advance
//! its subtask positions without doing application work, so after a fault
//! its positions permanently lead the application by exactly the lost
//! work. Under ERfair that lead is harmless (eligibility is immediate, so
//! tasks run whenever capacity is free), but reverting to plain Pfair
//! releases would starve every task until wall-clock time caught up with
//! its advanced positions, re-creating the very backlog that was just
//! drained. The watchdog therefore only ever widens eligibility.

use pfair_core::{plan_shedding, DelayModel, EarlyRelease, JoinError, LagWatchdog, PfairScheduler};
use pfair_model::{Slot, Task, TaskId};
use sched_sim::{MultiSim, TraceEvent};

use crate::plan::FaultPlan;

/// What the controller is allowed to do when faults bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Observe only: no scheduler intervention (the baseline the
    /// degradation experiment compares against).
    #[default]
    None,
    /// Track capacity and shed/rejoin load on processor failure.
    Shed,
    /// ERfair catch-up on lag-watchdog trips (no shedding).
    CatchUp,
    /// Both shedding and catch-up.
    Full,
}

/// `none`, `shed`, `catchup` or `full` — the `--recovery` flag.
impl std::str::FromStr for RecoveryPolicy {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(RecoveryPolicy::None),
            "shed" => Ok(RecoveryPolicy::Shed),
            "catchup" => Ok(RecoveryPolicy::CatchUp),
            "full" => Ok(RecoveryPolicy::Full),
            _ => Err("expected none|shed|catchup|full"),
        }
    }
}

impl RecoveryPolicy {
    fn sheds(self) -> bool {
        matches!(self, RecoveryPolicy::Shed | RecoveryPolicy::Full)
    }

    fn catches_up(self) -> bool {
        matches!(self, RecoveryPolicy::CatchUp | RecoveryPolicy::Full)
    }
}

/// Counters describing the controller's interventions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Times the scheduler's processor count was adjusted.
    pub capacity_changes: u64,
    /// Shedding rounds that removed at least one task.
    pub shed_events: u64,
    /// Total tasks shed.
    pub tasks_shed: u64,
    /// Rejoin attempts (successful or not).
    pub rejoin_attempts: u64,
    /// Tasks successfully re-admitted.
    pub rejoins: u64,
    /// Lag-watchdog trips that engaged ERfair catch-up.
    pub catchup_trips: u64,
    /// Slots spent in catch-up mode.
    pub catchup_slots: u64,
}

/// Per-slot recovery driver; see the module docs for the policy actions.
#[derive(Debug)]
pub struct RecoveryController {
    plan: FaultPlan,
    /// Physical processor count (the simulator's dispatch width).
    m: u32,
    policy: RecoveryPolicy,
    watchdog: LagWatchdog,
    /// A drain completes when max application lag falls to this level.
    low_water: f64,
    /// ERfair eligibility has been engaged (sticky; see module docs).
    engaged: bool,
    /// Currently draining a backlog (engaged and lag above low water).
    draining: bool,
    /// Shed tasks (original parameters) waiting to be re-admitted.
    pending: Vec<Task>,
    /// Original task parameters by [`TaskId`] index, extended on rejoin —
    /// needed because [`weight_of`](pfair_core::PfairScheduler::weight_of)
    /// is in lowest terms.
    task_of: Vec<Task>,
    last_capacity: u32,
    stats: RecoveryStats,
}

impl RecoveryController {
    /// Default watchdog: trip after 3 consecutive slots of lag > 2.0,
    /// disengage at lag ≤ 1.0 (the fault-free Pfair bound).
    pub fn new(
        plan: FaultPlan,
        tasks: &pfair_model::TaskSet,
        m: u32,
        policy: RecoveryPolicy,
    ) -> Self {
        RecoveryController {
            plan,
            m,
            policy,
            watchdog: LagWatchdog::new(2.0, 3),
            low_water: 1.0,
            engaged: false,
            draining: false,
            pending: Vec::new(),
            task_of: tasks.iter().map(|(_, t)| *t).collect(),
            last_capacity: m,
            stats: RecoveryStats::default(),
        }
    }

    /// Overrides the watchdog trip threshold / streak and the low-water
    /// mark at which catch-up disengages.
    pub fn with_watchdog(mut self, threshold: f64, trip_after: u64, low_water: f64) -> Self {
        self.watchdog = LagWatchdog::new(threshold, trip_after);
        self.low_water = low_water;
        self
    }

    /// Intervention counters so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Tasks currently shed and awaiting re-admission.
    pub fn pending_rejoins(&self) -> usize {
        self.pending.len()
    }

    /// True while a backlog is actively being drained (tripped, and lag
    /// has not yet fallen back under the low-water mark).
    pub fn catching_up(&self) -> bool {
        self.draining
    }

    /// Applies the policy for slot `t`. Call it *before* the `step` of
    /// each slot (`join`/`leave` are only legal at the scheduler's
    /// current slot).
    pub fn before_slot<D: DelayModel>(&mut self, sim: &mut MultiSim<PfairScheduler<D>>, t: Slot) {
        if self.policy == RecoveryPolicy::None {
            return;
        }
        if self.policy.sheds() {
            let capacity = self.m - self.plan.down_count_at(t, self.m).min(self.m);
            if capacity != self.last_capacity {
                sim.scheduler_mut().set_processors(capacity);
                sim.push_event(TraceEvent::Capacity {
                    slot: t,
                    processors: capacity,
                });
                self.stats.capacity_changes += 1;
                self.last_capacity = capacity;
            }
            self.shed_overload(sim, t, capacity);
            self.try_rejoins(sim, t, capacity);
        }
        if self.policy.catches_up() {
            self.drive_catchup(sim, t);
        }
    }

    fn shed_overload<D: DelayModel>(
        &mut self,
        sim: &mut MultiSim<PfairScheduler<D>>,
        t: Slot,
        capacity: u32,
    ) {
        let sched = sim.scheduler();
        if sched.total_weight().to_f64() <= f64::from(capacity) + 1e-9 {
            return;
        }
        let active: Vec<(TaskId, f64)> = (0..sched.task_count() as u32)
            .map(TaskId)
            .filter(|&id| sched.is_active(id))
            .map(|id| (id, sched.weight_of(id).to_f64()))
            .collect();
        let victims = plan_shedding(&active, capacity);
        if victims.is_empty() {
            return;
        }
        self.stats.shed_events += 1;
        for id in victims {
            let task = self.task_of[id.index()];
            sim.scheduler_mut()
                .leave(id, t)
                .expect("shedding only targets active tasks");
            sim.retire_task(id, t);
            sim.push_event(TraceEvent::Shed {
                slot: t,
                task: id.0,
            });
            self.pending.push(task);
            self.stats.tasks_shed += 1;
        }
    }

    fn try_rejoins<D: DelayModel>(
        &mut self,
        sim: &mut MultiSim<PfairScheduler<D>>,
        t: Slot,
        capacity: u32,
    ) {
        if self.pending.is_empty() || capacity < self.m {
            return; // wait for full capacity before re-admitting load
        }
        let mut still_pending = Vec::new();
        for task in std::mem::take(&mut self.pending) {
            self.stats.rejoin_attempts += 1;
            match sim.scheduler_mut().join(task, t) {
                Ok(new_id) => {
                    sim.register_task(new_id, task);
                    sim.push_event(TraceEvent::Rejoin {
                        slot: t,
                        task: new_id.0,
                        exec: task.exec,
                        period: task.period,
                    });
                    debug_assert_eq!(new_id.index(), self.task_of.len());
                    self.task_of.push(task);
                    self.stats.rejoins += 1;
                }
                // Overload: departed weight not freed yet (safe leave
                // rule) — retry next slot. WrongSlot cannot happen here
                // (rejoins run at the slot boundary, before `tick`).
                Err(JoinError::Overload) => still_pending.push(task),
                Err(JoinError::WrongSlot) => {
                    unreachable!("rejoins run at the scheduler's current slot")
                }
            }
        }
        self.pending = still_pending;
    }

    fn drive_catchup<D: DelayModel>(&mut self, sim: &mut MultiSim<PfairScheduler<D>>, t: Slot) {
        let lag = sim.current_max_app_lag();
        if self.watchdog.observe(t, lag) {
            self.stats.catchup_trips += 1;
            self.draining = true;
            if !self.engaged {
                self.engaged = true;
                sim.scheduler_mut()
                    .set_early_release(EarlyRelease::Unrestricted);
                sim.push_event(TraceEvent::CatchUp { slot: t });
            }
        }
        if self.draining {
            self.stats.catchup_slots += 1;
            if lag <= self.low_water {
                // Backlog drained; re-arm the watchdog for the next fault
                // (ERfair stays on — see module docs).
                self.draining = false;
                self.watchdog.reset();
            }
        }
    }
}
