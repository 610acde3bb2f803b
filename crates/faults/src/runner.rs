//! One-call degradation runners: a task set, a fault plan, a recovery
//! policy, a horizon — out come comparable PD² and partitioned-EDF
//! fault metrics for the experiments layer.
//!
//! Every PD² run is window-verified, whatever the policy: [`run_pd2`]
//! feeds the scheduler's per-slot decisions through an
//! [`IncrementalWindowCheck`] primed with the same fault/recovery events
//! the simulator records ([`FaultPlan::burst_events`] up front, the
//! [`RecoveryController`]'s shed/rejoin/catch-up events as they happen),
//! so the checker tracks the IS window shifts, departures, and ERfair
//! relaxations instead of going blind the moment a run is perturbed.
//! Asked for a trace, it additionally captures a [`ScheduleTrace`] whose
//! `events` field lets `verify_trace` repeat the same check offline.

use pfair_core::{PfairScheduler, SchedConfig};
use pfair_model::{Slot, TaskSet};
use sched_sim::{
    FaultMetrics, IncrementalWindowCheck, MultiSim, RunMetrics, ScheduleTrace, WindowViolation,
};

use crate::edf::PartitionedEdf;
use crate::plan::{FaultConfig, FaultPlan};
use crate::recovery::{RecoveryController, RecoveryPolicy, RecoveryStats};

/// Everything one simulated PD² degradation run produces.
#[derive(Debug, Clone)]
pub struct DegradationOutcome {
    /// Fault/miss metrics (finalized over the horizon).
    pub faults: FaultMetrics,
    /// The engine's dispatch metrics (preemptions, migrations, …).
    pub run: RunMetrics,
    /// Recovery interventions (`None` for [`RecoveryPolicy::None`]).
    pub recovery: Option<RecoveryStats>,
    /// First Pfair window violation. Every run is checked — faulted,
    /// recovered, and burst-delayed runs against their event-adjusted
    /// windows — so `None` always means "verified clean", never
    /// "not checkable".
    pub window_violation: Option<WindowViolation>,
    /// The schedule with its fault/recovery events, for offline
    /// re-verification via `verify_trace` (`Some` iff asked for).
    pub trace: Option<ScheduleTrace>,
}

/// Runs PD² for `horizon` slots over `tasks` on its minimum processor
/// count, under the plan drawn from `cfg`, with `policy` recovery applied
/// at every slot boundary.
///
/// Faults never corrupt the *scheduler* (they only steal useful work from
/// the dispatched quanta), so the recorded decisions are always fed
/// through an [`IncrementalWindowCheck`] against the set's windows. Runs
/// that perturb the schedule — arrival bursts (IS windows shift),
/// shedding (departures), rejoins (fresh shifted windows), ER catch-up
/// (relaxed releases) — are checked against their event-adjusted windows;
/// any reported violation is a simulator or recovery bug, not a fault
/// effect. With `want_trace` the outcome also carries the run's
/// [`ScheduleTrace`].
pub fn run_pd2(
    tasks: &TaskSet,
    cfg: FaultConfig,
    policy: RecoveryPolicy,
    horizon: Slot,
    want_trace: bool,
) -> DegradationOutcome {
    let m = tasks.min_processors();
    let plan = FaultPlan::new(cfg);
    let bursts = plan.burst_events(tasks, horizon);
    let mut ctl = RecoveryController::new(plan.clone(), tasks, m, policy);
    // Bursts reach the scheduler as IS delays *and* the application layer
    // as shifted arrivals/deadlines, from the same draws (at a zero burst
    // rate the delay model delays nothing).
    let sched = PfairScheduler::with_delays(tasks, SchedConfig::pd2(m), plan.delays(tasks));
    let mut sim = MultiSim::with_scheduler(tasks, sched);
    sim.set_fault_hook(Box::new(plan));
    sim.record_events();
    if want_trace {
        sim.record_schedule();
        // The trace carries the job-keyed burst record so the offline
        // verifier can reconstruct the same shifted windows.
        for ev in &bursts {
            sim.push_event(*ev);
        }
    }
    let mut check = IncrementalWindowCheck::new(tasks);
    for ev in &bursts {
        check.apply_event(ev);
    }
    let mut window_violation = None;
    // Events recorded so far (the bursts pushed above) are already
    // applied; only drain what each slot appends.
    let mut seen = sim.events().len();
    for t in 0..horizon {
        ctl.before_slot(&mut sim, t);
        sim.step();
        // Recovery events (shed / rejoin / catch-up) recorded at the slot
        // boundary must reach the checker before that slot's picks are
        // judged.
        for ev in &sim.events()[seen..] {
            check.apply_event(ev);
        }
        seen = sim.events().len();
        if let Err(v) = check.observe_slot(sim.last_chosen()) {
            window_violation.get_or_insert(v);
        }
    }
    DegradationOutcome {
        faults: sim.finalize_faults(),
        run: sim.metrics(),
        recovery: (policy != RecoveryPolicy::None).then_some(ctl.stats()),
        window_violation,
        trace: want_trace
            .then(|| ScheduleTrace::capture(tasks, &sim).expect("recording was enabled above")),
    }
}

/// Runs partitioned quantum EDF (first-fit decreasing) under the same
/// plan, through the same slot loop and job ledger as [`run_pd2`]. Returns
/// `None` when the set does not partition onto `m` processors — an
/// admission loss the caller should report as such.
pub fn run_edf(tasks: &TaskSet, m: u32, cfg: FaultConfig, horizon: Slot) -> Option<FaultMetrics> {
    let mut sim = MultiSim::with_policy(tasks, m, PartitionedEdf::pack(tasks, m)?);
    sim.set_fault_hook(Box::new(FaultPlan::new(cfg)));
    sim.run(horizon);
    Some(sim.finalize_faults())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::TraceEvent;

    fn tasks() -> TaskSet {
        TaskSet::from_pairs([(1u64, 2u64), (1, 3), (2, 5), (1, 4), (3, 7)]).unwrap()
    }

    #[test]
    fn fault_free_run_is_clean_and_verified() {
        let out = run_pd2(
            &tasks(),
            FaultConfig::none(0),
            RecoveryPolicy::None,
            420,
            false,
        );
        assert_eq!(out.faults.job_misses, 0, "{:?}", out.faults);
        assert!(out.window_violation.is_none());
        assert!(out.recovery.is_none());
        assert!(out.faults.jobs_due > 0);
    }

    #[test]
    fn losses_degrade_pd2_but_schedule_stays_pfair() {
        let cfg = FaultConfig {
            loss_rate: 0.3,
            ..FaultConfig::none(42)
        };
        let out = run_pd2(&tasks(), cfg, RecoveryPolicy::None, 420, false);
        assert!(out.faults.wasted_quanta > 0);
        assert!(out.faults.job_misses > 0, "{:?}", out.faults);
        // The *scheduler's* decisions remain a valid Pfair schedule.
        assert!(out.window_violation.is_none());
    }

    #[test]
    fn edf_runner_reports_admission_failure_as_none() {
        let heavy = TaskSet::from_pairs([(2u64, 3u64), (2, 3), (2, 3)]).unwrap();
        assert!(run_edf(&heavy, 2, FaultConfig::none(0), 100).is_none());
        // PD² schedules the same set (Σwt = 2 = M) without misses.
        let out = run_pd2(
            &heavy,
            FaultConfig::none(0),
            RecoveryPolicy::None,
            300,
            false,
        );
        assert_eq!(out.faults.job_misses, 0, "{:?}", out.faults);
    }

    #[test]
    fn burst_runs_verify_against_shifted_is_windows() {
        let cfg = FaultConfig {
            burst_rate: 0.4,
            burst_max: 3,
            ..FaultConfig::none(17)
        };
        let out = run_pd2(&tasks(), cfg, RecoveryPolicy::None, 420, false);
        // Bursts postpone deadlines as well as arrivals; a feasible set
        // stays feasible under the IS model (paper, Theorem 1).
        assert_eq!(out.faults.job_misses, 0, "{:?}", out.faults);
        // The checker followed the shifted IS windows — this is a real
        // verified verdict, not a skipped check.
        assert!(out.window_violation.is_none(), "{:?}", out.window_violation);
    }

    #[test]
    fn every_recovery_policy_is_window_checked_clean() {
        let cfg = FaultConfig {
            fail_every: 40,
            fail_duration: 6,
            max_down: 1,
            loss_rate: 0.05,
            ..FaultConfig::none(5)
        };
        for policy in [
            RecoveryPolicy::None,
            RecoveryPolicy::Shed,
            RecoveryPolicy::CatchUp,
            RecoveryPolicy::Full,
        ] {
            let out = run_pd2(&tasks(), cfg, policy, 420, false);
            assert!(
                out.window_violation.is_none(),
                "{policy:?}: {:?}",
                out.window_violation
            );
            if policy != RecoveryPolicy::None {
                let stats = out.recovery.expect("recovery stats for active policy");
                if policy == RecoveryPolicy::Shed || policy == RecoveryPolicy::Full {
                    assert!(stats.capacity_changes > 0, "{policy:?}: {stats:?}");
                }
            }
        }
    }

    #[test]
    fn faulted_trace_reverifies_offline() {
        let cfg = FaultConfig {
            fail_every: 50,
            fail_duration: 5,
            max_down: 1,
            loss_rate: 0.1,
            burst_rate: 0.3,
            burst_max: 2,
            ..FaultConfig::none(23)
        };
        let out = run_pd2(&tasks(), cfg, RecoveryPolicy::Full, 420, true);
        assert!(out.window_violation.is_none(), "{:?}", out.window_violation);
        let trace = out.trace.expect("a trace was asked for");
        assert!(trace.is_perturbed(), "bursts must appear in the events");
        let json = trace.to_json();
        let back = ScheduleTrace::from_json(&json).expect("trace JSON round-trips");
        assert_eq!(back, trace);
        back.verify().expect("archived faulted trace re-verifies");
    }

    #[test]
    fn tampered_faulted_trace_is_rejected() {
        let cfg = FaultConfig {
            fail_every: 30,
            fail_duration: 10,
            max_down: 1,
            ..FaultConfig::none(9)
        };
        let out = run_pd2(&tasks(), cfg, RecoveryPolicy::Shed, 200, true);
        assert!(out.window_violation.is_none(), "{:?}", out.window_violation);
        let mut trace = out.trace.expect("a trace was asked for");
        let shed_task = trace
            .events
            .iter()
            .find_map(|ev| match *ev {
                TraceEvent::Shed { task, .. } => Some(task),
                _ => None,
            })
            .expect("a 10-slot outage on a 1.9-weight set must shed");
        // Forge an allocation to the shed task after its departure: the
        // event-aware checker must flag the zombie pick.
        trace
            .slots
            .last_mut()
            .expect("non-empty schedule")
            .push(shed_task);
        assert!(trace.verify().is_err(), "tampered trace must be rejected");
    }
}
