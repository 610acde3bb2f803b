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
    /// Processors the [`SlackPlan`] actually ran on.
    pub procs: u32,
    /// Total *declared* (inflated) utilization handed to the scheduler.
    pub declared_util: f64,
    /// The lag-threshold recovery profile.
    pub profile: RecoveryProfile,
    /// The declared-set schedule with its fault/recovery events, for
    /// offline re-verification via `verify_trace` (`Some` iff asked for).
    pub trace: Option<ScheduleTrace>,
}

/// Reservation strategy for the slack-reservation experiment (the
/// paper's §6 future work): the degradation sweep showed WCET overruns are
/// *structural* for PD² — the scheduler serves exactly the declared
/// weight, so a lag watchdog sees no scheduler-level backlog to act on.
/// The remedy is to buy slack up front, either as whole spare processors
/// (run at `M + spare_procs`) or as a per-task weight margin (declare
/// `ceil(e·(1+margin))`, capped at the period, while jobs still demand
/// `e`), and measure how fast application lag re-converges once the
/// fault window closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackPlan {
    /// Spare processors beyond the inflated set's minimum.
    pub spare_procs: u32,
    /// Per-task weight-inflation margin (0.25 = +25 % declared cost).
    pub margin: f64,
    /// Application-lag level above which a slot counts as degraded.
    pub lag_threshold: f64,
}

impl SlackPlan {
    /// No reservation at all: schedule the set as declared on its minimum
    /// processor count — the degradation baseline.
    pub fn none(lag_threshold: f64) -> Self {
        SlackPlan {
            spare_procs: 0,
            margin: 0.0,
            lag_threshold,
        }
    }
}

/// Per-slot application-lag profile of a run: how long, how often, and
/// how late the maximum app lag sat above the [`SlackPlan`] threshold.
/// "Recovery time" is the episode length — a fault window pushes lag over
/// the threshold, the reserved slack works it back under.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryProfile {
    /// Slots with max application lag above the threshold.
    pub degraded_slots: u64,
    /// Maximal runs of consecutive degraded slots.
    pub episodes: u64,
    /// Length of the longest episode (the worst recovery time).
    pub longest_episode: u64,
    /// First slot that went degraded, if any.
    pub first_degraded: Option<Slot>,
    /// Slot at which lag last returned under the threshold, if it did.
    pub last_recovery: Option<Slot>,
    /// Whether the run *ended* degraded (never recovered).
    pub degraded_at_end: bool,
}

impl RecoveryProfile {
    /// Mean episode length (recovery time) in slots; 0 with no episodes.
    pub fn mean_episode(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.degraded_slots as f64 / self.episodes as f64
        }
    }
}

/// The inflated *declared* task set a [`SlackPlan`] margin buys: each
/// cost becomes `ceil(e·(1+margin))`, capped at the period (weights stay
/// ≤ 1). `margin = 0` returns the set unchanged.
pub fn inflate_declared(tasks: &TaskSet, margin: f64) -> TaskSet {
    assert!(margin >= 0.0, "a negative margin is not a reservation");
    let pairs: Vec<(u64, u64)> = tasks
        .iter()
        .map(|(_, t)| {
            let inflated = (t.exec as f64 * (1.0 + margin)).ceil() as u64;
            (inflated.clamp(t.exec, t.period), t.period)
        })
        .collect();
    TaskSet::from_pairs(pairs).expect("inflation caps each cost at its period")
}

/// Runs PD² for `horizon` slots over the reservation `slack` buys for
/// `tasks` — the margin-inflated set on its minimum processor count plus
/// the spares; [`SlackPlan::none`] is the set as declared — under the plan
/// drawn from `cfg`, with `policy` recovery applied at every slot
/// boundary, while the application layer demands only the true costs.
///
/// Faults never corrupt the *scheduler* (they only steal useful work from
/// the dispatched quanta), so the recorded decisions are always fed
/// through an [`IncrementalWindowCheck`] against the *declared* set's
/// windows (the reservation is what the scheduler must serve fairly).
/// Runs that perturb the schedule — arrival bursts (IS windows shift),
/// shedding (departures), rejoins (fresh shifted windows), ER catch-up
/// (relaxed releases) — are checked against their event-adjusted windows;
/// any reported violation is a simulator or recovery bug, not a fault
/// effect.
///
/// The returned [`RecoveryProfile`] says how long application lag sat
/// above [`SlackPlan::lag_threshold`] — with a fault window
/// ([`FaultConfig::window_start`]/[`window_end`](FaultConfig::window_end))
/// that closes before the horizon, the profile measures post-fault
/// recovery time directly. With `want_trace` the outcome also carries the
/// run's [`ScheduleTrace`].
pub fn run_pd2(
    tasks: &TaskSet,
    cfg: FaultConfig,
    policy: RecoveryPolicy,
    horizon: Slot,
    slack: SlackPlan,
    want_trace: bool,
) -> DegradationOutcome {
    let declared = inflate_declared(tasks, slack.margin);
    let m = declared.min_processors() + slack.spare_procs;
    let plan = FaultPlan::new(cfg);
    let bursts = plan.burst_events(&declared, horizon);
    let mut ctl = RecoveryController::new(plan.clone(), &declared, m, policy);
    // Bursts reach the scheduler as IS delays *and* the application layer
    // as shifted arrivals/deadlines, from the same draws (at a zero burst
    // rate the delay model delays nothing).
    let sched = PfairScheduler::with_delays(&declared, SchedConfig::pd2(m), plan.delays(&declared));
    let mut sim = MultiSim::with_scheduler(&declared, sched);
    // The scheduler serves the *declared* (inflated) set — windows,
    // weights, and verification all follow the reservation — while the
    // ledger is pointed back at the true per-job demand, so the surplus
    // quanta are the slack the faults have to eat through.
    let ledger = sim.set_fault_hook(Box::new(plan));
    for (id, actual) in tasks.iter() {
        ledger.set_demand(id, actual.exec);
    }
    sim.record_events();
    if want_trace {
        sim.record_schedule();
        // The trace carries the job-keyed burst record so the offline
        // verifier can reconstruct the same shifted windows.
        for ev in &bursts {
            sim.push_event(*ev);
        }
    }
    let mut check = IncrementalWindowCheck::new(&declared);
    for ev in &bursts {
        check.apply_event(ev);
    }
    let mut window_violation = None;
    let mut profile = RecoveryProfile::default();
    let mut episode_len = 0u64;
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
        if sim.current_max_app_lag() > slack.lag_threshold {
            profile.degraded_slots += 1;
            if episode_len == 0 {
                profile.episodes += 1;
                profile.first_degraded.get_or_insert(t);
            }
            episode_len += 1;
            profile.longest_episode = profile.longest_episode.max(episode_len);
        } else if episode_len > 0 {
            episode_len = 0;
            profile.last_recovery = Some(t);
        }
    }
    profile.degraded_at_end = episode_len > 0;
    DegradationOutcome {
        faults: sim.finalize_faults(),
        run: sim.metrics(),
        recovery: (policy != RecoveryPolicy::None).then_some(ctl.stats()),
        window_violation,
        procs: m,
        declared_util: declared.total_utilization().to_f64(),
        profile,
        trace: want_trace
            .then(|| ScheduleTrace::capture(&declared, &sim).expect("recording was enabled above")),
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

    /// The set as declared, on its minimum processor count, no trace.
    fn run_bare(
        tasks: &TaskSet,
        cfg: FaultConfig,
        policy: RecoveryPolicy,
        horizon: Slot,
    ) -> DegradationOutcome {
        run_pd2(tasks, cfg, policy, horizon, SlackPlan::none(1.0), false)
    }

    #[test]
    fn fault_free_run_is_clean_and_verified() {
        let out = run_bare(&tasks(), FaultConfig::none(0), RecoveryPolicy::None, 420);
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
        let out = run_bare(&tasks(), cfg, RecoveryPolicy::None, 420);
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
        let out = run_bare(&heavy, FaultConfig::none(0), RecoveryPolicy::None, 300);
        assert_eq!(out.faults.job_misses, 0, "{:?}", out.faults);
    }

    #[test]
    fn burst_runs_verify_against_shifted_is_windows() {
        let cfg = FaultConfig {
            burst_rate: 0.4,
            burst_max: 3,
            ..FaultConfig::none(17)
        };
        let out = run_bare(&tasks(), cfg, RecoveryPolicy::None, 420);
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
            let out = run_bare(&tasks(), cfg, policy, 420);
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
        let out = run_pd2(
            &tasks(),
            cfg,
            RecoveryPolicy::Full,
            420,
            SlackPlan::none(1.0),
            true,
        );
        assert!(out.window_violation.is_none(), "{:?}", out.window_violation);
        let trace = out.trace.expect("a trace was asked for");
        assert!(trace.is_perturbed(), "bursts must appear in the events");
        let json = trace.to_json();
        let back = ScheduleTrace::from_json(&json).expect("trace JSON round-trips");
        assert_eq!(back, trace);
        back.verify().expect("archived faulted trace re-verifies");
    }

    #[test]
    fn inflate_declared_caps_and_rounds_up() {
        let set = TaskSet::from_pairs([(1u64, 2u64), (3, 5), (7, 7)]).unwrap();
        let inflated = inflate_declared(&set, 0.25);
        let pairs: Vec<(u64, u64)> = inflated.iter().map(|(_, t)| (t.exec, t.period)).collect();
        // ceil(1·1.25) = 2, ceil(3·1.25) = 4, ceil(7·1.25) = 9 capped at 7.
        assert_eq!(pairs, vec![(2, 2), (4, 5), (7, 7)]);
        let same = inflate_declared(&set, 0.0);
        assert_eq!(
            same.iter()
                .map(|(_, t)| (t.exec, t.period))
                .collect::<Vec<_>>(),
            vec![(1, 2), (3, 5), (7, 7)]
        );
    }

    /// A windowed fault storm — overruns plus a recurring one-processor
    /// outage — that stops at slot 200; the rest of the horizon shows
    /// whether (and how fast) the reservation works the lag back off.
    fn storm_window(seed: u64) -> FaultConfig {
        FaultConfig {
            overrun_rate: 0.5,
            overrun_max: 2,
            fail_every: 50,
            fail_duration: 25,
            max_down: 1,
            window_start: 0,
            window_end: 200,
            ..FaultConfig::none(seed)
        }
    }

    #[test]
    fn slack_baseline_matches_plain_run_shape() {
        // margin 0 + no spares = the plain degradation run on min procs.
        let set = tasks();
        let out = run_bare(&set, FaultConfig::none(3), RecoveryPolicy::None, 420);
        assert_eq!(out.procs, set.min_processors());
        assert!(out.window_violation.is_none());
        assert!(out.trace.is_none());
        assert_eq!(out.profile.degraded_slots, 0, "{:?}", out.profile);
        assert!(!out.profile.degraded_at_end);
    }

    #[test]
    fn margin_reservation_recovers_where_baseline_lags() {
        let set = tasks();
        let base = run_bare(&set, storm_window(11), RecoveryPolicy::None, 600);
        let margin = run_pd2(
            &set,
            storm_window(11),
            RecoveryPolicy::None,
            600,
            SlackPlan {
                spare_procs: 0,
                margin: 0.5,
                lag_threshold: 1.0,
            },
            false,
        );
        // The reservation must not be weaker than running bare, and the
        // schedule stays window-verified in both configurations.
        assert!(base.window_violation.is_none());
        assert!(margin.window_violation.is_none());
        assert!(margin.declared_util > base.declared_util);
        assert!(
            margin.profile.degraded_slots <= base.profile.degraded_slots,
            "margin {:?} vs base {:?}",
            margin.profile,
            base.profile
        );
        // Overruns are structural at full load: the unreserved run ends
        // degraded, the +50 % margin run works the lag back under the
        // threshold after the fault window closes at slot 200.
        assert!(base.profile.degraded_slots > 0, "{:?}", base.profile);
        assert!(!margin.profile.degraded_at_end, "{:?}", margin.profile);
    }

    #[test]
    fn spare_processor_needs_catchup_to_drain() {
        // A spare processor reduces how much lag the outage inflicts, but
        // plain PD² is not work-conserving: it keeps serving exactly the
        // declared weights, so whatever lag did accrue never drains.
        // ERfair catch-up is what turns the spare capacity into recovery.
        let set = tasks();
        let plan = SlackPlan {
            spare_procs: 1,
            margin: 0.0,
            lag_threshold: 1.0,
        };
        let passive = run_pd2(
            &set,
            storm_window(11),
            RecoveryPolicy::None,
            600,
            plan,
            false,
        );
        assert_eq!(passive.procs, set.min_processors() + 1);
        assert!(passive.window_violation.is_none());
        let caught = run_pd2(
            &set,
            storm_window(11),
            RecoveryPolicy::CatchUp,
            600,
            plan,
            false,
        );
        assert_eq!(caught.procs, set.min_processors() + 1);
        assert!(caught.window_violation.is_none());
        assert!(
            caught.profile.degraded_slots <= passive.profile.degraded_slots,
            "catch-up {:?} vs passive {:?}",
            caught.profile,
            passive.profile
        );
        assert!(!caught.profile.degraded_at_end, "{:?}", caught.profile);
    }

    #[test]
    fn slack_trace_reverifies_offline() {
        let out = run_pd2(
            &tasks(),
            storm_window(7),
            RecoveryPolicy::None,
            300,
            SlackPlan {
                spare_procs: 0,
                margin: 0.25,
                lag_threshold: 1.0,
            },
            true,
        );
        assert!(out.window_violation.is_none());
        let trace = out.trace.expect("a trace was asked for");
        let back = ScheduleTrace::from_json(&trace.to_json()).expect("round-trip");
        back.verify().expect("slack trace re-verifies offline");
    }

    #[test]
    fn tampered_faulted_trace_is_rejected() {
        let cfg = FaultConfig {
            fail_every: 30,
            fail_duration: 10,
            max_down: 1,
            ..FaultConfig::none(9)
        };
        let out = run_pd2(
            &tasks(),
            cfg,
            RecoveryPolicy::Shed,
            200,
            SlackPlan::none(1.0),
            true,
        );
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
