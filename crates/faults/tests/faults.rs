//! Cross-crate robustness properties: the zero-fault plan is bit-for-bit
//! inert, per-task misses add up to the run's under any plan, and
//! processor fail + rejoin leaves application lag bounded.

use faults::{run_edf, run_pd2, FaultConfig, FaultPlan, RecoveryController, RecoveryPolicy};
use pfair_core::SchedConfig;
use pfair_model::{TaskId, TaskSet};
use proptest::prelude::*;
use sched_sim::{Cbs, Dispatch, FaultMetrics, GlobalEdf, MultiSim};

fn ts(pairs: &[(u64, u64)]) -> TaskSet {
    TaskSet::from_pairs(pairs.iter().copied()).unwrap()
}

/// Drives `sim` to `horizon` with `ctl` applied at every slot boundary —
/// the shape of [`run_pd2`]'s loop, for tests that need the controller
/// and the simulator back afterwards. Returns the run's metrics and the
/// maximum application lag after each slot.
fn drive(
    sim: &mut MultiSim,
    ctl: &mut RecoveryController,
    horizon: u64,
) -> (FaultMetrics, Vec<f64>) {
    let mut lag = Vec::with_capacity(horizon as usize);
    for t in 0..horizon {
        ctl.before_slot(sim, t);
        sim.step();
        lag.push(sim.current_max_app_lag());
    }
    (sim.finalize_faults(), lag)
}

proptest! {
    /// An all-rates-zero [`FaultPlan`] must reproduce the fault-free run
    /// *exactly*: identical schedule, identical dispatch metrics, zero
    /// fault counters — over arbitrary feasible task sets and seeds.
    #[test]
    fn prop_empty_plan_is_bit_for_bit_inert(
        raw in prop::collection::vec((1u64..8, 2u64..14), 2..7),
        seed in 0u64..u64::MAX,
        m_extra in 0u32..2,
    ) {
        let pairs: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
        let set = ts(&pairs);
        let m = set.min_processors() + m_extra;
        let horizon = (2 * set.hyperperiod()).min(2_000);

        let mut bare = MultiSim::new(&set, SchedConfig::pd2(m));
        bare.record_schedule();
        let bare_metrics = bare.run(horizon);

        let mut hooked = MultiSim::new(&set, SchedConfig::pd2(m));
        hooked.record_schedule();
        hooked.set_fault_hook(Box::new(FaultPlan::new(FaultConfig::none(seed))));
        let hooked_metrics = hooked.run(horizon);

        prop_assert_eq!(bare_metrics, hooked_metrics);
        prop_assert_eq!(bare.schedule().unwrap(), hooked.schedule().unwrap());
        let fin = hooked.finalize_faults();
        prop_assert_eq!(fin.wasted_quanta, 0);
        prop_assert_eq!(fin.dropped_quanta, 0);
        prop_assert_eq!(fin.dead_proc_quanta, 0);
        prop_assert_eq!(fin.overruns, 0);
        // Every due job completes, and app lag obeys the Pfair bound.
        prop_assert_eq!(fin.job_misses, 0);
        prop_assert!(fin.jobs_completed >= fin.jobs_due);
        prop_assert!(fin.max_app_lag <= 1.0 + 1e-9);
    }

    /// The per-task miss tally adds up: after `finalize_faults`, the
    /// tasks' `task_misses` sum to `FaultMetrics::job_misses` under global
    /// EDF, CBS and PD², whatever the plan injects.
    #[test]
    fn prop_task_misses_sum_to_job_misses(
        raw in prop::collection::vec((1u64..6, 2u64..10), 1..=5),
        m_extra in 0u32..2,
        seed in 0u64..u64::MAX,
        overrun_rate in 0.0f64..0.5,
        loss_rate in 0.0f64..0.2,
        fail_every in 0u64..30,
        burst_rate in 0.0f64..0.5,
    ) {
        let pairs: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
        let set = ts(&pairs);
        let m = set.min_processors() + m_extra;
        let plan = FaultPlan::new(FaultConfig {
            overrun_rate,
            overrun_max: 3,
            loss_rate,
            fail_every,
            fail_duration: 5,
            max_down: 1,
            burst_rate,
            burst_max: 3,
            ..FaultConfig::none(seed)
        });
        let cbs = Cbs::new(&set, TaskId(0));
        let tallies = [
            tally(MultiSim::with_policy(&set, m, GlobalEdf), &plan, set.len()),
            tally(MultiSim::with_policy(&set, m, cbs), &plan, set.len()),
            tally(MultiSim::new(&set, SchedConfig::pd2(m)), &plan, set.len()),
        ];
        for (per_task, total) in tallies {
            prop_assert_eq!(per_task, total);
        }
    }
}

/// Runs `sim` for 200 slots under `plan`; returns the sum of its `n`
/// tasks' finalized misses and the run's `job_misses`.
fn tally<P: Dispatch>(mut sim: MultiSim<P>, plan: &FaultPlan, n: usize) -> (u64, u64) {
    sim.set_fault_hook(Box::new(plan.clone()));
    sim.run(200);
    let total = sim.finalize_faults().job_misses;
    let per_task = (0..n as u32).map(|i| sim.task_misses(TaskId(i))).sum();
    (per_task, total)
}

/// A processor outage under the full recovery policy: the heaviest task is
/// shed while capacity is reduced, re-admitted when the processor rejoins,
/// and the system re-converges — bounded lag at the end, no job misses
/// for any protected task (nor for the shed task's completed jobs).
#[test]
fn fail_and_rejoin_leaves_lag_bounded() {
    // Σwt = 1/2 + 1/3 + 1/4 ≈ 1.083 on 2 processors; one processor is
    // down over slots 20..30, so capacity 1 forces shedding the 1/2 task.
    let set = ts(&[(1, 2), (1, 3), (1, 4)]);
    let cfg = FaultConfig {
        fail_every: 20,
        fail_duration: 10,
        max_down: 1,
        window_end: 35, // exactly one fail-stop event
        ..FaultConfig::none(13)
    };
    let plan = FaultPlan::new(cfg);
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
    sim.set_fault_hook(Box::new(plan.clone()));
    let mut ctl = RecoveryController::new(plan, &set, 2, RecoveryPolicy::Full);
    let (fin, _) = drive(&mut sim, &mut ctl, 200);
    let stats = ctl.stats();

    assert_eq!(fin.dead_proc_quanta, 10, "{fin:?}");
    assert!(stats.tasks_shed >= 1, "{stats:?}");
    assert_eq!(stats.rejoins, stats.tasks_shed, "{stats:?}");
    assert_eq!(ctl.pending_rejoins(), 0);
    // Capacity tracking means the scheduler never over-selects: nothing
    // is dropped on the dead processor's account.
    assert_eq!(fin.dropped_quanta, 0, "{fin:?}");
    // Every job that came due — before the outage, during it (survivors),
    // and after rejoin — completed on time.
    assert_eq!(fin.job_misses, 0, "{fin:?}");
    assert!(fin.jobs_due > 0);
    // Lag re-converges after recovery: the final slot's maximum
    // application lag is back inside the fault-free Pfair bound.
    assert!(
        sim.current_max_app_lag() <= 1.0 + 1e-9,
        "lag did not re-converge: {}",
        sim.current_max_app_lag()
    );
}

/// Lag re-convergence under transient quantum loss with ERfair catch-up:
/// heavy jitter inside a window drives lag up; once the window closes the
/// watchdog's catch-up brings the system back under the bound.
#[test]
fn catchup_reconverges_after_loss_window() {
    let set = ts(&[(1, 2), (2, 5), (1, 3)]);
    let cfg = FaultConfig {
        loss_rate: 0.8,
        window_start: 10,
        window_end: 40,
        ..FaultConfig::none(99)
    };
    let plan = FaultPlan::new(cfg);
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
    sim.set_fault_hook(Box::new(plan.clone()));
    let mut ctl =
        RecoveryController::new(plan, &set, 2, RecoveryPolicy::CatchUp).with_watchdog(1.5, 2, 1.0);
    let (fin, _) = drive(&mut sim, &mut ctl, 400);
    let stats = ctl.stats();

    assert!(fin.wasted_quanta > 0, "{fin:?}");
    assert!(fin.max_app_lag > 1.5, "the loss window must hurt: {fin:?}");
    assert!(stats.catchup_trips >= 1, "{stats:?}");
    assert!(!ctl.catching_up(), "catch-up must have disengaged");
    assert!(
        sim.current_max_app_lag() <= 1.0 + 1e-9,
        "lag did not re-converge: {}",
        sim.current_max_app_lag()
    );
}

/// PD² is not work-conserving: it keeps serving exactly the declared
/// weights, so a spare processor alone never drains the lag a fault storm
/// leaves behind, while ERfair catch-up (§2: a subtask is eligible as soon
/// as its predecessor is scheduled) turns the spare capacity into
/// recovery. One overrun-and-outage storm over slots [0, 200) on
/// `min_processors() + 1`, 600 slots, each way.
#[test]
fn spare_processor_needs_catchup_to_drain() {
    let set = ts(&[(1, 2), (1, 3), (2, 5), (1, 4), (3, 7)]);
    let storm = FaultConfig {
        overrun_rate: 0.5,
        overrun_max: 2,
        fail_every: 50,
        fail_duration: 25,
        max_down: 1,
        window_start: 0,
        window_end: 200,
        ..FaultConfig::none(11)
    };
    let m = set.min_processors() + 1;
    let lag_under = |policy| {
        let plan = FaultPlan::new(storm);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(m));
        sim.set_fault_hook(Box::new(plan.clone()));
        let mut ctl = RecoveryController::new(plan, &set, m, policy);
        drive(&mut sim, &mut ctl, 600).1
    };

    // A spare processor alone: once the storm pushes lag above 1, it
    // stays above 1 to the horizon, 400 slots after the faults stop.
    let passive = lag_under(RecoveryPolicy::None);
    let hurt = passive.iter().position(|&l| l > 1.0);
    let hurt = hurt.expect("the storm must push lag above 1");
    assert!(hurt < 200, "lag first above 1 at slot {hurt}");
    let drained = passive[hurt..].iter().position(|&l| l <= 1.0);
    assert_eq!(
        drained, None,
        "lag above 1 from slot {hurt} drained unaided"
    );

    // The same spare processor with catch-up: lag goes above 1 and comes
    // back under before the horizon, for good.
    let caught = lag_under(RecoveryPolicy::CatchUp);
    let last = caught.iter().rposition(|&l| l > 1.0);
    let last = last.expect("the storm must push lag above 1");
    assert!(last + 1 < caught.len(), "lag never drained under catch-up");
}

/// Pinned outcomes of the degradation runners, recorded from the code as
/// it stood before the fault layer was folded into one job ledger and the
/// runners into one: one five-task set under one mixed plan (loss +
/// overrun + fail-stop inside a window + bursts) for PD² under every
/// recovery policy and for EDF. Any drift in what a fault does to a job's
/// progress, in what recovery does about it, or in the schedule PD²
/// produces under the plan's delays shows up here as a changed line.
#[test]
fn degradation_outcomes_are_pinned() {
    let set = ts(&[(4, 8), (4, 12), (8, 20), (4, 16), (12, 28)]);
    let mixed = FaultConfig {
        loss_rate: 0.1,
        overrun_rate: 0.3,
        overrun_max: 2,
        fail_every: 40,
        fail_duration: 8,
        max_down: 1,
        burst_rate: 0.2,
        burst_max: 2,
        window_start: 20,
        window_end: 300,
        ..FaultConfig::none(77)
    };
    let mut got = Vec::new();
    for policy in [
        RecoveryPolicy::None,
        RecoveryPolicy::Shed,
        RecoveryPolicy::CatchUp,
        RecoveryPolicy::Full,
    ] {
        let out = run_pd2(&set, mixed, policy, 420, false);
        assert!(out.window_violation.is_none(), "{policy:?}");
        got.push(format!(
            "pd2 {policy:?}: {:?} {:?} {:?}",
            out.faults, out.run, out.recovery
        ));
    }
    let edf = run_edf(&set, set.min_processors(), mixed, 420).expect("the set first-fits onto 2");
    got.push(format!("edf: {edf:?}"));
    assert_eq!(got, PINNED);
}

const PINNED: [&str; 5] = [
    "pd2 None: FaultMetrics { wasted_quanta: 42, dropped_quanta: 47, dead_proc_quanta: 56, overruns: 19, overrun_quanta: 27, jobs_completed: 123, jobs_due: 143, job_misses: 136, max_tardiness: 91, max_app_lag: 27.571428571428555 } RunMetrics { slots: 420, allocated_quanta: 735, idle_quanta: 49, preemptions: 596, migrations: 157, context_switches: 732, misses: 0 } None",
    "pd2 Shed: FaultMetrics { wasted_quanta: 42, dropped_quanta: 0, dead_proc_quanta: 56, overruns: 20, overrun_quanta: 33, jobs_completed: 113, jobs_due: 131, job_misses: 97, max_tardiness: 60, max_app_lag: 14.333333333333329 } RunMetrics { slots: 420, allocated_quanta: 744, idle_quanta: 40, preemptions: 604, migrations: 153, context_switches: 740, misses: 0 } Some(RecoveryStats { capacity_changes: 14, shed_events: 7, tasks_shed: 14, rejoin_attempts: 14, rejoins: 14, catchup_trips: 0, catchup_slots: 0 })",
    "pd2 CatchUp: FaultMetrics { wasted_quanta: 43, dropped_quanta: 55, dead_proc_quanta: 56, overruns: 20, overrun_quanta: 29, jobs_completed: 128, jobs_due: 143, job_misses: 136, max_tardiness: 76, max_app_lag: 20.5 } RunMetrics { slots: 420, allocated_quanta: 779, idle_quanta: 5, preemptions: 601, migrations: 162, context_switches: 734, misses: 0 } Some(RecoveryStats { capacity_changes: 0, shed_events: 0, tasks_shed: 0, rejoin_attempts: 0, rejoins: 0, catchup_trips: 1, catchup_slots: 376 })",
    "pd2 Full: FaultMetrics { wasted_quanta: 43, dropped_quanta: 0, dead_proc_quanta: 56, overruns: 20, overrun_quanta: 33, jobs_completed: 118, jobs_due: 131, job_misses: 89, max_tardiness: 65, max_app_lag: 12.666666666666657 } RunMetrics { slots: 420, allocated_quanta: 778, idle_quanta: 6, preemptions: 580, migrations: 161, context_switches: 717, misses: 0 } Some(RecoveryStats { capacity_changes: 14, shed_events: 7, tasks_shed: 14, rejoin_attempts: 14, rejoins: 14, catchup_trips: 1, catchup_slots: 370 })",
    "edf: FaultMetrics { wasted_quanta: 43, dropped_quanta: 0, dead_proc_quanta: 56, overruns: 21, overrun_quanta: 30, jobs_completed: 132, jobs_due: 143, job_misses: 126, max_tardiness: 47, max_app_lag: 26.0 }",
];
