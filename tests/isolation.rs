//! §5.3 — temporal isolation: "each task's processor share is guaranteed
//! even if other tasks 'misbehave' by attempting to execute for more than
//! their prescribed shares."
//!
//! Contrast experiment: one task overruns its declared cost. Under global
//! EDF the overrun executes at deadline priority and pushes *other* tasks
//! into misses; under PD² the scheduler allocates by weight, so the
//! victims' allocations are structurally untouched — the misbehaver's
//! excess demand is simply never served.

use faults::{FaultConfig, FaultPlan};
use pfair_core::sched::SchedConfig;
use pfair_model::{TaskId, TaskSet};
use sched_sim::{GlobalEdf, MultiSim};

fn workload() -> TaskSet {
    // M = 2. Declared: misbehaver (2,8) + victims filling most of the rest.
    TaskSet::from_pairs([
        (2u64, 8u64), // task 0: will overrun ×4
        (1, 2),
        (1, 2),
        (1, 4),
        (1, 4),
    ])
    .unwrap()
}

#[test]
fn global_edf_lets_overrun_harm_victims() {
    let set = workload();
    let horizon = 4_000u64;
    // Well-behaved baseline: everyone meets deadlines on 2 processors.
    let mut honest = MultiSim::with_policy(&set, 2, GlobalEdf);
    honest.run(horizon);
    let h = honest.finalize_faults();
    assert_eq!(h.job_misses, 0, "baseline must be schedulable");

    // Task 0 misbehaves: demands 8 quanta per 8-quantum period instead
    // of 2 (declared utilization 1/4, actual 1).
    let mut rogue = MultiSim::with_policy(&set, 2, GlobalEdf);
    rogue
        .set_fault_hook(Box::new(FaultPlan::new(FaultConfig::none(0))))
        .set_demand(TaskId(0), 8);
    rogue.run(horizon);
    let r = rogue.finalize_faults();
    // The rogue accounts for at most one miss per job that came due; any
    // miss beyond that is a victim's.
    let rogue_due = horizon / set[TaskId(0)].period;
    assert!(
        r.job_misses > rogue_due,
        "global EDF must leak the overrun onto victims: {r:?}"
    );
}

#[test]
fn pd2_isolates_victims_structurally() {
    let set = workload();
    // Under PD², the misbehaver *cannot* execute beyond its weight: the
    // scheduler hands out quanta by subtask, so its "overrun" manifests as
    // its own jobs never finishing, never as extra allocation. Victims'
    // shares are exact.
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
    let horizon = 4_000u64;
    let metrics = sim.run(horizon);
    assert_eq!(metrics.misses, 0);
    for (id, task) in set.iter() {
        let got = sim.scheduler().allocations(id);
        let expected = horizon / task.period * task.exec;
        assert_eq!(got, expected, "{id} received its exact share");
    }
    // In particular the would-be misbehaver got exactly 2/8 of a
    // processor and no more — isolation by construction.
    assert_eq!(sim.scheduler().allocations(TaskId(0)), horizon / 8 * 2);
}

/// The §5.3 triangle, closed: vanilla EDF leaks an overrun onto victims;
/// a constant-bandwidth server confines it at the cost of extra scheduler
/// bookkeeping; PD² confines it with none — isolation is structural.
#[test]
fn cbs_fixes_edf_at_a_bookkeeping_cost_pd2_needs_nothing() {
    use uniproc::cbs::{edf_without_server, CbsSim, Request};
    // One processor: hard tasks at U = 0.65 + a bursty stream demanding
    // 2× its 0.2 reservation.
    let hard = [(2u64, 5u64), (1, 4)];
    let stream: Vec<Request> = (0..1_000)
        .map(|k| Request {
            arrival: k * 10,
            demand: 4,
        })
        .collect();
    let horizon = 10_000;

    let naked = edf_without_server(&hard, 10, &stream, horizon);
    assert!(naked.hard_misses > 0, "vanilla EDF leaks");

    let mut cbs = CbsSim::new(&hard, 2, 10, stream);
    let guarded = cbs.run(horizon);
    assert_eq!(guarded.hard_misses, 0, "CBS confines");
    assert!(
        guarded.server_rule_invocations > 0,
        "…at a bookkeeping cost (the paper's 'increases scheduling overhead')"
    );
}

#[test]
fn reweighting_not_overrun_is_the_sanctioned_path() {
    // If the "misbehaver" legitimately needs more capacity it must
    // re-join at a higher weight (§5.2), which admission control checks:
    // 1/4 → 1 does NOT fit next to 1.5 of victims on M = 2…
    let set = workload();
    let mut sched = pfair_core::PfairScheduler::new(&set, SchedConfig::pd2(2));
    let free_at = sched.leave(TaskId(0), 0).unwrap();
    assert_eq!(free_at, 0, "never-scheduled task leaves immediately");
    assert!(sched
        .join(pfair_model::Task::new(8, 8).unwrap(), 0)
        .is_err());
    // …but a truthful 2/8 → 3/8 upgrade fits.
    assert!(sched.join(pfair_model::Task::new(3, 8).unwrap(), 0).is_ok());
}
