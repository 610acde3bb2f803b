//! §5.3 — temporal isolation: "each task's processor share is guaranteed
//! even if other tasks 'misbehave' by attempting to execute for more than
//! their prescribed shares."
//!
//! The triangle, on one workload with one rogue, through one slot loop and
//! scored by one miss rule (`MultiSim::task_misses`):
//! - global EDF runs the overrun at deadline priority and pushes *other*
//!   tasks into misses;
//! - a constant-bandwidth server confines it, at the cost of extra
//!   scheduler bookkeeping (`Cbs::rule_invocations`);
//! - PD² allocates by weight, so the victims' allocations are structurally
//!   untouched and the rogue's excess demand is simply never served.

use faults::{FaultConfig, FaultPlan};
use pfair_core::sched::SchedConfig;
use pfair_model::{TaskId, TaskSet};
use sched_sim::{Cbs, Dispatch, GlobalEdf, MultiSim};

/// Processors.
const M: u32 = 2;
const HORIZON: u64 = 4_000;
/// The misbehaver: declares (2,8), demands 4× that.
const ROGUE: TaskId = TaskId(0);
const ROGUE_DEMAND: u64 = 8;

fn workload() -> TaskSet {
    // The rogue plus victims filling most of the rest: Σ = 1.75 ≤ M.
    TaskSet::from_pairs([(2u64, 8u64), (1, 2), (1, 2), (1, 4), (1, 4)]).unwrap()
}

/// One policy's row of the triangle.
#[derive(Debug, PartialEq)]
struct Row {
    /// Every task's misses, the rogue's included, with the rogue honest.
    honest_misses: u64,
    /// With the rogue overrunning: the victims' misses…
    victim_misses: u64,
    /// …the rogue's own…
    rogue_misses: u64,
    /// …and the quanta it was given.
    rogue_quanta: usize,
}

/// Runs `sim` to the horizon with the rogue demanding `demand` quanta a
/// job; returns every task's finalized misses and the run.
fn simulate<P: Dispatch>(mut sim: MultiSim<P>, demand: u64) -> (u64, MultiSim<P>) {
    sim.record_schedule()
        .set_fault_hook(Box::new(FaultPlan::new(FaultConfig::none(0))))
        .set_demand(ROGUE, demand);
    sim.run(HORIZON);
    (sim.finalize_faults().job_misses, sim)
}

/// Runs one policy with the rogue honest, then overrunning; returns the
/// row and the overrunning run.
fn row<P: Dispatch>(sim: impl Fn() -> MultiSim<P>) -> (Row, MultiSim<P>) {
    let (honest_misses, _) = simulate(sim(), workload()[ROGUE].exec);
    let (_, run) = simulate(sim(), ROGUE_DEMAND);
    let schedule = run.schedule().expect("recorded");
    let row = Row {
        honest_misses,
        victim_misses: (1..workload().len() as u32)
            .map(|i| run.task_misses(TaskId(i)))
            .sum(),
        rogue_misses: run.task_misses(ROGUE),
        rogue_quanta: schedule.iter().flatten().filter(|&&id| id == ROGUE).count(),
    };
    (row, run)
}

#[test]
fn global_edf_lets_overrun_harm_victims() {
    let set = workload();
    let (row, run) = row(|| MultiSim::with_policy(&set, M, GlobalEdf));
    assert_eq!(row.honest_misses, 0, "baseline must be schedulable");
    // The rogue's overrun runs at deadline priority: declared utilization
    // 1/4, actual 1, and the victims pay for it.
    let by_task: Vec<u64> = (0..set.len() as u32)
        .map(|i| run.task_misses(TaskId(i)))
        .collect();
    assert!(
        row.victim_misses > 0,
        "global EDF must leak the overrun onto victims: {by_task:?}"
    );
}

#[test]
fn pd2_isolates_victims_structurally() {
    let set = workload();
    // Under PD² the rogue *cannot* execute beyond its weight: quanta are
    // handed out by subtask, so its overrun shows up as its own jobs never
    // finishing, never as extra allocation.
    let (row, run) = row(|| MultiSim::new(&set, SchedConfig::pd2(M)));
    assert_eq!(row.honest_misses, 0, "baseline must be schedulable");
    assert_eq!(row.victim_misses, 0, "victims never miss");
    assert_eq!(run.metrics().misses, 0);
    // Every task, the rogue included, receives exactly its declared share
    // and no more — isolation by construction.
    for (id, task) in set.iter() {
        let got = run.scheduler().allocations(id);
        assert_eq!(got, HORIZON / task.period * task.exec, "{id}'s share");
    }
}

/// The §5.3 triangle, closed: vanilla EDF leaks an overrun onto victims;
/// a constant-bandwidth server confines it at the cost of extra scheduler
/// bookkeeping; PD² confines it with none — isolation is structural.
/// These are the counts EXPERIMENTS.md §5.3 tabulates.
#[test]
fn cbs_fixes_edf_at_a_bookkeeping_cost_pd2_needs_nothing() {
    let set = workload();
    let (gedf, _) = row(|| MultiSim::with_policy(&set, M, GlobalEdf));
    let (cbs, cbs_run) = row(|| MultiSim::with_policy(&set, M, Cbs::new(&set, ROGUE)));
    let (pd2, _) = row(|| MultiSim::new(&set, SchedConfig::pd2(M)));

    // The rogue misses all 500 of its due jobs under every policy; only
    // global EDF lets it take the victims' quanta.
    let want = |victim_misses, rogue_quanta| Row {
        honest_misses: 0,
        victim_misses,
        rogue_misses: HORIZON / workload()[ROGUE].period,
        rogue_quanta,
    };
    assert_eq!(gedf, want(5_985, 3_198), "global EDF leaks");
    assert_eq!(cbs, want(0, 1_001), "EDF + CBS confines");
    assert_eq!(pd2, want(0, 1_000), "PD² confines");
    assert_eq!(
        cbs_run.scheduler().rule_invocations(),
        501,
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
