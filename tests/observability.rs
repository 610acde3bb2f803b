//! Cross-crate integration tests for the obs layer: the counters exported
//! by an instrumented run must agree with the engine's own `RunMetrics`
//! accounting, survive a JSON round trip, and cost nothing when disabled.

use pfair_core::sched::{PfairScheduler, SchedConfig};
use pfair_model::TaskSet;
use sched_sim::MultiSim;

fn ts(pairs: &[(u64, u64)]) -> TaskSet {
    TaskSet::from_pairs(pairs.iter().copied()).unwrap()
}

#[test]
fn multisim_obs_counters_agree_with_run_metrics() {
    let set = ts(&[(8, 11), (1, 3), (2, 5), (5, 7)]);
    let m_procs = set.min_processors();
    let rec = obs::Recorder::enabled();
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(m_procs));
    sim.set_recorder(&rec);
    let horizon = 2 * set.hyperperiod();
    let metrics = sim.run(horizon);

    let snap = rec.snapshot();
    assert_eq!(snap.counter("sim.steps"), Some(metrics.slots));
    assert_eq!(
        snap.counter("sim.allocated_quanta"),
        Some(metrics.allocated_quanta)
    );
    assert_eq!(snap.counter("sim.idle_quanta"), Some(metrics.idle_quanta));
    assert_eq!(snap.counter("sim.preemptions"), Some(metrics.preemptions));
    assert_eq!(snap.counter("sim.migrations"), Some(metrics.migrations));
    assert_eq!(
        snap.counter("sim.context_switches"),
        Some(metrics.context_switches)
    );
    // The scheduler ticks exactly once per simulated slot, and both span
    // timers record one observation per slot.
    assert_eq!(snap.counter("sched.ticks"), Some(metrics.slots));
    assert_eq!(
        snap.histogram("sim.dispatch_ns").unwrap().count,
        metrics.slots
    );
    assert_eq!(
        snap.histogram("sched.tick_ns").unwrap().count,
        metrics.slots
    );
    // Each allocated quantum came off the ready heap (pops also cover
    // stale entries, so pops ≥ allocations).
    assert!(snap.counter("sched.heap_pops").unwrap() >= metrics.allocated_quanta);
}

#[test]
fn scheduler_tick_counters_balance() {
    let set = ts(&[(2, 3), (2, 3), (2, 3)]);
    let rec = obs::Recorder::enabled();
    let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(2)).with_recorder(&rec);
    let schedule = sched.run(30);
    assert!(sched.misses().is_empty());

    let snap = rec.snapshot();
    assert_eq!(snap.counter("sched.ticks"), Some(30));
    let allocated: u64 = schedule.iter().map(|s| s.len() as u64).sum();
    // No joins/leaves here, so nothing ever goes stale: every drained
    // release is pushed, and every pop is a real allocation.
    assert_eq!(snap.counter("sched.stale_skipped"), Some(0));
    assert_eq!(snap.counter("sched.heap_pops"), Some(allocated));
    assert_eq!(
        snap.counter("sched.heap_pushes"),
        snap.counter("sched.releases_drained")
    );
}

/// Heap work per tick is what an algorithmic regression in the tick moves
/// first, and unlike a wall-clock gate it is identical on every machine:
/// 500 periodic tasks at total weight ≈ 7.6 on M = 8 for 10,000 slots,
/// the shape of the benchmark's `engine_pd2` (`sched.heap_ops_per_tick`).
/// A change to the ready queue or the tick that is meant to keep the
/// schedule must keep these counts, recorded at commit 7481d75.
#[test]
fn scheduler_heap_work_is_pinned() {
    let set = TaskSet::from_pairs((0..500u64).map(|i| {
        let e = 1 + i % 4;
        (e, e * (50 + i % 37))
    }))
    .unwrap();
    assert!(set.feasible_on(8));
    let rec = obs::Recorder::enabled();
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(8));
    sim.set_recorder(&rec);
    let metrics = sim.run(10_000);
    assert_eq!(metrics.allocated_quanta, 76_023);

    let snap = rec.snapshot();
    assert_eq!(snap.counter("sched.ticks"), Some(10_000));
    assert_eq!(snap.counter("sched.releases_drained"), Some(76_032));
    assert_eq!(snap.counter("sched.heap_pushes"), Some(76_032));
    assert_eq!(snap.counter("sched.heap_pops"), Some(76_023));
    assert_eq!(snap.counter("sched.stale_skipped"), Some(0));
}

#[test]
fn exported_snapshot_round_trips_through_json() {
    let set = ts(&[(1, 2), (1, 3), (2, 7)]);
    let rec = obs::Recorder::enabled();
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
    sim.set_recorder(&rec);
    sim.run(100);

    let snap = rec.snapshot();
    let back = obs::Snapshot::from_json(&snap.to_json()).expect("valid JSON");
    assert_eq!(back, snap);
    assert!(back.counter("sim.steps").is_some());
}

#[test]
fn disabled_recorder_changes_nothing_and_records_nothing() {
    let set = ts(&[(8, 11), (1, 3), (2, 5), (5, 7)]);
    let m_procs = set.min_processors();
    let horizon = set.hyperperiod();

    let mut plain = MultiSim::new(&set, SchedConfig::pd2(m_procs));
    let baseline = plain.run(horizon);

    let rec = obs::Recorder::disabled();
    let mut observed = MultiSim::new(&set, SchedConfig::pd2(m_procs));
    observed.set_recorder(&rec);
    let with_disabled = observed.run(horizon);

    assert_eq!(baseline, with_disabled, "probes must not affect behaviour");
    let snap = rec.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}
