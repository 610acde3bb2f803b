//! Fig. 2 harness: per-invocation scheduling overhead of EDF and PD².
//!
//! The paper ran 1000 random task sets per task count, scheduled each until
//! time 10⁶, and reported the average execution cost of one scheduler
//! invocation. We do the same against this crate's own implementations
//! (binary-heap ready queues, like the paper's): wall-clock time of the
//! scheduling loop divided by the number of invocations.
//!
//! Absolute values reflect *this* machine, not the paper's 933 MHz
//! Pentium; the claims under test are the shapes — overhead grows with N
//! and with M, and PD² stays within the order of magnitude of a context
//! switch (1–10 µs).

use pfair_core::sched::{PfairScheduler, SchedConfig};
use stats::Welford;
use std::time::Instant;
use uniproc::{Discipline, UniSim};
use workload::TaskSetGenerator;

/// Task counts measured in the paper's Fig. 2.
pub const PAPER_TASK_COUNTS: [usize; 9] = [15, 30, 50, 75, 100, 250, 500, 750, 1000];

/// Processor counts measured in the paper's Fig. 2(b).
pub const PAPER_PROC_COUNTS: [u32; 4] = [2, 4, 8, 16];

/// Measures the mean per-invocation cost (µs) of the EDF scheduler on one
/// processor: `sets` random task sets of `n` tasks with total utilization
/// just under 1, each simulated for `horizon_us`, with per-set wall-time
/// telemetry in `rec`.
///
/// The telemetry is sampled *outside* the measured region: the measured
/// duration is recorded into the `fig2.edf_set_ns` histogram after the
/// fact rather than wrapping the loop in a live span, so enabling
/// metrics cannot skew the reported per-invocation cost.
pub fn measure_edf_observed(
    n: usize,
    sets: usize,
    horizon_us: u64,
    seed: u64,
    rec: &obs::Recorder,
) -> Welford {
    let set_ns = rec.timer("fig2.edf_set_ns");
    let invocations = rec.counter("fig2.edf_invocations");
    let mut acc = Welford::new();
    for s in 0..sets {
        let mut gen = TaskSetGenerator::new(n, 0.9_f64.min(n as f64), seed ^ (s as u64) << 17);
        let set = gen.generate();
        let pairs: Vec<(u64, u64)> = set.iter().map(|t| (t.wcet_us, t.period_us)).collect();
        let mut sim = UniSim::new(&pairs, Discipline::Edf);
        let start = Instant::now();
        let stats = sim.run(horizon_us);
        let elapsed = start.elapsed();
        set_ns.record_ns(elapsed.as_nanos() as u64);
        invocations.add(stats.invocations);
        if stats.invocations > 0 {
            acc.push(elapsed.as_secs_f64() * 1e6 / stats.invocations as f64);
        }
    }
    acc
}

/// Builds a feasible quantum-domain task set of `n` tasks with total
/// weight ≈ `0.9·min(n, m)`: per-task target utilizations are drawn
/// uniformly, scaled to the budget, then realized as `(e, ⌈e/u⌉)` so the
/// actual weight never exceeds the draw (no rounding blow-up even for
/// hundreds of featherweight tasks — which is exactly the Fig. 2 regime).
fn pd2_workload(n: usize, m: u32, seed: u64) -> pfair_model::TaskSet {
    use rand::{Rng as _, SeedableRng as _};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let budget = 0.9 * (n as f64).min(m as f64);
    let mut draws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0f64)).collect();
    let sum: f64 = draws.iter().sum();
    for d in &mut draws {
        *d *= budget / sum;
    }
    draws
        .into_iter()
        .map(|u| {
            let u = u.min(0.95);
            // A few quanta of execution per job keeps b-bit/tie-break code
            // on the hot path.
            let e = rng.gen_range(1u64..=4);
            let p = ((e as f64 / u).ceil() as u64).max(e + 1);
            pfair_model::Task::new(e, p).expect("e < p by construction")
        })
        .collect()
}

/// Measures the mean per-invocation (= per-slot) cost (µs) of the PD²
/// scheduler on `m` processors: `sets` random task sets of `n` tasks with
/// total weight ≈ 0.9·min(n, m), simulated for `horizon_slots` quanta,
/// with telemetry in `rec`: per-set wall time plus the scheduler's own
/// tick counters.
///
/// The timed loop always runs an *uninstrumented* scheduler — a recorder
/// on the hot path would read the clock every tick and inflate the
/// reported per-invocation cost. When `rec` is enabled, the same
/// schedule is replayed afterwards (same tasks, same config, outside the
/// measured region) with the recorder attached, so tick counters are
/// collected without touching the paper-comparison numbers.
pub fn measure_pd2_observed(
    n: usize,
    m: u32,
    sets: usize,
    horizon_slots: u64,
    seed: u64,
    rec: &obs::Recorder,
) -> Welford {
    let set_ns = rec.timer("fig2.pd2_set_ns");
    let mut acc = Welford::new();
    for s in 0..sets {
        let tasks = pd2_workload(n, m, seed ^ ((s as u64) << 17));
        debug_assert!(tasks.feasible_on(m));
        let mut sched = PfairScheduler::new(&tasks, SchedConfig::pd2(m));
        let mut out = Vec::with_capacity(m as usize);
        let start = Instant::now();
        for t in 0..horizon_slots {
            out.clear();
            sched.tick(t, &mut out);
        }
        let elapsed = start.elapsed();
        set_ns.record_ns(elapsed.as_nanos() as u64);
        acc.push(elapsed.as_secs_f64() * 1e6 / horizon_slots as f64);
        if rec.is_enabled() {
            // Instrumented replay: PD² is deterministic, so ticking a
            // fresh scheduler over the same horizon reproduces the
            // measured run's decisions and yields its event counts.
            let mut replay = PfairScheduler::new(&tasks, SchedConfig::pd2(m)).with_recorder(rec);
            for t in 0..horizon_slots {
                out.clear();
                replay.tick(t, &mut out);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edf_measurement_produces_samples() {
        let w = measure_edf_observed(20, 3, 100_000, 1, &obs::Recorder::disabled());
        assert_eq!(w.count(), 3);
        assert!(w.mean() > 0.0);
        assert!(w.mean() < 1_000.0, "per-invocation cost is sub-millisecond");
    }

    #[test]
    fn pd2_measurement_produces_samples() {
        let w = measure_pd2_observed(20, 2, 3, 2_000, 1, &obs::Recorder::disabled());
        assert!(w.count() >= 1);
        assert!(w.mean() > 0.0);
        assert!(w.mean() < 10_000.0);
    }

    #[test]
    fn pd2_cost_grows_with_tasks() {
        // Counted, not timed: other test threads share the cores, and two
        // wall clocks three samples apart have compared the wrong way. At
        // equal load (0.9·M) more tasks are more heap traffic over the
        // same horizon — N releases to drain at slot 0, and less weight
        // lost to rounding each period up. The log N a deeper heap adds
        // to each operation is Fig. 2's to show.
        let heap_ops = |n: usize| {
            let rec = obs::Recorder::enabled();
            measure_pd2_observed(n, 2, 3, 2_000, 7, &rec);
            let snap = rec.snapshot();
            let count = |name| snap.counter(name).expect("the replay fills it");
            assert_eq!(count("sched.ticks"), 3 * 2_000);
            count("sched.heap_pushes") + count("sched.heap_pops")
        };
        let (small, large) = (heap_ops(10), heap_ops(500));
        assert!(
            large > small,
            "500 tasks ({large} heap operations) should cost more than 10 ({small})"
        );
    }
}
