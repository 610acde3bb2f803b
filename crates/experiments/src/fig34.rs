//! Figs. 3–4 harness: overhead-inflated schedulability of PD² vs. EDF-FF.
//!
//! For each random task set we compute, under the paper's Equation (3):
//!
//! * the minimum processors PD² needs — smallest `M` with
//!   `Σ ⌈e'/q⌉/(p/q) ≤ M` (the inflation itself depends on `M` through
//!   `S_PD²`);
//! * the processors EDF-FF uses — First Fit in decreasing-period order with
//!   the overhead-aware acceptance test;
//!
//! and the three schedulability-loss fractions plotted in Fig. 4:
//!
//! * **Pfair** `= (U'_PD² − U_raw)/M_PD²` — capacity lost to quantum
//!   rounding, per-quantum scheduling, and preemption charges;
//! * **EDF** `= (U'_EDF − U_raw)/M_EDF` — capacity lost to EDF's (cheaper)
//!   inflation;
//! * **FF** `= (M_EDF − ⌈U'_EDF⌉)/M_EDF` — *extra* processors forced by
//!   bin-packing fragmentation beyond the unavoidable integer capacity
//!   `⌈U'⌉`; this is the loss that grows with per-task utilization and
//!   eventually dominates (the paper's crossover argument). Subtracting
//!   the ceiling keeps the series from being swamped by whole-processor
//!   quantization at low utilizations, matching the paper's
//!   starts-near-zero-and-grows shape.

use overhead::{pd2_processors_required, InflateError, OverheadParams};
use partition::{
    partition_unbounded_with_obs, Acceptance, EdfOverheadAware, Heuristic, PartitionObs, SortOrder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::Welford;
use workload::{CacheDelayDist, TaskSetGenerator};

/// Aggregated results for one (N, total-utilization) point.
#[derive(Debug, Clone, Default)]
pub struct SchedPoint {
    /// Target total utilization (x-axis of Fig. 3).
    pub total_util: f64,
    /// Processors PD² needs.
    pub pd2_procs: Welford,
    /// Processors EDF-FF needs.
    pub edf_procs: Welford,
    /// Fig. 4 "Pfair" series.
    pub pfair_loss: Welford,
    /// Fig. 4 "EDF" series.
    pub edf_loss: Welford,
    /// Fig. 4 "FF" series.
    pub ff_loss: Welford,
    /// Sets where PD² could not schedule some task at any M (rare).
    pub pd2_failures: usize,
    /// Sets where EDF-FF could not place some task even alone (rare).
    pub edf_failures: usize,
    /// Always 0: a set that panics is a bug, and its panic ends the sweep
    /// (nothing catches it). The field stays only because the
    /// benchmark's `fig3_sweep` workload still reads it (ROADMAP item 13
    /// drops it).
    pub worker_panics: usize,
}

/// Runs one (N, U) point over `sets` random task sets, serially and in
/// set order. Every set's generator and delay draws derive from
/// `(seed, set index)` alone and the Welford merges happen in a fixed
/// order, so the point is bit-for-bit deterministic. Parallelism lives a
/// level up: [`crate::driver::SweepDriver`] shards whole points across
/// its worker pool (points are coarser and need no cross-thread merge).
pub fn run_point(
    n: usize,
    total_util: f64,
    sets: usize,
    seed: u64,
    params: &OverheadParams,
    dist: CacheDelayDist,
) -> SchedPoint {
    run_point_observed(
        n,
        total_util,
        sets,
        seed,
        params,
        dist,
        &obs::Recorder::disabled(),
    )
}

/// [`run_point`] with instrumentation: per-set wall time and PD²/EDF
/// failure counters land in `rec` (under the driver, `rec` is the
/// calling worker's private shard, so no recording here contends).
pub fn run_point_observed(
    n: usize,
    total_util: f64,
    sets: usize,
    seed: u64,
    params: &OverheadParams,
    dist: CacheDelayDist,
    rec: &obs::Recorder,
) -> SchedPoint {
    let set_ns = rec.timer("fig34.set_ns");
    let sets_done = rec.counter("fig34.sets");
    let pd2_failures = rec.counter("fig34.pd2_failures");
    let edf_failures = rec.counter("fig34.edf_failures");
    let pobs = PartitionObs::new(rec);
    let mut point = SchedPoint {
        total_util,
        ..SchedPoint::default()
    };
    for s in 0..sets {
        let _span = set_ns.start();
        run_one_set(n, total_util, s, seed, params, dist, &pobs, &mut point);
        sets_done.incr();
    }
    pd2_failures.add(point.pd2_failures as u64);
    edf_failures.add(point.edf_failures as u64);
    point
}

/// Processes a single random task set into `point`'s accumulators.
#[allow(clippy::too_many_arguments)]
fn run_one_set(
    n: usize,
    total_util: f64,
    s: usize,
    seed: u64,
    params: &OverheadParams,
    dist: CacheDelayDist,
    pobs: &PartitionObs,
    point: &mut SchedPoint,
) {
    // Per-set RNG so results are independent of thread scheduling.
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((s as u64) << 20));
    {
        let mut gen = TaskSetGenerator::new(n, total_util, seed ^ ((s as u64) << 20));
        let set = gen.generate();
        let tasks = &set.tasks[..];
        let d = dist.sample_n(&mut rng, n);
        let u_raw: f64 = set.total_utilization();

        // --- PD² ---
        match pd2_processors_required(tasks, params, &d, (4 * n) as u32) {
            Ok(m_pd2) => {
                // The M-search already summed these weights in its last
                // pass, and the packing below already held each bin's
                // inflated total. Both replays stay: the benchmark's traced
                // twin of this function (`benchmark/src/workloads/
                // fig3_sweep.rs`) has a span for each, and its `closure`
                // check holds this body to the same work. Dropping them
                // (≈ 25 µs a set) takes a paired `[benchmark]` change —
                // ROADMAP item 13.
                let mut u_infl = 0.0;
                for (t, &dd) in tasks.iter().zip(&d) {
                    let inf =
                        overhead::inflate_pd2(*t, params, m_pd2, n, dd).expect("feasible at m_pd2");
                    u_infl += inf.weight.to_f64();
                }
                point.pd2_procs.push(m_pd2 as f64);
                point.pfair_loss.push((u_infl - u_raw) / m_pd2 as f64);
            }
            // Any inflation failure (Overload or an unexpected variant) is
            // recorded and the sweep continues: one pathological set must
            // not kill a multi-hour experiment run.
            Err(InflateError::Overload { .. }) => point.pd2_failures += 1,
            Err(e) => {
                eprintln!("fig34: PD2 inflation failed for set: {e}");
                point.pd2_failures += 1;
            }
        }

        // --- EDF-FF (decreasing periods, overhead-aware) ---
        let acc = EdfOverheadAware::new(tasks, &d, *params);
        let keys = |i: usize| (tasks[i].utilization(), tasks[i].period_us);
        match partition_unbounded_with_obs(
            n,
            &acc,
            Heuristic::FirstFit,
            SortOrder::DecreasingPeriod,
            keys,
            pobs,
        ) {
            Some(result) => {
                let m_edf = result.processors;
                // Replay in packing order to recover the inflated total.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| tasks[b].period_us.cmp(&tasks[a].period_us).then(a.cmp(&b)));
                let mut states = vec![acc.empty(); m_edf as usize];
                for i in order {
                    let p = result.assignment[i] as usize;
                    states[p] = acc
                        .try_add(&states[p], i)
                        .expect("replay of a valid packing");
                }
                let u_infl: f64 = states.iter().map(|st| st.util).sum();
                point.edf_procs.push(m_edf as f64);
                point.edf_loss.push((u_infl - u_raw) / m_edf as f64);
                point
                    .ff_loss
                    .push((m_edf as f64 - u_infl.ceil()) / m_edf as f64);
            }
            None => point.edf_failures += 1,
        }
    }
}

/// The paper's utilization sweep for a given N: total utilizations from
/// `N/30` to `N/3` in `points` steps.
pub fn paper_utilization_sweep(n: usize, points: usize) -> Vec<f64> {
    assert!(points >= 2);
    let lo = n as f64 / 30.0;
    let hi = n as f64 / 3.0;
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_range() {
        let s = paper_utilization_sweep(50, 11);
        assert_eq!(s.len(), 11);
        assert!((s[0] - 50.0 / 30.0).abs() < 1e-12);
        assert!((s[10] - 50.0 / 3.0).abs() < 1e-12);
        assert!(s.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn point_statistics_are_sane() {
        let p = run_point(
            20,
            4.0,
            5,
            42,
            &OverheadParams::paper2003(),
            CacheDelayDist::paper2003(),
        );
        assert_eq!(p.pd2_procs.count() as usize + p.pd2_failures, 5);
        assert_eq!(p.edf_procs.count() as usize + p.edf_failures, 5);
        // Processor counts at least the raw ceiling.
        assert!(p.pd2_procs.min() >= 4.0);
        assert!(p.edf_procs.min() >= 4.0);
        // Losses are fractions.
        for w in [&p.pfair_loss, &p.edf_loss, &p.ff_loss] {
            assert!(w.min() >= -1e-9);
            assert!(w.max() <= 1.0);
        }
        // PD²'s overhead loss exceeds EDF's (quantum rounding dominates).
        assert!(p.pfair_loss.mean() > p.edf_loss.mean());
    }

    #[test]
    fn point_means_are_pinned_bit_for_bit() {
        let p = run_point(
            50,
            10.0,
            20,
            1,
            &OverheadParams::paper2003(),
            CacheDelayDist::paper2003(),
        );
        // Recorded at the commit before the per-set λ solve and the
        // S_PD²-keyed inflation pass landed: those are bit-exact rewrites,
        // and this catches drift without the benchmark's golden file.
        assert_eq!((p.pd2_failures, p.edf_failures, p.worker_panics), (0, 0, 0));
        for (name, w, bits) in [
            ("pd2_procs", &p.pd2_procs, 0x4026_cccc_cccc_cccd_u64), // 11.4
            ("edf_procs", &p.edf_procs, 0x4026_0000_0000_0000),     // 11
            ("pfair_loss", &p.pfair_loss, 0x3fb5_6e22_9d88_73ca),   // 0.08371…
            ("edf_loss", &p.edf_loss, 0x3f75_4642_0c7e_6bf8),       // 0.005194…
            ("ff_loss", &p.ff_loss, 0x0000_0000_0000_0000),         // 0
        ] {
            assert_eq!(w.count(), 20, "{name}");
            assert_eq!(w.mean().to_bits(), bits, "{name} mean {}", w.mean());
        }
    }

    /// The paper's N = 250 panel at its two ends and in between: the low
    /// points run a multi-pass M-search, the top one packs ~87 EDF-FF
    /// bins. Recorded before the division-free fixed-point exit, the
    /// full-bin probe filter and the packed period sort, which are
    /// bit-exact rewrites.
    #[test]
    fn paper_panel_means_are_pinned_bit_for_bit() {
        let names = [
            "pd2_procs",
            "edf_procs",
            "pfair_loss",
            "edf_loss",
            "ff_loss",
        ];
        for (u, bits) in [
            // 12, 9, 0.26521…, 0.05092…, 0
            (
                250.0 / 30.0,
                [
                    0x4028_0000_0000_0000_u64,
                    0x4022_0000_0000_0000,
                    0x3fd0_f948_d391_0bbb,
                    0x3faa_12f4_6d10_6f1f,
                    0x0000_0000_0000_0000,
                ],
            ),
            // 17.6, 15, 0.19233…, 0.02738…, 0
            (
                13.69,
                [
                    0x4031_9999_9999_999a,
                    0x402e_0000_0000_0000,
                    0x3fc8_9e5a_e97e_307b,
                    0x3f9c_0ba0_d467_309d,
                    0x0000_0000_0000_0000,
                ],
            ),
            // 90.3, 86.8, 0.07294…, 0.00229…, 0.03221…
            (
                250.0 / 3.0,
                [
                    0x4056_9333_3333_3333,
                    0x4055_b333_3333_3333,
                    0x3fb2_acc2_29a7_2a9f,
                    0x3f62_c603_5dcb_39d1,
                    0x3fa0_7e12_761f_26f9,
                ],
            ),
        ] {
            let p = run_point(
                250,
                u,
                10,
                1,
                &OverheadParams::paper2003(),
                CacheDelayDist::paper2003(),
            );
            assert_eq!((p.pd2_failures, p.edf_failures, p.worker_panics), (0, 0, 0));
            let means = [
                &p.pd2_procs,
                &p.edf_procs,
                &p.pfair_loss,
                &p.edf_loss,
                &p.ff_loss,
            ];
            for ((name, w), bits) in names.iter().zip(means).zip(bits) {
                assert_eq!(w.count(), 10, "U = {u}: {name}");
                assert_eq!(
                    w.mean().to_bits(),
                    bits,
                    "U = {u}: {name} mean {}",
                    w.mean()
                );
            }
        }
    }

    #[test]
    fn zero_overheads_make_pd2_optimal() {
        let p = run_point(
            12,
            3.0,
            5,
            7,
            &OverheadParams::zero(),
            CacheDelayDist::Constant(0.0),
        );
        // No inflation: PD² needs exactly ⌈U⌉ processors; rounding to whole
        // µs in the generator leaves the realized U within a hair of 3.
        assert_eq!(p.pd2_failures, 0);
        assert!(p.pd2_procs.max() <= 4.0);
        assert!(p.pfair_loss.max() < 0.01);
        // FF still loses capacity to fragmentation even with no overheads.
        assert!(p.edf_procs.mean() >= p.pd2_procs.mean() - 1e-9);
    }

    #[test]
    fn replay_matches_acceptance() {
        // The packing replay inside run_point must never panic on valid
        // packings; exercise it across several seeds.
        for seed in 0..5 {
            let _ = run_point(
                15,
                3.0,
                3,
                seed,
                &OverheadParams::paper2003(),
                CacheDelayDist::paper2003(),
            );
        }
    }
}
