//! `fig3_sweep`: the paper's Fig. 3 panel at N = 250, through
//! `experiments::fig34::run_point` on one thread.
//!
//! The researcher's path: `workload` (task generation, cache-delay
//! draws), `overhead` (Equation (3) inflation) and `partition` (f64
//! overhead-aware first fit) do all the work; `core`, `sim` and `daemon`
//! do none. One operation is one task set.

use super::{sized, Rep, RunArgs, Slice, Workload};
use crate::golden;
use crate::procfs::process_cpu_ns;
use crate::report::{Check, Checks};
use crate::spans::Tracer;
use experiments::fig34::{paper_utilization_sweep, run_point, SchedPoint};
use overhead::{inflate_pd2, pd2_processors_required, OverheadParams};
use partition::{
    partition_unbounded_with_obs, Acceptance, EdfOverheadAware, Heuristic, PartitionObs, SortOrder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use workload::{CacheDelayDist, TaskSetGenerator};

/// Tasks per set: the paper's largest Fig. 3 panel.
const N: usize = 250;
/// Points on the utilisation axis, `N/30 ..= N/3`.
const POINTS: usize = 15;
/// Sets per point per second of repetition (15 points × ≈ 1.6 ms a set
/// on the seed code).
const SETS_PER_POINT_PER_SECOND: f64 = 40.0;

/// The `fig3_sweep` workload.
pub struct Fig3Sweep {
    args: RunArgs,
    params: OverheadParams,
    dist: CacheDelayDist,
    /// Per-point means and failure counts of the first repetition.
    reference: golden::Reference,
    checks: Checks,
}

/// Seed of sweep point `i`: distinct per point, and clear of the
/// `set index << 20` bits `run_point` mixes in below it.
fn point_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x0100_0000_01B3) ^ ((i as u64) << 44)
}

fn outputs_of(points: &[SchedPoint]) -> golden::Values {
    let mut out = golden::Values::new();
    for (i, p) in points.iter().enumerate() {
        out.insert(format!("p{i:02}.pd2_procs_mean"), p.pd2_procs.mean());
        out.insert(format!("p{i:02}.edf_procs_mean"), p.edf_procs.mean());
        out.insert(format!("p{i:02}.pd2_failures"), p.pd2_failures as f64);
        out.insert(format!("p{i:02}.edf_failures"), p.edf_failures as f64);
    }
    out
}

impl Fig3Sweep {
    /// Sized for `args.rep_seconds`.
    pub fn new(args: &RunArgs) -> Self {
        Fig3Sweep {
            args: args.clone(),
            params: OverheadParams::paper2003(),
            dist: CacheDelayDist::paper2003(),
            reference: golden::Reference::default(),
            checks: Checks::default(),
        }
    }

    fn sets_per_point(&self) -> usize {
        sized(SETS_PER_POINT_PER_SECOND, self.args.rep_seconds) as usize
    }

    /// Invariants every sweep must keep, whatever the seed.
    fn check_points(&mut self, points: &[SchedPoint], utils: &[f64], sets: usize) {
        let panics: usize = points.iter().map(|p| p.worker_panics).sum();
        let accounted = points.iter().all(|p| {
            p.pd2_procs.count() as usize + p.pd2_failures == sets
                && p.edf_procs.count() as usize + p.edf_failures == sets
        });
        // No scheduler fits a set on fewer processors than its raw
        // utilisation rounded up to whole microseconds allows.
        let above_raw = points.iter().zip(utils).all(|(p, &u)| {
            (p.pd2_procs.count() == 0 || p.pd2_procs.min() >= (u - 0.05).floor())
                && (p.edf_procs.count() == 0 || p.edf_procs.min() >= (u - 0.05).floor())
        });
        if panics != 0 || !accounted || !above_raw {
            self.checks.fail(
                "sweep_invariants",
                format!(
                    "worker_panics {panics}, every set accounted {accounted}, \
                     procs ≥ raw U {above_raw}"
                ),
            );
        }
    }

    /// One sweep through `run_point`, each point a timed slice.
    fn sweep(&mut self, sets: usize, utils: &[f64]) -> (Vec<SchedPoint>, Vec<Slice>) {
        let mut points = Vec::with_capacity(utils.len());
        let mut slices = Vec::with_capacity(utils.len());
        for (i, &u) in utils.iter().enumerate() {
            let t0 = Instant::now();
            let p = run_point(
                N,
                u,
                sets,
                point_seed(self.args.seed, i),
                &self.params,
                self.dist,
            );
            slices.push(Slice::call(sets as u64, t0.elapsed()));
            points.push(std::hint::black_box(p));
        }
        self.check_points(&points, utils, sets);
        (points, slices)
    }

    /// The body of `fig34::run_one_set`, rebuilt from the same public
    /// calls with a span around each layer. Returns `(m_pd2, m_edf)`.
    fn traced_set(
        &self,
        tr: &mut Tracer,
        u: f64,
        s: usize,
        seed: u64,
        pobs: &PartitionObs,
    ) -> (Option<u32>, Option<u32>) {
        let id = s as u64;
        let root = tr.start("experiments.set", None, id);
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((s as u64) << 20));
        let tasks = tr.time("workload.taskgen", Some(root), id, || {
            TaskSetGenerator::new(N, u, seed ^ ((s as u64) << 20))
                .generate()
                .tasks
        });
        let d = tr.time("workload.cache_delay", Some(root), id, || {
            self.dist.sample_n(&mut rng, N)
        });
        let m_pd2 = tr.time("overhead.pd2_procs_required", Some(root), id, || {
            pd2_processors_required(&tasks, &self.params, &d, (4 * N) as u32).ok()
        });
        if let Some(m) = m_pd2 {
            let u_infl = tr.time("overhead.inflate_pd2", Some(root), id, || {
                tasks
                    .iter()
                    .zip(&d)
                    .map(|(t, &dd)| {
                        inflate_pd2(*t, &self.params, m, N, dd)
                            .expect("feasible at m_pd2")
                            .weight
                            .to_f64()
                    })
                    .sum::<f64>()
            });
            std::hint::black_box(u_infl);
        }
        let m_edf = tr.time("partition.edf_ff", Some(root), id, || {
            let acc = EdfOverheadAware::new(&tasks, &d, self.params);
            let keys = |i: usize| (tasks[i].utilization(), tasks[i].period_us);
            let result = partition_unbounded_with_obs(
                N,
                &acc,
                Heuristic::FirstFit,
                SortOrder::DecreasingPeriod,
                keys,
                pobs,
            )?;
            // The replay in packing order that recovers the inflated total.
            let mut order: Vec<usize> = (0..N).collect();
            order.sort_by(|&a, &b| tasks[b].period_us.cmp(&tasks[a].period_us).then(a.cmp(&b)));
            let mut states = vec![acc.empty(); result.processors as usize];
            for i in order {
                let p = result.assignment[i] as usize;
                states[p] = acc
                    .try_add(&states[p], i)
                    .expect("replay of a valid packing");
            }
            std::hint::black_box(states.iter().map(|st| st.util).sum::<f64>());
            Some(result.processors)
        });
        tr.end(root);
        (m_pd2, m_edf)
    }
}

impl Workload for Fig3Sweep {
    fn rep(&mut self) -> Rep {
        let sets = self.sets_per_point();

        // Set-up: the sweep's x-axis, then a short pass over every point
        // so code and allocator are warm before the timed sweep.
        let t0 = Instant::now();
        let utils = paper_utilization_sweep(N, POINTS);
        let warm_sets = (sets / 40).max(1);
        for (i, &u) in utils.iter().enumerate() {
            let seed = point_seed(self.args.seed, i);
            std::hint::black_box(run_point(N, u, warm_sets, seed, &self.params, self.dist));
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let cpu0 = process_cpu_ns();
        let (points, slices) = self.sweep(sets, &utils);
        let cpu_ns = process_cpu_ns() - cpu0;

        self.reference
            .observe(outputs_of(&points), &mut self.checks);
        Rep {
            setup_s,
            cpu_ns,
            failed: points.iter().map(|p| p.worker_panics as u64).sum(),
            slices,
        }
    }

    fn traced(&mut self, _base: &Rep) -> Vec<(String, f64)> {
        let sets = self.sets_per_point();
        let utils = paper_utilization_sweep(N, POINTS);
        let pobs = PartitionObs::new(&obs::Recorder::disabled());
        let mut tr = Tracer::new();
        let mut sums = Vec::with_capacity(POINTS);
        // Each point runs twice back to back, untraced through `run_point`
        // and traced through the rebuilt body, so both halves of the
        // closure see the same machine: this box drifts by 10 % between
        // repetitions a few seconds apart.
        let (mut plain_wall_s, mut traced_wall_s) = (0.0, 0.0);
        for (i, &u) in utils.iter().enumerate() {
            let seed = point_seed(self.args.seed, i);
            let t0 = Instant::now();
            std::hint::black_box(run_point(N, u, sets, seed, &self.params, self.dist));
            plain_wall_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let point = tr.start("experiments.point", None, i as u64);
            let (mut pd2_sum, mut edf_sum) = (0u64, 0u64);
            for s in 0..sets {
                let (m_pd2, m_edf) = self.traced_set(&mut tr, u, s, seed, &pobs);
                pd2_sum += u64::from(m_pd2.unwrap_or(0));
                edf_sum += u64::from(m_edf.unwrap_or(0));
            }
            tr.end(point);
            traced_wall_s += t0.elapsed().as_secs_f64();
            sums.push((pd2_sum, edf_sum));
        }

        // The traced reimplementation must compute what run_point computed.
        if let Some(first) = self.reference.get() {
            let agree = sums.iter().enumerate().all(|(i, &(pd2, edf))| {
                let want = |key: &str, fail: &str| {
                    let n = sets as f64 - first[&format!("p{i:02}.{fail}")];
                    first[&format!("p{i:02}.{key}")] * n
                };
                (want("pd2_procs_mean", "pd2_failures") - pd2 as f64).abs() < 1e-6
                    && (want("edf_procs_mean", "edf_failures") - edf as f64).abs() < 1e-6
            });
            self.checks.push(Check::new(
                "traced_pass_agrees",
                agree,
                "per-point processor totals of the traced pass equal run_point's",
            ));
        }

        let total_sets = (sets * POINTS) as f64;
        let layers = tr.by_name();
        let per_set_us =
            |name: &str| layers.get(name).map_or(0, |t| t.self_ns) as f64 / 1e3 / total_sets;
        let rows = [
            (
                "workload.taskgen_us_per_set",
                per_set_us("workload.taskgen"),
            ),
            (
                "workload.cache_delay_us_per_set",
                per_set_us("workload.cache_delay"),
            ),
            (
                "overhead.pd2_procs_required_us_per_set",
                per_set_us("overhead.pd2_procs_required"),
            ),
            (
                "overhead.inflate_pd2_us_per_set",
                per_set_us("overhead.inflate_pd2"),
            ),
            (
                "partition.edf_ff_us_per_set",
                per_set_us("partition.edf_ff"),
            ),
        ];
        let layer_sum: f64 = rows.iter().map(|r| r.1).sum();
        let end_to_end_us = plain_wall_s * 1e6 / total_sets;
        let residual = end_to_end_us - layer_sum;
        let largest = rows
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("five rows");
        self.checks.push(Check::new(
            "closure",
            residual.abs() <= 0.10 * end_to_end_us,
            format!(
                "layers sum to {layer_sum:.1} us of {end_to_end_us:.1} us per set \
                 (residual {:.1} %); largest term {} at {:.1} us",
                100.0 * residual / end_to_end_us,
                largest.0,
                largest.1
            ),
        ));

        let path = self.args.out_dir.join("trace-fig3_sweep.json");
        if let Err(e) = tr.write_json(&path, "fig3_sweep", crate::MAX_TRACE_SPANS) {
            self.checks.fail("trace_file", e.to_string());
        }

        rows.into_iter()
            .chain([
                ("experiments.point_self_us_per_set", residual),
                (
                    "experiments.point_self_share_pct",
                    100.0 * residual / end_to_end_us,
                ),
                ("trace_spans", tr.span_count() as f64),
                (
                    "trace_overhead_pct",
                    100.0 * (traced_wall_s - plain_wall_s) / plain_wall_s,
                ),
            ])
            .map(|(name, v)| (name.to_string(), v))
            .collect()
    }

    fn checks(&mut self) -> Vec<Check> {
        self.checks.pass_unless_failed(
            "sweep_invariants",
            "zero worker panics, every set accounted for, processors ≥ raw utilisation",
        );
        let work = (self.sets_per_point() * POINTS) as u64;
        self.reference.verdicts(
            "fig3_sweep",
            self.args.seed,
            work,
            self.args.write_golden,
            &mut self.checks,
        );
        self.checks.take()
    }
}
