//! The five workloads and the run shape they share.
//!
//! A run is many short repetitions of *identical, fixed work*: an
//! operation count that never depends on the wall clock, so two commits
//! measured with the same arguments do identical work, and `--seconds`
//! only decides how many repetitions there are. A repetition sets up from
//! scratch (inputs, engine or daemon, warm-up), which is timed as that
//! repetition's set-up, and then runs the timed work in [`Slice`]s.
//! Because slice `j` does the same work in every repetition, a metric's
//! value is read off the samples of each slice that the host left
//! undisturbed (see [`crate::stats::REPORTED_PERCENTILE`]).

pub mod admit;
pub mod engine_pd2;
pub mod fig3_sweep;
pub mod pack_exact;

use crate::report::{end_to_end_record, Check, MetricRecord};
use crate::stats::{percentile, Summary, REPORTED_PERCENTILE};
use std::path::PathBuf;
use std::time::Duration;

/// What `pfair-benchmark run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement budget; fixes the number of repetitions.
    pub seconds: f64,
    /// Timed repetitions.
    pub reps: u64,
    /// Nominal length of one repetition on the seed code; fixes each
    /// repetition's operation count.
    pub rep_seconds: f64,
    /// Directory for sockets and trace files (the process runs inside it).
    pub out_dir: PathBuf,
    /// Overwrite the golden entry for this seed and work size.
    pub write_golden: bool,
}

/// One stretch of a repetition's timed work: a timed call on the
/// single-threaded workloads, the whole request stream on the daemon ones,
/// whose requests overlap. A repetition's slices follow each other and
/// together are its timed work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Operations done in the slice.
    pub ops: u64,
    /// Wall time of the slice.
    pub wall_s: f64,
    /// Median latency of the slice's operations, µs: for a timed call its
    /// wall time per operation, for a request stream the median round trip.
    pub latency_us: f64,
}

impl Slice {
    /// One timed call of `ops` operations that took `wall`.
    pub fn call(ops: u64, wall: Duration) -> Slice {
        let wall_s = wall.as_secs_f64();
        Slice {
            ops,
            wall_s,
            latency_us: wall_s * 1e6 / ops as f64,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Building inputs, engine or daemon, and the warm-up.
    pub setup_s: f64,
    /// Process CPU over the timed work, all threads. Per repetition, not
    /// per slice: `schedstat` advances a scheduler tick (4 ms) at a time.
    pub cpu_ns: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The timed work, in order.
    pub slices: Vec<Slice>,
}

impl Rep {
    /// Operations done in the timed work.
    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    /// Wall time of the timed work.
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }
}

/// A workload: repetitions for the end-to-end pass, a traced pass for the
/// per-layer numbers, and the checks both feed.
pub trait Workload {
    /// One repetition of the sized work. Records what it checks along
    /// the way.
    fn rep(&mut self) -> Rep;

    /// The traced pass: one repetition with spans around every layer
    /// call, plus the isolated layer measurements. `base` is an untraced
    /// repetition from the same process, the yardstick for
    /// `trace_overhead_pct`. Returns `(per-layer metric, value)` pairs.
    fn traced(&mut self, base: &Rep) -> Vec<(String, f64)>;

    /// Checks gathered so far, goldens included. Call after the last
    /// repetition.
    fn checks(&mut self) -> Vec<Check>;
}

/// Repetitions per second of `--seconds` in the end-to-end pass.
pub const REPS_PER_SECOND: f64 = 5.0;
/// Nominal repetition length of the end-to-end pass, seconds. Short, so
/// that a run holds many repetitions and with them many samples of every
/// slice, a few of which the host leaves undisturbed.
pub const REP_SECONDS: f64 = 0.16;
/// Nominal repetition length of the traced pass, seconds. Long, because
/// the traced pass has one repetition to average its layers over.
pub const TRACED_REP_SECONDS: f64 = 2.0;

/// Operation count of one repetition: `per_second` × the repetition's
/// nominal length, at least 1.
pub fn sized(per_second: f64, rep_seconds: f64) -> u64 {
    ((per_second * rep_seconds).round() as u64).max(1)
}

/// Builds the named workload.
pub fn build(args: &RunArgs) -> Option<Box<dyn Workload>> {
    Some(match args.workload.as_str() {
        "fig3_sweep" => Box::new(fig3_sweep::Fig3Sweep::new(args)),
        "pack_exact" => Box::new(pack_exact::PackExact::new(args)),
        "engine_pd2" => Box::new(engine_pd2::EnginePd2::new(args)),
        "admit_rtt" => Box::new(admit::Admit::new(args, admit::Shape::RTT)),
        "admit_pipelined" => Box::new(admit::Admit::new(args, admit::Shape::PIPELINED)),
        _ => return None,
    })
}

/// The end-to-end metrics of a run. `peak_rss_mb` is one reading for the
/// whole process; the others are read off the timed repetitions slice by
/// slice, at the [`REPORTED_PERCENTILE`] for the value and at the fastest
/// and slowest sample for the best and worst beside it:
///
/// * `ops_per_s`: operations ÷ the sum over slices of the slice's wall time;
/// * `op_us_p50`: the median over slices of the slice's latency;
/// * `cpu_us_per_op`: that same wall time per operation × the CPUs the
///   process kept busy (CPU ÷ wall of a repetition, median over
///   repetitions: both stretch alike when the host slows the process);
/// * `setup_s`: the repetitions' set-up times.
///
/// # Panics
///
/// Panics when `reps` is empty or the repetitions differ in their slices.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<MetricRecord> {
    let shape = |r: &Rep| r.slices.iter().map(|s| s.ops).collect::<Vec<u64>>();
    assert!(
        reps.iter().all(|r| shape(r) == shape(&reps[0])),
        "repetitions of identical work have identical slices"
    );
    let ops = reps[0].ops() as f64;
    let over_reps = |p: f64, f: &dyn Fn(&Rep) -> f64| {
        percentile(&mut reps.iter().map(f).collect::<Vec<f64>>(), p)
    };
    let busy_cpus = over_reps(50.0, &|r| r.cpu_ns as f64 / 1e9 / r.wall_s());
    // [ops_per_s, op_us_p50, cpu_us_per_op, setup_s] at percentile `p`.
    let at = |p: f64| -> [f64; 4] {
        let slices = 0..reps[0].slices.len();
        let wall_s: f64 = slices
            .clone()
            .map(|j| over_reps(p, &|r| r.slices[j].wall_s))
            .sum();
        let mut latency_us: Vec<f64> = slices
            .map(|j| over_reps(p, &|r| r.slices[j].latency_us))
            .collect();
        [
            ops / wall_s,
            percentile(&mut latency_us, 50.0),
            busy_cpus * wall_s * 1e6 / ops,
            over_reps(p, &|r| r.setup_s),
        ]
    };
    let (value, best, worst) = (at(REPORTED_PERCENTILE), at(0.0), at(100.0));
    let n = reps.len() as u64;
    ["ops_per_s", "op_us_p50", "cpu_us_per_op", "setup_s"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let (value, best, worst) = (value[i], best[i], worst[i]);
            let summary = Summary {
                value,
                best,
                worst,
                n,
            };
            (name, summary)
        })
        .chain([("peak_rss_mb", Summary::single(peak_rss_mb))])
        .map(|(name, s)| end_to_end_record(name, s).expect("listed in END_TO_END"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    /// A repetition of two calls of 500 operations each.
    fn rep(call_ms: [u64; 2], setup_s: f64) -> Rep {
        let slices: Vec<Slice> = call_ms
            .iter()
            .map(|&ms| Slice::call(500, Duration::from_millis(ms)))
            .collect();
        Rep {
            setup_s,
            cpu_ns: (call_ms[0] + call_ms[1]) * 1_000_000, // one busy CPU
            failed: 0,
            slices,
        }
    }

    #[test]
    fn work_scales_with_the_repetition_length_and_never_reaches_zero() {
        assert_eq!(sized(1_250_000.0, REP_SECONDS), 200_000);
        assert_eq!(sized(1_250_000.0, TRACED_REP_SECONDS), 2_500_000);
        assert_eq!(sized(9.0, REP_SECONDS), 1);
        assert_eq!(sized(6.0, 0.01), 1);
    }

    #[test]
    fn metrics_are_read_off_each_slice_separately() {
        // The host disturbed a different call in each of two repetitions;
        // the third was disturbed throughout. Fewer than 20 repetitions,
        // so the reported percentile is each slice's fastest sample.
        let reps = [
            rep([500, 900], 0.3),
            rep([800, 500], 0.1),
            rep([900, 900], 0.2),
        ];
        let m = end_to_end(&reps, 12.5);
        let names: Vec<&str> = m.iter().map(|r| r.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        let near = |got: f64, want: f64| (got - want).abs() < 1e-9 * want;
        // 1000 operations in 0.5 s + 0.5 s, though no repetition was that fast.
        let s = &m[0].summary;
        assert!(near(s.value, 1000.0) && near(s.best, 1000.0) && s.n == 3);
        assert!(near(s.worst, 1000.0 / 1.8));
        // Each call's 500 operations in 0.5 s.
        assert!(near(m[1].summary.value, 1000.0));
        assert!(near(m[1].summary.worst, 1800.0));
        // One busy CPU: CPU per operation is wall per operation.
        assert!(near(m[2].summary.value, 1000.0));
        assert_eq!((m[3].summary.value, m[3].summary.worst), (0.1, 0.3));
        assert_eq!((m[4].summary.value, m[4].summary.n), (12.5, 1));
    }

    #[test]
    fn the_reported_sample_is_the_fifth_fastest_of_a_hundred() {
        // Call times 501..=600 ms in some order: 5th fastest is 505 ms.
        let reps: Vec<Rep> = (0..100u64)
            .map(|i| rep([501 + (i * 37) % 100, 501 + (i * 37) % 100], 0.1))
            .collect();
        let m = end_to_end(&reps, 1.0);
        assert!((m[0].summary.value - 1000.0 / 1.010).abs() < 1e-9);
        assert!((m[0].summary.best - 1000.0 / 1.002).abs() < 1e-9);
        assert!((m[0].summary.worst - 1000.0 / 1.200).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "identical slices")]
    fn repetitions_must_share_their_slices() {
        let mut odd = rep([500, 500], 0.1);
        odd.slices.pop();
        end_to_end(&[rep([500, 500], 0.1), odd], 1.0);
    }
}
