//! Sharded parallel sweep execution — the engine behind every sweep
//! command.
//!
//! A paper figure is a Monte-Carlo sweep: an ordered list of points, each
//! computed independently from `(flags, seed, point identity)` alone.
//! [`SweepDriver`] runs that list across a pool of `--threads N` worker
//! threads (default: all cores) and guarantees that **stdout is
//! byte-identical for every thread count**:
//!
//! * points are dispatched to workers through a single atomic cursor, but
//!   rows are reassembled in sweep order before anything is printed;
//! * every point's randomness derives from the seed and the point's own
//!   identity (never from "which worker" or "how many points ran
//!   before"), so the computed values cannot depend on scheduling.
//!
//! A point is a pure function of its flags and seed, so a point that
//! panics would panic again on any retry: nothing catches it. The panic
//! ends the sweep, and the process, with exit 101 and its message, and no
//! table is printed — a table missing a row is wrong data.
//!
//! Observability is sharded too: each worker records into a private
//! [`obs::Recorder`] — no cross-thread cache-line contention on the hot
//! path — and the shards are merged into the main recorder once, at the
//! end, along with a single pool-utilization gauge
//! (`driver.worker_util_pct`) and a log2-bucket per-point latency
//! histogram (`driver.point_ns`).

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use stats::Table;

use crate::metrics::{write_metrics, METRICS_OUT};
use crate::{Args, Flag};

/// The flags [`SweepDriver`] reads (`--metrics-out` through
/// [`crate::metrics`]), declared once for every sweep command to append
/// to its own list.
pub const SWEEP_FLAGS: &[Flag] = &[
    Flag::value("threads", "N"),
    METRICS_OUT,
    Flag::switch("csv"),
];

/// The values `--threads` may take: beyond 1024 the flag is a typo, not a
/// machine (a usage error, never a panic or a silent clamp).
const THREADS: RangeInclusive<usize> = 1..=1024;

/// The pool width used when `--threads` is not given.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Executes sweep points across a worker pool with deterministic output.
/// See the module docs for the contract.
pub struct SweepDriver {
    threads: usize,
}

impl SweepDriver {
    /// Builds a driver from `--threads <n>` (default: all cores). A value
    /// outside 1..=1024 is refused with the usage line (exit 2).
    pub fn new(args: &Args) -> Self {
        Self::with_threads(args.get_in("threads", default_threads(), THREADS))
    }

    /// [`SweepDriver::new`] for commands whose points *measure wall
    /// time* (fig2a/fig2b): concurrent points would contend for the cores
    /// being measured, so the pool defaults to one worker and parallelism
    /// is strictly opt-in via `--threads`.
    pub fn serial_by_default(args: &Args) -> Self {
        Self::with_threads(args.get_in("threads", 1, THREADS))
    }

    /// `threads` must already be validated (≥ 1).
    fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "validated by the caller");
        SweepDriver { threads }
    }

    /// Runs the sweep: one call per command, all points at once.
    ///
    /// `keys[i]` is the stable identity of point `i` (named in progress
    /// messages); `compute(i, shard)` produces point `i`'s table row,
    /// recording telemetry into its worker's private `shard`. The
    /// returned rows are in `keys` order. A panic in `compute` propagates
    /// out of this call once the other workers stop.
    ///
    /// `compute` must derive everything from `i` (and the captured
    /// flags/seed) alone — that is the determinism contract that makes
    /// output independent of the thread count.
    pub fn run<F>(&self, keys: &[String], rec: &obs::Recorder, compute: F) -> Vec<Vec<String>>
    where
        F: Fn(usize, &obs::Recorder) -> Vec<String> + Sync,
    {
        let mut results: Vec<Vec<String>> = vec![Vec::new(); keys.len()];
        if keys.is_empty() {
            return results;
        }
        let workers = self.threads.min(keys.len());
        let enabled = rec.is_enabled();
        let compute = &compute;
        let started = Instant::now();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Vec<String>)>();

        let shards: Vec<(obs::Snapshot, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let shard = obs::Recorder::new(enabled);
                        let point_ns = shard.log2_histogram("driver.point_ns");
                        let mut busy_ns = 0u64;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= keys.len() {
                                break;
                            }
                            let t0 = Instant::now();
                            let row = compute(i, &shard);
                            let ns = t0.elapsed().as_nanos() as u64;
                            busy_ns += ns;
                            point_ns.record(ns);
                            if tx.send((i, row)).is_err() {
                                break;
                            }
                        }
                        (shard.snapshot(), busy_ns)
                    })
                })
                .collect();
            drop(tx);

            // Completion stream (this thread): reassemble rows by index.
            // A worker that panics drops its sender and leaves its point
            // without a row; the join below re-raises the panic.
            for (i, row) in rx.iter() {
                results[i] = row;
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        // Merge the observability shards (worker order — deterministic)
        // and record the pool gauges exactly once per sweep.
        let wall_ns = started.elapsed().as_nanos().max(1) as u64;
        let mut busy_total = 0u64;
        for (snap, busy_ns) in &shards {
            rec.absorb(snap);
            busy_total += busy_ns;
        }
        rec.timer("driver.sweep_wall_ns").record_ns(wall_ns);
        rec.histogram("driver.worker_util_pct", &[10, 25, 50, 75, 90, 100])
            .record(
                (100.0 * busy_total as f64 / (wall_ns as f64 * workers as f64)).min(100.0) as u64,
            );
        rec.counter("driver.points_fresh").add(keys.len() as u64);
        results
    }

    /// The shared epilogue of every sweep command: prints the table (CSV
    /// under `--csv`, aligned text otherwise) and writes `--metrics-out`.
    pub fn finish(
        &self,
        args: &Args,
        rec: &obs::Recorder,
        header: &[&str],
        rows: Vec<Vec<String>>,
    ) {
        let mut table = Table::new(header);
        for row in rows {
            table.row_owned(row);
        }
        if args.flag("csv") {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.render());
        }
        write_metrics(args, rec);
    }

    /// Pool width this driver will use.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("K={i}")).collect()
    }

    /// A deterministic stand-in for a sweep point: the row depends only
    /// on the point index.
    fn row_for(i: usize) -> Vec<String> {
        vec![format!("K={i}"), format!("{:.4}", (i as f64 + 1.0).sqrt())]
    }

    #[test]
    fn rows_are_byte_identical_across_thread_counts() {
        // The determinism guarantee, as a property over several sweep
        // sizes: threads ∈ {1, 2, 8} must produce identical row vectors.
        for n in [1usize, 5, 13, 32] {
            let ks = keys(n);
            let expect: Vec<Vec<String>> = (0..n).map(row_for).collect();
            for threads in [1usize, 2, 8] {
                let d = SweepDriver::with_threads(threads);
                let got = d.run(&ks, &obs::Recorder::disabled(), |i, _| row_for(i));
                assert_eq!(got, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn shard_metrics_merge_into_the_main_recorder() {
        let rec = obs::Recorder::enabled();
        let d = SweepDriver::with_threads(4);
        let got = d.run(&keys(10), &rec, |i, shard| {
            shard.counter("test.points_seen").incr();
            row_for(i)
        });
        assert_eq!(got.len(), 10);
        let snap = rec.snapshot();
        // Worker-shard counters sum across the pool…
        assert_eq!(snap.counter("test.points_seen"), Some(10));
        assert_eq!(snap.counter("driver.points_fresh"), Some(10));
        // …the per-point latency histogram covers every point…
        assert_eq!(snap.histogram("driver.point_ns").unwrap().count, 10);
        // …and the pool gauge is recorded exactly once.
        assert_eq!(snap.histogram("driver.worker_util_pct").unwrap().count, 1);
    }

    /// A point is a pure function of its flags and seed, so a panicking
    /// point is a bug to surface, not a fault to retry: the sweep fails.
    #[test]
    #[should_panic(expected = "point 3 is broken")]
    fn a_panicking_point_fails_the_sweep() {
        SweepDriver::with_threads(2).run(&keys(6), &obs::Recorder::disabled(), |i, _| {
            assert!(i != 3, "point 3 is broken");
            row_for(i)
        });
    }

    #[test]
    fn thread_flags_are_validated() {
        let parse = |argv: &[&str]| Args::from_args(SWEEP_FLAGS, argv.iter().copied()).unwrap();
        assert_eq!(
            parse(&["--threads", "4"]).try_get_in("threads", 1, THREADS),
            Ok(4)
        );

        // An absent flag falls back to the given default.
        assert_eq!(parse(&[]).try_get_in("threads", 3, THREADS), Ok(3));
        assert!(default_threads() >= 1);

        // Zero, absurd, and malformed values are described errors.
        for bad in [
            ["--threads", "0"],
            ["--threads", "9999"],
            ["--threads", "many"],
        ] {
            let err = parse(&bad).try_get_in("threads", 1, THREADS).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
    }
}
