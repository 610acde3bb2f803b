//! Sharded parallel sweep execution — the engine behind every sweep
//! binary.
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
//!   before"), so the computed values cannot depend on scheduling;
//! * per-point `catch_unwind` with `--point-retries` (default 1 extra
//!   attempt) turns a pathological point into a reported skip instead of
//!   a dead sweep — a panicking point never corrupts its neighbours,
//!   whose rows are computed and delivered independently. A sweep that
//!   lost a point still prints its partial table, then exits 1 naming
//!   the missing keys ([`SweepDriver::finish`]).
//!
//! Observability is sharded too: each worker records into a private
//! [`obs::Recorder`] — no cross-thread cache-line contention on the hot
//! path — and the shards are merged into the main recorder once, at the
//! end, along with a single pool-utilization gauge
//! (`driver.worker_util_pct`) and a log2-bucket per-point latency
//! histogram (`driver.point_ns`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use stats::Table;

use crate::metrics::{write_metrics, METRICS_OUT};
use crate::{Args, Flag};

/// The flags [`SweepDriver`] reads (`--metrics-out` through
/// [`crate::metrics`]), declared once for every sweep binary to append to
/// its own list.
pub const SWEEP_FLAGS: &[Flag] = &[
    Flag::value("threads", "N"),
    Flag::value("point-retries", "N"),
    METRICS_OUT,
    Flag::switch("csv"),
];

/// Hard ceiling on `--threads`: beyond this the flag is a typo, not a
/// machine (matching the `daemon::cli` convention of printed errors +
/// exit 2, never a panic or a silent clamp).
const MAX_THREADS: usize = 1024;

/// The pool width used when `--threads` is not given.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Executes sweep points across a worker pool with deterministic output
/// and per-point retries. See the module docs for the contract.
pub struct SweepDriver {
    binary: String,
    threads: usize,
    /// Extra attempts after a panicking first attempt.
    retries: u64,
    fresh: u64,
    /// Keys of the points that exhausted their retries, in sweep order.
    failed: Vec<String>,
}

impl SweepDriver {
    /// Builds a driver from the standard flags: `--threads <n>` (default:
    /// all cores) and `--point-retries <n>` (default 1). Prints an error
    /// and exits with code 2 on a bad value.
    pub fn new(args: &Args, binary: &str) -> Self {
        Self::from_flags(args, binary, default_threads())
    }

    /// [`SweepDriver::new`] for binaries whose points *measure wall
    /// time* (fig2a/fig2b): concurrent points would contend for the cores
    /// being measured, so the pool defaults to one worker and parallelism
    /// is strictly opt-in via `--threads`.
    pub fn serial_by_default(args: &Args, binary: &str) -> Self {
        Self::from_flags(args, binary, 1)
    }

    fn from_flags(args: &Args, binary: &str, default_width: usize) -> Self {
        let parsed = parse_threads(args, default_width).and_then(|threads| {
            let retries: u64 = args.try_get_or("point-retries", 1)?;
            Ok(Self::with_parts(binary, threads, retries))
        });
        parsed.unwrap_or_else(|e: String| {
            eprintln!("{binary}: {e}");
            std::process::exit(2);
        })
    }

    /// `threads` must already be validated (≥ 1).
    fn with_parts(binary: &str, threads: usize, retries: u64) -> Self {
        assert!(threads >= 1, "validated by the caller");
        SweepDriver {
            binary: binary.to_string(),
            threads,
            retries,
            fresh: 0,
            failed: Vec::new(),
        }
    }

    /// Runs the sweep: one call per binary, all points at once.
    ///
    /// `keys[i]` is the stable identity of point `i` (named in progress
    /// and failure messages); `compute(i, shard)` produces point `i`'s
    /// table row, recording telemetry into its worker's private `shard`.
    /// The returned vector is in `keys` order; an entry is `None` only if
    /// every attempt at that point panicked (reported on stderr, and
    /// [`SweepDriver::finish`] then exits 1).
    ///
    /// `compute` must derive everything from `i` (and the captured
    /// flags/seed) alone — that is the determinism contract that makes
    /// output independent of the thread count.
    pub fn run<F>(
        &mut self,
        keys: &[String],
        rec: &obs::Recorder,
        compute: F,
    ) -> Vec<Option<Vec<String>>>
    where
        F: Fn(usize, &obs::Recorder) -> Vec<String> + Sync,
    {
        let mut results: Vec<Option<Vec<String>>> = vec![None; keys.len()];
        if keys.is_empty() {
            return results;
        }
        let workers = self.threads.min(keys.len());
        let enabled = rec.is_enabled();
        let retries = self.retries;
        let compute = &compute;
        let started = Instant::now();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Option<Vec<String>>)>();

        let shards: Vec<(obs::Snapshot, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let shard = obs::Recorder::new(enabled);
                        let point_ns = shard.log2_histogram("driver.point_ns");
                        let retry_ctr = shard.counter("driver.point_retries");
                        let mut busy_ns = 0u64;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= keys.len() {
                                break;
                            }
                            let key = &keys[i];
                            let t0 = Instant::now();
                            let mut row = None;
                            for attempt in 0..=retries {
                                if attempt > 0 {
                                    retry_ctr.incr();
                                }
                                match catch_unwind(AssertUnwindSafe(|| compute(i, &shard))) {
                                    Ok(r) => {
                                        row = Some(r);
                                        break;
                                    }
                                    Err(payload) => eprintln!(
                                        "  [{key}] attempt {}/{} panicked: {}",
                                        attempt + 1,
                                        retries + 1,
                                        panic_message(payload.as_ref())
                                    ),
                                }
                            }
                            if row.is_none() {
                                eprintln!(
                                    "  [{key}] failed after {} attempts; skipping",
                                    retries + 1
                                );
                            }
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
            for _ in 0..keys.len() {
                let Ok((i, row)) = rx.recv() else {
                    break; // a worker died outside catch_unwind; join reports it
                };
                results[i] = row;
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("sweep worker panicked outside catch_unwind")
                })
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
        let lost = keys.iter().zip(&results).filter(|(_, row)| row.is_none());
        let lost: Vec<String> = lost.map(|(key, _)| key.clone()).collect();
        self.fresh += (keys.len() - lost.len()) as u64;
        self.failed.extend(lost);
        rec.counter("driver.points_fresh").add(self.fresh);
        rec.counter("driver.points_failed")
            .add(self.failed.len() as u64);
        results
    }

    /// The shared epilogue of every sweep binary: prints the table (CSV
    /// under `--csv`, aligned text otherwise) and writes `--metrics-out`.
    /// If a point exhausted its retries the partial table is still
    /// printed, but the missing keys are named on stderr and the process
    /// exits 1 — a sweep that lost a row must not report success.
    pub fn finish(
        &self,
        args: &Args,
        rec: &obs::Recorder,
        header: &[&str],
        rows: Vec<Option<Vec<String>>>,
    ) {
        let mut table = Table::new(header);
        for row in rows.into_iter().flatten() {
            table.row_owned(row);
        }
        if args.flag("csv") {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.render());
        }
        write_metrics(args, rec);
        if self.exit_code() != 0 {
            eprintln!(
                "{}: {} of {} points failed every attempt and are missing from the table: {}",
                self.binary,
                self.failed.len(),
                self.fresh as usize + self.failed.len(),
                self.failed.join(", ")
            );
            std::process::exit(self.exit_code());
        }
    }

    /// What [`SweepDriver::finish`] exits with: 0, or 1 once any point
    /// has exhausted its retries.
    fn exit_code(&self) -> i32 {
        i32::from(!self.failed.is_empty())
    }

    /// Pool width this driver will use.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Parses and validates `--threads`: absent → `default`, `0` or values
/// beyond [`MAX_THREADS`] → a described error.
fn parse_threads(args: &Args, default: usize) -> Result<usize, String> {
    let threads: usize = args.try_get_or("threads", default)?;
    if threads == 0 || threads > MAX_THREADS {
        return Err(format!(
            "--threads {threads}: must be between 1 and {MAX_THREADS}"
        ));
    }
    Ok(threads)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn driver(threads: usize, retries: u64) -> SweepDriver {
        SweepDriver::with_parts("figT", threads, retries)
    }

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
            let expect: Vec<Option<Vec<String>>> = (0..n).map(|i| Some(row_for(i))).collect();
            for threads in [1usize, 2, 8] {
                let mut d = driver(threads, 0);
                let got = d.run(&ks, &obs::Recorder::disabled(), |i, _| row_for(i));
                assert_eq!(got, expect, "n={n} threads={threads}");
                assert_eq!(d.fresh, n as u64);
            }
        }
    }

    #[test]
    fn shard_metrics_merge_into_the_main_recorder() {
        let rec = obs::Recorder::enabled();
        let mut d = driver(4, 0);
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

    #[test]
    fn panicking_point_is_retried_then_skipped_without_corrupting_neighbours() {
        let attempts = AtomicU64::new(0);
        let mut d = driver(2, 2);
        let got = d.run(&keys(6), &obs::Recorder::disabled(), |i, _| {
            if i == 3 && attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("transient failure");
            }
            row_for(i)
        });
        // Point 3 succeeded on its final allowed attempt; every
        // neighbour is intact.
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.as_deref(), Some(&row_for(i)[..]), "point {i}");
        }
        assert_eq!((d.fresh, d.failed.len()), (6, 0));
        assert_eq!(d.exit_code(), 0);

        // With retries exhausted the point is skipped and its neighbours
        // survive — but the sweep no longer reports success, and the
        // missing keys are remembered in sweep order.
        let mut d = driver(2, 1);
        let got = d.run(&keys(5), &obs::Recorder::disabled(), |i, _| {
            if i == 3 || i == 1 {
                panic!("permanent failure");
            }
            row_for(i)
        });
        assert_eq!((&got[1], &got[3]), (&None, &None));
        for i in [0usize, 2, 4] {
            assert_eq!(got[i].as_deref(), Some(&row_for(i)[..]));
        }
        assert_eq!(
            (d.fresh, &d.failed[..]),
            (3, &["K=1".to_string(), "K=3".to_string()][..])
        );
        assert_eq!(d.exit_code(), 1);
    }

    #[test]
    fn thread_flags_are_validated() {
        let parse = |argv: &[&str]| Args::from_args(SWEEP_FLAGS, argv.iter().copied()).unwrap();
        assert_eq!(parse_threads(&parse(&["--threads", "4"]), 1), Ok(4));

        // An absent flag falls back to the given default.
        assert_eq!(parse_threads(&parse(&[]), 3), Ok(3));
        assert!(default_threads() >= 1);

        // Zero, absurd, and malformed values are described errors.
        for bad in [
            ["--threads", "0"],
            ["--threads", "9999"],
            ["--threads", "many"],
        ] {
            let err = parse_threads(&parse(&bad), 1).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
    }
}
