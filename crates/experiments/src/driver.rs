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
//!   whose rows are computed and delivered independently.
//!
//! Crash tolerance composes with parallelism: with `--checkpoint <file>`
//! completed rows are *appended* to a durable sharded log (the v3 format,
//! see [`crate::checkpoint`]) every `--batch` points (default: one batch
//! per pool width) — save I/O is O(n) bytes over an n-point sweep.
//! `--fail-after N` still simulates a crash (exit 3) after `N` fresh
//! points have been committed, and a resumed run replays checkpointed
//! rows through an O(1) keyed index — so an interrupted `--threads 8` run
//! may resume under `--threads 1` and still reproduce the uninterrupted
//! output byte-for-byte. Resume prints one `restored N/M points` summary
//! (per-point lines only with `--verbose`, or when few points replayed).
//!
//! `--procs N` scales past one process: a coordinator spawns `N`
//! supervised worker *processes* (each running `--threads` threads) that
//! claim contiguous point ranges, append completed rows to their own
//! checkpoint shard, and renew lease heartbeats; the supervisor reclaims
//! expired leases and re-dispatches ranges with a bounded retry budget —
//! a SIGKILL'd or hung worker degrades throughput, never correctness.
//! See [`crate::procs`] for the protocol and the `--chaos` fault
//! injector that exercises it.
//!
//! Observability is sharded too: each worker records into a private
//! [`obs::Recorder`] — no cross-thread cache-line contention on the hot
//! path — and the shards are merged into the main recorder once, at the
//! end, along with a single pool-utilization gauge
//! (`driver.worker_util_pct`) and a log2-bucket per-point latency
//! histogram (`driver.point_ns`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use crate::args::{Args, Flag};
use crate::checkpoint::{
    panic_message, CheckpointError, CheckpointPoint, CheckpointSink, NullSink, ShardSink,
};
use crate::procs::{ChaosSpec, WorkerSpec};

/// The flags [`SweepDriver`] and [`crate::metrics`] read, declared once
/// for every sweep binary to append to its own list.
pub const SWEEP_FLAGS: &[Flag] = &[
    Flag::value("threads", "N"),
    Flag::value("point-retries", "N"),
    crate::metrics::METRICS_OUT,
    Flag::value("checkpoint", "FILE"),
    Flag::value("batch", "N"),
    Flag::value("fail-after", "N"),
    Flag::switch("verbose"),
    Flag::value("procs", "N"),
    Flag::value("chunk", "N"),
    Flag::value("lease-ms", "N"),
    Flag::value("worker-retries", "N"),
    Flag::value("chaos", "kill-after=K[,torn-tail]"),
    Flag::value("_worker-shard", "N"),
    Flag::value("_range-start", "N"),
    Flag::value("_range-len", "N"),
];

/// Hard ceiling on `--threads`: beyond this the flag is a typo, not a
/// machine (matching the args.rs convention of printed errors + exit 2,
/// never a panic or a silent clamp).
pub const MAX_THREADS: usize = 1024;

/// Hard ceiling on `--procs` (worker processes), same spirit as
/// [`MAX_THREADS`].
pub const MAX_PROCS: usize = 256;

/// Default `--lease-ms`: how long a worker's range claim stays valid
/// without a heartbeat renewal before the supervisor reclaims it.
pub const DEFAULT_LEASE_MS: u64 = 3000;

/// Default `--worker-retries`: re-dispatches of a range after its worker
/// died or lost its lease, before the coordinator gives up on the sweep.
pub const DEFAULT_WORKER_RETRIES: u64 = 2;

/// Without `--verbose`, a resume prints per-point `restored` lines only
/// when at most this many points replayed; above it, only the one-line
/// summary (a 10⁵-point resume must not print 10⁵ stderr lines).
pub const RESTORED_LINES_MAX: u64 = 20;

/// The pool width used when `--threads` is not given.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Executes sweep points across a worker pool with deterministic output,
/// retries, and batched checkpointing. See the module docs for the
/// contract.
pub struct SweepDriver {
    pub(crate) binary: String,
    pub(crate) sink: Box<dyn CheckpointSink>,
    pub(crate) threads: usize,
    pub(crate) batch: usize,
    /// Extra attempts after a panicking first attempt.
    pub(crate) retries: u64,
    /// Exit 3 after this many freshly computed points (0 = disabled).
    pub(crate) fail_after: u64,
    /// Per-point `restored` lines on resume regardless of count.
    pub(crate) verbose: bool,
    pub(crate) fresh: u64,
    pub(crate) cached: u64,
    pub(crate) failed: u64,
    /// Worker processes to spawn (1 = in-process threads only).
    pub(crate) procs: usize,
    /// Checkpoint path (needed by the coordinator/worker paths, which
    /// open it themselves instead of through `sink`).
    pub(crate) path: Option<PathBuf>,
    /// Sweep identity fingerprint (binary-specific flag summary).
    pub(crate) config: String,
    /// Lease validity window for worker heartbeats.
    pub(crate) lease_ms: u64,
    /// Range re-dispatch budget after worker deaths.
    pub(crate) worker_retries: u64,
    /// Points per dispatched range (`None` = auto: pending / (procs·4)).
    pub(crate) chunk: Option<usize>,
    /// Fault injection (`--chaos`), coordinator only.
    pub(crate) chaos: Option<ChaosSpec>,
    /// Set when this process *is* a spawned worker (`--_worker-shard`).
    pub(crate) worker: Option<WorkerSpec>,
    /// The argv to rebuild worker command lines from.
    pub(crate) raw_args: Vec<String>,
}

impl SweepDriver {
    /// Builds a driver from the standard flags: `--threads <n>` (default
    /// [`default_threads`]), `--batch <n>` (default: the pool width),
    /// `--checkpoint <file>`, `--point-retries <n>` (default 1),
    /// `--fail-after <n>`, `--verbose`.
    ///
    /// `config` should fingerprint every flag that shapes the sweep
    /// (task count, sets, points, seed) and nothing presentational or
    /// performance-only. Prints an error and exits with code 2 on a bad
    /// flag or an unusable checkpoint file.
    pub fn new(args: &Args, binary: &str, config: String) -> Self {
        Self::with_default_threads(args, binary, config, default_threads())
    }

    /// [`SweepDriver::new`] for binaries whose points *measure wall
    /// time* (fig2a/fig2b): concurrent points would contend for the cores
    /// being measured, so the pool defaults to one worker and parallelism
    /// is strictly opt-in via `--threads`.
    pub fn serial_by_default(args: &Args, binary: &str, config: String) -> Self {
        Self::with_default_threads(args, binary, config, 1)
    }

    fn with_default_threads(
        args: &Args,
        binary: &str,
        config: String,
        default_threads: usize,
    ) -> Self {
        let fallible = || -> Result<Self, String> {
            let threads = Self::parse_threads(args, default_threads)?;
            let batch = Self::parse_batch(args, threads)?;
            let retries: u64 = args.try_get_or("point-retries", 1)?;
            let fail_after: u64 = args.try_get_or("fail-after", 0)?;
            let path = args.get("checkpoint").map(PathBuf::from);
            let procs = Self::parse_procs(args)?;
            let chaos = ChaosSpec::from_args(args)?;
            let worker = WorkerSpec::from_args(args)?;
            let lease_ms: u64 = args.try_get_or("lease-ms", DEFAULT_LEASE_MS)?;
            let worker_retries: u64 = args.try_get_or("worker-retries", DEFAULT_WORKER_RETRIES)?;
            let chunk: Option<usize> = match args.get("chunk") {
                None => None,
                Some(_) => {
                    let c: usize = args.try_get_or("chunk", 0)?;
                    if c == 0 {
                        return Err("--chunk 0: must be at least 1".to_string());
                    }
                    Some(c)
                }
            };
            if lease_ms == 0 {
                return Err("--lease-ms 0: must be at least 1".to_string());
            }
            if procs > 1 {
                if path.is_none() {
                    return Err(format!(
                        "--procs {procs} requires --checkpoint: worker processes \
                         exchange completed points through the sharded checkpoint"
                    ));
                }
                if fail_after > 0 {
                    return Err(
                        "--fail-after simulates a single-process crash; with --procs, \
                         kill workers via --chaos instead"
                            .to_string(),
                    );
                }
            } else if chaos.is_some() {
                return Err("--chaos requires --procs > 1 (there is no worker to kill)".to_string());
            }

            let (sink, worker) = if let Some(spec) = worker {
                // A spawned worker: the coordinator holds the directory
                // lock; the worker opens the set read-only inside
                // `run()` and appends to its own shard.
                if path.is_none() {
                    return Err("worker mode requires --checkpoint".to_string());
                }
                (Box::new(NullSink) as Box<dyn CheckpointSink>, Some(spec))
            } else if procs > 1 {
                // The coordinator computes nothing itself; it opens the
                // shard set exclusively inside `run()`.
                (Box::new(NullSink) as Box<dyn CheckpointSink>, None)
            } else {
                let sink: Box<dyn CheckpointSink> = match &path {
                    Some(p) => Box::new(
                        ShardSink::open(p.clone(), binary, &config).map_err(|e| e.to_string())?,
                    ),
                    None => Box::new(NullSink),
                };
                (sink, None)
            };
            Ok(SweepDriver {
                binary: binary.to_string(),
                sink,
                threads,
                batch,
                retries,
                fail_after,
                verbose: args.flag("verbose"),
                fresh: 0,
                cached: 0,
                failed: 0,
                procs,
                path,
                config,
                lease_ms,
                worker_retries,
                chunk,
                chaos,
                worker,
                raw_args: args.raw().to_vec(),
            })
        };
        match fallible() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{binary}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses and validates `--procs` (worker process count): absent →
    /// `1` (no subprocesses), `0` or values beyond [`MAX_PROCS`] → a
    /// described error.
    pub fn parse_procs(args: &Args) -> Result<usize, String> {
        let procs: usize = args.try_get_or("procs", 1)?;
        if procs == 0 || procs > MAX_PROCS {
            return Err(format!(
                "--procs {procs}: must be between 1 and {MAX_PROCS}"
            ));
        }
        Ok(procs)
    }

    /// Parses and validates `--threads`: absent → `default`, `0` or
    /// values beyond [`MAX_THREADS`] → a described error.
    pub fn parse_threads(args: &Args, default: usize) -> Result<usize, String> {
        let threads: usize = args.try_get_or("threads", default)?;
        if threads == 0 || threads > MAX_THREADS {
            return Err(format!(
                "--threads {threads}: must be between 1 and {MAX_THREADS}"
            ));
        }
        Ok(threads)
    }

    /// Parses and validates `--batch` (checkpoint save cadence in
    /// points): absent → one batch per pool width, `0` rejected.
    pub fn parse_batch(args: &Args, threads: usize) -> Result<usize, String> {
        let batch: usize = args.try_get_or("batch", threads)?;
        if batch == 0 {
            return Err("--batch 0: must be at least 1".to_string());
        }
        Ok(batch)
    }

    /// Fallible constructor (testable; [`SweepDriver::new`] exits
    /// instead). `threads` and `batch` must already be validated (≥ 1).
    pub fn with_parts(
        path: Option<PathBuf>,
        binary: &str,
        config: String,
        threads: usize,
        batch: usize,
        retries: u64,
        fail_after: u64,
    ) -> Result<Self, CheckpointError> {
        assert!(threads >= 1 && batch >= 1, "validated by the caller");
        let sink: Box<dyn CheckpointSink> = match &path {
            Some(p) => Box::new(ShardSink::open(p.clone(), binary, &config)?),
            None => Box::new(NullSink),
        };
        Ok(SweepDriver {
            binary: binary.to_string(),
            sink,
            threads,
            batch,
            retries,
            fail_after,
            verbose: false,
            fresh: 0,
            cached: 0,
            failed: 0,
            procs: 1,
            path,
            config,
            lease_ms: DEFAULT_LEASE_MS,
            worker_retries: DEFAULT_WORKER_RETRIES,
            chunk: None,
            chaos: None,
            worker: None,
            raw_args: Vec::new(),
        })
    }

    /// Runs the sweep: one call per binary, all points at once.
    ///
    /// `keys[i]` is the stable identity of point `i` (checkpoint lookup
    /// key); `compute(i, shard)` produces point `i`'s table row,
    /// recording telemetry into its worker's private `shard`. The
    /// returned vector is in `keys` order; an entry is `None` only if
    /// every attempt at that point panicked (reported on stderr; a later
    /// resume retries it).
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
        if self.worker.is_some() {
            // This process is a spawned range worker: compute the range,
            // append to our shard, and exit without printing the table.
            crate::procs::run_worker(self, keys, &compute);
        }
        if self.procs > 1 {
            // Coordinator: spawn and supervise `--procs` workers, then
            // assemble the rows from the merged shard set.
            return crate::procs::run_coordinator(self, keys, rec);
        }
        let mut results: Vec<Option<Vec<String>>> = vec![None; keys.len()];
        let mut pending: Vec<usize> = Vec::new();
        let mut restored: Vec<&str> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if let Some(row) = self.sink.lookup(key) {
                results[i] = Some(row.to_vec());
                restored.push(key);
                self.cached += 1;
            } else {
                pending.push(i);
            }
        }
        if !restored.is_empty() {
            // One summary line, not one line per point: a large resume
            // must not flood stderr. Per-point detail stays available
            // under --verbose (or when only a handful replayed).
            if self.verbose || restored.len() as u64 <= RESTORED_LINES_MAX {
                for key in &restored {
                    eprintln!("  [{key}] restored from checkpoint");
                }
            }
            eprintln!(
                "{}: restored {}/{} points from checkpoint",
                self.binary,
                restored.len(),
                keys.len()
            );
        }
        if !pending.is_empty() {
            self.run_pending(keys, &pending, rec, &compute, &mut results);
        }
        rec.counter("driver.points_fresh").add(self.fresh);
        rec.counter("driver.points_cached").add(self.cached);
        rec.counter("driver.points_failed").add(self.failed);
        rec.counter("driver.checkpoint_bytes")
            .add(self.sink.bytes_written());
        results
    }

    /// The parallel section: dispatch `pending` across the pool, stream
    /// completions back for batched saves, merge observability shards.
    pub(crate) fn run_pending<F>(
        &mut self,
        keys: &[String],
        pending: &[usize],
        rec: &obs::Recorder,
        compute: &F,
        results: &mut [Option<Vec<String>>],
    ) where
        F: Fn(usize, &obs::Recorder) -> Vec<String> + Sync,
    {
        let workers = self.threads.min(pending.len());
        let enabled = rec.is_enabled();
        let retries = self.retries;
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
                            let slot = cursor.fetch_add(1, Ordering::Relaxed);
                            if slot >= pending.len() {
                                break;
                            }
                            let i = pending[slot];
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
                                    "  [{key}] failed after {} attempts; skipping (rerun to retry)",
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

            // Completion stream (this thread): reassemble rows by index,
            // append checkpoint batches, honour the simulated crash.
            let persistent = self.sink.is_persistent();
            let mut unsaved: Vec<CheckpointPoint> = Vec::new();
            for _ in 0..pending.len() {
                let Ok((i, row)) = rx.recv() else {
                    break; // a worker died outside catch_unwind; join reports it
                };
                match row {
                    Some(r) => {
                        if persistent {
                            unsaved.push(CheckpointPoint {
                                key: keys[i].clone(),
                                row: r.clone(),
                            });
                        }
                        results[i] = Some(r);
                        self.fresh += 1;
                        let crashing = self.fail_after > 0 && self.fresh >= self.fail_after;
                        if unsaved.len() >= self.batch || crashing {
                            self.flush(&mut unsaved);
                        }
                        if crashing {
                            eprintln!(
                                "--fail-after {}: simulated crash after {} fresh points",
                                self.fail_after, self.fresh
                            );
                            std::process::exit(3);
                        }
                    }
                    None => self.failed += 1,
                }
            }
            self.flush(&mut unsaved);
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
    }

    /// Pool width this driver will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Points served from the checkpoint so far.
    pub fn cached_points(&self) -> u64 {
        self.cached
    }

    /// Points computed fresh so far.
    pub fn fresh_points(&self) -> u64 {
        self.fresh
    }

    /// Points that exhausted their retries.
    pub fn failed_points(&self) -> u64 {
        self.failed
    }

    /// Total bytes the checkpoint sink has written (0 without
    /// `--checkpoint`). The save-I/O-is-O(n) contract, observable.
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.sink.bytes_written()
    }

    /// Durably appends the buffered batch to the checkpoint log (no-op
    /// when the buffer is empty, i.e. always without `--checkpoint`).
    fn flush(&mut self, unsaved: &mut Vec<CheckpointPoint>) {
        if unsaved.is_empty() {
            return;
        }
        if let Err(e) = self.sink.append_batch(unsaved) {
            // Losing checkpoints silently would defeat the feature.
            eprintln!("{}: {e}", self.binary);
            std::process::exit(2);
        }
        unsaved.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{OpenMode, ShardSet};
    use std::sync::atomic::AtomicU64;

    fn driver(path: Option<PathBuf>, threads: usize, retries: u64) -> SweepDriver {
        SweepDriver::with_parts(path, "figT", "n=5".into(), threads, threads, retries, 0).unwrap()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("K={i}")).collect()
    }

    /// A deterministic stand-in for a sweep point: the row depends only
    /// on the point index.
    fn row_for(i: usize) -> Vec<String> {
        vec![format!("K={i}"), format!("{:.4}", (i as f64 + 1.0).sqrt())]
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pfair-driver-{}-{tag}.json", std::process::id()))
    }

    /// Removes the checkpoint header file and its v3 shard directory.
    fn cleanup(path: &PathBuf) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir_all(crate::checkpoint::shard_dir(path));
    }

    #[test]
    fn rows_are_byte_identical_across_thread_counts() {
        // The determinism guarantee, as a property over several sweep
        // sizes: threads ∈ {1, 2, 8} must produce identical row vectors.
        for n in [1usize, 5, 13, 32] {
            let ks = keys(n);
            let expect: Vec<Option<Vec<String>>> = (0..n).map(|i| Some(row_for(i))).collect();
            for threads in [1usize, 2, 8] {
                let mut d = driver(None, threads, 0);
                let got = d.run(&ks, &obs::Recorder::disabled(), |i, _| row_for(i));
                assert_eq!(got, expect, "n={n} threads={threads}");
                assert_eq!(d.fresh_points(), n as u64);
            }
        }
    }

    #[test]
    fn shard_metrics_merge_into_the_main_recorder() {
        let rec = obs::Recorder::enabled();
        let mut d = driver(None, 4, 0);
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
    fn parallel_resume_replays_to_identical_rows() {
        let path = temp_path("resume");
        cleanup(&path);
        let ks = keys(12);
        let serial: Vec<Option<Vec<String>>> = (0..12).map(|i| Some(row_for(i))).collect();

        // First run: points ≥ 7 are pathological (always panic, no
        // retries), so the checkpoint holds exactly the first seven rows.
        let mut first = driver(Some(path.clone()), 4, 0);
        let got = first.run(&ks, &obs::Recorder::disabled(), |i, _| {
            if i >= 7 {
                panic!("pathological point {i}");
            }
            row_for(i)
        });
        assert_eq!(first.failed_points(), 5);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.is_some(), i < 7, "point {i}");
            if let Some(r) = r {
                assert_eq!(*r, row_for(i), "a panicking neighbour corrupted point {i}");
            }
        }

        // Resume (again parallel): cached rows replay, the rest compute
        // fresh, and the assembled output equals the uninterrupted run.
        let mut second = driver(Some(path.clone()), 8, 0);
        let resumed = second.run(&ks, &obs::Recorder::disabled(), row_for_checked(7));
        assert_eq!(resumed, serial);
        assert_eq!(second.cached_points(), 7);
        assert_eq!(second.fresh_points(), 5);
        cleanup(&path);
    }

    /// Second-run compute: asserts the first `cached` points are never
    /// recomputed (they must be served from the checkpoint).
    fn row_for_checked(cached: usize) -> impl Fn(usize, &obs::Recorder) -> Vec<String> {
        move |i, _| {
            assert!(i >= cached, "point {i} must be served from the checkpoint");
            row_for(i)
        }
    }

    #[test]
    fn panicking_point_is_retried_then_skipped_without_corrupting_neighbours() {
        let attempts = AtomicU64::new(0);
        let mut d = driver(None, 2, 2);
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
        assert_eq!((d.fresh_points(), d.failed_points()), (6, 0));

        // With retries exhausted the point is reported failed, not fatal.
        let mut d = driver(None, 2, 1);
        let got = d.run(&keys(4), &obs::Recorder::disabled(), |i, _| {
            if i == 1 {
                panic!("permanent failure");
            }
            row_for(i)
        });
        assert_eq!(got[1], None);
        for i in [0usize, 2, 3] {
            assert_eq!(got[i].as_deref(), Some(&row_for(i)[..]));
        }
        assert_eq!((d.fresh_points(), d.failed_points()), (3, 1));
    }

    fn parse<const N: usize>(argv: [&str; N]) -> Args {
        Args::from_args(&[SWEEP_FLAGS], argv).unwrap()
    }

    #[test]
    fn thread_and_batch_flags_are_validated() {
        let ok = parse(["--threads", "4", "--batch", "2"]);
        assert_eq!(SweepDriver::parse_threads(&ok, 1), Ok(4));
        assert_eq!(SweepDriver::parse_batch(&ok, 4), Ok(2));

        // Absent flags fall back to the given defaults.
        let absent = parse([]);
        assert_eq!(SweepDriver::parse_threads(&absent, 3), Ok(3));
        assert_eq!(SweepDriver::parse_batch(&absent, 3), Ok(3));
        assert!(default_threads() >= 1);

        // Zero, absurd, and malformed values are described errors.
        for bad in [
            ["--threads", "0"],
            ["--threads", "9999"],
            ["--threads", "many"],
        ] {
            let err = SweepDriver::parse_threads(&parse(bad), 1).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        let err = SweepDriver::parse_batch(&parse(["--batch", "0"]), 1).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
    }

    #[test]
    fn batched_saves_commit_every_completed_point() {
        let path = temp_path("batch");
        cleanup(&path);
        // batch = 5 over 7 points: one full batch plus a final partial
        // flush — the checkpoint must still end up with all 7 rows.
        let mut d =
            SweepDriver::with_parts(Some(path.clone()), "figT", "n=5".into(), 3, 5, 0, 0).unwrap();
        d.run(&keys(7), &obs::Recorder::disabled(), |i, _| row_for(i));
        assert!(d.checkpoint_bytes_written() > 0);
        let saved = ShardSet::open(path.clone(), "figT", "n=5", OpenMode::ReadOnly).unwrap();
        assert_eq!(saved.live_points(), 7);
        for i in 0..7 {
            assert_eq!(saved.lookup(&format!("K={i}")), Some(&row_for(i)[..]));
        }
        cleanup(&path);
    }

    #[test]
    fn without_checkpoint_nothing_is_buffered_or_written() {
        let mut d = driver(None, 2, 0);
        let got = d.run(&keys(5), &obs::Recorder::disabled(), |i, _| row_for(i));
        assert_eq!(got.len(), 5);
        assert_eq!(d.checkpoint_bytes_written(), 0);
    }
}
