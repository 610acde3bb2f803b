//! Multi-process sweep execution: the coordinator/worker protocol behind
//! `--procs N`.
//!
//! One process — the **coordinator** — owns the sweep. It opens the
//! sharded checkpoint exclusively (directory lock, torn-shard healing),
//! splits the pending points into contiguous ranges, and spawns up to
//! `--procs` **worker** processes: re-executions of the same binary
//! with the same flags plus three internal ones
//! (`--_worker-shard <id> --_range-start <a> --_range-len <n>`). Each
//! worker
//!
//! 1. opens the shard set **read-only** (no lock, no healing — it must
//!    never rewrite another live writer's shard),
//! 2. creates its own exclusive shard (`create_new`, so two workers can
//!    never interleave appends),
//! 3. writes a lease record claiming its range and renews it from a
//!    heartbeat thread every third of `--lease-ms`,
//! 4. computes the range's still-missing points through the ordinary
//!    in-process thread pool ([`SweepDriver::run_pending`]), appending
//!    completed batches to its shard, and
//! 5. exits 0 — it never prints the table; only the coordinator does.
//!
//! The coordinator supervises: a worker that exits non-zero, or whose
//! newest lease expires (SIGKILL, SIGSTOP, a hang — anything that stops
//! the heartbeat), is killed and its range re-dispatched to a *fresh*
//! shard id with exponential backoff, up to `--worker-retries` times.
//! Whatever the dead worker managed to commit stays committed — the
//! replacement recomputes only what is still missing — so crashes degrade
//! throughput, never correctness. When every range is done the
//! coordinator re-merges the shard directory (healing any torn tails the
//! kills left behind), assembles the rows in sweep order, and returns
//! them to the binary for printing: stdout is byte-identical at any
//! `procs × threads` combination, including after kills and resumes,
//! because every point derives from `(seed, point key)` alone.
//!
//! `--chaos kill-after=K[,torn-tail]` is the built-in fault injector:
//! once K fresh points are committed across the run's shards the
//! coordinator SIGKILLs the busiest worker (optionally tearing its shard
//! tail mid-record), exercising exactly the recovery path above — CI
//! drives it on every push.

use std::collections::VecDeque;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::args::Args;
use crate::checkpoint::{
    now_ms, shard_file, CheckpointError, CheckpointPoint, CheckpointSink, Lease, OpenMode,
    ShardSet, ShardWriter, COMPACTION_MIN_DEAD,
};
use crate::driver::{SweepDriver, RESTORED_LINES_MAX};

/// Supervisor poll cadence (child exits, lease deadlines, chaos).
const POLL_MS: u64 = 25;

/// Poll cadence while `--chaos` is armed: the kill must catch a worker
/// *mid-range*, so the committed-point threshold is checked at a much
/// tighter interval until it fires.
const CHAOS_POLL_MS: u64 = 2;

/// Re-dispatch backoff: `BACKOFF_BASE_MS · 2^(attempt-1)`, capped at
/// [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 200;
const BACKOFF_CAP_MS: u64 = 5_000;

/// Parsed `--chaos kill-after=K[,torn-tail]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// SIGKILL a worker once this many fresh points are committed.
    pub kill_after: u64,
    /// Also truncate the victim's shard mid-record (a torn tail).
    pub torn_tail: bool,
}

impl ChaosSpec {
    /// Parses `--chaos` if present.
    pub fn from_args(args: &Args) -> Result<Option<Self>, String> {
        let Some(raw) = args.get("chaos") else {
            return Ok(None);
        };
        let mut kill_after: Option<u64> = None;
        let mut torn_tail = false;
        for part in raw.split(',') {
            if let Some(k) = part.strip_prefix("kill-after=") {
                kill_after = Some(
                    k.parse()
                        .map_err(|e| format!("--chaos {raw}: kill-after: {e}"))?,
                );
            } else if part == "torn-tail" {
                torn_tail = true;
            } else {
                return Err(format!(
                    "--chaos {raw}: unknown directive `{part}` \
                     (expected kill-after=<n>[,torn-tail])"
                ));
            }
        }
        match kill_after {
            Some(0) => Err(format!("--chaos {raw}: kill-after must be at least 1")),
            Some(kill_after) => Ok(Some(ChaosSpec {
                kill_after,
                torn_tail,
            })),
            None => Err(format!("--chaos {raw}: missing kill-after=<n>")),
        }
    }
}

/// The internal flags a spawned worker runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpec {
    /// The shard id the coordinator reserved for this worker.
    pub shard: u64,
    /// First sweep index of the claimed range.
    pub start: usize,
    /// Number of points in the claimed range.
    pub len: usize,
}

impl WorkerSpec {
    /// Detects worker mode (`--_worker-shard`); the range flags are then
    /// required.
    pub fn from_args(args: &Args) -> Result<Option<Self>, String> {
        if args.get("_worker-shard").is_none() {
            return Ok(None);
        }
        let shard: u64 = args.try_get_or("_worker-shard", 0)?;
        let start: usize = match args.get("_range-start") {
            Some(_) => args.try_get_or("_range-start", 0)?,
            None => return Err("--_worker-shard requires --_range-start".to_string()),
        };
        let len: usize = match args.get("_range-len") {
            Some(_) => args.try_get_or("_range-len", 0)?,
            None => return Err("--_worker-shard requires --_range-len".to_string()),
        };
        Ok(Some(WorkerSpec { shard, start, len }))
    }
}

/// A contiguous span of sweep indices dispatched as one unit.
#[derive(Debug, Clone, Copy)]
struct RangeJob {
    start: usize,
    len: usize,
    /// Dispatches so far (0 = never spawned).
    attempts: u64,
    /// Earliest re-dispatch time (exponential backoff after a failure).
    not_before: Instant,
}

/// A spawned worker the supervisor is watching.
struct ActiveWorker {
    child: Child,
    shard: u64,
    job: RangeJob,
    spawned: Instant,
}

/// Judges lease freshness on the coordinator's own monotonic clock.
///
/// Workers stamp each lease with a wall-clock `deadline_ms`, and the
/// supervisor used to compare that stamp against its *own* wall clock
/// (`now_ms() > deadline_ms`). Wall clocks step: one backwards NTP
/// correction on the worker side (or a forward step on the
/// coordinator's) pushed every healthy deadline into the past and the
/// supervisor killed the entire pool at once. The monitor instead
/// treats `deadline_ms` as an opaque renewal *token*: each time the
/// token it reads from a shard changes, a renewal was observed, timed
/// with the coordinator's [`Instant`] clock. A lease expires only when
/// the token has sat unchanged for more than two lease windows — the
/// worker renews every `lease_ms / 3`, so a healthy worker changes the
/// token ~6 times per window regardless of what either wall clock does.
/// (Renewals are ≥10 ms apart and `now_ms() + lease_ms` is strictly
/// increasing between them even across a backwards step smaller than
/// the renewal interval; equal consecutive tokens therefore mean the
/// worker genuinely stopped writing.)
struct LeaseMonitor {
    lease_ms: u64,
    /// Shard id → (last token observed, coordinator time it changed).
    seen: std::collections::HashMap<u64, (u64, Instant)>,
}

impl LeaseMonitor {
    fn new(lease_ms: u64) -> Self {
        Self {
            lease_ms,
            seen: std::collections::HashMap::new(),
        }
    }

    /// Records one observation of `token` for `shard` at coordinator
    /// time `now` and reports whether the lease must be considered
    /// expired. The first observation of a token (including the first
    /// ever for the shard) counts as a renewal.
    fn expired(&mut self, shard: u64, token: u64, now: Instant) -> bool {
        if let Some((last, at)) = self.seen.get_mut(&shard) {
            if *last == token {
                return now.saturating_duration_since(*at).as_millis() as u64 > 2 * self.lease_ms;
            }
            *last = token;
            *at = now;
            return false;
        }
        self.seen.insert(shard, (token, now));
        false
    }

    /// Drops a shard's state once its worker is reaped; shard ids are
    /// never reused within a run, so this only bounds the map.
    fn forget(&mut self, shard: u64) {
        self.seen.remove(&shard);
    }
}

/// The worker-side sink: appends batches to this process's own shard.
/// Shared with the heartbeat thread through a mutex (appends and lease
/// renewals interleave at record granularity, never mid-line).
struct WorkerSink {
    writer: Arc<Mutex<ShardWriter>>,
}

impl CheckpointSink for WorkerSink {
    fn lookup(&self, _key: &str) -> Option<&[String]> {
        None // the worker pre-filters its pending set at open
    }

    fn append_batch(&mut self, batch: &[CheckpointPoint]) -> Result<(), CheckpointError> {
        self.writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append_points(batch)
    }

    fn bytes_written(&self) -> u64 {
        self.writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .bytes_written()
    }
}

fn fatal(binary: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("{binary}: {err}");
    std::process::exit(2);
}

/// Worker-process entry point: compute this process's claimed range,
/// append to its own shard, exit 0. Never returns and never prints the
/// table — the coordinator assembles and prints the merged rows.
pub(crate) fn run_worker<F>(d: &mut SweepDriver, keys: &[String], compute: &F) -> !
where
    F: Fn(usize, &obs::Recorder) -> Vec<String> + Sync,
{
    let spec = d.worker.take().expect("run_worker called without a spec");
    let path = d.path.clone().expect("worker mode requires --checkpoint");
    let set = match ShardSet::open(path, &d.binary, &d.config, OpenMode::ReadOnly) {
        Ok(s) => s,
        Err(e) => fatal(&d.binary, &e),
    };
    let end = spec.start.saturating_add(spec.len).min(keys.len());
    let pending: Vec<usize> = (spec.start..end)
        .filter(|&i| set.lookup(&keys[i]).is_none())
        .collect();
    let writer = match ShardWriter::create(set.dir(), spec.shard, &d.binary, &d.config) {
        Ok(w) => w,
        Err(e) => fatal(&d.binary, &e),
    };
    let writer = Arc::new(Mutex::new(writer));

    // Claim the range, then renew the claim from a heartbeat thread: a
    // SIGKILL (or a hang) stops the renewals, the lease expires, and the
    // supervisor reclaims the range.
    let lease = {
        let (start, len) = (spec.start as u64, spec.len as u64);
        move |lease_ms: u64| Lease {
            pid: u64::from(std::process::id()),
            start,
            len,
            deadline_ms: now_ms() + lease_ms,
        }
    };
    if let Err(e) = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .append_lease(&lease(d.lease_ms))
    {
        fatal(&d.binary, &e);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let lease_ms = d.lease_ms;
        std::thread::spawn(move || {
            let renew_every = Duration::from_millis((lease_ms / 3).max(10));
            let slice = Duration::from_millis(10);
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                if last.elapsed() < renew_every {
                    continue;
                }
                last = Instant::now();
                // A failed renewal is not fatal to the computation —
                // worst case the supervisor reclaims a live range and
                // the duplicate rows merge identically.
                let mut w = writer
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let _ = w.append_lease(&lease(lease_ms));
            }
        })
    };

    d.sink = Box::new(WorkerSink {
        writer: Arc::clone(&writer),
    });
    let mut results: Vec<Option<Vec<String>>> = vec![None; keys.len()];
    if !pending.is_empty() {
        let rec = obs::Recorder::disabled();
        d.run_pending(keys, &pending, &rec, compute, &mut results);
    }
    stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();
    std::process::exit(0);
}

/// Builds the worker command line: this binary, the coordinator's flags
/// minus the multi-process and output ones, plus the internal range
/// flags.
fn child_args(raw: &[String], shard: u64, job: &RangeJob) -> Vec<String> {
    // Flags that must not reach a worker: process fan-out (a worker
    // spawning workers), fault injection, metrics/crash simulation, and
    // any stale internal flags from a hand-built command line.
    const DROP: &[&str] = &[
        "--procs",
        "--chaos",
        "--metrics-out",
        "--worker-retries",
        "--chunk",
        "--fail-after",
        "--_worker-shard",
        "--_range-start",
        "--_range-len",
    ];
    let mut out = Vec::with_capacity(raw.len() + 6);
    let mut i = 0;
    while i < raw.len() {
        let tok = &raw[i];
        if DROP.contains(&tok.as_str()) {
            i += 1;
            if raw.get(i).is_some_and(|n| !n.starts_with("--")) {
                i += 1; // the flag's value
            }
            continue;
        }
        out.push(tok.clone());
        i += 1;
    }
    out.push("--_worker-shard".to_string());
    out.push(shard.to_string());
    out.push("--_range-start".to_string());
    out.push(job.start.to_string());
    out.push("--_range-len".to_string());
    out.push(job.len.to_string());
    out
}

/// Splits the pending indices into contiguous [`RangeJob`]s of at most
/// `chunk` points (runs broken by already-checkpointed points split
/// too).
fn make_jobs(pending: &[usize], chunk: usize) -> VecDeque<RangeJob> {
    let mut jobs = VecDeque::new();
    let mut run_start = 0usize;
    let mut push = |start: usize, len: usize| {
        jobs.push_back(RangeJob {
            start,
            len,
            attempts: 0,
            not_before: Instant::now(),
        });
    };
    for i in 1..=pending.len() {
        let contiguous = i < pending.len() && pending[i] == pending[i - 1] + 1;
        if contiguous && i - run_start < chunk {
            continue;
        }
        push(pending[run_start], i - run_start);
        run_start = i;
    }
    jobs
}

/// Truncates `path` a few bytes short, tearing its last record — the
/// torn-tail half of `--chaos`.
fn tear_shard_tail(path: &Path) {
    let Ok(meta) = std::fs::metadata(path) else {
        return;
    };
    let cut = meta.len().saturating_sub(7);
    if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
        let _ = file.set_len(cut);
    }
}

/// Coordinator entry point: spawn and supervise the worker pool, then
/// assemble the merged rows in sweep order.
pub(crate) fn run_coordinator(
    d: &mut SweepDriver,
    keys: &[String],
    rec: &obs::Recorder,
) -> Vec<Option<Vec<String>>> {
    let path = d.path.clone().expect("--procs requires --checkpoint");
    let mut set = match ShardSet::open(path, &d.binary, &d.config, OpenMode::Exclusive) {
        Ok(s) => s,
        Err(e) => fatal(&d.binary, &e),
    };
    // Make the v3 skeleton (header, directory) exist before any worker
    // opens the set read-only.
    if let Err(e) = set.ensure_created() {
        fatal(&d.binary, &e);
    }

    let mut restored: Vec<&str> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        if set.lookup(key).is_some() {
            restored.push(key);
            d.cached += 1;
        } else {
            pending.push(i);
        }
    }
    if !restored.is_empty() {
        if d.verbose || restored.len() as u64 <= RESTORED_LINES_MAX {
            for key in &restored {
                eprintln!("  [{key}] restored from checkpoint");
            }
        }
        eprintln!(
            "{}: restored {}/{} points from checkpoint",
            d.binary,
            restored.len(),
            keys.len()
        );
    }

    let mut leases_reclaimed = 0u64;
    let mut worker_restarts = 0u64;
    let mut abandoned: Vec<RangeJob> = Vec::new();
    let mut spawned_shards: Vec<u64> = Vec::new();
    let mut chaos_pending = d.chaos;

    if !pending.is_empty() {
        let chunk = d
            .chunk
            .unwrap_or_else(|| pending.len().div_ceil(d.procs * 4))
            .max(1);
        let mut queue = make_jobs(&pending, chunk);
        let mut active: Vec<ActiveWorker> = Vec::new();
        let mut leases = LeaseMonitor::new(d.lease_ms);
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => fatal(&d.binary, &e),
        };

        while !queue.is_empty() || !active.is_empty() {
            // Spawn up to the pool width, skipping jobs still in backoff.
            while active.len() < d.procs {
                let now = Instant::now();
                let Some(pos) = queue.iter().position(|j| j.not_before <= now) else {
                    break;
                };
                let mut job = queue.remove(pos).expect("position just found");
                job.attempts += 1;
                let shard = set.reserve_shard_id();
                spawned_shards.push(shard);
                let child = Command::new(&exe)
                    .args(child_args(&d.raw_args, shard, &job))
                    .stdout(Stdio::null())
                    .stdin(Stdio::null())
                    .spawn();
                match child {
                    Ok(child) => active.push(ActiveWorker {
                        child,
                        shard,
                        job,
                        spawned: Instant::now(),
                    }),
                    Err(e) => fatal(&d.binary, &format!("spawning worker: {e}")),
                }
            }

            std::thread::sleep(Duration::from_millis(if chaos_pending.is_some() {
                CHAOS_POLL_MS
            } else {
                POLL_MS
            }));

            // Chaos: once enough fresh points are committed across this
            // run's shards, SIGKILL the busiest worker (most committed
            // points — the kill that loses the most if recovery were
            // broken), optionally tearing its shard tail.
            if let Some(chaos) = chaos_pending {
                let committed: u64 = spawned_shards
                    .iter()
                    .map(|&id| set.scan_shard(id).0 as u64)
                    .sum();
                if committed >= chaos.kill_after {
                    // Victim: the *still-running* worker with the most
                    // committed points — the kill that would lose the
                    // most if recovery were broken. A worker that
                    // already exited must not be chosen: tearing its
                    // shard after a clean exit would destroy committed
                    // records nothing re-dispatches. If every worker
                    // just finished, try again next poll.
                    let mut victim_pos: Option<(usize, usize)> = None;
                    for (pos, w) in active.iter_mut().enumerate() {
                        if !matches!(w.child.try_wait(), Ok(None)) {
                            continue;
                        }
                        let points = set.scan_shard(w.shard).0;
                        if victim_pos.map_or(true, |(_, best)| points > best) {
                            victim_pos = Some((pos, points));
                        }
                    }
                    let victim_pos = victim_pos.map(|(pos, _)| pos);
                    if let Some(pos) = victim_pos {
                        let mut victim = active.swap_remove(pos);
                        let _ = victim.child.kill();
                        let _ = victim.child.wait();
                        if chaos.torn_tail {
                            tear_shard_tail(&shard_file(set.dir(), victim.shard));
                        }
                        eprintln!(
                            "chaos: killed worker pid={} shard={} after {committed} committed \
                             point(s){}",
                            victim.child.id(),
                            victim.shard,
                            if chaos.torn_tail {
                                " and tore its shard tail"
                            } else {
                                ""
                            }
                        );
                        // The victim's range goes straight back through
                        // the ordinary failure path, so anything the
                        // tear destroyed is recomputed.
                        requeue(
                            victim.job,
                            d.worker_retries,
                            &mut queue,
                            &mut abandoned,
                            &mut worker_restarts,
                            &d.binary,
                        );
                        chaos_pending = None;
                    }
                }
            }

            // Reap exits and reclaim expired leases.
            let mut still_active = Vec::with_capacity(active.len());
            for mut worker in active {
                match worker.child.try_wait() {
                    Ok(Some(status)) if status.success() => {
                        leases.forget(worker.shard); // range done
                    }
                    Ok(Some(status)) => {
                        eprintln!(
                            "{}: worker pid={} (points {}..{}) exited with {status}; \
                             re-dispatching",
                            d.binary,
                            worker.child.id(),
                            worker.job.start,
                            worker.job.start + worker.job.len
                        );
                        leases.forget(worker.shard);
                        requeue(
                            worker.job,
                            d.worker_retries,
                            &mut queue,
                            &mut abandoned,
                            &mut worker_restarts,
                            &d.binary,
                        );
                    }
                    Ok(None) => {
                        // Still running: is its lease current? A worker
                        // that has not yet written its first lease gets
                        // an implicit grace of two lease windows from
                        // spawn. Freshness is judged by the monitor on
                        // the coordinator's monotonic clock — never by
                        // comparing the lease's wall-clock stamp, which
                        // an NTP step can invalidate wholesale.
                        let (_, lease) = set.scan_shard(worker.shard);
                        let expired = match lease {
                            Some(l) => leases.expired(worker.shard, l.deadline_ms, Instant::now()),
                            None => worker.spawned.elapsed().as_millis() as u64 > 2 * d.lease_ms,
                        };
                        if expired {
                            eprintln!(
                                "{}: worker pid={} (points {}..{}) lease expired; \
                                 killing and reclaiming its range",
                                d.binary,
                                worker.child.id(),
                                worker.job.start,
                                worker.job.start + worker.job.len
                            );
                            let _ = worker.child.kill();
                            let _ = worker.child.wait();
                            leases.forget(worker.shard);
                            leases_reclaimed += 1;
                            requeue(
                                worker.job,
                                d.worker_retries,
                                &mut queue,
                                &mut abandoned,
                                &mut worker_restarts,
                                &d.binary,
                            );
                        } else {
                            still_active.push(worker);
                        }
                    }
                    Err(e) => fatal(&d.binary, &format!("waiting on worker: {e}")),
                }
            }
            active = still_active;
        }
    }

    // Merge what the workers wrote (healing any torn tails the kills
    // left behind), compact if the dead-record debt got large, and
    // assemble the rows in sweep order.
    if let Err(e) = set.reload() {
        fatal(&d.binary, &e);
    }
    if set.disk_records().saturating_sub(set.live_points())
        > set.live_points().max(COMPACTION_MIN_DEAD)
    {
        if let Err(e) = set.compact() {
            fatal(&d.binary, &e);
        }
    }
    if !abandoned.is_empty() {
        let points: usize = abandoned.iter().map(|j| j.len).sum();
        eprintln!(
            "{}: gave up on {} range(s) ({points} point(s)) after exhausting \
             --worker-retries {}; rerun with the same --checkpoint to finish the sweep",
            d.binary,
            abandoned.len(),
            d.worker_retries
        );
        std::process::exit(1);
    }

    let results: Vec<Option<Vec<String>>> = keys
        .iter()
        .map(|key| set.lookup(key).map(|row| row.to_vec()))
        .collect();
    for &i in &pending {
        match results[i] {
            Some(_) => d.fresh += 1,
            None => d.failed += 1, // every attempt panicked, in each dispatch
        }
    }
    rec.counter("driver.points_fresh").add(d.fresh);
    rec.counter("driver.points_cached").add(d.cached);
    rec.counter("driver.points_failed").add(d.failed);
    rec.counter("driver.checkpoint_bytes")
        .add(checkpoint_disk_bytes(&set));
    rec.counter("driver.leases_reclaimed").add(leases_reclaimed);
    rec.counter("driver.worker_restarts").add(worker_restarts);
    rec.counter("driver.shard_heal_events")
        .add(set.heal_events());
    results
}

/// Re-dispatch bookkeeping: push the job back with exponential backoff,
/// or move it to `abandoned` once the retry budget is spent.
fn requeue(
    mut job: RangeJob,
    budget: u64,
    queue: &mut VecDeque<RangeJob>,
    abandoned: &mut Vec<RangeJob>,
    restarts: &mut u64,
    binary: &str,
) {
    // `attempts` counts dispatches; attempt 1 was the free original.
    if job.attempts > budget {
        eprintln!(
            "{binary}: range {}..{} failed {} time(s); retry budget exhausted",
            job.start,
            job.start + job.len,
            job.attempts
        );
        abandoned.push(job);
        return;
    }
    let backoff = (BACKOFF_BASE_MS << (job.attempts - 1).min(16)).min(BACKOFF_CAP_MS);
    job.not_before = Instant::now() + Duration::from_millis(backoff);
    queue.push_back(job);
    *restarts += 1;
}

/// Bytes currently on disk under the checkpoint (header + shards): the
/// coordinator's view of `driver.checkpoint_bytes` — it cannot see the
/// workers' write counters, but the surviving bytes are what matters for
/// the O(n) save-I/O contract.
fn checkpoint_disk_bytes(set: &ShardSet) -> u64 {
    let mut total = 0u64;
    if let Ok(entries) = std::fs::read_dir(set.dir()) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse<const N: usize>(argv: [&str; N]) -> Args {
        Args::from_args(&[crate::driver::SWEEP_FLAGS], argv).unwrap()
    }

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let none = ChaosSpec::from_args(&parse([])).unwrap();
        assert_eq!(none, None);

        let plain = ChaosSpec::from_args(&parse(["--chaos", "kill-after=3"]))
            .unwrap()
            .unwrap();
        assert_eq!(
            plain,
            ChaosSpec {
                kill_after: 3,
                torn_tail: false
            }
        );

        let torn = ChaosSpec::from_args(&parse(["--chaos", "kill-after=1,torn-tail"]))
            .unwrap()
            .unwrap();
        assert!(torn.torn_tail);
        assert_eq!(torn.kill_after, 1);

        for bad in ["torn-tail", "kill-after=0", "kill-after=x", "explode"] {
            let err = ChaosSpec::from_args(&parse(["--chaos", bad])).unwrap_err();
            assert!(err.contains("--chaos"), "{err}");
        }
    }

    #[test]
    fn worker_spec_requires_the_full_triple() {
        let none = WorkerSpec::from_args(&parse(["--procs", "3"])).unwrap();
        assert_eq!(none, None);

        let full = WorkerSpec::from_args(&parse([
            "--_worker-shard",
            "7",
            "--_range-start",
            "40",
            "--_range-len",
            "10",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(
            full,
            WorkerSpec {
                shard: 7,
                start: 40,
                len: 10
            }
        );

        let err = WorkerSpec::from_args(&parse(["--_worker-shard", "7"])).unwrap_err();
        assert!(err.contains("_range-start"), "{err}");
    }

    #[test]
    fn jobs_split_at_gaps_and_chunk_size() {
        // Pending 0..6 contiguous, chunk 4 → [0..4), [4..6).
        let jobs: Vec<_> = make_jobs(&[0, 1, 2, 3, 4, 5], 4).into_iter().collect();
        let spans: Vec<_> = jobs.iter().map(|j| (j.start, j.len)).collect();
        assert_eq!(spans, vec![(0, 4), (4, 2)]);

        // A gap (index 3 already checkpointed) splits the run even under
        // the chunk size.
        let jobs: Vec<_> = make_jobs(&[1, 2, 4, 5, 6], 10).into_iter().collect();
        let spans: Vec<_> = jobs.iter().map(|j| (j.start, j.len)).collect();
        assert_eq!(spans, vec![(1, 2), (4, 3)]);

        assert!(make_jobs(&[], 4).is_empty());
    }

    #[test]
    fn child_args_filter_multiprocess_flags_and_append_internals() {
        let raw: Vec<String> = [
            "--tasks",
            "8",
            "--procs",
            "3",
            "--chaos",
            "kill-after=1",
            "--csv",
            "--metrics-out",
            "m.json",
            "--threads",
            "2",
            "--checkpoint",
            "ck.json",
            "--worker-retries",
            "0",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let job = RangeJob {
            start: 12,
            len: 6,
            attempts: 1,
            not_before: Instant::now(),
        };
        let got = child_args(&raw, 5, &job);
        let expect: Vec<String> = [
            "--tasks",
            "8",
            "--csv",
            "--threads",
            "2",
            "--checkpoint",
            "ck.json",
            "--_worker-shard",
            "5",
            "--_range-start",
            "12",
            "--_range-len",
            "6",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let mut queue = VecDeque::new();
        let mut abandoned = Vec::new();
        let mut restarts = 0u64;
        let job = |attempts| RangeJob {
            start: 0,
            len: 4,
            attempts,
            not_before: Instant::now(),
        };
        // Budget 2: dispatches 1..=3 are allowed, the 3rd failure is
        // abandoned.
        for attempts in 1..=2 {
            requeue(
                job(attempts),
                2,
                &mut queue,
                &mut abandoned,
                &mut restarts,
                "t",
            );
        }
        assert_eq!(queue.len(), 2);
        assert_eq!(restarts, 2);
        requeue(job(3), 2, &mut queue, &mut abandoned, &mut restarts, "t");
        assert_eq!(abandoned.len(), 1);
        assert_eq!(restarts, 2, "an abandoned range is not a restart");
    }

    /// Regression (injected clock): a backwards wall-clock step must not
    /// expire a healthy worker's lease. The worker keeps renewing, but
    /// every renewal stamps a *smaller* `deadline_ms` than the one
    /// before — exactly what the old `now_ms() > deadline_ms` judgment
    /// killed the whole pool over. The monitor only watches the token
    /// *change*, timed on the coordinator's monotonic clock, so the
    /// lease stays fresh.
    #[test]
    fn backwards_wall_clock_step_does_not_expire_renewing_lease() {
        let lease_ms = 100;
        let mut mon = LeaseMonitor::new(lease_ms);
        let epoch = Instant::now();
        // Renewals arrive every lease_ms/3 on the coordinator's clock;
        // the wall-clock stamps walk *backwards* through an hour-sized
        // NTP step.
        for i in 0u64..60 {
            let coord_now = epoch + Duration::from_millis(i * (lease_ms / 3));
            let wall_token = 3_600_000 - i * 50_000;
            assert!(
                !mon.expired(7, wall_token, coord_now),
                "renewal {i} judged expired despite changing token"
            );
        }
    }

    /// A genuinely stopped worker (frozen token) still expires — after
    /// two lease windows of stagnation on the coordinator's clock.
    #[test]
    fn frozen_lease_token_expires_after_two_windows() {
        let lease_ms = 100;
        let mut mon = LeaseMonitor::new(lease_ms);
        let epoch = Instant::now();
        let token = 123_456;
        assert!(
            !mon.expired(3, token, epoch),
            "first observation is a renewal"
        );
        assert!(
            !mon.expired(3, token, epoch + Duration::from_millis(2 * lease_ms)),
            "within the stagnation window"
        );
        assert!(
            mon.expired(3, token, epoch + Duration::from_millis(2 * lease_ms + 1)),
            "unchanged token past two windows must expire"
        );
        // A fresh token afterwards (worker resumed) resets the clock.
        assert!(!mon.expired(3, token + 1, epoch + Duration::from_millis(300)));
        assert!(!mon.expired(
            3,
            token + 1,
            epoch + Duration::from_millis(300 + 2 * lease_ms)
        ));
    }

    /// Shards are judged independently; `forget` drops state so a
    /// reaped shard's history cannot leak into later judgments.
    #[test]
    fn lease_monitor_tracks_shards_independently() {
        let lease_ms = 100;
        let mut mon = LeaseMonitor::new(lease_ms);
        let epoch = Instant::now();
        assert!(!mon.expired(1, 10, epoch));
        assert!(!mon.expired(2, 10, epoch + Duration::from_millis(150)));
        // Shard 1 frozen past the window; shard 2 still inside it.
        let later = epoch + Duration::from_millis(2 * lease_ms + 10);
        assert!(mon.expired(1, 10, later));
        assert!(!mon.expired(2, 10, later));
        mon.forget(1);
        assert!(
            !mon.expired(1, 10, later + Duration::from_millis(1)),
            "after forget, the same token counts as a fresh first observation"
        );
    }

    /// Regression: a worker thread panicking while holding the shard
    /// writer mutex must not poison the sink for everyone else — the
    /// heartbeat and subsequent appends recover the guard and keep
    /// writing (a panicking *append* already aborted the worker's range;
    /// the lock itself is not the thing that failed).
    #[test]
    fn poisoned_shard_writer_mutex_recovers() {
        let dir = std::env::temp_dir().join(format!("pfair-poison-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let writer = ShardWriter::create(&dir, 99, "t", "cfg").unwrap();
        let writer = Arc::new(Mutex::new(writer));

        // Poison the mutex: panic while holding the guard.
        let poisoner = Arc::clone(&writer);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(writer.is_poisoned(), "setup: mutex must be poisoned");

        // Both sink paths must still work.
        let mut sink = WorkerSink {
            writer: Arc::clone(&writer),
        };
        sink.append_batch(&[CheckpointPoint {
            key: "k".to_string(),
            row: vec!["1".to_string()],
        }])
        .expect("append through a poisoned mutex must recover");
        assert!(sink.bytes_written() > 0);

        std::fs::remove_dir_all(&dir).ok();
    }
}
