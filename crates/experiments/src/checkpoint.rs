//! Crash-tolerant sweep state: the on-disk checkpoint format.
//!
//! Long figure sweeps die to OOM kills, power loss, and pathological task
//! sets. This module owns the durable half of the story — the checkpoint
//! file format and the [`CheckpointSink`] persistence trait — while
//! [`crate::driver::SweepDriver`] owns execution (sharded workers,
//! retries, batched saves, resume replay, worker processes).
//!
//! # The format: a sharded checkpoint directory
//!
//! A checkpoint is a one-line header file at `<path>` plus a shard
//! directory `<path>.d/` holding one append-only JSONL log per writer:
//!
//! ```text
//! ck.json               {"v":3,"binary":"fig3","config":"tasks=50 …"}
//! ck.json.d/LOCK        advisory coordinator lock (pid + starttime)
//! ck.json.d/shard-0000.jsonl
//! ck.json.d/shard-0001.jsonl
//! ```
//!
//! Each shard starts with its own header (`{"v":3,…,"shard":K}`) and then
//! carries two record kinds, one per line:
//!
//! * **point records** `{"key":…,"row":[…]}` — one completed sweep point;
//! * **lease records** `{"lease":{"pid":…,"start":…,"len":…,
//!   "deadline_ms":…}}` — a worker process's claim on a range of sweep
//!   points, renewed as a heartbeat ([`Lease`]).
//!
//! Every writer owns exactly one shard (created with `create_new`, so two
//! writers can never share one), which removes the last serial append
//! path: worker *processes* commit batches concurrently with no lock.
//! [`ShardSet::open`] merges all shards through one keyed
//! **last-write-wins** index — shards are read in id order and a later
//! record for a key supersedes an earlier one — so recomputed or
//! re-dispatched points resolve deterministically. Rows derive only from
//! `(seed, point key)`, so duplicate records always carry identical rows
//! and the merge cannot depend on which worker wrote what.
//!
//! A torn tail (the half-written last record of a crashed or SIGKILLed
//! writer) is **healed eagerly** on exclusive open: the shard is rewritten
//! once without the torn line, with one warning — not re-warned on every
//! subsequent open. Read-only opens (worker processes merging a live set)
//! never rewrite other writers' shards. When superseded (dead) records
//! across the set exceed `max(live, threshold)`, a save **compacts** the
//! whole set into a single fresh shard and deletes the old ones.
//!
//! Two coordinators pointed at the same checkpoint directory would
//! interleave shard ids; the advisory `LOCK` file (pid + process start
//! time inside) makes the second one fail fast with a clear error
//! instead. A lock whose pid is dead — or whose pid was recycled by an
//! unrelated process, detected by a start-time mismatch — is stale and
//! is replaced with a warning.
//!
//! Durability: appends fsync the shard; whole-file rewrites (healing,
//! compaction) write a temp file, fsync it, rename it over the target,
//! and then **fsync the parent directory** so the rename itself survives
//! a crash.
//!
//! Files left by pre-v3 builds (v2 single-file log, v1 JSON document) have
//! no reader: they are refused ([`CheckpointError::Unsupported`]), untouched.
//!
//! The row payload is deliberately `Vec<String>` — exactly what the
//! binaries feed their [`stats::Table`]s — so a resumed run reproduces
//! the uninterrupted run's output byte-for-byte.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One finished sweep point: its identity and its rendered table row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPoint {
    /// Stable identity of the point within the sweep (e.g. `"U=4.00"`).
    pub key: String,
    /// The table row the point produced.
    pub row: Vec<String>,
}

/// A header line: format version and sweep identity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct LogHeader {
    v: i64,
    binary: String,
    config: String,
}

/// The sharded checkpoint format version written by this build.
const V3: i64 = 3;

/// Default minimum number of dead (superseded) records before a save
/// compacts the set. See [`ShardSink::set_compaction_min_dead`].
pub const COMPACTION_MIN_DEAD: usize = 64;

/// Why a checkpoint file could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file exists but is not a parseable checkpoint.
    Corrupt(String),
    /// The checkpoint was written by a different binary or different flags.
    Mismatch {
        /// The checkpoint's `<path>` (its shards live in `<path>.d/`).
        path: PathBuf,
        /// `binary`/`config` found in the header file or a shard.
        found: (String, String),
        /// `binary`/`config` of the current invocation.
        expected: (String, String),
    },
    /// `<path>` holds another format version — in practice the v2 log or
    /// the v1 JSON document of a pre-v3 build. It is left as found.
    Unsupported {
        /// The checkpoint's `<path>`.
        path: PathBuf,
        /// The format found there, e.g. `"v2"`.
        format: String,
    },
    /// The checkpoint could not be read or written.
    Io(String),
}

/// What clears a refused checkpoint: the header file *and* the shard
/// directory — shards carry the identity too, so deleting `<path>` alone
/// leaves the next run refused from `<path>.d/`.
fn delete_advice(path: &Path) -> String {
    format!("delete {path:?} and {:?} to start over", shard_dir(path))
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Mismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint belongs to `{} {}` but this run is `{} {}`; \
                 rerun with the original flags, or {}",
                found.0,
                found.1,
                expected.0,
                expected.1,
                delete_advice(path)
            ),
            CheckpointError::Unsupported { path, format } => write!(
                f,
                "checkpoint {path:?} is in format {format}, but this build reads only \
                 v{V3}; finish the sweep with the build that wrote it, or {}",
                delete_advice(path)
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Where completed sweep points go: the driver's persistence seam.
///
/// [`SweepDriver`](crate::driver::SweepDriver) talks to its checkpoint
/// exclusively through this trait — [`ShardSink`] is the durable sharded
/// log, [`NullSink`] the no-op used when `--checkpoint` is absent.
pub trait CheckpointSink {
    /// The checkpointed row for `key` (last-write-wins), if any. O(1).
    fn lookup(&self, key: &str) -> Option<&[String]>;

    /// Durably records a batch of completed points. On return the batch
    /// must survive a crash of the calling process.
    fn append_batch(&mut self, batch: &[CheckpointPoint]) -> Result<(), CheckpointError>;

    /// False for sinks that discard everything — lets callers skip
    /// cloning rows into batches that would never be written.
    fn is_persistent(&self) -> bool {
        true
    }

    /// Total bytes this sink has written to storage, rewrites included.
    /// The driver exposes it as the `driver.checkpoint_bytes` counter;
    /// tests assert it stays O(n) over an n-point sweep.
    fn bytes_written(&self) -> u64 {
        0
    }
}

/// The sink used without `--checkpoint`: remembers nothing, writes
/// nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl CheckpointSink for NullSink {
    fn lookup(&self, _key: &str) -> Option<&[String]> {
        None
    }

    fn append_batch(&mut self, _batch: &[CheckpointPoint]) -> Result<(), CheckpointError> {
        Ok(())
    }

    fn is_persistent(&self) -> bool {
        false
    }
}

/// A worker process's claim on a contiguous range of sweep points,
/// written into the worker's shard and renewed as a heartbeat.
///
/// The supervisor reads the newest lease in each active worker's shard;
/// a lease whose `deadline_ms` has passed means the worker is dead or
/// hung, and its range is reclaimed and re-dispatched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Pid of the worker holding the claim.
    pub pid: u64,
    /// First sweep index of the claimed range.
    pub start: u64,
    /// Number of points in the claimed range.
    pub len: u64,
    /// Unix milliseconds after which the claim is expired unless renewed.
    pub deadline_ms: u64,
}

/// The wire shape of a lease line: `{"lease":{…}}` — distinguishable
/// from a point record (`{"key":…,"row":…}`) by its single field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct LeaseLine {
    lease: Lease,
}

/// Milliseconds since the Unix epoch (lease clock).
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The shard directory of the checkpoint at `path`: `<path>.d`.
pub fn shard_dir(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".d");
    PathBuf::from(name)
}

/// The file backing shard `id` inside `dir`.
pub fn shard_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("shard-{id:04}.jsonl"))
}

/// Shard ids present in `dir`, sorted ascending (the LWW merge order).
fn list_shards(dir: &Path) -> Result<Vec<u64>, CheckpointError> {
    let mut ids = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ids),
        Err(e) => return Err(CheckpointError::Io(format!("{dir:?}: {e}"))),
    };
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::Io(format!("{dir:?}: {e}")))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix("shard-")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// One v3 shard file, parsed.
struct ParsedShard {
    points: Vec<CheckpointPoint>,
    last_lease: Option<Lease>,
    /// Unparseable lines (torn tail of a killed writer).
    dropped: usize,
    /// True iff the shard had a valid header, no dropped lines, and a
    /// trailing newline — i.e. needs no healing.
    clean: bool,
}

/// The serialized one-line v3 header for `binary`/`config`; `shard`
/// selects the per-shard variant (with a `"shard"` field) over the
/// checkpoint-level header file.
fn v3_header_line(
    binary: &str,
    config: &str,
    shard: Option<u64>,
) -> Result<String, CheckpointError> {
    let header = LogHeader {
        v: V3,
        binary: binary.to_string(),
        config: config.to_string(),
    };
    let mut text =
        serde_json::to_string(&header).map_err(|e| CheckpointError::Io(e.to_string()))?;
    if let Some(id) = shard {
        // Splice the shard id in front of the closing brace — the stub
        // serde derive has no attribute support for an optional field.
        text.truncate(text.len() - 1);
        text.push_str(&format!(",\"shard\":{id}}}"));
    }
    text.push('\n');
    Ok(text)
}

/// Advisory coordinator lock: `<dir>/LOCK` containing
/// `<pid> <starttime>` of the holder.
///
/// Two coordinators pointed at the same checkpoint directory must fail
/// fast, not silently interleave shard ids. The lock is advisory and
/// crash-tolerant: a holder that died leaves a stale file which the
/// next acquirer replaces with a warning.
///
/// Liveness cannot be judged by `/proc/<pid>` existence alone: pids are
/// recycled, so a lock left by a crashed coordinator can point at an
/// unrelated process that happens to wear the same pid — and the next
/// sweep would refuse to start forever. The LOCK therefore also records
/// the holder's *start time* (field 22 of `/proc/<pid>/stat`, in clock
/// ticks since boot), which a recycled pid cannot reproduce. The holder
/// is live only if the pid exists **and** its start time matches. A
/// legacy pid-only LOCK (written by older builds) falls back to the
/// pid-existence check.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Acquires the lock in `dir`, creating the directory if needed.
    /// Fails with a described error if another live process holds it.
    pub fn acquire(dir: &Path) -> Result<DirLock, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(format!("{dir:?}: {e}")))?;
        let path = dir.join("LOCK");
        let my_pid = std::process::id();
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let token = match proc_starttime(my_pid) {
                        Some(start) => format!("{my_pid} {start}"),
                        None => my_pid.to_string(), // no procfs: legacy form
                    };
                    let _ = file.write_all(token.as_bytes());
                    let _ = file.sync_all();
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| parse_lock_holder(&s));
                    match holder {
                        Some((pid, start)) if pid != my_pid && lock_holder_alive(pid, start) => {
                            return Err(CheckpointError::Io(format!(
                                "{path:?}: another coordinator (pid {pid}) holds this \
                                 checkpoint; two sweeps must not share one checkpoint \
                                 directory — wait for it or use a different --checkpoint"
                            )));
                        }
                        _ => {
                            // Dead holder, recycled pid, or unreadable
                            // residue: stale.
                            eprintln!(
                                "warning: removing stale coordinator lock {path:?} \
                                 (pid {})",
                                holder.map_or("?".to_string(), |(p, _)| p.to_string())
                            );
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(CheckpointError::Io(format!("{path:?}: {e}"))),
            }
        }
        Err(CheckpointError::Io(format!(
            "{path:?}: could not acquire coordinator lock"
        )))
    }
}

/// Parses a LOCK body: `<pid> <starttime>` (current) or `<pid>` (legacy,
/// start time `None`).
fn parse_lock_holder(body: &str) -> Option<(u32, Option<u64>)> {
    let mut tokens = body.split_whitespace();
    let pid = tokens.next()?.parse::<u32>().ok()?;
    match tokens.next() {
        Some(tok) => Some((pid, Some(tok.parse::<u64>().ok()?))),
        None => Some((pid, None)),
    }
}

/// Whether the recorded LOCK holder is still the process it named: the
/// pid must be live and, when the LOCK recorded a start time, the live
/// process's start time must match it — a recycled pid fails that test
/// and the lock correctly reads as stale.
fn lock_holder_alive(pid: u32, recorded_start: Option<u64>) -> bool {
    match recorded_start {
        Some(start) => proc_starttime(pid) == Some(start),
        None => pid_alive(pid), // legacy pid-only LOCK
    }
}

/// Whether `pid` is a live process (via `/proc`; on systems without
/// procfs every lock reads as stale — acceptable for an advisory lock on
/// the Linux targets this repo runs on).
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// The process's start time in clock ticks since boot: field 22 of
/// `/proc/<pid>/stat`. The comm field (2) can contain spaces and
/// parentheses, so fields are counted from *after the last `)`*, where
/// field 3 (state) begins — starttime is then the 20th whitespace token.
fn proc_starttime(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(19)?.parse().ok()
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// How [`ShardSet::open`] treats the on-disk set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Coordinator / single-process sink: takes the directory lock and
    /// eagerly heals torn shards (rewrites them once, warns once).
    Exclusive,
    /// Worker process merging a live set: no lock, never rewrites other
    /// writers' shards (torn lines are dropped silently — the exclusive
    /// reopen at the end of the run heals them).
    ReadOnly,
}

/// The merged view of a sharded checkpoint: one keyed last-write-wins
/// index over every shard.
#[derive(Debug)]
pub struct ShardSet {
    path: PathBuf,
    dir: PathBuf,
    binary: String,
    config: String,
    /// Live records, in first-completion order; `index` maps key → slot.
    live: Vec<CheckpointPoint>,
    index: HashMap<String, usize>,
    /// Point records on disk across all shards (live + dead).
    disk_records: usize,
    /// Highest shard id on disk (or reserved); the next writer gets +1.
    next_shard_id: u64,
    /// True once `<path>` is a v3 header and `<path>.d/` exists.
    created: bool,
    heal_events: u64,
    bytes_written: u64,
    _lock: Option<DirLock>,
}

/// The shape of a v1 checkpoint (one JSON document holding every row),
/// recognised only so the refusal can name it.
#[derive(Deserialize)]
struct V1Document {
    #[allow(dead_code)]
    completed: Vec<CheckpointPoint>,
}

/// Errors unless `header` carries this run's identity. `path` is the
/// checkpoint's `<path>`, whichever of its files the header came from.
fn check_identity(
    path: &Path,
    header: LogHeader,
    binary: &str,
    config: &str,
) -> Result<(), CheckpointError> {
    if header.binary != binary || header.config != config {
        return Err(CheckpointError::Mismatch {
            path: path.to_path_buf(),
            found: (header.binary, header.config),
            expected: (binary.to_string(), config.to_string()),
        });
    }
    Ok(())
}

/// Validates the `<path>` file, writing nothing: absent or empty
/// (a crash before the first save) → `false`, fresh; a v3 header with this
/// run's identity → `true`; anything else is refused.
fn read_header_file(path: &Path, binary: &str, config: &str) -> Result<bool, CheckpointError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(CheckpointError::Io(format!("{path:?}: {e}"))),
    };
    if text.trim().is_empty() {
        return Ok(false);
    }
    let unsupported = |format: String| CheckpointError::Unsupported {
        path: path.to_path_buf(),
        format,
    };
    match serde_json::from_str::<LogHeader>(text.lines().next().unwrap_or_default()) {
        Ok(header) if header.v == V3 => check_identity(path, header, binary, config).map(|()| true),
        Ok(header) => Err(unsupported(format!("v{}", header.v))),
        Err(_) if serde_json::from_str::<V1Document>(&text).is_ok() => {
            Err(unsupported("v1".to_string()))
        }
        Err(e) => Err(CheckpointError::Corrupt(format!("{path:?}: {e}"))),
    }
}

impl ShardSet {
    /// Opens the checkpoint at `path`, validating identity. A missing or
    /// empty `<path>` is a fresh, empty set; a pre-v3 file is refused
    /// ([`CheckpointError::Unsupported`]).
    pub fn open(
        path: PathBuf,
        binary: &str,
        config: &str,
        mode: OpenMode,
    ) -> Result<Self, CheckpointError> {
        // Header first, lock second: taking the lock creates `<path>.d/`,
        // and a refused open must leave the directory as it found it.
        let created = read_header_file(&path, binary, config)?;
        let dir = shard_dir(&path);
        let lock = match mode {
            OpenMode::Exclusive => Some(DirLock::acquire(&dir)?),
            OpenMode::ReadOnly => None,
        };
        let mut set = ShardSet {
            path,
            dir,
            binary: binary.to_string(),
            config: config.to_string(),
            live: Vec::new(),
            index: HashMap::new(),
            disk_records: 0,
            next_shard_id: 0,
            created,
            heal_events: 0,
            bytes_written: 0,
            _lock: lock,
        };
        set.merge_shards(mode)?;
        Ok(set)
    }

    /// Folds every shard on disk into the index, in id order (the LWW
    /// merge order), healing unclean shards when `mode` is exclusive.
    fn merge_shards(&mut self, mode: OpenMode) -> Result<(), CheckpointError> {
        for id in list_shards(&self.dir)? {
            self.next_shard_id = self.next_shard_id.max(id + 1);
            let shard = self.parse_shard(id)?;
            if !shard.clean && mode == OpenMode::Exclusive {
                self.heal_shard(id, &shard)?;
            }
            self.disk_records += shard.points.len();
            for point in shard.points {
                self.upsert(point);
            }
        }
        Ok(())
    }

    /// Parses shard `id`: header validation, point/lease split, torn-line
    /// accounting. A missing or empty shard parses as empty-and-unclean (the
    /// residue of a writer killed between `create_new` and its header write).
    fn parse_shard(&self, id: u64) -> Result<ParsedShard, CheckpointError> {
        let path = shard_file(&self.dir, id);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(CheckpointError::Io(format!("{path:?}: {e}"))),
        };
        let mut shard = ParsedShard {
            points: Vec::new(),
            last_lease: None,
            dropped: 0,
            clean: false,
        };
        if text.trim().is_empty() {
            return Ok(shard);
        }
        let mut lines = text.lines();
        let header_ok = match lines.next().map(serde_json::from_str::<LogHeader>) {
            Some(Ok(header)) => {
                if header.v != V3 {
                    return Err(CheckpointError::Corrupt(format!(
                        "{path:?}: unsupported shard version {}",
                        header.v
                    )));
                }
                check_identity(&self.path, header, &self.binary, &self.config)?;
                true
            }
            // A torn header (writer killed mid-create): nothing recoverable,
            // but not fatal — healing rewrites the shard empty.
            _ => {
                shard.dropped += 1;
                false
            }
        };
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(point) = serde_json::from_str::<CheckpointPoint>(line) {
                shard.points.push(point);
            } else if let Ok(l) = serde_json::from_str::<LeaseLine>(line) {
                shard.last_lease = Some(l.lease);
            } else {
                shard.dropped += 1;
            }
        }
        shard.clean = header_ok && shard.dropped == 0 && text.ends_with('\n');
        Ok(shard)
    }

    /// Live view of shard `id` for the supervisor: committed point count
    /// and the newest lease. Tolerates a concurrent append tearing the
    /// last line.
    pub fn scan_shard(&self, id: u64) -> (usize, Option<Lease>) {
        match self.parse_shard(id) {
            Ok(s) => (s.points.len(), s.last_lease),
            Err(_) => (0, None),
        }
    }

    /// Rewrites shard `id` as header + its parsed point records (torn
    /// lines and stale leases dropped), warning once.
    fn heal_shard(&mut self, id: u64, shard: &ParsedShard) -> Result<(), CheckpointError> {
        let file = shard_file(&self.dir, id);
        eprintln!(
            "warning: checkpoint shard {file:?}: torn tail (killed writer?); \
             healed — {} record(s) recovered, {} line(s) dropped",
            shard.points.len(),
            shard.dropped
        );
        let mut text = v3_header_line(&self.binary, &self.config, Some(id))?;
        push_records(&mut text, &shard.points)?;
        write_and_swap(&file, text.as_bytes())?;
        self.bytes_written += text.len() as u64;
        self.heal_events += 1;
        Ok(())
    }

    /// Inserts into the live set, superseding any earlier row for the
    /// same key in place (so compaction preserves first-completion
    /// order).
    fn upsert(&mut self, point: CheckpointPoint) {
        match self.index.get(&point.key) {
            Some(&slot) => self.live[slot] = point,
            None => {
                self.index.insert(point.key.clone(), self.live.len());
                self.live.push(point);
            }
        }
    }

    /// The checkpointed row for `key` (last-write-wins), if any. O(1).
    pub fn lookup(&self, key: &str) -> Option<&[String]> {
        self.index
            .get(key)
            .map(|&slot| self.live[slot].row.as_slice())
    }

    /// Live (non-superseded) points across the set.
    pub fn live_points(&self) -> usize {
        self.live.len()
    }

    /// Point records on disk across all shards, superseded included.
    pub fn disk_records(&self) -> usize {
        self.disk_records
    }

    /// Torn shards healed by this open (and any later reloads).
    pub fn heal_events(&self) -> u64 {
        self.heal_events
    }

    /// The shard directory (`<path>.d`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reserves a fresh shard id for a writer (a spawned worker process).
    pub fn reserve_shard_id(&mut self) -> u64 {
        let id = self.next_shard_id;
        self.next_shard_id += 1;
        id
    }

    /// Makes the on-disk skeleton exist: the shard directory and the
    /// `<path>` header file. Idempotent.
    pub fn ensure_created(&mut self) -> Result<(), CheckpointError> {
        if self.created {
            return Ok(());
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| CheckpointError::Io(format!("{:?}: {e}", self.dir)))?;
        let header = v3_header_line(&self.binary, &self.config, None)?;
        write_and_swap(&self.path, header.as_bytes())?;
        self.bytes_written += header.len() as u64;
        self.created = true;
        Ok(())
    }

    /// Rewrites the whole set as one fresh compacted shard (header + live
    /// records) and deletes every older shard. Callers must ensure no
    /// other writer is appending (the coordinator only compacts with no
    /// children running).
    pub fn compact(&mut self) -> Result<(), CheckpointError> {
        self.ensure_created()?;
        let old: Vec<u64> = list_shards(&self.dir)?;
        let id = self.reserve_shard_id();
        let mut text = v3_header_line(&self.binary, &self.config, Some(id))?;
        push_records(&mut text, &self.live)?;
        let file = shard_file(&self.dir, id);
        write_and_swap(&file, text.as_bytes())?;
        self.bytes_written += text.len() as u64;
        for stale in old {
            let _ = std::fs::remove_file(shard_file(&self.dir, stale));
        }
        sync_parent_dir(&file)?;
        self.disk_records = self.live.len();
        Ok(())
    }

    /// Re-scans the shard directory, folding in records written by other
    /// processes since open (coordinator's end-of-run merge). Exclusive
    /// semantics: torn shards left by killed workers are healed. The
    /// in-memory index is rebuilt from disk.
    pub fn reload(&mut self) -> Result<(), CheckpointError> {
        self.live.clear();
        self.index.clear();
        self.disk_records = 0;
        self.merge_shards(OpenMode::Exclusive)
    }
}

/// An exclusive append handle on one shard file. Created with
/// `create_new` — two writers can never own the same shard — and every
/// append is fsynced before it is reported durable.
#[derive(Debug)]
pub struct ShardWriter {
    path: PathBuf,
    bytes_written: u64,
}

impl ShardWriter {
    /// Creates shard `id` in `dir` and durably writes its header line.
    pub fn create(
        dir: &Path,
        id: u64,
        binary: &str,
        config: &str,
    ) -> Result<Self, CheckpointError> {
        let path = shard_file(dir, id);
        let header = v3_header_line(binary, config, Some(id))?;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
        file.write_all(header.as_bytes())
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
        file.sync_all()
            .map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
        drop(file);
        sync_parent_dir(&path)?;
        Ok(ShardWriter {
            path,
            bytes_written: header.len() as u64,
        })
    }

    /// Durably appends `lines` (already newline-terminated) to the shard.
    fn append_raw(&mut self, text: &str) -> Result<(), CheckpointError> {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| CheckpointError::Io(format!("{:?}: {e}", self.path)))?;
        file.write_all(text.as_bytes())
            .map_err(|e| CheckpointError::Io(format!("{:?}: {e}", self.path)))?;
        file.sync_all()
            .map_err(|e| CheckpointError::Io(format!("{:?}: {e}", self.path)))?;
        self.bytes_written += text.len() as u64;
        Ok(())
    }

    /// Durably appends a batch of completed points.
    pub fn append_points(&mut self, batch: &[CheckpointPoint]) -> Result<(), CheckpointError> {
        let mut text = String::new();
        push_records(&mut text, batch)?;
        self.append_raw(&text)
    }

    /// Durably appends a lease record (claim or heartbeat renewal).
    pub fn append_lease(&mut self, lease: &Lease) -> Result<(), CheckpointError> {
        let line = LeaseLine {
            lease: lease.clone(),
        };
        let mut text =
            serde_json::to_string(&line).map_err(|e| CheckpointError::Io(e.to_string()))?;
        text.push('\n');
        self.append_raw(&text)
    }

    /// Total bytes this writer has appended, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The shard file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The durable sink: a [`ShardSet`] (exclusive open — locked, healed)
/// plus this process's own [`ShardWriter`], created lazily at the first
/// save. The default sink behind `--checkpoint`.
#[derive(Debug)]
pub struct ShardSink {
    set: ShardSet,
    writer: Option<ShardWriter>,
    compaction_min_dead: usize,
}

impl ShardSink {
    /// Opens (or prepares to create) the sharded checkpoint at `path`
    /// exclusively, validating identity and healing torn shards.
    pub fn open(path: PathBuf, binary: &str, config: &str) -> Result<Self, CheckpointError> {
        Ok(ShardSink {
            set: ShardSet::open(path, binary, config, OpenMode::Exclusive)?,
            writer: None,
            compaction_min_dead: COMPACTION_MIN_DEAD,
        })
    }

    /// Read access to the merged set.
    pub fn set(&self) -> &ShardSet {
        &self.set
    }

    /// Overrides the compaction threshold (default
    /// [`COMPACTION_MIN_DEAD`]): a save compacts once dead records
    /// exceed `max(live, min_dead)`.
    pub fn set_compaction_min_dead(&mut self, min_dead: usize) {
        self.compaction_min_dead = min_dead;
    }
}

impl CheckpointSink for ShardSink {
    fn lookup(&self, key: &str) -> Option<&[String]> {
        self.set.lookup(key)
    }

    fn append_batch(&mut self, batch: &[CheckpointPoint]) -> Result<(), CheckpointError> {
        if batch.is_empty() {
            return Ok(());
        }
        for point in batch {
            self.set.upsert(point.clone());
        }
        // Every live record is on disk or in this batch, so `after`
        // cannot be smaller than the live count.
        let after = self.set.disk_records + batch.len();
        let dead = after - self.set.live_points();
        if dead > self.set.live_points().max(self.compaction_min_dead) {
            // The batch is already upserted into `live`, so compaction
            // persists it along with everything else.
            self.set.compact()?;
            self.writer = None;
            return Ok(());
        }
        self.set.ensure_created()?;
        if self.writer.is_none() {
            let id = self.set.reserve_shard_id();
            self.writer = Some(ShardWriter::create(
                self.set.dir(),
                id,
                &self.set.binary,
                &self.set.config,
            )?);
        }
        self.writer
            .as_mut()
            .expect("writer just created")
            .append_points(batch)?;
        self.set.disk_records = after;
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.set.bytes_written + self.writer.as_ref().map_or(0, |w| w.bytes_written())
    }
}

/// Appends `points` to `text`, one JSON record per line.
fn push_records(text: &mut String, points: &[CheckpointPoint]) -> Result<(), CheckpointError> {
    for point in points {
        text.push_str(
            &serde_json::to_string(point).map_err(|e| CheckpointError::Io(e.to_string()))?,
        );
        text.push('\n');
    }
    Ok(())
}

/// Atomically and durably replaces `path` with `bytes`: temp file +
/// fsync + rename + parent-directory fsync. The directory fsync is what
/// makes the *rename* crash-safe — without it a power loss right after
/// the rename can leave the directory entry pointing at nothing.
fn write_and_swap(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    // Append `.tmp` to the *full* file name: `with_extension` would
    // replace the extension, so `fig3.json` and `fig3.csv` checkpoints
    // in one directory would fight over a single `fig3.tmp`.
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut file =
        std::fs::File::create(&tmp).map_err(|e| CheckpointError::Io(format!("{tmp:?}: {e}")))?;
    file.write_all(bytes)
        .map_err(|e| CheckpointError::Io(format!("{tmp:?}: {e}")))?;
    file.sync_all()
        .map_err(|e| CheckpointError::Io(format!("{tmp:?}: {e}")))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
    sync_parent_dir(path)
}

/// Fsyncs the directory containing `path`, making a just-renamed file's
/// directory entry durable.
fn sync_parent_dir(path: &Path) -> Result<(), CheckpointError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir =
        std::fs::File::open(parent).map_err(|e| CheckpointError::Io(format!("{parent:?}: {e}")))?;
    dir.sync_all()
        .map_err(|e| CheckpointError::Io(format!("fsync {parent:?}: {e}")))
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
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

    fn point(key: &str, val: &str) -> CheckpointPoint {
        CheckpointPoint {
            key: key.to_string(),
            row: vec![key.to_string(), val.to_string()],
        }
    }

    #[test]
    fn checkpointing_is_optional() {
        let mut null = NullSink;
        assert!(!null.is_persistent());
        null.append_batch(&[point("U=1", "1.00")]).unwrap();
        assert_eq!(null.lookup("U=1"), None);
        assert_eq!(null.bytes_written(), 0);
    }

    /// A fresh checkpoint path for `tag`, with any residue from a
    /// previous test run removed.
    fn temp_v3(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("pfair-ckpt-{}-{tag}.json", std::process::id()));
        cleanup_v3(&path);
        path
    }

    fn cleanup_v3(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir_all(shard_dir(path));
    }

    #[test]
    fn shard_sink_round_trips_and_reads_back_through_every_reader() {
        let path = temp_v3("v3-roundtrip");
        let mut sink = ShardSink::open(path.clone(), "figX", "n=5").unwrap();
        assert_eq!(sink.lookup("U=1"), None);
        sink.append_batch(&[point("U=1", "1.00"), point("U=2", "1.00")])
            .unwrap();
        sink.append_batch(&[point("U=3", "2.00")]).unwrap();
        assert!(sink.bytes_written() > 0);

        // The header file is a one-line v3 header; records live in the
        // shard directory.
        let header = std::fs::read_to_string(&path).unwrap();
        assert!(header.starts_with("{\"v\":3,"), "{header}");
        assert_eq!(list_shards(&shard_dir(&path)).unwrap(), vec![0]);

        // Reopen through the sink and through a read-only set.
        let back = ShardSink::open(path.clone(), "figX", "n=5").unwrap();
        assert_eq!(back.set().live_points(), 3);
        assert_eq!(back.lookup("U=2"), Some(&["U=2".into(), "1.00".into()][..]));
        let snap = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::ReadOnly).unwrap();
        assert_eq!(snap.live_points(), 3);
        assert_eq!(snap.lookup("U=3"), Some(&["U=3".into(), "2.00".into()][..]));
        cleanup_v3(&path);
    }

    #[test]
    fn temp_file_name_appends_to_the_full_file_name() {
        let path = temp_v3("appendtmp"); // …appendtmp.json
        let sibling = path.with_extension("tmp");
        // The sibling is what `with_extension("tmp")` naming would clobber
        // (exactly what a same-stem `.csv` checkpoint's temp file is).
        std::fs::write(&sibling, "precious").unwrap();
        let mut sink = ShardSink::open(path.clone(), "figX", "n=5").unwrap();
        sink.append_batch(&[point("U=1", "1.00")]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&sibling).unwrap(),
            "precious",
            "temp naming must not collide with same-stem files"
        );
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        assert!(
            !PathBuf::from(tmp_name).exists(),
            "temp file must be renamed away"
        );
        cleanup_v3(&path);
        let _ = std::fs::remove_file(&sibling);
    }

    /// Writes `text` at `path`, requires an exclusive open to fail, and
    /// checks the refusal touched nothing: same bytes, no `<path>.d/`.
    fn refused_untouched(path: &Path, text: &str) -> CheckpointError {
        std::fs::write(path, text).unwrap();
        let err = ShardSink::open(path.to_path_buf(), "figX", "n=5").unwrap_err();
        assert_eq!(std::fs::read_to_string(path).unwrap(), text, "{err}");
        assert!(!shard_dir(path).exists(), "refusal left debris: {err}");
        err
    }

    #[test]
    fn mismatch_is_refused_without_debris_and_its_advice_clears_it() {
        let path = temp_v3("v3-mismatch");
        // A header written under another identity, no shards yet.
        for (binary, config) in [("figX", "n=6"), ("figY", "n=5")] {
            let err = refused_untouched(&path, &v3_header_line(binary, config, None).unwrap());
            assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        }
        // With records on disk the shards carry the identity too: deleting
        // only `<path>` is refused again, from `<path>.d/`…
        std::fs::remove_file(&path).unwrap();
        let mut sink = ShardSink::open(path.clone(), "figX", "n=6").unwrap();
        sink.append_batch(&[point("U=1", "1.00")]).unwrap();
        drop(sink);
        for header_deleted in [false, true] {
            if header_deleted {
                std::fs::remove_file(&path).unwrap();
            }
            let err = ShardSink::open(path.clone(), "figX", "n=5").unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
            // …so the message names both things to delete.
            let msg = err.to_string();
            assert!(msg.contains(&format!("{path:?}")), "{msg}");
            assert!(msg.contains(&format!("{:?}", shard_dir(&path))), "{msg}");
        }
        std::fs::remove_dir_all(shard_dir(&path)).unwrap();
        ShardSink::open(path.clone(), "figX", "n=5").unwrap();
        cleanup_v3(&path);
    }

    #[test]
    fn corrupt_and_empty_files_are_handled() {
        let path = temp_v3("corrupt");
        let err = refused_untouched(&path, "not json at all {");
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");

        // An empty file is the residue of a crash before the first save:
        // fresh start, not an error.
        std::fs::write(&path, "").unwrap();
        let sink = ShardSink::open(path.clone(), "figX", "n=5").unwrap();
        assert_eq!(sink.set().live_points(), 0);
        drop(sink);
        cleanup_v3(&path);
    }

    #[test]
    fn old_formats_are_refused_by_name_and_left_untouched() {
        let path = temp_v3("oldformat");
        let v2 = "{\"v\":2,\"binary\":\"figX\",\"config\":\"n=5\"}\n\
                  {\"key\":\"U=1\",\"row\":[\"U=1\",\"1.00\"]}\n";
        let v1 = "{\n  \"binary\": \"figX\",\n  \"config\": \"n=5\",\n  \"completed\": [\n    \
                  {\n      \"key\": \"U=1\",\n      \"row\": [\n        \"U=1\",\n        \"1.00\"\n      ]\n    }\n  ]\n}";
        for (text, name) in [(v2, "v2"), (v1, "v1")] {
            let err = refused_untouched(&path, text);
            assert!(
                matches!(&err, CheckpointError::Unsupported { format, .. } if format == name),
                "{err}"
            );
            let msg = err.to_string();
            assert!(msg.contains(&format!("format {name}")), "{msg}");
            assert!(msg.contains(&format!("{:?}", shard_dir(&path))), "{msg}");
        }
        // A read-only open (a worker process) refuses it the same way.
        let err = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::ReadOnly).unwrap_err();
        assert!(matches!(err, CheckpointError::Unsupported { .. }), "{err}");
        cleanup_v3(&path);
    }

    #[test]
    fn later_shards_win_lww_across_the_set() {
        let path = temp_v3("v3-lww");
        {
            let mut sink = ShardSink::open(path.clone(), "figX", "n=5").unwrap();
            sink.append_batch(&[point("U=1", "stale"), point("U=2", "ok")])
                .unwrap();
        }
        // A second writer (fresh shard id) recomputes U=1.
        {
            let mut set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
            let id = set.reserve_shard_id();
            let mut w = ShardWriter::create(set.dir(), id, "figX", "n=5").unwrap();
            w.append_points(&[point("U=1", "recomputed")]).unwrap();
        }
        let set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::ReadOnly).unwrap();
        assert_eq!(set.live_points(), 2);
        assert_eq!(set.disk_records(), 3);
        assert_eq!(
            set.lookup("U=1"),
            Some(&["U=1".into(), "recomputed".into()][..])
        );
        cleanup_v3(&path);
    }

    #[test]
    fn torn_shard_heals_eagerly_on_exclusive_open_and_warns_once() {
        let path = temp_v3("v3-heal");
        {
            let mut sink = ShardSink::open(path.clone(), "figX", "n=5").unwrap();
            sink.append_batch(&[point("U=1", "1.00"), point("U=2", "1.00")])
                .unwrap();
        }
        // Tear the shard mid-record, the way a SIGKILL does.
        let shard = shard_file(&shard_dir(&path), 0);
        let text = std::fs::read_to_string(&shard).unwrap();
        std::fs::write(&shard, &text[..text.len() - 9]).unwrap();

        // A read-only open drops the torn line but must NOT rewrite the
        // shard (it may belong to a live writer).
        let ro = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::ReadOnly).unwrap();
        assert_eq!(ro.live_points(), 1);
        assert_eq!(ro.heal_events(), 0);
        assert_eq!(
            std::fs::read_to_string(&shard).unwrap().len(),
            text.len() - 9
        );

        // The exclusive open heals: the shard is rewritten clean, once.
        let healed = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        assert_eq!(healed.live_points(), 1);
        assert_eq!(healed.heal_events(), 1);
        drop(healed);
        let again = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        assert_eq!(again.heal_events(), 0, "already healed: no re-warn");
        assert_eq!(again.live_points(), 1);
        cleanup_v3(&path);
    }

    #[test]
    fn leases_round_trip_and_newest_wins() {
        let path = temp_v3("v3-lease");
        let mut set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        set.ensure_created().unwrap();
        let id = set.reserve_shard_id();
        let mut w = ShardWriter::create(set.dir(), id, "figX", "n=5").unwrap();
        let mk = |deadline_ms| Lease {
            pid: 4242,
            start: 10,
            len: 5,
            deadline_ms,
        };
        w.append_lease(&mk(1_000)).unwrap();
        w.append_points(&[point("U=1", "1.00")]).unwrap();
        w.append_lease(&mk(2_000)).unwrap();
        let (points, lease) = set.scan_shard(id);
        assert_eq!(points, 1);
        assert_eq!(lease, Some(mk(2_000)), "the renewal supersedes the claim");
        // Leases are scheduler metadata, not data: the merged set ignores
        // them.
        drop(set);
        let set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        assert_eq!(set.live_points(), 1);
        cleanup_v3(&path);
    }

    #[test]
    fn dir_lock_rejects_live_holders_and_reaps_stale_ones() {
        let path = temp_v3("v3-lock");
        let dir = shard_dir(&path);
        std::fs::create_dir_all(&dir).unwrap();

        // A live holder (this very process) blocks a second coordinator.
        let lock_file = dir.join("LOCK");
        std::fs::write(&lock_file, std::process::id().to_string()).unwrap();
        // A *different* live pid: use pid 1 (init, always alive).
        std::fs::write(&lock_file, "1").unwrap();
        let err = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap_err();
        assert!(err.to_string().contains("another coordinator"), "{err}");

        // A dead holder's lock is stale: reaped with a warning.
        std::fs::write(&lock_file, "999999999").unwrap();
        let set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        drop(set); // Drop releases the lock…
        assert!(!lock_file.exists());

        // …and read-only opens never take it.
        let _ro = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::ReadOnly).unwrap();
        assert!(!lock_file.exists());
        cleanup_v3(&path);
    }

    /// Regression: a LOCK whose pid was recycled by an unrelated process
    /// must read as stale. `/proc/<pid>` existing is not enough — the
    /// recorded start time (field 22 of `/proc/<pid>/stat`) must match
    /// too. Pid 1 stands in for the recycled pid: it is certainly alive,
    /// and certainly did not start at the fabricated tick we record.
    #[test]
    fn dir_lock_detects_recycled_pids_via_starttime() {
        let path = temp_v3("v3-lock-recycle");
        let dir = shard_dir(&path);
        std::fs::create_dir_all(&dir).unwrap();
        let lock_file = dir.join("LOCK");

        // Live pid, *wrong* start time: the original holder is gone and
        // its pid was recycled — stale, reap and acquire.
        let wrong = proc_starttime(1).unwrap_or(0) + 1;
        std::fs::write(&lock_file, format!("1 {wrong}")).unwrap();
        let set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        drop(set);
        assert!(!lock_file.exists());

        // Live pid, *correct* start time: genuinely held — refuse.
        let real = proc_starttime(1).expect("/proc/1/stat must parse");
        std::fs::write(&lock_file, format!("1 {real}")).unwrap();
        let err = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap_err();
        assert!(err.to_string().contains("another coordinator"), "{err}");
        std::fs::remove_file(&lock_file).unwrap();

        // A fresh acquire records this process's own pid + start time.
        let set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        let body = std::fs::read_to_string(&lock_file).unwrap();
        let (pid, start) = parse_lock_holder(&body).expect("well-formed LOCK");
        assert_eq!(pid, std::process::id());
        assert_eq!(start, proc_starttime(std::process::id()));
        assert!(start.is_some(), "procfs present here: starttime recorded");
        drop(set);
        cleanup_v3(&path);
    }

    #[test]
    fn lock_holder_parsing_and_starttime() {
        assert_eq!(parse_lock_holder("123"), Some((123, None)));
        assert_eq!(parse_lock_holder("123 456\n"), Some((123, Some(456))));
        assert_eq!(parse_lock_holder("nonsense"), None);
        assert_eq!(parse_lock_holder("12 x"), None);
        assert_eq!(parse_lock_holder(""), None);
        // Our own start time is readable and stable across two reads.
        let me = std::process::id();
        let s1 = proc_starttime(me).expect("own starttime");
        let s2 = proc_starttime(me).expect("own starttime");
        assert_eq!(s1, s2);
        // The comm field may contain spaces/parens; counting from the
        // last ')' keeps the offset right. Simulated stat line:
        let fake = std::env::temp_dir().join(format!("pfair-stat-{me}"));
        // (field 22 here is 999.)
        std::fs::write(
            &fake,
            "7 (a (we)ird) name) S 1 1 1 0 -1 4194560 1 2 3 4 5 6 7 8 20 0 1 0 999 1000 1 2\n",
        )
        .unwrap();
        let body = std::fs::read_to_string(&fake).unwrap();
        let rest = &body[body.rfind(')').unwrap() + 1..];
        assert_eq!(rest.split_whitespace().nth(19), Some("999"));
        std::fs::remove_file(&fake).ok();
    }

    #[test]
    fn compaction_folds_the_set_into_one_shard() {
        let path = temp_v3("v3-compact");
        let mut sink = ShardSink::open(path.clone(), "figX", "n=5").unwrap();
        sink.set_compaction_min_dead(4);
        // 3 live keys rewritten each round; round 2's save pushes the
        // dead debt past max(live, 4) and compacts mid-append.
        for round in 0..3 {
            sink.append_batch(&[
                point("U=1", &format!("r{round}")),
                point("U=2", &format!("r{round}")),
                point("U=3", &format!("r{round}")),
            ])
            .unwrap();
        }
        drop(sink);
        let shards = list_shards(&shard_dir(&path)).unwrap();
        assert_eq!(
            shards.len(),
            1,
            "compaction must leave one shard: {shards:?}"
        );
        let set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        assert_eq!(set.live_points(), 3);
        assert_eq!(set.disk_records(), 3, "no dead records after compaction");
        assert_eq!(set.lookup("U=2"), Some(&["U=2".into(), "r2".into()][..]));
        cleanup_v3(&path);
    }

    #[test]
    fn reload_folds_in_concurrently_written_shards() {
        let path = temp_v3("v3-reload");
        let mut set = ShardSet::open(path.clone(), "figX", "n=5", OpenMode::Exclusive).unwrap();
        set.ensure_created().unwrap();
        assert_eq!(set.live_points(), 0);
        // Another process appends a shard after our open.
        let id = set.reserve_shard_id();
        let mut w = ShardWriter::create(set.dir(), id, "figX", "n=5").unwrap();
        w.append_points(&[point("U=1", "1.00")]).unwrap();
        assert_eq!(set.live_points(), 0, "not visible before reload");
        set.reload().unwrap();
        assert_eq!(set.live_points(), 1);
        cleanup_v3(&path);
    }
}
