//! The quantum-driven Pfair/ERfair/IS scheduler.
//!
//! [`PfairScheduler`] makes the global scheduling decision for each slot:
//! among all tasks with an *eligible* pending subtask, pick the `M`
//! highest-priority ones under the configured [`Policy`]. It mirrors the
//! implementation the paper measured: a priority queue holds the ready
//! subtasks, and an event calendar ("an event timer is set for the release
//! of the task's next subtask", Section 4) holds future releases.
//!
//! Two cores implement that contract (selected by [`CoreKind`]):
//!
//! * **event-driven** (default) — a slot only touches tasks whose state
//!   actually changes: releases live in a timer wheel indexed by slot, the
//!   ready queue orders entries by a precomputed packed integer key
//!   (the crate's `key` module), and per-subtask window parameters (release,
//!   deadline, b-bit) advance by incremental integer recurrences instead
//!   of divisions;
//! * **reference** — the straightforward oracle: every slot, scan all
//!   tasks, rebuild exact [`SubtaskTag`]s with the rational-arithmetic
//!   formulas of [`crate::subtask`], and fully sort with the exact
//!   comparator. Gated behind the `slow-reference` feature (always on in
//!   tests) — without it neither the core nor `CoreKind::Reference`
//!   exists; CI diffs its schedules against the fast core byte for byte.
//!
//! The scheduler is deliberately *mechanism only*: it says **which** tasks
//! run in a slot. Processor assignment (affinity, preemption and migration
//! accounting) is layered on top by `sched-sim`, matching the paper's
//! separation between the scheduling decision and dispatching.
//!
//! # Release models
//!
//! * [`EarlyRelease::None`] — plain Pfair: subtask `Tᵢ` becomes eligible at
//!   its pseudo-release `r(Tᵢ)`. Not work-conserving.
//! * [`EarlyRelease::IntraJob`] — ERfair as described in the paper: "if two
//!   subtasks are part of the same job, then the second subtask becomes
//!   eligible for execution as soon as the first completes."
//! * [`EarlyRelease::Unrestricted`] — subtasks may release early across job
//!   boundaries as well (the fully work-conserving variant of \[4\]).
//!
//! # Intra-sporadic delays
//!
//! An IS task's subtask may be released *late*: its offset `θ(Tᵢ)` grows and
//! shifts the remainder of its windows (offsets are non-decreasing). The
//! scheduler consults a [`DelayModel`] every time it queues the next subtask
//! of a task; the default [`NoDelay`] yields the synchronous periodic
//! behaviour.
//!
//! # Dynamic task systems
//!
//! Tasks may [`join`](PfairScheduler::join) and
//! [`leave`](PfairScheduler::leave) at runtime under the conditions of
//! Srinivasan & Anderson \[38\] (paper, Sections 2 and 5.2): joins are
//! admitted while `Σ wt ≤ M`; a light task may leave at or after
//! `d(Tᵢ) + b(Tᵢ)` of its last-scheduled subtask, a heavy task after its
//! next group deadline. Departed tasks may linger in the release calendar
//! and ready queue; every queued entry carries the task *generation* it was
//! created under and is discarded lazily if the generation (or the active
//! flag) no longer matches — so a leave (and, with
//! [`SchedConfig::with_reuse_ids`], even a rejoin under the same id) can
//! never dispatch a stale subtask.

use crate::key;
use crate::priority::{compare_with_id_order, Policy, SubtaskTag};
use crate::subtask::{self, SubtaskIndex};
use pfair_model::{Rat, Slot, Task, TaskId, TaskSet, Weight, WeightSum};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// When subtasks become eligible relative to their Pfair releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EarlyRelease {
    /// Plain Pfair: eligible exactly at the pseudo-release.
    #[default]
    None,
    /// ERfair: a subtask is eligible as soon as its predecessor *within the
    /// same job* completes (paper, Section 2).
    IntraJob,
    /// Fully work-conserving: eligible as soon as the predecessor completes,
    /// across job boundaries too.
    Unrestricted,
}

/// `none`, `intra` or `full` — `pfair show`'s `--er` flag.
impl std::str::FromStr for EarlyRelease {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(EarlyRelease::None),
            "intra" => Ok(EarlyRelease::IntraJob),
            "full" => Ok(EarlyRelease::Unrestricted),
            _ => Err("expected none|intra|full"),
        }
    }
}

/// Which implementation drives [`PfairScheduler::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoreKind {
    /// The event-driven fast path: timer-wheel releases, packed-key ready
    /// queue, incremental window arithmetic.
    #[default]
    EventDriven,
    /// The slow oracle: per-slot scan of all tasks with exact rational
    /// tags and the exact comparator. Only available in tests or with the
    /// `slow-reference` feature enabled; the variant does not exist
    /// otherwise.
    #[cfg(any(test, feature = "slow-reference"))]
    Reference,
}

/// Source of intra-sporadic release delays.
///
/// `delay(task, i)` is the additional offset `θ(Tᵢ) − θ(Tᵢ₋₁) ≥ 0` applied
/// when subtask `i` is queued. Returning 0 for every subtask gives the
/// synchronous periodic model.
pub trait DelayModel {
    /// Extra delay (in slots) for subtask `i` of `task`.
    fn delay(&mut self, task: TaskId, i: SubtaskIndex) -> u64;
}

/// The synchronous periodic release process: never delays.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDelay;

impl DelayModel for NoDelay {
    fn delay(&mut self, _: TaskId, _: SubtaskIndex) -> u64 {
        0
    }
}

/// Explicit per-subtask delays; useful for replaying traces such as the
/// paper's Fig. 1(b), where subtask `T₅` is released one slot late.
#[derive(Debug, Default, Clone)]
pub struct MapDelays {
    delays: std::collections::HashMap<(TaskId, SubtaskIndex), u64>,
}

impl MapDelays {
    /// No delays yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Delays subtask `i` of `task` by `by` slots (relative to the end of
    /// the previous window structure — i.e. adds `by` to the task's offset
    /// when this subtask is queued).
    pub fn insert(&mut self, task: TaskId, i: SubtaskIndex, by: u64) -> &mut Self {
        self.delays.insert((task, i), by);
        self
    }
}

impl DelayModel for MapDelays {
    fn delay(&mut self, task: TaskId, i: SubtaskIndex) -> u64 {
        self.delays.get(&(task, i)).copied().unwrap_or(0)
    }
}

/// The **sporadic** release process: whole jobs may arrive late (the
/// period is a *minimum* separation), but subtasks within a job stay
/// synchronous. A sporadic task is the special case of an IS task whose
/// offset grows only at job boundaries (paper, Section 2).
///
/// `delay(job)` of the inner model is consulted once per job, at its first
/// subtask.
#[derive(Debug, Default, Clone)]
pub struct SporadicDelays {
    /// Per-task unreduced execution cost (subtasks per job), indexed by
    /// task id.
    execs: Vec<u64>,
    /// Explicit per-job delays: `(task, 0-based job index) → slots`.
    delays: std::collections::HashMap<(TaskId, u64), u64>,
}

impl SporadicDelays {
    /// Creates the model for tasks with the given per-job execution costs
    /// (`execs[i]` = `T.e` of `TaskId(i)`, unreduced).
    pub fn new(execs: Vec<u64>) -> Self {
        assert!(execs.iter().all(|&e| e > 0), "job sizes must be positive");
        SporadicDelays {
            execs,
            delays: std::collections::HashMap::new(),
        }
    }

    /// Builds from a task set.
    pub fn for_tasks(tasks: &pfair_model::TaskSet) -> Self {
        Self::new(tasks.iter().map(|(_, t)| t.exec).collect())
    }

    /// Delays job `job` (0-based) of `task` by `by` slots beyond its
    /// minimum separation.
    pub fn delay_job(&mut self, task: TaskId, job: u64, by: u64) -> &mut Self {
        self.delays.insert((task, job), by);
        self
    }
}

impl DelayModel for SporadicDelays {
    fn delay(&mut self, task: TaskId, i: SubtaskIndex) -> u64 {
        let e = self.execs[task.index()];
        if (i - 1) % e != 0 {
            return 0; // not the first subtask of a job
        }
        let job = (i - 1) / e;
        self.delays.get(&(task, job)).copied().unwrap_or(0)
    }
}

/// A recorded deadline miss: subtask was scheduled in slot `scheduled_at`
/// although its window ended at `deadline` (`scheduled_at ≥ deadline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miss {
    /// The task that missed.
    pub task: TaskId,
    /// Which subtask missed.
    pub index: SubtaskIndex,
    /// The violated pseudo-deadline.
    pub deadline: Slot,
    /// The slot in which the subtask was actually scheduled.
    pub scheduled_at: Slot,
}

impl Miss {
    /// By how many slots the deadline was overrun (≥ 1).
    pub fn tardiness(&self) -> u64 {
        self.scheduled_at + 1 - self.deadline
    }
}

/// Errors from [`PfairScheduler::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// Admitting the task would push `Σ wt` above the processor count
    /// (feasibility condition, Equation (2)).
    Overload,
    /// `now` is not the scheduler's current slot; joins are only legal at
    /// the next slot to be scheduled. Nothing changed — retry with the
    /// current slot.
    WrongSlot,
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Overload => write!(
                f,
                "join rejected: total weight would exceed processor count"
            ),
            JoinError::WrongSlot => {
                write!(f, "join rejected: not the scheduler's current slot")
            }
        }
    }
}

impl std::error::Error for JoinError {}

/// Errors from [`PfairScheduler::leave`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveError {
    /// The task id does not name an active task.
    NoSuchTask,
    /// `now` is not the scheduler's current slot; leaves are only legal at
    /// the next slot to be scheduled. Nothing changed — retry with the
    /// current slot.
    WrongSlot,
}

impl fmt::Display for LeaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaveError::NoSuchTask => write!(f, "no such active task"),
            LeaveError::WrongSlot => {
                write!(f, "leave rejected: not the scheduler's current slot")
            }
        }
    }
}

impl std::error::Error for LeaveError {}

/// Errors from [`PfairScheduler::reweight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReweightError {
    /// The task id does not name an active task; nothing changed.
    NoSuchTask,
    /// The old task left, but the new weight does not fit yet (its old
    /// weight is still charged until the leave rule's safe point) — retry
    /// the join on a later slot.
    Overload,
    /// `now` is not the scheduler's current slot. Nothing changed — the
    /// old task has **not** left.
    WrongSlot,
}

impl fmt::Display for ReweightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReweightError::NoSuchTask => write!(f, "no such active task"),
            ReweightError::Overload => {
                write!(f, "new weight does not fit until the old weight frees")
            }
            ReweightError::WrongSlot => {
                write!(f, "reweight rejected: not the scheduler's current slot")
            }
        }
    }
}

impl std::error::Error for ReweightError {}

/// Per-task **hot** state: everything the tick path (release drain, key
/// pack, pop, commit) reads or writes, and nothing else. It is 112 bytes
/// on a 64-bit target, so at that stride one task's state spans two or
/// three cache lines, and a 500-task system's hot state (56 KB) fits in
/// L2. Bookkeeping that only cold paths touch lives in the parallel
/// [`TaskCold`] array.
///
/// Besides the weight and job position, this carries the *incremental
/// window state* of the pending subtask `i = next_index`: with the reduced
/// weight `num/den` and accumulated offset `θ`,
///
/// ```text
/// dfloor  = ⌊i·den/num⌋ + θ        mod_acc = (i·den) mod num
/// ```
///
/// give the pending deadline `d(Tᵢ) = dfloor + (mod_acc ≠ 0)`, the b-bit
/// `b(Tᵢ) = (mod_acc ≠ 0)`, and — via the identity
/// `r(Tᵢ₊₁) = ⌊i·den/num⌋` — the successor's release, all without a single
/// division. Advancing `i → i+1` adds `den = step_q·num + step_r`:
/// `dfloor += step_q`, `mod_acc += step_r`, plus one conditional carry.
#[derive(Debug, Clone)]
struct TaskState {
    /// Reduced weight (`numer`/`denom` double as the cached `num`/`den`).
    weight: Weight,
    /// Unreduced per-job execution cost `T.e` — job boundaries depend on it
    /// (a task with e=2, p=4 has two subtasks per job even though its
    /// weight reduces to 1/2).
    exec: u64,
    /// 1-based index of the next subtask to schedule.
    next_index: SubtaskIndex,
    /// Accumulated IS offset θ for the pending subtask (includes the join
    /// time for dynamically joined tasks).
    theta: Slot,
    /// Slot from which the pending subtask is eligible.
    eligible: Slot,
    active: bool,
    /// Cached `weight.is_light()` (hot path: group-deadline skip).
    light: bool,
    /// Incarnation counter for this id slot; queued calendar/ready entries
    /// carry the generation they were created under and are stale if it no
    /// longer matches (bumped when an id is recycled under
    /// [`SchedConfig::with_reuse_ids`]).
    generation: u32,
    /// `den / num`.
    step_q: u64,
    /// `den % num`.
    step_r: u64,
    /// `(next_index · den) mod num`.
    mod_acc: u64,
    /// `⌊next_index · den / num⌋ + θ`.
    dfloor: Slot,
    /// `(next_index − 1) mod exec` — position within the current job,
    /// replacing the division in the same-job test.
    job_pos: u64,
    /// Intrusive link to the next task in the same release-calendar
    /// bucket ([`NO_TASK`] = end of chain).
    cal_next: u32,
    /// Bucket slot this task is queued under, or [`NOT_BUCKETED`].
    cal_slot: Slot,
}

/// Per-task **cold** bookkeeping, parallel to [`TaskState`]: read only by
/// accessors and the join/leave path, written once per commit (a single
/// cache line that the enqueue/pop path never touches).
#[derive(Debug, Clone, Copy)]
struct TaskCold {
    /// Total quanta allocated so far.
    allocations: u64,
    /// Time at which the task joined (0 for initial tasks).
    joined_at: Slot,
    /// Earliest slot at which the task may leave under the rules of \[38\]
    /// (see `PfairScheduler::earliest_leave`): `d(Tᵢ) + b(Tᵢ)` of the
    /// last-scheduled subtask for a light task, `D(Tᵢ) + 1` for a heavy
    /// one — maintained incrementally at commit; `joined_at` while the
    /// task has never been scheduled.
    leave_safe: Slot,
}

impl TaskState {
    fn admit(task: Task, now: Slot, generation: u32) -> Self {
        let w = task.weight();
        let (num, den) = (w.numer(), w.denom());
        let (step_q, step_r) = (den / num, den % num);
        TaskState {
            weight: w,
            exec: task.exec,
            next_index: 1,
            theta: now,
            eligible: now,
            active: true,
            light: w.is_light(),
            generation,
            step_q,
            step_r,
            // i = 1: (1·den) mod num and ⌊1·den/num⌋ + θ.
            mod_acc: step_r,
            dfloor: step_q + now,
            job_pos: 0,
            cal_next: NO_TASK,
            cal_slot: NOT_BUCKETED,
        }
    }
}

/// `⌈a·b/c⌉` with a checked 64-bit fast path and a `u128` fallback.
#[inline]
fn mul_div_ceil(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p.div_ceil(c),
        None => {
            let p = a as u128 * b as u128;
            u64::try_from(p.div_ceil(c as u128))
                .expect("group deadline overflows the 64-bit slot range")
        }
    }
}

/// Synchronous group deadline from the reduced weight and the synchronous
/// deadline `d_sync` of the pending subtask (heavy tasks only):
/// `D = ⌈k·p/(p−e)⌉` with `k = ⌈d_sync·(p−e)/p⌉`; a unit-weight task has
/// `D = d_sync` (see [`crate::subtask::group_deadline`]).
#[inline]
fn group_deadline_sync(num: u64, den: u64, d_sync: Slot) -> Slot {
    if num == den {
        return d_sync;
    }
    let holes = den - num;
    let k = mul_div_ceil(d_sync, holes, den);
    mul_div_ceil(k, den, holes)
}

/// Ready-queue entry: 16 bytes — the packed priority key plus the owning
/// task id and generation (for lazy staleness detection). The exact tag is
/// **not** stored; it is rebuilt from the task's incremental window state
/// when the entry is committed. Heap comparisons are plain integer tuple
/// compares; the rare cases the packed key cannot decide — an equal-key
/// tie under PF/PD, or a field too large to pack at all — are resolved at
/// *pop* time with the exact rational comparator (see `tick_event`), never
/// inside the heap.
///
/// The derived order is `(key, id, gen)`. For the policies whose key packs
/// a total order (EPDF, EPDF+b, PD²) the id/gen components never matter
/// (distinct live tasks have distinct keys); for PF/PD they only fix the
/// heap's internal placement of ties, which the pop path re-sorts exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyEntry {
    /// Packed priority ([`crate::key`]); never [`key::SENTINEL`] (entries
    /// that cannot be packed go to the exact side list instead).
    key: u64,
    id: u32,
    gen: u32,
}

/// Timer wheel for future pseudo-releases.
///
/// `WHEEL_SLOTS` (a power of two) buckets cover the slots
/// `[horizon, horizon + WHEEL_SLOTS)`; releases further out sit in an
/// overflow heap and are drained directly once due. Pushes clamp the slot
/// to the horizon (an already-due release — possible under overload — is
/// processed at the next tick, exactly as the old release heap did).
///
/// Buckets are **intrusive singly-linked lists**: a bucket is a head task
/// id in a flat 2 KiB array and each queued task stores the next link in
/// its own [`TaskState::cal_next`] — a hot line the drain and commit paths
/// touch anyway, so a push costs one flat-array write instead of a
/// heap-allocated `Vec` push. A live incarnation has at most one calendar
/// entry (one in-flight subtask), so the link cell is never contended; a
/// departed task stays harmlessly linked (skipped on drain via `active`)
/// and is explicitly unlinked only if its id slot is recycled (see
/// [`PfairScheduler::admit`]). Overflow entries carry `(slot, id, gen,
/// idx)` tuples and are generation-checked on drain like before.
///
/// Invariant: when slot `t` is drained, bucket `t mod WHEEL_SLOTS` holds
/// only entries for slot `t` — an entry for `t + WHEEL_SLOTS` can only be
/// pushed once the horizon has passed `t`, i.e. after the bucket's head
/// was taken and reset.
#[derive(Debug)]
struct ReleaseCalendar {
    /// Head task id per bucket; [`NO_TASK`] when empty.
    heads: Vec<u32>,
    overflow: BinaryHeap<Reverse<(Slot, u32, u32, SubtaskIndex)>>,
    /// The next slot to be drained (= the scheduler's `now`).
    horizon: Slot,
}

/// Bucket count of the release timer wheel.
const WHEEL_SLOTS: u64 = 512;

/// Null link for the intrusive bucket chains.
const NO_TASK: u32 = u32::MAX;

/// `TaskState::cal_slot` value meaning "not linked in any bucket"
/// (never queued, already drained, or waiting in the overflow heap).
const NOT_BUCKETED: Slot = Slot::MAX;

impl ReleaseCalendar {
    fn new() -> Self {
        ReleaseCalendar {
            heads: vec![NO_TASK; WHEEL_SLOTS as usize],
            overflow: BinaryHeap::new(),
            horizon: 0,
        }
    }
}

/// Queues task `id`'s pending subtask `idx` for `slot` (free function so
/// the borrow of the task table stays disjoint from the calendar's).
#[inline]
fn calendar_push(
    cal: &mut ReleaseCalendar,
    tasks: &mut [TaskState],
    slot: Slot,
    id: u32,
    gen: u32,
    idx: SubtaskIndex,
) {
    let s = slot.max(cal.horizon);
    if s - cal.horizon < WHEEL_SLOTS {
        let b = (s % WHEEL_SLOTS) as usize;
        let st = &mut tasks[id as usize];
        debug_assert_eq!(st.generation, gen, "only the live incarnation links itself");
        st.cal_next = cal.heads[b];
        st.cal_slot = s;
        cal.heads[b] = id;
    } else {
        cal.overflow.push(Reverse((s, id, gen, idx)));
    }
}

/// Configuration for a [`PfairScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Number of processors `M`.
    pub processors: u32,
    /// Priority policy (default PD²).
    pub policy: Policy,
    /// Eligibility model (default plain Pfair).
    pub early_release: EarlyRelease,
    /// Residual tie order (default: lower task id first). The Fig. 5
    /// reproduction uses both orders.
    pub higher_id_first: bool,
    /// Which scheduling core drives `tick` (default: event-driven).
    pub core: CoreKind,
    /// Recycle the ids of departed tasks on `join` (default `false`:
    /// every join gets a fresh sequential id, which is what the simulator
    /// and the fault layer assume). Queued entries of the departed
    /// incarnation are invalidated by the generation check either way.
    pub reuse_ids: bool,
}

impl SchedConfig {
    /// PD², plain Pfair releases, `m` processors.
    pub fn pd2(m: u32) -> Self {
        SchedConfig {
            processors: m,
            policy: Policy::Pd2,
            early_release: EarlyRelease::None,
            higher_id_first: false,
            core: CoreKind::EventDriven,
            reuse_ids: false,
        }
    }

    /// Same but with a different policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Same but with an eligibility model.
    pub fn with_early_release(mut self, er: EarlyRelease) -> Self {
        self.early_release = er;
        self
    }

    /// Same but with the residual tie order flipped.
    pub fn with_higher_id_first(mut self, v: bool) -> Self {
        self.higher_id_first = v;
        self
    }

    /// Same but with a different scheduling core.
    pub fn with_core(mut self, core: CoreKind) -> Self {
        self.core = core;
        self
    }

    /// Same but recycling departed task ids on join.
    pub fn with_reuse_ids(mut self, v: bool) -> Self {
        self.reuse_ids = v;
        self
    }
}

/// Instruments for the `tick` hot path, pre-registered so recording is a
/// branch plus a relaxed atomic op per event (and nothing at all when the
/// recorder is disabled — the default). Per-event counts are accumulated in
/// locals during a tick and published in one `add` per counter.
struct SchedObs {
    ticks: obs::Counter,
    tick_ns: obs::Timer,
    releases_drained: obs::Counter,
    heap_pushes: obs::Counter,
    heap_pops: obs::Counter,
    stale_skipped: obs::Counter,
}

impl SchedObs {
    fn new(rec: &obs::Recorder) -> Self {
        SchedObs {
            ticks: rec.counter("sched.ticks"),
            tick_ns: rec.timer("sched.tick_ns"),
            releases_drained: rec.counter("sched.releases_drained"),
            heap_pushes: rec.counter("sched.heap_pushes"),
            heap_pops: rec.counter("sched.heap_pops"),
            stale_skipped: rec.counter("sched.stale_skipped"),
        }
    }
}

impl Default for SchedObs {
    fn default() -> Self {
        Self::new(&obs::Recorder::disabled())
    }
}

/// Per-tick event tallies, flushed to [`SchedObs`] in one batch.
#[derive(Default)]
struct TickCounts {
    drained: u64,
    pushes: u64,
    pops: u64,
    stale: u64,
}

/// The global Pfair scheduler (see module docs).
pub struct PfairScheduler<D: DelayModel = NoDelay> {
    cfg: SchedConfig,
    metrics: SchedObs,
    tasks: Vec<TaskState>,
    /// Cold per-task bookkeeping, parallel to `tasks`.
    cold: Vec<TaskCold>,
    /// Future releases, indexed by slot (event-driven core only).
    calendar: ReleaseCalendar,
    /// Eligible subtasks ordered by packed priority key (event-driven core
    /// only). A binary min-heap, the structure the paper measured (§4);
    /// EXPERIMENTS.md E20 records how the alternatives compared.
    ready: BinaryHeap<Reverse<ReadyEntry>>,
    /// Eligible subtasks whose priority fields do not fit the packed key
    /// (`(id, gen)` pairs): kept out of the heap and merged in with the
    /// exact comparator at pop time. Empty in any realistically-sized
    /// system (it needs ids > 4095 or deadlines ≥ 2⁴⁰).
    exact_ready: Vec<(u32, u32)>,
    /// Scratch for resolving equal-key ties and exact merges at pop time.
    tie_scratch: Vec<ReadyEntry>,
    /// Departed ids available for recycling (`cfg.reuse_ids` only).
    free_ids: Vec<u32>,
    delays: D,
    misses: Vec<Miss>,
    /// Total weight of active tasks *plus* departing tasks whose weight
    /// has not yet been freed (leave rule, Section 2). Exact while the
    /// denominators fit; see [`WeightSum`].
    total_weight: WeightSum,
    /// Deferred weight releases for departed tasks:
    /// (free_slot, task id, weight numerator, weight denominator). The
    /// weight rides along so recycling the id slot cannot corrupt the
    /// deferred release.
    departures: BinaryHeap<Reverse<(Slot, u32, u64, u64)>>,
    /// Next slot expected by `tick` (slots must be scheduled in order).
    now: Slot,
}

impl PfairScheduler<NoDelay> {
    /// Creates a scheduler for a synchronous periodic task set.
    pub fn new(tasks: &TaskSet, cfg: SchedConfig) -> Self {
        Self::with_delays(tasks, cfg, NoDelay)
    }

    /// Creates a scheduler for an **asynchronous** periodic task set:
    /// task `i`'s first job is released at `phases[i]` (its windows are
    /// shifted right by the phase). Feasibility is unchanged —
    /// `Σ wt ≤ M` — since an asynchronous system is an IS system with a
    /// constant initial offset (Anderson & Srinivasan \[4\]).
    pub fn with_phases(tasks: &TaskSet, phases: &[Slot], cfg: SchedConfig) -> Self {
        assert_eq!(tasks.len(), phases.len());
        let mut s = Self::empty(cfg, NoDelay, tasks.len());
        for ((_, t), &phase) in tasks.iter().zip(phases) {
            s.admit(*t, phase)
                .expect("initial task set must be feasible");
        }
        s
    }
}

impl<D: DelayModel> PfairScheduler<D> {
    fn empty(cfg: SchedConfig, delays: D, capacity: usize) -> Self {
        PfairScheduler {
            cfg,
            metrics: SchedObs::default(),
            tasks: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            calendar: ReleaseCalendar::new(),
            ready: BinaryHeap::new(),
            exact_ready: Vec::new(),
            tie_scratch: Vec::new(),
            free_ids: Vec::new(),
            delays,
            misses: Vec::new(),
            total_weight: WeightSum::new(),
            departures: BinaryHeap::new(),
            now: 0,
        }
    }

    /// Creates a scheduler with an intra-sporadic delay model.
    pub fn with_delays(tasks: &TaskSet, cfg: SchedConfig, delays: D) -> Self {
        let mut s = Self::empty(cfg, delays, tasks.len());
        for (_, t) in tasks.iter() {
            s.admit(*t, 0).expect("initial task set must be feasible");
        }
        s
    }

    /// Routes tick instrumentation (tick count and wall time, releases
    /// drained, ready-heap pushes/pops, stale entries skipped) to `rec`.
    /// The default recorder is disabled, making every probe a no-op.
    pub fn set_recorder(&mut self, rec: &obs::Recorder) {
        self.metrics = SchedObs::new(rec);
    }

    /// Builder form of [`Self::set_recorder`].
    pub fn with_recorder(mut self, rec: &obs::Recorder) -> Self {
        self.set_recorder(rec);
        self
    }

    /// Number of processors.
    pub fn processors(&self) -> u32 {
        self.cfg.processors
    }

    /// Changes the processor count `M` from the next slot on (fail-stop
    /// loss or repaired capacity). Shrinking below `Σ wt` puts the system
    /// in overload: the scheduler keeps picking the `M` highest-priority
    /// subtasks and records the resulting window violations in
    /// [`Self::misses`]; pair with load shedding (see
    /// [`crate::recovery::plan_shedding`]) to restore feasibility.
    pub fn set_processors(&mut self, m: u32) {
        self.cfg.processors = m;
    }

    /// Switches the eligibility model from the next queued subtask on.
    /// Subtasks already in the ready/release queues keep the eligibility
    /// they were queued with, so the switch takes full effect within one
    /// subtask per task. Used by recovery to enable ERfair catch-up after
    /// an overload and to drop back once lag re-converges.
    pub fn set_early_release(&mut self, er: EarlyRelease) {
        self.cfg.early_release = er;
    }

    /// Number of task id slots in use (active or departed); valid
    /// [`TaskId`]s are `0..task_count`. With
    /// [`SchedConfig::with_reuse_ids`], departed ids may be re-assigned to
    /// later joiners, so this counts *id slots*, not tasks ever admitted.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Total weight of the currently active (and not-yet-freed departing)
    /// tasks.
    pub fn total_weight(&self) -> WeightSum {
        self.total_weight
    }

    /// All deadline misses recorded so far (empty for an optimal policy on
    /// a feasible task set).
    pub fn misses(&self) -> &[Miss] {
        &self.misses
    }

    /// Quanta allocated to `id` so far.
    pub fn allocations(&self, id: TaskId) -> u64 {
        self.cold[id.index()].allocations
    }

    /// Weight of task `id`.
    pub fn weight_of(&self, id: TaskId) -> Weight {
        self.tasks[id.index()].weight
    }

    /// Whether `id` names an active task.
    pub fn is_active(&self, id: TaskId) -> bool {
        self.tasks
            .get(id.index())
            .map(|t| t.active)
            .unwrap_or(false)
    }

    /// The lag of task `id` at time `t` (beginning of slot `t`), **valid for
    /// tasks with no IS delays**: `lag(T, t) = wt(T)·(t − join) − allocated`.
    ///
    /// `t` must not exceed the next unscheduled slot (allocations past `t`
    /// would be double-counted).
    pub fn lag(&self, id: TaskId, t: Slot) -> Rat {
        assert!(t <= self.now, "lag({t}) queried beyond simulated time");
        let st = &self.tasks[id.index()];
        let cold = &self.cold[id.index()];
        let elapsed = t.saturating_sub(cold.joined_at);
        st.weight.as_rat() * Rat::from(elapsed) - Rat::from(cold.allocations)
    }

    /// Admits a task (internal; shared by construction and `join`).
    fn admit(&mut self, task: Task, now: Slot) -> Result<TaskId, JoinError> {
        let w = task.weight();
        if !self.total_weight.fits_after_adding(w, self.cfg.processors) {
            return Err(JoinError::Overload);
        }
        self.total_weight.add(w);
        let recycled = if self.cfg.reuse_ids {
            self.free_ids.pop()
        } else {
            None
        };
        let id = match recycled {
            Some(i) => TaskId(i),
            None => TaskId(self.tasks.len() as u32),
        };
        let generation = match self.tasks.get(id.index()) {
            Some(old) => {
                // A recycled id slot may still be linked in a calendar
                // bucket by its departed incarnation; unlink it so the new
                // incarnation's link cell starts clean (ready-heap and
                // overflow entries are generation-checked instead).
                let (cal_slot, old_gen) = (old.cal_slot, old.generation);
                if cal_slot != NOT_BUCKETED && cal_slot >= self.calendar.horizon {
                    self.unlink_from_bucket(id.0, cal_slot);
                }
                old_gen.wrapping_add(1)
            }
            None => 0,
        };
        let st = TaskState::admit(task, now, generation);
        let cold = TaskCold {
            allocations: 0,
            joined_at: now,
            leave_safe: now,
        };
        if id.index() < self.tasks.len() {
            self.tasks[id.index()] = st;
            self.cold[id.index()] = cold;
        } else {
            self.tasks.push(st);
            self.cold.push(cold);
        }
        // First subtask: release r(T₁) + θ = θ (r(T₁) = 0 always).
        if self.cfg.core == CoreKind::EventDriven {
            calendar_push(
                &mut self.calendar,
                &mut self.tasks,
                now,
                id.0,
                generation,
                1,
            );
        }
        Ok(id)
    }

    /// Removes `id` from the intrusive chain of the bucket holding `slot`
    /// (id-recycle path only; bounded by that bucket's chain length).
    fn unlink_from_bucket(&mut self, id: u32, slot: Slot) {
        let b = (slot % WHEEL_SLOTS) as usize;
        let mut cur = self.calendar.heads[b];
        let mut prev = NO_TASK;
        while cur != NO_TASK {
            let next = self.tasks[cur as usize].cal_next;
            if cur == id {
                if prev == NO_TASK {
                    self.calendar.heads[b] = next;
                } else {
                    self.tasks[prev as usize].cal_next = next;
                }
                self.tasks[id as usize].cal_slot = NOT_BUCKETED;
                return;
            }
            prev = cur;
            cur = next;
        }
        debug_assert!(false, "task {id} not linked in the bucket for slot {slot}");
    }

    /// A task with the given parameters joins at time `now` (which must be
    /// the next slot to be scheduled, else [`JoinError::WrongSlot`]).
    /// Fails with [`JoinError::Overload`] if `Σ wt` would exceed `M`.
    pub fn join(&mut self, task: Task, now: Slot) -> Result<TaskId, JoinError> {
        if now != self.now {
            return Err(JoinError::WrongSlot);
        }
        self.admit(task, now)
    }

    /// Earliest slot at which task `id` may leave without endangering other
    /// tasks' deadlines (paper, Section 2): for a light task,
    /// `d(Tᵢ) + b(Tᵢ)` of its last-scheduled subtask `Tᵢ`; for a heavy
    /// task, its next group deadline. A task that was
    /// never scheduled may leave immediately.
    fn earliest_leave(&self, id: TaskId) -> Option<Slot> {
        let st = self.tasks.get(id.index())?;
        if !st.active {
            return None;
        }
        // `leave_safe` is maintained incrementally at commit: the light
        // rule `d(Tᵢ) + b(Tᵢ)` / heavy rule `D(Tᵢ) + 1` ("after its next
        // group deadline") of the last-scheduled subtask, or `joined_at`
        // while the task has never been scheduled.
        Some(self.cold[id.index()].leave_safe)
    }

    /// Removes task `id` at time `now` (which must be the scheduler's
    /// current slot, else [`LeaveError::WrongSlot`]). The task stops being
    /// scheduled immediately, but — per the leave rule of \[38\] — its
    /// *weight* only becomes available for admission at the returned slot:
    /// immediately if `now` is already at or past the safe point, otherwise
    /// at `earliest_leave(id)`. (Freeing the weight early would let a
    /// leave-and-rejoin cycle execute above its prescribed rate and cause
    /// other tasks to miss, as the paper notes in Section 2.)
    pub fn leave(&mut self, id: TaskId, now: Slot) -> Result<Slot, LeaveError> {
        if now != self.now {
            return Err(LeaveError::WrongSlot);
        }
        let earliest = self.earliest_leave(id).ok_or(LeaveError::NoSuchTask)?;
        let st = &mut self.tasks[id.index()];
        st.active = false;
        // Stale calendar/ready entries for this incarnation are skipped
        // lazily (active flag now; generation check if the id is recycled).
        let free_at = earliest.max(now);
        if free_at <= now {
            self.total_weight.sub(st.weight);
        } else {
            self.departures.push(Reverse((
                free_at,
                id.0,
                st.weight.numer(),
                st.weight.denom(),
            )));
        }
        if self.cfg.reuse_ids {
            self.free_ids.push(id.0);
        }
        Ok(free_at)
    }

    /// Reweights task `id` to `new_task` at time `now` — the paper's §5.2
    /// recipe: "task reweighting can be modeled as a leave-and-join
    /// problem." The old incarnation stops executing immediately; the new
    /// one is admitted against the capacity left after the departing
    /// weight frees (so an *increase* may fail with
    /// [`ReweightError::Overload`] until the leave rule's safe point passes —
    /// retry on later slots). Returns the new task's id on success.
    ///
    /// On [`ReweightError::Overload`] the old task has still left (its work
    /// was already conceptually replaced); callers wanting all-or-nothing
    /// semantics should check [`Self::total_weight`] first. A
    /// [`ReweightError::WrongSlot`] is atomic: nothing changed.
    pub fn reweight(
        &mut self,
        id: TaskId,
        new_task: Task,
        now: Slot,
    ) -> Result<TaskId, ReweightError> {
        if now != self.now {
            return Err(ReweightError::WrongSlot);
        }
        self.leave(id, now).map_err(|e| match e {
            LeaveError::NoSuchTask => ReweightError::NoSuchTask,
            LeaveError::WrongSlot => ReweightError::WrongSlot,
        })?;
        self.join(new_task, now).map_err(|e| match e {
            JoinError::Overload => ReweightError::Overload,
            JoinError::WrongSlot => ReweightError::WrongSlot,
        })
    }

    /// Schedules slot `now`, appending the chosen task ids to `out` (at most
    /// `M`). Slots must be scheduled consecutively starting from 0 (or from
    /// the construction slot).
    pub fn tick(&mut self, now: Slot, out: &mut Vec<TaskId>) {
        assert_eq!(now, self.now, "slots must be scheduled in order");
        self.now = now + 1;
        self.metrics.ticks.incr();
        let _tick_span = self.metrics.tick_ns.start();

        // Free the weight of departed tasks whose safe point has passed.
        while let Some(&Reverse((at, _, num, den))) = self.departures.peek() {
            if at > now {
                break;
            }
            self.departures.pop();
            let w = Weight::new(num, den).expect("departure stores a valid weight");
            self.total_weight.sub(w);
        }

        match self.cfg.core {
            CoreKind::EventDriven => self.tick_event(now, out),
            #[cfg(any(test, feature = "slow-reference"))]
            CoreKind::Reference => self.tick_reference(now, out),
        }
    }

    /// The event-driven fast path: drain this slot's releases from the
    /// timer wheel into the packed-key ready queue, then pop the `M` best.
    fn tick_event(&mut self, now: Slot, out: &mut Vec<TaskId>) {
        let mut counts = TickCounts::default();
        self.calendar.horizon = now + 1;

        // 1. Drain releases due at `now`: the wheel bucket (which, by the
        // calendar invariant, holds only slot-`now` entries) plus any due
        // overflow entries. The bucket head is reset before walking so a
        // re-push for `now + WHEEL_SLOTS` starts a fresh chain.
        let b = (now % WHEEL_SLOTS) as usize;
        let mut link = std::mem::replace(&mut self.calendar.heads[b], NO_TASK);
        while link != NO_TASK {
            let st = &mut self.tasks[link as usize];
            let next = st.cal_next;
            st.cal_slot = NOT_BUCKETED;
            let (gen, idx) = (st.generation, st.next_index);
            self.enqueue_ready(link, gen, idx, &mut counts);
            link = next;
        }
        while let Some(&Reverse((slot, id, gen, idx))) = self.calendar.overflow.peek() {
            if slot > now {
                break;
            }
            self.calendar.overflow.pop();
            self.enqueue_ready(id, gen, idx, &mut counts);
        }

        // 2. Pop the M highest-priority eligible subtasks. One integer
        // key compare decides the winner on the hot path; the exact
        // comparator is consulted only for equal-key PF/PD ties or when
        // unpackable entries sit in the side list.
        let m = self.cfg.processors as usize;
        let residual_ties = matches!(self.cfg.policy, Policy::Pf | Policy::Pd);
        while out.len() < m {
            if !self.exact_ready.is_empty() {
                // Rare: an unpackable entry might outrank everything in
                // the heap; do a full exact selection for this pick.
                if !self.pop_exact_merge(now, out, &mut counts) {
                    break;
                }
                continue;
            }
            let Some(Reverse(entry)) = self.ready.pop() else {
                break;
            };
            counts.pops += 1;
            let st = &self.tasks[entry.id as usize];
            if !st.active || st.generation != entry.gen {
                counts.stale += 1;
                continue; // departed (and possibly recycled) incarnation
            }
            if residual_ties && self.ready.peek().is_some_and(|e| e.0.key == entry.key) {
                self.commit_tie_batch(entry, now, out, &mut counts);
                continue;
            }
            // Within one generation a task has exactly one in-flight
            // entry, so a live entry always matches the pending subtask.
            let tag = self.pending_tag(entry.id);
            self.commit(tag, now, out);
        }

        if counts.drained > 0 {
            self.metrics.releases_drained.add(counts.drained);
        }
        if counts.pushes > 0 {
            self.metrics.heap_pushes.add(counts.pushes);
        }
        if counts.pops > 0 {
            self.metrics.heap_pops.add(counts.pops);
        }
        if counts.stale > 0 {
            self.metrics.stale_skipped.add(counts.stale);
        }
    }

    /// Rebuilds the pending subtask's exact tag from the task's
    /// incremental window state — no divisions except the group deadline
    /// of a heavy task.
    #[inline]
    fn pending_tag(&self, id: u32) -> SubtaskTag {
        let st = &self.tasks[id as usize];
        let b = st.mod_acc != 0;
        let deadline = st.dfloor + u64::from(b);
        let group_deadline = if st.light {
            0
        } else {
            group_deadline_sync(st.weight.numer(), st.weight.denom(), deadline - st.theta)
                + st.theta
        };
        let tag = SubtaskTag {
            task: TaskId(id),
            index: st.next_index,
            deadline,
            b,
            group_deadline,
            weight: st.weight,
        };
        // Verifier cross-check: the incremental state reproduces the exact
        // rational formulas.
        debug_assert_eq!(
            tag,
            SubtaskTag::new(TaskId(id), st.weight, st.next_index, st.theta)
        );
        tag
    }

    /// Moves one drained release into the ready queue (unless stale),
    /// computing its packed priority key from the task's incremental
    /// window state. Entries whose fields do not fit the key go to the
    /// exact side list.
    #[inline]
    fn enqueue_ready(&mut self, id: u32, gen: u32, idx: SubtaskIndex, counts: &mut TickCounts) {
        counts.drained += 1;
        let st = &self.tasks[id as usize];
        if !st.active || st.generation != gen {
            counts.stale += 1;
            return;
        }
        // Within one generation a task has exactly one in-flight entry,
        // so a live entry always matches the pending subtask.
        debug_assert_eq!(st.next_index, idx);
        let tag = self.pending_tag(id);
        let key = key::pack(self.cfg.policy, &tag, self.cfg.higher_id_first);
        counts.pushes += 1;
        if key == key::SENTINEL {
            self.exact_ready.push((id, gen));
        } else {
            self.ready.push(Reverse(ReadyEntry { key, id, gen }));
        }
    }

    /// Resolves an equal-key tie under PF/PD: pops every entry sharing
    /// `first`'s key, re-sorts the batch with the exact comparator,
    /// commits as many as still fit in the slot, and pushes the rest back.
    fn commit_tie_batch(
        &mut self,
        first: ReadyEntry,
        now: Slot,
        out: &mut Vec<TaskId>,
        counts: &mut TickCounts,
    ) {
        let mut batch = std::mem::take(&mut self.tie_scratch);
        batch.clear();
        batch.push(first);
        while let Some(Reverse(e)) = self.ready.peek() {
            if e.key != first.key {
                break;
            }
            batch.push(self.ready.pop().expect("peeked entry exists").0);
            counts.pops += 1;
        }
        // Prune stale entries, then order the live ones exactly.
        batch.retain(|e| {
            let st = &self.tasks[e.id as usize];
            let live = st.active && st.generation == e.gen;
            if !live {
                counts.stale += 1;
            }
            live
        });
        let mut tags: Vec<(SubtaskTag, ReadyEntry)> =
            batch.iter().map(|&e| (self.pending_tag(e.id), e)).collect();
        let (pol, hif) = (self.cfg.policy, self.cfg.higher_id_first);
        tags.sort_unstable_by(|a, b| compare_with_id_order(pol, &a.0, &b.0, hif));
        let m = self.cfg.processors as usize;
        for (tag, entry) in tags {
            if out.len() < m {
                self.commit(tag, now, out);
            } else {
                self.ready.push(Reverse(entry));
                counts.pushes += 1;
            }
        }
        batch.clear();
        self.tie_scratch = batch;
    }

    /// Exact selection when unpackable entries exist (the cold path): the
    /// side list might outrank the heap top, so compare everything with
    /// the exact comparator and commit the single best candidate. Returns
    /// `false` when nothing is left to schedule.
    fn pop_exact_merge(
        &mut self,
        now: Slot,
        out: &mut Vec<TaskId>,
        counts: &mut TickCounts,
    ) -> bool {
        let (pol, hif) = (self.cfg.policy, self.cfg.higher_id_first);
        // Prune stale side-list entries.
        let tasks = &self.tasks;
        let stale_before = self.exact_ready.len();
        self.exact_ready.retain(|&(id, gen)| {
            let st = &tasks[id as usize];
            st.active && st.generation == gen
        });
        counts.stale += (stale_before - self.exact_ready.len()) as u64;
        // Best side-list candidate by exact order.
        let mut best: Option<(usize, SubtaskTag)> = None;
        for (i, &(id, _)) in self.exact_ready.iter().enumerate() {
            let tag = self.pending_tag(id);
            match &best {
                Some((_, b)) if compare_with_id_order(pol, &tag, b, hif).is_lt() => {
                    best = Some((i, tag));
                }
                None => best = Some((i, tag)),
                _ => {}
            }
        }
        // Best heap candidate: pop the top (skipping stale entries) plus —
        // under PF/PD, whose keys can tie — every entry sharing its key,
        // and take the exact-best of that batch. The batch is held in
        // `tie_scratch` so the losers can be pushed back afterwards.
        let residual_ties = matches!(pol, Policy::Pf | Policy::Pd);
        let mut batch = std::mem::take(&mut self.tie_scratch);
        batch.clear();
        while let Some(&Reverse(entry)) = self.ready.peek() {
            let st = &self.tasks[entry.id as usize];
            if !st.active || st.generation != entry.gen {
                self.ready.pop();
                counts.pops += 1;
                counts.stale += 1;
                continue;
            }
            if let Some(first) = batch.first() {
                if !(residual_ties && entry.key == first.key) {
                    break;
                }
            }
            batch.push(self.ready.pop().expect("peeked entry exists").0);
        }
        let mut heap_best: Option<(usize, SubtaskTag)> = None;
        for (i, e) in batch.iter().enumerate() {
            let tag = self.pending_tag(e.id);
            match &heap_best {
                Some((_, b)) if compare_with_id_order(pol, &tag, b, hif).is_ge() => {}
                _ => heap_best = Some((i, tag)),
            }
        }
        // Decide between the side list's best and the heap batch's best,
        // then push every unchosen batch entry back into the heap.
        let side_wins = match (&best, &heap_best) {
            (None, None) => {
                self.tie_scratch = batch;
                return false;
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((_, s)), Some((_, h))) => compare_with_id_order(pol, s, h, hif).is_lt(),
        };
        counts.pops += 1;
        if side_wins {
            for e in batch.drain(..) {
                self.ready.push(Reverse(e));
            }
            let (i, tag) = best.expect("side_wins implies a side candidate");
            self.exact_ready.swap_remove(i);
            self.commit(tag, now, out);
        } else {
            let (keep, tag) = heap_best.expect("heap side non-empty");
            for (i, e) in batch.drain(..).enumerate() {
                if i != keep {
                    self.ready.push(Reverse(e));
                }
            }
            self.commit(tag, now, out);
        }
        self.tie_scratch = batch;
        true
    }

    /// The reference oracle: scan every task, rebuild exact tags, sort
    /// with the exact comparator, take the `M` best. Byte-identical to the
    /// event-driven core (CI enforces this); kept as the ground truth.
    #[cfg(any(test, feature = "slow-reference"))]
    fn tick_reference(&mut self, now: Slot, out: &mut Vec<TaskId>) {
        let mut candidates: Vec<SubtaskTag> = Vec::new();
        for (i, st) in self.tasks.iter().enumerate() {
            if st.active && st.eligible <= now {
                candidates.push(SubtaskTag::new(
                    TaskId(i as u32),
                    st.weight,
                    st.next_index,
                    st.theta,
                ));
            }
        }
        let (pol, hif) = (self.cfg.policy, self.cfg.higher_id_first);
        candidates.sort_unstable_by(|a, b| compare_with_id_order(pol, a, b, hif));
        candidates.truncate(self.cfg.processors as usize);
        for tag in candidates {
            self.commit(tag, now, out);
        }
    }

    /// Records the allocation of `tag` in slot `now` and advances the
    /// task's incremental window state to the successor subtask. Shared by
    /// both cores; only the event-driven core queues the successor in the
    /// release calendar (the reference core re-scans `eligible` instead).
    fn commit(&mut self, tag: SubtaskTag, now: Slot, out: &mut Vec<TaskId>) {
        // Deadline-miss detection: scheduling in a slot at or past the
        // pseudo-deadline violates the window.
        if now >= tag.deadline {
            self.misses.push(Miss {
                task: tag.task,
                index: tag.index,
                deadline: tag.deadline,
                scheduled_at: now,
            });
        }
        let id = tag.task;
        let next = tag.index + 1;
        let delay = self.delays.delay(id, next);
        let cold = &mut self.cold[id.index()];
        cold.allocations += 1;
        cold.leave_safe = if tag.weight.is_light() {
            tag.deadline + u64::from(tag.b)
        } else {
            tag.group_deadline + 1
        };
        let st = &mut self.tasks[id.index()];
        out.push(id);

        st.next_index = next;
        st.theta += delay;
        st.dfloor += delay;
        // r(Tᵢ₊₁) + θ = ⌊i·den/num⌋ + θ — the pending dfloor, now that θ
        // includes the successor's delay.
        let pfair_release = st.dfloor;
        debug_assert_eq!(pfair_release, subtask::release(st.weight, next) + st.theta);
        // Advance the incremental window state i → i+1 (see [`TaskState`]).
        st.mod_acc += st.step_r;
        st.dfloor += st.step_q;
        if st.mod_acc >= st.weight.numer() {
            st.mod_acc -= st.weight.numer();
            st.dfloor += 1;
        }
        // Job boundaries use the *unreduced* execution cost.
        let same_job = st.job_pos + 1 != st.exec;
        st.job_pos = if same_job { st.job_pos + 1 } else { 0 };
        let eligible = match self.cfg.early_release {
            EarlyRelease::None => pfair_release,
            EarlyRelease::IntraJob if same_job => (now + 1).min(pfair_release),
            EarlyRelease::IntraJob => pfair_release,
            EarlyRelease::Unrestricted => (now + 1).min(pfair_release),
        };
        st.eligible = eligible;
        let gen = st.generation;
        if self.cfg.core == CoreKind::EventDriven {
            calendar_push(
                &mut self.calendar,
                &mut self.tasks,
                eligible,
                id.0,
                gen,
                next,
            );
        }
    }

    /// Convenience: run slots `0..horizon` and return the full schedule as
    /// one `Vec<Vec<TaskId>>` (slot → scheduled tasks).
    pub fn run(&mut self, horizon: Slot) -> Vec<Vec<TaskId>> {
        let mut schedule = Vec::with_capacity(horizon as usize);
        let mut slot = Vec::new();
        for t in self.now..horizon {
            slot.clear();
            self.tick(t, &mut slot);
            schedule.push(slot.clone());
        }
        schedule
    }
}

impl<D: DelayModel> fmt::Debug for PfairScheduler<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PfairScheduler")
            .field("cfg", &self.cfg)
            .field("tasks", &self.tasks.len())
            .field("now", &self.now)
            .field("misses", &self.misses.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_model::TaskSet;

    fn ts(pairs: &[(u64, u64)]) -> TaskSet {
        TaskSet::from_pairs(pairs.iter().copied()).unwrap()
    }

    /// The canonical partitioning counterexample (paper, Section 1): three
    /// tasks of weight 2/3 on two processors. Unschedulable by any
    /// partitioning; PD² schedules it with no misses.
    #[test]
    fn pd2_schedules_three_two_thirds_on_two_processors() {
        let set = ts(&[(2, 3), (2, 3), (2, 3)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(2));
        let schedule = sched.run(30);
        assert!(sched.misses().is_empty(), "misses: {:?}", sched.misses());
        // Full utilization: every slot uses both processors.
        for (t, slot) in schedule.iter().enumerate() {
            assert_eq!(slot.len(), 2, "slot {t}");
        }
        // Each task gets exactly 2 quanta per 3 slots.
        for id in set.ids() {
            assert_eq!(sched.allocations(id), 20);
        }
    }

    /// Lag stays within (−1, 1) for every task at every instant — the Pfair
    /// defining property (Equation (1)).
    #[test]
    fn pd2_lag_bounds_hold() {
        let set = ts(&[(8, 11), (1, 3), (2, 5), (5, 7), (3, 4), (1, 2)]);
        // Σ = 8/11+1/3+2/5+5/7+3/4+1/2 ≈ 3.42 → 4 processors.
        let m = set.min_processors();
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(m));
        let horizon = 2 * set.hyperperiod();
        for t in 0..horizon {
            let mut slot = Vec::new();
            sched.tick(t, &mut slot);
            for id in set.ids() {
                let lag = sched.lag(id, t + 1);
                assert!(
                    lag > Rat::from(-1i64) && lag < Rat::ONE,
                    "lag({id}, {}) = {lag} out of bounds",
                    t + 1
                );
            }
        }
        assert!(sched.misses().is_empty());
    }

    /// Over each hyperperiod a periodic task receives exactly e·(H/p) quanta.
    #[test]
    fn proportionate_allocation_over_hyperperiod() {
        let set = ts(&[(1, 4), (3, 8), (1, 2), (5, 8)]);
        let m = set.min_processors();
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(m));
        let h = set.hyperperiod(); // 8
        sched.run(4 * h);
        for (id, task) in set.iter() {
            let expected = 4 * h / task.period * task.exec;
            assert_eq!(sched.allocations(id), expected, "{id}");
        }
    }

    /// Plain Pfair is not work conserving: a subtask that ran early leaves
    /// its processor idle until the next window. ERfair fills the idle slot.
    #[test]
    fn erfair_is_work_conserving_pfair_is_not() {
        // One task of weight 2/4 = 1/2 on one processor. Pfair windows:
        // T1 in [0,2), T2 in [2,4). Plain Pfair: T1 at 0, T2 at 2 → slot 1
        // idle. ERfair (intra-job): T2 runs at 1.
        let set = ts(&[(2, 4)]);
        let mut pfair = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let pf_sched = pfair.run(4);
        assert_eq!(pf_sched[0].len(), 1);
        assert_eq!(pf_sched[1].len(), 0, "plain Pfair idles in slot 1");
        assert_eq!(pf_sched[2].len(), 1);

        let mut er = PfairScheduler::new(
            &set,
            SchedConfig::pd2(1).with_early_release(EarlyRelease::IntraJob),
        );
        let er_sched = er.run(4);
        assert_eq!(er_sched[0].len(), 1);
        assert_eq!(er_sched[1].len(), 1, "ERfair runs T2 early in slot 1");
        assert_eq!(er_sched[2].len(), 0);
        assert!(er.misses().is_empty());
    }

    /// Intra-job ERfair does not release across job boundaries; the
    /// unrestricted variant does.
    #[test]
    fn intra_job_vs_unrestricted_early_release() {
        // Weight 1/2, e=1: every subtask is its own job. Intra-job ER can
        // never release early; unrestricted can.
        let set = ts(&[(1, 2)]);
        let mut intra = PfairScheduler::new(
            &set,
            SchedConfig::pd2(1).with_early_release(EarlyRelease::IntraJob),
        );
        let s = intra.run(6);
        // Windows [0,2),[2,4),[4,6): exactly one allocation per window.
        assert_eq!(
            s.iter().map(|v| v.len()).collect::<Vec<_>>(),
            vec![1, 0, 1, 0, 1, 0]
        );

        let mut unres = PfairScheduler::new(
            &set,
            SchedConfig::pd2(1).with_early_release(EarlyRelease::Unrestricted),
        );
        let s = unres.run(6);
        // Fully work conserving: the single task runs in every slot.
        assert_eq!(s.iter().map(|v| v.len()).sum::<usize>(), 6);
        assert!(unres.misses().is_empty(), "ER never causes misses");
    }

    /// Asynchronous periodic systems: phases shift each task's windows;
    /// feasibility and optimality are unaffected.
    #[test]
    fn asynchronous_phases_schedule_cleanly() {
        let set = ts(&[(1, 2), (2, 3), (1, 6)]);
        // Σ = 1/2 + 2/3 + 1/6 = 4/3 → M = 2; staggered phases.
        let phases = [0u64, 1, 5];
        let mut sched = PfairScheduler::with_phases(&set, &phases, SchedConfig::pd2(2));
        let schedule = sched.run(60);
        assert!(sched.misses().is_empty());
        // No allocation before a task's phase.
        for (t, slot) in schedule.iter().enumerate() {
            for id in slot {
                assert!(
                    t as u64 >= phases[id.index()],
                    "{id} ran at {t} before phase {}",
                    phases[id.index()]
                );
            }
        }
        // Each task receives its proportional share measured from its
        // phase (horizon − phase is a multiple of the period for all).
        for (id, task) in set.iter() {
            let span = 60 - phases[id.index()];
            if span % task.period == 0 {
                assert_eq!(sched.allocations(id), span / task.period * task.exec);
            }
        }
        // The lag (measured from the phase) stays within bounds.
        for id in set.ids() {
            let lag = sched.lag(id, 60);
            assert!(lag > Rat::from(-1i64) && lag < Rat::ONE);
        }
    }

    #[test]
    fn phase_equal_to_zero_matches_synchronous() {
        let set = ts(&[(2, 3), (1, 2)]);
        let mut a = PfairScheduler::new(&set, SchedConfig::pd2(2));
        let mut b = PfairScheduler::with_phases(&set, &[0, 0], SchedConfig::pd2(2));
        assert_eq!(a.run(24), b.run(24));
    }

    /// Sporadic semantics: delaying a job shifts that job's subtasks (and
    /// everything after) together; earlier jobs are untouched.
    #[test]
    fn sporadic_job_delay_shifts_whole_job() {
        let set = ts(&[(2, 4)]);
        let mut delays = SporadicDelays::for_tasks(&set);
        delays.delay_job(TaskId(0), 1, 3); // job 1 arrives 3 slots late
        let mut sched = PfairScheduler::with_delays(&set, SchedConfig::pd2(1), delays);
        let schedule = sched.run(16);
        assert!(sched.misses().is_empty());
        let run_slots: Vec<usize> = schedule
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(t, _)| t)
            .collect();
        // Job 0: subtasks at releases 0 and 2. Job 1 (nominal releases 4
        // and 6) shifts to 7 and 9; job 2 (nominal 8, 10) to 11 and 13;
        // job 3's first subtask (nominal 12) to 15.
        assert_eq!(run_slots, vec![0, 2, 7, 9, 11, 13, 15]);
    }

    /// A job delay never splits a job: the second subtask cannot land
    /// before the (delayed) first.
    #[test]
    fn sporadic_delay_is_job_atomic() {
        let set = ts(&[(3, 6)]);
        let mut delays = SporadicDelays::for_tasks(&set);
        delays.delay_job(TaskId(0), 2, 5);
        let mut sched = PfairScheduler::with_delays(&set, SchedConfig::pd2(1), delays);
        sched.run(40);
        assert!(sched.misses().is_empty());
    }

    /// Fig. 1(b): an IS task whose subtask T₅ is released one slot late.
    #[test]
    fn is_delay_shifts_windows() {
        let set = ts(&[(8, 11)]);
        let mut delays = MapDelays::new();
        delays.insert(TaskId(0), 5, 1);
        let mut sched = PfairScheduler::with_delays(&set, SchedConfig::pd2(1), delays);
        sched.run(30);
        assert!(sched.misses().is_empty());
        // Alone on one processor, each subtask runs exactly at its
        // (θ-shifted) release. Releases of T₅, T₆, … all shift by one slot;
        // exactly the releases of T₁..T₂₂ fall in [0, 30) (r(T₂₂)+1 = 29,
        // r(T₂₃)+1 = 31).
        assert_eq!(sched.allocations(TaskId(0)), 22);
    }

    /// EPDF (no tie-breaks) misses deadlines on a task set PD² handles —
    /// the tie-breaks are load-bearing (ablation E12).
    #[test]
    fn epdf_misses_where_pd2_does_not() {
        // A known EPDF-hard pattern: many heavy tasks at full utilization
        // on ≥ 3 processors.
        let set = ts(&[
            (2, 3),
            (2, 3),
            (2, 3),
            (2, 3),
            (2, 3),
            (2, 3),
            (1, 1),
            (1, 1),
        ]);
        // Σ = 6·(2/3) + 2 = 6 on M = 6.
        assert_eq!(set.total_utilization(), Rat::from(6u64));
        let horizon = 3 * set.hyperperiod();

        let mut pd2 = PfairScheduler::new(&set, SchedConfig::pd2(6));
        pd2.run(horizon);
        assert!(pd2.misses().is_empty(), "PD2 is optimal");
        // (EPDF may or may not miss on this particular set; the stronger
        // ablation lives in the sim crate's optimality tests. Here we only
        // assert PD2's correctness and that EPDF produces a valid schedule
        // shape.)
        let mut epdf = PfairScheduler::new(&set, SchedConfig::pd2(6).with_policy(Policy::Epdf));
        let s = epdf.run(horizon);
        for slot in &s {
            assert!(slot.len() <= 6);
        }
    }

    /// All four policies produce miss-free schedules on a feasible set
    /// where ties are rare (policies differ only in tie-breaking).
    #[test]
    fn all_policies_schedule_feasible_light_set() {
        let set = ts(&[(1, 3), (1, 4), (1, 5), (2, 7), (1, 6)]);
        let m = set.min_processors();
        for pol in Policy::ALL {
            let mut s = PfairScheduler::new(&set, SchedConfig::pd2(m).with_policy(pol));
            s.run(2 * set.hyperperiod());
            assert!(
                s.misses().is_empty(),
                "{} missed: {:?}",
                pol.name(),
                s.misses()
            );
        }
    }

    /// §5.2 reweighting: decreases apply immediately; increases must wait
    /// for the departing weight's safe point.
    #[test]
    fn reweight_decrease_is_immediate() {
        // T1 is *light* (1/4 < 1/2), so its safe point is d(Tᵢ) + b(Tᵢ) of
        // its last subtask — already passed at the window boundary t = 8,
        // and the halved replacement joins immediately.
        let set = ts(&[(1, 2), (1, 4)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        for t in 0..8 {
            out.clear();
            sched.tick(t, &mut out);
        }
        assert_eq!(sched.earliest_leave(TaskId(1)), Some(8));
        let new_id = sched
            .reweight(TaskId(1), Task::new(1, 8).unwrap(), 8)
            .unwrap();
        assert!(sched.is_active(new_id));
        assert!(!sched.is_active(TaskId(1)));
        for t in 8..40 {
            out.clear();
            sched.tick(t, &mut out);
        }
        assert!(sched.misses().is_empty());
        assert_eq!(sched.allocations(new_id), 4); // 32 slots at 1/8
    }

    #[test]
    fn reweight_increase_waits_for_safe_point() {
        // A heavy task reweighting upward while capacity is tight: the
        // join side fails until the old weight frees.
        let set = ts(&[(1, 6), (2, 3)]); // Σ = 5/6 on one processor
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        for t in 0..3 {
            out.clear();
            sched.tick(t, &mut out);
        }
        // 2/3 → 5/6: while the old 2/3 is still charged,
        // 1/6 + 2/3 + 5/6 > 1; once freed, 1/6 + 5/6 = 1 fits exactly.
        match sched.reweight(TaskId(1), Task::new(5, 6).unwrap(), 3) {
            Err(ReweightError::Overload) => {
                // Retry each slot until the departing weight frees.
                let mut t = 3;
                loop {
                    out.clear();
                    sched.tick(t, &mut out);
                    t += 1;
                    match sched.join(Task::new(5, 6).unwrap(), t) {
                        Ok(_) => break,
                        Err(JoinError::Overload) => assert!(t < 30, "must free eventually"),
                        Err(JoinError::WrongSlot) => {
                            unreachable!("join retries track the current slot")
                        }
                    }
                }
            }
            Ok(_) => {} // legal if the safe point already passed
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn reweight_missing_task_fails_cleanly() {
        let set = ts(&[(1, 2)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        assert_eq!(
            sched.reweight(TaskId(9), Task::new(1, 4).unwrap(), 0),
            Err(ReweightError::NoSuchTask)
        );
        assert!(ReweightError::Overload.to_string().contains("frees"));
    }

    /// Stale-slot preconditions surface as errors, not panics — and they
    /// change nothing.
    #[test]
    fn join_leave_reweight_reject_wrong_slot() {
        let set = ts(&[(1, 2), (1, 4)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(2));
        let mut out = Vec::new();
        for t in 0..4 {
            out.clear();
            sched.tick(t, &mut out);
        }
        // The current slot is 4; both stale and future slots are rejected.
        for wrong in [3, 5] {
            assert_eq!(
                sched.join(Task::new(1, 8).unwrap(), wrong),
                Err(JoinError::WrongSlot)
            );
            assert_eq!(sched.leave(TaskId(0), wrong), Err(LeaveError::WrongSlot));
            assert_eq!(
                sched.reweight(TaskId(0), Task::new(1, 8).unwrap(), wrong),
                Err(ReweightError::WrongSlot)
            );
        }
        // A wrong-slot reweight is atomic: the old task never left.
        assert!(sched.is_active(TaskId(0)));
        assert_eq!(sched.task_count(), 2);
        // The same calls succeed at the current slot.
        assert!(sched.join(Task::new(1, 8).unwrap(), 4).is_ok());
        assert!(sched.leave(TaskId(0), 4).is_ok());
        assert!(LeaveError::WrongSlot.to_string().contains("current slot"));
        assert!(JoinError::WrongSlot.to_string().contains("current slot"));
        assert!(ReweightError::WrongSlot
            .to_string()
            .contains("current slot"));
    }

    /// The slow reference core and the event-driven core produce identical
    /// schedules and misses under every policy and eligibility model.
    #[test]
    fn reference_core_matches_event_core() {
        let set = ts(&[(8, 11), (1, 3), (2, 5), (5, 7), (3, 4), (1, 2)]);
        let m = set.min_processors();
        for pol in Policy::ALL {
            for er in [
                EarlyRelease::None,
                EarlyRelease::IntraJob,
                EarlyRelease::Unrestricted,
            ] {
                for hif in [false, true] {
                    let cfg = SchedConfig::pd2(m)
                        .with_policy(pol)
                        .with_early_release(er)
                        .with_higher_id_first(hif);
                    let mut fast = PfairScheduler::new(&set, cfg);
                    let mut slow = PfairScheduler::new(&set, cfg.with_core(CoreKind::Reference));
                    assert_eq!(
                        fast.run(300),
                        slow.run(300),
                        "{} {er:?} hif={hif} diverged",
                        pol.name()
                    );
                    assert_eq!(fast.misses(), slow.misses());
                }
            }
        }
    }

    /// Regression for the stale-pop bug: a queued release of a departed
    /// incarnation must never dispatch after its id is recycled.
    #[test]
    fn stale_entry_never_dispatches_after_id_reuse() {
        // M = 1, id recycling on. Task A (weight 1/2) runs at slot 0; its
        // successor T2 is queued for slot 2. A leaves at slot 1 and B
        // (weight 1/4) joins, recycling id 0. Without the generation check
        // the queued (slot 2, id 0) release would match B's pending T2
        // (next_index = 2) and dispatch it at slot 2 — three slots before
        // its true release at 5.
        let set = ts(&[(1, 2)]);
        let cfg = SchedConfig::pd2(1).with_reuse_ids(true);
        let mut sched = PfairScheduler::new(&set, cfg);
        let mut out = Vec::new();
        sched.tick(0, &mut out);
        assert_eq!(out, vec![TaskId(0)]);
        sched.leave(TaskId(0), 1).unwrap();
        let b = sched.join(Task::new(1, 4).unwrap(), 1).unwrap();
        assert_eq!(b, TaskId(0), "the id is recycled");
        let mut schedule = Vec::new();
        for t in 1..9 {
            out.clear();
            sched.tick(t, &mut out);
            schedule.push(out.clone());
        }
        assert!(sched.misses().is_empty());
        // B's windows (θ = 1): T1 ∈ [1, 5), T2 ∈ [5, 9). Plain Pfair runs
        // each subtask exactly at its release; slots 2–4 must stay idle.
        assert_eq!(schedule[0], vec![TaskId(0)], "B's T1 at slot 1");
        assert!(
            schedule[1..4].iter().all(|s| s.is_empty()),
            "stale dispatch: {schedule:?}"
        );
        assert_eq!(schedule[4], vec![TaskId(0)], "B's T2 at slot 5");
        assert_eq!(sched.allocations(TaskId(0)), 2);
    }

    /// Task ids beyond the packed key's 12-bit field produce sentinel keys;
    /// mixed sentinel/packed comparisons fall back to the exact order and
    /// the schedule stays correct.
    #[test]
    fn sentinel_keys_fall_back_to_exact_order() {
        let n = crate::key::ID_FIELD_MAX as u64 + 9; // ids 0..4104
        let set = TaskSet::from_pairs((0..n).map(|_| (1u64, 8192u64))).unwrap();
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        // All windows are [0, 8192): every tick is decided purely by the
        // residual id tie-break, across the packed/sentinel boundary.
        for t in 0..4 {
            out.clear();
            sched.tick(t, &mut out);
            assert_eq!(out, vec![TaskId(t as u32)]);
        }
    }

    #[test]
    fn join_respects_feasibility() {
        let set = ts(&[(1, 2), (1, 2), (1, 2)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(2));
        // 3/2 used; a weight-1/2 task fits exactly…
        let id = sched.join(Task::new(1, 2).unwrap(), 0).unwrap();
        assert!(sched.is_active(id));
        // …but nothing more.
        assert_eq!(
            sched.join(Task::new(1, 100).unwrap(), 0),
            Err(JoinError::Overload)
        );
    }

    #[test]
    fn join_mid_schedule_meets_deadlines() {
        let set = ts(&[(1, 2)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        for t in 0..4 {
            out.clear();
            sched.tick(t, &mut out);
        }
        // Join a weight-1/2 task at t = 4; its windows start at 4.
        let id = sched.join(Task::new(1, 2).unwrap(), 4).unwrap();
        for t in 4..24 {
            out.clear();
            sched.tick(t, &mut out);
        }
        assert!(sched.misses().is_empty());
        // The joiner received ⌊(24−4)/2⌋ = 10 quanta.
        assert_eq!(sched.allocations(id), 10);
    }

    #[test]
    fn leave_defers_weight_release() {
        let set = ts(&[(1, 3), (2, 3)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        // Run a few slots so both tasks have been scheduled.
        for t in 0..3 {
            out.clear();
            sched.tick(t, &mut out);
        }
        let light = TaskId(0);
        let heavy = TaskId(1);
        assert!(sched.allocations(light) > 0);
        assert!(sched.allocations(heavy) > 0);
        // The heavy task leaves at t = 3; it stops executing immediately but
        // its weight stays charged until after its next group deadline.
        let earliest = sched.earliest_leave(heavy).unwrap();
        let free_at = sched.leave(heavy, 3).unwrap();
        assert_eq!(free_at, earliest.max(3));
        assert!(!sched.is_active(heavy));
        if free_at > 3 {
            // Weight still charged: a weight-2/3 joiner is rejected…
            assert_eq!(
                sched.join(Task::new(2, 3).unwrap(), 3),
                Err(JoinError::Overload)
            );
            // …until the safe slot passes.
            for t in 3..=free_at {
                out.clear();
                sched.tick(t, &mut out);
            }
        }
        assert_eq!(sched.total_weight().exact().unwrap(), Rat::new(1, 3));
        // The heavy task is no longer scheduled after leaving.
        out.clear();
        sched.tick(free_at.max(3) + 1, &mut out);
        assert!(!out.contains(&heavy));
    }

    /// The light leave rule (paper, Section 2): a light task whose last
    /// scheduled subtask is `Tᵢ` keeps its weight charged until
    /// `d(Tᵢ) + b(Tᵢ)`. Weight 2/5 alone on one processor runs `T₁` in
    /// slot 0. By hand, `d(T₁) = ⌈5/2⌉ = 3`, and `b(T₁) = 1` because
    /// `T₂`'s window opens at `⌊5/2⌋ = 2`, inside `T₁`'s: leaving at slot
    /// 1 frees the weight at 4, not at 3. A weight-1 task that tries to
    /// join in its place is refused through slot 4 and admitted at 5.
    #[test]
    fn light_task_leave_waits_for_deadline_plus_b_bit() {
        let set = ts(&[(2, 5)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        sched.tick(0, &mut out);
        assert_eq!(out, [TaskId(0)]);
        let w = Weight::new(2, 5).unwrap();
        assert_eq!((subtask::deadline(w, 1), subtask::b_bit(w, 1)), (3, true));
        assert_eq!(sched.leave(TaskId(0), 1), Ok(4));
        let full = Task::new(1, 1).unwrap();
        for t in 1..=4 {
            assert_eq!(sched.join(full, t), Err(JoinError::Overload), "slot {t}");
            out.clear();
            sched.tick(t, &mut out);
        }
        assert!(sched.join(full, 5).is_ok());
    }

    #[test]
    fn leave_and_immediate_rejoin_cannot_overrun() {
        // The paper's motivating hazard: a task with negative lag leaving
        // and instantly re-joining would execute above its rate. Our
        // deferred weight release makes the immediate re-join fail while
        // the weight is still charged.
        let set = ts(&[(2, 3), (1, 3)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        for t in 0..2 {
            out.clear();
            sched.tick(t, &mut out);
        }
        let heavy = TaskId(0);
        let free_at = sched.leave(heavy, 2).unwrap();
        if free_at > 2 {
            assert_eq!(
                sched.join(Task::new(2, 3).unwrap(), 2),
                Err(JoinError::Overload)
            );
        }
    }

    #[test]
    fn never_scheduled_task_leaves_immediately() {
        // Weight sums to 1 on 1 processor; the weight-1 competitor wins
        // every slot? No — PD2 is fair. Use a 2-processor set where one
        // task is never scheduled because we leave before its release.
        let set = ts(&[(1, 100)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        // T0's first window is [0,100): it is eligible but tick(0) hasn't
        // happened. earliest_leave = join time (never scheduled).
        assert_eq!(sched.earliest_leave(TaskId(0)), Some(0));
        sched.leave(TaskId(0), 0).unwrap();
        assert!(!sched.is_active(TaskId(0)));
        assert_eq!(sched.earliest_leave(TaskId(0)), None);
    }

    #[test]
    fn miss_records_tardiness() {
        // Overload EPDF deliberately: infeasible on purpose is impossible
        // via admission, so construct a miss through EPDF ties instead.
        // Simplest deterministic miss: M=1, two weight-1/2 tasks with
        // synchronized windows — feasible, no miss. Force a miss with an
        // adversarial IS delay is also impossible (delays only relax).
        // So test the Miss struct directly.
        let m = Miss {
            task: TaskId(0),
            index: 3,
            deadline: 10,
            scheduled_at: 12,
        };
        assert_eq!(m.tardiness(), 3);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_tick_panics() {
        let set = ts(&[(1, 2)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let mut out = Vec::new();
        sched.tick(1, &mut out);
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn infeasible_initial_set_panics() {
        let set = ts(&[(1, 1), (1, 1)]);
        let _ = PfairScheduler::new(&set, SchedConfig::pd2(1));
    }

    /// Releases farther out than the timer wheel's span take the overflow
    /// path and still fire on the right slot.
    #[test]
    fn long_period_releases_cross_the_wheel_span() {
        // Period 600 > WHEEL_SLOTS = 512: T2's release at 600 overflows
        // the wheel when queued at slot 0.
        let set = ts(&[(1, 600), (1, 2)]);
        let mut sched = PfairScheduler::new(&set, SchedConfig::pd2(1));
        let schedule = sched.run(1300);
        assert!(sched.misses().is_empty());
        // One allocation per window [0,600), [600,1200), [1200,1800).
        assert_eq!(sched.allocations(TaskId(0)), 3);
        let t0_slots: Vec<usize> = schedule
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains(&TaskId(0)))
            .map(|(t, _)| t)
            .collect();
        assert_eq!(t0_slots.len(), 3);
        assert!(t0_slots[1] >= 600 && t0_slots[2] >= 1200, "{t0_slots:?}");
    }
}
