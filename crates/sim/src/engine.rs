//! The one slot loop of every quantum-level simulator, with affinity-aware
//! processor assignment.
//!
//! A [`Dispatch`] policy decides *which* tasks execute in each slot: PD²
//! ([`pfair_core::PfairScheduler`]), job-level global EDF
//! ([`GlobalEdf`](crate::global_edf::GlobalEdf)), global EDF with a
//! constant-bandwidth server ([`Cbs`](crate::global_edf::Cbs)), weighted
//! round-robin, or the `faults` crate's partitioned quantum EDF; every
//! policy is reachable between slots through [`MultiSim::scheduler`] and
//! [`MultiSim::scheduler_mut`]. [`MultiSim`] decides *where*, and accounts
//! for the overheads the paper analyzes in Section 4 by one rule for every
//! policy:
//!
//! * A task scheduled in consecutive quanta stays on its processor — "when
//!   a task is scheduled in two consecutive quanta, it can be allowed to
//!   continue executing on the same processor" — so it suffers no
//!   preemption.
//! * A **preemption** is charged when a task with an unfinished job stops
//!   executing at a quantum boundary.
//! * A **migration** is charged when a task resumes on a different
//!   processor than it last used.
//! * A **context switch** is charged whenever a processor starts a quantum
//!   with a different task than it ran in the previous quantum.
//!
//! The engine also validates the paper's per-job preemption bound
//! `min(E − 1, P − E)` in its tests.
//!
//! PD² decides from its own subtask state. Every other policy reads each
//! task's current job from the loop's [`JobLedger`], which the loop keeps
//! for them from the first slot ([`MultiSim::with_policy`]); for PD² it
//! keeps one only once a fault hook is installed.
//!
//! # Fault injection
//!
//! A [`FaultHook`] installed via [`MultiSim::set_fault_hook`] perturbs the
//! *execution* of the schedule without ever touching the policy's
//! bookkeeping: the policy still hands out idealized quanta, and the
//! hook decides which of them produce useful work. Per slot it can mark
//! processors fail-stopped (their quanta are lost and the lowest-priority
//! scheduled tasks are dropped) or mark a dispatched quantum wasted
//! (quantum jitter / a lost tick); per job it can demand extra quanta
//! beyond the declared WCET (an overrun). Every quantum that survives goes
//! to the [`JobLedger`] installed with the hook, which
//! tracks *application-level* job progress — a job completes only after
//! `exec` (plus any overrun) **useful** quanta — and reports job deadline
//! misses, observed application lag, and fault counters in a separate
//! [`FaultMetrics`] struct. With no hook (or a hook that injects nothing)
//! the engine's behaviour and [`RunMetrics`] are bit-for-bit identical to
//! a plain run.
//!
//! Responding to faults is the caller's loop's job: the boundary before
//! [`MultiSim::step`] is exactly where `join`/`leave`/`set_processors`/
//! `set_early_release` are legal, and whatever acts there records itself
//! through [`MultiSim::push_event`].
//!
//! # Event recording
//!
//! With [`MultiSim::record_events`] enabled, the engine appends a
//! [`TraceEvent`] for each injected fault (processor down, wasted quantum,
//! WCET overrun), and recovery code appends its own (shed, rejoin,
//! catch-up, capacity) via [`MultiSim::push_event`].
//! [`ScheduleTrace::capture`](crate::trace::ScheduleTrace::capture)
//! archives the stream next to the schedule so the run can be re-verified
//! offline.

use crate::ledger::JobLedger;
pub use crate::ledger::{FaultHook, FaultMetrics, SlotFaults};
use crate::trace::TraceEvent;
use pfair_core::sched::{DelayModel, PfairScheduler};
use pfair_model::{Slot, Task, TaskId, TaskSet};

/// The per-slot choice of a [`MultiSim`]: *which* tasks run. Where they
/// run, and everything that is counted about it, is the loop's.
pub trait Dispatch {
    /// Appends slot `t`'s picks to `out` (empty on entry), highest
    /// priority first. `jobs` holds every task's current job (see the
    /// module docs for when it is kept) and `live` the processors not
    /// fail-stopped this slot; the loop runs the first `live.len()` picks.
    fn pick(&mut self, t: Slot, jobs: &JobLedger, live: &[u32], out: &mut Vec<TaskId>);

    /// Pfair window misses so far; only PD² has windows.
    fn window_misses(&self) -> u64 {
        0
    }

    /// The processor task `id` is bound to, if the policy partitions. The
    /// loop seeds the task's last processor with it, so affinity dispatch
    /// places it there and it never migrates.
    fn home(&self, id: TaskId) -> Option<u32> {
        let _ = id;
        None
    }
}

impl<D: DelayModel> Dispatch for PfairScheduler<D> {
    #[inline]
    fn pick(&mut self, t: Slot, _jobs: &JobLedger, _live: &[u32], out: &mut Vec<TaskId>) {
        self.tick(t, out);
    }

    fn window_misses(&self) -> u64 {
        self.misses().len() as u64
    }
}

/// Aggregate metrics from a dispatched run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Slots simulated.
    pub slots: u64,
    /// Total quanta of processor time allocated.
    pub allocated_quanta: u64,
    /// Quanta in which a processor idled.
    pub idle_quanta: u64,
    /// Preemptions: task descheduled with its current job unfinished.
    pub preemptions: u64,
    /// Migrations: task resumed on a different processor.
    pub migrations: u64,
    /// Context switches: processor switched to a different task.
    pub context_switches: u64,
    /// Pfair window misses reported by the policy
    /// ([`Dispatch::window_misses`]; only PD² has windows).
    pub misses: u64,
}

/// Instruments for the `step` hot path. Mirrors the [`RunMetrics`]
/// accounting so exported snapshots can be cross-checked against the
/// engine's own totals; all probes are no-ops under the default disabled
/// recorder.
struct SimObs {
    steps: obs::Counter,
    dispatch_ns: obs::Timer,
    allocated_quanta: obs::Counter,
    idle_quanta: obs::Counter,
    preemptions: obs::Counter,
    migrations: obs::Counter,
    context_switches: obs::Counter,
    fault_wasted: obs::Counter,
    fault_dropped: obs::Counter,
    fault_dead: obs::Counter,
    fault_overruns: obs::Counter,
    fault_job_misses: obs::Counter,
}

impl SimObs {
    fn new(rec: &obs::Recorder) -> Self {
        SimObs {
            steps: rec.counter("sim.steps"),
            dispatch_ns: rec.timer("sim.dispatch_ns"),
            allocated_quanta: rec.counter("sim.allocated_quanta"),
            idle_quanta: rec.counter("sim.idle_quanta"),
            preemptions: rec.counter("sim.preemptions"),
            migrations: rec.counter("sim.migrations"),
            context_switches: rec.counter("sim.context_switches"),
            fault_wasted: rec.counter("sim.fault.wasted_quanta"),
            fault_dropped: rec.counter("sim.fault.dropped_quanta"),
            fault_dead: rec.counter("sim.fault.dead_proc_quanta"),
            fault_overruns: rec.counter("sim.fault.overruns"),
            fault_job_misses: rec.counter("sim.fault.job_misses"),
        }
    }
}

impl Default for SimObs {
    fn default() -> Self {
        Self::new(&obs::Recorder::disabled())
    }
}

/// Fixed-capacity bitset (64-bit words) reused across slots for the
/// dispatch hot path: the free-processor mask and the scheduled-task mask.
/// Replaces the per-slot `vec![false; n]` allocations.
#[derive(Debug, Default)]
struct BitMask {
    words: Vec<u64>,
}

impl BitMask {
    /// Clears the mask and sizes it for `n` bits.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Resets to exactly the bits `0..n` set (the all-live processor mask).
    fn fill_first(&mut self, n: usize) {
        self.reset(n);
        for w in self.words.iter_mut().take(n / 64) {
            *w = !0;
        }
        let rem = n % 64;
        if rem > 0 {
            self.words[n / 64] = (1u64 << rem) - 1;
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    fn is_set(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Index of the lowest set bit, if any (one `trailing_zeros` per word).
    #[inline]
    fn first_set(&self) -> Option<usize> {
        for (w_i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(w_i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// What [`MultiSim::set_fault_hook`] installs besides the ledger: the hook
/// and its per-slot scratch.
struct FaultLayer {
    hook: Box<dyn FaultHook>,
    /// Scratch: faults of the current slot.
    slot: SlotFaults,
}

/// The hook [`MultiSim::with_policy`] scores jobs under until a caller
/// installs one: it injects nothing.
pub(crate) struct NoFaults;

impl FaultHook for NoFaults {
    fn slot_faults(&mut self, _t: Slot, _m: u32, _out: &mut SlotFaults) {}
}

/// Per-task dispatch bookkeeping.
#[derive(Debug, Clone, Copy)]
struct DispatchState {
    /// Processor used in the previous slot, if scheduled there.
    prev_proc: Option<u32>,
    /// Processor used the last time the task ran (for migration counting).
    last_proc: Option<u32>,
    /// Quanta consumed within the current job (`allocations mod exec`).
    in_job: u64,
    /// Per-job execution cost (quanta).
    exec: u64,
    /// Period (quanta) — for synchronous job-release bookkeeping.
    period: u64,
    /// Jobs completed so far.
    completed_jobs: u64,
}

impl DispatchState {
    fn new(task: &Task, home: Option<u32>) -> Self {
        DispatchState {
            prev_proc: None,
            last_proc: home,
            in_job: 0,
            exec: task.exec,
            period: task.period,
            completed_jobs: 0,
        }
    }
}

/// Drives a [`Dispatch`] policy — by default a [`PfairScheduler`] — and
/// dispatches its decisions onto `M` processors (see module docs).
///
/// # Examples
///
/// ```
/// use pfair_core::sched::SchedConfig;
/// use pfair_model::TaskSet;
/// use sched_sim::MultiSim;
///
/// let tasks = TaskSet::from_pairs([(2u64, 3u64), (2, 3), (2, 3)]).unwrap();
/// let mut sim = MultiSim::new(&tasks, SchedConfig::pd2(2));
/// let metrics = sim.run(300);
/// assert_eq!(metrics.misses, 0);
/// assert_eq!(metrics.idle_quanta, 0); // full utilization
/// ```
pub struct MultiSim<P: Dispatch = PfairScheduler> {
    policy: P,
    dispatch: Vec<DispatchState>,
    /// Processor → task it ran in the previous slot.
    proc_owner: Vec<Option<TaskId>>,
    metrics: RunMetrics,
    obs: SimObs,
    /// Optional full schedule recording (slot → tasks), for verification.
    record: Option<Vec<Vec<TaskId>>>,
    /// Job response times (completion − synchronous release), in slots.
    /// Meaningful for synchronous periodic task sets without joins/leaves.
    responses: stats::Welford,
    /// Raw response samples, kept only when enabled (percentiles need the
    /// full distribution).
    response_samples: Option<stats::Samples>,
    now: Slot,
    /// Scratch buffers reused across slots.
    chosen: Vec<TaskId>,
    assignment: Vec<Option<TaskId>>,
    /// Scratch: chosen tasks not yet placed by the affinity pass.
    pending: Vec<TaskId>,
    /// Scratch: live processors still free during dispatch.
    free_procs: BitMask,
    /// Scratch: tasks scheduled this slot (bit per task id).
    sched_bits: BitMask,
    /// Processors not fail-stopped this slot: all of them unless a fault
    /// hook downs some.
    live: Vec<u32>,
    /// Tasks that held a processor in the previous slot — the only
    /// candidates for a preemption charge (replaces the all-task scan).
    prev_ran: Vec<TaskId>,
    /// Fault injection (None = the fault layer is entirely inert).
    faults: Option<Box<FaultLayer>>,
    /// Every task's job progress; kept (and non-empty) only while
    /// `faults` is set.
    ledger: JobLedger,
    /// Recorded fault/recovery events (None = [`Self::push_event`] drops
    /// them).
    events: Option<Vec<TraceEvent>>,
}

impl MultiSim {
    /// Creates an engine over a synchronous periodic task set.
    pub fn new(tasks: &TaskSet, cfg: pfair_core::SchedConfig) -> Self {
        Self::with_scheduler(tasks, PfairScheduler::new(tasks, cfg))
    }
}

impl<D: DelayModel> MultiSim<PfairScheduler<D>> {
    /// Wraps an existing scheduler (e.g. one with an IS delay model).
    pub fn with_scheduler(tasks: &TaskSet, sched: PfairScheduler<D>) -> Self {
        Self::build(tasks, sched.processors(), sched)
    }

    /// Routes dispatch instrumentation (step count, assignment wall time,
    /// and per-slot allocation/preemption/migration/context-switch deltas)
    /// to `rec`, and the underlying scheduler's tick instrumentation with
    /// it. The default recorder is disabled, making every probe a no-op.
    pub fn set_recorder(&mut self, rec: &obs::Recorder) -> &mut Self {
        self.obs = SimObs::new(rec);
        self.policy.set_recorder(rec);
        self
    }
}

impl<P: Dispatch> MultiSim<P> {
    /// Immutable access to the policy (for PD², the scheduler).
    pub fn scheduler(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy (for PD², joins/leaves between slots).
    pub fn scheduler_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Runs `policy` on `m` processors over a synchronous periodic task
    /// set, scoring every job from the first slot: the policy reads its
    /// jobs from the ledger, and [`Self::finalize_faults`] reports their
    /// misses. A hook installed with [`Self::set_fault_hook`] before the
    /// first slot replaces the inert one this installs.
    pub fn with_policy(tasks: &TaskSet, m: u32, policy: P) -> Self {
        let mut sim = Self::build(tasks, m, policy);
        sim.set_fault_hook(Box::new(NoFaults));
        sim
    }

    fn build(tasks: &TaskSet, m: u32, policy: P) -> Self {
        let dispatch = tasks
            .iter()
            .map(|(id, t)| DispatchState::new(t, policy.home(id)))
            .collect();
        let m = m as usize;
        MultiSim {
            policy,
            dispatch,
            proc_owner: vec![None; m],
            metrics: RunMetrics::default(),
            obs: SimObs::default(),
            record: None,
            responses: stats::Welford::new(),
            response_samples: None,
            now: 0,
            chosen: Vec::with_capacity(m),
            assignment: vec![None; m],
            pending: Vec::with_capacity(m),
            free_procs: BitMask::default(),
            sched_bits: BitMask::default(),
            live: (0..m as u32).collect(),
            prev_ran: Vec::with_capacity(m),
            faults: None,
            ledger: JobLedger::default(),
            events: None,
        }
    }

    /// Enables full schedule recording (needed by [`crate::verify`]).
    pub fn record_schedule(&mut self) -> &mut Self {
        if self.record.is_none() {
            self.record = Some(Vec::new());
        }
        self
    }

    /// The recorded schedule, if recording was enabled.
    pub fn schedule(&self) -> Option<&[Vec<TaskId>]> {
        self.record.as_deref()
    }

    /// Job response-time statistics (slots between a job's synchronous
    /// release and its completion). Valid for synchronous periodic sets.
    pub fn response_times(&self) -> stats::Welford {
        self.responses
    }

    /// Enables raw response-sample collection (for percentiles).
    pub fn record_responses(&mut self) -> &mut Self {
        if self.response_samples.is_none() {
            self.response_samples = Some(stats::Samples::new());
        }
        self
    }

    /// The collected response samples, if recording was enabled.
    pub fn response_samples(&mut self) -> Option<&mut stats::Samples> {
        self.response_samples.as_mut()
    }

    /// Metrics so far.
    pub fn metrics(&self) -> RunMetrics {
        let mut m = self.metrics;
        m.misses = self.policy.window_misses();
        m
    }

    /// Installs a fault hook and returns the [`JobLedger`] its faults are
    /// scored in (e.g. to point tasks at their true demand with
    /// [`JobLedger::set_demand`]). Call before the first [`Self::step`]:
    /// the application-level job bookkeeping starts at the current slot.
    pub fn set_fault_hook(&mut self, mut hook: Box<dyn FaultHook>) -> &mut JobLedger {
        self.ledger = JobLedger::default();
        for d in &self.dispatch {
            self.ledger.push(d.exec, d.period, self.now, hook.as_mut());
        }
        self.faults = Some(Box::new(FaultLayer {
            hook,
            slot: SlotFaults::default(),
        }));
        &mut self.ledger
    }

    /// Enables fault/recovery event recording: the engine records injected
    /// faults as they land, and recovery code records its actions via
    /// [`Self::push_event`]. Disabled by default (recording allocates).
    pub fn record_events(&mut self) -> &mut Self {
        self.events.get_or_insert_with(Vec::new);
        self
    }

    /// The events recorded so far, in the order they occurred. Slot-keyed
    /// events are non-decreasing in slot; job-keyed burst events may be
    /// pushed up front by the run harness.
    pub fn events(&self) -> &[TraceEvent] {
        self.events.as_deref().unwrap_or(&[])
    }

    /// Appends an event to the recording; a no-op unless
    /// [`Self::record_events`] was enabled.
    pub fn push_event(&mut self, ev: TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(ev);
        }
    }

    /// Registers dispatch (and, with a hook installed, application)
    /// bookkeeping for a task joined through
    /// [`scheduler_mut`](MultiSim::scheduler_mut) — the engine sizes its
    /// per-task state to the initial task set, so every successful
    /// `join()` must be paired with this call before the next `step()`.
    /// Job response-time statistics are not meaningful once tasks join
    /// dynamically (they assume synchronous releases from slot 0).
    pub fn register_task(&mut self, id: TaskId, task: Task) {
        assert_eq!(
            id.index(),
            self.dispatch.len(),
            "register_task must follow the scheduler's id assignment"
        );
        self.dispatch
            .push(DispatchState::new(&task, self.policy.home(id)));
        if let Some(f) = &mut self.faults {
            self.ledger
                .push(task.exec, task.period, self.now, f.hook.as_mut());
        }
    }

    /// Marks a task as retired (shed by recovery) at slot `t`; pair it
    /// with the task's `leave`. It stops accruing application lag, and
    /// only jobs due by `t` count against it in [`Self::finalize_faults`].
    /// A no-op without a fault hook.
    pub fn retire_task(&mut self, id: TaskId, t: Slot) {
        if self.faults.is_some() {
            self.ledger.retire(id, t);
        }
    }

    /// The policy's picks for the most recent slot, in descending
    /// priority order (before any fault-induced drops).
    pub fn last_chosen(&self) -> &[TaskId] {
        &self.chosen
    }

    /// Maximum application lag observed in the most recent slot (the
    /// overload signal for a lag watchdog). 0 without a hook.
    pub fn current_max_app_lag(&self) -> f64 {
        self.ledger.current_max_lag()
    }

    /// Closes out the job accounting at the end of a run: every job due
    /// by now (a deadline at the current slot included) that never
    /// completed becomes a miss, and [`FaultMetrics::jobs_due`] is filled
    /// in. Idempotent; returns the
    /// final metrics (all zero without a ledger).
    pub fn finalize_faults(&mut self) -> FaultMetrics {
        match &mut self.faults {
            Some(f) => self.ledger.finalize(self.now, f.hook.as_mut()),
            None => FaultMetrics::default(),
        }
    }

    /// Task `id`'s share of [`FaultMetrics::job_misses`]: its late
    /// completions and, after [`Self::finalize_faults`], its due jobs that
    /// never finished. 0 without a ledger.
    pub fn task_misses(&self, id: TaskId) -> u64 {
        if self.faults.is_some() {
            self.ledger.misses(id)
        } else {
            0
        }
    }

    /// Simulates one slot; returns the processor → task assignment.
    pub fn step(&mut self) -> &[Option<TaskId>] {
        let t = self.now;
        self.now += 1;
        let m = self.proc_owner.len();

        // Fault directives for this slot: fail-stopped processors leave
        // the free-processor set before dispatch sees it.
        self.free_procs.fill_first(m);
        if let Some(f) = &mut self.faults {
            f.slot.clear();
            f.hook.slot_faults(t, m as u32, &mut f.slot);
            for &p in &f.slot.down {
                if (p as usize) < m && self.free_procs.is_set(p as usize) {
                    self.free_procs.clear(p as usize);
                    self.ledger.metrics.dead_proc_quanta += 1;
                    self.obs.fault_dead.incr();
                    if let Some(events) = &mut self.events {
                        events.push(TraceEvent::ProcDown { slot: t, proc: p });
                    }
                }
            }
            self.live.clear();
            self.live
                .extend((0..m as u32).filter(|&p| self.free_procs.is_set(p as usize)));
        }
        let live = self.live.len();

        self.chosen.clear();
        self.policy
            .pick(t, &self.ledger, &self.live, &mut self.chosen);
        self.obs.steps.incr();

        // Fail-stopped processors can only honor the `live` highest-priority
        // picks; the tail of `chosen` (lowest priority) is dropped for this
        // slot. The recorded schedule keeps the policy's full decision.
        let dispatchable = self.chosen.len().min(live);
        let dropped = (self.chosen.len() - dispatchable) as u64;

        // Dispatch with affinity: tasks that ran in slot t−1 and are chosen
        // again keep their processor. The free-processor set is a bitset so
        // "first free live processor" is one trailing_zeros scan, and the
        // pending scratch is reused across slots (no per-slot allocation).
        let dispatch_span = self.obs.dispatch_ns.start();
        self.assignment.iter_mut().for_each(|a| *a = None);
        self.pending.clear();
        for &id in &self.chosen[..dispatchable] {
            match self.dispatch[id.index()].prev_proc {
                Some(p) if self.free_procs.is_set(p as usize) => {
                    self.assignment[p as usize] = Some(id);
                    self.free_procs.clear(p as usize);
                }
                _ => self.pending.push(id),
            }
        }
        // Remaining tasks take free processors, preferring their last-used
        // processor to avoid gratuitous migrations after gaps.
        for i in 0..self.pending.len() {
            let id = self.pending[i];
            let prefer = self.dispatch[id.index()].last_proc;
            let slot = match prefer {
                Some(p) if self.free_procs.is_set(p as usize) => p as usize,
                _ => self
                    .free_procs
                    .first_set()
                    .expect("dispatchable never exceeds live processors"),
            };
            self.free_procs.clear(slot);
            self.assignment[slot] = Some(id);
        }
        drop(dispatch_span);

        // Accounting. Per-event counters are tallied in locals and flushed
        // to the recorder in one batch at the end of the slot.
        let mut migrations = 0u64;
        let mut switches = 0u64;
        self.sched_bits.reset(self.dispatch.len());
        for (proc, slot) in self.assignment.iter().enumerate() {
            let Some(id) = slot else { continue };
            self.sched_bits.set(id.index());
            let st = &mut self.dispatch[id.index()];
            if let Some(last) = st.last_proc {
                if last != proc as u32 {
                    migrations += 1;
                }
            }
            if self.proc_owner[proc] != Some(*id) {
                switches += 1;
            }
            st.last_proc = Some(proc as u32);
            st.in_job += 1;
            if st.in_job == st.exec {
                st.in_job = 0; // job boundary
                let release = st.completed_jobs * st.period;
                st.completed_jobs += 1;
                let resp = (t + 1).saturating_sub(release) as f64;
                self.responses.push(resp);
                if let Some(samples) = &mut self.response_samples {
                    samples.push(resp);
                }
            }
        }
        // A fail-stopped processor's quantum is lost, not idle; it was
        // counted under dead_proc_quanta above.
        let allocated = dispatchable as u64;
        let idle = (live - dispatchable) as u64;
        // Preemptions: ran in t−1, not running now, job unfinished. Only
        // the tasks that actually held a processor in t−1 are candidates,
        // so the scan is O(M), not O(tasks).
        let mut preemptions = 0u64;
        for i in 0..self.prev_ran.len() {
            let idx = self.prev_ran[i].index();
            let st = &mut self.dispatch[idx];
            if !self.sched_bits.is_set(idx) && st.in_job != 0 {
                preemptions += 1;
            }
            st.prev_proc = None;
        }
        self.prev_ran.clear();
        for (proc, slot) in self.assignment.iter().enumerate() {
            if let Some(id) = slot {
                self.dispatch[id.index()].prev_proc = Some(proc as u32);
                self.prev_ran.push(*id);
            }
            self.proc_owner[proc] = *slot;
        }
        self.metrics.allocated_quanta += allocated;
        self.metrics.idle_quanta += idle;
        self.metrics.migrations += migrations;
        self.metrics.context_switches += switches;
        self.metrics.preemptions += preemptions;
        if allocated > 0 {
            self.obs.allocated_quanta.add(allocated);
        }
        if idle > 0 {
            self.obs.idle_quanta.add(idle);
        }
        if migrations > 0 {
            self.obs.migrations.add(migrations);
        }
        if switches > 0 {
            self.obs.context_switches.add(switches);
        }
        if preemptions > 0 {
            self.obs.preemptions.add(preemptions);
        }

        // Fault layer: map dispatched quanta to useful application work.
        if let Some(f) = &mut self.faults {
            let before = self.ledger.metrics;
            self.ledger.metrics.dropped_quanta += dropped;
            self.obs.fault_dropped.add(dropped);
            for (proc, slot) in self.assignment.iter().enumerate() {
                let Some(id) = slot else { continue };
                let ev = if f.slot.wasted.contains(&(proc as u32)) {
                    self.ledger.metrics.wasted_quanta += 1;
                    self.obs.fault_wasted.incr();
                    Some(TraceEvent::QuantumLoss {
                        slot: t,
                        proc: proc as u32,
                        task: id.0,
                    })
                } else {
                    self.ledger.useful_quantum(*id, t, f.hook.as_mut())
                };
                if let (Some(events), Some(ev)) = (&mut self.events, ev) {
                    events.push(ev);
                }
            }
            self.ledger.close_slot(t);
            let after = self.ledger.metrics;
            self.obs
                .fault_overruns
                .add(after.overruns - before.overruns);
            self.obs
                .fault_job_misses
                .add(after.job_misses - before.job_misses);
        }

        self.metrics.slots += 1;
        debug_assert!(self.assignment.iter().flatten().count() == dispatchable);
        debug_assert!(self.chosen.len() <= m);

        if let Some(rec) = &mut self.record {
            rec.push(self.chosen.clone());
        }
        &self.assignment
    }

    /// Runs `horizon` slots and returns the metrics.
    pub fn run(&mut self, horizon: Slot) -> RunMetrics {
        while self.now < horizon {
            self.step();
        }
        self.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::lag::check_pfair;
    use pfair_core::sched::SchedConfig;
    use pfair_core::Policy;
    use proptest::prelude::*;

    fn ts(pairs: &[(u64, u64)]) -> TaskSet {
        TaskSet::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn full_utilization_run_is_valid_pfair() {
        let set = ts(&[(2, 3), (2, 3), (2, 3)]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
        sim.record_schedule();
        let m = sim.run(60);
        assert_eq!(m.misses, 0);
        assert_eq!(m.idle_quanta, 0);
        assert_eq!(m.allocated_quanta, 120);
        let schedule = sim.schedule().unwrap();
        assert_eq!(check_pfair(&set, schedule, 2), Ok(()));
    }

    #[test]
    fn consecutive_quanta_keep_processor() {
        // A single weight-1 task must stay on one processor forever: zero
        // migrations, one initial context switch.
        let set = ts(&[(1, 1)]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
        let m = sim.run(100);
        assert_eq!(m.migrations, 0);
        assert_eq!(m.context_switches, 1);
        assert_eq!(m.preemptions, 0);
    }

    /// The paper's per-job preemption bound: a job spanning E quanta of a
    /// task with period P suffers at most min(E−1, P−E) preemptions.
    #[test]
    fn per_job_preemption_bound() {
        // Task (5, 6): only one idle slot per period ⇒ ≤ 1 preemption/job.
        let set = ts(&[(5, 6), (2, 3), (1, 3), (1, 6), (1, 6), (1, 2), (1, 2)]);
        // Σ = 5/6+2/3+1/3+1/6+1/6+1/2+1/2 = 19/6 ≈ 3.17 → M = 4.
        let m_procs = set.min_processors();
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(m_procs));
        let horizon = 20 * set.hyperperiod();
        let metrics = sim.run(horizon);
        assert_eq!(metrics.misses, 0);
        // Aggregate check across all tasks: preemptions ≤ Σ_jobs min(E−1, P−E).
        let mut bound = 0u64;
        for (_, t) in set.iter() {
            let jobs = horizon / t.period;
            bound += jobs * (t.exec - 1).min(t.period - t.exec);
        }
        assert!(
            metrics.preemptions <= bound,
            "preemptions {} > bound {bound}",
            metrics.preemptions
        );
    }

    #[test]
    fn migrations_only_happen_between_processors() {
        // On one processor nothing can migrate.
        let set = ts(&[(1, 2), (1, 4), (1, 8)]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(1));
        let m = sim.run(200);
        assert_eq!(m.migrations, 0);
        assert_eq!(m.misses, 0);
    }

    #[test]
    fn metrics_accounting_is_consistent() {
        let set = ts(&[(8, 11), (1, 3), (2, 5), (5, 7)]);
        let m_procs = set.min_processors();
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(m_procs));
        let horizon = 2 * set.hyperperiod();
        let m = sim.run(horizon);
        assert_eq!(m.slots, horizon);
        assert_eq!(m.allocated_quanta + m.idle_quanta, horizon * m_procs as u64);
        // Context switches ≥ migrations (every migration lands on a
        // processor that was running something else or idle).
        assert!(m.context_switches >= m.migrations);
        assert_eq!(m.misses, 0);
    }

    #[test]
    fn epdf_vs_pd2_metrics_differ_only_in_dispatch() {
        let set = ts(&[(1, 2), (1, 3), (1, 5), (2, 7)]);
        for pol in Policy::ALL {
            let mut sim = MultiSim::new(&set, SchedConfig::pd2(2).with_policy(pol));
            let m = sim.run(2 * set.hyperperiod());
            assert_eq!(m.misses, 0, "{}", pol.name());
            // Work conservation of allocation volume: every policy grants
            // each task its exact proportional share over the hyperperiod.
            assert_eq!(
                m.allocated_quanta,
                2 * set
                    .iter()
                    .map(|(_, t)| set.hyperperiod() / t.period * t.exec)
                    .sum::<u64>()
            );
        }
    }

    #[test]
    fn recorded_schedule_matches_metrics() {
        let set = ts(&[(2, 3), (1, 2)]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
        sim.record_schedule();
        let m = sim.run(12);
        let sched = sim.schedule().unwrap();
        let total: usize = sched.iter().map(Vec::len).sum();
        assert_eq!(total as u64, m.allocated_quanta);
    }

    /// Scripted hook for the fault-layer tests.
    #[derive(Default)]
    struct ScriptHook {
        /// slot → processors down.
        down: std::collections::HashMap<Slot, Vec<u32>>,
        /// slot → processors wasted.
        wasted: std::collections::HashMap<Slot, Vec<u32>>,
        /// (task, job) → extra quanta.
        overruns: std::collections::HashMap<(TaskId, u64), u64>,
    }

    impl FaultHook for ScriptHook {
        fn slot_faults(&mut self, t: Slot, _m: u32, out: &mut SlotFaults) {
            if let Some(d) = self.down.get(&t) {
                out.down.extend_from_slice(d);
            }
            if let Some(w) = self.wasted.get(&t) {
                out.wasted.extend_from_slice(w);
            }
        }
        fn overrun(&mut self, task: TaskId, job: u64) -> u64 {
            self.overruns.get(&(task, job)).copied().unwrap_or(0)
        }
    }

    /// A hook that injects nothing leaves the run byte-identical to a
    /// hook-free run (the acceptance criterion; the exhaustive property
    /// test lives in the `faults` crate).
    #[test]
    fn inert_hook_changes_nothing() {
        let set = ts(&[(8, 11), (1, 3), (2, 5), (5, 7)]);
        let m = set.min_processors();
        let horizon = 2 * set.hyperperiod();

        let mut plain = MultiSim::new(&set, SchedConfig::pd2(m));
        plain.record_schedule();
        let pm = plain.run(horizon);

        let mut hooked = MultiSim::new(&set, SchedConfig::pd2(m));
        hooked.record_schedule();
        hooked.set_fault_hook(Box::new(ScriptHook::default()));
        let hm = hooked.run(horizon);

        assert_eq!(pm, hm);
        assert_eq!(plain.schedule().unwrap(), hooked.schedule().unwrap());
        let fm = hooked.finalize_faults();
        assert_eq!(
            fm.wasted_quanta + fm.dropped_quanta + fm.dead_proc_quanta,
            0
        );
        // Fault-free application lag respects the Pfair bound.
        assert!(fm.max_app_lag < 1.0 + 1e-9, "lag {}", fm.max_app_lag);
    }

    /// A wasted quantum produces no useful work: job completion slips and
    /// the job is eventually counted late.
    #[test]
    fn wasted_quantum_delays_job_completion() {
        // One weight-1 task alone on one processor: every slot is its.
        let set = ts(&[(1, 1)]);
        let mut hook = ScriptHook::default();
        hook.wasted.insert(0, vec![0]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(1));
        sim.set_fault_hook(Box::new(hook));
        sim.run(10);
        let fm = sim.finalize_faults();
        assert_eq!(fm.wasted_quanta, 1);
        // 10 slots, 1 wasted → 9 jobs done, 10 due, every completion late
        // by one slot after the fault.
        assert_eq!(fm.jobs_completed, 9);
        assert_eq!(fm.jobs_due, 10);
        assert_eq!(fm.job_misses, 10);
        assert_eq!(fm.max_tardiness, 1);
        // RunMetrics stay the scheduler's view: all 10 quanta allocated.
        assert_eq!(sim.metrics().allocated_quanta, 10);
    }

    /// Fail-stop: the dead processor's quantum is lost and the
    /// lowest-priority pick is dropped; the scheduler's view is unchanged.
    #[test]
    fn fail_stop_drops_lowest_priority_pick() {
        let set = ts(&[(2, 3), (2, 3), (2, 3)]);
        let mut hook = ScriptHook::default();
        hook.down.insert(4, vec![1]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
        sim.record_schedule();
        sim.set_fault_hook(Box::new(hook));
        sim.run(30);
        let fin = sim.finalize_faults();
        assert_eq!(fin.dead_proc_quanta, 1);
        assert_eq!(fin.dropped_quanta, 1);
        // The recorded schedule still shows both picks in slot 4 (full
        // utilization: two tasks per slot).
        assert_eq!(sim.schedule().unwrap()[4].len(), 2);
        // One task is now one useful quantum behind for good: plain Pfair
        // gives it no spare slots, so its app lag reaches the lost quantum
        // (sched lag + 1) and every later job of the victim completes late.
        assert!(fin.max_app_lag >= 1.0 - 1e-9, "lag {}", fin.max_app_lag);
        assert!(fin.job_misses > 0);
    }

    /// An overrunning job demands extra useful quanta before completing.
    #[test]
    fn overrun_extends_job_demand() {
        let set = ts(&[(2, 4)]);
        let mut hook = ScriptHook::default();
        hook.overruns.insert((TaskId(0), 0), 2);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(1));
        sim.scheduler_mut()
            .set_early_release(pfair_core::EarlyRelease::Unrestricted);
        sim.set_fault_hook(Box::new(hook));
        sim.run(40);
        let fm = sim.finalize_faults();
        assert_eq!(fm.overruns, 1);
        assert_eq!(fm.overrun_quanta, 2);
        // With unrestricted ER the task runs every slot, so job 0's four
        // quanta (2 + 2 overrun) finish at t+1 = 4 — exactly its deadline.
        // Later jobs arrive on their period and complete on time; the
        // arrival gate keeps the engine from running jobs early, so
        // exactly the 10 due jobs complete.
        assert_eq!(fm.job_misses, 0);
        assert_eq!(fm.jobs_due, 10);
        assert_eq!(fm.jobs_completed, 10);
    }

    /// Dynamic registration: a task joined mid-run is dispatched and
    /// tracked; retirement stops its due-job clock.
    #[test]
    fn register_and_retire_round_trip() {
        let set = ts(&[(1, 2)]);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(1));
        sim.set_fault_hook(Box::new(ScriptHook::default()));
        for _ in 0..4 {
            sim.step();
        }
        let task = pfair_model::Task::new(1, 4).unwrap();
        let id = sim.scheduler_mut().join(task, 4).unwrap();
        sim.register_task(id, task);
        for _ in 4..12 {
            sim.step();
        }
        sim.scheduler_mut().leave(id, 12).unwrap();
        sim.retire_task(id, 12);
        for _ in 12..20 {
            sim.step();
        }
        let fm = sim.finalize_faults();
        // Joiner was live for slots 4..12: exactly 2 jobs due, both done.
        assert_eq!(fm.jobs_due, 10 + 2);
        assert_eq!(fm.job_misses, 0);
    }

    /// Steps `sim` through `horizon` slots and returns the first task that
    /// ran in two consecutive slots on different processors.
    fn moved_while_running<P: Dispatch>(
        sim: &mut MultiSim<P>,
        horizon: Slot,
    ) -> Option<(Slot, TaskId)> {
        let mut prev: Vec<Option<TaskId>> = Vec::new();
        for t in 0..horizon {
            let now = sim.step().to_vec();
            for (p, &id) in now.iter().enumerate() {
                if let Some(id) = id {
                    if prev
                        .iter()
                        .position(|&q| q == Some(id))
                        .is_some_and(|q| q != p)
                    {
                        return Some((t, id));
                    }
                }
            }
            prev = now;
        }
        None
    }

    proptest! {
        /// One affinity rule for every policy in this crate: a task
        /// scheduled in slots t−1 and t runs on one processor in both. The
        /// `faults` crate checks its partitioned policy the same way.
        #[test]
        fn prop_consecutive_quanta_keep_their_processor(
            raw in prop::collection::vec((1u64..6, 2u64..10), 1..=5),
            m in 1u32..=3,
            round in 1u64..8,
        ) {
            let set = TaskSet::from_pairs(raw.into_iter().map(|(e, p)| (e.min(p), p))).unwrap();
            if set.feasible_on(m) {
                let mut pd2 = MultiSim::new(&set, SchedConfig::pd2(m));
                prop_assert_eq!(moved_while_running(&mut pd2, 60), None);
            }
            let mut gedf = MultiSim::with_policy(&set, m, crate::GlobalEdf);
            prop_assert_eq!(moved_while_running(&mut gedf, 60), None);
            let mut cbs = MultiSim::with_policy(&set, m, crate::Cbs::new(&set, TaskId(0)));
            cbs.set_fault_hook(Box::new(NoFaults)).set_demand(TaskId(0), 2 * set[TaskId(0)].exec);
            prop_assert_eq!(moved_while_running(&mut cbs, 60), None);
            let mut wrr = MultiSim::with_policy(&set, m, crate::wrr::Wrr::new(&set, round));
            prop_assert_eq!(moved_while_running(&mut wrr, 60), None);
        }
    }
}
