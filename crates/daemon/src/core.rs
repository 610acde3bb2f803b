//! The admission core: a live [`MultiSim`] + PD² scheduler plus the
//! batch-per-quantum admission test.
//!
//! Requests arriving within one quantum are decided *together* against a
//! single schedulability evaluation: the batch is put into a canonical
//! order (leaves, then reweights, then joins, each sub-ordered by task
//! parameters *ascending* — target id for leaves/reweights, then
//! `(period, cost)` for joins — with the nonce as tie-break and the
//! intake index as a final server-assigned tie-break so sort keys are
//! always distinct), and one pass over that order charges a single
//! running [`WeightSum`] copied from the live scheduler. The outcome is
//! therefore a pure function of the *multiset* of requests in the batch —
//! arrival interleaving cannot change who gets admitted, and two
//! byte-identical requests are interchangeable (see
//! `batch_order_is_deterministic`).
//!
//! The evaluation pass ([`AdmissionCore::evaluate`]) is allocation-free:
//! every buffer it touches (pending batch, canonical order, verdicts, the
//! departed-this-batch scratch) is sized once at startup, and the
//! per-request work is pure arithmetic — `inflate_pd2` fixed-point
//! iteration and rational weight sums. [`alloc_probe`](crate::alloc_probe)
//! brackets the pass so a counting allocator in the test suite can assert
//! the zero-allocation property end-to-end under soak traffic.
//!
//! Departures stay conservative: a leave frees its weight at the §5.2
//! safe point (`free_at`), not at the decision slot, so joins in the same
//! batch are charged against the *pre-leave* sum. A join that only fits
//! after the safe point is rejected now and can simply retry.

use crate::alloc_probe;
use crate::proto::{Reply, Request, Status, DEFAULT_SET};
use overhead::{inflate_pd2, InflateError, OverheadParams};
use pfair_core::SchedConfig;
use pfair_model::{PhysTask, Slot, Task, TaskId, TaskSet, Weight};
use sched_sim::{MultiSim, ScheduleTrace, TraceEvent};
use std::collections::BTreeMap;

/// Static configuration of one admission core.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Processor count `M`.
    pub processors: u32,
    /// Overhead model used by the admission test (Equation (3)).
    pub params: OverheadParams,
    /// Maximum requests decided in one batch; arrivals beyond this within
    /// a single quantum are refused with a retryable error. Also sizes
    /// every fast-path scratch buffer.
    pub max_batch: usize,
    /// Record the full schedule + event stream for trace capture. Costs
    /// memory per slot; soak runs that only need verification keep it on,
    /// long-lived daemons may turn it off.
    pub record_trace: bool,
}

impl CoreConfig {
    /// `M` processors, paper overhead model, 1024-request batches,
    /// trace recording on.
    pub fn new(processors: u32) -> Self {
        CoreConfig {
            processors,
            params: OverheadParams::paper2003(),
            max_batch: 1024,
            record_trace: true,
        }
    }
}

/// Why a request was refused, as a copyable code (no strings on the fast
/// path; [`reject_reason`] maps codes to text at reply time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RejectCode {
    /// Σwt would exceed `M` (Equation (2) over inflated weights).
    Overload,
    /// The task alone cannot meet its deadline once inflated.
    TaskOverload,
    /// `period_us` is not a multiple of the quantum.
    PeriodNotQuantumMultiple,
    /// The inflation fixed point failed to settle.
    NoConvergence,
    /// `task` does not name an active task.
    NoSuchTask,
    /// Required fields missing, or zero, for this op.
    Malformed,
}

/// Human-readable reason for a [`RejectCode`].
fn reject_reason(code: RejectCode) -> &'static str {
    match code {
        RejectCode::Overload => "admission test failed: total weight would exceed M",
        RejectCode::TaskOverload => "task infeasible: inflated cost exceeds its period",
        RejectCode::PeriodNotQuantumMultiple => "period is not a multiple of the quantum",
        RejectCode::NoConvergence => "overhead inflation did not converge",
        RejectCode::NoSuchTask => "no such active task",
        RejectCode::Malformed => "missing or zero required fields for this op",
    }
}

/// The evaluation pass's verdict on one request. Copy-only — strings and
/// scheduler mutations happen in [`AdmissionCore::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Join admitted with the inflated parameters.
    AdmitJoin {
        quanta: u64,
        period_quanta: u64,
        weight_num: u64,
        weight_den: u64,
    },
    /// Reweight admitted (task `old` leaves, new parameters join).
    AdmitReweight {
        old: u32,
        quanta: u64,
        period_quanta: u64,
        weight_num: u64,
        weight_den: u64,
    },
    /// Leave of task `task` accepted.
    Leave { task: u32 },
    /// Refused.
    Reject(RejectCode),
}

/// A live scheduler behind the admission test.
pub struct AdmissionCore {
    sim: MultiSim,
    /// The *initial* task set (always empty — every task arrives by
    /// join, recorded as a `Rejoin` event, which is exactly the shape the
    /// event-aware window checker verifies).
    initial: TaskSet,
    cfg: CoreConfig,
    slot: Slot,
    // ---- fast-path scratch, sized once at startup ----
    /// Requests accepted into the current batch.
    pending: Vec<Request>,
    /// Canonical decision order (indices into `pending`).
    order: Vec<u32>,
    /// Verdict per pending request (same indexing as `pending`).
    verdicts: Vec<Verdict>,
    /// Task ids departing in this batch (leave or reweight), to refuse
    /// duplicate departures deterministically.
    departing: Vec<u32>,
    /// Currently active tasks (scheduler `task_count` counts id slots).
    active: u64,
    admitted: u64,
    rejected: u64,
    left: u64,
    reweighted: u64,
}

impl AdmissionCore {
    /// Builds an empty core: no tasks, slot 0.
    pub fn new(cfg: CoreConfig) -> Self {
        let initial = TaskSet::new();
        let mut sim = MultiSim::new(&initial, SchedConfig::pd2(cfg.processors));
        if cfg.record_trace {
            sim.record_schedule();
            sim.record_events();
        }
        AdmissionCore {
            sim,
            initial,
            slot: 0,
            pending: Vec::with_capacity(cfg.max_batch),
            order: Vec::with_capacity(cfg.max_batch),
            verdicts: Vec::with_capacity(cfg.max_batch),
            departing: Vec::with_capacity(cfg.max_batch),
            active: 0,
            admitted: 0,
            rejected: 0,
            left: 0,
            reweighted: 0,
            cfg,
        }
    }

    /// Attaches a recorder to the underlying simulator (slot metrics).
    pub fn set_recorder(&mut self, rec: &obs::Recorder) {
        self.sim.set_recorder(rec);
    }

    /// The next slot to be scheduled (= the slot the current batch's
    /// decisions take effect at).
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// Number of active tasks.
    pub fn task_count(&self) -> usize {
        self.active as usize
    }

    /// Total admitted weight in parts-per-million of one processor.
    pub fn weight_ppm(&self) -> u64 {
        (self.sim.scheduler().total_weight().to_f64() * 1e6).round() as u64
    }

    /// Lifetime admission counters: (admitted, rejected, left, reweighted).
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (self.admitted, self.rejected, self.left, self.reweighted)
    }

    /// Queues a request into the current batch. `false` means the batch
    /// is full — the caller should refuse the request as retryable.
    pub fn push_request(&mut self, req: Request) -> bool {
        if self.pending.len() == self.cfg.max_batch {
            return false;
        }
        self.pending.push(req);
        true
    }

    /// Requests queued in the current batch.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Decides the queued batch, applies it to the scheduler at the
    /// current slot, advances the simulation by one quantum, and appends
    /// one reply per request to `replies` (in canonical decision order).
    /// Returns the slot the batch was decided at.
    pub fn decide_batch(&mut self, replies: &mut Vec<Reply>) -> Slot {
        self.evaluate();
        let at = self.apply(replies);
        self.step();
        at
    }

    /// Advances the simulation one quantum with no pending decisions
    /// (real-time pacing ticks even when no requests arrived).
    pub fn step(&mut self) -> &[Option<TaskId>] {
        self.slot += 1;
        self.sim.step()
    }

    /// Task ids dispatched in the most recent slot (processor order).
    pub fn last_chosen(&self) -> &[TaskId] {
        self.sim.last_chosen()
    }

    /// Intake-order index of each reply appended by the last
    /// [`decide_batch`](Self::decide_batch): `replies[k]` answered the
    /// `decided_order()[k]`-th request accepted into that batch via
    /// [`push_request`](Self::push_request). The transport routes replies
    /// back to connections through this mapping — nonces are
    /// client-chosen and may collide across clients, so they cannot
    /// identify a connection.
    pub(crate) fn decided_order(&self) -> &[u32] {
        &self.order
    }

    /// The canonical sort key of a request: leaves before reweights
    /// before joins, then by target/parameters ascending, then by nonce.
    /// Nonces are client-chosen, so two clients can submit byte-identical
    /// requests with colliding nonces; [`evaluate`](Self::evaluate)
    /// appends the intake index as a final tie-break, making the full
    /// sort key unique and the order total.
    fn canon_key(req: &Request) -> (u8, u64, u64, u64) {
        match req.op {
            crate::proto::Op::Leave => (0, u64::from(req.task.unwrap_or(u32::MAX)), 0, req.nonce),
            crate::proto::Op::Reweight => (
                1,
                u64::from(req.task.unwrap_or(u32::MAX)),
                req.period_us.unwrap_or(u64::MAX),
                req.nonce,
            ),
            _ => (
                2,
                req.period_us.unwrap_or(u64::MAX),
                req.wcet_us.unwrap_or(u64::MAX),
                req.nonce,
            ),
        }
    }

    /// The allocation-free evaluation pass: canonical ordering plus one
    /// schedulability sweep charging a single running weight sum.
    fn evaluate(&mut self) {
        let _guard = alloc_probe::FastPathGuard::enter();
        let m = self.cfg.processors;
        let n = self.sim.scheduler().task_count();

        self.order.clear();
        self.verdicts.clear();
        self.departing.clear();
        for i in 0..self.pending.len() {
            self.order.push(i as u32);
            self.verdicts.push(Verdict::Reject(RejectCode::Malformed));
        }
        let pending = &self.pending;
        // The intake index makes every key distinct: byte-identical
        // requests from different clients decide in arrival order, which
        // is immaterial (they are interchangeable) but keeps the sort
        // total and the reply-to-slot mapping exact.
        self.order
            .sort_unstable_by_key(|&i| (Self::canon_key(&pending[i as usize]), i));

        // One evaluation for the whole batch: the running sum starts from
        // the live scheduler total and is only ever *charged* (leaves
        // stay charged until their safe point — see module docs).
        let mut sum = self.sim.scheduler().total_weight();
        for k in 0..self.order.len() {
            let idx = self.order[k] as usize;
            let req = &self.pending[idx];
            let verdict = match req.op {
                crate::proto::Op::Leave => match req.task {
                    None => Verdict::Reject(RejectCode::Malformed),
                    Some(t) => {
                        if !self.sim.scheduler().is_active(TaskId(t)) || self.departing.contains(&t)
                        {
                            Verdict::Reject(RejectCode::NoSuchTask)
                        } else {
                            self.departing.push(t);
                            Verdict::Leave { task: t }
                        }
                    }
                },
                crate::proto::Op::Reweight => match (req.task, req.wcet_us, req.period_us) {
                    (Some(t), Some(wcet), Some(period)) => {
                        if !self.sim.scheduler().is_active(TaskId(t)) || self.departing.contains(&t)
                        {
                            Verdict::Reject(RejectCode::NoSuchTask)
                        } else {
                            match Self::admit_one(&self.cfg, m, n, &mut sum, wcet, period) {
                                Ok((quanta, period_quanta, num, den)) => {
                                    self.departing.push(t);
                                    Verdict::AdmitReweight {
                                        old: t,
                                        quanta,
                                        period_quanta,
                                        weight_num: num,
                                        weight_den: den,
                                    }
                                }
                                Err(code) => Verdict::Reject(code),
                            }
                        }
                    }
                    _ => Verdict::Reject(RejectCode::Malformed),
                },
                _ => match (req.wcet_us, req.period_us) {
                    (Some(wcet), Some(period)) => {
                        match Self::admit_one(&self.cfg, m, n, &mut sum, wcet, period) {
                            Ok((quanta, period_quanta, num, den)) => Verdict::AdmitJoin {
                                quanta,
                                period_quanta,
                                weight_num: num,
                                weight_den: den,
                            },
                            Err(code) => Verdict::Reject(code),
                        }
                    }
                    _ => Verdict::Reject(RejectCode::Malformed),
                },
            };
            self.verdicts[idx] = verdict;
        }
    }

    /// Inflates one candidate and charges it against the running sum.
    /// Pure arithmetic — no allocation. A zero `wcet_us` or `period_us` is
    /// refused as malformed here, before `PhysTask::new` would panic on it:
    /// this is the only path for both `Join` and `Reweight`.
    fn admit_one(
        cfg: &CoreConfig,
        m: u32,
        n: usize,
        sum: &mut pfair_model::WeightSum,
        wcet_us: u64,
        period_us: u64,
    ) -> Result<(u64, u64, u64, u64), RejectCode> {
        if wcet_us == 0 || period_us == 0 {
            return Err(RejectCode::Malformed);
        }
        let inflated = inflate_pd2(PhysTask::new(wcet_us, period_us), &cfg.params, m, n, 0.0)
            .map_err(|e| match e {
                InflateError::Overload { .. } => RejectCode::TaskOverload,
                InflateError::PeriodNotQuantumMultiple => RejectCode::PeriodNotQuantumMultiple,
                InflateError::NoConvergence => RejectCode::NoConvergence,
            })?;
        let w = Weight::new(inflated.quanta, inflated.period_quanta)
            .map_err(|_| RejectCode::TaskOverload)?;
        let mut charged = *sum;
        charged.add(w);
        if !charged.at_most(m) {
            return Err(RejectCode::Overload);
        }
        *sum = charged;
        Ok((
            inflated.quanta,
            inflated.period_quanta,
            inflated.weight.numer() as u64,
            inflated.weight.denom() as u64,
        ))
    }

    /// Applies the evaluated batch to the scheduler at the current slot
    /// and builds replies (canonical order). Clears the batch.
    fn apply(&mut self, replies: &mut Vec<Reply>) -> Slot {
        let now = self.slot;
        for k in 0..self.order.len() {
            let idx = self.order[k] as usize;
            let nonce = self.pending[idx].nonce;
            let reply = match self.verdicts[idx] {
                Verdict::Leave { task } => {
                    match self.sim.scheduler_mut().leave(TaskId(task), now) {
                        Ok(free_at) => {
                            self.sim.push_event(TraceEvent::Shed { slot: now, task });
                            self.left += 1;
                            self.active -= 1;
                            let mut r = Reply::new(nonce, Status::Left, now);
                            r.task = Some(task);
                            r.free_at = Some(free_at);
                            r
                        }
                        Err(e) => {
                            let mut r = Reply::new(nonce, Status::Error, now);
                            r.error = Some(format!("leave failed: {e}"));
                            r
                        }
                    }
                }
                Verdict::AdmitJoin {
                    quanta,
                    period_quanta,
                    weight_num,
                    weight_den,
                } => match self.join_inflated(quanta, period_quanta, now) {
                    Ok(id) => {
                        self.admitted += 1;
                        self.active += 1;
                        let mut r = Reply::new(nonce, Status::Admitted, now);
                        r.task = Some(id.0);
                        r.quanta = Some(quanta);
                        r.period_quanta = Some(period_quanta);
                        r.weight_num = Some(weight_num);
                        r.weight_den = Some(weight_den);
                        r.first_release = Some(now);
                        r
                    }
                    Err(msg) => {
                        let mut r = Reply::new(nonce, Status::Error, now);
                        r.error = Some(msg);
                        r
                    }
                },
                Verdict::AdmitReweight {
                    old,
                    quanta,
                    period_quanta,
                    weight_num,
                    weight_den,
                } => {
                    // The evaluation pass pre-checked the new weight
                    // against the *uncredited* sum, so this leave+join
                    // cannot overload; a rejected reweight never touches
                    // the old task.
                    match self.sim.scheduler_mut().leave(TaskId(old), now) {
                        Ok(_) => {
                            self.sim.push_event(TraceEvent::Shed {
                                slot: now,
                                task: old,
                            });
                            match self.join_inflated(quanta, period_quanta, now) {
                                Ok(id) => {
                                    self.reweighted += 1;
                                    let mut r = Reply::new(nonce, Status::Admitted, now);
                                    r.task = Some(id.0);
                                    r.quanta = Some(quanta);
                                    r.period_quanta = Some(period_quanta);
                                    r.weight_num = Some(weight_num);
                                    r.weight_den = Some(weight_den);
                                    r.first_release = Some(now);
                                    r
                                }
                                Err(msg) => {
                                    // The old task really departed even
                                    // though the rejoin failed — keep the
                                    // counters consistent with scheduler
                                    // state.
                                    self.left += 1;
                                    self.active -= 1;
                                    let mut r = Reply::new(nonce, Status::Error, now);
                                    r.error = Some(format!(
                                        "reweight: old task {old} left but rejoin failed: {msg}"
                                    ));
                                    r
                                }
                            }
                        }
                        Err(e) => {
                            let mut r = Reply::new(nonce, Status::Error, now);
                            r.error = Some(format!("reweight: leave failed: {e}"));
                            r
                        }
                    }
                }
                Verdict::Reject(code) => {
                    let status = match code {
                        RejectCode::NoSuchTask | RejectCode::Malformed => Status::Error,
                        _ => Status::Rejected,
                    };
                    if status == Status::Rejected {
                        self.rejected += 1;
                    }
                    let mut r = Reply::new(nonce, status, now);
                    r.error = Some(reject_reason(code).to_string());
                    r
                }
            };
            replies.push(reply);
        }
        self.pending.clear();
        now
    }

    /// Joins the already-inflated task at `now`, registering it with the
    /// dispatcher and recording the §5.2 join as a `Rejoin` event.
    fn join_inflated(
        &mut self,
        quanta: u64,
        period_quanta: u64,
        now: Slot,
    ) -> Result<TaskId, String> {
        let task =
            Task::new(quanta, period_quanta).map_err(|e| format!("inflated task invalid: {e}"))?;
        let id = self
            .sim
            .scheduler_mut()
            .join(task, now)
            .map_err(|e| format!("scheduler refused pre-admitted join: {e}"))?;
        self.sim.register_task(id, task);
        self.sim.push_event(TraceEvent::Rejoin {
            slot: now,
            task: id.0,
            exec: quanta,
            period: period_quanta,
        });
        Ok(id)
    }

    /// Captures the run as a [`ScheduleTrace`]: empty initial task set,
    /// every admission a `Rejoin` event, every departure a `Shed` —
    /// exactly the shape `ScheduleTrace::verify` window-checks offline.
    /// `None` if `record_trace` was off.
    pub fn trace(&self) -> Option<ScheduleTrace> {
        ScheduleTrace::capture(&self.initial, &self.sim).ok()
    }
}

/// One set's lifetime summary, reported at drop or shutdown.
pub struct SetReport {
    /// The set's name.
    pub name: String,
    /// Slots this set simulated.
    pub slots: u64,
    /// (admitted, rejected, left, reweighted) totals.
    pub counts: (u64, u64, u64, u64),
    /// The set's full schedule trace (when `record_trace` was on).
    pub trace: Option<ScheduleTrace>,
    /// Whether the set was dropped before shutdown (disambiguates a
    /// re-created name in the final report).
    pub dropped: bool,
}

/// A `SetId`-keyed registry of independent admission cores — one live
/// `MultiSim` + scheduler per task-set shard, all built from the same
/// [`CoreConfig`] template.
///
/// Sets are fully isolated: each has its own slot counter, weight sum,
/// batch scratch, and schedule trace, and each decides its batches in
/// the canonical order *within* the set while sets advance
/// independently. The registry always starts with (and re-admits
/// requests that name no set into) the [`DEFAULT_SET`].
///
/// Each set carries a `T` beside its core, created with the set and
/// handed back when it is dropped: the server keeps a set's reply routes
/// and subscribers there, so looking up one can never miss the other.
pub(crate) struct SetRegistry<T> {
    template: CoreConfig,
    max_sets: usize,
    recorder: obs::Recorder,
    sets: BTreeMap<String, (AdmissionCore, T)>,
    /// Reports of dropped sets, in drop order, kept for the shutdown
    /// report so a dropped set's trace still window-verifies offline.
    dropped: Vec<SetReport>,
}

impl<T: Default> SetRegistry<T> {
    /// A registry with just the default set. Every core (present and
    /// future) reports into `recorder`.
    pub fn new(template: CoreConfig, max_sets: usize, recorder: &obs::Recorder) -> Self {
        let mut reg = SetRegistry {
            template,
            max_sets: max_sets.max(1),
            recorder: recorder.clone(),
            sets: BTreeMap::new(),
            dropped: Vec::new(),
        };
        reg.insert(DEFAULT_SET.to_string());
        reg
    }

    fn insert(&mut self, name: String) {
        let mut core = AdmissionCore::new(self.template.clone());
        core.set_recorder(&self.recorder);
        self.sets.insert(name, (core, T::default()));
    }

    /// Validates a client-supplied set name: path-safe (it becomes part
    /// of trace file names), bounded, non-empty.
    pub fn valid_name(name: &str) -> Result<(), String> {
        if name.is_empty() || name.len() > 64 {
            return Err("set name must be 1..=64 characters".to_string());
        }
        if !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        {
            return Err("set name may only contain [A-Za-z0-9._-]".to_string());
        }
        if name.starts_with('.') {
            return Err("set name may not start with '.'".to_string());
        }
        Ok(())
    }

    /// Creates an empty set named `name`.
    pub fn create(&mut self, name: &str) -> Result<(), String> {
        Self::valid_name(name)?;
        if self.sets.contains_key(name) {
            return Err(format!("set `{name}` already exists"));
        }
        if self.sets.len() >= self.max_sets {
            return Err(format!(
                "set limit reached ({} of {} live)",
                self.sets.len(),
                self.max_sets
            ));
        }
        self.insert(name.to_string());
        Ok(())
    }

    /// Tears down set `name`, retaining its report (and trace) for the
    /// shutdown summary. The default set is droppable too — requests
    /// naming no set then fail with "no such set" until it is recreated.
    /// Returns what the set carried.
    pub fn drop_set(&mut self, name: &str) -> Result<T, String> {
        let (core, carried) = self
            .sets
            .remove(name)
            .ok_or_else(|| format!("no such set `{name}`"))?;
        self.dropped.push(Self::report_of(name, &core, true));
        Ok(carried)
    }

    fn report_of(name: &str, core: &AdmissionCore, dropped: bool) -> SetReport {
        SetReport {
            name: name.to_string(),
            slots: core.slot(),
            counts: core.counts(),
            trace: core.trace(),
            dropped,
        }
    }

    /// The core serving set `name` and what it carries, if live.
    pub fn get_mut(&mut self, name: &str) -> Option<(&mut AdmissionCore, &mut T)> {
        self.sets
            .get_mut(name)
            .map(|(core, carried)| (core, carried))
    }

    /// Live set names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.sets.keys().cloned().collect()
    }

    /// Iterates live sets in name order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut AdmissionCore, &mut T)> {
        self.sets
            .iter_mut()
            .map(|(k, (core, carried))| (k.as_str(), core, carried))
    }

    /// Consumes the registry into per-set reports: dropped sets first
    /// (in drop order), then the live ones (sorted by name).
    pub(crate) fn into_reports(mut self) -> Vec<SetReport> {
        let mut reports = std::mem::take(&mut self.dropped);
        for (name, (core, _)) in &self.sets {
            reports.push(Self::report_of(name, core, false));
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Op, Request};

    fn core(m: u32) -> AdmissionCore {
        let mut cfg = CoreConfig::new(m);
        // Zero overhead keeps weights human-checkable: 1000µs/4000µs = 1/4.
        cfg.params = OverheadParams::zero();
        AdmissionCore::new(cfg)
    }

    fn decide(core: &mut AdmissionCore, reqs: Vec<Request>) -> Vec<Reply> {
        for r in reqs {
            assert!(core.push_request(r));
        }
        let mut replies = Vec::new();
        core.decide_batch(&mut replies);
        replies
    }

    #[test]
    fn join_then_leave_roundtrip() {
        let mut c = core(1);
        let replies = decide(&mut c, vec![Request::join(1, 1_000, 4_000)]);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].status, Status::Admitted);
        assert_eq!(replies[0].task, Some(0));
        assert_eq!(replies[0].weight_num, Some(1));
        assert_eq!(replies[0].weight_den, Some(4));
        assert_eq!(replies[0].first_release, Some(0));
        assert_eq!(c.task_count(), 1);

        let replies = decide(&mut c, vec![Request::leave(2, 0)]);
        assert_eq!(replies[0].status, Status::Left);
        assert!(replies[0].free_at.is_some());
        assert_eq!(c.task_count(), 0);
    }

    /// A zero `wcet_us` or `period_us` would panic `PhysTask::new` and end
    /// the daemon: each such frame gets an `Error` reply instead, and the
    /// core still admits a valid join afterwards.
    #[test]
    fn zero_fields_are_malformed_not_fatal() {
        let mut c = core(1);
        let replies = decide(&mut c, vec![Request::join(1, 1_000, 4_000)]);
        assert_eq!(replies[0].status, Status::Admitted);
        let live = replies[0].task.unwrap();
        let bad = [
            Request::join(2, 0, 4_000),
            Request::join(3, 1_000, 0),
            Request::reweight(4, live, 0, 4_000),
        ];
        for req in bad {
            let nonce = req.nonce;
            let replies = decide(&mut c, vec![req]);
            assert_eq!(replies.len(), 1, "nonce {nonce}");
            assert_eq!(replies[0].status, Status::Error, "nonce {nonce}");
            assert_eq!(
                replies[0].error.as_deref(),
                Some("missing or zero required fields for this op")
            );
        }
        let replies = decide(&mut c, vec![Request::join(5, 1_000, 4_000)]);
        assert_eq!(replies[0].status, Status::Admitted);
        assert_eq!(c.task_count(), 2);
    }

    #[test]
    fn overloaded_join_is_rejected_capacity_preserved() {
        let mut c = core(1);
        // Three half-weight tasks into M=1: two admit, one rejects.
        let replies = decide(
            &mut c,
            vec![
                Request::join(1, 2_000, 4_000),
                Request::join(2, 2_000, 4_000),
                Request::join(3, 2_000, 4_000),
            ],
        );
        let admitted = replies
            .iter()
            .filter(|r| r.status == Status::Admitted)
            .count();
        let rejected = replies
            .iter()
            .filter(|r| r.status == Status::Rejected)
            .count();
        assert_eq!((admitted, rejected), (2, 1));
        // The nonce tie-break admits the two lowest nonces.
        assert_eq!(
            replies.iter().find(|r| r.nonce == 3).unwrap().status,
            Status::Rejected
        );
    }

    #[test]
    fn batch_order_is_deterministic_under_arrival_permutations() {
        // 6 requests, only some of which fit; every arrival permutation
        // must admit the same subset and produce identical reply vectors.
        let reqs = [
            Request::join(10, 2_000, 4_000),
            Request::join(11, 2_000, 4_000),
            Request::join(12, 1_000, 4_000),
            Request::join(13, 1_000, 2_000),
            Request::join(14, 3_000, 4_000),
            Request::join(15, 1_000, 8_000),
        ];
        let mut reference: Option<Vec<Reply>> = None;
        // A handful of distinct permutations (rotations + reversal).
        for p in 0..reqs.len() + 1 {
            let mut batch: Vec<Request> = reqs.to_vec();
            if p == reqs.len() {
                batch.reverse();
            } else {
                batch.rotate_left(p);
            }
            let mut c = core(1);
            let replies = decide(&mut c, batch);
            match &reference {
                None => reference = Some(replies),
                Some(expect) => assert_eq!(&replies, expect, "permutation {p} diverged"),
            }
        }
        let expect = reference.unwrap();
        // Canonical order is parameter-sorted, not nonce-sorted: the
        // half-weight 1000/2000 task sorts first among joins.
        assert_eq!(expect[0].nonce, 13);
    }

    #[test]
    fn identical_requests_with_colliding_nonces_each_get_a_reply() {
        // Two clients can submit byte-identical requests (same op,
        // params, and nonce). The intake-index tie-break keeps the sort
        // total: both decide, in intake order, with distinct task ids.
        let mut c = core(2);
        let reqs = vec![
            Request::join(1, 1_000, 4_000),
            Request::join(1, 1_000, 4_000),
        ];
        for r in reqs {
            assert!(c.push_request(r));
        }
        let mut replies = Vec::new();
        c.decide_batch(&mut replies);
        assert_eq!(replies.len(), 2);
        assert_eq!(c.decided_order(), &[0, 1], "intake order breaks the tie");
        assert!(replies.iter().all(|r| r.status == Status::Admitted));
        assert_ne!(replies[0].task, replies[1].task);
    }

    #[test]
    fn leaves_decide_before_joins_but_weight_stays_charged() {
        let mut c = core(1);
        let replies = decide(&mut c, vec![Request::join(1, 2_000, 4_000)]);
        let id = replies[0].task.unwrap();
        // Same quantum: leave the half-weight task and try to join a
        // 3/4-weight one. The leave is accepted but its weight is charged
        // until free_at, so the join must be rejected (conservative).
        let replies = decide(
            &mut c,
            vec![Request::join(2, 3_000, 4_000), Request::leave(3, id)],
        );
        // Canonical order: the leave decides first, and decided_order
        // maps each reply back to its intake slot (join was pushed
        // first, so replies[0] answers pending slot 1).
        assert_eq!(replies[0].nonce, 3);
        assert_eq!(c.decided_order(), &[1, 0]);
        assert_eq!(replies[0].status, Status::Left);
        assert_eq!(replies[1].status, Status::Rejected);
        // Once the safe point has been ticked past, the join fits.
        let free_at = replies[0].free_at.unwrap();
        while c.slot() <= free_at {
            c.step();
        }
        let replies = decide(&mut c, vec![Request::join(4, 3_000, 4_000)]);
        assert_eq!(replies[0].status, Status::Admitted);
    }

    #[test]
    fn duplicate_leave_in_one_batch_refused_deterministically() {
        let mut c = core(2);
        let replies = decide(&mut c, vec![Request::join(1, 1_000, 4_000)]);
        let id = replies[0].task.unwrap();
        let replies = decide(&mut c, vec![Request::leave(7, id), Request::leave(5, id)]);
        // Nonce 5 sorts first and wins; nonce 7 sees NoSuchTask.
        assert_eq!(replies[0].nonce, 5);
        assert_eq!(replies[0].status, Status::Left);
        assert_eq!(replies[1].nonce, 7);
        assert_eq!(replies[1].status, Status::Error);
    }

    #[test]
    fn reweight_rejection_keeps_old_task() {
        let mut c = core(1);
        let replies = decide(&mut c, vec![Request::join(1, 1_000, 4_000)]);
        let id = replies[0].task.unwrap();
        // 5/4 weight cannot fit anywhere: rejected, old task untouched.
        let replies = decide(&mut c, vec![Request::reweight(2, id, 5_000, 4_000)]);
        assert_eq!(replies[0].status, Status::Rejected);
        assert_eq!(c.task_count(), 1);
        // A feasible reweight departs the old id and admits a fresh one.
        let replies = decide(&mut c, vec![Request::reweight(3, id, 2_000, 4_000)]);
        assert_eq!(replies[0].status, Status::Admitted);
        let new_id = replies[0].task.unwrap();
        assert_ne!(new_id, id);
        assert_eq!(c.task_count(), 1);
    }

    #[test]
    fn malformed_requests_error_without_scheduler_changes() {
        let mut c = core(1);
        let replies = decide(
            &mut c,
            vec![
                Request {
                    op: Op::Join,
                    nonce: 1,
                    set: None,
                    task: None,
                    wcet_us: Some(1_000),
                    period_us: None,
                },
                Request::leave(2, 99),
            ],
        );
        assert!(replies.iter().all(|r| r.status == Status::Error));
        assert_eq!(c.task_count(), 0);
    }

    #[test]
    fn period_not_multiple_of_quantum_rejects() {
        let mut cfg = CoreConfig::new(1);
        cfg.params = OverheadParams::paper2003(); // q = 1000µs
        let mut c = AdmissionCore::new(cfg);
        let replies = decide(&mut c, vec![Request::join(1, 100, 1_500)]);
        assert_eq!(replies[0].status, Status::Rejected);
        assert!(replies[0].error.as_deref().unwrap().contains("quantum"));
    }

    #[test]
    fn registry_sets_are_isolated_and_advance_independently() {
        let mut cfg = CoreConfig::new(1);
        cfg.params = OverheadParams::zero();
        let rec = obs::Recorder::disabled();
        let mut reg = SetRegistry::<()>::new(cfg, 8, &rec);
        reg.create("alpha").expect("create alpha");
        assert_eq!(
            reg.names(),
            vec!["alpha".to_string(), "default".to_string()]
        );

        // Each set has its own M=1 capacity: a full-processor task fits
        // in *both* — weight sums never cross sets.
        for set in ["default", "alpha"] {
            let (core, ()) = reg.get_mut(set).expect("live set");
            let replies = decide(core, vec![Request::join(1, 4_000, 4_000)]);
            assert_eq!(replies[0].status, Status::Admitted, "set {set}");
        }
        // Only the default set steps further: slots diverge.
        for _ in 0..10 {
            reg.get_mut("default").unwrap().0.step();
        }
        assert_eq!(reg.get_mut("alpha").unwrap().0.slot(), 1);
        assert_eq!(reg.get_mut("default").unwrap().0.slot(), 11);

        // Duplicate create and unknown drop both refuse with a reason.
        assert!(reg.create("alpha").is_err());
        assert!(reg.drop_set("nope").is_err());
        // Dropping keeps the report (and its verified trace) around.
        reg.drop_set("alpha").expect("drop alpha");
        assert!(reg.get_mut("alpha").is_none());
        let reports = reg.into_reports();
        assert_eq!(reports.len(), 2);
        let alpha = reports.iter().find(|r| r.name == "alpha").unwrap();
        assert!(alpha.dropped);
        alpha
            .trace
            .as_ref()
            .expect("dropped set keeps its trace")
            .verify()
            .expect("dropped set's trace window-verifies");
    }

    #[test]
    fn registry_rejects_bad_names_and_enforces_the_cap() {
        let mut cfg = CoreConfig::new(1);
        cfg.params = OverheadParams::zero();
        let rec = obs::Recorder::disabled();
        let mut reg = SetRegistry::<()>::new(cfg, 2, &rec);
        for bad in ["", "a/b", "..", ".hidden", "x".repeat(65).as_str(), "a b"] {
            assert!(reg.create(bad).is_err(), "name {bad:?} must be refused");
        }
        reg.create("ok-1").expect("fits under the cap");
        let err = reg.create("ok-2").expect_err("cap of 2 is enforced");
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn trace_of_dynamic_traffic_window_verifies() {
        let mut c = core(2);
        let mut ids = Vec::new();
        for i in 0..8u64 {
            let replies = decide(&mut c, vec![Request::join(i, 1_000, 4_000)]);
            if replies[0].status == Status::Admitted {
                ids.push(replies[0].task.unwrap());
            }
        }
        // Interleave leaves and more joins, then run a while.
        for (k, id) in ids.iter().take(4).enumerate() {
            decide(&mut c, vec![Request::leave(100 + k as u64, *id)]);
        }
        for _ in 0..50 {
            c.step();
        }
        let trace = c.trace().expect("trace recording is on");
        trace
            .verify()
            .expect("dynamic join/leave trace must window-verify");
    }
}
