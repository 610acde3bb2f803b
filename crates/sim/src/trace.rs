//! Schedule trace export/import (JSON).
//!
//! A [`ScheduleTrace`] is a self-contained record of one simulation: the
//! task set, processor count, the per-slot allocation matrix, the run
//! metrics, and — since schema v2 — the fault and recovery [`TraceEvent`]s
//! that perturbed the run. Traces round-trip through JSON so experiments
//! can be archived, diffed across revisions, and re-verified offline
//! ([`ScheduleTrace::verify`] picks the strict or the event-aware checker
//! depending on what the events say about the run).
//!
//! # Schema versions
//!
//! * **v1** — `processors`, `tasks`, `slots`, `metrics`. Written by
//!   revisions that predate event recording.
//! * **v2** — adds `events`, a list of [`TraceEvent`]s in slot order
//!   (burst events are job-keyed and may appear first). v1 traces still
//!   deserialize — the field defaults to empty — and verify exactly as
//!   before.

use crate::engine::{MultiSim, RunMetrics};
use pfair_model::{Slot, Task, TaskId, TaskSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error from [`ScheduleTrace::capture`]: the simulator was not recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotRecordingError;

impl fmt::Display for NotRecordingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace capture requires schedule recording: call MultiSim::record_schedule() \
             before running the simulation"
        )
    }
}

impl std::error::Error for NotRecordingError {}

/// One fault injection or recovery action, with enough context to replay
/// its effect on schedule verification (see [`ScheduleTrace::verify`]).
///
/// Task ids are raw `u32`s (not [`TaskId`]) so events serialize flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Processor `proc` was fail-stopped during `slot`.
    ProcDown {
        /// Slot of the outage.
        slot: Slot,
        /// The dead processor.
        proc: u32,
    },
    /// The quantum dispatched to `task` on `proc` produced no useful work
    /// (quantum jitter / lost tick).
    QuantumLoss {
        /// Slot of the loss.
        slot: Slot,
        /// Processor whose quantum was wasted.
        proc: u32,
        /// Task that was dispatched there.
        task: u32,
    },
    /// Job `job` of `task` demanded `extra` quanta beyond its WCET.
    Overrun {
        /// Slot in which the declared work completed and the overrun began.
        slot: Slot,
        /// The overrunning task.
        task: u32,
        /// 0-based job index.
        job: u64,
        /// Extra quanta demanded.
        extra: u64,
    },
    /// IS arrival burst: job `job` of `task` arrived `delay` slots late,
    /// shifting all subsequent windows of the task (job-keyed; the slot at
    /// which the scheduler consumes the delay depends on its progress).
    Burst {
        /// The delayed task.
        task: u32,
        /// 0-based job index whose arrival was delayed.
        job: u64,
        /// Delay in slots (adds to the task's cumulative IS offset θ).
        delay: u64,
    },
    /// Recovery shed `task` at `slot` (safe leave; the task is not
    /// scheduled from `slot` on).
    Shed {
        /// Slot of the shed.
        slot: Slot,
        /// The shed task's id.
        task: u32,
    },
    /// Recovery re-admitted a previously shed task under the fresh id
    /// `task` at `slot`; per the §5.2 join rule its windows are the
    /// synchronous windows shifted right by `slot`.
    Rejoin {
        /// Join slot (= the new incarnation's window origin).
        slot: Slot,
        /// The *new* task id assigned by the scheduler.
        task: u32,
        /// Per-job execution cost of the re-admitted task.
        exec: u64,
        /// Period of the re-admitted task.
        period: u64,
    },
    /// The lag watchdog engaged ERfair catch-up at `slot` (sticky: from
    /// here on subtasks may be scheduled before their Pfair releases, and
    /// only the deadline half of each window — the ERfair lag bound —
    /// remains checkable).
    CatchUp {
        /// Slot of the trip.
        slot: Slot,
    },
    /// Recovery set the scheduler's live-processor count to `processors`
    /// at `slot` (capacity tracking under fail-stop).
    Capacity {
        /// Slot of the capacity change.
        slot: Slot,
        /// New live-processor count.
        processors: u32,
    },
}

impl TraceEvent {
    /// The slot the event is keyed to, or `None` for job-keyed events
    /// (bursts), which apply from the start of the run.
    pub(crate) fn slot(&self) -> Option<Slot> {
        match *self {
            TraceEvent::ProcDown { slot, .. }
            | TraceEvent::QuantumLoss { slot, .. }
            | TraceEvent::Overrun { slot, .. }
            | TraceEvent::Shed { slot, .. }
            | TraceEvent::Rejoin { slot, .. }
            | TraceEvent::CatchUp { slot }
            | TraceEvent::Capacity { slot, .. } => Some(slot),
            TraceEvent::Burst { .. } => None,
        }
    }

    /// Whether the event changed the *scheduler's* decisions (as opposed
    /// to only stealing useful work from dispatched quanta). Runs with no
    /// perturbing events still satisfy the plain synchronous Pfair
    /// invariants; runs with any need the event-aware checker.
    pub(crate) fn perturbs_schedule(&self) -> bool {
        match self {
            TraceEvent::ProcDown { .. }
            | TraceEvent::QuantumLoss { .. }
            | TraceEvent::Overrun { .. } => false,
            TraceEvent::Burst { .. }
            | TraceEvent::Shed { .. }
            | TraceEvent::Rejoin { .. }
            | TraceEvent::CatchUp { .. }
            | TraceEvent::Capacity { .. } => true,
        }
    }

    fn tag(&self) -> &'static str {
        match self {
            TraceEvent::ProcDown { .. } => "proc_down",
            TraceEvent::QuantumLoss { .. } => "quantum_loss",
            TraceEvent::Overrun { .. } => "overrun",
            TraceEvent::Burst { .. } => "burst",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Rejoin { .. } => "rejoin",
            TraceEvent::CatchUp { .. } => "catch_up",
            TraceEvent::Capacity { .. } => "capacity",
        }
    }
}

// The vendored serde derive cannot express data-carrying enum variants,
// so events serialize by hand as tagged objects: `{"event": "<tag>", …}`.
impl Serialize for TraceEvent {
    fn to_value(&self) -> serde::Value {
        let mut obj = vec![("event".to_string(), serde::Value::Str(self.tag().into()))];
        let mut put =
            |name: &str, v: u64| obj.push((name.to_string(), serde::Value::Int(v.into())));
        match *self {
            TraceEvent::ProcDown { slot, proc } => {
                put("slot", slot);
                put("proc", proc.into());
            }
            TraceEvent::QuantumLoss { slot, proc, task } => {
                put("slot", slot);
                put("proc", proc.into());
                put("task", task.into());
            }
            TraceEvent::Overrun {
                slot,
                task,
                job,
                extra,
            } => {
                put("slot", slot);
                put("task", task.into());
                put("job", job);
                put("extra", extra);
            }
            TraceEvent::Burst { task, job, delay } => {
                put("task", task.into());
                put("job", job);
                put("delay", delay);
            }
            TraceEvent::Shed { slot, task } => {
                put("slot", slot);
                put("task", task.into());
            }
            TraceEvent::Rejoin {
                slot,
                task,
                exec,
                period,
            } => {
                put("slot", slot);
                put("task", task.into());
                put("exec", exec);
                put("period", period);
            }
            TraceEvent::CatchUp { slot } => put("slot", slot),
            TraceEvent::Capacity { slot, processors } => {
                put("slot", slot);
                put("processors", processors.into());
            }
        }
        serde::Value::Obj(obj)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let tag: String = serde::field(v, "event")?;
        Ok(match tag.as_str() {
            "proc_down" => TraceEvent::ProcDown {
                slot: serde::field(v, "slot")?,
                proc: serde::field(v, "proc")?,
            },
            "quantum_loss" => TraceEvent::QuantumLoss {
                slot: serde::field(v, "slot")?,
                proc: serde::field(v, "proc")?,
                task: serde::field(v, "task")?,
            },
            "overrun" => TraceEvent::Overrun {
                slot: serde::field(v, "slot")?,
                task: serde::field(v, "task")?,
                job: serde::field(v, "job")?,
                extra: serde::field(v, "extra")?,
            },
            "burst" => TraceEvent::Burst {
                task: serde::field(v, "task")?,
                job: serde::field(v, "job")?,
                delay: serde::field(v, "delay")?,
            },
            "shed" => TraceEvent::Shed {
                slot: serde::field(v, "slot")?,
                task: serde::field(v, "task")?,
            },
            "rejoin" => TraceEvent::Rejoin {
                slot: serde::field(v, "slot")?,
                task: serde::field(v, "task")?,
                exec: serde::field(v, "exec")?,
                period: serde::field(v, "period")?,
            },
            "catch_up" => TraceEvent::CatchUp {
                slot: serde::field(v, "slot")?,
            },
            "capacity" => TraceEvent::Capacity {
                slot: serde::field(v, "slot")?,
                processors: serde::field(v, "processors")?,
            },
            other => return Err(serde::DeError(format!("unknown trace event `{other}`"))),
        })
    }
}

/// A serializable record of one simulated schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScheduleTrace {
    /// Processor count.
    pub processors: u32,
    /// The task set, as `(exec, period)` pairs in task-id order.
    pub tasks: Vec<(u64, u64)>,
    /// Slot → task ids scheduled in that slot.
    pub slots: Vec<Vec<u32>>,
    /// Run metrics snapshot.
    pub metrics: TraceMetrics,
    /// Fault injections and recovery actions (schema v2; empty for clean
    /// runs and for traces written before event recording existed).
    pub events: Vec<TraceEvent>,
}

// Hand-written so that v1 traces — no `events` field — still deserialize;
// the vendored serde derive has no `#[serde(default)]`.
impl Deserialize for ScheduleTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let trace = ScheduleTrace {
            processors: serde::field(v, "processors")?,
            tasks: serde::field(v, "tasks")?,
            slots: serde::field(v, "slots")?,
            metrics: serde::field(v, "metrics")?,
            events: match v.get("events") {
                Some(e) => Vec::<TraceEvent>::from_value(e)
                    .map_err(|serde::DeError(e)| serde::DeError(format!("field `events`: {e}")))?,
                None => Vec::new(),
            },
        };
        trace.task_set().map_err(serde::DeError)?;
        Ok(trace)
    }
}

/// The subset of [`RunMetrics`] worth archiving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TraceMetrics {
    /// Slots simulated.
    pub slots: u64,
    /// Quanta allocated.
    pub allocated_quanta: u64,
    /// Idle processor-quanta.
    pub idle_quanta: u64,
    /// Preemptions.
    pub preemptions: u64,
    /// Migrations.
    pub migrations: u64,
    /// Context switches.
    pub context_switches: u64,
    /// Deadline misses.
    pub misses: u64,
}

impl From<RunMetrics> for TraceMetrics {
    fn from(m: RunMetrics) -> Self {
        TraceMetrics {
            slots: m.slots,
            allocated_quanta: m.allocated_quanta,
            idle_quanta: m.idle_quanta,
            preemptions: m.preemptions,
            migrations: m.migrations,
            context_switches: m.context_switches,
            misses: m.misses,
        }
    }
}

impl ScheduleTrace {
    /// Captures a trace from a recording [`MultiSim`] — including any
    /// events recorded via [`MultiSim::record_events`]. Fails with
    /// [`NotRecordingError`] if [`MultiSim::record_schedule`] was never
    /// enabled.
    pub fn capture<D: pfair_core::DelayModel>(
        tasks: &TaskSet,
        sim: &MultiSim<pfair_core::PfairScheduler<D>>,
    ) -> Result<Self, NotRecordingError> {
        let schedule = sim.schedule().ok_or(NotRecordingError)?;
        Ok(ScheduleTrace {
            processors: sim.scheduler().processors(),
            tasks: tasks.iter().map(|(_, t)| (t.exec, t.period)).collect(),
            slots: schedule
                .iter()
                .map(|s| s.iter().map(|id| id.0).collect())
                .collect(),
            metrics: sim.metrics().into(),
            events: sim.events().to_vec(),
        })
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Deserializes from JSON, and refuses a trace the verifiers cannot
    /// read (see [`verify`](Self::verify)).
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The task set as a [`TaskSet`], once the trace is one the verifiers
    /// can read: at least one processor, every task `0 < exec ≤ period`,
    /// and every id in a slot one of the tasks or the fresh id of a
    /// [`TraceEvent::Rejoin`]. Only the *initial* tasks are in the set:
    /// rejoined ids are part of the event stream.
    pub(crate) fn task_set(&self) -> Result<TaskSet, String> {
        if self.processors == 0 {
            return Err("invalid trace: 0 processors".to_string());
        }
        let tasks = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, &(e, p))| {
                Task::new(e, p).map_err(|why| format!("invalid trace: task {i} ({e}, {p}): {why}"))
            })
            .collect::<Result<TaskSet, String>>()?;
        // Sorted once, so that each id in a slot costs one binary search:
        // a daemon trace records every admission as a rejoin.
        let mut rejoined: Vec<u32> = self
            .events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Rejoin { task, .. } => Some(task),
                _ => None,
            })
            .collect();
        rejoined.sort_unstable();
        rejoined.dedup();
        for (t, slot) in self.slots.iter().enumerate() {
            if let Some(id) = slot
                .iter()
                .find(|&&id| id as usize >= tasks.len() && rejoined.binary_search(&id).is_err())
            {
                return Err(format!(
                    "invalid trace: slot {t} names task {id}, which is neither one of the {} \
                     tasks nor rejoined",
                    tasks.len()
                ));
            }
        }
        Ok(tasks)
    }

    /// The schedule in the form the verifiers accept.
    pub fn schedule(&self) -> Vec<Vec<TaskId>> {
        self.slots
            .iter()
            .map(|s| s.iter().map(|&i| TaskId(i)).collect())
            .collect()
    }

    /// Whether any recorded event changed the scheduler's decisions (IS
    /// bursts, shed/rejoin, ER catch-up, capacity tracking). Such runs are
    /// verified by the event-aware window checker; runs without them
    /// satisfy the plain synchronous Pfair invariants.
    pub fn is_perturbed(&self) -> bool {
        self.events.iter().any(TraceEvent::perturbs_schedule)
    }

    /// Re-verifies the archived schedule.
    ///
    /// Unperturbed traces (v1 traces, clean runs, and runs whose faults
    /// only stole useful work) are checked against the exact Pfair lag
    /// bound *and* strict window containment. Perturbed traces are checked
    /// by the event-aware window check, which replays the shed/rejoin/burst/catch-up record; the synchronous
    /// lag check does not apply to them.
    pub fn verify(&self) -> Result<(), String> {
        let tasks = self.task_set()?;
        let schedule = self.schedule();
        if self.is_perturbed() {
            crate::verify::check_windows_with_events(&tasks, &schedule, &self.events)
                .map_err(|v| v.to_string())
        } else {
            pfair_core::lag::check_pfair(&tasks, &schedule, self.processors)
                .map_err(|v| v.to_string())?;
            crate::verify::check_windows(&tasks, &schedule).map_err(|v| v.to_string())?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::sched::SchedConfig;

    fn traced_run() -> (TaskSet, ScheduleTrace) {
        let tasks = TaskSet::from_pairs([(2u64, 3u64), (2, 3), (2, 3)]).unwrap();
        let mut sim = MultiSim::new(&tasks, SchedConfig::pd2(2));
        sim.record_schedule();
        sim.run(30);
        let trace = ScheduleTrace::capture(&tasks, &sim).unwrap();
        (tasks, trace)
    }

    fn all_event_kinds() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ProcDown { slot: 3, proc: 1 },
            TraceEvent::QuantumLoss {
                slot: 4,
                proc: 0,
                task: 2,
            },
            TraceEvent::Overrun {
                slot: 5,
                task: 1,
                job: 2,
                extra: 3,
            },
            TraceEvent::Burst {
                task: 0,
                job: 1,
                delay: 2,
            },
            TraceEvent::Shed { slot: 6, task: 2 },
            TraceEvent::Rejoin {
                slot: 9,
                task: 3,
                exec: 2,
                period: 3,
            },
            TraceEvent::CatchUp { slot: 7 },
            TraceEvent::Capacity {
                slot: 6,
                processors: 1,
            },
        ]
    }

    #[test]
    fn capture_without_recording_is_an_error() {
        let tasks = TaskSet::from_pairs([(1u64, 2u64)]).unwrap();
        let mut sim = MultiSim::new(&tasks, SchedConfig::pd2(1));
        sim.run(4);
        let err = ScheduleTrace::capture(&tasks, &sim).unwrap_err();
        assert!(err.to_string().contains("record_schedule"));
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (_, trace) = traced_run();
        let json = trace.to_json();
        let back = ScheduleTrace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn events_roundtrip_every_kind() {
        let (_, mut trace) = traced_run();
        trace.events = all_event_kinds();
        let back = ScheduleTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(trace, back);
    }

    /// A v1 trace — no `events` key at all — still deserializes, with an
    /// empty event list, and still verifies through the strict checkers.
    #[test]
    fn legacy_trace_without_events_field_loads() {
        let (_, trace) = traced_run();
        // Regenerate the v1 schema by dropping `events` from the tree.
        let mut v = trace.to_value();
        let serde::Value::Obj(pairs) = &mut v else {
            panic!("trace serializes as an object");
        };
        pairs.retain(|(k, _)| k != "events");
        let back = ScheduleTrace::from_value(&v).unwrap();
        assert!(back.events.is_empty());
        assert_eq!(back.slots, trace.slots);
        assert_eq!(back.verify(), Ok(()));

        // And at the JSON level: a hand-written v1 trace parses and
        // verifies end to end.
        let v1 = r#"{
            "processors": 1,
            "tasks": [[1, 2]],
            "slots": [[0], [], [0], []],
            "metrics": {"slots": 4, "allocated_quanta": 2, "idle_quanta": 2,
                        "preemptions": 0, "migrations": 0,
                        "context_switches": 2, "misses": 0}
        }"#;
        let legacy = ScheduleTrace::from_json(v1).unwrap();
        assert!(legacy.events.is_empty());
        assert_eq!(legacy.verify(), Ok(()));
    }

    #[test]
    fn unknown_event_tag_is_rejected() {
        let v = serde::Value::Obj(vec![(
            "event".to_string(),
            serde::Value::Str("gremlin".to_string()),
        )]);
        let err = TraceEvent::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("gremlin"), "{err}");
    }

    #[test]
    fn captured_trace_verifies() {
        let (_, trace) = traced_run();
        assert_eq!(trace.verify(), Ok(()));
        assert_eq!(trace.metrics.misses, 0);
        assert_eq!(trace.metrics.allocated_quanta, 60);
        assert!(trace.events.is_empty());
        assert!(!trace.is_perturbed());
    }

    #[test]
    fn tampered_trace_fails_verification() {
        let (_, mut trace) = traced_run();
        // Starve task 0 of a quantum.
        for slot in &mut trace.slots {
            if let Some(pos) = slot.iter().position(|&i| i == 0) {
                slot.remove(pos);
                break;
            }
        }
        assert!(trace.verify().is_err());
    }

    #[test]
    fn task_set_reconstruction() {
        let (tasks, trace) = traced_run();
        assert_eq!(trace.task_set(), Ok(tasks));
    }

    /// The one-field mutations that used to panic the verifiers are
    /// refused as invalid traces, at parse time and by `verify` on a trace
    /// edited after parsing.
    #[test]
    fn invalid_traces_are_errors_not_panics() {
        let (_, valid) = traced_run();
        let mut zero_procs = valid.clone();
        zero_procs.processors = 0;
        let mut exec_zero = valid.clone();
        exec_zero.tasks[1].0 = 0;
        let mut period_zero = valid.clone();
        period_zero.tasks[1].1 = 0;
        let mut over_unit = valid.clone();
        over_unit.tasks[1] = (4, 3);
        let mut unknown_id = valid.clone();
        unknown_id.slots[2][0] = 99;
        for (bad, why) in [
            (zero_procs, "0 processors"),
            (exec_zero, "task 1 (0, 3)"),
            (period_zero, "task 1 (2, 0)"),
            (over_unit, "task 1 (4, 3)"),
            (unknown_id, "slot 2 names task 99"),
        ] {
            let err = bad.verify().unwrap_err();
            assert!(
                err.starts_with("invalid trace: ") && err.contains(why),
                "{err}"
            );
            let err = ScheduleTrace::from_json(&bad.to_json()).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
        }
        // A rejoined id may appear in a slot.
        let mut rejoined = valid;
        rejoined.slots[2][0] = 3;
        rejoined.events = all_event_kinds();
        assert!(ScheduleTrace::from_json(&rejoined.to_json()).is_ok());
    }

    /// A trace of many rejoins, each id scheduled in its own slots and in
    /// no particular order, reads as valid; an id one past them does not.
    /// 20,000 ids over 60,000 slots: a linear search of the rejoins for
    /// every id in every slot would make this test take seconds.
    #[test]
    fn many_rejoins_read_in_time() {
        let n: u32 = 20_000;
        let mut trace = traced_run().1;
        // Rejoin ids 3.. in an order that is not sorted.
        trace.events = (0..n)
            .map(|k| TraceEvent::Rejoin {
                slot: u64::from(k),
                task: 3 + (k * 7_919) % n,
                exec: 1,
                period: 2,
            })
            .collect();
        trace.slots = (0..3 * n).map(|t| vec![3 + t / 3]).collect();
        assert_eq!(trace.task_set().map(|tasks| tasks.len()), Ok(3));
        trace.slots[3 * n as usize - 1] = vec![3 + n];
        let err = trace.task_set().unwrap_err();
        assert!(err.contains(&format!("names task {}", 3 + n)), "{err}");
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(ScheduleTrace::from_json("{not json").is_err());
    }

    #[test]
    fn perturbed_classification() {
        let mut loss_only = traced_run().1;
        loss_only.events = vec![TraceEvent::QuantumLoss {
            slot: 1,
            proc: 0,
            task: 0,
        }];
        assert!(!loss_only.is_perturbed());
        // Execution-only faults keep the strict checkers in play.
        assert_eq!(loss_only.verify(), Ok(()));

        let mut bursty = traced_run().1;
        bursty.events = vec![TraceEvent::Burst {
            task: 0,
            job: 1,
            delay: 1,
        }];
        assert!(bursty.is_perturbed());
    }
}
