//! # sched-sim
//!
//! Discrete-time multiprocessor scheduling simulation for the Pfair stack:
//!
//! * [`engine`] — [`engine::MultiSim`] drives a
//!   [`PfairScheduler`](pfair_core::PfairScheduler) and *dispatches* the
//!   chosen tasks onto `M` concrete processors with affinity (a task
//!   scheduled in consecutive quanta keeps its processor, the assumption
//!   behind the paper's `min(E−1, P−E)` preemption bound), counting
//!   preemptions, migrations, and context switches.
//! * [`verify`] — full-schedule validation: per-slot processor limits,
//!   no intra-slot parallelism, exact lag bounds (Equation (1)), and
//!   per-subtask window containment.
//! * [`global_edf`] — job-level global EDF on `M` processors, exhibiting
//!   the Dhall effect \[13\] that motivates Pfair scheduling (Section 1).
//! * [`exact_gedf`] — the exact (Goossens–Yomsi) global-EDF
//!   schedulability test over one hyperperiod, plus the sufficient
//!   Goossens–Funk–Baruah utilization bound, for the scheduler
//!   tournament's acceptance columns.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod exact_gedf;
pub mod global_edf;
pub mod ledger;
pub mod partitioned;
pub mod render;
pub mod trace;
pub mod verify;
pub mod wrr;

pub use engine::{FaultHook, FaultMetrics, MultiSim, RunMetrics, SlotFaults};
pub use exact_gedf::{
    exact_gedf_schedulable, gedf_utilization_bound_schedulable, hyperperiod,
    try_exact_gedf_schedulable, HyperperiodOverflow,
};
pub use global_edf::GlobalEdfSim;
pub use ledger::JobLedger;
pub use partitioned::{PartitionedSim, PartitionedStats};
pub use render::{render_schedule, render_task_windows};
pub use trace::{NotRecordingError, ScheduleTrace, TraceEvent};
pub use verify::{
    check_windows, check_windows_with_events, IncrementalWindowCheck, WindowViolation,
};
pub use wrr::{WrrSim, WrrStats};
