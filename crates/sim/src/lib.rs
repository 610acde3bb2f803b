//! # sched-sim
//!
//! Discrete-time multiprocessor scheduling simulation for the Pfair stack:
//!
//! * [`engine`] — [`MultiSim`], the one slot loop: a [`Dispatch`] policy
//!   picks the tasks of each slot, and the loop *dispatches* them onto `M`
//!   concrete processors with affinity (a task scheduled in consecutive
//!   quanta keeps its processor, the assumption behind the paper's
//!   `min(E−1, P−E)` preemption bound), counting preemptions, migrations,
//!   and context switches by one rule for every policy. The policies are
//!   PD² ([`PfairScheduler`](pfair_core::PfairScheduler)), job-level
//!   global EDF ([`GlobalEdf`]), global EDF with a constant-bandwidth
//!   server ([`Cbs`]), weighted round-robin (`wrr`, built for its tests)
//!   and the `faults` crate's partitioned quantum EDF.
//! * [`ledger`] — [`JobLedger`]: the job state the policies other than
//!   PD² pick from, and the one miss rule every policy is scored by, in
//!   total and per task ([`MultiSim::task_misses`]).
//! * [`verify`] — full-schedule validation: per-slot processor limits,
//!   no intra-slot parallelism, exact lag bounds (Equation (1)), and
//!   per-subtask window containment.
//! * [`global_edf`] — job-level global EDF on `M` processors, exhibiting
//!   the Dhall effect \[13\] that motivates Pfair scheduling (Section 1),
//!   and the same pick with a constant-bandwidth server \[1\], §5.3's way
//!   of making EDF isolate tasks at a counted bookkeeping cost.
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
#[cfg(test)]
mod wrr;

pub use engine::{Dispatch, FaultHook, FaultMetrics, MultiSim, RunMetrics, SlotFaults};
pub use exact_gedf::{
    exact_gedf_schedulable, gedf_utilization_bound_schedulable, HyperperiodOverflow,
};
pub use global_edf::{Cbs, GlobalEdf};
pub use ledger::JobLedger;
pub use partitioned::{PartitionedSim, PartitionedStats};
pub use render::{render_schedule, render_task_windows};
pub use trace::{NotRecordingError, ScheduleTrace, TraceEvent};
pub use verify::{check_windows, IncrementalWindowCheck, WindowViolation};
