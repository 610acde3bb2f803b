//! # uniproc
//!
//! Uniprocessor real-time scheduling: event-driven **EDF** and **RM**
//! simulators and the classical schedulability tests, as required by the
//! partitioning half of *The Case for Fair Multiprocessor Scheduling*
//! (Section 3).
//!
//! Under partitioning, "each processor can be scheduled independently using
//! uniprocessor scheduling algorithms such as RM and EDF". This crate
//! provides:
//!
//! * [`sim`] — an event-driven uniprocessor simulator ([`sim::UniSim`])
//!   parameterized by priority discipline ([`sim::Discipline::Edf`] /
//!   [`sim::Discipline::Rm`]), with binary-heap ready queues matching the
//!   implementation the paper timed, and preemption / context-switch /
//!   invocation accounting.
//! * [`analysis`] — schedulability tests: the exact EDF utilization test,
//!   the Liu–Layland RM bound, the hyperbolic bound, and the Lehoczky
//!   exact time-demand analysis \[25\].
//!
//! §5.3's constant-bandwidth server is not here: it is a quantum-level
//! policy of `sched_sim`'s slot loop (`sched_sim::Cbs`), so it is scored on
//! the same workload and by the same miss rule as global EDF and PD².

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod sim;

pub use analysis::{
    edf_schedulable, rm_exact_schedulable, rm_hyperbolic_schedulable, rm_ll_bound,
    rm_ll_schedulable, rm_response_time,
};
pub use sim::{Discipline, UniSim, UniStats};
