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
//! * [`analysis`] — RM schedulability tests: the Liu–Layland bound and
//!   the Lehoczky exact time-demand analysis \[25\]. (EDF's exact test,
//!   `Σ eᵢ/pᵢ ≤ 1`, is the partitioner's own exact-sum acceptance.)
//!
//! §5.3's constant-bandwidth server is not here: it is a quantum-level
//! policy of `sched_sim`'s slot loop (`sched_sim::Cbs`), so it is scored on
//! the same workload and by the same miss rule as global EDF and PD².

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod sim;

pub use analysis::{rm_exact_schedulable, rm_ll_bound};
pub use sim::{Discipline, UniSim, UniStats};
