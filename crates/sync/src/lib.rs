//! # pfair-sync
//!
//! Task synchronization under Pfair scheduling (paper, Section 5.1).
//!
//! The paper's claim: "the tight synchrony in Pfair scheduling can be
//! exploited to simplify task synchronization. Specifically, each subtask's
//! execution is effectively non-preemptive within its time slot. As a
//! result, problems stemming from the use of locks can be altogether
//! avoided by ensuring that all locks are released before each quantum
//! boundary … by delaying the start of critical sections that are not
//! guaranteed to complete by the quantum boundary. When critical-section
//! durations are short compared to the quantum length … this approach can
//! be used to provide synchronization with very little overhead."
//!
//! This crate implements and evaluates that protocol:
//!
//! * [`locksim`] — a sub-quantum simulator layering critical-section
//!   activity (lock requests at random offsets inside each scheduled
//!   quantum) over a recorded Pfair schedule, implementing **skip
//!   locking**: a critical section that cannot finish before the quantum
//!   boundary is deferred to the task's next quantum. Measures blocking,
//!   deferral counts, and end-to-end critical-section latency.
//! * [`analysis`] — the analytic per-access blocking bound under
//!   quantum-boundary locking, `(M − 1) · L_max`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod locksim;

pub use analysis::pfair_blocking_bound;
pub use locksim::{CsConfig, LockSim, LockStats};
