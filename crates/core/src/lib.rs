//! # pfair-core
//!
//! The Pfair scheduling theory stack from *The Case for Fair Multiprocessor
//! Scheduling* (Srinivasan, Holman, Anderson, Baruah, 2003):
//!
//! * [`subtask`] — pseudo-releases, pseudo-deadlines, windows, b-bits, and
//!   group deadlines (paper, Section 2, Fig. 1).
//! * [`priority`] — the EPDF / PF / PD / PD² priority orders as pure,
//!   swappable comparators.
//! * [`sched`] — the quantum-driven global scheduler supporting plain
//!   Pfair, ERfair early releases, intra-sporadic delays, and dynamic task
//!   joins/leaves.
//! * [`lag`] — lag computation and full-schedule Pfair validation
//!   (Equation (1)).
//! * [`recovery`] — overload detection (lag watchdog) and weight-ordered
//!   load shedding for fault recovery, built on the join/leave rules.
//! * [`supertask`] — supertasking (Section 5.5): naive cumulative-weight
//!   bundling, the Fig. 5 unsoundness, and Holman–Anderson reweighting.
//!
//! The scheduler decides *which* tasks run each slot; processor assignment
//! with affinity and preemption/migration accounting lives in the
//! `sched-sim` crate.
//!
//! ## Quickstart
//!
//! ```
//! use pfair_core::sched::{PfairScheduler, SchedConfig};
//! use pfair_model::TaskSet;
//!
//! // Three tasks of weight 2/3 on two processors: unschedulable by any
//! // partitioning, trivially handled by PD².
//! let tasks = TaskSet::from_pairs([(2u64, 3u64), (2, 3), (2, 3)]).unwrap();
//! let mut sched = PfairScheduler::new(&tasks, SchedConfig::pd2(2));
//! let schedule = sched.run(30);
//! assert!(sched.misses().is_empty());
//! assert!(schedule.iter().all(|slot| slot.len() == 2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod key;
pub mod lag;
pub mod priority;
pub mod recovery;
pub mod sched;
pub mod subtask;
pub mod supertask;

pub use priority::{Policy, SubtaskTag};
pub use recovery::{plan_shedding, LagWatchdog};
pub use sched::{
    CoreKind, DelayModel, EarlyRelease, JoinError, LeaveError, MapDelays, Miss, NoDelay,
    PfairScheduler, ReweightError, SchedConfig, SporadicDelays,
};
pub use supertask::{Component, ComponentMiss, Supertask};
