//! # faults
//!
//! Seeded deterministic fault injection and overload recovery for the
//! Pfair stack — the robustness layer behind the degradation experiments.
//!
//! * [`plan`] — [`FaultPlan`]: a pure `(seed, coordinates) → fault`
//!   function covering WCET overruns, lost/jittered quanta, processor
//!   fail-stop/rejoin, and IS arrival bursts. Implements the simulator's
//!   [`FaultHook`](sched_sim::FaultHook); its burst process doubles as a
//!   scheduler [`DelayModel`](pfair_core::DelayModel) via
//!   [`PlanDelays`].
//! * [`recovery`] — [`RecoveryController`]: per-slot capacity tracking,
//!   weight-ordered load shedding with safe rejoin, and lag-watchdog
//!   ERfair catch-up, composed from `pfair-core`'s
//!   [`plan_shedding`](pfair_core::plan_shedding) and
//!   [`LagWatchdog`](pfair_core::LagWatchdog).
//! * `edf` — partitioned quantum EDF (first-fit decreasing) as a
//!   [`Dispatch`](sched_sim::Dispatch) policy of the same slot loop as
//!   PD², so it runs under the *same* fault plan and is scored by the same
//!   [`JobLedger`](sched_sim::JobLedger), for PD²-vs-EDF degradation
//!   tables.
//! * [`runner`] — [`run_pd2`] / [`run_edf`]: one-call degradation runs
//!   returning comparable [`FaultMetrics`](sched_sim::FaultMetrics).
//!   [`run_pd2`] is the loop that owns recovery (it calls the controller
//!   at every slot boundary), verifies every run against its
//!   event-adjusted Pfair windows and, asked for a trace, captures a
//!   [`ScheduleTrace`](sched_sim::ScheduleTrace) that re-verifies
//!   offline. Its [`SlackPlan`] argument is the slack-reservation
//!   experiment: spare processors or a weight margin buy headroom against
//!   structural overruns, and the [`RecoveryProfile`] reports how fast
//!   application lag re-converges once a fault window closes.
//!
//! Determinism contract: every fault decision is a hash of the seed and
//! the decision's coordinates, never of simulation history. Two
//! components holding clones of one plan (the simulator's hook and the
//! recovery controller) therefore agree on every draw, and an
//! all-rates-zero plan is *bit-for-bit* inert — the simulator produces
//! the identical schedule and metrics it would produce with no hook
//! installed (property-tested in `tests/`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod edf;
pub mod plan;
pub mod recovery;
pub mod runner;

pub use plan::{FaultConfig, FaultPlan};
pub use recovery::{RecoveryController, RecoveryPolicy, RecoveryStats};
pub use runner::{run_edf, run_pd2, DegradationOutcome, RecoveryProfile, SlackPlan};
