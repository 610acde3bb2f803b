//! # partition
//!
//! The partitioning half of the paper (Section 3): bin-packing heuristics
//! that assign tasks to processors, pluggable per-processor acceptance
//! tests, and the analytic utilization bounds.
//!
//! * [`heuristics`] — First Fit, Best Fit, Worst Fit, and Next Fit, with
//!   optional decreasing-utilization / decreasing-period pre-sorting (FFD,
//!   BFD, and the paper's decreasing-period order for overhead-aware
//!   EDF-FF).
//! * [`accept`] — acceptance tests: plain EDF utilization (`ΣU ≤ 1`), RM
//!   Liu–Layland, RM exact (Lehoczky TDA — the "variable-sized bins" the
//!   paper warns about), and the overhead-aware EDF test implementing
//!   Equation (3)'s EDF case with on-the-fly `max D(U)` tracking.
//! * [`bounds`] — the `(M+1)/2` worst case and the Lopez et al. bound
//!   `(βM + 1)/(β + 1)` \[27\].
//!
//! A packing asks the acceptance test about many bins per task, so each
//! test may offer the loop an `f64` *screen*: a load per bin, and per task
//! the loads above which `try_add` surely refuses and at or below which it
//! surely accepts (see [`Acceptance`]). The loop keeps the loads beside
//! the bins and calls `try_add` only where the exact answer could change
//! the pick. First and Next Fit skip bins the screen refuses. Best and
//! Worst Fit check the best-ranked bin that surely fits, then evaluate
//! only the bins whose load lies within `2·RANK_SLACK` of its: the exact
//! pick, and every bin tied with it, must lie there. Every packing is the
//! one an exact evaluation of every bin would give, bin for bin.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accept;
pub mod bounds;
pub mod heuristics;

pub use accept::{Acceptance, EdfOverheadAware, EdfUtilization, RmExact, RmLiuLayland};
pub use bounds::{lopez_bound, lopez_schedulable, worst_case_achievable_utilization};
pub use heuristics::{
    partition, partition_unbounded, partition_unbounded_with_obs, partition_with_obs, Heuristic,
    PartitionObs, PartitionResult, SortOrder, PACKING_SCHEMES,
};
