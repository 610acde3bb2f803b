//! # experiments
//!
//! The harness that regenerates every figure of *The Case for Fair
//! Multiprocessor Scheduling*. One binary, `pfair`, runs it: each figure
//! is a command (`pfair fig3 --tasks 50`).
//!
//! | Command | Paper figure | What it reports |
//! |---------|--------------|-----------------|
//! | `fig2a` | Fig. 2(a)    | Per-invocation scheduling overhead of EDF and PD² on one processor vs. task count |
//! | `fig2b` | Fig. 2(b)    | PD² overhead on 2/4/8/16 processors vs. task count |
//! | `fig3`  | Fig. 3(a–d)  | Minimum processors needed by PD² vs. EDF-FF vs. total utilization, overhead-inflated |
//! | `fig4`  | Fig. 4(a,b)  | Fraction of schedulability lost to Pfair overheads, EDF overheads, and FF partitioning |
//! | `fig5`  | Fig. 5       | The supertasking deadline miss, plus the reweighted fix |
//! | `quantum` | §4 "Challenges" | Quantum-size trade-off: rounding loss vs. overhead loss |
//! | `dhall` | §1           | Dhall effect: global EDF vs. PD² on near-unit-utilization sets |
//! | `rmff`  | §3           | Acceptance ratios of RM-FF, EDF-FF and PD² as `U/M` sweeps toward 1 |
//! | `erfair` | §2          | ERfair work conservation: response times with and without early release |
//! | `switches` | §4        | Preemptions, migrations and context switches per job: EDF-FF vs. PD² |
//! | `ablation` | §2        | Tie-break ablation: deadline misses of PD², PD, PF and EPDF on feasible sets |
//! | `locking` | §5.1       | Quantum-boundary ("skip") locking: spin, deferrals, the analytic bound |
//! | `faults` | §6 (future work) | Degradation under injected faults: PD² (with recovery) vs. partitioned EDF |
//! | `tournament` | §3 + PAPERS.md | Multi-criteria scheduler tournament: FF/BF/WF/NF/FFD/BFD vs. PD² vs. exact global EDF |
//! | `slack` | §6 (future work) | Slack reservation: spare processors / weight margins vs. post-fault lag recovery |
//! | `show`  | Fig. 1       | One schedule (and a task's subtask windows) drawn in ASCII |
//! | `verify_trace` | —     | Re-checks a saved schedule trace against its Pfair windows |
//! | `admitload` | §5.2     | Seeded open-loop join/leave/reweight load against a running `admitd` |
//!
//! The sweep commands accept `--seed`, `--csv` and figure-specific flags
//! (`pfair <command> --help` lists them); defaults are sized so the full
//! suite runs in minutes on a laptop, with paper-scale counts available
//! via flags.
//!
//! Every sweep command runs its points through [`driver::SweepDriver`]:
//! points shard across `--threads N` workers (default: all cores) with
//! output byte-identical for any thread count. A point that panics ends
//! the sweep with exit 101: a point is a pure function of its flags and
//! seed, so a retry could only panic again (see [`driver`]). No sweep
//! persists anything: the longest takes seconds and `(flags, seed)`
//! recomputes it bit for bit. `fig5`, `dhall`, and `show` are single-shot
//! demonstrations and have no pool. Every command declares the flags it
//! reads ([`Flag`], the workspace's one parser in [`daemon::cli`]);
//! anything else on the command line, or a count such as `--tasks 0`
//! outside its range, is a usage error (exit 2), and `--help` prints the
//! declared list.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod driver;
pub mod fig2;
pub mod fig34;
pub mod locksim;
pub mod metrics;
pub mod quantum;
pub mod tournament;

pub use daemon::cli::{Args, Flag};
pub use driver::{SweepDriver, SWEEP_FLAGS};
pub use metrics::{recorder, write_metrics, METRICS_FLAGS};
