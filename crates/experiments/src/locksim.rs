//! Sub-quantum lock simulation over a Pfair schedule ("skip locking"),
//! the simulator behind `pfair locking` (paper §5.1).
//!
//! The paper's claim: "the tight synchrony in Pfair scheduling can be
//! exploited to simplify task synchronization. Specifically, each
//! subtask's execution is effectively non-preemptive within its time
//! slot. As a result, problems stemming from the use of locks can be
//! altogether avoided by ensuring that all locks are released before each
//! quantum boundary … When critical-section durations are short compared
//! to the quantum length … this approach can be used to provide
//! synchronization with very little overhead."
//!
//! The global Pfair scheduler fixes, per slot, which tasks run on the `M`
//! processors. Within a slot each task executes non-preemptively for one
//! quantum of `q` µs. This simulator adds critical sections: each scheduled
//! quantum, a task may request a lock on one of `R` shared resources at a
//! random offset, holding it for a random duration.
//!
//! Protocol (paper §5.1): **all locks are released by the quantum
//! boundary**. A request whose critical section cannot complete before the
//! boundary is *deferred*: the task does other work now and retries at
//! offset 0 of its next scheduled quantum (where a section of length ≤ q
//! always fits). A request for a busy resource spins until the holder
//! releases — which is always within the same quantum, so the wait is
//! bounded by one critical-section length.
//!
//! Spinning consumes the requester's own quantum (a real cost); deferral
//! costs latency but no processor time. Both are measured.

use pfair_model::{Slot, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Critical-section workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct CsConfig {
    /// Quantum length in µs.
    pub quantum_us: u64,
    /// Number of distinct shared resources.
    pub resources: usize,
    /// Probability that a scheduled quantum issues one lock request.
    pub request_prob: f64,
    /// Critical-section length range (µs), sampled uniformly.
    pub cs_len_us: (u64, u64),
    /// RNG seed.
    pub seed: u64,
}

/// Aggregate lock statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LockStats {
    /// Lock acquisitions that completed.
    pub completed: u64,
    /// Requests deferred to a later quantum (would have crossed the
    /// boundary).
    pub deferrals: u64,
    /// Total spin time waiting for busy resources (µs).
    pub total_spin_us: u64,
    /// Worst single spin (µs).
    pub max_spin_us: u64,
    /// Worst end-to-end latency from first request to critical-section
    /// completion, in slots (deferral cost).
    pub max_latency_slots: u64,
    /// Locks still held at any quantum boundary (must stay 0 — the
    /// protocol's invariant).
    pub boundary_violations: u64,
}

impl LockStats {
    /// Mean spin per completed acquisition (µs).
    pub fn mean_spin_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_spin_us as f64 / self.completed as f64
        }
    }
}

/// A deferred request carried to the task's next quantum.
#[derive(Debug, Clone, Copy)]
struct Pending {
    resource: usize,
    len_us: u64,
    requested_at: Slot,
}

/// Sub-quantum lock simulator (see module docs).
#[derive(Debug)]
pub struct LockSim {
    cfg: CsConfig,
    rng: StdRng,
    /// Deferred request per task, if any.
    pending: Vec<Option<Pending>>,
    stats: LockStats,
}

impl LockSim {
    /// Creates a simulator for `n_tasks` tasks.
    pub fn new(n_tasks: usize, cfg: CsConfig) -> Self {
        assert!(cfg.resources > 0);
        assert!(cfg.cs_len_us.0 <= cfg.cs_len_us.1);
        assert!(
            cfg.cs_len_us.1 <= cfg.quantum_us,
            "critical sections must fit inside one quantum"
        );
        LockSim {
            rng: StdRng::seed_from_u64(cfg.seed),
            pending: vec![None; n_tasks],
            cfg,
            stats: LockStats::default(),
        }
    }

    /// Processes one slot of a recorded schedule: `scheduled` are the tasks
    /// running in this slot (each on its own processor).
    fn on_slot(&mut self, t: Slot, scheduled: &[TaskId]) {
        let q = self.cfg.quantum_us;
        // Collect this quantum's requests: deferred ones restart at offset
        // 0; fresh ones draw a random offset and length.
        struct Req {
            task: usize,
            resource: usize,
            offset: u64,
            len: u64,
            requested_at: Slot,
        }
        let mut requests: Vec<Req> = Vec::new();
        for &id in scheduled {
            let i = id.index();
            if let Some(p) = self.pending[i].take() {
                requests.push(Req {
                    task: i,
                    resource: p.resource,
                    offset: 0,
                    len: p.len_us,
                    requested_at: p.requested_at,
                });
            } else if self.rng.gen_bool(self.cfg.request_prob) {
                let len = self
                    .rng
                    .gen_range(self.cfg.cs_len_us.0..=self.cfg.cs_len_us.1);
                let offset = self.rng.gen_range(0..q);
                requests.push(Req {
                    task: i,
                    resource: self.rng.gen_range(0..self.cfg.resources),
                    offset,
                    len,
                    requested_at: t,
                });
            }
        }
        // Resolve in offset order; per-resource release time within the
        // quantum implements FIFO spinning. Equal offsets (deferred retries
        // all restart at 0) are ordered oldest-request-first — the ticket
        // discipline that keeps repeated deferral starvation-free.
        requests.sort_by_key(|r| (r.offset, r.requested_at, r.task));
        let mut busy_until = vec![0u64; self.cfg.resources];
        for r in requests {
            let start = r.offset.max(busy_until[r.resource]);
            if start + r.len > q {
                // Would cross the boundary (directly, or pushed past it by
                // spinning): defer to the task's next quantum.
                self.stats.deferrals += 1;
                self.pending[r.task] = Some(Pending {
                    resource: r.resource,
                    len_us: r.len,
                    requested_at: r.requested_at,
                });
                continue;
            }
            let spin = start - r.offset;
            self.stats.total_spin_us += spin;
            self.stats.max_spin_us = self.stats.max_spin_us.max(spin);
            busy_until[r.resource] = start + r.len;
            self.stats.completed += 1;
            let latency = t - r.requested_at;
            self.stats.max_latency_slots = self.stats.max_latency_slots.max(latency);
        }
        // Invariant: nothing spans the boundary (busy_until ≤ q always by
        // the check above).
        if busy_until.iter().any(|&b| b > q) {
            self.stats.boundary_violations += 1;
        }
    }

    /// Runs over a full recorded schedule.
    pub fn run_schedule(&mut self, schedule: &[Vec<TaskId>]) -> LockStats {
        for (t, slot) in schedule.iter().enumerate() {
            self.on_slot(t as Slot, slot);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::sched::SchedConfig;
    use pfair_model::TaskSet;
    use sched_sim::MultiSim;

    /// A paper-flavoured workload: 1 ms quantum, critical sections of
    /// "tens of microseconds" (§5.1 cites Ramamurthy's measurements).
    fn short_sections() -> CsConfig {
        CsConfig {
            quantum_us: 1_000,
            resources: 4,
            request_prob: 0.5,
            cs_len_us: (5, 50),
            seed: 1,
        }
    }

    fn schedule_for(pairs: &[(u64, u64)], horizon: u64) -> (TaskSet, Vec<Vec<TaskId>>) {
        let set = TaskSet::from_pairs(pairs.iter().copied()).unwrap();
        let m = set.min_processors();
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(m));
        sim.record_schedule();
        sim.run(horizon);
        let sched = sim.schedule().unwrap().to_vec();
        (set, sched)
    }

    #[test]
    fn no_boundary_violations_ever() {
        let (set, sched) = schedule_for(&[(2, 3), (2, 3), (2, 3), (1, 2)], 3_000);
        let mut sim = LockSim::new(set.len(), short_sections());
        let stats = sim.run_schedule(&sched);
        assert_eq!(stats.boundary_violations, 0);
        assert!(stats.completed > 0);
    }

    #[test]
    fn spin_bounded_by_contention() {
        // With R resources and M processors, a request can wait for at most
        // M−1 earlier sections in its quantum; with short sections this is
        // ≪ q. Check the empirical bound: max spin ≤ (M−1)·max_cs.
        let (set, sched) = schedule_for(&[(2, 3), (2, 3), (2, 3), (2, 3), (2, 3), (2, 3)], 6_000);
        let m = 4; // Σ = 4
        let cfg = CsConfig {
            resources: 1, // maximal contention
            request_prob: 1.0,
            ..short_sections()
        };
        let mut sim = LockSim::new(set.len(), cfg);
        let stats = sim.run_schedule(&sched);
        assert!(stats.completed > 0);
        assert!(
            stats.max_spin_us <= (m - 1) * cfg.cs_len_us.1,
            "max spin {} > bound {}",
            stats.max_spin_us,
            (m - 1) * cfg.cs_len_us.1
        );
    }

    #[test]
    fn deferrals_are_rare_for_short_sections() {
        // CS ≤ 50 µs in a 1000 µs quantum: only requests in the last 5% of
        // the quantum (or pushed there by spinning) defer.
        let (set, sched) = schedule_for(&[(1, 2), (1, 3), (1, 4), (1, 5)], 10_000);
        let mut sim = LockSim::new(set.len(), short_sections());
        let stats = sim.run_schedule(&sched);
        let defer_rate = stats.deferrals as f64 / (stats.completed + stats.deferrals) as f64;
        assert!(defer_rate < 0.10, "deferral rate {defer_rate}");
        assert_eq!(stats.boundary_violations, 0);
    }

    #[test]
    fn long_sections_defer_often() {
        let (set, sched) = schedule_for(&[(1, 2), (1, 2)], 5_000);
        let cfg = CsConfig {
            cs_len_us: (800, 1_000), // nearly a whole quantum
            request_prob: 1.0,
            ..short_sections()
        };
        let mut sim = LockSim::new(set.len(), cfg);
        let stats = sim.run_schedule(&sched);
        assert!(stats.deferrals > stats.completed / 2);
        assert_eq!(stats.boundary_violations, 0);
    }

    #[test]
    fn deferred_request_completes_next_quantum() {
        // A single task scheduled every other slot; force a deferral and
        // watch the latency: at most the gap to the next quantum.
        let (set, sched) = schedule_for(&[(1, 2)], 100);
        let cfg = CsConfig {
            cs_len_us: (1_000, 1_000), // always exactly one quantum
            request_prob: 1.0,
            resources: 1,
            quantum_us: 1_000,
            seed: 3,
        };
        let mut sim = LockSim::new(set.len(), cfg);
        let stats = sim.run_schedule(&sched);
        // A full-quantum section fits only when requested at offset 0 —
        // i.e. only as a deferred retry.
        assert!(stats.completed > 0);
        assert!(stats.max_latency_slots >= 1, "deferral must cost a window");
        assert!(
            stats.max_latency_slots <= 2,
            "retry lands in the next window"
        );
    }

    #[test]
    fn stats_helpers() {
        let s = LockStats {
            completed: 4,
            total_spin_us: 10,
            ..LockStats::default()
        };
        assert_eq!(s.mean_spin_us(), 2.5);
        assert_eq!(LockStats::default().mean_spin_us(), 0.0);
    }

    #[test]
    #[should_panic(expected = "fit inside one quantum")]
    fn oversized_sections_rejected() {
        let cfg = CsConfig {
            cs_len_us: (10, 2_000),
            ..short_sections()
        };
        let _ = LockSim::new(2, cfg);
    }
}
