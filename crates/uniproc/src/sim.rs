//! Event-driven uniprocessor simulator for EDF and RM.
//!
//! The simulator advances directly from event to event (job releases and
//! completions) instead of ticking every time unit, so horizons of 10⁶
//! time units — the paper's measurement horizon for Fig. 2 — are cheap.
//!
//! The ready queue is a binary heap, as in the implementation the paper
//! measured ("We used binary heaps to implement the priority queues of
//! both schedulers", Section 4). Scheduler *invocations* are counted at
//! every job release and completion, matching the paper's description of
//! when the EDF scheduler runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Priority discipline for the uniprocessor simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// Earliest-deadline-first (dynamic priority; deadline = period end).
    Edf,
    /// Rate-monotonic (static priority; smaller period = higher priority).
    Rm,
}

/// A pending job in the ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    /// Priority key: absolute deadline (EDF) or period (RM); smaller wins.
    key: u64,
    /// Release time (for response-time accounting).
    release: u64,
    /// Tie-break sequence number (FIFO within equal priority).
    seq: u64,
    /// Index of the owning task.
    task: u32,
    /// Absolute deadline (for miss detection).
    deadline: u64,
    /// Remaining execution.
    remaining: u64,
}

// Min-order by (key, seq): BinaryHeap<Reverse<Job>> pops smallest.
impl Ord for Job {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.seq, self.task).cmp(&(other.key, other.seq, other.task))
    }
}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Counters collected over a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniStats {
    /// Sum of job response times (completion − release), for mean
    /// computation; time units of the simulation.
    pub response_sum: u64,
    /// Largest single job response time.
    pub response_max: u64,
    /// Scheduler invocations (one per job release and per job completion).
    pub invocations: u64,
    /// Preemptions: a running job displaced by a higher-priority release.
    pub preemptions: u64,
    /// Context switches: loads of a job that is not the one just running
    /// (≤ 2 × jobs for EDF, the bound used in the paper's Section 4).
    pub context_switches: u64,
    /// Completed jobs.
    pub completed_jobs: u64,
    /// Released jobs.
    pub released_jobs: u64,
    /// Jobs that completed after their deadline (or were still late at the
    /// horizon).
    pub deadline_misses: u64,
    /// Total idle time units.
    pub idle_time: u64,
}

/// Event-driven uniprocessor simulator over synchronous periodic tasks
/// given as `(exec, period)` pairs (any time unit; deadlines are implicit,
/// equal to periods).
///
/// # Examples
///
/// ```
/// use uniproc::{Discipline, UniSim};
///
/// // Liu & Layland's classic pair: U = 1/2 + 2/5 = 0.9.
/// let mut sim = UniSim::new(&[(1, 2), (2, 5)], Discipline::Edf);
/// let stats = sim.run(10_000);
/// assert_eq!(stats.deadline_misses, 0);
/// assert_eq!(stats.idle_time, 1_000); // 10% idle
/// ```
#[derive(Debug)]
pub struct UniSim {
    tasks: Vec<(u64, u64)>,
    discipline: Discipline,
    ready: BinaryHeap<Reverse<Job>>,
    /// Release event queue: (next release time, task index), one entry per
    /// task — O(log N) per release instead of an O(N) scan, matching the
    /// event-timer implementation the paper's measurements assume.
    releases: BinaryHeap<Reverse<(u64, u32)>>,
    running: Option<Job>,
    /// Task index of the last job that occupied the processor.
    last_on_cpu: Option<u32>,
    now: u64,
    seq: u64,
    stats: UniStats,
}

impl UniSim {
    /// Creates a simulator. Every task must have `0 < exec ≤ period`.
    pub fn new(tasks: &[(u64, u64)], discipline: Discipline) -> Self {
        for &(e, p) in tasks {
            assert!(e > 0 && p > 0 && e <= p, "invalid task (e={e}, p={p})");
        }
        UniSim {
            tasks: tasks.to_vec(),
            discipline,
            ready: BinaryHeap::with_capacity(tasks.len()),
            releases: (0..tasks.len() as u32).map(|i| Reverse((0, i))).collect(),
            running: None,
            last_on_cpu: None,
            now: 0,
            seq: 0,
            stats: UniStats::default(),
        }
    }

    fn release_due(&mut self) {
        while let Some(&Reverse((rel, i))) = self.releases.peek() {
            if rel > self.now {
                break;
            }
            self.releases.pop();
            let (e, p) = self.tasks[i as usize];
            self.ready.push(Reverse(Job {
                key: match self.discipline {
                    Discipline::Edf => rel + p,
                    Discipline::Rm => p,
                },
                seq: self.seq,
                task: i,
                release: rel,
                deadline: rel + p,
                remaining: e,
            }));
            self.seq += 1;
            self.releases.push(Reverse((rel + p, i)));
            self.stats.released_jobs += 1;
            self.stats.invocations += 1;
        }
    }

    /// Earliest future release time, if any.
    fn next_release_time(&self) -> u64 {
        self.releases
            .peek()
            .map(|&Reverse((t, _))| t)
            .unwrap_or(u64::MAX)
    }

    /// Ensures the highest-priority pending job is running, counting
    /// preemptions and context switches.
    fn dispatch(&mut self) {
        let Some(&Reverse(top)) = self.ready.peek() else {
            return;
        };
        match self.running {
            Some(cur) if cur <= top => {} // current job keeps the CPU
            Some(cur) => {
                // Preempted by a higher-priority job.
                self.ready.pop();
                self.ready.push(Reverse(cur));
                self.running = Some(top);
                self.stats.preemptions += 1;
                self.stats.context_switches += 1;
                self.last_on_cpu = Some(top.task);
            }
            None => {
                self.ready.pop();
                self.running = Some(top);
                if self.last_on_cpu != Some(top.task) {
                    self.stats.context_switches += 1;
                }
                self.last_on_cpu = Some(top.task);
            }
        }
    }

    /// Runs until `horizon`, returning the accumulated statistics.
    ///
    /// The returned `deadline_misses` includes both jobs that *completed*
    /// late and jobs still pending past their deadline at the horizon
    /// (so chronic starvation is visible). The internal counter (and hence
    /// [`Self::stats`]) tracks only completed-late jobs; the pending-late
    /// adjustment is recomputed per call, keeping repeated incremental
    /// `run` calls consistent with a single fresh run.
    pub fn run(&mut self, horizon: u64) -> UniStats {
        assert!(horizon >= self.now, "horizon precedes current time");
        while self.now < horizon {
            self.release_due();
            self.dispatch();
            let next_rel = self.next_release_time().min(horizon);
            match self.running.as_mut() {
                None => {
                    // Idle until the next release (or the horizon).
                    self.stats.idle_time += next_rel - self.now;
                    self.now = next_rel;
                }
                Some(job) => {
                    let completion = self.now + job.remaining;
                    if completion <= next_rel {
                        // Run to completion.
                        self.now = completion;
                        if completion > job.deadline {
                            self.stats.deadline_misses += 1;
                        }
                        let response = completion - job.release;
                        self.stats.response_sum += response;
                        self.stats.response_max = self.stats.response_max.max(response);
                        self.stats.completed_jobs += 1;
                        self.stats.invocations += 1;
                        self.running = None;
                    } else {
                        // Run until the release, then re-evaluate.
                        job.remaining -= next_rel - self.now;
                        self.now = next_rel;
                    }
                }
            }
        }
        let mut snapshot = self.stats;
        snapshot.deadline_misses += self
            .ready
            .iter()
            .map(|Reverse(j)| j)
            .chain(self.running.as_ref())
            .filter(|j| j.deadline <= self.now && j.remaining > 0)
            .count() as u64;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edf_full_utilization_no_misses() {
        // U = 1/2 + 1/3 + 1/6 = 1: EDF schedules it with zero idle.
        let mut sim = UniSim::new(&[(1, 2), (1, 3), (1, 6)], Discipline::Edf);
        let s = sim.run(600);
        assert_eq!(s.deadline_misses, 0);
        assert_eq!(s.idle_time, 0);
        assert_eq!(s.completed_jobs, 300 + 200 + 100);
    }

    #[test]
    fn edf_overload_misses() {
        // U = 2/3 + 2/3 > 1: misses are inevitable.
        let mut sim = UniSim::new(&[(2, 3), (2, 3)], Discipline::Edf);
        let s = sim.run(300);
        assert!(s.deadline_misses > 0);
    }

    #[test]
    fn rm_liu_layland_counterexample() {
        // The classic U = 5/6 pair that RM cannot schedule but EDF can:
        // (1,2) & (2,5)? That one RM *can* schedule. Use (2,5) & (4,7):
        // U ≈ 0.971 > 2(√2−1); RM misses, EDF does not.
        let tasks = [(2u64, 5u64), (4, 7)];
        let mut rm = UniSim::new(&tasks, Discipline::Rm);
        let rm_stats = rm.run(35 * 20);
        assert!(rm_stats.deadline_misses > 0, "RM must miss: {rm_stats:?}");
        let mut edf = UniSim::new(&tasks, Discipline::Edf);
        let edf_stats = edf.run(35 * 20);
        assert_eq!(edf_stats.deadline_misses, 0, "EDF schedules U ≤ 1");
    }

    #[test]
    fn rm_prefers_short_period() {
        // RM: the (1,2) task preempts the long-running (5,10) job at every
        // release.
        let mut sim = UniSim::new(&[(5, 10), (1, 2)], Discipline::Rm);
        let s = sim.run(1000);
        assert_eq!(s.deadline_misses, 0);
        assert!(s.preemptions > 0);
    }

    #[test]
    fn edf_preemption_bound() {
        // Under EDF the number of preemptions is at most the number of jobs
        // (paper, Section 4), hence context switches ≤ 2 × jobs.
        let mut sim = UniSim::new(&[(1, 3), (2, 7), (3, 11), (1, 5)], Discipline::Edf);
        let s = sim.run(100_000);
        assert!(s.preemptions <= s.released_jobs);
        assert!(s.context_switches <= 2 * s.released_jobs);
    }

    #[test]
    fn invocations_count_releases_and_completions() {
        let mut sim = UniSim::new(&[(1, 4)], Discipline::Edf);
        let s = sim.run(40);
        assert_eq!(s.released_jobs, 10);
        assert_eq!(s.completed_jobs, 10);
        assert_eq!(s.invocations, 20);
    }

    #[test]
    fn idle_time_accounting() {
        let mut sim = UniSim::new(&[(1, 4)], Discipline::Edf);
        let s = sim.run(400);
        assert_eq!(s.idle_time, 300);
    }

    #[test]
    fn incremental_runs_accumulate() {
        let mut sim = UniSim::new(&[(1, 2), (2, 5)], Discipline::Edf);
        sim.run(100);
        let s = sim.run(200);
        let mut fresh = UniSim::new(&[(1, 2), (2, 5)], Discipline::Edf);
        let f = fresh.run(200);
        assert_eq!(s, f, "resume must match a fresh run");
    }

    #[test]
    #[should_panic(expected = "invalid task")]
    fn rejects_overloaded_task() {
        let _ = UniSim::new(&[(3, 2)], Discipline::Edf);
    }

    #[test]
    fn single_task_exact_schedule() {
        // One task (3,5): runs 3, idles 2, repeats.
        let mut sim = UniSim::new(&[(3, 5)], Discipline::Rm);
        let s = sim.run(50);
        assert_eq!(s.completed_jobs, 10);
        assert_eq!(s.idle_time, 20);
        assert_eq!(s.preemptions, 0);
        assert_eq!(s.deadline_misses, 0);
    }
}
