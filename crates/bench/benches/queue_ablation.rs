//! Ready-queue ablation (E20): how much of the PD² scheduling overhead is
//! the data structure? The paper measured binary heaps, and so does
//! `PfairScheduler`; this bench times all three [`QueueKind`]s on the
//! traffic a Pfair ready queue sees.
//!
//! One iteration is one slot on `M = 4` under plain Pfair eligibility:
//! every subtask whose pseudo-release is due enters the queue keyed by its
//! pseudo-deadline, then the four earliest deadlines are popped and each
//! served task's next subtask waits for its release. The pop order is
//! total, so all three structures see the same pushes and pops in the same
//! order.
//!
//! Expected shape: sorted-vec wins for small N (cache-friendly, O(1) pop),
//! the heap wins as N grows, linear scan degrades fastest — i.e. the
//! paper's absolute overhead numbers are partly a data-structure choice,
//! while the growth-with-N claim is robust across all three.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pfair_bench::quantum_workload;
use pfair_bench::queue::{MinQueue, QueueKind};
use pfair_model::TaskSet;
use std::hint::black_box;

const PROCESSORS: usize = 4;

/// One task's window recurrence, advanced without a division per subtask:
/// `r(Tᵢ₊₁) = ⌊i·p/e⌋` and `d(Tᵢ) = ⌈i·p/e⌉`.
struct Windows {
    exec: u64,
    /// `p / e` and `p % e`: what one more subtask adds to `i·p/e`.
    quot: u64,
    rem: u64,
    /// `⌊i·p/e⌋` and `i·p mod e` for the pending subtask `i`.
    floor: u64,
    frac: u64,
}

impl Windows {
    /// Moves on to the next subtask and returns its pseudo-release.
    fn advance(&mut self) -> u64 {
        let release = self.floor;
        self.floor += self.quot;
        self.frac += self.rem;
        if self.frac >= self.exec {
            self.frac -= self.exec;
            self.floor += 1;
        }
        release
    }

    fn deadline(&self) -> u64 {
        self.floor + u64::from(self.frac != 0)
    }
}

/// The queue under test plus the state that feeds it.
struct Traffic {
    tasks: Vec<Windows>,
    /// Tasks whose pending subtask is released in slot `t`, at index
    /// `t & (len − 1)`; `len` exceeds the longest window.
    releases: Vec<Vec<u32>>,
    /// `(pseudo-deadline, task)`: 16 bytes, like the scheduler's entry.
    ready: MinQueue<(u64, u32)>,
    now: u64,
}

impl Traffic {
    fn new(set: &TaskSet, kind: QueueKind) -> Self {
        let mut tasks: Vec<Windows> = set
            .iter()
            .map(|(_, t)| Windows {
                exec: t.exec,
                quot: t.period / t.exec,
                rem: t.period % t.exec,
                floor: 0,
                frac: 0,
            })
            .collect();
        let longest = tasks.iter().map(|t| t.quot).max().unwrap_or(0) + 2;
        let mut releases = vec![Vec::new(); (longest as usize).next_power_of_two()];
        for (id, t) in tasks.iter_mut().enumerate() {
            releases[t.advance() as usize].push(id as u32);
        }
        Traffic {
            tasks,
            releases,
            ready: MinQueue::new(kind),
            now: 0,
        }
    }

    /// One slot; returns how many processors were given a subtask.
    fn tick(&mut self) -> usize {
        let mask = self.releases.len() as u64 - 1;
        let mut due = std::mem::take(&mut self.releases[(self.now & mask) as usize]);
        for id in due.drain(..) {
            self.ready.push((self.tasks[id as usize].deadline(), id));
        }
        self.releases[(self.now & mask) as usize] = due; // keep its capacity

        let mut served = 0;
        while served < PROCESSORS {
            let Some((_, id)) = self.ready.pop() else {
                break;
            };
            let release = self.tasks[id as usize].advance().max(self.now + 1);
            self.releases[(release & mask) as usize].push(id);
            served += 1;
        }
        self.now += 1;
        served
    }
}

fn queue_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ready_queue_slot");
    for kind in QueueKind::ALL {
        for &n in &[50usize, 250, 1000] {
            let tasks = quantum_workload(n, PROCESSORS as u32, 42);
            group.throughput(Throughput::Elements(1));
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &tasks, |b, tasks| {
                let mut traffic = Traffic::new(tasks, kind);
                b.iter(|| black_box(traffic.tick()));
            });
        }
    }
    group.finish();
}

/// Trimmed criterion settings: the benches compare alternatives spanning
/// orders of magnitude, so short measurement windows resolve them fine —
/// and the full suite stays minutes, not hours, on one core.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = queue_ablation
}
criterion_main!(benches);
