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
//! Expected shape: all three grow with N, so the paper's growth-with-N
//! claim does not hang on the heap. At 90 % load a released subtask is
//! served long before N of them pile up, so the queue stays short: heap
//! and sorted-vec sit close together and only the linear scan falls
//! behind as N grows (EXPERIMENTS.md, E20).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pfair_bench::quantum_workload;
use pfair_bench::queue::{MinQueue, QueueKind};
use pfair_core::subtask::{self, SubtaskIndex};
use pfair_model::{TaskSet, Weight};
use std::hint::black_box;

const PROCESSORS: usize = 4;

/// The queue under test plus the state that feeds it.
struct Traffic {
    /// Each task's weight and pending subtask.
    tasks: Vec<(Weight, SubtaskIndex)>,
    /// Tasks whose pending subtask is released in slot `t`, at index
    /// `t & (len − 1)`; `len` exceeds the longest window.
    releases: Vec<Vec<u32>>,
    /// `(pseudo-deadline, task)`: 16 bytes, like the scheduler's entry.
    ready: MinQueue<(u64, u32)>,
    now: u64,
}

impl Traffic {
    fn new(set: &TaskSet, kind: QueueKind) -> Self {
        let tasks: Vec<(Weight, SubtaskIndex)> = set.iter().map(|(_, t)| (t.weight(), 1)).collect();
        // A served task's next release is at most ⌈p/e⌉ slots ahead.
        let longest = tasks.iter().map(|&(w, _)| subtask::window_len(w, 1)).max();
        let mut releases =
            vec![Vec::new(); (longest.unwrap_or(0) as usize + 1).next_power_of_two()];
        releases[0] = (0..tasks.len() as u32).collect();
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
            let (w, i) = self.tasks[id as usize];
            self.ready.push((subtask::deadline(w, i), id));
        }
        self.releases[(self.now & mask) as usize] = due; // keep its capacity

        let mut served = 0;
        while served < PROCESSORS {
            let Some((_, id)) = self.ready.pop() else {
                break;
            };
            let (w, i) = &mut self.tasks[id as usize];
            *i += 1;
            let release = subtask::release(*w, *i).max(self.now + 1);
            debug_assert!(release - self.now <= mask, "release beyond the wheel");
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
