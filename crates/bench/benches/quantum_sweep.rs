//! Quantum-size sweep (ablation E11): the M-search of
//! `pd2_processors_required` over one task set at q = 0.1, 1 and 10 ms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use overhead::{pd2_processors_required, OverheadParams};
use pfair_model::PhysTask;
use std::hint::black_box;

fn quantum_sweep(c: &mut Criterion) {
    // How expensive is re-running the whole analysis per quantum size?
    let base = OverheadParams::paper2003();
    let tasks: Vec<PhysTask> = {
        let mut gen = workload::TaskSetGenerator::new(50, 10.0, 3)
            .with_quantum(10_000)
            .with_period_range(10_000, 1_000_000);
        gen.generate().tasks
    };
    let d = vec![33.3; tasks.len()];
    let mut group = c.benchmark_group("quantum_sweep");
    for &q in &[100u64, 1_000, 10_000] {
        let params = OverheadParams {
            quantum_us: q,
            ..base
        };
        group.bench_with_input(BenchmarkId::from_parameter(q), &tasks, |b, tasks| {
            b.iter(|| black_box(pd2_processors_required(tasks, &params, &d, 200)));
        });
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
    targets = quantum_sweep
}
criterion_main!(benches);
