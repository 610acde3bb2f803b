//! Equation (3) inflation benches: the PD² fixed point, the M-search of
//! `pd2_processors_required` and the per-set `D(T)` draws that feed it, and
//! the quantum-size sweep (ablation E11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use overhead::{inflate_pd2, pd2_processors_required, OverheadParams};
use pfair_bench::phys_pairs;
use pfair_model::PhysTask;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use workload::CacheDelayDist;

fn fixed_point(c: &mut Criterion) {
    let params = OverheadParams::paper2003();
    c.bench_function("inflate_pd2_fixed_point", |b| {
        let t = PhysTask::new(9_990, 20_000);
        b.iter(|| black_box(inflate_pd2(t, &params, 8, 500, 33.3).unwrap().quanta));
    });
}

fn processors_required(c: &mut Criterion) {
    let params = OverheadParams::paper2003();
    let mut group = c.benchmark_group("pd2_processors_required");
    for &n in &[50usize, 250] {
        let tasks: Vec<PhysTask> = phys_pairs(n, n as f64 / 5.0, 5)
            .into_iter()
            .map(|(e, p)| PhysTask::new(e, p))
            .collect();
        let d = vec![33.3; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &tasks, |b, tasks| {
            b.iter(|| black_box(pd2_processors_required(tasks, &params, &d, 4 * n as u32)));
        });
    }
    group.finish();
}

fn cache_delay(c: &mut Criterion) {
    // One Fig. 3 set's worth of delays: one rate solve, then 250 draws.
    let dist = CacheDelayDist::paper2003();
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("cache_delay_sample_n");
    group.bench_with_input(BenchmarkId::from_parameter(250), &250usize, |b, &n| {
        b.iter(|| black_box(dist.sample_n(&mut rng, n)));
    });
    group.finish();
}

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
    targets = fixed_point, processors_required, cache_delay, quantum_sweep
}
criterion_main!(benches);
