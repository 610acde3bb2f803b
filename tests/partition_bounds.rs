//! E8 — Section 3's analytic claims about partitioning, checked against
//! the actual heuristics and against PD².

use partition::{
    lopez_schedulable, partition, partition_unbounded, EdfUtilization, Heuristic, SortOrder,
};
use pfair_core::sched::SchedConfig;
use pfair_model::TaskSet;
use sched_sim::MultiSim;

fn keys_for(tasks: &[(u64, u64)]) -> impl Fn(usize) -> (f64, u64) + '_ {
    move |i| {
        let (e, p) = tasks[i];
        (e as f64 / p as f64, p)
    }
}

/// "M + 1 tasks, each with utilization (1 + ε)/2, cannot be partitioned on
/// M processors, regardless of the partitioning heuristic" — while PD²
/// schedules them on ⌈U⌉ ≈ (M+1)/2 processors.
#[test]
fn half_plus_epsilon_witness() {
    for m in [2u32, 4, 8] {
        let tasks: Vec<(u64, u64)> = vec![(51, 100); m as usize + 1];
        let acc = EdfUtilization::new(&tasks);
        for h in Heuristic::ALL {
            for ord in [SortOrder::None, SortOrder::DecreasingUtilization] {
                assert!(
                    partition(tasks.len(), &acc, h, ord, m, keys_for(&tasks)).is_none(),
                    "M={m} {}",
                    h.name()
                );
            }
        }
        // PD² schedules the same set on ⌈(M+1)·0.51⌉ processors.
        let set = TaskSet::from_pairs(tasks.iter().copied()).unwrap();
        let pd2_m = set.min_processors();
        assert!(pd2_m < m + 1, "PD2 uses {pd2_m} < {} processors", m + 1);
        let mut sim = MultiSim::new(&set, SchedConfig::pd2(pd2_m));
        assert_eq!(sim.run(3_000).misses, 0);
    }
}

/// The Lopez bound is tight from below: a set at the bound packs, one just
/// above it may not. We verify soundness across a β × M grid by filling
/// with u = 1/β tasks.
#[test]
fn lopez_soundness_grid() {
    for beta in 1u64..=6 {
        for m in 1u32..=8 {
            // Total utilization at the bound: (βm + 1)/(β + 1), built from
            // tasks of utilization exactly 1/β … keep within it.
            let bound_num = beta as u128 * m as u128 + 1;
            let bound_den = beta as u128 + 1;
            // count/β ≤ bound ⇒ count ≤ β·bound.
            let count = (beta as u128 * bound_num / bound_den) as usize;
            let tasks: Vec<(u64, u64)> = vec![(1, beta); count];
            if !lopez_schedulable(&tasks, m) {
                continue; // floor artifacts: the grid point overshoots
            }
            let acc = EdfUtilization::new(&tasks);
            let r = partition(
                tasks.len(),
                &acc,
                Heuristic::FirstFit,
                SortOrder::None,
                m,
                keys_for(&tasks),
            );
            assert!(r.is_some(), "β={beta} m={m} count={count} must pack");
        }
    }
}

/// The paper's Section-1 example: 3 × (2, 3) needs 3 processors
/// partitioned but only 2 under PD² — the headline gap.
#[test]
fn section1_example_gap() {
    let tasks = [(2u64, 3u64), (2, 3), (2, 3)];
    let acc = EdfUtilization::new(&tasks);
    let part = partition_unbounded(
        3,
        &acc,
        Heuristic::FirstFit,
        SortOrder::None,
        keys_for(&tasks),
    )
    .unwrap();
    assert_eq!(part.processors, 3);

    let set = TaskSet::from_pairs(tasks.iter().copied()).unwrap();
    assert_eq!(set.min_processors(), 2);
    let mut sim = MultiSim::new(&set, SchedConfig::pd2(2));
    let metrics = sim.run(3_000);
    assert_eq!(metrics.misses, 0);
    assert_eq!(metrics.idle_quanta, 0);
}

/// FFD dominates plain FF on the classic adversarial layout, and both
/// agree with the exact-fit optimum there.
#[test]
fn ffd_beats_ff_on_adversarial_layout() {
    // utilizations 0.4, 0.4, 0.6, 0.6 (see heuristics unit tests).
    let tasks = [(2u64, 5u64), (2, 5), (3, 5), (3, 5)];
    let acc = EdfUtilization::new(&tasks);
    let ff = partition_unbounded(
        4,
        &acc,
        Heuristic::FirstFit,
        SortOrder::None,
        keys_for(&tasks),
    )
    .unwrap();
    let ffd = partition_unbounded(
        4,
        &acc,
        Heuristic::FirstFit,
        SortOrder::DecreasingUtilization,
        keys_for(&tasks),
    )
    .unwrap();
    assert_eq!(ff.processors, 3);
    assert_eq!(ffd.processors, 2);
}

/// ROADMAP 1(a): on the generator's default periods (any multiple of 1 ms
/// up to 1 s) a bin's exact utilization sum outgrows `i128`, and
/// `EdfUtilization` used to decide `state + u ≤ 1` on the wrapped sum —
/// FFD/BFD packings ended with bins at 1.02–1.16. Replays every packing of
/// the benchmark's seed-1 default-period probe (n = 1000, U = 250) bin by
/// bin, in the packer's own order, and requires each task to have fitted
/// by the subtraction form `u ≤ 1 − state`, which cannot overflow.
#[test]
fn default_period_packings_never_overfill_a_bin() {
    use pfair_model::Rat;
    use workload::TaskSetGenerator;

    for s in 0..10u64 {
        let set_seed = 0x0100_0000_01B3u64.wrapping_add(s);
        let pairs: Vec<(u64, u64)> = TaskSetGenerator::new(1000, 250.0, set_seed)
            .generate()
            .iter()
            .map(|t| (t.wcet_us, t.period_us))
            .collect();
        let acc = EdfUtilization::new(&pairs);
        let keys = keys_for(&pairs);
        // Decreasing utilization, ties by index: the order FFD/BFD pack in.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by(|&a, &b| keys(b).0.total_cmp(&keys(a).0).then(a.cmp(&b)));
        for h in [Heuristic::FirstFit, Heuristic::BestFit] {
            let r = partition_unbounded(
                pairs.len(),
                &acc,
                h,
                SortOrder::DecreasingUtilization,
                &keys,
            )
            .expect("an unbounded packing always succeeds");
            let mut bins = vec![Rat::ZERO; r.processors as usize];
            for &i in &order {
                let u = Rat::new(pairs[i].0 as i128, pairs[i].1 as i128);
                let bin = &mut bins[r.assignment[i] as usize];
                assert!(
                    u <= bin.one_minus(),
                    "set {s} {}: task {i} ({u}) overfills bin {} at {bin}",
                    h.name(),
                    r.assignment[i]
                );
                *bin = bin
                    .checked_add(u)
                    .expect("a sum the packer accepted is representable");
            }
        }
    }
}
