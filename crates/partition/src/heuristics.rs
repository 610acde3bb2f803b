//! Bin-packing heuristics: First/Best/Worst/Next Fit (± decreasing orders).
//!
//! The paper (Section 3): "Several polynomial-time heuristics have been
//! proposed … First Fit: each task is assigned to the first processor that
//! can accept it … Best Fit: … minimal remaining spare capacity after its
//! addition. First Fit Decreasing: FF with tasks considered in order of
//! decreasing utilizations."

use crate::accept::Acceptance;

/// Which bin-packing heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// First processor that accepts the task.
    FirstFit,
    /// Accepting processor with minimal spare capacity after addition.
    BestFit,
    /// Accepting processor with maximal spare capacity after addition.
    WorstFit,
    /// Current processor, else open a new one (never revisits).
    NextFit,
}

impl Heuristic {
    /// All heuristics, for sweeps.
    pub const ALL: [Heuristic; 4] = [
        Heuristic::FirstFit,
        Heuristic::BestFit,
        Heuristic::WorstFit,
        Heuristic::NextFit,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::FirstFit => "FF",
            Heuristic::BestFit => "BF",
            Heuristic::WorstFit => "WF",
            Heuristic::NextFit => "NF",
        }
    }
}

/// The named packing schemes of the multi-criteria tournament (Lupu et
/// al., PAPERS.md): the four online heuristics in arrival order plus the
/// two offline decreasing-utilization variants. FFD/BFD are FF/BF with a
/// [`SortOrder::DecreasingUtilization`] pre-sort — the single source of
/// truth for sweeps that iterate "all partitioning schemes".
pub const PACKING_SCHEMES: [(Heuristic, SortOrder, &str); 6] = [
    (Heuristic::FirstFit, SortOrder::None, "FF"),
    (Heuristic::BestFit, SortOrder::None, "BF"),
    (Heuristic::WorstFit, SortOrder::None, "WF"),
    (Heuristic::NextFit, SortOrder::None, "NF"),
    (Heuristic::FirstFit, SortOrder::DecreasingUtilization, "FFD"),
    (Heuristic::BestFit, SortOrder::DecreasingUtilization, "BFD"),
];

/// Pre-sorting applied before packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortOrder {
    /// Tasks in their given order (online arrival order).
    #[default]
    None,
    /// Decreasing utilization (FFD/BFD — offline only, as the paper notes).
    DecreasingUtilization,
    /// Decreasing period — required by the overhead-aware EDF test so each
    /// task's `max D(U)` term is known at acceptance time (Section 4).
    DecreasingPeriod,
}

/// A successful partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionResult {
    /// `assignment[i]` = processor index of task `i`.
    pub assignment: Vec<u32>,
    /// Number of processors used.
    pub processors: u32,
}

impl PartitionResult {
    /// Tasks assigned to each processor.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut g = vec![Vec::new(); self.processors as usize];
        for (task, &proc) in self.assignment.iter().enumerate() {
            g[proc as usize].push(task);
        }
        g
    }
}

/// Orders task indices according to `order`, given per-task `(util, period)`
/// ranking keys.
fn ordered_indices(n: usize, order: SortOrder, keys: impl Fn(usize) -> (f64, u64)) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    match order {
        SortOrder::None => {}
        SortOrder::DecreasingUtilization => {
            idx.sort_by(|&a, &b| {
                keys(b)
                    .0
                    .partial_cmp(&keys(a).0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
        }
        SortOrder::DecreasingPeriod => {
            idx.sort_by(|&a, &b| keys(b).1.cmp(&keys(a).1).then(a.cmp(&b)));
        }
    }
    idx
}

/// Packs `n` tasks onto at most `max_procs` processors. Returns `None` if
/// some task fits nowhere within the limit.
///
/// # Examples
///
/// ```
/// use partition::{partition, EdfUtilization, Heuristic, SortOrder};
///
/// // The paper's Section-1 example: three weight-2/3 tasks need THREE
/// // processors under any partitioning (PD² needs two).
/// let tasks = [(2u64, 3u64), (2, 3), (2, 3)];
/// let acc = EdfUtilization::new(&tasks);
/// let keys = |i: usize| (2.0 / 3.0, tasks[i].1);
/// assert!(partition(3, &acc, Heuristic::FirstFit, SortOrder::None, 2, keys).is_none());
/// let r = partition(3, &acc, Heuristic::FirstFit, SortOrder::None, 3, keys).unwrap();
/// assert_eq!(r.processors, 3);
/// ```
///
/// `keys(i)` supplies `(utilization, period)` for the pre-sort only; the
/// actual fitting decisions are entirely the acceptance test's.
pub fn partition<A: Acceptance>(
    n: usize,
    acc: &A,
    heuristic: Heuristic,
    order: SortOrder,
    max_procs: u32,
    keys: impl Fn(usize) -> (f64, u64),
) -> Option<PartitionResult> {
    partition_with_obs(
        n,
        acc,
        heuristic,
        order,
        max_procs,
        keys,
        &PartitionObs::new(&obs::Recorder::disabled()),
    )
}

/// Pre-registered instruments for the packing hot path: the number of
/// bins probed for a placement ("partition.bins_probed"),
/// acceptance-test evaluations ("partition.accept_evals"), and bins
/// opened ("partition.bins_opened"). Callers that partition in a loop
/// build one handle bundle up front and pass it to
/// [`partition_with_obs`] instead of re-registering the counters through
/// the recorder's registry mutex on every call (the `SchedObs`/`SimObs`
/// idiom from `pfair-core`/`sched-sim`).
pub struct PartitionObs {
    bins_probed: obs::Counter,
    accept_evals: obs::Counter,
    bins_opened: obs::Counter,
}

impl PartitionObs {
    /// Registers the `partition.*` instruments in `rec`.
    pub fn new(rec: &obs::Recorder) -> Self {
        PartitionObs {
            bins_probed: rec.counter("partition.bins_probed"),
            accept_evals: rec.counter("partition.accept_evals"),
            bins_opened: rec.counter("partition.bins_opened"),
        }
    }
}

/// [`partition`] counting its work through a caller-held
/// [`PartitionObs`].
#[allow(clippy::too_many_arguments)]
pub fn partition_with_obs<A: Acceptance>(
    n: usize,
    acc: &A,
    heuristic: Heuristic,
    order: SortOrder,
    max_procs: u32,
    keys: impl Fn(usize) -> (f64, u64),
    po: &PartitionObs,
) -> Option<PartitionResult> {
    let PartitionObs {
        bins_probed,
        accept_evals,
        bins_opened,
    } = po;
    // Counted try_add: every acceptance evaluation probes one bin.
    let probe = |state: &A::ProcState, task: usize| {
        bins_probed.incr();
        accept_evals.incr();
        acc.try_add(state, task)
    };

    let idx = ordered_indices(n, order, keys);
    let mut states: Vec<A::ProcState> = Vec::new();
    let mut assignment = vec![u32::MAX; n];
    let mut next_fit_cursor = 0usize;

    for &task in &idx {
        let chosen: Option<usize> = match heuristic {
            Heuristic::FirstFit => (0..states.len()).find(|&p| probe(&states[p], task).is_some()),
            Heuristic::BestFit | Heuristic::WorstFit => {
                let mut best: Option<(usize, f64)> = None;
                for (p, state) in states.iter().enumerate() {
                    if let Some(next) = probe(state, task) {
                        let spare = acc.spare(&next);
                        let better = match best {
                            None => true,
                            Some((_, s)) => match heuristic {
                                Heuristic::BestFit => spare < s,
                                _ => spare > s,
                            },
                        };
                        if better {
                            best = Some((p, spare));
                        }
                    }
                }
                best.map(|(p, _)| p)
            }
            Heuristic::NextFit => (next_fit_cursor < states.len()
                && probe(&states[next_fit_cursor], task).is_some())
            .then_some(next_fit_cursor),
        };
        match chosen {
            Some(p) => {
                accept_evals.incr();
                states[p] = acc.try_add(&states[p], task).expect("re-check");
                assignment[task] = p as u32;
            }
            None => {
                // Open a new processor.
                if states.len() as u32 >= max_procs {
                    return None;
                }
                accept_evals.incr();
                let fresh = acc.try_add(&acc.empty(), task)?;
                bins_opened.incr();
                states.push(fresh);
                assignment[task] = (states.len() - 1) as u32;
                next_fit_cursor = states.len() - 1;
            }
        }
    }
    Some(PartitionResult {
        assignment,
        processors: states.len() as u32,
    })
}

/// Convenience: packs with an unbounded processor supply and returns the
/// count needed (the paper's Fig. 3 metric), or `None` if some task fits on
/// no processor even alone.
pub fn partition_unbounded<A: Acceptance>(
    n: usize,
    acc: &A,
    heuristic: Heuristic,
    order: SortOrder,
    keys: impl Fn(usize) -> (f64, u64),
) -> Option<PartitionResult> {
    partition(n, acc, heuristic, order, u32::MAX, keys)
}

/// [`partition_unbounded`] counting its work through a caller-held
/// [`PartitionObs`] (see [`partition_with_obs`]).
pub fn partition_unbounded_with_obs<A: Acceptance>(
    n: usize,
    acc: &A,
    heuristic: Heuristic,
    order: SortOrder,
    keys: impl Fn(usize) -> (f64, u64),
    po: &PartitionObs,
) -> Option<PartitionResult> {
    partition_with_obs(n, acc, heuristic, order, u32::MAX, keys, po)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accept::EdfUtilization;
    use proptest::prelude::*;

    fn keys_for(tasks: &[(u64, u64)]) -> impl Fn(usize) -> (f64, u64) + '_ {
        move |i| {
            let (e, p) = tasks[i];
            (e as f64 / p as f64, p)
        }
    }

    #[test]
    fn first_fit_packs_classic_example() {
        // Three 2/3 tasks: each needs its own processor under partitioning
        // (the paper's Section-1 example) — 3 processors, vs 2 for PD².
        let tasks = [(2u64, 3u64), (2, 3), (2, 3)];
        let acc = EdfUtilization::new(&tasks);
        let r = partition_unbounded(
            3,
            &acc,
            Heuristic::FirstFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        assert_eq!(r.processors, 3);
        assert_eq!(r.assignment, vec![0, 1, 2]);
    }

    #[test]
    fn first_fit_reuses_processors() {
        let tasks = [(1u64, 2u64), (1, 3), (1, 2), (1, 3)];
        let acc = EdfUtilization::new(&tasks);
        let r = partition_unbounded(
            4,
            &acc,
            Heuristic::FirstFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        // 1/2+1/3 fits; next 1/2 opens proc 1; next 1/3 joins proc 1.
        assert_eq!(r.processors, 2);
        assert_eq!(r.assignment, vec![0, 0, 1, 1]);
        assert_eq!(r.groups(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn best_fit_prefers_tighter_bin() {
        // Bins after two big tasks: 0.5 used / 0.75 used. A 0.25 task: BF
        // picks the 0.75 bin (leaves 0), FF picks the 0.5 bin.
        let tasks = [(1u64, 2u64), (3, 4), (1, 4), (1, 4)];
        let acc = EdfUtilization::new(&tasks);
        let ff = partition_unbounded(
            4,
            &acc,
            Heuristic::FirstFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        assert_eq!(ff.assignment[2], 0);
        let bf = partition_unbounded(
            4,
            &acc,
            Heuristic::BestFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        assert_eq!(bf.assignment[2], 1, "BF fills the fuller bin");
        // WF spreads.
        let wf = partition_unbounded(
            4,
            &acc,
            Heuristic::WorstFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        assert_eq!(wf.assignment[2], 0);
    }

    #[test]
    fn next_fit_never_looks_back() {
        let tasks = [(1u64, 2u64), (3, 4), (1, 2), (1, 4)];
        let acc = EdfUtilization::new(&tasks);
        let nf = partition_unbounded(
            4,
            &acc,
            Heuristic::NextFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        // 0.5 on p0; 0.75 doesn't fit → p1; 0.5 doesn't fit p1 (1.25) → p2;
        // 0.25 fits p2.
        assert_eq!(nf.assignment, vec![0, 1, 2, 2]);
        let ff = partition_unbounded(
            4,
            &acc,
            Heuristic::FirstFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        assert!(ff.processors <= nf.processors);
    }

    #[test]
    fn decreasing_utilization_helps() {
        // FFD classic: items 0.6, 0.6, 0.3, 0.3, 0.2 — FF order uses 3
        // bins... construct order-sensitive case: [0.3, 0.6, 0.3, 0.6, 0.2]
        // FF: p0={0.3,0.6}, p1={0.3,0.6}, 0.2 → p0? 0.3+0.6+0.2=1.1 no;
        // p1 same; p2. FFD: 0.6,0.6,0.3,0.3,0.2 → p0={0.6,0.3}, p1={0.6,0.3},
        // 0.2 → p0? 1.1 no, p1 no, p2… also 3. Use exact-fit case instead:
        // [0.4, 0.4, 0.6, 0.6]: FF: {0.4,0.4}, {0.6}, {0.6} = 3 bins;
        // FFD: {0.6,0.4}, {0.6,0.4} = 2 bins.
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
        assert_eq!(ff.processors, 3);
        let ffd = partition_unbounded(
            4,
            &acc,
            Heuristic::FirstFit,
            SortOrder::DecreasingUtilization,
            keys_for(&tasks),
        )
        .unwrap();
        assert_eq!(ffd.processors, 2);
    }

    #[test]
    fn decreasing_period_order() {
        let tasks = [(1u64, 10u64), (1, 30), (1, 20)];
        let acc = EdfUtilization::new(&tasks);
        let r = partition_unbounded(
            3,
            &acc,
            Heuristic::FirstFit,
            SortOrder::DecreasingPeriod,
            keys_for(&tasks),
        )
        .unwrap();
        // All fit on one processor regardless; order affects nothing here,
        // but the sort must not crash or drop tasks.
        assert_eq!(r.processors, 1);
        assert!(r.assignment.iter().all(|&p| p == 0));
    }

    #[test]
    fn respects_processor_limit() {
        let tasks = [(2u64, 3u64), (2, 3), (2, 3)];
        let acc = EdfUtilization::new(&tasks);
        assert!(partition(
            3,
            &acc,
            Heuristic::FirstFit,
            SortOrder::None,
            2,
            keys_for(&tasks)
        )
        .is_none());
        assert!(partition(
            3,
            &acc,
            Heuristic::FirstFit,
            SortOrder::None,
            3,
            keys_for(&tasks)
        )
        .is_some());
    }

    #[test]
    fn empty_set_uses_zero_processors() {
        let tasks: [(u64, u64); 0] = [];
        let acc = EdfUtilization::new(&tasks);
        let r = partition_unbounded(
            0,
            &acc,
            Heuristic::FirstFit,
            SortOrder::None,
            keys_for(&tasks),
        )
        .unwrap();
        assert_eq!(r.processors, 0);
    }

    proptest! {
        /// Whatever the heuristic, the result is a valid packing: every
        /// processor's load passes the acceptance test built up task by task.
        #[test]
        fn prop_valid_packing(
            raw in prop::collection::vec((1u64..10, 1u64..20), 1..12),
            h in prop::sample::select(Heuristic::ALL.to_vec()),
            ord in prop::sample::select(vec![
                SortOrder::None,
                SortOrder::DecreasingUtilization,
                SortOrder::DecreasingPeriod,
            ]),
        ) {
            let tasks: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
            let acc = EdfUtilization::new(&tasks);
            let r = partition_unbounded(tasks.len(), &acc, h, ord, keys_for(&tasks)).unwrap();
            prop_assert_eq!(r.assignment.len(), tasks.len());
            // Rebuild every processor's state and confirm U ≤ 1.
            for group in r.groups() {
                let mut s = acc.empty();
                for t in group {
                    s = acc.try_add(&s, t).expect("group must satisfy acceptance");
                }
            }
            // First Fit never uses more than 2·⌈U⌉ + 1 processors (loose
            // sanity bound: each new bin is opened only when all existing
            // are > half full... for EDF bins, every pair of bins sums > 1).
            if h == Heuristic::FirstFit {
                let total: f64 = tasks.iter().map(|&(e, p)| e as f64 / p as f64).sum();
                prop_assert!((r.processors as f64) <= 2.0 * total + 1.0);
            }
        }

        /// FFD never uses more processors than plain FF on EDF bins? (Not a
        /// theorem in general bin packing for every instance — so we assert
        /// the weaker, always-true property: both produce valid packings and
        /// processor counts within ±: |FFD − FF| bounded by count.)
        #[test]
        fn prop_ffd_reasonable(
            raw in prop::collection::vec((1u64..10, 1u64..20), 1..12),
        ) {
            let tasks: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
            let acc = EdfUtilization::new(&tasks);
            let ff = partition_unbounded(tasks.len(), &acc, Heuristic::FirstFit, SortOrder::None, keys_for(&tasks)).unwrap();
            let ffd = partition_unbounded(tasks.len(), &acc, Heuristic::FirstFit, SortOrder::DecreasingUtilization, keys_for(&tasks)).unwrap();
            let total: f64 = tasks.iter().map(|&(e, p)| e as f64 / p as f64).sum();
            prop_assert!(ffd.processors as f64 >= total - 1e-9_f64);
            prop_assert!(ff.processors as f64 >= total - 1e-9_f64);
        }
    }
}
