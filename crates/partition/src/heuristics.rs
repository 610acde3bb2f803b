//! Bin-packing heuristics: First/Best/Worst/Next Fit (± decreasing orders).
//!
//! The paper (Section 3): "Several polynomial-time heuristics have been
//! proposed … First Fit: each task is assigned to the first processor that
//! can accept it … Best Fit: … minimal remaining spare capacity after its
//! addition. First Fit Decreasing: FF with tasks considered in order of
//! decreasing utilizations."

use crate::accept::Acceptance;
use std::cmp::Ordering;
use std::collections::BTreeSet;

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

/// Bits of a packed `DecreasingPeriod` sort key below the period: the
/// task index.
const INDEX_BITS: u32 = 20;
/// Periods below `2^PERIOD_BITS` pack beside an index into one `u64`.
const PERIOD_BITS: u32 = u64::BITS - INDEX_BITS;

/// Orders task indices according to `order`, given per-task `(util, period)`
/// ranking keys. Each key is read once; ties go to the lower index, so
/// the order is total and the permutation unique.
fn ordered_indices(n: usize, order: SortOrder, keys: impl Fn(usize) -> (f64, u64)) -> Vec<usize> {
    match order {
        SortOrder::None => (0..n).collect(),
        // `total_cmp`, not `partial_cmp`: a NaN key must not make the
        // comparator inconsistent, which `sort` may answer by panicking. On
        // the keys the workspace makes (finite, non-negative) the two agree.
        SortOrder::DecreasingUtilization => by_descending(n, |i| keys(i).0, f64::total_cmp),
        SortOrder::DecreasingPeriod => {
            // One `u64` per task, the complemented period above the index,
            // sorts as (descending period, ascending index) by plain
            // integer compares.
            let pack = |i: usize| {
                let period = keys(i).1;
                (period < 1 << PERIOD_BITS).then_some((!period << INDEX_BITS) | i as u64)
            };
            if n < 1 << INDEX_BITS {
                let mut packed = Vec::with_capacity(n);
                packed.extend((0..n).map_while(pack));
                if packed.len() == n {
                    packed.sort_unstable();
                    let index_mask = (1 << INDEX_BITS) - 1;
                    return packed
                        .into_iter()
                        .map(|key| (key & index_mask) as usize)
                        .collect();
                }
            }
            by_descending(n, |i| keys(i).1, u64::cmp)
        }
    }
}

/// Indices `0..n` by descending `key` under `cmp`, ties to the lower
/// index, each key read once.
fn by_descending<K>(
    n: usize,
    key: impl Fn(usize) -> K,
    cmp: impl Fn(&K, &K) -> Ordering,
) -> Vec<usize> {
    let mut pairs: Vec<(K, usize)> = (0..n).map(|i| (key(i), i)).collect();
    pairs.sort_unstable_by(|a, b| cmp(&b.0, &a.0).then(a.1.cmp(&b.1)));
    pairs.into_iter().map(|(_, i)| i).collect()
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

/// Pre-registered instruments for the packing hot path: every bin looked
/// at for a placement ("partition.bins_probed"), exact acceptance-test
/// evaluations, one per `try_add` call ("partition.accept_evals"), bins
/// opened ("partition.bins_opened"), and bins the screen proved fit but
/// `try_add` refused ("partition.inexact_refusals"; for
/// [`EdfUtilization`](crate::EdfUtilization), bins whose exact sum does not
/// fit `i128`; a refusal within the screen's margin of the edge is not
/// counted). Callers that partition in a loop build one handle bundle up
/// front and pass it to [`partition_unbounded_with_obs`] instead of
/// re-registering the counters through the recorder's registry mutex on
/// every call (the `SchedObs`/`SimObs` idiom from `pfair-core`/`sched-sim`).
pub struct PartitionObs {
    bins_probed: obs::Counter,
    accept_evals: obs::Counter,
    bins_opened: obs::Counter,
    inexact_refusals: obs::Counter,
}

impl PartitionObs {
    /// Registers the `partition.*` instruments in `rec`.
    pub fn new(rec: &obs::Recorder) -> Self {
        PartitionObs {
            bins_probed: rec.counter("partition.bins_probed"),
            accept_evals: rec.counter("partition.accept_evals"),
            bins_opened: rec.counter("partition.bins_opened"),
            inexact_refusals: rec.counter("partition.inexact_refusals"),
        }
    }
}

/// One task's probes: its screen bounds, and the exact evaluations and
/// inexact refusals they cost.
struct Probe<'a, A> {
    acc: &'a A,
    task: usize,
    refuse_above: f64,
    fits_at_or_below: f64,
    evals: u64,
    inexact: u64,
}

impl<'a, A: Acceptance> Probe<'a, A> {
    fn new(acc: &'a A, task: usize) -> Self {
        let (refuse_above, fits_at_or_below) = acc.room(task);
        Probe {
            acc,
            task,
            refuse_above,
            fits_at_or_below,
            evals: 0,
            inexact: 0,
        }
    }

    /// `load > refuse_above`: the screen proves the bin refuses. A NaN
    /// load proves nothing.
    fn refused(&self, load: f64) -> bool {
        load > self.refuse_above
    }

    /// `try_add` on a bin of this `load` the screen does not refuse.
    fn exact(&mut self, state: &A::ProcState, load: f64) -> Option<A::ProcState> {
        self.evals += 1;
        let next = self.acc.try_add(state, self.task);
        if next.is_none() && load <= self.fits_at_or_below {
            self.inexact += 1;
        }
        next
    }
}

/// The bins of a Best or Worst Fit packing ordered by screen load:
/// `(order_key(load), bin)` for every bin whose load is a number, and
/// the bins whose load is NaN beside them, which every probe evaluates.
#[derive(Default)]
struct LoadIndex {
    by_load: BTreeSet<(u64, u32)>,
    nan: Vec<u32>,
    /// One probe's candidates, kept to reuse the allocation.
    candidates: Vec<u32>,
}

impl LoadIndex {
    fn insert(&mut self, bin: usize, load: f64) {
        if load.is_nan() {
            self.nan.push(bin as u32);
        } else {
            self.by_load.insert((order_key(load), bin as u32));
        }
    }

    fn remove(&mut self, bin: usize, load: f64) {
        if load.is_nan() {
            self.nan.retain(|&b| b != bin as u32);
        } else {
            self.by_load.remove(&(order_key(load), bin as u32));
        }
    }
}

/// `x`'s place in the total order of the non-NaN `f64`s, with `−0.0`
/// folded into `+0.0` so that the two tie, as they do under `<=`: for
/// non-NaN `x` and `y`, `x <= y` iff `order_key(x) <= order_key(y)`.
fn order_key(x: f64) -> u64 {
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The Best/Worst Fit pick among `states`: the bin with the least
/// (`best`) or greatest spare after adding the probe's task, the lowest
/// index among ties, with its successor state.
///
/// A rank of `±load` orders bins as the screen estimates their spare
/// (higher is better). The best-ranked bin that surely fits, the anchor,
/// is one lookup in `index`, and is checked first. If it fits, the
/// pick's spare is at least as good as its, so by the
/// [`RANK_SLACK`](Acceptance::RANK_SLACK) bound the pick, and every bin
/// tied with it, ranks no lower than `2·RANK_SLACK` below it: only those
/// are evaluated, and they are one range of `index`. Otherwise every bin
/// the screen does not refuse is. Bins are evaluated in bin order, the
/// anchor first.
fn best_or_worst<A: Acceptance>(
    probe: &mut Probe<'_, A>,
    states: &[A::ProcState],
    loads: &[f64],
    index: &mut LoadIndex,
    best: bool,
) -> Option<(usize, A::ProcState)> {
    let (acc, sign) = (probe.acc, if best { 1.0 } else { -1.0 });
    let better = |spare: f64, than: f64| if best { spare < than } else { spare > than };
    let LoadIndex {
        by_load,
        nan,
        candidates,
    } = index;
    // The greatest (`best`) or least load `<= fits_at_or_below`, the
    // lowest bin among ties.
    let fits = probe.fits_at_or_below;
    let anchor = if fits.is_nan() {
        None
    } else if best {
        by_load
            .range(..=(order_key(fits), u32::MAX))
            .next_back()
            .and_then(|&(key, _)| by_load.range((key, 0)..).next())
    } else {
        by_load.first().filter(|&&(key, _)| key <= order_key(fits))
    }
    .map(|&(_, bin)| bin as usize);
    // The pick and, once another bin has competed with it, its spare.
    let mut pick: Option<(usize, Option<f64>, A::ProcState)> = None;
    // The anchor's rank once it is known to fit. A bin ranked more than
    // `band` below it is skipped; `f64` subtraction rounds monotonically,
    // so a computed gap above `band` is a real one, the gaps grow along
    // the index away from the anchor, and a NaN gap skips nothing.
    let mut anchored: Option<f64> = None;
    let band = 2.0 * A::RANK_SLACK;
    if let Some(a) = anchor {
        if let Some(next) = probe.exact(&states[a], loads[a]) {
            pick = Some((a, None, next));
            anchored = Some(sign * loads[a]);
        }
    }
    // Loads above `refuse_above` are refused; a NaN bound refuses none.
    let top = probe.refuse_above;
    let top = if top.is_nan() {
        u64::MAX
    } else {
        order_key(top)
    };
    let unrefused = by_load.range(..=(top, u32::MAX)).map(|&(_, bin)| bin);
    let below_band =
        |bin: u32| anchored.is_some_and(|rank| rank - sign * loads[bin as usize] > band);
    candidates.clear();
    if best {
        candidates.extend(unrefused.rev().take_while(|&bin| !below_band(bin)));
    } else {
        candidates.extend(unrefused.take_while(|&bin| !below_band(bin)));
    }
    candidates.extend_from_slice(nan);
    candidates.sort_unstable();
    for &p in candidates.iter() {
        let p = p as usize;
        if anchor == Some(p) {
            continue;
        }
        let Some(next) = probe.exact(&states[p], loads[p]) else {
            continue;
        };
        let spare = match &mut pick {
            None => None,
            Some((q, held, state)) => {
                let held = *held.get_or_insert_with(|| acc.spare(state));
                let spare = acc.spare(&next);
                if !(better(spare, held) || (spare == held && p < *q)) {
                    continue;
                }
                Some(spare)
            }
        };
        pick = Some((p, spare, next));
    }
    pick.map(|(p, _, next)| (p, next))
}

/// [`partition`] counting its work through a caller-held
/// [`PartitionObs`].
///
/// Every packing is the one an exact evaluation of every bin would give:
/// the acceptance test's screen (see [`Acceptance`]) only decides which
/// bins need no `try_add`, and the chosen bin's `try_add` result is kept.
#[allow(clippy::too_many_arguments)]
fn partition_with_obs<A: Acceptance>(
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
        inexact_refusals,
    } = po;
    let idx = ordered_indices(n, order, keys);
    let mut states: Vec<A::ProcState> = Vec::new();
    // `acc.load` of each bin, beside it, and for Best and Worst Fit in
    // the index too.
    let mut loads: Vec<f64> = Vec::new();
    let indexed = matches!(heuristic, Heuristic::BestFit | Heuristic::WorstFit);
    let mut index = LoadIndex::default();
    let mut assignment = vec![u32::MAX; n];
    let mut next_fit_cursor = 0usize;

    for &task in &idx {
        let mut probe = Probe::new(acc, task);
        // Counted once per placement: a task may look at every open bin,
        // and a bin the screen refuses costs less than two counter checks.
        let (chosen, probed) = match heuristic {
            Heuristic::FirstFit => {
                let mut found = None;
                let mut from = 0;
                while let Some(skip) = loads[from..].iter().position(|&l| !probe.refused(l)) {
                    let p = from + skip;
                    if let Some(next) = probe.exact(&states[p], loads[p]) {
                        found = Some((p, next));
                        break;
                    }
                    from = p + 1;
                }
                let probed = found.as_ref().map_or(states.len(), |(p, _)| p + 1);
                (found, probed)
            }
            Heuristic::BestFit | Heuristic::WorstFit => {
                let best = heuristic == Heuristic::BestFit;
                let pick = best_or_worst(&mut probe, &states, &loads, &mut index, best);
                (pick, states.len())
            }
            Heuristic::NextFit => match states.get(next_fit_cursor) {
                Some(state) => {
                    let load = loads[next_fit_cursor];
                    let next = if probe.refused(load) {
                        None
                    } else {
                        probe.exact(state, load)
                    };
                    (next.map(|next| (next_fit_cursor, next)), 1)
                }
                None => (None, 0),
            },
        };
        bins_probed.add(probed as u64);
        inexact_refusals.add(probe.inexact);
        accept_evals.add(probe.evals);
        match chosen {
            Some((p, next)) => {
                let load = acc.load(&next);
                if indexed {
                    index.remove(p, loads[p]);
                    index.insert(p, load);
                }
                loads[p] = load;
                states[p] = next;
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
                let load = acc.load(&fresh);
                if indexed {
                    index.insert(states.len(), load);
                }
                loads.push(load);
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
/// [`PartitionObs`].
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
    use crate::accept::{EdfOverheadAware, EdfUtilization, RmExact, RmLiuLayland};
    use overhead::OverheadParams;
    use pfair_model::{PhysTask, Rat};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn screened_ties_go_to_the_lowest_index() {
        // Bins of 5/8 and 5/8 − 2⁻⁵³, whose `f64` loads differ, then a task
        // of 2⁻⁵⁴: both sums round to 5/8, so Best and Worst Fit tie and
        // must take bin 0, though it ranks below the bin the screen
        // anchors on.
        let near = ((5 << 50) - 1, 1 << 53);
        for (h, first) in [(Heuristic::BestFit, near), (Heuristic::WorstFit, (5, 8))] {
            let second = if first == near { (5, 8) } else { near };
            let tasks = [first, second, (1, 1 << 54)];
            let acc = EdfUtilization::new(&tasks);
            let r = partition_unbounded(3, &acc, h, SortOrder::None, keys_for(&tasks)).unwrap();
            assert_eq!(r.assignment, vec![0, 1, 0], "{h:?}");
        }
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
        // Utilizations [0.4, 0.4, 0.6, 0.6]: FF pairs the two 0.4s and
        // gives each 0.6 a bin of its own (3 bins); FFD pairs each 0.6 with
        // a 0.4 (2 bins).
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

    /// [`ordered_indices`] as it stood before keys were read once,
    /// verbatim: the oracle for the pair and packed-key sorts. (Its
    /// `DecreasingUtilization` arm may panic on a NaN key.)
    fn parent_ordered_indices(
        n: usize,
        order: SortOrder,
        keys: impl Fn(usize) -> (f64, u64),
    ) -> Vec<usize> {
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

    #[test]
    fn nan_utilization_keys_sort_without_panicking() {
        // A fifth of 250 keys NaN: the parent's `partial_cmp(..)
        // .unwrap_or(Equal)` is then no total order, and `sort_by` may
        // panic on it (it did for 1,864 of 2,000 such inputs). NaN keys
        // sort first, as `total_cmp` ranks them above every number; the
        // rest keep their order.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let utils: Vec<f64> = (0..250)
                .map(|_| {
                    if rng.gen_range(0..5) == 0 {
                        f64::NAN
                    } else {
                        rng.gen_range(0..40) as f64 / 40.0
                    }
                })
                .collect();
            let keys = |i: usize| (utils[i], 1_000);
            let order = ordered_indices(250, SortOrder::DecreasingUtilization, keys);
            let nans = utils.iter().filter(|u| u.is_nan()).count();
            assert!(order[..nans].iter().all(|&i| utils[i].is_nan()));
            assert!(order[..nans].windows(2).all(|w| w[0] < w[1]));
            let numbers: Vec<usize> = (0..250).filter(|&i| !utils[i].is_nan()).collect();
            let by_number = |i: usize| (utils[numbers[i]], 1_000);
            let want =
                parent_ordered_indices(numbers.len(), SortOrder::DecreasingUtilization, by_number);
            let want: Vec<usize> = want.into_iter().map(|i| numbers[i]).collect();
            assert_eq!(order[nans..], want[..]);
            // And FFD packs such a set without panicking.
            let pairs: Vec<(u64, u64)> = (1..=250).map(|i| (1, 40 + i)).collect();
            let acc = EdfUtilization::new(&pairs);
            let r = partition_unbounded(
                250,
                &acc,
                Heuristic::FirstFit,
                SortOrder::DecreasingUtilization,
                keys,
            );
            assert_eq!(r.map(|r| r.assignment.len()), Some(250));
        }
    }

    /// [`partition_with_obs`] as it stood before the screen, verbatim but
    /// for the `..` over the counter it did not have: the oracle for the
    /// screened loop.
    #[allow(clippy::too_many_arguments)]
    fn parent_partition_with_obs<A: Acceptance>(
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
            ..
        } = po;
        let idx = ordered_indices(n, order, keys);
        let mut states: Vec<A::ProcState> = Vec::new();
        let mut assignment = vec![u32::MAX; n];
        let mut next_fit_cursor = 0usize;

        for &task in &idx {
            // Every probe is one acceptance evaluation of one bin, counted once
            // per placement: a task may probe every open bin, and a probe the
            // test refuses with one compare costs less than two counter checks.
            let (chosen, probed): (Option<usize>, usize) = match heuristic {
                Heuristic::FirstFit => {
                    let found = states.iter().position(|s| acc.try_add(s, task).is_some());
                    (found, found.map_or(states.len(), |p| p + 1))
                }
                Heuristic::BestFit | Heuristic::WorstFit => {
                    let mut best: Option<(usize, f64)> = None;
                    for (p, state) in states.iter().enumerate() {
                        if let Some(next) = acc.try_add(state, task) {
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
                    (best.map(|(p, _)| p), states.len())
                }
                Heuristic::NextFit => match states.get(next_fit_cursor) {
                    Some(state) => (acc.try_add(state, task).map(|_| next_fit_cursor), 1),
                    None => (None, 0),
                },
            };
            bins_probed.add(probed as u64);
            accept_evals.add(probed as u64);
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

    /// A task set of one of the shapes on which a screen could go wrong,
    /// drawn from `seed`, as `(exec, period)` pairs with `0 < exec ≤
    /// period`.
    fn drawn_set(shape: u8, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        match shape {
            // Small sets.
            0 => {
                for _ in 0..rng.gen_range(1..30) {
                    let p = rng.gen_range(1..20u64);
                    pairs.push((rng.gen_range(1..=p), p));
                }
            }
            // Groups that fill a bin to exactly 1, each over one
            // denominator: small, or past 2^52 so that sums round.
            1 => {
                for _ in 0..rng.gen_range(1..6) {
                    let den = if rng.gen_bool(0.5) {
                        rng.gen_range(2..1_000u64)
                    } else {
                        (1 << 52) + rng.gen_range(0..1_000_000)
                    };
                    let mut left = den;
                    while left > 0 {
                        let part = rng.gen_range(1..=left.min(den / 2 + 1));
                        pairs.push((part, den));
                        left -= part;
                    }
                }
            }
            // A bin one task short of 1 − u, then the task of utilization
            // u: exactly on the edge, a unit of a 2^53 denominator either
            // side, and about 1e-9 either side of it.
            2 => {
                for _ in 0..rng.gen_range(1..8) {
                    let den: u64 = match rng.gen_range(0..3) {
                        0 => 1 << 53,
                        1 => rng.gen_range(1..8u64) * 1_000_000_000,
                        _ => rng.gen_range(2..1_000u64),
                    };
                    let e = rng.gen_range(1..den);
                    let m = (den / 1_000_000_000) as i64;
                    let gaps = [0, 1, -1, m, -m, m + 1, -m - 1, m - 1, 1 - m];
                    let first = (den - e) as i64 + gaps[rng.gen_range(0..gaps.len())];
                    if first > 0 && first as u64 <= den {
                        pairs.push((first as u64, den));
                    }
                    pairs.push((e, den));
                }
            }
            // Runs of identical tasks: Best/Worst Fit's lowest-index rule.
            3 => {
                for _ in 0..rng.gen_range(1..5) {
                    let p = rng.gen_range(2..50u64);
                    let e = rng.gen_range(1..p);
                    for _ in 0..rng.gen_range(1..12) {
                        pairs.push((e, p));
                    }
                }
            }
            // One utilization nudged by a few parts in 2^50..2^58: loads
            // whose `f64` images differ by an ulp or two, or not at all.
            _ => {
                let b = rng.gen_range(2..32u64);
                let a = rng.gen_range(1..b);
                for _ in 0..rng.gen_range(2..40) {
                    let scale = 1u64 << rng.gen_range(50..58);
                    let e = (a * scale).wrapping_add_signed(rng.gen_range(-3..=3i64));
                    pairs.push((e, b * scale));
                }
                for _ in 0..rng.gen_range(0..4) {
                    pairs.push((rng.gen_range(1..4u64), rng.gen_range(4..9u64)));
                }
            }
        }
        // Interleave the groups.
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        pairs
    }

    const ORDERS: [SortOrder; 3] = [
        SortOrder::None,
        SortOrder::DecreasingUtilization,
        SortOrder::DecreasingPeriod,
    ];

    /// Requires the screened loop to pack `pairs` as the parent's does
    /// under `acc`, for every heuristic and order, unbounded and with at
    /// most `limit` processors.
    fn packs_as_the_parent<A: Acceptance>(
        pairs: &[(u64, u64)],
        acc: &A,
        limit: u32,
        name: &str,
    ) -> Result<(), TestCaseError> {
        let off = PartitionObs::new(&obs::Recorder::disabled());
        for h in Heuristic::ALL {
            for ord in ORDERS {
                for max_procs in [u32::MAX, limit] {
                    let run =
                        |f: fn(usize, &A, Heuristic, SortOrder, u32, _, &PartitionObs) -> _| {
                            f(pairs.len(), acc, h, ord, max_procs, keys_for(pairs), &off)
                        };
                    prop_assert_eq!(
                        run(partition_with_obs),
                        run(parent_partition_with_obs),
                        "{} {:?} {:?} max_procs {}",
                        name,
                        h,
                        ord,
                        max_procs
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        /// Every acceptance test packs as the parent's loop did, bin for
        /// bin: small sets, bins landing exactly on 1 and within an ulp
        /// or 1e-9 of the screen's edges, and runs of identical or
        /// near-identical tasks.
        #[test]
        fn prop_screened_packing_matches_the_parents(shape in 0u8..5, seed in 0u64..u64::MAX) {
            let pairs = drawn_set(shape, seed);
            let limit = 1 + (seed % pairs.len() as u64) as u32;
            packs_as_the_parent(&pairs, &EdfUtilization::new(&pairs), limit, "EDF")?;
            packs_as_the_parent(&pairs, &RmLiuLayland::new(&pairs), limit, "RM-LL")?;
            // The time-demand analysis iterates up to a period's length.
            if pairs.iter().all(|&(_, p)| p < 1_000) {
                packs_as_the_parent(&pairs, &RmExact::new(&pairs), limit, "RM-exact")?;
            }
            let phys: Vec<PhysTask> = pairs.iter().map(|&(e, p)| PhysTask::new(e, p)).collect();
            let d: Vec<f64> = (0..pairs.len()).map(|i| (seed >> (i % 32)) as f64 % 100.0).collect();
            for params in [OverheadParams::zero(), OverheadParams::paper2003()] {
                let acc = EdfOverheadAware::new(&phys, &d, params);
                packs_as_the_parent(&pairs, &acc, limit, "EDF-overhead")?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases((ProptestConfig::default().cases / 32).max(2)))]

        /// The exact test packs 1,000 tasks on the generator's default
        /// periods as the parent's loop did, bin for bin, though many of
        /// its bins' exact sums overflow `i128`.
        #[test]
        fn prop_screened_packing_matches_the_parents_on_1000_tasks(
            util in 20.0f64..60.0,
            seed in 0u64..u64::MAX,
        ) {
            let pairs: Vec<(u64, u64)> = workload::TaskSetGenerator::new(1000, util, seed)
                .generate()
                .iter()
                .map(|t| (t.wcet_us, t.period_us))
                .collect();
            packs_as_the_parent(&pairs, &EdfUtilization::new(&pairs), util as u32, "EDF")?;
        }
    }

    /// [`EdfUtilization`] behind a screen shifted down by 1/2, so that
    /// bins load negative, `±0.0` and positive, and with a NaN load on
    /// every bin holding `3 mod 4` tasks. `−0.0` is the load of a bin
    /// summing to exactly 1/2 with an odd task count.
    struct Shifted<'a>(&'a EdfUtilization);

    impl Acceptance for Shifted<'_> {
        /// Tasks in the bin, and its sum.
        type ProcState = (u32, <EdfUtilization as Acceptance>::ProcState);
        const RANK_SLACK: f64 = EdfUtilization::RANK_SLACK;
        fn empty(&self) -> Self::ProcState {
            (0, self.0.empty())
        }
        fn try_add(&self, state: &Self::ProcState, task_idx: usize) -> Option<Self::ProcState> {
            let next = self.0.try_add(&state.1, task_idx)?;
            Some((state.0 + 1, next))
        }
        fn spare(&self, state: &Self::ProcState) -> f64 {
            self.0.spare(&state.1)
        }
        fn load(&self, &(count, ref sum): &Self::ProcState) -> f64 {
            let load = self.0.load(sum) - 0.5;
            match count % 4 {
                3 => f64::NAN,
                _ if load == 0.0 && count % 2 == 1 => -0.0,
                _ => load,
            }
        }
        fn room(&self, task_idx: usize) -> (f64, f64) {
            let (refuse_above, fits_at_or_below) = self.0.room(task_idx);
            (refuse_above - 0.5, fits_at_or_below - 0.5)
        }
    }

    proptest! {
        /// Every heuristic packs as the parent's loop did, bin for bin,
        /// where bin loads are NaN, `−0.0`, `+0.0` and negative: for Best
        /// and Worst Fit, the index's side list, its folded zero and the
        /// negative half of its key order all decide picks.
        #[test]
        fn prop_nan_and_signed_zero_loads_pack_as_the_parents(
            shape in prop::sample::select(vec![0u8, 3]),
            seed in 0u64..u64::MAX,
        ) {
            let mut pairs = drawn_set(shape, seed);
            // Halves and quarters, so that bins land on exactly 1/2.
            pairs.extend([(1, 2), (1, 4), (1, 4), (1, 2), (2, 4)]);
            let inner = EdfUtilization::new(&pairs);
            let limit = 1 + (seed % pairs.len() as u64) as u32;
            packs_as_the_parent(&pairs, &Shifted(&inner), limit, "EDF-shifted")?;
        }
    }

    /// Dyadic bins under a screen with `RANK_SLACK` 1/4: a bin's load is
    /// its exact sum, and `spare` strays from `1 − load` by −1/4 at a
    /// sum of 1/4 and by +1/4 at 3/4. An opener task refuses every bin
    /// that holds a task.
    struct Skewed {
        /// `(size, opener)` per task.
        tasks: Vec<(f64, bool)>,
    }

    impl Acceptance for Skewed {
        /// Load and task count.
        type ProcState = (f64, u32);
        const RANK_SLACK: f64 = 0.25;
        fn empty(&self) -> (f64, u32) {
            (0.0, 0)
        }
        fn try_add(&self, &(load, count): &(f64, u32), task_idx: usize) -> Option<(f64, u32)> {
            let (size, opener) = self.tasks[task_idx];
            (load + size <= 1.0 && !(opener && count > 0)).then_some((load + size, count + 1))
        }
        fn spare(&self, &(load, _): &(f64, u32)) -> f64 {
            let skew = match load {
                0.25 => -0.25,
                0.75 => 0.25,
                _ => 0.0,
            };
            1.0 - load + skew
        }
        fn load(&self, state: &(f64, u32)) -> f64 {
            state.0
        }
        fn room(&self, task_idx: usize) -> (f64, f64) {
            let (size, opener) = self.tasks[task_idx];
            (
                1.0 - size,
                if opener {
                    f64::NEG_INFINITY
                } else {
                    1.0 - size
                },
            )
        }
    }

    #[test]
    fn a_bin_exactly_at_the_band_edge_is_evaluated() {
        // Bins at 0 and 1/2, then a task of 1/4. The anchor, the bin
        // Best Fit (1/2) or Worst Fit (0) ranks first, spares 1/2 after
        // it; so does the other bin, exactly `2·RANK_SLACK` below it in
        // rank. Both break the tie by index, so each takes the bin it
        // opened first, which only an evaluation of it can find.
        let cases = [
            (
                Heuristic::BestFit,
                [(0.0, true), (0.5, true), (0.25, false)],
            ),
            (
                Heuristic::WorstFit,
                [(0.5, true), (0.0, true), (0.25, false)],
            ),
        ];
        for (h, tasks) in cases {
            let acc = Skewed {
                tasks: tasks.to_vec(),
            };
            let off = PartitionObs::new(&obs::Recorder::disabled());
            let keys = |i: usize| (tasks[i].0, 1);
            let run = |f: fn(usize, &Skewed, Heuristic, SortOrder, u32, _, &PartitionObs) -> _| {
                f(3, &acc, h, SortOrder::None, u32::MAX, keys, &off)
            };
            let r = run(partition_with_obs).unwrap();
            assert_eq!(r.assignment, [0, 1, 0], "{h:?}");
            assert_eq!(Some(r), run(parent_partition_with_obs), "{h:?}");
        }
    }

    /// Bins that take any task and tie on spare, loading `−0.0` or `+0.0`
    /// by the parity of their task count, under a screen whose bounds are
    /// both `−0.0`: every bin surely fits, whatever the sign of its zero.
    struct SignedZeros;

    impl Acceptance for SignedZeros {
        /// Tasks in the bin.
        type ProcState = u32;
        const RANK_SLACK: f64 = 0.0;
        fn empty(&self) -> u32 {
            0
        }
        fn try_add(&self, &count: &u32, _: usize) -> Option<u32> {
            Some(count + 1)
        }
        fn spare(&self, _: &u32) -> f64 {
            1.0
        }
        fn load(&self, &count: &u32) -> f64 {
            if count % 2 == 1 {
                -0.0
            } else {
                0.0
            }
        }
        fn room(&self, _: usize) -> (f64, f64) {
            (-0.0, -0.0)
        }
    }

    #[test]
    fn signed_zero_loads_are_one_load() {
        let off = PartitionObs::new(&obs::Recorder::disabled());
        for h in [Heuristic::BestFit, Heuristic::WorstFit] {
            let run =
                |f: fn(usize, &SignedZeros, Heuristic, SortOrder, u32, _, &PartitionObs) -> _| {
                    f(
                        5,
                        &SignedZeros,
                        h,
                        SortOrder::None,
                        u32::MAX,
                        |_| (0.0, 1),
                        &off,
                    )
                };
            let r = run(partition_with_obs).unwrap();
            assert_eq!(r.processors, 1, "{h:?}");
            assert_eq!(Some(r), run(parent_partition_with_obs), "{h:?}");
        }
    }

    /// The exact evaluations each of the six packing schemes spends on one
    /// seeded set of the benchmark's `pack_exact` shape: n = 1,000 at
    /// U = 250 on the 5 ms period grid, about 250 open bins. Counted work,
    /// not a clock: the loop before the screen spent 120–178 evaluations a
    /// task here.
    #[test]
    fn packing_work_is_pinned() {
        let pairs: Vec<(u64, u64)> = workload::TaskSetGenerator::new(1000, 250.0, 1)
            .with_quantum(5_000)
            .with_period_range(10_000, 250_000)
            .generate()
            .iter()
            .map(|t| (t.wcet_us, t.period_us))
            .collect();
        let acc = EdfUtilization::new(&pairs);
        let mut work = Vec::new();
        for (h, ord, name) in PACKING_SCHEMES {
            let rec = obs::Recorder::enabled();
            let r = partition_unbounded_with_obs(
                pairs.len(),
                &acc,
                h,
                ord,
                keys_for(&pairs),
                &PartitionObs::new(&rec),
            )
            .unwrap();
            let count = |name: &str| rec.counter(name).get();
            work.push((
                name,
                r.processors,
                count("partition.accept_evals"),
                count("partition.inexact_refusals"),
            ));
        }
        assert_eq!(
            work,
            [
                ("FF", 255, 1_000, 0),
                ("BF", 254, 1_000, 0),
                ("WF", 275, 1_000, 0),
                ("NF", 298, 1_000, 0),
                ("FFD", 251, 1_000, 0),
                ("BFD", 251, 1_001, 0),
            ]
        );
    }

    /// [`EdfUtilization`] as it was before its common denominator: each
    /// bin's sum is a [`Rat`] in lowest terms, and `load` and `spare` read
    /// that fraction's `to_f64`. The screen's bounds are the test's own.
    struct RatSums<'a> {
        inner: &'a EdfUtilization,
        utils: Vec<Rat>,
    }

    impl<'a> RatSums<'a> {
        fn new(inner: &'a EdfUtilization, pairs: &[(u64, u64)]) -> Self {
            let utils = pairs
                .iter()
                .map(|&(e, p)| Rat::new(e as i128, p as i128))
                .collect();
            RatSums { inner, utils }
        }
    }

    impl Acceptance for RatSums<'_> {
        type ProcState = Rat;
        const RANK_SLACK: f64 = EdfUtilization::RANK_SLACK;
        fn empty(&self) -> Rat {
            Rat::ZERO
        }
        fn try_add(&self, state: &Rat, task_idx: usize) -> Option<Rat> {
            let u = self.utils[task_idx];
            if u > state.one_minus() {
                return None;
            }
            state.checked_add(u)
        }
        fn spare(&self, state: &Rat) -> f64 {
            1.0 - state.to_f64()
        }
        fn load(&self, state: &Rat) -> f64 {
            let load = state.to_f64();
            if (0.0..=1.0).contains(&load) {
                load
            } else {
                f64::NAN
            }
        }
        fn room(&self, task_idx: usize) -> (f64, f64) {
            self.inner.room(task_idx)
        }
    }

    /// Whether every `(heuristic, order)` packs with [`EdfUtilization`],
    /// through today's loop, as the parent's loop packs with [`RatSums`].
    /// Where a common denominator `D` fits, `load` reads `S / D` from the
    /// two numbers' `f64` images, which can be an ulp from the reduced
    /// fraction's; a `spare` read that way ranked the near-identical
    /// tasks of `drawn_set`'s shape 4 apart from the `Rat` sums.
    fn packs_as_rat_sums(
        pairs: &[(u64, u64)],
        schemes: impl IntoIterator<Item = (Heuristic, SortOrder)>,
    ) -> Result<(), TestCaseError> {
        let acc = EdfUtilization::new(pairs);
        let spec = RatSums::new(&acc, pairs);
        let off = PartitionObs::new(&obs::Recorder::disabled());
        for (h, ord) in schemes {
            prop_assert_eq!(
                partition_unbounded_with_obs(pairs.len(), &acc, h, ord, keys_for(pairs), &off),
                parent_partition_with_obs(
                    pairs.len(),
                    &spec,
                    h,
                    ord,
                    u32::MAX,
                    keys_for(pairs),
                    &off,
                ),
                "{:?} {:?}",
                h,
                ord
            );
        }
        Ok(())
    }

    proptest! {
        /// The common sums pack every drawn set as the `Rat` sums did,
        /// for every heuristic and order.
        #[test]
        fn prop_common_sums_pack_as_rat_sums(shape in 0u8..5, seed in 0u64..u64::MAX) {
            let pairs = drawn_set(shape, seed);
            let all = Heuristic::ALL.iter().flat_map(|&h| ORDERS.map(|ord| (h, ord)));
            packs_as_rat_sums(&pairs, all)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases((ProptestConfig::default().cases / 32).max(2)))]

        /// The six packing schemes pack sets of the benchmark's
        /// `pack_exact` shape, where the common denominator fits, as the
        /// `Rat` sums did: n = 1,000 at U = 250 on the 5 ms period grid.
        #[test]
        fn prop_common_sums_pack_as_rat_sums_on_the_5_ms_grid(seed in 0u64..u64::MAX) {
            let pairs: Vec<(u64, u64)> = workload::TaskSetGenerator::new(1000, 250.0, seed)
                .with_quantum(5_000)
                .with_period_range(10_000, 250_000)
                .generate()
                .iter()
                .map(|t| (t.wcet_us, t.period_us))
                .collect();
            packs_as_rat_sums(&pairs, PACKING_SCHEMES.map(|(h, ord, _)| (h, ord)))?;
        }
    }

    /// An acceptance test that counts its evaluations.
    struct Counting<'a> {
        inner: &'a EdfUtilization,
        calls: std::cell::Cell<u64>,
    }

    impl Acceptance for Counting<'_> {
        type ProcState = <EdfUtilization as Acceptance>::ProcState;
        const RANK_SLACK: f64 = EdfUtilization::RANK_SLACK;
        fn empty(&self) -> Self::ProcState {
            self.inner.empty()
        }
        fn try_add(&self, state: &Self::ProcState, task_idx: usize) -> Option<Self::ProcState> {
            self.calls.set(self.calls.get() + 1);
            self.inner.try_add(state, task_idx)
        }
        fn spare(&self, state: &Self::ProcState) -> f64 {
            self.inner.spare(state)
        }
        fn load(&self, state: &Self::ProcState) -> f64 {
            self.inner.load(state)
        }
        fn room(&self, task_idx: usize) -> (f64, f64) {
            self.inner.room(task_idx)
        }
    }

    proptest! {
        /// The counters count what happened, for every heuristic and
        /// order: each `try_add` is one acceptance evaluation, every bin
        /// the parent's loop looked at is still counted as probed, and
        /// each bin was opened.
        #[test]
        fn prop_counters_count_every_evaluation(
            raw in prop::collection::vec((1u64..10, 1u64..20), 1..30),
            h in prop::sample::select(Heuristic::ALL.to_vec()),
            ord in prop::sample::select(ORDERS.to_vec()),
        ) {
            let tasks: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
            let inner = EdfUtilization::new(&tasks);
            let acc = Counting { inner: &inner, calls: std::cell::Cell::new(0) };
            let rec = obs::Recorder::enabled();
            let r = partition_unbounded_with_obs(
                tasks.len(), &acc, h, ord, keys_for(&tasks), &PartitionObs::new(&rec),
            ).unwrap();
            let parent = obs::Recorder::enabled();
            parent_partition_with_obs(
                tasks.len(), &inner, h, ord, u32::MAX, keys_for(&tasks), &PartitionObs::new(&parent),
            );
            let count = |rec: &obs::Recorder, name: &str| rec.counter(name).get();
            prop_assert_eq!(count(&rec, "partition.accept_evals"), acc.calls.get());
            prop_assert_eq!(
                count(&rec, "partition.bins_probed"),
                count(&parent, "partition.bins_probed")
            );
            prop_assert_eq!(count(&rec, "partition.bins_opened"), u64::from(r.processors));
            prop_assert_eq!(count(&rec, "partition.inexact_refusals"), 0);
        }

        /// Every order gives the parent's permutation on the keys the
        /// workspace makes — finite, non-negative, many tied — with
        /// periods on either side of the packed key's `2^44` limit.
        #[test]
        fn prop_ordered_indices_match_the_parents(
            raw in prop::collection::vec((0u64..8, 0u64..6, 0u8..4), 0..120),
        ) {
            let wide = [0u64, 1 << 20, (1 << PERIOD_BITS) - 1, 1 << PERIOD_BITS, u64::MAX];
            let keys = |i: usize| {
                let (u, p, w) = raw[i];
                (u as f64 / 8.0, if w == 0 { wide[p as usize % wide.len()] } else { p * 1_000 })
            };
            for order in ORDERS {
                prop_assert_eq!(
                    ordered_indices(raw.len(), order, keys),
                    parent_ordered_indices(raw.len(), order, keys),
                    "{:?}", order
                );
            }
        }
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
            ord in prop::sample::select(ORDERS.to_vec()),
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

        /// Neither FF nor FFD packs a set onto fewer processors than its
        /// total utilization: no EDF bin holds more than 1. (FFD can use
        /// more bins than FF on some sets, so neither count bounds the
        /// other.)
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
