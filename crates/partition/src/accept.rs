//! Per-processor acceptance tests for partitioning.
//!
//! A partitioning heuristic needs to answer one question per candidate
//! processor: *can this task be added to the tasks already assigned here?*
//! The [`Acceptance`] trait abstracts that question over a per-processor
//! state so heuristics stay oblivious to the scheduling algorithm running
//! on each processor.

use overhead::OverheadParams;
use pfair_model::{PhysTask, Rat};
use uniproc::analysis;

/// A per-processor acceptance test.
///
/// `ProcState` summarizes one processor's assigned tasks; `try_add`
/// returns the successor state iff the indexed task fits. `spare` ranks
/// processors for Best/Worst Fit (larger = more remaining capacity); the
/// loop asks for it only where two bins compete for a pick.
///
/// # The screen
///
/// [`load`](Self::load), [`room`](Self::room) and
/// [`RANK_SLACK`](Self::RANK_SLACK) let the packing loop skip `try_add`
/// where its answer cannot matter. With `(refuse_above, fits_at_or_below)
/// = room(t)`, an implementation promises, for every state `s`:
///
/// * `try_add(s, t)` is `None` whenever `load(s) > refuse_above`;
/// * it is `Some` whenever `load(s) <= fits_at_or_below`, unless the
///   test cannot represent the result (an *inexact refusal*, which the
///   loop counts as `partition.inexact_refusals`);
/// * for every `s` it accepts, `|spare(try_add(s, t)) − (k_t − load(s))|
///   ≤ RANK_SLACK` for some per-task constant `k_t`.
///
/// A NaN load screens nothing: that bin is always evaluated exactly. The
/// defaults — load `0.0`, room `(+∞, −∞)`, slack `+∞` — screen nothing,
/// so an implementation without a screen packs as if there were none.
///
/// The loop calls `try_add` on every bin it may choose, so a screen only
/// ever saves evaluations. First and Next Fit skip bins above
/// `refuse_above`. Best and Worst Fit keep every bin in an index ordered
/// by `load` (`−0.0` as `+0.0`; NaN loads beside it, always evaluated).
/// They first look up the key `load` of the best bin that surely fits
/// (`load <= fits_at_or_below`; the highest for Best Fit, the lowest for
/// Worst Fit, the lowest bin on ties) and check it exactly. If it fits,
/// every bin whose exact spare could beat or tie its spare has a load
/// within `2·RANK_SLACK` of that key, on the far side of it, so only
/// those, one range of the index, are evaluated; if it is refused, every
/// bin not above `refuse_above` is. Either way they are evaluated in bin
/// order.
pub trait Acceptance {
    /// Per-processor summary state.
    type ProcState: Clone;

    /// How far `spare` of an accepted bin may stray from `k_t − load`
    /// (see [the screen](Acceptance#the-screen)).
    const RANK_SLACK: f64 = f64::INFINITY;

    /// The empty processor.
    fn empty(&self) -> Self::ProcState;

    /// Attempts to add task `task_idx`; `Some(new_state)` iff it fits.
    fn try_add(&self, state: &Self::ProcState, task_idx: usize) -> Option<Self::ProcState>;

    /// Remaining spare capacity (for Best/Worst Fit ordering).
    fn spare(&self, state: &Self::ProcState) -> f64;

    /// The screen's one number per bin.
    fn load(&self, _state: &Self::ProcState) -> f64 {
        0.0
    }

    /// `(refuse_above, fits_at_or_below)` for task `task_idx`: bounds on
    /// [`load`](Self::load) beyond which `try_add` surely refuses or
    /// surely accepts.
    fn room(&self, _task_idx: usize) -> (f64, f64) {
        (f64::INFINITY, f64::NEG_INFINITY)
    }
}

/// A load above which `load + add > cap` in `f64`, whatever the three
/// roundings (of `cap − add`, of the sum, and of this addition): each
/// errs by at most `2⁻⁵³·(|cap| + |add|)`, and the margin is four times
/// that. Loads between the exact edge and this bound are left to `try_add`.
/// NaN, which refuses nothing, when `add` is `+∞` or NaN.
fn surely_over(add: f64, cap: f64) -> f64 {
    (cap - add) + (cap.abs() + add.abs()) * (2.0 * f64::EPSILON)
}

/// The screen margin of the tests that decide on an exact utilization
/// sum: the `f64` image of a sum in `[0, 1]`, and of `1 − u`, errs by far
/// less, so a bin's `f64` load decides the exact test everywhere but
/// within this of the edge.
const MARGIN: f64 = 1e-9;

/// Plain EDF acceptance: exact utilization sum ≤ 1 (paper: "under EDF
/// scheduling, a task can be accepted … as long as the total utilization
/// … does not exceed unity").
///
/// The sum is exact in one of two forms, chosen once per task set in
/// [`new`](Self::new). Where the reduced utilizations have a common
/// denominator `D` below 2^127, task `i` is the integer `wᵢ = uᵢ·D` and
/// a bin holds `S = Σ wᵢ`: a probe is `S + wᵢ ≤ D`, one add and one
/// compare. Otherwise a bin holds its sum as a [`Rat`].
#[derive(Debug, Clone)]
pub struct EdfUtilization {
    utils: Vec<Rat>,
    /// `D` and every `wᵢ`, where `D` fits.
    common: Option<CommonDenominator>,
}

/// A task set's utilizations over one denominator.
#[derive(Debug, Clone)]
struct CommonDenominator {
    /// `D`: the least common multiple of the reduced denominators, below
    /// 2^127, so `S + wᵢ ≤ 2D + 1` cannot wrap.
    den: u128,
    /// `D` in `f64`.
    den_f64: f64,
    /// `wᵢ = uᵢ·D`, or `D + 1` where that is more: a task that fits no
    /// bin.
    parts: Vec<u128>,
}

impl CommonDenominator {
    /// `None` if `D` reaches 2^127. Every partial sum's reduced
    /// denominator divides `D`, so then a sum of at most 1 also fits
    /// [`Rat`], and the two forms decide alike.
    fn of(utils: &[Rat]) -> Option<Self> {
        let mut den: u128 = 1;
        for u in utils {
            // A reduced period: below 2^64.
            let d = u.denom() as u64;
            den = den.checked_mul(u128::from(d / gcd((den % u128::from(d)) as u64, d)))?;
            if den > i128::MAX as u128 {
                return None;
            }
        }
        let parts = utils
            .iter()
            .map(|u| {
                let w = (u.numer() as u128).checked_mul(den / u.denom() as u128);
                w.filter(|&w| w <= den).unwrap_or(den + 1)
            })
            .collect();
        Some(CommonDenominator {
            den,
            den_f64: den as f64,
            parts,
        })
    }
}

/// Greatest common divisor; `gcd(0, b) = b`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Processor state of [`EdfUtilization`]: the bin's exact utilization,
/// in the form its task set uses. A state means something only to the
/// test that built it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdfUtilizationState(UtilSum);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UtilSum {
    /// `S`, the sum in units of `1/D`.
    Common(u128),
    /// The sum in lowest terms.
    Rat(Rat),
}

impl EdfUtilization {
    /// Builds the test from `(exec, period)` pairs (any time unit).
    pub fn new(tasks: &[(u64, u64)]) -> Self {
        let utils: Vec<Rat> = tasks
            .iter()
            .map(|&(e, p)| Rat::new(e as i128, p as i128))
            .collect();
        EdfUtilization {
            common: CommonDenominator::of(&utils),
            utils,
        }
    }

    /// The sum in `f64`: `S / D` from the two numbers' `f64` images, or
    /// the [`Rat`]'s `to_f64`.
    fn sum_f64(&self, state: &EdfUtilizationState) -> f64 {
        match (state.0, &self.common) {
            (UtilSum::Common(s), Some(c)) => s as f64 / c.den_f64,
            (UtilSum::Rat(s), _) => s.to_f64(),
            (UtilSum::Common(_), None) => foreign(),
        }
    }
}

/// A state with a common-denominator sum given to a test without one.
#[cold]
fn foreign() -> ! {
    panic!("EdfUtilization: a state built by another task set's test")
}

impl Acceptance for EdfUtilization {
    type ProcState = EdfUtilizationState;

    /// `spare` is `1 − g(s + u)` and `k_t − load` is `1 − u − f(s)`, with
    /// `g` the reduced fraction's `to_f64` and `f`
    /// [`sum_f64`](Self::sum_f64): they differ by a few roundings of
    /// numbers in `[0, 1]`, ~1e-15, hundreds of times less than this.
    const RANK_SLACK: f64 = 1e-12;

    fn empty(&self) -> EdfUtilizationState {
        EdfUtilizationState(match self.common {
            Some(_) => UtilSum::Common(0),
            None => UtilSum::Rat(Rat::ZERO),
        })
    }

    /// Over `D`, `S + wᵢ ≤ D` is exact and cannot wrap. Over [`Rat`], it
    /// decides `u ≤ 1 − state` rather than `state + u ≤ 1`: the left form
    /// cannot overflow and `Rat`'s comparison is exact at any magnitude,
    /// whereas sums of unrelated periods outgrow `i128`. A probe that fits
    /// but whose sum is not representable is refused — never an overfull
    /// bin, at worst one bin more than exact.
    fn try_add(&self, state: &EdfUtilizationState, task_idx: usize) -> Option<EdfUtilizationState> {
        let sum = match (state.0, &self.common) {
            (UtilSum::Common(s), Some(c)) => {
                let s = s + c.parts[task_idx];
                return (s <= c.den).then_some(EdfUtilizationState(UtilSum::Common(s)));
            }
            (UtilSum::Rat(s), _) => s,
            (UtilSum::Common(_), None) => foreign(),
        };
        let u = self.utils[task_idx];
        if u > sum.one_minus() {
            return None;
        }
        sum.checked_add(u)
            .map(|s| EdfUtilizationState(UtilSum::Rat(s)))
    }

    /// `1 −` the sum in lowest terms, in `f64`, whatever its form. Best
    /// and Worst Fit rank bins on this, so it must round as the [`Rat`]
    /// sum does: `S / D` from the two numbers' `f64` images can be an ulp
    /// away, and bins within an ulp of each other would then rank apart.
    /// Reducing `S / D` costs a gcd, but the packing loop asks for a
    /// spare only where two bins compete.
    fn spare(&self, state: &EdfUtilizationState) -> f64 {
        let sum = match (state.0, &self.common) {
            (UtilSum::Common(s), Some(c)) => Rat::new(s as i128, c.den as i128),
            (UtilSum::Rat(s), _) => s,
            (UtilSum::Common(_), None) => foreign(),
        };
        1.0 - sum.to_f64()
    }

    /// The sum in `f64`; NaN outside `[0, 1]`, where no packing goes and
    /// `to_f64`'s absolute error would outgrow the margin.
    fn load(&self, state: &EdfUtilizationState) -> f64 {
        let load = self.sum_f64(state);
        if (0.0..=1.0).contains(&load) {
            load
        } else {
            f64::NAN
        }
    }

    /// `1 − u ± 1e-9`: a bin above it is surely over, one below it surely
    /// under, whatever `f64` rounded.
    fn room(&self, task_idx: usize) -> (f64, f64) {
        let left = 1.0 - self.utils[task_idx].to_f64();
        (left + MARGIN, left - MARGIN)
    }
}

/// RM acceptance via the Liu–Layland bound — the basis of the "41%"
/// RM-FF utilization guarantee the paper cites \[30\].
#[derive(Debug, Clone)]
pub struct RmLiuLayland {
    tasks: Vec<(u64, u64)>,
}

impl RmLiuLayland {
    /// Builds the test from `(exec, period)` pairs.
    pub fn new(tasks: &[(u64, u64)]) -> Self {
        RmLiuLayland {
            tasks: tasks.to_vec(),
        }
    }
}

impl Acceptance for RmLiuLayland {
    /// `(count, utilization)` of the tasks assigned so far.
    type ProcState = (usize, f64);

    fn empty(&self) -> (usize, f64) {
        (0, 0.0)
    }

    fn try_add(&self, state: &(usize, f64), task_idx: usize) -> Option<(usize, f64)> {
        let n = state.0 + 1;
        let u = state.1 + self.util(task_idx);
        (u <= analysis::rm_ll_bound(n) + 1e-12).then_some((n, u))
    }

    fn spare(&self, state: &(usize, f64)) -> f64 {
        // Spare relative to the asymptotic bound; fine for BF/WF ranking.
        std::f64::consts::LN_2 - state.1
    }

    fn load(&self, state: &(usize, f64)) -> f64 {
        state.1
    }

    /// The bound is at most 1, so a sum past `1 + 1e-12` is refused for
    /// any count.
    fn room(&self, task_idx: usize) -> (f64, f64) {
        (
            surely_over(self.util(task_idx), 1.0 + 1e-12),
            f64::NEG_INFINITY,
        )
    }
}

impl RmLiuLayland {
    fn util(&self, task_idx: usize) -> f64 {
        let (e, p) = self.tasks[task_idx];
        e as f64 / p as f64
    }
}

/// RM acceptance via the exact Lehoczky test \[25\]. Exact but turns the
/// packing into "a more complex bin-packing problem involving
/// variable-sized bins" (paper, Section 3) — visible here as the state
/// being the full assigned-task list.
#[derive(Debug, Clone)]
pub struct RmExact {
    tasks: Vec<(u64, u64)>,
}

impl RmExact {
    /// Builds the test from `(exec, period)` pairs.
    pub fn new(tasks: &[(u64, u64)]) -> Self {
        RmExact {
            tasks: tasks.to_vec(),
        }
    }
}

impl Acceptance for RmExact {
    /// Indices of tasks assigned to the processor.
    type ProcState = Vec<usize>;

    fn empty(&self) -> Vec<usize> {
        Vec::new()
    }

    fn try_add(&self, state: &Vec<usize>, task_idx: usize) -> Option<Vec<usize>> {
        let set: Vec<(u64, u64)> = state
            .iter()
            .chain([&task_idx])
            .map(|&i| self.tasks[i])
            .collect();
        analysis::rm_exact_schedulable(&set).then(|| {
            let mut assigned = state.clone();
            assigned.push(task_idx);
            assigned
        })
    }

    fn spare(&self, state: &Vec<usize>) -> f64 {
        1.0 - self.util_sum(state)
    }

    /// The utilization in `f64`; NaN past 2^20 tasks, where the sum's
    /// rounding could outgrow the margin.
    fn load(&self, state: &Vec<usize>) -> f64 {
        if state.len() > 1 << 20 {
            return f64::NAN;
        }
        self.util_sum(state)
    }

    /// No set with utilization above 1 is schedulable, so the test refuses
    /// a bin more than 1e-9 past `1 − u`: fewer than 2^20 terms of at most
    /// 1 round by less than that.
    fn room(&self, task_idx: usize) -> (f64, f64) {
        let u = self.util_sum(&[task_idx]);
        (1.0 - u + MARGIN, f64::NEG_INFINITY)
    }
}

impl RmExact {
    /// The utilization of `assigned` in `f64`, summed in its order.
    fn util_sum(&self, assigned: &[usize]) -> f64 {
        assigned
            .iter()
            .map(|&i| {
                let (e, p) = self.tasks[i];
                e as f64 / p as f64
            })
            .sum::<f64>()
    }
}

/// Overhead-aware EDF acceptance — Equation (3)'s EDF case.
///
/// Tasks must be offered in **decreasing-period order** (the paper's
/// device): every task already on a processor then has a period ≥ the
/// candidate's, so the candidate's `max_{U ∈ P_T} D(U)` term is the
/// maximum cache delay among the processor's current tasks, tracked
/// incrementally. (Ties in period are charged conservatively.)
#[derive(Debug, Clone)]
pub struct EdfOverheadAware {
    tasks: Vec<EdfCost>,
}

/// What a probe reads of one task, computed once in
/// [`EdfOverheadAware::new`]: first fit probes each task against many
/// processors.
#[derive(Debug, Clone, Copy)]
struct EdfCost {
    /// `e + 2(S_EDF + C)`: Equation (3)'s EDF case on an empty processor.
    alone_us: f64,
    period_us: f64,
    /// `D(T)` (µs).
    cache_delay_us: f64,
    /// `alone_us / period_us`, which is `inflated_util(i, 0.0)`: the least
    /// this task adds to a processor whose max cache delay is `≥ 0`.
    least_util: f64,
}

/// Processor state for [`EdfOverheadAware`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfOverheadState {
    /// Sum of inflated utilizations.
    pub util: f64,
    /// Largest `D(U)` among assigned tasks.
    pub max_d_us: f64,
}

impl EdfOverheadAware {
    /// Builds the test. `cache_delay_us[i]` is `D(Tᵢ)`; the task count
    /// parameterizes `S_EDF`.
    pub fn new(tasks: &[PhysTask], cache_delay_us: &[f64], params: OverheadParams) -> Self {
        assert_eq!(tasks.len(), cache_delay_us.len());
        let n = tasks.len();
        EdfOverheadAware {
            tasks: tasks
                .iter()
                .zip(cache_delay_us)
                .map(|(&t, &cache_delay_us)| {
                    let alone_us = overhead::inflate_edf(t, &params, n, 0.0);
                    let period_us = t.period_us as f64;
                    EdfCost {
                        alone_us,
                        period_us,
                        cache_delay_us,
                        least_util: alone_us / period_us,
                    }
                })
                .collect(),
        }
    }

    /// The inflated utilization task `task_idx` would contribute on a
    /// processor whose current max cache delay is `max_d_us`:
    /// [`overhead::inflate_edf`] over the period, to the bit (`max_d_us` is
    /// that sum's last term, and adding the `0.0` in its place is exact).
    pub fn inflated_util(&self, task_idx: usize, max_d_us: f64) -> f64 {
        let t = self.tasks[task_idx];
        (t.alone_us + max_d_us) / t.period_us
    }
}

impl Acceptance for EdfOverheadAware {
    type ProcState = EdfOverheadState;

    fn empty(&self) -> EdfOverheadState {
        EdfOverheadState::default()
    }

    fn try_add(&self, state: &EdfOverheadState, task_idx: usize) -> Option<EdfOverheadState> {
        let util = state.util + self.inflated_util(task_idx, state.max_d_us);
        (util <= CAPACITY).then(|| EdfOverheadState {
            util,
            max_d_us: state.max_d_us.max(self.tasks[task_idx].cache_delay_us),
        })
    }

    fn spare(&self, state: &EdfOverheadState) -> f64 {
        1.0 - state.util
    }

    /// `util`, or NaN (no screen) for a hand-built state with a negative
    /// or NaN `max_d_us`; every state `empty`/`try_add` build has
    /// `max_d_us ≥ 0`.
    fn load(&self, state: &EdfOverheadState) -> f64 {
        if state.max_d_us >= 0.0 {
            state.util
        } else {
            f64::NAN
        }
    }

    /// A bin too full for the task's least utilization is refused before
    /// the division: `f64` addition and division round monotonically, so
    /// `max_d_us ≥ 0` gives `inflated_util ≥ least_util`, and a load above
    /// `refuse_above` has `load + least_util > CAPACITY`.
    fn room(&self, task_idx: usize) -> (f64, f64) {
        let least_util = self.tasks[task_idx].least_util;
        (surely_over(least_util, CAPACITY), f64::NEG_INFINITY)
    }
}

/// What one processor may hold under [`EdfOverheadAware`].
const CAPACITY: f64 = 1.0 + 1e-12;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`EdfOverheadAware::try_add`] as it stood before the full-bin
    /// filter, verbatim: the oracle for the screen that replaced it.
    fn parent_try_add(
        acc: &EdfOverheadAware,
        state: &EdfOverheadState,
        task_idx: usize,
    ) -> Option<EdfOverheadState> {
        let util = state.util + acc.inflated_util(task_idx, state.max_d_us);
        (util <= 1.0 + 1e-12).then(|| EdfOverheadState {
            util,
            max_d_us: state.max_d_us.max(acc.tasks[task_idx].cache_delay_us),
        })
    }

    /// The full-bin filter `try_add` once ran before its division,
    /// verbatim: the screen must refuse only what it refused.
    fn filter_refuses(acc: &EdfOverheadAware, state: &EdfOverheadState, task_idx: usize) -> bool {
        state.max_d_us >= 0.0 && state.util + acc.tasks[task_idx].least_util > 1.0 + 1e-12
    }

    fn screen_refuses<A: Acceptance>(acc: &A, state: &A::ProcState, task_idx: usize) -> bool {
        acc.load(state) > acc.room(task_idx).0
    }

    /// A probe as the packing loop makes it: the screen, then `try_add`.
    fn screened<A: Acceptance>(
        acc: &A,
        state: &A::ProcState,
        task_idx: usize,
    ) -> Option<A::ProcState> {
        if screen_refuses(acc, state, task_idx) {
            None
        } else {
            acc.try_add(state, task_idx)
        }
    }

    /// A probe's outcome down to the bits.
    fn probe_bits(s: Option<EdfOverheadState>) -> Option<(u64, u64)> {
        s.map(|s| (s.util.to_bits(), s.max_d_us.to_bits()))
    }

    proptest! {
        /// The screened probe answers as the parent's, and the screen
        /// refuses only what the full-bin filter refused (and, on the
        /// states a packing builds, all of it but sums within 1e-14 of
        /// capacity), on every state a first-fit packing builds and on
        /// hand-built states around the screen's edge: a sum within a few
        /// ulps of `1 − least_util`, with `max_d_us` negative, NaN, ±0,
        /// infinite or drawn.
        #[test]
        fn prop_try_add_matches_the_parents(
            raw in prop::collection::vec((1u64..50_000, 1u64..100, 0.0f64..100.0), 1..40),
            paper in 0u8..2,
            ulps in -4i32..=4,
            drawn_d in 0.0f64..200.0,
        ) {
            let tasks: Vec<PhysTask> = raw
                .iter()
                .map(|&(wcet, period_q, _)| PhysTask::new(wcet, period_q * 1_000))
                .collect();
            let d: Vec<f64> = raw.iter().map(|r| r.2).collect();
            let params = if paper == 1 { OverheadParams::paper2003() } else { OverheadParams::zero() };
            let acc = EdfOverheadAware::new(&tasks, &d, params);
            // First fit in decreasing-period order, every probe compared.
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(tasks[i].period_us));
            let mut bins: Vec<EdfOverheadState> = Vec::new();
            for &i in &order {
                let mut placed = false;
                for bin in bins.iter_mut() {
                    let next = screened(&acc, bin, i);
                    prop_assert_eq!(probe_bits(next), probe_bits(parent_try_add(&acc, bin, i)));
                    prop_assert!(!screen_refuses(&acc, bin, i) || filter_refuses(&acc, bin, i));
                    let over = bin.util + acc.tasks[i].least_util - CAPACITY;
                    prop_assert!(!filter_refuses(&acc, bin, i) || screen_refuses(&acc, bin, i) || over < 1e-14);
                    if let Some(next) = next {
                        *bin = next;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    let fresh = screened(&acc, &acc.empty(), i);
                    prop_assert_eq!(probe_bits(fresh), probe_bits(parent_try_add(&acc, &acc.empty(), i)));
                    bins.extend(fresh);
                }
            }
            // Hand-built states on the screen's edge.
            for (i, cost) in acc.tasks.iter().enumerate() {
                let mut util = 1.0 - cost.least_util;
                for _ in 0..ulps.unsigned_abs() {
                    util = if ulps < 0 { util.next_down() } else { util.next_up() };
                }
                for max_d_us in [-1.0, -0.0, 0.0, f64::NAN, f64::INFINITY, -f64::INFINITY, drawn_d] {
                    for util in [util, util + 1e-12, 0.5, f64::NAN, f64::INFINITY] {
                        let state = EdfOverheadState { util, max_d_us };
                        prop_assert_eq!(
                            probe_bits(screened(&acc, &state, i)),
                            probe_bits(parent_try_add(&acc, &state, i)),
                            "task {} state {:?}", i, state
                        );
                        prop_assert!(
                            !screen_refuses(&acc, &state, i) || filter_refuses(&acc, &state, i),
                            "task {} state {:?}", i, state
                        );
                    }
                }
            }
        }

        /// Every screen is sound where the loop reads it: a bin above
        /// `refuse_above` is refused, one at or below `fits_at_or_below`
        /// is accepted, on sums within a few ulps of, and within 1e-9
        /// of, `1 − u`.
        #[test]
        fn prop_screens_are_sound(
            raw in prop::collection::vec((1u64..40, 1u64..40), 1..12),
            big in 1u64..1 << 40,
            ulps in -3i64..=3,
        ) {
            let mut pairs: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
            // A task of utilization u and bins one term short of 1 − u:
            // exactly, by ulps of the big denominator, and by ±1e-9.
            let (e, p) = pairs[0];
            let den = p * big;
            for gap in [0i64, ulps, ulps * (den / 1_000_000_000) as i64] {
                let num = (den - e * big) as i64 + gap;
                if num > 0 && (num as u64) <= den {
                    pairs.push((num as u64, den));
                }
            }
            let n = pairs.len();
            let edf = EdfUtilization::new(&pairs);
            let ll = RmLiuLayland::new(&pairs);
            let ex = RmExact::new(&pairs);
            for t in 0..n {
                for s in 0..n {
                    if s == t {
                        continue;
                    }
                    let st = edf.try_add(&edf.empty(), s).unwrap();
                    prop_assert!(screen_holds(&edf, &st, t), "{} on {}", t, s);
                    let st = ll.try_add(&ll.empty(), s).unwrap();
                    prop_assert!(screen_holds(&ll, &st, t), "{} on {}", t, s);
                    // The time-demand analysis iterates up to a period's length.
                    if pairs[s].1.max(pairs[t].1) < 1_000 {
                        prop_assert!(screen_holds(&ex, &vec![s], t), "{} on {}", t, s);
                    }
                }
            }
        }
    }

    proptest! {
        /// On small sets either side of the 2^127 cut, every `try_add`
        /// answers as [`Rat`]'s `u ≤ 1 − state`, then `state + u`, did
        /// (which refuses only a sum past `i128`); every common sum is the
        /// exact one; and every `load` is within 1e-12 of it. `wide` adds
        /// nothing, two coprime periods past 2^43 (whose `D` fits only
        /// beside small ones), or three (whose `D` never fits).
        #[test]
        fn prop_edf_utilization_decides_as_rat(
            raw in prop::collection::vec((1u64..40, 1u64..40), 1..8),
            wide in 0u8..3,
            big in (1u64 << 43)..(1u64 << 44),
            moves in prop::collection::vec((0usize..64, 0usize..8), 1..60),
        ) {
            let mut pairs: Vec<(u64, u64)> = raw.iter().map(|&(e, p)| (e.min(p), p)).collect();
            // An odd `q`: `q`, `q + 1` and `q + 2` are pairwise coprime.
            let q = big | 1;
            let extra = [(1, q), (1, q + 1), (1, q + 2)];
            pairs.extend_from_slice(&extra[..[0, 2, 3][wide as usize]]);
            let acc = EdfUtilization::new(&pairs);
            if wide == 2 {
                prop_assert!(acc.common.is_none());
            }
            let mut bins: Vec<(EdfUtilizationState, Rat)> = Vec::new();
            for (task, bin) in moves {
                let (task, bin) = (task % pairs.len(), bin % (bins.len() + 1));
                if bin == bins.len() {
                    bins.push((acc.empty(), Rat::ZERO));
                }
                let (state, spec) = bins[bin];
                let u = acc.utils[task];
                let want = if u > spec.one_minus() { None } else { spec.checked_add(u) };
                let got = acc.try_add(&state, task);
                prop_assert_eq!(got.is_some(), want.is_some(), "task {} on {}", task, spec);
                if let (Some(got), Some(want)) = (got, want) {
                    if let (UtilSum::Common(sum), Some(c)) = (got.0, &acc.common) {
                        prop_assert_eq!(Rat::new(sum as i128, c.den as i128), want);
                    }
                    prop_assert!((acc.load(&got) - want.to_f64()).abs() <= 1e-12);
                    bins[bin] = (got, want);
                }
            }
        }
    }

    #[test]
    fn the_common_denominator_is_the_lcm_below_2_127() {
        let den = |pairs: &[(u64, u64)]| EdfUtilization::new(pairs).common.map(|c| c.den);
        assert_eq!(den(&[]), Some(1));
        assert_eq!(den(&[(2, 4), (1, 3), (0, 7), (5, 10)]), Some(6));
        // Coprime periods: 2^63·(2^64 − 1) < 2^127 < (2^64 − 1)·(2^64 − 3).
        let below = (1 << 127) - (1 << 63);
        assert_eq!(den(&[(1, 1 << 63), (1, u64::MAX)]), Some(below));
        assert_eq!(den(&[(1, u64::MAX - 2), (1, u64::MAX)]), None);
        // Every period of the 5 ms grid, 10–250 ms: D = 5000·lcm(2..50),
        // the most any set on the grid can have.
        let grid: Vec<(u64, u64)> = (2..=50).map(|k| (1, 5_000 * k)).collect();
        assert_eq!(den(&grid), Some(5_000 * 3_099_044_504_245_996_706_400));
        // A task that fits no bin is `D + 1`, whatever its exact size.
        let acc = EdfUtilization::new(&[(3, 2), (u64::MAX, 1), (1, 3)]);
        let c = acc.common.as_ref().unwrap();
        assert_eq!(c.parts, [c.den + 1, c.den + 1, 2]);
        assert!(acc.try_add(&acc.empty(), 0).is_none());
    }

    /// Whether the screen keeps both its promises for task `t` on `state`.
    fn screen_holds<A: Acceptance>(acc: &A, state: &A::ProcState, t: usize) -> bool {
        let (refuse_above, fits_at_or_below) = acc.room(t);
        let load = acc.load(state);
        let fits = acc.try_add(state, t).is_some();
        if load > refuse_above && fits {
            return false;
        }
        fits || load > fits_at_or_below || load.is_nan()
    }

    #[test]
    fn edf_utilization_boundary() {
        let acc = EdfUtilization::new(&[(1, 2), (1, 3), (1, 6), (1, 100)]);
        let s0 = acc.empty();
        let s1 = acc.try_add(&s0, 0).unwrap();
        let s2 = acc.try_add(&s1, 1).unwrap();
        let s3 = acc.try_add(&s2, 2).unwrap(); // exactly 1
        assert_eq!(acc.load(&s3), 1.0);
        assert!(acc.try_add(&s3, 3).is_none(), "nothing fits past U = 1");
        assert!(acc.spare(&s3).abs() < 1e-12);
    }

    #[test]
    fn rm_ll_is_stricter_than_edf() {
        // Two tasks at 0.45 each: EDF accepts (0.9 ≤ 1), RM-LL rejects
        // (0.9 > 0.828).
        let tasks = [(45u64, 100u64), (45, 100)];
        let edf = EdfUtilization::new(&tasks);
        let s = edf.try_add(&edf.empty(), 0).unwrap();
        assert!(edf.try_add(&s, 1).is_some());

        let rm = RmLiuLayland::new(&tasks);
        let s = rm.try_add(&rm.empty(), 0).unwrap();
        assert!(rm.try_add(&s, 1).is_none());
    }

    #[test]
    fn rm_exact_accepts_more_than_ll() {
        // Harmonic set at U = 1.
        let tasks = [(1u64, 2u64), (1, 4), (2, 8)];
        let ll = RmLiuLayland::new(&tasks);
        let exact = RmExact::new(&tasks);
        let mut s_ll = ll.empty();
        let mut ll_all = true;
        for i in 0..3 {
            match ll.try_add(&s_ll, i) {
                Some(s) => s_ll = s,
                None => {
                    ll_all = false;
                    break;
                }
            }
        }
        assert!(!ll_all, "LL must reject the harmonic set at U = 1");
        let mut s_ex = exact.empty();
        for i in 0..3 {
            s_ex = exact.try_add(&s_ex, i).expect("exact accepts");
        }
        assert_eq!(s_ex, vec![0, 1, 2]);
    }

    #[test]
    fn overhead_aware_edf_charges_cache_delay() {
        // Two tasks, decreasing periods. The second task pays the first's
        // cache delay (it can preempt it).
        let tasks = [
            PhysTask::new(10_000, 100_000), // long period, D = 80 µs
            PhysTask::new(5_000, 50_000),   // shorter period
        ];
        let d = [80.0, 10.0];
        let acc = EdfOverheadAware::new(&tasks, &d, OverheadParams::paper2003());
        let s0 = acc.empty();
        let s1 = acc.try_add(&s0, 0).unwrap();
        assert_eq!(s1.max_d_us, 80.0);
        // First task pays no cache delay (nothing to preempt).
        let base0 = acc.inflated_util(0, 0.0);
        assert!((s1.util - base0).abs() < 1e-12);
        // Second task's inflation includes max D = 80.
        let s2 = acc.try_add(&s1, 1).unwrap();
        let with_d = acc.inflated_util(1, 80.0);
        let without_d = acc.inflated_util(1, 0.0);
        assert!(with_d > without_d);
        assert!((s2.util - (base0 + with_d)).abs() < 1e-12);
    }

    #[test]
    fn overhead_aware_probe_is_equation_3_to_the_bit() {
        // The per-task constants hoisted into `new` leave the probe the
        // same three roundings in the same order as `inflate_edf / p`.
        let params = OverheadParams::paper2003();
        let tasks: Vec<PhysTask> = (1..200u64)
            .map(|i| PhysTask::new(37 * i + 1, 1_000 * (i % 13 + 1) + 997 * i))
            .collect();
        let d: Vec<f64> = (1..200).map(|i| 100.0 / i as f64).collect();
        let acc = EdfOverheadAware::new(&tasks, &d, params);
        for (i, t) in tasks.iter().enumerate() {
            for max_d in [0.0, 0.1, 33.3, d[i], 1e3 / 7.0] {
                let direct =
                    overhead::inflate_edf(*t, &params, tasks.len(), max_d) / t.period_us as f64;
                assert_eq!(acc.inflated_util(i, max_d).to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn overhead_aware_rejects_when_inflation_overflows() {
        // Tasks that fit raw but not inflated.
        let tasks = [
            PhysTask::new(50_000, 100_000),
            PhysTask::new(49_950, 100_000),
        ];
        let d = [100.0, 100.0];
        let acc = EdfOverheadAware::new(&tasks, &d, OverheadParams::paper2003());
        let s1 = acc.try_add(&acc.empty(), 0).unwrap();
        // Raw total would be 0.9995 ≤ 1, but inflation pushes it past 1.
        assert!(acc.try_add(&s1, 1).is_none());
        // With zero overheads both fit.
        let acc0 = EdfOverheadAware::new(&tasks, &[0.0, 0.0], OverheadParams::zero());
        let s1 = acc0.try_add(&acc0.empty(), 0).unwrap();
        assert!(acc0.try_add(&s1, 1).is_some());
    }
}
