//! Execution-cost inflation — the paper's Equation (3).

use crate::model::OverheadParams;
use pfair_model::{PhysTask, Rat, Weight, WeightSum};
use std::fmt;

/// Failure modes of the PD² inflation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InflateError {
    /// The inflated cost exceeds the period: the task alone cannot meet its
    /// deadline under this overhead model.
    Overload {
        /// Inflated cost at the point of failure (µs).
        inflated_us: f64,
    },
    /// The period is not a multiple of the quantum (PD² requires it).
    PeriodNotQuantumMultiple,
    /// The fixed-point iteration failed to settle (pathological inputs).
    NoConvergence,
}

impl fmt::Display for InflateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InflateError::Overload { inflated_us } => {
                write!(f, "inflated cost {inflated_us:.1}µs exceeds the period")
            }
            InflateError::PeriodNotQuantumMultiple => {
                write!(f, "period is not a multiple of the quantum")
            }
            InflateError::NoConvergence => write!(f, "inflation did not converge"),
        }
    }
}

impl std::error::Error for InflateError {}

/// Result of PD² inflation for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflatedPd2 {
    /// Inflated execution cost `e'` (µs).
    pub exec_us: f64,
    /// Quanta spanned: `E = ⌈e'/q⌉`.
    pub quanta: u64,
    /// Period in quanta: `P = p/q`.
    pub period_quanta: u64,
    /// The utilization PD² schedules with: `E / P` (includes quantum
    /// rounding — "one source of schedulability loss in PD²").
    pub weight: Rat,
    /// Fixed-point iterations used (paper: usually ≤ 5).
    pub iterations: u32,
}

/// Inflates `task` for EDF-FF (Equation (3), first case):
/// `e' = e + 2(S_EDF + C) + max_{U ∈ P_T} D(U)`, where `max_d_us` is the
/// largest cache-related preemption delay among the tasks already assigned
/// to the candidate processor with periods ≥ `task.period` (the paper
/// partitions in decreasing-period order precisely so this is known at
/// acceptance time).
///
/// `n` is the task count used for `S_EDF`. Returns the inflated cost in µs.
pub fn inflate_edf(task: PhysTask, params: &OverheadParams, n: usize, max_d_us: f64) -> f64 {
    task.wcet_us as f64 + 2.0 * (params.sched.edf_us(n) + params.ctx_switch_us) + max_d_us
}

/// Inflates `task` for PD² (Equation (3), second case), resolving the
/// self-reference by fixed-point iteration.
///
/// # Examples
///
/// ```
/// use overhead::{inflate_pd2, OverheadParams};
/// use pfair_model::PhysTask;
///
/// // The paper's ε-task: 1 µs of work per 10 ms still costs one whole
/// // 1 ms quantum under PD² — a 1000× utilization loss.
/// let t = PhysTask::new(1, 10_000);
/// let inf = inflate_pd2(t, &OverheadParams::paper2003(), 2, 50, 33.3).unwrap();
/// assert_eq!(inf.quanta, 1);
/// assert_eq!(inf.weight, pfair_model::Rat::new(1, 10));
/// ```
///
/// Formula:
///
/// `e' = e + ⌈e'/q⌉·S_PD² + C + min(⌈e'/q⌉ − 1, p/q − ⌈e'/q⌉)·(C + D(T))`
///
/// `m`/`n` parameterize `S_PD²`; `d_us` is this task's own cache-related
/// preemption delay `D(T)`.
pub fn inflate_pd2(
    task: PhysTask,
    params: &OverheadParams,
    m: u32,
    n: usize,
    d_us: f64,
) -> Result<InflatedPd2, InflateError> {
    let fp = pd2_fixed_point(task, params, params.sched.pd2_us(m, n), d_us)?;
    Ok(InflatedPd2 {
        exec_us: fp.exec_us,
        quanta: fp.quanta,
        period_quanta: fp.period_quanta,
        weight: Rat::new(fp.quanta as i128, fp.period_quanta as i128),
        iterations: fp.iterations,
    })
}

/// Where Equation (3)'s PD² case settles for one task: [`InflatedPd2`]
/// without the reduced weight, which the M-search does not need.
struct Pd2FixedPoint {
    exec_us: f64,
    quanta: u64,
    period_quanta: u64,
    iterations: u32,
}

/// The fixed-point iteration behind [`inflate_pd2`], at scheduling cost
/// `s_us = S_PD²(M, N)` — the only way `M` and `N` enter the inflation.
fn pd2_fixed_point(
    task: PhysTask,
    params: &OverheadParams,
    s_us: f64,
    d_us: f64,
) -> Result<Pd2FixedPoint, InflateError> {
    let q = params.quantum_us;
    if q == 0 || task.period_us % q != 0 {
        return Err(InflateError::PeriodNotQuantumMultiple);
    }
    let p_quanta = task.period_us / q;
    let c = params.ctx_switch_us;
    let e = task.wcet_us as f64;

    let cost = |quanta: u64| -> f64 {
        // Preemption count: min(E − 1, P − E); E > P is overload, handled
        // by the caller via the quanta bound check.
        let preemptions = (quanta - 1).min(p_quanta.saturating_sub(quanta)) as f64;
        e + quanta as f64 * s_us + c + preemptions * (c + d_us)
    };

    // Fixed-point iteration on E = ⌈e'/q⌉. E only ever needs to grow or
    // stay: start from the uninflated span and increase while the implied
    // cost spans more quanta. (The paper iterates on e' directly; iterating
    // on the integer E is equivalent and cannot oscillate.)
    let mut quanta = (task.wcet_us).div_ceil(q).max(1);
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        if quanta > p_quanta {
            return Err(InflateError::Overload {
                inflated_us: cost(p_quanta.max(1)),
            });
        }
        let e_prime = cost(quanta);
        // The usual exit needs no division: for the integer `k = E·q` (at
        // most the period, so no overflow), `⌈e'⌉ ≤ k ⇔ e' ≤ k`, which is
        // `implied ≤ quanta`. Above 2⁵³ `k as f64` may round, and a NaN
        // `e'` compares false; both take the division.
        let span_us = quanta * q;
        let implied = if span_us <= 1 << f64::MANTISSA_DIGITS && e_prime <= span_us as f64 {
            quanta
        } else {
            (e_prime.ceil() as u64).div_ceil(q).max(1)
        };
        // implied < quanta: cost() is non-monotone in E only through the
        // preemption term, which can *shrink* as E grows past P/2;
        // accepting the larger span is the conservative fixed point.
        if implied <= quanta {
            return Ok(Pd2FixedPoint {
                exec_us: e_prime,
                quanta,
                period_quanta: p_quanta,
                iterations,
            });
        }
        quanta = implied;
        if iterations > 10_000 {
            return Err(InflateError::NoConvergence);
        }
    }
}

/// One inflation pass over the whole set at scheduling cost `s_us`: the
/// PD² weights `E/P` summed as plain `f64` in task order — the value
/// [`WeightSum`]'s shadow would hold, a correctly rounded quotient being
/// the same before and after reduction — or the first task's failure.
fn pd2_weight_sum_f64(
    tasks: &[PhysTask],
    params: &OverheadParams,
    d_us: &[f64],
    s_us: f64,
) -> Result<f64, InflateError> {
    let mut total = 0.0;
    for (t, &d) in tasks.iter().zip(d_us) {
        let fp = pd2_fixed_point(*t, params, s_us, d)?;
        total += fp.quanta as f64 / fp.period_quanta as f64;
    }
    Ok(total)
}

/// The same pass summed as a [`WeightSum`]: exact while the sum fits
/// `i128`, which a few dozen weights over unrelated periods outgrow. The
/// M-search asks for it only where the `f64` sum cannot decide.
fn pd2_weight_sum(
    tasks: &[PhysTask],
    params: &OverheadParams,
    d_us: &[f64],
    s_us: f64,
) -> Result<WeightSum, InflateError> {
    let mut total = WeightSum::new();
    for (t, &d) in tasks.iter().zip(d_us) {
        let fp = pd2_fixed_point(*t, params, s_us, d)?;
        total.add(
            Weight::new(fp.quanta, fp.period_quanta)
                .expect("0 < E ≤ P guaranteed by the fixed point"),
        );
    }
    Ok(total)
}

/// How close to `M` the `f64` sum of a pass may lie before the M-search
/// asks the exact sum instead. The `f64` sum of `n` correctly rounded
/// quotients is within `n·2⁻⁵³·Σ` of the true one — about `1e-11` at
/// `n = 250` — so a sum further than this from `M` is on the same side of
/// `M` as the exact sum, and of `M + 1e-7` where [`WeightSum`] has
/// overflowed to its epsilon compare.
const EXACT_BAND: f64 = 1e-6;

/// `Σ ≤ m` for a pass whose `f64` sum is `approx`: read off `approx` when
/// it is clear of the band around `m`, else [`WeightSum::at_most`] on the
/// sum `exact` builds. `n` is the number of terms; it widens the band
/// where [`EXACT_BAND`] no longer covers the `f64` error (`n·Σ > 4·10⁹`).
fn sum_fits(approx: f64, n: usize, m: u32, exact: impl FnOnce() -> WeightSum) -> bool {
    let gap = approx - f64::from(m);
    let band = EXACT_BAND.max(n as f64 * approx * f64::EPSILON);
    if gap.abs() > band {
        gap < 0.0
    } else {
        exact().at_most(m)
    }
}

/// Where the M-search starts: a lower bound on the exact ceiling of the
/// raw utilisation, whose `f64` sum `raw` of `n` quotients can lie above
/// the exact sum by up to `n·raw·2⁻⁵³`. Nine tasks of 1/9 sum to
/// 1.0000000000000002 in `f64`; starting at its ceiling would skip the
/// exact answer, 1. A start one below the true ceiling costs one
/// candidate that [`sum_fits`] refuses.
fn first_candidate(raw: f64, n: usize) -> u32 {
    ((raw - n as f64 * raw * f64::EPSILON).ceil() as u32).max(1)
}

/// Minimum processors PD² needs for a task set under Equation (3),
/// including the `M`-dependence of `S_PD²` (more processors → costlier
/// invocations → heavier inflation): the smallest `M` with
/// `Σ weight'(T; M) ≤ M`. `d_us[i]` is `D(Tᵢ)`.
///
/// `M` enters the inflation only through `S_PD²(M, N)`, so the tasks are
/// re-inflated only when that value differs from the previous candidate's;
/// otherwise the previous pass's sum is tested against the new `M`.
/// [`crate::SchedCostModel::pd2_us`] saturates at `M = 16`, which is what
/// makes a single pass suffice for every larger machine.
///
/// A pass sums its weights as plain `f64` and nearly every candidate is
/// decided from that. Only a sum within `1e-6` of `M` is summed
/// again as a [`WeightSum`], whose verdict — exact where the exact sum
/// fits `i128`, its `1e-7` epsilon where not — is then the one returned:
/// the filter changes the cost of the search, never its answer.
///
/// Returns `Err` if a task is individually unschedulable — the
/// [`InflateError::Overload`] of the first such task at the last `M`
/// tried, with its inflated cost — or if every task fits but no
/// `M ≤ max_m` holds their sum, which is `Overload { inflated_us: 0.0 }`
/// (no single task's cost is at fault).
pub fn pd2_processors_required(
    tasks: &[PhysTask],
    params: &OverheadParams,
    d_us: &[f64],
    max_m: u32,
) -> Result<u32, InflateError> {
    assert_eq!(tasks.len(), d_us.len());
    let n = tasks.len();
    if n == 0 {
        return Ok(0);
    }
    let raw: f64 = tasks.iter().map(PhysTask::utilization).sum();
    let no_capacity = InflateError::Overload { inflated_us: 0.0 };
    // The last inflation pass and the S_PD² (as bits) it ran at; with no
    // pass run, no machine up to `max_m` was even a candidate.
    let mut pass = Err(no_capacity);
    let mut pass_s_bits = None;
    for m in first_candidate(raw, n)..=max_m {
        let s_us = params.sched.pd2_us(m, n);
        if pass_s_bits != Some(s_us.to_bits()) {
            pass = match pd2_weight_sum_f64(tasks, params, d_us, s_us) {
                pass @ (Ok(_) | Err(InflateError::Overload { .. })) => pass,
                Err(e) => return Err(e),
            };
            pass_s_bits = Some(s_us.to_bits());
        }
        let exact = || {
            pd2_weight_sum(tasks, params, d_us, s_us)
                .expect("the f64 pass over the same tasks succeeded")
        };
        if matches!(pass, Ok(total) if sum_fits(total, n, m, exact)) {
            return Ok(m);
        }
    }
    // An overloaded task's own error, else every task fit and their sum
    // did not.
    pass.and(Err(no_capacity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SchedCostModel;
    use proptest::prelude::*;

    fn params() -> OverheadParams {
        OverheadParams::paper2003()
    }

    #[test]
    fn edf_inflation_formula() {
        let t = PhysTask::new(10_000, 100_000);
        let p = OverheadParams {
            ctx_switch_us: 5.0,
            quantum_us: 1_000,
            sched: SchedCostModel::Constant {
                edf_us: 2.0,
                pd2_us: 0.0,
            },
        };
        // e' = 10000 + 2(2+5) + 30 = 10044.
        assert_eq!(inflate_edf(t, &p, 100, 30.0), 10_044.0);
        // With zero overheads, identity.
        assert_eq!(inflate_edf(t, &OverheadParams::zero(), 100, 0.0), 10_000.0);
    }

    #[test]
    fn pd2_inflation_rounds_tiny_tasks_to_full_quantum() {
        // The paper's ε-task: 1 µs of work per 10 ms still costs one whole
        // quantum under PD².
        let t = PhysTask::new(1, 10_000);
        let inf = inflate_pd2(t, &params(), 2, 50, 33.3).unwrap();
        assert_eq!(inf.quanta, 1);
        assert_eq!(inf.period_quanta, 10);
        assert_eq!(inf.weight, Rat::new(1, 10));
        // Raw utilization was 1e-4; PD² sees 0.1 — a 1000× loss.
        assert!(inf.weight.to_f64() / t.utilization() > 900.0);
    }

    #[test]
    fn pd2_inflation_converges_quickly() {
        // A job spanning many quanta accrues per-quantum scheduling cost
        // that can push it into an extra quantum.
        let t = PhysTask::new(9_990, 20_000);
        let inf = inflate_pd2(t, &params(), 4, 250, 50.0).unwrap();
        assert!(inf.iterations <= 5, "iterations = {}", inf.iterations);
        assert!(inf.quanta >= 10);
        assert!(inf.exec_us > 9_990.0);
        // min(E−1, P−E) with E≈10, P=20 → 9 preemptions charged.
        let s = params().sched.pd2_us(4, 250);
        let expected = 9_990.0 + inf.quanta as f64 * s + 5.0 + {
            let pre = (inf.quanta - 1).min(20 - inf.quanta) as f64;
            pre * (5.0 + 50.0)
        };
        assert!((inf.exec_us - expected).abs() < 1e-9);
    }

    #[test]
    fn pd2_detects_overload() {
        // 990 µs of work per 1 ms period: one quantum of real work but the
        // inflation cannot fit.
        let t = PhysTask::new(999, 1_000);
        let r = inflate_pd2(t, &params(), 16, 1000, 90.0);
        // e' = 999 + 1·S + 5 > 1000 → needs 2 quanta > 1 period.
        assert!(matches!(r, Err(InflateError::Overload { .. })));
    }

    #[test]
    fn pd2_rejects_misaligned_period() {
        let t = PhysTask::new(100, 1_500);
        assert_eq!(
            inflate_pd2(t, &params(), 1, 1, 0.0),
            Err(InflateError::PeriodNotQuantumMultiple)
        );
    }

    #[test]
    fn processors_required_grows_with_utilization() {
        let p = params();
        let small: Vec<PhysTask> = (0..10).map(|_| PhysTask::new(2_000, 20_000)).collect();
        let ds = vec![33.3; 10];
        let m_small = pd2_processors_required(&small, &p, &ds, 64).unwrap();
        // Raw U = 1.0; with overheads slightly more → expect 2 (rounding to
        // 2/20 quanta leaves it at 1.0+ε… the inflation pushes ≥ 2 quanta).
        assert!(m_small >= 1);
        let big: Vec<PhysTask> = (0..40).map(|_| PhysTask::new(10_000, 20_000)).collect();
        let ds = vec![33.3; 40];
        let m_big = pd2_processors_required(&big, &p, &ds, 64).unwrap();
        assert!(m_big > m_small);
        // Raw U = 20; inflation adds a little.
        assert!((20..=24).contains(&m_big), "m_big = {m_big}");
    }

    #[test]
    fn zero_overhead_processors_match_raw_ceiling() {
        let p = OverheadParams {
            ctx_switch_us: 0.0,
            quantum_us: 1_000,
            sched: SchedCostModel::Constant {
                edf_us: 0.0,
                pd2_us: 0.0,
            },
        };
        let tasks: Vec<PhysTask> = (0..9).map(|_| PhysTask::new(1_000, 3_000)).collect();
        let ds = vec![0.0; 9];
        // U = 3 exactly, no rounding loss (1000 µs = 1 quantum).
        assert_eq!(pd2_processors_required(&tasks, &p, &ds, 64), Ok(3));
    }

    #[test]
    fn empty_set_needs_zero_processors() {
        assert_eq!(pd2_processors_required(&[], &params(), &[], 4), Ok(0));
    }

    #[test]
    fn processors_required_reports_the_overloaded_tasks_cost() {
        // 999 µs of work per 1 ms period cannot absorb any inflation.
        let tasks = [PhysTask::new(2_000, 20_000), PhysTask::new(999, 1_000)];
        let ds = [33.3, 90.0];
        let at_max = inflate_pd2(tasks[1], &params(), 8, 2, ds[1]).unwrap_err();
        assert!(matches!(at_max, InflateError::Overload { inflated_us } if inflated_us > 1_000.0));
        assert_eq!(
            pd2_processors_required(&tasks, &params(), &ds, 8),
            Err(at_max)
        );
    }

    #[test]
    fn processors_required_reports_zero_cost_when_only_capacity_is_short() {
        // Every task fits on its own; their sum (≈ 20) does not fit 8.
        let tasks: Vec<PhysTask> = (0..40).map(|_| PhysTask::new(10_000, 20_000)).collect();
        assert_eq!(
            pd2_processors_required(&tasks, &params(), &[33.3; 40], 8),
            Err(InflateError::Overload { inflated_us: 0.0 })
        );
    }

    /// The M-search's oracle — the search as it stood before the
    /// S_PD²-keyed pass and the `f64` filter: every task re-inflated at
    /// every candidate M, every sum a [`WeightSum`] asked `at_most(M)`
    /// (exact first, epsilon once it has overflowed). The error value
    /// follows the current contract (the last pass's task-level overload,
    /// else 0.0).
    fn naive_processors_required(
        tasks: &[PhysTask],
        params: &OverheadParams,
        d_us: &[f64],
        max_m: u32,
    ) -> Result<u32, InflateError> {
        let n = tasks.len();
        if n == 0 {
            return Ok(0);
        }
        let raw: f64 = tasks.iter().map(PhysTask::utilization).sum();
        let mut m = first_candidate(raw, n);
        let mut overload = None;
        while m <= max_m {
            let mut total = WeightSum::new();
            overload = None;
            for (t, &d) in tasks.iter().zip(d_us) {
                match inflate_pd2(*t, params, m, n, d) {
                    Ok(inf) => total.add(Weight::new(inf.quanta, inf.period_quanta).unwrap()),
                    Err(e @ InflateError::Overload { .. }) => {
                        overload = Some(e);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if overload.is_none() && total.at_most(m) {
                return Ok(m);
            }
            m += 1;
        }
        Err(overload.unwrap_or(InflateError::Overload { inflated_us: 0.0 }))
    }

    /// Boundary sets, as `(E, P)` weights: the sum is an integer
    /// (`nudge = 0`), or one unit of the common denominator above it (`1`)
    /// or below it (`2`). `top_up` is the tasks of `≤ 10/den` that bring
    /// `sum` units of `1/den` to the next multiple of `den`, nudged.
    fn top_up(sum: u64, den: u64, nudge: u8) -> Vec<(u64, u64)> {
        let mut units = (den - sum % den) % den + [0, 1, den - 1][nudge as usize];
        let mut tasks = Vec::new();
        while units > 0 {
            let e = units.min(10).min(den);
            tasks.push((e, den));
            units -= e;
        }
        tasks
    }

    /// `p` identical tasks of `k/p`, nudged.
    fn identical_weights(p: u64, k: u64, nudge: u8) -> Vec<(u64, u64)> {
        let mut w = vec![(k.min(p), p); p as usize];
        w.extend(top_up(0, p, nudge));
        w
    }

    /// Tasks of `e/2^j` for each `(j ≤ 5, e)`, topped up on period 32.
    fn harmonic_weights(tasks: &[(u32, u64)], nudge: u8) -> Vec<(u64, u64)> {
        let mut w: Vec<(u64, u64)> = tasks
            .iter()
            .map(|&(j, e)| (e.min(1 << j), 1 << j))
            .collect();
        let sum: u64 = w.iter().map(|&(e, p)| e * (32 / p)).sum();
        w.extend(top_up(sum, 32, nudge));
        w
    }

    /// Three tasks over the coprime 997, 991, 983, whose unit is
    /// `1/(997·991·983) ≈ 1e-9`: `a/997 + b/991 + c/983 ≡ target/L (mod 1)`
    /// by the Chinese remainder theorem, one denominator at a time.
    fn coprime_weights(nudge: u8) -> Vec<(u64, u64)> {
        let dens = [997u64, 991, 983];
        let l: u64 = dens.iter().product();
        let target = [l, l + 1, l - 1][nudge as usize];
        dens.iter()
            .map(|&d| {
                let rest = l / d;
                let e = (1..d).find(|e| e * rest % d == target % d);
                (e.unwrap_or(d), d)
            })
            .collect()
    }

    /// [`OverheadParams::zero`] at the paper's 1 ms quantum: nothing is
    /// charged, but costs still round up to whole quanta. (At `zero()`'s
    /// own 1 µs quantum the raw and inflated sums are one number; see
    /// `processors_required_starts_at_the_exact_ceiling`.)
    fn free_at_1ms() -> OverheadParams {
        OverheadParams {
            quantum_us: 1_000,
            ..OverheadParams::zero()
        }
    }

    /// Tasks that inflate to exactly `weights` under `params`, each `D(T)`
    /// being `d_us`: every cost stops half a quantum short of its `E`
    /// quanta, which nothing eats into under [`free_at_1ms`] at `D = 0`,
    /// nor `E ≤ 10` quanta of the paper's costs at `D ≤ 30`, `N ≤ 60`.
    fn tasks_of_weights(
        weights: &[(u64, u64)],
        params: &OverheadParams,
        d_us: f64,
    ) -> (Vec<PhysTask>, Vec<f64>) {
        let q = params.quantum_us;
        let tasks = weights
            .iter()
            .map(|&(e, p)| PhysTask::new(e * q - q / 2, p * q))
            .collect();
        (tasks, vec![d_us; weights.len()])
    }

    #[test]
    fn exact_sum_decides_where_the_f64_sum_rounds_across_m() {
        // Nine tasks of weight 1/9 sum to 1; nine f64 additions of 1/9
        // give 1.0000000000000002. Deciding from the f64 sum alone (a band
        // of 0) would ask for a second processor.
        let free = free_at_1ms();
        let (tasks, ds) = tasks_of_weights(&[(1, 9); 9], &free, 0.0);
        let approx = pd2_weight_sum_f64(&tasks, &free, &ds, 0.0).unwrap();
        assert!(approx > 1.0, "f64 sum {approx:e} rounds above the exact 1");
        assert_eq!(pd2_processors_required(&tasks, &free, &ds, 4), Ok(1));
        assert_eq!(naive_processors_required(&tasks, &free, &ds, 4), Ok(1));

        // K + 1/(997·991·983): the f64 sum is within 1e-9 of K, inside
        // WeightSum's own 1e-7 epsilon — only the exact sum says "K + 1".
        let weights = coprime_weights(1);
        let (tasks, ds) = tasks_of_weights(&weights, &free, 0.0);
        let approx = pd2_weight_sum_f64(&tasks, &free, &ds, 0.0).unwrap();
        let k = approx.floor();
        assert!(approx - k < 2e-9, "f64 sum {approx} is a hair above {k}");
        let m = Ok(k as u32 + 1);
        assert_eq!(pd2_processors_required(&tasks, &free, &ds, 4), m);
        assert_eq!(naive_processors_required(&tasks, &free, &ds, 4), m);

        // Ten 2-quanta jobs per 20 under the paper's costs: exactly 1.
        let tasks = vec![PhysTask::new(1_500, 20_000); 10];
        let total = pd2_weight_sum(&tasks, &params(), &[33.3; 10], 4.0).unwrap();
        assert_eq!(total.exact(), Some(Rat::ONE));
        assert_eq!(
            pd2_processors_required(&tasks, &params(), &[33.3; 10], 4),
            Ok(1)
        );
    }

    #[test]
    fn processors_required_starts_at_the_exact_ceiling() {
        // At `zero()`'s 1 µs quantum nothing rounds: the raw weights are
        // the inflated ones. Nine tasks of 1/9 sum to exactly 1, but to
        // 1.0000000000000002 in f64, whose ceiling is 2 — a search that
        // started there answered 2.
        let tasks = vec![PhysTask::new(1, 9); 9];
        let raw: f64 = tasks.iter().map(PhysTask::utilization).sum();
        assert_eq!(raw.ceil(), 2.0, "f64 raw sum {raw:e} rounds above 1");
        let zero = OverheadParams::zero();
        assert_eq!(pd2_processors_required(&tasks, &zero, &[0.0; 9], 4), Ok(1));
        assert_eq!(
            naive_processors_required(&tasks, &zero, &[0.0; 9], 4),
            Ok(1)
        );
        // An integer raw sum that f64 carries exactly still starts there.
        assert_eq!(first_candidate(3.0, 9), 3);
        assert_eq!(first_candidate(0.25, 1), 1);
    }

    #[test]
    fn exact_sum_is_built_inside_the_band_only() {
        let unreachable = || -> WeightSum { panic!("exact sum built outside the band") };
        // Clear of the band on either side: the f64 sum decides.
        assert!(sum_fits(3.0 - 2e-6, 250, 3, unreachable));
        assert!(!sum_fits(3.0 + 2e-6, 250, 3, unreachable));
        assert!(!sum_fits(57.3, 250, 3, unreachable));
        // Inside it the exact sum does, against what the f64 sum says.
        let thirds = |count: u32| {
            let mut sum = WeightSum::new();
            for _ in 0..count {
                sum.add(Weight::new(1, 3).unwrap());
            }
            sum
        };
        let mut built = 0;
        for (approx, count, fits) in [(1.0 + 5e-7, 3, true), (1.0 - 5e-7, 4, false)] {
            let exact = || {
                built += 1;
                thirds(count)
            };
            assert_eq!(sum_fits(approx, 3, 1, exact), fits);
        }
        assert_eq!(built, 2);
        // A million terms summing to a million: 1e-6 no longer bounds the
        // f64 error, and the band widens to the bound.
        assert!(sum_fits(1e6 - 1e-4, 10, 1_000_000, unreachable));
        let exact = || {
            built += 1;
            thirds(3)
        };
        assert!(sum_fits(1e6 - 1e-4, 1_000_000, 1_000_000, exact));
        assert_eq!(built, 3);
    }

    /// The specification of [`pd2_fixed_point`]: [`inflate_pd2`]'s formula
    /// by the plain iteration `E ← max(1, ⌈⌈e'(E)⌉/q⌉)` from `⌈e/q⌉`, to
    /// the first `E` that holds its own cost. An `E` past `P = p/q` is an
    /// overload charged at `e'(max(P, 1))`, and 10,000 steps without a
    /// fixed point is [`InflateError::NoConvergence`].
    fn spec_pd2_fixed_point(
        task: PhysTask,
        params: &OverheadParams,
        s_us: f64,
        d_us: f64,
    ) -> Result<Pd2FixedPoint, InflateError> {
        let q = params.quantum_us;
        if q == 0 || task.period_us % q != 0 {
            return Err(InflateError::PeriodNotQuantumMultiple);
        }
        let big_p = task.period_us / q;
        let (e, c) = (task.wcet_us as f64, params.ctx_switch_us);
        // e' = e + E·S + C + min(E − 1, P − E)·(C + D)
        let inflated = |big_e: u64| {
            let resumptions = (big_e - 1).min(big_p.saturating_sub(big_e));
            e + big_e as f64 * s_us + c + resumptions as f64 * (c + d_us)
        };
        let mut big_e = task.wcet_us.div_ceil(q).max(1);
        let mut iterations = 0;
        loop {
            iterations += 1;
            if big_e > big_p {
                let inflated_us = inflated(big_p.max(1));
                return Err(InflateError::Overload { inflated_us });
            }
            let e_prime = inflated(big_e);
            let next = (e_prime.ceil() as u64).div_ceil(q).max(1);
            if next <= big_e {
                return Ok(Pd2FixedPoint {
                    exec_us: e_prime,
                    quanta: big_e,
                    period_quanta: big_p,
                    iterations,
                });
            }
            if iterations > 10_000 {
                return Err(InflateError::NoConvergence);
            }
            big_e = next;
        }
    }

    /// A fixed point down to the bits of `e'`, or the error, with
    /// `Overload`'s cost as bits too.
    type FixedPointBits = Result<(u64, u64, u64, u32), (u8, u64)>;

    fn fixed_point_bits(r: Result<Pd2FixedPoint, InflateError>) -> FixedPointBits {
        r.map(|fp| {
            let (e, q, p, i) = (fp.exec_us, fp.quanta, fp.period_quanta, fp.iterations);
            (e.to_bits(), q, p, i)
        })
        .map_err(|e| match e {
            InflateError::Overload { inflated_us } => (0, inflated_us.to_bits()),
            InflateError::PeriodNotQuantumMultiple => (1, 0),
            InflateError::NoConvergence => (2, 0),
        })
    }

    /// The fixed point of `task` at `s_us`, `d_us`, and the spec's.
    fn both_fixed_points(
        task: PhysTask,
        params: &OverheadParams,
        s_us: f64,
        d_us: f64,
    ) -> (FixedPointBits, FixedPointBits) {
        (
            fixed_point_bits(pd2_fixed_point(task, params, s_us, d_us)),
            fixed_point_bits(spec_pd2_fixed_point(task, params, s_us, d_us)),
        )
    }

    #[test]
    fn fixed_point_exits_on_the_span_itself() {
        // Free inflation at q = 7: e' = e = E·q lands exactly on the span,
        // the one case where `e' ≤ k` and `⌈e'⌉ ≤ k` could part if either
        // were off by one.
        let free = OverheadParams {
            quantum_us: 7,
            ..OverheadParams::zero()
        };
        for e in [1u64, 2, 9, 100] {
            let task = PhysTask::new(e * 7, 700);
            let fp = pd2_fixed_point(task, &free, 0.0, 0.0).unwrap();
            assert_eq!(
                (fp.exec_us, fp.quanta, fp.iterations),
                ((e * 7) as f64, e, 1)
            );
            let (fast, spec) = both_fixed_points(task, &free, 0.0, 0.0);
            assert_eq!(fast, spec);
            // A quarter µs per quantum puts e' = E·q + E/4 a fraction past
            // the span: ⌈e'⌉ > k, so E grows by one.
            if e <= 3 {
                let fp = pd2_fixed_point(task, &free, 0.25, 0.0).unwrap();
                assert_eq!((fp.quanta, fp.iterations), (e + 1, 2));
                let (fast, spec) = both_fixed_points(task, &free, 0.25, 0.0);
                assert_eq!(fast, spec);
            }
        }
        // Integer costs that sum to the span: 5 + 2·1 + 1 + 1·(1 + 1) = 10
        // at E = 2, q = 5.
        let constant = OverheadParams {
            ctx_switch_us: 1.0,
            quantum_us: 5,
            sched: SchedCostModel::Constant {
                edf_us: 0.0,
                pd2_us: 1.0,
            },
        };
        let task = PhysTask::new(5, 20);
        let fp = pd2_fixed_point(task, &constant, 1.0, 1.0).unwrap();
        assert_eq!((fp.exec_us, fp.quanta), (10.0, 2));
        let (fast, spec) = both_fixed_points(task, &constant, 1.0, 1.0);
        assert_eq!(fast, spec);
        // Spans past 2⁵³, where `k as f64` may round, and NaN costs take
        // the division; so does a span of exactly 2⁵³, which is exact.
        let wide = OverheadParams {
            quantum_us: 1,
            ..OverheadParams::zero()
        };
        for e in [
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 53) + 3,
            1 << 60,
        ] {
            let task = PhysTask::new(e, 1 << 61);
            let (fast, spec) = both_fixed_points(task, &wide, 0.0, 0.0);
            assert_eq!(fast, spec, "e = {e}");
            let (fast, spec) = both_fixed_points(task, &wide, f64::NAN, 0.0);
            assert_eq!(fast, spec, "NaN cost, e = {e}");
        }
    }

    proptest! {
        /// The fixed point is the spec's: `e'` to the bit, the span, the
        /// iteration count and every error, under the paper's costs, free
        /// inflation, integer constant costs (where `e'` often lands on
        /// `E·q` exactly) and eighths of a µs per quantum (where it lands
        /// a fraction past it), at q ∈ {1, 7, 1000}, with periods whose
        /// spans stay small, straddle 2⁵³ or pass it, and on free spans
        /// just past 2⁵³, whose `f64` image may round up past the span.
        #[test]
        fn prop_fixed_point_matches_the_spec(
            model in 0u8..4,
            q in prop::sample::select(vec![1u64, 7, 1_000]),
            (scale, period_q) in (0u8..3, 1u64..200),
            wcet_frac in 0.0f64..1.5,
            d_us in 0.0f64..=100.0,
            (m, n, s_int) in (1u32..32, 1usize..500, 0u64..20),
            past_off in 0u64..64,
        ) {
            let period_q = match scale {
                0 => period_q,
                1 => (1u64 << 53) / q + period_q,
                _ => (1u64 << 60) / q + period_q,
            };
            let period = period_q * q;
            let wcet = ((wcet_frac * period as f64) as u64).max(1);
            let (params, s_us, d_us) = match model {
                0 => {
                    let p = OverheadParams { quantum_us: q, ..params() };
                    (p, p.sched.pd2_us(m, n), d_us)
                }
                1 => (OverheadParams { quantum_us: q, ..OverheadParams::zero() }, 0.0, 0.0),
                3 => {
                    let free = OverheadParams { quantum_us: q, ..OverheadParams::zero() };
                    (free, s_int as f64 / 8.0, 0.0)
                }
                _ => {
                    let p = OverheadParams {
                        ctx_switch_us: (s_int % 4) as f64,
                        quantum_us: q,
                        sched: SchedCostModel::Constant { edf_us: 0.0, pd2_us: s_int as f64 },
                    };
                    (p, s_int as f64, d_us.round())
                }
            };
            let task = PhysTask::new(wcet, period);
            let (fast, spec) = both_fixed_points(task, &params, s_us, d_us);
            prop_assert_eq!(fast, spec);
            // A span of whole quanta: free inflation lands on it exactly.
            let landed = PhysTask::new(wcet.div_ceil(q) * q, period.max(wcet.div_ceil(q) * q));
            let (fast, spec) = both_fixed_points(landed, &params, s_us, d_us);
            prop_assert_eq!(fast, spec);
            let free = OverheadParams { quantum_us: q, ..OverheadParams::zero() };
            let past = ((1u64 << 53) + past_off).div_ceil(q) * q;
            let (fast, spec) = both_fixed_points(PhysTask::new(past, 2 * past), &free, 0.0, 0.0);
            prop_assert_eq!(fast, spec);
        }
    }

    proptest! {
        /// One `f64`-filtered inflation pass per distinct S_PD² gives the
        /// result of an exact-first pass per candidate M: under the paper's
        /// model with raw utilisation on both sides of the M = 16
        /// saturation, under a constant model and under zero overheads,
        /// with an individually overloaded task in the set, with a
        /// misaligned period, and with `max_m` cutting the search short.
        #[test]
        fn prop_processors_required_matches_naive_search(
            raw in prop::collection::vec((1u64..40, 0.01f64..0.95, 0.0f64..100.0), 1..70),
            model in 0u8..3,
            odd_task in 0u8..6,
            max_m in 1u32..90,
        ) {
            let mut tasks: Vec<PhysTask> = raw
                .iter()
                .map(|&(period_q, u, _)| {
                    let period = period_q * 1_000;
                    PhysTask::new(((u * period as f64) as u64).max(1), period)
                })
                .collect();
            let mut ds: Vec<f64> = raw.iter().map(|r| r.2).collect();
            match odd_task {
                0 => tasks.push(PhysTask::new(999, 1_000)),
                1 => tasks.insert(0, PhysTask::new(2_999, 3_000)),
                2 => tasks.push(PhysTask::new(100, 1_500)),
                _ => {}
            }
            ds.resize(tasks.len(), 50.0);
            let mut p = params();
            match model {
                1 => p.sched = SchedCostModel::Constant { edf_us: 1.0, pd2_us: 6.0 },
                2 => p = OverheadParams::zero(),
                _ => {}
            }
            prop_assert_eq!(
                pd2_processors_required(&tasks, &p, &ds, max_m),
                naive_processors_required(&tasks, &p, &ds, max_m)
            );
        }

        /// The same differential on sets built to sit on the boundary: the
        /// inflated sum is an integer exactly, or one unit of its common
        /// denominator away — where only the exact sum gives the verdict.
        #[test]
        fn prop_processors_required_matches_naive_search_on_the_boundary(
            shape in 0u8..3,
            p in 2u64..=20,
            k in 1u64..=10,
            harmonic in prop::collection::vec((0u32..=5, 1u64..=10), 1..40),
            nudge in 0u8..3,
            paper in 0u8..2,
            d_us in 0.0f64..30.0,
        ) {
            let weights = match shape {
                0 => identical_weights(p, k, nudge),
                1 => harmonic_weights(&harmonic, nudge),
                _ => coprime_weights(nudge),
            };
            prop_assume!(weights.len() <= 60);
            // The coprime shape's numerators run to 996 quanta, which only
            // a free inflation leaves alone.
            let (params, d_us) = if paper == 1 && shape != 2 {
                (params(), d_us)
            } else {
                (free_at_1ms(), 0.0)
            };
            let (tasks, ds) = tasks_of_weights(&weights, &params, d_us);
            let n = tasks.len();
            for (t, &(e, p)) in tasks.iter().zip(&weights) {
                // The set is what it was built to be: E/P survive inflation
                // (at the saturated S_PD², the costliest).
                let inf = inflate_pd2(*t, &params, 16, n, d_us).unwrap();
                prop_assert_eq!((inf.quanta, inf.period_quanta), (e, p));
            }
            for max_m in [1, 64] {
                prop_assert_eq!(
                    pd2_processors_required(&tasks, &params, &ds, max_m),
                    naive_processors_required(&tasks, &params, &ds, max_m)
                );
            }
        }

        /// Inflation is monotone: never below the raw cost, and the weight
        /// never below the quantized raw weight.
        #[test]
        fn prop_inflation_monotone(
            wcet in 1u64..50_000,
            period_q in 2u64..100,
            d in 0.0f64..100.0,
        ) {
            let t = PhysTask::new(wcet, period_q * 1_000);
            if let Ok(inf) = inflate_pd2(t, &params(), 4, 100, d) {
                prop_assert!(inf.exec_us >= wcet as f64);
                prop_assert!(inf.quanta >= wcet.div_ceil(1_000));
                prop_assert!(inf.quanta <= inf.period_quanta);
            }
        }

        /// More processors ⇒ no smaller quantum span (S_PD² grows with M).
        /// Note the raw µs cost is *not* monotone: crossing into an extra
        /// quantum can shrink the `min(E−1, P−E)` preemption term, so only
        /// the schedulable weight (quanta/period) is asserted.
        #[test]
        fn prop_inflation_grows_with_m(
            wcet in 1u64..20_000,
            period_q in 2u64..60,
        ) {
            let t = PhysTask::new(wcet, period_q * 1_000);
            let a = inflate_pd2(t, &params(), 2, 100, 33.3);
            let b = inflate_pd2(t, &params(), 16, 100, 33.3);
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert!(b.quanta >= a.quanta);
                prop_assert!(b.weight >= a.weight);
            }
        }
    }
}
