//! Pfair subtask machinery: pseudo-releases, pseudo-deadlines, windows,
//! b-bits, and group deadlines.
//!
//! The lag bound `-1 < lag(T, t) < 1` (paper, Equation (1)) divides each
//! task `T` of weight `w = e/p` into an infinite sequence of quantum-length
//! *subtasks* `T₁, T₂, …`. Subtask `Tᵢ` must be scheduled inside its window
//!
//! ```text
//! w(Tᵢ) = [ r(Tᵢ), d(Tᵢ) )        r(Tᵢ) = ⌊(i−1)/w⌋     d(Tᵢ) = ⌈i/w⌉
//! ```
//!
//! All functions in this module are pure in `(w, i)` and use only integer
//! arithmetic: with `w = n/d` in lowest terms, `r(Tᵢ) = ⌊(i−1)·d/n⌋` and
//! `d(Tᵢ) = ⌈i·d/n⌉`.
//!
//! These are the *synchronous* formulas. Intra-sporadic (IS) tasks shift
//! every formula by the subtask's accumulated offset `θ(Tᵢ)`
//! (see [`crate::sched`]); because the shift is uniform, the b-bit and the
//! *relative* group deadline are unaffected.

use pfair_model::{Slot, Weight, Window};

/// Index of a subtask within its task, 1-based as in the paper (`T₁` is the
/// first subtask).
pub type SubtaskIndex = u64;

/// Pseudo-release `r(Tᵢ) = ⌊(i−1)/w⌋` of the `i`-th subtask of a task with
/// weight `w`, for a synchronous task (first job released at time 0).
///
/// # Examples
///
/// ```
/// use pfair_core::subtask;
/// use pfair_model::Weight;
///
/// // The paper's Fig. 1(a): weight 8/11, subtask T3 has window [2, 5).
/// let w = Weight::new(8, 11).unwrap();
/// assert_eq!(subtask::release(w, 3), 2);
/// assert_eq!(subtask::deadline(w, 3), 5);
/// assert!(subtask::b_bit(w, 3));
/// assert_eq!(subtask::group_deadline(w, 3), 8);
/// ```
///
/// # Panics
///
/// Panics if `i == 0` (subtask indices are 1-based).
pub fn release(w: Weight, i: SubtaskIndex) -> Slot {
    assert!(i >= 1, "subtask indices are 1-based");
    // ⌊(i−1)·den/num⌋
    let r = (i - 1) as u128 * w.denom() as u128 / w.numer() as u128;
    Slot::try_from(r).expect("pseudo-release overflows the 64-bit slot range")
}

/// Pseudo-deadline `d(Tᵢ) = ⌈i/w⌉`.
///
/// # Panics
///
/// Panics if `i == 0`.
pub fn deadline(w: Weight, i: SubtaskIndex) -> Slot {
    assert!(i >= 1, "subtask indices are 1-based");
    // ⌈i·den/num⌉
    let num = w.numer() as u128;
    let x = i as u128 * w.denom() as u128;
    Slot::try_from(x.div_ceil(num)).expect("pseudo-deadline overflows the 64-bit slot range")
}

/// The window `w(Tᵢ) = [r(Tᵢ), d(Tᵢ))`.
pub fn window(w: Weight, i: SubtaskIndex) -> Window {
    Window::new(release(w, i), deadline(w, i))
}

/// The PD² *b-bit*: `b(Tᵢ) = 1` iff `Tᵢ`'s window overlaps `Tᵢ₊₁`'s
/// (equivalently, `r(Tᵢ₊₁) = d(Tᵢ) − 1`).
///
/// Closed form: the windows overlap iff `i/w` is not an integer, i.e. iff
/// `num ∤ i·den`.
pub fn b_bit(w: Weight, i: SubtaskIndex) -> bool {
    assert!(i >= 1, "subtask indices are 1-based");
    (i as u128 * w.denom() as u128) % w.numer() as u128 != 0
}

/// The PD² *group deadline* `D(Tᵢ)` of subtask `Tᵢ`, for a **synchronous**
/// task.
///
/// For a heavy task (`w ≥ 1/2`) this is the earliest time `t ≥ d(Tᵢ)` by
/// which a cascade of forced allocations must end: either some `d(T_k) = t`
/// with `b(T_k) = 0`, or some `d(T_k) = t + 1` with `|w(T_k)| = 3` (paper,
/// Section 2). For light tasks the group deadline plays no role; following
/// the PD² literature it is defined as `0`.
///
/// Closed form used here (validated against the defining cascade walk by
/// `group_deadline_by_definition` in property tests): the group deadlines
/// of a heavy task with weight `e/p` are exactly the values
/// `⌈k·p/(p−e)⌉, k = 1, 2, …`; hence
///
/// ```text
/// D(Tᵢ) = ⌈ k*·p/(p−e) ⌉   where   k* = ⌈ d(Tᵢ)·(p−e)/p ⌉ .
/// ```
///
/// A weight-1 task has every slot allocated; no cascade can be started by
/// scheduling "late", and we define `D(Tᵢ) = d(Tᵢ)` (its b-bit is always 0,
/// so PD² never consults the value).
pub fn group_deadline(w: Weight, i: SubtaskIndex) -> Slot {
    assert!(i >= 1, "subtask indices are 1-based");
    if w.is_light() {
        return 0;
    }
    let e = w.numer() as u128;
    let p = w.denom() as u128;
    if e == p {
        return deadline(w, i);
    }
    let holes = p - e; // p − e > 0
    let d = deadline(w, i) as u128;
    // k* = ⌈d·(p−e)/p⌉, then D = ⌈k*·p/(p−e)⌉.
    let k = (d * holes).div_ceil(p);
    Slot::try_from((k * p).div_ceil(holes)).expect("group deadline overflows the 64-bit slot range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_model::SlotCount;
    use proptest::prelude::*;

    fn w(e: u64, p: u64) -> Weight {
        Weight::new(e, p).unwrap()
    }

    /// Window length `|w(Tᵢ)| = d(Tᵢ) − r(Tᵢ)`.
    fn window_len(w: Weight, i: SubtaskIndex) -> SlotCount {
        deadline(w, i) - release(w, i)
    }

    /// The group deadline computed directly from its definition, by walking the
    /// cascade of successor subtasks. Exponentially slower than
    /// [`group_deadline`] for weights near 1; used to validate the closed form.
    fn group_deadline_by_definition(w: Weight, i: SubtaskIndex) -> Slot {
        assert!(i >= 1, "subtask indices are 1-based");
        if w.is_light() {
            return 0;
        }
        if w.is_unit() {
            return deadline(w, i);
        }
        let d_i = deadline(w, i);
        let mut best: Option<Slot> = None;
        // The defining condition quantifies over all subtasks T_k; candidates at
        // or after d(Tᵢ) can only come from k ≥ i − 1 (deadlines are
        // non-decreasing and differ by ≥ 1 between consecutive subtasks of a
        // heavy task). Walk forward until a candidate is found; for a heavy
        // non-unit weight a b-bit of 0 recurs within every window of `e`
        // consecutive subtasks, so this terminates.
        let mut k = i;
        loop {
            let d_k = deadline(w, k);
            if !b_bit(w, k) && d_k >= d_i {
                best = Some(match best {
                    Some(b) => b.min(d_k),
                    None => d_k,
                });
                break;
            }
            if window_len(w, k) == 3 && d_k > d_i {
                let cand = d_k - 1;
                best = Some(match best {
                    Some(b) => b.min(cand),
                    None => cand,
                });
                break;
            }
            k += 1;
        }
        best.expect("cascade always terminates for heavy tasks")
    }

    /// Paper Fig. 1(a): windows of the first two jobs of a weight-8/11 task.
    #[test]
    fn fig1a_windows_weight_8_11() {
        let wt = w(8, 11);
        // Expected windows read off the figure (subtasks T1..T8, first job).
        let expected: [(Slot, Slot); 8] = [
            (0, 2),
            (1, 3),
            (2, 5),
            (4, 6),
            (5, 7),
            (6, 9),
            (8, 10),
            (9, 11),
        ];
        // Pair each expected window with its explicit u64 subtask index
        // rather than casting a usize loop counter.
        for (idx, &(r, d)) in (1u64..).zip(expected.iter()) {
            assert_eq!(release(wt, idx), r, "r(T{idx})");
            assert_eq!(deadline(wt, idx), d, "d(T{idx})");
        }
        // Second job = first job shifted by the period 11 (T9..T16).
        for i in 1..=8u64 {
            assert_eq!(release(wt, i + 8), release(wt, i) + 11);
            assert_eq!(deadline(wt, i + 8), deadline(wt, i) + 11);
        }
    }

    /// Paper Section 2: "b(Tᵢ) = 1 for 1 ≤ i ≤ 7 and b(T₈) = 0" for w = 8/11.
    #[test]
    fn fig1a_b_bits() {
        let wt = w(8, 11);
        for i in 1..=7 {
            assert!(b_bit(wt, i), "b(T{i}) should be 1");
        }
        assert!(!b_bit(wt, 8), "b(T8) should be 0");
        // And the pattern repeats per job.
        assert!(!b_bit(wt, 16));
        assert!(b_bit(wt, 9));
    }

    /// Paper Section 2: "subtask T₃ … has a group deadline at time 8 and
    /// subtask T₇ has a group deadline at time 11" for w = 8/11.
    #[test]
    fn fig1a_group_deadlines() {
        let wt = w(8, 11);
        assert_eq!(group_deadline(wt, 3), 8);
        assert_eq!(group_deadline(wt, 7), 11);
        // Cross-check the closed form against the definition on the whole
        // first two jobs.
        for i in 1..=16 {
            assert_eq!(
                group_deadline(wt, i),
                group_deadline_by_definition(wt, i),
                "D(T{i})"
            );
        }
    }

    #[test]
    fn light_tasks_have_zero_group_deadline() {
        for &(e, p) in &[(1u64, 3u64), (2, 5), (1, 45), (2, 9)] {
            let wt = w(e, p);
            assert!(wt.is_light());
            assert_eq!(group_deadline(wt, 1), 0);
            assert_eq!(group_deadline_by_definition(wt, 1), 0);
        }
    }

    #[test]
    fn unit_weight_task() {
        let wt = w(1, 1);
        for i in 1..=10 {
            assert_eq!(release(wt, i), i - 1);
            assert_eq!(deadline(wt, i), i);
            assert_eq!(window_len(wt, i), 1);
            assert!(!b_bit(wt, i));
            assert_eq!(group_deadline(wt, i), i);
        }
    }

    #[test]
    fn half_weight_task() {
        // w = 1/2: windows [0,2), [2,4), ... all disjoint, b = 0 always.
        let wt = w(1, 2);
        for i in 1..=10 {
            assert_eq!(release(wt, i), 2 * (i - 1));
            assert_eq!(deadline(wt, i), 2 * i);
            assert!(!b_bit(wt, i));
            // Group deadline = own deadline (cascade length 0): closed form
            // says ⌈k·2/1⌉ with k = ⌈2i/2⌉ = i, D = 2i.
            assert_eq!(group_deadline(wt, i), 2 * i);
            assert_eq!(group_deadline_by_definition(wt, i), 2 * i);
        }
    }

    #[test]
    fn consecutive_windows_overlap_or_are_disjoint_by_one() {
        // Paper: r(Tᵢ₊₁) is either d(Tᵢ) − 1 or d(Tᵢ).
        for &(e, p) in &[(8u64, 11u64), (2, 3), (3, 4), (5, 7), (1, 5), (7, 10)] {
            let wt = w(e, p);
            for i in 1..=3 * p {
                let r_next = release(wt, i + 1);
                let d_cur = deadline(wt, i);
                assert!(
                    r_next == d_cur || r_next + 1 == d_cur,
                    "w={wt} i={i}: r(T_i+1)={r_next}, d(T_i)={d_cur}"
                );
                assert_eq!(b_bit(wt, i), r_next + 1 == d_cur);
            }
        }
    }

    /// Paper Fig. 1(a): subtasks `T₁…T₈` and `T₉…T₁₆` are the first two
    /// jobs of a weight-8/11 task, so job `j` starts with `T_{8j+1}`,
    /// released at `j·11`.
    #[test]
    fn job_indexing() {
        let wt = w(8, 11);
        for job in 0..3 {
            assert_eq!(release(wt, job * 8 + 1), job * 11);
            assert_eq!(deadline(wt, job * 8 + 8), (job + 1) * 11);
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_index_panics() {
        let _ = release(w(1, 2), 0);
    }

    /// Subtask indices near `u64::MAX` stay exact as long as the resulting
    /// slots fit 64 bits: the internal math is `u128`, and the final
    /// conversion is checked rather than a silent truncating cast.
    #[test]
    fn large_horizon_indices_are_exact() {
        // Unit weight: slot values equal the index, the largest case that
        // must still fit.
        let unit = w(1, 1);
        assert_eq!(release(unit, u64::MAX), u64::MAX - 1);
        assert_eq!(deadline(unit, u64::MAX), u64::MAX);
        // Weight 8/11: intermediate i·den exceeds u64 but the window is
        // exact in u128; check against the periodic shift from a small
        // index (i ≡ 8 (mod 8), 2^61 periods of 8 subtasks).
        let wt = w(8, 11);
        let jobs = 1u64 << 60;
        let i = jobs * 8; // ≡ T8 shifted by `jobs − 1` periods
        assert_eq!(release(wt, i), release(wt, 8) + (jobs - 1) * 11);
        assert_eq!(deadline(wt, i), deadline(wt, 8) + (jobs - 1) * 11);
        assert!(!b_bit(wt, i));
        assert_eq!(
            group_deadline(wt, i),
            group_deadline(wt, 8) + (jobs - 1) * 11
        );
    }

    /// A pseudo-deadline that cannot be represented in 64 bits panics
    /// instead of silently truncating.
    #[test]
    #[should_panic(expected = "overflows the 64-bit slot range")]
    fn deadline_past_u64_panics() {
        // d(Tᵢ) = ⌈i·3/1⌉ overflows once i > u64::MAX / 3.
        let _ = deadline(w(1, 3), u64::MAX / 3 + 1);
    }

    fn arb_weight() -> impl Strategy<Value = Weight> {
        (1u64..200, 1u64..200).prop_filter_map("e<=p", |(a, b)| {
            let (e, p) = if a <= b { (a, b) } else { (b, a) };
            Weight::new(e, p).ok()
        })
    }

    fn arb_heavy_weight() -> impl Strategy<Value = Weight> {
        arb_weight().prop_filter("heavy", |w| w.is_heavy())
    }

    proptest! {
        /// The per-period structure repeats: shifting a subtask index by e
        /// shifts release/deadline by p.
        #[test]
        fn prop_periodicity(wt in arb_weight(), i in 1u64..500) {
            let (e, p) = (wt.numer(), wt.denom());
            prop_assert_eq!(release(wt, i + e), release(wt, i) + p);
            prop_assert_eq!(deadline(wt, i + e), deadline(wt, i) + p);
            prop_assert_eq!(b_bit(wt, i + e), b_bit(wt, i));
            prop_assert_eq!(window_len(wt, i + e), window_len(wt, i));
        }

        /// Window lengths take at most the two values ⌈1/w⌉ and ⌈1/w⌉ + 1:
        /// from d(Tᵢ) − r(Tᵢ) ∈ (p/e, p/e + 2) and integrality.
        #[test]
        fn prop_window_length_bounds(wt in arb_weight(), i in 1u64..500) {
            let len = window_len(wt, i);
            let inv_ceil = wt.denom().div_ceil(wt.numer());
            prop_assert!(len >= inv_ceil, "len={len} < ceil(1/w)={inv_ceil}");
            prop_assert!(len <= inv_ceil + 1, "len={len} > ceil(1/w)+1");
        }

        /// Heavy tasks have windows of length 2 or 3 only (paper, Sec. 2).
        #[test]
        fn prop_heavy_window_lengths(wt in arb_heavy_weight(), i in 1u64..500) {
            prop_assume!(!wt.is_unit());
            let len = window_len(wt, i);
            prop_assert!(len == 2 || len == 3, "heavy window len {len}");
        }

        /// The closed-form group deadline equals the defining cascade walk.
        #[test]
        fn prop_group_deadline_closed_form(wt in arb_heavy_weight(), i in 1u64..300) {
            prop_assert_eq!(
                group_deadline(wt, i),
                group_deadline_by_definition(wt, i),
                "weight {}", wt
            );
        }

        /// Group deadlines are at or after the subtask deadline.
        #[test]
        fn prop_group_deadline_ge_deadline(wt in arb_heavy_weight(), i in 1u64..300) {
            prop_assert!(group_deadline(wt, i) >= deadline(wt, i));
        }

        /// Exactly e subtasks have deadlines within each period, and the
        /// j-th job's subtasks `T_{je+1} … T_{(j+1)e}` all fit inside
        /// [j·p, (j+1)·p].
        #[test]
        fn prop_job_confinement(wt in arb_weight(), job in 0u64..20) {
            let (e, p) = (wt.numer(), wt.denom());
            let first = job * e + 1;
            for i in first..first + e {
                prop_assert!(release(wt, i) >= job * p);
                prop_assert!(deadline(wt, i) <= (job + 1) * p);
            }
        }

        /// Releases are non-decreasing and deadlines strictly increasing in i.
        #[test]
        fn prop_monotonicity(wt in arb_weight(), i in 1u64..500) {
            prop_assert!(release(wt, i + 1) >= release(wt, i));
            // Deadlines are strictly increasing (p ≥ e ⇒ consecutive
            // deadlines differ by at least 1).
            prop_assert!(deadline(wt, i + 1) > deadline(wt, i));
            prop_assert!(deadline(wt, i + 1) > release(wt, i + 1));
        }
    }
}
