//! Subtask priority orders: EPDF, PF, PD, and PD².
//!
//! All known optimal Pfair algorithms prioritize subtasks on an
//! earliest-pseudo-deadline-first basis and differ only in their tie-breaking
//! rules (paper, Section 2). This module implements the comparators as pure
//! functions over a compact per-subtask record, [`SubtaskTag`], so that the
//! generic scheduler in [`crate::sched`] and the ablation experiments can
//! swap policies freely.
//!
//! * [`Policy::Epdf`] — no tie-breaks (earliest pseudo-deadline first).
//!   *Not* optimal for `M > 2`; included as the ablation baseline.
//! * [`Policy::Pf`] — the original PF algorithm of Baruah et al. \[5\]:
//!   ties are broken by lexicographic comparison of the b-bit sequences of
//!   successor subtasks.
//! * [`Policy::Pd2`] — PD² \[2\]: ties broken by the b-bit, then by *later*
//!   group deadline.
//! * [`Policy::Pd`] — PD \[6\]: PD² plus further deterministic tie-breaks
//!   (see [`Policy::Pd`] docs).
//!
//! Within a policy all remaining ties are broken by task id, making every
//! comparator a **total order** — a requirement for using them as heap keys.
//! Because PD² with *arbitrary* residual tie-breaking is optimal
//! (Srinivasan & Anderson \[39\]), any such refinement preserves optimality.

use crate::subtask::{self, SubtaskIndex};
use pfair_model::{Slot, TaskId, Weight};
use std::cmp::Ordering;

/// Which Pfair priority order to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Earliest-pseudo-deadline-first with no tie-breaks (ablation baseline;
    /// optimal only for M ≤ 2).
    Epdf,
    /// EPDF plus the b-bit tie-break only — PD² without the group
    /// deadline. An ablation point isolating the two PD² rules: sufficient
    /// for light-only task systems, insufficient in general (the group
    /// deadline exists precisely for the length-2-window cascades of heavy
    /// tasks).
    BBitOnly,
    /// PF \[5\]: deadline, then lexicographic b-bit sequence comparison.
    Pf,
    /// PD \[6\]: deadline, b-bit, group deadline, then heavier-weight-first.
    ///
    /// The historical PD uses four tie-break parameters; PD² later proved
    /// two of them unnecessary. We model PD as PD² plus a
    /// heavier-weight-first rule standing in for the superfluous
    /// tie-breaks: any deterministic refinement of the PD² order is an
    /// optimal scheduler, so this preserves PD's correctness properties
    /// while exhibiting its larger tie-break state (which is what the
    /// paper's efficiency comparison is about).
    Pd,
    /// PD² \[2\]: deadline, b-bit, group deadline. The paper's main subject
    /// and the most efficient of the optimal algorithms.
    #[default]
    Pd2,
}

impl Policy {
    /// All policies, for sweep-style experiments.
    pub const ALL: [Policy; 5] = [
        Policy::Epdf,
        Policy::BBitOnly,
        Policy::Pf,
        Policy::Pd,
        Policy::Pd2,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Epdf => "EPDF",
            Policy::BBitOnly => "EPDF+b",
            Policy::Pf => "PF",
            Policy::Pd => "PD",
            Policy::Pd2 => "PD2",
        }
    }
}

/// Everything a policy needs to rank one subtask, precomputed at release.
///
/// For IS tasks, `deadline` and `group_deadline` already include the
/// subtask's offset `θ(Tᵢ)`; the b-bit is offset-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtaskTag {
    /// Owning task.
    pub task: TaskId,
    /// 1-based subtask index within the task.
    pub index: SubtaskIndex,
    /// Pseudo-deadline `d(Tᵢ)` (absolute slot).
    pub deadline: Slot,
    /// Overlap bit `b(Tᵢ)`.
    pub b: bool,
    /// Group deadline `D(Tᵢ)` (absolute slot; 0 for light tasks).
    pub group_deadline: Slot,
    /// Task weight (needed by PF's recursive comparison and PD's
    /// weight tie-break).
    pub weight: Weight,
}

impl SubtaskTag {
    /// Builds the tag for subtask `i` of a task with the given weight,
    /// shifting deadline and group deadline by `offset` (the IS offset
    /// `θ(Tᵢ)`; 0 for synchronous periodic tasks).
    pub fn new(task: TaskId, weight: Weight, i: SubtaskIndex, offset: Slot) -> Self {
        let gd = subtask::group_deadline(weight, i);
        SubtaskTag {
            task,
            index: i,
            deadline: subtask::deadline(weight, i) + offset,
            b: subtask::b_bit(weight, i),
            group_deadline: if gd == 0 { 0 } else { gd + offset },
            weight,
        }
    }
}

/// Compares two subtasks under `policy`. `Ordering::Less` means `a` has
/// **higher** priority than `b` (schedule `a` first), so sorting ascending
/// yields highest-priority-first order.
///
/// # Examples
///
/// ```
/// use pfair_core::priority::{compare, Policy, SubtaskTag};
/// use pfair_model::{TaskId, Weight};
///
/// // Equal deadlines; PD² favors the overlapping-window (b = 1) subtask.
/// let a = SubtaskTag::new(TaskId(0), Weight::new(8, 11).unwrap(), 1, 0);
/// let b = SubtaskTag::new(TaskId(1), Weight::new(1, 2).unwrap(), 1, 0);
/// assert_eq!(a.deadline, b.deadline);
/// assert!(compare(Policy::Pd2, &a, &b).is_lt());
/// // EPDF sees a pure tie and falls back to task ids.
/// assert!(compare(Policy::Epdf, &a, &b).is_lt());
/// ```
pub fn compare(policy: Policy, a: &SubtaskTag, b: &SubtaskTag) -> Ordering {
    let by_deadline = a.deadline.cmp(&b.deadline);
    if by_deadline != Ordering::Equal {
        return by_deadline;
    }
    let tie = match policy {
        Policy::Epdf => Ordering::Equal,
        Policy::BBitOnly => b.b.cmp(&a.b),
        Policy::Pd2 => pd2_ties(a, b),
        Policy::Pd => pd2_ties(a, b).then_with(|| {
            // Heavier weight first (stands in for PD's superfluous rules).
            b.weight.as_rat().cmp(&a.weight.as_rat())
        }),
        Policy::Pf => pf_ties(a, b),
    };
    // Total order: final residual tie-break by task id (deterministic and
    // documented; the Fig. 5 experiment flips it via `compare_with_id_order`).
    tie.then_with(|| a.task.cmp(&b.task))
}

/// PD²'s two tie-breaks: b-bit 1 beats 0; then *later* group deadline wins.
fn pd2_ties(a: &SubtaskTag, b: &SubtaskTag) -> Ordering {
    // b = 1 is favored ("it is better to execute Tᵢ early if its window
    // overlaps Tᵢ₊₁'s").
    let by_b = b.b.cmp(&a.b);
    if by_b != Ordering::Equal {
        return by_b;
    }
    if a.b {
        // Both b-bits are 1: later group deadline is favored (longer
        // potential cascade). For light tasks both are 0 ⇒ Equal.
        b.group_deadline.cmp(&a.group_deadline)
    } else {
        Ordering::Equal
    }
}

/// PF's tie-break: compare the b-bit *sequences* of the tied subtasks
/// lexicographically. If `b(Tᵢ) > b(U_j)`, `T` wins. If both are 1, compare
/// the successors `Tᵢ₊₁`, `U_{j+1}` by deadline, then recurse. A shared
/// b-bit of 0 is a genuine tie.
///
/// The recursion halts at the first subtask with a 0 b-bit; for a weight
/// `e/p` that happens within `e` steps, so this is O(e + f) per comparison —
/// acceptable because PF exists here for fidelity and ablation, not speed
/// (the paper's point is precisely that PD²'s O(1) tie-breaks are cheaper).
fn pf_ties(a: &SubtaskTag, b: &SubtaskTag) -> Ordering {
    let mut ai = a.index;
    let mut bi = b.index;
    // Offsets: reconstruct each subtask's absolute deadline by keeping the
    // delta between tag deadline and the synchronous formula.
    let a_off = a.deadline - subtask::deadline(a.weight, a.index);
    let b_off = b.deadline - subtask::deadline(b.weight, b.index);
    loop {
        let ab = subtask::b_bit(a.weight, ai);
        let bb = subtask::b_bit(b.weight, bi);
        match bb.cmp(&ab) {
            Ordering::Equal => {}
            other => return other,
        }
        if !ab {
            return Ordering::Equal; // both 0: true tie
        }
        ai += 1;
        bi += 1;
        let ad = subtask::deadline(a.weight, ai) + a_off;
        let bd = subtask::deadline(b.weight, bi) + b_off;
        match ad.cmp(&bd) {
            Ordering::Equal => {}
            other => return other,
        }
    }
}

/// Like [`compare`], but with the residual task-id tie-break *reversed*.
/// Used by the supertasking experiment (paper Fig. 5) to realize the
/// figure's specific resolution of genuinely arbitrary ties.
pub(crate) fn compare_with_id_order(
    policy: Policy,
    a: &SubtaskTag,
    b: &SubtaskTag,
    higher_id_first: bool,
) -> Ordering {
    let base = compare(policy, a, b);
    if !higher_id_first {
        return base;
    }
    // Strip the id tie-break and re-apply reversed.
    let without_id = match policy {
        Policy::Epdf => a.deadline.cmp(&b.deadline),
        Policy::BBitOnly => a.deadline.cmp(&b.deadline).then_with(|| b.b.cmp(&a.b)),
        Policy::Pd2 => a.deadline.cmp(&b.deadline).then_with(|| pd2_ties(a, b)),
        Policy::Pd => a
            .deadline
            .cmp(&b.deadline)
            .then_with(|| pd2_ties(a, b))
            .then_with(|| b.weight.as_rat().cmp(&a.weight.as_rat())),
        Policy::Pf => a.deadline.cmp(&b.deadline).then_with(|| pf_ties(a, b)),
    };
    without_id.then_with(|| b.task.cmp(&a.task))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tag(id: u32, e: u64, p: u64, i: SubtaskIndex) -> SubtaskTag {
        SubtaskTag::new(TaskId(id), Weight::new(e, p).unwrap(), i, 0)
    }

    #[test]
    fn earlier_deadline_always_wins() {
        let a = tag(0, 8, 11, 1); // d = 2
        let b = tag(1, 1, 3, 1); // d = 3
        for pol in Policy::ALL {
            assert_eq!(compare(pol, &a, &b), Ordering::Less, "{}", pol.name());
            assert_eq!(compare(pol, &b, &a), Ordering::Greater);
        }
    }

    #[test]
    fn pd2_b_bit_breaks_ties() {
        // Same deadline 2: T = 8/11 subtask 1 (d=2, b=1) vs U = 1/2
        // subtask 1 (d=2, b=0). PD2 favors the b=1 subtask.
        let a = tag(0, 8, 11, 1);
        let b = tag(1, 1, 2, 1);
        assert_eq!(a.deadline, b.deadline);
        assert!(a.b && !b.b);
        assert_eq!(compare(Policy::Pd2, &a, &b), Ordering::Less);
        assert_eq!(compare(Policy::Pd2, &b, &a), Ordering::Greater);
        // EPDF sees a pure tie → id order.
        assert_eq!(compare(Policy::Epdf, &a, &b), Ordering::Less);
        assert_eq!(compare(Policy::Epdf, &b, &a), Ordering::Greater);
    }

    #[test]
    fn pd2_later_group_deadline_wins() {
        // Two heavy tasks, same deadline & b-bit, different group deadlines.
        // w=8/11 T3: d=5, b=1, D=8.  w=5/7 U3: d=⌈21/5⌉=5, b=1 (21%5≠0).
        let a = tag(0, 8, 11, 3);
        let b = tag(1, 5, 7, 3);
        assert_eq!(a.deadline, 5);
        assert_eq!(b.deadline, 5);
        assert!(a.b && b.b);
        // w=5/7: holes=2, k*=⌈5·2/7⌉=2, D=⌈2·7/2⌉=7.
        assert_eq!(b.group_deadline, 7);
        assert_eq!(a.group_deadline, 8);
        // Later group deadline (a) is favored.
        assert_eq!(compare(Policy::Pd2, &a, &b), Ordering::Less);
        assert_eq!(compare(Policy::Pd2, &b, &a), Ordering::Greater);
    }

    #[test]
    fn pf_compares_successor_chains() {
        // Same first deadline and b-bit, but successors diverge.
        // w=3/4: d(T1)=2,b=1, d(T2)=3,b=1, d(T3)=4,b=0
        // w=8/11: d(U1)=2,b=1, d(U2)=3,b=1, d(U3)=5
        let a = tag(0, 3, 4, 1);
        let b = tag(1, 8, 11, 1);
        assert_eq!(a.deadline, b.deadline);
        // Chain: both b=1 → successors d 3 vs 3 tie → both b=1 → d(T3)=4 <
        // d(U3)=5 → a wins.
        assert_eq!(compare(Policy::Pf, &a, &b), Ordering::Less);
        assert_eq!(compare(Policy::Pf, &b, &a), Ordering::Greater);
    }

    #[test]
    fn pd_weight_tiebreak() {
        // Construct equal (d, b, D) but different weights. Two light tasks:
        // light ⇒ b can still be 1, D = 0 for both.
        // w=2/5: d(T1)=3, b=1 (5%2≠0), D=0. w=2/7 has d(T1)=4; try w=3/8:
        // d(T1)=⌈8/3⌉=3, b=1, light, D=0.
        let a = tag(0, 2, 5, 1); // weight 2/5
        let b = tag(1, 3, 8, 1); // weight 3/8
        assert_eq!(a.deadline, 3);
        assert_eq!(b.deadline, 3);
        assert!(a.b && b.b);
        assert_eq!(a.group_deadline, 0);
        assert_eq!(b.group_deadline, 0);
        // PD favors the heavier task: 2/5 > 3/8.
        assert_eq!(compare(Policy::Pd, &a, &b), Ordering::Less);
        assert_eq!(compare(Policy::Pd, &b, &a), Ordering::Greater);
        // PD2 falls through to id order.
        assert_eq!(compare(Policy::Pd2, &a, &b), Ordering::Less);
        assert_eq!(compare(Policy::Pd2, &b, &a), Ordering::Greater);
    }

    #[test]
    fn id_reversal_flips_pure_ties_only() {
        let a = tag(0, 2, 9, 1);
        let b = tag(1, 2, 9, 1); // identical parameters, different id
        assert_eq!(compare(Policy::Pd2, &a, &b), Ordering::Less);
        assert_eq!(
            compare_with_id_order(Policy::Pd2, &a, &b, true),
            Ordering::Greater
        );
        // A non-tie is unaffected by the id order.
        let c = tag(2, 8, 11, 1);
        let d = tag(3, 1, 3, 1);
        assert_eq!(
            compare_with_id_order(Policy::Pd2, &c, &d, true),
            compare(Policy::Pd2, &c, &d)
        );
    }

    #[test]
    fn is_offset_shifts_deadlines() {
        let sync = tag(0, 8, 11, 5);
        let late = SubtaskTag::new(TaskId(0), Weight::new(8, 11).unwrap(), 5, 3);
        assert_eq!(late.deadline, sync.deadline + 3);
        assert_eq!(late.b, sync.b);
        assert_eq!(late.group_deadline, sync.group_deadline + 3);
    }

    fn arb_tag(id: u32) -> impl Strategy<Value = SubtaskTag> {
        (1u64..30, 1u64..30, 1u64..60, 0u64..20).prop_filter_map("valid", move |(a, b, i, off)| {
            let (e, p) = if a <= b { (a, b) } else { (b, a) };
            Weight::new(e, p)
                .ok()
                .map(|w| SubtaskTag::new(TaskId(id), w, i, off))
        })
    }

    proptest! {
        /// Every policy induces a total order: antisymmetry and transitivity.
        #[test]
        fn prop_total_order(
            a in arb_tag(0), b in arb_tag(1), c in arb_tag(2),
            pol in prop::sample::select(Policy::ALL.to_vec()),
        ) {
            // Antisymmetry (distinct task ids ⇒ never Equal).
            let ab = compare(pol, &a, &b);
            prop_assert_eq!(ab, compare(pol, &b, &a).reverse());
            prop_assert_ne!(ab, Ordering::Equal);
            // Transitivity.
            let bc = compare(pol, &b, &c);
            let ac = compare(pol, &a, &c);
            if ab == bc {
                prop_assert_eq!(ac, ab);
            }
        }

        /// PD² never ranks a later-deadline subtask above an earlier one.
        #[test]
        fn prop_deadline_dominates(
            a in arb_tag(0), b in arb_tag(1),
            pol in prop::sample::select(Policy::ALL.to_vec()),
        ) {
            if a.deadline < b.deadline {
                prop_assert_eq!(compare(pol, &a, &b), Ordering::Less);
            }
        }

        /// Reflexive-ish sanity: a tag compares Equal to itself in the
        /// tie-break chain (id equal ⇒ full Equal).
        #[test]
        fn prop_self_equal(a in arb_tag(0), pol in prop::sample::select(Policy::ALL.to_vec())) {
            prop_assert_eq!(compare(pol, &a, &a), Ordering::Equal);
        }
    }
}
