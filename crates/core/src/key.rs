//! Packed integer priority keys for the event-driven scheduler hot loop.
//!
//! The exact comparators in [`crate::priority`] walk rational weights,
//! b-bit chains, and group deadlines on every heap operation — fidelity
//! the verifier needs, overhead the hot loop cannot afford. This module
//! compresses the *decided prefix* of each policy's priority order into a
//! single `u64`, so the common heap comparison is one integer compare:
//!
//! ```text
//!   bit 63                                                        bit 0
//!   ┌────────────────────────────┬──────┬─────────────┬──────────────┐
//!   │ deadline (40 bits)         │ b̄ (1)│ gd-tie (11) │ task id (12) │
//!   └────────────────────────────┴──────┴─────────────┴──────────────┘
//! ```
//!
//! * **deadline** — the absolute pseudo-deadline `d(Tᵢ)` (every policy
//!   orders by deadline first).
//! * **b̄** — the *complemented* b-bit: `b = 1` is the favored tie-break,
//!   so it must sort smaller.
//! * **gd-tie** — the group-deadline tie-break, encoded so that a *later*
//!   group deadline sorts smaller (wins). The field stores
//!   `GD_FIELD_MAX − 1 − (D(Tᵢ) − d(Tᵢ))` for heavy tasks and
//!   `GD_FIELD_MAX` for light ones (`D = 0`, the weakest claim). Storing
//!   the *relative* value keeps the field period-scaled — and is sound
//!   because the exact order only consults `D` between subtasks whose
//!   deadlines are already equal. When `b = 0` the field is forced to 0
//!   on both sides (the exact order never consults `D` there).
//! * **task id** — the residual deterministic tie-break (bit-flipped when
//!   the scheduler runs with `higher_id_first`).
//!
//! Per policy, only the fields that the policy's *total order* actually
//! decides are packed; the rest are zeroed so equal keys fall back to the
//! exact comparator:
//!
//! | policy  | packed fields        | key ties resolved by            |
//! |---------|----------------------|---------------------------------|
//! | EPDF    | deadline, id         | — (total)                       |
//! | EPDF+b  | deadline, b̄, id      | — (total)                       |
//! | PF      | deadline, b̄          | exact b-bit chain walk          |
//! | PD      | deadline, b̄, gd      | exact weight compare, id        |
//! | PD²     | deadline, b̄, gd, id  | — (total)                       |
//!
//! Any value that does not fit its bit field collapses the whole key to
//! [`SENTINEL`]; the scheduler's heap entries treat a sentinel on either
//! side as "compare exactly". The invariant — enforced by the property
//! tests below — is therefore: **for two non-sentinel keys built under
//! the same policy and id order, `key(a) < key(b)` implies the exact
//! comparator orders `a` before `b`, and `key(a) == key(b)` implies the
//! exact comparator is the tie-break.**

use crate::priority::{Policy, SubtaskTag};

/// Key value meaning "does not fit: use the exact comparator".
pub(crate) const SENTINEL: u64 = u64::MAX;

/// Bit offset of the deadline field.
const DL_SHIFT: u32 = 24;
/// Bit offset of the complemented b-bit.
const B_SHIFT: u32 = 23;
/// Bit offset of the group-deadline tie field.
const GD_SHIFT: u32 = 12;
/// Deadlines must be strictly below this (40 bits, top value reserved so
/// a full key can never alias [`SENTINEL`]).
const DL_LIMIT: u64 = (1 << 40) - 1;
/// Largest encodable group-deadline tie field (11 bits).
const GD_FIELD_MAX: u64 = (1 << 11) - 1;
/// Largest encodable task id (12 bits).
pub(crate) const ID_FIELD_MAX: u32 = (1 << 12) - 1;

/// Packs `tag`'s priority under `policy` into a single `u64` such that
/// smaller keys mean higher priority. Returns [`SENTINEL`] when any
/// needed field does not fit its width (huge horizon, id ≥ 4096, or a
/// group deadline more than `GD_FIELD_MAX − 1` slots past its deadline);
/// the caller must then fall back to the exact comparator.
#[inline]
pub(crate) fn pack(policy: Policy, tag: &SubtaskTag, higher_id_first: bool) -> u64 {
    if tag.deadline >= DL_LIMIT {
        return SENTINEL;
    }
    let dl = tag.deadline << DL_SHIFT;
    let bbar = u64::from(!tag.b) << B_SHIFT;
    match policy {
        Policy::Epdf => match id_field(tag, higher_id_first) {
            Some(id) => dl | id,
            None => SENTINEL,
        },
        Policy::BBitOnly => match id_field(tag, higher_id_first) {
            Some(id) => dl | bbar | id,
            None => SENTINEL,
        },
        // PF's tie-break (the recursive b-bit chain) cannot be packed;
        // the key decides (deadline, b) and leaves the rest exact.
        Policy::Pf => dl | bbar,
        // PD's residual weight tie-break stays exact; id is left out of
        // the key so the exact fallback sees weight before id.
        Policy::Pd => match gd_field(tag) {
            Some(gd) => dl | bbar | (gd << GD_SHIFT),
            None => SENTINEL,
        },
        Policy::Pd2 => match (gd_field(tag), id_field(tag, higher_id_first)) {
            (Some(gd), Some(id)) => dl | bbar | (gd << GD_SHIFT) | id,
            _ => SENTINEL,
        },
    }
}

/// Residual id tie-break field (bit-flipped under `higher_id_first`).
#[inline]
fn id_field(tag: &SubtaskTag, higher_id_first: bool) -> Option<u64> {
    let id = tag.task.0;
    if id > ID_FIELD_MAX {
        return None;
    }
    Some(u64::from(if higher_id_first {
        ID_FIELD_MAX - id
    } else {
        id
    }))
}

/// Group-deadline tie field; see the module docs for the encoding. `None`
/// means the relative group deadline does not fit 11 bits.
#[inline]
fn gd_field(tag: &SubtaskTag) -> Option<u64> {
    if !tag.b {
        // The exact order never consults D when b = 0: force the field
        // to a constant so it cannot perturb the key comparison.
        return Some(0);
    }
    if tag.group_deadline == 0 {
        // Light task: D = 0 loses every group-deadline tie.
        return Some(GD_FIELD_MAX);
    }
    // Heavy task: D(Tᵢ) ≥ d(Tᵢ), later D wins ⇒ larger relative D maps
    // to a smaller field value.
    let rel = tag.group_deadline.checked_sub(tag.deadline)?;
    if rel >= GD_FIELD_MAX {
        return None;
    }
    Some(GD_FIELD_MAX - 1 - rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::compare_with_id_order;
    use pfair_model::{TaskId, Weight};
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn tag(id: u32, e: u64, p: u64, i: u64, off: u64) -> SubtaskTag {
        SubtaskTag::new(TaskId(id), Weight::new(e, p).unwrap(), i, off)
    }

    /// The key agrees with the exact order on a hand-picked set covering
    /// every tie-break: deadline, b-bit, group deadline, id.
    #[test]
    fn key_orders_known_cases() {
        let cases = [
            tag(0, 8, 11, 1, 0),
            tag(1, 1, 2, 1, 0),
            tag(2, 8, 11, 3, 0),
            tag(3, 5, 7, 3, 0),
            tag(4, 2, 5, 1, 0),
            tag(5, 3, 8, 1, 0),
            tag(6, 1, 1, 2, 0),
            tag(7, 3, 4, 1, 0),
            tag(8, 8, 11, 1, 2),
        ];
        for pol in Policy::ALL {
            for hif in [false, true] {
                for a in &cases {
                    for b in &cases {
                        assert_consistent(pol, a, b, hif);
                    }
                }
            }
        }
    }

    fn assert_consistent(pol: Policy, a: &SubtaskTag, b: &SubtaskTag, hif: bool) {
        let ka = pack(pol, a, hif);
        let kb = pack(pol, b, hif);
        if ka == SENTINEL || kb == SENTINEL {
            return; // sentinel ⇒ caller compares exactly; nothing to check
        }
        let exact = compare_with_id_order(pol, a, b, hif);
        match ka.cmp(&kb) {
            Ordering::Less => assert_eq!(
                exact,
                Ordering::Less,
                "{}: key says {a:?} < {b:?} but exact disagrees",
                pol.name()
            ),
            Ordering::Greater => assert_eq!(
                exact,
                Ordering::Greater,
                "{}: key says {a:?} > {b:?} but exact disagrees",
                pol.name()
            ),
            // Equal keys are legal: the exact comparator breaks the tie.
            Ordering::Equal => {}
        }
    }

    /// Overflowing any field must collapse the whole key to the sentinel
    /// (a partially saturated key could misorder against small keys).
    #[test]
    fn out_of_range_fields_yield_sentinel() {
        // Deadline beyond 40 bits.
        let far = tag(0, 1, 2, 1, DL_LIMIT + 5);
        assert!(far.deadline >= DL_LIMIT);
        for pol in Policy::ALL {
            assert_eq!(pack(pol, &far, false), SENTINEL, "{}", pol.name());
        }
        // Task id beyond 12 bits (policies that pack the id).
        let big_id = tag(ID_FIELD_MAX + 1, 1, 2, 1, 0);
        for pol in [Policy::Epdf, Policy::BBitOnly, Policy::Pd2] {
            assert_eq!(pack(pol, &big_id, false), SENTINEL, "{}", pol.name());
            assert_eq!(pack(pol, &big_id, true), SENTINEL, "{}", pol.name());
        }
        // PF and PD leave the id to the exact fallback: a big id packs.
        assert_ne!(pack(Policy::Pf, &big_id, false), SENTINEL);
        assert_ne!(pack(Policy::Pd, &big_id, false), SENTINEL);
        // Group deadline too far past the deadline for 11 bits: a heavy
        // task with b = 1 and an artificially huge D.
        let mut stretched = tag(1, 8, 11, 1, 0);
        assert!(stretched.b);
        stretched.group_deadline = stretched.deadline + GD_FIELD_MAX;
        for pol in [Policy::Pd, Policy::Pd2] {
            assert_eq!(pack(pol, &stretched, false), SENTINEL, "{}", pol.name());
        }
    }

    /// Highest packable values still produce a key below the sentinel.
    #[test]
    fn max_fields_do_not_alias_sentinel() {
        let mut t = tag(ID_FIELD_MAX, 1, 1, 1, DL_LIMIT - 2);
        t.deadline = DL_LIMIT - 1;
        t.group_deadline = t.deadline;
        for pol in Policy::ALL {
            let k = pack(pol, &t, false);
            assert_ne!(k, SENTINEL, "{}", pol.name());
        }
    }

    fn arb_tag(id: u32) -> impl Strategy<Value = SubtaskTag> {
        (1u64..30, 1u64..30, 1u64..80, 0u64..25).prop_filter_map(
            "valid weight",
            move |(a, b, i, off)| {
                let (e, p) = if a <= b { (a, b) } else { (b, a) };
                Weight::new(e, p)
                    .ok()
                    .map(|w| SubtaskTag::new(TaskId(id), w, i, off))
            },
        )
    }

    proptest! {
        /// For every policy and id order: non-sentinel key order implies
        /// the exact order, over random weights/indices/IS offsets.
        #[test]
        fn prop_key_agrees_with_exact(
            a in arb_tag(0),
            b in arb_tag(1),
            pol in prop::sample::select(Policy::ALL.to_vec()),
            hif_raw in 0u32..2,
        ) {
            let hif = hif_raw == 1;
            let ka = pack(pol, &a, hif);
            let kb = pack(pol, &b, hif);
            prop_assume!(ka != SENTINEL && kb != SENTINEL);
            let exact = compare_with_id_order(pol, &a, &b, hif);
            match ka.cmp(&kb) {
                Ordering::Less => prop_assert_eq!(exact, Ordering::Less),
                Ordering::Greater => prop_assert_eq!(exact, Ordering::Greater),
                Ordering::Equal => {}
            }
        }

        /// Policies whose key packs a total order (EPDF, EPDF+b, PD²)
        /// never produce equal keys for distinct tasks.
        #[test]
        fn prop_total_policies_never_tie(
            a in arb_tag(0),
            b in arb_tag(1),
            pol in prop::sample::select(vec![Policy::Epdf, Policy::BBitOnly, Policy::Pd2]),
            hif_raw in 0u32..2,
        ) {
            let hif = hif_raw == 1;
            let ka = pack(pol, &a, hif);
            let kb = pack(pol, &b, hif);
            prop_assume!(ka != SENTINEL && kb != SENTINEL);
            prop_assert_ne!(ka, kb);
        }
    }
}
