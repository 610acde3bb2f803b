//! Analytic utilization bounds for partitioned scheduling (Section 3).

use pfair_model::Rat;

/// Lopez et al.'s tight bound \[27\]: with per-task utilizations at most
/// `u_max = 1/β` (i.e. `β = ⌊1/u_max⌋`), any task set with total
/// utilization at most `(βm + 1)/(β + 1)` is EDF-FF schedulable on `m`
/// processors. At `β = 1` this is `(m + 1)/2`, the worst-case achievable
/// utilization for *any* partitioning heuristic with EDF (paper,
/// Section 3).
fn lopez_bound(m: u32, beta: u32) -> Rat {
    assert!(beta >= 1, "β = ⌊1/u_max⌋ ≥ 1");
    Rat::new((beta as i128) * (m as i128) + 1, beta as i128 + 1)
}

/// Applies the Lopez test directly to a task set given as `(exec, period)`
/// pairs: computes `u_max`, `β = ⌊1/u_max⌋`, and compares the exact total
/// utilization against [`lopez_bound`]. Sufficient (not necessary).
pub fn lopez_schedulable(tasks: &[(u64, u64)], m: u32) -> bool {
    if tasks.is_empty() {
        return true;
    }
    let utils: Vec<Rat> = tasks
        .iter()
        .map(|&(e, p)| Rat::new(e as i128, p as i128))
        .collect();
    let u_max = utils.iter().copied().fold(Rat::ZERO, Rat::max);
    if u_max > Rat::ONE {
        return false;
    }
    // β = ⌊1/u_max⌋ ≥ 1 because u_max ≤ 1.
    let beta = u_max.recip().floor() as u32;
    let total: Rat = utils.into_iter().sum();
    total <= lopez_bound(m, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accept::EdfUtilization;
    use crate::heuristics::{partition, Heuristic, SortOrder};

    /// The worst-case achievable utilization of any partitioning heuristic
    /// with EDF, `(M + 1)/2`, is the Lopez bound at `β = 1`.
    #[test]
    fn worst_case_value() {
        assert_eq!(lopez_bound(2, 1), Rat::new(3, 2));
        assert_eq!(lopez_bound(16, 1), Rat::new(17, 2));
    }

    /// The (M+1)/2 witness: M+1 tasks of utilization just over 1/2 cannot
    /// be partitioned onto M processors, by any heuristic.
    #[test]
    fn worst_case_witness_unpartitionable() {
        let m = 4u32;
        // u = (1+ε)/2 with ε = 1/50: 51/100.
        let tasks: Vec<(u64, u64)> = vec![(51, 100); m as usize + 1];
        let acc = EdfUtilization::new(&tasks);
        for h in Heuristic::ALL {
            let r = partition(tasks.len(), &acc, h, SortOrder::None, m, |i| {
                let (e, p) = tasks[i];
                (e as f64 / p as f64, p)
            });
            assert!(r.is_none(), "{} must fail", h.name());
        }
        // Total utilization 5·0.51 = 2.55, just over (M+1)/2 = 2.5: Pfair
        // feasibility needs only ⌈2.55⌉ = 3 of the 4 processors.
        let total: Rat = tasks
            .iter()
            .map(|&(e, p)| Rat::new(e as i128, p as i128))
            .sum();
        assert_eq!(lopez_bound(m, 1), Rat::new(m as i128 + 1, 2));
        assert!(total > lopez_bound(m, 1));
        assert!(total < Rat::from(m as i128 - 1));
    }

    #[test]
    fn lopez_bound_values() {
        // β = 1 (u_max ≤ 1): (m+1)/2 — matches the generic worst case.
        assert_eq!(lopez_bound(4, 1), Rat::new(5, 2));
        // β = 2 (u_max ≤ 1/2): (2m+1)/3.
        assert_eq!(lopez_bound(4, 2), Rat::new(9, 3));
        // β = 4: (4m+1)/5 → approaches m as β grows.
        assert_eq!(lopez_bound(4, 4), Rat::new(17, 5));
        assert!(lopez_bound(8, 100) > Rat::new(79, 10));
    }

    #[test]
    fn lopez_test_accepts_light_sets() {
        // 12 tasks of u = 1/4 → u_max = 1/4, β = 4, bound = (4·4+1)/5 = 3.4;
        // total 3.0 ≤ 3.4 → schedulable on 4 processors.
        let tasks = vec![(1u64, 4u64); 12];
        assert!(lopez_schedulable(&tasks, 4));
        // 14 tasks → total 3.5 > 3.4 → not guaranteed.
        let tasks = vec![(1u64, 4u64); 14];
        assert!(!lopez_schedulable(&tasks, 4));
        assert!(lopez_schedulable(&[], 1));
    }

    /// The Lopez guarantee is sound: anything it accepts, FF actually packs.
    #[test]
    fn lopez_guarantee_is_sound_for_ff() {
        for beta in 1u32..5 {
            for m in 1u32..6 {
                // Fill with tasks of u = 1/β up to just under the bound.
                let bound = lopez_bound(m, beta);
                let per = Rat::new(1, beta as i128);
                let count = (bound / per).floor() as usize;
                let tasks: Vec<(u64, u64)> = vec![(1, beta as u64); count];
                if !lopez_schedulable(&tasks, m) {
                    continue; // count overshot the bound; skip
                }
                let acc = EdfUtilization::new(&tasks);
                let r = partition(
                    tasks.len(),
                    &acc,
                    Heuristic::FirstFit,
                    SortOrder::None,
                    m,
                    |i| {
                        let (e, p) = tasks[i];
                        (e as f64 / p as f64, p)
                    },
                );
                assert!(r.is_some(), "β={beta} m={m} count={count}");
            }
        }
    }
}
