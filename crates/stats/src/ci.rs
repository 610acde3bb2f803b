//! Confidence intervals.
//!
//! The paper reports 99% confidence intervals for every experiment. The
//! half-width takes its critical value from a small-`n` Student-t table,
//! which widens the interval for pilot runs and meets the normal
//! approximation beyond 30 degrees of freedom.

use crate::welford::Welford;

/// Two-sided Student-t critical value at 99% confidence for `df` degrees of
/// freedom (tabulated for small df, normal beyond 30).
fn t99(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        TABLE[(df - 1) as usize]
    } else {
        2.5758
    }
}

/// Half-width of the 99% CI of the mean of `w` (Student-t for small n).
pub fn ci99_halfwidth(w: &Welford) -> f64 {
    if w.count() < 2 {
        return f64::INFINITY;
    }
    t99(w.count() - 1) * w.sem()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_shrinks_toward_z() {
        assert!(t99(1) > t99(2));
        assert!(t99(29) > t99(31));
        // Past the table, t is the normal's two-sided 99% value z₀.₉₉₅ to
        // table resolution: Φ⁻¹(0.995) = 2.575829…
        assert_eq!(t99(31), 2.5758);
        assert_eq!(t99(1000), 2.5758);
        assert_eq!(t99(0), f64::INFINITY);
    }

    #[test]
    fn halfwidth_scales_with_sqrt_n() {
        let small: Welford = (0..100).map(|i| (i % 10) as f64).collect();
        let big: Welford = (0..10_000).map(|i| (i % 10) as f64).collect();
        let hs = ci99_halfwidth(&small);
        let hb = ci99_halfwidth(&big);
        // Same distribution, 100× the samples → ~10× narrower.
        assert!((hs / hb - 10.0).abs() < 0.5, "ratio {}", hs / hb);
    }

    #[test]
    fn degenerate_cases() {
        let empty = Welford::new();
        assert_eq!(ci99_halfwidth(&empty), f64::INFINITY);
        let one: Welford = [5.0].into_iter().collect();
        assert_eq!(ci99_halfwidth(&one), f64::INFINITY);
        let constant: Welford = [5.0; 10].into_iter().collect();
        assert_eq!(ci99_halfwidth(&constant), 0.0);
    }
}
