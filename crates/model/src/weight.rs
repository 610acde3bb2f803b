//! Task weights.
//!
//! A periodic task `T` with integer execution cost `T.e` and integer period
//! `T.p` has weight `wt(T) = T.e / T.p` with `0 < wt(T) ≤ 1` (paper,
//! Section 2). The weight is the *rate* at which the task must execute: in
//! an ideal fluid schedule, `T` receives `wt(T) · L` quanta over any
//! interval of length `L`.
//!
//! [`Weight`] stores the ratio in lowest terms as `u64` numerator and
//! denominator. All Pfair subtask formulas (`pfair-core`) are written in
//! terms of the weight only, which is why the reduction to lowest terms is
//! harmless: a task with `e = 4, p = 8` has exactly the same windows as one
//! with `e = 1, p = 2`.

use crate::rat::{gcd_u64, Rat};
use std::fmt;

/// Error building a [`Weight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightError {
    /// The numerator was zero (a task must make progress).
    ZeroExecution,
    /// The denominator was zero.
    ZeroPeriod,
    /// The ratio exceeded one (a sequential task cannot use more than one
    /// processor's worth of time).
    OverUnit,
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::ZeroExecution => write!(f, "weight numerator (execution cost) is zero"),
            WeightError::ZeroPeriod => write!(f, "weight denominator (period) is zero"),
            WeightError::OverUnit => write!(f, "weight exceeds 1"),
        }
    }
}

impl std::error::Error for WeightError {}

/// A task weight: a rational in `(0, 1]`, kept in lowest terms.
///
/// # Examples
///
/// ```
/// use pfair_model::Weight;
///
/// let w = Weight::new(8, 11).unwrap();
/// assert!(w.is_heavy());               // 8/11 ≥ 1/2
/// assert_eq!(w.numer(), 8);
/// assert_eq!(Weight::new(4, 8).unwrap(), Weight::new(1, 2).unwrap());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Weight {
    /// Numerator in lowest terms; `1 ≤ num ≤ den`.
    num: u64,
    /// Denominator in lowest terms; `den ≥ 1`.
    den: u64,
}

impl Weight {
    /// The full weight `1`, i.e. a task that needs a processor in every slot.
    pub const ONE: Weight = Weight { num: 1, den: 1 };

    /// Creates the weight `e/p` in lowest terms.
    pub fn new(e: u64, p: u64) -> Result<Self, WeightError> {
        if e == 0 {
            return Err(WeightError::ZeroExecution);
        }
        if p == 0 {
            return Err(WeightError::ZeroPeriod);
        }
        if e > p {
            return Err(WeightError::OverUnit);
        }
        let g = gcd_u64(e, p);
        Ok(Weight {
            num: e / g,
            den: p / g,
        })
    }

    /// Numerator in lowest terms.
    pub fn numer(self) -> u64 {
        self.num
    }

    /// Denominator in lowest terms.
    pub fn denom(self) -> u64 {
        self.den
    }

    /// The weight as an exact rational: already in lowest terms, so no gcd.
    pub fn as_rat(self) -> Rat {
        Rat::from_lowest_terms(self.num as i128, self.den as i128)
    }

    /// A task is *heavy* iff `wt(T) ≥ 1/2` (paper, Section 2).
    pub fn is_heavy(self) -> bool {
        2 * self.num >= self.den
    }

    /// A task is *light* iff `wt(T) < 1/2`.
    pub fn is_light(self) -> bool {
        !self.is_heavy()
    }

    /// True iff the weight is exactly one.
    pub fn is_unit(self) -> bool {
        self.num == self.den
    }

    /// Lossy conversion for reporting only.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// An exact-while-possible running sum of task weights.
///
/// Admission control (the feasibility condition `Σ wt(T) ≤ M`, paper
/// Equation (2)) wants exact arithmetic, but the exact sum of hundreds of
/// weights with unrelated denominators overflows any fixed-width rational.
/// `WeightSum` keeps the exact [`Rat`] as long as it fits and transparently
/// degrades to an `f64` shadow (always maintained) when it no longer does;
/// comparisons use the exact value when available and the shadow with a
/// tiny conservative epsilon otherwise. In practice the exact path covers
/// every boundary-tight case (small, structured denominators), while the
/// approximate path only ever handles sums whose distance from an integer
/// boundary dwarfs f64 error.
///
/// One caller filters in front of it: `overhead::pd2_processors_required`
/// sums a pass as plain `f64` first and builds a `WeightSum` only when that
/// sum is within `1e-6` of the bound. The `f64` sum of `n` weights is
/// within `n·2⁻⁵³·Σ` of the true one (`≈ 1e-11` for 250 tasks) — far
/// inside the `1e-7` epsilon used here, itself far inside the filter's band
/// — so a sum the filter decides is one every path here decides the same
/// way. Admission (`fits_after_adding`) is not filtered.
#[derive(Debug, Clone, Copy)]
pub struct WeightSum {
    exact: Option<Rat>,
    approx: f64,
}

impl Default for WeightSum {
    fn default() -> Self {
        Self::new()
    }
}

impl WeightSum {
    /// Comparison slack used once exactness has been lost. Accumulated f64
    /// error over even millions of additions stays orders of magnitude
    /// below this.
    const EPS: f64 = 1e-7;

    /// Zero.
    pub fn new() -> Self {
        WeightSum {
            exact: Some(Rat::ZERO),
            approx: 0.0,
        }
    }

    /// Adds a weight.
    pub fn add(&mut self, w: Weight) {
        self.exact = self.exact.and_then(|e| e.checked_add(w.as_rat()));
        self.approx += w.to_f64();
    }

    /// Subtracts a weight (of a leaving task).
    pub fn sub(&mut self, w: Weight) {
        self.exact = self.exact.and_then(|e| e.checked_sub(w.as_rat()));
        self.approx -= w.to_f64();
    }

    /// `self ≤ m`? — exact when possible, else within a tiny epsilon
    /// (`1e-7`, far above accumulated f64 error, far below any real gap).
    pub fn at_most(&self, m: u32) -> bool {
        match self.exact {
            Some(e) => e <= Rat::from(m as u64),
            None => self.approx <= m as f64 + Self::EPS,
        }
    }

    /// `⌈self⌉` — the minimum integer capacity covering the sum.
    pub fn ceil(&self) -> u64 {
        match self.exact {
            Some(e) => e.ceil().max(0) as u64,
            None => (self.approx - Self::EPS).ceil().max(0.0) as u64,
        }
    }

    /// `self + w ≤ m`? — the admission test, without committing the add.
    pub fn fits_after_adding(&self, w: Weight, m: u32) -> bool {
        let bound = Rat::from(m as u64);
        match self.exact.and_then(|e| e.checked_add(w.as_rat())) {
            Some(next) => next <= bound,
            None => self.approx + w.to_f64() <= m as f64 + Self::EPS,
        }
    }

    /// The sum as `f64` (always available).
    pub fn to_f64(&self) -> f64 {
        self.approx
    }

    /// The exact sum, if it still fits.
    pub fn exact(&self) -> Option<Rat> {
        self.exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_reduction() {
        let w = Weight::new(4, 8).unwrap();
        assert_eq!(w.numer(), 1);
        assert_eq!(w.denom(), 2);
        assert_eq!(w, Weight::new(1, 2).unwrap());
        assert_eq!(Weight::new(7, 7).unwrap(), Weight::ONE);
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(Weight::new(0, 5), Err(WeightError::ZeroExecution));
        assert_eq!(Weight::new(5, 0), Err(WeightError::ZeroPeriod));
        assert_eq!(Weight::new(6, 5), Err(WeightError::OverUnit));
    }

    #[test]
    fn heavy_light_boundary() {
        // Heavy iff weight >= 1/2.
        assert!(Weight::new(1, 2).unwrap().is_heavy());
        assert!(Weight::new(8, 11).unwrap().is_heavy());
        assert!(Weight::new(5, 11).unwrap().is_light());
        assert!(Weight::ONE.is_heavy());
        assert!(Weight::new(1, 3).unwrap().is_light());
    }

    #[test]
    fn ordering_follows_value() {
        // NOTE: Ord on Weight is derived lexicographically over (num, den) in
        // lowest terms — fine for map keys, but value comparisons must go
        // through as_rat(). This test documents the distinction.
        let a = Weight::new(1, 3).unwrap();
        let b = Weight::new(2, 5).unwrap();
        assert!(a.as_rat() < b.as_rat());
    }

    #[test]
    fn error_display() {
        assert!(WeightError::OverUnit.to_string().contains("exceeds"));
        assert!(WeightError::ZeroExecution.to_string().contains("zero"));
        assert!(WeightError::ZeroPeriod.to_string().contains("zero"));
    }

    proptest! {
        #[test]
        fn prop_lowest_terms(e in 1u64..10_000, p in 1u64..10_000) {
            prop_assume!(e <= p);
            let w = Weight::new(e, p).unwrap();
            prop_assert_eq!(gcd_u64(w.numer(), w.denom()), 1);
            prop_assert_eq!(w.as_rat(), crate::Rat::new(e as i128, p as i128));
        }

        #[test]
        fn prop_heavy_iff_rat_ge_half(e in 1u64..10_000, p in 1u64..10_000) {
            prop_assume!(e <= p);
            let w = Weight::new(e, p).unwrap();
            prop_assert_eq!(w.is_heavy(), w.as_rat() >= crate::Rat::new(1, 2));
            prop_assert_eq!(w.is_light(), !w.is_heavy());
        }

        /// WeightSum stays within EPS of the exact value while exact, and
        /// its feasibility verdicts match exact arithmetic when available.
        #[test]
        fn prop_weight_sum_consistency(
            raw in prop::collection::vec((1u64..30, 1u64..30), 1..20),
        ) {
            let mut sum = WeightSum::new();
            let mut exact = crate::Rat::ZERO;
            for &(a, b) in &raw {
                let (e, p) = if a <= b { (a, b) } else { (b, a) };
                let w = Weight::new(e, p).unwrap();
                sum.add(w);
                exact += w.as_rat();
            }
            prop_assert!(sum.exact.is_some(), "small denominators stay exact");
            prop_assert_eq!(sum.exact().unwrap(), exact);
            prop_assert!((sum.to_f64() - exact.to_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn weight_sum_survives_overflow() {
        // Hundreds of near-coprime denominators: the exact i128 rational
        // overflows, the f64 shadow keeps answering.
        let mut sum = WeightSum::new();
        let mut expect = 0.0;
        for p in 2..400u64 {
            let w = Weight::new(1, 2 * p + 1).unwrap();
            sum.add(w);
            expect += w.to_f64();
        }
        assert!(sum.exact.is_none());
        assert!((sum.to_f64() - expect).abs() < 1e-9);
        // Feasibility checks still work approximately.
        assert!(sum.fits_after_adding(Weight::new(1, 2).unwrap(), 10));
        assert!(!sum.fits_after_adding(Weight::new(1, 2).unwrap(), 3));
    }

    #[test]
    fn weight_sum_exact_boundary() {
        let mut sum = WeightSum::new();
        sum.add(Weight::new(2, 3).unwrap());
        sum.add(Weight::new(2, 3).unwrap());
        // 4/3 + 2/3 = 2 exactly: fits on 2, not with anything more.
        assert!(sum.fits_after_adding(Weight::new(2, 3).unwrap(), 2));
        sum.add(Weight::new(2, 3).unwrap());
        assert!(!sum.fits_after_adding(Weight::new(1, 1_000_000).unwrap(), 2));
        sum.sub(Weight::new(2, 3).unwrap());
        assert_eq!(sum.exact().unwrap(), crate::Rat::new(4, 3));
    }
}
