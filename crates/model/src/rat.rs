//! Exact signed rational arithmetic.
//!
//! Pfair lags and utilization sums must be computed exactly: the lag bound
//! `-1 < lag < 1` in the paper's Equation (1) is a strict rational
//! inequality, and a floating-point representation would make the property
//! tests in `sched-sim` unsound. [`Rat`] keeps a normalized `i128/i128`
//! representation; with task parameters bounded by `u64` and horizons below
//! `2^40` slots, all intermediate products fit comfortably in `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0`, stored in lowest terms.
///
/// # Examples
///
/// ```
/// use pfair_model::Rat;
///
/// let a = Rat::new(8, 11); // a task weight of 8/11
/// let b = Rat::new(3, 11);
/// assert_eq!(a + b, Rat::ONE);
/// assert!(a > Rat::new(1, 2)); // "heavy" in the paper's terminology
/// assert_eq!(a * Rat::from(22u64), Rat::from(16u64));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor (Stein's binary algorithm; inputs
/// non-negative). Shift/subtract only — `i128` division costs tens of
/// cycles per step and this sits on the admission (`WeightSum`) and lag
/// paths, where Euclid's remainder loop dominated profiles. Operands that
/// both fit `u64` (every task weight, most running sums) take
/// [`gcd_u64`]'s word-sized loop.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a as u128, b as u128);
    if let (Ok(a), Ok(b)) = (u64::try_from(a), u64::try_from(b)) {
        return gcd_u64(a, b) as i128;
    }
    if a == 0 {
        return b as i128;
    }
    if b == 0 {
        return a as i128;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return (a << shift) as i128;
        }
    }
}

/// [`gcd`] in one machine word — the workspace's one `u64` gcd, shared
/// with `Weight::new` and `partition::EdfUtilization`; `gcd_u64(0, b) = b`.
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num/den` in lowest terms. Magnitudes that both fit `u64`
    /// — every weight, and every sum still far from overflow — are reduced
    /// with word-sized gcd and division; anything wider takes `i128`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rat with zero denominator");
        if let (Ok(n), Ok(d)) = (
            u64::try_from(num.unsigned_abs()),
            u64::try_from(den.unsigned_abs()),
        ) {
            let g = gcd_u64(n, d); // ≥ 1: d ≠ 0
            let n = (n / g) as i128;
            return Rat {
                num: if (num < 0) != (den < 0) { -n } else { n },
                den: (d / g) as i128,
            };
        }
        Self::new_wide(num, den)
    }

    /// [`Rat::new`] for magnitudes beyond `u64` (correct for any).
    fn new_wide(num: i128, den: i128) -> Self {
        let negative = (num < 0) != (den < 0);
        let (num, den) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(num as i128, den as i128).max(1);
        let num = num as i128 / g;
        Rat {
            num: if negative { -num } else { num },
            den: den as i128 / g,
        }
    }

    /// Numerator (sign-carrying) of the normalized representation.
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (always positive) of the normalized representation.
    pub fn denom(self) -> i128 {
        self.den
    }

    /// `⌊self⌋`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// `⌈self⌉`.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Self {
        Rat::new(self.den, self.num)
    }

    /// `num/den` already in lowest terms with `den > 0`, built without a
    /// gcd — for callers that hold a reduced pair (`Weight`).
    pub(crate) const fn from_lowest_terms(num: i128, den: i128) -> Rat {
        Rat { num, den }
    }

    /// Lossy conversion for reporting/statistics only (never used by the
    /// scheduling core). Both conversions round to nearest, so going
    /// through `i64` where both parts fit gives the same quotient without
    /// the two `i128 → f64` software conversions.
    pub fn to_f64(self) -> f64 {
        match (i64::try_from(self.num), i64::try_from(self.den)) {
            (Ok(num), Ok(den)) => num as f64 / den as f64,
            _ => self.num as f64 / self.den as f64,
        }
    }

    /// `1 − self`, built without a gcd: `(den − num)/den` is already in
    /// lowest terms (`gcd(den − num, den) = gcd(num, den) = 1`), and for
    /// `self ≥ 0` the subtraction cannot overflow.
    pub fn one_minus(self) -> Rat {
        Rat {
            num: self.den - self.num,
            den: self.den,
        }
    }

    /// Overflow-checked addition: `None` if the exact result does not fit
    /// the normalized `i128/i128` representation. Summing many rationals
    /// with unrelated denominators (e.g. hundreds of random task weights)
    /// legitimately exceeds `i128`; see `WeightSum` in the `weight` module
    /// for the graceful fallback.
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Some(Rat::new(num, den))
    }

    /// Overflow-checked subtraction.
    pub fn checked_sub(self, rhs: Rat) -> Option<Rat> {
        self.checked_add(-rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Self {
        Rat { num: n, den: 1 }
    }
}

impl From<u64> for Rat {
    fn from(n: u64) -> Self {
        Rat {
            num: n as i128,
            den: 1,
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Self {
        Rat {
            num: n as i128,
            den: 1,
        }
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Reduce by gcd of denominators first to keep intermediates small.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        Rat::new(
            self.num * lhs_scale + rhs.num * rhs_scale,
            self.den * lhs_scale,
        )
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Cross-reduce before multiplying to avoid overflow.
        let g1 = gcd(self.num.abs().max(1), rhs.den);
        let g2 = gcd(rhs.num.abs().max(1), self.den);
        Rat::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal is the definition
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // Fast path: den > 0 on both sides, so cross-multiplication
        // preserves order when the products fit.
        if let (Some(l), Some(r)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return l.cmp(&r);
        }
        // Overflow-proof exact comparison by continued-fraction descent
        // (each step is one Euclid round; remainders strictly shrink).
        cmp_frac(self.num, self.den, other.num, other.den)
    }
}

/// Compares `a/b` vs `c/d` exactly without overflow; `b, d > 0`.
fn cmp_frac(a: i128, b: i128, c: i128, d: i128) -> Ordering {
    match (a.signum()).cmp(&c.signum()) {
        Ordering::Equal => {}
        other => return other,
    }
    match a.signum() {
        0 => Ordering::Equal,
        s if s < 0 => cmp_frac_pos(-c, d, -a, b),
        _ => cmp_frac_pos(a, b, c, d),
    }
}

/// Compares `a/b` vs `c/d` for strictly positive fractions.
fn cmp_frac_pos(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
    loop {
        let (qa, qc) = (a / b, c / d);
        if qa != qc {
            return qa.cmp(&qc);
        }
        let (ra, rc) = (a % b, c % d);
        match (ra == 0, rc == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {
                // Equal integer parts: compare ra/b vs rc/d, i.e. the
                // reciprocals flipped: d/rc vs b/ra.
                let (na, nb, nc, nd) = (d, rc, b, ra);
                a = na;
                b = nb;
                c = nc;
                d = nd;
            }
        }
    }
}

impl std::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, 4), Rat::new(1, -2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(0, -7).numer(), 0);
        assert_eq!(Rat::new(0, -7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::new(6, 2).floor(), 3);
        assert_eq!(Rat::new(6, 2).ceil(), 3);
        assert_eq!(Rat::ZERO.floor(), 0);
        assert_eq!(Rat::ZERO.ceil(), 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::from(2u64));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(2, 3) > Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(5, 10) == Rat::new(1, 2));
        assert_eq!(Rat::new(3, 7).min(Rat::new(2, 7)), Rat::new(2, 7));
        assert_eq!(Rat::new(3, 7).max(Rat::new(2, 7)), Rat::new(3, 7));
    }

    #[test]
    fn sum_iterator() {
        let total: Rat = (1..=4u64).map(|i| Rat::new(1, i as i128)).sum();
        assert_eq!(total, Rat::new(25, 12));
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(8, 11).to_string(), "8/11");
        assert_eq!(Rat::from(3u64).to_string(), "3");
        assert_eq!(format!("{:?}", Rat::new(8, 11)), "8/11");
    }

    #[test]
    fn recip_and_to_integer() {
        assert_eq!(Rat::new(3, 4).recip(), Rat::new(4, 3));
        assert_eq!(Rat::new(-2, 5).recip(), Rat::new(-5, 2));
        // An integer-valued rational normalizes to denominator 1.
        assert_eq!(Rat::new(8, 4), Rat::from(2u64));
        assert_eq!(Rat::new(8, 4).denom(), 1);
        assert_eq!(Rat::new(8, 5).denom(), 5);
    }

    fn arb_rat() -> impl Strategy<Value = Rat> {
        (-1_000_000i128..1_000_000, 1i128..1_000_000).prop_map(|(n, d)| Rat::new(n, d))
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_rat(), b in arb_rat()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_add_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_distributes(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_inverse(a in arb_rat(), b in arb_rat()) {
            prop_assert_eq!(a + b - b, a);
        }

        #[test]
        fn prop_floor_le_ceil(a in arb_rat()) {
            prop_assert!(Rat::from(a.floor()) <= a);
            prop_assert!(a <= Rat::from(a.ceil()));
            prop_assert!(a.ceil() - a.floor() <= 1);
        }

        #[test]
        fn prop_normalized(a in arb_rat()) {
            let g = super::gcd(a.numer().abs(), a.denom());
            prop_assert!(g == 1 || a.numer() == 0);
            prop_assert!(a.denom() > 0);
        }

        /// `Rat::new`'s `u64` path and its `i128` path agree with each
        /// other and with a plain Euclid reduction on both sides of the
        /// `u64` boundary, for every sign combination and a zero numerator.
        #[test]
        fn prop_new_agrees_across_the_u64_boundary(
            num_off in -3i128..=3,
            den_off in -3i128..=3,
            num_base in prop::sample::select(vec![0i128, 1, 1 << 32, u64::MAX as i128]),
            den_base in prop::sample::select(vec![4i128, 1 << 32, u64::MAX as i128]),
            common in 1i128..1_000,
            signs in 0u8..4,
            small in (0i128..5_000, 1i128..5_000),
        ) {
            let sign = |bit: u8| if signs & bit == 0 { 1 } else { -1 };
            // Boundary magnitudes as drawn, and small ones scaled by a
            // shared factor so there is something to reduce.
            for (n, d) in [
                (num_base + num_off, den_base + den_off),
                (small.0 * common, small.1 * common),
                (small.0 * common, den_base + den_off),
            ] {
                let (num, den) = (sign(1) * n.max(0), sign(2) * d);
                let r = Rat::new(num, den);
                prop_assert_eq!(r, Rat::new_wide(num, den));
                let negative = (num < 0) != (den < 0);
                let (mut a, mut b) = (num.abs(), den.abs());
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                let g = a.max(1);
                let want_num = if negative { -(num.abs() / g) } else { num.abs() / g };
                prop_assert_eq!((r.numer(), r.denom()), (want_num, den.abs() / g));
            }
        }

        #[test]
        fn prop_cmp_overflow_path_matches_fast_path(
            n1 in 1i128..1_000_000, d1 in 1i128..1_000_000,
            n2 in 1i128..1_000_000, d2 in 1i128..1_000_000,
        ) {
            // The continued-fraction path must agree with cross
            // multiplication whenever both are applicable.
            let a = Rat::new(n1, d1);
            let b = Rat::new(n2, d2);
            prop_assert_eq!(
                super::cmp_frac(a.numer(), a.denom(), b.numer(), b.denom()),
                a.cmp(&b)
            );
            let na = -a;
            prop_assert_eq!(
                super::cmp_frac(na.numer(), na.denom(), b.numer(), b.denom()),
                na.cmp(&b)
            );
        }

        /// `to_f64` through `i64` rounds as the value's definition, `num
        /// as f64 / den as f64` over `i128`, on both sides of ±2⁵³ — where
        /// `f64` stops holding every integer — and of ±2⁶³ and `i64::MIN`,
        /// where a part stops fitting `i64`.
        #[test]
        fn prop_to_f64_matches_the_i128_conversion(
            num_base in prop::sample::select(vec![
                0i128, 1, 1 << 53, (1 << 63) - 1, 1 << 63, i64::MIN as i128, 1 << 64, 1 << 100,
            ]),
            den_base in prop::sample::select(vec![1i128, 3, 1 << 53, (1 << 63) - 1, 1 << 63, 1 << 64]),
            num_off in -3i128..=3,
            den_off in -3i128..=3,
            negative in 0u8..2,
        ) {
            fn i128_to_f64(r: Rat) -> f64 {
                r.num as f64 / r.den as f64
            }
            let num = num_base + num_off;
            let num = if negative == 1 { -num } else { num };
            let den = (den_base + den_off).max(1);
            for r in [Rat::new(num, den), Rat::new(num, 1), Rat::new(1, den)] {
                prop_assert_eq!(r.to_f64().to_bits(), i128_to_f64(r).to_bits(), "{:?}", r);
            }
        }

        #[test]
        fn prop_order_consistent_with_f64(a in arb_rat(), b in arb_rat()) {
            // f64 has 53 bits of mantissa; inputs are < 2^40 so exact.
            let (fa, fb) = (a.to_f64(), b.to_f64());
            if fa < fb { prop_assert!(a < b); }
            if fa > fb { prop_assert!(a > b); }
        }
    }
}
