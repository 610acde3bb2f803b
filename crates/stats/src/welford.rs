//! Streaming mean/variance via Welford's algorithm.

/// Numerically stable streaming accumulator for mean and variance.
///
/// # Examples
///
/// ```
/// use stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 8);
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!((w.min(), w.max()), (2.0, 9.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n−1 denominator); 0 for n < 2.
    fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub(crate) fn sem(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator (parallel aggregation), exactly as if all
    /// its observations had been pushed here.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64 / n as f64);
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        for x in iter {
            w.push(x);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_equals_new() {
        // A derived Default would zero min/max and corrupt them; guard it.
        assert_eq!(Welford::default(), Welford::new());
        assert_eq!(Welford::default().min(), f64::INFINITY);
    }

    #[test]
    fn empty_is_benign() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.sem(), 0.0);
    }

    #[test]
    fn single_value() {
        let w: Welford = [42.0].into_iter().collect();
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.min(), 42.0);
        assert_eq!(w.max(), 42.0);
    }

    #[test]
    fn known_values() {
        let w: Welford = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(w.mean(), 3.0);
        assert!((w.sample_variance() - 2.5).abs() < 1e-12);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 5.0);
    }

    proptest! {
        /// Merging equals pushing everything into one accumulator.
        #[test]
        fn prop_merge_equivalence(
            a in prop::collection::vec(-1e6f64..1e6, 0..50),
            b in prop::collection::vec(-1e6f64..1e6, 0..50),
        ) {
            let mut left: Welford = a.iter().copied().collect();
            let right: Welford = b.iter().copied().collect();
            left.merge(&right);
            let all: Welford = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(left.count(), all.count());
            prop_assert!((left.mean() - all.mean()).abs() < 1e-6);
            prop_assert!((left.sample_variance() - all.sample_variance()).abs()
                < 1e-4 * (1.0 + all.sample_variance()));
        }

        /// Mean lies within [min, max]; variance is non-negative.
        #[test]
        fn prop_basic_invariants(xs in prop::collection::vec(-1e9f64..1e9, 1..100)) {
            let w: Welford = xs.iter().copied().collect();
            prop_assert!(w.mean() >= w.min() - 1e-9);
            prop_assert!(w.mean() <= w.max() + 1e-9);
            prop_assert!(w.sample_variance() >= 0.0);
        }
    }
}
