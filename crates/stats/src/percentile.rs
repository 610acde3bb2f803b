//! Sample collection with percentiles — for response-time and latency
//! distributions where a mean hides the tail.

/// A collected sample set with quantile queries.
///
/// # Examples
///
/// ```
/// use stats::Samples;
///
/// let mut s = Samples::new();
/// for x in 1..=100 {
///     s.push(x as f64);
/// }
/// assert_eq!(s.percentile(50.0), 50.0);
/// assert_eq!(s.percentile(99.0), 99.0);
/// assert_eq!(s.max(), 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest-rank), `0 < p ≤ 100`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or `p` out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty samples");
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        self.ensure_sorted();
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.values.last().expect("max of empty samples")
    }

    /// Absorbs all observations from `other`, leaving it empty.
    pub fn merge(&mut self, other: &mut Samples) {
        self.values.append(&mut other.values);
        self.sorted = false;
        other.sorted = false;
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut s: Samples = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.percentile(25.0), 10.0);
        assert_eq!(s.percentile(50.0), 20.0);
        assert_eq!(s.percentile(75.0), 30.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.percentile(1.0), 10.0);
    }

    #[test]
    fn mean_and_max() {
        let mut s: Samples = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), 3.0);
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_moves_everything() {
        let mut a: Samples = [1.0, 5.0].into_iter().collect();
        let mut b: Samples = [3.0].into_iter().collect();
        a.merge(&mut b);
        assert_eq!(a.mean(), 3.0);
        assert!(b.is_empty());
        assert_eq!(a.percentile(50.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        Samples::new().percentile(50.0);
    }

    proptest! {
        /// Percentiles are monotone and bracketed by min/max.
        #[test]
        fn prop_percentile_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s: Samples = xs.iter().copied().collect();
            let p50 = s.percentile(50.0);
            let p90 = s.percentile(90.0);
            let p100 = s.percentile(100.0);
            prop_assert!(p50 <= p90 && p90 <= p100);
            prop_assert_eq!(p100, s.max());
        }
    }
}
