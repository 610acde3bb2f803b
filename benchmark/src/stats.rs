//! Order statistics used by every workload: nearest-rank percentiles and
//! the summary of a metric over identical repetitions.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (rank `⌈p/100 · n⌉`, 1-based). No
/// interpolation, so the result is always a value that was measured.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a harness bug.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// [`percentile`] over an already ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of a slice's samples over the repetitions, counted from the
/// fast side, that a metric's value is read off.
///
/// Every repetition of a run does identical work, so whatever separates
/// them comes from outside the program. On the shared host this benchmark
/// runs on, that is a neighbour on the same core: the same binary flips
/// between two speeds 28 % apart (465 and 595 ns a simulated slot) for
/// anything from 20 ms to 20 s at a time, and the median of a run reports
/// whichever state held for most of it. The samples that ran undisturbed
/// agree with each other to 1–2 %, so the value near their edge is a
/// property of the code. The 5th percentile rather than the fastest
/// sample, so that one lucky sample cannot set the value; with 100
/// repetitions it is the 5th fastest.
pub const REPORTED_PERCENTILE: f64 = 5.0;

/// One metric summarised over the timed repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The reported value: read off the [`REPORTED_PERCENTILE`] of every
    /// slice.
    pub value: f64,
    /// The same metric read off the fastest sample of every slice.
    pub best: f64,
    /// The same metric read off the slowest sample of every slice.
    pub worst: f64,
    /// Number of repetitions summarised.
    pub n: u64,
}

impl Summary {
    /// A value measured once per run rather than once per repetition.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            best: value,
            worst: value,
            n: 1,
        }
    }

    /// Distance from the reported value to the best, as a share of the
    /// value (0 for a zero value). Small when several samples of every
    /// slice ran undisturbed; as wide as the host's two speeds are apart
    /// when only one or two did, and the value then says little.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.value - self.best).abs() / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let mut v = vec![15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&mut v, 5.0), 15.0);
        assert_eq!(percentile(&mut v, 30.0), 20.0);
        assert_eq!(percentile(&mut v, 40.0), 20.0);
        assert_eq!(percentile(&mut v, 50.0), 35.0);
        assert_eq!(percentile(&mut v, 100.0), 50.0);
        // p = 0 clamps to the first rank instead of indexing rank 0.
        assert_eq!(percentile(&mut v, 0.0), 15.0);
    }

    #[test]
    fn nearest_rank_sorts_its_input() {
        let mut v = vec![9.0, 1.0, 5.0, 3.0];
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 99.0), 9.0);
        assert_eq!(v, vec![1.0, 3.0, 5.0, 9.0]);
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 990.0);
        assert_eq!(percentile(&mut v, 90.0), 900.0);
    }

    #[test]
    fn spread_is_the_gap_between_the_value_and_the_best() {
        let s = Summary {
            value: 100.0,
            best: 80.0,
            worst: 140.0,
            n: 40,
        };
        assert!((s.spread() - 0.2).abs() < 1e-12);
        // Direction-free: for a higher-is-better metric the best is above.
        let s = Summary {
            value: 100.0,
            best: 125.0,
            worst: 70.0,
            n: 40,
        };
        assert!((s.spread() - 0.25).abs() < 1e-12);
        assert_eq!(Summary::single(7.0).spread(), 0.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }
}
