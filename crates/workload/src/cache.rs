//! Cache-related preemption-delay distributions.
//!
//! The paper: "D(T) was chosen randomly between 0 µs and 100 µs; the mean
//! of this distribution was chosen to be 33.3 µs" (extrapolated from the
//! cache-analysis literature \[23, 24\]). The paper does not name the
//! distribution; a uniform distribution on \[0, 100\] has mean 50, so the
//! authors must have used something right-skewed. [`CacheDelayDist::TruncExp`]
//! is the natural choice matching both the support and the mean; uniform
//! and constant variants exist for sensitivity analysis.

use rand::Rng;

/// A distribution for per-task cache-related preemption delay `D(T)` (µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheDelayDist {
    /// Always the same value.
    Constant(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (µs).
        lo: f64,
        /// Upper bound (µs).
        hi: f64,
    },
    /// Exponential truncated to `[0, max]` with the given mean — the
    /// paper-matching configuration is `TruncExp { mean: 33.3, max: 100.0 }`
    /// (see [`CacheDelayDist::paper2003`]).
    TruncExp {
        /// Desired mean of the truncated distribution (µs).
        mean: f64,
        /// Truncation point (µs).
        max: f64,
    },
}

impl CacheDelayDist {
    /// The paper's configuration: support \[0, 100\] µs, mean 33.3 µs.
    pub fn paper2003() -> Self {
        CacheDelayDist::TruncExp {
            mean: 33.3,
            max: 100.0,
        }
    }

    /// Samples one delay. Each call solves the truncated-exponential rate
    /// afresh; draw many delays through [`CacheDelayDist::sample_n`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sampler().draw(rng)
    }

    /// Samples `n` delays: the same values as `n` successive
    /// [`CacheDelayDist::sample`] calls, with the rate solved once.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        let sampler = self.sampler();
        (0..n).map(|_| sampler.draw(rng)).collect()
    }

    fn sampler(&self) -> Sampler {
        match *self {
            CacheDelayDist::Constant(v) => Sampler::Constant(v),
            CacheDelayDist::Uniform { lo, hi } => Sampler::Uniform { lo, hi },
            CacheDelayDist::TruncExp { mean, max } => {
                let lambda = solve_trunc_exp_rate(mean, max);
                Sampler::TruncExp {
                    lambda,
                    mass: 1.0 - (-lambda * max).exp(),
                    max,
                }
            }
        }
    }

    /// The distribution's exact mean (µs).
    pub fn mean(&self) -> f64 {
        match *self {
            CacheDelayDist::Constant(v) => v,
            CacheDelayDist::Uniform { lo, hi } => (lo + hi) / 2.0,
            CacheDelayDist::TruncExp { mean, .. } => mean,
        }
    }
}

/// A [`CacheDelayDist`] with everything a draw does not change worked
/// out: for the truncated exponential, the rate λ and `1 − e^{−λ·max}`.
#[derive(Debug, Clone, Copy)]
enum Sampler {
    Constant(f64),
    Uniform { lo: f64, hi: f64 },
    TruncExp { lambda: f64, mass: f64, max: f64 },
}

impl Sampler {
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Sampler::Constant(v) => v,
            Sampler::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            Sampler::TruncExp { lambda, mass, max } => {
                // Inverse-CDF sampling of Exp(λ) truncated to [0, max]:
                // F(x) = (1 − e^{−λx})/(1 − e^{−λ·max}).
                let u: f64 = rng.gen_range(0.0..1.0);
                let z = 1.0 - u * mass;
                (-z.ln() / lambda).clamp(0.0, max)
            }
        }
    }
}

/// Mean of Exp(λ) truncated to `[0, max]`:
/// `1/λ − max·e^{−λ·max}/(1 − e^{−λ·max})`.
fn trunc_exp_mean(lambda: f64, max: f64) -> f64 {
    let em = (-lambda * max).exp();
    1.0 / lambda - max * em / (1.0 - em)
}

/// Solves for the rate λ giving the requested truncated mean by bisection.
/// Requires `0 < mean < max/2` (above `max/2` the truncated exponential
/// degenerates toward uniform; the paper's 33.3 < 50 is safely inside).
fn solve_trunc_exp_rate(mean: f64, max: f64) -> f64 {
    assert!(
        mean > 0.0 && mean < max / 2.0,
        "mean must lie in (0, max/2)"
    );
    let (mut lo, mut hi) = (1e-9, 1e3);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        // trunc_exp_mean is decreasing in λ.
        let next = if trunc_exp_mean(mid, max) > mean {
            (mid, hi)
        } else {
            (lo, mid)
        };
        // A step is a function of (lo, hi) alone, so one that changes
        // neither is what every remaining step would repeat: the interval
        // has narrowed to adjacent floats (68 steps for the paper's rate).
        if next == (lo, hi) {
            break;
        }
        (lo, hi) = next;
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The bisection as it stood before the early exit: always 200 steps.
    fn solve_200_steps(mean: f64, max: f64) -> f64 {
        let (mut lo, mut hi) = (1e-9, 1e3);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if trunc_exp_mean(mid, max) > mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn sample_n_equals_successive_samples_bit_for_bit() {
        for d in [
            CacheDelayDist::Constant(7.0),
            CacheDelayDist::Uniform { lo: 10.0, hi: 20.0 },
            CacheDelayDist::paper2003(),
            CacheDelayDist::TruncExp {
                mean: 2.0,
                max: 40.0,
            },
        ] {
            let mut batch_rng = StdRng::seed_from_u64(11);
            let mut single_rng = StdRng::seed_from_u64(11);
            let batch = d.sample_n(&mut batch_rng, 300);
            let singles: Vec<f64> = (0..300).map(|_| d.sample(&mut single_rng)).collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&batch), bits(&singles), "{d:?}");
            // Both left the generator in the same state.
            assert_eq!(batch_rng.next_u64(), single_rng.next_u64(), "{d:?}");
        }
    }

    #[test]
    fn early_exit_solves_the_paper_rate_to_the_same_bits() {
        assert_eq!(
            solve_trunc_exp_rate(33.3, 100.0).to_bits(),
            solve_200_steps(33.3, 100.0).to_bits()
        );
    }

    proptest! {
        /// Stopping at the first step that moves neither bound returns
        /// exactly what running all 200 steps did.
        #[test]
        fn prop_early_exit_matches_200_steps(
            max in 0.5f64..10_000.0,
            frac in 0.001f64..0.499,
        ) {
            let mean = frac * max;
            prop_assert_eq!(
                solve_trunc_exp_rate(mean, max).to_bits(),
                solve_200_steps(mean, max).to_bits()
            );
        }
    }

    #[test]
    fn trunc_exp_rate_solves_paper_mean() {
        let lambda = solve_trunc_exp_rate(33.3, 100.0);
        let m = trunc_exp_mean(lambda, 100.0);
        assert!((m - 33.3).abs() < 1e-6, "mean {m}");
    }

    #[test]
    fn empirical_mean_matches_paper() {
        let d = CacheDelayDist::paper2003();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean: f64 = d.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((mean - 33.3).abs() < 0.5, "empirical mean {mean}");
    }

    #[test]
    fn samples_respect_support() {
        let d = CacheDelayDist::paper2003();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=100.0).contains(&x));
        }
    }

    #[test]
    fn uniform_and_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(CacheDelayDist::Constant(7.0).sample(&mut rng), 7.0);
        assert_eq!(CacheDelayDist::Constant(7.0).mean(), 7.0);
        let u = CacheDelayDist::Uniform { lo: 10.0, hi: 20.0 };
        assert_eq!(u.mean(), 15.0);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((10.0..=20.0).contains(&x));
        }
    }

    #[test]
    fn trunc_exp_is_right_skewed() {
        // Median well below the mean: P(X < mean) > 1/2.
        let d = CacheDelayDist::paper2003();
        let mut rng = StdRng::seed_from_u64(4);
        let below = d
            .sample_n(&mut rng, 50_000)
            .iter()
            .filter(|&&x| x < 33.3)
            .count();
        assert!(below as f64 / 50_000.0 > 0.55);
    }

    #[test]
    #[should_panic(expected = "mean must lie")]
    fn rejects_degenerate_mean() {
        let _ = solve_trunc_exp_rate(60.0, 100.0);
    }
}
