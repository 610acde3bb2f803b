//! The analytic blocking bound for quantum-boundary locking (paper §5.1),
//! the `analytic bound` column of `pfair locking` beside what
//! [`crate::locksim`] measures.
//!
//! Because no lock is ever held across a quantum boundary and a spinning
//! task waits only for sections started earlier *in the same slot*,
//! per-access blocking is bounded by `(M − 1) · L_max` spin time, and a
//! deferred section completes in the task's next scheduled quantum.

/// Worst-case spin (µs) for one lock access under quantum-boundary
/// locking on `m` processors, with `max_cs_us` the longest critical
/// section of any *other* task sharing the resource: everyone scheduled
/// concurrently can hold/queue ahead at most once.
pub fn pfair_blocking_bound(m: u32, max_cs_us: u64) -> u64 {
    (m.saturating_sub(1)) as u64 * max_cs_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_bound_values() {
        assert_eq!(pfair_blocking_bound(1, 50), 0); // no one to wait for
        assert_eq!(pfair_blocking_bound(4, 50), 150);
        assert_eq!(pfair_blocking_bound(16, 10), 150);
    }
}
