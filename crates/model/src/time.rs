//! Discrete time: slots, quanta, and subtask windows.
//!
//! Under Pfair scheduling, processor time is allocated in fixed-size quanta;
//! the interval `[t, t+1)` is *slot* `t` (paper, Section 2). This module
//! fixes the conventions used across the workspace:
//!
//! * [`Slot`] indexes a slot (equivalently, the time at its start).
//! * [`SlotCount`] measures durations in whole quanta.
//! * [`Window`] is the half-open interval `[release, deadline)` within which
//!   a subtask must be scheduled.

/// Index of a scheduling slot; slot `t` covers real time `[t, t+1)` quanta.
pub type Slot = u64;

/// A duration measured in whole quanta/slots.
pub type SlotCount = u64;

/// The half-open interval `w(Tᵢ) = [r(Tᵢ), d(Tᵢ))` in which subtask `Tᵢ`
/// must be scheduled (paper, Section 2).
///
/// # Examples
///
/// ```
/// use pfair_model::Window;
///
/// let w = Window::new(0, 2); // first subtask of a weight-8/11 task
/// assert_eq!(w.len(), 2);
/// assert!(w.contains(0) && w.contains(1) && !w.contains(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Pseudo-release: first slot in which the subtask may be scheduled.
    pub release: Slot,
    /// Pseudo-deadline: first slot in which it may *no longer* be scheduled.
    pub deadline: Slot,
}

impl Window {
    /// Creates `[release, deadline)`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline <= release` (windows always have length ≥ 1).
    pub fn new(release: Slot, deadline: Slot) -> Self {
        assert!(
            deadline > release,
            "window deadline {deadline} must exceed release {release}"
        );
        Window { release, deadline }
    }

    /// `|w(Tᵢ)| = d(Tᵢ) − r(Tᵢ)`.
    pub fn len(&self) -> SlotCount {
        self.deadline - self.release
    }

    /// Windows are never empty; provided for clippy-idiomatic completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True iff slot `t` lies inside the window.
    pub fn contains(&self, t: Slot) -> bool {
        self.release <= t && t < self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let w = Window::new(3, 6);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert!(w.contains(3));
        assert!(w.contains(5));
        assert!(!w.contains(6));
        assert!(!w.contains(2));
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn empty_window_panics() {
        let _ = Window::new(4, 4);
    }
}
