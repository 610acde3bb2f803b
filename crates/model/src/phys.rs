//! Physical-time tasks (microsecond domain).
//!
//! The overhead-accounting experiments of the paper's Section 4 operate on
//! tasks whose execution costs and periods are physical durations: context
//! switches cost `C = 5 µs`, the PD² quantum is `q = 1 ms`, cache-related
//! preemption delays are tens of microseconds. [`PhysTask`] represents such
//! a task with integer microsecond parameters; conversion into the
//! quantum-domain `Task` used by the Pfair machinery rounds
//! the execution cost *up* to a whole number of quanta — the paper calls
//! this rounding out explicitly as "one source of schedulability loss in
//! PD²" (Section 4, "Challenges in Pfair scheduling").
//!
//! Periods are required to be multiples of the quantum, as the paper
//! assumes ("We assume that p is a multiple of q").

use crate::task::Task;
use crate::weight::WeightError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors converting physical-time tasks to the quantum domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumError {
    /// The period is not a multiple of the quantum size.
    PeriodNotMultiple {
        /// Offending period (µs).
        period_us: u64,
        /// Quantum size (µs).
        quantum_us: u64,
    },
    /// After rounding, the task was invalid (e.g. execution exceeds period —
    /// the task is unschedulable at this quantum size).
    Invalid(WeightError),
    /// The quantum size was zero.
    ZeroQuantum,
}

impl fmt::Display for QuantumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantumError::PeriodNotMultiple {
                period_us,
                quantum_us,
            } => write!(
                f,
                "period {period_us}µs is not a multiple of the quantum {quantum_us}µs"
            ),
            QuantumError::Invalid(e) => write!(f, "task invalid after quantum rounding: {e}"),
            QuantumError::ZeroQuantum => write!(f, "quantum size is zero"),
        }
    }
}

impl std::error::Error for QuantumError {}

/// A task with physical-time parameters, in integer microseconds.
///
/// # Examples
///
/// ```
/// use pfair_model::{PhysTask, PhysTaskSet, Rat};
///
/// // 3.2 ms of work every 20 ms.
/// let t = PhysTask::new(3_200, 20_000);
/// assert!((t.utilization() - 0.16).abs() < 1e-12);
///
/// // With a 1 ms quantum the cost rounds up to 4 quanta out of 20.
/// let set: PhysTaskSet = [t].into_iter().collect();
/// let q = set.to_quantum_tasks(1_000).unwrap();
/// assert_eq!(q.total_utilization(), Rat::new(4, 20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhysTask {
    /// Worst-case execution time per job, µs.
    pub wcet_us: u64,
    /// Period (and relative deadline), µs.
    pub period_us: u64,
}

impl PhysTask {
    /// Creates a physical task.
    ///
    /// # Panics
    ///
    /// Panics if `wcet_us == 0` or `period_us == 0`; a physical task *may*
    /// temporarily have `wcet > period` (it is then simply unschedulable,
    /// which the experiments need to detect rather than forbid).
    pub fn new(wcet_us: u64, period_us: u64) -> Self {
        assert!(wcet_us > 0, "zero WCET");
        assert!(period_us > 0, "zero period");
        PhysTask { wcet_us, period_us }
    }

    /// Utilization `wcet / period` as `f64` (physical domain is where the
    /// workspace tolerates floats; overhead math is µs-granular anyway).
    pub fn utilization(&self) -> f64 {
        self.wcet_us as f64 / self.period_us as f64
    }

    /// Converts to a quantum-domain [`Task`]: execution rounds **up** to
    /// `⌈wcet/q⌉` quanta, the period must divide evenly into `period/q`
    /// quanta.
    fn to_quantum_task(self, quantum_us: u64) -> Result<Task, QuantumError> {
        if quantum_us == 0 {
            return Err(QuantumError::ZeroQuantum);
        }
        if self.period_us % quantum_us != 0 {
            return Err(QuantumError::PeriodNotMultiple {
                period_us: self.period_us,
                quantum_us,
            });
        }
        let exec_q = self.wcet_us.div_ceil(quantum_us);
        let period_q = self.period_us / quantum_us;
        Task::new(exec_q, period_q).map_err(QuantumError::Invalid)
    }
}

impl fmt::Display for PhysTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(wcet={}µs, p={}µs)", self.wcet_us, self.period_us)
    }
}

/// A set of physical-time tasks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysTaskSet {
    /// The tasks, indexed by position.
    pub tasks: Vec<PhysTask>,
}

impl PhysTaskSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a task, returning its index.
    pub fn push(&mut self, t: PhysTask) -> usize {
        self.tasks.push(t);
        self.tasks.len() - 1
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total utilization (f64; reporting/partitioning domain).
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(PhysTask::utilization).sum()
    }

    /// Converts every task to the quantum domain (fails on the first task
    /// whose period is not quantum-aligned or that overflows a full
    /// processor after rounding).
    pub fn to_quantum_tasks(&self, quantum_us: u64) -> Result<crate::TaskSet, QuantumError> {
        self.tasks
            .iter()
            .map(|t| t.to_quantum_task(quantum_us))
            .collect::<Result<crate::TaskSet, _>>()
    }

    /// Iterate over tasks.
    pub fn iter(&self) -> std::slice::Iter<'_, PhysTask> {
        self.tasks.iter()
    }
}

impl FromIterator<PhysTask> for PhysTaskSet {
    fn from_iter<I: IntoIterator<Item = PhysTask>>(iter: I) -> Self {
        PhysTaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rat;
    use proptest::prelude::*;

    /// `t`'s exact utilization.
    fn exact(t: &PhysTask) -> Rat {
        Rat::new(t.wcet_us as i128, t.period_us as i128)
    }

    #[test]
    fn quantum_rounding_rounds_up() {
        let t = PhysTask::new(1, 10_000); // 1 µs of work, 10 ms period
        let q = t.to_quantum_task(1_000).unwrap();
        // The paper: "if a task has a small execution requirement of ε, it
        // must be increased to 1 [quantum]".
        assert_eq!(q.exec, 1);
        assert_eq!(q.period, 10);
        assert!(q.utilization() > exact(&t));
    }

    #[test]
    fn exact_multiple_does_not_round() {
        let t = PhysTask::new(3_000, 9_000);
        let q = t.to_quantum_task(1_000).unwrap();
        assert_eq!((q.exec, q.period), (3, 9));
        assert_eq!(q.utilization(), exact(&t));
    }

    #[test]
    fn misaligned_period_rejected() {
        let t = PhysTask::new(100, 1_500);
        let err = t.to_quantum_task(1_000).unwrap_err();
        assert!(matches!(err, QuantumError::PeriodNotMultiple { .. }));
        assert!(err.to_string().contains("multiple"));
    }

    #[test]
    fn overload_after_rounding_rejected() {
        // 1.2 ms of work per 1 ms period can never fit.
        let t = PhysTask::new(1_200, 1_000);
        assert!(matches!(
            t.to_quantum_task(1_000),
            Err(QuantumError::Invalid(_))
        ));
    }

    #[test]
    fn zero_quantum_rejected() {
        let t = PhysTask::new(10, 1_000);
        assert_eq!(t.to_quantum_task(0), Err(QuantumError::ZeroQuantum));
    }

    #[test]
    fn set_conversion_and_totals() {
        let set: PhysTaskSet = [PhysTask::new(500, 2_000), PhysTask::new(250, 1_000)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
        assert!((set.total_utilization() - 0.5).abs() < 1e-12);
        let qs = set.to_quantum_tasks(1_000).unwrap();
        assert_eq!(qs.len(), 2);
        // 500µs rounds to 1 quantum of 2; 250µs rounds to 1 of 1.
        assert_eq!(qs.total_utilization(), Rat::new(3, 2));
    }

    proptest! {
        #[test]
        fn prop_quantization_never_decreases_utilization(
            wcet in 1u64..1_000_000,
            periods in 1u64..1_000,
            q in prop::sample::select(vec![100u64, 250, 500, 1_000, 2_000]),
        ) {
            let t = PhysTask::new(wcet, periods * q);
            if let Ok(qt) = t.to_quantum_task(q) {
                prop_assert!(qt.utilization() >= exact(&t));
                // And the over-approximation is less than one quantum per
                // period: e_q − e/q < 1.
                let slack = qt.utilization() - exact(&t);
                prop_assert!(slack < Rat::new(1, (t.period_us / q) as i128));
            }
        }
    }
}
