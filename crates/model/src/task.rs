//! Quantum-domain tasks and task sets.
//!
//! A [`Task`] is the paper's periodic task `T` with integer execution cost
//! `T.e` and integer period `T.p`, both measured in quanta. The same
//! parameters describe sporadic and intra-sporadic tasks — those models
//! differ only in *when* subtasks/jobs become eligible, which is behaviour
//! owned by `pfair-core`'s release processes, not by the static description.

use crate::rat::{gcd_u64, Rat};
use crate::weight::{Weight, WeightError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a task within a [`TaskSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The identifier as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A recurrent task: execution cost `e` and period `p` in quanta.
///
/// # Examples
///
/// ```
/// use pfair_model::Task;
///
/// // The paper's running example: weight 8/11.
/// let t = Task::new(8, 11).unwrap();
/// assert_eq!(t.weight().numer(), 8);
/// assert!(t.weight().is_heavy());
/// assert_eq!(t.utilization(), pfair_model::Rat::new(8, 11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Task {
    /// Execution cost per job, in quanta (`T.e`).
    pub exec: u64,
    /// Period, in quanta (`T.p`).
    pub period: u64,
}

impl Task {
    /// Creates a task with execution cost `exec` and period `period`.
    pub fn new(exec: u64, period: u64) -> Result<Self, WeightError> {
        // Validate through Weight (0 < e ≤ p, p > 0).
        Weight::new(exec, period)?;
        Ok(Task { exec, period })
    }

    /// `wt(T) = T.e / T.p` in lowest terms.
    pub fn weight(&self) -> Weight {
        Weight::new(self.exec, self.period).expect("validated at construction")
    }

    /// Utilization as an exact rational (same value as the weight).
    pub fn utilization(&self) -> Rat {
        Rat::new(self.exec as i128, self.period as i128)
    }

    /// True iff `wt(T) ≥ 1/2`.
    pub fn is_heavy(&self) -> bool {
        self.weight().is_heavy()
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(e={}, p={})", self.exec, self.period)
    }
}

/// An indexed collection of tasks; `TaskId(i)` names the `i`-th task.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// An empty task set.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Builds a task set from `(exec, period)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Result<Self, WeightError>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut ts = TaskSet::new();
        for (e, p) in pairs {
            ts.push(Task::new(e, p)?);
        }
        Ok(ts)
    }

    /// Appends a task, returning its identifier.
    pub fn push(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True iff there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task named by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Fallible lookup.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// Iterates `(TaskId, &Task)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// All task ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Exact total utilization `Σ_T wt(T)`.
    ///
    /// # Panics
    ///
    /// The exact sum can overflow `i128` for large sets of tasks with
    /// unrelated periods; use [`Self::utilization_sum`] (which degrades
    /// gracefully) for such sets.
    pub fn total_utilization(&self) -> Rat {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Total utilization as an overflow-tolerant [`WeightSum`](crate::WeightSum).
    pub fn utilization_sum(&self) -> crate::WeightSum {
        let mut sum = crate::WeightSum::new();
        for t in &self.tasks {
            sum.add(t.weight());
        }
        sum
    }

    /// The paper's feasibility condition (Equation (2)): an IS/periodic/
    /// sporadic task system is feasible on `m` processors iff
    /// `Σ wt(T) ≤ m`.
    pub fn feasible_on(&self, m: u32) -> bool {
        self.utilization_sum().at_most(m)
    }

    /// Smallest processor count on which the set is feasible
    /// (`⌈Σ wt(T)⌉`, and at least 1 for a nonempty set).
    pub fn min_processors(&self) -> u32 {
        let c = self.utilization_sum().ceil();
        u32::try_from(c.max(u64::from(!self.is_empty()))).expect("processor count fits u32")
    }

    /// Hyperperiod: least common multiple of all periods. Saturates at
    /// `u64::MAX` on overflow (callers cap simulation horizons anyway).
    pub fn hyperperiod(&self) -> u64 {
        self.tasks.iter().fold(1u64, |acc, t| {
            let g = gcd_u64(acc, t.period);
            (acc / g).saturating_mul(t.period)
        })
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl std::ops::Index<TaskId> for TaskSet {
    type Output = Task;
    fn index(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(pairs: &[(u64, u64)]) -> TaskSet {
        TaskSet::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let set = ts(&[(2, 3), (1, 4)]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set[TaskId(0)].exec, 2);
        assert_eq!(set.task(TaskId(1)).period, 4);
        assert!(set.get(TaskId(2)).is_none());
        let ids: Vec<_> = set.ids().collect();
        assert_eq!(ids, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn rejects_invalid_tasks() {
        assert!(Task::new(0, 3).is_err());
        assert!(Task::new(4, 3).is_err());
        assert!(Task::new(3, 0).is_err());
        assert!(TaskSet::from_pairs([(1, 2), (0, 1)]).is_err());
    }

    #[test]
    fn total_utilization_exact() {
        // The classical partitioning counterexample: three tasks of weight
        // 2/3 fill two processors exactly (paper, Section 1).
        let set = ts(&[(2, 3), (2, 3), (2, 3)]);
        assert_eq!(set.total_utilization(), Rat::from(2u64));
        assert!(set.feasible_on(2));
        assert!(!set.feasible_on(1));
        assert_eq!(set.min_processors(), 2);
    }

    #[test]
    fn min_processors_rounds_up() {
        let set = ts(&[(1, 2), (1, 3)]);
        // 1/2 + 1/3 = 5/6 → 1 processor.
        assert_eq!(set.min_processors(), 1);
        let set = ts(&[(1, 2), (2, 3)]);
        // 7/6 → 2 processors.
        assert_eq!(set.min_processors(), 2);
        assert_eq!(TaskSet::new().min_processors(), 0);
    }

    #[test]
    fn hyperperiod() {
        let set = ts(&[(1, 4), (1, 6), (1, 10)]);
        assert_eq!(set.hyperperiod(), 60);
        assert_eq!(TaskSet::new().hyperperiod(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(3).to_string(), "T3");
        assert_eq!(Task::new(2, 3).unwrap().to_string(), "(e=2, p=3)");
    }

    #[test]
    fn from_iterator() {
        let set: TaskSet = [Task::new(1, 2).unwrap(), Task::new(1, 3).unwrap()]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }
}
