//! The three ready-queue structures of ablation E20.
//!
//! The paper measured its schedulers with binary-heap ready queues ("We
//! used binary heaps to implement the priority queues of both schedulers",
//! §4) — which makes the reported overheads a property of that data
//! structure as much as of the algorithm. `PfairScheduler` holds that
//! binary heap directly; [`MinQueue`] puts it beside the two alternatives
//! so the `queue_ablation` bench can time all three on identical traffic:
//!
//! * [`QueueKind::BinaryHeap`] — `O(log n)` push/pop, the paper's choice
//!   and the scheduler's.
//! * [`QueueKind::SortedVec`] — `O(n)` insertion, `O(1)` pop; wins for the
//!   small queues of lightly-loaded systems.
//! * [`QueueKind::LinearScan`] — `O(1)` push, `O(n)` pop; the naive
//!   baseline.
//!
//! All three pop elements in exactly the same (total) order, asserted by
//! property tests.

/// Which backing structure a [`MinQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Binary min-heap (the paper's configuration).
    #[default]
    BinaryHeap,
    /// Vector kept sorted descending; pop takes from the tail.
    SortedVec,
    /// Unsorted vector; pop scans for the minimum.
    LinearScan,
}

impl QueueKind {
    /// All kinds, for ablation sweeps.
    pub const ALL: [QueueKind; 3] = [
        QueueKind::BinaryHeap,
        QueueKind::SortedVec,
        QueueKind::LinearScan,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::BinaryHeap => "binary-heap",
            QueueKind::SortedVec => "sorted-vec",
            QueueKind::LinearScan => "linear-scan",
        }
    }
}

/// A min-priority queue over `T: Ord` with a runtime-selected backing
/// structure. Pops the **smallest** element first.
#[derive(Debug, Clone)]
pub enum MinQueue<T: Ord> {
    /// Binary heap backing (stored as max-heap of `Reverse`).
    BinaryHeap(std::collections::BinaryHeap<std::cmp::Reverse<T>>),
    /// Descending sorted vector backing (minimum at the tail).
    SortedVec(Vec<T>),
    /// Unsorted vector backing.
    LinearScan(Vec<T>),
}

impl<T: Ord> MinQueue<T> {
    /// Creates an empty queue of the given kind.
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::BinaryHeap => MinQueue::BinaryHeap(std::collections::BinaryHeap::new()),
            QueueKind::SortedVec => MinQueue::SortedVec(Vec::new()),
            QueueKind::LinearScan => MinQueue::LinearScan(Vec::new()),
        }
    }

    /// Inserts an element.
    pub fn push(&mut self, x: T) {
        match self {
            MinQueue::BinaryHeap(h) => h.push(std::cmp::Reverse(x)),
            MinQueue::SortedVec(v) => {
                // Keep descending order: find insertion point from the end
                // (new elements are usually late-deadline ⇒ near the front,
                // but binary search keeps the worst case O(log n) compares).
                let pos = v.partition_point(|e| *e > x);
                v.insert(pos, x);
            }
            MinQueue::LinearScan(v) => v.push(x),
        }
    }

    /// Removes and returns the smallest element.
    pub fn pop(&mut self) -> Option<T> {
        match self {
            MinQueue::BinaryHeap(h) => h.pop().map(|std::cmp::Reverse(x)| x),
            MinQueue::SortedVec(v) => v.pop(),
            MinQueue::LinearScan(v) => {
                let idx = v
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.cmp(b))
                    .map(|(i, _)| i)?;
                Some(v.swap_remove(idx))
            }
        }
    }

    /// A reference to the smallest element.
    pub fn peek(&self) -> Option<&T> {
        match self {
            MinQueue::BinaryHeap(h) => h.peek().map(|std::cmp::Reverse(x)| x),
            MinQueue::SortedVec(v) => v.last(),
            MinQueue::LinearScan(v) => v.iter().min(),
        }
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        match self {
            MinQueue::BinaryHeap(h) => h.len(),
            MinQueue::SortedVec(v) | MinQueue::LinearScan(v) => v.len(),
        }
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_ordering_all_kinds() {
        for kind in QueueKind::ALL {
            let mut q = MinQueue::new(kind);
            assert!(q.is_empty());
            for x in [5, 1, 4, 1, 3] {
                q.push(x);
            }
            assert_eq!(q.len(), 5);
            assert_eq!(q.peek(), Some(&1), "{}", kind.name());
            let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(drained, vec![1, 1, 3, 4, 5], "{}", kind.name());
            assert_eq!(q.pop(), None);
        }
    }

    proptest! {
        /// All three implementations drain any interleaved push/pop
        /// sequence identically.
        #[test]
        fn prop_kinds_agree(ops in prop::collection::vec(-1000i32..1000, 0..200)) {
            let mut queues: Vec<MinQueue<i32>> =
                QueueKind::ALL.iter().map(|&k| MinQueue::new(k)).collect();
            let mut outputs: Vec<Vec<Option<i32>>> = vec![Vec::new(); 3];
            for &op in &ops {
                for (q, out) in queues.iter_mut().zip(&mut outputs) {
                    if op % 3 == 0 {
                        out.push(q.pop());
                    } else {
                        q.push(op);
                    }
                }
            }
            prop_assert_eq!(&outputs[0], &outputs[1]);
            prop_assert_eq!(&outputs[0], &outputs[2]);
            prop_assert_eq!(queues[0].len(), queues[1].len());
            prop_assert_eq!(queues[0].len(), queues[2].len());
        }
    }
}
