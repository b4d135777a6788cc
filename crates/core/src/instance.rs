//! Problem instances: a set of tasks plus the machine count.

use crate::error::{Error, Result};
use crate::ids::{MachineId, TaskId};
use crate::scalar::{Size, Time};
use crate::task::Task;

/// An instance of the scheduling problem: `n` tasks to run on `m`
/// identical machines.
///
/// The instance stores only scheduler-visible data (estimates and sizes);
/// actual processing times are a separate [`crate::Realization`] so that
/// one instance can be executed under many realizations.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    tasks: Vec<Task>,
    machines: usize,
}

impl Instance {
    /// Builds an instance from tasks, validating id density.
    ///
    /// # Errors
    /// - [`Error::EmptyInstance`] if `tasks` is empty.
    /// - [`Error::NoMachines`] if `machines == 0`.
    /// - [`Error::TaskOutOfRange`] if task ids are not exactly `0..n` in order.
    pub fn new(tasks: Vec<Task>, machines: usize) -> Result<Self> {
        if tasks.is_empty() {
            return Err(Error::EmptyInstance);
        }
        if machines == 0 {
            return Err(Error::NoMachines);
        }
        for (i, t) in tasks.iter().enumerate() {
            if t.id.index() != i {
                return Err(Error::TaskOutOfRange {
                    task: t.id.index(),
                    n: tasks.len(),
                });
            }
        }
        Ok(Instance { tasks, machines })
    }

    /// Builds an instance from raw estimated times (sizes default to zero).
    ///
    /// # Errors
    /// Propagates scalar validation failures and the checks of [`Self::new`].
    pub fn from_estimates(estimates: &[f64], machines: usize) -> Result<Self> {
        let tasks = estimates
            .iter()
            .enumerate()
            .map(|(i, &p)| Ok(Task::timed(TaskId::new(i), Time::new(p)?)))
            .collect::<Result<Vec<_>>>()?;
        Self::new(tasks, machines)
    }

    /// Builds an instance from `(estimate, size)` pairs.
    ///
    /// # Errors
    /// Propagates scalar validation failures and the checks of [`Self::new`].
    pub fn from_estimates_and_sizes(pairs: &[(f64, f64)], machines: usize) -> Result<Self> {
        let tasks = pairs
            .iter()
            .enumerate()
            .map(|(i, &(p, s))| Ok(Task::sized(TaskId::new(i), Time::new(p)?, Size::new(s)?)))
            .collect::<Result<Vec<_>>>()?;
        Self::new(tasks, machines)
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.tasks.len()
    }

    /// Number of machines `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.machines
    }

    /// The tasks, ordered by id.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The estimate `p̃_j` for a task.
    #[inline]
    pub fn estimate(&self, id: TaskId) -> Time {
        self.tasks[id.index()].estimate
    }

    /// The size `s_j` for a task.
    #[inline]
    pub fn size(&self, id: TaskId) -> Size {
        self.tasks[id.index()].size
    }

    /// Iterator over all task ids `0..n`.
    pub fn task_ids(&self) -> impl DoubleEndedIterator<Item = TaskId> + ExactSizeIterator {
        crate::ids::tasks(self.n())
    }

    /// Iterator over all machine ids `0..m`.
    pub fn machine_ids(&self) -> impl DoubleEndedIterator<Item = MachineId> + ExactSizeIterator {
        crate::ids::machines(self.m())
    }

    /// Sum of all estimated processing times `Σ p̃_j`.
    pub fn total_estimate(&self) -> Time {
        self.tasks.iter().map(|t| t.estimate).sum()
    }

    /// Largest estimated processing time `max_j p̃_j`.
    pub fn max_estimate(&self) -> Time {
        self.tasks
            .iter()
            .map(|t| t.estimate)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Sum of all task sizes `Σ s_j`.
    pub fn total_size(&self) -> Size {
        self.tasks.iter().map(|t| t.size).sum()
    }

    /// Largest task size `max_j s_j`.
    pub fn max_size(&self) -> Size {
        self.tasks
            .iter()
            .map(|t| t.size)
            .max()
            .unwrap_or(Size::ZERO)
    }

    /// A stable 64-bit fingerprint of the instance (FNV-1a over `m`, `n`,
    /// and every task's estimate and size bits).
    ///
    /// Campaign journals record this digest so a `--resume` against a
    /// *different* instance is detected instead of silently mixing
    /// results from two experiments.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, v: u64) -> u64 {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        let mut h = OFFSET;
        h = eat(h, self.machines as u64);
        h = eat(h, self.tasks.len() as u64);
        for t in &self.tasks {
            h = eat(h, t.estimate.get().to_bits());
            h = eat(h, t.size.get().to_bits());
        }
        h
    }

    /// Task ids sorted by non-increasing estimate (LPT order), ties broken
    /// by id for determinism.
    pub fn ids_by_estimate_desc(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.task_ids().collect();
        // The key (estimate descending, id) is unique, so the unstable
        // sort returns the same order as a stable one, without the merge
        // buffer.
        ids.sort_unstable_by(|&a, &b| self.estimate(b).cmp(&self.estimate(a)).then(a.cmp(&b)));
        ids
    }

    /// Task ids sorted by non-increasing size, ties broken by id.
    pub fn ids_by_size_desc(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.task_ids().collect();
        // Unique key (size descending, id): unstable sort, same order.
        ids.sort_unstable_by(|&a, &b| self.size(b).cmp(&self.size(a)).then(a.cmp(&b)));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert_eq!(Instance::new(vec![], 3).unwrap_err(), Error::EmptyInstance);
        assert_eq!(
            Instance::from_estimates(&[1.0], 0).unwrap_err(),
            Error::NoMachines
        );
        // Non-dense ids rejected.
        let bad = vec![Task::timed(TaskId::new(1), Time::ONE)];
        assert!(matches!(
            Instance::new(bad, 2).unwrap_err(),
            Error::TaskOutOfRange { .. }
        ));
        // Invalid estimate propagates.
        assert!(matches!(
            Instance::from_estimates(&[1.0, -2.0], 2).unwrap_err(),
            Error::InvalidScalar { .. }
        ));
    }

    #[test]
    fn accessors_and_aggregates() {
        let inst = Instance::from_estimates(&[3.0, 1.0, 2.0], 2).unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.m(), 2);
        assert_eq!(inst.total_estimate(), Time::of(6.0));
        assert_eq!(inst.max_estimate(), Time::of(3.0));
        assert_eq!(inst.estimate(TaskId::new(2)), Time::of(2.0));
        assert_eq!(inst.task_ids().len(), 3);
        assert_eq!(inst.machine_ids().len(), 2);
    }

    #[test]
    fn sizes() {
        let inst = Instance::from_estimates_and_sizes(&[(1.0, 5.0), (2.0, 3.0)], 2).unwrap();
        assert_eq!(inst.total_size(), Size::of(8.0));
        assert_eq!(inst.max_size(), Size::of(5.0));
        assert_eq!(inst.size(TaskId::new(0)), Size::of(5.0));
    }

    #[test]
    fn lpt_order_breaks_ties_by_id() {
        let inst = Instance::from_estimates(&[2.0, 3.0, 2.0, 5.0], 2).unwrap();
        let order = inst.ids_by_estimate_desc();
        let idx: Vec<usize> = order.iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![3, 1, 0, 2]);
    }

    #[test]
    fn descending_orders_match_a_stable_sort_under_heavy_ties() {
        // Few distinct keys over many ids: an unstable sort would expose
        // any tie the id key failed to break.
        let pairs: Vec<(f64, f64)> = (0..500)
            .map(|j| ((j * 7 % 5) as f64, (j * 3 % 4) as f64))
            .collect();
        let inst = Instance::from_estimates_and_sizes(&pairs, 3).unwrap();
        let mut by_estimate: Vec<TaskId> = inst.task_ids().collect();
        by_estimate.sort_by_key(|&t| std::cmp::Reverse(inst.estimate(t)));
        assert_eq!(inst.ids_by_estimate_desc(), by_estimate);
        let mut by_size: Vec<TaskId> = inst.task_ids().collect();
        by_size.sort_by_key(|&t| std::cmp::Reverse(inst.size(t)));
        assert_eq!(inst.ids_by_size_desc(), by_size);
    }

    #[test]
    fn digest_separates_instances_and_is_stable() {
        let a = Instance::from_estimates(&[3.0, 1.0, 2.0], 2).unwrap();
        let same = Instance::from_estimates(&[3.0, 1.0, 2.0], 2).unwrap();
        assert_eq!(a.digest(), same.digest());
        // Any field change moves the digest: estimates, m, or sizes.
        let other_est = Instance::from_estimates(&[3.0, 1.0, 2.5], 2).unwrap();
        assert_ne!(a.digest(), other_est.digest());
        let other_m = Instance::from_estimates(&[3.0, 1.0, 2.0], 3).unwrap();
        assert_ne!(a.digest(), other_m.digest());
        let sized =
            Instance::from_estimates_and_sizes(&[(3.0, 1.0), (1.0, 0.0), (2.0, 0.0)], 2).unwrap();
        assert_ne!(a.digest(), sized.digest());
    }

    #[test]
    fn size_order() {
        let inst =
            Instance::from_estimates_and_sizes(&[(1.0, 2.0), (1.0, 9.0), (1.0, 2.0)], 2).unwrap();
        let idx: Vec<usize> = inst.ids_by_size_desc().iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![1, 0, 2]);
    }
}
