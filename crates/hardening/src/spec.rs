//! Hardening decisions: which technique protects which task.
//!
//! The paper (§2.2) considers three transient-fault hardening techniques:
//!
//! * **re-execution** — detect at end of execution, roll back, run again (up
//!   to `k` extra times); inflates the WCET per Eq. (1);
//! * **active replication** — `n ≥ 2` copies always execute on different
//!   processors and a voter selects the majority value;
//! * **passive replication** — some copies are standbys that execute only
//!   when the voter observes a mismatch among the active copies.
//!
//! A [`HardeningPlan`] assigns one [`TaskHardening`] to every task of an
//! [`AppSet`], including the placement of replicas and the voter. The same
//! type is the hardening section of a chromosome gene
//! ([`TaskGene`](crate::TaskGene), Fig. 4 of the paper), so a gene decodes
//! to its plan entry by a clone.

use core::fmt;
use mcmap_model::{AppSet, ProcId, TaskRef};

/// The hardening decision for one task: one of the paper's per-task
/// techniques (the hardening section of a Fig. 4 gene), with the placement
/// of every extra copy and of the voter.
///
/// The variant and field order is part of the chromosome's derived `Hash`
/// and `Debug` streams, which seed repair, key the evaluation memo and
/// break portfolio ties: do not reorder.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::TaskHardening;
/// use mcmap_model::ProcId;
///
/// // Task re-executed at most twice, no replication.
/// let h = TaskHardening::Reexec(2);
/// assert_eq!(h.reexecutions(), 2);
/// assert_eq!(h.voter(), None);
///
/// // Task triplicated with a voter on p0.
/// let h = TaskHardening::Active {
///     replicas: vec![ProcId::new(1), ProcId::new(2)],
///     voter: ProcId::new(0),
/// };
/// assert_eq!(h.active_copies(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TaskHardening {
    /// No hardening: the task runs as a single copy.
    None,
    /// Re-execution with up to `k` retries. `Reexec(0)` is unhardened.
    Reexec(u8),
    /// Active replication: the primary copy plus `replicas` always execute;
    /// a voter on `voter` performs majority voting over all copies.
    Active {
        /// Processors hosting the additional always-on copies (the primary's
        /// processor comes from the mapping).
        replicas: Vec<ProcId>,
        /// Processor hosting the voter task.
        voter: ProcId,
    },
    /// Passive replication: the primary plus `actives` always execute;
    /// `standbys` are instantiated only when the voter detects a mismatch.
    Passive {
        /// Processors hosting the additional always-on copies.
        actives: Vec<ProcId>,
        /// Processors hosting the on-demand standby copies.
        standbys: Vec<ProcId>,
        /// Processor hosting the voter task.
        voter: ProcId,
    },
}

impl TaskHardening {
    /// The re-execution budget `k` (0 unless re-execution hardened).
    pub fn reexecutions(&self) -> u8 {
        match self {
            TaskHardening::Reexec(k) => *k,
            _ => 0,
        }
    }

    /// Processors of the extra always-on copies and of the standbys (both
    /// empty when the task is not replicated).
    pub fn replica_procs(&self) -> (&[ProcId], &[ProcId]) {
        match self {
            TaskHardening::None | TaskHardening::Reexec(_) => (&[], &[]),
            TaskHardening::Active { replicas, .. } => (replicas, &[]),
            TaskHardening::Passive {
                actives, standbys, ..
            } => (actives, standbys),
        }
    }

    /// Processors of the extra copies, primary excluded: the always-on
    /// copies first, then the standbys.
    pub fn bodies(&self) -> impl Iterator<Item = ProcId> + '_ {
        let (actives, standbys) = self.replica_procs();
        actives.iter().chain(standbys).copied()
    }

    /// The voter placement, if the task is replicated.
    pub fn voter(&self) -> Option<ProcId> {
        match self {
            TaskHardening::None | TaskHardening::Reexec(_) => None,
            TaskHardening::Active { voter, .. } | TaskHardening::Passive { voter, .. } => {
                Some(*voter)
            }
        }
    }

    /// Mutable access to the placements: the [`bodies`](Self::bodies) in
    /// the same order, and the voter.
    pub fn placements_mut(&mut self) -> (impl Iterator<Item = &mut ProcId>, Option<&mut ProcId>) {
        let (actives, standbys, voter): (&mut [ProcId], &mut [ProcId], _) = match self {
            TaskHardening::None | TaskHardening::Reexec(_) => (&mut [], &mut [], None),
            TaskHardening::Active { replicas, voter } => (replicas, &mut [], Some(voter)),
            TaskHardening::Passive {
                actives,
                standbys,
                voter,
            } => (actives, standbys, Some(voter)),
        };
        (actives.iter_mut().chain(standbys.iter_mut()), voter)
    }

    /// Total number of copies that always execute (primary included).
    pub fn active_copies(&self) -> usize {
        1 + self.replica_procs().0.len()
    }

    /// Number of on-demand standby copies.
    pub fn standby_copies(&self) -> usize {
        self.replica_procs().1.len()
    }

    /// Returns `true` if any hardening is applied (`Reexec(0)` is none).
    pub fn is_hardened(&self) -> bool {
        !matches!(self, TaskHardening::None | TaskHardening::Reexec(0))
    }
}

/// A hardening decision for every task of an application set.
///
/// Indexed by the flat task enumeration of the owning [`AppSet`]
/// (see [`AppSet::task_refs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HardeningPlan {
    entries: Vec<TaskHardening>,
}

impl HardeningPlan {
    /// A plan that hardens nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mcmap_model::{AppSet, ExecBounds, Task, TaskGraph, Time};
    /// use mcmap_hardening::HardeningPlan;
    /// # fn main() -> Result<(), mcmap_model::ModelError> {
    /// # let g = TaskGraph::builder("g", Time::from_ticks(10))
    /// #     .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
    /// #     .build()?;
    /// # let apps = AppSet::new(vec![g])?;
    /// let plan = HardeningPlan::unhardened(&apps);
    /// assert!(!plan.iter().any(|(_, h)| h.is_hardened()));
    /// # Ok(())
    /// # }
    /// ```
    pub fn unhardened(apps: &AppSet) -> Self {
        HardeningPlan {
            entries: vec![TaskHardening::None; apps.num_tasks()],
        }
    }

    /// Builds a plan directly from per-task entries (flat-index order).
    pub fn from_entries(entries: Vec<TaskHardening>) -> Self {
        HardeningPlan { entries }
    }

    /// Number of entries (one per task in the set).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the plan covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hardening of one task by flat index.
    ///
    /// # Panics
    ///
    /// Panics if `flat_index` is out of range.
    pub fn by_flat_index(&self, flat_index: usize) -> &TaskHardening {
        &self.entries[flat_index]
    }

    /// Sets the hardening of one task by flat index.
    ///
    /// # Panics
    ///
    /// Panics if `flat_index` is out of range.
    pub fn set_by_flat_index(&mut self, flat_index: usize, h: TaskHardening) {
        self.entries[flat_index] = h;
    }

    /// The hardening of a task identified by reference.
    pub fn get(&self, apps: &AppSet, r: TaskRef) -> &TaskHardening {
        &self.entries[apps.flat_index(r)]
    }

    /// Sets the hardening of a task identified by reference.
    pub fn set(&mut self, apps: &AppSet, r: TaskRef, h: TaskHardening) {
        let i = apps.flat_index(r);
        self.entries[i] = h;
    }

    /// Iterates over `(flat index, &TaskHardening)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &TaskHardening)> {
        self.entries.iter().enumerate()
    }

    /// Counts entries using each technique class (`Reexec(0)` counts as
    /// unhardened). Used for the §5.2 hardening-mix statistics.
    pub fn technique_histogram(&self) -> TechniqueHistogram {
        let mut h = TechniqueHistogram::default();
        for e in &self.entries {
            match e {
                TaskHardening::None | TaskHardening::Reexec(0) => h.unhardened += 1,
                TaskHardening::Reexec(_) => h.reexecution += 1,
                TaskHardening::Active { .. } => h.active += 1,
                TaskHardening::Passive { .. } => h.passive += 1,
            }
        }
        h
    }
}

/// Counts of hardening techniques applied across a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TechniqueHistogram {
    /// Tasks with no hardening.
    pub unhardened: usize,
    /// Tasks hardened by re-execution.
    pub reexecution: usize,
    /// Tasks using active replication.
    pub active: usize,
    /// Tasks using passive replication.
    pub passive: usize,
}

impl TechniqueHistogram {
    /// Total number of hardened tasks.
    pub fn hardened_total(&self) -> usize {
        self.reexecution + self.active + self.passive
    }

    /// Fraction of *hardened* tasks whose technique is re-execution, the
    /// statistic the paper reports in §5.2 (e.g. 87.03 % for DT-med).
    pub fn reexecution_share(&self) -> f64 {
        let total = self.hardened_total();
        if total == 0 {
            0.0
        } else {
            self.reexecution as f64 / total as f64
        }
    }
}

impl fmt::Display for TechniqueHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reexec={} active={} passive={} unhardened={}",
            self.reexecution, self.active, self.passive, self.unhardened
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_model::{AppSet, ExecBounds, Task, TaskGraph, TaskId, Time};

    fn two_task_set() -> AppSet {
        let g = TaskGraph::builder("g", Time::from_ticks(10))
            .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
            .build()
            .unwrap();
        AppSet::new(vec![g]).unwrap()
    }

    #[test]
    fn helpers_cover_every_variant() {
        let p = ProcId::new;
        for bare in [TaskHardening::None, TaskHardening::Reexec(2)] {
            assert_eq!(bare.active_copies(), 1);
            assert_eq!(bare.standby_copies(), 0);
            assert_eq!(bare.bodies().count(), 0);
            assert_eq!(bare.voter(), None);
        }
        assert_eq!(TaskHardening::Reexec(2).reexecutions(), 2);
        let act = TaskHardening::Active {
            replicas: vec![p(1), p(2)],
            voter: p(0),
        };
        assert_eq!(act.active_copies(), 3);
        assert_eq!(act.reexecutions(), 0);
        let pas = TaskHardening::Passive {
            actives: vec![p(1)],
            standbys: vec![p(2)],
            voter: p(3),
        };
        assert_eq!(pas.active_copies(), 2);
        assert_eq!(pas.standby_copies(), 1);
        assert_eq!(pas.voter(), Some(p(3)));
        assert_eq!(pas.bodies().collect::<Vec<_>>(), vec![p(1), p(2)]);
        assert_eq!(pas.replica_procs(), (&[p(1)][..], &[p(2)][..]));
    }

    #[test]
    fn placements_mut_visits_bodies_then_voter() {
        let p = ProcId::new;
        let mut s = TaskHardening::Passive {
            actives: vec![p(1)],
            standbys: vec![p(2)],
            voter: p(3),
        };
        let (bodies, voter) = s.placements_mut();
        for b in bodies {
            *b = p(b.index() + 10);
        }
        *voter.unwrap() = p(0);
        assert_eq!(s.bodies().collect::<Vec<_>>(), vec![p(11), p(12)]);
        assert_eq!(s.voter(), Some(p(0)));
        let mut bare = TaskHardening::Reexec(1);
        let (bodies, voter) = bare.placements_mut();
        assert_eq!(bodies.count(), 0);
        assert!(voter.is_none());
    }

    #[test]
    fn reexec_zero_is_unhardened() {
        let p = ProcId::new;
        assert!(!TaskHardening::None.is_hardened());
        assert!(!TaskHardening::Reexec(0).is_hardened());
        assert!(TaskHardening::Reexec(1).is_hardened());
        let act = TaskHardening::Active {
            replicas: vec![p(1)],
            voter: p(0),
        };
        assert!(act.is_hardened());
        let pas = TaskHardening::Passive {
            actives: vec![p(1)],
            standbys: vec![p(2)],
            voter: p(0),
        };
        assert!(pas.is_hardened());
        let apps = two_task_set();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(0));
        let h = plan.technique_histogram();
        assert_eq!(h, HardeningPlan::unhardened(&apps).technique_histogram());
        assert_eq!(h.unhardened, 2);
    }

    #[test]
    fn plan_get_set_round_trip() {
        let apps = two_task_set();
        let mut plan = HardeningPlan::unhardened(&apps);
        let r = mcmap_model::TaskRef::new(mcmap_model::AppId::new(0), TaskId::new(1));
        plan.set(&apps, r, TaskHardening::Reexec(3));
        assert_eq!(plan.get(&apps, r), &TaskHardening::Reexec(3));
        assert_eq!(plan.by_flat_index(0), &TaskHardening::None);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn histogram_classifies_techniques() {
        let apps = two_task_set();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(1));
        plan.set_by_flat_index(
            1,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(0),
            },
        );
        let h = plan.technique_histogram();
        assert_eq!(h.reexecution, 1);
        assert_eq!(h.active, 1);
        assert_eq!(h.unhardened, 0);
        assert_eq!(h.hardened_total(), 2);
        assert!((h.reexecution_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_share_with_no_hardening_is_zero() {
        let apps = two_task_set();
        let plan = HardeningPlan::unhardened(&apps);
        assert_eq!(plan.technique_histogram().reexecution_share(), 0.0);
    }
}
