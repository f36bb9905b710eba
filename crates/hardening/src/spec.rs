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
//! [`AppSet`], including the placement of replicas and the voter (these are
//! part of the genome in the paper's Fig. 4).

use core::fmt;
use mcmap_model::{AppSet, ProcId, TaskRef};

/// Replication decision for one task.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Replication {
    /// The task runs as a single copy.
    #[default]
    None,
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

impl Replication {
    /// Returns `true` if the task is replicated at all.
    pub fn is_replicated(&self) -> bool {
        !matches!(self, Replication::None)
    }

    /// Total number of copies that always execute (primary included).
    pub fn active_copies(&self) -> usize {
        match self {
            Replication::None => 1,
            Replication::Active { replicas, .. } => 1 + replicas.len(),
            Replication::Passive { actives, .. } => 1 + actives.len(),
        }
    }

    /// Number of on-demand standby copies.
    pub fn standby_copies(&self) -> usize {
        match self {
            Replication::Passive { standbys, .. } => standbys.len(),
            _ => 0,
        }
    }

    /// The voter placement, if the task is replicated.
    pub fn voter(&self) -> Option<ProcId> {
        match self {
            Replication::None => None,
            Replication::Active { voter, .. } | Replication::Passive { voter, .. } => Some(*voter),
        }
    }

    /// Processors of the extra always-on copies and of the standbys (both
    /// empty when the task is not replicated).
    pub fn replica_procs(&self) -> (&[ProcId], &[ProcId]) {
        match self {
            Replication::None => (&[], &[]),
            Replication::Active { replicas, .. } => (replicas, &[]),
            Replication::Passive {
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
}

/// The complete hardening decision for one task.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::{Replication, TaskHardening};
/// use mcmap_model::ProcId;
///
/// // Task re-executed at most twice, no replication.
/// let h = TaskHardening::reexecution(2);
/// assert_eq!(h.reexecutions, 2);
/// assert!(!h.replication.is_replicated());
///
/// // Task triplicated with a voter on p0.
/// let h = TaskHardening::active(vec![ProcId::new(1), ProcId::new(2)], ProcId::new(0));
/// assert_eq!(h.replication.active_copies(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskHardening {
    /// Maximum number of re-executions `k` (0 = not re-execution hardened).
    pub reexecutions: u8,
    /// Replication decision.
    pub replication: Replication,
}

impl TaskHardening {
    /// No hardening at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Re-execution with up to `k` retries.
    pub fn reexecution(k: u8) -> Self {
        TaskHardening {
            reexecutions: k,
            replication: Replication::None,
        }
    }

    /// Active replication with the given extra copies and voter placement.
    pub fn active(replicas: Vec<ProcId>, voter: ProcId) -> Self {
        TaskHardening {
            reexecutions: 0,
            replication: Replication::Active { replicas, voter },
        }
    }

    /// Passive replication: `actives` extra always-on copies, `standbys`
    /// on-demand copies, and the voter placement.
    pub fn passive(actives: Vec<ProcId>, standbys: Vec<ProcId>, voter: ProcId) -> Self {
        TaskHardening {
            reexecutions: 0,
            replication: Replication::Passive {
                actives,
                standbys,
                voter,
            },
        }
    }

    /// Returns `true` if any hardening is applied.
    pub fn is_hardened(&self) -> bool {
        self.reexecutions > 0 || self.replication.is_replicated()
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
            entries: vec![TaskHardening::none(); apps.num_tasks()],
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

    /// Counts entries using each technique class: `(re-execution only,
    /// replication involved, unhardened)`. Used for the §5.2 hardening-mix
    /// statistics.
    pub fn technique_histogram(&self) -> TechniqueHistogram {
        let mut h = TechniqueHistogram::default();
        for e in &self.entries {
            match (&e.replication, e.reexecutions) {
                (Replication::None, 0) => h.unhardened += 1,
                (Replication::None, _) => h.reexecution += 1,
                (Replication::Active { .. }, _) => h.active += 1,
                (Replication::Passive { .. }, _) => h.passive += 1,
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
    /// Tasks hardened by re-execution only.
    pub reexecution: usize,
    /// Tasks using active replication (possibly combined with re-execution).
    pub active: usize,
    /// Tasks using passive replication (possibly combined with re-execution).
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
    fn replication_copy_counts() {
        assert_eq!(Replication::None.active_copies(), 1);
        assert_eq!(Replication::None.standby_copies(), 0);
        let act = Replication::Active {
            replicas: vec![ProcId::new(1), ProcId::new(2)],
            voter: ProcId::new(0),
        };
        assert_eq!(act.active_copies(), 3);
        let pas = Replication::Passive {
            actives: vec![ProcId::new(1)],
            standbys: vec![ProcId::new(2)],
            voter: ProcId::new(0),
        };
        assert_eq!(pas.active_copies(), 2);
        assert_eq!(pas.standby_copies(), 1);
        assert_eq!(pas.voter(), Some(ProcId::new(0)));
        assert_eq!(Replication::None.voter(), None);
        assert_eq!(
            pas.bodies().collect::<Vec<_>>(),
            vec![ProcId::new(1), ProcId::new(2)]
        );
        assert_eq!(Replication::None.bodies().count(), 0);
    }

    #[test]
    fn hardening_constructors() {
        assert!(!TaskHardening::none().is_hardened());
        assert!(TaskHardening::reexecution(1).is_hardened());
        assert!(TaskHardening::active(vec![ProcId::new(1)], ProcId::new(0)).is_hardened());
        assert!(
            TaskHardening::passive(vec![ProcId::new(1)], vec![ProcId::new(2)], ProcId::new(0))
                .is_hardened()
        );
        assert!(!TaskHardening::reexecution(0).is_hardened());
    }

    #[test]
    fn plan_get_set_round_trip() {
        let apps = two_task_set();
        let mut plan = HardeningPlan::unhardened(&apps);
        let r = mcmap_model::TaskRef::new(mcmap_model::AppId::new(0), TaskId::new(1));
        plan.set(&apps, r, TaskHardening::reexecution(3));
        assert_eq!(plan.get(&apps, r).reexecutions, 3);
        assert_eq!(plan.by_flat_index(0).reexecutions, 0);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn histogram_classifies_techniques() {
        let apps = two_task_set();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(1));
        plan.set_by_flat_index(
            1,
            TaskHardening::active(vec![ProcId::new(1)], ProcId::new(0)),
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
