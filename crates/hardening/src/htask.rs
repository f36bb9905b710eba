//! The hardened system: the transformed application set `T'`.
//!
//! Hardening rewrites task graphs (replication adds copies and voters,
//! re-execution inflates execution bounds), so hardened tasks live in their
//! own index space ([`HTaskId`]) flat across the whole system. Every hardened
//! task records its provenance ([`HTask::origin`], [`Role`]) so results can
//! be reported against the original model.

use core::fmt;
use mcmap_model::{AppId, AppSet, Criticality, ExecBounds, ProcId, ProcKind, TaskRef, Time};
use std::sync::Arc;

/// Index of a task in a [`HardenedSystem`](crate::HardenedSystem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HTaskId(usize);

impl HTaskId {
    /// Creates an id from a dense index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        HTaskId(index)
    }

    /// The dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for HTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl From<usize> for HTaskId {
    fn from(i: usize) -> Self {
        HTaskId(i)
    }
}

/// The role a hardened task plays relative to its original task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The original copy of the task (mapped by the free mapping).
    Primary,
    /// The `i`-th always-executing replica (placement fixed by the plan).
    ActiveReplica(u8),
    /// The `i`-th on-demand standby replica (placement fixed by the plan);
    /// executes only when the voter observes a mismatch.
    PassiveReplica(u8),
    /// The majority voter collecting the copies' results (placement fixed by
    /// the plan).
    Voter,
}

impl Role {
    /// Returns `true` for [`Role::PassiveReplica`].
    pub fn is_passive(&self) -> bool {
        matches!(self, Role::PassiveReplica(_))
    }

    /// Returns `true` for [`Role::Voter`].
    pub fn is_voter(&self) -> bool {
        matches!(self, Role::Voter)
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Primary => write!(f, "primary"),
            Role::ActiveReplica(i) => write!(f, "active[{i}]"),
            Role::PassiveReplica(i) => write!(f, "passive[{i}]"),
            Role::Voter => write!(f, "voter"),
        }
    }
}

/// A task of the hardened system.
#[derive(Debug, Clone, PartialEq)]
pub struct HTask {
    /// The original task this hardened task derives from (for a voter, the
    /// replicated task it votes for); `origin.app` is the application the
    /// task belongs to.
    pub origin: TaskRef,
    /// Role relative to the original task.
    pub role: Role,
    /// Maximum number of re-executions `k` (Eq. 1); 0 for voters.
    pub reexec: u8,
    /// Placement fixed by the hardening plan (replicas, voters); `None` for
    /// primaries, whose placement is a free mapping decision.
    pub fixed_proc: Option<ProcId>,
    /// Nominal execution bounds per processor kind (detection overhead
    /// included when re-execution hardened; `[ve, ve]` for voters), one
    /// table shared by all copies of an original task.
    pub(crate) exec: Arc<[Option<ExecBounds>]>,
}

impl HTask {
    /// The display name, derived from the original task's name and the
    /// role: `fft`, `fft#active0`, `fft#passive0` or `fft#voter`.
    ///
    /// `apps` is the set the system was hardened from.
    ///
    /// # Panics
    ///
    /// Panics if `apps` has no task at [`origin`](Self::origin).
    pub fn name(&self, apps: &AppSet) -> String {
        let orig = &apps.task(self.origin).name;
        match self.role {
            Role::Primary => orig.clone(),
            Role::ActiveReplica(i) => format!("{orig}#active{i}"),
            Role::PassiveReplica(i) => format!("{orig}#passive{i}"),
            Role::Voter => format!("{orig}#voter"),
        }
    }

    /// Nominal (fault-free) execution bounds on a processor kind, or `None`
    /// if the task cannot run on that kind. For a re-execution-hardened task
    /// this is `[bcet + dt, wcet + dt]` — detection runs on every execution.
    pub fn nominal_bounds(&self, kind: ProcKind) -> Option<ExecBounds> {
        self.exec.get(kind.index()).copied().flatten()
    }

    /// Worst-case execution time in the critical state on a processor kind:
    /// Eq. (1), `wcet' = (wcet + dt) · (k + 1)`. Equals the nominal WCET when
    /// the task is not re-execution hardened.
    pub fn critical_wcet(&self, kind: ProcKind) -> Option<Time> {
        self.nominal_bounds(kind)
            .map(|b| b.wcet.saturating_mul(self.reexec as u64 + 1))
    }

    /// Returns `true` if the task can run on `kind`.
    pub fn runs_on(&self, kind: ProcKind) -> bool {
        self.nominal_bounds(kind).is_some()
    }

    /// Kinds this task can execute on.
    pub fn supported_kinds(&self) -> impl Iterator<Item = ProcKind> + '_ {
        self.exec
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_some())
            .map(|(i, _)| ProcKind::new(i as u16))
    }

    /// Returns `true` for passive replicas.
    pub fn is_passive(&self) -> bool {
        self.role.is_passive()
    }

    /// Returns `true` if this task can trigger a transition to the critical
    /// system state: it is re-execution hardened (a fault extends its
    /// execution) or it is a passive replica (its very invocation signals a
    /// fault) — Algorithm 1, line 10.
    pub fn is_trigger(&self) -> bool {
        self.reexec > 0 || self.is_passive()
    }
}

/// A data-dependency channel of the hardened system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HChannel {
    /// Producing hardened task.
    pub src: HTaskId,
    /// Consuming hardened task.
    pub dst: HTaskId,
    /// Message size in bytes.
    pub bytes: u64,
}

/// Per-application metadata carried over into the hardened system.
#[derive(Debug, Clone, PartialEq)]
pub struct HApp {
    /// The original application id.
    pub app: AppId,
    /// Invocation period.
    pub period: Time,
    /// Relative deadline (≤ period).
    pub deadline: Time,
    /// Criticality annotation (copied from the model).
    pub criticality: Criticality,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_model::TaskId;

    fn htask(reexec: u8, role: Role, bounds: ExecBounds) -> HTask {
        HTask {
            origin: TaskRef::new(AppId::new(0), TaskId::new(0)),
            role,
            reexec,
            fixed_proc: None,
            exec: Arc::new([Some(bounds)]),
        }
    }

    #[test]
    fn critical_wcet_applies_equation_one() {
        // Nominal bounds already include dt: wcet + dt = 12.
        let t = htask(
            2,
            Role::Primary,
            ExecBounds::new(Time::from_ticks(5), Time::from_ticks(12)),
        );
        // (wcet + dt) * (k + 1) = 12 * 3 = 36.
        assert_eq!(
            t.critical_wcet(ProcKind::new(0)),
            Some(Time::from_ticks(36))
        );
    }

    #[test]
    fn critical_wcet_without_reexecution_is_nominal() {
        let t = htask(
            0,
            Role::Primary,
            ExecBounds::new(Time::from_ticks(5), Time::from_ticks(12)),
        );
        assert_eq!(
            t.critical_wcet(ProcKind::new(0)),
            Some(Time::from_ticks(12))
        );
    }

    #[test]
    fn unsupported_kind_yields_none() {
        let t = htask(0, Role::Primary, ExecBounds::exact(Time::from_ticks(1)));
        assert_eq!(t.nominal_bounds(ProcKind::new(5)), None);
        assert_eq!(t.critical_wcet(ProcKind::new(5)), None);
        assert!(!t.runs_on(ProcKind::new(5)));
        assert!(t.runs_on(ProcKind::new(0)));
    }

    #[test]
    fn trigger_classification() {
        assert!(htask(1, Role::Primary, ExecBounds::ZERO).is_trigger());
        assert!(htask(0, Role::PassiveReplica(0), ExecBounds::ZERO).is_trigger());
        assert!(!htask(0, Role::Primary, ExecBounds::ZERO).is_trigger());
        assert!(!htask(0, Role::ActiveReplica(0), ExecBounds::ZERO).is_trigger());
        assert!(!htask(0, Role::Voter, ExecBounds::ZERO).is_trigger());
    }

    #[test]
    fn role_display_and_predicates() {
        assert_eq!(Role::Primary.to_string(), "primary");
        assert_eq!(Role::ActiveReplica(1).to_string(), "active[1]");
        assert_eq!(Role::PassiveReplica(0).to_string(), "passive[0]");
        assert_eq!(Role::Voter.to_string(), "voter");
        assert!(Role::PassiveReplica(0).is_passive());
        assert!(Role::Voter.is_voter());
        assert!(!Role::Primary.is_passive());
    }

    #[test]
    fn htask_id_round_trip() {
        let id = HTaskId::new(9);
        assert_eq!(id.index(), 9);
        assert_eq!(id.to_string(), "h9");
        assert_eq!(HTaskId::from(9usize), id);
    }
}
