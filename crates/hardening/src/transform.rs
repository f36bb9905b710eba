//! The hardening graph transform: application set + hardening plan → `T'`.
//!
//! Implements the rewrites sketched in Fig. 2 of the paper:
//!
//! * *re-execution* keeps the topology and folds the detection overhead into
//!   the execution bounds (the Eq. (1) inflation is exposed via
//!   [`HTask::critical_wcet`]);
//! * *active replication* clones the task onto the planned processors and
//!   inserts a majority voter; every copy receives the original inputs and
//!   the voter takes over the original outputs;
//! * *passive replication* additionally creates standby copies that the
//!   voter consults only on a mismatch — statically they are wired like
//!   active copies, and the analyses account for their conditional execution
//!   by giving them a best case of zero.

use crate::{HApp, HChannel, HTask, HTaskId, HardeningPlan, Replication, Role};
use core::fmt;
use mcmap_model::{AppId, AppSet, Architecture, ExecBounds, ProcId, ProcKind, Task, TaskRef, Time};
use std::ops::Range;

/// Error produced while applying a hardening plan.
#[derive(Debug, Clone, PartialEq)]
pub enum HardenError {
    /// The plan has a different number of entries than the application set
    /// has tasks.
    PlanSizeMismatch {
        /// Entries in the plan.
        plan: usize,
        /// Tasks in the application set.
        tasks: usize,
    },
    /// A replica or voter is placed on a processor that does not exist.
    UnknownProcessor {
        /// The offending task.
        task: TaskRef,
        /// The out-of-range processor id.
        proc: ProcId,
    },
    /// A replica is placed on a processor whose kind cannot execute the task.
    ReplicaKindMismatch {
        /// The offending task.
        task: TaskRef,
        /// The processor whose kind the task does not support.
        proc: ProcId,
    },
    /// Active replication was requested with no additional replicas.
    TooFewReplicas {
        /// The offending task.
        task: TaskRef,
    },
    /// Passive replication was requested without any standby copy, or
    /// without at least two always-on copies to compare.
    MalformedPassive {
        /// The offending task.
        task: TaskRef,
    },
}

impl fmt::Display for HardenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardenError::PlanSizeMismatch { plan, tasks } => {
                write!(f, "plan has {plan} entries but the set has {tasks} tasks")
            }
            HardenError::UnknownProcessor { task, proc } => {
                write!(
                    f,
                    "replica/voter of {task} placed on unknown processor {proc}"
                )
            }
            HardenError::ReplicaKindMismatch { task, proc } => {
                write!(
                    f,
                    "task {task} cannot execute on the kind of processor {proc}"
                )
            }
            HardenError::TooFewReplicas { task } => {
                write!(f, "active replication of {task} needs at least one replica")
            }
            HardenError::MalformedPassive { task } => {
                write!(
                    f,
                    "passive replication of {task} needs two always-on copies and a standby"
                )
            }
        }
    }
}

impl std::error::Error for HardenError {}

/// The transformed application set `T'`: every original task expanded into
/// its copies (plus voter), with rewritten channels.
///
/// Built by [`harden`]; consumed by the scheduling analysis, the simulator,
/// and the reliability checks.
#[derive(Debug, Clone, PartialEq)]
pub struct HardenedSystem {
    apps: Vec<HApp>,
    tasks: Vec<HTask>,
    channels: Vec<HChannel>,
    /// Incoming channel indices per task.
    preds: Vec<Vec<usize>>,
    /// Outgoing channel indices per task.
    succs: Vec<Vec<usize>>,
    /// Topological order over all tasks (apps are independent components).
    topo: Vec<HTaskId>,
    /// Hardened copies (primary, actives, passives) per original flat index.
    copies: Vec<Vec<HTaskId>>,
    /// Voter per original flat index, if the task is replicated.
    voters: Vec<Option<HTaskId>>,
    /// Flat indices of each application's original tasks (contiguous in
    /// the [`AppSet`] flat order), per [`AppId`].
    app_flats: Vec<Range<usize>>,
}

impl HardenedSystem {
    /// Number of hardened tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of hardened channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Returns a hardened task by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: HTaskId) -> &HTask {
        &self.tasks[id.index()]
    }

    /// Iterates over `(HTaskId, &HTask)`.
    pub fn tasks(&self) -> impl Iterator<Item = (HTaskId, &HTask)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (HTaskId::new(i), t))
    }

    /// All hardened task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = HTaskId> {
        (0..self.tasks.len()).map(HTaskId::new)
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &HChannel> {
        self.channels.iter()
    }

    /// Channels feeding `id`.
    pub fn in_channels(&self, id: HTaskId) -> impl Iterator<Item = &HChannel> {
        self.preds[id.index()].iter().map(|&c| &self.channels[c])
    }

    /// Channels produced by `id`.
    pub fn out_channels(&self, id: HTaskId) -> impl Iterator<Item = &HChannel> {
        self.succs[id.index()].iter().map(|&c| &self.channels[c])
    }

    /// Direct predecessors of `id`.
    pub fn predecessors(&self, id: HTaskId) -> impl Iterator<Item = HTaskId> + '_ {
        self.in_channels(id).map(|c| c.src)
    }

    /// Direct successors of `id`.
    pub fn successors(&self, id: HTaskId) -> impl Iterator<Item = HTaskId> + '_ {
        self.out_channels(id).map(|c| c.dst)
    }

    /// A topological order over all hardened tasks.
    pub fn topological_order(&self) -> &[HTaskId] {
        &self.topo
    }

    /// Per-application metadata, indexed by the original
    /// [`mcmap_model::AppId`].
    pub fn apps(&self) -> &[HApp] {
        &self.apps
    }

    /// The application metadata for the app owning `id`.
    pub fn app_of(&self, id: HTaskId) -> &HApp {
        &self.apps[self.tasks[id.index()].app.index()]
    }

    /// All hardened copies (primary, active, passive — not the voter) of an
    /// original task, given its flat index in the original set.
    pub fn copies_of(&self, flat_index: usize) -> &[HTaskId] {
        &self.copies[flat_index]
    }

    /// The voter of an original task (by flat index), if replicated.
    pub fn voter_of(&self, flat_index: usize) -> Option<HTaskId> {
        self.voters[flat_index]
    }

    /// Total number of original tasks this system was derived from.
    pub fn num_original_tasks(&self) -> usize {
        self.copies.len()
    }

    /// The flat index (in the original application set) of the given origin
    /// task, or `None` if the reference does not occur in this system.
    pub fn flat_of_origin(&self, origin: TaskRef) -> Option<usize> {
        let range = self.app_flats.get(origin.app.index())?;
        let flat = range.start + origin.task.index();
        range.contains(&flat).then_some(flat)
    }

    /// The flat index (in the original application set) of the original
    /// task that hardened task `id` (a copy or a voter) derives from.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn flat_of(&self, id: HTaskId) -> usize {
        let origin = self.tasks[id.index()].origin;
        self.app_flats[origin.app.index()].start + origin.task.index()
    }

    /// The flat indices of `app`'s original tasks: a contiguous range of
    /// the [`AppSet`] flat order.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range.
    pub fn flats_of_app(&self, app: AppId) -> Range<usize> {
        self.app_flats[app.index()].clone()
    }

    /// The placement of every hardened task: the plan's fixed processor
    /// for replicas and voters, `bindings[flat]` for the primary of
    /// original task `flat` — the genome-to-design rule of the DSE.
    ///
    /// # Panics
    ///
    /// Panics if `bindings` has fewer entries than the original task set.
    pub fn placement(&self, bindings: &[ProcId]) -> Vec<ProcId> {
        self.tasks()
            .map(|(id, t)| t.fixed_proc.unwrap_or(bindings[self.flat_of(id)]))
            .collect()
    }
}

/// Applies a hardening plan to an application set.
///
/// The architecture is needed to validate replica and voter placements and
/// to size the voter's execution table.
///
/// # Errors
///
/// See [`HardenError`] for the conditions rejected.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
/// use mcmap_model::{
///     AppSet, Architecture, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::builder()
///     .homogeneous(3, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
///     .build()?;
/// let g = TaskGraph::builder("g", Time::from_ticks(100))
///     .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
///     .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
///     .channel(0, 1, 16)
///     .build()?;
/// let apps = AppSet::new(vec![g])?;
///
/// let mut plan = HardeningPlan::unhardened(&apps);
/// plan.set_by_flat_index(0, TaskHardening::active(
///     vec![mcmap_model::ProcId::new(1), mcmap_model::ProcId::new(2)],
///     mcmap_model::ProcId::new(0),
/// ));
/// let hsys = harden(&apps, &plan, &arch)?;
/// // a (3 copies) + voter + b = 5 tasks.
/// assert_eq!(hsys.num_tasks(), 5);
/// # Ok(())
/// # }
/// ```
pub fn harden(
    apps: &AppSet,
    plan: &HardeningPlan,
    arch: &Architecture,
) -> Result<HardenedSystem, HardenError> {
    if plan.len() != apps.num_tasks() {
        return Err(HardenError::PlanSizeMismatch {
            plan: plan.len(),
            tasks: apps.num_tasks(),
        });
    }

    let num_orig = apps.num_tasks();
    let mut tasks: Vec<HTask> = Vec::new();
    let mut channels: Vec<HChannel> = Vec::new();
    let mut copies: Vec<Vec<HTaskId>> = vec![Vec::new(); num_orig];
    let mut voters: Vec<Option<HTaskId>> = vec![None; num_orig];
    let mut happs: Vec<HApp> = Vec::with_capacity(apps.num_apps());

    // Pass 1: create tasks.
    for (app_id, app) in apps.apps() {
        let mut members = Vec::new();
        for (task_id, orig) in app.tasks() {
            let r = TaskRef::new(app_id, task_id);
            let flat = apps.flat_index(r);
            let h = plan.by_flat_index(flat);
            validate_entry(r, orig, h, arch)?;

            let k = h.reexecutions;
            let exec = nominal_exec_table(orig, k);

            // Primary copy.
            let primary = push_task(
                &mut tasks,
                HTask {
                    name: orig.name.clone(),
                    app: app_id,
                    origin: r,
                    role: Role::Primary,
                    reexec: k,
                    detect_overhead: orig.detect_overhead,
                    fixed_proc: None,
                    exec: exec.clone(),
                },
            );
            members.push(primary);
            copies[flat].push(primary);

            let (actives, standbys) = h.replication.replica_procs();

            for (i, &proc) in actives.iter().enumerate() {
                let id = push_task(
                    &mut tasks,
                    HTask {
                        name: format!("{}#active{}", orig.name, i),
                        app: app_id,
                        origin: r,
                        role: Role::ActiveReplica(i as u8),
                        reexec: k,
                        detect_overhead: orig.detect_overhead,
                        fixed_proc: Some(proc),
                        exec: exec.clone(),
                    },
                );
                members.push(id);
                copies[flat].push(id);
            }
            for (i, &proc) in standbys.iter().enumerate() {
                let id = push_task(
                    &mut tasks,
                    HTask {
                        name: format!("{}#passive{}", orig.name, i),
                        app: app_id,
                        origin: r,
                        role: Role::PassiveReplica(i as u8),
                        reexec: k,
                        detect_overhead: orig.detect_overhead,
                        fixed_proc: Some(proc),
                        exec: exec.clone(),
                    },
                );
                members.push(id);
                copies[flat].push(id);
            }
            if let Some(vp) = h.replication.voter() {
                let ve = orig.voting_overhead;
                let voter_exec = vec![Some(ExecBounds::exact(ve)); arch.num_kinds().max(1)];
                let id = push_task(
                    &mut tasks,
                    HTask {
                        name: format!("{}#voter", orig.name),
                        app: app_id,
                        origin: r,
                        role: Role::Voter,
                        reexec: 0,
                        detect_overhead: Time::ZERO,
                        fixed_proc: Some(vp),
                        exec: voter_exec,
                    },
                );
                members.push(id);
                voters[flat] = Some(id);
            }
        }
        happs.push(HApp {
            app: app_id,
            name: app.name().to_string(),
            period: app.period(),
            deadline: app.deadline(),
            criticality: app.criticality(),
            members,
        });
    }

    // Pass 2: wire channels.
    for (app_id, app) in apps.apps() {
        // Voter fan-in per replicated task.
        for (task_id, orig) in app.tasks() {
            let flat = apps.flat_index(TaskRef::new(app_id, task_id));
            if let Some(voter) = voters[flat] {
                let vote_bytes = app
                    .out_channels(task_id)
                    .iter()
                    .map(|&c| app.channel(c).bytes)
                    .max()
                    .unwrap_or(0)
                    .max(1);
                let _ = orig;
                for &copy in &copies[flat] {
                    channels.push(HChannel {
                        src: copy,
                        dst: voter,
                        bytes: vote_bytes,
                    });
                }
            }
        }
        // Original data channels: producer endpoint is the voter (if
        // replicated) or the single copy; consumer endpoints are all copies.
        for (_, ch) in app.channels() {
            let src_flat = apps.flat_index(TaskRef::new(app_id, ch.src));
            let dst_flat = apps.flat_index(TaskRef::new(app_id, ch.dst));
            let producer = voters[src_flat].unwrap_or(copies[src_flat][0]);
            for &consumer in &copies[dst_flat] {
                channels.push(HChannel {
                    src: producer,
                    dst: consumer,
                    bytes: ch.bytes,
                });
            }
        }
    }

    // Derived adjacency.
    let n = tasks.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, c) in channels.iter().enumerate() {
        succs[c.src.index()].push(i);
        preds[c.dst.index()].push(i);
    }

    let topo = topological_order(n, &channels);
    debug_assert_eq!(topo.len(), n, "hardening must preserve acyclicity");

    Ok(HardenedSystem {
        apps: happs,
        tasks,
        channels,
        preds,
        succs,
        topo,
        copies,
        voters,
        app_flats: apps.app_ids().map(|a| apps.flats_of_app(a)).collect(),
    })
}

fn push_task(tasks: &mut Vec<HTask>, t: HTask) -> HTaskId {
    let id = HTaskId::new(tasks.len());
    tasks.push(t);
    id
}

/// Nominal execution table of a copy, per processor kind.
fn nominal_exec_table(orig: &Task, k: u8) -> Vec<Option<ExecBounds>> {
    orig.supported_kinds().fold(Vec::new(), |mut table, kind| {
        if table.len() <= kind.index() {
            table.resize(kind.index() + 1, None);
        }
        table[kind.index()] = copy_nominal_bounds(orig, kind, k);
        table
    })
}

/// Nominal execution bounds of one hardened copy of `orig` with `k`
/// re-executions on a processor of `kind` — what [`harden`] puts in every
/// copy's execution table: detection overhead is added to both bounds when
/// the task is re-execution hardened (detection runs on every execution,
/// faulty or not). `None` when `orig` cannot run on `kind`.
pub fn copy_nominal_bounds(orig: &Task, kind: ProcKind, k: u8) -> Option<ExecBounds> {
    let dt = if k > 0 {
        orig.detect_overhead
    } else {
        Time::ZERO
    };
    orig.exec_on(kind)
        .map(|b| ExecBounds::new(b.bcet + dt, b.wcet + dt))
}

/// Checks one plan entry against its original task and the architecture:
/// replica lists are non-empty (passive replication also needs a standby),
/// every copy sits on an existing, kind-compatible processor, and the voter
/// on an existing one. [`harden`] runs this check on every entry; it is
/// public so callers can validate a plan entry by entry without building
/// the hardened system.
///
/// # Errors
///
/// The first violated condition, as the [`HardenError`] `harden` reports.
pub fn validate_entry(
    r: TaskRef,
    orig: &Task,
    h: &crate::TaskHardening,
    arch: &Architecture,
) -> Result<(), HardenError> {
    let check_copy_proc = |proc: ProcId| -> Result<(), HardenError> {
        if proc.index() >= arch.num_processors() {
            return Err(HardenError::UnknownProcessor { task: r, proc });
        }
        if !orig.runs_on(arch.processor(proc).kind) {
            return Err(HardenError::ReplicaKindMismatch { task: r, proc });
        }
        Ok(())
    };
    let check_voter_proc = |proc: ProcId| -> Result<(), HardenError> {
        if proc.index() >= arch.num_processors() {
            return Err(HardenError::UnknownProcessor { task: r, proc });
        }
        Ok(())
    };
    match &h.replication {
        Replication::None => Ok(()),
        Replication::Active { replicas, voter } => {
            if replicas.is_empty() {
                return Err(HardenError::TooFewReplicas { task: r });
            }
            for &p in replicas {
                check_copy_proc(p)?;
            }
            check_voter_proc(*voter)
        }
        Replication::Passive {
            actives,
            standbys,
            voter,
        } => {
            // Need at least two always-on copies (primary + 1) for the voter
            // to observe a mismatch, and at least one standby to break ties.
            if actives.is_empty() || standbys.is_empty() {
                return Err(HardenError::MalformedPassive { task: r });
            }
            for &p in actives.iter().chain(standbys) {
                check_copy_proc(p)?;
            }
            check_voter_proc(*voter)
        }
    }
}

fn topological_order(n: usize, channels: &[HChannel]) -> Vec<HTaskId> {
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in channels {
        indeg[c.dst.index()] += 1;
        adj[c.src.index()].push(c.dst.index());
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop() {
        order.push(HTaskId::new(u));
        for &v in &adj[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskHardening;
    use mcmap_model::{ProcKind, Processor, TaskGraph, TaskId};

    fn arch(n: usize) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap()
    }

    fn producer_consumer() -> AppSet {
        let g = TaskGraph::builder("pc", Time::from_ticks(100))
            .task(
                Task::new("v0")
                    .with_uniform_exec(
                        1,
                        ExecBounds::new(Time::from_ticks(4), Time::from_ticks(10)),
                    )
                    .with_voting_overhead(Time::from_ticks(2))
                    .with_detect_overhead(Time::from_ticks(1)),
            )
            .task(
                Task::new("v1")
                    .with_uniform_exec(
                        1,
                        ExecBounds::new(Time::from_ticks(6), Time::from_ticks(12)),
                    )
                    .with_detect_overhead(Time::from_ticks(1)),
            )
            .channel(0, 1, 32)
            .build()
            .unwrap();
        AppSet::new(vec![g]).unwrap()
    }

    #[test]
    fn unhardened_transform_is_isomorphic() {
        let apps = producer_consumer();
        let plan = HardeningPlan::unhardened(&apps);
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        assert_eq!(h.num_tasks(), 2);
        assert_eq!(h.num_channels(), 1);
        assert_eq!(h.task(HTaskId::new(0)).role, Role::Primary);
        // Bounds unchanged (no dt folded in without re-execution).
        assert_eq!(
            h.task(HTaskId::new(0)).nominal_bounds(ProcKind::new(0)),
            Some(ExecBounds::new(Time::from_ticks(4), Time::from_ticks(10)))
        );
    }

    #[test]
    fn reexecution_folds_detection_overhead() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(1, TaskHardening::reexecution(1));
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let v1 = h
            .tasks()
            .find(|(_, t)| t.name == "v1")
            .map(|(id, _)| id)
            .unwrap();
        let b = h.task(v1).nominal_bounds(ProcKind::new(0)).unwrap();
        // bcet+dt = 7, wcet+dt = 13.
        assert_eq!(
            b,
            ExecBounds::new(Time::from_ticks(7), Time::from_ticks(13))
        );
        // Eq. (1): (12+1)*(1+1) = 26.
        assert_eq!(
            h.task(v1).critical_wcet(ProcKind::new(0)),
            Some(Time::from_ticks(26))
        );
        assert!(h.task(v1).is_trigger());
    }

    #[test]
    fn active_replication_matches_figure_2a() {
        // v0 actively triplicated as in Fig. 2(a).
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::active(vec![ProcId::new(1), ProcId::new(2)], ProcId::new(0)),
        );
        let h = harden(&apps, &plan, &arch(3)).unwrap();
        // 3 copies of v0 + voter + v1.
        assert_eq!(h.num_tasks(), 5);
        assert_eq!(h.copies_of(0).len(), 3);
        let voter = h.voter_of(0).unwrap();
        assert!(h.task(voter).role.is_voter());
        assert_eq!(h.task(voter).fixed_proc, Some(ProcId::new(0)));
        // Voter wcet = voting overhead.
        assert_eq!(
            h.task(voter).nominal_bounds(ProcKind::new(0)),
            Some(ExecBounds::exact(Time::from_ticks(2)))
        );
        // Channels: 3 copy→voter + 1 voter→v1 = 4.
        assert_eq!(h.num_channels(), 4);
        // v1's only predecessor is the voter.
        let v1 = h.tasks().find(|(_, t)| t.name == "v1").unwrap().0;
        assert_eq!(h.predecessors(v1).collect::<Vec<_>>(), vec![voter]);
        // Replicas have fixed placements, the primary does not.
        let roles: Vec<_> = h
            .copies_of(0)
            .iter()
            .map(|&c| h.task(c).fixed_proc)
            .collect();
        assert_eq!(
            roles,
            vec![None, Some(ProcId::new(1)), Some(ProcId::new(2))]
        );
    }

    #[test]
    fn passive_replication_marks_standbys() {
        // Fig. 2(b): two always-on copies plus one standby.
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::passive(vec![ProcId::new(1)], vec![ProcId::new(2)], ProcId::new(0)),
        );
        let h = harden(&apps, &plan, &arch(3)).unwrap();
        assert_eq!(h.copies_of(0).len(), 3);
        let passive: Vec<_> = h
            .tasks()
            .filter(|(_, t)| t.is_passive())
            .map(|(id, _)| id)
            .collect();
        assert_eq!(passive.len(), 1);
        assert!(h.task(passive[0]).is_trigger());
        // The standby feeds the voter like any copy.
        let voter = h.voter_of(0).unwrap();
        assert!(h.successors(passive[0]).any(|s| s == voter));
    }

    #[test]
    fn replicated_consumer_fans_in_to_all_copies() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            1,
            TaskHardening::active(vec![ProcId::new(1)], ProcId::new(0)),
        );
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        // v0 + 2 copies of v1 + voter = 4 tasks.
        assert_eq!(h.num_tasks(), 4);
        let v0 = h.tasks().find(|(_, t)| t.name == "v0").unwrap().0;
        // v0 sends to both copies of v1.
        assert_eq!(h.successors(v0).count(), 2);
    }

    #[test]
    fn topological_order_is_complete_and_consistent() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::active(vec![ProcId::new(1)], ProcId::new(0)),
        );
        plan.set_by_flat_index(1, TaskHardening::reexecution(2));
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let topo = h.topological_order();
        assert_eq!(topo.len(), h.num_tasks());
        let pos = |id: HTaskId| topo.iter().position(|&t| t == id).unwrap();
        for c in h.channels() {
            assert!(pos(c.src) < pos(c.dst));
        }
    }

    #[test]
    fn plan_size_mismatch_rejected() {
        let apps = producer_consumer();
        let other = {
            let g = TaskGraph::builder("x", Time::from_ticks(10))
                .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
                .build()
                .unwrap();
            AppSet::new(vec![g]).unwrap()
        };
        let plan = HardeningPlan::unhardened(&other);
        assert!(matches!(
            harden(&apps, &plan, &arch(2)),
            Err(HardenError::PlanSizeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_processor_rejected() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::active(vec![ProcId::new(9)], ProcId::new(0)),
        );
        assert!(matches!(
            harden(&apps, &plan, &arch(2)),
            Err(HardenError::UnknownProcessor { .. })
        ));
    }

    #[test]
    fn kind_mismatch_rejected() {
        // Task only runs on kind 0; processor 1 is kind 1.
        let arch = Architecture::builder()
            .processor(Processor::new("a", ProcKind::new(0), 5.0, 20.0, 0.0))
            .processor(Processor::new("b", ProcKind::new(1), 5.0, 20.0, 0.0))
            .build()
            .unwrap();
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::active(vec![ProcId::new(1)], ProcId::new(0)),
        );
        assert!(matches!(
            harden(&apps, &plan, &arch),
            Err(HardenError::ReplicaKindMismatch { .. })
        ));
    }

    #[test]
    fn empty_replica_lists_rejected() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::active(vec![], ProcId::new(0)));
        assert!(matches!(
            harden(&apps, &plan, &arch(2)),
            Err(HardenError::TooFewReplicas { .. })
        ));

        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::passive(vec![ProcId::new(1)], vec![], ProcId::new(0)),
        );
        assert!(matches!(
            harden(&apps, &plan, &arch(2)),
            Err(HardenError::MalformedPassive { .. })
        ));
    }

    #[test]
    fn app_metadata_carried_over() {
        let apps = producer_consumer();
        let plan = HardeningPlan::unhardened(&apps);
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let happ = &h.apps()[0];
        assert_eq!(happ.name, "pc");
        assert_eq!(happ.period, Time::from_ticks(100));
        assert_eq!(happ.members.len(), 2);
        assert_eq!(h.app_of(HTaskId::new(1)).name, "pc");
    }

    #[test]
    fn vote_bytes_default_to_one_for_sinks() {
        // Replicate the sink task v1: its voter fan-in carries 1 byte.
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            1,
            TaskHardening::active(vec![ProcId::new(1)], ProcId::new(0)),
        );
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let voter = h.voter_of(1).unwrap();
        for c in h.in_channels(voter) {
            assert_eq!(c.bytes, 1);
        }
    }

    #[test]
    fn origin_tracks_original_task() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::active(vec![ProcId::new(1)], ProcId::new(0)),
        );
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let origin = TaskRef::new(mcmap_model::AppId::new(0), TaskId::new(0));
        for &c in h.copies_of(0) {
            assert_eq!(h.task(c).origin, origin);
        }
        assert_eq!(h.task(h.voter_of(0).unwrap()).origin, origin);
        assert_eq!(h.num_original_tasks(), 2);
    }
}
