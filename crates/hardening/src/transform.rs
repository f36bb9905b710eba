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

use crate::{HApp, HChannel, HTask, HTaskId, HardeningPlan, Role, TaskHardening};
use core::fmt;
use mcmap_model::{AppId, AppSet, Architecture, ExecBounds, ProcId, ProcKind, Task, TaskRef, Time};
use std::ops::Range;
use std::sync::Arc;

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
/// Each original task's hardened tasks form one block of consecutive ids —
/// the primary, the active replicas, the standbys, then the voter — and the
/// blocks follow the [`AppSet`] flat order, so each application's tasks
/// form one block too.
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
    /// The first id of each original task's block, by flat index, plus the
    /// end of the last block.
    blocks: Vec<usize>,
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

    /// Indices of the channels feeding `id`, in [`channels`](Self::channels)
    /// order.
    pub fn in_channel_ids(&self, id: HTaskId) -> &[usize] {
        &self.preds[id.index()]
    }

    /// Channels feeding `id`.
    pub fn in_channels(&self, id: HTaskId) -> impl Iterator<Item = &HChannel> {
        self.in_channel_ids(id).iter().map(|&c| &self.channels[c])
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
        &self.apps[self.tasks[id.index()].origin.app.index()]
    }

    /// The ids of `app`'s hardened tasks, as [`HTaskId::index`] values:
    /// one contiguous range.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range.
    pub fn app_task_range(&self, app: AppId) -> Range<usize> {
        let flats = &self.app_flats[app.index()];
        self.blocks[flats.start]..self.blocks[flats.end]
    }

    /// All hardened copies (primary, active, passive — not the voter) of an
    /// original task, given its flat index in the original set, in that
    /// order.
    pub fn copies_of(&self, flat_index: usize) -> impl ExactSizeIterator<Item = HTaskId> + Clone {
        let end = self.blocks[flat_index + 1] - usize::from(self.voter_of(flat_index).is_some());
        (self.blocks[flat_index]..end).map(HTaskId::new)
    }

    /// The voter of an original task (by flat index), if replicated: the
    /// last task of its block.
    pub fn voter_of(&self, flat_index: usize) -> Option<HTaskId> {
        let last = self.blocks[flat_index + 1] - 1;
        self.tasks[last]
            .role
            .is_voter()
            .then_some(HTaskId::new(last))
    }

    /// Total number of original tasks this system was derived from.
    pub fn num_original_tasks(&self) -> usize {
        self.blocks.len() - 1
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
/// plan.set_by_flat_index(0, TaskHardening::Active {
///     replicas: vec![mcmap_model::ProcId::new(1), mcmap_model::ProcId::new(2)],
///     voter: mcmap_model::ProcId::new(0),
/// });
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

    let mut tasks: Vec<HTask> = Vec::new();
    let mut blocks = Vec::with_capacity(apps.num_tasks() + 1);
    // Consecutive voters with one voting overhead share one table.
    let mut voter_exec: Arc<[Option<ExecBounds>]> = Arc::new([]);

    // Pass 1: create tasks, block after block in flat order.
    for (app_id, app) in apps.apps() {
        for (task_id, orig) in app.tasks() {
            let r = TaskRef::new(app_id, task_id);
            let h = plan.by_flat_index(apps.flat_index(r));
            validate_entry(r, orig, h, arch)?;
            blocks.push(tasks.len());

            let k = h.reexecutions();
            let exec = nominal_exec_table(orig, k);
            let (actives, standbys) = h.replica_procs();
            let copies = std::iter::once((Role::Primary, None))
                .chain(
                    (0..)
                        .zip(actives)
                        .map(|(i, &p)| (Role::ActiveReplica(i), Some(p))),
                )
                .chain(
                    (0..)
                        .zip(standbys)
                        .map(|(i, &p)| (Role::PassiveReplica(i), Some(p))),
                );
            for (role, fixed_proc) in copies {
                tasks.push(HTask {
                    origin: r,
                    role,
                    reexec: k,
                    fixed_proc,
                    exec: exec.clone(),
                });
            }
            if let Some(vp) = h.voter() {
                let ve = Some(ExecBounds::exact(orig.voting_overhead));
                if voter_exec.first() != Some(&ve) {
                    voter_exec = vec![ve; arch.num_kinds().max(1)].into();
                }
                tasks.push(HTask {
                    origin: r,
                    role: Role::Voter,
                    reexec: 0,
                    fixed_proc: Some(vp),
                    exec: voter_exec.clone(),
                });
            }
        }
    }
    blocks.push(tasks.len());

    let mut sys = HardenedSystem {
        apps: apps
            .apps()
            .map(|(app_id, app)| HApp {
                app: app_id,
                period: app.period(),
                deadline: app.deadline(),
                criticality: app.criticality(),
            })
            .collect(),
        tasks,
        channels: Vec::new(),
        preds: Vec::new(),
        succs: Vec::new(),
        topo: Vec::new(),
        blocks,
        app_flats: apps.app_ids().map(|a| apps.flats_of_app(a)).collect(),
    };

    // Pass 2: wire channels.
    let mut channels = Vec::new();
    for (app_id, app) in apps.apps() {
        let flat = |task| apps.flat_index(TaskRef::new(app_id, task));
        // Voter fan-in per replicated task.
        for (task_id, _) in app.tasks() {
            if let Some(voter) = sys.voter_of(flat(task_id)) {
                let vote_bytes = app
                    .out_channels(task_id)
                    .iter()
                    .map(|&c| app.channel(c).bytes)
                    .max()
                    .unwrap_or(0)
                    .max(1);
                channels.extend(sys.copies_of(flat(task_id)).map(|copy| HChannel {
                    src: copy,
                    dst: voter,
                    bytes: vote_bytes,
                }));
            }
        }
        // Original data channels: producer endpoint is the voter (if
        // replicated) or the single copy; consumer endpoints are all copies.
        for (_, ch) in app.channels() {
            let src_flat = flat(ch.src);
            let producer = sys
                .voter_of(src_flat)
                .unwrap_or(HTaskId::new(sys.blocks[src_flat]));
            channels.extend(sys.copies_of(flat(ch.dst)).map(|consumer| HChannel {
                src: producer,
                dst: consumer,
                bytes: ch.bytes,
            }));
        }
    }

    // Derived adjacency.
    let n = sys.tasks.len();
    sys.preds = vec![Vec::new(); n];
    sys.succs = vec![Vec::new(); n];
    for (i, c) in channels.iter().enumerate() {
        sys.succs[c.src.index()].push(i);
        sys.preds[c.dst.index()].push(i);
    }
    sys.channels = channels;
    sys.topo = sys.topological_sort();
    debug_assert_eq!(sys.topo.len(), n, "hardening must preserve acyclicity");
    Ok(sys)
}

/// Nominal execution table of a copy, per processor kind.
fn nominal_exec_table(orig: &Task, k: u8) -> Arc<[Option<ExecBounds>]> {
    let kinds = orig
        .supported_kinds()
        .last()
        .map_or(0, |kind| kind.index() + 1);
    (0..kinds)
        .map(|i| copy_nominal_bounds(orig, ProcKind::new(i as u16), k))
        .collect()
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
/// The first violated condition, as the [`HardenError`] `harden` reports:
/// the first item of [`entry_errors`].
pub fn validate_entry(
    r: TaskRef,
    orig: &Task,
    h: &TaskHardening,
    arch: &Architecture,
) -> Result<(), HardenError> {
    entry_errors(r, orig, h, arch).next().map_or(Ok(()), Err)
}

/// Every condition of [`validate_entry`] that one plan entry violates, in
/// order: its shape (too few replicas, or a passive entry without an extra
/// active copy and a standby), then each copy in [`bodies`] order, then the
/// voter. Lazy, so taking the first item costs what `validate_entry` does.
///
/// [`bodies`]: TaskHardening::bodies
pub fn entry_errors<'a>(
    r: TaskRef,
    orig: &'a Task,
    h: &'a TaskHardening,
    arch: &'a Architecture,
) -> impl Iterator<Item = HardenError> + 'a {
    let procs = arch.num_processors();
    let shape = match h {
        TaskHardening::Active { replicas, .. } if replicas.is_empty() => {
            Some(HardenError::TooFewReplicas { task: r })
        }
        // Need at least two always-on copies (primary + 1) for the voter
        // to observe a mismatch, and at least one standby to break ties.
        TaskHardening::Passive {
            actives, standbys, ..
        } if actives.is_empty() || standbys.is_empty() => {
            Some(HardenError::MalformedPassive { task: r })
        }
        _ => None,
    };
    let copies = h.bodies().filter_map(move |proc| {
        if proc.index() >= procs {
            Some(HardenError::UnknownProcessor { task: r, proc })
        } else if !orig.runs_on(arch.processor(proc).kind) {
            Some(HardenError::ReplicaKindMismatch { task: r, proc })
        } else {
            None
        }
    });
    let voter = h
        .voter()
        .filter(|v| v.index() >= procs)
        .map(|proc| HardenError::UnknownProcessor { task: r, proc });
    shape.into_iter().chain(copies).chain(voter)
}

impl HardenedSystem {
    /// Kahn's algorithm over the channel adjacency.
    fn topological_sort(&self) -> Vec<HTaskId> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(HTaskId::new(u));
            for &c in &self.succs[u] {
                let v = self.channels[c].dst.index();
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn reexec_zero_hardens_like_none() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(0));
        assert_eq!(
            harden(&apps, &plan, &arch(2)),
            harden(&apps, &HardeningPlan::unhardened(&apps), &arch(2))
        );
    }

    #[test]
    fn reexecution_folds_detection_overhead() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(1, TaskHardening::Reexec(1));
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let v1 = h.copies_of(1).next().unwrap();
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
            TaskHardening::Active {
                replicas: vec![ProcId::new(1), ProcId::new(2)],
                voter: ProcId::new(0),
            },
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
        let v1 = h.copies_of(1).next().unwrap();
        assert_eq!(h.predecessors(v1).collect::<Vec<_>>(), vec![voter]);
        // Replicas have fixed placements, the primary does not.
        let roles: Vec<_> = h.copies_of(0).map(|c| h.task(c).fixed_proc).collect();
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
            TaskHardening::Passive {
                actives: vec![ProcId::new(1)],
                standbys: vec![ProcId::new(2)],
                voter: ProcId::new(0),
            },
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
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(0),
            },
        );
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        // v0 + 2 copies of v1 + voter = 4 tasks.
        assert_eq!(h.num_tasks(), 4);
        let v0 = h.copies_of(0).next().unwrap();
        // v0 sends to both copies of v1.
        assert_eq!(h.successors(v0).count(), 2);
    }

    #[test]
    fn topological_order_is_complete_and_consistent() {
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(0),
            },
        );
        plan.set_by_flat_index(1, TaskHardening::Reexec(2));
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let topo = h.topological_order();
        assert_eq!(topo.len(), h.num_tasks());
        let pos = |id: HTaskId| topo.iter().position(|&t| t == id).unwrap();
        for c in h.channels() {
            assert!(pos(c.src) < pos(c.dst));
        }
    }

    #[test]
    fn names_and_layout_follow_the_roles() {
        // v0 passively replicated, v1 actively triplicated: every role.
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Passive {
                actives: vec![ProcId::new(1)],
                standbys: vec![ProcId::new(2)],
                voter: ProcId::new(0),
            },
        );
        plan.set_by_flat_index(
            1,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1), ProcId::new(2)],
                voter: ProcId::new(0),
            },
        );
        let h = harden(&apps, &plan, &arch(3)).unwrap();
        let names: Vec<String> = h.tasks().map(|(_, t)| t.name(&apps)).collect();
        assert_eq!(
            names,
            [
                "v0",
                "v0#active0",
                "v0#passive0",
                "v0#voter",
                "v1",
                "v1#active0",
                "v1#active1",
                "v1#voter"
            ]
        );
        assert_eq!(
            h.copies_of(0).map(HTaskId::index).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(h.voter_of(0), Some(HTaskId::new(3)));
        assert_eq!(
            h.copies_of(1).map(HTaskId::index).collect::<Vec<_>>(),
            [4, 5, 6]
        );
        assert_eq!(h.voter_of(1), Some(HTaskId::new(7)));
        assert_eq!(h.app_task_range(AppId::new(0)), 0..8);
        // Copies share one execution table; each voter runs for its
        // task's voting overhead.
        let exec = |i| &h.task(HTaskId::new(i)).exec;
        assert!(Arc::ptr_eq(exec(0), exec(2)) && Arc::ptr_eq(exec(4), exec(6)));
        let voter_wcet = |i| h.task(HTaskId::new(i)).nominal_bounds(ProcKind::new(0));
        assert_eq!(voter_wcet(3), Some(ExecBounds::exact(Time::from_ticks(2))));
        assert_eq!(voter_wcet(7), Some(ExecBounds::exact(Time::ZERO)));
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
            TaskHardening::Active {
                replicas: vec![ProcId::new(9)],
                voter: ProcId::new(0),
            },
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
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(0),
            },
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
        plan.set_by_flat_index(
            0,
            TaskHardening::Active {
                replicas: vec![],
                voter: ProcId::new(0),
            },
        );
        assert!(matches!(
            harden(&apps, &plan, &arch(2)),
            Err(HardenError::TooFewReplicas { .. })
        ));

        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Passive {
                actives: vec![ProcId::new(1)],
                standbys: vec![],
                voter: ProcId::new(0),
            },
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
        assert_eq!(happ.period, Time::from_ticks(100));
        assert_eq!(h.app_task_range(AppId::new(0)), 0..2);
        assert_eq!(h.app_of(HTaskId::new(1)).app, AppId::new(0));
    }

    #[test]
    fn vote_bytes_default_to_one_for_sinks() {
        // Replicate the sink task v1: its voter fan-in carries 1 byte.
        let apps = producer_consumer();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            1,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(0),
            },
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
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(0),
            },
        );
        let h = harden(&apps, &plan, &arch(2)).unwrap();
        let origin = TaskRef::new(mcmap_model::AppId::new(0), TaskId::new(0));
        for c in h.copies_of(0) {
            assert_eq!(h.task(c).origin, origin);
        }
        assert_eq!(h.task(h.voter_of(0).unwrap()).origin, origin);
        assert_eq!(h.num_original_tasks(), 2);
    }
}
