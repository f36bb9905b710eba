//! Task-to-processor mappings and per-processor scheduling policies.

use core::fmt;
use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{Architecture, ProcId, Time};

/// The local scheduling policy of one processing element.
///
/// The paper adopts *static hardening-mapping / dynamic scheduling*: once
/// tasks are bound to a PE they are dispatched at run time by that PE's
/// local scheduler. Both policies use fixed task priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Fixed-priority preemptive scheduling.
    #[default]
    FixedPriorityPreemptive,
    /// Fixed-priority non-preemptive scheduling (the DT benchmarks model a
    /// non-preemptive CORBA middleware).
    FixedPriorityNonPreemptive,
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicy::FixedPriorityPreemptive => write!(f, "fp-preemptive"),
            SchedPolicy::FixedPriorityNonPreemptive => write!(f, "fp-non-preemptive"),
        }
    }
}

/// Creates a uniform policy assignment for `n` processors.
pub fn uniform_policies(n: usize, policy: SchedPolicy) -> Vec<SchedPolicy> {
    vec![policy; n]
}

/// Error produced when constructing a [`Mapping`].
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The placement slice length does not match the number of hardened
    /// tasks.
    LengthMismatch {
        /// Provided entries.
        got: usize,
        /// Expected entries (hardened tasks).
        expected: usize,
    },
    /// A task was placed on a processor that does not exist.
    UnknownProcessor {
        /// The task.
        task: HTaskId,
        /// The out-of-range processor.
        proc: ProcId,
    },
    /// A task was placed on a processor whose kind it cannot execute on.
    KindMismatch {
        /// The task.
        task: HTaskId,
        /// The incompatible processor.
        proc: ProcId,
    },
    /// A task with a plan-fixed placement was placed elsewhere.
    FixedPlacementViolated {
        /// The task.
        task: HTaskId,
        /// The processor required by the hardening plan.
        required: ProcId,
        /// The processor actually assigned.
        got: ProcId,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::LengthMismatch { got, expected } => {
                write!(f, "placement has {got} entries, expected {expected}")
            }
            MapError::UnknownProcessor { task, proc } => {
                write!(f, "task {task} mapped to unknown processor {proc}")
            }
            MapError::KindMismatch { task, proc } => {
                write!(f, "task {task} cannot execute on processor {proc}")
            }
            MapError::FixedPlacementViolated {
                task,
                required,
                got,
            } => {
                write!(
                    f,
                    "task {task} must stay on {required} (hardening plan) but was mapped to {got}"
                )
            }
        }
    }
}

impl std::error::Error for MapError {}

/// A complete binding of hardened tasks to processors, with fixed local
/// priorities.
///
/// Priorities are `u32` values where a *smaller* value means a *higher*
/// priority; ties are broken deterministically by task id.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::{harden, HardeningPlan};
/// use mcmap_model::{AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task,
///     TaskGraph, Time};
/// use mcmap_sched::Mapping;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let arch = Architecture::builder()
/// #     .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
/// #     .build()?;
/// # let g = TaskGraph::builder("g", Time::from_ticks(100))
/// #     .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
/// #     .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
/// #     .channel(0, 1, 8)
/// #     .build()?;
/// # let apps = AppSet::new(vec![g])?;
/// # let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch)?;
/// let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0), ProcId::new(1)])?;
/// assert_eq!(mapping.proc_of(mcmap_hardening::HTaskId::new(1)), ProcId::new(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    proc: Vec<ProcId>,
    priority: Vec<u32>,
}

impl Mapping {
    /// Creates a mapping from a placement slice, validating it against the
    /// hardened system and architecture, and assigning default
    /// rate-monotonic priorities (see [`Mapping::with_priorities`] to
    /// override).
    ///
    /// # Errors
    ///
    /// See [`MapError`] for the rejected conditions.
    pub fn new(
        hsys: &HardenedSystem,
        arch: &Architecture,
        placement: Vec<ProcId>,
    ) -> Result<Self, MapError> {
        if placement.len() != hsys.num_tasks() {
            return Err(MapError::LengthMismatch {
                got: placement.len(),
                expected: hsys.num_tasks(),
            });
        }
        for (id, t) in hsys.tasks() {
            let proc = placement[id.index()];
            if proc.index() >= arch.num_processors() {
                return Err(MapError::UnknownProcessor { task: id, proc });
            }
            if !t.runs_on(arch.processor(proc).kind) {
                return Err(MapError::KindMismatch { task: id, proc });
            }
            if let Some(required) = t.fixed_proc {
                if proc != required {
                    return Err(MapError::FixedPlacementViolated {
                        task: id,
                        required,
                        got: proc,
                    });
                }
            }
        }
        let priority = rate_monotonic_priorities(hsys);
        Ok(Mapping {
            proc: placement,
            priority,
        })
    }

    /// Replaces the priority assignment.
    ///
    /// # Panics
    ///
    /// Panics if `priority.len()` differs from the number of tasks.
    pub fn with_priorities(mut self, priority: Vec<u32>) -> Self {
        assert_eq!(
            priority.len(),
            self.proc.len(),
            "priority vector must cover every task"
        );
        self.priority = priority;
        self
    }

    /// The processor a task is bound to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn proc_of(&self, id: HTaskId) -> ProcId {
        self.proc[id.index()]
    }

    /// The fixed priority of a task (smaller = more urgent).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn priority_of(&self, id: HTaskId) -> u32 {
        self.priority[id.index()]
    }

    /// The full placement slice (indexed by task id).
    pub fn placement(&self) -> &[ProcId] {
        &self.proc
    }

    /// `true` when `a` has strictly higher priority than `b` (ties broken by
    /// id).
    pub fn outranks(&self, a: HTaskId, b: HTaskId) -> bool {
        (self.priority[a.index()], a.index()) < (self.priority[b.index()], b.index())
    }

    /// Ids of the tasks bound to `proc`.
    pub fn tasks_on(&self, proc: ProcId) -> impl Iterator<Item = HTaskId> + '_ {
        self.proc
            .iter()
            .enumerate()
            .filter(move |&(_, &p)| p == proc)
            .map(|(i, _)| HTaskId::new(i))
    }
}

/// Default priority assignment: rate monotonic over the owning application's
/// period, refined by precedence depth (producers outrank their consumers)
/// so pipelines drain front-to-back, with task id as the final tie-break.
pub fn rate_monotonic_priorities(hsys: &HardenedSystem) -> Vec<u32> {
    let n = hsys.num_tasks();
    // Depth = longest path from any source, per task.
    let mut depth = vec![0u32; n];
    for &id in hsys.topological_order() {
        for succ in hsys.successors(id) {
            let d = depth[id.index()] + 1;
            if depth[succ.index()] < d {
                depth[succ.index()] = d;
            }
        }
    }
    let mut order: Vec<HTaskId> = hsys.task_ids().collect();
    order.sort_by_key(|&id| (hsys.app_of(id).period, depth[id.index()], id.index()));
    let mut prio = vec![0u32; n];
    for (rank, id) in order.into_iter().enumerate() {
        prio[id.index()] = rank as u32;
    }
    prio
}

/// Deadline-monotonic priority assignment: shorter relative deadline =
/// higher priority, refined by precedence depth and task id, mirroring
/// [`rate_monotonic_priorities`].
pub fn deadline_monotonic_priorities(hsys: &HardenedSystem) -> Vec<u32> {
    let n = hsys.num_tasks();
    let mut depth = vec![0u32; n];
    for &id in hsys.topological_order() {
        for succ in hsys.successors(id) {
            let d = depth[id.index()] + 1;
            if depth[succ.index()] < d {
                depth[succ.index()] = d;
            }
        }
    }
    let mut order: Vec<HTaskId> = hsys.task_ids().collect();
    order.sort_by_key(|&id| (hsys.app_of(id).deadline, depth[id.index()], id.index()));
    let mut prio = vec![0u32; n];
    for (rank, id) in order.into_iter().enumerate() {
        prio[id.index()] = rank as u32;
    }
    prio
}

/// Per-processor utilization of a mapping under nominal worst-case demand:
/// `u_p = Σ_{v on p} wcet_v / period_v`. The expected-power objective in the
/// core crate refines this with fault-activation probabilities.
pub fn nominal_utilization(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
) -> Vec<f64> {
    let mut u = vec![0.0; arch.num_processors()];
    for (id, t) in hsys.tasks() {
        let proc = mapping.proc_of(id);
        let kind = arch.processor(proc).kind;
        let wcet = t.nominal_bounds(kind).map(|b| b.wcet).unwrap_or(Time::ZERO);
        let period = hsys.app_of(id).period;
        u[proc.index()] += wcet.as_f64() / period.as_f64();
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{AppSet, ExecBounds, ProcKind, Processor, Task, TaskGraph};

    fn arch(n: usize) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap()
    }

    fn two_app_system() -> (AppSet, Architecture, HardenedSystem) {
        let fast = TaskGraph::builder("fast", Time::from_ticks(50))
            .task(Task::new("f0").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .task(Task::new("f1").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .channel(0, 1, 8)
            .build()
            .unwrap();
        let slow = TaskGraph::builder("slow", Time::from_ticks(100))
            .task(Task::new("s0").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![fast, slow]).unwrap();
        let arch = arch(2);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        (apps, arch, hsys)
    }

    #[test]
    fn valid_mapping_constructs() {
        let (_, arch, hsys) = two_app_system();
        let m = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(1), ProcId::new(0)],
        )
        .unwrap();
        assert_eq!(m.proc_of(HTaskId::new(1)), ProcId::new(1));
        assert_eq!(m.tasks_on(ProcId::new(0)).count(), 2);
        assert_eq!(m.placement().len(), 3);
    }

    #[test]
    fn length_mismatch_rejected() {
        let (_, arch, hsys) = two_app_system();
        assert!(matches!(
            Mapping::new(&hsys, &arch, vec![ProcId::new(0)]),
            Err(MapError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn unknown_processor_rejected() {
        let (_, arch, hsys) = two_app_system();
        assert!(matches!(
            Mapping::new(
                &hsys,
                &arch,
                vec![ProcId::new(0), ProcId::new(7), ProcId::new(0)]
            ),
            Err(MapError::UnknownProcessor { .. })
        ));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let het = Architecture::builder()
            .processor(Processor::new("a", ProcKind::new(0), 5.0, 20.0, 0.0))
            .processor(Processor::new("b", ProcKind::new(1), 5.0, 20.0, 0.0))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(10))
            .task(
                Task::new("t").with_exec(ProcKind::new(0), ExecBounds::exact(Time::from_ticks(1))),
            )
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &het).unwrap();
        assert!(matches!(
            Mapping::new(&hsys, &het, vec![ProcId::new(1)]),
            Err(MapError::KindMismatch { .. })
        ));
    }

    #[test]
    fn fixed_placement_enforced() {
        let arch = arch(3);
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(2),
            },
        );
        let hsys = harden(&apps, &plan, &arch).unwrap();
        // Tasks: primary (free), replica (fixed p1), voter (fixed p2).
        let ok = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(1), ProcId::new(2)],
        );
        assert!(ok.is_ok());
        let bad = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(0), ProcId::new(2)],
        );
        assert!(matches!(bad, Err(MapError::FixedPlacementViolated { .. })));
    }

    #[test]
    fn rate_monotonic_orders_by_period_then_depth() {
        let (_, _, hsys) = two_app_system();
        let prio = rate_monotonic_priorities(&hsys);
        // fast app tasks (period 50) outrank slow app (period 100).
        assert!(prio[0] < prio[2]);
        assert!(prio[1] < prio[2]);
        // producer outranks consumer within the pipeline.
        assert!(prio[0] < prio[1]);
    }

    #[test]
    fn outranks_breaks_ties_by_id() {
        let (_, arch, hsys) = two_app_system();
        let m = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(0), ProcId::new(0)],
        )
        .unwrap()
        .with_priorities(vec![1, 1, 0]);
        assert!(m.outranks(HTaskId::new(2), HTaskId::new(0)));
        assert!(m.outranks(HTaskId::new(0), HTaskId::new(1)));
        assert!(!m.outranks(HTaskId::new(1), HTaskId::new(0)));
    }

    #[test]
    #[should_panic(expected = "priority vector must cover every task")]
    fn wrong_priority_length_panics() {
        let (_, arch, hsys) = two_app_system();
        let _ = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(0), ProcId::new(0)],
        )
        .unwrap()
        .with_priorities(vec![0]);
    }

    #[test]
    fn nominal_utilization_sums_demand() {
        let (_, arch, hsys) = two_app_system();
        let m = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(0), ProcId::new(1)],
        )
        .unwrap();
        let u = nominal_utilization(&hsys, &arch, &m);
        assert!((u[0] - (5.0 / 50.0 + 5.0 / 50.0)).abs() < 1e-12);
        assert!((u[1] - 10.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn policy_display() {
        assert_eq!(
            SchedPolicy::FixedPriorityPreemptive.to_string(),
            "fp-preemptive"
        );
        assert_eq!(uniform_policies(3, SchedPolicy::default()).len(), 3);
    }
}

#[cfg(test)]
mod dm_tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan};
    use mcmap_model::{AppSet, ExecBounds, ProcKind, Processor, Task, TaskGraph};

    #[test]
    fn deadline_monotonic_prefers_tight_deadlines() {
        // Same periods, different deadlines: the tighter-deadline app must
        // outrank under DM while RM ties break by structure.
        let tight = TaskGraph::builder("tight", Time::from_ticks(100))
            .deadline(Time::from_ticks(40))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .build()
            .unwrap();
        let loose = TaskGraph::builder("loose", Time::from_ticks(100))
            .deadline(Time::from_ticks(90))
            .task(Task::new("l").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .build()
            .unwrap();
        // Put `loose` first so the id tie-break would favour it.
        let apps = AppSet::new(vec![loose, tight]).unwrap();
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 1.0, 1.0, 0.0))
            .build()
            .unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let dm = deadline_monotonic_priorities(&hsys);
        assert!(dm[1] < dm[0], "tight deadline must outrank: {dm:?}");
        let rm = rate_monotonic_priorities(&hsys);
        assert!(rm[0] < rm[1], "RM ties break by id: {rm:?}");
    }

    #[test]
    fn dm_assignment_is_a_permutation() {
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .task(Task::new("c").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .channel(0, 1, 4)
            .channel(1, 2, 4)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 1.0, 1.0, 0.0))
            .build()
            .unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mut dm = deadline_monotonic_priorities(&hsys);
        dm.sort_unstable();
        assert_eq!(dm, vec![0, 1, 2]);
    }
}
