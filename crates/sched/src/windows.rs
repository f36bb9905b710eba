//! Per-task scheduling windows — the output of the `sched` backend.

use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{lcm_time, AppId, Architecture, ExecBounds, Time};

use crate::Mapping;

/// Best-case start and worst-case finish times for every hardened task,
/// relative to the simultaneous release of all applications at time 0.
///
/// This is exactly the `[minStart_v, maxFinish_v]` pair Algorithm 1 of the
/// paper extracts from its `sched` backend (line 8).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskWindows {
    /// Earliest possible start of each task's execution.
    pub min_start: Vec<Time>,
    /// Latest possible completion of each task ([`Time::MAX`] when the
    /// analysis diverged).
    pub max_finish: Vec<Time>,
    /// `false` when the fixed-point iteration diverged; all affected
    /// `max_finish` entries saturate at [`Time::MAX`] and the system must be
    /// treated as unschedulable.
    pub converged: bool,
    /// Fixed-point iterations the backend performed to produce these
    /// windows (1 for single-pass backends). Deterministic analysis-effort
    /// metric surfaced through the observability layer.
    pub outer_iters: usize,
}

impl TaskWindows {
    /// The window of one task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn window(&self, id: HTaskId) -> (Time, Time) {
        (self.min_start[id.index()], self.max_finish[id.index()])
    }

    /// Worst-case response time of an application: the latest completion of
    /// any of its member tasks, measured from the application release.
    pub fn app_wcrt(&self, hsys: &HardenedSystem, app: AppId) -> Time {
        self.max_finish[hsys.app_task_range(app)]
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// `true` when every application finishes within its deadline.
    pub fn all_deadlines_met(&self, hsys: &HardenedSystem) -> bool {
        self.converged
            && hsys
                .apps()
                .iter()
                .all(|happ| self.app_wcrt(hsys, happ.app) <= happ.deadline)
    }

    /// Maximum completion time over the whole system.
    pub fn makespan(&self) -> Time {
        self.max_finish.iter().copied().max().unwrap_or(Time::ZERO)
    }
}

/// The pluggable schedulability backend consumed by the mixed-criticality
/// analysis (the paper's `sched` function).
///
/// Implementations derive safe `[minStart, maxFinish]` windows from a vector
/// of per-task execution bounds. Algorithm 1 calls `analyze` repeatedly with
/// *modified* bounds (passive replicas pinned to `[0, 0]`, droppable tasks
/// widened to `[0, wcet]`, critical tasks inflated per Eq. (1)), so the
/// bounds are a parameter rather than read from the system model.
pub trait SchedBackend {
    /// Computes scheduling windows under the given per-task execution
    /// bounds (indexed by [`HTaskId::index`]).
    fn analyze(&self, bounds: &[ExecBounds]) -> TaskWindows;

    /// Runs [`analyze`](Self::analyze) and ignores `seed`.
    ///
    /// Nothing in the library calls this method; it remains only because
    /// the benchmark harness overrides it. It goes at the next benchmark
    /// change together with `mcmap_ga::Problem::evaluate_batch_with_parents`.
    fn analyze_from(&self, bounds: &[ExecBounds], seed: &TaskWindows) -> TaskWindows {
        let _ = seed;
        self.analyze(bounds)
    }

    /// Number of tasks this backend analyzes (the required bounds length).
    fn num_tasks(&self) -> usize;
}

/// Resolves the nominal execution bounds of every hardened task on its
/// mapped processor. This is the bounds vector for the *normal* system state
/// before Algorithm 1 applies its per-state modifications.
///
/// # Panics
///
/// Panics if a task is mapped to a processor whose kind it cannot run on —
/// [`Mapping::new`](crate::Mapping::new) prevents such mappings.
pub fn nominal_bounds(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
) -> Vec<ExecBounds> {
    hsys.tasks()
        .map(|(id, t)| {
            let kind = arch.processor(mapping.proc_of(id)).kind;
            t.nominal_bounds(kind)
                .unwrap_or_else(|| panic!("task {id} cannot run on its mapped processor"))
        })
        .collect()
}

/// The hyperperiod of a hardened system: the least common multiple of all
/// application periods. The mixed-criticality protocol returns the system to
/// the normal state at each hyperperiod boundary (§3).
pub fn hyperperiod(hsys: &HardenedSystem) -> Time {
    hsys.apps()
        .iter()
        .map(|a| a.period)
        .fold(Time::from_ticks(1), lcm_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan};
    use mcmap_model::{AppSet, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph};

    fn fixture() -> (Architecture, HardenedSystem, Mapping) {
        let arch = Architecture::builder()
            .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap();
        let a =
            TaskGraph::builder("a", Time::from_ticks(40))
                .task(Task::new("a0").with_uniform_exec(
                    1,
                    ExecBounds::new(Time::from_ticks(2), Time::from_ticks(4)),
                ))
                .build()
                .unwrap();
        let b =
            TaskGraph::builder("b", Time::from_ticks(60))
                .task(Task::new("b0").with_uniform_exec(
                    1,
                    ExecBounds::new(Time::from_ticks(3), Time::from_ticks(6)),
                ))
                .build()
                .unwrap();
        let apps = AppSet::new(vec![a, b]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0), ProcId::new(1)]).unwrap();
        (arch, hsys, mapping)
    }

    #[test]
    fn nominal_bounds_follow_mapping_kind() {
        let (arch, hsys, mapping) = fixture();
        let bounds = nominal_bounds(&hsys, &arch, &mapping);
        assert_eq!(bounds.len(), 2);
        assert_eq!(
            bounds[0],
            ExecBounds::new(Time::from_ticks(2), Time::from_ticks(4))
        );
    }

    #[test]
    fn hyperperiod_is_lcm_of_periods() {
        let (_, hsys, _) = fixture();
        assert_eq!(hyperperiod(&hsys), Time::from_ticks(120));
    }

    #[test]
    fn windows_queries() {
        let (_, hsys, _) = fixture();
        let w = TaskWindows {
            min_start: vec![Time::ZERO, Time::from_ticks(1)],
            max_finish: vec![Time::from_ticks(10), Time::from_ticks(30)],
            converged: true,
            outer_iters: 1,
        };
        assert_eq!(
            w.window(HTaskId::new(1)),
            (Time::from_ticks(1), Time::from_ticks(30))
        );
        assert_eq!(w.app_wcrt(&hsys, AppId::new(0)), Time::from_ticks(10));
        assert_eq!(w.app_wcrt(&hsys, AppId::new(1)), Time::from_ticks(30));
        assert_eq!(w.makespan(), Time::from_ticks(30));
        assert!(w.all_deadlines_met(&hsys));
    }

    #[test]
    fn deadline_miss_detected() {
        let (_, hsys, _) = fixture();
        let w = TaskWindows {
            min_start: vec![Time::ZERO; 2],
            max_finish: vec![Time::from_ticks(50), Time::from_ticks(10)],
            converged: true,
            outer_iters: 1,
        };
        // App 0 deadline is 40 < 50.
        assert!(!w.all_deadlines_met(&hsys));
    }

    #[test]
    fn diverged_windows_never_meet_deadlines() {
        let (_, hsys, _) = fixture();
        let w = TaskWindows {
            min_start: vec![Time::ZERO; 2],
            max_finish: vec![Time::from_ticks(1), Time::from_ticks(1)],
            converged: false,
            outer_iters: 1,
        };
        assert!(!w.all_deadlines_met(&hsys));
    }
}
