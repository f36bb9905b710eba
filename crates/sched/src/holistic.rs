//! Holistic best/worst-case scheduling analysis for distributed task graphs.
//!
//! This module is the library's stand-in for the analytical WCRT backend of
//! Kim et al. (DAC 2013, [9] in the paper). It computes, for every hardened
//! task, a safe earliest-start (`minStart`) and latest-finish (`maxFinish`)
//! bound under fixed-priority scheduling on each processor:
//!
//! * **Best case** — a single topological pass assuming zero interference:
//!   a task starts as soon as the best-case results of its predecessors have
//!   arrived (best-case execution, uncontended fabric transfers).
//! * **Worst case** — a holistic fixed point in the Tindell/Clark lineage:
//!   a task's worst-case release is the latest arrival over its
//!   predecessors' worst-case finishes plus channel delays; its local
//!   queueing delay comes from a busy-period response-time iteration where
//!   same-processor higher-priority tasks interfere with release jitter
//!   `J_j = latestRelease_j − earliestRelease_j`. Non-preemptive processors
//!   additionally suffer one blocking term from lower-priority tasks.
//!
//! The worst-case pass is monotone in the latest-release estimates (the
//! earliest releases are fixed by the exact best-case pass first), so the
//! iteration converges from below to the least fixed point, or is declared
//! divergent once any finish time exceeds a generous bound (64 hyperperiods).

use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{Architecture, ExecBounds, Time};

use crate::{hyperperiod, Mapping, SchedBackend, SchedPolicy, TaskWindows};

/// Maximum sweeps of the global worst-case fixed point.
const MAX_OUTER_ITERS: usize = 256;
/// Maximum iterations of a single response-time fixed point.
const MAX_RT_ITERS: usize = 4096;
/// Divergence bound, in hyperperiods.
const DIVERGENCE_HYPERPERIODS: u64 = 64;

/// Holistic fixed-priority analysis of one hardened system under one
/// mapping.
///
/// Construction precomputes the interference structure (per-processor task
/// lists, channel latencies); [`SchedBackend::analyze`] can then be called
/// many times with different execution-bound vectors, which is exactly the
/// access pattern of the mixed-criticality analysis.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::{harden, HardeningPlan};
/// use mcmap_model::{AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task,
///     TaskGraph, Time};
/// use mcmap_sched::{nominal_bounds, uniform_policies, HolisticAnalysis, Mapping,
///     SchedBackend, SchedPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::builder()
///     .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
///     .build()?;
/// let g = TaskGraph::builder("g", Time::from_ticks(100))
///     .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
///     .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(20))))
///     .channel(0, 1, 0)
///     .build()?;
/// let apps = AppSet::new(vec![g])?;
/// let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch)?;
/// let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0); 2])?;
/// let policies = uniform_policies(1, SchedPolicy::FixedPriorityPreemptive);
/// let analysis = HolisticAnalysis::new(&hsys, &arch, &mapping, policies);
/// let windows = analysis.analyze(&nominal_bounds(&hsys, &arch, &mapping));
/// // Pipeline a → b on one processor: b finishes at 30 (its producer is
/// // precedence-related and cannot interfere with b's busy window).
/// assert_eq!(windows.max_finish[1], Time::from_ticks(30));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HolisticAnalysis<'a> {
    hsys: &'a HardenedSystem,
    mapping: &'a Mapping,
    policies: Vec<SchedPolicy>,
    /// Incoming edges per task: `(source task, worst/best channel delay)`.
    in_edges: Vec<Vec<(HTaskId, Time)>>,
    /// Same-processor tasks that can preempt/delay each task (higher
    /// priority first). Derived once from the mapping.
    hp_interferers: Vec<Vec<HTaskId>>,
    /// Same-processor lower-or-equal-priority tasks (for non-preemptive
    /// blocking).
    lp_blockers: Vec<Vec<HTaskId>>,
    /// Period of each task (the owning application's period).
    period: Vec<Time>,
    /// Divergence bound.
    limit: Time,
}

impl<'a> HolisticAnalysis<'a> {
    /// Builds the analysis context.
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not cover every processor of the
    /// architecture.
    pub fn new(
        hsys: &'a HardenedSystem,
        arch: &'a Architecture,
        mapping: &'a Mapping,
        policies: Vec<SchedPolicy>,
    ) -> Self {
        assert_eq!(
            policies.len(),
            arch.num_processors(),
            "one policy per processor required"
        );
        let n = hsys.num_tasks();
        let fabric = arch.fabric();

        let mut in_edges: Vec<Vec<(HTaskId, Time)>> = vec![Vec::new(); n];
        for c in hsys.channels() {
            let delay = if mapping.proc_of(c.src) == mapping.proc_of(c.dst) {
                Time::ZERO
            } else {
                fabric.transfer_time(c.bytes)
            };
            in_edges[c.dst.index()].push((c.src, delay));
        }

        // Precedence refinement: a same-application ancestor of `v` always
        // completes before `v` releases (same instance), and its next
        // instance releases no earlier than the period — after `v`'s
        // deadline in the constrained-deadline model the library enforces.
        // Symmetrically a descendant cannot start before `v` finishes.
        // Neither can therefore occupy the processor during `v`'s busy
        // window, so precedence-related same-app tasks are excluded from
        // interference and blocking. (The resulting bound is safe whenever
        // the computed response stays within the deadline; beyond the
        // deadline the configuration is rejected anyway.)
        //
        // Channels stay inside one application and each application's
        // hardened tasks carry contiguous ids, so reachability is a per-app
        // bitset, and only same-processor pairs are visited — in ascending
        // id order, the order the interference lists are consumed in.
        let related = AppReachability::new(hsys);
        let mut on_proc: Vec<Vec<HTaskId>> = vec![Vec::new(); policies.len()];
        for v in hsys.task_ids() {
            on_proc[mapping.proc_of(v).index()].push(v);
        }
        // Each list is collected in a reused buffer and stored at its exact
        // length.
        let mut hp_interferers: Vec<Vec<HTaskId>> = Vec::with_capacity(n);
        let mut lp_blockers: Vec<Vec<HTaskId>> = Vec::with_capacity(n);
        let (mut hp, mut lp) = (Vec::new(), Vec::new());
        for v in hsys.task_ids() {
            hp.clear();
            lp.clear();
            for &w in &on_proc[mapping.proc_of(v).index()] {
                if w == v || related.reaches(v, w) || related.reaches(w, v) {
                    continue;
                }
                if mapping.outranks(w, v) {
                    hp.push(w);
                } else {
                    lp.push(w);
                }
            }
            hp_interferers.push(hp.clone());
            lp_blockers.push(lp.clone());
        }

        let period = hsys.tasks().map(|(id, _)| hsys.app_of(id).period).collect();

        let limit = hyperperiod(hsys).saturating_mul(DIVERGENCE_HYPERPERIODS);

        HolisticAnalysis {
            hsys,
            mapping,
            policies,
            in_edges,
            hp_interferers,
            lp_blockers,
            period,
            limit,
        }
    }

    fn policy_of(&self, v: HTaskId) -> SchedPolicy {
        self.policies[self.mapping.proc_of(v).index()]
    }

    /// Exact best-case pass: the earliest release of every task, assuming
    /// no interference and best-case execution everywhere.
    fn earliest_releases(&self, bounds: &[ExecBounds]) -> Vec<Time> {
        let n = self.hsys.num_tasks();
        let mut er = vec![Time::ZERO; n];
        let mut min_finish = vec![Time::ZERO; n];
        for &v in self.hsys.topological_order() {
            let release = self.in_edges[v.index()]
                .iter()
                .map(|&(src, delay)| min_finish[src.index()].saturating_add(delay))
                .max()
                .unwrap_or(Time::ZERO);
            er[v.index()] = release;
            min_finish[v.index()] = release.saturating_add(bounds[v.index()].bcet);
        }
        er
    }

    /// Busy-period response time of `v` (from its latest release), given the
    /// current latest-release estimates of the interferers.
    fn local_response(&self, v: HTaskId, bounds: &[ExecBounds], er: &[Time], lr: &[Time]) -> Time {
        let c = bounds[v.index()].wcet;
        if c.is_zero() {
            return Time::ZERO;
        }
        match self.policy_of(v) {
            SchedPolicy::FixedPriorityPreemptive => {
                let mut w = c;
                for _ in 0..MAX_RT_ITERS {
                    let mut total = c;
                    for &j in &self.hp_interferers[v.index()] {
                        let cj = bounds[j.index()].wcet;
                        if cj.is_zero() {
                            continue;
                        }
                        let jitter = lr[j.index()].saturating_sub(er[j.index()]);
                        let releases = w.saturating_add(jitter).div_ceil(self.period[j.index()]);
                        total = total.saturating_add(cj.saturating_mul(releases));
                    }
                    if total == w || total > self.limit {
                        return total;
                    }
                    w = total;
                }
                Time::MAX
            }
            SchedPolicy::FixedPriorityNonPreemptive => {
                let blocking = self.lp_blockers[v.index()]
                    .iter()
                    .map(|&j| bounds[j.index()].wcet)
                    .max()
                    .unwrap_or(Time::ZERO);
                let mut s = blocking;
                for _ in 0..MAX_RT_ITERS {
                    let mut total = blocking;
                    for &j in &self.hp_interferers[v.index()] {
                        let cj = bounds[j.index()].wcet;
                        if cj.is_zero() {
                            continue;
                        }
                        let jitter = lr[j.index()].saturating_sub(er[j.index()]);
                        // Start-time equation: jobs released in [0, s] delay
                        // the start, hence ⌊(s + J)/T⌋ + 1 releases.
                        let releases =
                            (s.saturating_add(jitter).ticks() / self.period[j.index()].ticks()) + 1;
                        total = total.saturating_add(cj.saturating_mul(releases));
                    }
                    if total == s || total > self.limit {
                        return total.saturating_add(c);
                    }
                    s = total;
                }
                Time::MAX
            }
        }
    }

    /// One full analysis run: the worst-case fixed point, the classic
    /// iteration from `lr = er, max_finish = 0`.
    fn run(&self, bounds: &[ExecBounds]) -> TaskWindows {
        assert_eq!(
            bounds.len(),
            self.hsys.num_tasks(),
            "one execution-bound entry per hardened task required"
        );
        let n = self.hsys.num_tasks();
        let er = self.earliest_releases(bounds);

        let mut max_finish: Vec<Time> = vec![Time::ZERO; n];
        let mut lr = er.clone();

        let mut converged = false;
        let mut diverged = false;
        let mut outer_iters = 0usize;
        for _ in 0..MAX_OUTER_ITERS {
            outer_iters += 1;
            let mut changed = false;
            for &v in self.hsys.topological_order() {
                let release = self.in_edges[v.index()]
                    .iter()
                    .map(|&(src, delay)| max_finish[src.index()].saturating_add(delay))
                    .max()
                    .unwrap_or(Time::ZERO);
                let release = release.max(lr[v.index()]);
                let response = self.local_response(v, bounds, &er, &lr);
                let finish = release.saturating_add(response);
                if release > lr[v.index()] || finish > max_finish[v.index()] {
                    changed = true;
                }
                lr[v.index()] = release.max(lr[v.index()]);
                max_finish[v.index()] = finish.max(max_finish[v.index()]);
            }
            if max_finish.iter().any(|&f| f > self.limit) {
                diverged = true;
                break;
            }
            if !changed {
                converged = true;
                break;
            }
        }
        if diverged {
            // Diverged: saturate and bail out.
            for f in &mut max_finish {
                if *f > self.limit {
                    *f = Time::MAX;
                }
            }
            converged = false;
        }

        TaskWindows {
            min_start: er,
            max_finish,
            converged,
            outer_iters,
        }
    }
}

/// Precedence reachability, one bit matrix per application: channels never
/// cross applications, so tasks of different applications are unrelated.
#[derive(Debug)]
struct AppReachability {
    /// Application index per hardened task.
    app_of: Vec<usize>,
    /// Per application: first hardened task id, row width in 64-bit words,
    /// and the offset of its matrix in `bits`.
    apps: Vec<(usize, usize, usize)>,
    bits: Vec<u64>,
}

impl AppReachability {
    fn new(hsys: &HardenedSystem) -> Self {
        let mut apps = Vec::with_capacity(hsys.apps().len());
        let mut bits = Vec::new();
        for happ in hsys.apps() {
            let start = happ.members.first().map_or(0, |id| id.index());
            debug_assert!(
                happ.members
                    .iter()
                    .enumerate()
                    .all(|(i, id)| id.index() == start + i),
                "an application's hardened tasks have contiguous ids"
            );
            let words = happ.members.len().div_ceil(64);
            apps.push((start, words, bits.len()));
            bits.resize(bits.len() + happ.members.len() * words, 0);
        }
        let app_of = hsys.tasks().map(|(_, t)| t.app.index()).collect();
        let mut reach = AppReachability { app_of, apps, bits };
        // Reverse topological order: a task reaches its successors and
        // everything they reach.
        for &v in hsys.topological_order().iter().rev() {
            let (start, words, offset) = reach.apps[reach.app_of[v.index()]];
            let row_v = offset + (v.index() - start) * words;
            for s in hsys.successors(v) {
                let local = s.index() - start;
                reach.bits[row_v + local / 64] |= 1 << (local % 64);
                let row_s = offset + local * words;
                for k in 0..words {
                    reach.bits[row_v + k] |= reach.bits[row_s + k];
                }
            }
        }
        reach
    }

    /// `true` when there is a directed path `a → … → b`.
    fn reaches(&self, a: HTaskId, b: HTaskId) -> bool {
        let app = self.app_of[a.index()];
        if self.app_of[b.index()] != app {
            return false;
        }
        let (start, words, offset) = self.apps[app];
        let (la, lb) = (a.index() - start, b.index() - start);
        self.bits[offset + la * words + lb / 64] >> (lb % 64) & 1 == 1
    }
}

impl SchedBackend for HolisticAnalysis<'_> {
    fn analyze(&self, bounds: &[ExecBounds]) -> TaskWindows {
        self.run(bounds)
    }

    fn num_tasks(&self) -> usize {
        self.hsys.num_tasks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nominal_bounds, uniform_policies};
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, Fabric, ProcId, ProcKind, Processor, Task, TaskGraph,
    };

    fn arch(n: usize) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .fabric(Fabric::new(8))
            .build()
            .unwrap()
    }

    fn analyze_system(
        apps: &AppSet,
        arch: &Architecture,
        placement: Vec<ProcId>,
        policy: SchedPolicy,
    ) -> (HardenedSystem, TaskWindows) {
        let hsys = harden(apps, &HardeningPlan::unhardened(apps), arch).unwrap();
        let mapping = Mapping::new(&hsys, arch, placement).unwrap();
        let analysis = HolisticAnalysis::new(
            &hsys,
            arch,
            &mapping,
            uniform_policies(arch.num_processors(), policy),
        );
        let w = analysis.analyze(&nominal_bounds(&hsys, arch, &mapping));
        (hsys, w)
    }

    fn task(name: &str, bcet: u64, wcet: u64) -> Task {
        Task::new(name).with_uniform_exec(
            1,
            ExecBounds::new(Time::from_ticks(bcet), Time::from_ticks(wcet)),
        )
    }

    #[test]
    fn single_task_window_is_its_execution() {
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(task("a", 3, 7))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(1);
        let (_, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0)],
            SchedPolicy::FixedPriorityPreemptive,
        );
        assert!(w.converged);
        assert_eq!(w.min_start[0], Time::ZERO);
        assert_eq!(w.max_finish[0], Time::from_ticks(7));
    }

    #[test]
    fn pipeline_on_one_processor_serializes() {
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(task("a", 2, 10))
            .task(task("b", 3, 20))
            .channel(0, 1, 0)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(1);
        let (_, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0); 2],
            SchedPolicy::FixedPriorityPreemptive,
        );
        assert_eq!(w.min_start[1], Time::from_ticks(2));
        // The precedence refinement knows the producer cannot interfere
        // with its consumer's busy window: 10 + 20.
        assert_eq!(w.max_finish[1], Time::from_ticks(30));
    }

    #[test]
    fn cross_processor_channel_adds_fabric_delay() {
        let g = TaskGraph::builder("g", Time::from_ticks(1000))
            .task(task("a", 10, 10))
            .task(task("b", 5, 5))
            .channel(0, 1, 64) // 64 bytes / 8 B-per-tick = 8 ticks
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(2);
        let (_, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0), ProcId::new(1)],
            SchedPolicy::FixedPriorityPreemptive,
        );
        assert_eq!(w.min_start[1], Time::from_ticks(18));
        assert_eq!(w.max_finish[1], Time::from_ticks(23));

        // Same-processor mapping pays no fabric delay; the producer is
        // precedence-related and does not interfere: 10 + 5 = 15.
        let (_, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0), ProcId::new(0)],
            SchedPolicy::FixedPriorityPreemptive,
        );
        assert_eq!(w.max_finish[1], Time::from_ticks(15));
    }

    #[test]
    fn preemptive_interference_counts_higher_priority_jobs() {
        // Two independent apps on one PE: fast (period 10, wcet 2) outranks
        // slow (period 100, wcet 10) under rate-monotonic priorities.
        let fast = TaskGraph::builder("fast", Time::from_ticks(10))
            .task(task("f", 2, 2))
            .build()
            .unwrap();
        let slow = TaskGraph::builder("slow", Time::from_ticks(100))
            .task(task("s", 10, 10))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![fast, slow]).unwrap();
        let arch = arch(1);
        let (_, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0); 2],
            SchedPolicy::FixedPriorityPreemptive,
        );
        // Classic RTA: R_s = 10 + ⌈R_s/10⌉·2 → R = 14 (10+2 preemptions... )
        // iteration: w0=10 → 10+2*1? ⌈10/10⌉=1 → 12 → ⌈12/10⌉=2 → 14 → ⌈14/10⌉=2 → 14.
        assert_eq!(w.max_finish[1], Time::from_ticks(14));
        // The fast task is undisturbed.
        assert_eq!(w.max_finish[0], Time::from_ticks(2));
    }

    #[test]
    fn non_preemptive_blocking_from_lower_priority() {
        let fast = TaskGraph::builder("fast", Time::from_ticks(50))
            .task(task("f", 2, 2))
            .build()
            .unwrap();
        let slow = TaskGraph::builder("slow", Time::from_ticks(100))
            .task(task("s", 30, 30))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![fast, slow]).unwrap();
        let arch = arch(1);
        let (_, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0); 2],
            SchedPolicy::FixedPriorityNonPreemptive,
        );
        // fast can be blocked by the running slow job: start ≤ 30, finish ≤ 32.
        assert_eq!(w.max_finish[0], Time::from_ticks(32));
    }

    #[test]
    fn zero_wcet_tasks_neither_execute_nor_interfere() {
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(task("a", 5, 5))
            .task(task("b", 5, 5))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(1);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0); 2]).unwrap();
        let analysis = HolisticAnalysis::new(
            &hsys,
            &arch,
            &mapping,
            uniform_policies(1, SchedPolicy::FixedPriorityPreemptive),
        );
        // Pin task a to [0,0] (as Algorithm 1 does for dropped tasks).
        let bounds = vec![
            ExecBounds::ZERO,
            ExecBounds::new(Time::from_ticks(5), Time::from_ticks(5)),
        ];
        let w = analysis.analyze(&bounds);
        assert_eq!(w.max_finish[0], Time::ZERO);
        assert_eq!(w.max_finish[1], Time::from_ticks(5));
    }

    #[test]
    fn overload_misses_deadlines() {
        // Two 0.8-utilization tasks on one PE: the response-time equation of
        // the lower-priority task converges (its interference rate is 0.8 <
        // 1) but far beyond the deadline.
        let a = TaskGraph::builder("a", Time::from_ticks(10))
            .task(task("x", 8, 8))
            .build()
            .unwrap();
        let b = TaskGraph::builder("b", Time::from_ticks(10))
            .task(task("y", 8, 8))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![a, b]).unwrap();
        let arch = arch(1);
        let (hsys, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0); 2],
            SchedPolicy::FixedPriorityPreemptive,
        );
        assert!(w.converged);
        // Fixed point of R = 8 + ⌈R/10⌉·8 is 40.
        assert_eq!(w.max_finish[1], Time::from_ticks(40));
        assert!(!w.all_deadlines_met(&hsys));
    }

    #[test]
    fn saturated_processor_diverges() {
        // Three 0.8-utilization tasks: the lowest-priority task faces an
        // interference rate of 1.6 ≥ 1 and the fixed point diverges.
        let mk = |name: &str| {
            TaskGraph::builder(name, Time::from_ticks(10))
                .task(task(name, 8, 8))
                .build()
                .unwrap()
        };
        let apps = AppSet::new(vec![mk("a"), mk("b"), mk("c")]).unwrap();
        let arch = arch(1);
        let (hsys, w) = analyze_system(
            &apps,
            &arch,
            vec![ProcId::new(0); 3],
            SchedPolicy::FixedPriorityPreemptive,
        );
        assert!(!w.converged);
        assert_eq!(w.max_finish[2], Time::MAX);
        assert!(!w.all_deadlines_met(&hsys));
    }

    #[test]
    fn replicated_task_waits_for_voter() {
        let g = TaskGraph::builder("g", Time::from_ticks(1000))
            .task(
                Task::new("a")
                    .with_uniform_exec(
                        1,
                        ExecBounds::new(Time::from_ticks(10), Time::from_ticks(10)),
                    )
                    .with_voting_overhead(Time::from_ticks(3)),
            )
            .task(task("b", 5, 5))
            .channel(0, 1, 0)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(3);
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::active(vec![ProcId::new(1), ProcId::new(2)], ProcId::new(0)),
        );
        let hsys = harden(&apps, &plan, &arch).unwrap();
        // primary a → p0, replicas fixed p1/p2, voter fixed p0, b → p1.
        let placement: Vec<ProcId> = hsys
            .tasks()
            .map(|(_, t)| t.fixed_proc.unwrap_or(ProcId::new(0)))
            .collect();
        let mut placement = placement;
        let b_id = hsys.tasks().find(|(_, t)| t.name == "b").unwrap().0;
        placement[b_id.index()] = ProcId::new(1);
        let mapping = Mapping::new(&hsys, &arch, placement).unwrap();
        let analysis = HolisticAnalysis::new(
            &hsys,
            &arch,
            &mapping,
            uniform_policies(3, SchedPolicy::FixedPriorityPreemptive),
        );
        let w = analysis.analyze(&nominal_bounds(&hsys, &arch, &mapping));
        assert!(w.converged);
        let voter = hsys.voter_of(0).unwrap();
        // Voter can only finish after the copies (10) plus fan-in transfer
        // (1 byte → 1 tick from remote replicas) plus voting (3).
        assert!(w.max_finish[voter.index()] >= Time::from_ticks(13));
        // b starts after the voter's result arrives.
        assert!(w.min_start[b_id.index()] >= w.min_start[voter.index()]);
        assert!(w.max_finish[b_id.index()] >= w.max_finish[voter.index()]);
    }

    #[test]
    fn wider_bounds_never_shrink_windows() {
        // Monotonicity: inflating one task's wcet cannot reduce any finish.
        let g = TaskGraph::builder("g", Time::from_ticks(200))
            .task(task("a", 5, 10))
            .task(task("b", 5, 10))
            .task(task("c", 5, 10))
            .channel(0, 2, 8)
            .channel(1, 2, 8)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(2);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(
            &hsys,
            &arch,
            vec![ProcId::new(0), ProcId::new(0), ProcId::new(1)],
        )
        .unwrap();
        let analysis = HolisticAnalysis::new(
            &hsys,
            &arch,
            &mapping,
            uniform_policies(2, SchedPolicy::FixedPriorityPreemptive),
        );
        let base = nominal_bounds(&hsys, &arch, &mapping);
        let w1 = analysis.analyze(&base);
        let mut inflated = base.clone();
        inflated[0].wcet = inflated[0].wcet * 3;
        let w2 = analysis.analyze(&inflated);
        for i in 0..hsys.num_tasks() {
            assert!(w2.max_finish[i] >= w1.max_finish[i]);
            assert!(w2.min_start[i] == w1.min_start[i]); // bcet untouched
        }
    }

    /// Three cross-coupled apps on two PEs with real interference, nominal
    /// vs. ×3-inflated bounds.
    fn coupled_fixture() -> (
        HardenedSystem,
        Architecture,
        crate::Mapping,
        Vec<ExecBounds>,
        Vec<ExecBounds>,
    ) {
        let mk = |name: &str, period: u64, b: u64, w: u64| {
            TaskGraph::builder(name, Time::from_ticks(period))
                .task(task(&format!("{name}0"), b, w))
                .task(task(&format!("{name}1"), b, w))
                .channel(0, 1, 16)
                .build()
                .unwrap()
        };
        let apps = AppSet::new(vec![
            mk("a", 400, 10, 30),
            mk("b", 600, 20, 40),
            mk("c", 1200, 15, 50),
        ])
        .unwrap();
        let arch = arch(2);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let placement = vec![
            ProcId::new(0),
            ProcId::new(1),
            ProcId::new(0),
            ProcId::new(1),
            ProcId::new(1),
            ProcId::new(0),
        ];
        let mapping = Mapping::new(&hsys, &arch, placement).unwrap();
        let narrow = nominal_bounds(&hsys, &arch, &mapping);
        let wide: Vec<ExecBounds> = narrow
            .iter()
            .map(|b| ExecBounds::new(b.bcet, b.wcet * 3))
            .collect();
        (hsys, arch, mapping, narrow, wide)
    }

    #[test]
    fn repeated_analyses_of_one_context_are_identical() {
        let (hsys, arch, mapping, narrow, wide) = coupled_fixture();
        let analysis = HolisticAnalysis::new(
            &hsys,
            &arch,
            &mapping,
            uniform_policies(2, SchedPolicy::FixedPriorityPreemptive),
        );
        let first_narrow = analysis.analyze(&narrow);
        let first_wide = analysis.analyze(&wide);
        for _ in 0..5 {
            // Alternate bound vectors: no run may depend on an earlier one.
            assert_eq!(analysis.analyze(&wide), first_wide);
            assert_eq!(analysis.analyze(&narrow), first_narrow);
        }
    }

    /// The construction the per-app bitsets replaced: an n×n reachability
    /// matrix and a scan over every task pair, in ascending id order.
    fn all_pairs_lists(
        hsys: &HardenedSystem,
        mapping: &Mapping,
    ) -> (Vec<Vec<HTaskId>>, Vec<Vec<HTaskId>>) {
        let n = hsys.num_tasks();
        let mut related = vec![vec![false; n]; n];
        for &v in hsys.topological_order().iter().rev() {
            for s in hsys.successors(v) {
                related[v.index()][s.index()] = true;
                let row_s = related[s.index()].clone();
                for (r, t) in related[v.index()].iter_mut().zip(row_s) {
                    *r |= t;
                }
            }
        }
        let mut hp = vec![Vec::new(); n];
        let mut lp = vec![Vec::new(); n];
        for v in hsys.task_ids() {
            for w in hsys.task_ids() {
                if w == v || mapping.proc_of(w) != mapping.proc_of(v) {
                    continue;
                }
                if related[v.index()][w.index()] || related[w.index()][v.index()] {
                    continue;
                }
                if mapping.outranks(w, v) {
                    hp[v.index()].push(w);
                } else {
                    lp[v.index()].push(w);
                }
            }
        }
        (hp, lp)
    }

    /// A xorshift generator for the random systems below.
    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, m: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % m
        }

        fn proc(&mut self, num_procs: usize) -> ProcId {
            ProcId::new(self.below(num_procs as u64) as usize)
        }
    }

    #[test]
    fn interference_lists_match_the_all_pairs_scan() {
        let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
        let mut replicated = 0;
        for _ in 0..300 {
            let num_procs = 1 + rng.below(4) as usize;
            let arch = arch(num_procs);
            let graphs: Vec<TaskGraph> = (0..1 + rng.below(4))
                .map(|a| {
                    let n = 1 + rng.below(8) as usize;
                    let period = [100, 200, 400][rng.below(3) as usize];
                    let mut b = TaskGraph::builder(format!("a{a}"), Time::from_ticks(period));
                    for t in 0..n {
                        let bcet = 1 + rng.below(5);
                        b = b.task(
                            task(&format!("t{t}"), bcet, bcet + rng.below(5))
                                .with_voting_overhead(Time::from_ticks(1)),
                        );
                    }
                    for dst in 1..n {
                        for src in 0..dst {
                            if rng.below(3) == 0 {
                                b = b.channel(src, dst, rng.below(32));
                            }
                        }
                    }
                    b.build().unwrap()
                })
                .collect();
            let apps = AppSet::new(graphs).unwrap();
            let mut plan = HardeningPlan::unhardened(&apps);
            for flat in 0..apps.num_tasks() {
                let h = match rng.below(4) {
                    0 => TaskHardening::reexecution(1 + rng.below(2) as u8),
                    1 => TaskHardening::active(
                        (0..1 + rng.below(2)).map(|_| rng.proc(num_procs)).collect(),
                        rng.proc(num_procs),
                    ),
                    2 => TaskHardening::passive(
                        vec![rng.proc(num_procs)],
                        vec![rng.proc(num_procs)],
                        rng.proc(num_procs),
                    ),
                    _ => TaskHardening::none(),
                };
                replicated += usize::from(h.replication.is_replicated());
                plan.set_by_flat_index(flat, h);
            }
            let hsys = harden(&apps, &plan, &arch).unwrap();
            let placement = hsys
                .tasks()
                .map(|(_, t)| t.fixed_proc.unwrap_or_else(|| rng.proc(num_procs)))
                .collect();
            // Few priority levels, so ties (broken by id) are common.
            let priorities = (0..hsys.num_tasks()).map(|_| rng.below(4) as u32).collect();
            let mapping = Mapping::new(&hsys, &arch, placement)
                .unwrap()
                .with_priorities(priorities);
            let analysis = HolisticAnalysis::new(
                &hsys,
                &arch,
                &mapping,
                uniform_policies(num_procs, SchedPolicy::FixedPriorityPreemptive),
            );
            let (hp, lp) = all_pairs_lists(&hsys, &mapping);
            assert_eq!(analysis.hp_interferers, hp);
            assert_eq!(analysis.lp_blockers, lp);
        }
        assert!(
            replicated > 100,
            "the systems must exercise replicas and voters"
        );
    }

    #[test]
    #[should_panic(expected = "one policy per processor")]
    fn wrong_policy_count_panics() {
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(task("a", 1, 1))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(2);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        let _ = HolisticAnalysis::new(
            &hsys,
            &arch,
            &mapping,
            uniform_policies(1, SchedPolicy::default()),
        );
    }
}
