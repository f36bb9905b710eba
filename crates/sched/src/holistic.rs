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
//!
//! The fixed point only skips work that cannot change its result, so its
//! windows, `converged` and `outer_iters` are those of the plain iteration:
//!
//! * **Dirty sets** — a Gauss–Seidel sweep in topological order recomputes
//!   only the tasks whose inputs grew since their last computation: a
//!   finish that grows marks the task's successors, a latest release that
//!   grows marks the same-processor tasks it outranks. A task marked behind
//!   the sweep's position waits for the next sweep, as it would read the
//!   new value only then in a sweep over all tasks.
//! * **Warm-started busy windows** — within one run the interferers'
//!   jitters only grow, so a task's busy window restarts from its previous
//!   least fixed point, which lies below the new one. Two exact fallbacks
//!   recompute the window from its base: when the carried bound on the
//!   cold iteration count (old count plus warm steps) reaches the
//!   iteration cap, and when a warm iterate passes the divergence bound.

use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{Architecture, ExecBounds, Time};
use std::ops::Range;

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
/// Construction precomputes the interference structure (per-processor
/// priority runs, one flat interferer list, channel latencies);
/// [`SchedBackend::analyze`] can then be called many times with different
/// execution-bound vectors, which is exactly the access pattern of the
/// mixed-criticality analysis.
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
    /// Per channel of the system, by channel index: its source task and
    /// its transfer delay (zero between tasks on one processor). The source
    /// repeats the system's channel so that an in-edge reads one entry:
    /// reading it through the channel list made Algorithm 1's backend runs
    /// about 3 % slower on DT-med designs (2-vCPU host).
    arrival: Vec<(HTaskId, Time)>,
    /// Every processor's tasks in descending priority order
    /// ([`Mapping::outranks`]: priority, then id), one processor after the
    /// other. A task's interferers are the tasks before it in its
    /// processor's run, its non-preemptive blockers the tasks after it,
    /// both minus its precedence-related tasks.
    by_rank: Vec<HTaskId>,
    /// Per task: its position in `by_rank`.
    rank: Vec<usize>,
    /// Per processor: the start of its run in `by_rank`, plus the end.
    proc_start: Vec<usize>,
    /// The interferers of every task, each a filtered prefix of its run,
    /// task after task: those of `v` are `hp[hp_start[v]..hp_start[v + 1]]`.
    hp: Vec<HTaskId>,
    hp_start: Vec<usize>,
    /// Precedence reachability, which excludes related tasks from the
    /// blockers.
    related: AppReachability,
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

        let arrival = hsys
            .channels()
            .map(|c| {
                let delay = if mapping.proc_of(c.src) == mapping.proc_of(c.dst) {
                    Time::ZERO
                } else {
                    fabric.transfer_time(c.bytes)
                };
                (c.src, delay)
            })
            .collect();

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
        // bit matrix over the system's app ranges.
        let related = AppReachability::new(hsys);
        let mut by_rank: Vec<HTaskId> = hsys.task_ids().collect();
        by_rank.sort_unstable_by_key(|&v| (mapping.proc_of(v), mapping.priority_of(v), v.index()));
        let proc_start: Vec<usize> = (0..=policies.len())
            .map(|p| by_rank.partition_point(|&v| mapping.proc_of(v).index() < p))
            .collect();
        let mut rank = vec![0; n];
        for (r, v) in by_rank.iter().enumerate() {
            rank[v.index()] = r;
        }
        // One flat list of interferers, each task's a filtered prefix of its
        // processor's run.
        let mut hp_start = Vec::with_capacity(n + 1);
        hp_start.push(0);
        let mut hp = Vec::new();
        for v in hsys.task_ids() {
            let start = proc_start[mapping.proc_of(v).index()];
            let linked = related.linked_to(hsys, v);
            hp.extend(
                by_rank[start..rank[v.index()]]
                    .iter()
                    .filter(|&&j| !linked(j)),
            );
            hp_start.push(hp.len());
        }

        let period = hsys.tasks().map(|(id, _)| hsys.app_of(id).period).collect();

        let limit = hyperperiod(hsys).saturating_mul(DIVERGENCE_HYPERPERIODS);

        HolisticAnalysis {
            hsys,
            mapping,
            policies,
            arrival,
            by_rank,
            rank,
            proc_start,
            hp,
            hp_start,
            related,
            period,
            limit,
        }
    }

    /// The latest arrival at `v` of its inputs, given its predecessors'
    /// `finish` times: each plus its channel's delay.
    fn latest_arrival(&self, v: HTaskId, finish: &[Time]) -> Time {
        self.hsys
            .in_channel_ids(v)
            .iter()
            .map(|&c| {
                let (src, delay) = self.arrival[c];
                finish[src.index()].saturating_add(delay)
            })
            .max()
            .unwrap_or(Time::ZERO)
    }

    fn policy_of(&self, v: HTaskId) -> SchedPolicy {
        self.policies[self.mapping.proc_of(v).index()]
    }

    /// The same-processor tasks `v` outranks, in priority order.
    fn outranked(&self, v: HTaskId) -> &[HTaskId] {
        let end = self.proc_start[self.mapping.proc_of(v).index() + 1];
        &self.by_rank[self.rank[v.index()] + 1..end]
    }

    /// The tasks that can preempt or delay `v`: the same-processor tasks
    /// that outrank it and are not precedence-related to it.
    fn interferers(&self, v: HTaskId) -> &[HTaskId] {
        &self.hp[self.hp_start[v.index()]..self.hp_start[v.index() + 1]]
    }

    /// The tasks that can block `v` on a non-preemptive processor: the
    /// same-processor tasks it outranks that are not precedence-related to
    /// it.
    fn blockers(&self, v: HTaskId) -> impl Iterator<Item = HTaskId> + '_ {
        let linked = self.related.linked_to(self.hsys, v);
        self.outranked(v)
            .iter()
            .copied()
            .filter(move |&j| !linked(j))
    }

    /// Exact best-case pass: the earliest release of every task, assuming
    /// no interference and best-case execution everywhere.
    fn earliest_releases(&self, bounds: &[ExecBounds]) -> Vec<Time> {
        let n = self.hsys.num_tasks();
        let mut er = vec![Time::ZERO; n];
        let mut min_finish = vec![Time::ZERO; n];
        for &v in self.hsys.topological_order() {
            let release = self.latest_arrival(v, &min_finish);
            er[v.index()] = release;
            min_finish[v.index()] = release.saturating_add(bounds[v.index()].bcet);
        }
        er
    }

    /// Busy-period response time of `v` (from its latest release), given the
    /// current latest-release estimates of the interferers. `warm` is `v`'s
    /// busy-window state from its previous computation in this run.
    fn local_response(
        &self,
        v: HTaskId,
        bounds: &[ExecBounds],
        er: &[Time],
        lr: &[Time],
        warm: &mut Warm,
    ) -> Time {
        let c = bounds[v.index()].wcet;
        if c.is_zero() {
            return Time::ZERO;
        }
        let jitter = |j: HTaskId| lr[j.index()].saturating_sub(er[j.index()]);
        let hp = self.interferers(v);
        match self.policy_of(v) {
            SchedPolicy::FixedPriorityPreemptive => {
                let step = |w: Time| {
                    let mut total = c;
                    for &j in hp {
                        let cj = bounds[j.index()].wcet;
                        if cj.is_zero() {
                            continue;
                        }
                        let releases = w.saturating_add(jitter(j)).div_ceil(self.period[j.index()]);
                        total = total.saturating_add(cj.saturating_mul(releases));
                    }
                    total
                };
                self.busy_window(c, warm, step).unwrap_or(Time::MAX)
            }
            SchedPolicy::FixedPriorityNonPreemptive => {
                let blocking = self
                    .blockers(v)
                    .map(|j| bounds[j.index()].wcet)
                    .max()
                    .unwrap_or(Time::ZERO);
                let step = |s: Time| {
                    let mut total = blocking;
                    for &j in hp {
                        let cj = bounds[j.index()].wcet;
                        if cj.is_zero() {
                            continue;
                        }
                        // Start-time equation: jobs released in [0, s] delay
                        // the start, hence ⌊(s + J)/T⌋ + 1 releases.
                        let releases = (s.saturating_add(jitter(j)).ticks()
                            / self.period[j.index()].ticks())
                            + 1;
                        total = total.saturating_add(cj.saturating_mul(releases));
                    }
                    total
                };
                self.busy_window(blocking, warm, step)
                    .map_or(Time::MAX, |s| s.saturating_add(c))
            }
        }
    }

    /// The value the cold iteration of the monotone busy-window operator
    /// `step` from `base` returns: its least fixed point, or its first
    /// iterate above `limit`, or `None` when `MAX_RT_ITERS` iterations reach
    /// neither.
    ///
    /// The iteration starts from `warm` when that is known to give the same
    /// value. Within one run the interferers' jitters only grow, so `step`
    /// only grows, and the previous least fixed point lies at or below the
    /// new one: iterating from it climbs to the same point. The cold
    /// iterates under the larger jitters dominate the old ones pointwise,
    /// so the cold count to the new point is at most the old count plus the
    /// warm steps. When that bound reaches the cap, or a warm iterate passes
    /// `limit` (the cold iteration would return its own first iterate above
    /// `limit`), the window is recomputed cold.
    fn busy_window(
        &self,
        base: Time,
        warm: &mut Warm,
        step: impl Fn(Time) -> Time,
    ) -> Option<Time> {
        let budget = MAX_RT_ITERS.saturating_sub(warm.steps);
        if let Iterate::Fixed(point, steps) = self.iterate(warm.point, budget, &step) {
            *warm = Warm {
                point,
                steps: warm.steps + steps,
            };
            return Some(point);
        }
        match self.iterate(base, MAX_RT_ITERS, &step) {
            Iterate::Fixed(point, steps) => {
                *warm = Warm { point, steps };
                Some(point)
            }
            Iterate::Above(total) => {
                *warm = Warm::COLD;
                Some(total)
            }
            Iterate::Exhausted => {
                *warm = Warm::COLD;
                None
            }
        }
    }

    /// At most `budget` iterations of `step` from `from`.
    fn iterate(&self, from: Time, budget: usize, step: &impl Fn(Time) -> Time) -> Iterate {
        let mut w = from;
        for steps in 0..budget {
            let total = step(w);
            if total > self.limit {
                return Iterate::Above(total);
            }
            if total == w {
                return Iterate::Fixed(w, steps);
            }
            w = total;
        }
        Iterate::Exhausted
    }

    /// One full analysis run: the worst-case fixed point, the classic
    /// Gauss–Seidel iteration from `lr = er, max_finish = 0` in topological
    /// order. Recomputing a task whose inputs did not grow would change
    /// nothing, so a sweep over the dirty tasks ends in the state a sweep
    /// over all tasks reaches.
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
        // A task's inputs are its predecessors' finishes and its
        // interferers' releases. A task marked at an earlier position than
        // the one being processed is picked up by the next sweep, which is
        // when a sweep over all tasks would read the new value too.
        let mut dirty = vec![true; n];
        let mut warm = vec![Warm::COLD; n];
        let mut over_limit = false;

        let mut converged = false;
        let mut outer_iters = 0usize;
        for _ in 0..MAX_OUTER_ITERS {
            outer_iters += 1;
            let mut changed = false;
            for &v in self.hsys.topological_order() {
                let i = v.index();
                if !std::mem::take(&mut dirty[i]) {
                    continue;
                }
                let release = self.latest_arrival(v, &max_finish).max(lr[i]);
                let response = self.local_response(v, bounds, &er, &lr, &mut warm[i]);
                let finish = release.saturating_add(response);
                if release > lr[i] {
                    changed = true;
                    lr[i] = release;
                    // Superset of the tasks `v` interferes with.
                    for w in self.outranked(v) {
                        dirty[w.index()] = true;
                    }
                }
                if finish > max_finish[i] {
                    changed = true;
                    max_finish[i] = finish;
                    over_limit |= finish > self.limit;
                    for s in self.hsys.successors(v) {
                        dirty[s.index()] = true;
                    }
                }
            }
            if over_limit {
                // Diverged: saturate and bail out.
                for f in &mut max_finish {
                    if *f > self.limit {
                        *f = Time::MAX;
                    }
                }
                break;
            }
            if !changed {
                converged = true;
                break;
            }
        }

        TaskWindows {
            min_start: er,
            max_finish,
            converged,
            outer_iters,
        }
    }
}

/// A task's busy-window state within one run: its last least fixed point,
/// and an upper bound on the iterations the cold iteration takes to reach
/// it. [`Warm::COLD`] has no budget left, so the next window is cold.
#[derive(Clone, Copy)]
struct Warm {
    point: Time,
    steps: usize,
}

impl Warm {
    const COLD: Warm = Warm {
        point: Time::ZERO,
        steps: MAX_RT_ITERS,
    };
}

/// How an iteration of a busy-window operator ended.
enum Iterate {
    /// At a fixed point, after this many increasing steps.
    Fixed(Time, usize),
    /// At the first iterate above the divergence bound.
    Above(Time),
    /// Out of budget.
    Exhausted,
}

/// Precedence reachability, one bit matrix per application: channels never
/// cross applications, so tasks of different applications are unrelated.
#[derive(Debug)]
struct AppReachability {
    /// Per application: its hardened task ids
    /// ([`HardenedSystem::app_task_range`]), row width in 64-bit words, and
    /// the offset of its matrix in `bits`.
    apps: Vec<(Range<usize>, usize, usize)>,
    bits: Vec<u64>,
}

impl AppReachability {
    fn new(hsys: &HardenedSystem) -> Self {
        let mut apps = Vec::with_capacity(hsys.apps().len());
        let mut bits = Vec::new();
        for happ in hsys.apps() {
            let ids = hsys.app_task_range(happ.app);
            let (words, offset) = (ids.len().div_ceil(64), bits.len());
            bits.resize(offset + ids.len() * words, 0);
            apps.push((ids, words, offset));
        }
        let mut reach = AppReachability { apps, bits };
        // Reverse topological order: a task reaches its successors and
        // everything they reach.
        for &v in hsys.topological_order().iter().rev() {
            let (ids, words, offset) = &reach.apps[hsys.task(v).origin.app.index()];
            let (start, words, offset) = (ids.start, *words, *offset);
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

    /// The test whether `b` is linked to `a`: whether there is a directed
    /// path `a → … → b` or `b → … → a`.
    fn linked_to(&self, hsys: &HardenedSystem, a: HTaskId) -> impl Fn(HTaskId) -> bool + '_ {
        let (ids, words, offset) = &self.apps[hsys.task(a).origin.app.index()];
        let la = a.index() - ids.start;
        let bit =
            move |from: usize, to: usize| self.bits[offset + from * words + to / 64] >> (to % 64);
        move |b: HTaskId| {
            ids.contains(&b.index()) && {
                let lb = b.index() - ids.start;
                (bit(la, lb) | bit(lb, la)) & 1 == 1
            }
        }
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
            TaskHardening::Active {
                replicas: vec![ProcId::new(1), ProcId::new(2)],
                voter: ProcId::new(0),
            },
        );
        let hsys = harden(&apps, &plan, &arch).unwrap();
        // primary a → p0, replicas fixed p1/p2, voter fixed p0, b → p1.
        let placement: Vec<ProcId> = hsys
            .tasks()
            .map(|(_, t)| t.fixed_proc.unwrap_or(ProcId::new(0)))
            .collect();
        let mut placement = placement;
        let b_id = hsys.copies_of(1).next().unwrap();
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

    /// A victim (period 10⁶, alone in its app) shares preemptive PE 0 with a
    /// hog of utilization 0.9999 (wcet 9 999, period 10⁴). Each busy-window
    /// iteration of the victim adds about one hog job, so its cold iteration
    /// count is its wcet plus the hog's release jitter, and up to the
    /// `MAX_RT_ITERS` cap its window stays below the divergence bound
    /// (64 × 10⁶).
    ///
    /// The hog's producer `x` (PE 1) is preempted by `y`, whose producer `z`
    /// (PE 2) runs 1 to `z_wcet` ticks. Topological order is victim, x, hog,
    /// z, y, so the victim's windows see a hog jitter of 0, then 50 (`x`'s
    /// spread), then 100 once `y`'s jitter has delayed `x` by one more `y`
    /// job (only when `z_wcet` is 1 000). The last two are warm-started.
    fn hog_system(victim_wcet: u64, z_wcet: u64) -> (HardenedSystem, TaskWindows) {
        let feeder = TaskGraph::builder("feeder", Time::from_ticks(1_000))
            .task(task("z", 1, z_wcet))
            .task(task("y", 50, 50))
            .channel(0, 1, 0)
            .build()
            .unwrap();
        let hog = TaskGraph::builder("hog", Time::from_ticks(10_000))
            .task(task("x", 1, 1))
            .task(task("h", 9_999, 9_999))
            .channel(0, 1, 0)
            .build()
            .unwrap();
        let victim = TaskGraph::builder("victim", Time::from_ticks(1_000_000))
            .task(task("v", victim_wcet, victim_wcet))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![feeder, hog, victim]).unwrap();
        let [p0, p1, p2] = [0, 1, 2].map(ProcId::new);
        analyze_system(
            &apps,
            &arch(3),
            vec![p2, p1, p1, p0, p0],
            SchedPolicy::FixedPriorityPreemptive,
        )
    }

    const VICTIM: usize = 4;

    #[test]
    fn busy_window_cap_saturates_below_the_limit() {
        // 3 950 iterations to 39.5 × 10⁶: below both the cap and the limit.
        let (hsys, w) = hog_system(3_950, 1);
        assert_eq!(hsys.topological_order()[0].index(), VICTIM);
        assert!(w.converged);
        assert_eq!(w.max_finish[VICTIM], Time::from_ticks(39_999_950));
        // About 5 000 iterations, all below the limit: the cap saturates the
        // window, and the run is not converged.
        let (_, w) = hog_system(5_000, 1);
        assert!(!w.converged);
        assert_eq!(w.max_finish[VICTIM], Time::MAX);
        assert_eq!(w.outer_iters, 1);
    }

    #[test]
    fn warm_started_busy_windows_keep_the_cap() {
        // 3 950 + 100 cold iterations: the second warm window is accepted
        // on the carried bound 3 950 + 50 + 50.
        let (_, w) = hog_system(3_950, 1_000);
        assert!(w.converged);
        assert_eq!(w.max_finish[VICTIM], Time::from_ticks(40_499_900));
        // 4 000 + 50 cold iterations at jitter 50, 4 000 + 100 (over the
        // cap) at jitter 100: the carried bound sends the third window back
        // to the cold iteration, which saturates.
        let (_, w) = hog_system(4_000, 1);
        assert!(w.converged);
        assert_eq!(w.max_finish[VICTIM], Time::from_ticks(40_499_950));
        let (_, w) = hog_system(4_000, 1_000);
        assert!(!w.converged);
        assert_eq!(w.max_finish[VICTIM], Time::MAX);
        assert_eq!(w.outer_iters, 3);
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

    /// Ascending id order, the order of [`all_pairs_lists`].
    fn sorted(mut list: Vec<HTaskId>) -> Vec<HTaskId> {
        list.sort_unstable();
        list
    }

    /// The interferers, blockers and outranked tasks the construction's
    /// priority runs yield per task equal the lists of the all-pairs scan.
    #[test]
    fn interference_lists_match_the_all_pairs_scan() {
        let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
        let (mut replicated, mut ties) = (0, 0);
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
                    0 => TaskHardening::Reexec(1 + rng.below(2) as u8),
                    1 => TaskHardening::Active {
                        replicas: (0..1 + rng.below(2)).map(|_| rng.proc(num_procs)).collect(),
                        voter: rng.proc(num_procs),
                    },
                    2 => TaskHardening::Passive {
                        actives: vec![rng.proc(num_procs)],
                        standbys: vec![rng.proc(num_procs)],
                        voter: rng.proc(num_procs),
                    },
                    _ => TaskHardening::None,
                };
                replicated += usize::from(h.voter().is_some());
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
            for v in hsys.task_ids() {
                let interferers = analysis.interferers(v).to_vec();
                let blockers: Vec<HTaskId> = analysis.blockers(v).collect();
                // Both come in priority order, the order `outranks` ranks.
                for list in [&interferers, &blockers, &analysis.outranked(v).to_vec()] {
                    assert!(list.windows(2).all(|p| mapping.outranks(p[0], p[1])));
                }
                assert_eq!(sorted(interferers), hp[v.index()], "interferers of {v}");
                assert_eq!(sorted(blockers), lp[v.index()], "blockers of {v}");
                // The dirty marking's walk: every same-processor task `v`
                // outranks, related or not.
                let outranked: Vec<HTaskId> = hsys
                    .task_ids()
                    .filter(|&w| mapping.proc_of(w) == mapping.proc_of(v) && mapping.outranks(v, w))
                    .collect();
                assert_eq!(sorted(analysis.outranked(v).to_vec()), outranked);
            }
            ties += usize::from(hsys.task_ids().any(|v| {
                hsys.task_ids().any(|w| {
                    w != v
                        && mapping.proc_of(w) == mapping.proc_of(v)
                        && mapping.priority_of(w) == mapping.priority_of(v)
                })
            }));
        }
        assert!(ties > 200, "priority ties must be common: {ties} of 300");
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
