//! Monte-Carlo worst-case hunting (the paper's *WC-Sim* column).
//!
//! Table 2 of the paper compares the proposed analysis against the maximum
//! response time observed over 10 000 random failure profiles. This module
//! provides that driver: repeated simulation under seeded [`RandomFaults`],
//! aggregating per-application maxima.

use crate::{RandomFaults, SimConfig, Simulator, TrajectoryMemo};
use mcmap_hardening::HardenedSystem;
use mcmap_model::{Architecture, Time};
use mcmap_sched::{Mapping, SchedPolicy};

/// Parameters of a Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct MonteCarloConfig {
    /// Number of independent failure profiles to simulate.
    pub runs: usize,
    /// Base RNG seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Fault-probability boost (≥ 1) so that rare fault combinations are
    /// actually visited within the budget. The paper's simulation coverage
    /// caveat (Adhoc occasionally beating WC-Sim) is reproduced with low
    /// boosts.
    pub boost: f64,
    /// Per-run simulation parameters.
    pub sim: SimConfig,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            runs: 1000,
            seed: 0xC0FFEE,
            boost: 1.0,
            sim: SimConfig::default(),
        }
    }
}

/// What [`MonteCarloResult::merge`] reads of one run: the memoized
/// outcome of a fault trajectory.
#[derive(Debug, PartialEq)]
struct Kept {
    app_wcrt: Vec<Time>,
    task_wcrt: Vec<Time>,
    critical_entries: u64,
    unsafe_instances: u64,
}

/// Aggregated maxima over a Monte-Carlo campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloResult {
    /// Per application: the largest response time observed in any run.
    pub app_wcrt: Vec<Time>,
    /// Per hardened task: the largest relative finish observed in any run.
    pub task_wcrt: Vec<Time>,
    /// Total normal→critical transitions across all runs.
    pub critical_entries: u64,
    /// Total unsafe (post-masking corrupted) instances across all runs.
    pub unsafe_instances: u64,
    /// Number of runs performed.
    pub runs: usize,
    /// Per application: every run's observed response time, sorted
    /// ascending — the empirical response-time distribution.
    samples: Vec<Vec<Time>>,
}

impl MonteCarloResult {
    fn merge(&mut self, r: &Kept) {
        for (acc, &v) in self.app_wcrt.iter_mut().zip(&r.app_wcrt) {
            *acc = (*acc).max(v);
        }
        for (acc, &v) in self.task_wcrt.iter_mut().zip(&r.task_wcrt) {
            *acc = (*acc).max(v);
        }
        for (bucket, &v) in self.samples.iter_mut().zip(&r.app_wcrt) {
            bucket.push(v);
        }
        self.critical_entries += r.critical_entries;
        self.unsafe_instances += r.unsafe_instances;
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of one application's observed
    /// response times (nearest-rank). Returns [`Time::ZERO`] when no run
    /// was recorded.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range.
    pub fn percentile(&self, app: mcmap_model::AppId, q: f64) -> Time {
        let bucket = &self.samples[app.index()];
        if bucket.is_empty() {
            return Time::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((bucket.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(bucket.len() - 1);
        bucket[rank]
    }

    /// The median observed response time of one application.
    pub fn median(&self, app: mcmap_model::AppId) -> Time {
        self.percentile(app, 0.5)
    }
}

/// Runs `cfg.runs` seeded simulations and returns the per-application and
/// per-task maxima. Runs that repeat an earlier run's fault trajectory are
/// answered from a [`TrajectoryMemo`] instead of being simulated again.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::{harden, HardeningPlan};
/// use mcmap_model::{AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task,
///     TaskGraph, Time};
/// use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
/// use mcmap_sim::{monte_carlo, MonteCarloConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let arch = Architecture::builder()
/// #     .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
/// #     .build()?;
/// # let g = TaskGraph::builder("g", Time::from_ticks(100))
/// #     .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
/// #     .build()?;
/// # let apps = AppSet::new(vec![g])?;
/// # let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch)?;
/// # let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)])?;
/// let cfg = MonteCarloConfig { runs: 16, ..MonteCarloConfig::default() };
/// let policies = uniform_policies(1, SchedPolicy::FixedPriorityPreemptive);
/// let result = monte_carlo(&hsys, &arch, &mapping, &policies, &cfg);
/// assert_eq!(result.runs, 16);
/// assert_eq!(result.app_wcrt[0], Time::from_ticks(10));
/// # Ok(())
/// # }
/// ```
pub fn monte_carlo(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    policies: &[SchedPolicy],
    cfg: &MonteCarloConfig,
) -> MonteCarloResult {
    let sim = Simulator::new(hsys, arch, mapping, policies.to_vec());
    let mut result = MonteCarloResult {
        app_wcrt: vec![Time::ZERO; hsys.apps().len()],
        task_wcrt: vec![Time::ZERO; hsys.num_tasks()],
        critical_entries: 0,
        unsafe_instances: 0,
        runs: cfg.runs,
        samples: vec![Vec::with_capacity(cfg.runs); hsys.apps().len()],
    };
    let faults = RandomFaults::new(hsys, arch, mapping, cfg.seed).with_boost(cfg.boost);
    let memo = TrajectoryMemo::new();
    for i in 0..cfg.runs {
        let answer = memo.run(
            &sim,
            &cfg.sim,
            &mut faults.profile(cfg.seed.wrapping_add(i as u64)),
            |r| Kept {
                unsafe_instances: r.unsafe_instances.iter().sum(),
                critical_entries: r.critical_entries,
                app_wcrt: r.app_wcrt,
                task_wcrt: r.task_wcrt,
            },
        );
        result.merge(memo.leaves().get(&answer));
    }
    for bucket in &mut result.samples {
        bucket.sort_unstable();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{AppSet, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph};
    use mcmap_sched::uniform_policies;

    fn fixture(rate: f64, reexec: u8) -> (Architecture, HardenedSystem, Mapping) {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, rate))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(1_000))
            .task(
                Task::new("t")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
                    .with_detect_overhead(Time::from_ticks(10)),
            )
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        if reexec > 0 {
            plan.set_by_flat_index(0, TaskHardening::Reexec(reexec));
        }
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        (arch, hsys, mapping)
    }

    #[test]
    fn fault_free_campaign_matches_single_run() {
        let (arch, hsys, mapping) = fixture(0.0, 1);
        let cfg = MonteCarloConfig {
            runs: 8,
            ..Default::default()
        };
        let r = monte_carlo(
            &hsys,
            &arch,
            &mapping,
            &uniform_policies(1, SchedPolicy::FixedPriorityPreemptive),
            &cfg,
        );
        // No faults: every run sees the nominal 110-tick execution.
        assert_eq!(r.app_wcrt[0], Time::from_ticks(110));
        assert_eq!(r.critical_entries, 0);
        assert_eq!(r.unsafe_instances, 0);
        // Degenerate distribution: every quantile equals the maximum.
        let a = mcmap_model::AppId::new(0);
        assert_eq!(r.percentile(a, 0.0), Time::from_ticks(110));
        assert_eq!(r.median(a), Time::from_ticks(110));
        assert_eq!(r.percentile(a, 1.0), Time::from_ticks(110));
    }

    #[test]
    fn boosted_faults_reveal_reexecution_worst_case() {
        let (arch, hsys, mapping) = fixture(1e-4, 1);
        let cfg = MonteCarloConfig {
            runs: 64,
            boost: 10_000.0,
            ..Default::default()
        };
        let r = monte_carlo(
            &hsys,
            &arch,
            &mapping,
            &uniform_policies(1, SchedPolicy::FixedPriorityPreemptive),
            &cfg,
        );
        // With near-certain faults, the task re-executes: 2 × 110.
        assert_eq!(r.app_wcrt[0], Time::from_ticks(220));
        assert!(r.critical_entries > 0);
        // Quantiles are monotone and bounded by the maximum.
        let a = mcmap_model::AppId::new(0);
        assert!(r.percentile(a, 0.1) <= r.median(a));
        assert!(r.median(a) <= r.percentile(a, 0.99));
        assert!(r.percentile(a, 1.0) == r.app_wcrt[0]);
    }

    #[test]
    fn maxima_grow_monotonically_with_runs() {
        let (arch, hsys, mapping) = fixture(1e-4, 2);
        let policies = uniform_policies(1, SchedPolicy::FixedPriorityPreemptive);
        let small = monte_carlo(
            &hsys,
            &arch,
            &mapping,
            &policies,
            &MonteCarloConfig {
                runs: 4,
                boost: 300.0,
                ..Default::default()
            },
        );
        let large = monte_carlo(
            &hsys,
            &arch,
            &mapping,
            &policies,
            &MonteCarloConfig {
                runs: 64,
                boost: 300.0,
                ..Default::default()
            },
        );
        assert!(large.app_wcrt[0] >= small.app_wcrt[0]);
    }
}
