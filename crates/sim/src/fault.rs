//! Fault models: who decides which execution attempts are hit by a
//! transient fault.

use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{Architecture, ExecBounds, Time};
use mcmap_sched::Mapping;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Decides whether a given execution attempt of a job is hit by a transient
/// fault.
///
/// # Determinism contract
///
/// The simulator queries the model with `(task, instance, attempt)` and
/// every implementation must be a *pure function of that triple* (plus
/// its own construction-time state, e.g. a seed). Concretely:
///
/// 1. **Repeated queries agree** — asking the same triple twice within
///    one run returns the same verdict. The engine does re-ask: a
///    passive standby's final value is resolved by replaying its
///    attempt's verdict, and the validation campaigns re-simulate
///    configurations while bisecting a violation.
/// 2. **Query order is irrelevant** — the verdict must not depend on
///    which triples were asked before it. Two simulations that drop
///    different application sets (and therefore interleave queries very
///    differently) must face the *same* fault profile, otherwise
///    degraded-mode runs would not be comparable to the analysis.
/// 3. **Equal construction, equal profile** — two models built with the
///    same inputs (same seed for the random model) answer identically,
///    which is what makes a campaign profile reproducible from
///    `(campaign seed + profile index)` alone.
///
/// `&mut self` exists so models *may* keep caches or statistics, not so
/// verdicts may drift: anything mutated must be invisible in the answers.
/// The `fault_model_contract` test module checks all three properties for
/// every model shipped by this crate.
///
/// Campaigns rely on points 1–3 for more than reproducibility:
/// [`monte_carlo`](crate::monte_carlo) and the validation campaigns answer
/// a profile from a [`TrajectoryMemo`](crate::TrajectoryMemo) by asking it
/// the queries an earlier run asked, in that run's order, and reusing that
/// run's result when every verdict agrees. A model whose verdicts depend on
/// query order or history would get another profile's result.
pub trait FaultModel {
    /// Returns `true` if attempt `attempt` of instance `instance` of `task`
    /// is faulty.
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool;
}

/// A fault-free run.
///
/// # Examples
///
/// ```
/// use mcmap_sim::{FaultModel, NoFaults};
/// use mcmap_hardening::HTaskId;
/// assert!(!NoFaults.faulty(HTaskId::new(0), 0, 0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn faulty(&mut self, _task: HTaskId, _instance: u64, _attempt: u8) -> bool {
        false
    }
}

/// A scripted fault trace: exactly the listed `(task, instance, attempt)`
/// triples are faulty. Used for directed scenarios such as the paper's
/// Fig. 1 motivational example ("a fault occurs at A").
#[derive(Debug, Clone, Default)]
pub struct ScriptedFaults {
    faults: HashSet<(HTaskId, u64, u8)>,
}

impl ScriptedFaults {
    /// Creates an empty script (equivalent to [`NoFaults`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one faulty attempt.
    pub fn with_fault(mut self, task: HTaskId, instance: u64, attempt: u8) -> Self {
        self.faults.insert((task, instance, attempt));
        self
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when no fault is scripted.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl FaultModel for ScriptedFaults {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        self.faults.contains(&(task, instance, attempt))
    }
}

/// Seeded random faults: each execution attempt of task `v` on its mapped
/// processor is faulty independently with probability
/// `1 − exp(−λ_p · wcet_v)`.
///
/// Determinism: the verdict is a pure hash of
/// `(seed, task, instance, attempt)`, so repeated queries agree, two models
/// with the same seed produce identical profiles, and — crucially — the
/// profile does not depend on the *order* in which the simulator asks
/// (runs that drop different job sets still face the same faults).
///
/// The per-task probabilities depend only on the operating point, so a
/// campaign builds the model once per point and takes one
/// [`RandomFaults::reseeded`] copy per profile; the copy shares the
/// probabilities and allocates nothing.
#[derive(Debug, Clone)]
pub struct RandomFaults {
    probs: Arc<[f64]>,
    /// The hash state after absorbing the seed; every query continues a
    /// clone of it, which yields the same SipHash output as hashing the
    /// seed afresh.
    seeded: DefaultHasher,
    /// Multiplier applied to every fault probability (≥ 1 accelerates fault
    /// injection for worst-case hunting).
    boost: f64,
}

impl RandomFaults {
    /// Creates the model from the mapped system; per-task probabilities are
    /// derived from the mapped processor's fault rate and the task's
    /// worst-case execution time.
    pub fn new(hsys: &HardenedSystem, arch: &Architecture, mapping: &Mapping, seed: u64) -> Self {
        let probs = hsys
            .tasks()
            .map(|(id, t)| {
                let proc = mapping.proc_of(id);
                let p = arch.processor(proc);
                let wcet = t
                    .nominal_bounds(p.kind)
                    .map(|b: ExecBounds| b.wcet)
                    .unwrap_or(Time::ZERO);
                p.fault_probability(wcet)
            })
            .collect();
        RandomFaults {
            probs,
            seeded: seeded_hasher(seed),
            boost: 1.0,
        }
    }

    /// Multiplies every fault probability by `factor` (clamped to `[0, 1]`
    /// at query time). Monte-Carlo worst-case hunting uses boosts ≫ 1 so
    /// that rare fault combinations are actually visited within a bounded
    /// number of profiles.
    pub fn with_boost(mut self, factor: f64) -> Self {
        self.boost = factor;
        self
    }

    /// The same model (probabilities and boost) under another seed:
    /// answers exactly as `RandomFaults::new(.., seed)` with the same boost
    /// would, without recomputing the probabilities.
    pub fn reseeded(&self, seed: u64) -> Self {
        RandomFaults {
            probs: Arc::clone(&self.probs),
            seeded: seeded_hasher(seed),
            boost: self.boost,
        }
    }
}

fn seeded_hasher(seed: u64) -> DefaultHasher {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    h
}

impl FaultModel for RandomFaults {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        let p = (self.probs[task.index()] * self.boost).clamp(0.0, 1.0);
        // Order-independent pseudo-random verdict.
        let mut h = self.seeded.clone();
        task.index().hash(&mut h);
        instance.hash(&mut h);
        attempt.hash(&mut h);
        let u = h.finish() as f64 / u64::MAX as f64;
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph,
    };

    fn fixture() -> (Architecture, HardenedSystem, Mapping) {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-3))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        (arch, hsys, mapping)
    }

    #[test]
    fn scripted_faults_hit_exactly_the_script() {
        let mut f = ScriptedFaults::new()
            .with_fault(HTaskId::new(0), 2, 0)
            .with_fault(HTaskId::new(1), 0, 1);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert!(f.faulty(HTaskId::new(0), 2, 0));
        assert!(f.faulty(HTaskId::new(1), 0, 1));
        assert!(!f.faulty(HTaskId::new(0), 0, 0));
        assert!(!f.faulty(HTaskId::new(1), 0, 0));
    }

    #[test]
    fn random_faults_are_deterministic_per_seed() {
        let (arch, hsys, mapping) = fixture();
        let mut a = RandomFaults::new(&hsys, &arch, &mapping, 42).with_boost(500.0);
        let mut b = RandomFaults::new(&hsys, &arch, &mapping, 42).with_boost(500.0);
        for inst in 0..50 {
            assert_eq!(
                a.faulty(HTaskId::new(0), inst, 0),
                b.faulty(HTaskId::new(0), inst, 0)
            );
        }
    }

    #[test]
    fn random_fault_answers_are_stable_within_a_run() {
        let (arch, hsys, mapping) = fixture();
        let mut f = RandomFaults::new(&hsys, &arch, &mapping, 7).with_boost(10_000.0);
        let first = f.faulty(HTaskId::new(0), 3, 0);
        for _ in 0..10 {
            assert_eq!(f.faulty(HTaskId::new(0), 3, 0), first);
        }
    }

    #[test]
    fn boost_increases_fault_frequency() {
        let (arch, hsys, mapping) = fixture();
        let count = |boost: f64| {
            let mut f = RandomFaults::new(&hsys, &arch, &mapping, 1).with_boost(boost);
            (0..2000)
                .filter(|&i| f.faulty(HTaskId::new(0), i, 0))
                .count()
        };
        let low = count(1.0);
        let high = count(2000.0);
        assert!(high > low);
        assert!(
            high > 100,
            "boosted rate should fire frequently, got {high}"
        );
    }

    #[test]
    fn zero_rate_never_faults() {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 0.0))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        let mut f = RandomFaults::new(&hsys, &arch, &mapping, 3).with_boost(1e9);
        assert!((0..100).all(|i| !f.faulty(HTaskId::new(0), i, 0)));
    }
}

#[cfg(test)]
mod fault_model_contract {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph,
    };

    fn fixture() -> (Architecture, HardenedSystem, Mapping) {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-3))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        (arch, hsys, mapping)
    }

    /// The query universe the contract is exercised over.
    fn triples() -> Vec<(HTaskId, u64, u8)> {
        let mut v = Vec::new();
        for inst in 0..40 {
            for attempt in 0..3 {
                v.push((HTaskId::new(0), inst, attempt));
            }
        }
        v
    }

    /// Contract checks 1 and 2 for any model: the full verdict table is
    /// identical when queried forward, backward, and with every triple
    /// repeated three times in a row.
    fn assert_contract(mut make: impl FnMut() -> Box<dyn FaultModel>) {
        let ts = triples();
        let forward: Vec<bool> = {
            let mut m = make();
            ts.iter().map(|&(t, i, a)| m.faulty(t, i, a)).collect()
        };
        let backward: Vec<bool> = {
            let mut m = make();
            let mut v: Vec<bool> = ts
                .iter()
                .rev()
                .map(|&(t, i, a)| m.faulty(t, i, a))
                .collect();
            v.reverse();
            v
        };
        assert_eq!(forward, backward, "verdicts must not depend on query order");
        let mut m = make();
        for (k, &(t, i, a)) in ts.iter().enumerate() {
            for repeat in 0..3 {
                assert_eq!(
                    m.faulty(t, i, a),
                    forward[k],
                    "repeat {repeat} of {t:?}/{i}/{a} drifted"
                );
            }
        }
    }

    #[test]
    fn all_shipped_models_obey_the_contract() {
        let (arch, hsys, mapping) = fixture();
        assert_contract(|| Box::new(NoFaults));
        assert_contract(|| {
            Box::new(
                ScriptedFaults::new()
                    .with_fault(HTaskId::new(0), 2, 0)
                    .with_fault(HTaskId::new(0), 17, 1),
            )
        });
        assert_contract(|| {
            Box::new(RandomFaults::new(&hsys, &arch, &mapping, 42).with_boost(500.0))
        });
        assert_contract(|| Box::new(ExhaustiveReexecution::new(&hsys)));
    }

    /// Contract check 3 for the random model: the profile is a function
    /// of the seed alone — equal seeds agree everywhere, and different
    /// seeds disagree somewhere (at a boost that makes faults common).
    #[test]
    fn random_profiles_are_seed_functions() {
        let (arch, hsys, mapping) = fixture();
        // Boost 5 puts the per-attempt probability near 0.25 — faults are
        // common but far from certain, so distinct seeds can diverge.
        let table = |seed: u64| -> Vec<bool> {
            let mut m = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(5.0);
            triples()
                .iter()
                .map(|&(t, i, a)| m.faulty(t, i, a))
                .collect()
        };
        assert_eq!(table(9), table(9));
        assert_ne!(table(9), table(10), "distinct seeds must diverge");
    }

    /// A reseeded copy is the model `new` builds for that seed: same
    /// verdict table, and the copy it was taken from is unaffected.
    #[test]
    fn reseeded_models_equal_fresh_ones() {
        let (arch, hsys, mapping) = fixture();
        let table = |m: &mut RandomFaults| -> Vec<bool> {
            triples()
                .iter()
                .map(|&(t, i, a)| m.faulty(t, i, a))
                .collect()
        };
        let mut base = RandomFaults::new(&hsys, &arch, &mapping, 9).with_boost(5.0);
        let before = table(&mut base);
        for seed in [0, 10, u64::MAX] {
            let mut fresh = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(5.0);
            assert_eq!(table(&mut base.reseeded(seed)), table(&mut fresh));
        }
        assert_eq!(table(&mut base), before);
        assert_contract(|| Box::new(base.reseeded(42)));
    }
}

/// The *Adhoc* fault model: every re-execution-hardened task is maximally
/// re-executed — all attempts before the last one in the budget are faulty,
/// the final one succeeds. Tasks without a re-execution budget never fault.
///
/// Combined with [`SimConfig::start_critical`](crate::SimConfig) and
/// worst-case execution times, this reproduces the paper's ad-hoc worst-case
/// trace (§5.1): critical from the start of the hyperperiod, `wcet'` from
/// Eq. (1) everywhere, droppable tasks absent.
#[derive(Debug, Clone)]
pub struct ExhaustiveReexecution {
    budgets: Vec<u8>,
}

impl ExhaustiveReexecution {
    /// Builds the model from the hardened system's re-execution budgets.
    pub fn new(hsys: &HardenedSystem) -> Self {
        ExhaustiveReexecution {
            budgets: hsys.tasks().map(|(_, t)| t.reexec).collect(),
        }
    }
}

impl FaultModel for ExhaustiveReexecution {
    fn faulty(&mut self, task: HTaskId, _instance: u64, attempt: u8) -> bool {
        attempt < self.budgets[task.index()]
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time,
    };

    #[test]
    fn exhausts_budget_then_succeeds() {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::reexecution(2));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mut f = ExhaustiveReexecution::new(&hsys);
        assert!(f.faulty(HTaskId::new(0), 0, 0));
        assert!(f.faulty(HTaskId::new(0), 0, 1));
        assert!(!f.faulty(HTaskId::new(0), 0, 2));
        assert!(f.faulty(HTaskId::new(0), 7, 1));
    }

    #[test]
    fn unhardened_tasks_never_fault() {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mut f = ExhaustiveReexecution::new(&hsys);
        assert!(!f.faulty(HTaskId::new(0), 0, 0));
    }
}
