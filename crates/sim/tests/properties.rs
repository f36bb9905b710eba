//! Property-based tests for the discrete-event simulator.

use mcmap_hardening::{harden, HTaskId, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap_sched::{
    nominal_bounds, uniform_policies, HolisticAnalysis, Mapping, SchedBackend, SchedPolicy,
};
use mcmap_sim::{
    monte_carlo, ExecModel, FaultModel, MonteCarloConfig, NoFaults, RandomFaults, SimConfig,
    Simulator, TrajectoryMemo,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// A fault model that records the verdicts it returns.
struct Verdicts<F> {
    inner: F,
    seen: Vec<bool>,
}

impl<F: FaultModel> FaultModel for Verdicts<F> {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        let verdict = self.inner.faulty(task, instance, attempt);
        self.seen.push(verdict);
        verdict
    }
}

#[derive(Debug, Clone)]
struct Desc {
    apps: Vec<(u64, Vec<u64>, bool)>, // period, task wcets, droppable
    placements: Vec<usize>,
    reexec: Vec<u8>,
    seed: u64,
}

fn desc_strategy() -> impl Strategy<Value = Desc> {
    let app = (
        prop::sample::select(vec![1_000u64, 2_000, 4_000]),
        prop::collection::vec(5u64..120, 1..4),
        any::<bool>(),
    );
    (
        prop::collection::vec(app, 1..4),
        prop::collection::vec(0usize..2, 12),
        prop::collection::vec(0u8..3, 12),
        any::<u64>(),
    )
        .prop_map(|(apps, placements, reexec, seed)| Desc {
            apps,
            placements,
            reexec,
            seed,
        })
}

fn build(d: &Desc) -> (Architecture, HardenedSystem, Mapping, Vec<SchedPolicy>) {
    let arch = Architecture::builder()
        .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
        .fabric(Fabric::new(16))
        .build()
        .expect("valid");
    let graphs: Vec<TaskGraph> = d
        .apps
        .iter()
        .enumerate()
        .map(|(i, (period, wcets, droppable))| {
            let crit = if *droppable {
                Criticality::Droppable { service: 1.0 }
            } else {
                Criticality::NonDroppable {
                    max_failure_rate: 0.99,
                }
            };
            let mut b =
                TaskGraph::builder(format!("a{i}"), Time::from_ticks(*period)).criticality(crit);
            for (j, w) in wcets.iter().enumerate() {
                b = b.task(
                    Task::new(format!("t{i}_{j}"))
                        .with_uniform_exec(
                            1,
                            ExecBounds::new(Time::from_ticks(w / 2), Time::from_ticks(*w)),
                        )
                        .with_detect_overhead(Time::from_ticks(2)),
                );
            }
            for j in 1..wcets.len() {
                b = b.channel(j - 1, j, 8);
            }
            b.build().expect("chains are valid")
        })
        .collect();
    let apps = AppSet::new(graphs).expect("nonempty");
    let mut plan = HardeningPlan::unhardened(&apps);
    for flat in 0..apps.num_tasks() {
        let k = d.reexec[flat % d.reexec.len()];
        if k > 0 {
            plan.set_by_flat_index(flat, TaskHardening::Reexec(k));
        }
    }
    let hsys = harden(&apps, &plan, &arch).expect("valid");
    let placement: Vec<ProcId> = (0..hsys.num_tasks())
        .map(|i| ProcId::new(d.placements[i % d.placements.len()]))
        .collect();
    let mapping = Mapping::new(&hsys, &arch, placement).expect("kind 0 everywhere");
    let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
    (arch, hsys, mapping, policies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simulation_is_deterministic(d in desc_strategy()) {
        let (arch, hsys, mapping, policies) = build(&d);
        let sim = Simulator::new(&hsys, &arch, &mapping, policies);
        let cfg = SimConfig::worst_case(
            hsys.apps().iter().filter(|a| a.criticality.is_droppable()).map(|a| a.app).collect(),
        );
        let run = |seed: u64| {
            let mut f = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(1e5);
            sim.run(&cfg, &mut f)
        };
        prop_assert_eq!(run(d.seed), run(d.seed));
    }

    #[test]
    fn fault_free_run_is_bounded_by_the_analysis(d in desc_strategy()) {
        let (arch, hsys, mapping, policies) = build(&d);
        let analysis = HolisticAnalysis::new(&hsys, &arch, &mapping, policies.clone());
        let w = analysis.analyze(&nominal_bounds(&hsys, &arch, &mapping));
        prop_assume!(w.all_deadlines_met(&hsys));

        let sim = Simulator::new(&hsys, &arch, &mapping, policies);
        let r = sim.run(&SimConfig::default(), &mut NoFaults);
        for happ in hsys.apps() {
            prop_assert!(
                r.app_wcrt[happ.app.index()] <= w.app_wcrt(&hsys, happ.app),
                "app {}: simulated {} > analyzed {}",
                happ.app,
                r.app_wcrt[happ.app.index()],
                w.app_wcrt(&hsys, happ.app)
            );
        }
        // Fault-free runs never enter the critical state or drop anything.
        prop_assert_eq!(r.critical_entries, 0);
        prop_assert_eq!(r.dropped_instances.iter().sum::<u64>(), 0);
        prop_assert_eq!(r.unsafe_instances.iter().sum::<u64>(), 0);
    }

    #[test]
    fn best_case_model_is_never_slower(d in desc_strategy()) {
        let (arch, hsys, mapping, policies) = build(&d);
        let sim = Simulator::new(&hsys, &arch, &mapping, policies);
        let worst = sim.run(&SimConfig::default(), &mut NoFaults);
        let best = sim.run(
            &SimConfig {
                exec_model: ExecModel::BestCase,
                ..SimConfig::default()
            },
            &mut NoFaults,
        );
        for i in 0..worst.app_wcrt.len() {
            prop_assert!(best.app_wcrt[i] <= worst.app_wcrt[i]);
        }
    }

    #[test]
    fn dropping_never_delays_nondroppable_apps(d in desc_strategy(), seed in any::<u64>()) {
        let (arch, hsys, mapping, policies) = build(&d);
        let sim = Simulator::new(&hsys, &arch, &mapping, policies);
        let droppable: Vec<AppId> = hsys
            .apps()
            .iter()
            .filter(|a| a.criticality.is_droppable())
            .map(|a| a.app)
            .collect();
        prop_assume!(!droppable.is_empty());

        let mut f1 = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(1e4);
        let keep = sim.run(&SimConfig::worst_case(vec![]), &mut f1);
        let mut f2 = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(1e4);
        let drop = sim.run(&SimConfig::worst_case(droppable), &mut f2);
        for happ in hsys.apps() {
            if !happ.criticality.is_droppable() {
                prop_assert!(
                    drop.app_wcrt[happ.app.index()] <= keep.app_wcrt[happ.app.index()],
                    "dropping must not delay critical app {}",
                    happ.app
                );
            }
        }
    }

    /// Memoized runs equal plain ones for every profile, at any byte
    /// budget (a tiny one fills up and leaves later misses unrecorded),
    /// and the memo stays within its budget. With an ample budget each
    /// distinct verdict sequence is simulated exactly once.
    #[test]
    fn memoized_runs_equal_plain_runs(
        d in desc_strategy(),
        budget in 0usize..1024,
        boost in prop::sample::select(vec![1.0, 1e2, 4e3, 1e5]),
        hyperperiods in 1u64..3,
    ) {
        let (arch, hsys, mapping, policies) = build(&d);
        let sim = Simulator::new(&hsys, &arch, &mapping, policies);
        let cfg = SimConfig {
            hyperperiods,
            ..SimConfig::worst_case(
                hsys.apps().iter().filter(|a| a.criticality.is_droppable()).map(|a| a.app).collect(),
            )
        };
        let faults = RandomFaults::new(&hsys, &arch, &mapping, d.seed).with_boost(boost);
        let tiny = TrajectoryMemo::with_byte_budget(budget);
        let fixed = TrajectoryMemo::new();
        let ample = TrajectoryMemo::with_byte_budget(1 << 30);
        let mut sequences = HashSet::new();
        let runs = 64;
        for i in 0..runs {
            let seed = d.seed.wrapping_add(i);
            let mut verdicts = Verdicts { inner: faults.profile(seed), seen: Vec::new() };
            let plain = sim.run(&cfg, &mut verdicts);
            sequences.insert(verdicts.seen);
            for memo in [&tiny, &fixed, &ample] {
                let answer = memo.run(&sim, &cfg, &mut faults.profile(seed), |r| r);
                prop_assert_eq!(memo.leaves().get(&answer), &plain, "profile {}", i);
            }
        }
        prop_assert!(tiny.bytes() <= budget);
        prop_assert!(!ample.is_full());
        prop_assert_eq!(ample.simulated(), sequences.len() as u64);
        prop_assert!(fixed.simulated() <= runs);
        prop_assert!(tiny.simulated() >= fixed.simulated());
    }

    /// `monte_carlo` (memoized) equals merging one plain run per profile.
    #[test]
    fn monte_carlo_equals_plain_runs(d in desc_strategy()) {
        let (arch, hsys, mapping, policies) = build(&d);
        let cfg = MonteCarloConfig {
            runs: 40,
            seed: d.seed,
            boost: 4e3,
            sim: SimConfig::worst_case(vec![]),
        };
        let mc = monte_carlo(&hsys, &arch, &mapping, &policies, &cfg);
        let sim = Simulator::new(&hsys, &arch, &mapping, policies);
        let mut app_wcrt = vec![Time::ZERO; hsys.apps().len()];
        let mut task_wcrt = vec![Time::ZERO; hsys.num_tasks()];
        let mut samples = vec![Vec::new(); hsys.apps().len()];
        let (mut critical_entries, mut unsafe_instances) = (0, 0);
        for i in 0..cfg.runs as u64 {
            let mut f = RandomFaults::new(&hsys, &arch, &mapping, d.seed.wrapping_add(i))
                .with_boost(cfg.boost);
            let r = sim.run(&cfg.sim, &mut f);
            for (a, &t) in r.app_wcrt.iter().enumerate() {
                app_wcrt[a] = app_wcrt[a].max(t);
                samples[a].push(t);
            }
            for (k, &t) in r.task_wcrt.iter().enumerate() {
                task_wcrt[k] = task_wcrt[k].max(t);
            }
            critical_entries += r.critical_entries;
            unsafe_instances += r.unsafe_instances.iter().sum::<u64>();
        }
        prop_assert_eq!(&mc.app_wcrt, &app_wcrt);
        prop_assert_eq!(&mc.task_wcrt, &task_wcrt);
        prop_assert_eq!(mc.critical_entries, critical_entries);
        prop_assert_eq!(mc.unsafe_instances, unsafe_instances);
        for (a, bucket) in samples.iter_mut().enumerate() {
            bucket.sort_unstable();
            for (rank, &t) in bucket.iter().enumerate() {
                let q = (rank as f64 + 0.5) / bucket.len() as f64;
                prop_assert_eq!(mc.percentile(AppId::new(a), q), t);
            }
        }
    }
}
