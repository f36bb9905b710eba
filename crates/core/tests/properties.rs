//! Property-based tests for the mixed-criticality analysis and the DSE
//! plumbing — including the headline safety claim: Algorithm 1 upper-bounds
//! simulated response times on randomized systems and failure profiles.

use mcmap_core::{
    analyze, analyze_naive, analyze_with, repair_reliability, repair_structure, AnalysisOptions,
    GenomeSpace,
};
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
use mcmap_sim::{RandomFaults, SimConfig, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Desc {
    apps: Vec<(u64, Vec<u64>, bool)>,
    placements: Vec<usize>,
    reexec: Vec<u8>,
    preemptive: bool,
}

fn desc_strategy() -> impl Strategy<Value = Desc> {
    let app = (
        prop::sample::select(vec![2_000u64, 4_000]),
        prop::collection::vec(5u64..100, 1..4),
        any::<bool>(),
    );
    (
        prop::collection::vec(app, 2..4),
        prop::collection::vec(0usize..3, 12),
        prop::collection::vec(0u8..3, 12),
        any::<bool>(),
    )
        .prop_map(|(apps, placements, reexec, preemptive)| Desc {
            apps,
            placements,
            reexec,
            preemptive,
        })
}

fn build(
    d: &Desc,
) -> (
    Architecture,
    AppSet,
    HardenedSystem,
    Mapping,
    Vec<SchedPolicy>,
    Vec<AppId>,
) {
    let arch = Architecture::builder()
        .homogeneous(3, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
        .fabric(Fabric::new(16))
        .build()
        .expect("valid");
    let graphs: Vec<TaskGraph> = d
        .apps
        .iter()
        .enumerate()
        .map(|(i, (period, wcets, droppable))| {
            let crit = if *droppable && i > 0 {
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
                            ExecBounds::new(Time::from_ticks(w / 3), Time::from_ticks(*w)),
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
    let policy = if d.preemptive {
        SchedPolicy::FixedPriorityPreemptive
    } else {
        SchedPolicy::FixedPriorityNonPreemptive
    };
    let dropped: Vec<AppId> = apps.droppable_apps().collect();
    (
        arch,
        apps,
        hsys,
        mapping,
        uniform_policies(3, policy),
        dropped,
    )
}

/// Like [`build`], but exercising the full hardening vocabulary: the
/// technique of each task cycles with its flat index through
/// re-execution, active replication (one replica + voter), and passive
/// replication (one standby + voter), with replica/voter placements on
/// the other processors.
fn build_replicated(
    d: &Desc,
) -> (
    Architecture,
    AppSet,
    HardenedSystem,
    Mapping,
    Vec<SchedPolicy>,
    Vec<AppId>,
) {
    let (arch, apps, _, _, policies, dropped) = build(d);
    let mut plan = HardeningPlan::unhardened(&apps);
    for flat in 0..apps.num_tasks() {
        let home = d.placements[flat % d.placements.len()];
        let other = ProcId::new((home + 1) % 3);
        let third = ProcId::new((home + 2) % 3);
        match d.reexec[flat % d.reexec.len()] % 3 {
            0 => plan.set_by_flat_index(flat, TaskHardening::Reexec(1)),
            1 => plan.set_by_flat_index(
                flat,
                TaskHardening::Active {
                    replicas: vec![other],
                    voter: third,
                },
            ),
            _ => plan.set_by_flat_index(
                flat,
                TaskHardening::Passive {
                    actives: vec![other],
                    standbys: vec![third],
                    voter: ProcId::new(home),
                },
            ),
        }
    }
    let hsys = harden(&apps, &plan, &arch).expect("replicated plan is valid");
    // Replicas and voters come with fixed placements; primaries keep the
    // descriptor's placement by origin.
    let placement: Vec<ProcId> = hsys
        .tasks()
        .map(|(id, t)| {
            t.fixed_proc.unwrap_or(ProcId::new(
                d.placements[hsys.flat_of(id) % d.placements.len()],
            ))
        })
        .collect();
    let mapping = Mapping::new(&hsys, &arch, placement).expect("kind 0 everywhere");
    (arch, apps, hsys, mapping, policies, dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's central claim: the proposed analysis safely bounds
    /// every observed response time of non-dropped applications, across
    /// random systems, mappings, hardenings, and failure profiles.
    #[test]
    fn algorithm1_upper_bounds_simulation(d in desc_strategy(), seed in any::<u64>()) {
        let (arch, apps, hsys, mapping, policies, dropped) = build(&d);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
        prop_assume!(mc.schedulable(&hsys, &dropped));

        let sim = Simulator::new(&hsys, &arch, &mapping, policies.clone());
        for i in 0..6u64 {
            let mut faults =
                RandomFaults::new(&hsys, &arch, &mapping, seed.wrapping_add(i)).with_boost(1e5);
            let r = sim.run(&SimConfig::worst_case(dropped.clone()), &mut faults);
            for id in apps.app_ids() {
                if dropped.contains(&id) {
                    continue; // dropped apps carry no critical-state promise
                }
                prop_assert!(
                    r.app_wcrt[id.index()] <= mc.app_wcrt(&hsys, id, &dropped),
                    "app {}: simulated {} > bound {}",
                    apps.app(id).name(),
                    r.app_wcrt[id.index()],
                    mc.app_wcrt(&hsys, id, &dropped)
                );
            }
        }
    }

    /// The same safety claim under the full hardening vocabulary — and
    /// under the *coverage* semantics the Monte-Carlo validation campaign
    /// uses. Every task is hardened with a technique cycled from its flat
    /// index (re-execution, active replication + voter, passive
    /// replication + standby + voter), faults are boosted to moderate
    /// rates so some profiles exhaust their masking budget, and the
    /// analyzed bound is asserted exactly for the profiles *within
    /// coverage* (no post-masking corrupted output): simulated response
    /// times never exceed the analyzed WCRT there.
    #[test]
    fn analysis_bounds_covered_simulation_under_replication(
        d in desc_strategy(),
        seed in any::<u64>(),
    ) {
        let (arch, apps, hsys, mapping, policies, dropped) = build_replicated(&d);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
        prop_assume!(mc.schedulable(&hsys, &dropped));

        let sim = Simulator::new(&hsys, &arch, &mapping, policies.clone());
        let mut covered = 0u32;
        for i in 0..8u64 {
            let mut faults =
                RandomFaults::new(&hsys, &arch, &mapping, seed.wrapping_add(i)).with_boost(1e3);
            let r = sim.run(&SimConfig::worst_case(dropped.clone()), &mut faults);
            // The campaign's coverage filter: a profile whose masking
            // budget was exceeded somewhere carries no bound promise.
            if r.unsafe_instances.iter().sum::<u64>() != 0 {
                continue;
            }
            covered += 1;
            for id in apps.app_ids() {
                if dropped.contains(&id) {
                    continue;
                }
                prop_assert!(
                    r.app_wcrt[id.index()] <= mc.app_wcrt(&hsys, id, &dropped),
                    "app {} (covered profile {i}): simulated {} > bound {}",
                    apps.app(id).name(),
                    r.app_wcrt[id.index()],
                    mc.app_wcrt(&hsys, id, &dropped)
                );
            }
        }
        // Not a per-case guarantee, but a sanity anchor: the filter must
        // not silently discard everything on a fault-free seed.
        let mut quiet = mcmap_sim::NoFaults;
        let r = sim.run(&SimConfig::worst_case(dropped.clone()), &mut quiet);
        prop_assert_eq!(r.unsafe_instances.iter().sum::<u64>(), 0);
        let _ = covered;
    }

    /// §5.1: the naive estimate is safe but at least as pessimistic as the
    /// proposed analysis, per task.
    #[test]
    fn naive_dominates_proposed(d in desc_strategy()) {
        let (arch, _apps, hsys, mapping, policies, dropped) = build(&d);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
        let naive = analyze_naive(&hsys, &arch, &mapping, &policies, &dropped);
        for i in 0..hsys.num_tasks() {
            prop_assert!(
                naive.max_finish[i] >= mc.worst.max_finish[i],
                "task {i}: naive {} < proposed {}",
                naive.max_finish[i],
                mc.worst.max_finish[i]
            );
        }
    }

    /// The fault-free analysis is a lower envelope of the merged
    /// worst-case windows.
    #[test]
    fn normal_state_is_a_lower_envelope(d in desc_strategy()) {
        let (arch, _apps, hsys, mapping, policies, dropped) = build(&d);
        let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
        for i in 0..hsys.num_tasks() {
            prop_assert!(mc.worst.max_finish[i] >= mc.normal.max_finish[i]);
            prop_assert!(mc.worst.min_start[i] <= mc.normal.min_start[i]);
        }
    }

    /// The analysis fast path (dominance pruning) is an *optimization*,
    /// never an approximation: on random systems both settings of the knob
    /// reproduce the prune-free reference enumeration bit-for-bit — same
    /// windows, same verdict, same scenario count — while never *adding*
    /// backend work.
    #[test]
    fn fast_path_is_bit_identical_to_the_cold_reference(d in desc_strategy()) {
        let (arch, _apps, hsys, mapping, policies, dropped) = build(&d);
        let reference = analyze_with(
            &hsys, &arch, &mapping, &policies, &dropped, AnalysisOptions::reference(),
        );
        for opts in [false, true].map(|prune| AnalysisOptions { prune }) {
            let fast = analyze_with(&hsys, &arch, &mapping, &policies, &dropped, opts);
            prop_assert_eq!(&fast.normal, &reference.normal, "{:?}", opts);
            prop_assert_eq!(&fast.worst, &reference.worst, "{:?}", opts);
            prop_assert_eq!(
                fast.schedulable(&hsys, &dropped),
                reference.schedulable(&hsys, &dropped),
                "{:?}", opts
            );
            prop_assert_eq!(fast.scenarios, reference.scenarios);
            prop_assert!(
                fast.backend_calls <= reference.backend_calls,
                "{:?}: {} backend calls vs reference {}",
                opts, fast.backend_calls, reference.backend_calls
            );
            prop_assert_eq!(
                fast.backend_calls + fast.scenarios_pruned,
                reference.backend_calls,
                "every skipped run must be accounted to the pruner ({:?})", opts
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Structure repair always yields a structurally valid chromosome.
    #[test]
    fn repair_makes_genomes_harden_and_map(seed in any::<u64>(), flips in 0usize..6) {
        let arch = Architecture::builder()
            .homogeneous(4, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .expect("valid");
        let hi = TaskGraph::builder("hi", Time::from_ticks(2_000))
            .criticality(Criticality::NonDroppable { max_failure_rate: 0.9 })
            .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .channel(0, 1, 8)
            .build()
            .expect("valid");
        let lo = TaskGraph::builder("lo", Time::from_ticks(4_000))
            .criticality(Criticality::Droppable { service: 1.0 })
            .task(Task::new("c").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .expect("valid");
        let apps = AppSet::new(vec![hi, lo]).expect("nonempty");
        let space = GenomeSpace::new(&apps, &arch);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = space.random(&mut rng);
        // Sabotage the allocation.
        for i in 0..flips.min(g.alloc.len()) {
            g.alloc[i] = false;
        }
        repair_structure(&mut g, &space, &mut rng);
        let rel_ok = repair_reliability(&mut g, &space, &apps, &arch, &mut rng, 30);
        prop_assert!(rel_ok, "bounds of 0.9 are trivially satisfiable");

        // The decoded design must harden and map without errors.
        let (plan, _dropped, bindings) = space.decode(&g);
        let hsys = harden(&apps, &plan, &arch).expect("repaired plans are valid");
        let placement = hsys.placement(&bindings);
        prop_assert!(Mapping::new(&hsys, &arch, placement).is_ok());
    }
}
