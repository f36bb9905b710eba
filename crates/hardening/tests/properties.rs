//! Property-based tests for the hardening transform and reliability math.

use mcmap_hardening::{
    harden, majority_failure_prob, placement_with_default, HardeningPlan, Reliability, Role,
    TaskHardening,
};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, ProcId, ProcKind, Processor, Task,
    TaskGraph, Time,
};
use proptest::prelude::*;

fn arch(n: usize, rate: f64) -> Architecture {
    Architecture::builder()
        .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, rate))
        .build()
        .expect("valid")
}

/// A random chain application set with `n` tasks.
fn chain_apps(n: usize, wcets: &[u64]) -> AppSet {
    let mut b = TaskGraph::builder("g", Time::from_ticks(1_000_000)).criticality(
        Criticality::NonDroppable {
            max_failure_rate: 0.9,
        },
    );
    for (i, &w) in wcets.iter().take(n).enumerate() {
        b = b.task(
            Task::new(format!("t{i}"))
                .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(w.max(1))))
                .with_voting_overhead(Time::from_ticks(2))
                .with_detect_overhead(Time::from_ticks(1)),
        );
    }
    for i in 1..n {
        b = b.channel(i - 1, i, 8);
    }
    AppSet::new(vec![b.build().expect("chains are valid")]).expect("nonempty")
}

/// A random hardening decision over a 4-processor platform.
fn hardening_strategy() -> impl Strategy<Value = TaskHardening> {
    prop_oneof![
        Just(TaskHardening::None),
        (1u8..=3).prop_map(TaskHardening::Reexec),
        (prop::collection::vec(0usize..4, 1..3), 0usize..4).prop_map(|(reps, voter)| {
            TaskHardening::Active {
                replicas: reps.into_iter().map(ProcId::new).collect(),
                voter: ProcId::new(voter),
            }
        }),
        (0usize..4, 0usize..4, 0usize..4).prop_map(|(a, s, v)| TaskHardening::Passive {
            actives: vec![ProcId::new(a)],
            standbys: vec![ProcId::new(s)],
            voter: ProcId::new(v),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transform_preserves_structure(
        wcets in prop::collection::vec(1u64..500, 2..6),
        hards in prop::collection::vec(hardening_strategy(), 6),
    ) {
        let n = wcets.len();
        let apps = chain_apps(n, &wcets);
        let arch = arch(4, 1e-7);
        let mut plan = HardeningPlan::unhardened(&apps);
        for (i, h) in hards.iter().take(n).enumerate() {
            plan.set_by_flat_index(i, h.clone());
        }
        let hsys = harden(&apps, &plan, &arch).expect("all sampled plans are valid");

        // Task accounting: copies + voters.
        let mut expected = 0usize;
        for i in 0..n {
            let h = plan.by_flat_index(i);
            expected += h.active_copies() + h.standby_copies();
            if h.voter().is_some() {
                expected += 1; // voter
            }
        }
        prop_assert_eq!(hsys.num_tasks(), expected);

        // The rewrite preserves acyclicity (complete topological order).
        prop_assert_eq!(hsys.topological_order().len(), hsys.num_tasks());

        // Every copy of task i carries the original's origin; every voter
        // collects from every copy of its origin.
        for flat in 0..n {
            let copies: Vec<_> = hsys.copies_of(flat).collect();
            prop_assert!(!copies.is_empty());
            if let Some(voter) = hsys.voter_of(flat) {
                prop_assert_eq!(hsys.task(voter).role, Role::Voter);
                let mut feeders: Vec<_> = hsys.predecessors(voter).collect();
                feeders.sort();
                let mut expected = copies.clone();
                expected.sort();
                prop_assert_eq!(feeders, expected);
            }
            // Eq. (1): critical wcet = nominal wcet × (k + 1).
            for &c in &copies {
                let t = hsys.task(c);
                let b = t.nominal_bounds(ProcKind::new(0)).expect("kind 0");
                prop_assert_eq!(
                    t.critical_wcet(ProcKind::new(0)).expect("kind 0"),
                    b.wcet * (t.reexec as u64 + 1)
                );
                prop_assert!(b.bcet <= b.wcet);
            }
        }

        // Layout: each original task's hardened ids form one block, the
        // blocks in flat order; a block holds the primary, the actives,
        // the standbys, then the voter.
        let mut next = 0;
        for flat in 0..n {
            let block: Vec<_> = hsys.copies_of(flat).chain(hsys.voter_of(flat)).collect();
            let ids: Vec<usize> = block.iter().map(|id| id.index()).collect();
            prop_assert_eq!(ids, (next..next + block.len()).collect::<Vec<_>>());
            next += block.len();
            let r = plan.by_flat_index(flat);
            let mut roles = vec![Role::Primary];
            roles.extend((0..r.active_copies() - 1).map(|i| Role::ActiveReplica(i as u8)));
            roles.extend((0..r.standby_copies()).map(|i| Role::PassiveReplica(i as u8)));
            roles.extend(r.voter().map(|_| Role::Voter));
            let got: Vec<Role> = block.iter().map(|&id| hsys.task(id).role).collect();
            prop_assert_eq!(got, roles);
        }
        prop_assert_eq!(next, hsys.num_tasks());
        prop_assert_eq!(hsys.app_task_range(AppId::new(0)), 0..hsys.num_tasks());

        // `copies_of`/`voter_of` agree with each task's origin and role.
        for (id, t) in hsys.tasks() {
            let flat = hsys.flat_of_origin(t.origin).expect("origin in the set");
            prop_assert_eq!(hsys.flat_of(id), flat);
            if t.role.is_voter() {
                prop_assert_eq!(hsys.voter_of(flat), Some(id));
            } else {
                prop_assert!(hsys.copies_of(flat).any(|c| c == id));
            }
        }
    }

    #[test]
    fn majority_prob_is_a_probability_and_monotone(
        probs in prop::collection::vec(0.0f64..1.0, 1..7),
        bump in 0.0f64..1.0,
        idx in 0usize..7,
    ) {
        let p = majority_failure_prob(&probs);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        // Raising any copy's failure probability cannot lower the result.
        let mut worse = probs.clone();
        let i = idx % probs.len();
        worse[i] = (worse[i] + bump).min(1.0);
        let q = majority_failure_prob(&worse);
        prop_assert!(q >= p - 1e-12, "q={q} < p={p}");
    }

    #[test]
    fn hardening_never_hurts_reliability(
        wcet in 10u64..1_000,
        rate in 1e-9f64..1e-4,
        k in 1u8..3,
    ) {
        let apps = chain_apps(1, &[wcet]);
        let arch = arch(4, rate);
        let bare = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).expect("valid");
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(k));
        let hard = harden(&apps, &plan, &arch).expect("valid");

        let p_bare = Reliability::new(&bare, &arch).app_failure_prob(
            mcmap_model::AppId::new(0),
            &placement_with_default(&bare, ProcId::new(0)),
        );
        let p_hard = Reliability::new(&hard, &arch).app_failure_prob(
            mcmap_model::AppId::new(0),
            &placement_with_default(&hard, ProcId::new(0)),
        );
        prop_assert!(p_hard <= p_bare + 1e-15);
    }

    #[test]
    fn replication_beats_a_single_copy(
        wcet in 10u64..2_000,
        // Keep the per-copy failure probability ≪ 1/3 — beyond that, TMR
        // is mathematically worse than a single copy (3p² ≥ p).
        rate in 1e-9f64..5e-5,
    ) {
        let apps = chain_apps(1, &[wcet]);
        let arch = arch(4, rate);
        let failure_with = |replicas: Vec<usize>| {
            let mut plan = HardeningPlan::unhardened(&apps);
            if !replicas.is_empty() {
                plan.set_by_flat_index(
                    0,
                    TaskHardening::Active {
                        replicas: replicas.into_iter().map(ProcId::new).collect(),
                        voter: ProcId::new(0),
                    },
                );
            }
            let h = harden(&apps, &plan, &arch).expect("valid");
            let place = placement_with_default(&h, ProcId::new(0));
            Reliability::new(&h, &arch).app_failure_prob(mcmap_model::AppId::new(0), &place)
        };
        let single = failure_with(vec![]);
        // Duplication detects (fail-stop, p²) and triplication masks
        // (≈ 3p²) — both beat the unprotected copy (p), and duplication
        // upper-bounds unsafe execution more tightly than TMR under the
        // detected-is-safe model.
        let dup = failure_with(vec![1]);
        let tri = failure_with(vec![1, 2]);
        prop_assert!(dup <= single + 1e-15);
        prop_assert!(tri <= single + 1e-15);
        prop_assert!(dup <= tri + 1e-15);
    }
}
