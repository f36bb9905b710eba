//! Cross-crate integration tests: model → hardening → sched → core → sim on
//! the real benchmarks.

use mcmap::benchmarks::{cruise, dt_med};
use mcmap::core::{
    adhoc_analysis, analyze, analyze_naive, explore, DseConfig, GenomeSpace, MappingProblem,
};
use mcmap::ga::GaConfig;
use mcmap::ga::Problem;
use mcmap::hardening::{harden, HardeningPlan, TaskHardening};
use mcmap::model::{AppId, ProcId};
use mcmap::sched::Mapping;
use mcmap::sim::{monte_carlo, MonteCarloConfig, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A simple hand-built hardening + mapping for Cruise: the two control
/// chains are re-execution hardened and isolated on the big cores; the
/// droppable applications live on the little cores.
fn cruise_reference_design() -> (
    mcmap::benchmarks::Benchmark,
    mcmap::hardening::HardenedSystem,
    Mapping,
) {
    let b = cruise();
    let mut plan = HardeningPlan::unhardened(&b.apps);
    for (flat, r) in b.apps.task_refs().iter().enumerate() {
        if !b.apps.app(r.app).criticality().is_droppable() {
            plan.set_by_flat_index(flat, TaskHardening::Reexec(1));
        }
    }
    let hsys = harden(&b.apps, &plan, &b.arch).unwrap();
    let mut little = 0usize;
    let placement: Vec<ProcId> = hsys
        .tasks()
        .map(|(_, t)| {
            if let Some(p) = t.fixed_proc {
                return p;
            }
            if t.origin.app.index() < 2 {
                // Critical app i isolated on big core i.
                ProcId::new(t.origin.app.index())
            } else {
                // Droppables alternate over the little cores.
                little += 1;
                ProcId::new(2 + little % 2)
            }
        })
        .collect();
    let mapping = Mapping::new(&hsys, &b.arch, placement).unwrap();
    (b, hsys, mapping)
}

#[test]
fn cruise_reference_design_is_schedulable_with_dropping() {
    let (b, hsys, mapping) = cruise_reference_design();
    let dropped: Vec<AppId> = b.apps.droppable_apps().collect();
    let mc = analyze(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    assert!(
        mc.normal.converged,
        "the fault-free state of the reference design must converge"
    );
    for id in b.apps.nondroppable_apps() {
        let wcrt = mc.app_wcrt(&hsys, id, &dropped);
        assert!(
            wcrt <= b.apps.app(id).deadline(),
            "critical app {} misses: {} > {}",
            b.apps.app(id).name(),
            wcrt,
            b.apps.app(id).deadline()
        );
    }
}

#[test]
fn analysis_orderings_hold_on_cruise() {
    // The Table 2 invariants: Proposed ≥ WC-Sim, Proposed ≥ Adhoc (observed
    // trace), Naive ≥ Proposed.
    let (b, hsys, mapping) = cruise_reference_design();
    let dropped: Vec<AppId> = b.apps.droppable_apps().collect();

    let mc = analyze(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    let naive = analyze_naive(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    let adhoc = adhoc_analysis(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    let wcsim = monte_carlo(
        &hsys,
        &b.arch,
        &mapping,
        &b.policies,
        &MonteCarloConfig {
            runs: 100,
            boost: 1e6,
            sim: SimConfig::worst_case(dropped.clone()),
            ..MonteCarloConfig::default()
        },
    );

    for id in b.apps.nondroppable_apps() {
        let proposed = mc.app_wcrt(&hsys, id, &dropped);
        let naive_w = naive.app_wcrt(&hsys, id);
        assert!(
            naive_w >= proposed,
            "naive {naive_w} must dominate proposed {proposed}"
        );
        assert!(
            wcsim.app_wcrt[id.index()] <= proposed,
            "simulation {} must stay below the bound {proposed}",
            wcsim.app_wcrt[id.index()]
        );
        assert!(
            adhoc[id.index()] <= proposed,
            "the adhoc trace {} must stay below the bound {proposed}",
            adhoc[id.index()]
        );
    }
}

#[test]
fn small_dse_finds_feasible_cruise_designs() {
    let b = cruise();
    let cfg = DseConfig {
        ga: GaConfig {
            population: 16,
            generations: 8,
            seed: 2024,
            ..GaConfig::default()
        },
        policies: Some(b.policies.clone()),
        repair_iters: 10,
        ..DseConfig::default()
    };
    let outcome = explore(&b.apps, &b.arch, cfg);
    assert!(outcome.audit.evaluated >= 16 * 9);
    assert!(
        outcome.best_power().is_some(),
        "DSE should find a feasible Cruise design (audit: {:?})",
        outcome.audit
    );
}

#[test]
fn dt_med_candidates_evaluate_without_panicking() {
    let b = dt_med();
    let problem = MappingProblem::new(
        &b.apps,
        &b.arch,
        DseConfig {
            policies: Some(b.policies.clone()),
            repair_iters: 5,
            ..DseConfig::default()
        },
    );
    let space = GenomeSpace::new(&b.apps, &b.arch);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..8 {
        let g = space.random(&mut rng);
        let _ = problem.evaluate(&g);
    }
    assert_eq!(problem.audit().evaluated, 8);
}
