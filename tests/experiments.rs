//! Miniature versions of the paper's experiments as integration tests:
//! every invariant the experiment binaries assert is also checked here at
//! reduced budgets, so `cargo test` alone validates the reproduction.

use mcmap::benchmarks::{all_benchmarks, cruise, dt_med};
use mcmap::core::{
    adhoc_analysis, analyze, analyze_explained, analyze_naive, explore, DseConfig, ObjectiveMode,
};
use mcmap::ga::GaConfig;
use mcmap::hardening::{harden, HardeningPlan, TaskHardening};
use mcmap::model::{AppId, ProcId, Time};
use mcmap::sched::Mapping;
use mcmap::sim::{monte_carlo, MonteCarloConfig, SimConfig};

/// The Table 2 sample design M1 (see `crates/bench/src/bin/table2_wcrt.rs`).
fn table2_design_m1() -> (
    mcmap::benchmarks::Benchmark,
    mcmap::hardening::HardenedSystem,
    Mapping,
    Vec<AppId>,
) {
    let b = cruise();
    let mut plan = HardeningPlan::unhardened(&b.apps);
    plan.set_by_flat_index(0, TaskHardening::Reexec(1));
    plan.set_by_flat_index(5, TaskHardening::Reexec(1));
    let hsys = harden(&b.apps, &plan, &b.arch).unwrap();
    let mapping = Mapping::new(
        &hsys,
        &b.arch,
        [0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 0, 0, 3, 3, 3, 1, 1]
            .into_iter()
            .map(ProcId::new)
            .collect(),
    )
    .unwrap()
    .with_priorities(vec![0, 3, 4, 5, 6, 2, 3, 4, 0, 1, 1, 2, 0, 1, 2, 0, 1]);
    let dropped = b.apps.droppable_apps().collect();
    (b, hsys, mapping, dropped)
}

#[test]
fn table2_safety_orderings() {
    let (b, hsys, mapping, dropped) = table2_design_m1();
    let mc = analyze(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    let naive = analyze_naive(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    let adhoc = adhoc_analysis(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    let wcsim = monte_carlo(
        &hsys,
        &b.arch,
        &mapping,
        &b.policies,
        &MonteCarloConfig {
            runs: 200,
            boost: 1e6,
            sim: SimConfig::worst_case(dropped.clone()),
            ..MonteCarloConfig::default()
        },
    );
    let mut strict_gap = false;
    for app in b.apps.nondroppable_apps() {
        let proposed = mc.app_wcrt(&hsys, app, &dropped);
        assert!(wcsim.app_wcrt[app.index()] <= proposed);
        assert!(adhoc[app.index()] <= proposed);
        assert!(naive.app_wcrt(&hsys, app) >= proposed);
        strict_gap |= naive.app_wcrt(&hsys, app) > proposed;
    }
    assert!(
        strict_gap,
        "the contended sample mapping must show a strict Naive > Proposed gap"
    );
}

#[test]
fn table2_attributes_the_binding_state() {
    let (b, hsys, mapping, dropped) = table2_design_m1();
    let (mc, scenario_app_wcrt) =
        analyze_explained(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    assert_eq!(mc.scenarios, 2, "two re-executed heads → two scenarios");
    for app in b.apps.app_ids() {
        let normal = mc.normal.app_wcrt(&hsys, app);
        match mc.binding_trigger(&hsys, &scenario_app_wcrt, app) {
            // A fault scenario binds: its response must strictly exceed the
            // fault-free one and match the merged worst case.
            Some(trigger) => {
                let (_, wcrts) = scenario_app_wcrt
                    .iter()
                    .find(|(t, _)| *t == trigger)
                    .expect("trigger comes from the scenario list");
                assert!(wcrts[app.index()] > normal);
                assert_eq!(wcrts[app.index()], mc.worst.app_wcrt(&hsys, app));
            }
            // The fault-free state binds: no scenario exceeds it. For
            // speed-control this is the interesting case — in every fault
            // scenario the co-located nav pipeline is certainly dropped,
            // so the *fault-free* hyperperiod is the worst one.
            None => {
                for (_, wcrts) in &scenario_app_wcrt {
                    assert!(wcrts[app.index()] <= normal);
                }
                assert_eq!(mc.worst.app_wcrt(&hsys, app), normal);
            }
        }
    }
    // And specifically: speed-control is normal-bound in design M1.
    assert_eq!(
        mc.binding_trigger(&hsys, &scenario_app_wcrt, AppId::new(0)),
        None
    );
}

#[test]
fn sec52_dropping_saves_power_on_dt_med() {
    let b = dt_med();
    let base = DseConfig {
        ga: GaConfig {
            population: 32,
            generations: 24,
            seed: 8,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::Power,
        policies: Some(b.policies.clone()),
        repair_iters: 60,
        ..DseConfig::default()
    };
    let with = explore(
        &b.apps,
        &b.arch,
        DseConfig {
            allow_dropping: true,
            audit: true,
            ..base.clone()
        },
    );
    let without = explore(
        &b.apps,
        &b.arch,
        DseConfig {
            allow_dropping: false,
            ..base
        },
    );
    let pw = with.best_power().expect("DT-med has feasible designs");
    let pwo = without
        .best_power()
        .expect("DT-med is feasible without dropping too");
    assert!(
        pw <= pwo,
        "allowing dropping explores a superset: {pw} > {pwo}"
    );
    // Rescues happen on DT-med (its droppable deadlines sit in the band).
    assert!(with.audit.rescue_ratio() > 0.0);
    // Re-execution dominates the applied hardenings (§5.2).
    assert!(with.audit.reexecution_share() > 0.5);
}

#[test]
fn fig5_front_spans_the_service_range() {
    let b = dt_med();
    let outcome = explore(
        &b.apps,
        &b.arch,
        DseConfig {
            ga: GaConfig {
                population: 24,
                generations: 25,
                seed: 8,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            policies: Some(b.policies.clone()),
            repair_iters: 60,
            ..DseConfig::default()
        },
    );
    let feasible: Vec<_> = outcome.reports.iter().filter(|r| r.feasible).collect();
    assert!(feasible.len() >= 2, "a front needs at least two points");
    let min_service = feasible
        .iter()
        .map(|r| r.service)
        .fold(f64::INFINITY, f64::min);
    let max_service = feasible
        .iter()
        .map(|r| r.service)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max_service > min_service,
        "the front must trade service for power"
    );
    // Power and service are positively related along the front: the
    // cheapest feasible point does not have the highest service.
    let cheapest = feasible
        .iter()
        .min_by(|a, b| a.power.partial_cmp(&b.power).unwrap())
        .unwrap();
    assert!(cheapest.service < max_service);
}

#[test]
fn every_benchmark_is_explorable() {
    for b in all_benchmarks(42) {
        let outcome = explore(
            &b.apps,
            &b.arch,
            DseConfig {
                ga: GaConfig {
                    population: 28,
                    generations: 18,
                    seed: 9,
                    ..GaConfig::default()
                },
                policies: Some(b.policies.clone()),
                repair_iters: 60,
                ..DseConfig::default()
            },
        );
        assert!(
            outcome.best_power().is_some(),
            "{}: no feasible design at the smoke budget (audit {:?})",
            b.name,
            outcome.audit
        );
        // Sanity on the reported WCRTs of the best design.
        let best = outcome
            .reports
            .iter()
            .filter(|r| r.feasible)
            .min_by(|a, b| a.power.partial_cmp(&b.power).unwrap())
            .unwrap();
        for (id, app) in b.apps.apps() {
            if !best.dropped.contains(&id) {
                assert!(best.app_wcrt[id.index()] <= app.deadline());
                assert!(best.app_wcrt[id.index()] > Time::ZERO);
            }
        }
    }
}
