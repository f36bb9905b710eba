//! Ablation: the pessimism gap between the Naive analysis and Algorithm 1
//! as the dropped-application share grows, on the contended Table 2 Cruise
//! design (droppable pipelines sharing processors with the hardened control
//! chains — isolated designs show no gap by construction). The gap values
//! are printed at start-up so `cargo bench` output records them; the timing
//! comparison shows what the extra scenario enumeration costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmap_benchmarks::cruise;
use mcmap_core::{analyze, analyze_naive};
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_model::{AppId, ProcId};
use mcmap_sched::Mapping;

/// The Table 2 "Mapping 1" design: heads re-executed, nav's tail pressing
/// on the speed chain, sensor-side droppables pressing on the brake chain.
fn contended_design() -> (mcmap_benchmarks::Benchmark, HardenedSystem, Mapping) {
    let b = cruise();
    let mut plan = HardeningPlan::unhardened(&b.apps);
    plan.set_by_flat_index(0, TaskHardening::Reexec(1));
    plan.set_by_flat_index(5, TaskHardening::Reexec(1));
    let hsys = harden(&b.apps, &plan, &b.arch).expect("static design");
    let mapping = Mapping::new(
        &hsys,
        &b.arch,
        [0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 0, 0, 3, 3, 3, 1, 1]
            .into_iter()
            .map(ProcId::new)
            .collect(),
    )
    .expect("static design")
    .with_priorities(vec![0, 3, 4, 5, 6, 2, 3, 4, 0, 1, 1, 2, 0, 1, 2, 0, 1]);
    (b, hsys, mapping)
}

fn bench_pessimism(c: &mut Criterion) {
    let (b, hsys, mapping) = contended_design();
    // Grow the dropped set one application at a time.
    let drop_sets: Vec<(&str, Vec<AppId>)> = vec![
        ("none", vec![]),
        ("nav", vec![AppId::new(2)]),
        ("nav+info", vec![AppId::new(2), AppId::new(3)]),
        ("all", vec![AppId::new(2), AppId::new(3), AppId::new(4)]),
    ];

    let mut group = c.benchmark_group("ablation_pessimism");
    for (label, dropped) in &drop_sets {
        let mc = analyze(&hsys, &b.arch, &mapping, &b.policies, dropped);
        let naive = analyze_naive(&hsys, &b.arch, &mapping, &b.policies, dropped);
        let gap: u64 = b
            .apps
            .nondroppable_apps()
            .map(|a| {
                naive
                    .app_wcrt(&hsys, a)
                    .saturating_sub(mc.app_wcrt(&hsys, a, dropped))
                    .ticks()
            })
            .sum();
        println!(
            "dropped = {label}: cumulative naive-vs-proposed gap on critical apps = {gap} ticks \
             ({} scenarios, {} backend calls)",
            mc.scenarios, mc.backend_calls
        );

        group.bench_with_input(BenchmarkId::new("proposed", label), label, |bench, _| {
            bench.iter(|| analyze(&hsys, &b.arch, &mapping, &b.policies, dropped))
        });
        group.bench_with_input(BenchmarkId::new("naive", label), label, |bench, _| {
            bench.iter(|| analyze_naive(&hsys, &b.arch, &mapping, &b.policies, dropped))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pessimism);
criterion_main!(benches);
