//! Criterion bench for the Fig. 5 bi-objective exploration (power +
//! service) on DT-med, plus the SPEA-II selection primitive itself.

use criterion::{criterion_group, criterion_main, Criterion};
use mcmap_benchmarks::dt_med;
use mcmap_core::{explore, DseConfig, ObjectiveMode};
use mcmap_ga::{environmental_selection, Evaluation, GaConfig, Individual};

fn bench_pareto(c: &mut Criterion) {
    let b = dt_med();
    let cfg = DseConfig {
        ga: GaConfig {
            population: 16,
            generations: 4,
            seed: 8,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::PowerService,
        policies: Some(b.policies.clone()),
        repair_iters: 40,
        ..DseConfig::default()
    };

    let mut group = c.benchmark_group("pareto_front");
    group.sample_size(10);
    group.bench_function("dt_med_bi_objective_dse", |bench| {
        bench.iter(|| explore(&b.apps, &b.arch, cfg.clone()))
    });

    // The SPEA-II environmental-selection primitive in the dse-paper shape:
    // population ∪ archive at population 96 is a 192-member pool. Here it
    // is one convex front of 64 distinct points, each present three times,
    // so every member is non-dominated and truncation removes 96 of them.
    let pool: Vec<Individual<usize>> = (0..192)
        .map(|i| {
            let x = (i % 64) as f64 / 63.0;
            Individual::new(i, Evaluation::feasible(vec![x, 1.0 - x.sqrt()]))
        })
        .collect();
    group.bench_function("spea2_selection_192", |bench| {
        bench.iter(|| environmental_selection(&pool, 96))
    });
    group.finish();
}

criterion_group!(benches, bench_pareto);
criterion_main!(benches);
