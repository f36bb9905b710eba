//! Scaling of the mixed-criticality analysis with system size (§3 claims
//! O(|V|² + |V|·C) around a backend of complexity C): Algorithm 1 over
//! synthetic systems of growing task count, against the single-run Naive
//! analysis (the "no transition enumeration" ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmap_benchmarks::{synth, SynthConfig};
use mcmap_core::{analyze, analyze_naive, GenomeSpace};
use mcmap_hardening::harden;
use mcmap_sched::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scaled_system(
    apps_n: usize,
    tasks: usize,
) -> (
    mcmap_benchmarks::Benchmark,
    mcmap_hardening::HardenedSystem,
    Mapping,
) {
    let cfg = SynthConfig {
        num_apps: apps_n,
        tasks_per_app: (tasks, tasks),
        ..SynthConfig::default()
    };
    let b = synth(&cfg, 3);
    let space = GenomeSpace::new(&b.apps, &b.arch);
    let mut rng = StdRng::seed_from_u64(1);
    let g = space.clustered(&mut rng);
    let (plan, _, bindings) = space.decode(&g);
    let hsys = harden(&b.apps, &plan, &b.arch).expect("clustered plans are valid");
    let placement = hsys.placement(&bindings);
    let mapping = Mapping::new(&hsys, &b.arch, placement).expect("clustered plans map");
    (b, hsys, mapping)
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_scaling");
    for (apps_n, tasks) in [(2usize, 4usize), (4, 6), (6, 8), (8, 10)] {
        let (b, hsys, mapping) = scaled_system(apps_n, tasks);
        let n = hsys.num_tasks();
        group.bench_with_input(BenchmarkId::new("proposed", n), &n, |bench, _| {
            bench.iter(|| analyze(&hsys, &b.arch, &mapping, &b.policies, &[]))
        });
        group.bench_with_input(BenchmarkId::new("naive_single_run", n), &n, |bench, _| {
            bench.iter(|| analyze_naive(&hsys, &b.arch, &mapping, &b.policies, &[]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
