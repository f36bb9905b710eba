//! Throughput of the discrete-event simulator, the Monte-Carlo driver
//! (the paper's 10 000-profile WC-Sim relies on this being fast) and the
//! fault verdicts a campaign's trajectory memo asks for on every walk.
//! Reports only; nothing here is gated.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcmap_bench::sample_designs;
use mcmap_benchmarks::cruise;
use mcmap_hardening::HTaskId;
use mcmap_sim::{
    monte_carlo, FaultModel, MonteCarloConfig, NoFaults, RandomFaults, SimConfig, Simulator,
};
use std::time::Instant;

/// Profiles per pass and verdicts per profile in the `fault_verdict` leg.
const PROFILES_PER_PASS: u64 = 500;
const VERDICTS_PER_PROFILE: u64 = 4096;

fn bench_sim(c: &mut Criterion) {
    let b = cruise();
    let designs = sample_designs(&b, 1, 11);
    let d = &designs[0];
    let sim = Simulator::new(&d.hsys, &b.arch, &d.mapping, b.policies.clone());

    let mut group = c.benchmark_group("sim_throughput");
    group.bench_function("one_hyperperiod_fault_free", |bench| {
        bench.iter(|| sim.run(&SimConfig::default(), &mut NoFaults))
    });
    group.bench_function("one_hyperperiod_boosted_faults", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut faults = RandomFaults::new(&d.hsys, &b.arch, &d.mapping, seed).with_boost(1e5);
            sim.run(&SimConfig::worst_case(d.dropped.clone()), &mut faults)
        })
    });
    group.bench_function("monte_carlo_100_profiles", |bench| {
        bench.iter(|| {
            monte_carlo(
                &d.hsys,
                &b.arch,
                &d.mapping,
                &b.policies,
                &MonteCarloConfig {
                    runs: 100,
                    boost: 1e5,
                    sim: SimConfig::worst_case(d.dropped.clone()),
                    ..MonteCarloConfig::default()
                },
            )
        })
    });
    group.finish();

    // One profile per seed, asked through `dyn FaultModel` as the memo's
    // walks ask it: every task, instances in order, attempts 0..3. The
    // median of seven passes is reported.
    let model = RandomFaults::new(&d.hsys, &b.arch, &d.mapping, 0).with_boost(1e3);
    let tasks = d.hsys.num_tasks() as u64;
    let mut faults = 0u64;
    let mut walls: Vec<f64> = (0..7u64)
        .map(|pass| {
            let start = Instant::now();
            for seed in pass * PROFILES_PER_PASS..(pass + 1) * PROFILES_PER_PASS {
                let mut profile = model.profile(seed);
                let f: &mut dyn FaultModel = black_box(&mut profile);
                for k in 0..VERDICTS_PER_PROFILE {
                    let task = HTaskId::new((k % tasks) as usize);
                    faults += f.faulty(task, k / tasks / 3, (k / tasks % 3) as u8) as u64;
                }
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    let verdicts = PROFILES_PER_PASS * VERDICTS_PER_PROFILE;
    println!(
        "sim_throughput/fault_verdict: {:.1} M verdicts/s (median of 7 passes of {verdicts} verdicts; {faults} faults)",
        verdicts as f64 / walls[3] / 1e6
    );
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
