//! `fleet_scale` — the parallel-evaluation payoff gate.
//!
//! Runs the same fleet exploration twice — serial dispatch (`threads = 1`)
//! and parallel dispatch over the persistent pool — and demands:
//!
//! 1. **bit-identical Pareto fronts** (always asserted: the thread budget
//!    is a pure speed knob);
//! 2. **>2× wall speedup** of parallel over serial — asserted whenever the
//!    host can physically deliver it (persistent-pool capacity ≥ 4
//!    participants). On smaller hosts the speedup is *reported, not
//!    asserted* — the pool has no helpers there, "parallel" degrades to
//!    the same inline loop as serial, and a measured ≈1.0× is the correct,
//!    honest reading (the eval_engine bench takes the same stance). The
//!    gate status is recorded in the JSON so CI on a many-core host
//!    enforces the 2× bar while a laptop run stays green and legible.
//!
//! Writes `results/BENCH_scale.json` (override the directory with
//! `MCMAP_BENCH_OUT`), including both legs' full `EvalStats` — with the
//! per-worker busy/wall utilization ledger — so scatter losses are
//! observable rather than inferred.
//!
//! Budget knobs: `MCMAP_FLEET` (default `fleet-med`), `MCMAP_POP` (default
//! 8), `MCMAP_GENS` (default 2), `MCMAP_THREADS` (default 4).

use criterion::{criterion_group, criterion_main, Criterion};
use mcmap_bench::{env_u64, env_usize};
use mcmap_benchmarks::{fleet, fleet_preset, Benchmark, FleetConfig};
use mcmap_core::{explore, DseConfig, DseOutcome, ObjectiveMode};
use mcmap_eval::pool_capacity;
use mcmap_ga::GaConfig;
use std::time::Instant;

fn dse_cfg(
    b: &Benchmark,
    preset: &FleetConfig,
    threads: usize,
    pop: usize,
    gens: usize,
) -> DseConfig {
    DseConfig {
        ga: GaConfig {
            population: pop,
            generations: gens,
            seed: 8,
            threads,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::PowerService,
        allow_dropping: true,
        policies: Some(b.policies.clone()),
        repair_iters: 40,
        max_reexec: preset.max_reexec,
        max_replicas: preset.max_replicas,
        ..DseConfig::default()
    }
}

fn timed_explore(
    b: &Benchmark,
    preset: &FleetConfig,
    threads: usize,
    pop: usize,
    gens: usize,
) -> (DseOutcome, f64) {
    let t0 = Instant::now();
    let cfg = dse_cfg(b, preset, threads, pop, gens);
    let outcome = explore(&b.apps, &b.arch, cfg);
    (outcome, t0.elapsed().as_secs_f64())
}

fn front_fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

fn bench_fleet_scale(c: &mut Criterion) {
    let preset_name = std::env::var("MCMAP_FLEET").unwrap_or_else(|_| "fleet-med".to_string());
    let preset = fleet_preset(&preset_name)
        .unwrap_or_else(|| panic!("unknown fleet preset {preset_name:?}"));
    let seed = env_u64("MCMAP_SEED", 42);
    let pop = env_usize("MCMAP_POP", 8);
    let gens = env_usize("MCMAP_GENS", 2);
    let par = env_usize("MCMAP_THREADS", 4).max(2);
    let b = fleet(&preset, seed);
    println!(
        "fleet_scale: {} — {} tasks, {} apps, {} PEs (pool capacity {})",
        b.name,
        b.apps.num_tasks(),
        b.apps.num_apps(),
        b.arch.num_processors(),
        pool_capacity(),
    );

    let (serial, wall_1) = timed_explore(&b, &preset, 1, pop, gens);
    let (parallel, wall_n) = timed_explore(&b, &preset, par, pop, gens);

    assert_eq!(
        front_fingerprint(&serial),
        front_fingerprint(&parallel),
        "the Pareto front must be bit-identical for any thread count"
    );
    assert_eq!(serial.eval_stats.genomes, parallel.eval_stats.genomes);

    let speedup = wall_1 / wall_n.max(1e-9);
    // The 2× bar needs ≥4 genuinely parallel participants (2 would cap the
    // ideal speedup at 2.0 exactly); below that the hardware cannot express
    // the property being gated.
    let capacity = pool_capacity();
    let gate_enforced = capacity >= 4;
    if gate_enforced {
        assert!(
            speedup > 2.0,
            "parallel evaluation must beat serial by >2x on {preset_name} \
             (measured {speedup:.2}x at {par} threads, pool capacity {capacity})"
        );
    }
    let util: Vec<String> = parallel
        .eval_stats
        .utilization()
        .iter()
        .map(|u| format!("{:.0}%", u * 100.0))
        .collect();
    println!(
        "fleet_scale/{preset_name}: {wall_1:.3} s serial, {wall_n:.3} s at {par} threads \
         (speedup x{speedup:.2}, gate {}, worker utilization [{}], fronts identical)",
        if gate_enforced {
            "enforced"
        } else {
            "reported only: pool capacity < 4"
        },
        util.join(", "),
    );

    let out_dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    let json = format!(
        "{{\"benchmark\":\"{preset_name}\",\"tasks\":{},\"apps\":{},\"pes\":{},\
         \"population\":{pop},\"generations\":{gens},\"threads\":{par},\
         \"pool_capacity\":{capacity},\
         \"wall_secs_1\":{wall_1:.6},\"wall_secs_n\":{wall_n:.6},\
         \"speedup\":{speedup:.3},\"speedup_required\":2.0,\
         \"speedup_gate_enforced\":{gate_enforced},\
         \"fronts_identical\":true,\
         \"serial\":{},\"parallel\":{}}}\n",
        b.apps.num_tasks(),
        b.apps.num_apps(),
        b.arch.num_processors(),
        serial.eval_stats.to_json(),
        parallel.eval_stats.to_json(),
    );
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let path = format!("{out_dir}/BENCH_scale.json");
    mcmap_resilience::atomic_write(std::path::Path::new(&path), json.as_bytes())
        .expect("write BENCH_scale.json");
    println!("fleet_scale: wrote {path}");

    // A criterion-timed leg on the small preset so the harness also
    // reports a per-iteration figure (tiny budget: the explores above are
    // the real measurement).
    let small = fleet_preset("fleet-small").expect("known preset");
    let sb = fleet(&small, seed);
    let mut group = c.benchmark_group("fleet_scale");
    group.sample_size(10);
    group.bench_function("explore/fleet_small_4x1", |bench| {
        bench.iter(|| explore(&sb.apps, &sb.arch, dse_cfg(&sb, &small, par, 4, 1)))
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_scale);
criterion_main!(benches);
