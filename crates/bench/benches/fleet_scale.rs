//! `fleet_scale` — the parallel-evaluation payoff gate.
//!
//! Runs the same fleet exploration with serial dispatch (`threads = 1`)
//! and with parallel dispatch at `MCMAP_THREADS`, in five alternating
//! pairs, and demands:
//!
//! 1. **bit-identical Pareto fronts** (always asserted: the thread budget
//!    is a pure speed knob);
//! 2. **a wall speedup of at least 0.6 × min(threads, cores)** of parallel
//!    over serial, asserted whenever that minimum is ≥ 2 (1.2× on a 2-core
//!    host, 2.4× at 4 threads on 4 cores). The 0.6 factor leaves room for
//!    the serial GA selection between batches and for batches that do not
//!    divide evenly. On a single-core host no parallel speedup is
//!    physically possible, so the speedup is *reported, not asserted*, and
//!    the JSON records `speedup_gate_enforced: false`. The speedup is the
//!    median of the five per-pair speedups, and the JSON's walls are each
//!    leg's median.
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

/// Alternating serial/parallel pairs behind the measured speedup.
const REPS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let b = fleet(&preset, seed);
    println!(
        "fleet_scale: {} — {} tasks, {} apps, {} PEs ({cores} cores)",
        b.name,
        b.apps.num_tasks(),
        b.apps.num_apps(),
        b.arch.num_processors(),
    );

    // Serial and parallel runs alternate in pairs, and the gate reads the
    // median of the per-pair speedups: on a shared host the work a core
    // gets done varies by tens of percent from one run to the next, and
    // a pair sees the same phase of that noise on both legs.
    let (mut walls_1, mut walls_n, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    let mut legs = None;
    for _ in 0..REPS {
        let (serial, w1) = timed_explore(&b, &preset, 1, pop, gens);
        let (parallel, wn) = timed_explore(&b, &preset, par, pop, gens);
        walls_1.push(w1);
        walls_n.push(wn);
        speedups.push(w1 / wn.max(1e-9));
        legs = Some((serial, parallel));
    }
    let (serial, parallel) = legs.expect("at least one rep");
    let (wall_1, wall_n, speedup) = (median(walls_1), median(walls_n), median(speedups));

    assert_eq!(
        front_fingerprint(&serial),
        front_fingerprint(&parallel),
        "the Pareto front must be bit-identical for any thread count"
    );
    assert_eq!(serial.eval_stats.genomes, parallel.eval_stats.genomes);

    let usable = par.min(cores);
    let required = 0.6 * usable as f64;
    let gate_enforced = usable >= 2;
    if gate_enforced {
        assert!(
            speedup >= required,
            "parallel evaluation must beat serial by >= {required:.1}x on {preset_name} \
             (measured {speedup:.2}x at {par} threads on {cores} cores)"
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
            format!("x{required:.1} enforced")
        } else {
            "reported only: one core".to_string()
        },
        util.join(", "),
    );

    let out_dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    let json = format!(
        "{{\"benchmark\":\"{preset_name}\",\"tasks\":{},\"apps\":{},\"pes\":{},\
         \"population\":{pop},\"generations\":{gens},\"threads\":{par},\
         \"cores\":{cores},\
         \"wall_secs_1\":{wall_1:.6},\"wall_secs_n\":{wall_n:.6},\
         \"speedup\":{speedup:.3},\"speedup_required\":{required:.1},\
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
