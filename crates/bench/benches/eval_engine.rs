//! Criterion-compat harness for the `mcmap-eval` candidate-evaluation
//! engine, in two parts:
//!
//! 1. micro-benchmarks of the engine primitives (`parallel_map` scatter /
//!    gather, memoization-cache hits);
//! 2. a macro run of the fig5-style DT-med exploration at 1 worker vs. N
//!    workers, asserting **bit-identical** Pareto fronts and recording the
//!    measured speedup and cache hit rate.
//!
//! The macro part writes a machine-readable summary to
//! `results/BENCH_eval.json` (override the directory with
//! `MCMAP_BENCH_OUT`). The *upside* of parallelism is reported, not
//! asserted — on a single-core host the parallel run cannot be faster,
//! and the engine's determinism guarantee is exactly that thread count
//! never changes results, only wall-clock. The *downside* IS asserted:
//! a multi-threaded run of a small workload must never thrash: the
//! per-batch cost of spawning scoped helpers must stay small next to the
//! batch, so the parallel leg stays within 5 % of serial (speedup ≥ 0.95×,
//! min-of-5 walls to shed scheduler noise). The host's core count is
//! recorded in the JSON so a ≈1.0× speedup is legible as "one core", not
//! "engine regressed".
//!
//! Budget knobs: `MCMAP_POP` (default 24), `MCMAP_GENS` (default 6),
//! `MCMAP_THREADS` (default 4) for the parallel leg.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcmap_bench::env_usize;
use mcmap_benchmarks::{dt_med, Benchmark};
use mcmap_core::{explore, DseConfig, DseOutcome, ObjectiveMode};
use mcmap_eval::{parallel_map, EvalEngine};
use mcmap_ga::GaConfig;
use std::time::Instant;

fn dse_cfg(b: &Benchmark, threads: usize, pop: usize, gens: usize) -> DseConfig {
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
        ..DseConfig::default()
    }
}

/// Runs one exploration five times and returns the last outcome plus
/// the *minimum* wall time — the standard way to measure a short run
/// without scheduler noise dominating the figure.
fn timed_explore(b: &Benchmark, threads: usize, pop: usize, gens: usize) -> (DseOutcome, f64) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        let o = explore(&b.apps, &b.arch, dse_cfg(b, threads, pop, gens));
        best = best.min(t0.elapsed().as_secs_f64());
        outcome = Some(o);
    }
    (outcome.expect("at least one rep"), best)
}

/// The comparable fingerprint of an exploration: the full report list
/// (feasible flag, objectives, dropped sets) in front order.
fn front_fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

fn bench_engine_micro(c: &mut Criterion) {
    let items: Vec<u64> = (0..256).collect();
    let mut group = c.benchmark_group("eval_engine");
    group.bench_function("parallel_map/256x2t", |bench| {
        bench.iter(|| parallel_map(&items, 2, |&g| black_box(g).wrapping_mul(0x9E37_79B9)))
    });
    let engine: EvalEngine<u64> = EvalEngine::new(65_536, &"micro");
    let eval = |&g: &u64, _| g.wrapping_mul(3);
    engine.evaluate_batch(&items, 1, 0, |_| {}, eval);
    group.bench_function("cache_hit/256", |bench| {
        bench.iter(|| engine.evaluate_batch(&items, 1, 0, |_| {}, eval))
    });
    group.finish();
}

fn bench_explore_macro(c: &mut Criterion) {
    let b = dt_med();
    let pop = env_usize("MCMAP_POP", 24);
    let gens = env_usize("MCMAP_GENS", 6);
    let par = env_usize("MCMAP_THREADS", 4).max(2);

    let (serial, wall_1) = timed_explore(&b, 1, pop, gens);
    let (parallel, wall_n) = timed_explore(&b, par, pop, gens);

    assert_eq!(
        front_fingerprint(&serial),
        front_fingerprint(&parallel),
        "the Pareto front must be bit-identical for any thread count"
    );
    assert_eq!(serial.eval_stats.genomes, parallel.eval_stats.genomes);

    let speedup = wall_1 / wall_n.max(1e-9);
    let hit_rate = parallel.eval_stats.hit_rate();
    // The small-batch regression gate: a multi-threaded run of a workload
    // this small must cost no more than serial, because scoped-thread
    // dispatch is cheap enough not to matter. min-of-5 walls make the 5 %
    // tolerance about dispatch overhead, not scheduler noise.
    assert!(
        speedup >= 0.95,
        "parallel dispatch thrashed a small workload: x{speedup:.2} < x0.95 \
         ({} batches)",
        parallel.eval_stats.batches,
    );
    println!(
        "eval_engine/explore: {wall_1:.3} s at 1 thread, {wall_n:.3} s at {par} threads \
         (speedup x{speedup:.2} >= x0.95, cache hit rate {:.1}%, fronts identical)",
        hit_rate * 100.0
    );

    let out_dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    // Record the core count so a speedup near 1.0 is legible as "one
    // core", not "engine regressed".
    let json = format!(
        "{{\"benchmark\":\"dt-med\",\"population\":{pop},\"generations\":{gens},\
         \"threads\":{par},\"wall_secs_1\":{wall_1:.6},\"wall_secs_n\":{wall_n:.6},\
         \"speedup\":{speedup:.3},\"speedup_floor\":0.95,\
         \"cores\":{},\"fronts_identical\":true,\
         \"serial\":{},\"parallel\":{}}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        serial.eval_stats.to_json(),
        parallel.eval_stats.to_json()
    );
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let path = format!("{out_dir}/BENCH_eval.json");
    mcmap_resilience::atomic_write(std::path::Path::new(&path), json.as_bytes())
        .expect("write BENCH_eval.json");
    println!("eval_engine/explore: wrote {path}");

    // One criterion-timed leg so the harness also reports a per-iteration
    // figure (small budget: the explores above are the real measurement).
    let mut group = c.benchmark_group("eval_engine");
    group.sample_size(10);
    group.bench_function("explore/dt_med_16x3", |bench| {
        bench.iter(|| explore(&b.apps, &b.arch, dse_cfg(&b, par, 16, 3)))
    });
    group.finish();
}

criterion_group!(benches, bench_engine_micro, bench_explore_macro);
criterion_main!(benches);
