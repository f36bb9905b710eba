//! Criterion-compat harness for the `mcmap-eval` candidate-evaluation
//! engine, in two parts:
//!
//! 1. micro-benchmarks of the engine primitives (`parallel_map` scatter /
//!    gather, memoization-cache hits);
//! 2. a macro run of the fig5-style DT-med exploration at 1 worker vs. N
//!    workers, asserting **bit-identical** Pareto fronts on every run and
//!    recording the measured speedup and cache hit rate.
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
//! the median of the per-pair speedups of [`mcmap_bench::ab`]'s
//! alternating serial/parallel pairs). The host's core count is recorded
//! in the JSON so a ≈1.0× speedup is legible as "one core", not "engine
//! regressed".
//!
//! Budget knobs: `MCMAP_POP` (default 24), `MCMAP_GENS` (default 6),
//! `MCMAP_THREADS` (default 4) for the parallel leg.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcmap_bench::{cores, env_usize, serial_vs_parallel, write_artifact};
use mcmap_benchmarks::{dt_med, Benchmark};
use mcmap_core::{explore, DseConfig, ObjectiveMode};
use mcmap_eval::{parallel_map, EvalEngine};
use mcmap_ga::GaConfig;

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

fn bench_explore_macro(_: &mut Criterion) {
    let b = dt_med();
    let pop = env_usize("MCMAP_POP", 24);
    let gens = env_usize("MCMAP_GENS", 6);
    let par = env_usize("MCMAP_THREADS", 4).max(2);
    let (serial, parallel, m) = serial_vs_parallel(par, |threads| {
        explore(&b.apps, &b.arch, dse_cfg(&b, threads, pop, gens))
    });
    let speedup = m.ratio(1).median;
    let hit_rate = parallel.eval_stats.hit_rate();
    println!(
        "eval_engine/explore: {:.4} s at 1 thread, {:.4} s at {par} threads \
         (median paired speedup x{speedup:.2} >= x0.95, {} retries, cache hit rate {:.1}%, \
         fronts identical)",
        m.wall(1),
        m.wall(0),
        m.retries.len(),
        hit_rate * 100.0
    );
    write_artifact(
        "BENCH_eval.json",
        &format!(
            "{{\"benchmark\":\"dt-med\",\"population\":{pop},\"generations\":{gens},\
             \"threads\":{par},\"cores\":{},{},\"speedup_floor\":0.95,\
             \"fronts_identical\":true,\"serial\":{},\"parallel\":{}}}\n",
            cores(),
            m.json(1, ["parallel", "serial"]),
            serial.eval_stats.to_json(),
            parallel.eval_stats.to_json()
        ),
    );
    // The small-batch regression gate: a multi-threaded run of a workload
    // this small must cost no more than serial, because scoped-thread
    // dispatch is cheap enough not to matter.
    assert!(
        speedup >= 0.95,
        "parallel dispatch thrashed a small workload: x{speedup:.2} < x0.95 \
         ({} batches)",
        parallel.eval_stats.batches,
    );
}

criterion_group!(benches, bench_engine_micro, bench_explore_macro);
criterion_main!(benches);
