//! Criterion-compat harness for the Algorithm 1 **analysis fast path**
//! (dominance pruning of scenario bound vectors), in two parts:
//!
//! 1. a macro A/B run over a heavily hardened DT-med design — the
//!    prune-free reference enumeration ([`AnalysisOptions::reference`])
//!    against the default fast path — asserting **bit-identical** windows
//!    and verdicts while requiring strictly fewer backend calls;
//! 2. criterion-timed legs of both variants for per-iteration figures.
//!
//! The macro part writes a machine-readable summary to
//! `results/BENCH_sched.json` (override the directory with
//! `MCMAP_BENCH_OUT`). Unlike the eval-engine bench, the speedup here *is*
//! asserted (`>= 1.5`): both variants run single-threaded in the same
//! process and the timing is interleaved min-of-batches (preemption can
//! only slow a batch down, never speed it up), so the ratio is a genuine
//! algorithmic measurement, not a core-count or host-load lottery.
//!
//! Budget knob: `MCMAP_ANALYSIS_ITERS` (default 300) timed repetitions per
//! variant, split over ten alternating batches.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcmap_bench::env_usize;
use mcmap_benchmarks::{dt_med, Benchmark};
use mcmap_core::{analyze_with, AnalysisOptions, GenomeSpace, McAnalysis};
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_model::ProcId;
use mcmap_sched::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// DT-med with every task hardened by two re-executions and nothing
/// dropped: every trigger spawns a transition scenario whose bound vector
/// inflates towards the head tasks', which is exactly the workload the
/// dominance pruner is built for. The placement comes
/// from the first clustered chromosome whose reference analysis converges,
/// so both timed variants chase real fixed points rather than saturating.
fn hardened_dt_med() -> (Benchmark, HardenedSystem, Mapping) {
    let b = dt_med();
    let mut plan = HardeningPlan::unhardened(&b.apps);
    for flat in 0..b.apps.task_refs().len() {
        plan.set_by_flat_index(flat, TaskHardening::reexecution(2));
    }
    let hsys = harden(&b.apps, &plan, &b.arch).expect("uniform re-execution plans are valid");
    let space = GenomeSpace::new(&b.apps, &b.arch);
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = space.clustered(&mut rng);
        let (_, _, bindings) = space.decode(&g);
        let placement: Vec<ProcId> = hsys
            .tasks()
            .map(|(id, t)| t.fixed_proc.unwrap_or(bindings[hsys.flat_of(id)]))
            .collect();
        let Ok(mapping) = Mapping::new(&hsys, &b.arch, placement) else {
            continue;
        };
        let probe = analyze_with(
            &hsys,
            &b.arch,
            &mapping,
            &b.policies,
            &[],
            AnalysisOptions::reference(),
        );
        if probe.normal.converged && probe.worst.converged {
            return (b, hsys, mapping);
        }
    }
    panic!("no clustered DT-med placement converges under full re-execution");
}

fn run(
    b: &Benchmark,
    hsys: &HardenedSystem,
    mapping: &Mapping,
    opts: AnalysisOptions,
) -> McAnalysis {
    analyze_with(hsys, &b.arch, mapping, &b.policies, &[], opts)
}

/// Wall time of `iters` repetitions of one variant, in seconds.
fn timed(
    b: &Benchmark,
    hsys: &HardenedSystem,
    mapping: &Mapping,
    opts: AnalysisOptions,
    iters: usize,
) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(run(b, hsys, mapping, opts));
    }
    t0.elapsed().as_secs_f64()
}

/// Interleaved min-of-batches wall time of both variants: `batches`
/// alternating (cold, fast) batch timings of `per_batch` repetitions each,
/// keeping each variant's fastest batch. The minimum estimates the
/// undisturbed cost — a preempted batch can only be slower, never faster —
/// and interleaving exposes both variants to the same host-load phases, so
/// the ratio measures the algorithm instead of the scheduler.
fn min_walls(
    b: &Benchmark,
    hsys: &HardenedSystem,
    mapping: &Mapping,
    batches: usize,
    per_batch: usize,
) -> (f64, f64) {
    let mut best_cold = f64::INFINITY;
    let mut best_fast = f64::INFINITY;
    for _ in 0..batches {
        best_cold = best_cold.min(timed(
            b,
            hsys,
            mapping,
            AnalysisOptions::reference(),
            per_batch,
        ));
        best_fast = best_fast.min(timed(
            b,
            hsys,
            mapping,
            AnalysisOptions::default(),
            per_batch,
        ));
    }
    (best_cold, best_fast)
}

fn bench_wcrt_macro(c: &mut Criterion) {
    let (b, hsys, mapping) = hardened_dt_med();
    let iters = env_usize("MCMAP_ANALYSIS_ITERS", 300).max(1);

    let cold = run(&b, &hsys, &mapping, AnalysisOptions::reference());
    let fast = run(&b, &hsys, &mapping, AnalysisOptions::default());

    // The fast path is an optimization, not an approximation: identical
    // windows, verdicts, and classification — only the effort counters may
    // (and must) improve.
    assert_eq!(cold.normal, fast.normal, "normal-state windows must match");
    assert_eq!(cold.worst, fast.worst, "worst-case windows must match");
    assert_eq!(
        cold.schedulable(&hsys, &[]),
        fast.schedulable(&hsys, &[]),
        "verdict must match"
    );
    assert_eq!(cold.scenarios, fast.scenarios);
    assert!(
        fast.backend_calls < cold.backend_calls,
        "pruning must strictly reduce backend calls ({} vs {})",
        fast.backend_calls,
        cold.backend_calls
    );
    assert!(
        fast.scenarios_pruned > 0,
        "the workload must exercise the pruner"
    );

    // Warm both code paths above; now the timed legs. Ten alternating
    // batches per variant, scored by the fastest batch (see [`min_walls`]).
    let batches = 10;
    let per_batch = iters.div_ceil(batches);
    let (wall_cold, wall_fast) = min_walls(&b, &hsys, &mapping, batches, per_batch);
    let speedup = wall_cold / wall_fast.max(1e-9);

    println!(
        "wcrt_analysis/dt_med: cold {:.2} ms, fast {:.2} ms (best of {batches} \
         batches x {per_batch} iters; speedup x{speedup:.2}; backend calls {} -> {}, \
         {} of {} scenarios pruned)",
        wall_cold * 1e3,
        wall_fast * 1e3,
        cold.backend_calls,
        fast.backend_calls,
        fast.scenarios_pruned,
        fast.scenarios,
    );
    assert!(
        speedup >= 1.5,
        "the fast path must be at least 1.5x the cold enumeration (got x{speedup:.2})"
    );

    let out_dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    let json = format!(
        "{{\"benchmark\":\"dt-med-hardened\",\"tasks\":{},\"scenarios\":{},\
         \"batches\":{batches},\"iters_per_batch\":{per_batch},\
         \"wall_secs_cold\":{wall_cold:.6},\
         \"wall_secs_fast\":{wall_fast:.6},\"speedup\":{speedup:.3},\
         \"backend_calls_cold\":{},\"backend_calls_fast\":{},\
         \"scenarios_pruned\":{},\
         \"fixedpoint_iters_cold\":{},\"fixedpoint_iters_fast\":{},\
         \"windows_identical\":true}}\n",
        hsys.num_tasks(),
        fast.scenarios,
        cold.backend_calls,
        fast.backend_calls,
        fast.scenarios_pruned,
        cold.fixedpoint_iters,
        fast.fixedpoint_iters,
    );
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let path = format!("{out_dir}/BENCH_sched.json");
    mcmap_resilience::atomic_write(std::path::Path::new(&path), json.as_bytes())
        .expect("write BENCH_sched.json");
    println!("wcrt_analysis/dt_med: wrote {path}");

    // Criterion-timed legs for per-iteration figures (the asserts above
    // are the real gate).
    let mut group = c.benchmark_group("wcrt_analysis");
    group.sample_size(10);
    group.bench_function("dt_med/cold_reference", |bench| {
        bench.iter(|| run(&b, &hsys, &mapping, AnalysisOptions::reference()))
    });
    group.bench_function("dt_med/fast_path", |bench| {
        bench.iter(|| run(&b, &hsys, &mapping, AnalysisOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_wcrt_macro);
criterion_main!(benches);
