//! Gate for the Algorithm 1 **analysis fast path** (dominance pruning of
//! scenario bound vectors): an A/B run over a heavily hardened DT-med
//! design — the prune-free reference enumeration
//! ([`AnalysisOptions::reference`]) against the default fast path —
//! asserting **bit-identical** windows and verdicts while requiring
//! strictly fewer backend calls.
//!
//! The bench writes a machine-readable summary to
//! `results/BENCH_sched.json` (override the directory with
//! `MCMAP_BENCH_OUT`). Unlike the eval-engine bench, the speedup here *is*
//! asserted (`>= 1.5`): both variants run single-threaded in the same
//! process, and the gate reads the median of the per-pair speedups of
//! [`mcmap_bench::ab`]'s alternating (fast, cold) batches, so the ratio is
//! a genuine algorithmic measurement, not a core-count or host-load
//! lottery.

use mcmap_bench::{ab, write_artifact};
use mcmap_benchmarks::{dt_med, Benchmark};
use mcmap_core::{analyze_with, AnalysisOptions, GenomeSpace};
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_sched::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Analyses per leg: one leg times a batch, since one analysis is far
/// shorter than the host's scheduling noise.
const BATCH: usize = 30;

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
        let placement = hsys.placement(&bindings);
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

fn main() {
    let (b, hsys, mapping) = hardened_dt_med();
    let run = |opts| analyze_with(&hsys, &b.arch, &mapping, &b.policies, &[], opts);
    let cold = run(AnalysisOptions::reference());
    let fast = run(AnalysisOptions::default());

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

    // Both code paths are warm from the runs above; now the timed legs.
    let batch = |opts| {
        for _ in 0..BATCH {
            black_box(run(opts));
        }
    };
    let m = ab::measure(&mut [&mut || batch(AnalysisOptions::default()), &mut || {
        batch(AnalysisOptions::reference())
    }]);
    let speedup = m.ratio(1).median;

    println!(
        "wcrt_analysis/dt_med: cold {:.2} ms, fast {:.2} ms (median batches of {BATCH}; \
         median paired speedup x{speedup:.2}, {} retries; backend calls {} -> {}, \
         {} of {} scenarios pruned)",
        m.wall(1) * 1e3,
        m.wall(0) * 1e3,
        m.retries.len(),
        cold.backend_calls,
        fast.backend_calls,
        fast.scenarios_pruned,
        fast.scenarios,
    );
    write_artifact(
        "BENCH_sched.json",
        &format!(
            "{{\"benchmark\":\"dt-med-hardened\",\"tasks\":{},\"scenarios\":{},\
             \"iters_per_batch\":{BATCH},{},\"speedup_floor\":1.5,\
             \"backend_calls_cold\":{},\"backend_calls_fast\":{},\
             \"scenarios_pruned\":{},\
             \"fixedpoint_iters_cold\":{},\"fixedpoint_iters_fast\":{},\
             \"windows_identical\":true}}\n",
            hsys.num_tasks(),
            fast.scenarios,
            m.json(1, ["fast", "cold"]),
            cold.backend_calls,
            fast.backend_calls,
            fast.scenarios_pruned,
            cold.fixedpoint_iters,
            fast.fixedpoint_iters,
        ),
    );
    assert!(
        speedup >= 1.5,
        "the fast path must be at least 1.5x the cold enumeration (got x{speedup:.2})"
    );
}
