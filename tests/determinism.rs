//! Determinism suite for the `mcmap-eval` candidate-evaluation engine and
//! the `mcmap-obs` tracing layer: the `--threads` knob must be *purely* a
//! speed knob. At a fixed seed, any thread count produces the same Pareto
//! front, objective vectors, and per-genome accounting; the memoization
//! cache is transparent — turning it off changes nothing but wall-clock —
//! and tracing is a read-only observer whose *canonical* event stream is
//! itself bit-identical for any thread count or cache capacity.

use mcmap::benchmarks::cruise;
use mcmap::core::{
    explore, AnalysisOptions, DseConfig, DseOutcome, MappingProblem, MetricsSink, ObjectiveMode,
};
use mcmap::ga::GaConfig;
use mcmap::hardening::harden;
use mcmap::obs::{canonical_trace, Recorder, RecorderBuilder};
use mcmap::resilience::fnv1a64;
use mcmap::serve::JobSpec;
use mcmap::telemetry::Registry;
use proptest::prelude::*;

fn outcome_with(threads: usize, cache_cap: usize, seed: u64) -> DseOutcome {
    outcome_traced(threads, cache_cap, seed, false)
}

fn outcome_traced(threads: usize, cache_cap: usize, seed: u64, traced: bool) -> DseOutcome {
    let obs = if traced {
        Recorder::ring(1 << 18)
    } else {
        Recorder::default()
    };
    outcome_observed(threads, cache_cap, seed, obs)
}

/// A traced seed-8 exploration whose events a `MetricsSink` also folds,
/// with the canonical (deterministic) snapshot of that fold as JSON.
fn outcome_metered(threads: usize, cache_cap: usize) -> (DseOutcome, String) {
    let reg = Registry::new();
    let obs = RecorderBuilder::new()
        .ring(1 << 18)
        .sink(Box::new(MetricsSink::new(reg.clone())))
        .build();
    let outcome = outcome_observed(threads, cache_cap, 8, obs);
    (outcome, reg.snapshot_canonical().to_json())
}

/// The fully-knobbed exploration: worker threads, cache capacity, and the
/// recorder observing it.
fn outcome_observed(threads: usize, cache_cap: usize, seed: u64, obs: Recorder) -> DseOutcome {
    let b = cruise();
    explore(
        &b.apps,
        &b.arch,
        DseConfig {
            ga: GaConfig {
                population: 12,
                generations: 4,
                seed,
                threads,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            allow_dropping: true,
            policies: Some(b.policies.clone()),
            repair_iters: 40,
            cache_cap,
            obs,
            ..DseConfig::default()
        },
    )
}

/// The canonicalized trace of an outcome (non-deterministic payload such as
/// wall-clock and cache hit/miss splits stripped).
fn trace_of(o: &DseOutcome) -> String {
    canonical_trace(&o.obs.events())
}

/// The full comparable state of an exploration: every front report
/// (feasibility, power, service, dropped set) in front order.
fn fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

#[test]
fn pareto_front_is_identical_for_1_2_and_8_threads() {
    let serial = outcome_with(1, 65_536, 8);
    let two = outcome_with(2, 65_536, 8);
    let eight = outcome_with(8, 65_536, 8);

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&two),
        "2 worker threads changed the Pareto front"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&eight),
        "8 worker threads changed the Pareto front"
    );

    // The engine accounts every submitted genome exactly once, so the
    // evaluation counts agree too (cache hit/miss split may differ across
    // thread counts — first-fill races are benign — but the genome and
    // batch totals may not).
    assert_eq!(serial.eval_stats.genomes, two.eval_stats.genomes);
    assert_eq!(serial.eval_stats.genomes, eight.eval_stats.genomes);
    assert_eq!(serial.eval_stats.batches, eight.eval_stats.batches);
    assert_eq!(serial.audit.evaluated, eight.audit.evaluated);
}

#[test]
fn canonical_trace_is_identical_for_1_2_and_8_threads() {
    let serial = outcome_traced(1, 65_536, 8, true);
    let two = outcome_traced(2, 65_536, 8, true);
    let eight = outcome_traced(8, 65_536, 8, true);

    // Tracing must not perturb the search itself…
    assert_eq!(fingerprint(&serial), fingerprint(&two));
    assert_eq!(fingerprint(&serial), fingerprint(&eight));
    let untraced = outcome_with(1, 65_536, 8);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&untraced),
        "tracing changed the Pareto front"
    );

    // …and the canonical event stream must itself be deterministic.
    let reference = trace_of(&serial);
    assert!(!reference.is_empty(), "traced run produced no events");
    assert_eq!(
        reference,
        trace_of(&two),
        "2 worker threads changed the canonical trace"
    );
    assert_eq!(
        reference,
        trace_of(&eight),
        "8 worker threads changed the canonical trace"
    );

    // The canonical rendering must not leak non-deterministic payload.
    assert!(!reference.contains("nondet"));
    assert!(!reference.contains("wall_ns"));
    assert!(!reference.contains("cache_hits"));
}

#[test]
fn canonical_trace_is_identical_for_any_cache_capacity() {
    let cached = outcome_traced(2, 65_536, 8, true);
    let tiny = outcome_traced(2, 64, 8, true);
    let bare = outcome_traced(1, 0, 8, true);

    assert_eq!(fingerprint(&cached), fingerprint(&bare));
    let reference = trace_of(&cached);
    assert_eq!(
        reference,
        trace_of(&tiny),
        "a 64-entry cache changed the canonical trace"
    );
    assert_eq!(
        reference,
        trace_of(&bare),
        "disabling the cache changed the canonical trace"
    );
}

#[test]
fn canonical_trace_is_identical_with_telemetry_enabled_at_any_threads() {
    // The metrics fold must be a read-only observer exactly like tracing:
    // same front and canonical trace, and the deterministic series
    // (`eval.batch`, `sched.analyze` and their canonical field histograms)
    // replay identically for any thread count or cache capacity.
    let front = fingerprint(&outcome_with(1, 65_536, 8));
    let trace = trace_of(&outcome_traced(1, 65_536, 8, true));
    let (_, det) = outcome_metered(1, 65_536);
    assert!(
        det.contains("\"sched.analyze.fixedpoint_iters\"")
            && det.contains("\"eval.batch.genomes\""),
        "canonical snapshot lost its deterministic series: {det}"
    );
    assert!(!det.contains("wall_ns") && !det.contains("analysis_ns"));
    for (threads, cache_cap) in [(1, 65_536), (2, 65_536), (8, 65_536), (2, 64), (1, 0)] {
        let (outcome, other) = outcome_metered(threads, cache_cap);
        let knobs = format!("{threads} threads, cache capacity {cache_cap}");
        assert_eq!(
            fingerprint(&outcome),
            front,
            "{knobs}: sink changed the front"
        );
        assert_eq!(trace_of(&outcome), trace, "{knobs}: sink changed the trace");
        assert_eq!(other, det, "{knobs}: a deterministic metric moved");
    }
}

/// A smoke-budget exploration of a generated fleet preset: the same
/// determinism contract must hold on the workloads parallel evaluation
/// was built for, including their deeper hardening spaces.
fn fleet_outcome(threads: usize, seed: u64) -> DseOutcome {
    let preset = mcmap::benchmarks::fleet_small_config();
    let b = mcmap::benchmarks::fleet(&preset, 7);
    explore(
        &b.apps,
        &b.arch,
        DseConfig {
            ga: GaConfig {
                population: 8,
                generations: 2,
                seed,
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
        },
    )
}

#[test]
fn fleet_front_is_identical_for_any_thread_count() {
    let serial = fleet_outcome(1, 8);
    let four = fleet_outcome(4, 8);
    let two = fleet_outcome(2, 8);

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&four),
        "4 worker threads changed the fleet Pareto front"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&two),
        "2 worker threads changed the fleet Pareto front"
    );
    assert_eq!(serial.eval_stats.genomes, four.eval_stats.genomes);
    assert_eq!(serial.audit.evaluated, two.audit.evaluated);
}

/// The `mcmap_cli dse <bench> <pop> <gens> --threads 2 --audit`
/// exploration of `b`: the served-job recipe (`JobSpec::dse_config`, seed
/// 8, which brings a fleet preset's hardening depth) with the audit on,
/// traced into a ring.
fn golden_outcome(
    name: &str,
    b: &mcmap::benchmarks::Benchmark,
    budget: (usize, usize),
) -> DseOutcome {
    let cfg = DseConfig {
        audit: true,
        obs: Recorder::ring(1 << 18),
        ..golden_spec(name, budget).dse_config(b, 2)
    };
    explore(&b.apps, &b.arch, cfg)
}

/// The served-job recipe of [`golden_outcome`]: `name` at seed 8.
fn golden_spec(name: &str, (population, generations): (usize, usize)) -> JobSpec {
    JobSpec {
        benchmark: name.into(),
        population,
        generations,
        seed: 8,
    }
}

/// Pinned results of DT-med and Cruise at 48×30, and of a fleet-small
/// system (generator seed 7, preset hardening depth) at 12×3: the front,
/// the audit counters, the canonical trace and the hardened systems `T'`
/// of the front (each genome repaired, decoded and hardened), each hashed
/// with `fnv1a64`. They must not move under a refactor or a speed
/// optimisation.
/// A constant here changes only in a change that states the front change
/// it causes (for example making non-converged analyses knob-independent
/// under dominance pruning).
#[test]
fn golden_fronts_audits_and_traces_at_48x30() {
    let preset = mcmap::benchmarks::fleet_small_config();
    for (name, b, budget, expected) in [
        (
            "dt-med",
            mcmap::benchmarks::dt_med(),
            (48, 30),
            [
                0x72ad347b5adf3e35,
                0xb6c083fdb5682ce6,
                0xb227fdc1e9bf38b9,
                0x5976666965e90b05,
            ],
        ),
        (
            "cruise",
            cruise(),
            (48, 30),
            [
                0x9695e8b6544e3a6a,
                0xc19e767c04534a43,
                0x4ffe3d0eceb59b52,
                0x701b3d9d1ee51e05,
            ],
        ),
        (
            "fleet-small",
            mcmap::benchmarks::fleet(&preset, 7),
            (12, 3),
            [
                0xb3870ca4121ae713,
                0xa0dab437ac3dc6cd,
                0xece40fa0dc8b32b6,
                0x1df857e0d9e9d91b,
            ],
        ),
    ] {
        let o = golden_outcome(name, &b, budget);
        assert_eq!(o.obs.dropped_events(), 0, "{name}: trace ring overflowed");
        let problem = MappingProblem::new(
            &b.apps,
            &b.arch,
            golden_spec(name, budget).dse_config(&b, 2),
        );
        let systems: String = o
            .result
            .front
            .iter()
            .map(|ind| {
                let (plan, _, _) = problem.decode_repaired(&ind.genotype);
                format!("{:?}", harden(&b.apps, &plan, &b.arch))
            })
            .collect();
        let [front, audit, trace, hardened] = [
            fingerprint(&o),
            format!("{:?}", o.audit),
            trace_of(&o),
            systems,
        ]
        .map(|s| fnv1a64(s.as_bytes()));
        assert_eq!(
            [front, audit, trace, hardened],
            expected,
            "{name}: [front, audit, trace, hardened] = \
             [{front:#018x}, {audit:#018x}, {trace:#018x}, {hardened:#018x}]"
        );
    }
}

/// Dominance pruning is a speed knob. A converged analysis is bit-identical
/// with it on and off; a non-converged scenario run gives every non-dropped
/// application WCRT `Time::MAX` either way, and a candidate that misses a
/// deadline without faults runs no scenario at all. So the fronts, reports
/// and audit counters agree on every paper workload and on fleet-small.
#[test]
fn fronts_are_identical_with_and_without_pruning() {
    for (name, budget) in [
        ("dt-med", (48, 30)),
        ("cruise", (48, 30)),
        ("synth1", (48, 30)),
        ("synth2", (48, 30)),
        ("dt-large", (48, 30)),
        ("fleet-small", (12, 3)),
    ] {
        let b = mcmap::benchmarks::by_name(name).expect("a benchmark name");
        let run = |prune| {
            let cfg = DseConfig {
                audit: true,
                analysis: AnalysisOptions { prune },
                ..golden_spec(name, budget).dse_config(&b, 2)
            };
            explore(&b.apps, &b.arch, cfg)
        };
        let (pruned, reference) = (run(true), run(false));
        assert_eq!(fingerprint(&pruned), fingerprint(&reference), "{name}");
        let genomes = |o: &DseOutcome| -> Vec<_> {
            o.result
                .front
                .iter()
                .map(|ind| (ind.genotype.clone(), ind.eval.clone()))
                .collect()
        };
        assert_eq!(genomes(&pruned), genomes(&reference), "{name}");
        assert_eq!(pruned.audit, reference.audit, "{name}");
        assert!(pruned.analysis.backend_calls < reference.analysis.backend_calls);
    }
}

/// Front reports read the memo-cached evaluation records; with the cache
/// off every report is a fresh evaluation. On DT-med both give the same
/// reports, and the engine counters cover the search's evaluations only.
#[test]
fn dt_med_front_reports_agree_with_and_without_the_cache() {
    let b = mcmap::benchmarks::dt_med();
    let run = |cache_cap| {
        explore(
            &b.apps,
            &b.arch,
            DseConfig {
                ga: GaConfig {
                    population: 16,
                    generations: 6,
                    seed: 8,
                    threads: 2,
                    ..GaConfig::default()
                },
                objectives: ObjectiveMode::PowerService,
                policies: Some(b.policies.clone()),
                repair_iters: 80,
                cache_cap,
                ..DseConfig::default()
            },
        )
    };
    let (cached, bare) = (run(65_536), run(0));
    assert!(!cached.reports.is_empty());
    assert_eq!(fingerprint(&cached), fingerprint(&bare));
    for s in [&cached.eval_stats, &bare.eval_stats] {
        assert_eq!(s.cache_hits + s.cache_misses, s.genomes, "{s:?}");
    }
}

#[test]
fn multi_generation_run_hits_the_cache() {
    let outcome = outcome_with(2, 65_536, 8);
    assert!(
        outcome.eval_stats.cache_hits > 0,
        "elitist re-evaluation across generations must produce cache hits"
    );
    assert!(outcome.eval_stats.hit_rate() > 0.0);
}

proptest! {
    // Each case is a full (small) exploration, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cache_on_and_cache_off_explorations_agree(
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let cached = outcome_with(threads, 65_536, seed);
        let bare = outcome_with(1, 0, seed);
        prop_assert_eq!(fingerprint(&cached), fingerprint(&bare));
        prop_assert_eq!(cached.eval_stats.genomes, bare.eval_stats.genomes);
        // With the cache disabled every lookup is a miss.
        prop_assert_eq!(bare.eval_stats.cache_hits, 0);
        prop_assert_eq!(bare.eval_stats.cache_misses, bare.eval_stats.genomes);
    }
}
