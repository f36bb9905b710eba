//! Chaos harness for the `mcmap-resilience` layer: a seeded, fully
//! deterministic [`FaultPlan`] injects worker panics, scheduling delays,
//! and checkpoint truncation into small explorations, and the suite proves
//! the pipeline *completes*, degrades gracefully (typed diagnostics, not
//! torn worker pools), and — for a fixed fault seed — behaves identically
//! across repeats and thread counts.

use std::path::PathBuf;

use mcmap::benchmarks::cruise;
use mcmap::core::{explore, DseConfig, DseOutcome, ObjectiveMode, ResilienceConfig};
use mcmap::ga::GaConfig;
use mcmap::resilience::FaultPlan;

/// A scratch path under the system temp dir, unique per test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcmap_chaos_{}_{name}", std::process::id()))
}

fn outcome_with(threads: usize, seed: u64, resilience: ResilienceConfig) -> DseOutcome {
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
            resilience,
            ..DseConfig::default()
        },
    )
}

/// The full comparable state of an exploration: every front report
/// (feasibility, power, service, dropped set) in front order.
fn fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

/// Failures in a scheduling-independent order (workers push into a shared
/// vector, so arrival order is racy; content is not).
fn sorted_failures(o: &DseOutcome) -> Vec<String> {
    let mut msgs: Vec<String> = o
        .failures
        .iter()
        .map(|f| {
            format!(
                "{} after {} attempts: {}",
                f.candidate, f.attempts, f.message
            )
        })
        .collect();
    msgs.sort();
    msgs
}

#[test]
fn seeded_panics_degrade_candidates_without_aborting_the_run() {
    // 20 % of coordinates panic through both attempts (retries = 1 allows
    // two), so a healthy share of candidates must degrade — and the run
    // must still complete with a usable front.
    let plan = FaultPlan::new(7).with_panic_rate(200_000, 2);
    let outcome = outcome_with(
        4,
        8,
        ResilienceConfig {
            chaos: Some(plan),
            eval_retries: 1,
            ..ResilienceConfig::default()
        },
    );

    assert!(
        !outcome.failures.is_empty(),
        "a 20 % panic rate over ~60 coordinates must hit something"
    );
    for f in &outcome.failures {
        assert_eq!(f.attempts, 2, "1 retry means exactly 2 attempts");
        assert!(
            f.message.contains("chaos: injected panic"),
            "diagnostic must carry the panic payload, got: {}",
            f.message
        );
    }
    assert!(
        !outcome.reports.is_empty(),
        "the surviving population still yields a front"
    );
    // Degraded candidates are counted, not dropped: the audit sees every
    // submitted genome exactly once.
    assert!(outcome.audit.evaluated >= outcome.failures.len());
}

#[test]
fn chaos_is_deterministic_for_a_fixed_fault_seed() {
    let plan = FaultPlan::new(21).with_panic_rate(150_000, 2);
    let run = |threads: usize| {
        outcome_with(
            threads,
            8,
            ResilienceConfig {
                chaos: Some(plan.clone()),
                eval_retries: 1,
                ..ResilienceConfig::default()
            },
        )
    };
    let serial = run(1);
    let parallel = run(4);
    let repeat = run(4);

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "fault coordinates are (batch, item)-addressed, so --threads must not move them"
    );
    assert_eq!(fingerprint(&parallel), fingerprint(&repeat));
    assert_eq!(sorted_failures(&serial), sorted_failures(&parallel));
    assert_eq!(sorted_failures(&parallel), sorted_failures(&repeat));
}

#[test]
fn retries_rescue_transient_panics_bit_exactly() {
    // Every injected panic poisons only the first attempt; with one retry
    // the re-evaluation succeeds, so the run must match a fault-free run
    // exactly and report no failures.
    let plan = FaultPlan::new(3)
        .panic_at(0, 0, 1)
        .panic_at(0, 7, 1)
        .panic_at(2, 3, 1)
        .panic_at(4, 11, 1);
    let faulted = outcome_with(
        4,
        8,
        ResilienceConfig {
            chaos: Some(plan),
            eval_retries: 1,
            ..ResilienceConfig::default()
        },
    );
    let clean = outcome_with(4, 8, ResilienceConfig::default());

    assert!(
        faulted.failures.is_empty(),
        "single-attempt faults must be rescued by the retry"
    );
    assert_eq!(fingerprint(&faulted), fingerprint(&clean));
    assert_eq!(format!("{:?}", faulted.audit), format!("{:?}", clean.audit));
}

#[test]
fn delays_shake_scheduling_without_changing_results() {
    let plan = FaultPlan::new(5)
        .delay_at(0, 1, 2_000)
        .delay_at(1, 0, 1_500)
        .delay_at(3, 5, 2_500);
    let delayed = outcome_with(
        4,
        8,
        ResilienceConfig {
            chaos: Some(plan),
            ..ResilienceConfig::default()
        },
    );
    let clean = outcome_with(4, 8, ResilienceConfig::default());
    assert_eq!(fingerprint(&delayed), fingerprint(&clean));
    assert!(delayed.failures.is_empty());
}

#[test]
fn truncated_checkpoint_falls_back_to_backup_and_resumes() {
    let path = scratch("truncated.ckpt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("ckpt.bak"));

    // Baseline: the same run, checkpointing to a different path, never
    // interrupted and never corrupted.
    let baseline_path = scratch("truncated_baseline.ckpt");
    let baseline = outcome_with(
        2,
        8,
        ResilienceConfig {
            checkpoint: Some(baseline_path.clone()),
            ..ResilienceConfig::default()
        },
    );

    // Chaos truncates the checkpoint written after generation 4 (the final
    // one), so the resume must detect the torn file and fall back to the
    // `.bak` from generation 3.
    let first = outcome_with(
        2,
        8,
        ResilienceConfig {
            checkpoint: Some(path.clone()),
            chaos: Some(FaultPlan::new(0).truncate_checkpoint_at(4)),
            ..ResilienceConfig::default()
        },
    );
    assert!(
        !first.interrupted,
        "truncation happens after the run finishes writing"
    );

    let resumed = outcome_with(
        2,
        8,
        ResilienceConfig {
            checkpoint: Some(path.clone()),
            resume: Some(path.clone().into()),
            ..ResilienceConfig::default()
        },
    );
    assert_eq!(
        resumed.resumed_from,
        Some(3),
        "the torn generation-4 checkpoint must fall back to the generation-3 backup"
    );
    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&baseline),
        "replaying generation 4 from the backup must reconverge bit-exactly"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(mcmap::resilience::backup_path(&path));
    let _ = std::fs::remove_file(&baseline_path);
    let _ = std::fs::remove_file(mcmap::resilience::backup_path(&baseline_path));
}
