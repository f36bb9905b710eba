//! Integration tests for the portfolio → runtime → campaign loop, on a
//! real (small) DSE over the cruise-control benchmark.

use std::path::PathBuf;

use mcmap_core::{
    explore_checked, read_portfolio, write_portfolio, DseConfig, MappingProblem, ObjectiveMode,
    Portfolio,
};
use mcmap_ga::GaConfig;
use mcmap_model::{Architecture, Criticality, Processor, Time};
use mcmap_resilience::ResilienceError;
use mcmap_runtime::{
    read_campaign_checkpoint, run_campaign, run_reaction, CampaignCheckpoint, CampaignConfig,
    PointValidation, ReactionConfig, RuntimeConfig, RuntimeEvent, RuntimeManager, Violation,
};
use mcmap_sched::SchedPolicy;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcmap_runtime_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dse_config(seed: u64) -> DseConfig {
    let b = mcmap_benchmarks::cruise();
    DseConfig {
        ga: GaConfig {
            population: 16,
            generations: 16,
            seed,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::PowerService,
        policies: Some(b.policies.clone()),
        repair_iters: 80,
        ..DseConfig::default()
    }
}

/// Runs the small deterministic cruise DSE and extracts its portfolio.
fn cruise_portfolio() -> (mcmap_benchmarks::Benchmark, Portfolio) {
    let b = mcmap_benchmarks::cruise();
    let outcome = explore_checked(&b.apps, &b.arch, dse_config(8)).expect("explore");
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let portfolio = Portfolio::extract(&problem, &outcome.result.front);
    assert!(
        !portfolio.points.is_empty(),
        "fixture DSE produced no feasible point"
    );
    (b, portfolio)
}

#[test]
fn portfolio_round_trips_through_sealed_envelope() {
    let (b, portfolio) = cruise_portfolio();
    let dir = scratch("portfolio_roundtrip");
    let path = dir.join("portfolio.bin");
    write_portfolio(&path, &portfolio).unwrap();
    let (loaded, recovered) = read_portfolio(&path).unwrap();
    assert!(!recovered);
    assert_eq!(
        loaded, portfolio,
        "portfolio must round-trip bit-identically"
    );

    // Rewriting rotates the previous file to `.bak`; corrupting the
    // primary must fall back to it.
    write_portfolio(&path, &portfolio).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let (fallback, recovered) = read_portfolio(&path).unwrap();
    assert!(recovered, "corrupt primary must recover from .bak");
    assert_eq!(fallback, portfolio);

    // The materialized designs must all be valid under the same problem.
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let points = loaded.materialize(&problem).unwrap();
    assert_eq!(points.len(), portfolio.points.len());
    for p in &points {
        assert!(!p.used_processors().is_empty());
    }
}

#[test]
fn materialize_refuses_foreign_context() {
    let (b, portfolio) = cruise_portfolio();
    // A different GA seed changes the repair RNG, hence the context
    // fingerprint: the stored genomes would decode to different designs.
    let other = MappingProblem::new(&b.apps, &b.arch, dse_config(9));
    let err = portfolio.materialize(&other).unwrap_err();
    // A caller mistake, not a damaged file.
    let ResilienceError::ConfigMismatch {
        expected, actual, ..
    } = &err
    else {
        panic!("expected ConfigMismatch, got {err}");
    };
    assert_eq!((*expected, *actual), (other.context(), portfolio.context));
    assert!(!err.is_corruption());
    assert!(
        err.to_string().contains("different run configuration"),
        "unexpected error: {err}"
    );
}

#[test]
fn campaign_summary_is_thread_invariant() {
    let (b, portfolio) = cruise_portfolio();
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let points = portfolio.materialize(&problem).unwrap();
    let run = |threads: usize| {
        let cfg = CampaignConfig {
            profiles: 40,
            threads,
            ..CampaignConfig::default()
        };
        run_campaign(&points, &b.arch, &b.policies, &cfg).unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(
        one.to_json(),
        four.to_json(),
        "summaries must be bit-identical across thread counts"
    );
    assert_eq!(one.total_violations(), 0, "{}", one.render_text());
    assert!(
        one.points.iter().any(|p| p.faulty > 0),
        "the default boost should inject faults in 40 profiles"
    );
}

#[test]
fn interrupted_campaign_resumes_into_identical_summary() {
    let (b, portfolio) = cruise_portfolio();
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let points = portfolio.materialize(&problem).unwrap();
    let dir = scratch("campaign_resume");

    let base_cfg = |checkpoint: Option<PathBuf>| CampaignConfig {
        profiles: 60,
        chunk: 20,
        threads: 2,
        checkpoint,
        ..CampaignConfig::default()
    };

    let baseline = run_campaign(&points, &b.arch, &b.policies, &base_cfg(None)).unwrap();
    assert!(!baseline.interrupted);

    // Interrupt deterministically after one 20-profile chunk...
    let ckpt = dir.join("campaign.bin");
    let cfg = CampaignConfig {
        stop_after_chunks: Some(1),
        ..base_cfg(Some(ckpt.clone()))
    };
    let partial = run_campaign(&points, &b.arch, &b.policies, &cfg).unwrap();
    assert!(partial.interrupted);
    assert_eq!(partial.done, 20);

    // ...then resume with a *different* thread count: the final summary
    // must match the uninterrupted baseline byte for byte.
    let cfg = CampaignConfig {
        resume: true,
        threads: 1,
        ..base_cfg(Some(ckpt))
    };
    let resumed = run_campaign(&points, &b.arch, &b.policies, &cfg).unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.resumed_from, Some(20));
    assert_eq!(
        resumed.to_json(),
        baseline.to_json(),
        "resume must converge to the uninterrupted summary"
    );
}

#[test]
fn resume_refuses_foreign_checkpoint() {
    let (b, portfolio) = cruise_portfolio();
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let points = portfolio.materialize(&problem).unwrap();
    let dir = scratch("campaign_fingerprint");
    let ckpt = dir.join("campaign.bin");

    let cfg = CampaignConfig {
        profiles: 40,
        chunk: 20,
        checkpoint: Some(ckpt.clone()),
        stop_after_chunks: Some(1),
        ..CampaignConfig::default()
    };
    let partial = run_campaign(&points, &b.arch, &b.policies, &cfg).unwrap();
    assert!(partial.interrupted);

    // Same checkpoint, and another seed, other scheduling policies or
    // other processor fault rates (they set the fault thresholds): a
    // resume would blend two campaigns, so each must be refused.
    let resume = CampaignConfig {
        resume: true,
        stop_after_chunks: None,
        ..cfg
    };
    let other_seed = CampaignConfig {
        seed: 0xBAD5EED,
        ..resume.clone()
    };
    let mut policies = b.policies.clone();
    policies[0] = match policies[0] {
        SchedPolicy::FixedPriorityPreemptive => SchedPolicy::FixedPriorityNonPreemptive,
        SchedPolicy::FixedPriorityNonPreemptive => SchedPolicy::FixedPriorityPreemptive,
    };
    let arch = b
        .arch
        .processors()
        .fold(
            Architecture::builder().fabric(b.arch.fabric().clone()),
            |builder, (_, p)| {
                builder.processor(Processor {
                    fault_rate: p.fault_rate * 2.0,
                    ..p.clone()
                })
            },
        )
        .build()
        .unwrap();
    for (arch, policies, cfg) in [
        (&b.arch, &b.policies, &other_seed),
        (&b.arch, &policies, &resume),
        (&arch, &b.policies, &resume),
    ] {
        let err = run_campaign(&points, arch, policies, cfg).unwrap_err();
        assert!(
            matches!(err, ResilienceError::ConfigMismatch { .. }),
            "unexpected error: {err}"
        );
        // A configuration mismatch is a caller mistake, not a damaged file.
        assert!(!err.is_corruption(), "{err}");
    }
}

#[test]
fn campaign_checkpoint_round_trips_and_detects_corruption() {
    let ckpt = CampaignCheckpoint {
        fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        done: 250,
        points: vec![PointValidation {
            covered: 200,
            beyond_coverage: 50,
            faulty: 31,
            observed_max: vec![Time::from_ticks(120), Time::ZERO],
            bound: vec![Time::from_ticks(150), Time::MAX],
            violations: 1,
        }],
        violations: vec![Violation {
            point: 0,
            profile: 17,
            app: mcmap_model::AppId::new(0),
            observed: Time::from_ticks(160),
            bound: Time::from_ticks(150),
        }],
    };
    let bytes = ckpt.to_bytes();
    let path = PathBuf::from("<test>");
    let back = CampaignCheckpoint::from_bytes(&path, &bytes).unwrap();
    assert_eq!(back.fingerprint, ckpt.fingerprint);
    assert_eq!(back.done, ckpt.done);
    assert_eq!(back.points, ckpt.points);
    assert_eq!(back.violations, ckpt.violations);

    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    let err = CampaignCheckpoint::from_bytes(&path, &corrupt).unwrap_err();
    assert!(err.is_corruption());

    // read_campaign_checkpoint falls back to `.bak` on primary corruption.
    let dir = scratch("ckpt_backup");
    let p = dir.join("campaign.bin");
    mcmap_resilience::atomic_write_rotating(&p, &bytes).unwrap();
    mcmap_resilience::atomic_write_rotating(&p, &bytes).unwrap();
    std::fs::write(&p, &corrupt).unwrap();
    let (recovered, from_backup) = read_campaign_checkpoint(&p).unwrap();
    assert!(from_backup);
    assert_eq!(recovered.done, ckpt.done);
}

#[test]
fn manager_walks_the_ladder_and_back() {
    let (b, portfolio) = cruise_portfolio();
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let points = portfolio.materialize(&problem).unwrap();
    let mut mgr = RuntimeManager::new(&points, RuntimeConfig::default());
    assert_eq!(mgr.current(), 0);
    assert_eq!(mgr.dropped_now(), points[0].dropped);

    // The point-0 ladder: droppable apps the point itself keeps.
    let ladder_len = points[0]
        .hsys
        .apps()
        .iter()
        .filter(|a| !points[0].dropped.contains(&a.app))
        .filter(|a| matches!(a.criticality, Criticality::Droppable { .. }))
        .count();

    // Pressure sheds one rung per event until the ladder is exhausted.
    let mut t = Time::from_ticks(1);
    for step in 1..=ladder_len {
        let tr = mgr
            .on_event(t, RuntimeEvent::Fault { entries: 1 })
            .expect("each pressure event sheds a rung");
        assert_eq!(tr.reason, "degrade");
        assert_eq!(mgr.dropped_now().len(), points[0].dropped.len() + step);
        t = t.saturating_add(Time::from_ticks(1));
    }

    // The next pressure event escalates to the next point (or exhausts a
    // single-point portfolio).
    let tr = mgr.on_event(t, RuntimeEvent::LoadSpike);
    if points.len() > 1 {
        let tr = tr.expect("ladder exhausted: escalate");
        assert_eq!(tr.reason, "escalate");
        assert_eq!(tr.from, 0);
        assert_eq!(mgr.current(), tr.to);
        assert!(tr.to > 0);
    } else {
        assert!(tr.is_none());
        assert!(mgr.exhausted());
        return;
    }

    // Quiet periods climb all the way back to full service, one step per
    // `recover_after` window.
    let mut guard = 0;
    while mgr.current() != 0 || mgr.dropped_now() != points[0].dropped {
        t = t.saturating_add(Time::from_ticks(1));
        mgr.on_event(t, RuntimeEvent::Quiet);
        guard += 1;
        assert!(guard < 1000, "recovery must terminate");
    }
    let reasons: Vec<_> = mgr.history().iter().map(|h| h.reason).collect();
    assert!(reasons.contains(&"recover"), "history: {reasons:?}");
}

#[test]
fn pe_loss_kills_points_using_the_processor() {
    let (b, portfolio) = cruise_portfolio();
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let points = portfolio.materialize(&problem).unwrap();
    let mut mgr = RuntimeManager::new(&points, RuntimeConfig::default());
    let pe = points[0].used_processors()[0];
    let tr = mgr.on_event(Time::from_ticks(1), RuntimeEvent::PeLoss { pe });
    match tr {
        Some(tr) => {
            assert_eq!(tr.reason, "pe-loss");
            assert!(
                !points[mgr.current()].used_processors().contains(&pe),
                "the manager must land on a point that avoids the dead PE"
            );
        }
        None => assert!(
            mgr.exhausted(),
            "no transition means every point used the dead PE"
        ),
    }
}

#[test]
fn reaction_mission_holds_bounds_in_every_mode() {
    let (b, portfolio) = cruise_portfolio();
    let problem = MappingProblem::new(&b.apps, &b.arch, dse_config(8));
    let points = portfolio.materialize(&problem).unwrap();
    let report = run_reaction(
        &points,
        &b.arch,
        &b.policies,
        &ReactionConfig {
            hyperperiods: 48,
            boost: 1e5,
            ..ReactionConfig::default()
        },
        mcmap_obs::Recorder::default(),
    );
    assert_eq!(report.bound_violations, 0);
    assert_eq!(report.faulty_hyperperiods + report.quiet_hyperperiods, 48);
    assert!(
        !report.transitions.is_empty(),
        "a 1e5 boost must force transitions"
    );
    assert_eq!(
        report.switch_latency.len() as u64,
        report.faulty_hyperperiods
    );
}

/// The "Algorithm 1 ≥ simulation" contract where the system runs: the
/// feasible portfolio of a seeded fleet-small exploration (500 tasks on 16
/// heterogeneous cores, the preset's deeper hardening space) survives a
/// seeded worst-case Monte-Carlo campaign with zero WCRT-bound violations
/// within coverage.
#[test]
fn fleet_portfolio_holds_its_bounds_under_simulation() {
    let preset = mcmap_benchmarks::fleet_preset("fleet-small").expect("known preset");
    let b = mcmap_benchmarks::fleet(&preset, 42);
    let cfg = || DseConfig {
        ga: GaConfig {
            population: 32,
            generations: 10,
            seed: 8,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::PowerService,
        policies: Some(b.policies.clone()),
        repair_iters: 80,
        max_reexec: preset.max_reexec,
        max_replicas: preset.max_replicas,
        ..DseConfig::default()
    };
    let outcome = explore_checked(&b.apps, &b.arch, cfg()).expect("explore");
    let problem = MappingProblem::new(&b.apps, &b.arch, cfg());
    let portfolio = Portfolio::extract(&problem, &outcome.result.front);
    assert!(!portfolio.points.is_empty(), "no feasible fleet point");
    let points = portfolio.materialize(&problem).unwrap();
    let campaign = CampaignConfig {
        profiles: 200,
        seed: 8,
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&points, &b.arch, &b.policies, &campaign).unwrap();
    assert!(
        summary.points.iter().any(|p| p.covered > 0 && p.faulty > 0),
        "no faulty run within coverage: the campaign checked nothing"
    );
    assert_eq!(summary.total_violations(), 0, "{}", summary.render_text());
}
