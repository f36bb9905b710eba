//! Monte-Carlo validation gate: the end-to-end refutation harness for the
//! static analysis, run over a real DSE-extracted portfolio.
//!
//! Pipeline: explore `cruise` (deterministic, seed 8) → extract the
//! dominance-pruned operating-point portfolio → materialize → run a
//! seeded `RandomFaults` campaign of `MCMAP_SIMV_PROFILES` profiles
//! (default 1000) against every point → drive the runtime manager
//! through a fault-heavy closed-loop mission for the switch-latency
//! distribution.
//!
//! Gated assertions:
//!
//! 1. **zero WCRT-bound violations** — no simulated response time within
//!    the hardening coverage exceeds its analyzed bound, on any point;
//! 2. **thread-invariance** — a spot-check campaign renders byte-identical
//!    JSON summaries at `--threads 1` and `--threads 3`;
//! 3. the closed-loop mission also sees zero violations in every visited
//!    (degraded) mode, and the manager actually transitions.
//!
//! Reported: campaign throughput (runs/sec), the minimum and maximum
//! observed-vs-bound slack across points, and the p50/p95/max switch
//! latency of the mission. Machine-readable summary:
//! `results/BENCH_sim.json` (directory override: `MCMAP_BENCH_OUT`).
//! Budget knobs: `MCMAP_SIMV_POP`/`MCMAP_SIMV_GENS` (default 16/16),
//! `MCMAP_SIMV_PROFILES` (default 1000), `MCMAP_SIMV_HYPERPERIODS`
//! (default 200, mission length).

use mcmap_bench::{env_u64, env_usize};
use mcmap_benchmarks::cruise;
use mcmap_core::{explore_checked, MappingProblem, Portfolio};
use mcmap_ga::GaConfig;
use mcmap_model::Time;
use mcmap_runtime::{run_campaign, run_reaction, CampaignConfig, ReactionConfig};
use std::time::Instant;

fn main() {
    let pop = env_usize("MCMAP_SIMV_POP", 16);
    let gens = env_usize("MCMAP_SIMV_GENS", 16);
    let profiles = env_u64("MCMAP_SIMV_PROFILES", 1000);
    let hyperperiods = env_u64("MCMAP_SIMV_HYPERPERIODS", 200);
    let boost = 1e3;

    let b = cruise();
    let make_cfg = || mcmap_core::DseConfig {
        ga: GaConfig {
            population: pop,
            generations: gens,
            seed: 8,
            ..GaConfig::default()
        },
        objectives: mcmap_core::ObjectiveMode::PowerService,
        policies: Some(b.policies.clone()),
        repair_iters: 80,
        ..mcmap_core::DseConfig::default()
    };
    let outcome = explore_checked(&b.apps, &b.arch, make_cfg()).expect("explore cruise");
    let problem = MappingProblem::new(&b.apps, &b.arch, make_cfg());
    let portfolio = Portfolio::extract(&problem, &outcome.result.front);
    assert!(
        !portfolio.points.is_empty(),
        "the cruise exploration produced no feasible operating point"
    );
    let points = portfolio.materialize(&problem).expect("materialize");

    // Gate 1: the full campaign, zero violations.
    let cfg = CampaignConfig {
        profiles,
        boost,
        threads: 0,
        ..CampaignConfig::default()
    };
    let t0 = Instant::now();
    let summary = run_campaign(&points, &b.arch, &b.policies, &cfg).expect("campaign");
    let wall = t0.elapsed().as_secs_f64();
    let runs = summary.total_runs();
    let runs_per_sec = runs as f64 / wall.max(1e-9);
    assert_eq!(
        summary.total_violations(),
        0,
        "WCRT-bound violations refute the analysis:\n{}",
        summary.render_text()
    );
    let covered: u64 = summary.points.iter().map(|p| p.covered).sum();
    let faulty: u64 = summary.points.iter().map(|p| p.faulty).sum();
    assert!(faulty > 0, "boost {boost:e} injected no faults — raise it");

    // Slack spread: bound − worst observation, per app per point, finite
    // bounds with at least one completion only.
    let mut slacks: Vec<u64> = Vec::new();
    for p in &summary.points {
        for (obs, bound) in p.observed_max.iter().zip(&p.bound) {
            if *bound != Time::MAX && !obs.is_zero() {
                slacks.push(bound.saturating_sub(*obs).ticks());
            }
        }
    }
    let (min_slack, max_slack) = (
        slacks.iter().copied().min().unwrap_or(0),
        slacks.iter().copied().max().unwrap_or(0),
    );

    // Gate 2: thread-invariance spot check (100 profiles, 1 vs 3 workers).
    let spot = |threads: usize| {
        let cfg = CampaignConfig {
            profiles: 100,
            boost,
            threads,
            ..CampaignConfig::default()
        };
        run_campaign(&points, &b.arch, &b.policies, &cfg)
            .expect("spot campaign")
            .to_json()
    };
    assert_eq!(
        spot(1),
        spot(3),
        "campaign summary differs across thread counts"
    );

    // Gate 3: the closed-loop mission — boosted faults drive the manager
    // down the ladder and back; bounds must hold in every visited mode.
    let mission = run_reaction(
        &points,
        &b.arch,
        &b.policies,
        &ReactionConfig {
            hyperperiods,
            boost: 1e5,
            ..ReactionConfig::default()
        },
        mcmap_obs::Recorder::default(),
    );
    assert_eq!(
        mission.bound_violations, 0,
        "bound violations in degraded modes"
    );
    assert!(
        !mission.transitions.is_empty(),
        "the mission never exercised a mode transition — raise the boost"
    );
    let mut lat: Vec<u64> = mission.switch_latency.iter().map(|t| t.ticks()).collect();
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            0
        } else {
            lat[((lat.len() - 1) as f64 * p).round() as usize]
        }
    };
    let (lat_p50, lat_p95, lat_max) = (pct(0.50), pct(0.95), lat.last().copied().unwrap_or(0));

    println!(
        "sim_validation/cruise: {} points x {} profiles ({} runs) in {:.2} s — \
         {:.0} runs/s, 0 violations, {} covered / {} faulty, slack [{}, {}] ticks, \
         {} transitions, switch latency p50 {} p95 {} max {} ticks",
        points.len(),
        summary.done,
        runs,
        wall,
        runs_per_sec,
        covered,
        faulty,
        min_slack,
        max_slack,
        mission.transitions.len(),
        lat_p50,
        lat_p95,
        lat_max,
    );

    let out_dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    let json = format!(
        "{{\"benchmark\":\"cruise\",\"points\":{},\"profiles\":{},\"runs\":{runs},\
         \"wall_secs\":{wall:.6},\"runs_per_sec\":{runs_per_sec:.1},\"violations\":0,\
         \"covered\":{covered},\"faulty\":{faulty},\
         \"min_slack_ticks\":{min_slack},\"max_slack_ticks\":{max_slack},\
         \"mission_hyperperiods\":{hyperperiods},\"transitions\":{},\
         \"switch_latency_p50_ticks\":{lat_p50},\"switch_latency_p95_ticks\":{lat_p95},\
         \"switch_latency_max_ticks\":{lat_max},\"threads_invariant\":true}}\n",
        points.len(),
        summary.done,
        mission.transitions.len(),
    );
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let path = format!("{out_dir}/BENCH_sim.json");
    mcmap_resilience::atomic_write(std::path::Path::new(&path), json.as_bytes())
        .expect("write BENCH_sim.json");
    println!("sim_validation/cruise: wrote {path}");
}
