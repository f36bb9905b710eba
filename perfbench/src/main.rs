//! `perfbench` — the mcmap benchmark: design-space exploration (DSE)
//! time-to-front on the paper and fleet workloads, WC-Sim validation
//! throughput, and an outside-in per-layer trace.
//!
//! ```text
//! perfbench --workload <dse-paper|dse-fleet|validate|all> --seed <n>
//!           --seconds <n> --trace <0|1> [--budget full|smoke]
//! ```
//!
//! Every workload is closed loop: a GA generation waits for its batch, a
//! campaign waits for its chunk. A run sets the workload up repeatedly
//! (at the start and between repetitions, reporting the median set-up
//! time), and repeats the timed phase until `--seconds` have passed:
//! `explore` once per GA seed of the run's fixed seed set (reporting the
//! interquartile mean over the seeds), or `run_campaign` (reporting the
//! median). Every repetition's output is checked. The last line of
//! standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! The traced run times the benchmark's own calls into each layer's public
//! functions (see `trace.rs`), replays every fresh candidate stage by stage
//! (see `replay.rs`), and checks that tracing changed no result.
//! `METRICS.md` lists each metric with the end-to-end metric and workload
//! it should move.

mod checks;
mod replay;
mod trace;
mod util;

use mcmap_benchmarks::Benchmark;
use mcmap_core::{
    explore, AnalysisStats, DesignReport, DseConfig, EvalStats, Genome, MappingProblem,
    MaterializedPoint, ObjectiveMode, Portfolio,
};
use mcmap_ga::{optimize_resumable, GaConfig, GaResult};
use mcmap_runtime::{run_campaign, CampaignConfig, CampaignSummary};
use replay::{replay_candidate, replay_sims, StageTotals};
use std::process::ExitCode;
use std::time::Instant;
use trace::{GenClock, TracedProblem};
use util::{digest, interquartile_mean, median, percentile, ratio, RunResult};

/// Worker threads of every parallel phase (the reference host has 2 cores).
const THREADS: usize = 2;
/// Set-up sampling: at least 5 set-ups over the first half second, then
/// a slice after every timed repetition (a DT-med set-up takes ~40 µs, so
/// its median needs many samples).
const SETUP_MIN_REPS: usize = 5;
const SETUP_START_S: f64 = 0.5;
const SETUP_SLICE_S: f64 = 0.01;
/// Campaign profiles per point replayed serially in the traced run.
const SIM_SAMPLE: u64 = 300;
/// GA seed of the `validate` portfolio exploration: the seed
/// `mcmap_cli validate` explores with.
const PORTFOLIO_SEED: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dse,
    Validate,
}

/// One workload at one budget.
#[derive(Debug, Clone)]
struct Workload {
    name: &'static str,
    /// Model key: `dt-med`, `cruise`, or a fleet preset.
    bench: &'static str,
    kind: Kind,
    pop: usize,
    gens: usize,
    /// GA seeds one DSE run explores. The time to the front depends on
    /// the search trajectory (SPEA-II truncation work differs up to 3x
    /// between seeds), so a run reports the mean over a fixed number of
    /// seeds, all derived from the workload seed.
    seeds: usize,
    /// Evaluation threads of the exploration (the `validate` portfolio
    /// exploration runs serially, as `mcmap_cli validate` does).
    dse_threads: usize,
    /// Simulation runs of one campaign, split evenly over the portfolio's
    /// points (`validate`), or of the traced run's front check (DSE).
    campaign_runs: u64,
}

impl Workload {
    /// The GA seed of sub-run `k` of a run with workload seed `seed`.
    fn ga_seed(&self, seed: u64, k: usize) -> u64 {
        match self.kind {
            Kind::Dse => seed.wrapping_mul(self.seeds as u64).wrapping_add(k as u64),
            Kind::Validate => PORTFOLIO_SEED,
        }
    }
}

const WORKLOADS: [&str; 3] = ["dse-paper", "dse-fleet", "validate"];

fn workload(name: &str, smoke: bool) -> Option<Workload> {
    // (name, model, kind, full budget, smoke budget); a budget is
    // (population, generations, GA seeds per run, campaign runs).
    let (name, bench, kind, full, tiny) = match name {
        "dse-paper" => (
            "dse-paper",
            "dt-med",
            Kind::Dse,
            (96, 50, 52, 4_000),
            (16, 4, 2, 100),
        ),
        "dse-fleet" => (
            "dse-fleet",
            "fleet-small",
            Kind::Dse,
            (32, 10, 11, 400),
            (8, 2, 2, 20),
        ),
        "validate" => (
            "validate",
            "cruise",
            Kind::Validate,
            (48, 30, 1, 140_000),
            (16, 8, 1, 700),
        ),
        _ => return None,
    };
    let (pop, gens, seeds, campaign_runs) = if smoke { tiny } else { full };
    Some(Workload {
        name,
        bench,
        kind,
        pop,
        gens,
        seeds,
        dse_threads: if kind == Kind::Validate { 1 } else { THREADS },
        campaign_runs,
    })
}

fn model(key: &str) -> Benchmark {
    match key {
        "dt-med" => mcmap_benchmarks::dt_med(),
        "cruise" => mcmap_benchmarks::cruise(),
        // Fleet presets are generated; like `mcmap_cli`, use seed 42 so
        // every run explores the same system.
        _ => mcmap_benchmarks::fleet_benchmark(key, 42).expect("workloads name known presets"),
    }
}

/// The exploration configuration `mcmap_cli dse`/`validate` builds.
fn dse_config(b: &Benchmark, w: &Workload, seed: u64) -> DseConfig {
    let mut cfg = DseConfig {
        ga: GaConfig {
            population: w.pop,
            generations: w.gens,
            seed,
            threads: w.dse_threads,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::PowerService,
        policies: Some(b.policies.clone()),
        repair_iters: 80,
        ..DseConfig::default()
    };
    if let Some(fleet) = mcmap_benchmarks::fleet_preset(w.bench) {
        cfg.max_reexec = fleet.max_reexec;
        cfg.max_replicas = fleet.max_replicas;
    }
    cfg
}

fn campaign_config(w: &Workload, points: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        profiles: (w.campaign_runs / points.max(1) as u64).max(1),
        seed,
        threads: THREADS,
        ..CampaignConfig::default()
    }
}

/// The `mcmap-lint` pre-flight `explore` runs before any GA work.
fn preflight(b: &Benchmark, cfg: &DseConfig) -> Result<(), String> {
    let report = mcmap_lint::Linter::new(&b.apps, &b.arch)
        .with_limits(cfg.max_reexec, cfg.max_replicas)
        .lint();
    if report.has_errors() {
        return Err(format!(
            "lint pre-flight refused {}: {}",
            b.name,
            report.error_codes().join(", ")
        ));
    }
    Ok(())
}

/// A workload ready for its timed phase.
struct Setup {
    bench: Benchmark,
    cfg: DseConfig,
    /// `validate`: the materialized portfolio and its exploration's front.
    points: Vec<MaterializedPoint>,
    front: String,
    times: SetupTimes,
}

/// One set-up's timings, or the medians over many.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    model_s: f64,
    lint_s: f64,
    extract_s: f64,
    materialize_s: f64,
}

fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let bench = model(w.bench);
    let model_s = start.elapsed().as_secs_f64();
    let cfg = dse_config(&bench, w, w.ga_seed(seed, 0));
    let t = Instant::now();
    preflight(&bench, &cfg)?;
    let lint_s = t.elapsed().as_secs_f64();
    let (points, front, extract_s, materialize_s) = {
        let problem = MappingProblem::new(&bench.apps, &bench.arch, cfg.clone());
        if w.kind == Kind::Validate {
            let outcome = explore(&bench.apps, &bench.arch, cfg.clone());
            let t = Instant::now();
            let portfolio = Portfolio::extract(&problem, &outcome.result.front);
            let extract_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let points = portfolio
                .materialize(&problem)
                .map_err(|e| format!("materialize: {e}"))?;
            let materialize_s = t.elapsed().as_secs_f64();
            if points.is_empty() {
                return Err("the portfolio has no feasible operating point".into());
            }
            (
                points,
                format!("{:?}", outcome.reports),
                extract_s,
                materialize_s,
            )
        } else {
            (Vec::new(), String::new(), 0.0, 0.0)
        }
    };
    Ok(Setup {
        bench,
        cfg,
        points,
        front,
        times: SetupTimes {
            total_s: start.elapsed().as_secs_f64(),
            model_s,
            lint_s,
            extract_s,
            materialize_s,
        },
    })
}

/// Set-up timings sampled over the whole run: a block at the start and
/// a short slice after every timed repetition, so a burst of host noise
/// moves few samples of the median.
#[derive(Default)]
struct SetupSampler {
    times: Vec<SetupTimes>,
}

impl SetupSampler {
    /// Sets the workload up repeatedly until `budget_s` has passed (at
    /// least `min_reps` times) and returns the last set-up.
    fn sample(
        &mut self,
        w: &Workload,
        seed: u64,
        budget_s: f64,
        min_reps: usize,
    ) -> Result<Setup, String> {
        let start = Instant::now();
        let mut reps = 0;
        loop {
            let s = setup(w, seed)?;
            self.times.push(s.times);
            reps += 1;
            if reps >= min_reps && start.elapsed().as_secs_f64() >= budget_s {
                return Ok(s);
            }
        }
    }

    fn medians(&self) -> SetupTimes {
        let col = |f: fn(&SetupTimes) -> f64| median(&self.times.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: col(|t| t.total_s),
            model_s: col(|t| t.model_s),
            lint_s: col(|t| t.lint_s),
            extract_s: col(|t| t.extract_s),
            materialize_s: col(|t| t.materialize_s),
        }
    }
}

fn timed_campaign(
    b: &Benchmark,
    points: &[MaterializedPoint],
    ccfg: &CampaignConfig,
) -> Result<(f64, CampaignSummary), String> {
    let t = Instant::now();
    let summary =
        run_campaign(points, &b.arch, &b.policies, ccfg).map_err(|e| format!("campaign: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), summary))
}

/// Everything the traced exploration observed.
struct DseTrace {
    wall_s: f64,
    reports: Vec<DesignReport>,
    result: GaResult<Genome>,
    gen_ms: Vec<f64>,
    variation_s: f64,
    batch_s: f64,
    eval: EvalStats,
    analysis: AnalysisStats,
    failures: usize,
    fresh: Vec<Genome>,
}

/// The exploration `explore` runs (pre-flight, problem, GA loop, front
/// reports), driven through the timing wrappers.
fn traced_explore(b: &Benchmark, cfg: &DseConfig) -> Result<DseTrace, String> {
    let t = Instant::now();
    preflight(b, cfg)?;
    let problem = MappingProblem::new(&b.apps, &b.arch, cfg.clone());
    let traced = TracedProblem::new(&problem);
    let mut clock = GenClock::default();
    let ga_start = Instant::now();
    let result = optimize_resumable(&traced, &cfg.ga, None, &mut clock);
    let reports: Vec<DesignReport> = result
        .front
        .iter()
        .map(|ind| problem.report(&ind.genotype))
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    let mut prev = ga_start;
    let gen_ms = clock
        .marks
        .iter()
        .map(|&m| {
            let ms = (m - prev).as_secs_f64() * 1e3;
            prev = m;
            ms
        })
        .collect();
    Ok(DseTrace {
        wall_s,
        reports,
        result,
        gen_ms,
        variation_s: traced.variation_s(),
        batch_s: traced.batch_s(),
        eval: problem.eval_stats(),
        analysis: problem.analysis_stats(),
        failures: problem.failures().len(),
        fresh: traced.into_fresh(),
    })
}

/// Per-layer metrics of the GA, eval and delta layers from the traced
/// exploration, and of the pipeline stages from replaying its fresh
/// candidates.
fn dse_layers(b: &Benchmark, cfg: &DseConfig, tr: &DseTrace, res: &mut RunResult) {
    let generations_s: f64 = tr.gen_ms.iter().sum::<f64>() / 1e3;
    let e = &tr.eval;
    res.metric(
        "ga.select_s",
        generations_s - tr.batch_s - tr.variation_s,
        "s",
    );
    res.metric("ga.variation_s", tr.variation_s, "s");
    res.metric("ga.gen_p50_ms", median(&tr.gen_ms), "ms");
    res.metric("ga.gen_p90_ms", percentile(&tr.gen_ms, 0.9), "ms");
    res.metric("ga.generations", tr.gen_ms.len() as f64, "count");
    res.metric("eval.batch_s", tr.batch_s, "s");
    res.metric("eval.cache_hits", e.cache_hits as f64, "count");
    res.metric("eval.cache_misses", e.cache_misses as f64, "count");
    res.metric(
        "eval.hit_ratio",
        ratio(e.cache_hits as f64, e.genomes as f64),
        "ratio",
    );
    res.metric("eval.lookup_s", e.lookup_nanos as f64 * 1e-9, "s");
    res.metric("eval.insert_s", e.insert_nanos as f64 * 1e-9, "s");
    let util = e.utilization();
    res.metric(
        "eval.worker_util",
        ratio(util.iter().sum(), util.len() as f64),
        "ratio",
    );
    res.check(tr.failures == 0, || {
        format!("{} degraded candidates in the traced run", tr.failures)
    });

    // Stage replay of every fresh candidate, checked against the library.
    let problem = MappingProblem::new(&b.apps, &b.arch, cfg.clone());
    let mut acc = StageTotals::default();
    let mut diverged = 0usize;
    for g in &tr.fresh {
        let r = replay_candidate(&problem, cfg, g, &mut acc);
        let report = problem.report(g);
        if r.design != problem.decode_repaired(g)
            || r.power.to_bits() != report.power.to_bits()
            || r.feasible != report.feasible
        {
            diverged += 1;
        }
    }
    res.check(diverged == 0, || {
        format!(
            "stage replay diverged from the library on {diverged} of {} candidates",
            tr.fresh.len()
        )
    });
    res.metric("repair.structure_s", acc.structure_s, "s");
    res.metric("repair.reliability_s", acc.reliability_s, "s");
    res.metric(
        "repair.structure_fixes",
        acc.structure_fixes as f64,
        "count",
    );
    res.metric("decode_s", acc.decode_s, "s");
    res.metric("harden_s", acc.harden_s, "s");
    res.metric("harden.tasks", acc.harden_tasks as f64, "count");
    res.metric("map_s", acc.map_s, "s");
    res.metric("sched.build_s", acc.build_s, "s");
    res.metric("sched.run_s", acc.sched_run_s, "s");
    res.metric("sched.runs", acc.sched_runs as f64, "count");
    res.metric(
        "sched.fixedpoint_iters",
        acc.fixedpoint_iters as f64,
        "count",
    );
    res.metric("mc.enumerate_s", acc.analysis_s - acc.sched_run_s, "s");
    res.metric("mc.scenarios", acc.scenarios as f64, "count");
    res.metric("mc.pruned", acc.pruned as f64, "count");
    res.metric(
        "mc.runs_per_scenario",
        ratio(acc.sched_runs as f64, acc.scenarios as f64),
        "ratio",
    );
    let a = &tr.analysis;
    res.metric("delta.reuses", a.delta_reuses as f64, "count");
    res.metric(
        "delta.cold_fallbacks",
        a.delta_cold_fallbacks as f64,
        "count",
    );
    res.metric("delta.backend_reused", a.backend_reused as f64, "count");
    res.metric("objective_s", acc.objective_s, "s");
    res.metric(
        "replay.coverage",
        ratio(acc.covered_s(), e.eval_nanos as f64 * 1e-9),
        "ratio",
    );
}

/// Campaign and simulator metrics: pool efficiency is the serial
/// simulation time the campaign's runs represent (sampled mean × runs)
/// over the thread-seconds the campaign occupied.
fn sim_layers(
    b: &Benchmark,
    points: &[MaterializedPoint],
    ccfg: &CampaignConfig,
    runs: u64,
    campaign_wall_s: f64,
    res: &mut RunResult,
) {
    let sample = replay_sims(
        points,
        &b.arch,
        &b.policies,
        ccfg,
        ccfg.profiles.min(SIM_SAMPLE),
    );
    res.check(sample.violations == 0, || {
        format!(
            "{} WCRT-bound violations in the sim replay",
            sample.violations
        )
    });
    let serial_s =
        ratio(sample.run_us.iter().sum(), sample.run_us.len() as f64) * 1e-6 * runs as f64;
    res.metric(
        "campaign.pool_efficiency",
        ratio(serial_s, THREADS as f64 * campaign_wall_s),
        "ratio",
    );
    res.metric("sim.run_p50_us", median(&sample.run_us), "us");
    res.metric("sim.run_p90_us", percentile(&sample.run_us, 0.9), "us");
    res.metric("sim.runs", runs as f64, "count");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            "--budget" => {
                args.smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    v => return Err(format!("--budget: expected full or smoke, got {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One run of one workload: set-up, timed phase, checks, and (traced)
/// per-layer metrics.
fn run_workload(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut sampler = SetupSampler::default();
    let s = sampler.sample(w, args.seed, SETUP_START_S, SETUP_MIN_REPS)?;
    let timed = match w.kind {
        Kind::Dse => run_dse(w, args, &s, &mut sampler, &mut res)?,
        Kind::Validate => run_validate(w, args, &s, &mut sampler, &mut res)?,
    };
    let setup_times = sampler.medians();
    if args.trace {
        res.metric("setup.model_s", setup_times.model_s, "s");
        res.metric("setup.lint_s", setup_times.lint_s, "s");
        if w.kind == Kind::Validate {
            res.metric("portfolio.extract_s", setup_times.extract_s, "s");
            res.metric("portfolio.materialize_s", setup_times.materialize_s, "s");
        }
    } else {
        res.metric("setup_s", setup_times.total_s, "s");
        res.metric("wall_s", timed.wall_s, "s");
        res.metric("peak_rss_mb", timed.peak_rss_mb, "MB");
    }
    Ok(res)
}

/// What a timed phase reports end to end.
struct Timed {
    wall_s: f64,
    /// Peak resident set once the run's fixed work is done (every GA seed
    /// explored once, or the first campaign), so the extra repetitions a
    /// fast host fits into the window do not raise it.
    peak_rss_mb: f64,
}

/// The DSE timed phase: `explore` once per GA seed of the run (cycling
/// until the window has passed), each checked. Returns the interquartile
/// mean over the seeds of each seed's median wall time (robust to a burst
/// of host noise during a few explorations). In a traced run every
/// repetition is paired with a traced one and the window alone bounds
/// the run.
fn run_dse(
    w: &Workload,
    args: &Args,
    s: &Setup,
    sampler: &mut SetupSampler,
    res: &mut RunResult,
) -> Result<Timed, String> {
    let b = &s.bench;
    let mut peak_rss_mb = 0.0;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); w.seeds];
    let mut fronts: Vec<u64> = Vec::new();
    let mut overheads = Vec::new();
    let mut first_trace: Option<(DseConfig, DseTrace)> = None;
    let start = Instant::now();
    for rep in 0.. {
        let k = rep % w.seeds;
        let mut cfg = s.cfg.clone();
        cfg.ga.seed = w.ga_seed(args.seed, k);
        let t = Instant::now();
        let outcome = explore(&b.apps, &b.arch, cfg.clone());
        let wall = t.elapsed().as_secs_f64();
        if rep + 1 == w.seeds {
            peak_rss_mb = util::peak_rss_mb();
        }
        let problem = MappingProblem::new(&b.apps, &b.arch, cfg.clone());
        checks::check_dse(&problem, w.pop * (w.gens + 1), &outcome, res);
        let front = format!("{:?}", outcome.reports);
        walls[k].push(wall);
        if args.trace {
            let tr = traced_explore(b, &cfg)?;
            res.check(format!("{:?}", tr.reports) == front, || {
                "the traced run's front differs from the untraced run's".into()
            });
            res.attempted += tr.result.evaluations as u64;
            overheads.push(tr.wall_s / wall);
            first_trace.get_or_insert((cfg, tr));
        }
        if rep < w.seeds {
            fronts.push(digest(&front));
        }
        sampler.sample(w, args.seed, SETUP_SLICE_S, 1)?;
        let seeds_done = rep + 1 >= w.seeds || args.trace;
        if seeds_done && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    res.label(
        "front_digest",
        format!("{:016x}", digest(&format!("{fronts:?}"))),
    );
    res.label(
        "explorations",
        walls.iter().map(Vec::len).sum::<usize>().to_string(),
    );

    if let Some((cfg, tr)) = first_trace {
        dse_layers(b, &cfg, &tr, res);
        // The front as a portfolio, validated by a small WC-Sim campaign.
        let problem = MappingProblem::new(&b.apps, &b.arch, cfg.clone());
        let t = Instant::now();
        let portfolio = Portfolio::extract(&problem, &tr.result.front);
        res.metric("portfolio.extract_s", t.elapsed().as_secs_f64(), "s");
        let t = Instant::now();
        let points = portfolio
            .materialize(&problem)
            .map_err(|e| format!("materialize: {e}"))?;
        res.metric("portfolio.materialize_s", t.elapsed().as_secs_f64(), "s");
        res.label("front_points", points.len().to_string());
        if points.is_empty() {
            res.metric("campaign.pool_efficiency", 0.0, "ratio");
            res.metric("sim.run_p50_us", 0.0, "us");
            res.metric("sim.run_p90_us", 0.0, "us");
            res.metric("sim.runs", 0.0, "count");
        } else {
            let ccfg = campaign_config(w, points.len(), args.seed);
            let (wall, summary) = timed_campaign(b, &points, &ccfg)?;
            checks::check_campaign(&summary, &ccfg, res);
            sim_layers(b, &points, &ccfg, summary.total_runs(), wall, res);
        }
        res.metric("trace.overhead", median(&overheads), "ratio");
    }
    let per_seed: Vec<f64> = walls.iter().map(|v| median(v)).collect();
    Ok(Timed {
        wall_s: interquartile_mean(&per_seed),
        peak_rss_mb,
    })
}

/// The `validate` timed phase: the campaign, repeated until the window
/// has passed, each checked. Returns the median wall time. The campaign
/// has no wrapper to trace, so a traced run pairs each campaign with an
/// identical one and takes the layer numbers from a serial replay of
/// sampled profiles and from the traced portfolio exploration.
fn run_validate(
    w: &Workload,
    args: &Args,
    s: &Setup,
    sampler: &mut SetupSampler,
    res: &mut RunResult,
) -> Result<Timed, String> {
    let b = &s.bench;
    let ccfg = campaign_config(w, s.points.len(), args.seed);
    let mut peak_rss_mb = 0.0;
    let mut walls = Vec::new();
    let mut overheads = Vec::new();
    res.label("front_digest", format!("{:016x}", digest(&s.front)));
    res.label("points", s.points.len().to_string());
    let start = Instant::now();
    loop {
        let (wall, summary) = timed_campaign(b, &s.points, &ccfg)?;
        checks::check_campaign(&summary, &ccfg, res);
        let rendered = summary.to_json();
        if walls.is_empty() {
            peak_rss_mb = util::peak_rss_mb();
            res.label("campaign_digest", format!("{:016x}", digest(&rendered)));
        }
        walls.push(wall);
        if args.trace {
            let (traced, again) = timed_campaign(b, &s.points, &ccfg)?;
            checks::check_campaign(&again, &ccfg, res);
            res.check(again.to_json() == rendered, || {
                "a repeated campaign's summary differs".into()
            });
            overheads.push(traced / wall);
        }
        sampler.sample(w, args.seed, SETUP_SLICE_S, 1)?;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    res.label("campaigns", walls.len().to_string());
    let wall_s = median(&walls);
    if args.trace {
        let tr = traced_explore(b, &s.cfg)?;
        res.check(format!("{:?}", tr.reports) == s.front, || {
            "the traced portfolio front differs from the untraced one".into()
        });
        dse_layers(b, &s.cfg, &tr, res);
        let runs = ccfg.profiles * s.points.len() as u64;
        sim_layers(b, &s.points, &ccfg, runs, wall_s, res);
        res.metric("trace.overhead", median(&overheads), "ratio");
    }
    Ok(Timed {
        wall_s,
        peak_rss_mb,
    })
}

fn print_result(name: &str, res: &RunResult) {
    for (k, v) in &res.labels {
        println!("[{name}] {k} = {v}");
    }
    for m in &res.metrics {
        println!("[{name}] {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &res.problems {
        println!("[{name}] CHECK FAILED: {p}");
    }
    println!(
        "[{name}] checks {}, {} attempted, {} failed",
        if res.problems.is_empty() {
            "passed"
        } else {
            "FAILED"
        },
        res.attempted,
        res.failed
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("perfbench: --workload is required");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = RunResult::default();
    for name in &names {
        let Some(w) = workload(name, args.smoke) else {
            eprintln!("perfbench: unknown workload {name}; expected one of {WORKLOADS:?} or all");
            return ExitCode::from(2);
        };
        let res = match run_workload(&w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        print_result(w.name, &res);
        if names.len() == 1 {
            total = res;
        } else {
            // `all`: one result with workload-prefixed metric names (the
            // peak resident set is then the process-wide peak so far).
            total.attempted += res.attempted;
            total.failed += res.failed;
            total.problems.extend(res.problems);
            for m in res.metrics {
                total.metric(&format!("{}.{}", w.name, m.name), m.value, m.unit);
            }
        }
    }
    println!("{}", total.to_json());
    ExitCode::SUCCESS
}
