//! `mcmap-cli` — command-line front end over the library: sample designs,
//! analyze, simulate, explore, and export the built-in benchmarks.
//!
//! ```text
//! mcmap_cli list
//! mcmap_cli analyze  <benchmark> [seed] [--json]  # sample a design, print slack
//! mcmap_cli simulate <benchmark> [runs]      # Monte-Carlo vs. the bound
//! mcmap_cli gantt    <benchmark> [seed]      # ASCII schedule of one hyperperiod
//! mcmap_cli dot      <benchmark>             # GraphViz of the application set
//! mcmap_cli dse      <benchmark> [pop gens] [dse flags…]  # power/service exploration
//! mcmap_cli validate <benchmark> [pop gens] [--profiles N] [--seed N]
//!                                [--boost F] [--threads N] [--json]
//!                                [--portfolio <path>] [--checkpoint <path>]
//!                                [--resume]         # Monte-Carlo bound validation
//! mcmap_cli lint     <benchmark> [--json] [--inject cycle|relbound|inverted]
//! mcmap_cli lint     <benchmark> --interference [seed] [--json|--dot]
//! mcmap_cli lint     --explain [MCxxxx]      # one code's card, or all codes
//! mcmap_cli obs      <trace.jsonl> [--json]  # profile a recorded trace
//! mcmap_cli obs      query <trace> [--name S] [--kind K] [--field K[=V]]
//!                    [--generation N] [--json]
//! mcmap_cli obs      critical-path <trace> [--json]
//! mcmap_cli obs      flame <trace>           # folded stacks for flamegraphs
//! mcmap_cli obs      diff <a.jsonl> <b.jsonl> [--json]
//! mcmap_cli serve    [--addr H:P] [--jobs-dir D] [--workers N] [--slice N]
//!                    [--cache-cap N] [--job-threads N]
//!                                            # multi-tenant DSE job server
//! mcmap_cli client   <addr> submit <benchmark> [pop gens] [--seed N]
//! mcmap_cli client   <addr> <status|cancel|resume|front|stream|wait> <id>
//! mcmap_cli client   <addr> <list|shutdown>
//! mcmap_cli client   <addr> stats [--json]   # aligned table, or raw frame
//! mcmap_cli client   <addr> metrics [--prometheus]
//! ```
//!
//! Benchmarks: `cruise`, `dt-med`, `dt-large`, `synth1`, `synth2`, plus
//! the generated fleet presets `fleet-small` / `fleet-med` / `fleet-large`
//! (500–5000-task layered-DAG sets on 16–64-PE interference-aware
//! platforms; a fleet name also deepens the explored hardening space to
//! the preset's re-execution/replica bounds). `fig5_pareto` and
//! `sec52_dropping` accept the same presets through `--fleet <preset>`.
//!
//! `dse` and `validate` describe their run as a `mcmap_serve::JobSpec`
//! (GA seed 8) and explore its one recipe, `JobSpec::dse_config`, as a
//! served job does.
//!
//! Every verb parses its flags through the one table-driven parser of
//! `mcmap_bench::flags`, and answers a usage error — an unknown flag, a
//! missing or malformed value, an extra argument — with the usage text and
//! exit code 2, before running anything.
//!
//! `dse` runs the candidate-evaluation engine (`mcmap-eval`) underneath:
//! `--threads` spreads each generation across that many threads (0 = one per
//! core; results are bit-identical for any thread count), `--cache-cap`
//! bounds the memoization cache (0 disables it), and `--eval-stats`
//! prints the engine's instrumentation (cache hit rate, per-phase nanos,
//! genomes/sec) as text or, with `--eval-stats json`, as JSON, plus the
//! WCRT-analysis effort counters (backend calls, fixed-point iterations,
//! scenarios pruned). Dominance pruning of transition scenarios is on by
//! default and bit-identical to the prune-free reference whenever the
//! analysis converges (it can change non-converged windows, and with them
//! the front); `--no-prune` switches it off for A/B timing.
//!
//! `dse` can additionally trace itself through `mcmap-obs`: `--trace`
//! streams every event (spans, counters, per-generation telemetry) to a
//! JSONL file, `--obs-summary` prints the aggregated profile, `--gen-stats`
//! prints the per-generation convergence table, and `--audit` prints the
//! §5.2 solution-audit snapshot. `obs` renders a recorded JSONL trace into
//! the same profile report offline. Tracing never changes results: the
//! canonical event stream is deterministic for any `--threads` or
//! `--cache-cap`.
//!
//! `dse` is resilient (`mcmap-resilience`): `--checkpoint` writes the full
//! driver state atomically after every generation, `--resume` restarts from
//! such a checkpoint (falling back to its `.bak` when the primary is a torn
//! write) and reproduces the uninterrupted run bit-identically — same Pareto
//! front, same canonical trace. SIGINT/SIGTERM stop the run cleanly at the
//! next generation boundary (checkpoint written, trace flushed, partial
//! results printed, exit code 130). `--eval-retries` bounds how often a
//! panicking candidate evaluation is retried before the candidate degrades
//! to an infeasible placeholder instead of aborting the exploration.
//!
//! `lint` runs the `mcmap-lint` static analyzer over the benchmark's model
//! and prints the structured `MC0xxx` diagnostics (text or JSON); the
//! `--inject` flag plants a known defect first, which demonstrates the codes
//! and doubles as an end-to-end check of the DSE pre-flight (the same codes
//! that make `lint` exit non-zero also make `dse` refuse the input).
//! `lint --interference` renders the shared-PE interference graph of a
//! repaired sample chromosome — which applications can shift each other's
//! response times — and `lint --explain MCxxxx` prints the
//! cause / example / fix card of any diagnostic code (with no code, it
//! lists every known code with its one-line summary).
//!
//! `serve` turns the same exploration into a long-running multi-tenant job
//! service (`mcmap-serve`): tenants submit specs over a length-framed JSON
//! TCP protocol, a bounded worker pool timeslices the jobs fairly at
//! generation boundaries (each slice checkpointed, so killing the server —
//! even SIGKILL — loses at most the slice in flight and every job resumes
//! bit-identically), and identical submissions share a server-wide
//! evaluation cache. `client` is the matching command-line driver: `wait`
//! exits 0 only when the job completes, and `stream` prints one line per
//! finished generation.

use mcmap_bench::flags::{self, number, text, Args, Arity::*, Flag, UsageError};
use mcmap_bench::{sample_designs, EvalKnobs, SampleDesign};
use mcmap_benchmarks::Benchmark;
use mcmap_core::{
    analyze, analyze_explained, explore_checked, read_portfolio, repair_reliability,
    repair_structure, write_portfolio, AnalysisStats, GenomeSpace, MappingProblem, Portfolio,
};
use mcmap_model::Time;
use mcmap_resilience::ResilienceError;
use mcmap_runtime::{run_campaign, CampaignConfig};
use mcmap_serve::JobSpec;
use mcmap_sim::{monte_carlo, MonteCarloConfig, NoFaults, SimConfig, Simulator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// Prints the usage error and the usage text; exit code 2.
fn usage(err: &UsageError) -> ExitCode {
    eprintln!(
        "mcmap_cli: {err}\n\
         usage: mcmap_cli <list|analyze|simulate|gantt|dot|dse|validate|lint|obs|serve|client> [args…]\n\
         benchmarks: cruise, dt-med, dt-large, synth1, synth2,\n\
         \u{20}           fleet-small, fleet-med, fleet-large\n\
         dse flags:  {dse}\n\
         analyze:    mcmap_cli analyze <benchmark> [seed] [--json]\n\
         simulate:   mcmap_cli simulate <benchmark> [runs]\n\
         gantt:      mcmap_cli gantt <benchmark> [seed]\n\
         dot:        mcmap_cli dot <benchmark>\n\
         validate:   mcmap_cli validate <benchmark> [pop gens] [--profiles <n>]\n\
         \u{20}           [--seed <n>] [--boost <f>] [--threads <n>] [--json]\n\
         \u{20}           [--portfolio <path>] [--checkpoint <path>] [--resume]\n\
         lint flags: --json, --inject <cycle|relbound|inverted>,\n\
         \u{20}           --interference [seed] [--json|--dot], --explain [MCxxxx]\n\
         obs:        mcmap_cli obs <trace.jsonl> [--json]\n\
         \u{20}           | obs query <trace> [--name <s>]\n\
         \u{20}             [--kind <span_begin|span_end|counter|mark>] [--field <k[=v]>]\n\
         \u{20}             [--generation <n>] [--json]\n\
         \u{20}           | obs critical-path <trace> [--json] | obs flame <trace>\n\
         \u{20}           | obs diff <a.jsonl> <b.jsonl> [--json]\n\
         serve:      mcmap_cli serve [--addr <host:port>] [--jobs-dir <dir>]\n\
         \u{20}           [--workers <n>] [--slice <n>] [--cache-cap <n>] [--job-threads <n>]\n\
         client:     mcmap_cli client <addr> submit <benchmark> [pop gens] [--seed <n>]\n\
         \u{20}           | <status|cancel|resume|front|stream|wait> <id> | list | shutdown\n\
         \u{20}           | stats [--json] | status <id> [--json] | metrics [--prometheus]",
        dse = flags::synopsis(&mcmap_bench::dse_flags(), "            "),
    );
    ExitCode::from(2)
}

/// A verb's first positional, resolved as a benchmark name.
fn bench_arg(args: &Args) -> Result<(Benchmark, &str), UsageError> {
    let name = args.required(0, "<benchmark>")?;
    match mcmap_benchmarks::by_name(name) {
        Some(b) => Ok((b, name)),
        None => Err(UsageError(format!("unknown benchmark {name:?}"))),
    }
}

/// The exploration `<benchmark> [pop gens]` names, as the job the server
/// would run for it (GA seed 8; `budget` is the default population and
/// generation count), with its benchmark.
fn exploration(args: &Args, budget: usize) -> Result<(Benchmark, JobSpec), UsageError> {
    let (b, key) = bench_arg(args)?;
    let spec = JobSpec {
        benchmark: key.to_string(),
        population: args.positional(1, budget)?,
        generations: args.positional(2, budget)?,
        seed: 8,
    };
    Ok((b, spec))
}

/// `--json`, the switch several verbs share.
const JSON: Flag = ("--json", Switch);

fn sampled(b: &Benchmark, seed: u64) -> Option<SampleDesign> {
    sample_designs(b, 1, seed).into_iter().next()
}

fn cmd_list() -> ExitCode {
    for name in mcmap_benchmarks::NAMES {
        let b = mcmap_benchmarks::by_name(name).expect("a listed name");
        println!(
            "{name:9} {:2} apps ({} critical), {:2} tasks, {} PEs, hyperperiod {}",
            b.apps.num_apps(),
            b.apps.nondroppable_apps().count(),
            b.apps.num_tasks(),
            b.arch.num_processors(),
            b.apps.hyperperiod()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_analyze(b: &Benchmark, seed: u64, json: bool) -> ExitCode {
    let Some(d) = sampled(b, seed) else {
        eprintln!("could not sample a converging design (try another seed)");
        return ExitCode::FAILURE;
    };
    let t_analysis = std::time::Instant::now();
    // Only the text report names binding triggers.
    let (mc, scenario_app_wcrt) = if json {
        let mc = analyze(&d.hsys, &b.arch, &d.mapping, &b.policies, &d.dropped);
        (mc, Vec::new())
    } else {
        analyze_explained(&d.hsys, &b.arch, &d.mapping, &b.policies, &d.dropped)
    };
    let analysis_nanos = t_analysis.elapsed().as_nanos() as u64;
    if json {
        // One object per run, with the same `analysis` keys as the DSE's
        // `--eval-stats json` report (a single candidate).
        let stats = AnalysisStats {
            candidates: 1,
            scenarios: mc.scenarios as u64,
            backend_calls: mc.backend_calls as u64,
            fixedpoint_iters: mc.fixedpoint_iters as u64,
            scenarios_pruned: mc.scenarios_pruned as u64,
            analysis_nanos,
            ..AnalysisStats::default()
        };
        let apps: Vec<String> = b
            .apps
            .apps()
            .map(|(id, app)| {
                let wcrt = mc.app_wcrt(&d.hsys, id, &d.dropped);
                format!(
                    "{{\"name\":\"{}\",\"wcrt\":{},\"deadline\":{},\"schedulable\":{}}}",
                    app.name(),
                    if wcrt == Time::MAX {
                        "null".to_string()
                    } else {
                        wcrt.ticks().to_string()
                    },
                    app.deadline().ticks(),
                    wcrt <= app.deadline(),
                )
            })
            .collect();
        let dropped: Vec<String> = d
            .dropped
            .iter()
            .map(|&a| format!("\"{}\"", b.apps.app(a).name()))
            .collect();
        println!(
            "{{\"seed\":{seed},\"schedulable\":{},\"dropped\":[{}],\
             \"apps\":[{}],\"analysis\":{}}}",
            mc.schedulable(&d.hsys, &d.dropped),
            dropped.join(","),
            apps.join(","),
            stats.to_json(),
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "sampled design (seed {seed}): {} hardened tasks, T_d = {:?}\n",
        d.hsys.num_tasks(),
        d.dropped
            .iter()
            .map(|&a| b.apps.app(a).name())
            .collect::<Vec<_>>()
    );
    println!(
        "{:16} {:>9} {:>9} {:>9}  binding state",
        "application", "wcrt", "deadline", "slack"
    );
    for (id, app) in b.apps.apps() {
        let wcrt = mc.app_wcrt(&d.hsys, id, &d.dropped);
        let binding = mc
            .binding_trigger(&d.hsys, &scenario_app_wcrt, id)
            .map(|t| format!("fault in {}", d.hsys.task(t).name))
            .unwrap_or_else(|| "fault-free".to_string());
        println!(
            "{:16} {:>9} {:>9} {:>9}  {}",
            app.name(),
            wcrt.to_string(),
            app.deadline().to_string(),
            app.deadline().saturating_sub(wcrt).to_string(),
            binding
        );
    }
    println!(
        "\nschedulable: {} ({} scenarios, {} backend calls, {} pruned)",
        mc.schedulable(&d.hsys, &d.dropped),
        mc.scenarios,
        mc.backend_calls,
        mc.scenarios_pruned,
    );
    ExitCode::SUCCESS
}

fn cmd_simulate(b: &Benchmark, runs: usize) -> ExitCode {
    let Some(d) = sampled(b, 11) else {
        eprintln!("could not sample a converging design");
        return ExitCode::FAILURE;
    };
    let mc = analyze(&d.hsys, &b.arch, &d.mapping, &b.policies, &d.dropped);
    let result = monte_carlo(
        &d.hsys,
        &b.arch,
        &d.mapping,
        &b.policies,
        &MonteCarloConfig {
            runs,
            boost: 1e5,
            sim: SimConfig::worst_case(d.dropped.clone()),
            ..MonteCarloConfig::default()
        },
    );
    println!(
        "{runs} boosted failure profiles; {} critical entries\n",
        result.critical_entries
    );
    println!(
        "{:16} {:>9} {:>9} {:>9} {:>9}",
        "application", "median", "p99", "max-sim", "bound"
    );
    for id in b.apps.app_ids() {
        println!(
            "{:16} {:>9} {:>9} {:>9} {:>9}",
            b.apps.app(id).name(),
            result.median(id).to_string(),
            result.percentile(id, 0.99).to_string(),
            result.app_wcrt[id.index()].to_string(),
            mc.app_wcrt(&d.hsys, id, &d.dropped).to_string(),
        );
    }
    ExitCode::SUCCESS
}

fn cmd_gantt(b: &Benchmark, seed: u64) -> ExitCode {
    let Some(d) = sampled(b, seed) else {
        eprintln!("could not sample a converging design");
        return ExitCode::FAILURE;
    };
    let sim = Simulator::new(&d.hsys, &b.arch, &d.mapping, b.policies.clone());
    let (_, trace) = sim.run_traced(&SimConfig::default(), &mut NoFaults);
    let names = Trace::name_table(&d.hsys, d.mapping.placement());
    let horizon = Time::from_ticks(b.apps.hyperperiod().ticks().min(20_000));
    print!("{}", trace.render_gantt(&names, horizon, 100));
    println!("\n(one fault-free hyperperiod, horizon {horizon}, 100 columns)");
    ExitCode::SUCCESS
}

/// `lint --explain MCxxxx`: prints the cause / example / fix card of one
/// diagnostic code (no benchmark needed).
fn cmd_explain(code: &str) -> ExitCode {
    match mcmap_lint::code_doc(code) {
        Some(doc) => {
            print!("{}", doc.render_text());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "lint: unknown code {code:?}; known codes are MC0001–MC0015 (model), \
                 MC0101–MC0113 (hardening/genome), MC0120–MC0122 (interference) — \
                 see `mcmap_cli lint <benchmark>` or the README code table"
            );
            ExitCode::FAILURE
        }
    }
}

/// `lint --explain` with no code: lists every diagnostic code the analyzer
/// can emit with its one-line summary.
fn cmd_explain_all() -> ExitCode {
    for doc in mcmap_lint::all_code_docs() {
        println!("{}: {}", doc.code, doc.summary);
    }
    ExitCode::SUCCESS
}

/// `serve`: runs the multi-tenant DSE job server until SIGINT/SIGTERM or a
/// client `shutdown` verb, then drains — running slices stop at their next
/// checkpointed generation boundary, so every unfinished job resumes
/// bit-identically.
fn cmd_serve(args: &Args) -> ExitCode {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7421").to_string();
    let mut cfg = mcmap_serve::ServeConfig::default();
    if let Some(dir) = args.value("--jobs-dir") {
        cfg.jobs_dir = std::path::PathBuf::from(dir);
    }
    cfg.workers = args.get("--workers").unwrap_or(cfg.workers);
    cfg.slice = args.get("--slice").unwrap_or(cfg.slice);
    cfg.cache_cap = args.get("--cache-cap").unwrap_or(cfg.cache_cap);
    cfg.job_threads = args.get("--job-threads").unwrap_or(cfg.job_threads);
    let jobs_dir = cfg.jobs_dir.clone();
    let server = match mcmap_serve::Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = server.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    // Bridge SIGINT/SIGTERM into the server's shutdown latch so a plain
    // `kill` drains gracefully (checkpoints written at the next boundary).
    let shutdown = server.shutdown_handle();
    let signal = mcmap_resilience::install_stop_flag();
    std::thread::spawn(move || loop {
        if signal.load(std::sync::atomic::Ordering::SeqCst) {
            shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        if shutdown.load(std::sync::atomic::Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    println!(
        "mcmap-serve listening on {local} ({} workers, jobs in {})",
        server.registry().worker_count(),
        jobs_dir.display(),
    );
    server.run();
    println!("serve: drained — unfinished jobs are checkpointed and resumable");
    ExitCode::SUCCESS
}

/// `client`: one verb against a running server. The command line is
/// checked before connecting, so a usage error never reaches the server.
fn cmd_client(tail: &[String]) -> Result<ExitCode, UsageError> {
    let [addr, verb, rest @ ..] = tail else {
        return Err(UsageError("client needs <addr> <verb>".into()));
    };
    let verb = verb.as_str();
    // Each verb's flags, and its positionals: none, a job id, or a
    // benchmark with an optional `pop gens` budget.
    let (table, max): (&[Flag], usize) = match verb {
        "submit" => (&[("--seed", Value("n", number::<u64>))], 3),
        "status" => (&[JSON], 1),
        "stats" => (&[JSON], 0),
        "metrics" => (&[("--prometheus", Switch)], 0),
        "front" | "cancel" | "resume" | "stream" | "wait" => (&[], 1),
        "list" | "shutdown" => (&[], 0),
        _ => return Err(UsageError(format!("unknown client verb {verb:?}"))),
    };
    let args = flags::parse(rest, table, max)?;
    let id = match (verb, max) {
        (_, 0) => "",
        ("submit", _) => args.required(0, "<benchmark>")?,
        _ => args.required(0, "<id>")?,
    };
    let (population, generations) = (args.positional(1, 40)?, args.positional(2, 40)?);
    let mut c = match mcmap_serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client: cannot connect to {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let fail = |e: String| -> ExitCode {
        eprintln!("client: {e}");
        ExitCode::FAILURE
    };
    // Prints a reply verbatim, or reports the failure.
    let show = |reply: Result<String, String>| match reply {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    };
    let line = |text: String| text + "\n";
    Ok(match verb {
        "submit" => {
            let spec = mcmap_serve::JobSpec {
                benchmark: id.to_string(),
                population,
                generations,
                seed: args.get("--seed").unwrap_or(8),
            };
            show(c.submit(&spec).map(line))
        }
        "status" if args.has("--json") => show(c.verb_raw(verb, Some(id)).map(line)),
        "status" => show(
            c.status(id)
                .map(|job| mcmap_serve::render::render_status(&job)),
        ),
        "stats" if args.has("--json") => show(c.verb_raw(verb, None).map(line)),
        "stats" => show(
            c.stats()
                .map(|stats| mcmap_serve::render::render_stats(&stats)),
        ),
        "metrics" if args.has("--prometheus") => show(c.metrics_prometheus()),
        "front" => show(c.verb_raw(verb, Some(id)).map(line)),
        "metrics" | "list" => show(c.verb_raw(verb, None).map(line)),
        "cancel" | "resume" => show(c.verb_raw(verb, Some(id)).map(|_| "ok\n".into())),
        "stream" => show(
            c.stream(id, |g| println!("generation {g}"))
                .map(|state| format!("done: {state}\n")),
        ),
        "wait" => match c.wait(id) {
            Ok(state) => {
                println!("{state}");
                if state == "completed" {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => fail(e),
        },
        _ => show(c.shutdown().map(|()| "ok\n".into())),
    })
}

/// `lint --interference`: samples a repaired chromosome, builds its
/// interference graph, and renders it (text with diagnostics, `--json`, or
/// `--dot` for GraphViz).
fn cmd_interference(b: &Benchmark, args: &Args) -> ExitCode {
    let seed = args.get("--interference").unwrap_or(11);
    let space = GenomeSpace::new(&b.apps, &b.arch);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = space.random(&mut rng);
    repair_structure(&mut g, &space, &mut rng);
    let _ = repair_reliability(&mut g, &space, &b.apps, &b.arch, &mut rng, 80);
    let Some(ig) = mcmap_lint::InterferenceGraph::build(&b.apps, &b.arch, &g) else {
        eprintln!("lint: sampled genome does not fit the system (internal error)");
        return ExitCode::FAILURE;
    };
    if args.has("--dot") {
        print!("{}", ig.to_dot());
    } else if args.has("--json") {
        println!("{}", ig.to_json());
    } else {
        println!("interference graph of a repaired sample (seed {seed}):\n");
        print!("{}", ig.render_text());
        let report = mcmap_lint::Linter::new(&b.apps, &b.arch).lint_full(None, Some(&g));
        let interference: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code.starts_with("MC012"))
            .collect();
        if !interference.is_empty() {
            println!();
            for d in interference {
                println!("{d}");
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_lint(b: &Benchmark, args: &Args) -> ExitCode {
    if args.has("--interference") {
        return cmd_interference(b, args);
    }
    let apps = match args.value("--inject") {
        None => b.apps.clone(),
        Some("cycle") => mcmap_lint::inject::with_cycle(&b.apps),
        Some("relbound") => mcmap_lint::inject::with_unsatisfiable_reliability(&b.apps),
        Some(_) => mcmap_lint::inject::with_inverted_bounds(&b.apps),
    };
    let report = mcmap_lint::Linter::new(&apps, &b.arch).lint();
    if args.has("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_dse(b: &Benchmark, spec: &JobSpec, knobs: &EvalKnobs, validate: Option<u64>) -> ExitCode {
    let mut cfg = spec.dse_config(b, knobs.threads);
    knobs.apply(&mut cfg);
    mcmap_bench::hook_interrupts(&mut cfg);
    cfg.obs = knobs.recorder();
    let outcome = match explore_checked(&b.apps, &b.arch, cfg) {
        Ok(o) => o,
        Err(err) => {
            eprintln!("dse: {err}");
            if let Some(report) = err.lint_report() {
                eprint!("{}", report.render_text());
            }
            return ExitCode::FAILURE;
        }
    };
    if let Some(generation) = outcome.resumed_from {
        println!("resumed from checkpoint at generation {generation}");
    }
    println!(
        "{} evaluations, {} feasible\n",
        outcome.audit.evaluated, outcome.audit.feasible
    );
    println!("{:>12} {:>9}  dropped set", "power [mW]", "service");
    let mut rows: Vec<_> = outcome.reports.iter().filter(|r| r.feasible).collect();
    rows.sort_by(|a, b| a.power.partial_cmp(&b.power).expect("finite"));
    rows.dedup_by(|a, b| (a.power - b.power).abs() < 1e-9 && a.service == b.service);
    for r in rows {
        let names: Vec<&str> = r.dropped.iter().map(|&a| b.apps.app(a).name()).collect();
        println!(
            "{:>12.2} {:>9.1}  {{{}}}",
            r.power,
            r.service,
            names.join(", ")
        );
    }
    if !outcome.failures.is_empty() {
        println!(
            "\n{} candidate evaluation(s) degraded after repeated panics:",
            outcome.failures.len()
        );
        for failure in outcome.failures.iter().take(5) {
            println!("  {failure}");
        }
    }
    knobs.report("dse", &outcome.eval_stats);
    knobs.report_analysis("dse", &outcome.analysis);
    knobs.report_audit("dse", &outcome.audit);
    knobs.report_obs("dse", &outcome.obs);
    if outcome.interrupted {
        let done = outcome
            .result
            .history
            .last()
            .map_or(0, |row| row.generation);
        let (key, pop, gens) = (&spec.benchmark, spec.population, spec.generations);
        println!("\ninterrupted after generation {done} of {gens}; the results above are partial.");
        if let Some(path) = &knobs.checkpoint {
            println!(
                "resume with: mcmap_cli dse {key} {pop} {gens} --resume {path} --checkpoint {path}"
            );
        }
        return ExitCode::from(mcmap_bench::INTERRUPTED_EXIT);
    }
    if let Some(profiles) = validate {
        println!();
        // One problem serves extraction and materialization: both decode
        // under the recipe (not the knobs), so `--audit` leaves the
        // portfolio's context alone.
        let problem = MappingProblem::new(&b.apps, &b.arch, spec.dse_config(b, knobs.threads));
        let portfolio = Portfolio::extract(&problem, &outcome.result.front);
        println!(
            "portfolio: {} operating point(s) (context {:016x})",
            portfolio.points.len(),
            portfolio.context
        );
        if portfolio.points.is_empty() {
            eprintln!("dse --validate: no feasible operating point to validate");
            return ExitCode::FAILURE;
        }
        let ccfg = CampaignConfig {
            profiles,
            threads: knobs.threads,
            ..CampaignConfig::default()
        };
        return run_validation(spec, &problem, &portfolio, None, &ccfg, false);
    }
    ExitCode::SUCCESS
}

/// Materializes the portfolio (read from `source` when given) under
/// `problem`, the exploration of `spec`, runs the Monte-Carlo campaign,
/// prints the deterministic summary to stdout (runs/sec goes to stderr —
/// wall time must not break summary byte-identity), and returns the exit
/// code.
fn run_validation(
    spec: &JobSpec,
    problem: &MappingProblem<'_>,
    portfolio: &Portfolio,
    source: Option<&str>,
    ccfg: &CampaignConfig,
    json: bool,
) -> ExitCode {
    let points = match portfolio.materialize(problem) {
        Ok(p) => p,
        Err(mut e) => {
            // A foreign portfolio is named by the file it was read from.
            if let (ResilienceError::ConfigMismatch { path, .. }, Some(source)) = (&mut e, source) {
                *path = source.into();
            }
            eprintln!("validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if points.is_empty() {
        eprintln!("validate: the portfolio has no feasible operating point");
        return ExitCode::FAILURE;
    }
    let started = std::time::Instant::now();
    let summary = match run_campaign(&points, problem.arch(), problem.policies(), ccfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", summary.to_json());
    } else {
        print!("{}", summary.render_text());
    }
    let secs = started.elapsed().as_secs_f64();
    let fresh = summary
        .total_runs()
        .saturating_sub(summary.resumed_from.unwrap_or(0) * points.len() as u64);
    if secs > 0.0 {
        eprintln!(
            "{} simulation runs in {:.2}s ({:.0} runs/sec)",
            fresh,
            secs,
            fresh as f64 / secs
        );
    }
    if summary.interrupted {
        if let Some(path) = ccfg.checkpoint.as_ref().and_then(|p| p.to_str()) {
            eprintln!(
                "interrupted after {} of {} profiles; resume with: \
                 mcmap_cli validate {} {} {} --checkpoint {path} --resume",
                summary.done, summary.profiles, spec.benchmark, spec.population, spec.generations
            );
        }
        return ExitCode::from(mcmap_bench::INTERRUPTED_EXIT);
    }
    if summary.total_violations() > 0 {
        eprintln!(
            "validate: {} WCRT-bound violation(s) — the analysis is refuted on this portfolio",
            summary.total_violations()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_validate(b: &Benchmark, spec: &JobSpec, args: &Args) -> ExitCode {
    let portfolio_path = args.value("--portfolio");
    let stop = mcmap_resilience::install_stop_flag();
    // One problem serves extraction and materialization; the exploration
    // runs on one thread (`--threads` sizes the campaign).
    let problem = MappingProblem::new(&b.apps, &b.arch, spec.dse_config(b, 1));

    // The portfolio: loaded from --portfolio when the file exists,
    // otherwise extracted from a fresh (deterministic, seed-8)
    // exploration and saved there for the next invocation.
    let stored = portfolio_path.filter(|p| std::path::Path::new(p).exists());
    let portfolio = match stored {
        Some(path) => match read_portfolio(std::path::Path::new(path)) {
            Ok((p, recovered)) => {
                if recovered {
                    eprintln!("validate: portfolio recovered from {path}.bak");
                }
                p
            }
            Err(e) => {
                eprintln!("validate: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut cfg = spec.dse_config(b, 1);
            cfg.resilience.stop = Some(stop.clone());
            let outcome = match explore_checked(&b.apps, &b.arch, cfg) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("validate: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if outcome.interrupted {
                eprintln!("validate: interrupted during exploration; nothing to validate yet");
                return ExitCode::from(mcmap_bench::INTERRUPTED_EXIT);
            }
            let portfolio = Portfolio::extract(&problem, &outcome.result.front);
            if let Some(path) = portfolio_path {
                if let Err(e) = write_portfolio(std::path::Path::new(path), &portfolio) {
                    eprintln!("validate: {e}");
                    return ExitCode::FAILURE;
                }
            }
            portfolio
        }
    };
    println!(
        "portfolio: {} operating point(s) (context {:016x})",
        portfolio.points.len(),
        portfolio.context
    );
    let ccfg = CampaignConfig {
        profiles: args.get("--profiles").unwrap_or(1000),
        seed: args.get("--seed").unwrap_or(0xC0FFEE),
        boost: args.get("--boost").unwrap_or(1e3),
        threads: args.get("--threads").unwrap_or(0),
        checkpoint: args.value("--checkpoint").map(std::path::PathBuf::from),
        resume: args.has("--resume"),
        stop: Some(stop),
        ..CampaignConfig::default()
    };
    let json = args.has("--json");
    run_validation(spec, &problem, &portfolio, stored, &ccfg, json)
}

fn cmd_obs(path: &str, json: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("obs: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Tolerant read: a trace cut short by a crash (torn final line, or
    // garbage past the valid prefix) still profiles — the reader keeps the
    // valid prefix and reports exactly what it dropped.
    let (profile, recovery) = mcmap_obs::TraceProfile::from_jsonl_lossy(&text);
    if recovery.lossy() {
        eprintln!(
            "obs: trace {path} is truncated: profiled {} event(s), dropped {} trailing \
             line(s) ({} byte(s)){}",
            recovery.parsed_events,
            recovery.dropped_lines,
            recovery.dropped_bytes,
            recovery
                .error
                .as_deref()
                .map(|e| format!(" — first bad line: {e}"))
                .unwrap_or_default()
        );
    }
    if recovery.lossy() && recovery.parsed_events == 0 {
        eprintln!("obs: no usable events in {path}");
        return ExitCode::FAILURE;
    }
    if json {
        println!("{}", profile.to_json());
    } else {
        print!("{}", profile.render_text());
    }
    ExitCode::SUCCESS
}

/// Loads a JSONL trace for the analytics subverbs, tolerating a torn tail
/// the same way `cmd_obs` does.
fn load_trace(path: &str) -> Result<Vec<mcmap_obs::Event>, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("obs: cannot read {path}: {err}");
            return Err(ExitCode::FAILURE);
        }
    };
    let (events, recovery) = mcmap_obs::events_from_jsonl_lossy(&text);
    if recovery.lossy() {
        eprintln!(
            "obs: trace {path} is truncated: kept {} event(s), dropped {} trailing line(s)",
            recovery.parsed_events, recovery.dropped_lines
        );
    }
    if events.is_empty() {
        eprintln!("obs: no usable events in {path}");
        return Err(ExitCode::FAILURE);
    }
    Ok(events)
}

/// `obs query`: filter a trace by name substring, event kind, field
/// presence/value, and generation; print matches as a table or JSONL.
fn cmd_obs_query(path: &str, args: &Args) -> ExitCode {
    let q = mcmap_obs::TraceQuery {
        name: args.value("--name").map(String::from),
        kind: args.value("--kind").and_then(mcmap_obs::EventKind::parse),
        field: args.value("--field").map(|v| match v.split_once('=') {
            Some((k, val)) => (k.to_string(), Some(val.to_string())),
            None => (v.to_string(), None),
        }),
        generation: args.get("--generation"),
    };
    let json = args.has("--json");
    let events = match load_trace(path) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let hits = mcmap_obs::query(&events, &q);
    for e in &hits {
        if json {
            println!("{}", e.to_jsonl());
        } else {
            let fields: Vec<String> = e
                .fields
                .iter()
                .map(|(k, v)| {
                    let mut s = String::new();
                    v.write_json(&mut s);
                    format!("{k}={s}")
                })
                .collect();
            println!(
                "{:>6}  {:<10}  {:<24}  {}",
                e.seq,
                e.kind.as_str(),
                e.name,
                fields.join(" ")
            );
        }
    }
    if !json {
        eprintln!(
            "obs query: {} of {} event(s) matched",
            hits.len(),
            events.len()
        );
    }
    ExitCode::SUCCESS
}

/// `obs critical-path`: the slowest span chain of every generation.
fn cmd_obs_critical_path(path: &str, json: bool) -> ExitCode {
    let events = match load_trace(path) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let paths = mcmap_obs::critical_paths(&events);
    if paths.is_empty() {
        eprintln!("obs critical-path: trace has no generation spans with wall times");
        return ExitCode::FAILURE;
    }
    if json {
        let mut out = String::from("[");
        for (i, p) in paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"generation\":{},\"total_ns\":{},\"steps\":[",
                p.generation, p.total_ns
            ));
            for (j, s) in p.steps.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                mcmap_obs::push_json_str(&mut out, &s.name);
                out.push_str(&format!(
                    ",\"wall_ns\":{},\"self_ns\":{}}}",
                    s.wall_ns, s.self_ns
                ));
            }
            out.push_str("]}");
        }
        out.push(']');
        println!("{out}");
    } else {
        for p in &paths {
            println!("generation {:<4} total {} ns", p.generation, p.total_ns);
            for s in &p.steps {
                println!(
                    "  {:<28} wall {:>12} ns  self {:>12} ns",
                    s.name, s.wall_ns, s.self_ns
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// `obs flame`: folded-stack lines (`a;b;c self_ns`) ready for any
/// flame-graph renderer that eats the Brendan Gregg collapsed format.
fn cmd_obs_flame(path: &str) -> ExitCode {
    let events = match load_trace(path) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let stacks = mcmap_obs::folded_stacks(&events);
    if stacks.is_empty() {
        eprintln!("obs flame: trace has no spans with wall times");
        return ExitCode::FAILURE;
    }
    for (stack, self_ns) in &stacks {
        println!("{stack} {self_ns}");
    }
    ExitCode::SUCCESS
}

/// `obs diff`: compare two traces — canonical event streams, counter
/// sums, span populations. Exits nonzero when the deterministic portions
/// differ, so it doubles as a replay-identity check in scripts.
fn cmd_obs_diff(path_a: &str, path_b: &str, json: bool) -> ExitCode {
    let (a, b) = match (load_trace(path_a), load_trace(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let diff = mcmap_obs::diff_traces(&a, &b);
    if json {
        println!("{}", diff.to_json());
    } else {
        print!("{}", diff.render_text());
    }
    if diff.deterministically_identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses one command line against its verb's flag table and runs the
/// verb; a usage error returns before any work starts.
fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    let Some((cmd, tail)) = args.split_first() else {
        return Err(UsageError("missing command".into()));
    };
    Ok(match cmd.as_str() {
        "list" => {
            flags::parse(tail, &[], 0)?;
            cmd_list()
        }
        "analyze" => {
            let args = flags::parse(tail, &[JSON], 2)?;
            let (b, _) = bench_arg(&args)?;
            cmd_analyze(&b, args.positional(1, 11)?, args.has("--json"))
        }
        "simulate" => {
            let args = flags::parse(tail, &[], 2)?;
            let (b, _) = bench_arg(&args)?;
            cmd_simulate(&b, args.positional(1, 500)?)
        }
        "gantt" => {
            let args = flags::parse(tail, &[], 2)?;
            let (b, _) = bench_arg(&args)?;
            cmd_gantt(&b, args.positional(1, 11)?)
        }
        "dot" => {
            let args = flags::parse(tail, &[], 1)?;
            let (b, _) = bench_arg(&args)?;
            print!("{}", mcmap_model::appset_to_dot(&b.apps));
            ExitCode::SUCCESS
        }
        "dse" => {
            let args = flags::parse(tail, &mcmap_bench::dse_flags(), 3)?;
            let (b, spec) = exploration(&args, 40)?;
            let validate = args
                .has("--validate")
                .then(|| args.get("--validate").unwrap_or(256));
            cmd_dse(&b, &spec, &EvalKnobs::from_flags(&args), validate)
        }
        "validate" => {
            let table = [
                ("--profiles", Value("n", number::<u64>)),
                ("--seed", Value("n", number::<u64>)),
                ("--boost", Value("f", number::<f64>)),
                ("--threads", Value("n", number::<usize>)),
                JSON,
                ("--portfolio", Value("path", text)),
                ("--checkpoint", Value("path", text)),
                ("--resume", Switch),
            ];
            let args = flags::parse(tail, &table, 3)?;
            let (b, spec) = exploration(&args, 24)?;
            cmd_validate(&b, &spec, &args)
        }
        "lint" => {
            let table = [
                JSON,
                (
                    "--inject",
                    Value("cycle|relbound|inverted", |v| {
                        matches!(v, "cycle" | "relbound" | "inverted")
                    }),
                ),
                ("--interference", Optional("seed", number::<u64>)),
                ("--dot", Switch),
                // `--explain [MCxxxx]` documents one code (or lists them
                // all), no benchmark involved.
                ("--explain", Optional("MCxxxx", text)),
            ];
            let args = flags::parse(tail, &table, 1)?;
            match args.value("--explain") {
                Some(code) => cmd_explain(code),
                None if args.has("--explain") => cmd_explain_all(),
                None => cmd_lint(&bench_arg(&args)?.0, &args),
            }
        }
        "obs" => {
            // Analytics subverbs first; anything else is a trace path for
            // the classic profile rendering.
            let rest = tail.get(1..).unwrap_or_default();
            match tail.first().map(String::as_str) {
                Some("query") => {
                    let table = [
                        ("--name", Value("s", text)),
                        (
                            "--kind",
                            Value("kind", |v| mcmap_obs::EventKind::parse(v).is_some()),
                        ),
                        ("--field", Value("k[=v]", text)),
                        ("--generation", Value("n", number::<u64>)),
                        JSON,
                    ];
                    let args = flags::parse(rest, &table, 1)?;
                    cmd_obs_query(args.required(0, "<trace>")?, &args)
                }
                Some("flame") => cmd_obs_flame(flags::parse(rest, &[], 1)?.required(0, "<trace>")?),
                Some("diff") => {
                    let args = flags::parse(rest, &[JSON], 2)?;
                    let (a, b) = (
                        args.required(0, "<a.jsonl>")?,
                        args.required(1, "<b.jsonl>")?,
                    );
                    cmd_obs_diff(a, b, args.has("--json"))
                }
                Some("critical-path") => {
                    let args = flags::parse(rest, &[JSON], 1)?;
                    cmd_obs_critical_path(args.required(0, "<trace>")?, args.has("--json"))
                }
                _ => {
                    let args = flags::parse(tail, &[JSON], 1)?;
                    cmd_obs(args.required(0, "<trace.jsonl>")?, args.has("--json"))
                }
            }
        }
        "serve" => {
            let table = [
                ("--addr", Value("host:port", text)),
                ("--jobs-dir", Value("dir", text)),
                ("--workers", Value("n", number::<usize>)),
                (
                    "--slice",
                    Value("n", |v| v.parse::<usize>().is_ok_and(|n| n > 0)),
                ),
                ("--cache-cap", Value("n", number::<usize>)),
                ("--job-threads", Value("n", number::<usize>)),
            ];
            cmd_serve(&flags::parse(tail, &table, 0)?)
        }
        "client" => cmd_client(tail)?,
        _ => return Err(UsageError(format!("unknown command {cmd:?}"))),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|err| usage(&err))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fleet_key_explores_and_validates_at_its_preset_depth() {
        let explored = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let (b, spec) = exploration(&flags::parse(&args, &[], 3).unwrap(), 24).unwrap();
            (spec.seed, spec.dse_config(&b, 1))
        };
        let (seed, cfg) = explored("fleet-small 8 2");
        let fleet = mcmap_benchmarks::fleet_small_config();
        assert_eq!((seed, cfg.ga.population, cfg.ga.generations), (8, 8, 2));
        assert_eq!(
            (cfg.max_reexec, cfg.max_replicas),
            (fleet.max_reexec, fleet.max_replicas)
        );
        // The paper benchmarks keep the default depth, which the preset's
        // deeper space differs from.
        let (_, cruise) = explored("cruise");
        let default = mcmap_core::DseConfig::default();
        assert_eq!((cruise.ga.population, cruise.ga.generations), (24, 24));
        assert_eq!(
            (cruise.max_reexec, cruise.max_replicas),
            (default.max_reexec, default.max_replicas)
        );
        assert_ne!(cruise.max_reexec, cfg.max_reexec);
    }
}
