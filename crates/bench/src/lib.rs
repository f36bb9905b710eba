//! # mcmap-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5). Each artifact has a dedicated binary:
//!
//! | binary            | paper artifact |
//! |-------------------|----------------|
//! | `table2_wcrt`     | Table 2 — WCRT of the two critical Cruise applications under Adhoc / WC-Sim / Proposed / Naive |
//! | `sec52_dropping`  | §5.2 — optimized power with vs. without dropping, rescue ratios, hardening mix |
//! | `fig5_pareto`     | Fig. 5 — power–service Pareto front of DT-med |
//! | `fig1_motivation` | Fig. 1 — the motivational task-dropping scenario |
//!
//! Budgets are configurable through environment variables (`MCMAP_POP`,
//! `MCMAP_GENS`, `MCMAP_SIM_RUNS`, `MCMAP_SEED`) so the tables regenerate in
//! minutes by default and can be pushed towards the paper's 100×5000 budget
//! when time allows. Everything else is a command-line flag, parsed by the
//! one table-driven parser in [`flags`].

#![warn(missing_docs)]

pub mod ab;
pub mod flags;

use flags::{number, report_format, text, Args, Arity::*, Flag};

use mcmap_benchmarks::Benchmark;
use mcmap_core::{repair_reliability, repair_structure, DseOutcome, GenomeSpace, Resume};
use mcmap_hardening::{harden, HardenedSystem};
use mcmap_model::AppId;
use mcmap_sched::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Reads a `usize` experiment parameter from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` experiment parameter from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The host's usable core count, recorded with every thread-dependent
/// bench result so that a speedup near 1.0 reads as "one core", not as
/// "engine regressed".
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The comparable fingerprint of an exploration: the full report list
/// (feasible flag, objectives, dropped sets) in front order.
pub fn front_fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

/// Times an exploration at `par` threads (leg 0) against one thread
/// (leg 1) in [`ab`]'s alternating pairs, so the median ratio is the
/// parallel speedup. Untimed runs of both legs first page in the code and
/// are returned as `(serial, parallel)` for their engine stats; every run,
/// timed or not, must reproduce the serial front bit for bit.
pub fn serial_vs_parallel(
    par: usize,
    explore_at: impl Fn(usize) -> DseOutcome,
) -> (DseOutcome, DseOutcome, ab::Measurement) {
    let serial = explore_at(1);
    let want = front_fingerprint(&serial);
    let run = |threads| {
        let outcome = explore_at(threads);
        assert_eq!(
            front_fingerprint(&outcome),
            want,
            "the Pareto front must be bit-identical for any thread count"
        );
        outcome
    };
    let parallel = run(par);
    assert_eq!(serial.eval_stats.genomes, parallel.eval_stats.genomes);
    let m = ab::measure(&mut [&mut || drop(run(par)), &mut || drop(run(1))]);
    (serial, parallel, m)
}

/// Writes a bench artifact atomically into `MCMAP_BENCH_OUT` (default:
/// the repository's `results/`), creating the directory, and prints the
/// path it wrote.
pub fn write_artifact(name: &str, json: &str) {
    let dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = std::path::Path::new(&dir).join(name);
    mcmap_resilience::atomic_write(&path, json.as_bytes())
        .unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("wrote {}", path.display());
}

/// A concrete design (hardening + mapping + dropped set) of a benchmark,
/// used by the Table 2 experiment as a "sample mapping".
#[derive(Debug)]
pub struct SampleDesign {
    /// The hardened system.
    pub hsys: HardenedSystem,
    /// The task-to-processor binding.
    pub mapping: Mapping,
    /// The dropped application set `T_d`.
    pub dropped: Vec<AppId>,
}

/// Generates `count` distinct sample designs of a benchmark by sampling
/// repaired chromosomes (clustered seeds mixed with uniform ones) and
/// keeping those whose fault-free state converges.
pub fn sample_designs(b: &Benchmark, count: usize, seed: u64) -> Vec<SampleDesign> {
    let space = GenomeSpace::new(&b.apps, &b.arch);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut designs = Vec::new();
    let mut attempts = 0;
    while designs.len() < count && attempts < 500 {
        attempts += 1;
        let mut g = if attempts % 2 == 0 {
            space.clustered(&mut rng)
        } else {
            space.random(&mut rng)
        };
        repair_structure(&mut g, &space, &mut rng);
        if !repair_reliability(&mut g, &space, &b.apps, &b.arch, &mut rng, 80) {
            continue;
        }
        let (plan, dropped, bindings) = space.decode(&g);
        let Ok(hsys) = harden(&b.apps, &plan, &b.arch) else {
            continue;
        };
        let placement = hsys.placement(&bindings);
        let Ok(mapping) = Mapping::new(&hsys, &b.arch, placement) else {
            continue;
        };
        // Keep designs whose fault-free state is well-behaved.
        let analysis = mcmap_core::analyze(&hsys, &b.arch, &mapping, &b.policies, &dropped);
        if !analysis.normal.converged || !analysis.worst.converged {
            continue;
        }
        designs.push(SampleDesign {
            hsys,
            mapping,
            dropped,
        });
    }
    designs
}

/// Formats a time value for table output (`-` for [`mcmap_model::Time::MAX`]).
pub fn fmt_time(t: mcmap_model::Time) -> String {
    if t == mcmap_model::Time::MAX {
        "-".to_string()
    } else {
        t.ticks().to_string()
    }
}

/// Output format of an `--eval-stats` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable multi-line text.
    Text,
    /// Single-object JSON (for `BENCH_*.json` tooling).
    Json,
}

/// The evaluation-engine, observability, resilience and workload knobs of
/// the experiment binaries and `mcmap_cli dse`, one per row of
/// [`EvalKnobs::FLAGS`]; each front-end accepts only the rows it honors
/// ([`EvalKnobs::flags`]). A report flag (`--eval-stats [json]` and its
/// siblings) also takes `text`, and `off` or `0` to turn the report off.
///
/// `threads == 0` (the default) means one worker per available core —
/// results are bit-identical for any thread count, so this is purely a
/// speed knob; so are all the observability flags (tracing never perturbs
/// the search) and scenario pruning (it reproduces the prune-free
/// reference bit-for-bit), with one known exception: pruning can change
/// the windows of non-converged analyses, and with them the front (see
/// [`AnalysisOptions`](mcmap_core::AnalysisOptions)).
#[derive(Debug, Clone)]
pub struct EvalKnobs {
    /// Evaluation worker threads (0 = one per core).
    pub threads: usize,
    /// Memoization-cache entry bound (0 disables caching).
    pub cache_cap: usize,
    /// When set, print engine instrumentation after the run.
    pub eval_stats: Option<StatsFormat>,
    /// When set, stream the full event trace to this JSONL file.
    pub trace: Option<String>,
    /// When set, print the trace profile (spans / counters / generations)
    /// after the run.
    pub obs_summary: Option<StatsFormat>,
    /// When set, print the per-generation GA convergence table after the
    /// run.
    pub gen_stats: Option<StatsFormat>,
    /// When set, enable the §5.2 solution audit and print its snapshot
    /// after the run.
    pub audit: Option<StatsFormat>,
    /// When set, checkpoint the exploration to this path after every
    /// generation.
    pub checkpoint: Option<String>,
    /// When set, resume the exploration from this checkpoint.
    pub resume: Option<String>,
    /// The `--resume` checkpoint, read once for the trace and the run.
    resumed: OnceLock<Result<Resume, String>>,
    /// Retry budget for candidates whose evaluation panics (default 1).
    pub eval_retries: u32,
    /// Disables dominance pruning of scenario bound-vectors.
    pub no_prune: bool,
    /// When set, the generated fleet preset (`fleet-small`, `fleet-med` or
    /// `fleet-large`, resolved through [`mcmap_benchmarks::by_name`]) the
    /// experiment explores in place of its paper benchmark — the
    /// 500–5000-task workloads the parallel evaluation path is sized
    /// against. Its [`JobSpec`](mcmap_serve::JobSpec) brings the preset's
    /// hardening depth.
    pub fleet: Option<String>,
}

impl EvalKnobs {
    /// Every knob's row. `fig5_pareto` accepts them all; the other
    /// front-ends take the subset [`Self::flags`] selects.
    pub const FLAGS: &'static [Flag] = &[
        ("--threads", Value("n", number::<usize>)),
        ("--cache-cap", Value("n", number::<usize>)),
        ("--eval-stats", Optional("json", report_format)),
        ("--trace", Value("path.jsonl", text)),
        ("--obs-summary", Optional("json", report_format)),
        ("--gen-stats", Optional("json", report_format)),
        ("--audit", Optional("json", report_format)),
        ("--checkpoint", Value("path", text)),
        ("--resume", Value("path", text)),
        ("--eval-retries", Value("n", number::<u32>)),
        ("--no-prune", Switch),
        (
            "--fleet",
            Value("fleet-small|fleet-med|fleet-large", fleet_preset),
        ),
    ];

    /// The rows of [`Self::FLAGS`] whose flag `keep` admits, in table order.
    pub fn flags(keep: impl Fn(&str) -> bool) -> Vec<Flag> {
        Self::FLAGS
            .iter()
            .copied()
            .filter(|(name, _)| keep(name))
            .collect()
    }

    /// Whether a binary that runs a fixed work list and no GA
    /// (`table2_wcrt`, `fig1_motivation`, `ablation_hardening`) honors
    /// `flag`: it spreads its items over `--threads`, reports their wall
    /// time under `--eval-stats`, and traces them with `--trace` and
    /// `--obs-summary`.
    pub fn worklist(flag: &str) -> bool {
        matches!(
            flag,
            "--threads" | "--eval-stats" | "--trace" | "--obs-summary"
        )
    }

    /// Reads the knobs from the process arguments, parsed against `table`
    /// (rows of [`Self::FLAGS`]). A usage error — a flag outside the
    /// table, a missing or malformed value, any positional — prints the
    /// usage line rendered from `table` and exits with code 2 before
    /// anything runs.
    pub fn parse(table: &[Flag]) -> Self {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let args: Vec<String> = argv.collect();
        match flags::parse(&args, table, 0) {
            Ok(parsed) => Self::from_flags(&parsed),
            Err(err) => {
                let synopsis = flags::synopsis(table, "       ");
                eprintln!("{bin}: {err}\nusage: {bin} {synopsis}");
                std::process::exit(2);
            }
        }
    }

    /// Reads the knobs from a command line parsed against rows of
    /// [`Self::FLAGS`]; an absent flag, or one the table left out, keeps
    /// its default.
    pub fn from_flags(args: &Args) -> Self {
        let report = |name: &str| match args.value(name) {
            _ if !args.has(name) => None,
            Some("json") => Some(StatsFormat::Json),
            Some("off" | "0") => None,
            _ => Some(StatsFormat::Text),
        };
        let path = |name: &str| args.value(name).map(String::from);
        EvalKnobs {
            threads: args.get("--threads").unwrap_or(0),
            cache_cap: args.get("--cache-cap").unwrap_or(65_536),
            eval_stats: report("--eval-stats"),
            trace: path("--trace"),
            obs_summary: report("--obs-summary"),
            gen_stats: report("--gen-stats"),
            audit: report("--audit"),
            checkpoint: path("--checkpoint"),
            resume: path("--resume"),
            resumed: OnceLock::new(),
            eval_retries: args.get("--eval-retries").unwrap_or(1),
            no_prune: args.has("--no-prune"),
            fleet: path("--fleet"),
        }
    }

    /// Whether any observability output (trace file, profile summary,
    /// generation table) was requested.
    pub fn wants_obs(&self) -> bool {
        self.trace.is_some() || self.obs_summary.is_some() || self.gen_stats.is_some()
    }

    /// Builds the recorder the requested observability knobs imply: the
    /// disabled no-op recorder when none was asked for, otherwise an
    /// in-memory ring plus, with `--trace`, a JSONL file sink.
    ///
    /// Build it **once per process** and clone it into every
    /// [`DseConfig`](mcmap_core::DseConfig) (clones share the same sinks
    /// and sequence counter): rebuilding would truncate the trace file
    /// between runs.
    ///
    /// Exits the process with code 2 when the trace file cannot be
    /// created — silently dropping a requested trace would be worse — and
    /// with code 1, as a run without `--trace` does, when the `--resume`
    /// checkpoint cannot be read (before the trace is touched).
    pub fn recorder(&self) -> mcmap_obs::Recorder {
        if !self.wants_obs() {
            return mcmap_obs::Recorder::default();
        }
        // Attach only the sinks the requested outputs need: the in-memory
        // ring exists for in-process readback (`--obs-summary` /
        // `--gen-stats`), so a pure `--trace` run skips it and pays for
        // exactly one sink on the emission hot path.
        let mut builder = mcmap_obs::RecorderBuilder::new();
        if self.obs_summary.is_some() || self.gen_stats.is_some() {
            builder = builder.ring(1 << 20);
        }
        if let Some(path) = &self.trace {
            let mut resume = match self.resume_checkpoint() {
                None => None,
                Some(Ok(resume)) => Some(resume.clone()),
                Some(Err(err)) => {
                    eprintln!("mcmap: checkpoint/resume failed: {err}");
                    std::process::exit(1);
                }
            };
            builder = match mcmap_core::attach_trace(
                builder,
                std::path::Path::new(path),
                resume.as_mut(),
            ) {
                Ok((builder, trace_seq, cut)) => {
                    if cut.dropped > 0 || cut.torn_bytes > 0 {
                        eprintln!(
                            "mcmap: salvaged trace {path}: kept {} event(s) up to seq \
                             {trace_seq}, dropped {} event(s) past the checkpoint and {} \
                             torn byte(s)",
                            cut.kept, cut.dropped, cut.torn_bytes
                        );
                    }
                    builder
                }
                Err(err) => {
                    eprintln!("mcmap: cannot attach trace {path}: {err}");
                    std::process::exit(2);
                }
            };
        }
        builder.build()
    }

    /// The `--resume` checkpoint, read, unsealed and decoded on the first
    /// call only: [`Self::recorder`] needs its trace mark and
    /// [`Self::apply`] hands it to the exploration.
    fn resume_checkpoint(&self) -> Option<&Result<Resume, String>> {
        let path = self.resume.as_deref()?;
        Some(
            self.resumed
                .get_or_init(|| Resume::read(PathBuf::from(path)).map_err(|e| e.to_string())),
        )
    }

    /// Applies the knobs to an exploration config (threads, cache bound,
    /// audit mode, checkpointing, retries, pruning). The observability recorder is installed separately —
    /// build it once with [`Self::recorder`] and clone it into
    /// `cfg.obs` — because rebuilding it per config would truncate the
    /// trace file between runs.
    pub fn apply(&self, cfg: &mut mcmap_core::DseConfig) {
        cfg.ga.threads = self.threads;
        cfg.cache_cap = self.cache_cap;
        if self.audit.is_some() {
            cfg.audit = true;
        }
        cfg.resilience.checkpoint = self.checkpoint.as_ref().map(std::path::PathBuf::from);
        // An unreadable checkpoint is left to the exploration, which
        // reports it.
        cfg.resilience.resume = self.resume_checkpoint().map(|read| match read {
            Ok(resume) => resume.clone(),
            Err(_) => Resume::from(PathBuf::from(self.resume.as_deref().expect("set"))),
        });
        cfg.resilience.eval_retries = self.eval_retries;
        cfg.analysis = mcmap_core::AnalysisOptions {
            prune: !self.no_prune,
        };
    }

    /// Prints one engine snapshot in the requested format (no-op when
    /// `--eval-stats` was not requested).
    pub fn report(&self, label: &str, stats: &mcmap_core::EvalStats) {
        let (text, json) = (|| stats.render_text(), || stats.to_json());
        print_snapshot(self.eval_stats, label, "eval", text, json);
    }

    /// Prints one WCRT-analysis effort snapshot in the requested format
    /// (no-op when `--eval-stats` was not requested). Piggybacks on the
    /// `--eval-stats` knob because the analysis counters answer the same
    /// question — where did the evaluation time go — at the layer below.
    pub fn report_analysis(&self, label: &str, stats: &mcmap_core::AnalysisStats) {
        let (text, json) = (|| stats.render_text(), || stats.to_json());
        print_snapshot(self.eval_stats, label, "analysis", text, json);
    }

    /// Prints the requested observability reports for a finished run: the
    /// trace-file confirmation, the `--obs-summary` profile, and the
    /// `--gen-stats` convergence table (no-op when none was requested).
    pub fn report_obs(&self, label: &str, telemetry: &mcmap_obs::Recorder) {
        telemetry.flush();
        // A lossy trace is worse than no trace when it goes unnoticed:
        // surface ring overwrites and JSONL write failures unconditionally.
        let dropped = telemetry.dropped_events();
        if dropped > 0 {
            eprintln!(
                "[{label}] WARNING: {dropped} event(s) dropped (ring overwritten or \
                 trace-file write failed) — the recorded trace is incomplete"
            );
        }
        if let Some(path) = &self.trace {
            println!(
                "[{label}] trace written to {path} ({} events)",
                telemetry.emitted()
            );
        }
        if self.obs_summary.is_none() && self.gen_stats.is_none() {
            return;
        }
        let profile = mcmap_obs::TraceProfile::from_events(&telemetry.events());
        match self.obs_summary {
            None => {}
            Some(StatsFormat::Text) => {
                println!("\n[{label}] observability profile");
                print!("{}", profile.render_text());
            }
            Some(StatsFormat::Json) => {
                println!("{{\"label\":\"{label}\",\"obs\":{}}}", profile.to_json());
            }
        }
        match self.gen_stats {
            None => {}
            Some(StatsFormat::Text) => {
                println!("\n[{label}] generations");
                print!("{}", profile.render_generations());
            }
            Some(StatsFormat::Json) => {
                println!(
                    "{{\"label\":\"{label}\",\"generations\":{}}}",
                    profile.generations_json()
                );
            }
        }
    }

    /// Prints the `--audit` snapshot report (no-op when not requested).
    pub fn report_audit(&self, label: &str, audit: &mcmap_core::AuditSnapshot) {
        let (text, json) = (|| audit.render_text(), || audit.to_json());
        print_snapshot(self.audit, label, "audit", text, json);
    }

    /// Prints a plain wall-clock throughput line for binaries whose work is
    /// a fixed item list rather than a GA population (no-op when
    /// `--eval-stats` was not requested).
    pub fn report_wall(&self, label: &str, items: usize, wall: std::time::Duration) {
        if let Some(line) = self.wall_line(label, items, wall) {
            println!("{line}");
        }
    }

    /// The [`report_wall`](Self::report_wall) line. It names the worker
    /// count the pool resolves for `items`, not the `--threads` knob.
    fn wall_line(&self, label: &str, items: usize, wall: std::time::Duration) -> Option<String> {
        let secs = wall.as_secs_f64();
        let rate = if secs > 0.0 { items as f64 / secs } else { 0.0 };
        let threads = mcmap_eval::effective_threads(self.threads, items);
        match self.eval_stats? {
            StatsFormat::Text => Some(format!(
                "\n[{label}] {items} items in {secs:.3} s ({rate:.2} items/s, threads = {threads})"
            )),
            StatsFormat::Json => Some(format!(
                "{{\"label\":\"{label}\",\"items\":{items},\"wall_secs\":{secs:.6},\
                 \"items_per_sec\":{rate:.3},\"threads\":{threads}}}"
            )),
        }
    }
}

/// Prints one labelled snapshot in `format`: a `[label]` header over its
/// text rendering, or one `{"label":…,"<key>":…}` JSON line.
fn print_snapshot(
    format: Option<StatsFormat>,
    label: &str,
    key: &str,
    text: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
) {
    match format {
        None => {}
        Some(StatsFormat::Text) => print!("\n[{label}]\n{}", text()),
        Some(StatsFormat::Json) => println!("{{\"label\":\"{label}\",\"{key}\":{}}}", json()),
    }
}

/// Admits the name of a generated fleet preset.
fn fleet_preset(v: &str) -> bool {
    mcmap_benchmarks::fleet_preset(v).is_some()
}

/// `mcmap_cli dse`'s flag table: [`EvalKnobs::FLAGS`] plus `--validate
/// [n]`, less `--fleet` (`dse` takes a fleet preset as its benchmark).
pub fn dse_flags() -> Vec<Flag> {
    let mut table = EvalKnobs::flags(|name| name != "--fleet");
    table.push(("--validate", Optional("n", number::<u64>)));
    table
}

/// Installs the process-wide SIGINT/SIGTERM stop flag and wires it into an
/// exploration config: a signalled run finishes its current generation,
/// writes its checkpoint (when enabled), flushes the trace, and returns
/// with `interrupted = true` instead of dying mid-write.
pub fn hook_interrupts(cfg: &mut mcmap_core::DseConfig) {
    cfg.resilience.stop = Some(mcmap_resilience::install_stop_flag());
}

/// Conventional exit code of a run stopped by SIGINT/SIGTERM (128 + SIGINT).
pub const INTERRUPTED_EXIT: u8 = 130;

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_model::Time;

    #[test]
    fn env_parsers_fall_back_to_defaults() {
        assert_eq!(env_usize("MCMAP_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("MCMAP_DOES_NOT_EXIST", 9), 9);
    }

    #[test]
    fn fmt_time_renders_unbounded_as_dash() {
        assert_eq!(fmt_time(Time::from_ticks(42)), "42");
        assert_eq!(fmt_time(Time::MAX), "-");
    }

    /// Knobs from a command line parsed against `table`.
    fn parsed(table: &[Flag], args: &[&str]) -> Args {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        flags::parse(&args, table, 0).expect("valid command line")
    }

    fn knobs(args: &[&str]) -> EvalKnobs {
        EvalKnobs::from_flags(&parsed(EvalKnobs::FLAGS, args))
    }

    #[test]
    fn eval_knobs_parse_flags() {
        let k = knobs(&[
            "--threads",
            "4",
            "--cache-cap",
            "128",
            "--eval-stats",
            "json",
        ]);
        assert_eq!(k.threads, 4);
        assert_eq!(k.cache_cap, 128);
        assert_eq!(k.eval_stats, Some(StatsFormat::Json));
        assert!(!k.no_prune, "fast-path default");

        // A bare `--eval-stats` (even as the last flag) means text; `off`
        // turns the report off again.
        assert_eq!(knobs(&["--eval-stats"]).eval_stats, Some(StatsFormat::Text));
        assert_eq!(
            knobs(&["--eval-stats", "text"]).eval_stats,
            Some(StatsFormat::Text)
        );
        assert_eq!(knobs(&["--eval-stats", "off"]).eval_stats, None);
        assert_eq!(
            knobs(&["--eval-stats", "json", "--eval-stats", "0"]).eval_stats,
            None
        );
        assert_eq!(knobs(&[]).eval_stats, None);

        // The flag value must not swallow a following flag.
        let k = knobs(&["--eval-stats", "--threads", "2"]);
        assert_eq!(k.eval_stats, Some(StatsFormat::Text));
        assert_eq!(k.threads, 2);

        // Defaults.
        let k = knobs(&[]);
        assert_eq!((k.threads, k.cache_cap, k.eval_retries), (0, 65_536, 1));
        assert_eq!(knobs(&["--eval-retries", "3"]).eval_retries, 3);
    }

    #[test]
    fn the_dse_table_adds_validate_and_drops_fleet() {
        let table = dse_flags();
        let a = parsed(&table, &["--validate"]);
        assert!(a.has("--validate"));
        assert_eq!(a.get::<u64>("--validate"), None);
        assert_eq!(
            parsed(&table, &["--validate", "64"]).get::<u64>("--validate"),
            Some(64)
        );
        // Every knob but `--fleet` carries over.
        let k = EvalKnobs::from_flags(&parsed(&table, &["--threads", "2", "--audit", "json"]));
        assert_eq!((k.threads, k.audit), (2, Some(StatsFormat::Json)));
        let fleet = ["--fleet".to_string(), "fleet-small".to_string()];
        assert!(flags::parse(&fleet, &table, 0).is_err());
        assert_eq!(table.len(), EvalKnobs::FLAGS.len());
    }

    #[test]
    fn eval_knobs_parse_analysis_flags() {
        let k = knobs(&["--no-prune"]);
        assert!(k.no_prune);

        let mut cfg = mcmap_core::DseConfig::default();
        k.apply(&mut cfg);
        assert!(!cfg.analysis.prune);

        // The defaults leave the fast path on.
        let mut cfg = mcmap_core::DseConfig::default();
        knobs(&[]).apply(&mut cfg);
        assert!(cfg.analysis.prune);
    }

    #[test]
    fn eval_knobs_parse_obs_flags() {
        let k = knobs(&[
            "--trace",
            "/tmp/x.jsonl",
            "--obs-summary",
            "json",
            "--gen-stats",
            "--audit",
            "json",
        ]);
        assert_eq!(k.trace.as_deref(), Some("/tmp/x.jsonl"));
        assert_eq!(k.obs_summary, Some(StatsFormat::Json));
        assert_eq!(k.gen_stats, Some(StatsFormat::Text));
        assert_eq!(k.audit, Some(StatsFormat::Json));
        assert!(k.wants_obs());

        let k = knobs(&[]);
        assert_eq!(k.trace, None);
        assert!(!k.wants_obs());
        assert!(!k.recorder().enabled(), "no knobs → disabled recorder");

        // An enabled recorder without --trace is ring-only.
        let k = knobs(&["--obs-summary"]);
        assert!(k.recorder().enabled());

        // `--audit` also flips the exploration into audit mode.
        let mut cfg = mcmap_core::DseConfig::default();
        assert!(!cfg.audit);
        k.apply(&mut cfg);
        assert!(!cfg.audit, "no --audit flag, mode untouched");
        knobs(&["--audit"]).apply(&mut cfg);
        assert!(cfg.audit);
    }

    #[test]
    fn a_resume_checkpoint_is_read_once_for_the_trace_and_the_run() {
        let dir = std::env::temp_dir().join(format!("mcmap_bench_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (ckpt, trace) = (dir.join("run.ckpt"), dir.join("run.jsonl"));
        let b = mcmap_benchmarks::cruise();
        let mut cfg = mcmap_core::DseConfig::default();
        (cfg.ga.population, cfg.ga.generations) = (6, 1);
        cfg.resilience.checkpoint = Some(ckpt.clone());
        mcmap_core::explore(&b.apps, &b.arch, cfg);

        let k = knobs(&[
            "--resume",
            ckpt.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]);
        let mut cfg = mcmap_core::DseConfig::default();
        k.apply(&mut cfg);
        // With the checkpoint gone, the trace still attaches past its mark
        // and the run still resumes: both use what was read for `apply`.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(k.recorder().enabled());
        let Some(Resume::Read { checkpoint, .. }) = cfg.resilience.resume else {
            panic!("the checkpoint was not handed on decoded");
        };
        assert_eq!(checkpoint.generation, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_knob_resolves_by_name_and_takes_the_recipe_depth() {
        let k = knobs(&["--fleet", "fleet-small"]);
        let spec = mcmap_serve::JobSpec {
            benchmark: k.fleet.clone().expect("the knob is set"),
            population: 8,
            generations: 2,
            seed: 8,
        };
        let b = spec.resolve().expect("a fleet preset");
        let named = mcmap_benchmarks::by_name("fleet-small").expect("a known benchmark");
        assert_eq!(b.name, named.name);
        assert_eq!(b.apps.num_tasks(), named.apps.num_tasks());
        assert_eq!(b.arch.num_processors(), 16);
        let mut cfg = spec.dse_config(&b, 1);
        k.apply(&mut cfg);
        let preset = mcmap_benchmarks::fleet_small_config();
        assert_eq!(
            (cfg.max_reexec, cfg.max_replicas),
            (preset.max_reexec, preset.max_replicas)
        );

        // Only the three presets are accepted.
        for name in ["cruise", "fleet-huge"] {
            let args = ["--fleet".to_string(), name.to_string()];
            assert!(flags::parse(&args, EvalKnobs::FLAGS, 0).is_err(), "{name}");
        }
        assert_eq!(knobs(&[]).fleet, None);
    }

    #[test]
    fn front_ends_take_only_the_knobs_they_honor() {
        let worklist = EvalKnobs::flags(EvalKnobs::worklist);
        let names: Vec<&str> = worklist.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            ["--threads", "--eval-stats", "--trace", "--obs-summary"]
        );
        let k = EvalKnobs::from_flags(&parsed(&worklist, &["--threads", "3"]));
        assert_eq!((k.threads, k.cache_cap, k.checkpoint), (3, 65_536, None));
        let args = ["--gen-stats".to_string()];
        assert!(flags::parse(&args, &worklist, 0).is_err());
    }

    #[test]
    fn wall_line_reports_the_resolved_worker_count() {
        let wall = std::time::Duration::from_secs(1);
        let k = knobs(&["--threads", "0", "--eval-stats", "json"]);
        for items in [1, 2, 3, 1000] {
            let line = k.wall_line("w", items, wall).expect("requested");
            let threads = cores().min(items);
            assert!(
                line.ends_with(&format!("\"threads\":{threads}}}")),
                "{line}"
            );
        }
        let k = knobs(&["--threads", "0", "--eval-stats"]);
        let line = k.wall_line("w", 1, wall).expect("requested");
        assert!(line.ends_with("threads = 1)"), "{line}");
        assert_eq!(knobs(&["--threads", "0"]).wall_line("w", 1, wall), None);
    }

    #[test]
    fn sample_designs_produce_valid_converging_designs() {
        let b = mcmap_benchmarks::cruise();
        let designs = sample_designs(&b, 3, 11);
        assert_eq!(designs.len(), 3);
        for d in &designs {
            // Placement covers all tasks and honours fixed slots.
            assert_eq!(d.mapping.placement().len(), d.hsys.num_tasks());
            for (id, t) in d.hsys.tasks() {
                if let Some(p) = t.fixed_proc {
                    assert_eq!(d.mapping.proc_of(id), p);
                }
            }
            // The dropped set only names droppable applications.
            for a in &d.dropped {
                assert!(b.apps.app(*a).criticality().is_droppable());
            }
        }
    }
}
