//! Job specs, lifecycle states, per-tenant counters, and the on-disk
//! layout of one job directory.
//!
//! Each job owns a directory under the server's jobs root:
//!
//! ```text
//! jobs/<id>/spec.json    # the submitted spec (atomic write, immutable)
//! jobs/<id>/status.json  # last persisted state (atomic write)
//! jobs/<id>/ckpt         # sealed-envelope checkpoint (+ ckpt.bak)
//! jobs/<id>/trace.jsonl  # the job's stitched observability trace
//! jobs/<id>/front.json   # final Pareto front, written on completion
//! ```
//!
//! The checkpoint and trace are written by the exploration itself through
//! the `mcmap-resilience` / `mcmap-obs` machinery; this module only adds
//! the spec/status/front documents, all through
//! [`mcmap_resilience::atomic_write`] so a crash can never leave a torn
//! document behind.

use mcmap_benchmarks::Benchmark;
use mcmap_core::{AnalysisStats, DesignReport, DseConfig, EvalStats, ObjectiveMode};
use mcmap_ga::GaConfig;
use mcmap_obs::{push_json_str, Json};
use std::path::{Path, PathBuf};

/// One exploration of a named benchmark: what a tenant asks the server to
/// run, and how `mcmap_cli dse`/`validate` and the `fig5_pareto` and
/// `sec52_dropping` experiments describe their runs. [`JobSpec::dse_config`]
/// is the one recipe all of them explore with, so a served job's front is
/// the batch run's front at the same budget and seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Built-in benchmark name, one of [`mcmap_benchmarks::NAMES`].
    pub benchmark: String,
    /// GA population size.
    pub population: usize,
    /// GA generation budget.
    pub generations: usize,
    /// GA seed. Part of the evaluation context fingerprint: only jobs with
    /// an identical (benchmark, budget-independent config, seed) triple
    /// share entries in the cross-job cache.
    pub seed: u64,
}

impl JobSpec {
    /// Renders the spec as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"benchmark\":");
        push_json_str(&mut out, &self.benchmark);
        out.push_str(&format!(
            ",\"population\":{},\"generations\":{},\"seed\":{}}}",
            self.population, self.generations, self.seed
        ));
        out
    }

    /// Reads a spec back from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed member.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let benchmark = json
            .get("benchmark")
            .and_then(|v| v.as_str())
            .ok_or("spec is missing string member \"benchmark\"")?
            .to_string();
        let population =
            json.get("population")
                .and_then(|v| v.as_u64())
                .ok_or("spec is missing integer member \"population\"")? as usize;
        let generations =
            json.get("generations")
                .and_then(|v| v.as_u64())
                .ok_or("spec is missing integer member \"generations\"")? as usize;
        let seed = json.get("seed").and_then(|v| v.as_u64()).unwrap_or(8);
        if population == 0 || generations == 0 {
            return Err("population and generations must be positive".into());
        }
        Ok(JobSpec {
            benchmark,
            population,
            generations,
            seed,
        })
    }

    /// Resolves the spec's benchmark through the CLI's name table,
    /// [`mcmap_benchmarks::by_name`].
    pub fn resolve(&self) -> Option<Benchmark> {
        mcmap_benchmarks::by_name(&self.benchmark)
    }

    /// The exploration recipe over `b`, the resolved benchmark, with
    /// `threads` evaluation threads: bi-objective power/service, the
    /// benchmark's own policies, repair budget 80, and a fleet preset's
    /// hardening depth. A front-end overrides fields of the result (the
    /// objectives, the dropping switch, its knobs), never rebuilds it.
    pub fn dse_config(&self, b: &Benchmark, threads: usize) -> DseConfig {
        let mut cfg = DseConfig {
            ga: GaConfig {
                population: self.population,
                generations: self.generations,
                seed: self.seed,
                threads,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            policies: Some(b.policies.clone()),
            repair_iters: 80,
            ..DseConfig::default()
        };
        if let Some(fleet) = mcmap_benchmarks::fleet_preset(&self.benchmark) {
            cfg.max_reexec = fleet.max_reexec;
            cfg.max_replicas = fleet.max_replicas;
        }
        cfg
    }
}

/// Lifecycle state of one job. Transitions:
///
/// ```text
/// queued → running → queued        (slice budget spent, requeued)
///                  → completed     (generation budget exhausted)
///                  → cancelled     (tenant cancel, at a boundary)
///                  → interrupted   (server drain, at a boundary)
///                  → failed        (typed DseError)
/// interrupted|cancelled → queued   (explicit resume verb)
/// ```
///
/// A server restart maps every non-terminal persisted state to
/// `interrupted` — the checkpoint vouches for everything up to the last
/// completed boundary, and resuming from it is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the round-robin runnable queue.
    Queued,
    /// A worker is running one of its slices right now.
    Running,
    /// Stopped by a server shutdown or restart; resumable.
    Interrupted,
    /// Stopped by a tenant's cancel; resumable.
    Cancelled,
    /// Generation budget exhausted; `front.json` is final.
    Completed,
    /// The exploration returned a typed error (bad spec, corrupt
    /// checkpoint beyond the `.bak` fallback, lint pre-flight).
    Failed,
}

impl JobState {
    /// The wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Interrupted => "interrupted",
            JobState::Cancelled => "cancelled",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    /// Parses a wire name back.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "interrupted" => JobState::Interrupted,
            "cancelled" => JobState::Cancelled,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// Whether the job can never run again without an explicit resume.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled | JobState::Interrupted
        )
    }
}

/// Per-job lifetime totals of the engine and analysis instrumentation,
/// summed over every slice this server process ran. Like the underlying
/// [`EvalStats`], totals are not checkpointed: after a restart they cover
/// the work done since, which is exactly what a capacity dashboard wants.
#[derive(Debug, Clone, Default)]
pub struct JobTotals {
    /// Slices executed.
    pub slices: u64,
    /// Summed evaluation-engine counters (`cache_entries` is the latest
    /// snapshot, not a sum — it is a gauge).
    pub eval: EvalStats,
    /// Summed Algorithm 1 effort counters.
    pub analysis: AnalysisStats,
}

impl JobTotals {
    /// Folds one slice's instrumentation into the totals.
    pub fn absorb(&mut self, eval: &EvalStats, analysis: &AnalysisStats) {
        self.slices += 1;
        self.eval.merge(eval);
        self.analysis.merge(analysis);
    }
}

/// Paths inside one job's directory.
#[derive(Debug, Clone)]
pub struct JobPaths {
    /// The job directory itself.
    pub dir: PathBuf,
}

impl JobPaths {
    /// The layout rooted at `jobs_dir/<id>`.
    pub fn new(jobs_dir: &Path, id: &str) -> Self {
        JobPaths {
            dir: jobs_dir.join(id),
        }
    }

    /// `spec.json` — the submitted spec.
    pub fn spec(&self) -> PathBuf {
        self.dir.join("spec.json")
    }

    /// `status.json` — the last persisted lifecycle state.
    pub fn status(&self) -> PathBuf {
        self.dir.join("status.json")
    }

    /// `ckpt` — the sealed-envelope checkpoint.
    pub fn checkpoint(&self) -> PathBuf {
        self.dir.join("ckpt")
    }

    /// `trace.jsonl` — the stitched observability trace.
    pub fn trace(&self) -> PathBuf {
        self.dir.join("trace.jsonl")
    }

    /// `front.json` — the final Pareto front.
    pub fn front(&self) -> PathBuf {
        self.dir.join("front.json")
    }
}

/// Renders a Pareto front as JSON with exact f64 bit patterns alongside
/// the decimal rendering, so two fronts can be compared for bit-identity
/// with a plain `diff` and still read by humans.
pub fn front_to_json(reports: &[DesignReport], app_name: impl Fn(usize) -> String) -> String {
    let mut out = String::from("{\"reports\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dropped: Vec<String> = r
            .dropped
            .iter()
            .map(|a| {
                let mut s = String::new();
                push_json_str(&mut s, &app_name(a.index()));
                s
            })
            .collect();
        out.push_str(&format!(
            "{{\"power_bits\":\"{:016x}\",\"service_bits\":\"{:016x}\",\
             \"power\":{:?},\"service\":{:?},\"feasible\":{},\"dropped\":[{}]}}",
            r.power.to_bits(),
            r.service.to_bits(),
            r.power,
            r.service,
            r.feasible,
            dropped.join(","),
        ));
    }
    out.push_str("]}");
    out
}

/// Persisted `status.json` payload: state plus the last completed
/// generation, enough for restart recovery (counters are process-lifetime
/// and deliberately not persisted).
pub fn status_doc(state: JobState, generation_done: Option<usize>, error: Option<&str>) -> String {
    let mut out = String::from("{\"state\":");
    push_json_str(&mut out, state.as_str());
    match generation_done {
        Some(g) => out.push_str(&format!(",\"generation_done\":{g}")),
        None => out.push_str(",\"generation_done\":null"),
    }
    if let Some(e) = error {
        out.push_str(",\"error\":");
        push_json_str(&mut out, e);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_obs::parse_json;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            benchmark: "cruise".into(),
            population: 8,
            generations: 4,
            seed: 9,
        };
        let back = JobSpec::from_json(&parse_json(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert!(back.resolve().is_some());
    }

    #[test]
    fn fleet_spec_resolves_with_the_preset_depth() {
        let spec = JobSpec {
            benchmark: "fleet-small".into(),
            population: 4,
            generations: 1,
            seed: 8,
        };
        let b = spec.resolve().expect("fleet presets are served");
        let cfg = spec.dse_config(&b, 1);
        let preset = mcmap_benchmarks::fleet_small_config();
        assert_eq!(
            (cfg.max_reexec, cfg.max_replicas),
            (preset.max_reexec, preset.max_replicas)
        );
        let default = DseConfig::default();
        assert_ne!(
            (cfg.max_reexec, cfg.max_replicas),
            (default.max_reexec, default.max_replicas)
        );
    }

    /// The recipe's evaluation context, pinned: stored portfolios carry it,
    /// and the perfbench harness keeps a frozen copy of the recipe, so a
    /// drift must fail here rather than split the benchmark from the CLI.
    #[test]
    fn the_recipe_context_is_pinned() {
        for (name, (population, generations), context) in [
            ("cruise", (48, 30), 0xac97_1137_5a8c_4425),
            ("fleet-small", (32, 10), 0x44c9_d483_dcad_49d3),
        ] {
            let spec = JobSpec {
                benchmark: name.into(),
                population,
                generations,
                seed: 8,
            };
            let b = spec.resolve().expect("a named benchmark");
            let problem = mcmap_core::MappingProblem::new(&b.apps, &b.arch, spec.dse_config(&b, 1));
            assert_eq!(
                problem.context(),
                context,
                "{name}: {:#018x}",
                problem.context()
            );
        }
    }

    #[test]
    fn spec_rejects_missing_and_degenerate_fields() {
        let err = JobSpec::from_json(&parse_json("{\"population\":8}").unwrap()).unwrap_err();
        assert!(err.contains("benchmark"));
        let err = JobSpec::from_json(
            &parse_json("{\"benchmark\":\"cruise\",\"population\":0,\"generations\":4}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("positive"));
        // Seed defaults to the CLI's 8.
        let spec = JobSpec::from_json(
            &parse_json("{\"benchmark\":\"cruise\",\"population\":8,\"generations\":4}").unwrap(),
        )
        .unwrap();
        assert_eq!(spec.seed, 8);
    }

    #[test]
    fn states_round_trip_and_classify_terminality() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Interrupted,
            JobState::Cancelled,
            JobState::Completed,
            JobState::Failed,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Interrupted.is_terminal());
    }

    #[test]
    fn totals_sum_slices_and_keep_the_entries_gauge() {
        let mut t = JobTotals::default();
        let mut e = EvalStats {
            genomes: 10,
            cache_hits: 4,
            cache_misses: 6,
            cache_entries: 6,
            ..EvalStats::default()
        };
        let a = AnalysisStats {
            candidates: 10,
            backend_calls: 30,
            normal_misses: 4,
            ..AnalysisStats::default()
        };
        t.absorb(&e, &a);
        e.cache_entries = 9;
        t.absorb(&e, &a);
        assert_eq!(t.slices, 2);
        assert_eq!(t.eval.genomes, 20);
        assert_eq!(t.eval.cache_hits, 8);
        assert_eq!(t.eval.cache_entries, 9, "gauge, not a sum");
        assert_eq!(t.analysis.backend_calls, 60);
        assert_eq!(t.analysis.normal_misses, 8);
    }

    #[test]
    fn status_doc_and_front_parse_back() {
        let doc = status_doc(JobState::Failed, Some(3), Some("boom \"quoted\""));
        let json = parse_json(&doc).unwrap();
        assert_eq!(json.get("state").and_then(|v| v.as_str()), Some("failed"));
        assert_eq!(
            json.get("generation_done").and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            json.get("error").and_then(|v| v.as_str()),
            Some("boom \"quoted\"")
        );
    }
}
