//! Design-space exploration (§4 of the paper): the mapping problem as a
//! multi-objective GA problem, plus the end-to-end [`explore`] driver.

use crate::checkpoint::{read_checkpoint_with_fallback, write_checkpoint, DseCheckpoint};
use crate::{
    analyze_with, expected_power, lost_service, repair_reliability, repair_structure_logged,
    AnalysisOptions, Genome, GenomeSpace,
};
use mcmap_eval::{EvalEngine, EvalStats, ShardedCache, CACHE_SHARDS};
use mcmap_ga::{
    optimize_resumable, Evaluation, GaConfig, GaResult, GenerationObserver, GenerationSnapshot,
    LoopControl, Problem,
};
use mcmap_hardening::{harden, Reliability, TechniqueHistogram};
use mcmap_model::{AppId, AppSet, Architecture, ProcId, Time};
use mcmap_obs::{Recorder, Value};
use mcmap_resilience::{EvalFailure, FaultPlan, ResilienceError};
use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which objective vector the DSE minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectiveMode {
    /// Expected power only (§5.2).
    #[default]
    Power,
    /// Expected power and lost service — the bi-objective co-optimization
    /// of Fig. 5.
    PowerService,
}

/// Fault-tolerance knobs of one exploration run (the `mcmap-resilience`
/// integration): panic isolation with bounded retries, generation-boundary
/// checkpointing, resume, deterministic chaos injection, and cooperative
/// stop. None of these affect the search itself — a run with checkpointing
/// enabled, interrupted anywhere, and resumed produces the same Pareto
/// front and canonical trace as one that was never interrupted.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Write a checkpoint to this path after every completed generation
    /// (atomically, rotating the previous one to `<path>.bak`).
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint at this path (falling back to its
    /// `.bak` when the primary is corrupt).
    pub resume: Option<PathBuf>,
    /// How many times a candidate whose evaluation panicked is retried
    /// before it is degraded to an infeasible placeholder (default 1).
    pub eval_retries: u32,
    /// Deterministic fault-injection plan for chaos testing.
    pub chaos: Option<FaultPlan>,
    /// Cooperative stop flag (e.g. from
    /// [`mcmap_resilience::install_stop_flag`], or a per-job flag handed
    /// out by a job server): when set, the run stops at the next
    /// generation boundary after writing its checkpoint.
    pub stop: Option<Arc<AtomicBool>>,
    /// Stop after this many generation boundaries have been observed *by
    /// this process* — the budget-slice primitive of the job server's
    /// round-robin scheduler. The count is relative to where the (possibly
    /// resumed) run started, so a sequence of one-slice runs walks the
    /// exact same boundaries as one long run. The initial-population
    /// boundary (generation 0) of a fresh run counts as a slice boundary
    /// too, so on a fresh run `Some(k + 1)` stops after generation `k`.
    pub stop_after_slice: Option<usize>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint: None,
            resume: None,
            eval_retries: 1,
            chaos: None,
            stop: None,
            stop_after_slice: None,
        }
    }
}

/// Configuration of one exploration run.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// The evolutionary engine's parameters.
    pub ga: GaConfig,
    /// Objective vector.
    pub objectives: ObjectiveMode,
    /// When `false`, the dropped set is forced empty (the paper's
    /// "without task dropping" comparison point).
    pub allow_dropping: bool,
    /// When `true`, every candidate is additionally analyzed with an empty
    /// dropped set so the §5.2 "rescued by dropping" ratio can be reported.
    pub audit: bool,
    /// Per-processor scheduling policies (`None` = uniform fixed-priority
    /// preemptive).
    pub policies: Option<Vec<SchedPolicy>>,
    /// Maximum re-execution degree explored.
    pub max_reexec: u8,
    /// Maximum additional replicas per task explored.
    pub max_replicas: u8,
    /// Iteration budget of the reliability repair.
    pub repair_iters: usize,
    /// Weight of the critical mode in the expected-power objective (the
    /// paper's "considering all possible cases"): dropped applications
    /// consume nothing in the critical mode, so any weight > 0 makes
    /// dropping a power lever (Fig. 5).
    pub critical_weight: f64,
    /// Entry bound of the candidate-evaluation memoization cache
    /// (`mcmap-eval`); 0 disables caching. Purely a speed/memory knob —
    /// evaluation is a pure function of the genome, so cached and fresh
    /// results are identical.
    pub cache_cap: usize,
    /// Observability recorder. The disabled default records nothing; an
    /// enabled recorder traces the exploration (`dse.*` spans, `ga.*` /
    /// `eval.*` / `sched.*` events) without changing any result — the
    /// canonical event stream is itself deterministic for any thread
    /// count or cache capacity.
    pub obs: Recorder,
    /// Fault-tolerance knobs (checkpointing, resume, panic isolation,
    /// chaos injection). All default off; none affect search results.
    pub resilience: ResilienceConfig,
    /// Scenario-level WCRT knob (dominance pruning). Meant as a speed
    /// knob, so — like the thread and cache knobs — it is excluded from
    /// the context and run fingerprints. Pruning on and off yield
    /// bit-identical fronts and canonical traces as long as every analysis
    /// converges; pruning can change the windows of non-converged analyses
    /// and with them the front (see [`AnalysisOptions`]).
    pub analysis: AnalysisOptions,
    /// An externally owned memoization store shared across runs (the job
    /// server's cross-tenant cache). When set, [`DseConfig::cache_cap`] is
    /// ignored and the exploration's evaluation engine reads and writes
    /// this store instead of building its own. Memo keys mix the run's
    /// context fingerprint, so two runs only ever exchange records when
    /// their model, configuration, and seed are identical — a pure speed
    /// knob, excluded from the fingerprints like `cache_cap`.
    pub shared_cache: Option<SharedEvalCache>,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            ga: GaConfig::default(),
            objectives: ObjectiveMode::Power,
            allow_dropping: true,
            audit: false,
            policies: None,
            max_reexec: 2,
            max_replicas: 2,
            repair_iters: 20,
            critical_weight: 0.3,
            cache_cap: 65_536,
            obs: Recorder::default(),
            resilience: ResilienceConfig::default(),
            analysis: AnalysisOptions::default(),
            shared_cache: None,
        }
    }
}

/// A process-wide candidate-evaluation store shared across exploration
/// runs — the [`ShardedCache`] promoted to a server-wide resource so that
/// identical candidates submitted by different tenants evaluate once.
///
/// The cached record type is internal to this crate, so the handle is
/// opaque: build one with [`SharedEvalCache::with_capacity`], clone it
/// into each run's [`DseConfig::shared_cache`], and read the global
/// traffic counters with [`SharedEvalCache::stats`]. Per-run hit/miss
/// counters stay on each run's own [`EvalStats`].
///
/// Sharing is always sound: memo keys embed each run's context
/// fingerprint (model, configuration, seed), so runs with different
/// inputs can collide on capacity but never on content.
#[derive(Debug, Clone)]
pub struct SharedEvalCache {
    cache: Arc<ShardedCache<EvalRecord>>,
}

impl SharedEvalCache {
    /// Builds a store bounded to roughly `capacity` records with the
    /// engine's shard count.
    pub fn with_capacity(capacity: usize) -> Self {
        SharedEvalCache {
            cache: Arc::new(ShardedCache::new(capacity, CACHE_SHARDS)),
        }
    }

    /// Global traffic counters, aggregated over every run that used this
    /// store (hits, misses, insertions, evictions, resident entries).
    pub fn stats(&self) -> mcmap_eval::CacheStats {
        self.cache.global_stats()
    }
}

/// Cumulative statistics over every evaluated candidate (the §5.2
/// solution-audit instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditSnapshot {
    /// Total candidates evaluated.
    pub evaluated: usize,
    /// Candidates satisfying all constraints.
    pub feasible: usize,
    /// Candidates audited against the no-dropping protocol (requires
    /// `audit = true` and a non-empty dropped set).
    pub audited: usize,
    /// Candidates infeasible without dropping but feasible with their
    /// decoded dropped set (the paper's rescue ratio numerator).
    pub rescued_by_dropping: usize,
    /// Tasks hardened by re-execution across all evaluations.
    pub reexecutions: usize,
    /// Tasks hardened by active replication across all evaluations.
    pub active_replications: usize,
    /// Tasks hardened by passive replication across all evaluations.
    pub passive_replications: usize,
}

impl AuditSnapshot {
    /// Share of audited candidates rescued by dropping (§5.2: 0.02 % for
    /// Synth-1 up to 99.98 % for Cruise).
    pub fn rescue_ratio(&self) -> f64 {
        if self.audited == 0 {
            0.0
        } else {
            self.rescued_by_dropping as f64 / self.audited as f64
        }
    }

    /// Share of re-execution among all applied hardening techniques.
    pub fn reexecution_share(&self) -> f64 {
        let total = self.reexecutions + self.active_replications + self.passive_replications;
        if total == 0 {
            0.0
        } else {
            self.reexecutions as f64 / total as f64
        }
    }

    /// A multi-line human rendering (the CLI's `--audit` output).
    pub fn render_text(&self) -> String {
        format!(
            "audit: {} evaluated, {} feasible ({:.2} %)\n\
             audit: {} audited against no-dropping, {} rescued by dropping ({:.2} %)\n\
             audit: hardening mix: {} re-executions, {} active, {} passive \
             ({:.2} % re-execution)\n",
            self.evaluated,
            self.feasible,
            if self.evaluated == 0 {
                0.0
            } else {
                100.0 * self.feasible as f64 / self.evaluated as f64
            },
            self.audited,
            self.rescued_by_dropping,
            100.0 * self.rescue_ratio(),
            self.reexecutions,
            self.active_replications,
            self.passive_replications,
            100.0 * self.reexecution_share(),
        )
    }

    /// A single-line JSON object (for `--audit json` and scripting), in the
    /// same hand-rolled style as [`EvalStats::to_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"evaluated\":{},\"feasible\":{},\"audited\":{},\
             \"rescued_by_dropping\":{},\"rescue_ratio\":{:.6},\
             \"reexecutions\":{},\"active_replications\":{},\
             \"passive_replications\":{},\"reexecution_share\":{:.6}}}",
            self.evaluated,
            self.feasible,
            self.audited,
            self.rescued_by_dropping,
            self.rescue_ratio(),
            self.reexecutions,
            self.active_replications,
            self.passive_replications,
            self.reexecution_share(),
        )
    }
}

/// Cumulative scenario-analysis effort over every evaluated candidate —
/// the aggregate view of the per-candidate `sched.analyze` events.
///
/// All fields except `analysis_nanos` are deterministic for a fixed
/// configuration (replayed from cached evaluation records on hits, so
/// thread count and cache capacity never shift them); `analysis_nanos` is
/// wall time and varies run to run. The effort fields are attributed, not
/// performed: a hit counts its miss's backend calls, iterations and nanos
/// again, so `analysis_nanos` can exceed the evaluation wall. Like
/// [`EvalStats`], this aggregate is not checkpointed: a resumed run counts
/// only the candidates it evaluated after the resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisStats {
    /// Candidates whose Algorithm 1 analysis was accounted (cache hits
    /// replay their cached effort and count here too).
    pub candidates: u64,
    /// Transition scenarios enumerated across all candidates.
    pub scenarios: u64,
    /// Schedulability-backend invocations attributed (cache hits replay the
    /// miss's effort), so it can exceed the invocations this process ran.
    pub backend_calls: u64,
    /// Fixed-point iterations summed over all backend runs, attributed
    /// (cache hits replay the miss's effort).
    pub fixedpoint_iters: u64,
    /// Distinct scenario bound-vectors skipped by dominance pruning.
    pub scenarios_pruned: u64,
    /// Wall nanoseconds inside Algorithm 1, attributed (cache hits replay
    /// the miss's effort), so the sum can exceed the evaluation wall.
    pub analysis_nanos: u64,
    /// Always 0: every backend run is computed fresh. Kept so existing
    /// readers of this struct still build.
    pub backend_reused: u64,
    /// Always 0: every backend run is computed fresh. Kept so existing
    /// readers of this struct still build.
    pub delta_reuses: u64,
    /// Always 0: every backend run is computed fresh. Kept so existing
    /// readers of this struct still build.
    pub delta_cold_fallbacks: u64,
}

impl AnalysisStats {
    /// Backend runs avoided per enumerated scenario (0 when nothing ran).
    pub fn prune_rate(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.scenarios_pruned as f64 / self.scenarios as f64
        }
    }

    /// Multi-line human-readable report (the CLI's `--eval-stats` sibling).
    pub fn render_text(&self) -> String {
        format!(
            "analysis-stats: {} candidates, {} scenarios, {} backend calls\n\
             analysis-stats: fast path: {} scenarios pruned ({:.2} %), \
             {} fixed-point iters total\n\
             analysis-stats: {} ns inside Algorithm 1\n\
             analysis-stats: backend calls, fixed-point iters and ns are \
             attributed (cache hits replay the miss's effort)\n",
            self.candidates,
            self.scenarios,
            self.backend_calls,
            self.scenarios_pruned,
            100.0 * self.prune_rate(),
            self.fixedpoint_iters,
            self.analysis_nanos,
        )
    }

    /// Single-object JSON report, in the same hand-rolled style as
    /// [`EvalStats::to_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"candidates\":{},\"scenarios\":{},\"backend_calls\":{},\
             \"fixedpoint_iters\":{},\"scenarios_pruned\":{},\
             \"prune_rate\":{:.6},\
             \"analysis_nanos\":{}}}",
            self.candidates,
            self.scenarios,
            self.backend_calls,
            self.fixedpoint_iters,
            self.scenarios_pruned,
            self.prune_rate(),
            self.analysis_nanos,
        )
    }
}

/// Detailed description of one (repaired) design point, for reporting.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Expected power (mW).
    pub power: f64,
    /// Retained service `Σ_{t ∉ T_d} sv_t`.
    pub service: f64,
    /// Lost service (the minimized form).
    pub lost_service: f64,
    /// The dropped application set `T_d`.
    pub dropped: Vec<AppId>,
    /// All constraints satisfied.
    pub feasible: bool,
    /// Worst-case response time per application under the protocol.
    pub app_wcrt: Vec<Time>,
    /// Hardening technique mix of the plan.
    pub histogram: TechniqueHistogram,
}

/// The fault-tolerant mixed-criticality mapping problem.
///
/// Implements [`Problem`] so the generic GA can drive it; every evaluation
/// runs the repair heuristics, the hardening transform, the reliability
/// check, and the full Algorithm 1 analysis.
#[derive(Debug)]
pub struct MappingProblem<'a> {
    apps: &'a AppSet,
    arch: &'a Architecture,
    cfg: DseConfig,
    space: GenomeSpace,
    policies: Vec<SchedPolicy>,
    context: u64,
    /// The cumulative audit and analysis-effort tallies, updated by
    /// [`MappingProblem::record_audit`] in submission order.
    tally: Mutex<(AuditSnapshot, AnalysisStats)>,
    engine: EvalEngine<EvalRecord>,
    /// Batch coordinate for fault addressing: 0 = initial population,
    /// `g` = generation `g`'s offspring. Restored on resume.
    batch_index: AtomicU64,
    /// Candidates degraded after exhausting their evaluation retries.
    failures: Mutex<Vec<EvalFailure>>,
}

/// Everything one evaluation produces: the GA-facing [`Evaluation`]
/// (objective vector + WCRT/schedulability verdict) plus the audit deltas
/// that must be replayed per candidate, cache hit or not, so the audit
/// counters stay deterministic and consistent with the driver's
/// evaluation count.
#[derive(Debug, Clone)]
struct EvalRecord {
    eval: Evaluation,
    rescued: Option<bool>,
    reexec: usize,
    active: usize,
    passive: usize,
    effort: AnalysisEffort,
    repair_codes: Vec<&'static str>,
    /// Wall nanoseconds spent inside Algorithm 1 for this candidate
    /// (protocol analysis plus the optional no-dropping audit run).
    /// Timing, not content: replayed from the cache on hits, emitted only
    /// in non-deterministic event payloads, and excluded from
    /// [`AnalysisEffort`]'s pure-function equality.
    analysis_nanos: u64,
}

/// Deterministic effort counters of one candidate's Algorithm 1 analysis.
///
/// These are a pure function of the genome (and fixed config), so they ride
/// inside the cached [`EvalRecord`] and replay identically on cache hits —
/// the emitted `sched.analyze` event is the same whether a record was
/// computed fresh or served from the memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct AnalysisEffort {
    /// Fault scenarios enumerated (Algorithm 1 outer loop).
    scenarios: usize,
    /// Schedulability-backend invocations (including memoized-analysis
    /// cache misses only).
    backend_calls: usize,
    /// Fixed-point iterations summed over all backend runs.
    fixedpoint_iters: usize,
    /// Tasks classified as completing before the fault (normal mode).
    class_normal: usize,
    /// Tasks classified as certainly dropped.
    class_dropped: usize,
    /// Tasks classified as maybe-dropped (mode-transition window).
    class_transition: usize,
    /// Tasks classified through the critical-mode bounds (Eq. 1).
    class_critical: usize,
    /// Distinct scenario bound-vectors skipped by dominance pruning.
    scenarios_pruned: usize,
}

/// Content fingerprint of the non-genome evaluation inputs: the memo key
/// of a candidate is (genome, appset, architecture, config), and this
/// folds the fixed three into one 64-bit context so per-candidate hashing
/// only touches the genome.
fn context_fingerprint(
    apps: &AppSet,
    arch: &Architecture,
    policies: &[SchedPolicy],
    cfg: &DseConfig,
) -> u64 {
    let mut h = DefaultHasher::new();
    // The model types expose no Hash; their Debug forms are complete,
    // deterministic renderings of the content, computed once per engine.
    format!("{apps:?}").hash(&mut h);
    format!("{arch:?}").hash(&mut h);
    format!("{policies:?}").hash(&mut h);
    cfg.ga.seed.hash(&mut h);
    format!("{:?}", cfg.objectives).hash(&mut h);
    cfg.allow_dropping.hash(&mut h);
    cfg.audit.hash(&mut h);
    cfg.max_reexec.hash(&mut h);
    cfg.max_replicas.hash(&mut h);
    cfg.repair_iters.hash(&mut h);
    cfg.critical_weight.to_bits().hash(&mut h);
    h.finish()
}

/// Fingerprint of everything a checkpoint's bit-identical-resume contract
/// depends on: the evaluation context plus the GA's search-shape
/// parameters. Speed knobs (threads, cache capacity) and the resilience
/// configuration itself are deliberately excluded — a run may be resumed
/// with a different thread count, or with chaos switched off, and still
/// reproduce the uninterrupted result.
fn run_fingerprint(apps: &AppSet, arch: &Architecture, cfg: &DseConfig) -> u64 {
    let policies = cfg
        .policies
        .clone()
        .unwrap_or_else(|| uniform_policies(arch.num_processors(), SchedPolicy::default()));
    let mut h = DefaultHasher::new();
    context_fingerprint(apps, arch, &policies, cfg).hash(&mut h);
    cfg.ga.population.hash(&mut h);
    cfg.ga.generations.hash(&mut h);
    cfg.ga.crossover_rate.to_bits().hash(&mut h);
    cfg.ga.mutation_rate.to_bits().hash(&mut h);
    format!("{:?}", cfg.ga.selector).hash(&mut h);
    h.finish()
}

fn hash_of(value: &impl fmt::Debug) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{value:?}").hash(&mut h);
    h.finish()
}

/// The labeled, human-readable projection of everything
/// [`run_fingerprint`] hashes. Stored alongside the fingerprint in each
/// checkpoint so a resume refused for a mismatching fingerprint can name
/// *which* fields diverged instead of two opaque hashes. The model inputs
/// are summarized as content hashes (their full `Debug` renderings would
/// bloat every checkpoint); the scalar knobs are stored verbatim.
pub(crate) fn config_summary(
    apps: &AppSet,
    arch: &Architecture,
    cfg: &DseConfig,
) -> Vec<(String, String)> {
    let policies = cfg
        .policies
        .clone()
        .unwrap_or_else(|| uniform_policies(arch.num_processors(), SchedPolicy::default()));
    let entries: Vec<(&str, String)> = vec![
        ("model.apps", format!("{:016x}", hash_of(apps))),
        ("model.arch", format!("{:016x}", hash_of(arch))),
        ("model.policies", format!("{:016x}", hash_of(&policies))),
        ("ga.seed", cfg.ga.seed.to_string()),
        ("ga.population", cfg.ga.population.to_string()),
        ("ga.generations", cfg.ga.generations.to_string()),
        (
            "ga.crossover_rate",
            format!("{:016x}", cfg.ga.crossover_rate.to_bits()),
        ),
        (
            "ga.mutation_rate",
            format!("{:016x}", cfg.ga.mutation_rate.to_bits()),
        ),
        ("ga.selector", format!("{:?}", cfg.ga.selector)),
        ("objectives", format!("{:?}", cfg.objectives)),
        ("allow_dropping", cfg.allow_dropping.to_string()),
        ("audit", cfg.audit.to_string()),
        ("max_reexec", cfg.max_reexec.to_string()),
        ("max_replicas", cfg.max_replicas.to_string()),
        ("repair_iters", cfg.repair_iters.to_string()),
        (
            "critical_weight",
            format!("{:016x}", cfg.critical_weight.to_bits()),
        ),
    ];
    entries
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Field-level differences between a checkpoint's recorded configuration
/// summary and the current one, one rendered line per diverging field.
/// Fields present on only one side (older checkpoint formats, or a future
/// summary revision) render as `<absent>`.
fn diff_config_summaries(
    checkpoint: &[(String, String)],
    current: &[(String, String)],
) -> Vec<String> {
    let mut diff = Vec::new();
    for (key, new) in current {
        match checkpoint.iter().find(|(k, _)| k == key) {
            Some((_, old)) if old == new => {}
            Some((_, old)) => diff.push(format!("{key}: checkpoint={old} current={new}")),
            None if checkpoint.is_empty() => {} // pre-summary checkpoint: no field info
            None => diff.push(format!("{key}: checkpoint=<absent> current={new}")),
        }
    }
    for (key, old) in checkpoint {
        if !current.iter().any(|(k, _)| k == key) {
            diff.push(format!("{key}: checkpoint={old} current=<absent>"));
        }
    }
    diff
}

/// A genome after [`MappingProblem::repair_and_decode`].
struct Repaired {
    genome: Genome,
    repair_codes: Vec<&'static str>,
    rel_repaired: bool,
    plan: mcmap_hardening::HardeningPlan,
    dropped: Vec<AppId>,
    bindings: Vec<ProcId>,
}

struct Assessment {
    dropped: Vec<AppId>,
    power: f64,
    lost: f64,
    feasible: bool,
    penalty: f64,
    rescued: Option<bool>,
    histogram: TechniqueHistogram,
    app_wcrt: Vec<Time>,
    effort: AnalysisEffort,
    repair_codes: Vec<&'static str>,
    analysis_nanos: u64,
}

impl<'a> MappingProblem<'a> {
    /// Builds the problem for one benchmark system.
    pub fn new(apps: &'a AppSet, arch: &'a Architecture, cfg: DseConfig) -> Self {
        let space = GenomeSpace::new(apps, arch)
            .with_max_reexec(cfg.max_reexec)
            .with_max_replicas(cfg.max_replicas);
        let policies = cfg
            .policies
            .clone()
            .unwrap_or_else(|| uniform_policies(arch.num_processors(), SchedPolicy::default()));
        let context = context_fingerprint(apps, arch, &policies, &cfg);
        let engine = match &cfg.shared_cache {
            Some(shared) => EvalEngine::with_shared_cache(Arc::clone(&shared.cache), &context),
            None => EvalEngine::new(cfg.cache_cap, &context),
        }
        .with_recorder(cfg.obs.clone());
        MappingProblem {
            apps,
            arch,
            cfg,
            space,
            policies,
            context,
            tally: Mutex::default(),
            engine,
            batch_index: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// The chromosome space (useful for seeding or inspecting candidates).
    pub fn space(&self) -> &GenomeSpace {
        &self.space
    }

    /// The application set this problem maps.
    pub fn apps(&self) -> &AppSet {
        self.apps
    }

    /// The target architecture.
    pub fn arch(&self) -> &Architecture {
        self.arch
    }

    /// The 64-bit evaluation-context fingerprint (model, policies,
    /// configuration, seed). Two problems share a fingerprint exactly when
    /// their genomes decode to identical designs, which is what lets a
    /// sealed [`Portfolio`](crate::Portfolio) refuse to materialize
    /// against a problem it was not extracted from.
    pub fn context(&self) -> u64 {
        self.context
    }

    /// A snapshot of the evaluation-engine instrumentation (cache hits /
    /// misses / evictions, per-phase nanos, genomes/sec).
    pub fn eval_stats(&self) -> EvalStats {
        self.engine.stats()
    }

    /// A snapshot of the cumulative scenario-analysis effort counters.
    pub fn analysis_stats(&self) -> AnalysisStats {
        self.tally().1
    }

    /// A snapshot of the cumulative audit counters.
    pub fn audit(&self) -> AuditSnapshot {
        self.tally().0
    }

    /// The evaluation failures recorded so far (candidates degraded to
    /// infeasible placeholders after exhausting their retries).
    pub fn failures(&self) -> Vec<EvalFailure> {
        self.failures.lock().expect("failure log poisoned").clone()
    }

    /// Restores the audit counters from a checkpoint, so the cumulative
    /// [`AuditSnapshot`] of a resumed run matches the uninterrupted one.
    pub fn restore_audit(&self, snapshot: &AuditSnapshot) {
        self.tally().0 = *snapshot;
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, (AuditSnapshot, AnalysisStats)> {
        self.tally.lock().expect("tally poisoned")
    }

    /// Sets the next batch coordinate for fault addressing (resume path:
    /// generation `g`'s offspring are batch `g`).
    pub fn set_next_batch(&self, batch: u64) {
        self.batch_index.store(batch, Ordering::Relaxed);
    }

    /// Runs the deterministic repair pipeline on a genome and returns the
    /// decoded design pieces — the hardening plan, the dropped set, and the
    /// per-original-task primary bindings. This is the hand-off point to
    /// [`Sensitivity`](crate::Sensitivity) and to custom evaluations.
    pub fn decode_repaired(
        &self,
        genome: &Genome,
    ) -> (mcmap_hardening::HardeningPlan, Vec<AppId>, Vec<ProcId>) {
        let r = self.repair_and_decode(genome);
        (r.plan, r.dropped, r.bindings)
    }

    /// The per-processor scheduling policies this problem analyzes with.
    pub fn policies(&self) -> &[SchedPolicy] {
        &self.policies
    }

    /// Produces a human-readable report for a genome (running the same
    /// repair + evaluation pipeline, without touching the audit counters).
    pub fn report(&self, genome: &Genome) -> DesignReport {
        let a = self.assess(genome, false);
        DesignReport {
            power: a.power,
            service: self.apps.total_service() - a.lost,
            lost_service: a.lost,
            dropped: a.dropped,
            feasible: a.feasible,
            app_wcrt: a.app_wcrt,
            histogram: a.histogram,
        }
    }

    /// The deterministic repair RNG of one genome, so that evaluation
    /// stays a pure function (required for parallel and repeatable
    /// evaluation). Seeded from the *repair-relevant projection* of the
    /// chromosome — the allocation bits and the genes, exactly the inputs
    /// the repair heuristics read — so genomes differing only in keep bits
    /// repair identically: a repair-irrelevant edit does not reroll every
    /// randomized fix. The seeding shapes every repaired design, and hence
    /// the front.
    fn repair_rng(&self, genome: &Genome) -> StdRng {
        let mut hasher = DefaultHasher::new();
        genome.alloc.hash(&mut hasher);
        genome.genes.hash(&mut hasher);
        self.cfg.ga.seed.hash(&mut hasher);
        StdRng::seed_from_u64(hasher.finish())
    }

    /// The repair pipeline shared by every genome-to-design path: structure
    /// repair, reliability repair, decode, and the `allow_dropping` rule.
    fn repair_and_decode(&self, genome: &Genome) -> Repaired {
        let mut rng = self.repair_rng(genome);
        let mut genome = genome.clone();
        let repair_codes = repair_structure_logged(&mut genome, &self.space, &mut rng);
        let rel_repaired = repair_reliability(
            &mut genome,
            &self.space,
            self.apps,
            self.arch,
            &mut rng,
            self.cfg.repair_iters,
        );
        let (plan, mut dropped, bindings) = self.space.decode(&genome);
        if !self.cfg.allow_dropping {
            dropped.clear();
        }
        Repaired {
            genome,
            repair_codes,
            rel_repaired,
            plan,
            dropped,
            bindings,
        }
    }

    fn assess(&self, genome: &Genome, audit: bool) -> Assessment {
        let Repaired {
            genome: g,
            repair_codes,
            rel_repaired,
            plan,
            dropped,
            bindings,
        } = self.repair_and_decode(genome);
        let histogram = plan.technique_histogram();

        let degenerate = |penalty: f64| Assessment {
            dropped: dropped.clone(),
            power: f64::MAX / 1e6,
            lost: lost_service(self.apps, &dropped),
            feasible: false,
            penalty,
            rescued: None,
            histogram,
            app_wcrt: vec![Time::MAX; self.apps.num_apps()],
            effort: AnalysisEffort::default(),
            repair_codes: repair_codes.clone(),
            analysis_nanos: 0,
        };

        let hsys = match harden(self.apps, &plan, self.arch) {
            Ok(h) => h,
            Err(_) => return degenerate(1e9),
        };
        let placement = hsys.placement(&bindings);
        let mapping = match Mapping::new(&hsys, self.arch, placement) {
            Ok(m) => m,
            Err(_) => return degenerate(1e9),
        };

        let mut penalty = 0.0;
        if !rel_repaired {
            let rel = Reliability::new(&hsys, self.arch);
            for v in rel.check_all(mapping.placement()) {
                if !v.satisfied {
                    penalty += ((v.failure_probability / v.bound).log10()).clamp(0.0, 100.0);
                }
            }
        }

        let t_analysis = std::time::Instant::now();
        let mc = analyze_with(
            &hsys,
            self.arch,
            &mapping,
            &self.policies,
            &dropped,
            self.cfg.analysis,
        );
        let mut analysis_nanos = t_analysis.elapsed().as_nanos() as u64;
        let mut effort = AnalysisEffort {
            scenarios: mc.scenarios,
            backend_calls: mc.backend_calls,
            fixedpoint_iters: mc.fixedpoint_iters,
            class_normal: mc.class_normal,
            class_dropped: mc.class_dropped,
            class_transition: mc.class_transition,
            class_critical: mc.class_critical,
            scenarios_pruned: mc.scenarios_pruned,
        };
        let app_wcrt: Vec<Time> = self
            .apps
            .app_ids()
            .map(|a| mc.app_wcrt(&hsys, a, &dropped))
            .collect();
        let schedulable = mc.schedulable(&hsys, &dropped);
        if !schedulable {
            for happ in hsys.apps() {
                let wcrt = mc.app_wcrt(&hsys, happ.app, &dropped);
                let ratio = if wcrt == Time::MAX {
                    10.0
                } else {
                    (wcrt.as_f64() / happ.deadline.as_f64() - 1.0).clamp(0.0, 10.0)
                };
                penalty += ratio;
            }
        }

        let rescued = if audit && !dropped.is_empty() {
            // The no-dropping audit re-analysis of the same hardened
            // system and mapping.
            let t_audit = std::time::Instant::now();
            let mc0 = analyze_with(
                &hsys,
                self.arch,
                &mapping,
                &self.policies,
                &[],
                self.cfg.analysis,
            );
            analysis_nanos += t_audit.elapsed().as_nanos() as u64;
            // The no-dropping re-analysis is real backend effort; fold it
            // into the enumeration counters (classification counts stay
            // those of the protocol analysis).
            effort.scenarios += mc0.scenarios;
            effort.backend_calls += mc0.backend_calls;
            effort.fixedpoint_iters += mc0.fixedpoint_iters;
            effort.scenarios_pruned += mc0.scenarios_pruned;
            let feasible_without = mc0.schedulable(&hsys, &[]);
            Some(schedulable && penalty == 0.0 && !feasible_without)
        } else {
            None
        };

        let power = expected_power(
            &hsys,
            self.arch,
            &mapping,
            &g.alloc,
            &dropped,
            self.cfg.critical_weight,
        );
        let lost = lost_service(self.apps, &dropped);
        let feasible = schedulable && penalty == 0.0;

        Assessment {
            dropped,
            power,
            lost,
            feasible,
            penalty,
            rescued,
            histogram,
            app_wcrt,
            effort,
            repair_codes,
            analysis_nanos,
        }
    }

    fn objectives(&self, a: &Assessment) -> Vec<f64> {
        match self.cfg.objectives {
            ObjectiveMode::Power => vec![a.power],
            ObjectiveMode::PowerService => vec![a.power, a.lost],
        }
    }

    /// The full (cacheable) evaluation of one genome.
    fn assess_record(&self, g: &Genome) -> EvalRecord {
        let a = self.assess(g, self.cfg.audit);
        let objectives = self.objectives(&a);
        let eval = if a.feasible {
            Evaluation::feasible(objectives)
        } else {
            Evaluation::infeasible(objectives, a.penalty.max(f64::MIN_POSITIVE))
        };
        EvalRecord {
            eval,
            rescued: a.rescued,
            reexec: a.histogram.reexecution,
            active: a.histogram.active,
            passive: a.histogram.passive,
            effort: a.effort,
            repair_codes: a.repair_codes,
            analysis_nanos: a.analysis_nanos,
        }
    }

    /// Applies one candidate's audit deltas. Called once per *submitted*
    /// candidate — whether its record came from the cache or from a fresh
    /// evaluation — so `AuditSnapshot::evaluated` keeps matching the
    /// driver's evaluation count exactly.
    fn record_audit(&self, r: &EvalRecord) {
        let e = &r.effort;
        {
            let (audit, analysis) = &mut *self.tally();
            audit.evaluated += 1;
            audit.feasible += usize::from(r.eval.feasible);
            if let Some(rescued) = r.rescued {
                audit.audited += 1;
                audit.rescued_by_dropping += usize::from(rescued);
            }
            audit.reexecutions += r.reexec;
            audit.active_replications += r.active;
            audit.passive_replications += r.passive;
            analysis.candidates += 1;
            analysis.scenarios += e.scenarios as u64;
            analysis.backend_calls += e.backend_calls as u64;
            analysis.fixedpoint_iters += e.fixedpoint_iters as u64;
            analysis.scenarios_pruned += e.scenarios_pruned as u64;
            analysis.analysis_nanos += r.analysis_nanos;
        }
        if self.cfg.obs.enabled() {
            // Emitted on the sequential replay path, from cached effort
            // counters: the event stream is identical for hits and misses,
            // hence for any thread count or cache capacity. The wall time
            // of the analysis is timing, not content — it rides in the
            // non-deterministic payload (and replays from the cached
            // record, like the effort counters).
            self.cfg.obs.counter_with_nondet(
                "sched.analyze",
                &[
                    ("scenarios", Value::from(e.scenarios)),
                    ("backend_calls", Value::from(e.backend_calls)),
                    ("fixedpoint_iters", Value::from(e.fixedpoint_iters)),
                    ("scenarios_pruned", Value::from(e.scenarios_pruned)),
                    ("class_normal", Value::from(e.class_normal)),
                    ("class_dropped", Value::from(e.class_dropped)),
                    ("class_transition", Value::from(e.class_transition)),
                    ("class_critical", Value::from(e.class_critical)),
                    ("feasible", Value::from(r.eval.feasible)),
                ],
                &[("analysis_ns", Value::from(r.analysis_nanos))],
            );
            if !r.repair_codes.is_empty() {
                self.cfg.obs.counter(
                    "repair.structure",
                    &[
                        ("fixes", Value::from(r.repair_codes.len())),
                        ("codes", Value::from(r.repair_codes.join(","))),
                    ],
                );
            }
        }
    }
}

impl Problem for MappingProblem<'_> {
    type Genotype = Genome;

    fn random(&self, rng: &mut dyn RngCore) -> Genome {
        // Mix ~15 % clustered heuristic seeds into the otherwise uniform
        // initial population (see [`GenomeSpace::clustered`]).
        let mut buf = [0u8; 1];
        rng.fill_bytes(&mut buf);
        if buf[0] < 38 {
            self.space.clustered(rng)
        } else {
            self.space.random(rng)
        }
    }

    fn crossover(&self, a: &Genome, b: &Genome, rng: &mut dyn RngCore) -> Genome {
        self.space.crossover(a, b, rng)
    }

    fn mutate(&self, g: &mut Genome, rng: &mut dyn RngCore) {
        self.space.mutate(g, rng)
    }

    fn evaluate(&self, g: &Genome) -> Evaluation {
        let record = self.engine.evaluate_one(g, |g| self.assess_record(g));
        self.record_audit(&record);
        record.eval
    }

    /// Memoized, panic-isolated batch evaluation.
    fn evaluate_batch(&self, genotypes: &[Genome], threads: usize) -> Vec<Evaluation> {
        let batch = self.batch_index.fetch_add(1, Ordering::Relaxed);
        let chaos = self.cfg.resilience.chaos.as_ref();
        let records = self.engine.evaluate_batch(
            genotypes,
            threads,
            self.cfg.resilience.eval_retries,
            |ctx| {
                // The injection hook fires before the memo-cache lookup so
                // chaos faults hit their addressed coordinates regardless
                // of cache state; it is a no-op without a fault plan.
                if let Some(plan) = chaos {
                    let micros = plan.delay_micros(batch, ctx.index);
                    if micros > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(micros));
                    }
                    assert!(
                        !plan.should_panic(batch, ctx.index, ctx.attempt),
                        "chaos: injected panic at batch {batch}, item {}, attempt {}",
                        ctx.index,
                        ctx.attempt
                    );
                }
            },
            |g, _| self.assess_record(g),
        );
        // Audit deltas are replayed sequentially in submission order, so
        // the snapshot is deterministic for any thread count.
        records
            .into_iter()
            .map(|r| match r {
                Ok(record) => {
                    self.record_audit(&record);
                    record.eval
                }
                Err(failure) => {
                    // A candidate whose evaluation kept panicking degrades
                    // to a strongly penalized infeasible placeholder: the
                    // search loses one candidate, not the whole run. It
                    // still counts as evaluated so the audit stays in sync
                    // with the driver's evaluation count.
                    self.tally().0.evaluated += 1;
                    let eval =
                        Evaluation::infeasible(vec![f64::MAX / 1e6; self.num_objectives()], 1e12);
                    self.failures
                        .lock()
                        .expect("failure log poisoned")
                        .push(failure);
                    eval
                }
            })
            .collect()
    }

    fn num_objectives(&self) -> usize {
        match self.cfg.objectives {
            ObjectiveMode::Power => 1,
            ObjectiveMode::PowerService => 2,
        }
    }
}

/// Typed error of the library-level exploration entry points.
///
/// Both [`explore_checked`] (which returns it) and [`explore`] (which
/// panics with its rendering) go through the same pre-flight path, so the
/// two can never drift in what they accept.
#[derive(Debug)]
#[non_exhaustive]
pub enum DseError {
    /// The input system failed the mandatory `mcmap-lint` pre-flight with
    /// error-level diagnostics.
    Preflight(Box<mcmap_lint::LintReport>),
    /// A checkpoint/resume operation failed: unreadable, corrupt beyond
    /// the `.bak` fallback, or written for a different configuration.
    Resilience(ResilienceError),
}

impl DseError {
    /// The underlying lint report, when the pre-flight refused the input.
    pub fn lint_report(&self) -> Option<&mcmap_lint::LintReport> {
        match self {
            DseError::Preflight(report) => Some(report),
            _ => None,
        }
    }

    /// The underlying resilience error, when checkpoint/resume failed.
    pub fn resilience(&self) -> Option<&ResilienceError> {
        match self {
            DseError::Resilience(err) => Some(err),
            _ => None,
        }
    }
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Preflight(report) => write!(
                f,
                "input system rejected by lint pre-flight ({})",
                report.error_codes().join(", ")
            ),
            DseError::Resilience(err) => write!(f, "checkpoint/resume failed: {err}"),
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Preflight(_) => None,
            DseError::Resilience(err) => Some(err),
        }
    }
}

/// Outcome of one exploration: the GA result, reports for the final Pareto
/// front, and the audit counters.
#[derive(Debug)]
pub struct DseOutcome {
    /// The raw GA result (archive, history, evaluation count).
    pub result: GaResult<Genome>,
    /// One report per front member, in front order.
    pub reports: Vec<DesignReport>,
    /// Cumulative audit statistics over the whole run.
    pub audit: AuditSnapshot,
    /// Evaluation-engine instrumentation (cache traffic, per-phase nanos,
    /// throughput) over the whole run.
    pub eval_stats: EvalStats,
    /// Scenario-analysis effort (Algorithm 1 enumeration and dominance
    /// pruning) over the whole run.
    pub analysis: AnalysisStats,
    /// The recorder the run traced into (a clone of `DseConfig::obs`,
    /// already flushed). Query its in-memory ring with
    /// [`Recorder::events`](mcmap_obs::Recorder::events) or render a
    /// profile with [`mcmap_obs::TraceProfile`].
    pub obs: Recorder,
    /// Whether the run was stopped before its generation budget was spent
    /// (cooperative stop flag, `stop_after_slice`, or a checkpoint
    /// write failure). The front/audit reflect the last completed
    /// generation; resuming from the checkpoint continues bit-identically.
    pub interrupted: bool,
    /// Candidates degraded to infeasible placeholders after their
    /// evaluation panicked through every retry.
    pub failures: Vec<EvalFailure>,
    /// When this run resumed from a checkpoint, the generation it was
    /// written at.
    pub resumed_from: Option<usize>,
}

impl DseOutcome {
    /// The lowest feasible power found, if any candidate was feasible.
    pub fn best_power(&self) -> Option<f64> {
        self.reports
            .iter()
            .filter(|r| r.feasible)
            .map(|r| r.power)
            .min_by(|a, b| a.partial_cmp(b).expect("power is finite"))
    }
}

/// Runs the full design-space exploration for one benchmark system.
///
/// # Panics
///
/// Panics when the input system fails the `mcmap-lint` pre-flight with
/// error-level diagnostics (the message cites the `MC0xxx` codes). Use
/// [`explore_checked`] to handle the typed [`DseError`] gracefully.
pub fn explore(apps: &AppSet, arch: &Architecture, cfg: DseConfig) -> DseOutcome {
    match explore_checked(apps, arch, cfg) {
        Ok(outcome) => outcome,
        Err(err) => panic!("explore: {err}; run `mcmap_cli lint` for details"),
    }
}

/// Runs [`explore`] after a mandatory `mcmap-lint` pre-flight.
///
/// The linter walks the application set and architecture (with the
/// exploration's hardening limits) before any GA work starts; if it reports
/// error-level diagnostics the exploration is refused and the full
/// [`mcmap_lint::LintReport`] is returned so callers can surface the same
/// `MC0xxx` codes the CLI prints. Warnings and hints do not block.
///
/// # Errors
///
/// Returns [`DseError::Preflight`] when the lint report contains at least
/// one error-level diagnostic.
pub fn explore_checked(
    apps: &AppSet,
    arch: &Architecture,
    cfg: DseConfig,
) -> Result<DseOutcome, DseError> {
    let obs = cfg.obs.clone();
    // Resume bookkeeping happens before any event is emitted: the resumed
    // process re-emits the deterministic trace preamble below (rebuilding
    // span parentage), then advances its sequence counter past the
    // checkpoint's high-water mark so part-2 events continue the stream.
    let resumed = match &cfg.resilience.resume {
        Some(path) => {
            let (ckpt, from_backup) =
                read_checkpoint_with_fallback(path).map_err(DseError::Resilience)?;
            let fingerprint = run_fingerprint(apps, arch, &cfg);
            if ckpt.fingerprint != fingerprint {
                return Err(DseError::Resilience(ResilienceError::ConfigMismatch {
                    path: path.clone(),
                    expected: ckpt.fingerprint,
                    actual: fingerprint,
                    diff: diff_config_summaries(&ckpt.config, &config_summary(apps, arch, &cfg)),
                }));
            }
            Some((ckpt, from_backup))
        }
        None => None,
    };
    let report = mcmap_lint::Linter::new(apps, arch)
        .with_limits(cfg.max_reexec, cfg.max_replicas)
        .lint();
    if obs.enabled() {
        obs.mark(
            "lint.preflight",
            &[
                ("passed", Value::from(!report.has_errors())),
                (
                    "errors",
                    Value::from(report.count(mcmap_lint::Severity::Error)),
                ),
                (
                    "warnings",
                    Value::from(report.count(mcmap_lint::Severity::Warning)),
                ),
                ("codes", Value::from(report.codes().join(","))),
            ],
        );
    }
    if report.has_errors() {
        obs.flush();
        return Err(DseError::Preflight(Box::new(report)));
    }
    let mut ga_cfg = cfg.ga.clone();
    ga_cfg.obs = obs.clone();
    // Thread count and cache capacity are speed knobs that must not leak
    // into the canonical trace, so the span's deterministic fields carry
    // only the problem shape and search budget.
    let mut span = obs.span(
        "dse.explore",
        &[
            ("apps", Value::from(apps.num_apps())),
            ("procs", Value::from(arch.num_processors())),
            ("population", Value::from(ga_cfg.population)),
            ("generations", Value::from(ga_cfg.generations)),
            ("seed", Value::from(ga_cfg.seed)),
            ("objectives", Value::from(format!("{:?}", cfg.objectives))),
            ("allow_dropping", Value::from(cfg.allow_dropping)),
            ("audit", Value::from(cfg.audit)),
        ],
    );
    let fingerprint = run_fingerprint(apps, arch, &cfg);
    let resilience = cfg.resilience.clone();
    let problem = MappingProblem::new(apps, arch, cfg);
    let mut resume_state = None;
    let mut resumed_from = None;
    if let Some((ckpt, from_backup)) = resumed {
        problem.restore_audit(&ckpt.audit);
        problem.set_next_batch(ckpt.generation as u64 + 1);
        if from_backup && obs.enabled() {
            // Suppressed from a resumed trace file (its seq sits below the
            // high-water mark) but visible in the in-memory ring.
            obs.mark(
                "resilience.recover",
                &[("generation", Value::from(ckpt.generation))],
            );
        }
        obs.advance_seq_to(ckpt.trace_seq);
        resumed_from = Some(ckpt.generation);
        resume_state = Some(ckpt.state);
    }
    let config = config_summary(apps, arch, &problem.cfg);
    let mut hook = CheckpointHook {
        problem: &problem,
        obs: obs.clone(),
        fingerprint,
        config,
        path: resilience.checkpoint,
        chaos: resilience.chaos,
        stop: resilience.stop,
        stop_after_slice: resilience.stop_after_slice,
        boundaries: 0,
        error: None,
    };
    let result = optimize_resumable(&problem, &ga_cfg, resume_state, &mut hook);
    if let Some(err) = hook.error.take() {
        obs.flush();
        return Err(DseError::Resilience(err));
    }
    let reports: Vec<DesignReport> = result
        .front
        .iter()
        .map(|ind| problem.report(&ind.genotype))
        .collect();
    let audit = problem.audit();
    span.field("evaluations", result.evaluations);
    span.field("front_size", result.front.len());
    span.end();
    if obs.enabled() {
        obs.counter(
            "dse.audit",
            &[
                ("evaluated", Value::from(audit.evaluated)),
                ("feasible", Value::from(audit.feasible)),
                ("audited", Value::from(audit.audited)),
                (
                    "rescued_by_dropping",
                    Value::from(audit.rescued_by_dropping),
                ),
                ("reexecutions", Value::from(audit.reexecutions)),
                (
                    "active_replications",
                    Value::from(audit.active_replications),
                ),
                (
                    "passive_replications",
                    Value::from(audit.passive_replications),
                ),
            ],
        );
    }
    obs.flush();
    Ok(DseOutcome {
        audit,
        eval_stats: problem.eval_stats(),
        analysis: problem.analysis_stats(),
        reports,
        failures: problem.failures(),
        interrupted: result.interrupted,
        result,
        resumed_from,
        obs,
    })
}

/// The per-generation resilience hook: checkpoints the driver state at
/// every generation boundary and honors cooperative stop requests.
///
/// The `resilience.checkpoint` mark is emitted (and the trace flushed)
/// *before* the sequence high-water mark is captured, so the mark itself
/// is covered by the checkpoint it precedes — a resumed trace contains it
/// exactly once.
struct CheckpointHook<'p, 'a> {
    problem: &'p MappingProblem<'a>,
    obs: Recorder,
    fingerprint: u64,
    config: Vec<(String, String)>,
    path: Option<PathBuf>,
    chaos: Option<FaultPlan>,
    stop: Option<Arc<AtomicBool>>,
    stop_after_slice: Option<usize>,
    boundaries: usize,
    error: Option<ResilienceError>,
}

impl GenerationObserver<Genome> for CheckpointHook<'_, '_> {
    fn after_generation(&mut self, snap: &GenerationSnapshot<'_, Genome>) -> LoopControl {
        self.boundaries += 1;
        if let Some(path) = &self.path {
            if self.obs.enabled() {
                self.obs.mark(
                    "resilience.checkpoint",
                    &[("generation", Value::from(snap.generation))],
                );
            }
            self.obs.sync();
            let ckpt = DseCheckpoint {
                fingerprint: self.fingerprint,
                generation: snap.generation,
                trace_seq: self.obs.emitted(),
                state: snap.to_state(),
                audit: self.problem.audit(),
                config: self.config.clone(),
            };
            if let Err(err) = write_checkpoint(path, &ckpt) {
                // Losing durability silently would defeat the point of
                // checkpointing; stop at this (consistent) boundary and
                // surface the typed error instead.
                self.error = Some(err);
                return LoopControl::Stop;
            }
            if let Some(plan) = &self.chaos {
                if plan.truncate_checkpoint(snap.generation) {
                    // Simulate a torn write of the primary (the previous
                    // good checkpoint survived the rotation as `.bak`).
                    if let Ok(bytes) = std::fs::read(path) {
                        let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
                    }
                }
            }
        }
        let stop = self.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst))
            || self.stop_after_slice.is_some_and(|k| self.boundaries >= k);
        if stop {
            LoopControl::Stop
        } else {
            LoopControl::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_model::{Criticality, ExecBounds, ProcKind, Processor, Task, TaskGraph};

    fn small_system() -> (AppSet, Architecture) {
        let arch = Architecture::builder()
            .homogeneous(3, Processor::new("p", ProcKind::new(0), 5.0, 50.0, 1e-7))
            .build()
            .unwrap();
        let hi = TaskGraph::builder("hi", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1e-4,
            })
            .task(
                Task::new("h0")
                    .with_uniform_exec(
                        1,
                        ExecBounds::new(Time::from_ticks(40), Time::from_ticks(80)),
                    )
                    .with_detect_overhead(Time::from_ticks(4))
                    .with_voting_overhead(Time::from_ticks(4)),
            )
            .task(
                Task::new("h1")
                    .with_uniform_exec(
                        1,
                        ExecBounds::new(Time::from_ticks(40), Time::from_ticks(80)),
                    )
                    .with_detect_overhead(Time::from_ticks(4))
                    .with_voting_overhead(Time::from_ticks(4)),
            )
            .channel(0, 1, 16)
            .build()
            .unwrap();
        let lo = TaskGraph::builder("lo", Time::from_ticks(1_000))
            .criticality(Criticality::Droppable { service: 2.0 })
            .task(Task::new("l0").with_uniform_exec(
                1,
                ExecBounds::new(Time::from_ticks(50), Time::from_ticks(100)),
            ))
            .build()
            .unwrap();
        (AppSet::new(vec![hi, lo]).unwrap(), arch)
    }

    fn tiny_cfg() -> DseConfig {
        DseConfig {
            ga: GaConfig {
                population: 12,
                generations: 6,
                ..GaConfig::default()
            },
            repair_iters: 10,
            ..DseConfig::default()
        }
    }

    #[test]
    fn exploration_finds_feasible_designs() {
        let (apps, arch) = small_system();
        let outcome = explore(&apps, &arch, tiny_cfg());
        assert!(outcome.audit.evaluated > 0);
        assert!(
            outcome.best_power().is_some(),
            "the small system is easily feasible"
        );
        let best = outcome.best_power().unwrap();
        // At most 3 PEs fully loaded: sanity range.
        assert!(best > 0.0 && best < 3.0 * (5.0 + 50.0));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (apps, arch) = small_system();
        let problem = MappingProblem::new(&apps, &arch, tiny_cfg());
        let mut rng = StdRng::seed_from_u64(11);
        let g = problem.space().random(&mut rng);
        let a = problem.evaluate(&g);
        let b = problem.evaluate(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn disallowing_dropping_forces_empty_dropped_set() {
        let (apps, arch) = small_system();
        let cfg = DseConfig {
            allow_dropping: false,
            ..tiny_cfg()
        };
        let problem = MappingProblem::new(&apps, &arch, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = problem.space().random(&mut rng);
            let report = problem.report(&g);
            assert!(report.dropped.is_empty());
        }
    }

    #[test]
    fn audit_counts_accumulate() {
        let (apps, arch) = small_system();
        let cfg = DseConfig {
            audit: true,
            ..tiny_cfg()
        };
        let outcome = explore(&apps, &arch, cfg);
        let a = outcome.audit;
        assert_eq!(a.evaluated, outcome.result.evaluations);
        assert!(a.feasible <= a.evaluated);
        assert!(a.rescued_by_dropping <= a.audited);
        // Ratios are well-defined.
        assert!((0.0..=1.0).contains(&a.rescue_ratio()));
        assert!((0.0..=1.0).contains(&a.reexecution_share()));
    }

    #[test]
    fn bi_objective_mode_produces_two_dimensional_front() {
        let (apps, arch) = small_system();
        let cfg = DseConfig {
            objectives: ObjectiveMode::PowerService,
            ..tiny_cfg()
        };
        let outcome = explore(&apps, &arch, cfg);
        for ind in &outcome.result.front {
            assert_eq!(ind.eval.objectives.len(), 2);
        }
        // Keeping everything has lost service 0; dropping has positive lost
        // service but (usually) lower power — at minimum the reports are
        // internally consistent.
        for r in &outcome.reports {
            assert!((r.service + r.lost_service - apps.total_service()).abs() < 1e-9);
        }
    }

    #[test]
    fn preflight_accepts_clean_systems() {
        let (apps, arch) = small_system();
        let outcome = explore_checked(&apps, &arch, tiny_cfg());
        assert!(outcome.is_ok(), "the small system lints clean");
    }

    #[test]
    fn preflight_rejects_defective_systems_with_codes() {
        let (apps, arch) = small_system();
        for (broken, code) in [
            (mcmap_lint::inject::with_cycle(&apps), "MC0001"),
            (
                mcmap_lint::inject::with_unsatisfiable_reliability(&apps),
                "MC0101",
            ),
            (mcmap_lint::inject::with_inverted_bounds(&apps), "MC0005"),
        ] {
            let Err(err) = explore_checked(&broken, &arch, tiny_cfg()) else {
                panic!("the {code} defect must be refused before the GA starts");
            };
            let report = err
                .lint_report()
                .expect("pre-flight errors carry the report");
            assert!(report.has_errors());
            assert!(
                report.error_codes().contains(&code),
                "the refusal cites {code}: {:?}",
                report.error_codes()
            );
            assert!(
                err.to_string().contains(code),
                "the typed error renders the code: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "MC0001")]
    fn explore_panics_citing_the_code() {
        let (apps, arch) = small_system();
        let broken = mcmap_lint::inject::with_cycle(&apps);
        let _ = explore(&broken, &arch, tiny_cfg());
    }

    #[test]
    fn cached_reevaluation_replays_audit_counters() {
        let (apps, arch) = small_system();
        let problem = MappingProblem::new(&apps, &arch, tiny_cfg());
        let mut rng = StdRng::seed_from_u64(23);
        let g = problem.space().random(&mut rng);
        let a = problem.evaluate(&g);
        let b = problem.evaluate(&g);
        assert_eq!(a, b);
        // The second call is a cache hit, yet both count as evaluations.
        assert_eq!(problem.audit().evaluated, 2);
        let stats = problem.eval_stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    }

    #[test]
    fn batch_evaluation_matches_serial_for_any_thread_count() {
        let (apps, arch) = small_system();
        let problem = MappingProblem::new(&apps, &arch, tiny_cfg());
        let mut rng = StdRng::seed_from_u64(5);
        let genomes: Vec<Genome> = (0..10).map(|_| problem.space().random(&mut rng)).collect();
        let uncached = MappingProblem::new(
            &apps,
            &arch,
            DseConfig {
                cache_cap: 0,
                ..tiny_cfg()
            },
        );
        let reference = uncached.evaluate_batch(&genomes, 1);
        for threads in [1, 4] {
            let p = MappingProblem::new(&apps, &arch, tiny_cfg());
            assert_eq!(p.evaluate_batch(&genomes, threads), reference);
            assert_eq!(p.audit().evaluated, genomes.len());
        }
    }

    #[test]
    fn outcome_exposes_eval_stats() {
        let (apps, arch) = small_system();
        let outcome = explore(&apps, &arch, tiny_cfg());
        let s = &outcome.eval_stats;
        assert_eq!(s.genomes as usize, outcome.result.evaluations);
        // One batch per generation plus the initial population.
        assert_eq!(s.batches as usize, tiny_cfg().ga.generations + 1);
        assert!(
            s.cache_hits > 0,
            "a multi-generation run re-visits genomes: {s:?}"
        );
        assert!(s.to_json().contains("\"genomes\""));
    }

    #[test]
    fn tracing_emits_events_without_changing_results() {
        let (apps, arch) = small_system();
        let plain = explore(&apps, &arch, tiny_cfg());
        let traced = explore(
            &apps,
            &arch,
            DseConfig {
                obs: Recorder::ring(1 << 16),
                audit: true,
                ..tiny_cfg()
            },
        );
        let audited = explore(
            &apps,
            &arch,
            DseConfig {
                audit: true,
                ..tiny_cfg()
            },
        );
        // Tracing must not perturb the search.
        assert_eq!(plain.result.front.len(), traced.result.front.len());
        for (a, b) in plain.result.front.iter().zip(&traced.result.front) {
            assert_eq!(a.eval, b.eval);
        }
        assert_eq!(traced.audit, audited.audit);

        let events = traced.obs.events();
        for name in [
            "lint.preflight",
            "dse.explore",
            "ga.generation",
            "eval.batch",
            "sched.analyze",
            "dse.audit",
        ] {
            assert!(
                events.iter().any(|e| e.name == name),
                "missing {name} in trace"
            );
        }
        // One analyze event per submitted candidate, cache hit or miss.
        assert_eq!(
            events.iter().filter(|e| e.name == "sched.analyze").count(),
            traced.result.evaluations
        );
        // Sequence numbers are gapless from 1.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1);
        }
        // The untraced run records nothing.
        assert!(!plain.obs.enabled());
        assert!(plain.obs.events().is_empty());
    }

    #[test]
    fn analysis_stats_replay_identically_across_speed_knobs() {
        let (apps, arch) = small_system();
        let reference = explore(&apps, &arch, tiny_cfg());
        assert!(reference.analysis.candidates > 0);
        assert!(reference.analysis.scenarios > 0);
        // The deterministic effort counters must not shift with thread
        // count or cache capacity — cache hits replay their cached effort.
        for (threads, cache_cap) in [(4usize, 65_536usize), (1, 0), (3, 8)] {
            let mut cfg = tiny_cfg();
            cfg.ga.threads = threads;
            cfg.cache_cap = cache_cap;
            let run = explore(&apps, &arch, cfg);
            assert_eq!(
                (
                    run.analysis.candidates,
                    run.analysis.scenarios,
                    run.analysis.backend_calls,
                    run.analysis.fixedpoint_iters,
                    run.analysis.scenarios_pruned,
                ),
                (
                    reference.analysis.candidates,
                    reference.analysis.scenarios,
                    reference.analysis.backend_calls,
                    reference.analysis.fixedpoint_iters,
                    reference.analysis.scenarios_pruned,
                ),
                "threads={threads} cache_cap={cache_cap}"
            );
        }
        // The reference enumeration performs at least as much backend work
        // and fronts stay identical with the fast path off.
        let mut cold_cfg = tiny_cfg();
        cold_cfg.analysis = AnalysisOptions::reference();
        let cold = explore(&apps, &arch, cold_cfg);
        assert_eq!(cold.analysis.scenarios_pruned, 0);
        assert!(cold.analysis.backend_calls >= reference.analysis.backend_calls);
        assert_eq!(cold.result.front.len(), reference.result.front.len());
        for (a, b) in cold.result.front.iter().zip(&reference.result.front) {
            assert_eq!(a.eval, b.eval);
            assert_eq!(a.genotype, b.genotype);
        }
        // The report formats carry the fast-path numbers.
        let text = reference.analysis.render_text();
        assert!(text.contains("backend calls"));
        assert!(text.contains("scenarios pruned"));
        assert!(text.contains("attributed (cache hits replay the miss's effort)"));
        let json = reference.analysis.to_json();
        let parsed = mcmap_obs::parse_json(&json).expect("analysis JSON parses");
        assert_eq!(
            parsed
                .get("backend_calls")
                .and_then(mcmap_obs::Json::as_u64),
            Some(reference.analysis.backend_calls)
        );
        assert!(parsed.get("prune_rate").is_some());
    }

    #[test]
    fn audit_snapshot_renders_text_and_json() {
        let (apps, arch) = small_system();
        let outcome = explore(
            &apps,
            &arch,
            DseConfig {
                audit: true,
                ..tiny_cfg()
            },
        );
        let text = outcome.audit.render_text();
        assert!(text.contains("evaluated"));
        assert!(text.contains("rescued by dropping"));
        let json = outcome.audit.to_json();
        let parsed = mcmap_obs::parse_json(&json).expect("audit JSON parses");
        assert_eq!(
            parsed.get("evaluated").and_then(mcmap_obs::Json::as_u64),
            Some(outcome.audit.evaluated as u64)
        );
        assert!(parsed.get("rescue_ratio").is_some());
    }

    #[test]
    fn slice_scheduling_reconverges_to_the_uninterrupted_run() {
        let (apps, arch) = small_system();
        let solo = explore(&apps, &arch, tiny_cfg());
        let path =
            std::env::temp_dir().join(format!("mcmap_dse_slice_test_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Drive the same run as a chain of one-boundary slices, the way a
        // job server timeslices tenants: each slice resumes the previous
        // checkpoint, observes exactly one generation boundary, and stops.
        let mut slices = 0;
        let mut resume = None;
        loop {
            let mut cfg = tiny_cfg();
            cfg.resilience.checkpoint = Some(path.clone());
            cfg.resilience.resume = resume.clone();
            cfg.resilience.stop_after_slice = Some(1);
            let out = explore(&apps, &arch, cfg);
            slices += 1;
            assert!(slices <= tiny_cfg().ga.generations + 1, "must terminate");
            if !out.interrupted {
                assert_eq!(
                    format!("{:?}", out.reports),
                    format!("{:?}", solo.reports),
                    "sliced run must reproduce the solo front"
                );
                assert_eq!(out.audit, solo.audit);
                break;
            }
            resume = Some(path.clone());
        }
        // One boundary per slice: initial population + one per generation.
        assert_eq!(slices, tiny_cfg().ga.generations + 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(mcmap_resilience::backup_path(&path));
    }

    #[test]
    fn shared_cache_dedupes_identical_runs_without_changing_results() {
        let (apps, arch) = small_system();
        let shared = SharedEvalCache::with_capacity(65_536);
        let mk = || DseConfig {
            shared_cache: Some(shared.clone()),
            ..tiny_cfg()
        };
        let first = explore(&apps, &arch, mk());
        let second = explore(&apps, &arch, mk());
        assert_eq!(
            format!("{:?}", second.reports),
            format!("{:?}", first.reports),
            "a warm shared cache must not perturb results"
        );
        assert_eq!(second.audit, first.audit);
        // The second tenant's identical run resolves entirely from the
        // first tenant's work.
        assert_eq!(second.eval_stats.cache_misses, 0);
        assert_eq!(second.eval_stats.cache_hits, second.eval_stats.genomes);
        let g = shared.stats();
        assert!(g.hits >= second.eval_stats.cache_hits);
        assert_eq!(g.insertions, first.eval_stats.cache_misses);
        assert!(g.entries > 0);
    }

    #[test]
    fn config_mismatch_on_resume_names_the_diverging_fields() {
        let (apps, arch) = small_system();
        let path = std::env::temp_dir().join(format!(
            "mcmap_dse_mismatch_test_{}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cfg = tiny_cfg();
        cfg.resilience.checkpoint = Some(path.clone());
        cfg.resilience.stop_after_slice = Some(2);
        let _ = explore(&apps, &arch, cfg);

        let mut resumed = tiny_cfg();
        resumed.ga.population = 24;
        resumed.ga.seed = 99;
        resumed.resilience.resume = Some(path.clone());
        let err = explore_checked(&apps, &arch, resumed).expect_err("mismatch must refuse");
        let Some(ResilienceError::ConfigMismatch { diff, .. }) = err.resilience() else {
            panic!("expected ConfigMismatch, got {err}");
        };
        assert!(
            diff.iter().any(|d| d.starts_with("ga.population:")),
            "diff names the population change: {diff:?}"
        );
        assert!(
            diff.iter().any(|d| d.starts_with("ga.seed:")),
            "diff names the seed change: {diff:?}"
        );
        assert!(
            !diff.iter().any(|d| d.starts_with("ga.generations:")),
            "unchanged fields stay out of the diff: {diff:?}"
        );
        let rendered = err.to_string();
        assert!(rendered.contains("mismatching fields"));
        assert!(rendered.contains("ga.seed"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(mcmap_resilience::backup_path(&path));
    }

    #[test]
    fn reports_expose_wcrt_per_app() {
        let (apps, arch) = small_system();
        let problem = MappingProblem::new(&apps, &arch, tiny_cfg());
        let mut rng = StdRng::seed_from_u64(17);
        let g = problem.space().random(&mut rng);
        let report = problem.report(&g);
        assert_eq!(report.app_wcrt.len(), 2);
        if report.feasible {
            for (a, wcrt) in apps.app_ids().zip(&report.app_wcrt) {
                if !report.dropped.contains(&a) {
                    assert!(*wcrt <= apps.app(a).deadline());
                }
            }
        }
    }
}
