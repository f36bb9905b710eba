//! Seeded Monte-Carlo validation campaigns over a materialized portfolio.
//!
//! A campaign is the refutation harness for the static analysis: for
//! every operating point, simulate `profiles` independent seeded fault
//! profiles (one worst-case-execution hyperperiod each) and check every
//! observed response time against the point's analyzed WCRT bound. Only
//! runs *within the hardening coverage* carry the promise — a profile
//! whose post-masking output was corrupted ([`unsafe_instances`] > 0)
//! exceeded the configured masking budget and is counted but not
//! bound-checked — and dropped applications carry no promise at all.
//!
//! The campaign is deterministic end to end: profile `i` simulates with
//! `seed + i` on every point, the work fans out on the `mcmap-eval`
//! order-preserving parallel map (bit-identical summaries for any `threads`),
//! and progress checkpoints at fixed chunk boundaries through the
//! `mcmap-resilience` sealed envelope, so a SIGTERM-interrupted campaign
//! resumes into the exact summary the uninterrupted run would have
//! produced.
//!
//! [`unsafe_instances`]: mcmap_sim::SimResult::unsafe_instances

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mcmap_core::MaterializedPoint;
use mcmap_model::{AppId, Architecture, Time};
use mcmap_obs::{parse_json, Json, Recorder, Value};
use mcmap_resilience::{atomic_write_rotating, backup_path, seal, unseal, ResilienceError};
use mcmap_sched::SchedPolicy;
use mcmap_sim::{ExecModel, RandomFaults, SimConfig, Simulator};

/// Envelope kind tag for campaign checkpoints.
const KIND: &str = "sim-campaign";

/// Detailed violations kept in the summary (the count is always exact).
const MAX_VIOLATION_DETAIL: usize = 64;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fault profiles simulated per operating point.
    pub profiles: u64,
    /// Base seed; profile `i` uses `seed + i` on every point.
    pub seed: u64,
    /// Fault-probability boost applied to every profile (raw SEU rates
    /// would need billions of profiles to exercise a single fault).
    pub boost: f64,
    /// Worker threads (0 = one per core; any value yields bit-identical
    /// summaries).
    pub threads: usize,
    /// Hyperperiods simulated per profile.
    pub hyperperiods: u64,
    /// Profiles per checkpoint slice. Checkpoints and stop-flag checks
    /// happen at multiples of this, so it is also the resume granularity.
    pub chunk: u64,
    /// Checkpoint file. `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Resume from [`CampaignConfig::checkpoint`] when it holds a
    /// matching campaign; refuse (rather than silently restart) on a
    /// fingerprint mismatch.
    pub resume: bool,
    /// Cooperative stop flag (SIGTERM/SIGINT): checked at every chunk
    /// boundary; when raised the campaign checkpoints and returns a
    /// summary marked `interrupted`.
    pub stop: Option<Arc<AtomicBool>>,
    /// Deterministic interruption for tests: stop after exactly this many
    /// chunks, as if the stop flag had been raised there.
    pub stop_after_chunks: Option<u64>,
    /// Obs recorder (`validate.campaign` span, per-chunk progress).
    pub obs: Recorder,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            profiles: 1000,
            seed: 0xC0FFEE,
            boost: 1e3,
            threads: 0,
            hyperperiods: 1,
            chunk: 250,
            checkpoint: None,
            resume: false,
            stop: None,
            stop_after_chunks: None,
            obs: Recorder::default(),
        }
    }
}

/// One observed-over-bound excess — a refutation of the analysis (or of
/// the simulator), never an expected outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Operating-point index.
    pub point: usize,
    /// Fault-profile index (its seed is `campaign seed + profile`).
    pub profile: u64,
    /// The application whose bound was exceeded.
    pub app: AppId,
    /// Simulated worst response time.
    pub observed: Time,
    /// Analyzed WCRT bound.
    pub bound: Time,
}

impl Violation {
    /// Renders the structured diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "VIOLATION point={} profile={} app={} observed={} bound={} excess={}",
            self.point,
            self.profile,
            self.app.index(),
            self.observed.ticks(),
            self.bound.ticks(),
            self.observed.saturating_sub(self.bound).ticks(),
        )
    }
}

/// Per-point validation aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointValidation {
    /// Profiles simulated within the hardening coverage.
    pub covered: u64,
    /// Profiles beyond coverage (some masking budget exhausted); counted,
    /// not bound-checked.
    pub beyond_coverage: u64,
    /// Profiles with at least one detected fault (critical-state entry).
    pub faulty: u64,
    /// Per application: worst observed response time over all covered
    /// profiles ([`Time::ZERO`] when the app never completed, e.g. it is
    /// dropped by the point).
    pub observed_max: Vec<Time>,
    /// Per application: the analyzed bound being validated.
    pub bound: Vec<Time>,
    /// Bound violations in covered profiles (must be zero).
    pub violations: u64,
}

impl PointValidation {
    /// Minimum slack (bound − worst observation) over the applications
    /// that carry a finite bound and completed at least once; `None` when
    /// no application qualifies.
    pub fn min_slack(&self) -> Option<Time> {
        self.observed_max
            .iter()
            .zip(&self.bound)
            .filter(|(obs, b)| **b != Time::MAX && !obs.is_zero())
            .map(|(obs, b)| b.saturating_sub(*obs))
            .min()
    }
}

/// The campaign outcome. Everything in here is deterministic (seeded
/// simulation, order-preserving merge), so two runs of the same
/// configuration — at any thread count, interrupted or not — render the
/// same text and JSON byte for byte.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Base seed.
    pub seed: u64,
    /// Fault boost.
    pub boost: f64,
    /// Profiles requested per point.
    pub profiles: u64,
    /// Profiles completed per point (< `profiles` when interrupted).
    pub done: u64,
    /// Per-point aggregates, portfolio order.
    pub points: Vec<PointValidation>,
    /// Detailed violations (at most 64 are kept; the
    /// per-point `violations` counters are exact).
    pub violations: Vec<Violation>,
    /// `true` when the stop flag ended the campaign early.
    pub interrupted: bool,
    /// Profiles restored from a checkpoint rather than simulated.
    pub resumed_from: Option<u64>,
}

impl CampaignSummary {
    /// Total bound violations across all points.
    pub fn total_violations(&self) -> u64 {
        self.points.iter().map(|p| p.violations).sum()
    }

    /// Total simulation runs performed (or restored).
    pub fn total_runs(&self) -> u64 {
        self.done * self.points.len() as u64
    }

    /// Renders the deterministic text summary (one header, one line per
    /// point, then any violation details).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign: {} profiles/point x {} points (seed {}, boost {:e}){}\n",
            self.done,
            self.points.len(),
            self.seed,
            self.boost,
            if self.interrupted {
                format!(" [interrupted at {}/{}]", self.done, self.profiles)
            } else {
                String::new()
            },
        ));
        out.push_str("point  covered  beyond  faulty  violations  min-slack\n");
        for (i, p) in self.points.iter().enumerate() {
            let slack = match p.min_slack() {
                Some(s) => s.ticks().to_string(),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:>5}  {:>7}  {:>6}  {:>6}  {:>10}  {:>9}\n",
                i, p.covered, p.beyond_coverage, p.faulty, p.violations, slack
            ));
        }
        for v in &self.violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        out
    }

    /// Renders the deterministic JSON summary.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"seed\":{},\"boost_bits\":{},\"profiles\":{},\"done\":{},\"interrupted\":{},",
            self.seed,
            self.boost.to_bits(),
            self.profiles,
            self.done,
            self.interrupted
        ));
        out.push_str(&format!(
            "\"violations\":{},\"points\":[",
            self.total_violations()
        ));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"covered\":{},\"beyond_coverage\":{},\"faulty\":{},\"violations\":{},",
                p.covered, p.beyond_coverage, p.faulty, p.violations
            ));
            out.push_str("\"min_slack\":");
            match p.min_slack() {
                Some(s) => out.push_str(&s.ticks().to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"observed_max\":[");
            for (j, t) in p.observed_max.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&t.ticks().to_string());
            }
            out.push_str("],\"bound\":[");
            for (j, t) in p.bound.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&t.ticks().to_string());
            }
            out.push_str("]}");
        }
        out.push_str("],\"violation_detail\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"point\":{},\"profile\":{},\"app\":{},\"observed\":{},\"bound\":{}}}",
                v.point,
                v.profile,
                v.app.index(),
                v.observed.ticks(),
                v.bound.ticks()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A campaign checkpoint: the accumulated aggregates at a chunk boundary
/// plus the fingerprint that guards resumption.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// Fingerprint of the campaign inputs (seed, boost, profile count,
    /// chunking, and every point's bounds/dropped set/placement).
    pub fingerprint: u64,
    /// Profiles completed per point.
    pub done: u64,
    /// Per-point aggregates at the boundary.
    pub points: Vec<PointValidation>,
    /// Detailed violations at the boundary.
    pub violations: Vec<Violation>,
}

impl CampaignCheckpoint {
    /// Serializes to the sealed envelope byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"fingerprint\":{},\"done\":{},\"points\":[",
            self.fingerprint, self.done
        ));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"covered\":{},\"beyond\":{},\"faulty\":{},\"violations\":{},\"observed\":[",
                p.covered, p.beyond_coverage, p.faulty, p.violations
            ));
            for (j, t) in p.observed_max.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&t.ticks().to_string());
            }
            out.push_str("],\"bound\":[");
            for (j, t) in p.bound.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&t.ticks().to_string());
            }
            out.push_str("]}");
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{},{}]",
                v.point,
                v.profile,
                v.app.index(),
                v.observed.ticks(),
                v.bound.ticks()
            ));
        }
        out.push_str("]}");
        seal(KIND, out.as_bytes())
    }

    /// Deserializes from sealed envelope bytes (`path` for diagnostics).
    ///
    /// # Errors
    ///
    /// Returns a corruption-class [`ResilienceError`] on envelope or
    /// schema mismatch.
    pub fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Self, ResilienceError> {
        let payload = unseal(KIND, path, bytes)?;
        let text = std::str::from_utf8(&payload).map_err(|_| malformed(path, "not UTF-8"))?;
        let root = parse_json(text).map_err(|e| malformed(path, format!("invalid JSON: {e}")))?;
        let fingerprint = field_u64(path, &root, "fingerprint")?;
        let done = field_u64(path, &root, "done")?;
        let mut points = Vec::new();
        for p in field_arr(path, &root, "points")? {
            points.push(PointValidation {
                covered: field_u64(path, p, "covered")?,
                beyond_coverage: field_u64(path, p, "beyond")?,
                faulty: field_u64(path, p, "faulty")?,
                violations: field_u64(path, p, "violations")?,
                observed_max: time_list(path, p, "observed")?,
                bound: time_list(path, p, "bound")?,
            });
        }
        let mut violations = Vec::new();
        for v in field_arr(path, &root, "violations")? {
            let row: Vec<u64> = match v {
                Json::Arr(items) => items
                    .iter()
                    .map(|x| x.as_u64().ok_or_else(|| malformed(path, "violation row")))
                    .collect::<Result<_, _>>()?,
                _ => return Err(malformed(path, "violation: expected array")),
            };
            if row.len() != 5 {
                return Err(malformed(path, "violation: expected 5 fields"));
            }
            violations.push(Violation {
                point: row[0] as usize,
                profile: row[1],
                app: AppId::new(row[2] as usize),
                observed: Time::from_ticks(row[3]),
                bound: Time::from_ticks(row[4]),
            });
        }
        Ok(CampaignCheckpoint {
            fingerprint,
            done,
            points,
            violations,
        })
    }
}

/// Reads the campaign checkpoint at `path`, falling back to
/// `<path>.bak` when the primary is corrupt. Returns the checkpoint and
/// whether the backup was used.
///
/// # Errors
///
/// Propagates the primary's error when there is no usable backup.
pub fn read_campaign_checkpoint(
    path: &Path,
) -> Result<(CampaignCheckpoint, bool), ResilienceError> {
    let read = |p: &Path| -> Result<CampaignCheckpoint, ResilienceError> {
        let bytes = std::fs::read(p).map_err(|e| ResilienceError::io(p, "read", e))?;
        CampaignCheckpoint::from_bytes(p, &bytes)
    };
    match read(path) {
        Ok(c) => Ok((c, false)),
        Err(primary) if primary.is_corruption() => match read(&backup_path(path)) {
            Ok(c) => Ok((c, true)),
            Err(_) => Err(primary),
        },
        Err(e) => Err(e),
    }
}

/// Runs (or resumes) a validation campaign over a materialized portfolio.
///
/// # Errors
///
/// Returns [`ResilienceError`] when checkpoint I/O fails or a resume is
/// attempted against a checkpoint from a different campaign
/// (fingerprint mismatch).
///
/// # Panics
///
/// Panics when `points` is empty or `policies` does not match the
/// architecture's processor count (same contract as
/// [`Simulator::new`]).
pub fn run_campaign(
    points: &[MaterializedPoint],
    arch: &Architecture,
    policies: &[SchedPolicy],
    cfg: &CampaignConfig,
) -> Result<CampaignSummary, ResilienceError> {
    assert!(!points.is_empty(), "a campaign needs at least one point");
    let fingerprint = campaign_fingerprint(points, cfg);
    let num_apps = points[0].app_wcrt.len();

    let mut acc: Vec<PointValidation> = points
        .iter()
        .map(|p| PointValidation {
            covered: 0,
            beyond_coverage: 0,
            faulty: 0,
            observed_max: vec![Time::ZERO; num_apps],
            bound: p.app_wcrt.clone(),
            violations: 0,
        })
        .collect();
    let mut violations: Vec<Violation> = Vec::new();
    let mut done: u64 = 0;
    let mut resumed_from = None;

    if cfg.resume {
        let path = cfg.checkpoint.as_deref().ok_or_else(|| {
            malformed(Path::new("<campaign>"), "--resume needs a checkpoint path")
        })?;
        if path.exists() {
            let (ckpt, recovered) = read_campaign_checkpoint(path)?;
            if ckpt.fingerprint != fingerprint {
                return Err(malformed(
                    path,
                    format!(
                        "campaign fingerprint mismatch: checkpoint={:016x} current={:016x} \
                         (different portfolio, seed, boost, or profile count)",
                        ckpt.fingerprint, fingerprint
                    ),
                ));
            }
            if recovered {
                cfg.obs.mark("resilience.recover", &[]);
            }
            acc = ckpt.points;
            violations = ckpt.violations;
            done = ckpt.done;
            resumed_from = Some(done);
        }
    }

    let span = cfg.obs.span(
        "validate.campaign",
        &[
            ("points", Value::U64(points.len() as u64)),
            ("profiles", Value::U64(cfg.profiles)),
        ],
    );
    let sims: Vec<Simulator<'_>> = points
        .iter()
        .map(|p| Simulator::new(&p.hsys, arch, &p.mapping, policies.to_vec()))
        .collect();

    // One work item per (point, profile); outcome index `point` is
    // implicit in input order, so the order-preserving map's output
    // merges deterministically whatever the thread count.
    struct Outcome {
        observed: Vec<Time>,
        faulty: bool,
        covered: bool,
        violations: Vec<(usize, Time, Time)>,
    }
    let chunk = cfg.chunk.max(1);
    let mut interrupted = false;
    let mut chunks_run: u64 = 0;
    while done < cfg.profiles {
        if cfg.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst))
            || cfg.stop_after_chunks.is_some_and(|n| chunks_run >= n)
        {
            interrupted = true;
            break;
        }
        chunks_run += 1;
        let end = (done + chunk).min(cfg.profiles);
        let items: Vec<(usize, u64)> = (done..end)
            .flat_map(|i| (0..points.len()).map(move |p| (p, i)))
            .collect();
        let outcomes = mcmap_eval::parallel_map(&items, cfg.threads, |&(p, i)| {
            let point = &points[p];
            let sim_cfg = SimConfig {
                exec_model: ExecModel::WorstCase,
                hyperperiods: cfg.hyperperiods,
                dropped: point.dropped.clone(),
                start_critical: false,
            };
            let mut faults =
                RandomFaults::new(&point.hsys, arch, &point.mapping, cfg.seed.wrapping_add(i))
                    .with_boost(cfg.boost);
            let r = sims[p].run(&sim_cfg, &mut faults);
            let covered = r.unsafe_instances.iter().sum::<u64>() == 0;
            let mut viols = Vec::new();
            if covered {
                for (a, (&observed, &bound)) in r.app_wcrt.iter().zip(&point.app_wcrt).enumerate() {
                    if bound != Time::MAX
                        && !point.dropped.contains(&AppId::new(a))
                        && observed > bound
                    {
                        viols.push((a, observed, bound));
                    }
                }
            }
            Outcome {
                observed: r.app_wcrt,
                faulty: r.critical_entries > 0,
                covered,
                violations: viols,
            }
        });
        for (&(p, i), o) in items.iter().zip(&outcomes) {
            let pv = &mut acc[p];
            if o.covered {
                pv.covered += 1;
                for (slot, &t) in pv.observed_max.iter_mut().zip(&o.observed) {
                    *slot = (*slot).max(t);
                }
            } else {
                pv.beyond_coverage += 1;
            }
            if o.faulty {
                pv.faulty += 1;
            }
            pv.violations += o.violations.len() as u64;
            for &(a, observed, bound) in &o.violations {
                if violations.len() < MAX_VIOLATION_DETAIL {
                    violations.push(Violation {
                        point: p,
                        profile: i,
                        app: AppId::new(a),
                        observed,
                        bound,
                    });
                }
            }
        }
        done = end;
        cfg.obs
            .counter("validate.progress", &[("done", Value::U64(done))]);
        if let Some(path) = &cfg.checkpoint {
            let ckpt = CampaignCheckpoint {
                fingerprint,
                done,
                points: acc.clone(),
                violations: violations.clone(),
            };
            atomic_write_rotating(path, &ckpt.to_bytes())?;
        }
    }
    drop(span);

    Ok(CampaignSummary {
        seed: cfg.seed,
        boost: cfg.boost,
        profiles: cfg.profiles,
        done,
        points: acc,
        violations,
        interrupted,
        resumed_from,
    })
}

/// Fingerprint of everything the accumulated aggregates depend on: the
/// campaign knobs and each point's identity (bounds, dropped set,
/// placement). Thread count and chunk size are *excluded* — like the DSE
/// checkpoint, a campaign may resume with different parallelism. The
/// chunk size only moves checkpoint boundaries, never results.
fn campaign_fingerprint(points: &[MaterializedPoint], cfg: &CampaignConfig) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    cfg.seed.hash(&mut h);
    cfg.boost.to_bits().hash(&mut h);
    cfg.profiles.hash(&mut h);
    cfg.hyperperiods.hash(&mut h);
    points.len().hash(&mut h);
    for p in points {
        for t in &p.app_wcrt {
            t.ticks().hash(&mut h);
        }
        for a in &p.dropped {
            a.index().hash(&mut h);
        }
        for proc in p.mapping.placement() {
            proc.index().hash(&mut h);
        }
    }
    h.finish()
}

fn malformed(path: &Path, detail: impl Into<String>) -> ResilienceError {
    ResilienceError::Malformed {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

fn field_u64(path: &Path, obj: &Json, key: &str) -> Result<u64, ResilienceError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed(path, format!("missing or non-integer `{key}`")))
}

fn field_arr<'a>(path: &Path, obj: &'a Json, key: &str) -> Result<&'a [Json], ResilienceError> {
    match obj.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(malformed(path, format!("missing or non-array `{key}`"))),
    }
}

fn time_list(path: &Path, obj: &Json, key: &str) -> Result<Vec<Time>, ResilienceError> {
    field_arr(path, obj, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(Time::from_ticks)
                .ok_or_else(|| malformed(path, format!("{key}: expected ticks")))
        })
        .collect()
}
