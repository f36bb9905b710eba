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
//! and progress checkpoints at fixed chunk boundaries through
//! [`write_sealed`] / [`read_sealed`] (the `mcmap-resilience` sealed
//! document path, with its `.bak` fallback), so a SIGTERM-interrupted
//! campaign resumes into the exact summary the uninterrupted run would
//! have produced.
//!
//! [`unsafe_instances`]: mcmap_sim::SimResult::unsafe_instances

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mcmap_core::MaterializedPoint;
use mcmap_model::{AppId, Architecture, Time};
use mcmap_obs::{parse_json, push_json_u64s, Json, Recorder, Value};
use mcmap_resilience::{read_sealed, seal, unseal_with, write_sealed, ResilienceError};
use mcmap_sched::SchedPolicy;
use mcmap_sim::{ExecModel, RandomFaults, SimConfig, SimResult, Simulator, TrajectoryMemo};

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
            out.push_str(",\"observed_max\":");
            push_ticks(&mut out, &p.observed_max);
            out.push_str(",\"bound\":");
            push_ticks(&mut out, &p.bound);
            out.push('}');
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
    /// Fingerprint of the campaign inputs (architecture, scheduling
    /// policies, seed, boost, profile count, hyperperiods, and every
    /// point's bounds/dropped set/placement).
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
        seal(KIND, self.encode().as_bytes())
    }

    /// Deserializes from sealed envelope bytes (`path` for diagnostics).
    ///
    /// # Errors
    ///
    /// Returns a corruption-class [`ResilienceError`] (see [`unseal_with`]).
    pub fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Self, ResilienceError> {
        unseal_with(KIND, path, bytes, Self::decode)
    }

    fn encode(&self) -> String {
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
                "{{\"covered\":{},\"beyond\":{},\"faulty\":{},\"violations\":{},\"observed\":",
                p.covered, p.beyond_coverage, p.faulty, p.violations
            ));
            push_ticks(&mut out, &p.observed_max);
            out.push_str(",\"bound\":");
            push_ticks(&mut out, &p.bound);
            out.push('}');
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_u64s(
                &mut out,
                [
                    v.point as u64,
                    v.profile,
                    v.app.index() as u64,
                    v.observed.ticks(),
                    v.bound.ticks(),
                ],
            );
        }
        out.push_str("]}");
        out
    }

    fn decode(text: &str) -> Result<Self, String> {
        let root = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let ticks = |p: &Json, key| -> Result<Vec<Time>, String> {
            Ok(p.u64_list_member(key)?
                .into_iter()
                .map(Time::from_ticks)
                .collect())
        };
        let mut points = Vec::new();
        for p in root.arr_member("points")? {
            points.push(PointValidation {
                covered: p.u64_member("covered")?,
                beyond_coverage: p.u64_member("beyond")?,
                faulty: p.u64_member("faulty")?,
                violations: p.u64_member("violations")?,
                observed_max: ticks(p, "observed")?,
                bound: ticks(p, "bound")?,
            });
        }
        let mut violations = Vec::new();
        for v in root.arr_member("violations")? {
            let Some(&[point, profile, app, observed, bound]) = v.as_u64_list().as_deref() else {
                return Err("violation: expected 5 unsigned integers".into());
            };
            violations.push(Violation {
                point: point as usize,
                profile,
                app: AppId::new(app as usize),
                observed: Time::from_ticks(observed),
                bound: Time::from_ticks(bound),
            });
        }
        Ok(CampaignCheckpoint {
            fingerprint: root.u64_member("fingerprint")?,
            done: root.u64_member("done")?,
            points,
            violations,
        })
    }
}

/// Reads the campaign checkpoint at `path` with [`read_sealed`]'s `.bak`
/// fallback. Returns the checkpoint and whether the backup was used.
///
/// # Errors
///
/// See [`read_sealed`].
pub fn read_campaign_checkpoint(
    path: &Path,
) -> Result<(CampaignCheckpoint, bool), ResilienceError> {
    read_sealed(path, KIND, CampaignCheckpoint::decode)
}

/// Writes `values` as a JSON array of raw ticks.
fn push_ticks(out: &mut String, values: &[Time]) {
    push_json_u64s(out, values.iter().map(|t| t.ticks()));
}

/// Runs (or resumes) a validation campaign over a materialized portfolio.
///
/// # Errors
///
/// Returns [`ResilienceError`] when checkpoint I/O fails, and
/// [`ResilienceError::ConfigMismatch`] when a resume is attempted against
/// a checkpoint from a different campaign (fingerprint mismatch).
///
/// # Panics
///
/// Panics when `points` is empty, when `resume` is set without a
/// checkpoint path, or when `policies` does not match the architecture's
/// processor count (same contract as [`Simulator::new`]).
pub fn run_campaign(
    points: &[MaterializedPoint],
    arch: &Architecture,
    policies: &[SchedPolicy],
    cfg: &CampaignConfig,
) -> Result<CampaignSummary, ResilienceError> {
    run_campaign_with(points, arch, policies, cfg, TrajectoryMemo::new)
}

/// Everything a run needs that depends only on its point, built once per
/// campaign: the simulator, the fault model (one profile per seed), the
/// simulation parameters and the trajectory memo.
struct PointContext<'a> {
    sim: Simulator<'a>,
    faults: RandomFaults,
    sim_cfg: SimConfig,
    memo: TrajectoryMemo<Outcome>,
}

/// What the campaign keeps of one run: the memoized outcome of a fault
/// trajectory on one point.
#[derive(Debug, PartialEq)]
struct Outcome {
    observed: Vec<Time>,
    faulty: bool,
    covered: bool,
    violations: Vec<(usize, Time, Time)>,
}

impl Outcome {
    fn of(point: &MaterializedPoint, r: SimResult) -> Outcome {
        let covered = r.unsafe_instances.iter().sum::<u64>() == 0;
        let mut violations = Vec::new();
        if covered {
            for (a, (&observed, &bound)) in r.app_wcrt.iter().zip(&point.app_wcrt).enumerate() {
                if bound != Time::MAX && !point.dropped.contains(&AppId::new(a)) && observed > bound
                {
                    violations.push((a, observed, bound));
                }
            }
        }
        Outcome {
            observed: r.app_wcrt,
            faulty: r.critical_entries > 0,
            covered,
            violations,
        }
    }
}

/// [`run_campaign`] with each point's trajectory memo made by `new_memo`
/// (tests make tiny ones to run the full-memo path).
fn run_campaign_with(
    points: &[MaterializedPoint],
    arch: &Architecture,
    policies: &[SchedPolicy],
    cfg: &CampaignConfig,
    new_memo: impl Fn() -> TrajectoryMemo<Outcome>,
) -> Result<CampaignSummary, ResilienceError> {
    assert!(!points.is_empty(), "a campaign needs at least one point");
    assert!(
        !cfg.resume || cfg.checkpoint.is_some(),
        "resuming a campaign needs a checkpoint path"
    );
    let fingerprint = campaign_fingerprint(points, arch, policies, cfg);
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

    if let Some(path) = cfg.checkpoint.as_deref().filter(|_| cfg.resume) {
        if path.exists() {
            let (ckpt, recovered) = read_campaign_checkpoint(path)?;
            // A different architecture, policy set, portfolio, seed,
            // boost, or profile count: a caller mistake, not corruption
            // (no `.bak` fallback).
            if ckpt.fingerprint != fingerprint {
                return Err(ResilienceError::ConfigMismatch {
                    path: path.to_path_buf(),
                    expected: fingerprint,
                    actual: ckpt.fingerprint,
                    diff: vec![],
                });
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

    let mut span = cfg.obs.span(
        "validate.campaign",
        &[
            ("points", Value::U64(points.len() as u64)),
            ("profiles", Value::U64(cfg.profiles)),
        ],
    );
    let contexts: Vec<PointContext<'_>> = points
        .iter()
        .map(|p| PointContext {
            sim: Simulator::new(&p.hsys, arch, &p.mapping, policies.to_vec()),
            faults: RandomFaults::new(&p.hsys, arch, &p.mapping, cfg.seed).with_boost(cfg.boost),
            sim_cfg: SimConfig {
                exec_model: ExecModel::WorstCase,
                hyperperiods: cfg.hyperperiods,
                dropped: p.dropped.clone(),
                start_critical: false,
            },
            memo: new_memo(),
        })
        .collect();

    // One work item per (point, profile); outcome index `point` is
    // implicit in input order, so the order-preserving map's output
    // merges deterministically whatever the thread count.
    let chunk = cfg.chunk.max(1);
    let mut interrupted = false;
    let mut chunks_run: u64 = 0;
    let mut runs: u64 = 0;
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
        runs += items.len() as u64;
        let answers = mcmap_eval::parallel_map(&items, cfg.threads, |&(p, i)| {
            let c = &contexts[p];
            let mut faults = c.faults.profile(cfg.seed.wrapping_add(i));
            c.memo.run(&c.sim, &c.sim_cfg, &mut faults, |r| {
                Outcome::of(&points[p], r)
            })
        });
        let leaves: Vec<_> = contexts.iter().map(|c| c.memo.leaves()).collect();
        for (&(p, i), answer) in items.iter().zip(&answers) {
            let o = leaves[p].get(answer);
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
            write_sealed(path, KIND, &ckpt.encode())?;
        }
    }
    let simulated: u64 = contexts.iter().map(|c| c.memo.simulated()).sum();
    span.nondet("simulated", simulated);
    span.nondet("memo_answered", runs - simulated);
    span.nondet(
        "memo_bytes",
        contexts.iter().map(|c| c.memo.bytes() as u64).sum::<u64>(),
    );
    span.nondet(
        "memo_full",
        contexts.iter().filter(|c| c.memo.is_full()).count() as u64,
    );
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
/// architecture (its fault rates set the verdict thresholds), the
/// scheduling policies, the campaign knobs and each point's identity
/// (bounds, dropped set, placement). Thread count and chunk size are
/// *excluded* — like the DSE checkpoint, a campaign may resume with
/// different parallelism. The chunk size only moves checkpoint
/// boundaries, never results.
fn campaign_fingerprint(
    points: &[MaterializedPoint],
    arch: &Architecture,
    policies: &[SchedPolicy],
    cfg: &CampaignConfig,
) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    // The model types expose no Hash; their Debug forms are complete,
    // deterministic renderings of the content, as in the DSE fingerprint.
    format!("{arch:?}").hash(&mut h);
    format!("{policies:?}").hash(&mut h);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_format_is_pinned() {
        // A format change that still round-trips would pass every other
        // campaign test; this hash of a sealed sample catches it.
        let point = PointValidation {
            covered: 200,
            beyond_coverage: 50,
            faulty: 31,
            observed_max: vec![Time::from_ticks(120), Time::ZERO],
            bound: vec![Time::from_ticks(150), Time::MAX],
            violations: 1,
        };
        let ckpt = CampaignCheckpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            done: 250,
            points: vec![point.clone(), point],
            violations: vec![Violation {
                point: 1,
                profile: 17,
                app: AppId::new(0),
                observed: Time::from_ticks(160),
                bound: Time::from_ticks(150),
            }],
        };
        let bytes = ckpt.to_bytes();
        assert_eq!(mcmap_resilience::fnv1a64(&bytes), 0xbd31_35d6_ee60_4484);
        let back = CampaignCheckpoint::from_bytes(Path::new("test.ckpt"), &bytes).unwrap();
        assert_eq!(back.points, ckpt.points);
        assert_eq!(back.violations, ckpt.violations);
    }

    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor, Task, TaskGraph,
    };
    use mcmap_sched::{uniform_policies, Mapping};
    use proptest::prelude::*;

    /// The campaign without a memo: one `Simulator::run` per profile and
    /// point, merged in profile order.
    fn reference(
        points: &[MaterializedPoint],
        arch: &Architecture,
        policies: &[SchedPolicy],
        cfg: &CampaignConfig,
    ) -> (Vec<PointValidation>, Vec<Violation>) {
        let mut acc: Vec<PointValidation> = points
            .iter()
            .map(|p| PointValidation {
                covered: 0,
                beyond_coverage: 0,
                faulty: 0,
                observed_max: vec![Time::ZERO; p.app_wcrt.len()],
                bound: p.app_wcrt.clone(),
                violations: 0,
            })
            .collect();
        let mut detail = Vec::new();
        let sims: Vec<Simulator<'_>> = points
            .iter()
            .map(|p| Simulator::new(&p.hsys, arch, &p.mapping, policies.to_vec()))
            .collect();
        for i in 0..cfg.profiles {
            for (p, point) in points.iter().enumerate() {
                let sim_cfg = SimConfig {
                    exec_model: ExecModel::WorstCase,
                    hyperperiods: cfg.hyperperiods,
                    dropped: point.dropped.clone(),
                    start_critical: false,
                };
                let seed = cfg.seed.wrapping_add(i);
                let mut faults = RandomFaults::new(&point.hsys, arch, &point.mapping, seed)
                    .with_boost(cfg.boost);
                let r = sims[p].run(&sim_cfg, &mut faults);
                let pv = &mut acc[p];
                pv.faulty += u64::from(r.critical_entries > 0);
                if r.unsafe_instances.iter().any(|&n| n > 0) {
                    pv.beyond_coverage += 1;
                    continue;
                }
                pv.covered += 1;
                for (a, &observed) in r.app_wcrt.iter().enumerate() {
                    pv.observed_max[a] = pv.observed_max[a].max(observed);
                    let bound = point.app_wcrt[a];
                    if bound != Time::MAX
                        && !point.dropped.contains(&AppId::new(a))
                        && observed > bound
                    {
                        pv.violations += 1;
                        if detail.len() < MAX_VIOLATION_DETAIL {
                            detail.push(Violation {
                                point: p,
                                profile: i,
                                app: AppId::new(a),
                                observed,
                                bound,
                            });
                        }
                    }
                }
            }
        }
        (acc, detail)
    }

    /// A small random system: `apps` as (period, task WCETs, droppable),
    /// hardened per flat task by `techniques` (0 none, 1–2 re-executions,
    /// 3 active, 4 passive replication) on three processors.
    #[derive(Debug, Clone)]
    struct Desc {
        apps: Vec<(u64, Vec<u64>, bool)>,
        techniques: Vec<u8>,
        /// Per point: the processor of each free task, cycled.
        placements: Vec<Vec<usize>>,
        /// Per app: its bound as a multiple of 50 ticks (0 = no bound);
        /// tight bounds make violations.
        bounds: Vec<u64>,
    }

    fn desc_strategy() -> impl Strategy<Value = Desc> {
        let app = (
            prop::sample::select(vec![1_000u64, 2_000, 4_000]),
            prop::collection::vec(5u64..120, 1..4),
            any::<bool>(),
        );
        (
            prop::collection::vec(app, 1..4),
            prop::collection::vec(0u8..5, 12),
            prop::collection::vec(prop::collection::vec(0usize..3, 12), 1..4),
            prop::collection::vec(0u64..8, 4),
        )
            .prop_map(|(apps, techniques, placements, bounds)| Desc {
                apps,
                techniques,
                placements,
                bounds,
            })
    }

    fn build(d: &Desc) -> (Architecture, Vec<MaterializedPoint>) {
        let arch = Architecture::builder()
            .homogeneous(3, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
            .fabric(Fabric::new(16))
            .build()
            .expect("valid architecture");
        let graphs: Vec<TaskGraph> = d
            .apps
            .iter()
            .enumerate()
            .map(|(i, (period, wcets, droppable))| {
                let crit = if *droppable {
                    Criticality::Droppable { service: 1.0 }
                } else {
                    Criticality::NonDroppable {
                        max_failure_rate: 0.99,
                    }
                };
                let mut b = TaskGraph::builder(format!("a{i}"), Time::from_ticks(*period))
                    .criticality(crit);
                for (j, w) in wcets.iter().enumerate() {
                    b = b.task(
                        Task::new(format!("t{i}_{j}"))
                            .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(*w)))
                            .with_detect_overhead(Time::from_ticks(2))
                            .with_voting_overhead(Time::from_ticks(3)),
                    );
                }
                for j in 1..wcets.len() {
                    b = b.channel(j - 1, j, 8);
                }
                b.build().expect("chains are valid")
            })
            .collect();
        let apps = AppSet::new(graphs).expect("nonempty");
        let (p1, p2) = (ProcId::new(1), ProcId::new(2));
        let mut plan = HardeningPlan::unhardened(&apps);
        for flat in 0..apps.num_tasks() {
            let h = match d.techniques[flat % d.techniques.len()] {
                0 => continue,
                k @ (1 | 2) => TaskHardening::Reexec(k),
                3 => TaskHardening::Active {
                    replicas: vec![p1, p2],
                    voter: ProcId::new(0),
                },
                _ => TaskHardening::Passive {
                    actives: vec![p1],
                    standbys: vec![p2],
                    voter: ProcId::new(0),
                },
            };
            plan.set_by_flat_index(flat, h);
        }
        let hsys = harden(&apps, &plan, &arch).expect("valid plan");
        let droppable: Vec<AppId> = hsys
            .apps()
            .iter()
            .filter(|a| a.criticality.is_droppable())
            .map(|a| a.app)
            .collect();
        let points = d
            .placements
            .iter()
            .enumerate()
            .map(|(k, pattern)| {
                let placement = hsys
                    .tasks()
                    .map(|(id, t)| {
                        t.fixed_proc
                            .unwrap_or(ProcId::new(pattern[id.index() % pattern.len()]))
                    })
                    .collect();
                MaterializedPoint {
                    hsys: hsys.clone(),
                    mapping: Mapping::new(&hsys, &arch, placement).expect("kind 0 everywhere"),
                    // Every other point drops the droppable applications.
                    dropped: if k % 2 == 1 {
                        droppable.clone()
                    } else {
                        vec![]
                    },
                    app_wcrt: (0..hsys.apps().len())
                        .map(|a| match d.bounds[a % d.bounds.len()] {
                            0 => Time::MAX,
                            m => Time::from_ticks(50 * m),
                        })
                        .collect(),
                    power: 0.0,
                    service: 0.0,
                    histogram: plan.technique_histogram(),
                }
            })
            .collect();
        (arch, points)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The memoized campaign equals the memo-free reference at one and
        /// two threads, with the fixed byte budget and with a tiny one that
        /// fills up, over random systems, mappings and bounds.
        #[test]
        fn memoized_campaign_equals_the_reference(
            d in desc_strategy(),
            seed in any::<u64>(),
            hyperperiods in 1u64..3,
            tiny in 1usize..640,
            boost in prop::sample::select(vec![1e3, 4e3, 2e4]),
        ) {
            let (arch, points) = build(&d);
            let policies = uniform_policies(3, SchedPolicy::FixedPriorityPreemptive);
            let cfg = CampaignConfig {
                profiles: 48,
                seed,
                boost,
                hyperperiods,
                chunk: 20,
                ..CampaignConfig::default()
            };
            let (points_ref, detail_ref) = reference(&points, &arch, &policies, &cfg);
            for threads in [1, 2] {
                let cfg = CampaignConfig { threads, ..cfg.clone() };
                let fixed = run_campaign(&points, &arch, &policies, &cfg).unwrap();
                prop_assert_eq!(&fixed.points, &points_ref);
                prop_assert_eq!(&fixed.violations, &detail_ref);
                let small = run_campaign_with(&points, &arch, &policies, &cfg, || {
                    TrajectoryMemo::with_byte_budget(tiny)
                })
                .unwrap();
                prop_assert_eq!(small.to_json(), fixed.to_json());
            }
        }
    }

    /// Resuming without a checkpoint is a caller bug, caught before any
    /// work rather than reported as a damaged file.
    #[test]
    #[should_panic(expected = "resuming a campaign needs a checkpoint path")]
    fn resume_without_a_checkpoint_panics() {
        let (arch, points) = build(&Desc {
            apps: vec![(1_000, vec![10], false)],
            techniques: vec![0; 12],
            placements: vec![vec![0; 12]],
            bounds: vec![0; 4],
        });
        let policies = uniform_policies(3, SchedPolicy::FixedPriorityPreemptive);
        let cfg = CampaignConfig {
            resume: true,
            ..CampaignConfig::default()
        };
        let _ = run_campaign(&points, &arch, &policies, &cfg);
    }

    /// fnv1a64 of the Cruise portfolio campaign's JSON summary (seed 1,
    /// 2 000 profiles). The memo-free reference shares the fault model, so
    /// only this constant catches a verdict change. It also moves with the
    /// portfolio: it was recorded when the DSE began to stop Algorithm 1
    /// after a fault-free deadline miss, which changed the 48 × 30 front.
    const CRUISE_CAMPAIGN_DIGEST: u64 = 0xd940_174c_d209_3066;

    /// The benchmark portfolio (Cruise, population 48 × 30 generations,
    /// GA seed 8) at 2 000 profiles: one summary at one and two threads,
    /// equal to the golden digest and to the memo-free reference, and
    /// most runs answered from the memo, as the `validate.campaign` span
    /// reports.
    #[test]
    fn cruise_portfolio_campaign_equals_the_reference() {
        let b = mcmap_benchmarks::cruise();
        let dse = mcmap_core::DseConfig {
            ga: mcmap_ga::GaConfig {
                population: 48,
                generations: 30,
                seed: 8,
                threads: 1,
                ..mcmap_ga::GaConfig::default()
            },
            objectives: mcmap_core::ObjectiveMode::PowerService,
            policies: Some(b.policies.clone()),
            repair_iters: 80,
            ..mcmap_core::DseConfig::default()
        };
        let outcome = mcmap_core::explore(&b.apps, &b.arch, dse.clone());
        let problem = mcmap_core::MappingProblem::new(&b.apps, &b.arch, dse);
        let points = mcmap_core::Portfolio::extract(&problem, &outcome.result.front)
            .materialize(&problem)
            .expect("materialize");
        let obs = Recorder::ring(64);
        let run = |threads: usize, obs: Recorder| {
            let cfg = CampaignConfig {
                profiles: 2_000,
                seed: 1,
                threads,
                obs,
                ..CampaignConfig::default()
            };
            run_campaign(&points, &b.arch, &b.policies, &cfg).unwrap()
        };
        let one = run(1, obs.clone());
        let two = run(2, Recorder::default());
        for summary in [&one, &two] {
            let digest = mcmap_resilience::fnv1a64(summary.to_json().as_bytes());
            assert_eq!(digest, CRUISE_CAMPAIGN_DIGEST, "{digest:016x}");
        }
        let cfg = CampaignConfig {
            profiles: 2_000,
            seed: 1,
            ..CampaignConfig::default()
        };
        let (points_ref, detail_ref) = reference(&points, &b.arch, &b.policies, &cfg);
        assert_eq!(one.points, points_ref);
        assert_eq!(one.violations, detail_ref);

        let end = obs
            .events()
            .into_iter()
            .find(|e| e.name == "validate.campaign" && e.kind == mcmap_obs::EventKind::SpanEnd)
            .expect("the campaign span closes");
        let field = |k: &str| match end.nondet_field(k) {
            Some(Value::U64(v)) => *v,
            other => panic!("{k}: {other:?}"),
        };
        let runs = 2_000 * points.len() as u64;
        assert_eq!(field("simulated") + field("memo_answered"), runs);
        assert!(
            field("memo_answered") > runs / 2,
            "the memo answered {} of {runs} runs",
            field("memo_answered")
        );
        // At one thread every distinct trajectory is recorded within the
        // byte budget: the memo never fills.
        assert_eq!(field("memo_full"), 0);
        let bytes = field("memo_bytes");
        assert!(
            bytes > 0 && bytes <= 32 * 1024 * points.len() as u64,
            "{bytes} bytes"
        );
    }
}
