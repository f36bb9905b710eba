//! Operating-point portfolios: the design-time → run-time hand-off.
//!
//! The DSE's Pareto archive is a search artifact — hundreds of genomes,
//! most of them dominated or infeasible. What a runtime manager needs is
//! a *portfolio*: a small, dominance-pruned set of operating points, each
//! carrying everything required to switch into it at a mode change — the
//! chromosome (from which the hardened system and mapping are
//! re-derived deterministically), the analyzed per-application WCRT
//! bounds, the expected power and delivered service, and the set of
//! applications the point degrades (drops in the critical mode).
//!
//! The on-disk format reuses the `mcmap-resilience` sealed envelope
//! (version tag + length + FNV-1a checksum, atomic write with `.bak`
//! rotation), with all `f64` values as IEEE-754 bit patterns and all
//! [`Time`] values as raw ticks, so a portfolio round-trips
//! bit-identically. A portfolio records the [`MappingProblem::context`]
//! fingerprint it was extracted under; [`Portfolio::materialize`] refuses
//! a problem with a different fingerprint, because genomes only decode to
//! the same design under the same model, policies, and repair seed.

use std::path::Path;

use mcmap_ga::Individual;
use mcmap_hardening::{harden, HardenedSystem, TechniqueHistogram};
use mcmap_model::{AppId, ProcId, Time};
use mcmap_obs::parse_json;
use mcmap_resilience::{atomic_write_rotating, backup_path, seal, unseal, ResilienceError};
use mcmap_sched::Mapping;

use crate::checkpoint::{
    as_arr, as_u64, as_usize, decode_genome, get, malformed, push_genome, push_u64s,
};
use crate::dse::MappingProblem;
use crate::genome::Genome;

/// Envelope kind tag for portfolio files.
const KIND: &str = "portfolio";

/// One distilled operating point: a non-dominated, feasible design from
/// the Pareto archive, with its analyzed guarantees attached.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// The chromosome. The hardened system and the mapping are re-derived
    /// from it on [`Portfolio::materialize`] — storing the genome instead
    /// of the expanded design keeps the file small and guarantees the
    /// materialized point is exactly what the DSE evaluated.
    pub genome: Genome,
    /// Expected power (the paper's weighted normal/critical mix).
    pub power: f64,
    /// Delivered service: total service minus the dropped applications'.
    pub service: f64,
    /// Applications this point degrades — dropped at the switch into the
    /// critical mode. The runtime ladder treats these as the point's
    /// standing service contract.
    pub dropped: Vec<AppId>,
    /// Analyzed per-application WCRT bounds (worst case over all fault
    /// scenarios within the hardening coverage). `Time::MAX` marks an
    /// application with no finite bound (dropped applications keep their
    /// analyzed bound from the normal mode when one exists).
    pub app_wcrt: Vec<Time>,
}

/// A sealed, dominance-pruned set of operating points, ordered from the
/// full-service point down the degradation ladder (service descending,
/// power ascending on ties) — index order *is* ladder order.
#[derive(Debug, Clone, PartialEq)]
pub struct Portfolio {
    /// The [`MappingProblem::context`] fingerprint the points were
    /// extracted under; materialization against any other problem is
    /// refused.
    pub context: u64,
    /// The operating points, in ladder order.
    pub points: Vec<OperatingPoint>,
}

/// An operating point expanded into the executable design: the hardened
/// system, the mapping, and the guarantees — everything the simulator and
/// the runtime manager consume.
#[derive(Debug)]
pub struct MaterializedPoint {
    /// The replica/voter-expanded task set.
    pub hsys: HardenedSystem,
    /// Task-to-processor placement over `hsys`.
    pub mapping: Mapping,
    /// Applications dropped in this point's critical mode.
    pub dropped: Vec<AppId>,
    /// Analyzed per-application WCRT bounds (see
    /// [`OperatingPoint::app_wcrt`]).
    pub app_wcrt: Vec<Time>,
    /// Expected power.
    pub power: f64,
    /// Delivered service.
    pub service: f64,
    /// Hardening-technique census of the point's plan.
    pub histogram: TechniqueHistogram,
}

impl MaterializedPoint {
    /// Processors this point actually uses (primary bindings, replicas,
    /// and voters). A point survives the loss of a processor it does not
    /// use.
    pub fn used_processors(&self) -> Vec<ProcId> {
        let mut used: Vec<ProcId> = self.mapping.placement().to_vec();
        used.sort_by_key(|p| p.index());
        used.dedup();
        used
    }
}

impl Portfolio {
    /// Distills a Pareto front into a portfolio: re-reports every genome
    /// through the problem's repair + analysis pipeline, keeps the
    /// feasible ones, prunes (power, lost-service) dominated points and
    /// exact duplicates, and orders the survivors into the degradation
    /// ladder (service descending, then power ascending, then genome
    /// order for full determinism).
    pub fn extract(problem: &MappingProblem<'_>, front: &[Individual<Genome>]) -> Portfolio {
        struct Candidate {
            genome: Genome,
            power: f64,
            service: f64,
            lost: f64,
            dropped: Vec<AppId>,
            app_wcrt: Vec<Time>,
        }
        let mut cands: Vec<Candidate> = Vec::new();
        for ind in front {
            let r = problem.report(&ind.genotype);
            if !r.feasible {
                continue;
            }
            // Exact duplicates (same phenotype reached by different
            // chromosomes) add nothing to the ladder.
            if cands.iter().any(|c| {
                c.power.to_bits() == r.power.to_bits()
                    && c.dropped == r.dropped
                    && c.app_wcrt == r.app_wcrt
            }) {
                continue;
            }
            cands.push(Candidate {
                genome: ind.genotype.clone(),
                power: r.power,
                service: r.service,
                lost: r.lost_service,
                dropped: r.dropped,
                app_wcrt: r.app_wcrt,
            });
        }
        // Dominance pruning on (power, lost-service): a point stays only
        // if no other candidate is at least as good on both axes and
        // strictly better on one.
        let keep: Vec<bool> = (0..cands.len())
            .map(|i| {
                !cands.iter().enumerate().any(|(j, c)| {
                    j != i
                        && c.power <= cands[i].power
                        && c.lost <= cands[i].lost
                        && (c.power < cands[i].power || c.lost < cands[i].lost)
                })
            })
            .collect();
        let mut points: Vec<OperatingPoint> = cands
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| {
                k.then_some(OperatingPoint {
                    genome: c.genome,
                    power: c.power,
                    service: c.service,
                    dropped: c.dropped,
                    app_wcrt: c.app_wcrt,
                })
            })
            .collect();
        points.sort_by(|a, b| {
            b.service
                .total_cmp(&a.service)
                .then(a.power.total_cmp(&b.power))
                .then_with(|| format!("{:?}", a.genome).cmp(&format!("{:?}", b.genome)))
        });
        Portfolio {
            context: problem.context(),
            points,
        }
    }

    /// Expands every point into its executable design via the problem's
    /// deterministic repair pipeline.
    ///
    /// # Errors
    ///
    /// Returns a malformed-class [`ResilienceError`] when the problem's
    /// context fingerprint differs from the one recorded at extraction,
    /// or when a stored genome no longer decodes to a valid design (both
    /// indicate the portfolio belongs to a different model or
    /// configuration).
    pub fn materialize(
        &self,
        problem: &MappingProblem<'_>,
    ) -> Result<Vec<MaterializedPoint>, ResilienceError> {
        let path = Path::new("<portfolio>");
        if problem.context() != self.context {
            return Err(malformed(
                path,
                format!(
                    "context fingerprint mismatch: portfolio={:016x} problem={:016x} \
                     (extracted under a different model, policy set, or seed)",
                    self.context,
                    problem.context()
                ),
            ));
        }
        let mut out = Vec::with_capacity(self.points.len());
        for (i, point) in self.points.iter().enumerate() {
            let (plan, dropped, bindings) = problem.decode_repaired(&point.genome);
            let hsys = harden(problem.apps(), &plan, problem.arch())
                .map_err(|e| malformed(path, format!("point {i}: hardening failed: {e}")))?;
            let placement = hsys.placement(&bindings);
            let histogram = plan.technique_histogram();
            let mapping = Mapping::new(&hsys, problem.arch(), placement)
                .map_err(|e| malformed(path, format!("point {i}: invalid mapping: {e}")))?;
            out.push(MaterializedPoint {
                hsys,
                mapping,
                dropped,
                app_wcrt: point.app_wcrt.clone(),
                power: point.power,
                service: point.service,
                histogram,
            });
        }
        Ok(out)
    }

    /// Serializes to the sealed envelope byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(KIND, encode(self).as_bytes())
    }

    /// Deserializes from sealed envelope bytes. `path` is used only for
    /// error reporting.
    ///
    /// # Errors
    ///
    /// Returns a corruption-class [`ResilienceError`] (truncated payload,
    /// checksum mismatch, version mismatch, malformed JSON).
    pub fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Self, ResilienceError> {
        let payload = unseal(KIND, path, bytes)?;
        let text = std::str::from_utf8(&payload).map_err(|_| ResilienceError::Malformed {
            path: path.to_path_buf(),
            detail: "payload is not valid UTF-8".into(),
        })?;
        decode(path, text)
    }
}

/// Writes `portfolio` to `path` atomically, rotating any existing file to
/// `<path>.bak` first.
///
/// # Errors
///
/// Returns [`ResilienceError::Io`] when staging, renaming, or syncing
/// fails.
pub fn write_portfolio(path: &Path, portfolio: &Portfolio) -> Result<(), ResilienceError> {
    atomic_write_rotating(path, &portfolio.to_bytes())
}

/// Reads the portfolio at `path`, falling back to `<path>.bak` when the
/// primary is corrupt. Returns the portfolio and whether the backup was
/// used.
///
/// # Errors
///
/// Propagates the primary's error when there is no usable backup.
pub fn read_portfolio(path: &Path) -> Result<(Portfolio, bool), ResilienceError> {
    let read = |p: &Path| -> Result<Portfolio, ResilienceError> {
        let bytes = std::fs::read(p).map_err(|e| ResilienceError::io(p, "read", e))?;
        Portfolio::from_bytes(p, &bytes)
    };
    match read(path) {
        Ok(p) => Ok((p, false)),
        Err(primary) if primary.is_corruption() => match read(&backup_path(path)) {
            Ok(p) => Ok((p, true)),
            Err(_) => Err(primary),
        },
        Err(e) => Err(e),
    }
}

fn encode(p: &Portfolio) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"context\":");
    out.push_str(&p.context.to_string());
    out.push_str(",\"points\":[");
    for (i, point) in p.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"genome\":");
        push_genome(&mut out, &point.genome);
        out.push_str(",\"power\":");
        out.push_str(&point.power.to_bits().to_string());
        out.push_str(",\"service\":");
        out.push_str(&point.service.to_bits().to_string());
        out.push_str(",\"dropped\":");
        push_u64s(&mut out, point.dropped.iter().map(|a| a.index() as u64));
        out.push_str(",\"app_wcrt\":");
        push_u64s(&mut out, point.app_wcrt.iter().map(|t| t.ticks()));
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn decode(path: &Path, text: &str) -> Result<Portfolio, ResilienceError> {
    let root = parse_json(text).map_err(|e| malformed(path, format!("invalid JSON: {e}")))?;
    let context = as_u64(path, get(path, &root, "context")?, "context")?;
    let mut points = Vec::new();
    for v in as_arr(path, get(path, &root, "points")?, "points")? {
        let genome = decode_genome(path, get(path, v, "genome")?)?;
        let power = f64::from_bits(as_u64(path, get(path, v, "power")?, "power")?);
        let service = f64::from_bits(as_u64(path, get(path, v, "service")?, "service")?);
        let dropped = as_arr(path, get(path, v, "dropped")?, "dropped")?
            .iter()
            .map(|a| Ok(AppId::new(as_usize(path, a, "dropped app")?)))
            .collect::<Result<Vec<_>, ResilienceError>>()?;
        let app_wcrt = as_arr(path, get(path, v, "app_wcrt")?, "app_wcrt")?
            .iter()
            .map(|t| Ok(Time::from_ticks(as_u64(path, t, "app_wcrt")?)))
            .collect::<Result<Vec<_>, ResilienceError>>()?;
        points.push(OperatingPoint {
            genome,
            power,
            service,
            dropped,
            app_wcrt,
        });
    }
    Ok(Portfolio { context, points })
}
