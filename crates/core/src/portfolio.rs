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
//! A portfolio is persisted through [`write_sealed`] / [`read_sealed`]
//! (the `mcmap-resilience` sealed document path, with its `.bak`
//! fallback); this module owns only the encoder and decoder, which write
//! all `f64` values as IEEE-754 bit patterns and all [`Time`] values as
//! raw ticks, so a portfolio round-trips bit-identically. A portfolio records the [`MappingProblem::context`]
//! fingerprint it was extracted under; [`Portfolio::materialize`] refuses
//! a problem with a different fingerprint, because genomes only decode to
//! the same design under the same model, policies, and repair seed.

use std::path::Path;

use mcmap_ga::Individual;
use mcmap_hardening::{harden, HardenedSystem, TechniqueHistogram};
use mcmap_model::{AppId, ProcId, Time};
use mcmap_obs::{parse_json, push_json_u64s};
use mcmap_resilience::{read_sealed, write_sealed, ResilienceError};
use mcmap_sched::Mapping;

use crate::checkpoint::{decode_genome, push_genome};
use crate::dse::{DesignReport, MappingProblem};
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
    /// Distills a Pareto front into a portfolio: reads every genome's
    /// design report through [`MappingProblem::report`] (the cached
    /// evaluation record, or a fresh evaluation on a miss), keeps the
    /// feasible ones, prunes (power, lost-service) dominated points and
    /// exact duplicates, and orders the survivors into the degradation
    /// ladder (service descending, then power ascending, then genome
    /// order for full determinism).
    pub fn extract(problem: &MappingProblem<'_>, front: &[Individual<Genome>]) -> Portfolio {
        let mut cands: Vec<(&Genome, DesignReport)> = Vec::new();
        for ind in front {
            let r = problem.report(&ind.genotype);
            if !r.feasible {
                continue;
            }
            // Exact duplicates (same phenotype reached by different
            // chromosomes) add nothing to the ladder.
            if cands.iter().any(|(_, c)| {
                c.power.to_bits() == r.power.to_bits()
                    && c.dropped == r.dropped
                    && c.app_wcrt == r.app_wcrt
            }) {
                continue;
            }
            cands.push((&ind.genotype, r));
        }
        // Dominance pruning on (power, lost-service): a point stays only
        // if no other candidate is at least as good on both axes and
        // strictly better on one.
        let dominated = |a: &DesignReport| {
            cands.iter().any(|(_, c)| {
                c.power <= a.power
                    && c.lost_service <= a.lost_service
                    && (c.power < a.power || c.lost_service < a.lost_service)
            })
        };
        let keep: Vec<bool> = cands.iter().map(|(_, r)| !dominated(r)).collect();
        let mut points: Vec<OperatingPoint> = cands
            .into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|((genome, r), _)| OperatingPoint {
                genome: genome.clone(),
                power: r.power,
                service: r.service,
                dropped: r.dropped,
                app_wcrt: r.app_wcrt,
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
    /// Returns [`ResilienceError::ConfigMismatch`] when the problem's
    /// context fingerprint differs from the one recorded at extraction
    /// (the portfolio belongs to a different model, policy set, or seed).
    /// The error names the path `<portfolio>`; a caller that read the
    /// portfolio from a file replaces it with the file's path. Returns a
    /// malformed-class error when a stored genome no longer decodes to a
    /// valid design.
    pub fn materialize(
        &self,
        problem: &MappingProblem<'_>,
    ) -> Result<Vec<MaterializedPoint>, ResilienceError> {
        if problem.context() != self.context {
            return Err(ResilienceError::ConfigMismatch {
                path: "<portfolio>".into(),
                expected: problem.context(),
                actual: self.context,
                diff: Vec::new(),
            });
        }
        let malformed = |detail: String| ResilienceError::Malformed {
            path: "<portfolio>".into(),
            detail,
        };
        let mut out = Vec::with_capacity(self.points.len());
        for (i, point) in self.points.iter().enumerate() {
            let (plan, dropped, bindings) = problem.decode_repaired(&point.genome);
            let hsys = harden(problem.apps(), &plan, problem.arch())
                .map_err(|e| malformed(format!("point {i}: hardening failed: {e}")))?;
            let placement = hsys.placement(&bindings);
            let histogram = plan.technique_histogram();
            let mapping = Mapping::new(&hsys, problem.arch(), placement)
                .map_err(|e| malformed(format!("point {i}: invalid mapping: {e}")))?;
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
}

/// Writes `portfolio` to `path` atomically, rotating any existing file to
/// `<path>.bak` first.
///
/// # Errors
///
/// Returns [`ResilienceError::Io`] when staging, renaming, or syncing
/// fails.
pub fn write_portfolio(path: &Path, portfolio: &Portfolio) -> Result<(), ResilienceError> {
    write_sealed(path, KIND, &encode(portfolio))
}

/// Reads the portfolio at `path` with [`read_sealed`]'s `.bak` fallback.
/// Returns the portfolio and whether the backup was used.
///
/// # Errors
///
/// See [`read_sealed`].
pub fn read_portfolio(path: &Path) -> Result<(Portfolio, bool), ResilienceError> {
    read_sealed(path, KIND, decode)
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
        push_json_u64s(&mut out, point.dropped.iter().map(|a| a.index() as u64));
        out.push_str(",\"app_wcrt\":");
        push_json_u64s(&mut out, point.app_wcrt.iter().map(|t| t.ticks()));
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn decode(text: &str) -> Result<Portfolio, String> {
    let root = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut points = Vec::new();
    for v in root.arr_member("points")? {
        points.push(OperatingPoint {
            genome: decode_genome(v.member("genome")?)?,
            power: f64::from_bits(v.u64_member("power")?),
            service: f64::from_bits(v.u64_member("service")?),
            dropped: v
                .u64_list_member("dropped")?
                .into_iter()
                .map(|a| AppId::new(a as usize))
                .collect(),
            app_wcrt: v
                .u64_list_member("app_wcrt")?
                .into_iter()
                .map(Time::from_ticks)
                .collect(),
        });
    }
    Ok(Portfolio {
        context: root.u64_member("context")?,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{TaskGene, TaskHardening};

    #[test]
    fn sealed_format_is_pinned() {
        // A format change that still round-trips would pass every other
        // portfolio test; this hash of a sealed sample catches it.
        let point = OperatingPoint {
            genome: Genome {
                alloc: vec![true, true],
                keep: vec![false, true],
                genes: vec![
                    TaskGene {
                        binding: ProcId::new(1),
                        hardening: TaskHardening::Reexec(1),
                    },
                    TaskGene {
                        binding: ProcId::new(0),
                        hardening: TaskHardening::Active {
                            replicas: vec![ProcId::new(0), ProcId::new(1)],
                            voter: ProcId::new(1),
                        },
                    },
                ],
            },
            power: 0.1 + 0.2,
            service: 17.5,
            dropped: vec![AppId::new(2)],
            app_wcrt: vec![Time::from_ticks(120), Time::MAX],
        };
        let portfolio = Portfolio {
            context: 0x0123_4567_89ab_cdef,
            points: vec![point.clone(), point],
        };
        let bytes = mcmap_resilience::seal(KIND, encode(&portfolio).as_bytes());
        assert_eq!(mcmap_resilience::fnv1a64(&bytes), 0xf1ab_4055_a048_fef3);
        assert_eq!(decode(&encode(&portfolio)).unwrap(), portfolio);
    }
}
