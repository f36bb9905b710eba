//! Output checks: every exploration and campaign the benchmark times is
//! verified, so a change that is fast but wrong does not pass.

use crate::replay::placement;
use crate::util::RunResult;
use mcmap_core::{analyze_with, AnalysisOptions, DesignReport, DseOutcome, Genome, MappingProblem};
use mcmap_hardening::{harden, Reliability};
use mcmap_runtime::{CampaignConfig, CampaignSummary};
use mcmap_sched::Mapping;

/// Re-verifies one feasible front point from scratch: decode it, re-analyse
/// it with the cold reference enumeration, and check schedulability and
/// every reliability bound.
fn verify_point(
    problem: &MappingProblem<'_>,
    genome: &Genome,
    report: &DesignReport,
) -> Result<(), String> {
    let (apps, arch) = (problem.apps(), problem.arch());
    let (plan, dropped, bindings) = problem.decode_repaired(genome);
    if dropped != report.dropped {
        return Err("decoded dropped set differs from the report".into());
    }
    let hsys = harden(apps, &plan, arch).map_err(|e| format!("harden: {e:?}"))?;
    let mapping = Mapping::new(&hsys, arch, placement(&hsys, &bindings))
        .map_err(|e| format!("map: {e:?}"))?;
    let mc = analyze_with(
        &hsys,
        arch,
        &mapping,
        problem.policies(),
        &dropped,
        AnalysisOptions::reference(),
    );
    if !mc.schedulable(&hsys, &dropped) {
        return Err("feasible front point is unschedulable under the reference analysis".into());
    }
    let rel = Reliability::new(&hsys, arch).check_all(mapping.placement());
    if rel.iter().any(|v| !v.satisfied) {
        return Err("feasible front point misses a reliability bound".into());
    }
    Ok(())
}

/// Checks one exploration: the evaluation count of the budget, no
/// degraded candidate, and every feasible front point re-verified. Counts
/// its candidates as attempted, and degraded candidates and refuted front
/// points as failed.
pub fn check_dse(
    problem: &MappingProblem<'_>,
    expected_evaluations: usize,
    outcome: &DseOutcome,
    res: &mut RunResult,
) {
    let evaluations = outcome.result.evaluations;
    res.attempted += evaluations as u64;
    res.failed += outcome.failures.len() as u64;
    res.check(evaluations == expected_evaluations, || {
        format!("{evaluations} evaluations, expected {expected_evaluations}")
    });
    res.check(!outcome.interrupted, || "exploration interrupted".into());
    res.check(outcome.failures.is_empty(), || {
        format!("{} degraded candidates", outcome.failures.len())
    });
    for (ind, report) in outcome.result.front.iter().zip(&outcome.reports) {
        if report.feasible {
            if let Err(e) = verify_point(problem, &ind.genotype, report) {
                res.failed += 1;
                res.problems.push(e);
            }
        }
    }
}

/// Checks one campaign: every profile simulated and no bound violated.
/// Counts its simulation runs as attempted and violations as failed.
pub fn check_campaign(summary: &CampaignSummary, ccfg: &CampaignConfig, res: &mut RunResult) {
    res.attempted += summary.total_runs();
    res.failed += summary.total_violations();
    res.check(
        summary.done == ccfg.profiles && !summary.interrupted,
        || {
            format!(
                "campaign stopped at {} of {} profiles",
                summary.done, ccfg.profiles
            )
        },
    );
    res.check(summary.total_violations() == 0, || {
        format!(
            "{} WCRT-bound violations (campaign seed {}), first: {}",
            summary.total_violations(),
            ccfg.seed,
            summary
                .violations
                .first()
                .map_or(String::new(), |v| v.render())
        )
    });
}
