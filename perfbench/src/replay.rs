//! Stage replay: re-runs candidates through the library's public pipeline
//! stages one by one, timing each, so the per-layer cost of an evaluation
//! is visible without spans inside the program.

use crate::trace::TimingBackend;
use mcmap_core::{
    expected_power, lost_service, proposed_analysis_with, repair_reliability,
    repair_structure_logged, DseConfig, Genome, MappingProblem, MaterializedPoint,
};
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, Reliability};
use mcmap_model::{AppId, Architecture, ProcId, Time};
use mcmap_runtime::CampaignConfig;
use mcmap_sched::{nominal_bounds, HolisticAnalysis, Mapping, SchedPolicy};
use mcmap_sim::{ExecModel, RandomFaults, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Seconds and counts accumulated over replayed candidates, per stage.
#[derive(Debug, Default, Clone)]
pub struct StageTotals {
    pub candidates: u64,
    pub structure_s: f64,
    pub reliability_s: f64,
    pub decode_s: f64,
    pub harden_s: f64,
    pub map_s: f64,
    pub build_s: f64,
    pub analysis_s: f64,
    pub sched_run_s: f64,
    pub objective_s: f64,
    pub structure_fixes: u64,
    pub harden_tasks: u64,
    pub scenarios: u64,
    pub pruned: u64,
    pub sched_runs: u64,
    pub fixedpoint_iters: u64,
}

impl StageTotals {
    /// Seconds covered by the timed stages.
    pub fn covered_s(&self) -> f64 {
        self.structure_s
            + self.reliability_s
            + self.decode_s
            + self.harden_s
            + self.map_s
            + self.build_s
            + self.analysis_s
            + self.objective_s
    }
}

/// What a replayed candidate produced: the repaired design and the
/// verdict, for comparison with the library's own evaluation.
#[derive(Debug)]
pub struct Replayed {
    pub design: (HardeningPlan, Vec<AppId>, Vec<ProcId>),
    pub power: f64,
    pub feasible: bool,
}

/// The repair RNG of one genome: seeded from the repair-relevant
/// projection of the chromosome (allocation bits and genes) and the GA
/// seed, so repair is a pure function of the candidate.
fn repair_rng(g: &Genome, seed: u64) -> StdRng {
    let mut h = DefaultHasher::new();
    g.alloc.hash(&mut h);
    g.genes.hash(&mut h);
    seed.hash(&mut h);
    StdRng::seed_from_u64(h.finish())
}

/// Placement of a hardened system: fixed slots (replicas, voters) from
/// the plan, primaries from the repaired bindings.
pub fn placement(hsys: &HardenedSystem, bindings: &[ProcId]) -> Vec<ProcId> {
    hsys.tasks()
        .map(|(_, t)| match t.fixed_proc {
            Some(p) => p,
            None => {
                let flat = hsys
                    .flat_of_origin(t.origin)
                    .expect("primary origins are tracked");
                bindings[flat]
            }
        })
        .collect()
}

fn lap(acc: &mut f64, start: &mut Instant) {
    let now = Instant::now();
    *acc += (now - *start).as_secs_f64();
    *start = now;
}

/// Replays one candidate through repair → decode → harden → map →
/// backend construction → Algorithm 1 → objectives, adding each stage's
/// time and work to `acc`.
pub fn replay_candidate(
    problem: &MappingProblem<'_>,
    cfg: &DseConfig,
    genome: &Genome,
    acc: &mut StageTotals,
) -> Replayed {
    let (apps, arch, space) = (problem.apps(), problem.arch(), problem.space());
    acc.candidates += 1;
    let mut rng = repair_rng(genome, cfg.ga.seed);
    let mut g = genome.clone();

    let mut t = Instant::now();
    acc.structure_fixes += repair_structure_logged(&mut g, space, &mut rng).len() as u64;
    lap(&mut acc.structure_s, &mut t);
    let rel_repaired = repair_reliability(&mut g, space, apps, arch, &mut rng, cfg.repair_iters);
    lap(&mut acc.reliability_s, &mut t);
    let (plan, mut dropped, bindings) = space.decode(&g);
    if !cfg.allow_dropping {
        dropped.clear();
    }
    lap(&mut acc.decode_s, &mut t);
    let hardened = harden(apps, &plan, arch);
    lap(&mut acc.harden_s, &mut t);
    let degenerate = |design: (HardeningPlan, Vec<AppId>, Vec<ProcId>)| Replayed {
        design,
        power: f64::MAX / 1e6,
        feasible: false,
    };
    let Ok(hsys) = hardened else {
        return degenerate((plan, dropped, bindings));
    };
    acc.harden_tasks += hsys.num_tasks() as u64;
    let mapping = Mapping::new(&hsys, arch, placement(&hsys, &bindings));
    lap(&mut acc.map_s, &mut t);
    let Ok(mapping) = mapping else {
        return degenerate((plan, dropped, bindings));
    };

    let backend = TimingBackend::new(HolisticAnalysis::new(
        &hsys,
        arch,
        &mapping,
        problem.policies().to_vec(),
    ));
    let nominal = nominal_bounds(&hsys, arch, &mapping);
    lap(&mut acc.build_s, &mut t);
    let mc = proposed_analysis_with(
        &backend,
        &hsys,
        arch,
        &mapping,
        &nominal,
        &dropped,
        cfg.analysis,
    );
    lap(&mut acc.analysis_s, &mut t);
    let (run_s, runs, iters) = backend.totals();
    acc.sched_run_s += run_s;
    acc.sched_runs += runs;
    acc.fixedpoint_iters += iters;
    acc.scenarios += mc.scenarios as u64;
    acc.pruned += mc.scenarios_pruned as u64;

    let reliable = rel_repaired
        || Reliability::new(&hsys, arch)
            .check_all(mapping.placement())
            .iter()
            .all(|v| v.satisfied);
    let feasible = mc.schedulable(&hsys, &dropped) && reliable;
    let power = expected_power(
        &hsys,
        arch,
        &mapping,
        &g.alloc,
        &dropped,
        cfg.critical_weight,
    );
    std::hint::black_box(lost_service(apps, &dropped));
    lap(&mut acc.objective_s, &mut t);
    Replayed {
        design: (plan, dropped, bindings),
        power,
        feasible,
    }
}

/// Serial timings of sampled campaign runs.
#[derive(Debug, Default)]
pub struct SimSample {
    /// Per-run wall time (fault-model set-up plus `Simulator::run`), µs.
    pub run_us: Vec<f64>,
    /// Covered runs whose observed response time exceeded its bound.
    pub violations: u64,
}

/// Replays the first `per_point` profiles of every point serially through
/// `Simulator::run`, exactly as the campaign builds them.
pub fn replay_sims(
    points: &[MaterializedPoint],
    arch: &Architecture,
    policies: &[SchedPolicy],
    ccfg: &CampaignConfig,
    per_point: u64,
) -> SimSample {
    let mut out = SimSample::default();
    for point in points {
        let sim = Simulator::new(&point.hsys, arch, &point.mapping, policies.to_vec());
        let sim_cfg = SimConfig {
            exec_model: ExecModel::WorstCase,
            hyperperiods: ccfg.hyperperiods,
            dropped: point.dropped.clone(),
            start_critical: false,
        };
        for i in 0..per_point {
            let t = Instant::now();
            let mut faults =
                RandomFaults::new(&point.hsys, arch, &point.mapping, ccfg.seed.wrapping_add(i))
                    .with_boost(ccfg.boost);
            let r = sim.run(&sim_cfg, &mut faults);
            out.run_us.push(t.elapsed().as_secs_f64() * 1e6);
            if r.unsafe_instances.iter().sum::<u64>() == 0 {
                out.violations += r
                    .app_wcrt
                    .iter()
                    .zip(&point.app_wcrt)
                    .enumerate()
                    .filter(|&(a, (&observed, &bound))| {
                        bound != Time::MAX
                            && !point.dropped.contains(&AppId::new(a))
                            && observed > bound
                    })
                    .count() as u64;
            }
        }
    }
    out
}
