//! Randomized repair heuristics (§4 of the paper).
//!
//! Infeasible chromosomes are repaired before evaluation:
//!
//! * *invalid mapping* — tasks (or replicas/voters) bound to unallocated
//!   processors are reassigned to a randomly chosen valid processor;
//! * *reliability violation* — random hardening escalations (longer
//!   re-execution budgets, then replication) are applied to tasks of the
//!   violating application until the constraint is met or the iteration
//!   budget runs out.
//!
//! Remaining violations are penalized by the evaluation so the GA is guided
//! back towards feasible regions.

use crate::{GeneHardening, Genome, GenomeSpace};
use mcmap_hardening::{
    copy_failure_prob, copy_nominal_bounds, majority_failure_prob, validate_entry,
};
use mcmap_model::{AppId, AppSet, Architecture, ProcId};
use rand::seq::SliceRandom;
use rand::RngCore;
use std::ops::Range;

/// Repairs structural violations in place: guarantees at least one
/// allocated processor, and that every binding, replica, and voter sits on
/// an allocated, kind-compatible processor (allocating one if necessary).
pub fn repair_structure(g: &mut Genome, space: &GenomeSpace, rng: &mut dyn RngCore) {
    let _ = repair_structure_logged(g, space, rng);
}

/// [`repair_structure`] that also reports *what* it fixed, as the sorted,
/// deduplicated `mcmap-lint` diagnostic codes of the violations it repaired:
/// `MC0111` (no allocated processor), `MC0110` (invalid binding or replica
/// placement), and `MC0106` (voter on an unallocated processor). An empty
/// vector means the chromosome was already structurally sound.
pub fn repair_structure_logged(
    g: &mut Genome,
    space: &GenomeSpace,
    rng: &mut dyn RngCore,
) -> Vec<&'static str> {
    let mut fixed_alloc = false;
    let mut fixed_binding = false;
    let mut fixed_voter = false;

    if !g.alloc.iter().any(|&b| b) {
        let i = (rng.next_u32() as usize) % g.alloc.len();
        g.alloc[i] = true;
        fixed_alloc = true;
    }

    for flat in 0..g.genes.len() {
        // Primary binding.
        let binding = g.genes[flat].binding;
        if !is_valid(space, g, flat, binding) {
            g.genes[flat].binding = pick_valid(space, g, flat, rng);
            fixed_binding = true;
        }
        // Replicas and voter.
        let mut hardening = std::mem::replace(&mut g.genes[flat].hardening, GeneHardening::None);
        let (bodies, voter) = hardening.placements_mut();
        for r in bodies {
            if !is_valid(space, g, flat, *r) {
                *r = pick_valid(space, g, flat, rng);
                fixed_binding = true;
            }
        }
        if let Some(voter) = voter.filter(|v| !g.alloc[v.index()]) {
            *voter = pick_allocated(g, rng);
            fixed_voter = true;
        }
        g.genes[flat].hardening = hardening;
    }

    let mut codes = Vec::new();
    if fixed_voter {
        codes.push("MC0106");
    }
    if fixed_binding {
        codes.push("MC0110");
    }
    if fixed_alloc {
        codes.push("MC0111");
    }
    codes
}

fn is_valid(space: &GenomeSpace, g: &Genome, flat: usize, p: ProcId) -> bool {
    g.alloc[p.index()] && space.allowed_procs(flat).contains(&p)
}

/// A random allocated, kind-compatible processor; allocates one if none is
/// both allocated and compatible.
fn pick_valid(space: &GenomeSpace, g: &mut Genome, flat: usize, rng: &mut dyn RngCore) -> ProcId {
    let candidates: Vec<ProcId> = space
        .allowed_procs(flat)
        .iter()
        .copied()
        .filter(|p| g.alloc[p.index()])
        .collect();
    if let Some(&p) = candidates.choose(rng) {
        return p;
    }
    let p = *space
        .allowed_procs(flat)
        .choose(rng)
        .expect("every task can run somewhere");
    g.alloc[p.index()] = true;
    p
}

fn pick_allocated(g: &Genome, rng: &mut dyn RngCore) -> ProcId {
    let allocated: Vec<ProcId> = g
        .alloc
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| ProcId::new(i))
        .collect();
    *allocated
        .choose(rng)
        .expect("repair guarantees an allocation")
}

/// Escalates the hardening of one task: no hardening → re-execution,
/// longer re-execution, then active replication with growing redundancy.
pub(crate) fn strengthen(space: &GenomeSpace, g: &mut Genome, flat: usize, rng: &mut dyn RngCore) {
    let current = g.genes[flat].hardening.clone();
    let next = match &current {
        GeneHardening::None => GeneHardening::Reexec(1),
        GeneHardening::Reexec(k) if *k < space.max_reexec => GeneHardening::Reexec(k + 1),
        GeneHardening::Reexec(_) => GeneHardening::Active {
            replicas: vec![
                pick_valid(space, g, flat, rng),
                pick_valid(space, g, flat, rng),
            ],
            voter: pick_allocated(g, rng),
        },
        GeneHardening::Passive {
            actives, standbys, ..
        } => {
            // Promote to active replication with one more copy.
            let mut replicas = actives.clone();
            replicas.extend_from_slice(standbys);
            replicas.push(pick_valid(space, g, flat, rng));
            GeneHardening::Active {
                replicas,
                voter: pick_allocated(g, rng),
            }
        }
        GeneHardening::Active { replicas, voter } => {
            let mut replicas = replicas.clone();
            replicas.push(pick_valid(space, g, flat, rng));
            GeneHardening::Active {
                replicas,
                voter: *voter,
            }
        }
    };
    g.genes[flat].hardening = next;
}

/// Applies random hardening escalations until every non-droppable
/// application satisfies its reliability bound, or the iteration budget is
/// exhausted. Returns `true` when the constraint set is met.
///
/// This is the paper's reliability repair: "random hardening techniques …
/// are applied until the solution meets the constraint".
///
/// The check is incremental. Each original task's failure probability is
/// computed once, straight from its gene (the copies are the primary on
/// its binding, then the actives, then the standbys), and an escalation
/// recomputes only the escalated task and its application's product (in
/// ascending flat order, as [`Reliability::app_failure_prob`] multiplies).
/// The result — repaired genome, verdict and RNG draws — is bit-identical
/// to decoding, hardening and running [`Reliability::check_all`] before
/// every escalation.
///
/// [`Reliability::app_failure_prob`]: mcmap_hardening::Reliability::app_failure_prob
/// [`Reliability::check_all`]: mcmap_hardening::Reliability::check_all
pub fn repair_reliability(
    g: &mut Genome,
    space: &GenomeSpace,
    apps: &AppSet,
    arch: &Architecture,
    rng: &mut dyn RngCore,
    max_iters: usize,
) -> bool {
    // Structural hardening errors (e.g. over-long replica lists) cannot be
    // fixed here; leave for the penalty. Escalations only produce valid
    // entries, so one check before the first draw covers every iteration.
    if !genes_harden(g, apps, arch) {
        return false;
    }
    let bounded: Vec<(AppId, f64)> = apps
        .apps()
        .filter_map(|(a, app)| app.criticality().max_failure_rate().map(|b| (a, b)))
        .collect();
    let mut scratch = Vec::new();
    let mut task_p = vec![0.0; g.genes.len()];
    let mut app_p = vec![0.0; apps.num_apps()];
    for &(app, _) in &bounded {
        for flat in apps.flats_of_app(app) {
            task_p[flat] = gene_failure_prob(apps, arch, g, flat, &mut scratch);
        }
        app_p[app.index()] = app_failure_prob(&task_p, apps.flats_of_app(app));
    }
    for _ in 0..max_iters.max(1) {
        let violations: Vec<AppId> = bounded
            .iter()
            .filter(|&&(app, bound)| {
                let satisfied = app_p[app.index()] <= bound;
                !satisfied
            })
            .map(|&(app, _)| app)
            .collect();
        if violations.is_empty() {
            return true;
        }
        // Strengthen one random task of one violating application,
        // preferring still-unhardened tasks — they dominate the failure
        // probability, so covering them first converges fastest.
        let app = violations[(rng.next_u32() as usize) % violations.len()];
        let flats = apps.flats_of_app(app);
        let unhardened: Vec<usize> = flats
            .clone()
            .filter(|&f| g.genes[f].hardening == GeneHardening::None)
            .collect();
        let flat = if unhardened.is_empty() {
            flats.start + (rng.next_u32() as usize) % flats.len()
        } else {
            unhardened[(rng.next_u32() as usize) % unhardened.len()]
        };
        strengthen(space, g, flat, rng);
        task_p[flat] = gene_failure_prob(apps, arch, g, flat, &mut scratch);
        app_p[app.index()] = app_failure_prob(&task_p, flats);
    }
    false
}

/// `true` when [`harden`](mcmap_hardening::harden) accepts the genome's
/// decoded plan: one entry per task, each passing
/// [`validate_entry`].
fn genes_harden(g: &Genome, apps: &AppSet, arch: &Architecture) -> bool {
    g.genes.len() == apps.num_tasks()
        && apps.task_refs().iter().zip(&g.genes).all(|(&r, gene)| {
            validate_entry(r, apps.task(r), &gene.hardening.to_task_hardening(), arch).is_ok()
        })
}

/// Failure probability of original task `flat` under its gene: the
/// majority-vote failure over its copies (primary on the binding, then the
/// actives, then the standbys), or the single copy's post-re-execution
/// failure — what [`Reliability::task_failure_prob`] computes on the
/// hardened system.
///
/// [`Reliability::task_failure_prob`]: mcmap_hardening::Reliability::task_failure_prob
fn gene_failure_prob(
    apps: &AppSet,
    arch: &Architecture,
    g: &Genome,
    flat: usize,
    probs: &mut Vec<f64>,
) -> f64 {
    let task = apps.task(apps.task_refs()[flat]);
    let gene = &g.genes[flat];
    let k = gene.hardening.reexecutions();
    let copy = |p: ProcId| {
        let proc = arch.processor(p);
        let b = copy_nominal_bounds(task, proc.kind, k)
            .unwrap_or_else(|| panic!("task {} cannot run on {p}", task.name));
        copy_failure_prob(proc, b.wcet, k)
    };
    probs.clear();
    probs.push(copy(gene.binding));
    probs.extend(gene.hardening.bodies().map(copy));
    majority_failure_prob(probs)
}

/// `1 − Π (1 − p_v)` over an application's task failure probabilities, in
/// ascending flat order.
fn app_failure_prob(task_p: &[f64], flats: Range<usize>) -> f64 {
    let mut p_ok = 1.0;
    for p in &task_p[flats] {
        p_ok *= 1.0 - p;
    }
    1.0 - p_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_model::{Criticality, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(rate: f64, bound: f64) -> (AppSet, Architecture, GenomeSpace) {
        let arch = Architecture::builder()
            .homogeneous(4, Processor::new("p", ProcKind::new(0), 5.0, 20.0, rate))
            .build()
            .unwrap();
        let hi = TaskGraph::builder("hi", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: bound,
            })
            .task(
                Task::new("a")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
                    .with_detect_overhead(Time::from_ticks(5)),
            )
            .build()
            .unwrap();
        let apps = AppSet::new(vec![hi]).unwrap();
        let space = GenomeSpace::new(&apps, &arch);
        (apps, arch, space)
    }

    #[test]
    fn structure_repair_fixes_unallocated_bindings() {
        let (apps, arch, space) = fixture(0.0, 0.5);
        let _ = apps;
        let _ = arch;
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = space.random(&mut rng);
        g.alloc = vec![false, true, false, false];
        g.genes[0].binding = ProcId::new(3);
        repair_structure(&mut g, &space, &mut rng);
        assert!(g.alloc[g.genes[0].binding.index()]);
    }

    #[test]
    fn structure_repair_allocates_when_nothing_is() {
        let (_, _, space) = fixture(0.0, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = space.random(&mut rng);
        g.alloc = vec![false; 4];
        repair_structure(&mut g, &space, &mut rng);
        assert!(g.alloc.iter().any(|&b| b));
    }

    #[test]
    fn structure_repair_moves_replicas_and_voters() {
        let (_, _, space) = fixture(0.0, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = space.random(&mut rng);
        g.alloc = vec![true, false, false, false];
        g.genes[0].hardening = GeneHardening::Active {
            replicas: vec![ProcId::new(2)],
            voter: ProcId::new(3),
        };
        repair_structure(&mut g, &space, &mut rng);
        if let GeneHardening::Active { replicas, voter } = &g.genes[0].hardening {
            for r in replicas {
                assert!(g.alloc[r.index()]);
            }
            assert!(g.alloc[voter.index()]);
        } else {
            panic!("hardening variant must be preserved");
        }
    }

    #[test]
    fn logged_repair_cites_the_diagnostic_codes() {
        let (_, _, space) = fixture(0.0, 0.5);
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = space.random(&mut rng);
        g.alloc = vec![true, false, false, false];
        g.genes[0].binding = ProcId::new(2);
        g.genes[0].hardening = GeneHardening::Active {
            replicas: vec![ProcId::new(1)],
            voter: ProcId::new(3),
        };
        let codes = repair_structure_logged(&mut g, &space, &mut rng);
        assert_eq!(codes, vec!["MC0106", "MC0110"]);
        // A second pass finds nothing left to fix.
        let codes = repair_structure_logged(&mut g, &space, &mut rng);
        assert!(codes.is_empty());
        // An empty allocation is cited as MC0111.
        g.alloc = vec![false; 4];
        let codes = repair_structure_logged(&mut g, &space, &mut rng);
        assert!(codes.contains(&"MC0111"), "{codes:?}");
    }

    #[test]
    fn repaired_genomes_lint_clean() {
        let (apps, arch, space) = fixture(0.0, 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = space.random(&mut rng);
        g.alloc = vec![false; 4];
        g.genes[0].binding = ProcId::new(3);
        let linter = mcmap_lint::Linter::new(&apps, &arch);
        assert!(linter.lint_genome(&g).has_errors());
        repair_structure(&mut g, &space, &mut rng);
        let report = linter.lint_genome(&g);
        assert!(
            !report.has_errors(),
            "post-repair genome must lint clean: {}",
            report.render_text()
        );
    }

    #[test]
    fn reliability_repair_strengthens_until_satisfied() {
        // λ·wcet ≈ 1e-3 per run, bound 1e-8: needs escalation.
        let (apps, arch, space) = fixture(1e-5, 1e-8);
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = space.random(&mut rng);
        g.genes[0].hardening = GeneHardening::None;
        g.alloc = vec![true; 4];
        let ok = repair_reliability(&mut g, &space, &apps, &arch, &mut rng, 30);
        assert!(ok, "repair should reach the bound");
        assert!(g.genes[0].hardening != GeneHardening::None);
    }

    #[test]
    fn reliability_repair_is_a_noop_when_satisfied() {
        let (apps, arch, space) = fixture(1e-9, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = space.random(&mut rng);
        g.genes[0].hardening = GeneHardening::None;
        repair_structure(&mut g, &space, &mut rng);
        let before = g.clone();
        assert!(repair_reliability(
            &mut g, &space, &apps, &arch, &mut rng, 10
        ));
        assert_eq!(g, before);
    }

    #[test]
    fn impossible_bounds_report_failure() {
        // Enormous fault rate: even heavy hardening cannot reach the bound
        // within the budget.
        let (apps, arch, space) = fixture(1e-1, 1e-12);
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = space.random(&mut rng);
        repair_structure(&mut g, &space, &mut rng);
        let ok = repair_reliability(&mut g, &space, &apps, &arch, &mut rng, 5);
        assert!(!ok);
    }

    #[test]
    fn strengthen_escalates_through_the_ladder() {
        let (_, _, space) = fixture(0.0, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = space.random(&mut rng);
        g.alloc = vec![true; 4];
        g.genes[0].hardening = GeneHardening::None;
        strengthen(&space, &mut g, 0, &mut rng);
        assert_eq!(g.genes[0].hardening, GeneHardening::Reexec(1));
        strengthen(&space, &mut g, 0, &mut rng);
        assert_eq!(g.genes[0].hardening, GeneHardening::Reexec(2));
        strengthen(&space, &mut g, 0, &mut rng);
        assert!(matches!(g.genes[0].hardening, GeneHardening::Active { .. }));
        strengthen(&space, &mut g, 0, &mut rng);
        if let GeneHardening::Active { replicas, .. } = &g.genes[0].hardening {
            assert_eq!(replicas.len(), 3);
        } else {
            panic!("escalation must stay active");
        }
    }
}
