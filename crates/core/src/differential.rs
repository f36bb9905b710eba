//! Differential tests of the incremental fast paths against test-only
//! transcriptions of the full-recompute code they replaced: the reliability
//! repair that decoded, hardened and re-checked the whole system before
//! every escalation, and the scenario enumeration that classified every
//! task from scratch for every trigger.

use crate::analysis::{normal_state_bounds, proposed_analysis_with, AnalysisOptions, McAnalysis};
use crate::repair::{repair_reliability, repair_structure, strengthen};
use crate::{GeneHardening, Genome, GenomeSpace};
use mcmap_benchmarks::Benchmark;
use mcmap_hardening::{harden, placement_with_default, HTaskId, HardenedSystem, Reliability};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, ProcId, ProcKind, Processor, Task,
    TaskGraph, Time,
};
use mcmap_sched::{nominal_bounds, HolisticAnalysis, Mapping, SchedBackend, TaskWindows};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;

/// The reliability repair as it was: decode, harden, place and check the
/// whole system before every escalation.
fn repair_reliability_full(
    g: &mut Genome,
    space: &GenomeSpace,
    apps: &AppSet,
    arch: &Architecture,
    rng: &mut dyn RngCore,
    max_iters: usize,
) -> bool {
    for _ in 0..max_iters.max(1) {
        let (plan, _, bindings) = space.decode(g);
        let Ok(hsys) = harden(apps, &plan, arch) else {
            return false;
        };
        let mut placement = placement_with_default(&hsys, ProcId::new(0));
        for (id, t) in hsys.tasks() {
            if t.fixed_proc.is_none() {
                let flat = (0..hsys.num_original_tasks())
                    .find(|&f| hsys.task(hsys.copies_of(f)[0]).origin == t.origin)
                    .expect("primary has an origin");
                placement[id.index()] = bindings[flat];
            }
        }
        let rel = Reliability::new(&hsys, arch);
        let violations: Vec<AppId> = rel
            .check_all(&placement)
            .into_iter()
            .filter(|v| !v.satisfied)
            .map(|v| v.app)
            .collect();
        if violations.is_empty() {
            return true;
        }
        let app = violations[(rng.next_u32() as usize) % violations.len()];
        let flats: Vec<usize> = apps
            .task_refs()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.app == app)
            .map(|(f, _)| f)
            .collect();
        let unhardened: Vec<usize> = flats
            .iter()
            .copied()
            .filter(|&f| g.genes[f].hardening == GeneHardening::None)
            .collect();
        let pool = if unhardened.is_empty() {
            &flats
        } else {
            &unhardened
        };
        let flat = pool[(rng.next_u32() as usize) % pool.len()];
        strengthen(space, g, flat, rng);
    }
    false
}

fn critical_wcet(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    id: HTaskId,
) -> Time {
    let kind = arch.processor(mapping.proc_of(id)).kind;
    hsys.task(id).critical_wcet(kind).expect("kind-compatible")
}

fn dominates(a: &[ExecBounds], b: &[ExecBounds]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.bcet <= y.bcet && x.wcet >= y.wcet)
}

/// The scenario enumeration as it was: every task reclassified for every
/// trigger, SipHash dedup, all-pairs dominance, per-scenario response
/// times.
fn proposed_analysis_reference<B: SchedBackend>(
    backend: &B,
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    nominal: &[ExecBounds],
    dropped: &[AppId],
    opts: AnalysisOptions,
) -> McAnalysis {
    let n = hsys.num_tasks();
    let normal_bounds = normal_state_bounds(hsys, nominal);
    let normal = backend.analyze(&normal_bounds);
    let (mut scenarios, mut class_normal, mut class_dropped) = (0, 0, 0);
    let (mut class_transition, mut class_critical) = (0, 0);
    let mut index_of: HashMap<Vec<ExecBounds>, usize> = HashMap::new();
    let mut distinct: Vec<Vec<ExecBounds>> = Vec::new();
    let mut scenario_vec: Vec<(HTaskId, usize)> = Vec::new();
    let mut scratch = vec![ExecBounds::ZERO; n];
    for (v, vt) in hsys.tasks() {
        if !vt.is_trigger() {
            continue;
        }
        scenarios += 1;
        let v_min_start = normal.min_start[v.index()];
        let v_max_finish = normal.max_finish[v.index()];
        for (w, wt) in hsys.tasks() {
            if w == v {
                let wcet = if dropped.contains(&wt.app) {
                    nominal[w.index()].wcet
                } else {
                    critical_wcet(hsys, arch, mapping, v)
                };
                scratch[w.index()] = ExecBounds::new(
                    if wt.is_passive() || dropped.contains(&wt.app) {
                        Time::ZERO
                    } else {
                        nominal[w.index()].bcet
                    },
                    wcet,
                );
                class_critical += 1;
                continue;
            }
            if normal.max_finish[w.index()] < v_min_start {
                scratch[w.index()] = normal_bounds[w.index()];
                class_normal += 1;
            } else if dropped.contains(&wt.app) {
                if normal.min_start[w.index()] > v_max_finish {
                    scratch[w.index()] = ExecBounds::ZERO;
                    class_dropped += 1;
                } else {
                    scratch[w.index()] = ExecBounds::new(Time::ZERO, nominal[w.index()].wcet);
                    class_transition += 1;
                }
            } else {
                class_critical += 1;
                let bcet = if wt.is_passive() {
                    Time::ZERO
                } else {
                    nominal[w.index()].bcet
                };
                scratch[w.index()] = ExecBounds::new(bcet, critical_wcet(hsys, arch, mapping, w));
            }
        }
        let di = match index_of.get(scratch.as_slice()) {
            Some(&i) => i,
            None => {
                let i = distinct.len();
                distinct.push(scratch.clone());
                index_of.insert(scratch.clone(), i);
                i
            }
        };
        scenario_vec.push((v, di));
    }
    let m = distinct.len();
    let mut maximal = vec![true; m];
    if opts.prune {
        for i in 0..m {
            maximal[i] = !(0..m).any(|j| j != i && dominates(&distinct[j], &distinct[i]));
        }
    }
    let to_run: Vec<usize> = (0..m).filter(|&i| maximal[i]).collect();
    let results: Vec<TaskWindows> = to_run
        .iter()
        .map(|&i| backend.analyze(&distinct[i]))
        .collect();
    let mut worst = normal.clone();
    let mut fixedpoint_iters = normal.outer_iters;
    let mut resolved: Vec<Option<usize>> = vec![None; m];
    for (k, &i) in to_run.iter().enumerate() {
        let windows = &results[k];
        fixedpoint_iters += windows.outer_iters;
        worst.converged &= windows.converged;
        for t in 0..n {
            worst.max_finish[t] = worst.max_finish[t].max(windows.max_finish[t]);
            worst.min_start[t] = worst.min_start[t].min(windows.min_start[t]);
        }
        resolved[i] = Some(k);
    }
    for i in 0..m {
        if resolved[i].is_none() {
            resolved[i] = to_run
                .iter()
                .position(|&j| dominates(&distinct[j], &distinct[i]));
        }
    }
    let scenario_app_wcrt = scenario_vec
        .iter()
        .map(|&(v, di)| {
            let windows = &results[resolved[di].expect("resolved")];
            let wcrt = hsys
                .apps()
                .iter()
                .map(|happ| windows.app_wcrt(hsys, happ.app))
                .collect();
            (v, wcrt)
        })
        .collect();
    McAnalysis {
        normal,
        worst,
        scenarios,
        backend_calls: 1 + to_run.len(),
        scenario_app_wcrt,
        class_normal,
        class_dropped,
        class_transition,
        class_critical,
        fixedpoint_iters,
        scenarios_pruned: m - to_run.len(),
    }
}

/// Synth-1, DT-med, DT-large, Cruise and fleet-small, each with the
/// chromosome space the DSE explores it with.
fn benchmarks() -> Vec<(Benchmark, GenomeSpace)> {
    let with_space = |b: Benchmark| {
        let space = GenomeSpace::new(&b.apps, &b.arch);
        (b, space)
    };
    let preset = mcmap_benchmarks::fleet_small_config();
    let fleet = mcmap_benchmarks::fleet(&preset, 7);
    let fleet_space = GenomeSpace::new(&fleet.apps, &fleet.arch)
        .with_max_reexec(preset.max_reexec)
        .with_max_replicas(preset.max_replicas);
    vec![
        with_space(mcmap_benchmarks::synth1(1)),
        with_space(mcmap_benchmarks::dt_med()),
        with_space(mcmap_benchmarks::dt_large()),
        with_space(mcmap_benchmarks::cruise()),
        (fleet, fleet_space),
    ]
}

/// Structurally repaired random, clustered and mutated genomes.
fn genomes(space: &GenomeSpace, rng: &mut StdRng, per_kind: usize) -> Vec<Genome> {
    let mut out = Vec::new();
    for i in 0..3 * per_kind {
        let mut g = match i % 3 {
            0 => space.random(rng),
            1 => space.clustered(rng),
            _ => {
                let mut g = space.clustered(rng);
                for _ in 0..8 {
                    space.mutate(&mut g, rng);
                }
                g
            }
        };
        repair_structure(&mut g, space, rng);
        out.push(g);
    }
    out
}

/// Runs both repairs on clones of the genome and generator and asserts the
/// repaired genome, the verdict and the next draw agree.
fn assert_repairs_agree(
    g: &Genome,
    space: &GenomeSpace,
    apps: &AppSet,
    arch: &Architecture,
    seed: u64,
    max_iters: usize,
) -> bool {
    let (mut fast, mut full) = (g.clone(), g.clone());
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut full_rng = fast_rng.clone();
    let ok = repair_reliability(&mut fast, space, apps, arch, &mut fast_rng, max_iters);
    let ok_full = repair_reliability_full(&mut full, space, apps, arch, &mut full_rng, max_iters);
    assert_eq!(ok, ok_full, "verdict (seed {seed}, {max_iters} iterations)");
    assert_eq!(
        fast, full,
        "repaired genome (seed {seed}, {max_iters} iterations)"
    );
    assert_eq!(
        fast_rng.next_u64(),
        full_rng.next_u64(),
        "draw sequence (seed {seed}, {max_iters} iterations)"
    );
    ok
}

#[test]
fn reliability_repair_matches_the_full_recompute_on_the_benchmarks() {
    let mut rng = StdRng::seed_from_u64(13);
    for (b, space) in benchmarks() {
        let (mut repaired, mut failed) = (0, 0);
        for (i, g) in genomes(&space, &mut rng, 3).iter().enumerate() {
            for max_iters in [0, 1, 80] {
                if assert_repairs_agree(g, &space, &b.apps, &b.arch, i as u64, max_iters) {
                    repaired += 1;
                } else {
                    failed += 1;
                }
            }
        }
        assert!(repaired > 0, "{}: no genome met its bounds", b.name);
        assert!(failed > 0, "{}: no genome ran out of budget", b.name);
    }
}

#[test]
fn reliability_repair_matches_the_full_recompute_on_edge_cases() {
    let arch = Architecture::builder()
        .homogeneous(4, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-1))
        .build()
        .unwrap();
    // Impossible bounds: even heavy hardening cannot reach them.
    let graph = |name: &str, bound: f64| {
        TaskGraph::builder(name, Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: bound,
            })
            .task(
                Task::new("a")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
                    .with_detect_overhead(Time::from_ticks(5)),
            )
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(40))))
            .channel(0, 1, 8)
            .build()
            .unwrap()
    };
    let apps = AppSet::new(vec![graph("hi", 1e-12), graph("mid", 1e-3)]).unwrap();
    let space = GenomeSpace::new(&apps, &arch);
    let mut rng = StdRng::seed_from_u64(21);
    for (i, g) in genomes(&space, &mut rng, 4).iter().enumerate() {
        for max_iters in [0, 1, 5, 80] {
            assert!(!assert_repairs_agree(
                g, &space, &apps, &arch, i as u64, max_iters
            ));
        }
    }
    // An empty active-replica list fails hardening: both give up before
    // drawing anything.
    let mut g = genomes(&space, &mut rng, 1).remove(0);
    g.genes[1].hardening = GeneHardening::Active {
        replicas: vec![],
        voter: ProcId::new(0),
    };
    let mut fresh = StdRng::seed_from_u64(99);
    let before = fresh.clone().next_u64();
    let mut repaired = g.clone();
    assert!(!repair_reliability(
        &mut repaired,
        &space,
        &apps,
        &arch,
        &mut fresh,
        80
    ));
    assert_eq!(repaired, g);
    assert_eq!(fresh.next_u64(), before);
    assert!(!assert_repairs_agree(&g, &space, &apps, &arch, 99, 80));
}

/// A backend whose windows are out of order for every third task
/// (`minStart > maxFinish`) — the holistic backend never produces that,
/// but the enumeration takes any backend.
struct Disordered<B>(B);

impl<B: SchedBackend> SchedBackend for Disordered<B> {
    fn analyze(&self, bounds: &[ExecBounds]) -> TaskWindows {
        let mut w = self.0.analyze(bounds);
        for t in (0..w.min_start.len()).step_by(3) {
            if w.max_finish[t] < Time::MAX {
                w.min_start[t] = w.max_finish[t] + Time::from_ticks(1 + t as u64 % 7);
            }
        }
        w
    }

    fn num_tasks(&self) -> usize {
        self.0.num_tasks()
    }
}

/// Both settings of the pruning knob.
fn all_options() -> [AnalysisOptions; 2] {
    [false, true].map(|prune| AnalysisOptions { prune })
}

#[test]
fn enumeration_matches_the_reference_for_every_knob() {
    let mut rng = StdRng::seed_from_u64(5);
    let (mut overloaded, mut diverged, mut schedulable) = (0, 0, 0);
    for (b, space) in benchmarks() {
        for (i, mut g) in genomes(&space, &mut rng, 2).into_iter().enumerate() {
            let _ = repair_reliability(&mut g, &space, &b.apps, &b.arch, &mut rng, 80);
            let (plan, decoded, bindings) = space.decode(&g);
            let hsys = harden(&b.apps, &plan, &b.arch).expect("repaired genomes harden");
            let placement = hsys
                .tasks()
                .map(|(id, t)| t.fixed_proc.unwrap_or(bindings[hsys.flat_of(id)]))
                .collect();
            let mapping = Mapping::new(&hsys, &b.arch, placement).expect("repaired genomes map");
            let backend = HolisticAnalysis::new(&hsys, &b.arch, &mapping, b.policies.clone());
            let nominal = nominal_bounds(&hsys, &b.arch, &mapping);
            let disordered = Disordered(HolisticAnalysis::new(
                &hsys,
                &b.arch,
                &mapping,
                b.policies.clone(),
            ));
            for dropped in [decoded, vec![]] {
                for opts in all_options() {
                    let fast = proposed_analysis_with(
                        &backend, &hsys, &b.arch, &mapping, &nominal, &dropped, opts,
                    );
                    let reference = proposed_analysis_reference(
                        &backend, &hsys, &b.arch, &mapping, &nominal, &dropped, opts,
                    );
                    assert_eq!(fast, reference, "{} genome {i}, {opts:?}", b.name);
                    // Disordered windows multiply the distinct vectors, so
                    // only random genomes under pruning take this check.
                    if i % 3 != 0 || !opts.prune {
                        continue;
                    }
                    let fast = proposed_analysis_with(
                        &disordered,
                        &hsys,
                        &b.arch,
                        &mapping,
                        &nominal,
                        &dropped,
                        opts,
                    );
                    let reference = proposed_analysis_reference(
                        &disordered,
                        &hsys,
                        &b.arch,
                        &mapping,
                        &nominal,
                        &dropped,
                        opts,
                    );
                    assert_eq!(
                        fast, reference,
                        "{} genome {i}, disordered, {opts:?}",
                        b.name
                    );
                }
                let mc = proposed_analysis_with(
                    &backend,
                    &hsys,
                    &b.arch,
                    &mapping,
                    &nominal,
                    &dropped,
                    AnalysisOptions::default(),
                );
                if !mc.worst.converged {
                    diverged += 1;
                } else if mc.schedulable(&hsys, &dropped) {
                    schedulable += 1;
                } else {
                    overloaded += 1;
                }
            }
        }
    }
    assert!(diverged > 0, "no non-converged candidate was compared");
    assert!(
        overloaded > 0,
        "no converged but overloaded candidate was compared"
    );
    assert!(schedulable > 0, "no schedulable candidate was compared");
}
