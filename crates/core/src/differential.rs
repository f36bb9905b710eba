//! Differential tests of the incremental fast paths against test-only
//! transcriptions of the full-recompute code they replaced: the reliability
//! repair that decoded, hardened and re-checked the whole system before
//! every escalation, the scenario enumeration that classified every task
//! from scratch for every trigger, and the holistic worst-case sweep that
//! recomputed every task's busy window from its base in every sweep.

use crate::analysis::{
    analyze_with, normal_state_bounds, proposed_analysis_explained, proposed_analysis_with,
    AnalysisOptions, McAnalysis, Recorded,
};
use crate::dse::{Schedule, DEADLINE_PENALTY_CAP};
use crate::repair::{repair_reliability, repair_structure, strengthen};
use crate::{DseConfig, Genome, GenomeSpace, MappingProblem};
use mcmap_benchmarks::Benchmark;
use mcmap_ga::{GaConfig, Problem};
use mcmap_hardening::{
    harden, placement_with_default, HTaskId, HardenedSystem, HardeningPlan, Reliability,
    TaskHardening,
};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap_sched::{
    hyperperiod, nominal_bounds, uniform_policies, HolisticAnalysis, Mapping, SchedBackend,
    SchedPolicy, TaskWindows,
};
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
                placement[id.index()] = bindings[hsys.flat_of(id)];
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
            .filter(|&f| g.genes[f].hardening == TaskHardening::None)
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

/// One system under analysis: the hardened system, its platform and
/// mapping, the nominal bounds and the dropped applications.
struct Analyzed<'a> {
    hsys: &'a HardenedSystem,
    arch: &'a Architecture,
    mapping: &'a Mapping,
    nominal: &'a [ExecBounds],
    dropped: &'a [AppId],
}

/// One trigger's scenario bound vector as the enumeration classified it
/// before threshold keys: every task from scratch.
fn reference_scenario(
    system: &Analyzed,
    v: HTaskId,
    normal: &TaskWindows,
    normal_bounds: &[ExecBounds],
    class_counts: &mut [usize; 4],
) -> Vec<ExecBounds> {
    let Analyzed {
        hsys,
        arch,
        mapping,
        nominal,
        dropped,
    } = *system;
    let v_min_start = normal.min_start[v.index()];
    let v_max_finish = normal.max_finish[v.index()];
    let mut scenario = vec![ExecBounds::ZERO; hsys.num_tasks()];
    let [class_normal, class_critical, class_dropped, class_transition] = class_counts;
    for (w, wt) in hsys.tasks() {
        if w == v {
            let wcet = if dropped.contains(&wt.origin.app) {
                nominal[w.index()].wcet
            } else {
                critical_wcet(hsys, arch, mapping, v)
            };
            scenario[w.index()] = ExecBounds::new(
                if wt.is_passive() || dropped.contains(&wt.origin.app) {
                    Time::ZERO
                } else {
                    nominal[w.index()].bcet
                },
                wcet,
            );
            *class_critical += 1;
            continue;
        }
        if normal.max_finish[w.index()] < v_min_start {
            scenario[w.index()] = normal_bounds[w.index()];
            *class_normal += 1;
        } else if dropped.contains(&wt.origin.app) {
            if normal.min_start[w.index()] > v_max_finish {
                scenario[w.index()] = ExecBounds::ZERO;
                *class_dropped += 1;
            } else {
                scenario[w.index()] = ExecBounds::new(Time::ZERO, nominal[w.index()].wcet);
                *class_transition += 1;
            }
        } else {
            *class_critical += 1;
            let bcet = if wt.is_passive() {
                Time::ZERO
            } else {
                nominal[w.index()].bcet
            };
            scenario[w.index()] = ExecBounds::new(bcet, critical_wcet(hsys, arch, mapping, w));
        }
    }
    scenario
}

/// The scenario enumeration as it was: every task reclassified for every
/// trigger, SipHash dedup, all-pairs dominance, and per-scenario response
/// times resolved for every distinct vector.
fn proposed_analysis_reference<B: SchedBackend>(
    backend: &B,
    system: &Analyzed,
    opts: AnalysisOptions,
) -> (McAnalysis, Vec<(HTaskId, Vec<Time>)>) {
    let (hsys, nominal) = (system.hsys, system.nominal);
    let n = hsys.num_tasks();
    let normal_bounds = normal_state_bounds(hsys, nominal);
    let normal = backend.analyze(&normal_bounds);
    let mut scenarios = 0;
    // Normal, critical, dropped, transition.
    let mut class_counts = [0; 4];
    let mut index_of: HashMap<Vec<ExecBounds>, usize> = HashMap::new();
    let mut distinct: Vec<Vec<ExecBounds>> = Vec::new();
    let mut scenario_vec: Vec<(HTaskId, usize)> = Vec::new();
    for (v, vt) in hsys.tasks() {
        if !vt.is_trigger() {
            continue;
        }
        scenarios += 1;
        let scenario = reference_scenario(system, v, &normal, &normal_bounds, &mut class_counts);
        let di = match index_of.get(&scenario) {
            Some(&i) => i,
            None => {
                let i = distinct.len();
                distinct.push(scenario.clone());
                index_of.insert(scenario, i);
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
    let [class_normal, class_critical, class_dropped, class_transition] = class_counts;
    let mc = McAnalysis {
        normal,
        worst,
        scenarios,
        backend_calls: 1 + to_run.len(),
        class_normal,
        class_dropped,
        class_transition,
        class_critical,
        fixedpoint_iters,
        scenarios_pruned: m - to_run.len(),
    };
    (mc, scenario_app_wcrt)
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
    g.genes[1].hardening = TaskHardening::Active {
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

impl Analyzed<'_> {
    /// Threshold keys of the triggers whose normal window is ordered, each
    /// once with its vector by the full reclassification, and the vectors
    /// of the triggers whose window is not.
    #[allow(clippy::type_complexity)]
    fn keyed_scenarios(
        &self,
        normal: &TaskWindows,
    ) -> (Vec<((usize, usize), Vec<ExecBounds>)>, Vec<Vec<ExecBounds>>) {
        let normal_bounds = normal_state_bounds(self.hsys, self.nominal);
        let mut finishes = normal.max_finish.clone();
        finishes.sort_unstable();
        let mut dropped_starts: Vec<Time> = self
            .hsys
            .tasks()
            .filter(|(_, t)| self.dropped.contains(&t.origin.app))
            .map(|(w, _)| normal.min_start[w.index()])
            .collect();
        dropped_starts.sort_unstable();
        let (mut keyed, mut unkeyed) = (Vec::new(), Vec::new());
        for (v, t) in self.hsys.tasks() {
            if !t.is_trigger() {
                continue;
            }
            let scenario = reference_scenario(self, v, normal, &normal_bounds, &mut [0; 4]);
            let (start, finish) = normal.window(v);
            if start > finish {
                unkeyed.push(scenario);
                continue;
            }
            let key = (
                finishes.partition_point(|&f| f < start),
                dropped_starts.partition_point(|&s| s <= finish),
            );
            if !keyed.iter().any(|(k, _)| *k == key) {
                keyed.push((key, scenario));
            }
        }
        (keyed, unkeyed)
    }

    /// The Algorithm 1 certificate of a pruned enumeration whose scenario
    /// runs analyzed `runs`:
    /// * every run vector is the vector of a key on the staircase (no other
    ///   key has `a' ≤ a` and `b' ≥ b`), or of a trigger without a key;
    /// * every distinct key whose vector did not run lies below a run key,
    ///   or its vector is dominated by a run vector.
    fn certify(&self, normal: &TaskWindows, runs: &[Vec<ExecBounds>]) {
        let (keyed, unkeyed) = self.keyed_scenarios(normal);
        // `x` lies below `y`: `x`'s vector dominates `y`'s.
        let below = |x: (usize, usize), y: (usize, usize)| x != y && x.0 <= y.0 && x.1 >= y.1;
        let on_staircase = |key| !keyed.iter().any(|&(k, _)| below(k, key));
        for run in runs {
            assert!(
                keyed
                    .iter()
                    .any(|(k, bounds)| bounds == run && on_staircase(*k))
                    || unkeyed.contains(run),
                "a run vector has no key on the staircase"
            );
        }
        let run_keys: Vec<(usize, usize)> = keyed
            .iter()
            .filter(|(_, bounds)| runs.contains(bounds))
            .map(|&(k, _)| k)
            .collect();
        for (key, bounds) in &keyed {
            assert!(
                runs.contains(bounds)
                    || run_keys.iter().any(|&r| below(r, *key))
                    || runs.iter().any(|run| dominates(run, bounds)),
                "key {key:?} lies below no run key and no run dominates its vector"
            );
        }
    }

    /// Algorithm 1 under `opts` equals the reference enumeration field by
    /// field, diagnostics included; with pruning and `certify`, its runs
    /// carry the certificate. Returns the analysis.
    fn check<B: SchedBackend>(
        &self,
        backend: &B,
        opts: AnalysisOptions,
        certify: bool,
        label: &str,
    ) -> McAnalysis {
        let Analyzed {
            hsys,
            arch,
            mapping,
            nominal,
            dropped,
        } = *self;
        let reference = proposed_analysis_reference(backend, self, opts);
        let recorded = Recorded {
            backend,
            runs: Default::default(),
        };
        let fast = proposed_analysis_with(&recorded, hsys, arch, mapping, nominal, dropped, opts);
        assert_eq!(fast, reference.0, "{label}, {opts:?}");
        let explained =
            proposed_analysis_explained(backend, hsys, arch, mapping, nominal, dropped, opts);
        assert_eq!(explained, reference, "{label}, {opts:?}, diagnostics");
        if certify && opts.prune {
            let runs: Vec<Vec<ExecBounds>> = recorded
                .runs
                .into_inner()
                .into_iter()
                .skip(1)
                .map(|(bounds, _)| bounds)
                .collect();
            self.certify(&fast.normal, &runs);
        }
        fast
    }
}

#[test]
fn enumeration_matches_the_reference_for_every_knob() {
    let mut rng = StdRng::seed_from_u64(5);
    let (mut overloaded, mut diverged, mut schedulable) = (0, 0, 0);
    let mut diverged_in_step2 = 0;
    for (b, space) in benchmarks() {
        for (i, mut g) in genomes(&space, &mut rng, 2).into_iter().enumerate() {
            let _ = repair_reliability(&mut g, &space, &b.apps, &b.arch, &mut rng, 80);
            let (plan, decoded, bindings) = space.decode(&g);
            let hsys = harden(&b.apps, &plan, &b.arch).expect("repaired genomes harden");
            let placement = hsys.placement(&bindings);
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
                let system = Analyzed {
                    hsys: &hsys,
                    arch: &b.arch,
                    mapping: &mapping,
                    nominal: &nominal,
                    dropped: &dropped,
                };
                let label = format!("{} genome {i}", b.name);
                let mut mc = None;
                for opts in all_options() {
                    mc = Some(system.check(&backend, opts, true, &label));
                    // Disordered windows multiply the distinct vectors, so
                    // only random genomes under pruning take this check.
                    if i % 3 == 0 && opts.prune {
                        system.check(&disordered, opts, false, &format!("{label}, disordered"));
                    }
                }
                let mc = mc.expect("the pruned analysis ran last");
                if !mc.worst.converged {
                    diverged += 1;
                    // Partial windows depend on the knob; the WCRTs the
                    // DSE reports from them do not: Time::MAX for every
                    // non-dropped app once step 2 ran, the fault-free WCRT
                    // after an early stop.
                    let [off, on] = all_options().map(|opts| {
                        Schedule::new(&backend, &hsys, &b.arch, &mapping, &nominal, &dropped, opts)
                    });
                    assert_eq!(off.app_wcrt, on.app_wcrt, "{label}: WCRTs across the knob");
                    let step2 = on.analysis.is_ok();
                    diverged_in_step2 += usize::from(step2);
                    for (happ, &wcrt) in hsys.apps().iter().zip(&on.app_wcrt) {
                        let expected = if step2 && !dropped.contains(&happ.app) {
                            Time::MAX
                        } else {
                            mc.normal.app_wcrt(&hsys, happ.app)
                        };
                        assert_eq!(wcrt, expected, "{label}: {:?}", happ.app);
                    }
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
        diverged_in_step2 > 0,
        "no non-converged candidate passed the normal-state run"
    );
    assert!(
        overloaded > 0,
        "no converged but overloaded candidate was compared"
    );
    assert!(schedulable > 0, "no schedulable candidate was compared");

    // Random systems: few priority levels and small execution times, so
    // normal finishes and dropped starts tie, and rank keys with them.
    let mut rng = Xorshift(0x5851_f42d_4c95_7f2d);
    let (mut tied_finishes, mut tied_starts, mut shared_keys) = (0, 0, 0);
    for k in 0..300 {
        let (hsys, arch, mapping) = random_system(&mut rng);
        let policies = policy_mixes(arch.num_processors())[k % 3].clone();
        let backend = HolisticAnalysis::new(&hsys, &arch, &mapping, policies);
        let nominal = nominal_bounds(&hsys, &arch, &mapping);
        let num_apps = hsys.apps().len();
        let mut some: Vec<AppId> = (0..num_apps)
            .filter(|_| rng.below(2) == 0)
            .map(AppId::new)
            .collect();
        if some.is_empty() {
            some.push(AppId::new(rng.below(num_apps as u64) as usize));
        }
        for dropped in [some, vec![]] {
            let system = Analyzed {
                hsys: &hsys,
                arch: &arch,
                mapping: &mapping,
                nominal: &nominal,
                dropped: &dropped,
            };
            let mut normal = None;
            for opts in all_options() {
                let mc = system.check(&backend, opts, true, &format!("random system {k}"));
                normal = Some(mc.normal);
            }
            let normal = normal.expect("analyzed");
            let tied = |mut times: Vec<Time>| {
                times.sort_unstable();
                times.windows(2).any(|w| w[0] == w[1])
            };
            tied_finishes += usize::from(tied(normal.max_finish.clone()));
            tied_starts += usize::from(tied(
                hsys.tasks()
                    .filter(|(_, t)| dropped.contains(&t.origin.app))
                    .map(|(w, _)| normal.min_start[w.index()])
                    .collect(),
            ));
            let triggers = hsys.tasks().filter(|(_, t)| t.is_trigger()).count();
            let (keyed, unkeyed) = system.keyed_scenarios(&normal);
            shared_keys += usize::from(keyed.len() + unkeyed.len() < triggers);
        }
    }
    assert!(tied_finishes > 0, "no system with tied normal finishes");
    assert!(tied_starts > 0, "no system with tied dropped starts");
    assert!(shared_keys > 0, "no system whose triggers share a key");
}

/// The DSE stops Algorithm 1 after its normal-state run when that run
/// already misses a deadline ([`Schedule`]). On the benchmark genomes, under
/// both knobs: a candidate's feasibility is the full analysis's verdict
/// (with the reliability check), a candidate that meets every deadline
/// without faults carries the full analysis bit for bit, every fault-free
/// miss pays at least the penalty cap, the reported WCRTs and the penalty
/// do not depend on the knob, and the audit's "rescued by dropping" is the
/// full no-dropping analysis's verdict.
#[test]
fn early_exit_is_exact_on_the_benchmarks() {
    let mut rng = StdRng::seed_from_u64(29);
    let (mut stopped, mut analyzed, mut diverged, mut feasible, mut rescued) = (0, 0, 0, 0, 0);
    for (b, space) in benchmarks() {
        let cfg = DseConfig {
            ga: GaConfig {
                population: 12,
                generations: 4,
                ..GaConfig::default()
            },
            policies: Some(b.policies.clone()),
            max_reexec: space.max_reexec,
            max_replicas: space.max_replicas,
            audit: true,
            cache_cap: 0,
            ..DseConfig::default()
        };
        // Random genomes, and a short exploration's front: most random
        // genomes miss without faults, and few are rescued by dropping.
        let mut candidates = genomes(&space, &mut rng, 3);
        let explored = crate::explore(&b.apps, &b.arch, cfg.clone());
        candidates.extend(explored.result.front.into_iter().map(|ind| ind.genotype));
        let problem = MappingProblem::new(&b.apps, &b.arch, cfg);
        for (i, g) in candidates.iter().enumerate() {
            let label = format!("{} genome {i}", b.name);
            let before = problem.audit();
            problem.evaluate(g);
            let audit = problem.audit();
            let report = problem.report(g);
            let (plan, dropped, bindings) = problem.decode_repaired(g);
            let hsys = harden(&b.apps, &plan, &b.arch).expect("repaired genomes harden");
            let placement = hsys.placement(&bindings);
            let mapping = Mapping::new(&hsys, &b.arch, placement).expect("repaired genomes map");
            let full = analyze_with(
                &hsys,
                &b.arch,
                &mapping,
                &b.policies,
                &dropped,
                AnalysisOptions::default(),
            );
            let reliable = Reliability::new(&hsys, &b.arch)
                .check_all(mapping.placement())
                .iter()
                .all(|v| v.satisfied);
            assert_eq!(
                report.feasible,
                full.schedulable(&hsys, &dropped) && reliable,
                "{label}: verdict"
            );
            feasible += usize::from(report.feasible);
            if !dropped.is_empty() {
                let without = analyze_with(
                    &hsys,
                    &b.arch,
                    &mapping,
                    &b.policies,
                    &[],
                    AnalysisOptions::default(),
                );
                assert_eq!(audit.audited, before.audited + 1, "{label}: audited");
                assert_eq!(
                    audit.rescued_by_dropping - before.rescued_by_dropping,
                    usize::from(report.feasible && !without.schedulable(&hsys, &[])),
                    "{label}: rescued by dropping"
                );
                rescued += audit.rescued_by_dropping - before.rescued_by_dropping;
            }

            let backend = HolisticAnalysis::new(&hsys, &b.arch, &mapping, b.policies.clone());
            let nominal = nominal_bounds(&hsys, &b.arch, &mapping);
            let outcomes = all_options().map(|opts| {
                let schedule =
                    Schedule::new(&backend, &hsys, &b.arch, &mapping, &nominal, &dropped, opts);
                let full = proposed_analysis_with(
                    &backend, &hsys, &b.arch, &mapping, &nominal, &dropped, opts,
                );
                assert_eq!(
                    schedule.schedulable,
                    full.schedulable(&hsys, &dropped),
                    "{label}, {opts:?}: verdict"
                );
                let penalty = schedule.add_penalty(&hsys, 0.0);
                match &schedule.analysis {
                    Ok(mc) => assert_eq!(mc, &full, "{label}, {opts:?}: analysis"),
                    Err(normal) => {
                        assert_eq!(normal, &full.normal, "{label}, {opts:?}: normal run");
                        assert!(
                            penalty >= DEADLINE_PENALTY_CAP,
                            "{label}, {opts:?}: a fault-free miss pays {penalty}"
                        );
                    }
                }
                let converged = schedule.analysis.as_ref().map(|mc| mc.worst.converged);
                (schedule.app_wcrt, penalty.to_bits(), converged.ok())
            });
            assert_eq!(
                outcomes[0], outcomes[1],
                "{label}: the knob moved the outcome"
            );
            assert_eq!(report.app_wcrt, outcomes[1].0, "{label}: reported WCRTs");
            match outcomes[0].2 {
                None => stopped += 1,
                Some(converged) => {
                    analyzed += 1;
                    diverged += usize::from(!converged);
                }
            }
        }
    }
    assert!(stopped > 0, "no candidate missed without faults");
    assert!(
        analyzed > 0,
        "no candidate met every deadline without faults"
    );
    assert!(
        diverged > 0,
        "no scenario run of an analyzed candidate diverged"
    );
    assert!(feasible > 0, "no feasible candidate");
    assert!(rescued > 0, "no candidate rescued by dropping");
}

/// The holistic worst-case analysis as it was: every sweep recomputes
/// every task, and every busy window iterates from its base. The
/// interference lists come from an all-pairs reachability scan, as before
/// the per-application bitsets.
struct HolisticReference<'a> {
    hsys: &'a HardenedSystem,
    mapping: &'a Mapping,
    policies: Vec<SchedPolicy>,
    in_edges: Vec<Vec<(HTaskId, Time)>>,
    hp_interferers: Vec<Vec<HTaskId>>,
    lp_blockers: Vec<Vec<HTaskId>>,
    period: Vec<Time>,
    limit: Time,
}

impl<'a> HolisticReference<'a> {
    fn new(
        hsys: &'a HardenedSystem,
        arch: &Architecture,
        mapping: &'a Mapping,
        policies: Vec<SchedPolicy>,
    ) -> Self {
        let n = hsys.num_tasks();
        let mut in_edges = vec![Vec::new(); n];
        for c in hsys.channels() {
            let delay = if mapping.proc_of(c.src) == mapping.proc_of(c.dst) {
                Time::ZERO
            } else {
                arch.fabric().transfer_time(c.bytes)
            };
            in_edges[c.dst.index()].push((c.src, delay));
        }
        let mut related = vec![vec![false; n]; n];
        for &v in hsys.topological_order().iter().rev() {
            for s in hsys.successors(v) {
                related[v.index()][s.index()] = true;
                let row_s = related[s.index()].clone();
                for (r, t) in related[v.index()].iter_mut().zip(row_s) {
                    *r |= t;
                }
            }
        }
        let mut hp_interferers = vec![Vec::new(); n];
        let mut lp_blockers = vec![Vec::new(); n];
        for v in hsys.task_ids() {
            for w in hsys.task_ids() {
                if w == v
                    || mapping.proc_of(w) != mapping.proc_of(v)
                    || related[v.index()][w.index()]
                    || related[w.index()][v.index()]
                {
                    continue;
                }
                if mapping.outranks(w, v) {
                    hp_interferers[v.index()].push(w);
                } else {
                    lp_blockers[v.index()].push(w);
                }
            }
        }
        HolisticReference {
            hsys,
            mapping,
            policies,
            in_edges,
            hp_interferers,
            lp_blockers,
            period: hsys.task_ids().map(|v| hsys.app_of(v).period).collect(),
            limit: hyperperiod(hsys).saturating_mul(64),
        }
    }

    fn policy_of(&self, v: HTaskId) -> SchedPolicy {
        self.policies[self.mapping.proc_of(v).index()]
    }

    fn earliest_releases(&self, bounds: &[ExecBounds]) -> Vec<Time> {
        let n = self.hsys.num_tasks();
        let mut er = vec![Time::ZERO; n];
        let mut min_finish = vec![Time::ZERO; n];
        for &v in self.hsys.topological_order() {
            let release = self.in_edges[v.index()]
                .iter()
                .map(|&(src, delay)| min_finish[src.index()].saturating_add(delay))
                .max()
                .unwrap_or(Time::ZERO);
            er[v.index()] = release;
            min_finish[v.index()] = release.saturating_add(bounds[v.index()].bcet);
        }
        er
    }

    /// The blocking term of a non-preemptive task.
    fn blocking(&self, v: HTaskId, bounds: &[ExecBounds]) -> Time {
        self.lp_blockers[v.index()]
            .iter()
            .map(|&j| bounds[j.index()].wcet)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// One busy-window step of `v` at `w` (preemptive: the response;
    /// non-preemptive: the start).
    fn step(&self, v: HTaskId, bounds: &[ExecBounds], er: &[Time], lr: &[Time], w: Time) -> Time {
        let preemptive = self.policy_of(v) == SchedPolicy::FixedPriorityPreemptive;
        let mut total = if preemptive {
            bounds[v.index()].wcet
        } else {
            self.blocking(v, bounds)
        };
        for &j in &self.hp_interferers[v.index()] {
            let cj = bounds[j.index()].wcet;
            if cj.is_zero() {
                continue;
            }
            let ready = w.saturating_add(lr[j.index()].saturating_sub(er[j.index()]));
            let releases = if preemptive {
                ready.div_ceil(self.period[j.index()])
            } else {
                ready.ticks() / self.period[j.index()].ticks() + 1
            };
            total = total.saturating_add(cj.saturating_mul(releases));
        }
        total
    }

    fn local_response(&self, v: HTaskId, bounds: &[ExecBounds], er: &[Time], lr: &[Time]) -> Time {
        let c = bounds[v.index()].wcet;
        if c.is_zero() {
            return Time::ZERO;
        }
        let (mut w, tail) = match self.policy_of(v) {
            SchedPolicy::FixedPriorityPreemptive => (c, Time::ZERO),
            SchedPolicy::FixedPriorityNonPreemptive => (self.blocking(v, bounds), c),
        };
        for _ in 0..4096 {
            let total = self.step(v, bounds, er, lr, w);
            if total == w || total > self.limit {
                return total.saturating_add(tail);
            }
            w = total;
        }
        Time::MAX
    }

    fn run(&self, bounds: &[ExecBounds]) -> TaskWindows {
        let n = self.hsys.num_tasks();
        let er = self.earliest_releases(bounds);
        let mut max_finish = vec![Time::ZERO; n];
        let mut lr = er.clone();
        let mut converged = false;
        let mut diverged = false;
        let mut outer_iters = 0usize;
        for _ in 0..256 {
            outer_iters += 1;
            let mut changed = false;
            for &v in self.hsys.topological_order() {
                let release = self.in_edges[v.index()]
                    .iter()
                    .map(|&(src, delay)| max_finish[src.index()].saturating_add(delay))
                    .max()
                    .unwrap_or(Time::ZERO);
                let release = release.max(lr[v.index()]);
                let response = self.local_response(v, bounds, &er, &lr);
                let finish = release.saturating_add(response);
                if release > lr[v.index()] || finish > max_finish[v.index()] {
                    changed = true;
                }
                lr[v.index()] = release.max(lr[v.index()]);
                max_finish[v.index()] = finish.max(max_finish[v.index()]);
            }
            if max_finish.iter().any(|&f| f > self.limit) {
                diverged = true;
                break;
            }
            if !changed {
                converged = true;
                break;
            }
        }
        if diverged {
            for f in &mut max_finish {
                if *f > self.limit {
                    *f = Time::MAX;
                }
            }
            converged = false;
        }
        TaskWindows {
            min_start: er,
            max_finish,
            converged,
            outer_iters,
        }
    }

    /// Post-fixed-point certificate of converged windows: with each task's
    /// latest release taken as the latest arrival its predecessors'
    /// finishes imply (never below its earliest release), every task's
    /// window `max_finish − release` must satisfy its busy-window inequality
    /// under the jitters those releases imply. A task left stale by a
    /// missed update fails it.
    fn certify(&self, bounds: &[ExecBounds], w: &TaskWindows) {
        let er = &w.min_start;
        let lr: Vec<Time> = self
            .hsys
            .task_ids()
            .map(|v| {
                self.in_edges[v.index()]
                    .iter()
                    .map(|&(src, delay)| w.max_finish[src.index()] + delay)
                    .fold(er[v.index()], Time::max)
            })
            .collect();
        for v in self.hsys.task_ids() {
            let window = w.max_finish[v.index()]
                .ticks()
                .checked_sub(lr[v.index()].ticks())
                .map(Time::from_ticks)
                .unwrap_or_else(|| panic!("task {v} finishes before its latest release"));
            let c = bounds[v.index()].wcet;
            if c.is_zero() {
                continue;
            }
            let busy = match self.policy_of(v) {
                SchedPolicy::FixedPriorityPreemptive => window,
                SchedPolicy::FixedPriorityNonPreemptive => {
                    assert!(window >= c, "task {v}'s window is shorter than its wcet");
                    window - c
                }
            };
            assert!(
                self.step(v, bounds, er, &lr, busy) <= busy,
                "task {v}'s window violates its busy-window inequality"
            );
        }
    }
}

/// Outcomes of the holistic runs a test compared.
#[derive(Debug, Default)]
struct RunTally {
    schedulable: usize,
    overloaded: usize,
    diverged: usize,
}

impl RunTally {
    /// Runs the backend and the reference on `bounds`, asserts equal
    /// windows, certifies converged ones, and counts the outcome.
    fn check(
        &mut self,
        backend: &HolisticAnalysis,
        reference: &HolisticReference,
        bounds: &[ExecBounds],
    ) -> TaskWindows {
        let windows = backend.analyze(bounds);
        assert_eq!(windows, reference.run(bounds));
        if !windows.converged {
            self.diverged += 1;
        } else {
            reference.certify(bounds, &windows);
            if windows.all_deadlines_met(reference.hsys) {
                self.schedulable += 1;
            } else {
                self.overloaded += 1;
            }
        }
        windows
    }

    fn assert_all_seen(&self) {
        assert!(self.schedulable > 0, "no schedulable run: {self:?}");
        assert!(self.overloaded > 0, "no converged overloaded run: {self:?}");
        assert!(self.diverged > 0, "no diverging run: {self:?}");
    }
}

/// The three per-processor policy assignments the random systems run
/// under: all preemptive, all non-preemptive, and alternating.
fn policy_mixes(num_procs: usize) -> [Vec<SchedPolicy>; 3] {
    use SchedPolicy::{FixedPriorityNonPreemptive as Np, FixedPriorityPreemptive as P};
    [
        uniform_policies(num_procs, P),
        uniform_policies(num_procs, Np),
        (0..num_procs)
            .map(|p| if p % 2 == 0 { P } else { Np })
            .collect(),
    ]
}

/// The xorshift generator of the holistic backend's interference-list test.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }

    fn proc(&mut self, num_procs: usize) -> ProcId {
        ProcId::new(self.below(num_procs as u64) as usize)
    }
}

/// A random hardened and mapped system: up to four applications of up to
/// eight tasks with random channels, hardening, placement and (few,
/// often tied) priority levels.
fn random_system(rng: &mut Xorshift) -> (HardenedSystem, Architecture, Mapping) {
    let num_procs = 1 + rng.below(4) as usize;
    let arch = Architecture::builder()
        .homogeneous(
            num_procs,
            Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7),
        )
        .fabric(Fabric::new(8))
        .build()
        .unwrap();
    let graphs: Vec<TaskGraph> = (0..1 + rng.below(4))
        .map(|a| {
            let n = 1 + rng.below(8) as usize;
            let period = [100, 200, 400][rng.below(3) as usize];
            let mut b = TaskGraph::builder(format!("a{a}"), Time::from_ticks(period));
            for t in 0..n {
                let bcet = 1 + rng.below(8);
                let wcet = bcet + rng.below(8);
                b = b.task(
                    Task::new(format!("t{t}"))
                        .with_uniform_exec(
                            1,
                            ExecBounds::new(Time::from_ticks(bcet), Time::from_ticks(wcet)),
                        )
                        .with_voting_overhead(Time::from_ticks(1)),
                );
            }
            for dst in 1..n {
                for src in 0..dst {
                    if rng.below(3) == 0 {
                        b = b.channel(src, dst, rng.below(32));
                    }
                }
            }
            b.build().unwrap()
        })
        .collect();
    let apps = AppSet::new(graphs).unwrap();
    let mut plan = HardeningPlan::unhardened(&apps);
    for flat in 0..apps.num_tasks() {
        let h = match rng.below(4) {
            0 => TaskHardening::Reexec(1 + rng.below(2) as u8),
            1 => TaskHardening::Active {
                replicas: (0..1 + rng.below(2)).map(|_| rng.proc(num_procs)).collect(),
                voter: rng.proc(num_procs),
            },
            2 => TaskHardening::Passive {
                actives: vec![rng.proc(num_procs)],
                standbys: vec![rng.proc(num_procs)],
                voter: rng.proc(num_procs),
            },
            _ => TaskHardening::None,
        };
        plan.set_by_flat_index(flat, h);
    }
    let hsys = harden(&apps, &plan, &arch).unwrap();
    let placement = hsys
        .tasks()
        .map(|(_, t)| t.fixed_proc.unwrap_or_else(|| rng.proc(num_procs)))
        .collect();
    let priorities = (0..hsys.num_tasks()).map(|_| rng.below(4) as u32).collect();
    let mapping = Mapping::new(&hsys, &arch, placement)
        .unwrap()
        .with_priorities(priorities);
    (hsys, arch, mapping)
}

/// A victim (period 10⁶) under a hog of utilization 0.9999 on PE 0, whose
/// release jitter grows over two sweeps (0, then 50, then 100 with
/// `z_wcet` 1 000): the victim's cold busy window needs about its wcet plus
/// the jitter in iterations, next to the 4 096-iteration cap and below the
/// divergence bound.
fn hog_system(victim_wcet: u64, z_wcet: u64) -> (HardenedSystem, Architecture, Mapping) {
    let task = |name: &str, bcet: u64, wcet: u64| {
        Task::new(name).with_uniform_exec(
            1,
            ExecBounds::new(Time::from_ticks(bcet), Time::from_ticks(wcet)),
        )
    };
    let feeder = TaskGraph::builder("feeder", Time::from_ticks(1_000))
        .task(task("z", 1, z_wcet))
        .task(task("y", 50, 50))
        .channel(0, 1, 0)
        .build()
        .unwrap();
    let hog = TaskGraph::builder("hog", Time::from_ticks(10_000))
        .task(task("x", 1, 1))
        .task(task("h", 9_999, 9_999))
        .channel(0, 1, 0)
        .build()
        .unwrap();
    let victim = TaskGraph::builder("victim", Time::from_ticks(1_000_000))
        .task(task("v", victim_wcet, victim_wcet))
        .build()
        .unwrap();
    let apps = AppSet::new(vec![feeder, hog, victim]).unwrap();
    let arch = Architecture::builder()
        .homogeneous(3, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
        .build()
        .unwrap();
    let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
    let [p0, p1, p2] = [0, 1, 2].map(ProcId::new);
    let mapping = Mapping::new(&hsys, &arch, vec![p2, p1, p1, p0, p0]).unwrap();
    (hsys, arch, mapping)
}

#[test]
fn holistic_sweep_matches_the_reference_on_random_systems() {
    let mut rng = Xorshift(0x2545_f491_4f6c_dd1d);
    let mut tally = RunTally::default();
    for _ in 0..300 {
        let (hsys, arch, mapping) = random_system(&mut rng);
        let nominal = nominal_bounds(&hsys, &arch, &mapping);
        let inflated: Vec<ExecBounds> = nominal
            .iter()
            .map(|b| ExecBounds::new(b.bcet, b.wcet * 3))
            .collect();
        for policies in policy_mixes(arch.num_processors()) {
            let backend = HolisticAnalysis::new(&hsys, &arch, &mapping, policies.clone());
            let reference = HolisticReference::new(&hsys, &arch, &mapping, policies);
            for bounds in [&nominal, &inflated] {
                tally.check(&backend, &reference, bounds);
            }
        }
    }
    tally.assert_all_seen();

    // Next to the busy-window cap: cold, warm-accepted and warm-rejected
    // windows, converged and saturated.
    let mut capped = 0;
    for victim_wcet in [3_950, 4_000, 4_050, 5_000] {
        for z_wcet in [1, 1_000] {
            let (hsys, arch, mapping) = hog_system(victim_wcet, z_wcet);
            let nominal = nominal_bounds(&hsys, &arch, &mapping);
            for policies in policy_mixes(3) {
                let backend = HolisticAnalysis::new(&hsys, &arch, &mapping, policies.clone());
                let reference = HolisticReference::new(&hsys, &arch, &mapping, policies);
                let windows = tally.check(&backend, &reference, &nominal);
                capped += usize::from(windows.max_finish[4] == Time::MAX);
            }
        }
    }
    assert!(capped >= 3, "{capped} runs reached the cap");
}

/// The holistic backend inside Algorithm 1, every run checked against the
/// reference sweep.
struct Checked<'a> {
    backend: HolisticAnalysis<'a>,
    reference: HolisticReference<'a>,
    tally: std::cell::RefCell<RunTally>,
}

impl SchedBackend for Checked<'_> {
    fn analyze(&self, bounds: &[ExecBounds]) -> TaskWindows {
        self.tally
            .borrow_mut()
            .check(&self.backend, &self.reference, bounds)
    }

    fn num_tasks(&self) -> usize {
        self.backend.num_tasks()
    }
}

#[test]
fn holistic_sweep_matches_the_reference_on_every_algorithm_1_run() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut total = RunTally::default();
    for (b, space) in benchmarks() {
        for mut g in genomes(&space, &mut rng, 1) {
            let _ = repair_reliability(&mut g, &space, &b.apps, &b.arch, &mut rng, 80);
            let (plan, decoded, bindings) = space.decode(&g);
            let hsys = harden(&b.apps, &plan, &b.arch).expect("repaired genomes harden");
            let placement = hsys.placement(&bindings);
            let mapping = Mapping::new(&hsys, &b.arch, placement).expect("repaired genomes map");
            let checked = Checked {
                backend: HolisticAnalysis::new(&hsys, &b.arch, &mapping, b.policies.clone()),
                reference: HolisticReference::new(&hsys, &b.arch, &mapping, b.policies.clone()),
                tally: Default::default(),
            };
            let nominal = nominal_bounds(&hsys, &b.arch, &mapping);
            for dropped in [decoded, vec![]] {
                let opts = AnalysisOptions { prune: false };
                proposed_analysis_with(
                    &checked, &hsys, &b.arch, &mapping, &nominal, &dropped, opts,
                );
            }
            let tally = checked.tally.into_inner();
            total.schedulable += tally.schedulable;
            total.overloaded += tally.overloaded;
            total.diverged += tally.diverged;
        }
    }
    total.assert_all_seen();
}
