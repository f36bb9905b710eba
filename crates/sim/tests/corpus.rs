//! A pinned result corpus for the discrete-event simulator.
//!
//! Seeded random multi-rate systems (re-execution, active and passive
//! replication, zero-cost voters, mixed preemptive/non-preemptive PEs)
//! are simulated under every shipped fault model, with and without
//! `start_critical`, over one and three hyperperiods, under both
//! execution models and with and without a dropped set. Every
//! [`SimResult`] and every [`Trace`] is folded into one FNV-1a digest.
//! The digest is a pin: any change to what the engine computes — event
//! order, dropping, fault verdicts, the per-instance bookkeeping — moves
//! it, so an engine refactor that claims to be bit-identical must leave
//! it alone. Three hyperperiods exercise the release/boundary event order
//! across hyperperiod boundaries.

use mcmap_hardening::{harden, HTaskId, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap_sched::{Mapping, SchedPolicy};
use mcmap_sim::{
    ExecModel, ExhaustiveReexecution, FaultModel, NoFaults, RandomFaults, ScriptedFaults,
    SimConfig, SimResult, Simulator, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Digest of the whole corpus (see the module docs).
const CORPUS_DIGEST: u64 = 0xb8f2_a83d_fc7e_1864;

/// Random systems in the corpus.
const SYSTEMS: u64 = 40;

const PES: usize = 3;

struct System {
    arch: Architecture,
    hsys: HardenedSystem,
    mapping: Mapping,
    policies: Vec<SchedPolicy>,
}

fn system(seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let arch = Architecture::builder()
        .homogeneous(PES, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
        .fabric(Fabric::new(16))
        .build()
        .expect("valid");
    let napps = rng.gen_range(1..=3usize);
    let graphs: Vec<TaskGraph> = (0..napps)
        .map(|i| {
            let period = [1_000u64, 2_000, 4_000][rng.gen_range(0..3usize)];
            let crit = if i > 0 && rng.gen_bool(0.6) {
                Criticality::Droppable { service: 1.0 }
            } else {
                Criticality::NonDroppable {
                    max_failure_rate: 0.99,
                }
            };
            let ntasks = rng.gen_range(1..=4usize);
            let mut b =
                TaskGraph::builder(format!("a{i}"), Time::from_ticks(period)).criticality(crit);
            for j in 0..ntasks {
                let wcet = rng.gen_range(5..150u64);
                let voting = [0u64, 0, 3][rng.gen_range(0..3usize)];
                b = b.task(
                    Task::new(format!("t{i}_{j}"))
                        .with_uniform_exec(
                            1,
                            ExecBounds::new(Time::from_ticks(wcet / 2), Time::from_ticks(wcet)),
                        )
                        .with_detect_overhead(Time::from_ticks(2))
                        .with_voting_overhead(Time::from_ticks(voting)),
                );
            }
            for j in 1..ntasks {
                b = b.channel(j - 1, j, rng.gen_range(0..64u64));
            }
            if ntasks >= 3 && rng.gen_bool(0.5) {
                b = b.channel(0, ntasks - 1, 8);
            }
            b.build().expect("DAGs are valid")
        })
        .collect();
    let apps = AppSet::new(graphs).expect("nonempty");
    let pe = |k: usize| ProcId::new(k % PES);
    let mut plan = HardeningPlan::unhardened(&apps);
    for flat in 0..apps.num_tasks() {
        let base = rng.gen_range(0..PES);
        let h = match rng.gen_range(0..6u32) {
            0 | 1 => TaskHardening::Reexec(rng.gen_range(1..=2u8)),
            2 => TaskHardening::Active {
                replicas: vec![pe(base + 1)],
                voter: pe(base + 2),
            },
            3 => TaskHardening::Passive {
                actives: vec![pe(base + 1)],
                standbys: vec![pe(base + 2)],
                voter: pe(base),
            },
            _ => TaskHardening::None,
        };
        plan.set_by_flat_index(flat, h);
    }
    let hsys = harden(&apps, &plan, &arch).expect("valid plan");
    let placement: Vec<ProcId> = hsys
        .tasks()
        .map(|(_, t)| t.fixed_proc.unwrap_or_else(|| pe(rng.gen_range(0..PES))))
        .collect();
    let mapping = Mapping::new(&hsys, &arch, placement).expect("kind 0 everywhere");
    let policies = (0..PES)
        .map(|_| {
            if rng.gen_bool(0.7) {
                SchedPolicy::FixedPriorityPreemptive
            } else {
                SchedPolicy::FixedPriorityNonPreemptive
            }
        })
        .collect();
    System {
        arch,
        hsys,
        mapping,
        policies,
    }
}

/// The four shipped fault models, built fresh for every run.
fn fault_model(s: &System, which: usize, seed: u64) -> Box<dyn FaultModel> {
    match which {
        0 => Box::new(NoFaults),
        1 => Box::new(RandomFaults::new(&s.hsys, &s.arch, &s.mapping, seed).with_boost(2e3)),
        2 => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut f = ScriptedFaults::new();
            for _ in 0..4 {
                let task = HTaskId::new(rng.gen_range(0..s.hsys.num_tasks()));
                f = f.with_fault(task, rng.gen_range(0..4u64), rng.gen_range(0..2u8));
            }
            Box::new(f)
        }
        _ => Box::new(ExhaustiveReexecution::new(&s.hsys)),
    }
}

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn fold(h: &mut Fnv, result: &SimResult, trace: &Trace) {
    h.write(format!("{result:?}").as_bytes());
    h.write(format!("{trace:?}").as_bytes());
}

#[test]
fn simulator_corpus_digest_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut runs = 0u64;
    // Runs that entered the critical state / dropped an instance / ended
    // beyond the hardening coverage: the corpus must exercise all three.
    let (mut critical, mut dropping, mut unsafe_runs) = (0u64, 0u64, 0u64);
    for seed in 0..SYSTEMS {
        let s = system(seed);
        let sim = Simulator::new(&s.hsys, &s.arch, &s.mapping, s.policies.clone());
        let droppable: Vec<AppId> = s
            .hsys
            .apps()
            .iter()
            .filter(|a| a.criticality.is_droppable())
            .map(|a| a.app)
            .collect();
        for which in 0..4 {
            for start_critical in [false, true] {
                for hyperperiods in [1, 3] {
                    for exec_model in [ExecModel::WorstCase, ExecModel::BestCase] {
                        for dropped in [Vec::new(), droppable.clone()] {
                            let cfg = SimConfig {
                                exec_model,
                                hyperperiods,
                                dropped,
                                start_critical,
                            };
                            let fault_seed = seed * 1_000 + which as u64;
                            let plain = sim.run(&cfg, &mut *fault_model(&s, which, fault_seed));
                            let (traced, trace) =
                                sim.run_traced(&cfg, &mut *fault_model(&s, which, fault_seed));
                            assert_eq!(
                                plain, traced,
                                "run and run_traced disagree: system {seed}, {cfg:?}"
                            );
                            fold(&mut h, &plain, &trace);
                            runs += 1;
                            critical += u64::from(plain.critical_entries > 0);
                            dropping += u64::from(plain.dropped_instances.iter().any(|&d| d > 0));
                            unsafe_runs += u64::from(plain.unsafe_instances.iter().any(|&u| u > 0));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, SYSTEMS * 64);
    eprintln!(
        "corpus: {runs} runs, {critical} critical, {dropping} dropping, {unsafe_runs} unsafe"
    );
    assert!(critical > runs / 8 && dropping > runs / 16 && unsafe_runs > 0);
    assert_eq!(
        h.0, CORPUS_DIGEST,
        "simulator corpus digest moved: {:#018x}",
        h.0
    );
}
