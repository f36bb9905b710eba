//! Criterion bench over the Fig. 1 motivational scenario: one simulated
//! hyperperiod of the rescued configuration (fault at A, {G, H, I}
//! dropped), exercising re-execution, replication voting, and the dropping
//! protocol in a single tight loop.

use criterion::{criterion_group, criterion_main, Criterion};
use mcmap_hardening::{harden, HTaskId, HardeningPlan, TaskHardening};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
use mcmap_sim::{ScriptedFaults, SimConfig, Simulator};

fn t(name: &str, wcet: u64) -> Task {
    Task::new(name).with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(wcet)))
}

fn bench_fig1(c: &mut Criterion) {
    let arch = Architecture::builder()
        .homogeneous(2, Processor::new("pe", ProcKind::new(0), 5.0, 20.0, 1e-6))
        .fabric(Fabric::new(1 << 20))
        .build()
        .expect("static example");
    let high = TaskGraph::builder("high", Time::from_ticks(200))
        .deadline(Time::from_ticks(160))
        .criticality(Criticality::NonDroppable {
            max_failure_rate: 0.5,
        })
        .task(t("A", 30))
        .task(t("B", 10).with_voting_overhead(Time::from_ticks(2)))
        .task(t("E", 40))
        .channel(0, 2, 0)
        .channel(1, 2, 0)
        .build()
        .expect("static example");
    let low = TaskGraph::builder("low", Time::from_ticks(400))
        .criticality(Criticality::Droppable { service: 1.0 })
        .task(t("G", 30))
        .task(t("H", 30))
        .task(t("I", 30))
        .channel(0, 1, 0)
        .channel(1, 2, 0)
        .build()
        .expect("static example");
    let apps = AppSet::new(vec![high, low]).expect("static example");
    let mut plan = HardeningPlan::unhardened(&apps);
    plan.set_by_flat_index(0, TaskHardening::Reexec(1));
    plan.set_by_flat_index(
        1,
        TaskHardening::Active {
            replicas: vec![ProcId::new(0)],
            voter: ProcId::new(1),
        },
    );
    let hsys = harden(&apps, &plan, &arch).expect("static example");
    let placement = vec![
        ProcId::new(0),
        ProcId::new(1),
        ProcId::new(0),
        ProcId::new(1),
        ProcId::new(1),
        ProcId::new(0),
        ProcId::new(1),
        ProcId::new(1),
    ];
    let mapping = Mapping::new(&hsys, &arch, placement).expect("static example");
    let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
    let sim = Simulator::new(&hsys, &arch, &mapping, policies);
    let cfg = SimConfig {
        dropped: vec![AppId::new(1)],
        ..SimConfig::default()
    };

    c.bench_function("fig1_rescued_hyperperiod", |bench| {
        bench.iter(|| {
            let mut faults = ScriptedFaults::new().with_fault(HTaskId::new(0), 0, 0);
            sim.run(&cfg, &mut faults)
        })
    });
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
