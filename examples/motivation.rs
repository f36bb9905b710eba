//! The paper's Fig. 1 motivational story, condensed: a single transient
//! fault pushes a critical application past its deadline — unless the
//! scheduler may drop low-criticality work during the critical state.
//!
//! Run with: `cargo run --example motivation`
//! (The full annotated version with replication lives in
//! `crates/bench/src/bin/fig1_motivation.rs`.)

use mcmap::core::analyze;
use mcmap::hardening::{harden, HTaskId, HardeningPlan, TaskHardening};
use mcmap::model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap::sched::{uniform_policies, Mapping, SchedPolicy};
use mcmap::sim::{NoFaults, ScriptedFaults, SimConfig, Simulator};

fn task(name: &str, wcet: u64) -> Task {
    Task::new(name).with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(wcet)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = Architecture::builder()
        .homogeneous(2, Processor::new("pe", ProcKind::new(0), 5.0, 20.0, 1e-6))
        .fabric(Fabric::new(1 << 20))
        .build()?;

    // Critical chain A → E (A re-executed once on a fault).
    let high = TaskGraph::builder("high", Time::from_ticks(200))
        .deadline(Time::from_ticks(160))
        .criticality(Criticality::NonDroppable {
            max_failure_rate: 0.5,
        })
        .task(task("A", 30))
        .task(task("E", 50))
        .channel(0, 1, 0)
        .build()?;
    // Droppable chain G → H → I.
    let low = TaskGraph::builder("low", Time::from_ticks(400))
        .criticality(Criticality::Droppable { service: 1.0 })
        .task(task("G", 30))
        .task(task("H", 30))
        .task(task("I", 30))
        .channel(0, 1, 0)
        .channel(1, 2, 0)
        .build()?;
    let apps = AppSet::new(vec![high, low])?;

    let mut plan = HardeningPlan::unhardened(&apps);
    plan.set_by_flat_index(0, TaskHardening::Reexec(1));
    let hsys = harden(&apps, &plan, &arch)?;

    // A and G on pe0; E, H, I on pe1 where H and I outrank E.
    let mapping = Mapping::new(
        &hsys,
        &arch,
        vec![
            ProcId::new(0), // A
            ProcId::new(1), // E
            ProcId::new(0), // G
            ProcId::new(1), // H
            ProcId::new(1), // I
        ],
    )?
    .with_priorities(vec![0, 4, 1, 2, 3]);
    let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
    let sim = Simulator::new(&hsys, &arch, &mapping, policies.clone());
    let deadline = apps.app(AppId::new(0)).deadline();

    let fault_free = sim.run(&SimConfig::default(), &mut NoFaults);
    let mut faults = ScriptedFaults::new().with_fault(HTaskId::new(0), 0, 0);
    let faulted = sim.run(&SimConfig::default(), &mut faults);
    let mut faults = ScriptedFaults::new().with_fault(HTaskId::new(0), 0, 0);
    let rescued = sim.run(
        &SimConfig {
            dropped: vec![AppId::new(1)],
            ..SimConfig::default()
        },
        &mut faults,
    );

    println!("deadline of the critical chain: {deadline}");
    println!(
        "fault-free:          E finishes at {}",
        fault_free.app_wcrt[0]
    );
    println!("fault, no dropping:  E finishes at {}", faulted.app_wcrt[0]);
    println!("fault, dropping low: E finishes at {}", rescued.app_wcrt[0]);
    assert!(fault_free.app_wcrt[0] <= deadline);
    assert!(faulted.app_wcrt[0] > deadline);
    assert!(rescued.app_wcrt[0] <= deadline);

    let verdict_keep = analyze(&hsys, &arch, &mapping, &policies, &[]);
    let verdict_drop = analyze(&hsys, &arch, &mapping, &policies, &[AppId::new(1)]);
    println!(
        "\nAlgorithm 1 agrees: schedulable without dropping = {}, with dropping = {}.",
        verdict_keep.schedulable(&hsys, &[]),
        verdict_drop.schedulable(&hsys, &[AppId::new(1)])
    );
    Ok(())
}
