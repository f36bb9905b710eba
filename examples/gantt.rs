//! Visualize a simulated schedule: re-run the Fig. 1-style scenario and
//! render ASCII Gantt charts of the fault-free, faulted, and rescued
//! hyperperiods, plus a GraphViz dump of the hardened task graph.
//!
//! Run with: `cargo run --example gantt`

use mcmap::hardening::{harden, hardened_to_dot, HTaskId, HardeningPlan, TaskHardening};
use mcmap::model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap::sched::{uniform_policies, Mapping, SchedPolicy};
use mcmap::sim::{NoFaults, ScriptedFaults, SimConfig, Simulator, Trace};

fn task(name: &str, wcet: u64) -> Task {
    Task::new(name).with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(wcet)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = Architecture::builder()
        .homogeneous(2, Processor::new("pe", ProcKind::new(0), 5.0, 20.0, 1e-6))
        .fabric(Fabric::new(1 << 20))
        .build()?;
    let high = TaskGraph::builder("high", Time::from_ticks(200))
        .deadline(Time::from_ticks(160))
        .criticality(Criticality::NonDroppable {
            max_failure_rate: 0.5,
        })
        .task(task("Alpha", 30))
        .task(task("Exec", 50))
        .channel(0, 1, 0)
        .build()?;
    let low = TaskGraph::builder("low", Time::from_ticks(400))
        .criticality(Criticality::Droppable { service: 1.0 })
        .task(task("Gather", 30))
        .task(task("Handle", 30))
        .task(task("Io", 30))
        .channel(0, 1, 0)
        .channel(1, 2, 0)
        .build()?;
    let apps = AppSet::new(vec![high, low])?;
    let mut plan = HardeningPlan::unhardened(&apps);
    plan.set_by_flat_index(0, TaskHardening::Reexec(1));
    let hsys = harden(&apps, &plan, &arch)?;
    let mapping = Mapping::new(
        &hsys,
        &arch,
        vec![
            ProcId::new(0),
            ProcId::new(1),
            ProcId::new(0),
            ProcId::new(1),
            ProcId::new(1),
        ],
    )?
    .with_priorities(vec![0, 4, 1, 2, 3]);
    let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
    let sim = Simulator::new(&hsys, &arch, &mapping, policies);

    let names = Trace::name_table(&hsys, &apps, mapping.placement());
    let horizon = Time::from_ticks(200);
    let width = 72;

    println!("(legend: A=Alpha E=Exec G=Gather H=Handle I=Io, '!'=critical entry)\n");

    let (_, trace) = sim.run_traced(&SimConfig::default(), &mut NoFaults);
    println!("fault-free hyperperiod:");
    print!("{}", trace.render_gantt(&names, horizon, width));

    let mut faults = ScriptedFaults::new().with_fault(HTaskId::new(0), 0, 0);
    let (_, trace) = sim.run_traced(&SimConfig::default(), &mut faults);
    println!("\nfault at Alpha, no dropping (Exec slips past 160):");
    print!("{}", trace.render_gantt(&names, horizon, width));

    let mut faults = ScriptedFaults::new().with_fault(HTaskId::new(0), 0, 0);
    let (_, trace) = sim.run_traced(
        &SimConfig {
            dropped: vec![AppId::new(1)],
            ..SimConfig::default()
        },
        &mut faults,
    );
    println!("\nfault at Alpha, dropping {{Gather, Handle, Io}}:");
    print!("{}", trace.render_gantt(&names, horizon, width));

    println!("\nGraphViz of the hardened system (pipe into `dot -Tpng`):\n");
    print!("{}", hardened_to_dot(&hsys, &apps));
    Ok(())
}
