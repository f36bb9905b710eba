//! Quickstart: model a small mixed-criticality system, harden it, map it,
//! and obtain worst-case response-time guarantees under task dropping.
//!
//! Run with: `cargo run --example quickstart`

use mcmap::core::analyze;
use mcmap::hardening::{harden, HardeningPlan, Reliability, TaskHardening};
use mcmap::model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap::sched::{uniform_policies, Mapping, SchedPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Platform: two cores on a shared bus.
    let arch = Architecture::builder()
        .homogeneous(
            2,
            Processor::new("core", ProcKind::new(0), 10.0, 60.0, 1e-6),
        )
        .fabric(Fabric::new(32))
        .build()?;

    // 2. Applications: a safety-critical control loop and a droppable
    //    logging pipeline.
    let control = TaskGraph::builder("control", Time::from_ticks(1_000))
        .deadline(Time::from_ticks(800))
        .criticality(Criticality::NonDroppable {
            max_failure_rate: 1e-5,
        })
        .task(
            Task::new("sense")
                .with_uniform_exec(
                    1,
                    ExecBounds::new(Time::from_ticks(40), Time::from_ticks(90)),
                )
                .with_detect_overhead(Time::from_ticks(5)),
        )
        .task(
            Task::new("act")
                .with_uniform_exec(
                    1,
                    ExecBounds::new(Time::from_ticks(60), Time::from_ticks(120)),
                )
                .with_detect_overhead(Time::from_ticks(5)),
        )
        .channel(0, 1, 64)
        .build()?;
    let logging = TaskGraph::builder("logging", Time::from_ticks(2_000))
        .criticality(Criticality::Droppable { service: 1.0 })
        .task(Task::new("collect").with_uniform_exec(
            1,
            ExecBounds::new(Time::from_ticks(150), Time::from_ticks(400)),
        ))
        .build()?;
    let apps = AppSet::new(vec![control, logging])?;

    // 3. Hardening: re-execute both control tasks once on a fault.
    let mut plan = HardeningPlan::unhardened(&apps);
    plan.set_by_flat_index(0, TaskHardening::Reexec(1));
    plan.set_by_flat_index(1, TaskHardening::Reexec(1));
    let hsys = harden(&apps, &plan, &arch)?;

    // 4. Mapping: control on core 0, logging on core 1.
    let mapping = Mapping::new(
        &hsys,
        &arch,
        vec![ProcId::new(0), ProcId::new(0), ProcId::new(1)],
    )?;
    let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);

    // 5. Reliability check.
    let rel = Reliability::new(&hsys, &arch);
    for v in rel.check_all(mapping.placement()) {
        println!(
            "reliability of {}: {:.2e} (bound {:.0e}) -> {}",
            apps.app(v.app).name(),
            v.failure_probability,
            v.bound,
            if v.satisfied { "ok" } else { "VIOLATED" }
        );
    }

    // 6. Mixed-criticality WCRT analysis (Algorithm 1), dropping `logging`
    //    in the critical state.
    let dropped = vec![AppId::new(1)];
    let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
    for (id, app) in apps.apps() {
        println!(
            "{}: fault-free WCRT {} | protocol WCRT {} (deadline {})",
            app.name(),
            mc.normal.app_wcrt(&hsys, id),
            mc.app_wcrt(&hsys, id, &dropped),
            app.deadline()
        );
    }
    println!(
        "schedulable under the mixed-criticality protocol: {}",
        mc.schedulable(&hsys, &dropped)
    );
    Ok(())
}
