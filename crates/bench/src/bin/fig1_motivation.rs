//! **Fig. 1** — the paper's motivational example, reproduced end to end on
//! the simulator and the analysis:
//!
//! * (b) without faults, all three applications meet their deadlines;
//! * (c) a fault at task A triggers its re-execution and the high-critical
//!   task E misses its deadline when nothing may be dropped;
//! * (d) with the low-criticality application {G, H, I} declared droppable,
//!   the same fault leads to its jobs being discarded and E meets the
//!   deadline.
//!
//! Task B is actively replicated (as in the figure); per the paper's
//! footnote, detection and voting overheads are kept minimal.

use mcmap_bench::EvalKnobs;
use mcmap_eval::parallel_map_caught;
use mcmap_hardening::{harden, HTaskId, HardeningPlan, TaskHardening};
use mcmap_model::{
    AppId, AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor,
    Task, TaskGraph, Time,
};
use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
use mcmap_sim::{NoFaults, ScriptedFaults, SimConfig, Simulator};
use std::process::ExitCode;

fn t(name: &str, wcet: u64) -> Task {
    Task::new(name).with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(wcet)))
}

fn main() -> ExitCode {
    let knobs = EvalKnobs::parse(&EvalKnobs::flags(EvalKnobs::worklist));
    let arch = Architecture::builder()
        .homogeneous(2, Processor::new("pe", ProcKind::new(0), 5.0, 20.0, 1e-6))
        .fabric(Fabric::new(1 << 20))
        .build()
        .expect("static example");

    // High-criticality graph: A and B feed E. Deadline 160.
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
    // Low-criticality graph kept through critical mode: C → D.
    let low1 = TaskGraph::builder("low1", Time::from_ticks(400))
        .criticality(Criticality::Droppable { service: 2.0 })
        .task(t("C", 25))
        .task(t("D", 25))
        .channel(0, 1, 0)
        .build()
        .expect("static example");
    // Low-criticality graph that may be dropped: G → H → I.
    let low2 = TaskGraph::builder("low2", Time::from_ticks(400))
        .criticality(Criticality::Droppable { service: 1.0 })
        .task(t("G", 30))
        .task(t("H", 30))
        .task(t("I", 30))
        .channel(0, 1, 0)
        .channel(1, 2, 0)
        .build()
        .expect("static example");
    let apps = AppSet::new(vec![high, low1, low2]).expect("static example");

    // Hardening per the figure: A re-executed, B actively replicated.
    let mut plan = HardeningPlan::unhardened(&apps);
    plan.set_by_flat_index(0, TaskHardening::reexecution(1));
    plan.set_by_flat_index(
        1,
        TaskHardening::active(vec![ProcId::new(0)], ProcId::new(1)),
    );
    let hsys = harden(&apps, &plan, &arch).expect("static example");

    // Mapping and priorities chosen to match the figure's schedule.
    // Hardened task order: A, B, B#active0 (fixed pe0), B#voter (fixed
    // pe1), E | C, D | G, H, I.
    let placement = vec![
        ProcId::new(0), // A
        ProcId::new(1), // B (primary)
        ProcId::new(0), // B#active0 (fixed)
        ProcId::new(1), // B#voter (fixed)
        ProcId::new(1), // E
        ProcId::new(0), // C
        ProcId::new(1), // D
        ProcId::new(0), // G
        ProcId::new(1), // H
        ProcId::new(1), // I
    ];
    let mapping = Mapping::new(&hsys, &arch, placement)
        .expect("static example")
        .with_priorities(vec![2, 0, 0, 1, 5, 6, 7, 3, 3, 4]);
    let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
    let sim = Simulator::new(&hsys, &arch, &mapping, policies.clone());

    let deadline = apps.app(AppId::new(0)).deadline();
    let report = |label: &str, r: &mcmap_sim::SimResult| {
        println!(
            "{label:42} E-graph finish: {:>5}  (deadline {})  {}",
            r.app_wcrt[0],
            deadline,
            if r.app_wcrt[0] <= deadline {
                "MET"
            } else {
                "MISSED"
            }
        );
        println!(
            "{:42} low1 completed: {}, low2 completed: {}, dropped: {}",
            "", r.completed_instances[1], r.completed_instances[2], r.dropped_instances[2]
        );
    };

    println!("Fig. 1 motivational example (one hyperperiod, 2 PEs)\n");

    // The three scenarios (b)/(c)/(d) are independent simulations, so they
    // run through the evaluation parallel map; each builds its own fault script,
    // and the gather preserves scenario order.
    let obs = knobs.recorder();
    let scenarios: [usize; 3] = [0, 1, 2];
    let span = obs.span(
        "fig1.scenarios",
        &[("scenarios", mcmap_obs::Value::from(scenarios.len()))],
    );
    let t0 = std::time::Instant::now();
    let caught = parallel_map_caught(&scenarios, knobs.threads, |&s| match s {
        // (b) No faults.
        0 => sim.run(&SimConfig::default(), &mut NoFaults),
        // (c) Fault at A, nothing droppable.
        1 => {
            let mut fault = ScriptedFaults::new().with_fault(HTaskId::new(0), 0, 0);
            sim.run(&SimConfig::default(), &mut fault)
        }
        // (d) Fault at A, {G, H, I} dropped in critical mode.
        _ => {
            let mut fault = ScriptedFaults::new().with_fault(HTaskId::new(0), 0, 0);
            sim.run(
                &SimConfig {
                    dropped: vec![AppId::new(2)],
                    ..SimConfig::default()
                },
                &mut fault,
            )
        }
    });
    let wall = t0.elapsed();
    span.end();
    // The (b)/(c)/(d) comparison needs all three traces, so a panicking
    // scenario ends the run — but with a labeled diagnostic and the
    // telemetry flushed, not a bare unwind.
    let mut runs = Vec::with_capacity(caught.len());
    for (label, outcome) in ["no-fault", "fault", "fault-drop"].iter().zip(caught) {
        match outcome {
            Ok(r) => runs.push(r),
            Err(payload) => {
                eprintln!(
                    "fig1: scenario {label} panicked: {}",
                    mcmap_resilience::panic_message(payload.as_ref())
                );
                knobs.report_obs("fig1-motivation", &obs);
                return ExitCode::FAILURE;
            }
        }
    }
    let [nominal, strict, rescued] = &runs[..] else {
        unreachable!("three scenarios in, three results out");
    };
    // Per-scenario outcomes, emitted in scenario order on the driver
    // thread: the canonical trace is identical for any --threads.
    for (label, r) in [
        ("no-fault", nominal),
        ("fault", strict),
        ("fault-drop", rescued),
    ] {
        obs.counter(
            "fig1.scenario",
            &[
                ("scenario", mcmap_obs::Value::from(label)),
                ("finish", mcmap_obs::Value::from(r.app_wcrt[0].ticks())),
                ("met", mcmap_obs::Value::from(r.app_wcrt[0] <= deadline)),
                (
                    "dropped_instances",
                    mcmap_obs::Value::from(r.dropped_instances[2]),
                ),
            ],
        );
    }

    report("(b) no fault:", nominal);
    assert!(nominal.app_wcrt[0] <= deadline);

    report("\n(c) fault at A, no dropping:", strict);
    assert!(
        strict.app_wcrt[0] > deadline,
        "the fault must push E past its deadline without dropping"
    );

    report("\n(d) fault at A, dropping {G,H,I}:", rescued);
    assert!(rescued.app_wcrt[0] <= deadline);
    assert!(rescued.dropped_instances[2] > 0);

    // Static verdicts from Algorithm 1 agree with the traces.
    let without = mcmap_core::analyze(&hsys, &arch, &mapping, &policies, &[]);
    let with = mcmap_core::analyze(&hsys, &arch, &mapping, &policies, &[AppId::new(2)]);
    println!(
        "\nAlgorithm 1: WCRT(high) = {} without dropping, {} with T_d = {{low2}}.",
        without.app_wcrt(&hsys, AppId::new(0), &[]),
        with.app_wcrt(&hsys, AppId::new(0), &[AppId::new(2)]),
    );
    for (id, app) in apps.apps() {
        println!(
            "  {}: no-drop wcrt {} / with-drop wcrt {} (deadline {})",
            app.name(),
            without.app_wcrt(&hsys, id, &[]),
            with.app_wcrt(&hsys, id, &[AppId::new(2)]),
            app.deadline()
        );
    }
    println!(
        "Verdicts: without dropping schedulable = {}, with dropping schedulable = {}.",
        without.schedulable(&hsys, &[]),
        with.schedulable(&hsys, &[AppId::new(2)])
    );
    assert!(!without.schedulable(&hsys, &[]));
    assert!(with.schedulable(&hsys, &[AppId::new(2)]));
    println!("\nThe configuration is rescued exactly as in Fig. 1(d).");
    knobs.report_wall("fig1-motivation", scenarios.len(), wall);
    knobs.report_obs("fig1-motivation", &obs);
    ExitCode::SUCCESS
}
