//! **Ablation** — the §2.2 hardening trade-off made concrete: harden every
//! critical task of the Cruise benchmark uniformly with each technique
//! (re-execution / active replication / passive replication) and compare
//! the resulting reliability, worst-case response times, and expected
//! power on a fixed isolation mapping.
//!
//! This quantifies why the DSE overwhelmingly picks re-execution (§5.2):
//! it is the cheapest in power, at the price of critical-state WCRT
//! inflation — which task dropping then absorbs.

use mcmap_bench::EvalKnobs;
use mcmap_benchmarks::cruise;
use mcmap_core::{analyze, expected_power};
use mcmap_eval::parallel_map_caught;
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, Reliability, TaskHardening};
use mcmap_model::{AppId, ProcId};
use mcmap_sched::Mapping;
use std::process::ExitCode;

/// Builds a plan hardening every critical task with `make(flat)`.
fn plan_with(
    b: &mcmap_benchmarks::Benchmark,
    make: impl Fn(usize) -> TaskHardening,
) -> HardeningPlan {
    let mut plan = HardeningPlan::unhardened(&b.apps);
    for (flat, r) in b.apps.task_refs().iter().enumerate() {
        if !b.apps.app(r.app).criticality().is_droppable() {
            plan.set_by_flat_index(flat, make(flat));
        }
    }
    plan
}

/// Isolation mapping: critical apps on the big cores, droppables on the
/// little cores; fixed (replica/voter) slots honoured.
fn mapping_for(b: &mcmap_benchmarks::Benchmark, hsys: &HardenedSystem) -> Mapping {
    let placement: Vec<ProcId> = hsys
        .tasks()
        .map(|(_, t)| {
            if let Some(p) = t.fixed_proc {
                return p;
            }
            match t.origin.app.index() {
                0 | 1 => ProcId::new(t.origin.app.index()), // critical apps on big cores
                2 => ProcId::new(2),                        // nav alone on little0
                _ => ProcId::new(3),                        // infotainment + diagnostics on little1
            }
        })
        .collect();
    Mapping::new(hsys, &b.arch, placement).expect("isolation mapping is valid")
}

fn main() -> ExitCode {
    let b = cruise();
    let knobs = EvalKnobs::parse(&EvalKnobs::flags(EvalKnobs::worklist));
    let dropped: Vec<AppId> = b.apps.droppable_apps().collect();

    // Replicas of critical app i live on the *other* big core and a little
    // core; voters on the app's own core.
    let variants: Vec<(&str, HardeningPlan)> = vec![
        (
            "re-execution k=1",
            plan_with(&b, |_| TaskHardening::Reexec(1)),
        ),
        (
            "re-execution k=2",
            plan_with(&b, |_| TaskHardening::Reexec(2)),
        ),
        (
            "active triplication",
            plan_with(&b, |flat| {
                let own = ProcId::new(if flat < 5 { 0 } else { 1 });
                let other = ProcId::new(if flat < 5 { 1 } else { 0 });
                TaskHardening::Active {
                    replicas: vec![other, ProcId::new(2)],
                    voter: own,
                }
            }),
        ),
        (
            "passive duplex+standby",
            plan_with(&b, |flat| {
                let own = ProcId::new(if flat < 5 { 0 } else { 1 });
                let other = ProcId::new(if flat < 5 { 1 } else { 0 });
                TaskHardening::Passive {
                    actives: vec![other],
                    standbys: vec![ProcId::new(3)],
                    voter: own,
                }
            }),
        ),
    ];

    println!("Hardening-technique ablation on Cruise (isolation mapping, T_d = all droppable)\n");
    println!(
        "{:22} | {:>10} | {:>9} {:>9} | {:>9} | {:>6}",
        "technique", "power[mW]", "wcrt(sc)", "wcrt(bm)", "max fail", "sched"
    );
    println!("{}", "-".repeat(80));

    // The four variants are independent, so they run through the
    // evaluation parallel map; gathering preserves variant order, so the table is
    // identical for any `--threads`.
    let obs = knobs.recorder();
    let span = obs.span(
        "ablation.variants",
        &[("variants", mcmap_obs::Value::from(variants.len()))],
    );
    let t0 = std::time::Instant::now();
    let rows = parallel_map_caught(&variants, knobs.threads, |(name, plan)| {
        let hsys = harden(&b.apps, plan, &b.arch).expect("static plans are valid");
        let mapping = mapping_for(&b, &hsys);
        let rel = Reliability::new(&hsys, &b.arch);
        let worst_fail = rel
            .check_all(mapping.placement())
            .into_iter()
            .map(|v| v.failure_probability)
            .fold(0.0f64, f64::max);
        let mc = analyze(&hsys, &b.arch, &mapping, &b.policies, &dropped);
        let power = expected_power(&hsys, &b.arch, &mapping, &[true; 4], &dropped, 0.3);
        let row = format!(
            "{:22} | {:>10.2} | {:>9} {:>9} | {:>9.2e} | {:>6}",
            name,
            power,
            mc.app_wcrt(&hsys, AppId::new(0), &dropped).to_string(),
            mc.app_wcrt(&hsys, AppId::new(1), &dropped).to_string(),
            worst_fail,
            mc.schedulable(&hsys, &dropped),
        );
        (row, mc.scenarios, mc.backend_calls, power)
    });
    let wall = t0.elapsed();
    span.end();
    // Per-variant effort and power, emitted in variant order on the driver
    // thread: the canonical trace is identical for any --threads. A variant
    // that panicked degrades to a labeled failure row instead of taking the
    // other three down with it.
    let mut panicked = 0usize;
    for ((name, _), outcome) in variants.iter().zip(&rows) {
        match outcome {
            Ok((_, scenarios, backend_calls, power)) => obs.counter(
                "ablation.variant",
                &[
                    ("name", mcmap_obs::Value::from(*name)),
                    ("scenarios", mcmap_obs::Value::from(*scenarios)),
                    ("backend_calls", mcmap_obs::Value::from(*backend_calls)),
                    ("power", mcmap_obs::Value::from(*power)),
                ],
            ),
            Err(payload) => {
                panicked += 1;
                obs.counter(
                    "ablation.variant_failed",
                    &[
                        ("name", mcmap_obs::Value::from(*name)),
                        (
                            "message",
                            mcmap_obs::Value::from(
                                mcmap_resilience::panic_message(payload.as_ref()).as_str(),
                            ),
                        ),
                    ],
                );
            }
        }
    }
    for ((name, _), outcome) in variants.iter().zip(&rows) {
        match outcome {
            Ok((row, ..)) => println!("{row}"),
            Err(payload) => println!(
                "{:22} | analysis panicked: {}",
                name,
                mcmap_resilience::panic_message(payload.as_ref())
            ),
        }
    }
    println!("\nRe-execution is the cheapest technique in power; replication buys back the");
    println!("critical-state WCRT inflation at the cost of permanently duplicated work.");
    knobs.report_wall("ablation-hardening", rows.len(), wall);
    knobs.report_obs("ablation-hardening", &obs);
    if panicked > 0 {
        eprintln!(
            "ablation-hardening: {panicked} of {} variants failed.",
            rows.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
