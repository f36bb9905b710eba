//! **Fig. 5** — co-optimization of service and power consumption for the
//! *DT-med* benchmark: the Pareto front of (expected power, retained
//! service) pairs, annotated with each point's dropped application set.
//!
//! The paper obtains five Pareto-optimal points spanning from φ (everything
//! droppable dropped — best power) to {t1, t2, t3} (nothing dropped —
//! maximum service).

use mcmap_bench::{env_u64, env_usize, hook_interrupts, EvalKnobs, INTERRUPTED_EXIT};
use mcmap_core::explore;
use mcmap_serve::JobSpec;
use std::process::ExitCode;

fn main() -> ExitCode {
    let pop = env_usize("MCMAP_POP", 60);
    let gens = env_usize("MCMAP_GENS", 200);
    let seed = env_u64("MCMAP_SEED", 8);
    let knobs = EvalKnobs::parse(EvalKnobs::FLAGS);

    let spec = JobSpec {
        benchmark: knobs.fleet.clone().unwrap_or_else(|| "dt-med".into()),
        population: pop,
        generations: gens,
        seed,
    };
    let b = spec.resolve().expect("a named benchmark");
    let mut cfg = spec.dse_config(&b, knobs.threads);
    knobs.apply(&mut cfg);
    hook_interrupts(&mut cfg);
    cfg.obs = knobs.recorder();
    let outcome = explore(&b.apps, &b.arch, cfg);
    if outcome.interrupted {
        println!("(interrupted — the front below reflects the last completed generation)\n");
    }

    // Collect feasible, distinct (power, service) points.
    let mut points: Vec<(f64, f64, String)> = outcome
        .reports
        .iter()
        .filter(|r| r.feasible)
        .map(|r| {
            let names: Vec<&str> = r.dropped.iter().map(|&a| b.apps.app(a).name()).collect();
            let label = if names.is_empty() {
                "{} (nothing dropped)".to_string()
            } else {
                format!("{{{}}}", names.join(", "))
            };
            (r.power, r.service, label)
        })
        .collect();
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite power"));
    points.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);

    println!(
        "Fig. 5: power-service Pareto front of {} (budget {pop}x{gens}, seed {seed})\n",
        b.name
    );
    println!("{:>12} {:>10}  dropped set T_d", "power [mW]", "service");
    println!("{}", "-".repeat(58));
    for (power, service, label) in &points {
        println!("{power:>12.2} {service:>10.1}  {label}");
    }
    println!(
        "\n{} Pareto-optimal design points (total service available: {:.1}).",
        points.len(),
        b.apps.total_service()
    );
    if points.len() >= 2 {
        let lo = &points[0];
        let hi = points.last().expect("nonempty");
        assert!(
            lo.1 <= hi.1,
            "the cheapest point must not dominate the service-richest point"
        );
        println!(
            "Trade-off span: {:.2} mW at service {:.1} … {:.2} mW at service {:.1}.",
            lo.0, lo.1, hi.0, hi.1
        );
    }
    let label = format!("fig5/{}", b.name);
    knobs.report(&label, &outcome.eval_stats);
    knobs.report_audit(&label, &outcome.audit);
    knobs.report_obs(&label, &outcome.obs);
    if outcome.interrupted {
        return ExitCode::from(INTERRUPTED_EXIT);
    }
    ExitCode::SUCCESS
}
