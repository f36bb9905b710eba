//! **§5.2 — Effect of task dropping.** For every benchmark:
//!
//! * optimized expected power with vs. without task dropping (the paper
//!   reports +14.66 % / +16.16 % / +18.52 % without dropping on DT-med /
//!   DT-large / Cruise);
//! * the ratio of explored solutions that are infeasible without dropping
//!   but feasible with it (0.02 % Synth-1, 0.685 % Synth-2, 29.00 % DT-med,
//!   22.49 % DT-large, 99.98 % Cruise in the paper);
//! * the share of re-execution among the applied hardening techniques
//!   (44.29 % Synth-1; 87.03 % DT-med, 98.66 % DT-large, 83.23 % Cruise).
//!
//! Budget: `MCMAP_POP` (default 60) × `MCMAP_GENS` (default 150)
//! generations, seed `MCMAP_SEED` (default 8); the paper used 100 × 5000.

use mcmap_bench::{env_u64, env_usize, hook_interrupts, EvalKnobs, INTERRUPTED_EXIT};
use mcmap_core::{explore, DseConfig, ObjectiveMode};
use mcmap_resilience::stop_requested;
use mcmap_serve::JobSpec;
use std::process::ExitCode;

fn main() -> ExitCode {
    let pop = env_usize("MCMAP_POP", 60);
    let gens = env_usize("MCMAP_GENS", 150);
    let seed = env_u64("MCMAP_SEED", 8);
    // The sweep's explorations (two per benchmark) would all write one
    // checkpoint path, so it takes no `--checkpoint`/`--resume`.
    let knobs = EvalKnobs::parse(&EvalKnobs::flags(|flag| {
        !matches!(flag, "--checkpoint" | "--resume")
    }));
    let obs = knobs.recorder();
    let interrupted = |what: &str| {
        println!("\n(interrupted{what})");
        knobs.report_obs("sec52", &obs);
        ExitCode::from(INTERRUPTED_EXIT)
    };

    println!("Section 5.2: effect of task dropping (budget {pop}x{gens}, seed {seed})\n");
    println!(
        "{:10} | {:>11} {:>11} {:>8} | {:>8} | {:>8}",
        "benchmark", "P(with)", "P(without)", "extra%", "rescue%", "reexec%"
    );
    println!("{}", "-".repeat(70));

    // `--fleet <preset>` narrows the sweep to that one generated workload.
    let names = match knobs.fleet.as_deref() {
        Some(preset) => vec![preset],
        None => vec!["synth1", "synth2", "dt-med", "dt-large", "cruise"],
    };
    for name in names {
        let spec = JobSpec {
            benchmark: name.into(),
            population: pop,
            generations: gens,
            seed,
        };
        let b = spec.resolve().expect("a named benchmark");
        let mut base = DseConfig {
            objectives: ObjectiveMode::Power,
            ..spec.dse_config(&b, knobs.threads)
        };
        knobs.apply(&mut base);
        hook_interrupts(&mut base);
        base.obs = obs.clone();

        let with = explore(
            &b.apps,
            &b.arch,
            DseConfig {
                allow_dropping: true,
                audit: true,
                ..base.clone()
            },
        );
        if with.interrupted {
            return interrupted(" mid-benchmark — rows above are complete");
        }
        let without = explore(
            &b.apps,
            &b.arch,
            DseConfig {
                allow_dropping: false,
                audit: false,
                ..base
            },
        );
        if without.interrupted {
            return interrupted(" mid-benchmark — rows above are complete");
        }
        knobs.report(&format!("{}/with-dropping", b.name), &with.eval_stats);
        knobs.report(&format!("{}/no-dropping", b.name), &without.eval_stats);
        knobs.report_audit(&format!("{}/with-dropping", b.name), &with.audit);

        let pw = with.best_power();
        let pwo = without.best_power();
        let extra = match (pw, pwo) {
            (Some(w), Some(wo)) => format!("{:+.2}", (wo / w - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        println!(
            "{:10} | {:>11} {:>11} {:>8} | {:>8.3} | {:>8.2}",
            b.name,
            pw.map_or("-".into(), |p| format!("{p:.2}")),
            pwo.map_or("-".into(), |p| format!("{p:.2}")),
            extra,
            with.audit.rescue_ratio() * 100.0,
            with.audit.reexecution_share() * 100.0,
        );
        if stop_requested() {
            return interrupted(" — rows above are complete, remaining benchmarks skipped");
        }
    }
    println!("\nrescue% = explored candidates infeasible without dropping but feasible with their");
    println!("decoded dropped set; reexec% = share of re-execution among applied hardenings.");
    knobs.report_obs("sec52", &obs);
    ExitCode::SUCCESS
}
