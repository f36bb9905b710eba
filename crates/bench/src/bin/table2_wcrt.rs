//! **Table 2** — WCRT of the two critical applications in the *Cruise*
//! example, for three sample mappings, under four estimators:
//!
//! * `Adhoc`    — worst-case scheduling trace (critical from t = 0, maximal
//!   re-executions, dropped set absent) — *not* a safe bound;
//! * `WC-Sim`   — maximum over seeded Monte-Carlo failure profiles
//!   (10 000 in the paper; `MCMAP_SIM_RUNS` here, default 2 000);
//! * `Proposed` — Algorithm 1 (this library's core contribution);
//! * `Naive`    — all droppable tasks statically `[0, wcet]`, all
//!   re-executables statically at Eq. (1).
//!
//! The three sample mappings mirror the character of the paper's: the
//! critical chains are hardened by re-executing their head tasks, and the
//! deep navigation pipeline shares processors (and outranks, as a high-rate
//! or latency-sensitive service would) parts of the control chains — so the
//! chronology-aware analysis can prove its tail certainly dropped while the
//! naive analysis keeps paying for it.
//!
//! Claims verified: `Proposed ≥ WC-Sim`, `Proposed ≥ Adhoc` (safety), and
//! `Naive ≥ Proposed` (pessimism), with strict gaps on contended mappings.

use mcmap_bench::{env_u64, env_usize, fmt_time, EvalKnobs};
use mcmap_benchmarks::{cruise, Benchmark};
use mcmap_core::{adhoc_analysis, analyze, analyze_naive};
use mcmap_eval::parallel_map_caught;
use mcmap_hardening::{harden, HardenedSystem, HardeningPlan, TaskHardening};
use mcmap_model::{AppId, ProcId, Time};
use mcmap_sched::Mapping;
use mcmap_sim::{monte_carlo, MonteCarloConfig, SimConfig};
use std::process::ExitCode;

struct Design {
    hsys: HardenedSystem,
    mapping: Mapping,
    dropped: Vec<AppId>,
}

/// Builds one sample design: re-execute the critical chain heads with
/// degree `k`, bind tasks per `placement` (flat-index order), assign the
/// given priorities, drop all droppable applications in critical mode.
fn design(b: &Benchmark, k: u8, placement: Vec<usize>, priorities: Vec<u32>) -> Design {
    let mut plan = HardeningPlan::unhardened(&b.apps);
    // Heads: wheel_pulse (flat 0) and brake_pedal (flat 5).
    plan.set_by_flat_index(0, TaskHardening::reexecution(k));
    plan.set_by_flat_index(5, TaskHardening::reexecution(k));
    let hsys = harden(&b.apps, &plan, &b.arch).expect("static design");
    let mapping = Mapping::new(
        &hsys,
        &b.arch,
        placement.into_iter().map(ProcId::new).collect(),
    )
    .expect("static design")
    .with_priorities(priorities);
    let dropped = b.apps.droppable_apps().collect();
    Design {
        hsys,
        mapping,
        dropped,
    }
}

fn main() -> ExitCode {
    let b = cruise();
    let seed = env_u64("MCMAP_SEED", 11);
    let sim_runs = env_usize("MCMAP_SIM_RUNS", 2_000);
    let knobs = EvalKnobs::parse(&EvalKnobs::flags(EvalKnobs::worklist));

    // Flat indices: speed-control 0–4 (wheel, switch, est, law, throttle),
    // brake-monitor 5–7 (pedal, logic, act), nav 8–11 (gps, map, route,
    // guidance), infotainment 12–14, sensor-log 15–16.
    let designs = [
        // Mapping 1: nav's tail (route, guidance) shares p0 with the speed
        // chain and outranks everything but the hardened head; sensor-log
        // shares p1 with the brake chain.
        design(
            &b,
            1,
            vec![0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 0, 0, 3, 3, 3, 1, 1],
            vec![0, 3, 4, 5, 6, 2, 3, 4, 0, 1, 1, 2, 0, 1, 2, 0, 1],
        ),
        // Mapping 2: the contention sides are swapped — nav's tail presses
        // on the brake chain (p1), sensor-log on the speed chain (p0).
        design(
            &b,
            1,
            vec![0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 1, 1, 3, 3, 3, 0, 0],
            vec![0, 3, 4, 5, 6, 0, 3, 4, 0, 1, 1, 2, 0, 1, 2, 1, 2],
        ),
        // Mapping 3: deeper re-execution (k = 2) on the heads and nav's
        // tail pressing on the speed chain.
        design(
            &b,
            2,
            vec![0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 0, 0, 3, 3, 3, 1, 1],
            vec![0, 3, 4, 5, 6, 2, 3, 4, 0, 1, 1, 2, 0, 1, 2, 0, 1],
        ),
    ];

    let crit: Vec<_> = b.apps.nondroppable_apps().collect();
    println!("Table 2: WCRT [ticks] of the two critical applications in Cruise");
    println!(
        "(columns per mapping: sc = {}, bm = {})\n",
        b.apps.app(crit[0]).name(),
        b.apps.app(crit[1]).name()
    );

    let mut rows: Vec<(String, Vec<String>)> = ["Adhoc", "WC-Sim", "Proposed", "Naive"]
        .iter()
        .map(|n| (n.to_string(), Vec::new()))
        .collect();

    // The three mappings are independent, so the four estimators run for
    // each of them through the evaluation parallel map; the results are
    // gathered in design order, keeping the table deterministic.
    let obs = knobs.recorder();
    let span = obs.span(
        "table2.estimators",
        &[
            ("designs", mcmap_obs::Value::from(designs.len())),
            ("sim_runs", mcmap_obs::Value::from(sim_runs)),
            ("seed", mcmap_obs::Value::from(seed)),
        ],
    );
    let indexed: Vec<(usize, &Design)> = designs.iter().enumerate().collect();
    let t0 = std::time::Instant::now();
    let caught = parallel_map_caught(&indexed, knobs.threads, |&(i, d)| {
        let adhoc = adhoc_analysis(&d.hsys, &b.arch, &d.mapping, &b.policies, &d.dropped);
        let mc = analyze(&d.hsys, &b.arch, &d.mapping, &b.policies, &d.dropped);
        let naive = analyze_naive(&d.hsys, &b.arch, &d.mapping, &b.policies, &d.dropped);
        let wcsim = monte_carlo(
            &d.hsys,
            &b.arch,
            &d.mapping,
            &b.policies,
            &MonteCarloConfig {
                runs: sim_runs,
                seed: seed.wrapping_mul(31).wrapping_add(i as u64),
                boost: 1e6,
                sim: SimConfig::worst_case(d.dropped.clone()),
            },
        );
        crit.iter()
            .map(|&app| {
                [
                    adhoc[app.index()],
                    wcsim.app_wcrt[app.index()],
                    mc.app_wcrt(&d.hsys, app, &d.dropped),
                    naive.app_wcrt(&d.hsys, app),
                ]
            })
            .collect()
    });
    let wall = t0.elapsed();
    span.end();
    // A panicking estimator takes down only its design, not the process:
    // every surviving column is still reported before the failure exit.
    let mut per_design: Vec<Vec<[Time; 4]>> = Vec::with_capacity(caught.len());
    let mut failed = false;
    for (i, outcome) in caught.into_iter().enumerate() {
        match outcome {
            Ok(cells) => per_design.push(cells),
            Err(payload) => {
                failed = true;
                eprintln!(
                    "table2: mapping {} panicked during analysis: {}",
                    i + 1,
                    mcmap_resilience::panic_message(payload.as_ref())
                );
            }
        }
    }
    if failed {
        eprintln!(
            "table2: {} of {} mappings analyzed before the failure.",
            per_design.len(),
            designs.len()
        );
        knobs.report_wall("table2", designs.len(), wall);
        knobs.report_obs("table2", &obs);
        return ExitCode::FAILURE;
    }
    // Per-design bound counters, emitted in design order on the driver
    // thread: the canonical trace is identical for any --threads.
    for (i, cells) in per_design.iter().enumerate() {
        for (c, [adhoc, wcsim, proposed, naive]) in cells.iter().enumerate() {
            obs.counter(
                "table2.design",
                &[
                    ("mapping", mcmap_obs::Value::from(i + 1)),
                    ("app", mcmap_obs::Value::from(c)),
                    ("adhoc", mcmap_obs::Value::from(adhoc.ticks())),
                    ("wcsim", mcmap_obs::Value::from(wcsim.ticks())),
                    ("proposed", mcmap_obs::Value::from(proposed.ticks())),
                    ("naive", mcmap_obs::Value::from(naive.ticks())),
                ],
            );
        }
    }

    for (i, cells) in per_design.iter().enumerate() {
        for [adhoc, wcsim, proposed, naive] in cells {
            rows[0].1.push(fmt_time(*adhoc));
            rows[1].1.push(fmt_time(*wcsim));
            rows[2].1.push(fmt_time(*proposed));
            rows[3].1.push(fmt_time(*naive));

            // The paper's safety orderings.
            assert!(
                wcsim <= proposed,
                "mapping {i}: WC-Sim exceeded the proposed bound"
            );
            assert!(
                adhoc <= proposed,
                "mapping {i}: the adhoc trace exceeded the proposed bound"
            );
            assert!(
                naive >= proposed,
                "mapping {i}: naive must be at least as pessimistic"
            );
        }
    }

    println!(
        "{:10} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8}",
        "", "M1/sc", "M1/bm", "M2/sc", "M2/bm", "M3/sc", "M3/bm"
    );
    println!("{}", "-".repeat(70));
    for (name, cells) in rows {
        println!(
            "{:10} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8}",
            name, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        );
    }
    println!(
        "\nVerified: Proposed ≥ WC-Sim ({sim_runs} profiles), Proposed ≥ Adhoc, Naive ≥ Proposed."
    );
    knobs.report_wall("table2", designs.len(), wall);
    knobs.report_obs("table2", &obs);
    ExitCode::SUCCESS
}
