//! `fleet_scale` — the parallel-evaluation payoff gate.
//!
//! Runs the same fleet exploration with serial dispatch (`threads = 1`)
//! and with parallel dispatch at `MCMAP_THREADS`, as [`mcmap_bench::ab`]'s
//! alternating serial/parallel pairs, and demands:
//!
//! 1. **bit-identical Pareto fronts** on every run (always asserted: the
//!    thread budget is a pure speed knob);
//! 2. **a wall speedup of at least 0.6 × min(threads, cores)** of parallel
//!    over serial, asserted whenever that minimum is ≥ 2 (1.2× on a 2-core
//!    host, 2.4× at 4 threads on 4 cores). The 0.6 factor leaves room for
//!    the serial GA selection between batches and for batches that do not
//!    divide evenly. On a single-core host no parallel speedup is
//!    physically possible, so the speedup is *reported, not asserted*, and
//!    the JSON records `speedup_gate_enforced: false`. The speedup is the
//!    median of the per-pair speedups.
//!
//! Writes `results/BENCH_scale.json` (override the directory with
//! `MCMAP_BENCH_OUT`), including both legs' full `EvalStats` — with the
//! per-worker busy/wall utilization ledger — so scatter losses are
//! observable rather than inferred.
//!
//! Budget knobs: `MCMAP_FLEET` (default `fleet-med`), `MCMAP_POP` (default
//! 8), `MCMAP_GENS` (default 2), `MCMAP_THREADS` (default 4).

use mcmap_bench::{cores, env_u64, env_usize, serial_vs_parallel, write_artifact};
use mcmap_benchmarks::{fleet, fleet_preset, Benchmark, FleetConfig};
use mcmap_core::{explore, DseConfig, ObjectiveMode};
use mcmap_ga::GaConfig;

fn dse_cfg(
    b: &Benchmark,
    preset: &FleetConfig,
    threads: usize,
    pop: usize,
    gens: usize,
) -> DseConfig {
    DseConfig {
        ga: GaConfig {
            population: pop,
            generations: gens,
            seed: 8,
            threads,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::PowerService,
        allow_dropping: true,
        policies: Some(b.policies.clone()),
        repair_iters: 40,
        max_reexec: preset.max_reexec,
        max_replicas: preset.max_replicas,
        ..DseConfig::default()
    }
}

fn main() {
    let preset_name = std::env::var("MCMAP_FLEET").unwrap_or_else(|_| "fleet-med".to_string());
    let preset = fleet_preset(&preset_name)
        .unwrap_or_else(|| panic!("unknown fleet preset {preset_name:?}"));
    let seed = env_u64("MCMAP_SEED", 42);
    let pop = env_usize("MCMAP_POP", 8);
    let gens = env_usize("MCMAP_GENS", 2);
    let par = env_usize("MCMAP_THREADS", 4).max(2);
    let cores = cores();
    let b = fleet(&preset, seed);
    println!(
        "fleet_scale: {} — {} tasks, {} apps, {} PEs ({cores} cores)",
        b.name,
        b.apps.num_tasks(),
        b.apps.num_apps(),
        b.arch.num_processors(),
    );
    let (serial, parallel, m) = serial_vs_parallel(par, |threads| {
        explore(&b.apps, &b.arch, dse_cfg(&b, &preset, threads, pop, gens))
    });
    let speedup = m.ratio(1).median;

    let usable = par.min(cores);
    let required = 0.6 * usable as f64;
    let gate_enforced = usable >= 2;
    let util: Vec<String> = parallel
        .eval_stats
        .utilization()
        .iter()
        .map(|u| format!("{:.0}%", u * 100.0))
        .collect();
    println!(
        "fleet_scale/{preset_name}: {:.3} s serial, {:.3} s at {par} threads \
         (median paired speedup x{speedup:.2}, {} retries, gate {}, worker utilization [{}], \
         fronts identical)",
        m.wall(1),
        m.wall(0),
        m.retries.len(),
        if gate_enforced {
            format!("x{required:.1} enforced")
        } else {
            "reported only: one core".to_string()
        },
        util.join(", "),
    );
    write_artifact(
        "BENCH_scale.json",
        &format!(
            "{{\"benchmark\":\"{preset_name}\",\"tasks\":{},\"apps\":{},\"pes\":{},\
             \"population\":{pop},\"generations\":{gens},\"threads\":{par},\
             \"cores\":{cores},{},\"speedup_required\":{required:.1},\
             \"speedup_gate_enforced\":{gate_enforced},\"fronts_identical\":true,\
             \"serial\":{},\"parallel\":{}}}\n",
            b.apps.num_tasks(),
            b.apps.num_apps(),
            b.arch.num_processors(),
            m.json(1, ["parallel", "serial"]),
            serial.eval_stats.to_json(),
            parallel.eval_stats.to_json(),
        ),
    );
    if gate_enforced {
        assert!(
            speedup >= required,
            "parallel evaluation must beat serial by >= {required:.1}x on {preset_name} \
             (measured {speedup:.2}x at {par} threads on {cores} cores)"
        );
    }
}
