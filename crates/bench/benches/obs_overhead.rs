//! Overhead gate for the two observers of an exploration: the `mcmap-obs`
//! tracing layer and the `mcmap-telemetry` metrics it folds into.
//!
//! Each repetition runs the same Cruise exploration three times, rotating
//! the order so no leg systematically lands in the slower part of a
//! throttling window: unobserved (a disabled [`Recorder`], the no-op fast
//! path), traced (the production `--trace` configuration: one JSONL file
//! sink), and metered (a recorder whose only sink is a [`MetricsSink`]
//! folding every event into a [`Registry`]). Each observer's gated metric
//! is the **ratio of its best-of-N time** to the unobserved leg's:
//! scheduler and hypervisor noise is strictly additive, so each leg's
//! minimum converges on its true runtime, while per-repetition ratios of
//! ~20 ms runs are noise-dominated on a virtualized host. The median
//! per-repetition ratio is reported as a cross-check. For each observer
//! the bench asserts that the Pareto front is bit-identical to the
//! unobserved one (observation is read-only), that the run recorded
//! something (events, instruments), and that the overhead stays below the
//! budget (default **5 %**, override with `MCMAP_OBS_MAX_OVERHEAD_PCT`).
//!
//! Summaries go to `results/BENCH_obs.json` (tracing) and
//! `results/BENCH_telemetry.json` (metrics); directory override:
//! `MCMAP_BENCH_OUT`. Budget knobs: `MCMAP_POP` (default 48), `MCMAP_GENS`
//! (default 16), `MCMAP_THREADS` (default 1 — serial timing is the least
//! noisy), `MCMAP_OBS_REPEATS` (default 9).

use mcmap_bench::{env_u64, env_usize};
use mcmap_benchmarks::{cruise, Benchmark};
use mcmap_core::{explore, DseConfig, DseOutcome, MetricsSink, ObjectiveMode};
use mcmap_ga::GaConfig;
use mcmap_obs::{Recorder, RecorderBuilder};
use mcmap_telemetry::Registry;
use std::time::Instant;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn timed_explore(b: &Benchmark, cfg: DseConfig) -> (DseOutcome, f64) {
    let t0 = Instant::now();
    let outcome = explore(&b.apps, &b.arch, cfg);
    (outcome, t0.elapsed().as_secs_f64())
}

/// The comparable fingerprint of an exploration: the full report list in
/// front order.
fn fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

fn best(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Best-of and median overhead of an observed leg over the off leg, in
/// percent; both slices hold one wall time per repetition.
fn overhead_pct(on: &[f64], off: &[f64]) -> (f64, f64) {
    let mut ratios: Vec<f64> = on.iter().zip(off).map(|(a, b)| a / b.max(1e-9)).collect();
    ratios.sort_by(f64::total_cmp);
    (
        (best(on) / best(off).max(1e-9) - 1.0) * 100.0,
        (ratios[ratios.len() / 2] - 1.0) * 100.0,
    )
}

fn write_artifact(out_dir: &str, name: &str, json: &str) {
    let path = format!("{out_dir}/{name}");
    mcmap_resilience::atomic_write(std::path::Path::new(&path), json.as_bytes())
        .unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("obs_overhead/cruise: wrote {path}");
}

fn main() {
    let b = cruise();
    let pop = env_usize("MCMAP_POP", 48);
    let gens = env_usize("MCMAP_GENS", 16);
    let threads = env_usize("MCMAP_THREADS", 1);
    let repeats = env_usize("MCMAP_OBS_REPEATS", 9).max(1);
    let max_pct = env_f64("MCMAP_OBS_MAX_OVERHEAD_PCT", 5.0);

    let trace_path =
        std::env::temp_dir().join(format!("mcmap_obs_overhead_{}.jsonl", std::process::id()));
    // The exploration every leg runs, observed by `obs`.
    let cfg = |obs| DseConfig {
        ga: GaConfig {
            population: pop,
            generations: gens,
            seed: env_u64("MCMAP_SEED", 8),
            threads,
            ..GaConfig::default()
        },
        objectives: ObjectiveMode::PowerService,
        allow_dropping: true,
        policies: Some(b.policies.clone()),
        repair_iters: 40,
        obs,
        ..DseConfig::default()
    };

    // Warm-up: populate allocator pools, page in the code, and grab the
    // reference fingerprint every leg must reproduce.
    let (reference, _) = timed_explore(&b, cfg(Recorder::default()));
    let want = fingerprint(&reference);

    // Wall times per repetition of the off, traced and metered legs.
    let mut walls: [Vec<f64>; 3] = Default::default();
    let (mut events, mut instruments) = (0u64, 0usize);
    for rep in 0..repeats {
        // Rotate the leg order: under cgroup CPU-quota throttling the
        // later legs of a repetition are systematically slower, which a
        // fixed order would misread as observer overhead.
        for k in 0..3 {
            let leg = (rep + k) % 3;
            let wall = match leg {
                0 => {
                    let (plain, t) = timed_explore(&b, cfg(Recorder::default()));
                    assert_eq!(fingerprint(&plain), want, "unobserved run diverged");
                    t
                }
                1 => {
                    let obs = RecorderBuilder::new()
                        .jsonl(&trace_path)
                        .expect("open temp trace file")
                        .build();
                    let (traced, t) = timed_explore(&b, cfg(obs));
                    assert_eq!(
                        fingerprint(&traced),
                        want,
                        "tracing changed the Pareto front"
                    );
                    events = traced.obs.emitted();
                    assert!(events > 0, "traced run produced no events");
                    t
                }
                _ => {
                    let reg = Registry::new();
                    let obs = RecorderBuilder::new()
                        .sink(Box::new(MetricsSink::new(reg.clone())))
                        .build();
                    let (metered, t) = timed_explore(&b, cfg(obs));
                    assert_eq!(
                        fingerprint(&metered),
                        want,
                        "metrics collection changed the Pareto front"
                    );
                    instruments = reg.snapshot().metrics.len();
                    assert!(instruments > 0, "metered run recorded no metrics");
                    t
                }
            };
            walls[leg].push(wall);
        }
    }
    let _ = std::fs::remove_file(&trace_path);

    let [off, traced, metered] = &walls;
    let (wall_off, wall_traced, wall_metered) = (best(off), best(traced), best(metered));
    let (traced_pct, traced_median) = overhead_pct(traced, off);
    let (metered_pct, metered_median) = overhead_pct(metered, off);
    println!(
        "obs_overhead/cruise: {wall_off:.4} s unobserved, {wall_traced:.4} s traced, \
         {wall_metered:.4} s metered (best of {repeats}; {events} events, {instruments} \
         instruments; overhead traced {traced_pct:+.2}% best-of / {traced_median:+.2}% median, \
         metered {metered_pct:+.2}% / {metered_median:+.2}%, budget {max_pct:.1}%)"
    );

    let out_dir = std::env::var("MCMAP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let head = format!(
        "{{\"benchmark\":\"cruise\",\"population\":{pop},\"generations\":{gens},\
         \"threads\":{threads},\"repeats\":{repeats}"
    );
    let tail = format!("\"max_overhead_pct\":{max_pct:.1},\"fronts_identical\":true}}\n");
    write_artifact(
        &out_dir,
        "BENCH_obs.json",
        &format!(
            "{head},\"events\":{events},\"wall_secs_untraced\":{wall_off:.6},\
             \"wall_secs_traced\":{wall_traced:.6},\"overhead_pct\":{traced_pct:.3},\
             \"median_overhead_pct\":{traced_median:.3},{tail}"
        ),
    );
    write_artifact(
        &out_dir,
        "BENCH_telemetry.json",
        &format!(
            "{head},\"instruments\":{instruments},\"wall_secs_unmetered\":{wall_off:.6},\
             \"wall_secs_metered\":{wall_metered:.6},\"overhead_pct\":{metered_pct:.3},\
             \"median_overhead_pct\":{metered_median:.3},{tail}"
        ),
    );

    assert!(
        traced_pct < max_pct,
        "tracing overhead {traced_pct:.2}% exceeds the {max_pct:.1}% budget \
         (untraced {wall_off:.4} s, traced {wall_traced:.4} s)"
    );
    assert!(
        metered_pct < max_pct,
        "metrics overhead {metered_pct:.2}% exceeds the {max_pct:.1}% budget \
         (unmetered {wall_off:.4} s, metered {wall_metered:.4} s)"
    );
}
