//! Overhead gate for the two observers of an exploration: the `mcmap-obs`
//! tracing layer and the `mcmap-telemetry` metrics it folds into.
//!
//! [`mcmap_bench::ab`] runs the same Cruise exploration as three legs per
//! round, in rotating order: unobserved (a disabled [`Recorder`], the
//! no-op fast path), traced (the production `--trace` configuration: one
//! JSONL file sink), and metered (a recorder whose only sink is a
//! [`MetricsSink`] folding every event into a [`Registry`]). Each
//! observer's gated metric is the **median of its per-round wall ratio**
//! to the unobserved leg of the same round. Every run asserts that the
//! Pareto front is bit-identical to the unobserved one (observation is
//! read-only) and that the run recorded something (events, instruments);
//! the bench asserts that each overhead stays below **5 %**.
//!
//! Summaries go to `results/BENCH_obs.json` (tracing) and
//! `results/BENCH_telemetry.json` (metrics); directory override:
//! `MCMAP_BENCH_OUT`. Budget knobs: `MCMAP_POP` (default 48), `MCMAP_GENS`
//! (default 16), `MCMAP_THREADS` (default 1 — serial timing is the least
//! noisy).

use mcmap_bench::{ab, env_u64, env_usize, front_fingerprint, write_artifact};
use mcmap_benchmarks::cruise;
use mcmap_core::{explore, DseConfig, MetricsSink, ObjectiveMode};
use mcmap_ga::GaConfig;
use mcmap_obs::{Recorder, RecorderBuilder};
use mcmap_telemetry::Registry;

/// The overhead budget of each observer, in percent.
const MAX_OVERHEAD_PCT: f64 = 5.0;

fn main() {
    let b = cruise();
    let pop = env_usize("MCMAP_POP", 48);
    let gens = env_usize("MCMAP_GENS", 16);
    let threads = env_usize("MCMAP_THREADS", 1);

    let trace_path =
        std::env::temp_dir().join(format!("mcmap_obs_overhead_{}.jsonl", std::process::id()));
    // The exploration every leg runs, observed by `obs`.
    let explore_with = |obs| {
        explore(
            &b.apps,
            &b.arch,
            DseConfig {
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
            },
        )
    };

    // One recorder per observer, built before the timed runs and shared
    // by all of them, as one `--trace` file or one metrics registry serves
    // a whole run.
    let traced = RecorderBuilder::new()
        .jsonl(&trace_path)
        .expect("open temp trace file")
        .build();
    let reg = Registry::new();
    let metered = RecorderBuilder::new()
        .sink(Box::new(MetricsSink::new(reg.clone())))
        .build();

    // Warm-up: populate allocator pools, page in the code, and grab the
    // reference fingerprint every run must reproduce and the events one
    // traced run emits.
    let want = front_fingerprint(&explore_with(Recorder::default()));
    let observed_run = |obs: &Recorder, what: &str| {
        let before = obs.emitted();
        let outcome = explore_with(obs.clone());
        assert_eq!(
            front_fingerprint(&outcome),
            want,
            "{what} changed the front"
        );
        assert!(obs.emitted() > before, "{what} observed no events");
    };
    observed_run(&traced, "tracing");
    observed_run(&metered, "metrics collection");
    let events = traced.emitted();

    let m = ab::measure(&mut [
        &mut || {
            let plain = explore_with(Recorder::default());
            assert_eq!(front_fingerprint(&plain), want, "unobserved run diverged");
        },
        &mut || observed_run(&traced, "tracing"),
        &mut || observed_run(&metered, "metrics collection"),
    ]);
    let instruments = reg.snapshot().metrics.len();
    assert!(instruments > 0, "metered runs recorded no metrics");
    let _ = std::fs::remove_file(&trace_path);

    let overhead = |leg| (m.ratio(leg).median - 1.0) * 100.0;
    let (traced_pct, metered_pct) = (overhead(1), overhead(2));
    println!(
        "obs_overhead/cruise: {:.4} s unobserved, {:.4} s traced, {:.4} s metered \
         (median walls; {events} events, {instruments} instruments; median paired overhead \
         traced {traced_pct:+.2}%, metered {metered_pct:+.2}%, budget {MAX_OVERHEAD_PCT:.1}%, \
         {} retries)",
        m.wall(0),
        m.wall(1),
        m.wall(2),
        m.retries.len(),
    );

    let head = format!(
        "{{\"benchmark\":\"cruise\",\"population\":{pop},\"generations\":{gens},\
         \"threads\":{threads}"
    );
    let tail = format!("\"max_overhead_pct\":{MAX_OVERHEAD_PCT:.1},\"fronts_identical\":true}}\n");
    write_artifact(
        "BENCH_obs.json",
        &format!(
            "{head},\"events\":{events},{},\"overhead_pct\":{traced_pct:.3},{tail}",
            m.json(1, ["untraced", "traced"])
        ),
    );
    write_artifact(
        "BENCH_telemetry.json",
        &format!(
            "{head},\"instruments\":{instruments},{},\"overhead_pct\":{metered_pct:.3},{tail}",
            m.json(2, ["unmetered", "metered"])
        ),
    );

    for (what, pct) in [("tracing", traced_pct), ("metrics", metered_pct)] {
        assert!(
            pct < MAX_OVERHEAD_PCT,
            "{what} overhead {pct:.2}% exceeds the {MAX_OVERHEAD_PCT:.1}% budget"
        );
    }
}
