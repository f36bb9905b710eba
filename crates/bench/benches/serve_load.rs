//! Load gate for the `mcmap-serve` job service.
//!
//! Boots an in-process server on a loopback port, then slams it with
//! `MCMAP_SERVE_JOBS` concurrent tenants (default 100), each on its own
//! connection: submit a spec, stream progress, and wait for completion.
//! `MCMAP_SERVE_SHARED` of the tenants (default 24) submit the *identical*
//! spec — the multi-tenant dedupe case the server-wide evaluation cache
//! exists for — while the rest use distinct seeds and therefore distinct
//! cache contexts.
//!
//! Gated assertions:
//!
//! 1. **zero failed jobs** — every submission reaches `completed`;
//! 2. **cross-job sharing works** — the server-wide cache reports a
//!    nonzero hit count (identical tenants dedupe against each other), and
//!    the identical tenants' fronts are byte-identical;
//! 3. the protocol survives the fan-out: every stream sees the final
//!    generation and every status document carries per-job counters.
//!
//! Reported metrics: sustained throughput (completed jobs per second) and
//! the p50/p99 of the submit-to-first-progress-frame latency — the time a
//! tenant waits before seeing its job actually scheduled, which is the
//! fairness number a slice-based round-robin is supposed to keep bounded.
//! A machine-readable summary goes to `results/BENCH_serve.json`
//! (directory override: `MCMAP_BENCH_OUT`). Budget knobs: `MCMAP_SERVE_POP`
//! (default 8), `MCMAP_SERVE_GENS` (default 3), `MCMAP_SERVE_WORKERS`
//! (default 0 = one per core), `MCMAP_SERVE_SLICE` (default 1 — the
//! finest, most adversarial interleaving).

use mcmap_bench::{env_usize, write_artifact};
use mcmap_serve::{Client, JobSpec, ServeConfig};
use std::time::Instant;

fn main() {
    let jobs = env_usize("MCMAP_SERVE_JOBS", 100);
    let shared = env_usize("MCMAP_SERVE_SHARED", 24).min(jobs);
    let pop = env_usize("MCMAP_SERVE_POP", 8);
    let gens = env_usize("MCMAP_SERVE_GENS", 3);
    let workers = env_usize("MCMAP_SERVE_WORKERS", 0);
    let slice = env_usize("MCMAP_SERVE_SLICE", 1).max(1);

    let jobs_dir = std::env::temp_dir().join(format!("mcmap_serve_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&jobs_dir);
    let handle = mcmap_serve::server::spawn_local(ServeConfig {
        jobs_dir: jobs_dir.clone(),
        workers,
        slice,
        ..ServeConfig::default()
    })
    .expect("start in-process server");
    let addr = handle.addr.to_string();

    // One tenant per thread: submit, stream progress, wait for completion.
    let t0 = Instant::now();
    let tenants: Vec<std::thread::JoinHandle<(String, String, f64, bool)>> = (0..jobs)
        .map(|i| {
            let addr = addr.clone();
            let spec = JobSpec {
                benchmark: "cruise".into(),
                population: pop,
                generations: gens,
                // The first `shared` tenants are identical (same seed ⇒
                // same cache context); the rest are distinct.
                seed: if i < shared { 8 } else { 1000 + i as u64 },
            };
            let final_gen = gens as u64;
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                let submitted = Instant::now();
                let id = c.submit(&spec).expect("submit");
                let mut first_frame = None;
                let mut saw_final = false;
                let state = c
                    .stream(&id, |g| {
                        first_frame.get_or_insert_with(|| submitted.elapsed().as_secs_f64());
                        saw_final |= g == final_gen;
                    })
                    .expect("stream");
                let latency = first_frame.unwrap_or_else(|| submitted.elapsed().as_secs_f64());
                (id, state, latency, saw_final)
            })
        })
        .collect();
    let results: Vec<(String, String, f64, bool)> = tenants
        .into_iter()
        .map(|t| t.join().expect("tenant"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();

    let failed: Vec<&(String, String, f64, bool)> = results
        .iter()
        .filter(|(_, s, _, _)| s != "completed")
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {jobs} jobs did not complete: {:?}",
        failed.len(),
        failed
            .iter()
            .map(|(id, s, _, _)| (id, s))
            .collect::<Vec<_>>()
    );
    assert!(
        results.iter().all(|(_, _, _, saw)| *saw),
        "some tenant's stream never reported the final generation"
    );

    let mut control = Client::connect(&addr).expect("connect control");
    // The identical tenants must agree byte-for-byte, and their per-job
    // status documents must expose the engine counters.
    let shared_ids: Vec<&str> = results[..shared]
        .iter()
        .map(|(id, ..)| id.as_str())
        .collect();
    let reference_front = control
        .verb_raw("front", Some(shared_ids[0]))
        .expect("front");
    for id in &shared_ids[1..] {
        assert_eq!(
            control.verb_raw("front", Some(id)).expect("front"),
            reference_front,
            "identical tenants diverged"
        );
    }
    let status = control.status(shared_ids[0]).expect("status");
    assert!(
        status
            .get("eval")
            .and_then(|e| e.get("genomes"))
            .and_then(|v| v.as_u64())
            .is_some(),
        "status document lacks per-job eval counters"
    );

    // The metrics verb must expose per-verb request latencies and per-job
    // slice-duration histograms with quantiles after real load.
    let metrics = control.metrics().expect("metrics");
    let entries = match metrics.get("metrics") {
        Some(mcmap_obs::Json::Arr(a)) => a.as_slice(),
        other => panic!("metrics snapshot is not an array: {other:?}"),
    };
    let histogram_p95 = |name: &str| {
        entries
            .iter()
            .filter(|m| m.get("name").and_then(|v| v.as_str()) == Some(name))
            .filter_map(|m| {
                m.get("value")
                    .and_then(|v| v.get("p95"))
                    .and_then(|v| v.as_u64())
            })
            .max()
    };
    assert!(
        histogram_p95("serve.request_ns").is_some(),
        "metrics lack per-verb request-latency quantiles under load"
    );
    assert!(
        histogram_p95("serve.slice_ns").is_some(),
        "metrics lack slice-duration quantiles under load"
    );
    let prom = control.metrics_prometheus().expect("prometheus");
    assert!(
        prom.contains("# TYPE mcmap_serve_request_ns histogram"),
        "prometheus exposition lacks the request-latency family"
    );

    let stats = control.stats().expect("stats");
    assert!(
        stats
            .get("dropped_events")
            .and_then(|v| v.as_u64())
            .is_some(),
        "stats document lacks the dropped-events counter"
    );
    let cache = stats.get("cache").expect("stats.cache");
    let hits = cache.get("hits").and_then(|v| v.as_u64()).unwrap_or(0);
    let misses = cache.get("misses").and_then(|v| v.as_u64()).unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        hits > 0,
        "cross-job cache saw no hits across {shared} identical tenants"
    );

    let mut latencies: Vec<f64> = results.iter().map(|(_, _, l, _)| *l).collect();
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let throughput = jobs as f64 / wall.max(1e-9);
    println!(
        "serve_load/cruise: {jobs} jobs ({shared} identical) in {wall:.2} s — \
         {throughput:.1} jobs/s, first-progress p50 {p50:.3} s, p99 {p99:.3} s, \
         cross-job cache hit rate {:.1}% ({hits} hits)",
        hit_rate * 100.0
    );

    let json = format!(
        "{{\"benchmark\":\"cruise\",\"jobs\":{jobs},\"shared_jobs\":{shared},\
         \"population\":{pop},\"generations\":{gens},\"slice\":{slice},\
         \"wall_secs\":{wall:.6},\"throughput_jobs_per_sec\":{throughput:.3},\
         \"first_progress_p50_secs\":{p50:.6},\"first_progress_p99_secs\":{p99:.6},\
         \"cache_hits\":{hits},\"cache_misses\":{misses},\
         \"cache_hit_rate\":{hit_rate:.6},\"failed_jobs\":0,\
         \"shared_fronts_identical\":true}}\n"
    );
    write_artifact("BENCH_serve.json", &json);

    control.shutdown().expect("shutdown");
    handle.thread.join().expect("accept loop");
    let _ = std::fs::remove_dir_all(&jobs_dir);
}
