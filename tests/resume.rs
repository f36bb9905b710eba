//! Kill-and-resume determinism suite: interrupting an exploration at *any*
//! generation boundary and resuming from its checkpoint must reconverge to
//! the exact run an uninterrupted process would have produced — same
//! Pareto front, same audit counters, same canonical trace — regardless of
//! the `--threads` or `--cache-cap` the two halves ran with. A proptest
//! leg round-trips the checkpoint itself: bytes → value → bytes must be
//! the identity, so every `f64` (including NaN histories) survives
//! bit-exactly.

use std::path::{Path, PathBuf};

use mcmap::benchmarks::cruise;
use mcmap::core::{
    explore, read_checkpoint, write_checkpoint, DseConfig, DseOutcome, ObjectiveMode,
    ResilienceConfig,
};
use mcmap::ga::GaConfig;
use mcmap::obs::{canonical_trace, stitch_traces, Event, Recorder};
use proptest::prelude::*;

const GENS: usize = 4;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcmap_resume_{}_{name}", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(mcmap::resilience::backup_path(path));
}

struct Run {
    threads: usize,
    cache_cap: usize,
    seed: u64,
    traced: bool,
    resilience: ResilienceConfig,
}

impl Run {
    fn go(self) -> DseOutcome {
        let b = cruise();
        explore(
            &b.apps,
            &b.arch,
            DseConfig {
                ga: GaConfig {
                    population: 12,
                    generations: GENS,
                    seed: self.seed,
                    threads: self.threads,
                    ..GaConfig::default()
                },
                objectives: ObjectiveMode::PowerService,
                allow_dropping: true,
                audit: true,
                policies: Some(b.policies.clone()),
                repair_iters: 40,
                cache_cap: self.cache_cap,
                obs: if self.traced {
                    Recorder::ring(1 << 18)
                } else {
                    Recorder::default()
                },
                resilience: self.resilience,
                ..DseConfig::default()
            },
        )
    }
}

fn fingerprint(o: &DseOutcome) -> String {
    format!("{:?}", o.reports)
}

/// Stitches an interrupted trace with its resumed continuation the way
/// `salvage_trace` does on disk: the part-1 prefix up to the checkpoint's
/// sequence high-water mark (dropping the interrupted process's trailing
/// end-of-run events), then part 2 (whose re-emitted preamble dedups away).
fn stitched(part1: &DseOutcome, part2: &DseOutcome, trace_seq: u64) -> Vec<Event> {
    let prefix: Vec<Event> = part1
        .obs
        .events()
        .into_iter()
        .filter(|e| e.seq <= trace_seq)
        .collect();
    stitch_traces(&[prefix, part2.obs.events()])
}

#[test]
fn kill_at_every_generation_resumes_bit_identically() {
    let baseline_path = scratch("sweep_baseline.ckpt");
    cleanup(&baseline_path);
    let baseline = Run {
        threads: 2,
        cache_cap: 65_536,
        seed: 8,
        traced: true,
        resilience: ResilienceConfig {
            checkpoint: Some(baseline_path.clone()),
            ..ResilienceConfig::default()
        },
    }
    .go();
    let baseline_trace = canonical_trace(&baseline.obs.events());

    // k = 1 (first boundary after the initial population), mid, and the
    // final generation (resume is then a pure no-op replay). A fresh run's
    // slice `k + 1` ends at generation `k`.
    for k in [1, GENS / 2, GENS] {
        let path = scratch(&format!("sweep_k{k}.ckpt"));
        cleanup(&path);

        let part1 = Run {
            threads: 2,
            cache_cap: 65_536,
            seed: 8,
            traced: true,
            resilience: ResilienceConfig {
                checkpoint: Some(path.clone()),
                stop_after_slice: Some(k + 1),
                ..ResilienceConfig::default()
            },
        }
        .go();
        assert_eq!(
            part1.interrupted,
            k < GENS,
            "stopping before the budget is spent must be reported"
        );

        let ckpt = read_checkpoint(&path).expect("part 1 left a valid checkpoint");
        assert_eq!(ckpt.generation, k);

        let part2 = Run {
            threads: 2,
            cache_cap: 65_536,
            seed: 8,
            traced: true,
            resilience: ResilienceConfig {
                checkpoint: Some(path.clone()),
                resume: Some(path.clone()),
                ..ResilienceConfig::default()
            },
        }
        .go();
        assert_eq!(part2.resumed_from, Some(k));
        assert_eq!(
            fingerprint(&part2),
            fingerprint(&baseline),
            "kill at generation {k}: resumed front differs from the uninterrupted run"
        );
        assert_eq!(
            part2.audit, baseline.audit,
            "kill at generation {k}: audit counters differ"
        );
        assert_eq!(part2.result.evaluations, baseline.result.evaluations);
        assert_eq!(
            canonical_trace(&stitched(&part1, &part2, ckpt.trace_seq)),
            baseline_trace,
            "kill at generation {k}: stitched trace differs from the uninterrupted run"
        );
        cleanup(&path);
    }
    cleanup(&baseline_path);
}

#[test]
fn resume_is_independent_of_threads_and_cache_capacity() {
    let baseline = Run {
        threads: 1,
        cache_cap: 65_536,
        seed: 9,
        traced: false,
        resilience: ResilienceConfig::default(),
    }
    .go();

    let path = scratch("knobs.ckpt");
    cleanup(&path);
    let part1 = Run {
        threads: 1,
        cache_cap: 65_536,
        seed: 9,
        traced: false,
        resilience: ResilienceConfig {
            checkpoint: Some(path.clone()),
            stop_after_slice: Some(3),
            ..ResilienceConfig::default()
        },
    }
    .go();
    assert!(part1.interrupted);

    // Resume with a different worker count and the memo cache disabled:
    // both are pure speed knobs, so the reconverged front must not move.
    let part2 = Run {
        threads: 4,
        cache_cap: 0,
        seed: 9,
        traced: false,
        resilience: ResilienceConfig {
            resume: Some(path.clone()),
            ..ResilienceConfig::default()
        },
    }
    .go();
    assert_eq!(fingerprint(&part2), fingerprint(&baseline));
    assert_eq!(part2.audit, baseline.audit);
    cleanup(&path);
}

/// The multi-tenant scheduling claim behind `mcmap-serve`, proved at the
/// library level: two jobs timesliced one generation at a time through the
/// same process — each slice a checkpoint-resume-stop cycle — produce the
/// same fronts, audit counters, and canonical traces as each job run solo
/// and uninterrupted. The interleaving itself is what's adversarial here:
/// every boundary of job A has job B's slices (and their allocator/cache
/// side effects) between it and the next.
#[test]
fn two_interleaved_jobs_match_their_solo_runs_at_every_slice_boundary() {
    let seeds = [8u64, 9u64];
    // The solo references checkpoint too (without ever stopping): the
    // `resilience.checkpoint` boundary marks are part of the trace, so the
    // comparison needs them on both sides.
    let solos: Vec<DseOutcome> = seeds
        .iter()
        .map(|&seed| {
            let path = scratch(&format!("interleave_solo_{seed}.ckpt"));
            cleanup(&path);
            let out = Run {
                threads: 2,
                cache_cap: 65_536,
                seed,
                traced: true,
                resilience: ResilienceConfig {
                    checkpoint: Some(path.clone()),
                    ..ResilienceConfig::default()
                },
            }
            .go();
            cleanup(&path);
            out
        })
        .collect();
    let solo_traces: Vec<String> = solos
        .iter()
        .map(|o| canonical_trace(&o.obs.events()))
        .collect();

    let paths = [scratch("interleave_a.ckpt"), scratch("interleave_b.ckpt")];
    for p in &paths {
        cleanup(p);
    }
    let mut parts: [Vec<Vec<Event>>; 2] = [Vec::new(), Vec::new()];
    let mut finals: [Option<DseOutcome>; 2] = [None, None];
    let mut slices = [0usize; 2];
    while finals.iter().any(Option::is_none) {
        for j in 0..2 {
            if finals[j].is_some() {
                continue;
            }
            let out = Run {
                threads: 2,
                cache_cap: 65_536,
                seed: seeds[j],
                traced: true,
                resilience: ResilienceConfig {
                    checkpoint: Some(paths[j].clone()),
                    resume: paths[j].exists().then(|| paths[j].clone()),
                    stop_after_slice: Some(1),
                    ..ResilienceConfig::default()
                },
            }
            .go();
            slices[j] += 1;
            assert!(slices[j] <= GENS + 1, "job {j} never finished");
            if out.interrupted {
                // Keep only what the slice's checkpoint vouches for — the
                // same trim the server applies to the on-disk trace.
                let ckpt = read_checkpoint(&paths[j]).expect("slice checkpoint");
                parts[j].push(
                    out.obs
                        .events()
                        .into_iter()
                        .filter(|e| e.seq <= ckpt.trace_seq)
                        .collect(),
                );
            } else {
                parts[j].push(out.obs.events());
                finals[j] = Some(out);
            }
        }
    }
    for j in 0..2 {
        assert_eq!(
            slices[j],
            GENS + 1,
            "one-generation slices must walk every boundary exactly once"
        );
        let fin = finals[j].take().expect("finished above");
        assert_eq!(
            fingerprint(&fin),
            fingerprint(&solos[j]),
            "interleaved job {j}: front differs from its solo run"
        );
        assert_eq!(
            fin.audit, solos[j].audit,
            "interleaved job {j}: audit counters differ from its solo run"
        );
        assert_eq!(
            canonical_trace(&stitch_traces(&parts[j])),
            solo_traces[j],
            "interleaved job {j}: stitched trace differs from its solo run"
        );
        cleanup(&paths[j]);
    }
}

proptest! {
    // Each case is a small exploration plus a resume, so keep the count
    // modest — the fixed sweep above covers the boundaries exhaustively.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Checkpoint serialization is the identity on its own output:
    /// bytes → value → bytes is byte-for-byte stable for checkpoints
    /// produced at arbitrary seeds and kill points, and resuming from the
    /// re-encoded copy reconverges to the uninterrupted run.
    #[test]
    fn checkpoint_round_trips_and_resumes(
        seed in 0u64..1_000,
        kill in 1usize..=GENS,
        threads in 1usize..5,
    ) {
        let path = scratch(&format!("prop_{seed}_{kill}.ckpt"));
        cleanup(&path);
        let _part1 = Run {
            threads,
            cache_cap: 65_536,
            seed,
            traced: false,
            resilience: ResilienceConfig {
                checkpoint: Some(path.clone()),
                stop_after_slice: Some(kill + 1),
                ..ResilienceConfig::default()
            },
        }
        .go();

        let bytes = std::fs::read(&path).expect("checkpoint written");
        let decoded = read_checkpoint(&path).expect("checkpoint valid");
        let reencoded = scratch(&format!("prop_{seed}_{kill}_reenc.ckpt"));
        cleanup(&reencoded);
        write_checkpoint(&reencoded, &decoded).expect("re-encode");
        let bytes2 = std::fs::read(&reencoded).expect("re-encoded checkpoint");
        prop_assert_eq!(&bytes, &bytes2, "decode ∘ encode must be the identity");

        let baseline = Run {
            threads,
            cache_cap: 65_536,
            seed,
            traced: false,
            resilience: ResilienceConfig::default(),
        }
        .go();
        let resumed = Run {
            threads,
            cache_cap: 65_536,
            seed,
            traced: false,
            resilience: ResilienceConfig {
                resume: Some(reencoded.clone()),
                ..ResilienceConfig::default()
            },
        }
        .go();
        prop_assert_eq!(resumed.resumed_from, Some(kill));
        prop_assert_eq!(fingerprint(&resumed), fingerprint(&baseline));
        cleanup(&path);
        cleanup(&reencoded);
    }
}
