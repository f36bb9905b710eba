//! The evaluation engine: parallel map + memo cache + instrumentation.

use crate::cache::{ShardedCache, CACHE_SHARDS};
use crate::pool::parallel_map_caught_timed;
use crate::stats::{EvalStats, StatCounters};
use mcmap_obs::{Recorder, Value};
use mcmap_resilience::{panic_message, EvalFailure};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Where an evaluation attempt sits inside its batch — handed to the
/// evaluation closure of [`EvalEngine::evaluate_batch`] so fault
/// injection (and any retry-aware logic) can address candidates by stable,
/// scheduling-independent coordinates without polluting the memo keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalContext {
    /// The candidate's position in the submitted batch.
    pub index: usize,
    /// Which attempt this is (0 = first, bumped once per caught panic).
    pub attempt: u32,
}

/// A parallel, memoizing evaluator of candidate solutions.
///
/// The engine is generic over the cached value `V` — typically an objective
/// vector plus whatever per-candidate side data the caller must replay on
/// cache hits (feasibility verdicts, audit deltas). Construction binds the
/// engine to an evaluation *context* (anything [`Hash`]): candidate keys
/// mix the context fingerprint with the candidate's own content hash, so an
/// engine accidentally reused across two different problems cannot serve
/// stale results.
///
/// Determinism: for a pure evaluation function, `evaluate_batch` returns a
/// vector that is bit-identical for every thread count — workers race only
/// over *which* of them computes a value, never over what the value is or
/// where it lands.
pub struct EvalEngine<V> {
    cache: Option<Arc<ShardedCache<V>>>,
    context: u64,
    counters: StatCounters,
    obs: Recorder,
}

impl<V: Clone + Send + Sync> EvalEngine<V> {
    /// Builds an engine whose keys are scoped to `context`, with a private
    /// cache bounded to `capacity` entries (`0` disables caching: every
    /// candidate re-evaluates — the ablation / baseline mode).
    pub fn new(capacity: usize, context: &impl Hash) -> Self {
        let mut h = DefaultHasher::new();
        context.hash(&mut h);
        EvalEngine {
            cache: (capacity > 0).then(|| Arc::new(ShardedCache::new(capacity, CACHE_SHARDS))),
            context: h.finish(),
            counters: StatCounters::default(),
            obs: Recorder::default(),
        }
    }

    /// Builds an engine backed by an externally owned cache, so several
    /// engines (e.g. one per tenant of a job server) dedupe evaluations
    /// through one capacity-bounded store. Safe by construction: keys mix
    /// the per-engine context fingerprint, so two engines only ever
    /// exchange values when their contexts — and hence their evaluation
    /// functions' semantics — are identical. Each engine still keeps its
    /// own [`EvalStats`] counters; the shared store's global view is
    /// [`ShardedCache::global_stats`].
    pub fn with_shared_cache(cache: Arc<ShardedCache<V>>, context: &impl Hash) -> Self {
        let mut h = DefaultHasher::new();
        context.hash(&mut h);
        EvalEngine {
            cache: Some(cache),
            context: h.finish(),
            counters: StatCounters::default(),
            obs: Recorder::default(),
        }
    }

    /// Attaches an observability recorder: each `evaluate_batch` call is
    /// wrapped in an `eval.batch` span whose deterministic fields describe
    /// the submitted batch (size, thread budget) and whose
    /// non-deterministic fields carry the cache-traffic and latency deltas
    /// of the batch. Results are identical with or without a recorder.
    #[must_use]
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// The 128-bit memoization key of one candidate: two independent
    /// SipHash streams (distinct domain-separation prefixes) over
    /// (context, candidate). A 64-bit key would see birthday collisions
    /// around a few billion distinct candidates; at 128 bits a collision —
    /// the only event that could corrupt a result — is negligible.
    pub fn key_of<G: Hash>(&self, genome: &G) -> u128 {
        let mut hi = DefaultHasher::new();
        0xE1u8.hash(&mut hi);
        self.context.hash(&mut hi);
        genome.hash(&mut hi);
        let mut lo = DefaultHasher::new();
        0x7Bu8.hash(&mut lo);
        self.context.hash(&mut lo);
        genome.hash(&mut lo);
        ((hi.finish() as u128) << 64) | lo.finish() as u128
    }

    /// Evaluates one candidate through the cache.
    pub fn evaluate_one<G, F>(&self, genome: &G, eval: F) -> V
    where
        G: Hash,
        F: Fn(&G) -> V,
    {
        let t0 = Instant::now();
        let key = self.key_of(genome);
        let cached = self.cache.as_ref().and_then(|c| c.get(key));
        self.counters
            .add(&self.counters.lookup_nanos, t0.elapsed().as_nanos() as u64);
        if let Some(v) = cached {
            self.counters.add(&self.counters.hits, 1);
            return v;
        }

        let t1 = Instant::now();
        let v = eval(genome);
        self.counters
            .add(&self.counters.eval_nanos, t1.elapsed().as_nanos() as u64);
        self.counters.add(&self.counters.misses, 1);

        if let Some(cache) = &self.cache {
            let t2 = Instant::now();
            let evicted = cache.insert(key, v.clone());
            self.counters
                .add(&self.counters.insert_nanos, t2.elapsed().as_nanos() as u64);
            self.counters.add(&self.counters.evictions, evicted as u64);
        }
        v
    }

    /// Evaluates a batch across `threads` workers (0 = one per core),
    /// returning results in input order regardless of thread count.
    ///
    /// Each candidate is evaluated behind a panic-isolation boundary: a
    /// panicking evaluation is caught, retried up to `retries` more times,
    /// and — if every attempt fails — degraded into a typed
    /// [`EvalFailure`] instead of unwinding the run.
    ///
    /// The evaluation closure receives an [`EvalContext`] naming the
    /// candidate's batch position and attempt number; memo keys are
    /// content-only, so retried successes are cached normally and failed
    /// attempts are never cached. Each degraded candidate emits an
    /// `eval.failure` counter (in batch order, on the calling thread, so
    /// traces stay deterministic for any thread count).
    ///
    /// `inject` is a fault-injection hook (pass `|_| {}` for none). It runs
    /// inside the panic-isolation boundary but **before** the memo-cache
    /// lookup, once per attempt. This placement matters for deterministic
    /// chaos testing: a hook inside the evaluation closure would be
    /// skipped on cache hits, so whether an injected fault fires could
    /// depend on cache capacity and on which worker first filled a shared
    /// key — the hook here fires at exactly its addressed
    /// `(index, attempt)` coordinates regardless.
    pub fn evaluate_batch<G, F, I>(
        &self,
        genomes: &[G],
        threads: usize,
        retries: u32,
        inject: I,
        eval: F,
    ) -> Vec<Result<V, EvalFailure>>
    where
        G: Hash + Sync,
        F: Fn(&G, EvalContext) -> V + Sync,
        I: Fn(EvalContext) + Sync,
    {
        let t0 = Instant::now();
        let before = self.obs.enabled().then(|| self.stats());
        // The thread budget is a speed knob that must not shape the
        // canonical trace, so it rides in the non-deterministic payload.
        let mut span = self
            .obs
            .span("eval.batch", &[("genomes", Value::from(genomes.len()))]);
        span.nondet("threads", threads);

        let mut slots: Vec<Option<Result<V, EvalFailure>>> = std::iter::repeat_with(|| None)
            .take(genomes.len())
            .collect();
        let mut pending: Vec<usize> = (0..genomes.len()).collect();
        let mut attempt: u32 = 0;
        while !pending.is_empty() {
            let wave: Vec<(usize, &G)> = pending.iter().map(|&i| (i, &genomes[i])).collect();
            let (outcomes, loads) = parallel_map_caught_timed(&wave, threads, |&(index, g)| {
                let ctx = EvalContext { index, attempt };
                inject(ctx);
                self.evaluate_one(g, |g| eval(g, ctx))
            });
            self.counters.merge_loads(&loads);
            let mut still = Vec::new();
            for (&(index, g), outcome) in wave.iter().zip(outcomes) {
                match outcome {
                    Ok(v) => slots[index] = Some(Ok(v)),
                    Err(payload) => {
                        self.counters.add(&self.counters.panics, 1);
                        if attempt < retries {
                            still.push(index);
                        } else {
                            self.counters.add(&self.counters.degraded, 1);
                            slots[index] = Some(Err(EvalFailure {
                                candidate: (self.key_of(g) >> 64) as u64,
                                index,
                                attempts: attempt + 1,
                                message: panic_message(payload.as_ref()),
                            }));
                        }
                    }
                }
            }
            pending = still;
            attempt += 1;
        }
        self.counters.add(&self.counters.batches, 1);
        self.counters
            .add(&self.counters.genomes, genomes.len() as u64);
        self.counters
            .add(&self.counters.wall_nanos, t0.elapsed().as_nanos() as u64);

        let results: Vec<Result<V, EvalFailure>> = slots
            .into_iter()
            .map(|s| s.expect("every index resolved"))
            .collect();
        let failures = results.iter().filter(|r| r.is_err()).count();
        for failure in results.iter().filter_map(|r| r.as_ref().err()) {
            self.obs.counter(
                "eval.failure",
                &[
                    ("candidate", Value::from(failure.candidate)),
                    ("index", Value::from(failure.index)),
                    ("attempts", Value::from(failure.attempts)),
                ],
            );
        }
        if failures > 0 {
            span.field("failures", failures);
        }
        if let Some(before) = before {
            // Which worker computes vs. reuses a value is a race: the cache
            // split and the phase latencies are non-deterministic payload.
            let after = self.stats();
            span.nondet("cache_hits", after.cache_hits - before.cache_hits);
            span.nondet("cache_misses", after.cache_misses - before.cache_misses);
            span.nondet("evictions", after.evictions - before.evictions);
            span.nondet("lookup_ns", after.lookup_nanos - before.lookup_nanos);
            span.nondet("eval_ns", after.eval_nanos - before.eval_nanos);
            span.nondet("insert_ns", after.insert_nanos - before.insert_nanos);
        }
        span.end();
        results
    }

    /// Snapshot of the instrumentation counters.
    pub fn stats(&self) -> EvalStats {
        let entries = self.cache.as_ref().map_or(0, |c| c.len()) as u64;
        self.counters.snapshot(entries)
    }
}

impl<V> std::fmt::Debug for EvalEngine<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalEngine")
            .field("context", &self.context)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn engine(capacity: usize) -> EvalEngine<u64> {
        EvalEngine::new(capacity, &"test-context")
    }

    /// A fault-free batch: no retries, no injection, every result unwrapped.
    fn batch<F: Fn(&u64) -> u64 + Sync>(
        e: &EvalEngine<u64>,
        genomes: &[u64],
        threads: usize,
        eval: F,
    ) -> Vec<u64> {
        e.evaluate_batch(genomes, threads, 0, |_| {}, |g, _| eval(g))
            .into_iter()
            .map(|r| r.expect("fault-free"))
            .collect()
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let genomes: Vec<u64> = (0..200).map(|i| i * 31 % 17).collect();
        let reference = batch(&engine(256), &genomes, 1, |g| g.wrapping_mul(*g) + 1);
        for threads in [2, 4, 8] {
            let e = engine(256);
            assert_eq!(
                batch(&e, &genomes, threads, |g| g.wrapping_mul(*g) + 1),
                reference
            );
            assert_eq!(e.stats().genomes, 200);
            assert_eq!(e.stats().batches, 1);
        }
    }

    #[test]
    fn cache_avoids_recomputation() {
        let calls = AtomicUsize::new(0);
        let e = engine(1024);
        let genomes = vec![1u64, 2, 3, 1, 2, 3, 1, 2, 3];
        let out = batch(&e, &genomes, 1, |g| {
            calls.fetch_add(1, Ordering::Relaxed);
            g + 100
        });
        assert_eq!(out, vec![101, 102, 103, 101, 102, 103, 101, 102, 103]);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "3 distinct genomes");
        let s = e.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (6, 3));
        assert_eq!(s.cache_entries, 3);
        assert!(s.hit_rate() > 0.66 && s.hit_rate() < 0.67);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let calls = AtomicUsize::new(0);
        let e = engine(0);
        let _ = batch(&e, &[5u64, 5, 5], 1, |g| {
            calls.fetch_add(1, Ordering::Relaxed);
            *g
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn distinct_contexts_produce_distinct_keys() {
        let a: EvalEngine<u64> = EvalEngine::new(65_536, &"ctx-a");
        let b: EvalEngine<u64> = EvalEngine::new(65_536, &"ctx-b");
        assert_ne!(a.key_of(&42u64), b.key_of(&42u64));
        assert_eq!(a.key_of(&42u64), a.key_of(&42u64));
        assert_ne!(a.key_of(&42u64), a.key_of(&43u64));
    }

    #[test]
    fn eviction_pressure_is_counted_and_bounded() {
        let e = engine(8);
        let genomes: Vec<u64> = (0..1000).collect();
        let _ = batch(&e, &genomes, 1, |g| *g);
        let s = e.stats();
        assert_eq!(s.cache_misses, 1000);
        assert!(s.evictions > 900, "tiny cache must churn: {s:?}");
        assert!(s.cache_entries <= 16, "entries bounded near capacity");
    }

    #[test]
    fn isolated_batch_degrades_poisoned_candidates_without_unwinding() {
        let genomes: Vec<u64> = (0..30).collect();
        for threads in [1, 4] {
            let e = engine(256);
            let out = e.evaluate_batch(
                &genomes,
                threads,
                0,
                |_| {},
                |g, _ctx| {
                    assert!(g % 9 != 4, "poison {g}");
                    g + 1
                },
            );
            for (g, r) in genomes.iter().zip(&out) {
                if g % 9 == 4 {
                    let f = r.as_ref().expect_err("poisoned");
                    assert_eq!(f.index, *g as usize);
                    assert_eq!(f.attempts, 1);
                    assert!(f.message.contains(&format!("poison {g}")));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), g + 1);
                }
            }
            let s = e.stats();
            assert_eq!(s.degraded, 3, "genomes 4, 13, 22 within 0..30");
            assert_eq!(s.panics, 3);
            assert_eq!(s.genomes, 30);
        }
    }

    #[test]
    fn isolated_batch_retries_rescue_transient_panics() {
        use std::sync::atomic::AtomicUsize;
        let first_attempts = AtomicUsize::new(0);
        let e = engine(256);
        let genomes: Vec<u64> = (0..10).collect();
        let out = e.evaluate_batch(
            &genomes,
            2,
            1,
            |_| {},
            |g, ctx| {
                if ctx.attempt == 0 && g % 3 == 0 {
                    first_attempts.fetch_add(1, Ordering::Relaxed);
                    panic!("transient");
                }
                g * 2
            },
        );
        let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, genomes.iter().map(|g| g * 2).collect::<Vec<_>>());
        assert_eq!(first_attempts.load(Ordering::Relaxed), 4);
        let s = e.stats();
        assert_eq!(s.panics, 4, "caught on first attempt");
        assert_eq!(s.degraded, 0, "all rescued by the retry");
    }

    #[test]
    fn failed_attempts_are_never_cached() {
        let calls = AtomicUsize::new(0);
        let e = engine(256);
        let poisoned = [7u64];
        let out = e.evaluate_batch(
            &poisoned,
            1,
            2,
            |_| {},
            |_g, _ctx| -> u64 {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("always")
            },
        );
        assert!(out[0].is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 3, "1 + 2 retries");
        // The same genome evaluated cleanly afterwards is a miss, not a
        // stale hit of a poisoned entry.
        let ok = e.evaluate_batch(&poisoned, 1, 0, |_| {}, |g, _ctx| g + 1);
        assert_eq!(*ok[0].as_ref().unwrap(), 8);
    }

    #[test]
    fn shared_cache_dedupes_across_engines_with_equal_context() {
        let store: Arc<ShardedCache<u64>> = Arc::new(ShardedCache::new(256, 4));
        let calls = AtomicUsize::new(0);
        let genomes = vec![1u64, 2, 3];
        let a = EvalEngine::with_shared_cache(Arc::clone(&store), &"tenant-ctx");
        let b = EvalEngine::with_shared_cache(Arc::clone(&store), &"tenant-ctx");
        let eval = |g: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            g * 10
        };
        let first = batch(&a, &genomes, 1, eval);
        let second = batch(&b, &genomes, 1, eval);
        assert_eq!(first, second);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "b reuses a's work");
        // Per-engine counters stay per-tenant; the store sees the union.
        assert_eq!(a.stats().cache_misses, 3);
        assert_eq!(b.stats().cache_hits, 3);
        let g = store.global_stats();
        assert_eq!((g.hits, g.misses, g.insertions), (3, 3, 3));
        // A different context on the same store must never exchange values.
        let c = EvalEngine::with_shared_cache(Arc::clone(&store), &"other-ctx");
        let _ = batch(&c, &genomes, 1, eval);
        assert_eq!(c.stats().cache_hits, 0);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
    }
}
