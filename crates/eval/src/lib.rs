//! # mcmap-eval
//!
//! A deterministic, parallel, memoizing candidate-evaluation engine for the
//! design-space exploration.
//!
//! The DSE's inner loop re-runs the full mixed-criticality WCRT analysis
//! (Algorithm 1: one scheduling-backend re-run per critical-state
//! transition) for every genome of every generation. That evaluation is a
//! *pure function* of the candidate, which buys two big levers:
//!
//! * **Batch parallelism** ([`parallel_map`], [`EvalEngine::evaluate_batch`])
//!   — a population is spread across the calling thread plus scoped
//!   `std::thread` helpers. Participants claim candidates through an atomic
//!   cursor (natural load balancing for evaluations of very different
//!   cost) and results are gathered **by index**, so the output is
//!   bit-identical regardless of the thread count: `threads` is purely a
//!   speed knob. `evaluate_batch` is the
//!   engine's one batch path: each candidate runs behind a panic-isolation
//!   boundary with bounded retries, and a candidate that keeps panicking
//!   comes back as a typed `EvalFailure` instead of unwinding the run.
//! * **Memoization** ([`ShardedCache`]) — results are cached under a
//!   128-bit content hash of (genome, evaluation context), where the
//!   context fingerprints the application set, the architecture, and the
//!   exploration config. Evolutionary populations re-visit genomes
//!   constantly (uncrossed clones, unmutated offspring, converged
//!   sub-populations), so even small caches pay for themselves. The cache
//!   is sharded to keep lock contention off the hot path and
//!   capacity-bounded with FIFO eviction so memory stays flat over
//!   arbitrarily long runs.
//!
//! The engine is generic over the cached value `V`: callers that must
//! replay side effects per evaluation (e.g. the DSE's audit counters) store
//! the replay data inside `V` and apply it after every gather, hit or miss,
//! which keeps such counters deterministic too.
//!
//! Instrumentation is free-running ([`EvalStats`]): cache hits / misses /
//! evictions, per-phase nanoseconds (key hashing + lookup, evaluation,
//! insertion, batch wall clock), and genomes/sec, renderable as text or
//! JSON for `BENCH_*.json` tracking.
//!
//! # Examples
//!
//! ```
//! use mcmap_eval::EvalEngine;
//!
//! let engine: EvalEngine<u64> = EvalEngine::new(65_536, &"ctx");
//! let genomes: Vec<u64> = (0..64).map(|i| i % 8).collect();
//! let squares = engine.evaluate_batch(&genomes, 4, 0, |_| {}, |g, _| g * g);
//! assert_eq!(squares[9], Ok(1));
//! let stats = engine.stats();
//! assert_eq!(stats.genomes, 64);
//! assert!(stats.cache_hits >= 48, "only 8 distinct genomes exist");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod engine;
mod pool;
mod stats;

pub use cache::{CacheStats, ShardedCache, CACHE_SHARDS};
pub use engine::{EvalContext, EvalEngine};
pub use pool::{parallel_map, parallel_map_caught, CaughtResult, WorkerLoad};
pub use stats::EvalStats;
