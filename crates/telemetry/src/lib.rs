//! # mcmap-telemetry
//!
//! Fleet-grade metrics for the mcmap DSE stack: counters, gauges, and
//! log2-bucketed histograms behind a cloneable [`Registry`] handle, with
//! deterministic JSON snapshots and Prometheus text exposition.
//! Dependency-free (std only).
//!
//! The DSE stack writes no metric by hand: `mcmap_core::MetricsSink`
//! folds its `mcmap-obs` events into a registry (`eval.batch`,
//! `eval.batch.genomes`). The job server adds its own `serve.*` series.
//!
//! ## Determinism contract
//!
//! The crate extends `mcmap-obs`'s deterministic-vs-nondeterministic
//! split to metrics: every instrument is registered with a [`Class`].
//!
//! * [`Class::Det`] — a deterministic function of the run (event counts
//!   and the canonical fields of events). For a fixed
//!   benchmark/seed/config, the canonical snapshot
//!   ([`Registry::snapshot_canonical`]) is identical regardless of
//!   `--threads` or cache capacity.
//! * [`Class::Nondet`] — timing and thread-racy measurements (wall-time
//!   histograms, cache hit/miss splits, queue depths). Excluded from the
//!   canonical snapshot; operational only.
//!
//! Metrics never feed back into search results or the obs event stream,
//! so folding events into a registry cannot perturb fronts or canonical
//! traces.
//!
//! ## Histogram semantics
//!
//! [`Histogram`] buckets are exact powers of two: bucket 0 holds the
//! value 0 and bucket `k ≥ 1` holds `[2^(k-1), 2^k - 1]` — 65 buckets
//! covering all of `u64`. Bucketing is a pure function of the value, so
//! two histograms over the same observations are bit-identical, and
//! [`HistogramSnapshot::merge`] is associative and commutative with the
//! empty snapshot as identity: merging equals observing the concatenated
//! stream.
//!
//! ## Example
//!
//! ```
//! use mcmap_telemetry::{Class, Registry};
//!
//! let reg = Registry::new();
//! let batches = reg.counter("eval.batch", Class::Det);
//! let latency = reg.histogram("eval.batch.wall_ns", Class::Nondet);
//! batches.inc();
//! latency.observe(1_250);
//! let snap = reg.snapshot();
//! assert!(snap.to_json().contains("\"eval.batch\""));
//! assert!(snap.to_prometheus().contains("mcmap_eval_batch_total 1"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
mod registry;
mod render;

pub use hist::{bucket_lower, bucket_of, bucket_upper, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    Class, Counter, Gauge, MetricId, MetricSample, Registry, SampleValue, Snapshot,
};
pub use render::prom_name;
