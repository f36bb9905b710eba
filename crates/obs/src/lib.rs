//! # mcmap-obs
//!
//! Deterministic tracing, metrics, and profiling for the mcmap
//! DSE/sched/eval pipeline. Dependency-free (std only): a lightweight
//! event bus with typed spans and counters behind a cloneable
//! [`Recorder`] handle, pluggable [`Sink`]s (in-memory ring, JSONL file),
//! and a [`TraceProfile`] renderer for recorded traces.
//!
//! ## Determinism contract
//!
//! Instrumentation must not perturb exploration results, and recorded
//! traces must be **replay-stable**: for a fixed benchmark/seed/config,
//! the *canonical* trace is bit-identical regardless of `--threads`,
//! `--cache-cap`, host speed, or whether a JSONL sink is attached. The
//! contract has three parts:
//!
//! 1. **Ordering by sequence number.** Every event gets a gapless `seq`
//!    from an atomic counter. All emission sites in the pipeline sit on
//!    sequential driver-thread paths (per-candidate metrics are carried
//!    inside cached evaluation records and emitted during the in-order
//!    audit replay), so `seq` order is the same on every run.
//! 2. **det/nondet field split.** Each [`Event`] carries deterministic
//!    `fields` and a separate `nondet` bucket for wall-clock durations and
//!    thread-racy measurements (cache hit/miss splits, throughput).
//! 3. **Canonical rendering.** [`Event::canonical`] /
//!    [`canonical_trace`] strip the `nondet` bucket; determinism tests
//!    compare exactly this rendering.
//!
//! ## Example
//!
//! ```
//! use mcmap_obs::{Recorder, TraceProfile, Value};
//!
//! let rec = Recorder::ring(1024);
//! {
//!     let mut span = rec.span("dse.explore", &[("benchmark", Value::from("cruise"))]);
//!     rec.counter("sched.analyze", &[("transitions", Value::from(12u64))]);
//!     span.field("evaluations", 48u64);
//! }
//! let profile = TraceProfile::from_events(&rec.events());
//! assert_eq!(profile.spans[0].name, "dse.explore");
//! assert!(profile.render_text().contains("sched.analyze"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytics;
mod event;
mod json;
mod recorder;
mod report;
mod sink;

pub use analytics::{
    critical_paths, diff_traces, folded_stacks, query, CounterDelta, CriticalPath, PathStep,
    SpanDelta, TraceDiff, TraceQuery,
};
pub use event::{push_json_str, Event, EventKind, Key, Value};
pub use json::{
    event_from_json, events_from_jsonl, events_from_jsonl_lossy, parse_json, Json, TraceRecovery,
};
pub use recorder::{Recorder, RecorderBuilder, SpanGuard};
pub use report::{
    canonical_trace, canonicalize_jsonl, stitch_traces, GenRow, SpanAgg, TraceProfile,
};
pub use sink::{JsonlSink, RingSink, Sink};
