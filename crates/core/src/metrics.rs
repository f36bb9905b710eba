//! [`MetricsSink`]: the one bridge from the obs event stream to a
//! telemetry [`Registry`]. Instrumented code emits events only; every
//! metric is a fold of those events, so the trace, the metrics snapshot
//! and the Prometheus export cannot disagree.

use mcmap_obs::{Event, EventKind, Key, Sink, Value};
use mcmap_telemetry::{Class, Counter, Histogram, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An obs [`Sink`] that folds every event into a telemetry [`Registry`]
/// by one fixed rule:
///
/// * a `counter`, `mark` or `span_end` event increments the
///   [`Class::Det`] counter named after the event (`eval.batch`);
/// * every `U64` field of an event — `span_begin` and `span_end`
///   alike — is observed into the histogram `<event>.<field>`
///   (`eval.batch.genomes`): [`Class::Det`] for canonical fields,
///   [`Class::Nondet`] for `nondet` ones, the span's `wall_ns` included;
/// * strings, floats, bools and signed fields are skipped;
/// * events with `seq <= skip_upto` are skipped — the preamble a resumed
///   run emits again, which the interrupted run already folded (the same
///   rule as [`JsonlSink::append`](mcmap_obs::JsonlSink::append)).
///
/// The canonical event stream is identical for any thread count or cache
/// capacity, so the sink's canonical snapshot
/// ([`Registry::snapshot_canonical`]) is too. The sink only reads events:
/// attaching it changes neither results nor the trace.
#[derive(Debug)]
pub struct MetricsSink {
    registry: Registry,
    skip_upto: u64,
    /// Per event name, its registered instruments — so steady-state
    /// folding never touches the registry lock or builds a metric name.
    sites: Mutex<HashMap<Key, Site>>,
}

#[derive(Debug, Default)]
struct Site {
    /// Registered lazily: a span still open leaves no zero counter.
    count: Option<Arc<Counter>>,
    fields: Vec<(Key, Arc<Histogram>)>,
}

impl MetricsSink {
    /// A sink folding into `registry`, skipping nothing.
    pub fn new(registry: Registry) -> Self {
        MetricsSink {
            registry,
            skip_upto: 0,
            sites: Mutex::default(),
        }
    }

    /// Skips events with `seq <= skip_upto`: pass the checkpoint's
    /// `trace_seq` when resuming into a registry that already folded the
    /// interrupted run.
    #[must_use]
    pub fn skip_upto(mut self, skip_upto: u64) -> Self {
        self.skip_upto = skip_upto;
        self
    }
}

impl Site {
    fn observe(&mut self, registry: &Registry, event: &str, fields: &[(Key, Value)], class: Class) {
        for (key, value) in fields {
            let Value::U64(v) = value else { continue };
            let i = match self.fields.iter().position(|(k, _)| k == key) {
                Some(i) => i,
                None => {
                    let h = registry.histogram(&format!("{event}.{key}"), class);
                    self.fields.push((key.clone(), h));
                    self.fields.len() - 1
                }
            };
            self.fields[i].1.observe(*v);
        }
    }
}

impl Sink for MetricsSink {
    fn record(&self, event: &Arc<Event>) {
        if event.seq <= self.skip_upto {
            return;
        }
        let mut sites = self.sites.lock().expect("metrics sink poisoned");
        // Recorded names are borrowed literals: the key clone is a copy.
        let site = sites.entry(event.name.clone()).or_default();
        if event.kind != EventKind::SpanBegin {
            site.count
                .get_or_insert_with(|| self.registry.counter(&event.name, Class::Det))
                .inc();
        }
        site.observe(&self.registry, &event.name, &event.fields, Class::Det);
        site.observe(&self.registry, &event.name, &event.nondet, Class::Nondet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_eval::EvalEngine;
    use mcmap_obs::{Recorder, RecorderBuilder};
    use mcmap_telemetry::SampleValue;

    fn sink_recorder(registry: &Registry, skip_upto: u64) -> Recorder {
        let sink = MetricsSink::new(registry.clone()).skip_upto(skip_upto);
        RecorderBuilder::new().sink(Box::new(sink)).build()
    }

    /// A counter's value as `(value, value)`, a histogram as `(count, sum)`.
    fn sample(registry: &Registry, name: &str) -> Option<(u64, u64)> {
        let snap = registry.snapshot();
        let m = snap.metrics.iter().find(|m| m.id.name == name)?;
        match &m.value {
            SampleValue::Counter(v) => Some((*v, *v)),
            SampleValue::Histogram(h) => Some((h.count(), h.sum())),
            SampleValue::Gauge(_) => None,
        }
    }

    #[test]
    fn events_fold_by_the_fixed_rule() {
        let reg = Registry::new();
        // Skips the first event, like a resumed run's re-emitted preamble.
        let rec = sink_recorder(&reg, 1);
        rec.counter("c", &[("u", Value::from(100u64))]);
        {
            let mut span = rec.span("s", &[("n", Value::from(3u64))]);
            let odd = [("f", 1.5.into()), ("b", true.into()), ("i", (-2i64).into())];
            rec.counter("c", &odd);
            rec.counter("c", &[("t", "text".into())]);
            rec.counter_with_nondet("c", &[("u", Value::from(7u64))], &[("ns", 9u64.into())]);
            rec.mark("m", &[]);
            span.field("n", 4u64);
        }
        // One count per counter, mark and span_end, none per span_begin.
        assert_eq!(sample(&reg, "c"), Some((3, 3)));
        assert_eq!(sample(&reg, "m"), Some((1, 1)));
        assert_eq!(sample(&reg, "s"), Some((1, 1)));
        // Unsigned fields of both span ends feed one histogram.
        assert_eq!(sample(&reg, "s.n"), Some((2, 7)));
        assert_eq!(sample(&reg, "c.u"), Some((1, 7)));
        assert_eq!(sample(&reg, "c.ns"), Some((1, 9)));
        assert_eq!(sample(&reg, "s.wall_ns").map(|(n, _)| n), Some(1));
        for skipped in ["c.f", "c.b", "c.i", "c.t"] {
            assert_eq!(sample(&reg, skipped), None, "{skipped} was folded");
        }
        // Canonical fields are Det; nondet ones (wall time included) are not.
        let canon: Vec<String> = reg
            .snapshot_canonical()
            .metrics
            .into_iter()
            .map(|m| m.id.name)
            .collect();
        assert_eq!(canon, ["c", "c.u", "m", "s", "s.n"]);
    }

    #[test]
    fn engine_batches_fold_into_eval_batch_series() {
        let reg = Registry::new();
        let engine = EvalEngine::new(256, &"sink").with_recorder(sink_recorder(&reg, 0));
        let genomes = [1u64, 2, 3, 1, 2, 3];
        for _ in 0..2 {
            let _ = engine.evaluate_batch(&genomes, 1, 0, |_| {}, |g, _| *g);
        }
        assert_eq!(sample(&reg, "eval.batch"), Some((2, 2)));
        assert_eq!(sample(&reg, "eval.batch.genomes"), Some((2, 12)));
        // Second batch replays entirely from cache: 3 misses + 9 hits.
        assert_eq!(sample(&reg, "eval.batch.cache_misses"), Some((2, 3)));
        assert_eq!(sample(&reg, "eval.batch.cache_hits"), Some((2, 9)));
        assert_eq!(sample(&reg, "eval.batch.wall_ns").map(|(n, _)| n), Some(2));
    }
}
