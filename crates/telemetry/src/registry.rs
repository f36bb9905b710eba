//! The metrics registry: named, optionally labelled instruments behind a
//! cloneable handle, with deterministic snapshots.

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The determinism class of a metric (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A deterministic function of the run — part of the canonical
    /// snapshot, invariant under thread counts and cache capacity.
    Det,
    /// Timing or thread-racy measurement — operational only, excluded
    /// from the canonical snapshot.
    Nondet,
}

impl Class {
    /// The lowercase name used in snapshots (`"det"` / `"nondet"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Det => "det",
            Class::Nondet => "nondet",
        }
    }
}

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, entry counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What uniquely identifies a metric: its dotted name plus its sorted
/// label set. The `Ord` impl (name first) keeps snapshot order — and
/// hence every rendering — deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Dotted metric name (`eval.batch.wall_ns`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>, Class),
    Gauge(Arc<Gauge>, Class),
    Histogram(Arc<Histogram>, Class),
}

/// A cloneable handle to a metrics registry. Clones share the same
/// metric store.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<MetricId, Instrument>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or retrieves) an unlabelled counter.
    ///
    /// # Panics
    ///
    /// Panics when the name is already registered as a different
    /// instrument kind.
    pub fn counter(&self, name: &str, class: Class) -> Arc<Counter> {
        self.counter_with(name, &[], class)
    }

    /// Registers (or retrieves) a labelled counter.
    ///
    /// # Panics
    ///
    /// Panics on an instrument-kind conflict.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], class: Class) -> Arc<Counter> {
        match self.instrument(name, labels, || {
            Instrument::Counter(Arc::new(Counter::default()), class)
        }) {
            Instrument::Counter(c, _) => c,
            _ => panic!("metric {name:?} is already registered as a non-counter"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    ///
    /// # Panics
    ///
    /// Panics on an instrument-kind conflict.
    pub fn gauge(&self, name: &str, class: Class) -> Arc<Gauge> {
        match self.instrument(name, &[], || {
            Instrument::Gauge(Arc::new(Gauge::default()), class)
        }) {
            Instrument::Gauge(g, _) => g,
            _ => panic!("metric {name:?} is already registered as a non-gauge"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram.
    ///
    /// # Panics
    ///
    /// Panics on an instrument-kind conflict.
    pub fn histogram(&self, name: &str, class: Class) -> Arc<Histogram> {
        self.histogram_with(name, &[], class)
    }

    /// Registers (or retrieves) a labelled histogram.
    ///
    /// # Panics
    ///
    /// Panics on an instrument-kind conflict.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        class: Class,
    ) -> Arc<Histogram> {
        match self.instrument(name, labels, || {
            Instrument::Histogram(Arc::new(Histogram::default()), class)
        }) {
            Instrument::Histogram(h, _) => h,
            _ => panic!("metric {name:?} is already registered as a non-histogram"),
        }
    }

    fn instrument(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics.entry(id).or_insert_with(make).clone()
    }

    /// A point-in-time copy of every metric, sorted by
    /// `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_filtered(|_| true)
    }

    /// The canonical snapshot: deterministic ([`Class::Det`]) metrics
    /// only. For a fixed benchmark/seed/config this rendering is
    /// identical at any thread count or cache capacity.
    pub fn snapshot_canonical(&self) -> Snapshot {
        self.snapshot_filtered(|class| class == Class::Det)
    }

    fn snapshot_filtered(&self, keep: impl Fn(Class) -> bool) -> Snapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = Vec::new();
        for (id, instrument) in metrics.iter() {
            let (class, value) = match instrument {
                Instrument::Counter(c, class) => (*class, SampleValue::Counter(c.get())),
                Instrument::Gauge(g, class) => (*class, SampleValue::Gauge(g.get())),
                Instrument::Histogram(h, class) => {
                    (*class, SampleValue::Histogram(Box::new(h.snapshot())))
                }
            };
            if keep(class) {
                out.push(MetricSample {
                    id: id.clone(),
                    class,
                    value,
                });
            }
        }
        Snapshot { metrics: out }
    }
}

/// One sampled metric.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Name + labels.
    pub id: MetricId,
    /// Determinism class.
    pub class: Class,
    /// The sampled value.
    pub value: SampleValue,
}

/// The value side of a [`MetricSample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Monotone counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(i64),
    /// Full distribution copy (boxed: the 65-bucket array dwarfs the
    /// scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// A sorted, point-in-time view of a registry — render it with
/// [`Snapshot::to_json`] or [`Snapshot::to_prometheus`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Samples sorted by `(name, labels)`.
    pub metrics: Vec<MetricSample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = Registry::new();
        let a = reg.counter("x.calls", Class::Det);
        let b = reg.counter("x.calls", Class::Det);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert!(matches!(snap.metrics[0].value, SampleValue::Counter(3)));
    }

    #[test]
    fn labels_distinguish_series_and_sort_deterministically() {
        let reg = Registry::new();
        reg.counter_with("req", &[("verb", "status")], Class::Nondet)
            .inc();
        reg.counter_with("req", &[("verb", "front")], Class::Nondet)
            .add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert_eq!(snap.metrics[0].id.labels[0].1, "front");
        assert_eq!(snap.metrics[1].id.labels[0].1, "status");
    }

    #[test]
    fn canonical_snapshot_excludes_nondet() {
        let reg = Registry::new();
        reg.counter("det.calls", Class::Det).inc();
        reg.histogram("wall_ns", Class::Nondet).observe(9);
        assert_eq!(reg.snapshot().metrics.len(), 2);
        let canon = reg.snapshot_canonical();
        assert_eq!(canon.metrics.len(), 1);
        assert_eq!(canon.metrics[0].id.name, "det.calls");
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        reg.gauge("depth", Class::Nondet);
        reg.counter("depth", Class::Nondet);
    }
}
