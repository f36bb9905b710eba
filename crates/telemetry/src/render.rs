//! Snapshot rendering: a deterministic JSON document and Prometheus text
//! exposition format. Both render the same sorted sample list, so two
//! snapshots of identical registries produce byte-identical output.

use crate::hist::{bucket_upper, HistogramSnapshot};
use crate::registry::{SampleValue, Snapshot};

/// The Prometheus metric-family name of a dotted mcmap metric name:
/// `mcmap_` plus the name with every non-alphanumeric character mapped to
/// `_` (`eval.batch.wall_ns` → `mcmap_eval_batch_wall_ns`).
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("mcmap_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// JSON-escapes `s` (with surrounding quotes) into `out` — the same
/// escape set as the obs trace writer's, so snapshots parse back with
/// `mcmap_obs::parse_json`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_labels_json(out: &mut String, labels: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_str(out, v);
    }
    out.push('}');
}

fn push_histogram_json(out: &mut String, h: &HistogramSnapshot) {
    out.push_str(&format!(
        ",\"value\":{{\"count\":{},\"sum\":{}",
        h.count(),
        h.sum()
    ));
    if let (Some(min), Some(max)) = (h.min(), h.max()) {
        out.push_str(&format!(",\"min\":{min},\"max\":{max}"));
        for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let v = h.quantile(q).expect("non-empty histogram");
            out.push_str(&format!(",\"{label}\":{v}"));
        }
    }
    out.push_str(",\"buckets\":[");
    let mut first = true;
    for (i, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{},{}]", bucket_upper(i), n));
    }
    out.push_str("]}");
}

impl Snapshot {
    /// Renders the snapshot as one JSON object:
    /// `{"metrics":[{"name":…,"labels":{…},"class":…,"kind":…,"value":…}]}`.
    /// A histogram's `value` is an object carrying `count`/`sum` (plus
    /// `min`/`max` and `p50`/`p95`/`p99` estimates when non-empty) and the
    /// non-empty `[upper_edge, count]` buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, &m.id.name);
            out.push_str(",\"labels\":");
            push_labels_json(&mut out, &m.id.labels);
            out.push_str(&format!(",\"class\":\"{}\"", m.class.as_str()));
            match &m.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!(",\"kind\":\"counter\",\"value\":{v}"));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!(",\"kind\":\"gauge\",\"value\":{v}"));
                }
                SampleValue::Histogram(h) => {
                    out.push_str(",\"kind\":\"histogram\"");
                    push_histogram_json(&mut out, h);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Name mapping follows [`prom_name`]; counters gain the conventional
    /// `_total` suffix; histograms emit cumulative `_bucket{le=…}` lines
    /// at the upper edge of every non-empty bucket plus `le="+Inf"`,
    /// `_sum`, and `_count`. Each family is announced once with `# HELP`
    /// (carrying the dotted name and determinism class) and `# TYPE`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        for m in &self.metrics {
            let base = prom_name(&m.id.name);
            let family = match m.value {
                SampleValue::Counter(_) => format!("{base}_total"),
                _ => base,
            };
            if last_family.as_deref() != Some(&family) {
                let kind = match m.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!(
                    "# HELP {family} {} ({})\n# TYPE {family} {kind}\n",
                    m.id.name,
                    m.class.as_str()
                ));
                last_family = Some(family.clone());
            }
            match &m.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!(
                        "{family}{} {v}\n",
                        prom_labels(&m.id.labels, None)
                    ));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{family}{} {v}\n",
                        prom_labels(&m.id.labels, None)
                    ));
                }
                SampleValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &n) in h.buckets().iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum += n;
                        let le = bucket_upper(i).to_string();
                        out.push_str(&format!(
                            "{family}_bucket{} {cum}\n",
                            prom_labels(&m.id.labels, Some(&le))
                        ));
                    }
                    out.push_str(&format!(
                        "{family}_bucket{} {}\n",
                        prom_labels(&m.id.labels, Some("+Inf")),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{family}_sum{} {}\n",
                        prom_labels(&m.id.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{family}_count{} {}\n",
                        prom_labels(&m.id.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

/// Renders a Prometheus label set (empty string when there are no labels
/// and no `le` bound). Label values escape `\`, `"`, and newlines per the
/// exposition-format rules.
fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use crate::{Class, Registry};

    #[test]
    fn json_snapshot_parses_and_orders_metrics() {
        let reg = Registry::new();
        reg.counter("b.calls", Class::Det).add(4);
        reg.gauge("a.depth", Class::Nondet).set(-2);
        let h = reg.histogram("c.wall_ns", Class::Nondet);
        h.observe(3);
        h.observe(700);
        let json = reg.snapshot().to_json();
        assert!(json.find("a.depth").unwrap() < json.find("b.calls").unwrap());
        assert!(json.contains("\"value\":-2"));
        assert!(json.contains("\"p50\":3"));
        assert!(json.contains("\"buckets\":[[3,1],[1023,1]]"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("eval.batch_wall_ns", Class::Nondet);
        for v in [1u64, 1, 2, 900] {
            h.observe(v);
        }
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE mcmap_eval_batch_wall_ns histogram"));
        assert!(text.contains("mcmap_eval_batch_wall_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("mcmap_eval_batch_wall_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("mcmap_eval_batch_wall_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("mcmap_eval_batch_wall_ns_count 4"));
    }

    #[test]
    fn labelled_families_share_one_type_line() {
        let reg = Registry::new();
        reg.counter_with("serve.requests", &[("verb", "stats")], Class::Nondet)
            .inc();
        reg.counter_with("serve.requests", &[("verb", "front")], Class::Nondet)
            .inc();
        let text = reg.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE mcmap_serve_requests_total").count(), 1);
        assert!(text.contains("mcmap_serve_requests_total{verb=\"front\"} 1"));
    }
}
