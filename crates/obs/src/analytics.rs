//! Offline trace analytics: event queries, per-generation critical paths,
//! folded flame stacks, and two-trace regression diffs — the engine behind
//! `mcmap_cli obs query|critical-path|flame|diff`.

use std::collections::{BTreeMap, HashMap};

use crate::event::{push_json_str, Event, EventKind, Value};
use crate::report::canonical_trace;

/// A filter over a trace's events. Empty filters match everything; set
/// members compose conjunctively.
#[derive(Debug, Clone, Default)]
pub struct TraceQuery {
    /// Substring match against the event name.
    pub name: Option<String>,
    /// Exact event-kind match.
    pub kind: Option<EventKind>,
    /// Field presence (`key`) or equality (`key`, `value`) match, against
    /// deterministic and non-deterministic fields alike.
    pub field: Option<(String, Option<String>)>,
    /// Keep only events attributed (via span parentage) to this
    /// `ga.generation` number.
    pub generation: Option<u64>,
}

/// Span parentage, walls, and generation attribution of one trace —
/// shared by the query/critical-path/flame engines.
#[derive(Debug, Default)]
struct SpanIndex<'a> {
    /// Span id → parent span id (as recorded at begin time).
    parent: HashMap<u64, Option<u64>>,
    /// Span id → span name.
    name: HashMap<u64, &'a str>,
    /// Span id → closing wall time.
    wall: HashMap<u64, u64>,
    /// Span id → direct child span ids, in begin order.
    children: HashMap<u64, Vec<u64>>,
    /// `ga.generation` span id → generation number.
    generation: HashMap<u64, u64>,
    /// Root span ids in begin order.
    roots: Vec<u64>,
}

impl<'a> SpanIndex<'a> {
    fn build(events: &'a [Event]) -> Self {
        let mut sorted: Vec<&Event> = events.iter().collect();
        sorted.sort_by_key(|e| e.seq);
        let mut idx = SpanIndex::default();
        for event in &sorted {
            match event.kind {
                EventKind::SpanBegin => {
                    let Some(id) = event.span else { continue };
                    idx.parent.insert(id, event.parent);
                    idx.name.insert(id, event.name.as_ref());
                    match event.parent {
                        Some(p) => idx.children.entry(p).or_default().push(id),
                        None => idx.roots.push(id),
                    }
                }
                EventKind::SpanEnd => {
                    let Some(id) = event.span else { continue };
                    let wall = event
                        .nondet_field("wall_ns")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    idx.wall.insert(id, wall);
                    if event.name == "ga.generation" {
                        if let Some(g) = event.field("generation").and_then(Value::as_u64) {
                            idx.generation.insert(id, g);
                        }
                    }
                }
                _ => {}
            }
        }
        idx
    }

    /// The `ga.generation` number an event belongs to, walking the span
    /// ancestry recorded at emission time.
    fn generation_of(&self, event: &Event) -> Option<u64> {
        let mut cur = event.span.or(event.parent);
        while let Some(id) = cur {
            if let Some(g) = self.generation.get(&id) {
                return Some(*g);
            }
            cur = self.parent.get(&id).copied().flatten();
        }
        None
    }

    /// Wall time of a span's direct children.
    fn child_wall(&self, id: u64) -> u64 {
        self.children
            .get(&id)
            .map(|kids| kids.iter().filter_map(|k| self.wall.get(k)).sum())
            .unwrap_or(0)
    }

    /// The root-to-span name stack, `;`-joined (folded-stack notation).
    fn stack_of(&self, id: u64) -> String {
        let mut names = Vec::new();
        let mut cur = Some(id);
        while let Some(i) = cur {
            names.push(*self.name.get(&i).unwrap_or(&"?"));
            cur = self.parent.get(&i).copied().flatten();
        }
        names.reverse();
        names.join(";")
    }
}

/// Filters a trace's events, in sequence order. The `generation` filter
/// attributes each event to its enclosing `ga.generation` span (the span
/// itself included).
pub fn query<'a>(events: &'a [Event], q: &TraceQuery) -> Vec<&'a Event> {
    let idx = q.generation.map(|_| SpanIndex::build(events));
    let value_matches = |v: &Value, expected: &str| render_value(v) == expected;
    let mut hits: Vec<&Event> = events
        .iter()
        .filter(|e| {
            if let Some(name) = &q.name {
                if !e.name.as_ref().contains(name.as_str()) {
                    return false;
                }
            }
            if let Some(kind) = q.kind {
                if e.kind != kind {
                    return false;
                }
            }
            if let Some((key, expected)) = &q.field {
                let found = e
                    .field(key)
                    .or_else(|| e.nondet_field(key))
                    .is_some_and(|v| expected.as_deref().is_none_or(|ex| value_matches(v, ex)));
                if !found {
                    return false;
                }
            }
            if let Some(generation) = q.generation {
                let idx = idx.as_ref().expect("index built when filtering by gen");
                if idx.generation_of(e) != Some(generation) {
                    return false;
                }
            }
            true
        })
        .collect();
    hits.sort_by_key(|e| e.seq);
    hits
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => {
            let mut out = String::new();
            other.write_json(&mut out);
            out
        }
    }
}

/// One step on a critical path: a span and where its time went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Wall time of this span, children included.
    pub wall_ns: u64,
    /// Wall time minus direct children (time spent in the span itself).
    pub self_ns: u64,
}

/// The slowest span chain inside one `ga.generation` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Generation number.
    pub generation: u64,
    /// Wall time of the whole generation span.
    pub total_ns: u64,
    /// The chain, outermost first: at every level the child with the
    /// largest wall time is followed.
    pub steps: Vec<PathStep>,
}

/// The per-generation critical paths of a trace, in generation order:
/// starting at each `ga.generation` span, repeatedly descend into the
/// child span with the largest wall time.
pub fn critical_paths(events: &[Event]) -> Vec<CriticalPath> {
    let idx = SpanIndex::build(events);
    let mut gens: Vec<(u64, u64)> = idx.generation.iter().map(|(id, g)| (*g, *id)).collect();
    gens.sort_unstable();
    gens.iter()
        .map(|&(generation, span)| {
            let mut steps = Vec::new();
            let mut cur = span;
            loop {
                let wall = idx.wall.get(&cur).copied().unwrap_or(0);
                steps.push(PathStep {
                    name: idx.name.get(&cur).unwrap_or(&"?").to_string(),
                    wall_ns: wall,
                    self_ns: wall.saturating_sub(idx.child_wall(cur)),
                });
                // Heaviest child next; ties break to the earliest-begun
                // child so the walk is deterministic.
                let next = idx.children.get(&cur).and_then(|kids| {
                    kids.iter()
                        .max_by_key(|k| {
                            (
                                idx.wall.get(k).copied().unwrap_or(0),
                                std::cmp::Reverse(**k),
                            )
                        })
                        .copied()
                });
                match next {
                    Some(child) => cur = child,
                    None => break,
                }
            }
            CriticalPath {
                generation,
                total_ns: idx.wall.get(&span).copied().unwrap_or(0),
                steps,
            }
        })
        .collect()
}

/// Folded flame stacks: one `(stack, self_ns)` row per distinct
/// root-to-span name chain, `;`-joined, sorted by stack — the input
/// format of standard flamegraph tooling (`flamegraph.pl`, inferno).
/// Rows with zero self time are dropped.
pub fn folded_stacks(events: &[Event]) -> Vec<(String, u64)> {
    let idx = SpanIndex::build(events);
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (&id, &wall) in &idx.wall {
        let self_ns = wall.saturating_sub(idx.child_wall(id));
        if self_ns > 0 {
            *folded.entry(idx.stack_of(id)).or_insert(0) += self_ns;
        }
    }
    folded.into_iter().collect()
}

/// One deterministic counter sum that differs between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// `name.field` key (or `name.count` for event counts).
    pub key: String,
    /// Sum in the first trace.
    pub a: f64,
    /// Sum in the second trace.
    pub b: f64,
}

/// Per-span-name comparison of two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDelta {
    /// Span name.
    pub name: String,
    /// Closed spans in the first trace.
    pub count_a: u64,
    /// Closed spans in the second trace.
    pub count_b: u64,
    /// Summed wall in the first trace (non-deterministic, for triage).
    pub wall_a: u64,
    /// Summed wall in the second trace.
    pub wall_b: u64,
}

/// The result of comparing two traces: canonical-line divergence (the
/// deterministic verdict), differing deterministic counter sums, and the
/// span tree side by side.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Events in the first trace.
    pub events_a: usize,
    /// Events in the second trace.
    pub events_b: usize,
    /// Number of differing canonical lines (position-wise, plus any
    /// length difference). 0 means the traces are replay-identical.
    pub canonical_differences: usize,
    /// The first differing canonical line: `(line_number, a, b)`, where a
    /// missing line renders as `"<absent>"`.
    pub first_divergence: Option<(usize, String, String)>,
    /// Deterministic counter sums that differ, sorted by key.
    pub counter_deltas: Vec<CounterDelta>,
    /// All span names in either trace, sorted by name.
    pub span_deltas: Vec<SpanDelta>,
}

impl TraceDiff {
    /// Whether the two traces are bit-identical after canonicalization —
    /// the determinism-contract verdict.
    pub fn deterministically_identical(&self) -> bool {
        self.canonical_differences == 0
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "trace diff · a: {} events · b: {} events\n",
            self.events_a, self.events_b
        );
        if self.deterministically_identical() {
            out.push_str("deterministic: IDENTICAL (0 differing canonical lines)\n");
        } else {
            out.push_str(&format!(
                "deterministic: {} differing canonical line(s)\n",
                self.canonical_differences
            ));
            if let Some((line, a, b)) = &self.first_divergence {
                out.push_str(&format!("first divergence at line {line}:\n"));
                out.push_str(&format!("  a: {a}\n  b: {b}\n"));
            }
        }
        if !self.counter_deltas.is_empty() {
            out.push_str("\ndeterministic counter deltas\n");
            out.push_str(&format!(
                "  {:<40} {:>14} {:>14} {:>14}\n",
                "key", "a", "b", "delta"
            ));
            for d in &self.counter_deltas {
                out.push_str(&format!(
                    "  {:<40} {:>14} {:>14} {:>+14}\n",
                    d.key,
                    trim_f64(d.a),
                    trim_f64(d.b),
                    trim_f64(d.b - d.a)
                ));
            }
        }
        if !self.span_deltas.is_empty() {
            out.push_str("\nspans\n");
            out.push_str(&format!(
                "  {:<22} {:>9} {:>9} {:>12} {:>12}\n",
                "name", "count_a", "count_b", "wall_a", "wall_b"
            ));
            for s in &self.span_deltas {
                out.push_str(&format!(
                    "  {:<22} {:>9} {:>9} {:>12} {:>12}\n",
                    s.name, s.count_a, s.count_b, s.wall_a, s.wall_b
                ));
            }
        }
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"events_a\":{},\"events_b\":{},\"canonical_differences\":{},\
             \"deterministically_identical\":{}",
            self.events_a,
            self.events_b,
            self.canonical_differences,
            self.deterministically_identical()
        );
        s.push_str(",\"counter_deltas\":[");
        for (i, d) in self.counter_deltas.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"key\":");
            push_json_str(&mut s, &d.key);
            s.push_str(",\"a\":");
            Value::F64(d.a).write_json(&mut s);
            s.push_str(",\"b\":");
            Value::F64(d.b).write_json(&mut s);
            s.push('}');
        }
        s.push_str("],\"spans\":[");
        for (i, d) in self.span_deltas.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_str(&mut s, &d.name);
            s.push_str(&format!(
                ",\"count_a\":{},\"count_b\":{},\"wall_a\":{},\"wall_b\":{}}}",
                d.count_a, d.count_b, d.wall_a, d.wall_b
            ));
        }
        s.push_str("]}");
        s
    }
}

fn trim_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Compares two traces for regression triage: canonical-line divergence,
/// deterministic counter-sum deltas, and the span tree side by side. Two
/// traces of the same seeded run report zero deterministic differences —
/// wall-time variation only shows up in the (non-deterministic) span
/// walls.
pub fn diff_traces(a: &[Event], b: &[Event]) -> TraceDiff {
    let canon_a = canonical_trace(a);
    let canon_b = canonical_trace(b);
    let lines_a: Vec<&str> = canon_a.lines().collect();
    let lines_b: Vec<&str> = canon_b.lines().collect();
    let common = lines_a.len().min(lines_b.len());
    let mut canonical_differences = lines_a.len().max(lines_b.len()) - common;
    let mut first_divergence = None;
    for i in 0..lines_a.len().max(lines_b.len()) {
        let la = lines_a.get(i).copied();
        let lb = lines_b.get(i).copied();
        if la != lb {
            if i < common {
                canonical_differences += 1;
            }
            if first_divergence.is_none() {
                first_divergence = Some((
                    i + 1,
                    la.unwrap_or("<absent>").to_string(),
                    lb.unwrap_or("<absent>").to_string(),
                ));
            }
        }
    }

    let sums_a = det_counter_sums(a);
    let sums_b = det_counter_sums(b);
    let mut keys: Vec<&String> = sums_a.keys().chain(sums_b.keys()).collect();
    keys.sort();
    keys.dedup();
    let counter_deltas: Vec<CounterDelta> = keys
        .into_iter()
        .filter_map(|key| {
            let va = sums_a.get(key).copied().unwrap_or(0.0);
            let vb = sums_b.get(key).copied().unwrap_or(0.0);
            (va != vb).then(|| CounterDelta {
                key: key.clone(),
                a: va,
                b: vb,
            })
        })
        .collect();

    let spans_a = span_sums(a);
    let spans_b = span_sums(b);
    let mut names: Vec<&String> = spans_a.keys().chain(spans_b.keys()).collect();
    names.sort();
    names.dedup();
    let span_deltas: Vec<SpanDelta> = names
        .into_iter()
        .map(|name| {
            let (count_a, wall_a) = spans_a.get(name).copied().unwrap_or((0, 0));
            let (count_b, wall_b) = spans_b.get(name).copied().unwrap_or((0, 0));
            SpanDelta {
                name: name.clone(),
                count_a,
                count_b,
                wall_a,
                wall_b,
            }
        })
        .collect();

    TraceDiff {
        events_a: a.len(),
        events_b: b.len(),
        canonical_differences,
        first_divergence,
        counter_deltas,
        span_deltas,
    }
}

/// Sums every deterministic numeric field keyed `name.field`, plus
/// `name.count` per counter/mark name — deliberately excluding the
/// `nondet` bucket, so the sums obey the determinism contract.
fn det_counter_sums(events: &[Event]) -> BTreeMap<String, f64> {
    let mut sums = BTreeMap::new();
    for event in events {
        match event.kind {
            EventKind::Counter | EventKind::Mark => {
                *sums.entry(format!("{}.count", event.name)).or_insert(0.0) += 1.0;
            }
            EventKind::SpanEnd => {}
            EventKind::SpanBegin => continue,
        }
        for (key, value) in &event.fields {
            if let Some(v) = value.as_f64() {
                *sums.entry(format!("{}.{key}", event.name)).or_insert(0.0) += v;
            }
        }
    }
    sums
}

fn span_sums(events: &[Event]) -> BTreeMap<String, (u64, u64)> {
    let mut sums: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for event in events {
        if event.kind != EventKind::SpanEnd {
            continue;
        }
        let wall = event
            .nondet_field("wall_ns")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let entry = sums.entry(event.name.to_string()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += wall;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn generation_trace() -> Vec<Event> {
        let rec = Recorder::ring(256);
        {
            let _dse = rec.span("dse.explore", &[]);
            for generation in 0..2u64 {
                let mut g = rec.span("ga.generation", &[]);
                {
                    let _b = rec.span("eval.batch", &[("genomes", 4u64.into())]);
                    rec.counter("sched.analyze", &[("backend_calls", 5u64.into())]);
                }
                rec.counter("dse.audit", &[("evaluated", 4u64.into())]);
                g.field("generation", generation);
            }
        }
        rec.events()
    }

    #[test]
    fn query_filters_by_name_kind_field_and_generation() {
        let events = generation_trace();
        let by_name = query(
            &events,
            &TraceQuery {
                name: Some("sched".into()),
                ..TraceQuery::default()
            },
        );
        assert_eq!(by_name.len(), 2);

        let by_kind = query(
            &events,
            &TraceQuery {
                kind: Some(EventKind::SpanEnd),
                name: Some("ga.generation".into()),
                ..TraceQuery::default()
            },
        );
        assert_eq!(by_kind.len(), 2);

        let by_field = query(
            &events,
            &TraceQuery {
                field: Some(("generation".into(), Some("1".into()))),
                ..TraceQuery::default()
            },
        );
        assert_eq!(by_field.len(), 1);

        // Generation attribution: each generation holds one eval.batch
        // begin+end, one sched.analyze, one dse.audit, and the generation
        // span's own begin/end.
        let gen0 = query(
            &events,
            &TraceQuery {
                generation: Some(0),
                ..TraceQuery::default()
            },
        );
        assert_eq!(gen0.len(), 6);
        assert!(gen0.iter().any(|e| e.name == "dse.audit"));
        assert!(gen0.iter().all(|e| e.name != "dse.explore"));
    }

    #[test]
    fn critical_paths_descend_into_the_heaviest_child() {
        let events = generation_trace();
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].generation, 0);
        assert_eq!(paths[0].steps[0].name, "ga.generation");
        assert_eq!(paths[0].steps[1].name, "eval.batch");
        assert!(paths[0].total_ns >= paths[0].steps[1].wall_ns);
    }

    #[test]
    fn folded_stacks_fold_by_ancestry() {
        let events = generation_trace();
        let folded = folded_stacks(&events);
        assert!(folded
            .iter()
            .any(|(stack, _)| stack == "dse.explore;ga.generation;eval.batch"));
        // Two generations fold into one row per distinct stack.
        assert_eq!(
            folded
                .iter()
                .filter(|(stack, _)| stack.ends_with("eval.batch"))
                .count(),
            1
        );
    }

    #[test]
    fn diff_of_identical_runs_is_deterministically_clean() {
        let a = generation_trace();
        let b = generation_trace();
        let diff = diff_traces(&a, &b);
        assert!(diff.deterministically_identical());
        assert!(diff.counter_deltas.is_empty());
        assert_eq!(diff.canonical_differences, 0);
        assert!(diff.render_text().contains("IDENTICAL"));
        crate::json::parse_json(&diff.to_json()).expect("diff json parses");
    }

    #[test]
    fn diff_surfaces_counter_and_line_divergence() {
        let a = generation_trace();
        let rec = Recorder::ring(256);
        {
            let _dse = rec.span("dse.explore", &[]);
            let mut g = rec.span("ga.generation", &[]);
            rec.counter("sched.analyze", &[("backend_calls", 9u64.into())]);
            g.field("generation", 0u64);
        }
        let b = rec.events();
        let diff = diff_traces(&a, &b);
        assert!(!diff.deterministically_identical());
        assert!(diff.first_divergence.is_some());
        let backend = diff
            .counter_deltas
            .iter()
            .find(|d| d.key == "sched.analyze.backend_calls")
            .expect("backend_calls sums differ");
        assert_eq!((backend.a, backend.b), (10.0, 9.0));
        let text = diff.render_text();
        assert!(text.contains("differing canonical line"));
        assert!(text.contains("sched.analyze.backend_calls"));
    }
}
