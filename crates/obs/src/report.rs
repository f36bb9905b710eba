//! Trace post-processing: canonicalization (for determinism comparison)
//! and the profile report behind `mcmap_cli obs`.

use std::collections::HashMap;

use crate::event::{push_json_str, Event, EventKind, Key, Value};
use crate::json::{events_from_jsonl, events_from_jsonl_lossy, TraceRecovery};

/// Canonical rendering of a trace: one [`Event::canonical`] line per event,
/// sequence order, wall-clock and other non-deterministic fields stripped.
/// Two runs of the same exploration are replay-identical iff this string
/// matches byte for byte.
pub fn canonical_trace(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.seq);
    let mut out = String::new();
    for event in sorted {
        out.push_str(&event.canonical());
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace and returns its canonical rendering.
///
/// # Errors
///
/// Propagates the parse error of the first malformed line.
pub fn canonicalize_jsonl(text: &str) -> Result<String, String> {
    Ok(canonical_trace(&events_from_jsonl(text)?))
}

/// Merges trace fragments from an interrupted-then-resumed run into one
/// seq-ordered event stream. Events sharing a sequence number (the
/// deterministic preamble a resumed run re-emits) are deduplicated — by
/// the determinism contract their content is identical, so the first
/// occurrence wins.
pub fn stitch_traces(parts: &[Vec<Event>]) -> Vec<Event> {
    let mut merged: Vec<Event> = parts.iter().flatten().cloned().collect();
    merged.sort_by_key(|e| e.seq);
    merged.dedup_by_key(|e| e.seq);
    merged
}

/// Aggregate of one span name across a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAgg {
    /// Span (site) name.
    pub name: String,
    /// How many spans with this name closed.
    pub count: u64,
    /// Summed wall-clock time, including children.
    pub total_ns: u64,
    /// Summed wall-clock time minus the time spent in child spans.
    pub self_ns: u64,
}

/// One row of the per-generation convergence table, read back from
/// `ga.generation` span ends.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRow {
    /// Generation index (0 = initial population).
    pub generation: u64,
    /// Candidates evaluated this generation.
    pub evaluations: u64,
    /// Feasible candidates among them.
    pub feasible: u64,
    /// Archive (non-dominated front) size after this generation.
    pub front_size: u64,
    /// Best value of objective 0 on the front, if any member is feasible.
    pub best_0: Option<f64>,
    /// Best value of objective 1 on the front, if any member is feasible.
    pub best_1: Option<f64>,
    /// 2-D hypervolume of the front against the first-generation
    /// reference point, if computable.
    pub hypervolume: Option<f64>,
    /// Archive members added + removed relative to the previous generation.
    pub churn: u64,
}

/// Aggregated view of one trace: span totals, counter totals, and the
/// per-generation convergence table.
#[derive(Debug, Clone, Default)]
pub struct TraceProfile {
    /// Total events in the trace.
    pub events: usize,
    /// Per-name span aggregates, sorted by self-time descending.
    pub spans: Vec<SpanAgg>,
    /// Summed numeric fields keyed `name.field`, plus `name.count` per
    /// counter/mark name; sorted by key.
    pub counters: Vec<(String, f64)>,
    /// Per-generation convergence rows in generation order.
    pub generations: Vec<GenRow>,
    /// Events missing from the gapless `1..=max_seq` sequence — evidence
    /// of ring-buffer overwrites or trace-file write failures upstream.
    pub dropped: u64,
}

impl TraceProfile {
    /// Builds the profile from in-memory events.
    pub fn from_events(events: &[Event]) -> TraceProfile {
        let mut sorted: Vec<&Event> = events.iter().collect();
        sorted.sort_by_key(|e| e.seq);

        // Span aggregation: walk span_end events; self-time = own wall
        // minus the wall of directly-nested children, attributed via the
        // `parent` id recorded at begin time.
        let mut name_of_span: HashMap<u64, &str> = HashMap::new();
        let mut wall_of_span: HashMap<u64, u64> = HashMap::new();
        let mut child_wall: HashMap<u64, u64> = HashMap::new();
        let mut agg: HashMap<&str, SpanAgg> = HashMap::new();
        let mut counters: HashMap<String, f64> = HashMap::new();

        for event in &sorted {
            match event.kind {
                EventKind::SpanBegin => {
                    if let Some(id) = event.span {
                        name_of_span.insert(id, event.name.as_ref());
                    }
                }
                EventKind::SpanEnd => {
                    let Some(id) = event.span else { continue };
                    let wall = event
                        .nondet_field("wall_ns")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    wall_of_span.insert(id, wall);
                    if let Some(parent) = event.parent {
                        *child_wall.entry(parent).or_insert(0) += wall;
                    }
                    let name = name_of_span
                        .get(&id)
                        .copied()
                        .unwrap_or(event.name.as_ref());
                    let entry = agg.entry(name).or_insert_with(|| SpanAgg {
                        name: name.to_string(),
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    entry.count += 1;
                    entry.total_ns += wall;
                    // Span-end fields are counter-like too: fold them in so
                    // per-generation numbers also show up in totals.
                    fold_numeric(&mut counters, &event.name, &event.fields);
                }
                EventKind::Counter | EventKind::Mark => {
                    *counters
                        .entry(format!("{}.count", event.name))
                        .or_insert(0.0) += 1.0;
                    fold_numeric(&mut counters, &event.name, &event.fields);
                    fold_numeric(&mut counters, &event.name, &event.nondet);
                }
            }
        }

        // Second pass for self-time now that every child's wall is known.
        for (id, wall) in &wall_of_span {
            let children = child_wall.get(id).copied().unwrap_or(0);
            if let Some(name) = name_of_span.get(id) {
                if let Some(entry) = agg.get_mut(name) {
                    entry.self_ns += wall.saturating_sub(children);
                }
            }
        }

        let mut spans: Vec<SpanAgg> = agg.into_values().collect();
        spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));

        let mut counter_rows: Vec<(String, f64)> = counters.into_iter().collect();
        counter_rows.sort_by(|a, b| a.0.cmp(&b.0));

        let generations = gen_rows(&sorted);

        // seq is gapless per recorder, so any hole in 1..=max_seq means an
        // event was lost before reaching this profile (ring overwrite or a
        // failed trace write).
        let dropped = sorted
            .last()
            .map(|e| e.seq.saturating_sub(sorted.len() as u64))
            .unwrap_or(0);

        TraceProfile {
            events: sorted.len(),
            spans,
            counters: counter_rows,
            generations,
            dropped,
        }
    }

    /// Parses a JSONL trace and builds its profile.
    ///
    /// # Errors
    ///
    /// Propagates the parse error of the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<TraceProfile, String> {
        Ok(TraceProfile::from_events(&events_from_jsonl(text)?))
    }

    /// The damage-tolerant sibling of [`TraceProfile::from_jsonl`]:
    /// profiles the valid prefix of a truncated trace and reports what was
    /// dropped alongside, instead of refusing the whole file over one torn
    /// final line.
    pub fn from_jsonl_lossy(text: &str) -> (TraceProfile, TraceRecovery) {
        let (events, recovery) = events_from_jsonl_lossy(text);
        (TraceProfile::from_events(&events), recovery)
    }

    /// Human-readable profile report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("trace profile · {} events\n", self.events));
        if self.dropped > 0 {
            out.push_str(&format!(
                "WARNING: {} event(s) dropped before recording — totals below undercount\n",
                self.dropped
            ));
        }

        if !self.spans.is_empty() {
            out.push_str("\nspans (by self time)\n");
            out.push_str(&format!(
                "  {:<22} {:>7} {:>12} {:>12}\n",
                "name", "count", "total", "self"
            ));
            for span in &self.spans {
                out.push_str(&format!(
                    "  {:<22} {:>7} {:>12} {:>12}\n",
                    span.name,
                    span.count,
                    fmt_ns(span.total_ns),
                    fmt_ns(span.self_ns)
                ));
            }
        }

        if !self.generations.is_empty() {
            out.push_str("\ngenerations\n");
            out.push_str(&self.render_generations());
        }

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (key, value) in &self.counters {
                if value.fract() == 0.0 && value.abs() < 1e15 {
                    out.push_str(&format!("  {key:<40} {:>14}\n", *value as i64));
                } else {
                    out.push_str(&format!("  {key:<40} {value:>14.4}\n"));
                }
            }
        }
        out
    }

    /// The per-generation convergence table alone (header + one line per
    /// generation) — the `--gen-stats` rendering.
    pub fn render_generations(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:>4} {:>6} {:>9} {:>6} {:>12} {:>12} {:>12} {:>6}\n",
            "gen", "evals", "feasible", "front", "best_0", "best_1", "hv", "churn"
        ));
        for row in &self.generations {
            out.push_str(&format!(
                "  {:>4} {:>6} {:>9} {:>6} {:>12} {:>12} {:>12} {:>6}\n",
                row.generation,
                row.evaluations,
                row.feasible,
                row.front_size,
                fmt_opt(row.best_0),
                fmt_opt(row.best_1),
                fmt_opt(row.hypervolume),
                row.churn
            ));
        }
        out
    }

    /// The per-generation rows as a JSON array — the `--gen-stats json`
    /// rendering (and the `generations` member of [`Self::to_json`]).
    pub fn generations_json(&self) -> String {
        let mut s = String::from("[");
        for (i, row) in self.generations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"generation\":{},\"evaluations\":{},\"feasible\":{},\"front_size\":{},\
                 \"best_0\":{},\"best_1\":{},\"hypervolume\":{},\"churn\":{}}}",
                row.generation,
                row.evaluations,
                row.feasible,
                row.front_size,
                json_opt(row.best_0),
                json_opt(row.best_1),
                json_opt(row.hypervolume),
                row.churn
            ));
        }
        s.push(']');
        s
    }

    /// Machine-readable profile report.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"events\":{},\"dropped\":{}",
            self.events, self.dropped
        ));
        s.push_str(",\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_str(&mut s, &span.name);
            s.push_str(&format!(
                ",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                span.count, span.total_ns, span.self_ns
            ));
        }
        s.push_str("],\"counters\":{");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, key);
            s.push(':');
            Value::F64(*value).write_json(&mut s);
        }
        s.push_str("},\"generations\":");
        s.push_str(&self.generations_json());
        s.push('}');
        s
    }
}

fn fold_numeric(counters: &mut HashMap<String, f64>, name: &str, fields: &[(Key, Value)]) {
    for (key, value) in fields {
        if key == "wall_ns" {
            continue; // wall time is reported through span totals instead
        }
        if let Some(v) = value.as_f64() {
            *counters.entry(format!("{name}.{key}")).or_insert(0.0) += v;
        }
    }
}

fn gen_rows(sorted: &[&Event]) -> Vec<GenRow> {
    let mut rows = Vec::new();
    for event in sorted {
        if event.kind != EventKind::SpanEnd || event.name != "ga.generation" {
            continue;
        }
        let get_u64 = |k: &str| event.field(k).and_then(Value::as_u64).unwrap_or(0);
        let get_f64 = |k: &str| {
            event
                .field(k)
                .and_then(Value::as_f64)
                .filter(|v| v.is_finite())
        };
        rows.push(GenRow {
            generation: get_u64("generation"),
            evaluations: get_u64("evaluations"),
            feasible: get_u64("feasible"),
            front_size: get_u64("front_size"),
            best_0: get_f64("best_0"),
            best_1: get_f64("best_1"),
            hypervolume: get_f64("hypervolume"),
            churn: get_u64("churn"),
        });
    }
    rows.sort_by_key(|r| r.generation);
    rows
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    }
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => {
            let mut s = String::new();
            Value::F64(v).write_json(&mut s);
            s
        }
        _ => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_trace() -> Vec<Event> {
        let rec = Recorder::ring(256);
        {
            let mut dse = rec.span("dse.explore", &[("benchmark", "cruise".into())]);
            for generation in 0..2u64 {
                let mut g = rec.span("ga.generation", &[]);
                {
                    let _b = rec.span("eval.batch", &[("genomes", 4u64.into())]);
                }
                rec.counter(
                    "sched.analyze",
                    &[("transitions", 3u64.into()), ("backend_calls", 5u64.into())],
                );
                g.field("generation", generation);
                g.field("evaluations", 4u64);
                g.field("feasible", 3u64);
                g.field("front_size", 2u64 + generation);
                g.field("best_0", 10.5 - generation as f64);
                g.field("best_1", 0.25);
                g.field("hypervolume", 1.0 + generation as f64);
                g.field("churn", 1u64);
            }
            dse.field("audit_evaluations", 8u64);
        }
        rec.events()
    }

    #[test]
    fn profile_aggregates_spans_counters_and_generations() {
        let events = sample_trace();
        let profile = TraceProfile::from_events(&events);
        assert_eq!(profile.events, events.len());

        let names: Vec<&str> = profile.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"dse.explore"));
        assert!(names.contains(&"ga.generation"));
        assert!(names.contains(&"eval.batch"));
        let ga = profile
            .spans
            .iter()
            .find(|s| s.name == "ga.generation")
            .unwrap();
        assert_eq!(ga.count, 2);
        assert!(ga.self_ns <= ga.total_ns);

        let transitions = profile
            .counters
            .iter()
            .find(|(k, _)| k == "sched.analyze.transitions")
            .map(|(_, v)| *v);
        assert_eq!(transitions, Some(6.0));
        let count = profile
            .counters
            .iter()
            .find(|(k, _)| k == "sched.analyze.count")
            .map(|(_, v)| *v);
        assert_eq!(count, Some(2.0));

        assert_eq!(profile.generations.len(), 2);
        assert_eq!(profile.generations[0].generation, 0);
        assert_eq!(profile.generations[1].front_size, 3);
        assert_eq!(profile.generations[1].best_0, Some(9.5));
        assert_eq!(profile.generations[1].hypervolume, Some(2.0));
    }

    #[test]
    fn jsonl_roundtrip_preserves_the_profile() {
        let events = sample_trace();
        let jsonl: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        let profile = TraceProfile::from_jsonl(&jsonl).unwrap();
        assert_eq!(profile.generations.len(), 2);
        assert_eq!(profile.events, events.len());
        let text = profile.render_text();
        assert!(text.contains("ga.generation"));
        assert!(text.contains("generations"));
        let json = profile.to_json();
        assert!(json.contains("\"generations\":["));
        crate::json::parse_json(&json).expect("profile json parses");
    }

    #[test]
    fn canonical_trace_is_wall_clock_free_and_seq_ordered() {
        let events = sample_trace();
        let canon = canonical_trace(&events);
        assert!(!canon.contains("wall_ns"));
        assert!(!canon.contains("nondet"));
        let seqs: Vec<u64> = canon
            .lines()
            .map(|l| {
                let j = crate::json::parse_json(l).unwrap();
                j.get("seq").unwrap().as_u64().unwrap()
            })
            .collect();
        let mut expected = seqs.clone();
        expected.sort_unstable();
        assert_eq!(seqs, expected);

        // Shuffled input canonicalizes identically.
        let mut reversed: Vec<Event> = events.clone();
        reversed.reverse();
        assert_eq!(canonical_trace(&reversed), canon);
    }

    #[test]
    fn canonicalize_jsonl_matches_in_memory_canonicalization() {
        let events = sample_trace();
        let jsonl: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(
            canonicalize_jsonl(&jsonl).unwrap(),
            canonical_trace(&events)
        );
    }
}
