//! The typed event model: field values, event kinds, and the [`Event`]
//! record with its JSONL and canonical renderings.

use core::fmt;
use core::fmt::Write as _;
use std::borrow::Cow;

/// An event or field name. Emission sites pass `&'static str` literals
/// (borrowed, zero-allocation on the hot path); events parsed back from
/// JSONL own their strings.
pub type Key = Cow<'static, str>;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter / identifier.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Floating-point quantity (objectives, rates, hypervolume).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short label (diagnostic codes, benchmark names).
    Str(String),
}

impl Value {
    /// Renders the value as a JSON fragment. Non-finite floats become
    /// `null` (JSON has no NaN/∞).
    pub fn write_json(&self, out: &mut String) {
        // Hand-rolled integer rendering: emission is a hot path (one
        // counter per evaluated candidate, mostly integer fields) and the
        // `core::fmt` machinery per field would dominate it.
        match self {
            Value::U64(v) => push_u64(out, *v),
            Value::I64(v) => {
                if *v < 0 {
                    out.push('-');
                    push_u64(out, v.unsigned_abs());
                } else {
                    push_u64(out, *v as u64);
                }
            }
            Value::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => push_json_str(out, s),
        }
    }

    /// The value as `f64`, for aggregation (`None` for strings).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Bool(v) => Some(if *v { 1.0 } else { 0.0 }),
            Value::Str(_) => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            Value::F64(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            Value::Bool(v) => Some(u64::from(*v)),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_json(&mut s);
        f.write_str(&s)
    }
}

/// Appends `v` in decimal without going through `core::fmt`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// JSON-escapes `s` (with surrounding quotes) into `out` — the one escape
/// set of every JSON this workspace writes for [`parse_json`] to read
/// back.
///
/// [`parse_json`]: crate::parse_json
pub fn push_json_str(out: &mut String, s: &str) {
    // Fast path: nothing to escape (true for every site/field name and
    // almost every label) — one bulk copy instead of per-char pushes.
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push('"');
        out.push_str(s);
        out.push('"');
        return;
    }
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `values` into `out` as a JSON array of integers (`[1,2,3]`),
/// the list form of every sealed document this workspace persists.
pub fn push_json_u64s(out: &mut String, values: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, v);
    }
    out.push(']');
}

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opening of a timed span.
    SpanBegin,
    /// Closing of a timed span (carries the wall-clock duration in the
    /// non-deterministic bucket).
    SpanEnd,
    /// A point measurement: a bundle of counters attributed to one site.
    Counter,
    /// A point-in-time marker (no measurement semantics).
    Mark,
}

impl EventKind {
    /// Stable lowercase name, as written to JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Mark => "mark",
        }
    }

    /// Parses the stable name back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "span_begin" => Some(EventKind::SpanBegin),
            "span_end" => Some(EventKind::SpanEnd),
            "counter" => Some(EventKind::Counter),
            "mark" => Some(EventKind::Mark),
            _ => None,
        }
    }
}

/// One record on the event bus.
///
/// The **determinism contract**: `seq`, `kind`, `name`, `span`, `parent`,
/// and `fields` are *canonical* — for a fixed exploration they are
/// bit-identical regardless of thread count, cache capacity, or host speed,
/// because ordering comes from an atomic sequence number incremented only on
/// deterministic (sequential) emission paths. Everything timing- or
/// race-dependent (wall-clock durations, cache hit/miss splits, throughput)
/// lives in `nondet`, which the canonical rendering strips.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emission sequence number (1-based, gapless per recorder).
    pub seq: u64,
    /// What the event marks.
    pub kind: EventKind,
    /// Dotted site name (`layer.site`, e.g. `sched.analyze`).
    pub name: Key,
    /// The span this event opens or closes (span id = the `seq` of its
    /// begin event); `None` for counters and marks.
    pub span: Option<u64>,
    /// Enclosing span at emission time, if any.
    pub parent: Option<u64>,
    /// Deterministic payload (replay-stable).
    pub fields: Vec<(Key, Value)>,
    /// Non-deterministic payload: wall-clock durations and thread-racy
    /// counters. Excluded from the canonical rendering.
    pub nondet: Vec<(Key, Value)>,
}

impl Event {
    /// Looks up a deterministic field.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// Looks up a non-deterministic field.
    pub fn nondet_field(&self, name: &str) -> Option<&Value> {
        self.nondet
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// Full JSONL rendering (one line, no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(&mut s);
        s
    }

    /// Full JSONL rendering appended to `out` (no trailing newline), for
    /// callers that reuse a serialization buffer across events.
    pub fn write_jsonl(&self, out: &mut String) {
        self.render(true, out);
    }

    /// Canonical rendering: the JSONL line without the `nondet` object.
    /// Two traces of the same exploration are replay-identical iff their
    /// canonical renderings match line for line.
    pub fn canonical(&self) -> String {
        let mut s = String::with_capacity(96);
        self.render(false, &mut s);
        s
    }

    fn render(&self, with_nondet: bool, s: &mut String) {
        s.push_str("{\"seq\":");
        push_u64(s, self.seq);
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.as_str());
        s.push_str("\",\"name\":");
        push_json_str(s, &self.name);
        if let Some(id) = self.span {
            s.push_str(",\"span\":");
            push_u64(s, id);
        }
        if let Some(p) = self.parent {
            s.push_str(",\"parent\":");
            push_u64(s, p);
        }
        if !self.fields.is_empty() {
            s.push_str(",\"fields\":");
            write_map(&self.fields, s);
        }
        if with_nondet && !self.nondet.is_empty() {
            s.push_str(",\"nondet\":");
            write_map(&self.nondet, s);
        }
        s.push('}');
    }
}

fn write_map(map: &[(Key, Value)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> Event {
        Event {
            seq: 7,
            kind: EventKind::SpanEnd,
            name: "ga.generation".into(),
            span: Some(3),
            parent: Some(1),
            fields: vec![
                ("generation".into(), 4u64.into()),
                ("best_0".into(), 1.5f64.into()),
                ("label".into(), "a\"b".into()),
            ],
            nondet: vec![("wall_ns".into(), 123u64.into())],
        }
    }

    #[test]
    fn u64_lists_render_as_json_arrays() {
        let mut out = String::new();
        push_json_u64s(&mut out, []);
        push_json_u64s(&mut out, [0, 7, u64::MAX]);
        assert_eq!(out, "[][0,7,18446744073709551615]");
    }

    #[test]
    fn jsonl_rendering_is_stable_and_escaped() {
        let line = event().to_jsonl();
        assert_eq!(
            line,
            "{\"seq\":7,\"kind\":\"span_end\",\"name\":\"ga.generation\",\"span\":3,\
             \"parent\":1,\"fields\":{\"generation\":4,\"best_0\":1.5,\"label\":\"a\\\"b\"},\
             \"nondet\":{\"wall_ns\":123}}"
        );
    }

    #[test]
    fn canonical_strips_the_nondet_bucket() {
        let c = event().canonical();
        assert!(!c.contains("nondet"));
        assert!(!c.contains("wall_ns"));
        assert!(c.contains("\"generation\":4"));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut s = String::new();
        Value::F64(f64::INFINITY).write_json(&mut s);
        assert_eq!(s, "null");
    }

    #[test]
    fn value_coercions_cover_the_numeric_kinds() {
        assert_eq!(Value::from(3usize).as_u64(), Some(3));
        assert_eq!(Value::from(true).as_f64(), Some(1.0));
        assert_eq!(Value::from(-2i64).as_u64(), None);
        assert_eq!(Value::from("x").as_f64(), None);
        assert_eq!(Value::F64(4.0).as_u64(), Some(4));
        assert_eq!(Value::F64(4.5).as_u64(), None);
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in [
            EventKind::SpanBegin,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Mark,
        ] {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(EventKind::parse("bogus"), None);
    }
}
