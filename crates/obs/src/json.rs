//! A minimal JSON reader for the trace formats this crate itself writes.
//!
//! The workspace is offline (no serde); this hand-rolled recursive-descent
//! parser covers the full JSON grammar and is only ~150 lines, which keeps
//! `mcmap_cli obs` able to re-read any recorded JSONL trace.

use crate::event::{Event, EventKind, Key, Value};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written with a fraction or exponent.
    Num(f64),
    /// A negative integer literal (no `.`/`e`), kept exact.
    Int(i64),
    /// A non-negative integer literal (no `.`/`e`), kept exact.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array's items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an array of `u64`s.
    pub fn as_u64_list(&self) -> Option<Vec<u64>> {
        self.as_arr()?.iter().map(Json::as_u64).collect()
    }

    /// Object member `key`, or an error naming it. This and the typed
    /// `*_member` accessors are what sealed-document decoders chain with
    /// `?`.
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    /// Member `key` as `u64`; the error names `key`.
    pub fn u64_member(&self, key: &str) -> Result<u64, String> {
        self.typed_member(key, Json::as_u64, "unsigned integer")
    }

    /// Member `key` as an array's items; the error names `key`.
    pub fn arr_member(&self, key: &str) -> Result<&[Json], String> {
        self.typed_member(key, Json::as_arr, "array")
    }

    /// Member `key` as an array of `u64`s; the error names `key`.
    pub fn u64_list_member(&self, key: &str) -> Result<Vec<u64>, String> {
        self.typed_member(key, Json::as_u64_list, "array of unsigned integers")
    }

    fn typed_member<'a, T>(
        &'a self,
        key: &str,
        convert: fn(&'a Json) -> Option<T>,
        expected: &str,
    ) -> Result<T, String> {
        convert(self.member(key)?).ok_or_else(|| format!("`{key}`: expected {expected}"))
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a short description with a byte offset on malformed input.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at offset {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    // Integer literals stay exact (and re-render without a fraction),
    // which keeps JSONL canonical renderings stable across a round-trip.
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            c => {
                // Re-assemble multi-byte UTF-8 sequences.
                let len = match c {
                    0x00..=0x7f => 0,
                    0xc0..=0xdf => 1,
                    0xe0..=0xef => 2,
                    _ => 3,
                };
                let start = *pos - 1;
                *pos += len;
                let chunk = b.get(start..*pos).ok_or("truncated utf-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid utf-8")?);
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
        }
    }
}

fn map_of(json: &Json) -> Vec<(Key, Value)> {
    let Json::Obj(members) = json else {
        return Vec::new();
    };
    members
        .iter()
        .map(|(k, v)| {
            let value = match v {
                Json::Bool(b) => Value::Bool(*b),
                Json::UInt(n) => Value::U64(*n),
                Json::Int(n) => Value::I64(*n),
                Json::Num(n) => Value::F64(*n),
                Json::Str(s) => Value::Str(s.clone()),
                Json::Null => Value::F64(f64::NAN),
                _ => Value::Str(String::new()),
            };
            (Key::Owned(k.clone()), value)
        })
        .collect()
}

/// Reconstructs an [`Event`] from one parsed JSONL line.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped member.
pub fn event_from_json(json: &Json) -> Result<Event, String> {
    let seq = json
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("event without `seq`")?;
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .and_then(EventKind::parse)
        .ok_or("event without a valid `kind`")?;
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or("event without `name`")?
        .to_string();
    Ok(Event {
        seq,
        kind,
        name: Key::Owned(name),
        span: json.get("span").and_then(Json::as_u64),
        parent: json.get("parent").and_then(Json::as_u64),
        fields: json.get("fields").map(map_of).unwrap_or_default(),
        nondet: json.get("nondet").map(map_of).unwrap_or_default(),
    })
}

/// Parses a JSONL trace (one event per non-empty line).
///
/// # Errors
///
/// Returns the first malformed line's number and parse error.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let json = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(event_from_json(&json).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(events)
}

/// What [`events_from_jsonl_lossy`] salvaged from a possibly-truncated
/// trace file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceRecovery {
    /// Events recovered from the valid prefix.
    pub parsed_events: usize,
    /// Lines dropped (the first malformed line and everything after it).
    pub dropped_lines: usize,
    /// Bytes dropped with those lines.
    pub dropped_bytes: usize,
    /// Why the first dropped line failed to parse (`None` when nothing
    /// was dropped).
    pub error: Option<String>,
}

impl TraceRecovery {
    /// Whether anything had to be dropped.
    pub fn lossy(&self) -> bool {
        self.dropped_lines > 0
    }
}

/// The damage-tolerant sibling of [`events_from_jsonl`]: parses the valid
/// prefix of a trace and *reports* the rest instead of failing. A trace cut
/// short by a crash or `kill -9` typically ends in one torn line — this
/// keeps every complete event before it and accounts for the dropped tail
/// byte-exactly.
///
/// Everything from the first malformed line onward is dropped (not just
/// skipped): a torn line means the writer died mid-stream, so later bytes
/// are untrustworthy even if they happen to parse.
pub fn events_from_jsonl_lossy(text: &str) -> (Vec<Event>, TraceRecovery) {
    let mut events = Vec::new();
    let mut consumed = 0usize;
    let mut recovery = TraceRecovery::default();
    for (line_no, split) in text.split_inclusive('\n').enumerate() {
        let line = split.trim();
        if !line.is_empty() {
            match parse_json(line).and_then(|j| event_from_json(&j)) {
                Ok(ev) => events.push(ev),
                Err(e) => {
                    recovery.error = Some(format!("line {}: {e}", line_no + 1));
                    break;
                }
            }
        }
        consumed += split.len();
    }
    recovery.parsed_events = events.len();
    recovery.dropped_bytes = text.len() - consumed;
    recovery.dropped_lines = text[consumed..]
        .split_inclusive('\n')
        .filter(|l| !l.trim().is_empty())
        .count();
    (events, recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let j = parse_json(r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(j.get("c"), Some(&Json::Bool(true)));
        assert_eq!(j.get("b").unwrap().as_str(), Some("x\ny"));
        let Json::Arr(items) = j.get("a").unwrap() else {
            panic!("array expected")
        };
        assert_eq!(items[1], Json::Num(2.5));
        assert_eq!(items[2], Json::Int(-3));
        assert_eq!(j.get("d"), Some(&Json::Null));
    }

    #[test]
    fn member_accessors_name_the_key_on_error() {
        let j = parse_json(r#"{"n":7,"l":[1,2],"mixed":[1,"x"],"s":"x"}"#).unwrap();
        assert_eq!(j.u64_member("n"), Ok(7));
        assert_eq!(j.arr_member("l").map(<[Json]>::len), Ok(2));
        assert_eq!(j.u64_list_member("l"), Ok(vec![1, 2]));
        assert_eq!(j.member("gone").unwrap_err(), "missing key `gone`");
        for err in [
            j.u64_member("s").unwrap_err(),
            j.arr_member("s").unwrap_err(),
            j.u64_list_member("s").unwrap_err(),
        ] {
            assert!(err.contains("`s`"), "{err}");
        }
        assert!(j.u64_list_member("mixed").unwrap_err().contains("`mixed`"));
        assert_eq!(Json::Null.member("n").unwrap_err(), "missing key `n`");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12 34").is_err());
    }

    #[test]
    fn unicode_escapes_and_utf8_survive() {
        let j = parse_json(r#""été — ok""#).unwrap();
        assert_eq!(j.as_str(), Some("été — ok"));
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let ev = Event {
            seq: 12,
            kind: EventKind::Counter,
            name: "sched.analyze".into(),
            span: None,
            parent: Some(2),
            fields: vec![
                ("transitions".into(), 5u64.into()),
                ("feasible".into(), true.into()),
                ("codes".into(), "MC0110,MC0111".into()),
            ],
            nondet: vec![("wall_ns".into(), 999u64.into())],
        };
        let parsed = events_from_jsonl(&ev.to_jsonl()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], ev);
    }

    #[test]
    fn jsonl_reports_the_offending_line() {
        let err = events_from_jsonl("{\"seq\":1,\"kind\":\"mark\",\"name\":\"a\"}\nnot json\n")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn lossy_reader_salvages_the_valid_prefix() {
        let good = "{\"seq\":1,\"kind\":\"mark\",\"name\":\"a\"}\n\
                    {\"seq\":2,\"kind\":\"mark\",\"name\":\"b\"}\n";
        // A torn final line, as left behind by `kill -9` mid-write.
        let torn = "{\"seq\":3,\"kind\":\"ma";
        let (events, rec) = events_from_jsonl_lossy(&format!("{good}{torn}"));
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].seq, 2);
        assert!(rec.lossy());
        assert_eq!(rec.parsed_events, 2);
        assert_eq!(rec.dropped_lines, 1);
        assert_eq!(rec.dropped_bytes, torn.len());
        assert!(rec.error.as_deref().unwrap().starts_with("line 3:"));
    }

    #[test]
    fn lossy_reader_drops_everything_after_the_first_bad_line() {
        let text = "{\"seq\":1,\"kind\":\"mark\",\"name\":\"a\"}\n\
                    garbage\n\
                    {\"seq\":2,\"kind\":\"mark\",\"name\":\"b\"}\n";
        let (events, rec) = events_from_jsonl_lossy(text);
        assert_eq!(events.len(), 1);
        assert_eq!(rec.dropped_lines, 2, "the bad line and the orphan after");
        assert!(rec.dropped_bytes > "garbage\n".len());
    }

    #[test]
    fn lossy_reader_is_clean_on_intact_traces() {
        let text = "{\"seq\":1,\"kind\":\"mark\",\"name\":\"a\"}\n";
        let (events, rec) = events_from_jsonl_lossy(text);
        assert_eq!(events.len(), 1);
        assert!(!rec.lossy());
        assert_eq!(
            rec,
            TraceRecovery {
                parsed_events: 1,
                ..TraceRecovery::default()
            }
        );
        let (none, rec) = events_from_jsonl_lossy("");
        assert!(none.is_empty() && !rec.lossy());
    }
}
