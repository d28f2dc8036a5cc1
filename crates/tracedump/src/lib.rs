//! `wilocator-tracedump`: offline inspection of what the server exports —
//! the flight recorder's Chrome trace-event JSON, and (in [`dash`]) the
//! quality plane's `/debug` JSON.
//!
//! The server's [`Tracer`](https://ui.perfetto.dev)-loadable export is a
//! flat list of complete (`"ph":"X"`) events — one per span, `pid` =
//! shard, `tid` = trace id, `ts`/`dur` in microseconds, structured span
//! fields under `args`. This crate parses that export with a small
//! hand-rolled JSON reader (the workspace vendors no serde), validates
//! the event schema and span nesting, and renders the analyses the
//! on-call workflows need: top-K slowest spans, per-stage and per-route
//! latency breakdowns, and an anomaly summary.
//!
//! Run it as `cargo run -p wilocator-tracedump -- trace.json [--top K]`,
//! or `cargo run -p wilocator-tracedump -- dash debug.json [--check]` for
//! the quality dashboard.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod dash;

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object keys keep their input order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Nothing the
/// workspace writes nests deeper than about ten levels (SARIF is the
/// deepest); the bound keeps a hostile file or socket from overflowing
/// the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Errors carry the byte offset they were
/// detected at; arrays and objects nested more than 128 deep are an
/// error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid token at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("non-utf8 number at byte {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    *pos += 1; // opening quote
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .copied()
                    .ok_or_else(|| format!("unterminated escape at byte {start}"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Consume one UTF-8 scalar (the export is valid UTF-8).
                let len = utf8_len(b);
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| format!("invalid utf-8 at byte {pos}", pos = *pos))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        out.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Trace-event schema
// ---------------------------------------------------------------------------

/// One complete span event from the export.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub name: String,
    pub ph: String,
    /// Start, microseconds on the recorder's clock.
    pub ts: u64,
    /// Duration, microseconds.
    pub dur: u64,
    /// Shard index.
    pub pid: u64,
    /// Trace id.
    pub tid: u64,
    /// Structured span fields (`args`), in export order.
    pub args: Vec<(String, Json)>,
}

impl Event {
    pub fn arg(&self, key: &str) -> Option<&Json> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn end(&self) -> u64 {
        self.ts.saturating_add(self.dur)
    }
}

/// The Chrome trace-event keys every exported span must carry.
pub const REQUIRED_KEYS: [&str; 5] = ["ph", "ts", "pid", "tid", "name"];

/// Parses and schema-checks a whole export: the document must be an
/// object with a `traceEvents` array, and every event must carry the
/// [`REQUIRED_KEYS`] with the right types (`ph` is `"X"` — the recorder
/// only emits complete events).
pub fn parse_trace(text: &str) -> Result<Vec<Event>, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("document has no `traceEvents` member")?;
    let Json::Arr(items) = events else {
        return Err("`traceEvents` is not an array".to_string());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        for key in REQUIRED_KEYS {
            if item.get(key).is_none() {
                return Err(format!("event {i} is missing required key `{key}`"));
            }
        }
        let field_str = |key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event {i}: `{key}` is not a string"))
        };
        let field_u64 = |key: &str| -> Result<u64, String> {
            item.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {i}: `{key}` is not a non-negative integer"))
        };
        let ph = field_str("ph")?;
        if ph != "X" {
            return Err(format!("event {i}: phase `{ph}` is not a complete event"));
        }
        let args = match item.get("args") {
            Some(Json::Obj(members)) => members.clone(),
            Some(_) => return Err(format!("event {i}: `args` is not an object")),
            None => Vec::new(),
        };
        out.push(Event {
            name: field_str("name")?,
            ph,
            ts: field_u64("ts")?,
            dur: item.get("dur").and_then(Json::as_u64).unwrap_or(0),
            pid: field_u64("pid")?,
            tid: field_u64("tid")?,
            args,
        });
    }
    Ok(out)
}

/// Checks that the spans of every trace (`tid` group) nest: sorted by
/// start (longest first on ties), each span must sit entirely inside the
/// enclosing open span. A span that straddles its parent's end means the
/// recorder emitted a malformed tree. Spans that merely *touch* (one
/// starts in the microsecond the previous ended — routine at µs
/// resolution) count as disjoint siblings, not as nested.
pub fn validate_nesting(events: &[Event]) -> Result<(), String> {
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for ev in events {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    for (tid, mut spans) in by_tid {
        spans.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));
        let mut stack: Vec<&Event> = Vec::new();
        for ev in spans {
            while stack
                .last()
                .is_some_and(|top| top.end() <= ev.ts && !(top.ts == ev.ts && ev.dur == 0))
            {
                stack.pop();
            }
            if let Some(top) = stack.last() {
                if ev.end() > top.end() {
                    return Err(format!(
                        "trace {tid}: span `{}` [{}, {}] straddles `{}` [{}, {}]",
                        ev.name,
                        ev.ts,
                        ev.end(),
                        top.name,
                        top.ts,
                        top.end()
                    ));
                }
            }
            stack.push(ev);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Analyses
// ---------------------------------------------------------------------------

/// Aggregated latency of one group (a stage name or a route).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupStats {
    pub key: String,
    pub count: u64,
    pub total_us: u64,
    pub max_us: u64,
}

impl GroupStats {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

fn aggregate<'e>(events: impl IntoIterator<Item = (&'e Event, String)>) -> Vec<GroupStats> {
    let mut groups: BTreeMap<String, GroupStats> = BTreeMap::new();
    for (ev, key) in events {
        let entry = groups.entry(key.clone()).or_insert(GroupStats {
            key,
            count: 0,
            total_us: 0,
            max_us: 0,
        });
        entry.count += 1;
        entry.total_us = entry.total_us.saturating_add(ev.dur);
        entry.max_us = entry.max_us.max(ev.dur);
    }
    let mut out: Vec<GroupStats> = groups.into_values().collect();
    out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.key.cmp(&b.key)));
    out
}

/// Per-stage latency breakdown: every span grouped by name, sorted by
/// total time descending.
pub fn stage_breakdown(events: &[Event]) -> Vec<GroupStats> {
    aggregate(events.iter().map(|e| (e, e.name.clone())))
}

/// Per-route latency breakdown over root `ingest` spans (the only spans
/// stamped with a `route` arg), keyed `R<id>`.
pub fn route_breakdown(events: &[Event]) -> Vec<GroupStats> {
    aggregate(events.iter().filter_map(|e| {
        let route = e.arg("route")?.as_u64()?;
        Some((e, format!("R{route}")))
    }))
}

/// The `k` slowest spans, duration descending (ties break toward earlier
/// start, then lower trace id, so output is stable).
pub fn top_slowest(events: &[Event], k: usize) -> Vec<&Event> {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by(|a, b| {
        b.dur
            .cmp(&a.dur)
            .then(a.ts.cmp(&b.ts))
            .then(a.tid.cmp(&b.tid))
    });
    sorted.truncate(k);
    sorted
}

/// Anomaly kinds and how many retained traces carry each, sorted by
/// count descending then kind.
pub fn anomaly_summary(events: &[Event]) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        if let Some(kind) = ev.arg("anomaly").and_then(Json::as_str) {
            *counts.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(String, u64)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// The full text report the CLI prints.
pub fn render_report(events: &[Event], top_k: usize) -> String {
    let traces: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tracedump: {} spans across {} traces",
        events.len(),
        traces.len()
    );

    let _ = writeln!(out, "\ntop {top_k} slowest spans");
    let _ = writeln!(
        out,
        "  {:>9}  {:<16} {:>6} {:>8}",
        "dur_us", "name", "shard", "trace"
    );
    for ev in top_slowest(events, top_k) {
        let _ = writeln!(
            out,
            "  {:>9}  {:<16} {:>6} {:>8}",
            ev.dur, ev.name, ev.pid, ev.tid
        );
    }

    let _ = writeln!(out, "\nper-stage latency");
    let _ = writeln!(
        out,
        "  {:<16} {:>7} {:>10} {:>10} {:>9}",
        "stage", "count", "total_us", "mean_us", "max_us"
    );
    for g in stage_breakdown(events) {
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>10} {:>10.1} {:>9}",
            g.key,
            g.count,
            g.total_us,
            g.mean_us(),
            g.max_us
        );
    }

    let routes = route_breakdown(events);
    if !routes.is_empty() {
        let _ = writeln!(out, "\nper-route ingest latency");
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>10} {:>10} {:>9}",
            "route", "count", "total_us", "mean_us", "max_us"
        );
        for g in routes {
            let _ = writeln!(
                out,
                "  {:<16} {:>7} {:>10} {:>10.1} {:>9}",
                g.key,
                g.count,
                g.total_us,
                g.mean_us(),
                g.max_us
            );
        }
    }

    let anomalies = anomaly_summary(events);
    let _ = writeln!(out, "\nanomalies");
    if anomalies.is_empty() {
        let _ = writeln!(out, "  none recorded");
    }
    for (kind, n) in anomalies {
        let _ = writeln!(out, "  {kind:<24} {n:>5}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
        {"name":"ingest","cat":"wilocator","ph":"X","ts":0,"dur":10,"pid":0,"tid":1,
         "args":{"bus":7,"route":0,"outcome":"fix"}},
        {"name":"track","cat":"wilocator","ph":"X","ts":1,"dur":8,"pid":0,"tid":1,
         "args":{"parent":0}},
        {"name":"ingest","cat":"wilocator","ph":"X","ts":20,"dur":4,"pid":0,"tid":2,
         "args":{"bus":9,"anomaly":"unknown_bus"}}
    ]}"#;

    #[test]
    fn parses_sample_and_validates_schema() {
        let events = parse_trace(SAMPLE).expect("sample parses");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "ingest");
        assert_eq!(events[0].ph, "X");
        assert_eq!(events[1].arg("parent").and_then(Json::as_u64), Some(0));
        validate_nesting(&events).expect("sample nests");
    }

    #[test]
    fn missing_required_key_is_rejected() {
        for key in REQUIRED_KEYS {
            let doc = parse_json(SAMPLE).expect("sample is json");
            // Re-render the doc with `key` dropped from the first event.
            let Json::Obj(mut members) = doc else {
                panic!("sample root is an object")
            };
            let Some((_, Json::Arr(events))) = members.iter_mut().find(|(k, _)| k == "traceEvents")
            else {
                panic!("sample has traceEvents")
            };
            let Json::Obj(first) = &mut events[0] else {
                panic!("event is an object")
            };
            first.retain(|(k, _)| k != key);
            let text = render_json(&Json::Obj(members));
            let err = parse_trace(&text).expect_err("schema check fires");
            assert!(err.contains(key), "error `{err}` names `{key}`");
        }
    }

    /// Test-only JSON renderer, just enough to re-serialize the sample.
    fn render_json(v: &Json) -> String {
        match v {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => {
                if n.fract() == 0.0 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Json::Str(s) => format!("{s:?}"),
            Json::Arr(items) => format!(
                "[{}]",
                items.iter().map(render_json).collect::<Vec<_>>().join(",")
            ),
            Json::Obj(members) => format!(
                "{{{}}}",
                members
                    .iter()
                    .map(|(k, v)| format!("{k:?}:{}", render_json(v)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }

    #[test]
    fn straddling_span_fails_nesting() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":1},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":1}
        ]}"#;
        let events = parse_trace(text).expect("parses");
        assert!(validate_nesting(&events).is_err());
    }

    #[test]
    fn analyses_aggregate_and_rank() {
        let events = parse_trace(SAMPLE).expect("sample parses");
        let stages = stage_breakdown(&events);
        assert_eq!(stages[0].key, "ingest");
        assert_eq!(stages[0].count, 2);
        assert_eq!(stages[0].total_us, 14);
        let routes = route_breakdown(&events);
        assert_eq!(
            routes,
            vec![GroupStats {
                key: "R0".to_string(),
                count: 1,
                total_us: 10,
                max_us: 10,
            }]
        );
        let top = top_slowest(&events, 2);
        assert_eq!(top[0].name, "ingest");
        assert_eq!(top[0].dur, 10);
        assert_eq!(top[1].name, "track");
        assert_eq!(
            anomaly_summary(&events),
            vec![("unknown_bus".to_string(), 1)]
        );
        let report = render_report(&events, 2);
        assert!(report.contains("3 spans across 2 traces"));
        assert!(report.contains("unknown_bus"));
        assert!(report.contains("per-route ingest latency"));
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let err = parse_json(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("byte 128"), "{err}");
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse_json(&arrays(MAX_DEPTH + 1)).is_err());
        let objects = |n: usize| format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert!(parse_json(&objects(MAX_DEPTH)).is_ok());
        assert!(parse_json(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn json_escapes_round_trip() {
        let text = r#"{"traceEvents":[
            {"name":"say \"hi\"\n\\","ph":"X","ts":1,"pid":0,"tid":1}
        ]}"#;
        let events = parse_trace(text).expect("parses");
        assert_eq!(events[0].name, "say \"hi\"\n\\");
        assert_eq!(events[0].dur, 0, "missing dur defaults to zero-width");
    }

    /// End-to-end against the real recorder: build a trace with the
    /// vendored obs crate, export, parse, and validate the schema the
    /// ISSUE pins (`ph`/`ts`/`pid`/`tid`/`name`) plus nesting.
    #[test]
    fn real_tracer_export_parses_and_nests() {
        use std::sync::Arc;
        use wilocator_obs::{SteppingClock, TraceConfig, Tracer};

        let tracer = Tracer::new(
            TraceConfig::default(),
            2,
            Arc::new(SteppingClock::new(0, 3)),
        );
        {
            let ctx = tracer.start_root_span(1, "ingest").expect("enabled");
            ctx.field("bus", 42u64);
            ctx.field("route", 0u64);
            {
                let span = ctx.child_span("track");
                span.field("ranked_aps", 5u64);
            }
            ctx.flag_anomaly("dead_reckoned");
        }
        let json = tracer.chrome_trace_json();
        let events = parse_trace(&json).expect("recorder export parses");
        assert_eq!(events.len(), 2);
        validate_nesting(&events).expect("recorder export nests");
        assert!(events.iter().all(|e| e.ph == "X" && e.pid == 1));
        let root = events.iter().find(|e| e.name == "ingest").expect("root");
        assert_eq!(
            root.arg("anomaly").and_then(Json::as_str),
            Some("dead_reckoned")
        );
        assert_eq!(root.arg("bus").and_then(Json::as_u64), Some(42));
        let report = render_report(&events, 5);
        assert!(report.contains("dead_reckoned"));
    }
}
