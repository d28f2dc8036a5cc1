//! Point-in-time metric aggregation: [`MetricsSnapshot`] and the
//! [`Collect`]/[`Registry`] plumbing that assembles one from many
//! per-shard metric structs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::histogram::HistogramSnapshot;
use crate::sync::unpoisoned;

/// Builds a metric key from a family name and a label set, in Prometheus
/// text form: `family{labels}`, or just `family` when `labels` is empty.
///
/// `labels` is passed pre-rendered (e.g. `shard="0"`); the callers of this
/// crate only ever need one or two static labels, so a full label map
/// would be weight without value.
pub fn metric_key(family: &str, labels: &str) -> String {
    if labels.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{labels}}}")
    }
}

/// A plain-data, mergeable snapshot of every metric the system exposes.
///
/// Counters and gauges are *deterministic* under the server's replay
/// guarantees (they count events, and event streams are reproducible);
/// histograms record wall-clock timings and are not. Consumers that need
/// bit-identical comparisons across runs (golden tests, multi-thread
/// replay identity) should compare [`MetricsSnapshot::deterministic_lines`]
/// and leave histograms to human eyes and dashboards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `key` (creating it at zero).
    pub fn add_counter(&mut self, key: impl Into<String>, v: u64) {
        *self.counters.entry(key.into()).or_insert(0) += v;
    }

    /// Adds `v` to the gauge `key` (creating it at zero).
    pub fn add_gauge(&mut self, key: impl Into<String>, v: i64) {
        *self.gauges.entry(key.into()).or_insert(0) += v;
    }

    /// Merges a histogram snapshot into `key`.
    pub fn add_histogram(&mut self, key: impl Into<String>, h: HistogramSnapshot) {
        self.histograms.entry(key.into()).or_default().merge(&h);
    }

    /// The counter value at `key` (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The gauge value at `key` (0 when absent).
    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// The histogram at `key`, if recorded.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(key)
    }

    /// All counters, sorted by key.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by key.
    pub fn gauges(&self) -> &BTreeMap<String, i64> {
        &self.gauges
    }

    /// All histograms, sorted by key.
    pub fn histograms(&self) -> &BTreeMap<String, HistogramSnapshot> {
        &self.histograms
    }

    /// Sums every counter whose family (the key up to any `{`) equals
    /// `family` — the all-labels total.
    pub fn counter_family_total(&self, family: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.as_str() == family || family_of(k) == family)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Folds another snapshot into this one (counters and gauges add,
    /// histograms merge).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            self.add_counter(k.clone(), v);
        }
        for (k, &v) in &other.gauges {
            self.add_gauge(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.add_histogram(k.clone(), h.clone());
        }
    }

    /// The deterministic subset (counters and gauges) as sorted
    /// `key value` lines — the canonical form for golden fixtures and
    /// cross-thread identity assertions. Histograms (timings) are omitted.
    pub fn deterministic_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (k, v) in &self.gauges {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// Prometheus text exposition (one `# HELP` + `# TYPE` pair per
    /// family, then the samples; histograms expand to
    /// `_bucket`/`_sum`/`_count` series). Every emitted line conforms to
    /// the exposition grammar checked by [`validate_exposition_line`].
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, key: &str, ty: &str| {
            let fam = family_of(key).to_string();
            if fam != last_family {
                out.push_str(&format!("# HELP {fam} {}\n", help_of(ty)));
                out.push_str(&format!("# TYPE {fam} {ty}\n"));
                last_family = fam;
            }
        };
        for (k, v) in &self.counters {
            type_line(&mut out, k, "counter");
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            type_line(&mut out, k, "gauge");
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let fam = family_of(k);
            let labels = labels_of(k);
            type_line(&mut out, k, "histogram");
            for (le, cum) in h.cumulative_buckets() {
                let le = if le == u64::MAX {
                    "+Inf".to_string()
                } else {
                    le.to_string()
                };
                let sep = if labels.is_empty() { "" } else { "," };
                out.push_str(&format!("{fam}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}\n"));
            }
            let lb = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            out.push_str(&format!("{fam}_sum{lb} {}\n", h.sum));
            out.push_str(&format!("{fam}_count{lb} {}\n", h.count));
        }
        out
    }
}

/// The family name of a key: everything before the label block.
fn family_of(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// The rendered labels of a key (without braces), or `""`.
fn labels_of(key: &str) -> &str {
    key.find('{')
        .map(|i| &key[i + 1..key.len() - 1])
        .unwrap_or("")
}

/// The `# HELP` docstring for a metric type. Per-family prose lives in
/// DESIGN.md; the exposition carries the type contract, which is what
/// scrapers act on.
fn help_of(ty: &str) -> &'static str {
    match ty {
        "counter" => "Monotonically increasing event count.",
        "gauge" => "Instantaneous value; may decrease.",
        _ => "Distribution of recorded values (microseconds for *_us families).",
    }
}

/// Escapes a label *value* for embedding in `name{label="value"}`: the
/// exposition format requires `\\`, `\"` and `\n` escapes inside quoted
/// label values. Use when a label value comes from runtime data (route
/// names, field ids) rather than a literal.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn validate_metric_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if is_name_start(c) => {}
        _ => return Err(format!("invalid metric name {name:?}")),
    }
    if chars.all(is_name_char) {
        Ok(())
    } else {
        Err(format!("invalid metric name {name:?}"))
    }
}

fn validate_label_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return Err(format!("invalid label name {name:?}")),
    }
    if chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Ok(())
    } else {
        Err(format!("invalid label name {name:?}"))
    }
}

/// Checks one line of Prometheus text exposition against the format
/// grammar: `# HELP`/`# TYPE` directives, free comments, or a sample
/// `name[{label="value",…}] value` with properly escaped label values
/// and a parseable sample value. Empty lines are legal separators.
pub fn validate_exposition_line(line: &str) -> Result<(), String> {
    if line.is_empty() {
        return Ok(());
    }
    if let Some(comment) = line.strip_prefix('#') {
        let body = comment.trim_start();
        if let Some(meta) = body.strip_prefix("TYPE ") {
            let mut parts = meta.split(' ');
            validate_metric_name(parts.next().unwrap_or(""))?;
            let ty = parts.next().unwrap_or("");
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                return Err(format!("unknown metric type {ty:?}"));
            }
            if parts.next().is_some() {
                return Err(format!("trailing tokens after TYPE: {line:?}"));
            }
            return Ok(());
        }
        if let Some(meta) = body.strip_prefix("HELP ") {
            let name = meta.split(' ').next().unwrap_or("");
            return validate_metric_name(name);
        }
        // Any other comment is legal free text.
        return Ok(());
    }
    // Sample line: metric name, optional label block, space, value.
    let name_end = line.find(|c: char| !is_name_char(c)).unwrap_or(line.len());
    validate_metric_name(line.get(..name_end).unwrap_or(""))?;
    let rest = line.get(name_end..).unwrap_or("");
    let rest = if let Some(labels) = rest.strip_prefix('{') {
        validate_label_block(labels)?
    } else {
        rest
    };
    let value = rest
        .strip_prefix(' ')
        .ok_or_else(|| format!("missing space before sample value: {line:?}"))?;
    let mut tokens = value.split(' ');
    let sample = tokens.next().unwrap_or("");
    let numeric = sample.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&sample);
    if !numeric {
        return Err(format!("unparseable sample value {sample:?}"));
    }
    // An optional integer timestamp may follow.
    if let Some(ts) = tokens.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("unparseable timestamp {ts:?}"));
        }
    }
    if tokens.next().is_some() {
        return Err(format!("trailing tokens after sample: {line:?}"));
    }
    Ok(())
}

/// Validates `label="value",…}` (the part after the opening brace) and
/// returns the remainder of the line after the closing brace.
fn validate_label_block(mut rest: &str) -> Result<&str, String> {
    loop {
        if let Some(after) = rest.strip_prefix('}') {
            return Ok(after);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in {rest:?}"))?;
        validate_label_name(rest.get(..eq).unwrap_or(""))?;
        let mut chars = rest.get(eq + 1..).unwrap_or("").char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("unquoted label value in {rest:?}"));
        }
        let mut close = None;
        let mut escaped = false;
        for (i, c) in chars.by_ref() {
            if escaped {
                if !['\\', '"', 'n'].contains(&c) {
                    return Err(format!("invalid escape `\\{c}` in label value"));
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let close = close.ok_or_else(|| format!("unterminated label value in {rest:?}"))?;
        rest = rest.get(eq + 1 + close + 1..).unwrap_or("");
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.starts_with('}') {
            return Err(format!(
                "expected `,` or `}}` after label value in {rest:?}"
            ));
        }
    }
}

/// Anything that can dump its metrics into a snapshot under a label set.
pub trait Collect: Send + Sync {
    /// Appends this collector's metrics to `out`, attaching `labels`
    /// (pre-rendered, e.g. `shard="3"`) to every key.
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot);
}

/// A list of labelled collectors gathered into one snapshot on demand.
///
/// Registration and gathering take a mutex; recording never does — the
/// collectors themselves are lock-free atomics. Register once at
/// construction, gather on scrape.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Arc<dyn Collect>)>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("Registry").field("collectors", &n).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a collector under a label set (may be empty).
    pub fn register(&self, labels: impl Into<String>, collector: Arc<dyn Collect>) {
        unpoisoned(self.entries.lock()).push((labels.into(), collector));
    }

    /// Gathers every registered collector into one snapshot.
    pub fn gather(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (labels, c) in unpoisoned(self.entries.lock()).iter() {
            c.collect_into(labels, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{Counter, Gauge};
    use crate::histogram::Histogram;

    #[test]
    fn metric_key_forms() {
        assert_eq!(metric_key("a_total", ""), "a_total");
        assert_eq!(metric_key("a_total", "shard=\"0\""), "a_total{shard=\"0\"}");
    }

    #[test]
    fn counters_merge_by_sum() {
        let mut a = MetricsSnapshot::new();
        a.add_counter("x_total", 2);
        let mut b = MetricsSnapshot::new();
        b.add_counter("x_total", 3);
        b.add_gauge("g", -1);
        a.merge(&b);
        assert_eq!(a.counter("x_total"), 5);
        assert_eq!(a.gauge("g"), -1);
    }

    #[test]
    fn family_total_sums_labels() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("f_total{shard=\"0\"}", 2);
        s.add_counter("f_total{shard=\"1\"}", 3);
        s.add_counter("g_total", 7);
        assert_eq!(s.counter_family_total("f_total"), 5);
        assert_eq!(s.counter_family_total("g_total"), 7);
        assert_eq!(s.counter_family_total("h_total"), 0);
    }

    #[test]
    fn deterministic_lines_sorted_and_stable() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("b_total", 1);
        s.add_counter("a_total", 2);
        s.add_gauge("z", 3);
        let h = Histogram::new();
        h.record(10);
        s.add_histogram("lat_us", h.snapshot());
        let lines = s.deterministic_lines();
        assert_eq!(lines, "a_total 2\nb_total 1\nz 3\n");
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("req_total{shard=\"0\"}", 4);
        s.add_counter("req_total{shard=\"1\"}", 6);
        s.add_gauge("buses", 2);
        let h = Histogram::new();
        h.record(5);
        s.add_histogram("lock_us{shard=\"0\"}", h.snapshot());
        let text = s.prometheus_text();
        assert!(text.contains("# TYPE req_total counter"));
        // TYPE emitted once for the family, not once per label set.
        assert_eq!(text.matches("# TYPE req_total").count(), 1);
        assert!(text.contains("req_total{shard=\"1\"} 6"));
        assert!(text.contains("# TYPE buses gauge"));
        assert!(text.contains("lock_us_bucket{shard=\"0\",le=\"7\"} 1"));
        assert!(text.contains("lock_us_sum{shard=\"0\"} 5"));
        assert!(text.contains("lock_us_count{shard=\"0\"} 1"));
    }

    #[test]
    fn prometheus_text_emits_help_once_per_family() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("req_total{shard=\"0\"}", 4);
        s.add_counter("req_total{shard=\"1\"}", 6);
        let text = s.prometheus_text();
        assert_eq!(text.matches("# HELP req_total").count(), 1);
        let help_idx = text.find("# HELP req_total").unwrap();
        let type_idx = text.find("# TYPE req_total").unwrap();
        assert!(help_idx < type_idx);
    }

    #[test]
    fn label_values_escape() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn exposition_grammar_accepts_legal_lines() {
        for line in [
            "",
            "# free comment",
            "# HELP req_total Total requests.",
            "# TYPE req_total counter",
            "# TYPE lat_us histogram",
            "req_total 3",
            "req_total{shard=\"0\"} 3",
            "req_total{shard=\"0\",route=\"9 \\\"B\\\" line\"} 3 1700000000",
            "lat_us_bucket{le=\"+Inf\"} 4",
            "temp -3.5",
            "odd NaN",
        ] {
            assert!(
                validate_exposition_line(line).is_ok(),
                "rejected legal line {line:?}: {:?}",
                validate_exposition_line(line)
            );
        }
    }

    #[test]
    fn exposition_grammar_rejects_malformed_lines() {
        for line in [
            "1bad_name 3",
            "name",
            "name{unclosed=\"x\" 3",
            "name{a=\"1\"b=\"2\"} 3",
            "name{a=unquoted} 3",
            "name{a=\"bad \\q escape\"} 3",
            "name notanumber",
            "name 3 extra tokens",
            "# TYPE name rainbow",
            "# HELP 1bad docs",
        ] {
            assert!(
                validate_exposition_line(line).is_err(),
                "accepted malformed line {line:?}"
            );
        }
    }

    #[test]
    fn every_rendered_line_passes_the_grammar() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("req_total{shard=\"0\"}", 4);
        s.add_counter(
            metric_key(
                "route_total",
                &format!("route=\"{}\"", escape_label_value("9 \"B\"\nline")),
            ),
            1,
        );
        s.add_gauge("buses", -2);
        let h = Histogram::new();
        h.record(5);
        s.add_histogram("lock_us{shard=\"0\"}", h.snapshot());
        for line in s.prometheus_text().lines() {
            validate_exposition_line(line)
                .unwrap_or_else(|e| panic!("line {line:?} fails grammar: {e}"));
        }
    }

    struct Demo {
        hits: Counter,
        depth: Gauge,
    }

    impl Collect for Demo {
        fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
            out.add_counter(metric_key("demo_hits_total", labels), self.hits.get());
            out.add_gauge(metric_key("demo_depth", labels), self.depth.get());
        }
    }

    #[test]
    fn registry_gathers_labelled_collectors() {
        let registry = Registry::new();
        let a = Arc::new(Demo {
            hits: Counter::new(),
            depth: Gauge::new(),
        });
        let b = Arc::new(Demo {
            hits: Counter::new(),
            depth: Gauge::new(),
        });
        a.hits.add(3);
        b.hits.add(4);
        b.depth.set(2);
        registry.register("shard=\"0\"", a.clone());
        registry.register("shard=\"1\"", b);
        let snap = registry.gather();
        assert_eq!(snap.counter("demo_hits_total{shard=\"0\"}"), 3);
        assert_eq!(snap.counter("demo_hits_total{shard=\"1\"}"), 4);
        assert_eq!(snap.counter_family_total("demo_hits_total"), 7);
        assert_eq!(snap.gauge("demo_depth{shard=\"1\"}"), 2);
        // Recording after registration is visible on the next gather.
        a.hits.inc();
        assert_eq!(registry.gather().counter("demo_hits_total{shard=\"0\"}"), 4);
    }
}
