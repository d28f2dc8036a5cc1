//! Quality-plane dashboard renderer.
//!
//! Parses the JSON published by the `/debug/timeseries`,
//! `/debug/quality` and `/debug/slo` endpoints — individually or as the
//! combined dump `wilocator_serve::debug_dump` writes — and renders a
//! deterministic text dashboard. The renderer is a pure function of the
//! parsed document: no clocks, no locale, no environment, so the same
//! dump always produces byte-identical output (CI diffs it, and the
//! golden tests rely on it).
//!
//! The JSON layer reuses the `wilocator-tracedump` parser; this crate
//! adds the schema: [`parse_dump`] validates member types and value
//! ranges strictly enough that `wilocator-dash --check` doubles as a
//! schema check for the debug endpoints in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wilocator_tracedump::{parse_json, Json};

/// One windowed aggregate point of a tracked series.
#[derive(Debug, Clone, PartialEq)]
pub enum PointAgg {
    /// Counter window: events in the window and their rate.
    Counter {
        /// Increment observed within the window.
        delta: u64,
        /// `delta` per elapsed second of the window.
        rate_per_s: f64,
    },
    /// Gauge window: last sampled value.
    Gauge {
        /// The sampled level.
        value: i64,
    },
    /// Histogram window: count plus quantiles of the window's deltas.
    Histogram {
        /// Observations recorded within the window.
        count: u64,
        /// Median upper-bound estimate.
        p50: u64,
        /// 90th-percentile upper-bound estimate.
        p90: u64,
        /// 99th-percentile upper-bound estimate.
        p99: u64,
    },
}

/// A point on a series: window start plus its aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Window start, microseconds on the publishing clock.
    pub start_us: u64,
    /// The windowed aggregate.
    pub agg: PointAgg,
}

/// One tracked metric family's windowed history.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric family name.
    pub family: String,
    /// Closed windows oldest first; the open window last.
    pub points: Vec<Point>,
}

/// ETA accuracy at one prediction horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Horizon {
    /// Horizon length in seconds (how far ahead the ETA was issued).
    pub horizon_s: f64,
    /// Confirmed (bus actually arrived) predictions folded in so far.
    pub confirmed_total: u64,
    /// Mean absolute ETA error, seconds.
    pub mean_abs_error_s: f64,
    /// Signed residual quantiles, seconds (positive = predicted late).
    pub p50_s: f64,
    /// 90th percentile of the signed residual, seconds.
    pub p90_s: f64,
    /// 99th percentile of the signed residual, seconds.
    pub p99_s: f64,
    /// 90th percentile of the absolute residual, seconds.
    pub p90_abs_s: f64,
    /// Confirmations inside the recent window ring.
    pub recent_confirmed: u64,
    /// p90 over only the recent window ring, seconds.
    pub recent_p90_s: f64,
    /// Absolute-residual p90 over only the recent window ring, seconds.
    pub recent_p90_abs_s: f64,
}

/// One route's ETA-accuracy table.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteQuality {
    /// Route label as served (e.g. `R0`).
    pub route: String,
    /// Per-horizon accuracy, shortest horizon first.
    pub horizons: Vec<Horizon>,
}

/// One drift detector's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    /// Detector name (e.g. `dead_reckon_fraction`).
    pub name: String,
    /// Whether both burn windows exceeded the threshold.
    pub fired: bool,
    /// Burn rate over the short window (1.0 = exactly at threshold).
    pub short_burn: f64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// The configured threshold the burns are normalized against.
    pub threshold: f64,
    /// Denominator events in the short window.
    pub short_events: u64,
    /// Denominator events in the long window.
    pub long_events: u64,
    /// Retained flight-recorder trace ids exemplifying the anomaly.
    pub exemplar_trace_ids: Vec<u64>,
}

/// A parsed debug dump: the three `/debug` sections plus the stamps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dashboard {
    /// Snapshot epoch the sections were published with.
    pub epoch: u64,
    /// Stream time of the snapshot, seconds.
    pub as_of_s: f64,
    /// Stream time the quality sections were last evaluated, seconds.
    pub evaluated_at_s: f64,
    /// Live snapshot staleness when the dump was taken (absent on
    /// `/debug/timeseries` and `/debug/quality` bodies).
    pub staleness_s: Option<f64>,
    /// Windowed series, one per tracked family.
    pub series: Vec<Series>,
    /// Per-route ETA accuracy.
    pub routes: Vec<RouteQuality>,
    /// Drift-detector statuses.
    pub detectors: Vec<Detector>,
}

impl Dashboard {
    /// Names of detectors currently firing, dump order.
    pub fn fired(&self) -> Vec<&str> {
        self.detectors
            .iter()
            .filter(|d| d.fired)
            .map(|d| d.name.as_str())
            .collect()
    }
}

fn member_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("{ctx}: missing or non-integer `{key}`"))
}

fn member_f64(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("{ctx}: non-numeric `{key}`")),
        None => Err(format!("{ctx}: missing `{key}`")),
    }
}

fn member_i64(obj: &Json, key: &str, ctx: &str) -> Result<i64, String> {
    let v = member_f64(obj, key, ctx)?;
    if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&v) {
        Ok(v as i64)
    } else {
        Err(format!("{ctx}: `{key}` is not a signed integer"))
    }
}

fn member_bool(obj: &Json, key: &str, ctx: &str) -> Result<bool, String> {
    match obj.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("{ctx}: missing or non-boolean `{key}`")),
    }
}

fn member_str<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("{ctx}: missing or non-string `{key}`"))
}

fn member_arr<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], String> {
    match obj.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("{ctx}: missing or non-array `{key}`")),
    }
}

fn parse_point(kind: &str, point: &Json, ctx: &str) -> Result<Point, String> {
    let start_us = member_u64(point, "start_us", ctx)?;
    let agg = match kind {
        "counter" => PointAgg::Counter {
            delta: member_u64(point, "delta", ctx)?,
            rate_per_s: member_f64(point, "rate_per_s", ctx)?,
        },
        "gauge" => PointAgg::Gauge {
            value: member_i64(point, "value", ctx)?,
        },
        "histogram" => PointAgg::Histogram {
            count: member_u64(point, "count", ctx)?,
            p50: member_u64(point, "p50", ctx)?,
            p90: member_u64(point, "p90", ctx)?,
            p99: member_u64(point, "p99", ctx)?,
        },
        other => return Err(format!("{ctx}: unknown series kind `{other}`")),
    };
    Ok(Point { start_us, agg })
}

fn parse_series(items: &[Json]) -> Result<Vec<Series>, String> {
    let mut out = Vec::with_capacity(items.len());
    for view in items {
        let family = member_str(view, "family", "series")?.to_string();
        let ctx = format!("series `{family}`");
        let kind = member_str(view, "kind", &ctx)?;
        if !["counter", "gauge", "histogram"].contains(&kind) {
            return Err(format!("{ctx}: unknown series kind `{kind}`"));
        }
        let mut points = Vec::new();
        let mut prev_start = None;
        for point in member_arr(view, "points", &ctx)? {
            let point = parse_point(kind, point, &ctx)?;
            if prev_start.is_some_and(|p| point.start_us <= p) {
                return Err(format!("{ctx}: window starts must be increasing"));
            }
            prev_start = Some(point.start_us);
            points.push(point);
        }
        out.push(Series { family, points });
    }
    Ok(out)
}

fn parse_routes(items: &[Json]) -> Result<Vec<RouteQuality>, String> {
    let mut out = Vec::with_capacity(items.len());
    for entry in items {
        let route = member_str(entry, "route", "routes")?.to_string();
        let ctx = format!("route `{route}`");
        let mut horizons = Vec::new();
        for h in member_arr(entry, "horizons", &ctx)? {
            horizons.push(Horizon {
                horizon_s: member_f64(h, "horizon_s", &ctx)?,
                confirmed_total: member_u64(h, "confirmed_total", &ctx)?,
                mean_abs_error_s: member_f64(h, "mean_abs_error_s", &ctx)?,
                p50_s: member_f64(h, "p50_s", &ctx)?,
                p90_s: member_f64(h, "p90_s", &ctx)?,
                p99_s: member_f64(h, "p99_s", &ctx)?,
                p90_abs_s: member_f64(h, "p90_abs_s", &ctx)?,
                recent_confirmed: member_u64(h, "recent_confirmed", &ctx)?,
                recent_p90_s: member_f64(h, "recent_p90_s", &ctx)?,
                recent_p90_abs_s: member_f64(h, "recent_p90_abs_s", &ctx)?,
            });
        }
        out.push(RouteQuality { route, horizons });
    }
    Ok(out)
}

fn parse_detectors(items: &[Json]) -> Result<Vec<Detector>, String> {
    let mut out = Vec::with_capacity(items.len());
    for d in items {
        let name = member_str(d, "name", "detectors")?.to_string();
        let ctx = format!("detector `{name}`");
        let mut exemplar_trace_ids = Vec::new();
        for id in member_arr(d, "exemplar_trace_ids", &ctx)? {
            exemplar_trace_ids.push(
                id.as_u64()
                    .ok_or_else(|| format!("{ctx}: non-integer exemplar trace id"))?,
            );
        }
        out.push(Detector {
            fired: member_bool(d, "fired", &ctx)?,
            short_burn: member_f64(d, "short_burn", &ctx)?,
            long_burn: member_f64(d, "long_burn", &ctx)?,
            threshold: member_f64(d, "threshold", &ctx)?,
            short_events: member_u64(d, "short_events", &ctx)?,
            long_events: member_u64(d, "long_events", &ctx)?,
            exemplar_trace_ids,
            name,
        });
    }
    Ok(out)
}

/// Parses one debug document: the combined dump, or any single
/// `/debug/*` endpoint body (sections the body lacks parse as empty).
///
/// # Errors
///
/// Returns a one-line description of the first structural problem —
/// invalid JSON, a missing stamp, a mistyped member, or non-monotone
/// window starts.
pub fn parse_dump(text: &str) -> Result<Dashboard, String> {
    let doc = parse_json(text)?;
    let mut dash = Dashboard {
        epoch: member_u64(&doc, "epoch", "dump")?,
        as_of_s: member_f64(&doc, "as_of_s", "dump")?,
        evaluated_at_s: member_f64(&doc, "evaluated_at_s", "dump")?,
        ..Dashboard::default()
    };
    if doc.get("staleness_s").is_some() {
        dash.staleness_s = Some(member_f64(&doc, "staleness_s", "dump")?);
    }
    if let Some(Json::Arr(items)) = doc.get("series") {
        dash.series = parse_series(items)?;
    }
    if let Some(Json::Arr(items)) = doc.get("routes") {
        dash.routes = parse_routes(items)?;
    }
    if let Some(Json::Arr(items)) = doc.get("detectors") {
        dash.detectors = parse_detectors(items)?;
    }
    Ok(dash)
}

/// Fixed-width, locale-free float: one decimal place, `-` for NaN.
fn fmt1(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "-".to_string()
    }
}

/// Signed residual quantile: explicit `+` on non-negative values so
/// early/late reads at a glance.
fn fmt_signed(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v >= 0.0 {
        format!("+{v:.1}")
    } else {
        format!("{v:.1}")
    }
}

fn pad(s: &str, width: usize) -> String {
    format!("{s:<width$}")
}

fn render_detectors(out: &mut String, detectors: &[Detector]) {
    out.push_str("== slo detectors ==\n");
    if detectors.is_empty() {
        out.push_str("  (none evaluated)\n");
        return;
    }
    for d in detectors {
        let state = if d.fired { "FIRED" } else { "ok" };
        out.push_str(&format!(
            "  {} {} short={} long={} thr={} events={}/{}",
            pad(&d.name, 22),
            pad(state, 5),
            fmt1(d.short_burn),
            fmt1(d.long_burn),
            fmt1(d.threshold),
            d.short_events,
            d.long_events,
        ));
        if !d.exemplar_trace_ids.is_empty() {
            let ids: Vec<String> = d
                .exemplar_trace_ids
                .iter()
                .map(|id| format!("{id:#x}"))
                .collect();
            out.push_str(&format!(" exemplars={}", ids.join(",")));
        }
        out.push('\n');
    }
}

fn render_routes(out: &mut String, routes: &[RouteQuality]) {
    out.push_str("== eta accuracy ==\n");
    if routes.is_empty() {
        out.push_str("  (no confirmed predictions yet)\n");
        return;
    }
    for r in routes {
        out.push_str(&format!("  route {}\n", r.route));
        for h in &r.horizons {
            out.push_str(&format!(
                "    {}s: n={} |e|={}s |e|p90={}s p50={}s p90={}s p99={}s recent(n={} p90={}s |e|p90={}s)\n",
                h.horizon_s as i64,
                h.confirmed_total,
                fmt1(h.mean_abs_error_s),
                fmt1(h.p90_abs_s),
                fmt_signed(h.p50_s),
                fmt_signed(h.p90_s),
                fmt_signed(h.p99_s),
                h.recent_confirmed,
                fmt_signed(h.recent_p90_s),
                fmt1(h.recent_p90_abs_s),
            ));
        }
    }
}

/// Counter deltas drawn as a per-series bar strip: each window scaled
/// against the series max. Deterministic — pure integer bucketing.
fn sparkline(deltas: &[u64]) -> String {
    const BARS: [char; 5] = ['.', '-', '=', '#', '@'];
    let max = deltas.iter().copied().max().unwrap_or(0);
    deltas
        .iter()
        .map(|&d| {
            if max == 0 {
                '.'
            } else {
                // Highest bar only at the max itself; zero is always '.'.
                let level = (d * (BARS.len() as u64 - 1)).div_ceil(max) as usize;
                BARS[level.min(BARS.len() - 1)]
            }
        })
        .collect()
}

fn render_series(out: &mut String, series: &[Series]) {
    out.push_str("== windowed series ==\n");
    if series.is_empty() {
        out.push_str("  (no tracked families)\n");
        return;
    }
    for s in series {
        let label = pad(&s.family, 34);
        match s.points.last() {
            None => out.push_str(&format!("  {label} (no windows yet)\n")),
            Some(Point {
                agg: PointAgg::Counter { .. },
                ..
            }) => {
                let deltas: Vec<u64> = s
                    .points
                    .iter()
                    .map(|p| match p.agg {
                        PointAgg::Counter { delta, .. } => delta,
                        _ => 0,
                    })
                    .collect();
                let total: u64 = deltas.iter().sum();
                out.push_str(&format!("  {label} [{}] sum={total}\n", sparkline(&deltas)));
            }
            Some(Point {
                agg: PointAgg::Gauge { value },
                ..
            }) => {
                out.push_str(&format!("  {label} last={value}\n"));
            }
            Some(Point {
                agg:
                    PointAgg::Histogram {
                        count,
                        p50,
                        p90,
                        p99,
                    },
                ..
            }) => {
                out.push_str(&format!(
                    "  {label} open(n={count} p50={p50} p90={p90} p99={p99})\n"
                ));
            }
        }
    }
}

/// Renders the dashboard as deterministic text.
///
/// Layout: a header line with the stamps, then the SLO detectors (fired
/// first is *not* applied — dump order is preserved so diffs are
/// stable), the per-route ETA tables, and a one-line-per-family series
/// digest.
pub fn render_dashboard(dash: &Dashboard) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "wilocator quality dashboard  epoch={} as_of={}s evaluated_at={}s",
        dash.epoch,
        fmt1(dash.as_of_s),
        fmt1(dash.evaluated_at_s),
    ));
    if let Some(staleness) = dash.staleness_s {
        out.push_str(&format!(" staleness={}s", fmt1(staleness)));
    }
    out.push('\n');
    render_detectors(&mut out, &dash.detectors);
    render_routes(&mut out, &dash.routes);
    render_series(&mut out, &dash.series);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{"epoch":3,"as_of_s":120.5,"evaluated_at_s":120,
        "staleness_s":0.25,
        "series":[
          {"family":"wilocator_reports_total","kind":"counter","points":[
            {"start_us":0,"delta":10,"rate_per_s":0.5},
            {"start_us":60000000,"delta":40,"rate_per_s":2.0}]},
          {"family":"wilocator_active_buses","kind":"gauge","points":[
            {"start_us":0,"value":-2}]},
          {"family":"wilocator_query_latency_us","kind":"histogram","points":[
            {"start_us":0,"count":7,"p50":10,"p90":31,"p99":31}]}],
        "routes":[
          {"route":"R0","horizons":[
            {"horizon_s":60,"confirmed_total":5,"mean_abs_error_s":3.5,
             "p50_s":1.0,"p90_s":4.0,"p99_s":-9.0,"p90_abs_s":9.0,
             "recent_confirmed":2,"recent_p90_s":4.0,"recent_p90_abs_s":4.0}]}],
        "detectors":[
          {"name":"dead_reckon_fraction","fired":true,"short_burn":1.5,
           "long_burn":1.2,"threshold":0.25,"short_events":30,"long_events":90,
           "exemplar_trace_ids":[255]},
          {"name":"snapshot_staleness","fired":false,"short_burn":0.1,
           "long_burn":0.1,"threshold":30,"short_events":0,"long_events":0,
           "exemplar_trace_ids":[]}]}"#;

    #[test]
    fn parses_all_sections() {
        let dash = parse_dump(MINIMAL).expect("valid dump");
        assert_eq!(dash.epoch, 3);
        assert_eq!(dash.staleness_s, Some(0.25));
        assert_eq!(dash.series.len(), 3);
        assert_eq!(dash.series[1].points[0].agg, PointAgg::Gauge { value: -2 });
        assert_eq!(dash.routes.len(), 1);
        assert_eq!(dash.routes[0].horizons[0].p99_s, -9.0);
        assert_eq!(dash.detectors.len(), 2);
        assert_eq!(dash.detectors[0].exemplar_trace_ids, vec![255]);
        assert_eq!(dash.fired(), vec!["dead_reckon_fraction"]);
    }

    #[test]
    fn partial_documents_parse_with_empty_sections() {
        let dash =
            parse_dump(r#"{"epoch":1,"as_of_s":0,"evaluated_at_s":0,"routes":[]}"#).expect("ok");
        assert!(dash.series.is_empty());
        assert!(dash.detectors.is_empty());
        assert_eq!(dash.staleness_s, None);
    }

    #[test]
    fn structural_problems_are_one_line_errors() {
        assert!(parse_dump("{").is_err());
        assert!(parse_dump(r#"{"as_of_s":0}"#)
            .unwrap_err()
            .contains("epoch"));
        let bad_kind = r#"{"epoch":1,"as_of_s":0,"evaluated_at_s":0,
            "series":[{"family":"f","kind":"exotic","points":[]}]}"#;
        assert!(parse_dump(bad_kind).unwrap_err().contains("exotic"));
        let unsorted = r#"{"epoch":1,"as_of_s":0,"evaluated_at_s":0,
            "series":[{"family":"f","kind":"counter","points":[
              {"start_us":5,"delta":0,"rate_per_s":0},
              {"start_us":5,"delta":0,"rate_per_s":0}]}]}"#;
        assert!(parse_dump(unsorted).unwrap_err().contains("increasing"));
        let bad_bool = r#"{"epoch":1,"as_of_s":0,"evaluated_at_s":0,
            "detectors":[{"name":"d","fired":1,"short_burn":0,"long_burn":0,
              "threshold":1,"short_events":0,"long_events":0,
              "exemplar_trace_ids":[]}]}"#;
        assert!(parse_dump(bad_bool).unwrap_err().contains("fired"));
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let dash = parse_dump(MINIMAL).expect("valid dump");
        let first = render_dashboard(&dash);
        assert_eq!(first, render_dashboard(&dash));
        assert!(first.starts_with(
            "wilocator quality dashboard  epoch=3 as_of=120.5s evaluated_at=120.0s staleness=0.2s\n"
        ));
        assert!(first.contains("dead_reckon_fraction"));
        assert!(first.contains("FIRED"));
        assert!(first.contains("exemplars=0xff"));
        assert!(first.contains("route R0"));
        assert!(
            first.contains("60s: n=5 |e|=3.5s |e|p90=9.0s p50=+1.0s p90=+4.0s p99=-9.0s"),
            "{first}"
        );
        assert!(first.contains("wilocator_reports_total"));
        assert!(first.contains("sum=50"));
        assert!(first.contains("last=-2"));
    }

    #[test]
    fn sparkline_scales_against_series_max() {
        assert_eq!(sparkline(&[0, 0]), "..");
        assert_eq!(sparkline(&[0, 1, 50, 100]), ".-=@");
        assert_eq!(sparkline(&[7]), "@");
    }
}
