//! Request routing: maps parsed HTTP requests onto the query snapshot.
//!
//! `respond` is a pure function of the server state and the request —
//! the transport in [`crate::server`] only moves bytes. Every data
//! endpoint reads exactly one [`wilocator_core::QuerySnapshot`] (a
//! single `Arc` clone; never a shard ingest lock), so a response is
//! internally consistent even while ingest is rewriting tracker state.
//! Queries are metered through [`wilocator_core::QueryMetrics`] and
//! traced through the flight recorder like ingest batches, so
//! `tracedump` can interleave rider queries with the pipeline spans they
//! raced against.

use wilocator_core::{BusKey, QualitySections, QueryEndpoint, WiLocator};
use wilocator_obs::{SeriesView, WindowAgg};
use wilocator_road::{RouteId, StopId};

use crate::json::{JsonArr, JsonObj};

/// Upper bound on a `/subscribe` long-poll, milliseconds: long enough
/// to ride out a publish gap, short enough that an abandoned connection
/// never pins a transport thread for more than half a minute.
pub const MAX_SUBSCRIBE_TIMEOUT_MS: u64 = 30_000;

/// Default `/subscribe` timeout when the client does not pass one.
pub const DEFAULT_SUBSCRIBE_TIMEOUT_MS: u64 = 25_000;

/// A fully rendered response, transport-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Value for the `Content-Type` header.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; version=0.0.4";

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: JSON,
            body,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            JsonObj::new()
                .u64_field("status", u64::from(status))
                .str_field("error", message)
                .finish(),
        )
    }
}

/// One query in this many is traced through the flight recorder, keyed
/// by target so sampling is deterministic per target.
const QUERY_TRACE_EVERY: u64 = 16;

/// Routes one request against the server's published snapshot.
///
/// Never takes a shard ingest lock: data endpoints read the epoch cell
/// once and answer entirely from the immutable snapshot. Records the
/// request in the query ledger and opens a keyed `query` root span so
/// the flight recorder tail-samples slow or failing queries.
pub fn respond(server: &WiLocator, request: &crate::http::Request) -> Response {
    let metrics = server.query_metrics();
    let t0 = metrics.clock().now_us();
    // Query tracing is sampled and the sampled spans are spread across
    // the recorder's rings by key: rider traffic is orders of magnitude
    // denser than ingest, and pushing every query trace through one
    // ring mutex would serialise the otherwise lock-free read path (the
    // query_scaling bench flatlined exactly that way before sampling).
    let key = target_key(&request.target);
    let ctx = if key.is_multiple_of(QUERY_TRACE_EVERY) {
        let shard = (key % server.shard_count().max(1) as u64) as usize;
        // Span stamps come from the tracer's own clock, which in replays
        // is the deterministic span clock — never mix it with the query
        // clock.
        let span_start = server.tracer().clock().now_us();
        server
            .tracer()
            .start_root_span_keyed(shard, "query", span_start, key)
    } else {
        None
    };
    if let Some(ctx) = &ctx {
        ctx.field("method", is_get(request));
    }

    let response = route(server, request, ctx.as_ref());

    metrics
        .latency_us
        .record(metrics.clock().now_us().saturating_sub(t0));
    if let Some(ctx) = ctx {
        ctx.field("status", u64::from(response.status));
        if response.status >= 400 {
            ctx.flag_anomaly(if response.status == 404 {
                "query_not_found"
            } else {
                "query_bad_request"
            });
        }
        let end = server.tracer().clock().now_us();
        ctx.finish_at(end);
    }
    response
}

fn is_get(request: &crate::http::Request) -> bool {
    request.method == "GET"
}

fn route(
    server: &WiLocator,
    request: &crate::http::Request,
    ctx: Option<&wilocator_obs::TraceCtx<'_>>,
) -> Response {
    if !is_get(request) {
        server.query_metrics().bad_request_total.inc();
        return Response::error(405, "only GET is supported");
    }
    let path = request.path();
    let (endpoint, rest) = match split_endpoint(path) {
        Some(pair) => pair,
        None => {
            server.query_metrics().bad_request_total.inc();
            return Response::error(404, "no such endpoint");
        }
    };
    server.query_metrics().record_query(endpoint);
    if let Some(ctx) = ctx {
        ctx.field("endpoint", endpoint.label());
    }
    let response = match endpoint {
        QueryEndpoint::Healthz => healthz(server),
        QueryEndpoint::Metrics => Response {
            status: 200,
            content_type: TEXT,
            // lint: allow(read_path_purity) — diagnostic endpoint, not a rider read: the registry mutex is uncontended off the ingest path
            body: server.metrics_text(),
        },
        QueryEndpoint::Arrivals => arrivals(server, rest, request.query()),
        QueryEndpoint::Position => position(server, rest),
        QueryEndpoint::Traffic => traffic(server, rest),
        QueryEndpoint::DebugTimeseries => debug_timeseries(server),
        QueryEndpoint::DebugQuality => debug_quality(server, request.query()),
        QueryEndpoint::DebugSlo => debug_slo(server),
        QueryEndpoint::Subscribe => subscribe(server, request.query()),
    };
    match response.status {
        404 => server.query_metrics().not_found_total.inc(),
        400 => server.query_metrics().bad_request_total.inc(),
        _ => {}
    }
    response
}

/// Splits `/arrivals/3` into the endpoint and its trailing id segment.
/// Returns `None` for unknown paths. `/metrics` and `/healthz` take no
/// id; a trailing segment on them is unknown, not a bad id.
fn split_endpoint(path: &str) -> Option<(QueryEndpoint, &str)> {
    match path {
        "/metrics" => return Some((QueryEndpoint::Metrics, "")),
        "/healthz" => return Some((QueryEndpoint::Healthz, "")),
        "/debug/timeseries" => return Some((QueryEndpoint::DebugTimeseries, "")),
        "/debug/quality" => return Some((QueryEndpoint::DebugQuality, "")),
        "/debug/slo" => return Some((QueryEndpoint::DebugSlo, "")),
        "/subscribe" => return Some((QueryEndpoint::Subscribe, "")),
        _ => {}
    }
    let rest = path.strip_prefix('/')?;
    let (head, id) = rest.split_once('/')?;
    let endpoint = match head {
        "arrivals" => QueryEndpoint::Arrivals,
        "position" => QueryEndpoint::Position,
        "traffic" => QueryEndpoint::Traffic,
        _ => return None,
    };
    Some((endpoint, id))
}

fn healthz(server: &WiLocator) -> Response {
    let snap = server.query_snapshot();
    let metrics = server.query_metrics();
    Response::json(
        200,
        JsonObj::new()
            .str_field("status", "ok")
            .u64_field("epoch", snap.epoch)
            .f64_field("published_at_s", snap.published_at_s)
            .u64_field("staleness_us", metrics.staleness_us())
            .finish(),
    )
}

fn arrivals(server: &WiLocator, id: &str, query: Option<&str>) -> Response {
    let stop = match parse_u32(id) {
        Some(stop) => StopId(stop),
        None => return Response::error(400, "stop id must be a decimal integer"),
    };
    let route_filter = match route_param(query) {
        Ok(filter) => filter,
        Err(response) => return response,
    };
    let snap = server.query_snapshot();
    let mut routes = JsonArr::new();
    let mut seen = false;
    for (route, entries) in snap.arrivals_at_stop(stop) {
        if route_filter.is_some_and(|want| want != route) {
            continue;
        }
        seen = true;
        let mut list = JsonArr::new();
        for entry in entries {
            list.push_raw(
                JsonObj::new()
                    .str_field("bus", &entry.bus.to_string())
                    .f64_field("eta_s", entry.eta_s)
                    .f64_field("from_fix_time_s", entry.from_fix_time_s)
                    .finish(),
            );
        }
        routes.push_raw(
            JsonObj::new()
                .str_field("route", &route.to_string())
                .raw_field("arrivals", &list.finish())
                .finish(),
        );
    }
    if !seen {
        return Response::error(404, "unknown stop");
    }
    Response::json(
        200,
        JsonObj::new()
            .str_field("stop", &stop.to_string())
            .u64_field("epoch", snap.epoch)
            .f64_field("as_of_s", snap.published_at_s)
            .raw_field("routes", &routes.finish())
            .finish(),
    )
}

/// Extracts an optional `route=<decimal>` filter from the query string.
fn route_param(query: Option<&str>) -> Result<Option<RouteId>, Response> {
    let Some(query) = query else {
        return Ok(None);
    };
    for pair in query.split('&') {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key != "route" {
            continue;
        }
        return match parse_u32(value) {
            Some(route) => Ok(Some(RouteId(route))),
            None => Err(Response::error(
                400,
                "route filter must be a decimal integer",
            )),
        };
    }
    Ok(None)
}

fn position(server: &WiLocator, id: &str) -> Response {
    let bus = match parse_u64(id) {
        Some(bus) => BusKey(bus),
        None => return Response::error(400, "bus id must be a decimal integer"),
    };
    let snap = server.query_snapshot();
    let Some(view) = snap.position(bus) else {
        return Response::error(404, "unknown bus");
    };
    let fix = &view.fix;
    let mut interval = String::from("[");
    crate::json::write_f64(&mut interval, fix.interval.0);
    interval.push(',');
    crate::json::write_f64(&mut interval, fix.interval.1);
    interval.push(']');
    let fix_json = JsonObj::new()
        .f64_field("s", fix.s)
        .f64_field("x", fix.point.x)
        .f64_field("y", fix.point.y)
        .raw_field("interval", &interval)
        .str_field("method", fix.method.label())
        .f64_field("time_s", fix.time_s)
        .finish();
    Response::json(
        200,
        JsonObj::new()
            .str_field("bus", &bus.to_string())
            .str_field("route", &view.route.to_string())
            .u64_field("epoch", snap.epoch)
            .raw_field("fix", &fix_json)
            .finish(),
    )
}

fn traffic(server: &WiLocator, id: &str) -> Response {
    let route = match parse_u32(id) {
        Some(route) => RouteId(route),
        None => return Response::error(400, "route id must be a decimal integer"),
    };
    let snap = server.query_snapshot();
    let Some(segments) = snap.traffic(route) else {
        return Response::error(404, "unknown route");
    };
    let mut list = JsonArr::new();
    for segment in segments {
        list.push_raw(
            JsonObj::new()
                .str_field("edge", &segment.edge.to_string())
                .str_field("state", &segment.state.to_string())
                .f64_field("z", segment.z)
                .finish(),
        );
    }
    Response::json(
        200,
        JsonObj::new()
            .str_field("route", &route.to_string())
            .u64_field("epoch", snap.epoch)
            .f64_field("as_of_s", snap.published_at_s)
            .raw_field("segments", &list.finish())
            .finish(),
    )
}

/// `/debug/timeseries`: the windowed metric aggregates published with
/// the snapshot — closed windows oldest first, the open window last.
fn debug_timeseries(server: &WiLocator) -> Response {
    let snap = server.query_snapshot();
    Response::json(
        200,
        JsonObj::new()
            .u64_field("epoch", snap.epoch)
            .f64_field("as_of_s", snap.published_at_s)
            .f64_field("evaluated_at_s", snap.quality.evaluated_at_s)
            .raw_field("series", &series_json(&snap.quality.series))
            .finish(),
    )
}

fn series_json(series: &[SeriesView]) -> String {
    let mut out = JsonArr::new();
    for view in series {
        let mut points = JsonArr::new();
        for point in &view.points {
            let obj = JsonObj::new().u64_field("start_us", point.start_us);
            points.push_raw(match point.agg {
                WindowAgg::Counter { delta, rate_per_s } => obj
                    .u64_field("delta", delta)
                    .f64_field("rate_per_s", rate_per_s)
                    .finish(),
                WindowAgg::Gauge { value } => obj.i64_field("value", value).finish(),
                WindowAgg::Histogram {
                    count,
                    p50,
                    p90,
                    p99,
                } => obj
                    .u64_field("count", count)
                    .u64_field("p50", p50)
                    .u64_field("p90", p90)
                    .u64_field("p99", p99)
                    .finish(),
            });
        }
        out.push_raw(
            JsonObj::new()
                .str_field("family", &view.family)
                .str_field("kind", view.kind.label())
                .raw_field("points", &points.finish())
                .finish(),
        );
    }
    out.finish()
}

/// `/debug/quality[?route=N]`: live per-route ETA accuracy from the
/// retro-prediction ledger.
fn debug_quality(server: &WiLocator, query: Option<&str>) -> Response {
    let route_filter = match route_param(query) {
        Ok(filter) => filter,
        Err(response) => return response,
    };
    if let Some(route) = route_filter {
        if server.route(route).is_none() {
            return Response::error(404, "unknown route");
        }
    }
    let snap = server.query_snapshot();
    Response::json(
        200,
        JsonObj::new()
            .u64_field("epoch", snap.epoch)
            .f64_field("as_of_s", snap.published_at_s)
            .f64_field("evaluated_at_s", snap.quality.evaluated_at_s)
            .raw_field("routes", &routes_json(&snap.quality, route_filter))
            .finish(),
    )
}

fn routes_json(quality: &QualitySections, filter: Option<RouteId>) -> String {
    let mut out = JsonArr::new();
    for (route, rq) in &quality.routes {
        if filter.is_some_and(|want| want != *route) {
            continue;
        }
        let mut horizons = JsonArr::new();
        for h in &rq.horizons {
            horizons.push_raw(
                JsonObj::new()
                    .f64_field("horizon_s", h.horizon_s)
                    .u64_field("confirmed_total", h.confirmed_total)
                    .f64_field("mean_abs_error_s", h.mean_abs_error_s)
                    .f64_field("p50_s", h.p50_s)
                    .f64_field("p90_s", h.p90_s)
                    .f64_field("p99_s", h.p99_s)
                    .f64_field("p90_abs_s", h.p90_abs_s)
                    .u64_field("recent_confirmed", h.recent_confirmed)
                    .f64_field("recent_p90_s", h.recent_p90_s)
                    .f64_field("recent_p90_abs_s", h.recent_p90_abs_s)
                    .finish(),
            );
        }
        out.push_raw(
            JsonObj::new()
                .str_field("route", &route.to_string())
                .raw_field("horizons", &horizons.finish())
                .finish(),
        );
    }
    out.finish()
}

/// `/debug/slo`: drift-detector statuses with exemplar trace ids, plus
/// the live staleness reading.
fn debug_slo(server: &WiLocator) -> Response {
    let snap = server.query_snapshot();
    Response::json(
        200,
        JsonObj::new()
            .u64_field("epoch", snap.epoch)
            .f64_field("as_of_s", snap.published_at_s)
            .f64_field("evaluated_at_s", snap.quality.evaluated_at_s)
            .f64_field("staleness_s", server.query_metrics().staleness_s())
            .raw_field("detectors", &detectors_json(&snap.quality))
            .finish(),
    )
}

fn detectors_json(quality: &QualitySections) -> String {
    let mut out = JsonArr::new();
    for d in &quality.slo {
        let mut exemplars = JsonArr::new();
        for id in &d.exemplar_trace_ids {
            exemplars.push_raw(id.to_string());
        }
        out.push_raw(
            JsonObj::new()
                .str_field("name", d.name)
                .bool_field("fired", d.fired)
                .f64_field("short_burn", d.short_burn)
                .f64_field("long_burn", d.long_burn)
                .f64_field("threshold", d.threshold)
                .u64_field("short_events", d.short_events)
                .u64_field("long_events", d.long_events)
                .raw_field("exemplar_trace_ids", &exemplars.finish())
                .finish(),
        );
    }
    out.finish()
}

/// `/subscribe?epoch=N[&timeout_ms=M]`: long-poll that blocks until a
/// snapshot newer than `N` is published or the (bounded) timeout
/// elapses. Waiters park outside both the publish gate and the
/// lock-free read path, so a slow subscriber never slows a publisher or
/// another reader.
fn subscribe(server: &WiLocator, query: Option<&str>) -> Response {
    let mut epoch: Option<u64> = None;
    let mut timeout_ms = DEFAULT_SUBSCRIBE_TIMEOUT_MS;
    for pair in query.unwrap_or_default().split('&') {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "epoch" => match parse_u64(value) {
                Some(e) => epoch = Some(e),
                None => return Response::error(400, "epoch must be a decimal integer"),
            },
            "timeout_ms" => match parse_u64(value) {
                Some(ms) => timeout_ms = ms.min(MAX_SUBSCRIBE_TIMEOUT_MS),
                None => return Response::error(400, "timeout_ms must be a decimal integer"),
            },
            _ => {}
        }
    }
    let Some(epoch) = epoch else {
        return Response::error(400, "epoch parameter is required");
    };
    // lint: allow(read_path_purity) — long-poll endpoint: parking on the publish condvar is its documented contract, bounded by the client timeout
    let current = server.wait_past_epoch(epoch, std::time::Duration::from_millis(timeout_ms));
    Response::json(
        200,
        JsonObj::new()
            .u64_field("epoch", current)
            .bool_field("advanced", current > epoch)
            .finish(),
    )
}

/// One self-contained JSON document with all three `/debug` sections —
/// what `vancouver_day --debug-out` writes and `wilocator-dash` renders
/// offline. Byte-identical to stitching the three endpoint bodies.
pub fn debug_dump(server: &WiLocator) -> String {
    let snap = server.query_snapshot();
    JsonObj::new()
        .u64_field("epoch", snap.epoch)
        .f64_field("as_of_s", snap.published_at_s)
        .f64_field("evaluated_at_s", snap.quality.evaluated_at_s)
        .f64_field("staleness_s", server.query_metrics().staleness_s())
        .raw_field("series", &series_json(&snap.quality.series))
        .raw_field("routes", &routes_json(&snap.quality, None))
        .raw_field("detectors", &detectors_json(&snap.quality))
        .finish()
}

/// Strict non-negative decimal: ASCII digits only, must fit the type.
fn parse_u32(s: &str) -> Option<u32> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

fn parse_u64(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// Content-derived sampling key for the trace detail decision: a small
/// FNV-1a over the request target, so identical queries sample alike in
/// deterministic replays.
fn target_key(target: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in target.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(target: &str) -> crate::http::Request {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        let (request, _) = crate::http::parse_request(&raw.into_bytes(), &Default::default())
            .expect("well-formed")
            .expect("complete");
        request
    }

    #[test]
    fn split_endpoint_covers_all_routes() {
        assert_eq!(
            split_endpoint("/metrics"),
            Some((QueryEndpoint::Metrics, ""))
        );
        assert_eq!(
            split_endpoint("/healthz"),
            Some((QueryEndpoint::Healthz, ""))
        );
        assert_eq!(
            split_endpoint("/arrivals/3"),
            Some((QueryEndpoint::Arrivals, "3"))
        );
        assert_eq!(
            split_endpoint("/position/12"),
            Some((QueryEndpoint::Position, "12"))
        );
        assert_eq!(
            split_endpoint("/traffic/0"),
            Some((QueryEndpoint::Traffic, "0"))
        );
        assert_eq!(
            split_endpoint("/debug/timeseries"),
            Some((QueryEndpoint::DebugTimeseries, ""))
        );
        assert_eq!(
            split_endpoint("/debug/quality"),
            Some((QueryEndpoint::DebugQuality, ""))
        );
        assert_eq!(
            split_endpoint("/debug/slo"),
            Some((QueryEndpoint::DebugSlo, ""))
        );
        assert_eq!(
            split_endpoint("/subscribe"),
            Some((QueryEndpoint::Subscribe, ""))
        );
        assert_eq!(split_endpoint("/debug"), None);
        assert_eq!(split_endpoint("/debug/nope"), None);
        assert_eq!(split_endpoint("/"), None);
        assert_eq!(split_endpoint("/arrivals"), None);
        assert_eq!(split_endpoint("/metrics/extra"), None);
        assert_eq!(split_endpoint("/nope/1"), None);
    }

    #[test]
    fn strict_decimal_ids() {
        assert_eq!(parse_u32("0"), Some(0));
        assert_eq!(parse_u32("42"), Some(42));
        assert_eq!(parse_u32(""), None);
        assert_eq!(parse_u32("-1"), None);
        assert_eq!(parse_u32("+1"), None);
        assert_eq!(parse_u32("1e3"), None);
        assert_eq!(parse_u32("4294967296"), None);
        assert_eq!(parse_u64("4294967296"), Some(4_294_967_296));
    }

    #[test]
    fn route_param_parses_and_rejects() {
        assert_eq!(route_param(None), Ok(None));
        assert_eq!(route_param(Some("limit=5")), Ok(None));
        assert_eq!(route_param(Some("route=2")), Ok(Some(RouteId(2))));
        assert_eq!(route_param(Some("limit=5&route=7")), Ok(Some(RouteId(7))));
        assert!(route_param(Some("route=abc")).is_err());
        assert!(route_param(Some("route=")).is_err());
    }

    #[test]
    fn request_helpers_route_targets() {
        let request = get("/arrivals/3?route=1");
        assert_eq!(request.path(), "/arrivals/3");
        assert_eq!(request.query(), Some("route=1"));
    }

    #[test]
    fn target_key_is_stable() {
        assert_eq!(target_key("/healthz"), target_key("/healthz"));
        assert_ne!(target_key("/healthz"), target_key("/metrics"));
    }
}
