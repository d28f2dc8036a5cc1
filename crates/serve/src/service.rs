//! Request routing: maps parsed HTTP requests onto the query snapshot.
//!
//! `respond` is a pure function of the server state and the request —
//! the transport in [`crate::server`] only moves bytes. Every data
//! endpoint reads exactly one [`wilocator_core::QuerySnapshot`] (a
//! single `Arc` clone; never the ingest lock), so a response is
//! internally consistent even while ingest is rewriting tracker state.
//! Queries are metered through [`wilocator_core::QueryMetrics`] and
//! traced through the flight recorder like ingest batches, so
//! `tracedump` can interleave rider queries with the pipeline spans they
//! raced against.

use wilocator_core::{BusKey, QualitySections, QueryEndpoint, QuerySnapshot, WiLocator};
use wilocator_obs::{JsonWriter, SeriesView, WindowAgg};
use wilocator_road::{RouteId, StopId};

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

/// Initial capacity of an answer's body, bytes: a typical rider answer
/// (~1.1 kB) is written with one allocation, a longer one doubles it.
const BODY_BYTES: usize = 2048;

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: JSON,
            body,
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Response {
        let mut body = String::with_capacity(BODY_BYTES);
        let mut w = JsonWriter::new(&mut body);
        w.open_obj();
        w.key("status").literal(status);
        w.key("error").string(message);
        w.close_obj();
        Response::json(status, body)
    }
}

/// One query in this many is traced through the flight recorder, keyed
/// by target so sampling is deterministic per target.
const QUERY_TRACE_EVERY: u64 = 16;

/// Routes one request against the server's published snapshot.
///
/// Never takes the server's ingest lock: data endpoints read the epoch cell
/// once and answer entirely from the immutable snapshot. Records the
/// request in the query ledger and opens a keyed `query` root span so
/// the flight recorder tail-samples slow or failing queries.
pub fn respond(server: &WiLocator, request: &crate::http::Request) -> Response {
    let metrics = server.query_metrics();
    let t0 = metrics.clock().now_us();
    // Query tracing is sampled: rider traffic is orders of magnitude
    // denser than ingest, and pushing every query trace through the
    // ring mutex would serialise the otherwise lock-free read path (the
    // since-removed query_scaling bench flatlined exactly that way before
    // sampling; EXPERIMENTS.md keeps its table).
    let key = target_key(&request.target);
    let ctx = if key.is_multiple_of(QUERY_TRACE_EVERY) {
        // Span stamps come from the tracer's own clock, which in replays
        // is the deterministic span clock — never mix it with the query
        // clock.
        let span_start = server.tracer().clock().now_us();
        server
            .tracer()
            .start_root_span_keyed(0, "query", span_start, key)
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
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    w.open_obj();
    w.key("status").string("ok");
    w.key("epoch").literal(snap.epoch);
    w.key("published_at_s").float(snap.published_at_s);
    w.key("staleness_us")
        .literal(server.query_metrics().staleness_us());
    w.close_obj();
    Response::json(200, body)
}

fn arrivals(server: &WiLocator, id: &str, query: Option<&str>) -> Response {
    let Some(stop) = parse_decimal(id).map(StopId) else {
        return Response::error(400, "stop id must be a decimal integer");
    };
    let route_filter = match route_param(query) {
        Ok(filter) => filter,
        Err(response) => return response,
    };
    let snap = server.query_snapshot();
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    w.open_obj();
    w.key("stop").string(stop);
    w.key("epoch").literal(snap.epoch);
    w.key("as_of_s").float(snap.published_at_s);
    w.key("routes").open_arr();
    let mut seen = false;
    for (route, entries) in snap.arrivals_at_stop(stop) {
        if route_filter.is_some_and(|want| want != route) {
            continue;
        }
        seen = true;
        w.open_obj();
        w.key("route").string(route);
        w.key("arrivals").open_arr();
        for entry in entries {
            w.open_obj();
            w.key("bus").string(entry.bus);
            w.key("eta_s").float(entry.eta_s);
            w.key("from_fix_time_s").float(entry.from_fix_time_s);
            w.close_obj();
        }
        w.close_arr().close_obj();
    }
    w.close_arr().close_obj();
    if !seen {
        return Response::error(404, "unknown stop");
    }
    Response::json(200, body)
}

/// Extracts an optional `route=<decimal>` filter from the query string.
fn route_param(query: Option<&str>) -> Result<Option<RouteId>, Response> {
    match query_param(query, "route") {
        None => Ok(None),
        Some(value) => match parse_decimal(value) {
            Some(route) => Ok(Some(RouteId(route))),
            None => Err(Response::error(
                400,
                "route filter must be a decimal integer",
            )),
        },
    }
}

fn position(server: &WiLocator, id: &str) -> Response {
    let Some(bus) = parse_decimal(id).map(BusKey) else {
        return Response::error(400, "bus id must be a decimal integer");
    };
    let snap = server.query_snapshot();
    let Some(view) = snap.position(bus) else {
        return Response::error(404, "unknown bus");
    };
    let fix = &view.fix;
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    w.open_obj();
    w.key("bus").string(bus);
    w.key("route").string(view.route);
    w.key("epoch").literal(snap.epoch);
    w.key("fix").open_obj();
    w.key("s").float(fix.s);
    w.key("x").float(fix.point.x);
    w.key("y").float(fix.point.y);
    w.key("interval").open_arr();
    w.float(fix.interval.0).float(fix.interval.1).close_arr();
    w.key("method").string(fix.method.label());
    w.key("time_s").float(fix.time_s);
    w.close_obj().close_obj();
    Response::json(200, body)
}

fn traffic(server: &WiLocator, id: &str) -> Response {
    let Some(route) = parse_decimal(id).map(RouteId) else {
        return Response::error(400, "route id must be a decimal integer");
    };
    let snap = server.query_snapshot();
    let Some(segments) = snap.traffic(route) else {
        return Response::error(404, "unknown route");
    };
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    w.open_obj();
    w.key("route").string(route);
    w.key("epoch").literal(snap.epoch);
    w.key("as_of_s").float(snap.published_at_s);
    w.key("segments").open_arr();
    for segment in segments {
        w.open_obj();
        w.key("edge").string(segment.edge);
        w.key("state").string(segment.state);
        w.key("z").float(segment.z);
        w.close_obj();
    }
    w.close_arr().close_obj();
    Response::json(200, body)
}

/// Opens a `/debug` document with the stamps every section shares.
fn open_debug(w: &mut JsonWriter<'_>, snap: &QuerySnapshot) {
    w.open_obj();
    w.key("epoch").literal(snap.epoch);
    w.key("as_of_s").float(snap.published_at_s);
    w.key("evaluated_at_s").float(snap.quality.evaluated_at_s);
}

/// `/debug/timeseries`: the windowed metric aggregates published with
/// the snapshot — closed windows oldest first, the open window last.
fn debug_timeseries(server: &WiLocator) -> Response {
    let snap = server.query_snapshot();
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    open_debug(&mut w, &snap);
    write_series(&mut w, &snap.quality.series);
    w.close_obj();
    Response::json(200, body)
}

fn write_series(w: &mut JsonWriter<'_>, series: &[SeriesView]) {
    w.key("series").open_arr();
    for view in series {
        w.open_obj();
        w.key("family").string(&view.family);
        w.key("kind").string(view.kind.label());
        w.key("points").open_arr();
        for point in &view.points {
            w.open_obj();
            w.key("start_us").literal(point.start_us);
            match point.agg {
                WindowAgg::Counter { delta, rate_per_s } => {
                    w.key("delta").literal(delta);
                    w.key("rate_per_s").float(rate_per_s);
                }
                WindowAgg::Gauge { value } => {
                    w.key("value").literal(value);
                }
                WindowAgg::Histogram {
                    count,
                    p50,
                    p90,
                    p99,
                } => {
                    w.key("count").literal(count);
                    w.key("p50").literal(p50);
                    w.key("p90").literal(p90);
                    w.key("p99").literal(p99);
                }
            }
            w.close_obj();
        }
        w.close_arr().close_obj();
    }
    w.close_arr();
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
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    open_debug(&mut w, &snap);
    write_routes(&mut w, &snap.quality, route_filter);
    w.close_obj();
    Response::json(200, body)
}

fn write_routes(w: &mut JsonWriter<'_>, quality: &QualitySections, filter: Option<RouteId>) {
    w.key("routes").open_arr();
    for (route, rq) in &quality.routes {
        if filter.is_some_and(|want| want != *route) {
            continue;
        }
        w.open_obj();
        w.key("route").string(route);
        w.key("horizons").open_arr();
        for h in &rq.horizons {
            w.open_obj();
            w.key("horizon_s").float(h.horizon_s);
            w.key("confirmed_total").literal(h.confirmed_total);
            w.key("mean_abs_error_s").float(h.mean_abs_error_s);
            w.key("p50_s").float(h.p50_s);
            w.key("p90_s").float(h.p90_s);
            w.key("p99_s").float(h.p99_s);
            w.key("p90_abs_s").float(h.p90_abs_s);
            w.key("recent_confirmed").literal(h.recent_confirmed);
            w.key("recent_p90_s").float(h.recent_p90_s);
            w.key("recent_p90_abs_s").float(h.recent_p90_abs_s);
            w.close_obj();
        }
        w.close_arr().close_obj();
    }
    w.close_arr();
}

/// `/debug/slo`: drift-detector statuses with exemplar trace ids, plus
/// the live staleness reading.
fn debug_slo(server: &WiLocator) -> Response {
    let snap = server.query_snapshot();
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    open_debug(&mut w, &snap);
    w.key("staleness_s")
        .float(server.query_metrics().staleness_s());
    write_detectors(&mut w, &snap.quality);
    w.close_obj();
    Response::json(200, body)
}

fn write_detectors(w: &mut JsonWriter<'_>, quality: &QualitySections) {
    w.key("detectors").open_arr();
    for d in &quality.slo {
        w.open_obj();
        w.key("name").string(d.name);
        w.key("fired").literal(d.fired);
        w.key("short_burn").float(d.short_burn);
        w.key("long_burn").float(d.long_burn);
        w.key("threshold").float(d.threshold);
        w.key("short_events").literal(d.short_events);
        w.key("long_events").literal(d.long_events);
        w.key("exemplar_trace_ids").open_arr();
        for id in &d.exemplar_trace_ids {
            w.literal(id);
        }
        w.close_arr().close_obj();
    }
    w.close_arr();
}

/// `/subscribe?epoch=N[&timeout_ms=M]`: long-poll that blocks until a
/// snapshot newer than `N` is published or the (bounded) timeout
/// elapses. Waiters park outside both the publish gate and the
/// lock-free read path, so a slow subscriber never slows a publisher or
/// another reader.
fn subscribe(server: &WiLocator, query: Option<&str>) -> Response {
    let epoch = match query_param(query, "epoch").map(parse_decimal::<u64>) {
        Some(Some(epoch)) => epoch,
        Some(None) => return Response::error(400, "epoch must be a decimal integer"),
        None => return Response::error(400, "epoch parameter is required"),
    };
    let timeout_ms = match query_param(query, "timeout_ms").map(parse_decimal::<u64>) {
        Some(Some(ms)) => ms.min(MAX_SUBSCRIBE_TIMEOUT_MS),
        Some(None) => return Response::error(400, "timeout_ms must be a decimal integer"),
        None => DEFAULT_SUBSCRIBE_TIMEOUT_MS,
    };
    // lint: allow(read_path_purity) — long-poll endpoint: parking on the publish condvar is its documented contract, bounded by the client timeout
    let current = server.wait_past_epoch(epoch, std::time::Duration::from_millis(timeout_ms));
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    w.open_obj();
    w.key("epoch").literal(current);
    w.key("advanced").literal(current > epoch);
    w.close_obj();
    Response::json(200, body)
}

/// One self-contained JSON document with all three `/debug` sections —
/// what `vancouver_day --debug-out` writes and `tracedump dash` renders
/// offline. Byte-identical to stitching the three endpoint bodies.
pub fn debug_dump(server: &WiLocator) -> String {
    let snap = server.query_snapshot();
    let mut body = String::with_capacity(BODY_BYTES);
    let mut w = JsonWriter::new(&mut body);
    open_debug(&mut w, &snap);
    w.key("staleness_s")
        .float(server.query_metrics().staleness_s());
    write_series(&mut w, &snap.quality.series);
    write_routes(&mut w, &snap.quality, None);
    write_detectors(&mut w, &snap.quality);
    w.close_obj();
    body
}

/// The value of the first `key=value` pair of a query string that
/// names `key` (empty for a bare `key`).
fn query_param<'q>(query: Option<&'q str>, key: &str) -> Option<&'q str> {
    query?.split('&').find_map(|pair| {
        let (k, value) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(value)
    })
}

/// Strict non-negative decimal: ASCII digits only, must fit the type.
fn parse_decimal<T: std::str::FromStr>(s: &str) -> Option<T> {
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
        assert_eq!(parse_decimal::<u32>("0"), Some(0));
        assert_eq!(parse_decimal::<u32>("42"), Some(42));
        assert_eq!(parse_decimal::<u32>(""), None);
        assert_eq!(parse_decimal::<u32>("-1"), None);
        assert_eq!(parse_decimal::<u32>("+1"), None);
        assert_eq!(parse_decimal::<u32>("1e3"), None);
        assert_eq!(parse_decimal::<u32>("4294967296"), None);
        assert_eq!(parse_decimal::<u64>("4294967296"), Some(4_294_967_296));
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
