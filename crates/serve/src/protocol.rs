//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response frame per request, in any order
//! (frames carry the client's `id`). Malformed frames — bad JSON, an
//! unknown method, wrong arity or types — yield a typed error frame and
//! leave the connection open; only EOF or shutdown closes it.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "method": "explain", "row": 17}
//! {"id": 2, "method": "explain", "row": 3, "deadline_ms": 250}
//! {"id": 13, "method": "explain", "row": 5, "tenant": "acme"}
//! {"id": 3, "method": "ping"}
//! {"id": 4, "method": "shutdown"}
//! {"id": 5, "method": "metrics"}
//! {"id": 6, "method": "metrics", "format": "json"}
//! {"id": 7, "method": "stats"}
//! {"id": 8, "method": "trace", "trace_id": 42}
//! {"id": 9, "method": "trace", "trace_id": 42, "format": "chrome"}
//! {"id": 10, "method": "trace", "slowest": 5}
//! {"id": 11, "method": "trace", "errors": true}
//! {"id": 12, "method": "snapshot"}
//! ```
//!
//! `metrics`, `stats`, and `trace` are admin frames (loopback-gated like
//! `shutdown`): `metrics` returns the full registry in one frame —
//! Prometheus text exposition by default, the JSON snapshot with
//! `"format": "json"` — and `stats` returns a compact windowed summary
//! (req/s, windowed p50/p99, warm hit rate, SLO burn) computed by the
//! server's monitor thread. `snapshot` asks the monitor thread to write
//! an on-demand warm-state snapshot to the `--snapshot-out` path (404
//! when no path is configured). `trace` queries the tail-sampled store of
//! retained request traces: one trace by id (as a span-tree JSON object,
//! or with `"format": "chrome"` as a single-request Chrome-trace
//! document loadable in Perfetto), the N slowest retained, or every
//! retained error trace. Served explanation and worker-side error
//! frames carry the request's `trace_id`, which is the join key.
//!
//! ## Responses
//!
//! Success frames carry `"ok": true` plus the explainer-shaped payload
//! (weights/intercept/local_prediction for LIME and SHAP, a rule string
//! plus precision/coverage for Anchor). Error frames carry `"ok": false`,
//! an HTTP-flavored `code`, a machine-readable `error` kind, and a
//! human-readable `message`:
//!
//! | code | error               | meaning                                    |
//! |------|---------------------|--------------------------------------------|
//! | 400  | `bad_request`       | unparseable JSON, unknown method, bad arity|
//! | 403  | `forbidden`         | admin frame from a non-loopback peer       |
//! | 404  | `row_out_of_range`  | row is not in the tenant's warm set        |
//! | 404  | `unknown_tenant`    | `tenant` names no tenant in the manifest   |
//! | 408  | `deadline_expired`  | queued past the request's `deadline_ms`    |
//! | 422  | `quarantined`       | tuple failed inside the resilience boundary|
//! | 429  | `overloaded`        | admission queue full — back off and retry  |
//! | 429  | `tenant_over_quota` | the tenant's in-flight quota is exhausted  |
//! | 503  | `shutting_down`     | server is draining; no new work accepted   |
//!
//! Multi-tenant servers route each explain by its optional `tenant`
//! field (absent → the manifest's default tenant); tenant-scoped error
//! frames (`unknown_tenant`, `tenant_over_quota`) carry the offending
//! tenant under a `tenant` key, and `ping`/`stats` frames gain a
//! per-tenant `tenants` array with each tenant's lifecycle state.

use std::sync::Arc;

use shahin::{Explanation, FailureKind, RequestTrace};
use shahin_obs::json::{escape, fmt_f64, Json};

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Explain one warm-set row.
    Explain {
        /// Client-chosen frame id, echoed on the response.
        id: u64,
        /// Global row index into the tenant's warm set.
        row: usize,
        /// Optional queue deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Tenant to route to; `None` → the cluster's default tenant.
        tenant: Option<String>,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen frame id.
        id: u64,
    },
    /// Admin: drain the queue and exit.
    Shutdown {
        /// Client-chosen frame id.
        id: u64,
    },
    /// Admin: scrape the full metrics registry in one frame.
    Metrics {
        /// Client-chosen frame id.
        id: u64,
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// Admin: compact windowed summary from the monitor thread.
    Stats {
        /// Client-chosen frame id.
        id: u64,
    },
    /// Admin: take an on-demand warm-state snapshot (requires
    /// `--snapshot-out`). The write happens on the monitor thread — the
    /// acknowledgement frame confirms the request was accepted, and the
    /// snapshot lands within one poll tick.
    Snapshot {
        /// Client-chosen frame id.
        id: u64,
    },
    /// Admin: fetch retained request traces from the tail-sampled store.
    Trace {
        /// Client-chosen frame id.
        id: u64,
        /// Which retained traces to fetch.
        query: TraceQuery,
        /// Requested rendering of the trace(s).
        format: TraceFormat,
    },
}

/// Selector of a `trace` admin frame — exactly one per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceQuery {
    /// One trace by the id a response frame carried.
    ById(u64),
    /// The N slowest retained traces, slowest first.
    Slowest(usize),
    /// Every retained error/quarantined trace.
    Errors,
}

/// Rendering of a `trace` response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// The span-tree JSON object (the default).
    Json,
    /// A single-request Chrome-trace document (Perfetto-loadable); only
    /// valid with a `trace_id` selector.
    Chrome,
}

/// Exposition format of a `metrics` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text format (the default).
    Prometheus,
    /// The `MetricsSnapshot::to_json` document, inlined in the frame.
    Json,
}

impl MetricsFormat {
    /// Wire name of the format, echoed in the response frame.
    pub fn name(self) -> &'static str {
        match self {
            MetricsFormat::Prometheus => "prometheus",
            MetricsFormat::Json => "json",
        }
    }
}

/// The compact windowed summary behind the `stats` admin frame. All
/// rates and quantiles are computed over the monitor's retained windows,
/// not since process start; `None` quantiles mean no traffic landed in
/// the look-back period.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSummary {
    /// Wall time covered by the retained windows, seconds.
    pub window_secs: f64,
    /// Number of complete windows merged into this summary.
    pub windows: usize,
    /// Served requests per second over the window.
    pub req_per_s: f64,
    /// Windowed request-latency p50, nanoseconds.
    pub p50_ns: Option<u64>,
    /// Windowed request-latency p99, nanoseconds.
    pub p99_ns: Option<u64>,
    /// Warm-store hit rate over the window, in [0, 1] (0 when the store
    /// saw no lookups).
    pub hit_rate: f64,
    /// Admission-queue depth right now.
    pub queue_depth: u64,
    /// Live client connections right now.
    pub live_connections: u64,
    /// SLO burn rate (1.0 = burning budget exactly as fast as allowed).
    pub slo_burn_rate: f64,
    /// Fraction of the window's error budget remaining, in [0, 1].
    pub slo_budget_remaining: f64,
    /// Per-tenant lifecycle rows; empty on single-tenant servers (the
    /// frame schema is then unchanged from pre-tenancy builds).
    pub tenants: Vec<TenantStat>,
}

/// One tenant's row in `ping`/`stats` frames: lifecycle state plus the
/// tenant's share of the warm store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStat {
    /// Tenant name (the routing key).
    pub name: String,
    /// Lifecycle phase: `cold`, `warming`, `warm`, or `evicted`.
    pub state: &'static str,
    /// Warm-store entries held by this tenant (0 unless warm).
    pub entries: u64,
    /// Warm-store bytes held by this tenant (0 unless warm).
    pub bytes: u64,
    /// Explain requests currently in flight against the tenant's quota.
    pub inflight: u64,
}

fn tenants_json(tenants: &[TenantStat]) -> String {
    let mut out = String::from("[");
    for (i, t) in tenants.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"state\": \"{}\", \"entries\": {}, \"bytes\": {}, \
             \"inflight\": {}}}",
            escape(&t.name),
            t.state,
            t.entries,
            t.bytes,
            t.inflight
        ));
    }
    out.push(']');
    out
}

/// A typed error, rendered as an error frame.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// HTTP-flavored status code.
    pub code: u16,
    /// Machine-readable kind (stable identifier, e.g. `overloaded`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Tenant the error is scoped to (`unknown_tenant`,
    /// `tenant_over_quota`); rendered as a `tenant` key on the frame.
    pub tenant: Option<String>,
}

impl WireError {
    /// 400: unparseable or structurally invalid frame.
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError {
            code: 400,
            kind: "bad_request",
            message: message.into(),
            tenant: None,
        }
    }

    /// 403: an admin frame from a peer that may not send one (remote
    /// admin is off by default; see `ServeConfig::allow_remote_shutdown`).
    pub fn forbidden() -> WireError {
        WireError {
            code: 403,
            kind: "forbidden",
            message: "admin frames are only accepted from loopback peers".into(),
            tenant: None,
        }
    }

    /// 404: the requested row is outside the warm set.
    pub fn row_out_of_range(row: usize, n_rows: usize) -> WireError {
        WireError {
            code: 404,
            kind: "row_out_of_range",
            message: format!("row {row} is outside the warm set (0..{n_rows})"),
            tenant: None,
        }
    }

    /// 404: no retained trace with the requested id (never retained,
    /// sampled out, or evicted by the ring bound).
    pub fn trace_not_found(trace_id: u64) -> WireError {
        WireError {
            code: 404,
            kind: "trace_not_found",
            message: format!("no retained trace with id {trace_id}"),
            tenant: None,
        }
    }

    /// 404: the server runs with tracing disabled (`--trace-store 0`).
    pub fn tracing_disabled() -> WireError {
        WireError {
            code: 404,
            kind: "tracing_disabled",
            message: "request tracing is disabled (--trace-store 0)".into(),
            tenant: None,
        }
    }

    /// 404: the server has nowhere to write snapshots
    /// (`--snapshot-out` not set).
    pub fn snapshots_disabled() -> WireError {
        WireError {
            code: 404,
            kind: "snapshots_disabled",
            message: "snapshots are disabled (--snapshot-out not set)".into(),
            tenant: None,
        }
    }

    /// 404: the request's `tenant` names no tenant in the manifest.
    pub fn unknown_tenant(tenant: &str) -> WireError {
        WireError {
            code: 404,
            kind: "unknown_tenant",
            message: format!("no tenant \"{tenant}\" in the manifest"),
            tenant: Some(tenant.to_string()),
        }
    }

    /// 429: the tenant's in-flight request quota is exhausted.
    pub fn tenant_over_quota(tenant: &str, quota: usize) -> WireError {
        WireError {
            code: 429,
            kind: "tenant_over_quota",
            message: format!("tenant \"{tenant}\" is at its quota ({quota} in flight)"),
            tenant: Some(tenant.to_string()),
        }
    }

    /// 408: the request's deadline expired while it was queued.
    pub fn deadline_expired() -> WireError {
        WireError {
            code: 408,
            kind: "deadline_expired",
            message: "deadline expired while queued".into(),
            tenant: None,
        }
    }

    /// 422: the tuple was quarantined by the resilience boundary.
    pub fn quarantined(kind: FailureKind, message: &str) -> WireError {
        WireError {
            code: 422,
            kind: "quarantined",
            message: format!("{}: {message}", kind.name()),
            tenant: None,
        }
    }

    /// 429: the admission queue is full.
    pub fn overloaded(capacity: usize) -> WireError {
        WireError {
            code: 429,
            kind: "overloaded",
            message: format!("admission queue full ({capacity} requests)"),
            tenant: None,
        }
    }

    /// 503: the server is draining.
    pub fn shutting_down() -> WireError {
        WireError {
            code: 503,
            kind: "shutting_down",
            message: "server is draining; connection will close".into(),
            tenant: None,
        }
    }
}

/// Parses one request line. `Err` carries the typed error frame to send
/// back — the connection stays alive either way.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value =
        Json::parse(line.trim()).map_err(|e| WireError::bad_request(format!("bad JSON: {e}")))?;
    let obj = value
        .as_obj()
        .ok_or_else(|| WireError::bad_request("request frame must be a JSON object"))?;
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "id" | "method"
                | "row"
                | "deadline_ms"
                | "tenant"
                | "format"
                | "trace_id"
                | "slowest"
                | "errors"
        ) {
            return Err(WireError::bad_request(format!("unknown key \"{key}\"")));
        }
    }
    let id = match value.get("id") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| WireError::bad_request("\"id\" must be a non-negative integer"))?,
    };
    let method = value
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::bad_request("missing \"method\" string"))?;
    let has_trace_selector = value.get("trace_id").is_some()
        || value.get("slowest").is_some()
        || value.get("errors").is_some();
    if has_trace_selector && method != "trace" {
        return Err(WireError::bad_request(format!(
            "trace selectors only apply to \"trace\", not \"{method}\""
        )));
    }
    if value.get("tenant").is_some() && method != "explain" {
        return Err(WireError::bad_request(format!(
            "\"tenant\" only applies to \"explain\", not \"{method}\""
        )));
    }
    match method {
        "explain" => {
            if value.get("format").is_some() {
                return Err(WireError::bad_request(
                    "\"format\" only applies to \"metrics\" and \"trace\"",
                ));
            }
            let row = value
                .get("row")
                .ok_or_else(|| WireError::bad_request("explain needs a \"row\" integer"))?
                .as_u64()
                .ok_or_else(|| WireError::bad_request("\"row\" must be a non-negative integer"))?;
            let deadline_ms = match value.get("deadline_ms") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    WireError::bad_request("\"deadline_ms\" must be a non-negative integer")
                })?),
            };
            let tenant = match value.get("tenant") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| WireError::bad_request("\"tenant\" must be a string"))?
                        .to_string(),
                ),
            };
            Ok(Request::Explain {
                id,
                row: row as usize,
                deadline_ms,
                tenant,
            })
        }
        "ping" | "shutdown" | "stats" | "snapshot" => {
            if value.get("row").is_some()
                || value.get("deadline_ms").is_some()
                || value.get("format").is_some()
            {
                return Err(WireError::bad_request(format!(
                    "\"{method}\" takes no parameters"
                )));
            }
            Ok(match method {
                "ping" => Request::Ping { id },
                "shutdown" => Request::Shutdown { id },
                "stats" => Request::Stats { id },
                _ => Request::Snapshot { id },
            })
        }
        "metrics" => {
            if value.get("row").is_some() || value.get("deadline_ms").is_some() {
                return Err(WireError::bad_request(
                    "\"metrics\" takes only an optional \"format\"",
                ));
            }
            let format = match value.get("format") {
                None => MetricsFormat::Prometheus,
                Some(v) => match v.as_str() {
                    Some("prometheus") => MetricsFormat::Prometheus,
                    Some("json") => MetricsFormat::Json,
                    _ => {
                        return Err(WireError::bad_request(
                            "\"format\" must be \"prometheus\" or \"json\"",
                        ))
                    }
                },
            };
            Ok(Request::Metrics { id, format })
        }
        "trace" => {
            if value.get("row").is_some() || value.get("deadline_ms").is_some() {
                return Err(WireError::bad_request(
                    "\"trace\" takes one selector and an optional \"format\"",
                ));
            }
            let by_id = match value.get("trace_id") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    WireError::bad_request("\"trace_id\" must be a non-negative integer")
                })?),
            };
            let slowest = match value.get("slowest") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    WireError::bad_request("\"slowest\" must be a non-negative integer")
                })?),
            };
            let errors = match value.get("errors") {
                None => false,
                Some(v) => match v.as_bool() {
                    Some(true) => true,
                    Some(false) => {
                        return Err(WireError::bad_request(
                            "\"errors\" must be true when present",
                        ))
                    }
                    None => return Err(WireError::bad_request("\"errors\" must be a boolean")),
                },
            };
            let query = match (by_id, slowest, errors) {
                (Some(trace_id), None, false) => TraceQuery::ById(trace_id),
                (None, Some(n), false) => TraceQuery::Slowest(n as usize),
                (None, None, true) => TraceQuery::Errors,
                _ => {
                    return Err(WireError::bad_request(
                        "\"trace\" needs exactly one of \"trace_id\", \"slowest\", \"errors\"",
                    ))
                }
            };
            let format = match value.get("format") {
                None => TraceFormat::Json,
                Some(v) => match v.as_str() {
                    Some("json") => TraceFormat::Json,
                    Some("chrome") => TraceFormat::Chrome,
                    _ => {
                        return Err(WireError::bad_request(
                            "\"format\" must be \"json\" or \"chrome\"",
                        ))
                    }
                },
            };
            if format == TraceFormat::Chrome && !matches!(query, TraceQuery::ById(_)) {
                return Err(WireError::bad_request(
                    "\"chrome\" format needs a \"trace_id\" selector",
                ));
            }
            Ok(Request::Trace { id, query, format })
        }
        other => Err(WireError::bad_request(format!(
            "unknown method \"{other}\""
        ))),
    }
}

/// Best-effort extraction of a frame's `id` so an error frame can echo
/// it even when the frame is otherwise invalid; 0 when unparseable.
pub fn parse_frame_id(line: &str) -> u64 {
    Json::parse(line.trim())
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_u64))
        .unwrap_or(0)
}

/// Renders an error frame (no trailing newline).
pub fn error_frame(id: u64, err: &WireError) -> String {
    error_frame_traced(id, err, None)
}

/// Renders an error frame carrying the request's trace id, the join key
/// for the `trace` admin frame (error traces are always retained).
pub fn error_frame_traced(id: u64, err: &WireError, trace_id: Option<u64>) -> String {
    let mut out = format!(
        "{{\"id\": {id}, \"ok\": false, \"code\": {}, \"error\": \"{}\", \"message\": \"{}\"",
        err.code,
        escape(err.kind),
        escape(&err.message)
    );
    if let Some(tenant) = &err.tenant {
        out.push_str(&format!(", \"tenant\": \"{}\"", escape(tenant)));
    }
    if let Some(trace_id) = trace_id {
        out.push_str(&format!(", \"trace_id\": {trace_id}"));
    }
    out.push('}');
    out
}

/// Renders a success frame for one served explanation (no trailing
/// newline). `epoch` is the refresh epoch the tuple was explained in;
/// `trace_id` joins the frame against its retained request trace (absent
/// when tracing is off).
pub fn explanation_frame(
    id: u64,
    row: usize,
    explanation: &Explanation,
    degraded: bool,
    epoch: u64,
    trace_id: Option<u64>,
) -> String {
    let mut out = format!("{{\"id\": {id}, \"ok\": true, \"row\": {row}, ");
    match explanation {
        Explanation::Weights(w) => {
            out.push_str("\"weights\": [");
            for (i, v) in w.weights.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&fmt_f64(*v));
            }
            out.push_str(&format!(
                "], \"intercept\": {}, \"local_prediction\": {}",
                fmt_f64(w.intercept),
                fmt_f64(w.local_prediction)
            ));
        }
        Explanation::Rule(r) => {
            out.push_str(&format!(
                "\"rule\": \"{}\", \"precision\": {}, \"coverage\": {}, \"anchored_class\": {}",
                escape(&r.rule.to_string()),
                fmt_f64(r.precision),
                fmt_f64(r.coverage),
                r.anchored_class
            ));
        }
    }
    out.push_str(&format!(", \"degraded\": {degraded}, \"epoch\": {epoch}"));
    if let Some(trace_id) = trace_id {
        out.push_str(&format!(", \"trace_id\": {trace_id}"));
    }
    out.push('}');
    out
}

/// Renders the pong frame. Beyond liveness it carries enough signal for
/// a health check to act on: process uptime, the build version, and the
/// warm-store entry count (0 would mean the repository the whole service
/// exists to exploit is gone). Multi-tenant servers pass per-tenant
/// lifecycle rows — `warm_entries` is then the cluster-wide sum and
/// `tenants` breaks it down; single-tenant servers pass `&[]` and the
/// frame schema is unchanged.
pub fn pong_frame(
    id: u64,
    uptime_secs: u64,
    version: &str,
    warm_entries: usize,
    tenants: &[TenantStat],
) -> String {
    let mut out = format!(
        "{{\"id\": {id}, \"ok\": true, \"pong\": true, \"uptime_secs\": {uptime_secs}, \
         \"version\": \"{}\", \"warm_entries\": {warm_entries}",
        escape(version)
    );
    if !tenants.is_empty() {
        out.push_str(&format!(", \"tenants\": {}", tenants_json(tenants)));
    }
    out.push('}');
    out
}

/// Renders the shutdown acknowledgement frame.
pub fn shutdown_frame(id: u64) -> String {
    format!("{{\"id\": {id}, \"ok\": true, \"shutting_down\": true}}")
}

/// Renders the snapshot acknowledgement frame: the request was accepted
/// and the monitor thread will write `path` within one poll tick.
pub fn snapshot_frame(id: u64, path: &str) -> String {
    format!(
        "{{\"id\": {id}, \"ok\": true, \"snapshot_requested\": true, \"path\": \"{}\"}}",
        escape(path)
    )
}

/// Renders a `metrics` response frame. The Prometheus exposition text
/// travels as one escaped JSON string under `"metrics"`; the JSON
/// snapshot is inlined as a nested object under `"snapshot"` (the
/// snapshot document's newlines are structural, so collapsing them keeps
/// it valid while preserving the one-frame-per-line protocol).
pub fn metrics_frame(id: u64, format: MetricsFormat, body: &str) -> String {
    match format {
        MetricsFormat::Prometheus => format!(
            "{{\"id\": {id}, \"ok\": true, \"format\": \"prometheus\", \"metrics\": \"{}\"}}",
            escape(body)
        ),
        MetricsFormat::Json => format!(
            "{{\"id\": {id}, \"ok\": true, \"format\": \"json\", \"snapshot\": {}}}",
            body.replace('\n', " ")
        ),
    }
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// Renders a `stats` response frame from the monitor's windowed summary.
/// Multi-tenant summaries append a per-tenant `tenants` array; the
/// single-tenant schema is unchanged.
pub fn stats_frame(id: u64, s: &StatsSummary) -> String {
    let mut out = format!(
        "{{\"id\": {id}, \"ok\": true, \"stats\": {{\
         \"window_secs\": {}, \"windows\": {}, \"req_per_s\": {}, \
         \"p50_ns\": {}, \"p99_ns\": {}, \"hit_rate\": {}, \
         \"queue_depth\": {}, \"live_connections\": {}, \
         \"slo\": {{\"burn_rate\": {}, \"budget_remaining\": {}}}",
        fmt_f64(s.window_secs),
        s.windows,
        fmt_f64(s.req_per_s),
        fmt_opt_u64(s.p50_ns),
        fmt_opt_u64(s.p99_ns),
        fmt_f64(s.hit_rate),
        s.queue_depth,
        s.live_connections,
        fmt_f64(s.slo_burn_rate),
        fmt_f64(s.slo_budget_remaining),
    );
    if !s.tenants.is_empty() {
        out.push_str(&format!(", \"tenants\": {}", tenants_json(&s.tenants)));
    }
    out.push_str("}}");
    out
}

/// Retention totals of the trace store, attached to multi-trace
/// responses so a scraper can judge coverage (how much the tail-sampling
/// policy kept vs sampled out vs evicted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Traces in the ring right now.
    pub len: u64,
    /// Traces retained since start (monotonic).
    pub retained: u64,
    /// Traces sampled out by the tail policy.
    pub dropped: u64,
    /// Retained traces later pushed out by the ring bound.
    pub evicted: u64,
}

/// Renders a single-trace `trace` response frame. The span tree is
/// inlined as a nested object; the Chrome-trace rendering collapses its
/// structural newlines, like the JSON `metrics` frame.
pub fn trace_frame(id: u64, trace: &RequestTrace, format: TraceFormat) -> String {
    match format {
        TraceFormat::Json => format!(
            "{{\"id\": {id}, \"ok\": true, \"format\": \"json\", \"trace\": {}}}",
            trace.to_json()
        ),
        TraceFormat::Chrome => format!(
            "{{\"id\": {id}, \"ok\": true, \"format\": \"chrome\", \"chrome_trace\": {}}}",
            trace.to_chrome_trace().replace('\n', " ").trim_end()
        ),
    }
}

/// Renders a multi-trace `trace` response frame (`slowest`/`errors`
/// selectors), traces in the selector's order plus the store's
/// retention totals.
pub fn traces_frame(id: u64, traces: &[Arc<RequestTrace>], stats: TraceStoreStats) -> String {
    let mut out = format!("{{\"id\": {id}, \"ok\": true, \"traces\": [");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&t.to_json());
    }
    out.push_str(&format!(
        "], \"store\": {{\"len\": {}, \"retained\": {}, \"dropped\": {}, \"evicted\": {}}}}}",
        stats.len, stats.retained, stats.dropped, stats.evicted
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_requests() {
        assert_eq!(
            parse_request("{\"id\": 7, \"method\": \"explain\", \"row\": 12}").unwrap(),
            Request::Explain {
                id: 7,
                row: 12,
                deadline_ms: None,
                tenant: None
            }
        );
        assert_eq!(
            parse_request("{\"id\":1,\"method\":\"explain\",\"row\":0,\"deadline_ms\":250}")
                .unwrap(),
            Request::Explain {
                id: 1,
                row: 0,
                deadline_ms: Some(250),
                tenant: None
            }
        );
        assert_eq!(
            parse_request("{\"id\": 2, \"method\": \"explain\", \"row\": 4, \"tenant\": \"acme\"}")
                .unwrap(),
            Request::Explain {
                id: 2,
                row: 4,
                deadline_ms: None,
                tenant: Some("acme".into())
            }
        );
        assert_eq!(
            parse_request("{\"method\": \"ping\"}").unwrap(),
            Request::Ping { id: 0 }
        );
        assert_eq!(
            parse_request("  {\"id\": 3, \"method\": \"shutdown\"}\n").unwrap(),
            Request::Shutdown { id: 3 }
        );
    }

    #[test]
    fn bad_json_yields_a_400_frame() {
        for line in ["", "{", "not json", "[1, 2", "{\"id\": } "] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, 400, "line {line:?}");
            assert_eq!(err.kind, "bad_request");
        }
    }

    #[test]
    fn deeply_nested_frames_yield_a_400_frame_not_a_crash() {
        // The parser runs on untrusted socket bytes: pathological
        // nesting must come back as a typed error, never overflow the
        // reader thread's stack.
        let line = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code, 400);
        assert_eq!(err.kind, "bad_request");
        let line = format!("{}1{}", "{\"k\":".repeat(50_000), "}".repeat(50_000));
        assert_eq!(parse_request(&line).unwrap_err().code, 400);
        // parse_frame_id on the same garbage stays total too.
        assert_eq!(parse_frame_id(&line), 0);
    }

    #[test]
    fn unknown_method_yields_a_400_frame() {
        let err = parse_request("{\"id\": 1, \"method\": \"explode\"}").unwrap_err();
        assert_eq!(err.code, 400);
        assert!(err.message.contains("unknown method"));
        assert!(err.message.contains("explode"));
    }

    #[test]
    fn wrong_arity_and_types_yield_400_frames() {
        // Missing required parameter.
        let err = parse_request("{\"id\": 1, \"method\": \"explain\"}").unwrap_err();
        assert!(err.message.contains("row"));
        // Wrong parameter type.
        let err =
            parse_request("{\"id\": 1, \"method\": \"explain\", \"row\": \"five\"}").unwrap_err();
        assert_eq!(err.code, 400);
        // Negative row.
        let err = parse_request("{\"id\": 1, \"method\": \"explain\", \"row\": -3}").unwrap_err();
        assert_eq!(err.code, 400);
        // Extra parameters on a nullary method.
        let err = parse_request("{\"id\": 1, \"method\": \"ping\", \"row\": 2}").unwrap_err();
        assert!(err.message.contains("takes no parameters"));
        // Unknown keys are rejected rather than silently dropped.
        let err = parse_request("{\"id\": 1, \"method\": \"explain\", \"row\": 1, \"rwo\": 2}")
            .unwrap_err();
        assert!(err.message.contains("rwo"));
        // Non-object frames.
        let err = parse_request("[1, 2, 3]").unwrap_err();
        assert!(err.message.contains("object"));
        // Non-integer id.
        let err = parse_request("{\"id\": \"x\", \"method\": \"ping\"}").unwrap_err();
        assert!(err.message.contains("id"));
    }

    #[test]
    fn error_frames_are_valid_json_with_the_taxonomy_fields() {
        let frames = [
            error_frame(1, &WireError::bad_request("broken \"quote\"")),
            error_frame(2, &WireError::forbidden()),
            error_frame(3, &WireError::row_out_of_range(9, 5)),
            error_frame(4, &WireError::deadline_expired()),
            error_frame(5, &WireError::quarantined(FailureKind::Panic, "boom")),
            error_frame(6, &WireError::overloaded(64)),
            error_frame(7, &WireError::shutting_down()),
        ];
        let codes = [400, 403, 404, 408, 422, 429, 503];
        for (frame, code) in frames.iter().zip(codes) {
            let v = Json::parse(frame).expect("error frame parses");
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(v.get("code").unwrap().as_u64(), Some(code));
            assert!(v.get("error").unwrap().as_str().is_some());
            assert!(v.get("message").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn explanation_frames_round_trip_weights_exactly() {
        use shahin_explain::FeatureWeights;
        let w = FeatureWeights {
            weights: vec![0.1, -2.5e-7, 3.0],
            intercept: 0.25,
            local_prediction: 0.75,
        };
        let frame = explanation_frame(9, 4, &Explanation::Weights(w.clone()), false, 2, Some(31));
        let v = Json::parse(&frame).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("row").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("trace_id").unwrap().as_u64(), Some(31));
        let untraced = explanation_frame(9, 4, &Explanation::Weights(w.clone()), false, 2, None);
        assert!(Json::parse(&untraced).unwrap().get("trace_id").is_none());
        let parsed: Vec<f64> = v
            .get("weights")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        for (a, b) in parsed.iter().zip(&w.weights) {
            assert_eq!(a.to_bits(), b.to_bits(), "weights must be bit-identical");
        }
        assert_eq!(v.get("intercept").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn control_frames_parse() {
        assert_eq!(
            Json::parse(&pong_frame(5, 0, "0.1.0", 0, &[]))
                .unwrap()
                .get("pong")
                .unwrap(),
            &Json::Bool(true)
        );
        assert_eq!(
            Json::parse(&shutdown_frame(6))
                .unwrap()
                .get("shutting_down")
                .unwrap(),
            &Json::Bool(true)
        );
    }

    #[test]
    fn parses_snapshot_requests_and_enforces_arity() {
        assert_eq!(
            parse_request("{\"id\": 12, \"method\": \"snapshot\"}").unwrap(),
            Request::Snapshot { id: 12 }
        );
        let err = parse_request("{\"id\": 1, \"method\": \"snapshot\", \"row\": 2}").unwrap_err();
        assert!(err.message.contains("takes no parameters"));
        let frame = snapshot_frame(12, "/var/lib/shahin/warm.snap");
        assert!(!frame.contains('\n'), "frames must be single-line");
        let v = Json::parse(&frame).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("snapshot_requested").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("path").unwrap().as_str(),
            Some("/var/lib/shahin/warm.snap")
        );
        let err = WireError::snapshots_disabled();
        assert_eq!(err.code, 404);
        assert_eq!(err.kind, "snapshots_disabled");
    }

    #[test]
    fn pong_frame_carries_health_signal() {
        let v = Json::parse(&pong_frame(9, 321, "0.1.0", 200, &[])).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("uptime_secs").unwrap().as_u64(), Some(321));
        assert_eq!(v.get("version").unwrap().as_str(), Some("0.1.0"));
        assert_eq!(v.get("warm_entries").unwrap().as_u64(), Some(200));
        assert!(
            v.get("tenants").is_none(),
            "single-tenant pong schema is unchanged"
        );
    }

    #[test]
    fn tenant_arity_and_types_are_enforced() {
        // tenant must be a string.
        let err = parse_request("{\"id\": 1, \"method\": \"explain\", \"row\": 1, \"tenant\": 3}")
            .unwrap_err();
        assert_eq!(err.code, 400);
        assert!(err.message.contains("tenant"));
        // tenant only applies to explain.
        let err =
            parse_request("{\"id\": 1, \"method\": \"ping\", \"tenant\": \"acme\"}").unwrap_err();
        assert!(err.message.contains("only applies to \"explain\""));
        let err =
            parse_request("{\"id\": 1, \"method\": \"stats\", \"tenant\": \"acme\"}").unwrap_err();
        assert!(err.message.contains("only applies to \"explain\""));
    }

    #[test]
    fn tenant_scoped_errors_carry_the_tenant_key() {
        let err = WireError::unknown_tenant("hooli");
        assert_eq!((err.code, err.kind), (404, "unknown_tenant"));
        let v = Json::parse(&error_frame(3, &err)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_u64(), Some(404));
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("hooli"));

        let err = WireError::tenant_over_quota("acme", 8);
        assert_eq!((err.code, err.kind), (429, "tenant_over_quota"));
        let v = Json::parse(&error_frame(4, &err)).unwrap();
        assert_eq!(v.get("code").unwrap().as_u64(), Some(429));
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("acme"));
        assert!(v.get("message").unwrap().as_str().unwrap().contains("8"));

        // Tenant-less errors keep the pre-tenancy schema.
        let v = Json::parse(&error_frame(5, &WireError::overloaded(64))).unwrap();
        assert!(v.get("tenant").is_none());
    }

    #[test]
    fn multi_tenant_ping_and_stats_frames_carry_tenant_rows() {
        let tenants = vec![
            TenantStat {
                name: "acme".into(),
                state: "warm",
                entries: 24,
                bytes: 4096,
                inflight: 2,
            },
            TenantStat {
                name: "globex".into(),
                state: "cold",
                entries: 0,
                bytes: 0,
                inflight: 0,
            },
        ];
        let v = Json::parse(&pong_frame(9, 1, "0.1.0", 24, &tenants)).unwrap();
        let rows = v.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("acme"));
        assert_eq!(rows[0].get("state").unwrap().as_str(), Some("warm"));
        assert_eq!(rows[0].get("entries").unwrap().as_u64(), Some(24));
        assert_eq!(rows[0].get("inflight").unwrap().as_u64(), Some(2));
        assert_eq!(rows[1].get("state").unwrap().as_str(), Some("cold"));

        let s = StatsSummary {
            tenants,
            ..StatsSummary::default()
        };
        let frame = stats_frame(11, &s);
        assert!(!frame.contains('\n'), "frames must be single-line");
        let v = Json::parse(&frame).unwrap();
        let rows = v.get("stats").unwrap().get("tenants").unwrap();
        assert_eq!(rows.as_arr().unwrap().len(), 2);
        // Single-tenant stats keep the pre-tenancy schema.
        let v = Json::parse(&stats_frame(12, &StatsSummary::default())).unwrap();
        assert!(v.get("stats").unwrap().get("tenants").is_none());
    }

    #[test]
    fn parses_metrics_and_stats_requests() {
        assert_eq!(
            parse_request("{\"id\": 1, \"method\": \"metrics\"}").unwrap(),
            Request::Metrics {
                id: 1,
                format: MetricsFormat::Prometheus
            }
        );
        assert_eq!(
            parse_request("{\"id\": 2, \"method\": \"metrics\", \"format\": \"json\"}").unwrap(),
            Request::Metrics {
                id: 2,
                format: MetricsFormat::Json
            }
        );
        assert_eq!(
            parse_request("{\"id\": 3, \"method\": \"metrics\", \"format\": \"prometheus\"}")
                .unwrap(),
            Request::Metrics {
                id: 3,
                format: MetricsFormat::Prometheus
            }
        );
        assert_eq!(
            parse_request("{\"id\": 4, \"method\": \"stats\"}").unwrap(),
            Request::Stats { id: 4 }
        );
    }

    #[test]
    fn metrics_and_stats_arity_is_enforced() {
        // Unknown format value.
        let err =
            parse_request("{\"id\": 1, \"method\": \"metrics\", \"format\": \"xml\"}").unwrap_err();
        assert_eq!(err.code, 400);
        assert!(err.message.contains("prometheus"));
        // Non-string format.
        let err = parse_request("{\"id\": 1, \"method\": \"metrics\", \"format\": 3}").unwrap_err();
        assert_eq!(err.code, 400);
        // metrics rejects explain parameters.
        let err = parse_request("{\"id\": 1, \"method\": \"metrics\", \"row\": 2}").unwrap_err();
        assert_eq!(err.code, 400);
        // stats is nullary, including format.
        let err =
            parse_request("{\"id\": 1, \"method\": \"stats\", \"format\": \"json\"}").unwrap_err();
        assert!(err.message.contains("takes no parameters"));
        // format on explain is rejected even though the key is known.
        let err =
            parse_request("{\"id\": 1, \"method\": \"explain\", \"row\": 1, \"format\": \"json\"}")
                .unwrap_err();
        assert!(err.message.contains("format"));
    }

    #[test]
    fn metrics_frames_round_trip_both_formats() {
        let text = "# TYPE serve_requests_total counter\nserve_requests_total 42\n";
        let frame = metrics_frame(7, MetricsFormat::Prometheus, text);
        assert!(!frame.contains('\n'), "frames must be single-line");
        let v = Json::parse(&frame).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("format").unwrap().as_str(), Some("prometheus"));
        assert_eq!(v.get("metrics").unwrap().as_str(), Some(text));

        let snapshot_json = shahin_obs::MetricsRegistry::new().snapshot().to_json();
        let frame = metrics_frame(8, MetricsFormat::Json, &snapshot_json);
        assert!(!frame.contains('\n'));
        let v = Json::parse(&frame).unwrap();
        assert_eq!(v.get("format").unwrap().as_str(), Some("json"));
        assert!(v.get("snapshot").unwrap().get("counters").is_some());
    }

    #[test]
    fn parses_trace_requests() {
        assert_eq!(
            parse_request("{\"id\": 1, \"method\": \"trace\", \"trace_id\": 42}").unwrap(),
            Request::Trace {
                id: 1,
                query: TraceQuery::ById(42),
                format: TraceFormat::Json
            }
        );
        assert_eq!(
            parse_request(
                "{\"id\": 2, \"method\": \"trace\", \"trace_id\": 42, \"format\": \"chrome\"}"
            )
            .unwrap(),
            Request::Trace {
                id: 2,
                query: TraceQuery::ById(42),
                format: TraceFormat::Chrome
            }
        );
        assert_eq!(
            parse_request("{\"id\": 3, \"method\": \"trace\", \"slowest\": 5}").unwrap(),
            Request::Trace {
                id: 3,
                query: TraceQuery::Slowest(5),
                format: TraceFormat::Json
            }
        );
        assert_eq!(
            parse_request("{\"id\": 4, \"method\": \"trace\", \"errors\": true}").unwrap(),
            Request::Trace {
                id: 4,
                query: TraceQuery::Errors,
                format: TraceFormat::Json
            }
        );
    }

    #[test]
    fn trace_arity_is_enforced() {
        // No selector.
        let err = parse_request("{\"id\": 1, \"method\": \"trace\"}").unwrap_err();
        assert!(err.message.contains("exactly one"));
        // Two selectors.
        let err =
            parse_request("{\"id\": 1, \"method\": \"trace\", \"trace_id\": 1, \"slowest\": 2}")
                .unwrap_err();
        assert!(err.message.contains("exactly one"));
        // errors must be literally true.
        let err =
            parse_request("{\"id\": 1, \"method\": \"trace\", \"errors\": false}").unwrap_err();
        assert!(err.message.contains("true"));
        // Chrome rendering is single-trace only.
        let err = parse_request(
            "{\"id\": 1, \"method\": \"trace\", \"slowest\": 3, \"format\": \"chrome\"}",
        )
        .unwrap_err();
        assert!(err.message.contains("trace_id"));
        // Unknown format value.
        let err = parse_request(
            "{\"id\": 1, \"method\": \"trace\", \"trace_id\": 1, \"format\": \"xml\"}",
        )
        .unwrap_err();
        assert!(err.message.contains("chrome"));
        // Trace selectors are rejected on other methods.
        let err =
            parse_request("{\"id\": 1, \"method\": \"explain\", \"row\": 1, \"trace_id\": 2}")
                .unwrap_err();
        assert!(err.message.contains("trace selectors"));
        let err =
            parse_request("{\"id\": 1, \"method\": \"stats\", \"errors\": true}").unwrap_err();
        assert!(err.message.contains("trace selectors"));
        // Explain parameters are rejected on trace.
        let err = parse_request("{\"id\": 1, \"method\": \"trace\", \"trace_id\": 1, \"row\": 2}")
            .unwrap_err();
        assert!(err.message.contains("selector"));
    }

    fn sample_trace(trace_id: u64) -> RequestTrace {
        use shahin::{TraceCounters, TraceSpan};
        RequestTrace {
            trace_id,
            request_id: 7,
            row: 4,
            batch_id: Some(2),
            tenant: None,
            spans: vec![
                TraceSpan {
                    name: "request",
                    parent: None,
                    start_ns: 0,
                    dur_ns: 900,
                },
                TraceSpan {
                    name: "queue",
                    parent: Some(0),
                    start_ns: 0,
                    dur_ns: 300,
                },
            ],
            counters: TraceCounters::default(),
            error: false,
            quarantined: false,
            degraded: false,
            total_ns: 900,
        }
    }

    #[test]
    fn trace_frames_round_trip_both_formats() {
        let t = sample_trace(42);
        let frame = trace_frame(5, &t, TraceFormat::Json);
        assert!(!frame.contains('\n'), "frames must be single-line");
        let v = Json::parse(&frame).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("format").unwrap().as_str(), Some("json"));
        let trace = v.get("trace").unwrap();
        assert_eq!(trace.get("trace_id").unwrap().as_u64(), Some(42));
        assert_eq!(trace.get("spans").unwrap().as_arr().unwrap().len(), 2);

        let frame = trace_frame(6, &t, TraceFormat::Chrome);
        assert!(!frame.contains('\n'));
        let v = Json::parse(&frame).unwrap();
        assert_eq!(v.get("format").unwrap().as_str(), Some("chrome"));
        let doc = v.get("chrome_trace").unwrap();
        assert!(
            !doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty(),
            "chrome document must inline its events"
        );
    }

    #[test]
    fn traces_frame_carries_store_totals() {
        let frame = traces_frame(
            9,
            &[Arc::new(sample_trace(1)), Arc::new(sample_trace(2))],
            TraceStoreStats {
                len: 2,
                retained: 5,
                dropped: 40,
                evicted: 3,
            },
        );
        assert!(!frame.contains('\n'));
        let v = Json::parse(&frame).unwrap();
        let traces = v.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[1].get("trace_id").unwrap().as_u64(), Some(2));
        let store = v.get("store").unwrap();
        assert_eq!(store.get("len").unwrap().as_u64(), Some(2));
        assert_eq!(store.get("retained").unwrap().as_u64(), Some(5));
        assert_eq!(store.get("dropped").unwrap().as_u64(), Some(40));
        assert_eq!(store.get("evicted").unwrap().as_u64(), Some(3));
        // Empty result set is still a well-formed frame.
        let empty = traces_frame(10, &[], TraceStoreStats::default());
        assert!(Json::parse(&empty)
            .unwrap()
            .get("traces")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn stats_frame_schema_is_stable() {
        let s = StatsSummary {
            window_secs: 2.5,
            windows: 5,
            req_per_s: 12.0,
            p50_ns: Some(1_023),
            p99_ns: None,
            hit_rate: 0.875,
            queue_depth: 3,
            live_connections: 2,
            slo_burn_rate: 0.25,
            slo_budget_remaining: 0.75,
            tenants: Vec::new(),
        };
        let v = Json::parse(&stats_frame(11, &s)).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(11));
        let stats = v.get("stats").unwrap();
        // Single-tenant: no tenants key at all (pre-tenancy schema).
        assert!(stats.get("tenants").is_none());
        assert_eq!(stats.get("window_secs").unwrap().as_f64(), Some(2.5));
        assert_eq!(stats.get("windows").unwrap().as_u64(), Some(5));
        assert_eq!(stats.get("req_per_s").unwrap().as_f64(), Some(12.0));
        assert_eq!(stats.get("p50_ns").unwrap().as_u64(), Some(1_023));
        assert_eq!(stats.get("p99_ns").unwrap(), &Json::Null);
        assert_eq!(stats.get("hit_rate").unwrap().as_f64(), Some(0.875));
        assert_eq!(stats.get("queue_depth").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("live_connections").unwrap().as_u64(), Some(2));
        let slo = stats.get("slo").unwrap();
        assert_eq!(slo.get("burn_rate").unwrap().as_f64(), Some(0.25));
        assert_eq!(slo.get("budget_remaining").unwrap().as_f64(), Some(0.75));
    }
}
