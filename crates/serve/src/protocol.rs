//! The JSON-lines wire protocol.
//!
//! One request per line, one response per line, in order, over a plain TCP
//! stream — `nc` is a valid client. Requests are externally tagged serde
//! enums, so a plan request looks like
//!
//! ```json
//! {"id":1,"name":"bert@8g","body":{"Plan":{"model":{...},"topology":{...},"budget_bytes":8589934592}}}
//! ```
//!
//! and every response carries the request's `id` and `name` back plus a
//! [`WireResult`]. The `result` payload of a plan answer is **stable
//! bytes**: it excludes anything volatile (wall-clock timings, per-request
//! labels), so a cached, a coalesced and a freshly computed answer to the
//! same question serialize identically, and the loopback conformance test
//! can require byte equality with a direct [`PlanService`] call. The
//! `cached`/`coalesced` flags live on the envelope, outside the stable
//! payload.
//!
//! [`PlanService`]: galvatron_planner::PlanService

use galvatron_cluster::ClusterTopology;
use galvatron_core::OptimizeOutcome;
use galvatron_model::ModelSpec;
use galvatron_obs::{
    AttributionRecord, MetricsSnapshot, SlowTraceEntry, SpanId, TraceContext, TraceId,
};
use galvatron_strategy::ParallelPlan;
use serde::{Deserialize, Serialize};

/// Protocol version, echoed by `Ping` and stamped into persisted caches.
/// Version 2 added the fleet peer protocol (`SnapshotPull`, `GossipPush`,
/// `FleetCheck`) and the `/healthz` HTTP endpoint. Version 3 added
/// distributed tracing: the optional `trace` envelope field, the optional
/// `attribution` response field, and the `MetricsPull` / `SlowTracePull`
/// federation verbs. All v3 additions are optional fields or new verbs, so
/// v2 clients (no `trace` field) are served byte-identical `result`
/// payloads.
pub const PROTOCOL_VERSION: u32 = 3;

/// The retry hint on transient refusals: a full queue or a draining
/// server.
pub const RETRY_AFTER_MS: u64 = 50;

/// The retry hint when a fleet router has no live replica left.
pub const UNAVAILABLE_RETRY_MS: u64 = 200;

/// Trace context on the request envelope (protocol v3). Ids are minted by
/// a seeded [`galvatron_obs::TraceIdGen`] on the client — never from the
/// wall clock — and travel as lowercase hex strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireTraceContext {
    /// The request's 128-bit trace id, 32 hex chars.
    pub trace_id: String,
    /// The parent span id (the sender's span for this request), 16 hex
    /// chars. Server-side spans parent under it.
    pub span_id: String,
    /// Opt in to a latency [`AttributionRecord`] on the response
    /// envelope.
    #[serde(default)]
    pub attribution: bool,
}

impl WireTraceContext {
    /// Wire form of a typed trace position.
    pub fn from_context(ctx: TraceContext, attribution: bool) -> Self {
        WireTraceContext {
            trace_id: ctx.trace_id.to_hex(),
            span_id: ctx.span_id.to_hex(),
            attribution,
        }
    }

    /// Parse back into a typed trace position; `None` when either hex id
    /// is malformed (servers then treat the request as untraced).
    pub fn context(&self) -> Option<TraceContext> {
        Some(TraceContext {
            trace_id: TraceId::parse_hex(&self.trace_id)?,
            span_id: SpanId::parse_hex(&self.span_id)?,
        })
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Client-chosen label, echoed in the response (not part of any cache
    /// key).
    #[serde(default)]
    pub name: String,
    /// Optional trace context (protocol v3); absent for v2 clients.
    #[serde(default)]
    pub trace: Option<WireTraceContext>,
    /// What is being asked.
    pub body: RequestBody,
}

impl WireRequest {
    /// The sender's trace position and whether it asked for attribution.
    /// Malformed hex degrades to an untraced request rather than an
    /// error: tracing must never break serving.
    pub fn trace_context(&self) -> Option<(TraceContext, bool)> {
        let wire = self.trace.as_ref()?;
        Some((wire.context()?, wire.attribution))
    }
}

/// The request kinds the daemon answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Plan a model on a topology under a per-device budget.
    Plan(PlanBody),
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// The daemon's metrics registry as Prometheus text; answered inline.
    /// (An HTTP `GET /metrics` on the same port returns the same text for
    /// scrape configs that insist on HTTP.)
    Metrics,
    /// Structured serving statistics; answered inline.
    Stats,
    /// Fleet peer protocol: export up to `max_entries` response-cache
    /// answers, most-recently-used first. A joining replica warm-starts
    /// from a peer's answer ([`WireResult::Snapshot`]) instead of cold
    /// DP runs.
    SnapshotPull {
        /// Cap on the number of entries returned.
        max_entries: usize,
    },
    /// Fleet peer protocol: push hot cache entries to a neighbor.
    /// Answered with [`WireResult::Ack`] carrying the accepted count;
    /// unstable results in the batch are dropped, never cached.
    GossipPush {
        /// The entries being replicated.
        entries: Vec<CacheEntry>,
    },
    /// Router-only: forward the plan question to **every** live replica
    /// and report whether the serialized answers are byte-identical
    /// ([`WireResult::Fleet`]). A single daemon answers this with
    /// `BadRequest` — cross-replica identity needs a router.
    FleetCheck(PlanBody),
    /// Observability federation: export the instance's metrics registry
    /// as a structured snapshot ([`WireResult::MetricsState`]). The fleet
    /// router's `/metrics` pulls these from every live replica and merges
    /// them into one instance-labelled exposition.
    MetricsPull,
    /// Observability federation: drain the instance's ring of the K
    /// slowest traced requests ([`WireResult::SlowTraces`]). Backs the
    /// `/trace/slow` HTTP endpoint.
    SlowTracePull,
}

/// The planning question proper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanBody {
    /// The model to plan for.
    pub model: ModelSpec,
    /// The cluster to plan on. Validated server-side
    /// ([`ClusterTopology::validate`]) — serde fills fields without
    /// invariant checks.
    pub topology: ClusterTopology,
    /// Per-device memory budget, bytes.
    pub budget_bytes: u64,
}

/// One response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The request's label.
    #[serde(default)]
    pub name: String,
    /// Whether the answer came from the response cache.
    #[serde(default)]
    pub cached: bool,
    /// Whether this request was coalesced onto another in-flight request's
    /// computation (single-flight).
    #[serde(default)]
    pub coalesced: bool,
    /// Per-request latency attribution (protocol v3): present exactly
    /// when the request carried a trace context with `attribution: true`.
    /// Lives on the envelope, outside the stable `result` payload.
    #[serde(default)]
    pub attribution: Option<AttributionRecord>,
    /// The answer.
    pub result: WireResult,
}

impl WireResponse {
    /// The envelope of an answer that never waited on a computation: not
    /// cached, not coalesced, no attribution.
    pub fn direct(id: u64, name: String, result: WireResult) -> Self {
        WireResponse {
            id,
            name,
            cached: false,
            coalesced: false,
            attribution: None,
            result,
        }
    }
}

/// The answer payload. For `Plan` requests this is the **stable** part of
/// the response: identical questions produce byte-identical serializations
/// regardless of cache or coalescing state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireResult {
    /// The optimal plan.
    Plan(ServedPlan),
    /// A structured failure (including "nothing fits the budget").
    Error(ServeError),
    /// Answer to `Ping`: the protocol version.
    Pong(u32),
    /// Answer to `Metrics`: Prometheus text exposition.
    Metrics(String),
    /// Answer to `Stats`.
    Stats(ServeStats),
    /// Answer to `SnapshotPull`: the exported cache entries, hottest
    /// first.
    Snapshot(Vec<CacheEntry>),
    /// Answer to `GossipPush`: how many pushed entries were accepted.
    Ack(u64),
    /// Answer to `FleetCheck`: the cross-replica byte-identity report.
    Fleet(FleetCheckReport),
    /// Answer to `MetricsPull`: the instance's structured metrics
    /// snapshot.
    MetricsState(MetricsSnapshot),
    /// Answer to `SlowTracePull`: the drained slow-trace ring, slowest
    /// first.
    SlowTraces(Vec<SlowTraceEntry>),
}

impl WireResult {
    /// A structured error carrying the retry hint its `code` calls for
    /// ([`ErrorCode::retry_after_ms`]).
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        WireResult::Error(ServeError {
            code,
            message: message.into(),
            retry_after_ms: code.retry_after_ms(),
        })
    }

    /// Whether this result is a *stable* answer — deterministic for its
    /// question and therefore safe to cache, persist, and replicate
    /// between fleet peers. Plans and `Infeasible` verdicts are stable;
    /// transient errors (overload, shutdown, planner faults) and
    /// control-plane answers are not.
    pub fn is_stable_answer(&self) -> bool {
        match self {
            WireResult::Plan(_) => true,
            WireResult::Error(e) => e.code == ErrorCode::Infeasible,
            _ => false,
        }
    }
}

/// One replicated response-cache entry, as carried by the fleet peer
/// protocol (`SnapshotPull` answers and `GossipPush` bodies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The question's identity.
    pub key: crate::cache::PlanKey,
    /// The stable answer.
    pub result: WireResult,
}

/// The answer to a router `FleetCheck`: every live replica was asked the
/// same question directly, and their stable answer payloads were compared
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckReport {
    /// Replicas that answered.
    pub replicas: usize,
    /// Whether every replica's serialized answer was byte-identical.
    pub byte_identical: bool,
    /// The (agreed or first) serialized [`WireResult`] payload.
    pub answer_json: String,
}

/// The deterministic projection of an
/// [`OptimizeOutcome`](galvatron_core::OptimizeOutcome): the plan and its
/// estimates, without the volatile search statistics (wall-clock timings
/// vary run to run and would break response-byte stability).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServedPlan {
    /// The best per-layer hybrid plan.
    pub plan: ParallelPlan,
    /// Its estimated throughput, samples/second.
    pub throughput_samples_per_sec: f64,
    /// Its estimated iteration time, seconds.
    pub iteration_time: f64,
}

impl From<OptimizeOutcome> for ServedPlan {
    fn from(outcome: OptimizeOutcome) -> Self {
        ServedPlan {
            plan: outcome.plan,
            throughput_samples_per_sec: outcome.throughput_samples_per_sec,
            iteration_time: outcome.iteration_time,
        }
    }
}

/// A structured error. Clients can branch on `code` without parsing
/// `message`; `retry_after_ms` is set exactly when retrying later can
/// succeed (load shedding, shutdown), never for request defects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeError {
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// When set, the client should retry after this many milliseconds.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
}

/// Machine-readable error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request line did not parse as a [`WireRequest`].
    BadRequest,
    /// The topology violates structural invariants
    /// ([`ClusterTopology::validate`]).
    InvalidTopology,
    /// The search ran and no candidate fits the budget (deterministic —
    /// cached like a plan).
    Infeasible,
    /// The bounded request queue is full; retry after `retry_after_ms`.
    Overloaded,
    /// The planner itself errored (topology lookups etc.).
    PlannerError,
    /// The daemon is shutting down; retry against a restarted instance.
    ShuttingDown,
    /// The fleet router has no live replica left to forward to; retry
    /// after `retry_after_ms`.
    Unavailable,
}

impl ErrorCode {
    /// How long a client should wait before retrying this class of
    /// error: set for transient refusals, `None` for request defects and
    /// deterministic verdicts.
    pub fn retry_after_ms(self) -> Option<u64> {
        match self {
            ErrorCode::Overloaded | ErrorCode::ShuttingDown => Some(RETRY_AFTER_MS),
            ErrorCode::Unavailable => Some(UNAVAILABLE_RETRY_MS),
            ErrorCode::BadRequest
            | ErrorCode::InvalidTopology
            | ErrorCode::Infeasible
            | ErrorCode::PlannerError => None,
        }
    }
}

/// Structured serving statistics (the `Stats` answer), for load generators
/// and tests that would otherwise scrape and parse Prometheus text.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ServeStats {
    /// Requests currently waiting in the bounded queue.
    pub queue_depth: usize,
    /// The queue's capacity.
    pub queue_capacity: usize,
    /// Whether the worker pool is paused (draining for restart).
    pub paused: bool,
    /// Entries in the response cache.
    pub cache_entries: usize,
    /// Bytes accounted to the response cache.
    pub cache_bytes: u64,
    /// Response-cache hits served.
    pub cache_hits: u64,
    /// Response-cache misses.
    pub cache_misses: u64,
    /// Response-cache entries evicted by the byte budget.
    pub cache_evictions: u64,
    /// Requests answered by joining another request's in-flight
    /// computation.
    pub coalesced: u64,
    /// Requests rejected by load shedding.
    pub shed: u64,
    /// Plans actually computed by the plan service.
    pub computed: u64,
    /// Total requests handled (all kinds).
    pub requests: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::rtx_titan_node;
    use galvatron_model::BertConfig;

    fn plan_request() -> WireRequest {
        WireRequest {
            id: 7,
            name: "bert@8g".to_string(),
            trace: None,
            body: RequestBody::Plan(PlanBody {
                model: BertConfig {
                    layers: 2,
                    hidden: 256,
                    heads: 4,
                    seq: 64,
                    vocab: 1000,
                }
                .build("tiny"),
                topology: rtx_titan_node(8),
                budget_bytes: 8 << 30,
            }),
        }
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            plan_request(),
            WireRequest {
                id: 1,
                name: String::new(),
                trace: None,
                body: RequestBody::Ping,
            },
            WireRequest {
                id: 2,
                name: String::new(),
                trace: None,
                body: RequestBody::Metrics,
            },
            WireRequest {
                id: 3,
                name: String::new(),
                trace: None,
                body: RequestBody::Stats,
            },
        ] {
            let line = serde_json::to_string(&request).unwrap();
            assert!(!line.contains('\n'), "wire lines must be single-line");
            let back: WireRequest = serde_json::from_str(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn v2_lines_without_trace_fields_still_parse() {
        // A protocol-v2 client doesn't know the `trace` / `attribution`
        // fields exist; its lines must parse with both absent.
        let request_line = r#"{"id":4,"name":"legacy","body":"Ping"}"#;
        let request: WireRequest = serde_json::from_str(request_line).unwrap();
        assert_eq!(request.trace, None);
        assert_eq!(request.body, RequestBody::Ping);

        let response_line = r#"{"id":4,"name":"legacy","result":{"Pong":2}}"#;
        let response: WireResponse = serde_json::from_str(response_line).unwrap();
        assert_eq!(response.attribution, None);
        assert_eq!(response.result, WireResult::Pong(2));
    }

    #[test]
    fn traced_requests_round_trip_and_parse_back_to_context() {
        use galvatron_obs::TraceIdGen;
        let ctx = TraceIdGen::new(0x5eed).next_context();
        let mut request = plan_request();
        request.trace = Some(WireTraceContext::from_context(ctx, true));
        let line = serde_json::to_string(&request).unwrap();
        let back: WireRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, request);
        let wire = back.trace.unwrap();
        assert_eq!(wire.context(), Some(ctx));
        assert!(wire.attribution);
        // Malformed hex downgrades to untraced, not an error.
        let bad = WireTraceContext {
            trace_id: "nope".to_string(),
            span_id: wire.span_id.clone(),
            attribution: false,
        };
        assert_eq!(bad.context(), None);
    }

    #[test]
    fn federation_verbs_round_trip() {
        use galvatron_obs::MetricsRegistry;
        for body in [RequestBody::MetricsPull, RequestBody::SlowTracePull] {
            let request = WireRequest {
                id: 11,
                name: String::new(),
                trace: None,
                body: body.clone(),
            };
            let line = serde_json::to_string(&request).unwrap();
            let back: WireRequest = serde_json::from_str(&line).unwrap();
            assert_eq!(back.body, body);
        }
        let reg = MetricsRegistry::new();
        reg.counter("serve_requests_total").inc_by(2);
        let result = WireResult::MetricsState(reg.snapshot());
        let line = serde_json::to_string(&result).unwrap();
        let back: WireResult = serde_json::from_str(&line).unwrap();
        assert_eq!(back, result);

        let traces = WireResult::SlowTraces(vec![]);
        let line = serde_json::to_string(&traces).unwrap();
        let back: WireResult = serde_json::from_str(&line).unwrap();
        assert_eq!(back, traces);
    }

    #[test]
    fn errors_carry_the_retry_hint_of_their_code() {
        let hint = |code| match WireResult::error(code, "m") {
            WireResult::Error(e) => e.retry_after_ms,
            other => panic!("expected an error, got {other:?}"),
        };
        assert_eq!(hint(ErrorCode::Overloaded), Some(RETRY_AFTER_MS));
        assert_eq!(hint(ErrorCode::ShuttingDown), Some(RETRY_AFTER_MS));
        assert_eq!(hint(ErrorCode::Unavailable), Some(UNAVAILABLE_RETRY_MS));
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::InvalidTopology,
            ErrorCode::Infeasible,
            ErrorCode::PlannerError,
        ] {
            assert_eq!(hint(code), None, "{code:?}");
        }
    }

    #[test]
    fn error_responses_round_trip() {
        let response = WireResponse {
            id: 9,
            name: "x".to_string(),
            cached: false,
            coalesced: false,
            attribution: None,
            result: WireResult::Error(ServeError {
                code: ErrorCode::Overloaded,
                message: "queue full (capacity 64)".to_string(),
                retry_after_ms: Some(50),
            }),
        };
        let line = serde_json::to_string(&response).unwrap();
        let back: WireResponse = serde_json::from_str(&line).unwrap();
        assert_eq!(back, response);
        match back.result {
            WireResult::Error(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                assert_eq!(e.retry_after_ms, Some(50));
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
}
