//! The fleet front-end: route each plan question to the replica that owns
//! its cache key, fail over transparently when a replica dies.
//!
//! The router speaks the same JSONL protocol as a replica, so clients do
//! not know (or care) whether they talk to one daemon or a fleet. For a
//! `Plan` request it computes the key's ring position, forwards the
//! client's **raw request line** to the owning replica, and relays the
//! replica's **raw response line** back — no re-serialization anywhere on
//! the path, so the stable-bytes contract survives the hop untouched
//! (byte-identical answers whether a client asks a replica directly or
//! through the router, cached/coalesced envelope flags included).
//!
//! Failure handling is reactive, not probed: the first request whose
//! forward fails (after one reconnect attempt — the pooled connection may
//! simply be stale) marks the replica dead, removes it from the ring, and
//! retries against the key's next owner. Consistent hashing makes that
//! retry exactly the failover the gossip layer pre-warmed: the next ring
//! successor is where the dead replica's answers were replicated.
//!
//! `FleetCheck` is the router-only conformance probe: it puts the same
//! question to **every** live replica and reports whether the serialized
//! answers are byte-identical — the cross-replica identity gate the CI
//! smoke and the fleet bench assert on.

use crate::event::{spawn_event_loop, EventLoopConfig, EventLoopHandle, LineHandler, ResponseSlot};
use crate::ring::{plan_key_hash, HashRing};
use galvatron_obs::trace::{link_fields, PHASE_RELAY_HOP};
use galvatron_obs::{
    child_span_id, MetricsSnapshot, Obs, SlowRing, SlowTraceEntry, SpanLink, TraceContext,
};
use galvatron_serve::{
    BoundedQueue, ErrorCode, FleetCheckReport, PlanBody, PlanClient, PlanKey, PushError,
    RequestBody, ServeError, ServeStats, WireRequest, WireResponse, WireResult, WireTraceContext,
    PROTOCOL_VERSION,
};
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_millis(100);

/// What clients are told to wait before retrying when no replica is live.
const UNAVAILABLE_RETRY_MS: u64 = 200;

/// K-slowest traced requests the router keeps (and the cap it applies to
/// the fleet-merged `/trace/slow` export).
const SLOW_RING_CAPACITY: usize = 32;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; `127.0.0.1:0` picks a free loopback port.
    pub addr: String,
    /// The initial fleet membership.
    pub replicas: Vec<(usize, SocketAddr)>,
    /// Forwarder threads (each holds its own pooled connections to every
    /// replica; minimum 1).
    pub forwarders: usize,
    /// Bounded queue of requests waiting for a forwarder.
    pub queue_capacity: usize,
    /// Hard cap on concurrently open client connections.
    pub max_connections: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            replicas: Vec::new(),
            forwarders: 4,
            queue_capacity: 256,
            max_connections: 16_384,
        }
    }
}

/// Live membership: the ring and the address book shrink together when a
/// replica is marked dead; dead ids are remembered for `/healthz`.
struct Membership {
    ring: HashRing,
    addrs: HashMap<usize, SocketAddr>,
    dead: BTreeSet<usize>,
}

/// Trace state for one routed request: captured at admission so the
/// relay-hop slice covers router queueing, the forward and any failover.
struct RouteTrace {
    /// The client's trace position (parent of the router's `route_plan`
    /// span).
    client: TraceContext,
    /// The router's `route_plan` context; the downstream replica's
    /// `serve_request` span parents under it.
    server: TraceContext,
    /// Whether the client opted in to an attribution record.
    want_attribution: bool,
    /// When the request line was admitted.
    received: Instant,
    /// `received` on the obs epoch clock.
    received_epoch: f64,
}

struct RouteJob {
    /// Envelope identity for router-originated error answers.
    id: u64,
    name: String,
    kind: JobKind,
    slot: ResponseSlot,
}

enum JobKind {
    /// Relay `line` to the owner of `hash`, failing over along the ring.
    Forward {
        line: String,
        hash: u64,
        trace: Option<RouteTrace>,
    },
    /// `FleetCheck`: ask every live replica and compare answer bytes.
    Broadcast { body: PlanBody },
}

struct Shared {
    membership: Mutex<Membership>,
    queue: BoundedQueue<RouteJob>,
    obs: Obs,
    slow: SlowRing,
    stop: AtomicBool,
    requests: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    shed: AtomicU64,
}

impl Shared {
    fn live_replicas(&self) -> Vec<(usize, SocketAddr)> {
        let membership = self.membership.lock().unwrap();
        let mut live: Vec<(usize, SocketAddr)> = membership
            .addrs
            .iter()
            .map(|(&id, &addr)| (id, addr))
            .collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        live
    }

    /// Remove a replica that failed a forward. Idempotent — concurrent
    /// forwarders may both observe the same death.
    fn mark_dead(&self, id: usize) {
        let mut membership = self.membership.lock().unwrap();
        if membership.addrs.remove(&id).is_some() {
            membership.ring.remove(id);
            membership.dead.insert(id);
            self.failovers.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn refresh_metrics(&self) {
        let registry = self.obs.registry();
        let labels = [("instance", "router")];
        registry
            .gauge_with("fleet_router_live_replicas", &labels)
            .set(self.membership.lock().unwrap().addrs.len() as f64);
        registry
            .gauge_with("serve_queue_depth", &labels)
            .set(self.queue.len() as f64);
        for (name, total) in [
            ("serve_requests_total", self.requests.load(Ordering::SeqCst)),
            (
                "fleet_router_forwarded_total",
                self.forwarded.load(Ordering::SeqCst),
            ),
            (
                "fleet_router_failovers_total",
                self.failovers.load(Ordering::SeqCst),
            ),
            ("serve_shed_total", self.shed.load(Ordering::SeqCst)),
        ] {
            let counter = registry.counter_with(name, &labels);
            counter.inc_by(total.saturating_sub(counter.get()));
        }
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            shed: self.shed.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            ..ServeStats::default()
        }
    }

    fn error_response(
        &self,
        id: u64,
        name: String,
        code: ErrorCode,
        message: String,
        retry_after_ms: Option<u64>,
    ) -> WireResponse {
        WireResponse {
            id,
            name,
            cached: false,
            coalesced: false,
            attribution: None,
            result: WireResult::Error(ServeError {
                code,
                message,
                retry_after_ms,
            }),
        }
    }
}

fn fill_json(slot: &ResponseSlot, response: &WireResponse) {
    if let Ok(line) = serde_json::to_string(response) {
        slot.fill(line);
    }
}

struct RouterHandler {
    shared: Arc<Shared>,
}

impl LineHandler for RouterHandler {
    fn on_line(&self, line: &str, slot: ResponseSlot) {
        let shared = &self.shared;
        let received = Instant::now();
        let received_epoch = shared.obs.now_seconds();
        shared.requests.fetch_add(1, Ordering::SeqCst);
        let request: WireRequest = match serde_json::from_str(line) {
            Ok(request) => request,
            Err(e) => {
                fill_json(
                    &slot,
                    &shared.error_response(
                        0,
                        String::new(),
                        ErrorCode::BadRequest,
                        format!("unparseable request line: {e}"),
                        None,
                    ),
                );
                return;
            }
        };
        let (id, name) = (request.id, request.name.clone());
        let answer = |result: WireResult| {
            fill_json(
                &slot,
                &WireResponse {
                    id,
                    name: name.clone(),
                    cached: false,
                    coalesced: false,
                    attribution: None,
                    result,
                },
            );
        };
        let kind = match request.body {
            RequestBody::Ping => return answer(WireResult::Pong(PROTOCOL_VERSION)),
            RequestBody::Stats => return answer(WireResult::Stats(shared.stats())),
            RequestBody::Metrics => {
                shared.refresh_metrics();
                let text = shared.obs.registry().snapshot().to_prometheus();
                return answer(WireResult::Metrics(text));
            }
            RequestBody::MetricsPull => {
                shared.refresh_metrics();
                return answer(WireResult::MetricsState(shared.obs.registry().snapshot()));
            }
            RequestBody::SlowTracePull => {
                return answer(WireResult::SlowTraces(shared.slow.drain()))
            }
            RequestBody::SnapshotPull { .. } | RequestBody::GossipPush { .. } => {
                fill_json(
                    &slot,
                    &shared.error_response(
                        id,
                        name,
                        ErrorCode::BadRequest,
                        "the router holds no cache; address peer-protocol requests to a replica"
                            .to_string(),
                        None,
                    ),
                );
                return;
            }
            RequestBody::Plan(ref body) => {
                let Ok(model_json) = serde_json::to_string(&body.model) else {
                    fill_json(
                        &slot,
                        &shared.error_response(
                            id,
                            name,
                            ErrorCode::BadRequest,
                            "model does not serialize canonically".to_string(),
                            None,
                        ),
                    );
                    return;
                };
                let key = PlanKey {
                    model_json,
                    topology_fingerprint: body.topology.fingerprint(),
                    budget_bytes: body.budget_bytes,
                };
                let hash = plan_key_hash(&key);
                // Traced requests have the forwarded line re-stamped with
                // the router's `route_plan` context, so the replica's
                // serve_request span parents under the router and the
                // client sees one linked tree. Untraced requests keep the
                // raw-line relay — the v2 byte path is untouched.
                let trace = request
                    .trace
                    .as_ref()
                    .and_then(|wire| wire.context().map(|ctx| (ctx, wire.attribution)));
                match trace {
                    Some((client, want_attribution)) => {
                        let server = client.child("route_plan", 0);
                        let downstream = WireRequest {
                            id,
                            name: name.clone(),
                            trace: Some(WireTraceContext::from_context(server, want_attribution)),
                            body: RequestBody::Plan(body.clone()),
                        };
                        let line =
                            serde_json::to_string(&downstream).unwrap_or_else(|_| line.to_string());
                        JobKind::Forward {
                            line,
                            hash,
                            trace: Some(RouteTrace {
                                client,
                                server,
                                want_attribution,
                                received,
                                received_epoch,
                            }),
                        }
                    }
                    None => JobKind::Forward {
                        line: line.to_string(),
                        hash,
                        trace: None,
                    },
                }
            }
            RequestBody::FleetCheck(body) => JobKind::Broadcast { body },
        };
        let job = RouteJob {
            id,
            name: name.clone(),
            kind,
            slot: slot.clone(),
        };
        match shared.queue.try_push(job) {
            Ok(()) => {}
            Err(PushError::Full) => {
                shared.shed.fetch_add(1, Ordering::SeqCst);
                fill_json(
                    &slot,
                    &shared.error_response(
                        id,
                        name,
                        ErrorCode::Overloaded,
                        format!("router queue full (capacity {})", shared.queue.capacity()),
                        Some(50),
                    ),
                );
            }
            Err(PushError::Closed) => {
                fill_json(
                    &slot,
                    &shared.error_response(
                        id,
                        name,
                        ErrorCode::ShuttingDown,
                        "router is shutting down".to_string(),
                        Some(50),
                    ),
                );
            }
        }
    }

    fn on_http_get(&self, path: &str) -> (String, String, String) {
        let shared = &self.shared;
        match path {
            "/metrics" => {
                // Fleet federation: one scrape of the router answers for
                // the whole fleet — every live replica's deterministic
                // snapshot is pulled and merged under its instance label
                // next to the router's own series.
                shared.refresh_metrics();
                let mut parts: Vec<(String, MetricsSnapshot)> =
                    vec![("router".to_string(), shared.obs.registry().snapshot())];
                for (id, addr) in shared.live_replicas() {
                    // A failed scrape just omits that replica; scraping
                    // is not the failure detector.
                    if let Ok(snapshot) =
                        PlanClient::connect(addr).and_then(|mut c| c.metrics_pull())
                    {
                        parts.push((format!("replica-{id}"), snapshot));
                    }
                }
                (
                    "200 OK".to_string(),
                    "text/plain; version=0.0.4".to_string(),
                    MetricsSnapshot::merge_labelled(&parts).to_prometheus(),
                )
            }
            "/healthz" | "/health" => {
                let (live, dead, vnodes) = {
                    let membership = shared.membership.lock().unwrap();
                    (
                        membership.addrs.len(),
                        membership.dead.len(),
                        membership.ring.len() * membership.ring.vnodes_per_member(),
                    )
                };
                let draining = shared.stop.load(Ordering::SeqCst);
                let status = if draining {
                    "draining"
                } else if live == 0 {
                    "unavailable"
                } else {
                    "ok"
                };
                let code = if status == "ok" {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                let body = format!(
                    "{{\"status\":\"{status}\",\"instance\":\"router\",\"live\":{live},\
                     \"dead\":{dead},\"vnodes\":{vnodes}}}\n"
                );
                (code.to_string(), "application/json".to_string(), body)
            }
            "/trace/slow" => {
                // Merge the router's own ring with every live replica's,
                // slowest first, capped at the ring capacity.
                let mut entries = shared.slow.drain();
                for (_, addr) in shared.live_replicas() {
                    if let Ok(pulled) =
                        PlanClient::connect(addr).and_then(|mut c| c.slow_trace_pull())
                    {
                        entries.extend(pulled);
                    }
                }
                entries.sort_by(|a, b| {
                    b.total_seconds
                        .partial_cmp(&a.total_seconds)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.trace_id.cmp(&b.trace_id))
                });
                entries.truncate(SLOW_RING_CAPACITY);
                let body = serde_json::to_string(&entries).unwrap_or_else(|_| "[]".to_string());
                (
                    "200 OK".to_string(),
                    "application/json".to_string(),
                    format!("{body}\n"),
                )
            }
            _ => (
                "404 Not Found".to_string(),
                "text/plain".to_string(),
                format!("unknown path {path}; try /metrics, /healthz or /trace/slow\n"),
            ),
        }
    }
}

/// A forwarder thread: pooled connections to each replica, one request
/// relayed at a time.
fn forwarder_loop(shared: &Arc<Shared>) {
    let mut pool: HashMap<usize, PlanClient> = HashMap::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) && shared.queue.is_empty() {
            return;
        }
        let Some(job) = shared.queue.pop(TICK) else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            fill_json(
                &job.slot,
                &shared.error_response(
                    job.id,
                    job.name,
                    ErrorCode::ShuttingDown,
                    "router is shutting down".to_string(),
                    Some(50),
                ),
            );
            continue;
        }
        match job.kind {
            JobKind::Forward { line, hash, trace } => {
                forward(
                    shared,
                    &mut pool,
                    job.id,
                    job.name,
                    &line,
                    hash,
                    trace.as_ref(),
                    &job.slot,
                );
            }
            JobKind::Broadcast { body } => {
                broadcast(shared, &mut pool, job.id, job.name, body, &job.slot);
            }
        }
    }
}

/// Relay `line` to the owner of `hash`; on failure mark the owner dead and
/// retry against the next — consistent hashing guarantees the retry lands
/// on the replica that inherited the key (and, with gossip, its warm
/// answer).
#[allow(clippy::too_many_arguments)]
fn forward(
    shared: &Arc<Shared>,
    pool: &mut HashMap<usize, PlanClient>,
    id: u64,
    name: String,
    line: &str,
    hash: u64,
    trace: Option<&RouteTrace>,
    slot: &ResponseSlot,
) {
    // Each live replica gets at most one (reconnect-included) try per
    // request; when all are gone the client hears `Unavailable`.
    loop {
        let target = {
            let membership = shared.membership.lock().unwrap();
            membership
                .ring
                .route_hash(hash)
                .and_then(|owner| membership.addrs.get(&owner).map(|&addr| (owner, addr)))
        };
        let Some((owner, addr)) = target else {
            fill_json(
                slot,
                &shared.error_response(
                    id,
                    name,
                    ErrorCode::Unavailable,
                    "no live replica to forward to".to_string(),
                    Some(UNAVAILABLE_RETRY_MS),
                ),
            );
            return;
        };
        match relay_once(pool, owner, addr, line) {
            Ok(response) => {
                shared.forwarded.fetch_add(1, Ordering::SeqCst);
                let response = match trace {
                    Some(t) => finish_traced_forward(shared, t, response),
                    None => response,
                };
                slot.fill(response);
                return;
            }
            Err(_) => {
                shared.mark_dead(owner);
                // Loop: the ring now routes `hash` to the next owner.
            }
        }
    }
}

/// Close out a traced forward: record the router's `route_plan` span and,
/// when the client asked for attribution, append the `relay_hop` slice
/// (router wall time minus the replica's total — queueing, forwarding and
/// any failover) to the replica's record and lift the total to the
/// router-observed wall time.
fn finish_traced_forward(shared: &Arc<Shared>, trace: &RouteTrace, response: String) -> String {
    // Attribution rides the parsed envelope, so parse first: the parse is
    // router work and belongs inside the router-observed wall time. A
    // response that does not parse (or carries no record) is relayed
    // untouched.
    let parsed = trace
        .want_attribution
        .then(|| serde_json::from_str::<WireResponse>(&response).ok())
        .flatten();
    let total = trace.received.elapsed().as_secs_f64();
    let mut fields = link_fields(&SpanLink {
        trace_id: trace.server.trace_id,
        span_id: trace.server.span_id,
        parent_span_id: trace.client.span_id,
    });
    fields.push(("instance".to_string(), "router".into()));
    let route_span = galvatron_obs::SpanRecord {
        name: "route_plan".to_string(),
        start_seconds: trace.received_epoch,
        duration_seconds: total,
        fields,
    };
    shared.obs.sink().record(route_span.clone());
    let Some(mut parsed) = parsed else {
        return response;
    };
    let Some(mut attr) = parsed.attribution.take() else {
        return response;
    };
    let relay_hop = (total - attr.total_seconds).max(0.0);
    attr.push_phase(PHASE_RELAY_HOP, relay_hop);
    attr.total_seconds = total;
    shared
        .obs
        .registry()
        .wall_histogram_with(
            "serve_phase_seconds",
            &[("instance", "router"), ("phase", PHASE_RELAY_HOP)],
        )
        .observe(relay_hop);
    // The relay slice as its own linked span, so span dumps attribute
    // every phase — the replica's sink holds the serving phases, this is
    // the one only the router can measure.
    let mut relay_fields = link_fields(&SpanLink {
        trace_id: trace.server.trace_id,
        span_id: child_span_id(
            trace.server.trace_id,
            trace.server.span_id,
            PHASE_RELAY_HOP,
            0,
        ),
        parent_span_id: trace.server.span_id,
    });
    relay_fields.push(("instance".to_string(), "router".into()));
    shared.obs.sink().record(galvatron_obs::SpanRecord {
        name: PHASE_RELAY_HOP.to_string(),
        start_seconds: trace.received_epoch,
        duration_seconds: relay_hop,
        fields: relay_fields,
    });
    let mut spans = vec![route_span];
    spans.extend(attr.to_spans(
        "serve_request",
        &trace.server.span_id.to_hex(),
        trace.received_epoch,
    ));
    shared.slow.offer(SlowTraceEntry {
        trace_id: attr.trace_id.clone(),
        name: "route_plan".to_string(),
        instance: "router".to_string(),
        total_seconds: attr.total_seconds,
        spans,
    });
    parsed.attribution = Some(attr);
    serde_json::to_string(&parsed).unwrap_or(response)
}

/// One relay attempt against a specific replica, reconnecting once in case
/// the pooled connection went stale across a replica restart.
fn relay_once(
    pool: &mut HashMap<usize, PlanClient>,
    owner: usize,
    addr: SocketAddr,
    line: &str,
) -> std::io::Result<String> {
    for attempt in 0..2 {
        let client = match pool.entry(owner) {
            std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(PlanClient::connect(addr)?)
            }
        };
        match client.round_trip_raw(line) {
            Ok(response) => return Ok(response),
            Err(e) => {
                pool.remove(&owner);
                if attempt == 1 {
                    return Err(e);
                }
            }
        }
    }
    unreachable!("relay_once returns within two attempts")
}

/// `FleetCheck`: ask every live replica the same plan question and compare
/// the serialized `result` payloads byte-for-byte.
fn broadcast(
    shared: &Arc<Shared>,
    pool: &mut HashMap<usize, PlanClient>,
    id: u64,
    name: String,
    body: PlanBody,
    slot: &ResponseSlot,
) {
    let request = WireRequest {
        id,
        name: name.clone(),
        trace: None,
        body: RequestBody::Plan(body),
    };
    let Ok(line) = serde_json::to_string(&request) else {
        fill_json(
            slot,
            &shared.error_response(
                id,
                name,
                ErrorCode::BadRequest,
                "request does not serialize".to_string(),
                None,
            ),
        );
        return;
    };
    let mut payloads: Vec<String> = Vec::new();
    for (replica_id, addr) in shared.live_replicas() {
        match relay_once(pool, replica_id, addr, &line) {
            Ok(response) => match serde_json::from_str::<WireResponse>(&response) {
                Ok(parsed) => {
                    if let Ok(payload) = serde_json::to_string(&parsed.result) {
                        payloads.push(payload);
                    }
                }
                Err(_) => shared.mark_dead(replica_id),
            },
            Err(_) => shared.mark_dead(replica_id),
        }
    }
    if payloads.is_empty() {
        fill_json(
            slot,
            &shared.error_response(
                id,
                name,
                ErrorCode::Unavailable,
                "no live replica answered the fleet check".to_string(),
                Some(UNAVAILABLE_RETRY_MS),
            ),
        );
        return;
    }
    let byte_identical = payloads.iter().all(|p| p == &payloads[0]);
    fill_json(
        slot,
        &WireResponse {
            id,
            name,
            cached: false,
            coalesced: false,
            attribution: None,
            result: WireResult::Fleet(FleetCheckReport {
                replicas: payloads.len(),
                byte_identical,
                answer_json: payloads.swap_remove(0),
            }),
        },
    );
}

/// The router constructor.
pub struct FleetRouter;

/// Handle to a running router.
pub struct RouterHandle {
    shared: Arc<Shared>,
    event: Option<EventLoopHandle>,
    forwarders: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl FleetRouter {
    /// Bind and start the event loop and forwarder pool.
    pub fn start(config: RouterConfig, obs: Obs) -> std::io::Result<RouterHandle> {
        let ids: Vec<usize> = config.replicas.iter().map(|&(id, _)| id).collect();
        let shared = Arc::new(Shared {
            membership: Mutex::new(Membership {
                ring: HashRing::with_members(&ids),
                addrs: config.replicas.iter().copied().collect(),
                dead: BTreeSet::new(),
            }),
            queue: BoundedQueue::new(config.queue_capacity),
            obs,
            slow: SlowRing::new(SLOW_RING_CAPACITY),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });
        let event = spawn_event_loop(
            &config.addr,
            Arc::new(RouterHandler {
                shared: Arc::clone(&shared),
            }),
            EventLoopConfig {
                max_connections: config.max_connections,
            },
        )?;
        let addr = event.addr();
        let forwarders = (0..config.forwarders.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || forwarder_loop(&shared))
            })
            .collect();
        Ok(RouterHandle {
            shared,
            event: Some(event),
            forwarders,
            addr,
        })
    }
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ids of replicas currently considered live.
    pub fn live_replicas(&self) -> Vec<usize> {
        self.shared
            .live_replicas()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Requests that failed over to another replica after an owner death.
    pub fn failovers(&self) -> u64 {
        self.shared.failovers.load(Ordering::SeqCst)
    }

    /// Add (or re-add) a replica to the ring — e.g. one that just
    /// warm-joined the fleet.
    pub fn add_replica(&self, id: usize, addr: SocketAddr) {
        let mut membership = self.shared.membership.lock().unwrap();
        membership.ring.add(id);
        membership.addrs.insert(id, addr);
        membership.dead.remove(&id);
    }

    /// Remove a replica administratively (planned drain, as opposed to the
    /// failure-driven removal forwarders do on their own).
    pub fn remove_replica(&self, id: usize) {
        self.shared.mark_dead(id);
    }

    /// Stop accepting, answer queued requests with `ShuttingDown`, join
    /// every thread.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for forwarder in self.forwarders.drain(..) {
            let _ = forwarder.join();
        }
        while let Some(job) = self.shared.queue.pop(Duration::ZERO) {
            fill_json(
                &job.slot,
                &self.shared.error_response(
                    job.id,
                    job.name,
                    ErrorCode::ShuttingDown,
                    "router is shutting down".to_string(),
                    Some(50),
                ),
            );
        }
        if let Some(event) = self.event.take() {
            event.stop_and_join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }
}
