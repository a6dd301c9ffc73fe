//! The plan server: one replica of the fleet, or on its own the
//! `galvatron-served` daemon (a fleet of one, with no peers and no gossip).
//!
//! ```text
//! event loop ── parse line → inline answers (ping/metrics/stats/...)
//!     │  plan: validate → cache → waiter table → bounded queue
//!     │                     hit ⇒ answer   │ follower ⇒ park │ full ⇒ shed
//!     ▼                                    ▼                 ▼
//! ResponseSlot ◀── fill every waiter ── workers ── queue.pop
//!                                          │ PlanService::submit
//!                                          ▼
//!                              cache.insert (+ gossip to ring successors)
//! ```
//!
//! The connection layer is the [`event`](crate::event) loop, so one
//! replica fronts thousands of mostly-idle connections without a thread
//! each. Admission never blocks that loop: each plan request records a
//! **waiter** (`ResponseSlot` + envelope fields) and the worker that
//! finishes the computation fills every waiter's slot. Single-flight falls
//! out of the waiter table — the first waiter for a key enqueues the job,
//! later ones just append — so a herd of `N` identical requests costs one
//! queue slot and one computation. A cache hit or a coalesced follower
//! never consumes a queue slot; when the queue is full the leader and its
//! followers are refused at once with `Overloaded` and a `retry_after_ms`
//! hint, so capacity `Q` means at most `Q` queued computations, always.
//! A planner panic is caught in the worker and answered as `PlannerError`.
//!
//! Every stage is measured through [`galvatron-obs`](galvatron_obs)
//! (`serve_*` metrics with an `instance` label, a span tree per traced
//! request, the `/trace/slow` ring), and `GET /metrics` / `GET /healthz`
//! answer on the serving port. With `persist_path` set, the response cache
//! is loaded at start and written back at shutdown (warm restarts).
//!
//! On top of serving, a replica participates in the fleet's cache fabric:
//!
//! * **Gossip** — each freshly computed stable answer is pushed
//!   (best-effort, off the worker's critical path) to the key's ring
//!   successors, which are exactly the replicas the keyspace would fail
//!   over to, so a replica death mostly hits warm caches.
//! * **Warm-join** — [`ReplicaHandle::warm_join`] pulls a peer's hottest
//!   cache entries (`SnapshotPull`) before taking traffic, replacing cold
//!   DP runs with imports.

use crate::event::{spawn_event_loop, EventLoopConfig, EventLoopHandle, LineHandler, ResponseSlot};
use crate::ring::{plan_key_hash, HashRing};
use galvatron_obs::trace::{
    link_fields, PHASE_CACHE_LOOKUP, PHASE_DP_COMPUTE, PHASE_FLIGHT_WAIT, PHASE_QUEUE_WAIT,
    PHASE_SERIALIZE,
};
use galvatron_obs::{
    AttributionRecord, Obs, SlowRing, SlowTraceEntry, SpanLink, TraceContext, TraceScope,
};
use galvatron_planner::{PlanRequest, PlanService, PlannerConfig};
use galvatron_serve::{
    BoundedQueue, CacheEntry, ErrorCode, PlanBody, PlanClient, PlanKey, PushError, RequestBody,
    ResponseCache, ServeError, ServeStats, WireRequest, WireResponse, WireResult, WireTraceContext,
    PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_millis(100);
const RETRY_AFTER_MS: u64 = 50;
/// K-slowest traced requests kept for `/trace/slow`.
const SLOW_RING_CAPACITY: usize = 32;
/// How long a fresh answer waits before it is gossiped. A push costs a
/// serialization here and a parse on the peer; waiting lets the answer
/// reach its own client first instead of competing with its replication
/// for the CPU.
const GOSSIP_DELAY: Duration = Duration::from_millis(5);

/// Replica configuration.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's fleet-wide id (its position on the hash ring).
    pub id: usize,
    /// Bind address; `127.0.0.1:0` picks a free loopback port.
    pub addr: String,
    /// Worker threads computing plans (minimum 1).
    pub workers: usize,
    /// Bounded queue capacity; leaders beyond it are shed.
    pub queue_capacity: usize,
    /// Response-cache byte budget.
    pub cache_max_bytes: u64,
    /// The planner served.
    pub planner: PlannerConfig,
    /// How many ring successors each freshly computed answer is gossiped
    /// to. 0 disables gossip.
    pub gossip_fanout: usize,
    /// Hard cap on concurrently open connections.
    pub max_connections: usize,
    /// When set, the response cache is loaded from this file at start and
    /// written back at shutdown (warm restarts). Snapshots written under a
    /// different planner config are ignored.
    pub persist_path: Option<PathBuf>,
    /// The `instance` label on every metric and in `/healthz`;
    /// `replica-<id>` when unset.
    pub instance: Option<String>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            id: 0,
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 64,
            cache_max_bytes: 16 << 20,
            planner: PlannerConfig::default(),
            gossip_fanout: 1,
            max_connections: 16_384,
            persist_path: None,
            instance: None,
        }
    }
}

/// Per-waiter trace state: everything needed to attribute the waiter's
/// latency once the flight it parked on resolves.
struct WaiterTrace {
    /// The client's trace position (the parent of this replica's
    /// `serve_request` span).
    client: TraceContext,
    /// This replica's `serve_request` context for the waiter.
    server: TraceContext,
    /// Whether the client opted in to an [`AttributionRecord`] on the
    /// response envelope.
    want_attribution: bool,
    /// When the request line was admitted.
    arrival: Instant,
    /// `arrival` on the obs epoch clock (span-record time base).
    arrival_epoch: f64,
    /// Wall seconds the response-cache probe took.
    cache_lookup_seconds: f64,
}

/// One request waiting for a computation to finish.
struct Waiter {
    id: u64,
    name: String,
    coalesced: bool,
    slot: ResponseSlot,
    trace: Option<WaiterTrace>,
}

/// One queued computation.
struct Job {
    key: PlanKey,
    body: PlanBody,
    name: String,
    /// The leader's `serve_request` context; the worker's `dp_compute`
    /// span parents under it.
    trace: Option<TraceContext>,
    enqueued: Instant,
}

/// Timing of the computation that resolved a flight, shared by every
/// waiter registered on the key.
#[derive(Default)]
struct FlightTiming {
    queue_wait_seconds: f64,
    compute_seconds: f64,
    compute_span_id: Option<String>,
}

/// Fleet membership as this replica sees it.
struct PeerTable {
    ring: HashRing,
    addrs: HashMap<usize, SocketAddr>,
}

/// A cache entry queued for gossip, with the trace context (if any) of
/// the request that computed it so the push is linked into its tree, and
/// when it was offered.
type GossipItem = (CacheEntry, Option<TraceContext>, Instant);

struct Shared {
    id: usize,
    instance: String,
    /// The optimizer config's Debug form: gates persisted snapshots. Only
    /// the optimizer config can change an answer; the planner's worker
    /// count and pruning switch cannot, so restarting with a different
    /// setting of those keeps a valid snapshot.
    config_fingerprint: String,
    service: PlanService,
    cache: ResponseCache,
    waiters: Mutex<HashMap<PlanKey, Vec<Waiter>>>,
    queue: BoundedQueue<Job>,
    peers: Mutex<PeerTable>,
    gossip_tx: Mutex<Option<mpsc::Sender<GossipItem>>>,
    obs: Obs,
    slow: SlowRing,
    stop: AtomicBool,
    requests: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    computed: AtomicU64,
    panics: AtomicU64,
    gossip_sent: AtomicU64,
    gossip_accepted: AtomicU64,
    warm_join_imported: AtomicU64,
    /// Live-connection count, wired up from the event loop after spawn.
    connections: OnceLock<Arc<std::sync::atomic::AtomicUsize>>,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let cache = self.cache.stats();
        ServeStats {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            paused: self.queue.is_paused(),
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            coalesced: self.coalesced.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            computed: self.computed.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
        }
    }

    /// Push the internal tallies into the metrics registry (counters only
    /// move forward, so each is topped up to its cumulative count). Every
    /// series carries the `instance` label, so one Prometheus dashboard
    /// covers a daemon and every replica of a fleet.
    fn refresh_metrics(&self) {
        let registry = self.obs.registry();
        let labels = [("instance", self.instance.as_str())];
        let stats = self.stats();
        registry
            .gauge_with("serve_queue_depth", &labels)
            .set(stats.queue_depth as f64);
        registry
            .gauge_with("serve_cache_entries", &labels)
            .set(stats.cache_entries as f64);
        registry
            .gauge_with("serve_cache_bytes", &labels)
            .set(stats.cache_bytes as f64);
        if let Some(connections) = self.connections.get() {
            registry
                .gauge_with("fleet_connections", &labels)
                .set(connections.load(Ordering::SeqCst) as f64);
        }
        for (name, total) in [
            ("serve_requests_total", stats.requests),
            ("serve_coalesced_total", stats.coalesced),
            ("serve_shed_total", stats.shed),
            ("serve_computed_total", stats.computed),
            ("serve_cache_hits_total", stats.cache_hits),
            ("serve_cache_misses_total", stats.cache_misses),
            ("serve_cache_evictions_total", stats.cache_evictions),
            (
                "serve_planner_panics_total",
                self.panics.load(Ordering::SeqCst),
            ),
            (
                "fleet_gossip_sent_total",
                self.gossip_sent.load(Ordering::SeqCst),
            ),
            (
                "serve_gossip_accepted_total",
                self.gossip_accepted.load(Ordering::SeqCst),
            ),
            (
                "fleet_warm_join_imported_total",
                self.warm_join_imported.load(Ordering::SeqCst),
            ),
        ] {
            let counter = registry.counter_with(name, &labels);
            counter.inc_by(total.saturating_sub(counter.get()));
        }
    }

    fn shutting_down(&self) -> WireResult {
        WireResult::Error(ServeError {
            code: ErrorCode::ShuttingDown,
            message: "replica is shutting down".to_string(),
            retry_after_ms: Some(RETRY_AFTER_MS),
        })
    }

    /// Fill every waiter registered for `key` with `result` and drop the
    /// entry. The waiter list is the replica's single-flight: exactly one
    /// resolver wins the `remove`. Traced waiters are attributed and
    /// their `serve_request` span trees recorded here.
    fn resolve_waiters(&self, key: &PlanKey, result: &WireResult, timing: Option<&FlightTiming>) {
        let waiters = self.waiters.lock().unwrap().remove(key);
        for waiter in waiters.into_iter().flatten() {
            let attribution = waiter.trace.as_ref().and_then(|trace| {
                let attr = self.attribute(trace, waiter.coalesced, timing, result);
                trace.want_attribution.then_some(attr)
            });
            fill(
                &waiter.slot,
                WireResponse {
                    id: waiter.id,
                    name: waiter.name,
                    cached: false,
                    coalesced: waiter.coalesced,
                    attribution,
                    result: result.clone(),
                },
            );
        }
    }

    /// Build the latency attribution for one traced waiter, record its
    /// phase histograms and `serve_request` span tree, and offer the tree
    /// to the slow ring. Phase semantics: leaders own the queue and
    /// compute slices; coalesced followers (and cache hits) spent their
    /// whole wait parked on someone else's flight, so the residual lands
    /// in `flight_wait`. Phases sum to `total_seconds` by construction
    /// (up to the negative-residual clamp).
    fn attribute(
        &self,
        trace: &WaiterTrace,
        coalesced: bool,
        timing: Option<&FlightTiming>,
        result: &WireResult,
    ) -> AttributionRecord {
        let mut attr = AttributionRecord::new(
            &trace.server.trace_id.to_hex(),
            &trace.server.span_id.to_hex(),
            &self.instance,
        );
        let (queue_wait, compute) = match timing {
            Some(t) if !coalesced => (t.queue_wait_seconds, t.compute_seconds),
            _ => (0.0, 0.0),
        };
        attr.compute_span_id = timing.and_then(|t| t.compute_span_id.clone());
        let serialize_started = Instant::now();
        let _ = serde_json::to_string(result);
        let serialize = serialize_started.elapsed().as_secs_f64();
        let total = trace.arrival.elapsed().as_secs_f64();
        let flight_wait = total - trace.cache_lookup_seconds - queue_wait - compute - serialize;
        attr.push_phase(PHASE_CACHE_LOOKUP, trace.cache_lookup_seconds);
        attr.push_phase(PHASE_QUEUE_WAIT, queue_wait);
        attr.push_phase(PHASE_FLIGHT_WAIT, flight_wait);
        attr.push_phase(PHASE_DP_COMPUTE, compute);
        attr.push_phase(PHASE_SERIALIZE, serialize);
        attr.total_seconds = total;
        let registry = self.obs.registry();
        for phase in &attr.phases {
            registry
                .wall_histogram_with(
                    "serve_phase_seconds",
                    &[
                        ("instance", self.instance.as_str()),
                        ("phase", phase.phase.as_str()),
                    ],
                )
                .observe(phase.seconds);
        }
        let spans = attr.to_spans(
            "serve_request",
            &trace.client.span_id.to_hex(),
            trace.arrival_epoch,
        );
        for span in &spans {
            self.obs.sink().record(span.clone());
        }
        self.slow.offer(SlowTraceEntry {
            trace_id: attr.trace_id.clone(),
            name: "serve_request".to_string(),
            instance: self.instance.clone(),
            total_seconds: attr.total_seconds,
            spans,
        });
        attr
    }

    /// Hand a freshly computed stable answer to the gossip thread
    /// (best-effort; never blocks the worker). The leader's trace context
    /// rides along so the push shows up in the request's span tree.
    fn offer_gossip(&self, key: &PlanKey, result: &WireResult, trace: Option<TraceContext>) {
        if let Some(tx) = self.gossip_tx.lock().unwrap().as_ref() {
            let _ = tx.send((
                CacheEntry {
                    key: key.clone(),
                    result: result.clone(),
                },
                trace,
                Instant::now(),
            ));
        }
    }
}

/// An envelope for an answer that never waited on a computation.
fn direct(id: u64, name: String, result: WireResult) -> WireResponse {
    WireResponse {
        id,
        name,
        cached: false,
        coalesced: false,
        attribution: None,
        result,
    }
}

/// An error answer without a retry hint.
fn no_retry(code: ErrorCode, message: String) -> WireResult {
    WireResult::Error(ServeError {
        code,
        message,
        retry_after_ms: None,
    })
}

fn fill(slot: &ResponseSlot, response: WireResponse) {
    match serde_json::to_string(&response) {
        Ok(line) => slot.fill(line),
        // Unserializable responses cannot happen for our own types; emit
        // a hand-built error rather than leaving the slot hanging.
        Err(_) => slot.fill(
            "{\"id\":0,\"name\":\"\",\"result\":{\"Error\":{\"code\":\"PlannerError\",\
             \"message\":\"response serialization failed\",\"retry_after_ms\":null}}}"
                .to_string(),
        ),
    }
}

struct ReplicaHandler {
    shared: Arc<Shared>,
}

impl LineHandler for ReplicaHandler {
    fn on_line(&self, line: &str, slot: ResponseSlot) {
        let shared = &self.shared;
        shared.requests.fetch_add(1, Ordering::SeqCst);
        let request: WireRequest = match serde_json::from_str(line) {
            Ok(request) => request,
            Err(e) => {
                let message = format!("unparseable request line: {e}");
                return fill(
                    &slot,
                    direct(0, String::new(), no_retry(ErrorCode::BadRequest, message)),
                );
            }
        };
        let (id, name) = (request.id, request.name.clone());
        // Malformed hex degrades to an untraced request rather than an
        // error: tracing must never break serving.
        let trace = request
            .trace
            .as_ref()
            .and_then(|wire| wire.context().map(|ctx| (ctx, wire.attribution)));
        let inline = |result: WireResult| fill(&slot, direct(id, name.clone(), result));
        match request.body {
            RequestBody::Ping => inline(WireResult::Pong(PROTOCOL_VERSION)),
            RequestBody::Stats => inline(WireResult::Stats(shared.stats())),
            RequestBody::Metrics => {
                shared.refresh_metrics();
                inline(WireResult::Metrics(
                    shared.obs.registry().snapshot().to_prometheus(),
                ));
            }
            RequestBody::MetricsPull => {
                shared.refresh_metrics();
                inline(WireResult::MetricsState(shared.obs.registry().snapshot()));
            }
            RequestBody::SlowTracePull => inline(WireResult::SlowTraces(shared.slow.drain())),
            RequestBody::SnapshotPull { max_entries } => {
                let serve_started = Instant::now();
                let serve_epoch = shared.obs.now_seconds();
                let entries: Vec<CacheEntry> = shared
                    .cache
                    .export_recent(max_entries)
                    .into_iter()
                    .map(|(key, result)| CacheEntry { key, result })
                    .collect();
                // A traced pull (warm-join) gets a `snapshot_serve` span
                // parented under the puller's `snapshot_pull` context, so
                // cache warming shows up in the joiner's trace tree.
                if let Some((ctx, _)) = trace {
                    let child = ctx.child("snapshot_serve", 0);
                    let mut fields = link_fields(&SpanLink {
                        trace_id: ctx.trace_id,
                        span_id: child.span_id,
                        parent_span_id: ctx.span_id,
                    });
                    fields.push(("instance".to_string(), shared.instance.clone().into()));
                    fields.push(("entries".to_string(), (entries.len() as u64).into()));
                    shared.obs.record_span(
                        "snapshot_serve",
                        serve_epoch,
                        serve_started.elapsed().as_secs_f64(),
                        fields,
                    );
                }
                inline(WireResult::Snapshot(entries));
            }
            RequestBody::GossipPush { entries } => {
                let receive_started = Instant::now();
                let receive_epoch = shared.obs.now_seconds();
                let accepted = shared.cache.import(
                    entries
                        .into_iter()
                        .map(|entry| (entry.key, entry.result))
                        .collect(),
                );
                shared
                    .gossip_accepted
                    .fetch_add(accepted as u64, Ordering::SeqCst);
                // A traced push gets a `gossip_receive` span parented
                // under the sender's `gossip_push` context, so the warm
                // fan-out shows up in the originating request's tree.
                if let Some((ctx, _)) = trace {
                    let child = ctx.child("gossip_receive", 0);
                    let mut fields = link_fields(&SpanLink {
                        trace_id: ctx.trace_id,
                        span_id: child.span_id,
                        parent_span_id: ctx.span_id,
                    });
                    fields.push(("instance".to_string(), shared.instance.clone().into()));
                    fields.push(("accepted".to_string(), (accepted as u64).into()));
                    shared.obs.record_span(
                        "gossip_receive",
                        receive_epoch,
                        receive_started.elapsed().as_secs_f64(),
                        fields,
                    );
                }
                inline(WireResult::Ack(accepted as u64));
            }
            RequestBody::FleetCheck(_) => inline(no_retry(
                ErrorCode::BadRequest,
                "FleetCheck requires a fleet router; this is a replica".to_string(),
            )),
            RequestBody::Plan(body) => handle_plan(shared, body, id, name, trace, slot),
        }
    }

    fn on_http_get(&self, path: &str) -> (String, String, String) {
        let shared = &self.shared;
        match path {
            "/metrics" => {
                shared.refresh_metrics();
                (
                    "200 OK".to_string(),
                    "text/plain; version=0.0.4".to_string(),
                    shared.obs.registry().snapshot().to_prometheus(),
                )
            }
            "/healthz" | "/health" => {
                let (ring_members, peers_known, vnodes) = {
                    let peers = shared.peers.lock().unwrap();
                    (
                        peers.ring.len(),
                        peers.addrs.len(),
                        peers.ring.vnodes_per_member(),
                    )
                };
                let draining = shared.stop.load(Ordering::SeqCst);
                let status = if draining { "draining" } else { "ok" };
                let body = format!(
                    "{{\"status\":\"{status}\",\"instance\":\"{}\",\"ring_members\":{ring_members},\
                     \"peers\":{peers_known},\"vnodes\":{vnodes}}}\n",
                    shared.instance
                );
                let code = if draining {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                };
                (code.to_string(), "application/json".to_string(), body)
            }
            "/trace/slow" => {
                let entries = shared.slow.drain();
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

/// The plan path: validate → cache → waiter list (coalesce or lead) →
/// queue (or shed). Never blocks — the event loop is calling.
fn handle_plan(
    shared: &Arc<Shared>,
    body: PlanBody,
    id: u64,
    name: String,
    trace: Option<(TraceContext, bool)>,
    slot: ResponseSlot,
) {
    let arrival = Instant::now();
    let arrival_epoch = shared.obs.now_seconds();
    let mut wtrace = trace.map(|(client, want_attribution)| WaiterTrace {
        client,
        server: client.child("serve_request", 0),
        want_attribution,
        arrival,
        arrival_epoch,
        cache_lookup_seconds: 0.0,
    });
    let reply = |result: WireResult| fill(&slot, direct(id, name.clone(), result));
    if shared.stop.load(Ordering::SeqCst) {
        return reply(shared.shutting_down());
    }
    if let Err(e) = body.topology.validate() {
        let message = format!("invalid topology: {e}");
        return reply(no_retry(ErrorCode::InvalidTopology, message));
    }
    let Ok(model_json) = serde_json::to_string(&body.model) else {
        let message = "model does not serialize canonically".to_string();
        return reply(no_retry(ErrorCode::BadRequest, message));
    };
    let key = PlanKey {
        model_json,
        topology_fingerprint: body.topology.fingerprint(),
        budget_bytes: body.budget_bytes,
    };
    let lookup_started = Instant::now();
    let cached_result = shared.cache.get(&key);
    if let Some(t) = wtrace.as_mut() {
        t.cache_lookup_seconds = lookup_started.elapsed().as_secs_f64();
    }
    if let Some(result) = cached_result {
        let attribution = wtrace.as_ref().and_then(|t| {
            let attr = shared.attribute(t, false, None, &result);
            t.want_attribution.then_some(attr)
        });
        fill(
            &slot,
            WireResponse {
                id,
                name,
                cached: true,
                coalesced: false,
                attribution,
                result,
            },
        );
        return;
    }
    // The leader's serve_request context becomes the job's trace: the
    // worker's dp_compute span (and the planner spans under it) parent
    // there, while coalesced followers link in via `compute_span_id`.
    let job_trace = wtrace.as_ref().map(|t| t.server);
    // Single flight via the waiter table: the first waiter for a key is
    // the leader and enqueues; later arrivals coalesce by appending.
    let is_leader = {
        let mut waiters = shared.waiters.lock().unwrap();
        match waiters.get_mut(&key) {
            Some(list) => {
                shared.coalesced.fetch_add(1, Ordering::SeqCst);
                list.push(Waiter {
                    id,
                    name: name.clone(),
                    coalesced: true,
                    slot,
                    trace: wtrace,
                });
                false
            }
            None => {
                waiters.insert(
                    key.clone(),
                    vec![Waiter {
                        id,
                        name: name.clone(),
                        coalesced: false,
                        slot,
                        trace: wtrace,
                    }],
                );
                true
            }
        }
    };
    if !is_leader {
        return;
    }
    let job = Job {
        key: key.clone(),
        body,
        name,
        trace: job_trace,
        enqueued: Instant::now(),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.shed.fetch_add(1, Ordering::SeqCst);
            let result = WireResult::Error(ServeError {
                code: ErrorCode::Overloaded,
                message: format!("request queue full (capacity {})", shared.queue.capacity()),
                retry_after_ms: Some(RETRY_AFTER_MS),
            });
            // Sheds the leader and anyone who coalesced meanwhile.
            shared.resolve_waiters(&key, &result, None);
        }
        Err(PushError::Closed) => {
            let result = shared.shutting_down();
            shared.resolve_waiters(&key, &result, None);
        }
    }
}

/// A worker: pop, compute once, publish to cache + waiters + gossip.
///
/// Drain semantics: a job popped before the stop flag rose is in flight
/// and completes normally; jobs popped after it are answered with a
/// retryable `ShuttingDown` — never a dropped socket, and never a
/// minutes-long DP run between the operator and the restart.
fn worker_loop(shared: &Arc<Shared>) {
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
        let queue_wait_seconds = job.enqueued.elapsed().as_secs_f64();
        if shared.stop.load(Ordering::SeqCst) {
            shared.resolve_waiters(&job.key, &shared.shutting_down(), None);
            continue;
        }
        let (result, timing) = match shared.cache.get(&job.key) {
            Some(result) => (
                result,
                FlightTiming {
                    queue_wait_seconds,
                    ..FlightTiming::default()
                },
            ),
            None => {
                // The dp_compute span parents under the leader's
                // serve_request context; the planner's own spans (opened
                // on this thread) parent under dp_compute in turn.
                let leader_scope = job.trace.map(TraceScope::enter);
                let compute_span = shared.obs.span("dp_compute");
                let compute_ctx = compute_span.trace_context();
                let compute_started = Instant::now();
                let (result, cacheable) = {
                    let _compute_scope = compute_ctx.map(TraceScope::enter);
                    compute(shared, &job)
                };
                let compute_seconds = compute_started.elapsed().as_secs_f64();
                compute_span.finish();
                drop(leader_scope);
                if cacheable {
                    shared.cache.insert(job.key.clone(), result.clone());
                    shared.offer_gossip(&job.key, &result, job.trace);
                }
                (
                    result,
                    FlightTiming {
                        queue_wait_seconds,
                        compute_seconds,
                        compute_span_id: compute_ctx.map(|c| c.span_id.to_hex()),
                    },
                )
            }
        };
        shared.resolve_waiters(&job.key, &result, Some(&timing));
        shared.refresh_metrics();
    }
}

/// Run the plan service. Returns the stable answer and whether it is
/// deterministic (plans and infeasibility verdicts are; planner errors
/// are not and must not be cached). A panic inside the planner becomes a
/// `PlannerError` for this key's waiters and leaves the worker running.
fn compute(shared: &Arc<Shared>, job: &Job) -> (WireResult, bool) {
    shared.computed.fetch_add(1, Ordering::SeqCst);
    let request = PlanRequest {
        name: job.name.clone(),
        model: job.body.model.clone(),
        topology: job.body.topology.clone(),
        budget_bytes: job.body.budget_bytes,
    };
    let Ok(submitted) = catch_unwind(AssertUnwindSafe(|| shared.service.submit(&request))) else {
        shared.panics.fetch_add(1, Ordering::SeqCst);
        return (
            no_retry(
                ErrorCode::PlannerError,
                "planner panicked on this request".to_string(),
            ),
            false,
        );
    };
    match submitted {
        Ok(response) => match response.outcome {
            Some(outcome) => (WireResult::Plan(outcome.into()), true),
            None => (
                no_retry(
                    ErrorCode::Infeasible,
                    format!(
                        "no parallel configuration fits {} bytes per device",
                        job.body.budget_bytes
                    ),
                ),
                true,
            ),
        },
        Err(e) => (
            no_retry(ErrorCode::PlannerError, format!("planner error: {e}")),
            false,
        ),
    }
}

/// Push gossiped entries to their ring successors. Runs on its own thread
/// with its own peer connections; any failure just drops that push —
/// gossip is an optimization, correctness never depends on it.
fn gossip_loop(shared: &Arc<Shared>, rx: mpsc::Receiver<GossipItem>, fanout: usize) {
    let mut conns: HashMap<usize, PlanClient> = HashMap::new();
    for (entry, trace, offered) in rx {
        std::thread::sleep(GOSSIP_DELAY.saturating_sub(offered.elapsed()));
        let targets: Vec<(usize, SocketAddr)> = {
            let peers = shared.peers.lock().unwrap();
            peers
                .ring
                .successors(plan_key_hash(&entry.key), fanout + 1)
                .into_iter()
                .filter(|&id| id != shared.id)
                .take(fanout)
                .filter_map(|id| peers.addrs.get(&id).map(|&addr| (id, addr)))
                .collect()
        };
        for (push_index, (peer_id, addr)) in targets.into_iter().enumerate() {
            let mut pushed = false;
            // One retry on a fresh connection: the cached one may have
            // died with a peer restart.
            for _attempt in 0..2 {
                let client = match conns.entry(peer_id) {
                    std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        match PlanClient::connect(addr) {
                            Ok(client) => entry.insert(client),
                            Err(_) => break,
                        }
                    }
                };
                // Propagate the originating request's trace on the push:
                // the receiver's gossip_receive span parents under this
                // gossip_push context.
                let push_ctx = trace.map(|ctx| ctx.child("gossip_push", push_index as u64));
                if let Some(ctx) = push_ctx {
                    client.set_trace(WireTraceContext::from_context(ctx, false));
                }
                let push_started = Instant::now();
                let push_epoch = shared.obs.now_seconds();
                match client.gossip_push(vec![entry.clone()]) {
                    Ok(accepted) => {
                        // The ack closes the loop: record the push (with
                        // the receiver's accepted count) in the originating
                        // request's tree; the receiver's gossip_receive
                        // parents under this span.
                        if let (Some(ctx), Some(push_ctx)) = (trace, push_ctx) {
                            let mut fields = link_fields(&SpanLink {
                                trace_id: push_ctx.trace_id,
                                span_id: push_ctx.span_id,
                                parent_span_id: ctx.span_id,
                            });
                            fields.push(("instance".to_string(), shared.instance.clone().into()));
                            fields.push(("peer".to_string(), (peer_id as u64).into()));
                            fields.push(("accepted".to_string(), accepted.into()));
                            shared.obs.record_span(
                                "gossip_push",
                                push_epoch,
                                push_started.elapsed().as_secs_f64(),
                                fields,
                            );
                        }
                        pushed = true;
                        break;
                    }
                    Err(_) => {
                        conns.remove(&peer_id);
                    }
                }
            }
            if pushed {
                shared.gossip_sent.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// The replica constructor. [`start`](FleetReplica::start) it, then
/// [`set_peers`](ReplicaHandle::set_peers) once the fleet's addresses are
/// known (port 0 means addresses exist only after every bind).
pub struct FleetReplica;

/// Handle to a running replica.
pub struct ReplicaHandle {
    shared: Arc<Shared>,
    event: Option<EventLoopHandle>,
    workers: Vec<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
    addr: SocketAddr,
    persist_path: Option<PathBuf>,
}

impl FleetReplica {
    /// Bind and start the event loop, worker pool and gossip thread.
    pub fn start(config: ReplicaConfig, obs: Obs) -> std::io::Result<ReplicaHandle> {
        let instance = config
            .instance
            .clone()
            .unwrap_or_else(|| format!("replica-{}", config.id));
        let config_fingerprint = format!("{:?}", config.planner.optimizer);
        let cache = ResponseCache::new(config.cache_max_bytes);
        if let Some(path) = &config.persist_path {
            let loaded = cache.load(path, &config_fingerprint);
            obs.registry()
                .counter_with(
                    "serve_cache_loaded_total",
                    &[("instance", instance.as_str())],
                )
                .inc_by(loaded as u64);
        }
        let shared = Arc::new(Shared {
            id: config.id,
            instance,
            config_fingerprint,
            service: PlanService::new(config.planner.clone()).with_obs(obs.clone()),
            cache,
            waiters: Mutex::new(HashMap::new()),
            queue: BoundedQueue::new(config.queue_capacity),
            peers: Mutex::new(PeerTable {
                ring: HashRing::with_members(&[config.id]),
                addrs: HashMap::new(),
            }),
            gossip_tx: Mutex::new(None),
            obs,
            slow: SlowRing::new(SLOW_RING_CAPACITY),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            gossip_sent: AtomicU64::new(0),
            gossip_accepted: AtomicU64::new(0),
            warm_join_imported: AtomicU64::new(0),
            connections: OnceLock::new(),
        });
        let event = spawn_event_loop(
            &config.addr,
            Arc::new(ReplicaHandler {
                shared: Arc::clone(&shared),
            }),
            EventLoopConfig {
                max_connections: config.max_connections,
            },
        )?;
        let _ = shared.connections.set(event.connections_shared());
        let addr = event.addr();
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let gossip = if config.gossip_fanout > 0 {
            let (tx, rx) = mpsc::channel();
            *shared.gossip_tx.lock().unwrap() = Some(tx);
            let shared = Arc::clone(&shared);
            let fanout = config.gossip_fanout;
            Some(std::thread::spawn(move || gossip_loop(&shared, rx, fanout)))
        } else {
            None
        };
        Ok(ReplicaHandle {
            shared,
            event: Some(event),
            workers,
            gossip,
            addr,
            persist_path: config.persist_path,
        })
    }
}

impl ReplicaHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This replica's fleet id.
    pub fn id(&self) -> usize {
        self.shared.id
    }

    /// The `instance` metric label (`replica-<id>` unless configured).
    pub fn instance(&self) -> String {
        self.shared.instance.clone()
    }

    /// Freeze the worker pool. Queued and future jobs wait; admission
    /// (cache hits, coalescing, shedding) keeps running, which is what
    /// deterministic herd and shed tests need. Once this returns, no
    /// worker pops another job until [`resume`](Self::resume).
    pub fn pause(&self) {
        self.shared.queue.set_paused(true);
    }

    /// Release a paused worker pool.
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// Jobs currently queued.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Currently open connections on the event loop.
    pub fn connections(&self) -> usize {
        self.event.as_ref().map_or(0, |e| e.connections())
    }

    /// Point-in-time serving statistics.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Gossip pushes successfully delivered to peers.
    pub fn gossip_sent(&self) -> u64 {
        self.shared.gossip_sent.load(Ordering::SeqCst)
    }

    /// Install the fleet membership: every `(id, addr)` including or
    /// excluding this replica (it is always on its own ring). Gossip
    /// targets and ring ownership update immediately.
    pub fn set_peers(&self, members: &[(usize, SocketAddr)]) {
        let mut peers = self.shared.peers.lock().unwrap();
        let mut ids: Vec<usize> = members.iter().map(|&(id, _)| id).collect();
        ids.push(self.shared.id);
        peers.ring = HashRing::with_members(&ids);
        peers.addrs = members
            .iter()
            .filter(|&&(id, _)| id != self.shared.id)
            .copied()
            .collect();
    }

    /// Warm-join: pull up to `max_entries` hot cache entries from `peer`
    /// and import them, so this replica answers from cache instead of
    /// running cold DP for questions the fleet has already answered.
    /// Returns how many entries were imported.
    pub fn warm_join(&self, peer: SocketAddr, max_entries: usize) -> std::io::Result<usize> {
        self.warm_join_traced(peer, max_entries, None)
    }

    /// [`warm_join`](Self::warm_join) carrying a trace context: the pull is
    /// sent with a `snapshot_pull` child context (the peer's
    /// `snapshot_serve` span parents under it) and the import is recorded
    /// as a `snapshot_pull` span in the caller's tree with the imported
    /// count.
    pub fn warm_join_traced(
        &self,
        peer: SocketAddr,
        max_entries: usize,
        trace: Option<TraceContext>,
    ) -> std::io::Result<usize> {
        let mut client = PlanClient::connect(peer)?;
        let pull_ctx = trace.map(|ctx| ctx.child("snapshot_pull", 0));
        if let Some(ctx) = pull_ctx {
            client.set_trace(WireTraceContext::from_context(ctx, false));
        }
        let pull_started = Instant::now();
        let pull_epoch = self.shared.obs.now_seconds();
        let entries = client.snapshot_pull(max_entries)?;
        let imported = self.shared.cache.import(
            entries
                .into_iter()
                .map(|entry| (entry.key, entry.result))
                .collect(),
        );
        if let (Some(ctx), Some(pull_ctx)) = (trace, pull_ctx) {
            let mut fields = link_fields(&SpanLink {
                trace_id: pull_ctx.trace_id,
                span_id: pull_ctx.span_id,
                parent_span_id: ctx.span_id,
            });
            fields.push(("instance".to_string(), self.shared.instance.clone().into()));
            fields.push(("imported".to_string(), (imported as u64).into()));
            self.shared.obs.record_span(
                "snapshot_pull",
                pull_epoch,
                pull_started.elapsed().as_secs_f64(),
                fields,
            );
        }
        self.shared
            .warm_join_imported
            .fetch_add(imported as u64, Ordering::SeqCst);
        self.shared.refresh_metrics();
        Ok(imported)
    }

    /// Graceful drain: stop admitting, finish in-flight computations,
    /// answer queued jobs and their waiters with `ShuttingDown`, flush
    /// every connection, join every thread, and (when configured) persist
    /// the response cache for a warm restart.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Belt and braces: resolve any straggler jobs and waiters so no
        // slot is left unfilled when the event loop drains.
        while let Some(job) = self.shared.queue.pop(Duration::ZERO) {
            self.shared
                .resolve_waiters(&job.key, &self.shared.shutting_down(), None);
        }
        let keys: Vec<PlanKey> = self
            .shared
            .waiters
            .lock()
            .unwrap()
            .keys()
            .cloned()
            .collect();
        for key in keys {
            self.shared
                .resolve_waiters(&key, &self.shared.shutting_down(), None);
        }
        *self.shared.gossip_tx.lock().unwrap() = None; // ends the gossip loop
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
        if let Some(event) = self.event.take() {
            event.stop_and_join();
        }
        if let Some(path) = &self.persist_path {
            let _ = self
                .shared
                .cache
                .persist(path, &self.shared.config_fingerprint);
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }
}
