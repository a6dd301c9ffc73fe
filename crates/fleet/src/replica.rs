//! The plan server: one replica of the fleet, or on its own the
//! `galvatron-served` daemon (a fleet of one, with no peers and no gossip).
//!
//! ```text
//! serving core ── parse, control verbs, /metrics /healthz /trace/slow
//!     │  plan: validate → cache → waiter table → bounded queue
//!     │                     hit ⇒ answer   │ follower ⇒ park │ full ⇒ shed
//!     ▼                                    ▼                 ▼
//! ResponseSlot ◀── fill every waiter ── workers ── queue.pop
//!                                          │ PlanService::submit
//!                                          ▼
//!                              cache.insert (+ gossip to ring successors)
//! ```
//!
//! The replica is one role on the fleet's serving core (`serving.rs`),
//! which owns everything it shares with the router: the
//! [`event`](crate::event) loop and its parse → `BadRequest` prelude, the
//! inline control verbs (`Ping`, `Stats`, `Metrics`, `MetricsPull`,
//! `SlowTracePull`), the HTTP endpoints, the worker loop over the bounded
//! queue and the graceful drain. What is left here is the replica's own
//! business: the response cache, single-flight, the planner and the peer
//! protocol.
//!
//! Admission never blocks the event loop: each plan request records a
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
//! request, the `/trace/slow` ring). With `persist_path` set, the response
//! cache is loaded at start and written back at shutdown (warm restarts).
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

use crate::event::ResponseSlot;
use crate::ring::{plan_key_hash, HashRing};
use crate::serving::{call_pooled, fill, Arrival, Core, Pool, RequestTrace, Role, Server};
use galvatron_obs::trace::{
    PHASE_CACHE_LOOKUP, PHASE_DP_COMPUTE, PHASE_FLIGHT_WAIT, PHASE_QUEUE_WAIT, PHASE_SERIALIZE,
};
use galvatron_obs::{AttributionRecord, Obs, SlowTraceEntry, TraceContext, TraceScope};
use galvatron_planner::{PlanRequest, PlanService, PlannerConfig};
use galvatron_serve::{
    CacheEntry, ErrorCode, PlanBody, PlanClient, PlanKey, RequestBody, ResponseCache, ServeStats,
    WireRequest, WireResponse, WireResult, WireTraceContext,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// One request waiting for a computation to finish.
struct Waiter {
    id: u64,
    name: String,
    coalesced: bool,
    slot: ResponseSlot,
    trace: Option<RequestTrace>,
    /// Wall seconds the response-cache probe took.
    cache_lookup_seconds: f64,
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
    core: Core<Job>,
    id: usize,
    /// The optimizer config's Debug form: gates persisted snapshots. Only
    /// the optimizer config can change an answer; the planner's worker
    /// count and pruning switch cannot, so restarting with a different
    /// setting of those keeps a valid snapshot.
    config_fingerprint: String,
    service: PlanService,
    cache: ResponseCache,
    waiters: Mutex<HashMap<PlanKey, Vec<Waiter>>>,
    peers: Mutex<PeerTable>,
    gossip_tx: Mutex<Option<mpsc::Sender<GossipItem>>>,
    coalesced: AtomicU64,
    computed: AtomicU64,
    panics: AtomicU64,
    gossip_sent: AtomicU64,
    gossip_accepted: AtomicU64,
    warm_join_imported: AtomicU64,
}

impl Role for Shared {
    type Job = Job;
    type Worker = ();
    const NAME: &'static str = "replica";
    const QUEUE: &'static str = "request queue";

    fn core(&self) -> &Core<Job> {
        &self.core
    }

    fn stats(&self) -> ServeStats {
        let cache = self.cache.stats();
        ServeStats {
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            coalesced: self.coalesced.load(Ordering::SeqCst),
            computed: self.computed.load(Ordering::SeqCst),
            ..self.core.stats()
        }
    }

    /// Every series carries the `instance` label, so one Prometheus
    /// dashboard covers a daemon and every replica of a fleet.
    fn refresh_metrics(&self) {
        let stats = self.stats();
        let gauges = [
            ("serve_queue_depth", stats.queue_depth as f64),
            ("serve_cache_entries", stats.cache_entries as f64),
            ("serve_cache_bytes", stats.cache_bytes as f64),
            ("fleet_connections", self.core.connections() as f64),
        ];
        let load = |tally: &AtomicU64| tally.load(Ordering::SeqCst);
        self.core.publish(
            &gauges,
            &[
                ("serve_requests_total", stats.requests),
                ("serve_coalesced_total", stats.coalesced),
                ("serve_shed_total", stats.shed),
                ("serve_computed_total", stats.computed),
                ("serve_cache_hits_total", stats.cache_hits),
                ("serve_cache_misses_total", stats.cache_misses),
                ("serve_cache_evictions_total", stats.cache_evictions),
                ("serve_planner_panics_total", load(&self.panics)),
                ("fleet_gossip_sent_total", load(&self.gossip_sent)),
                ("serve_gossip_accepted_total", load(&self.gossip_accepted)),
                (
                    "fleet_warm_join_imported_total",
                    load(&self.warm_join_imported),
                ),
            ],
        );
    }

    fn handle(&self, request: WireRequest, _line: &str, _arrival: Arrival, slot: ResponseSlot) {
        // The replica's serve_request span starts once the line is parsed.
        let trace = RequestTrace::start(&request, "serve_request", Arrival::now(&self.core.obs));
        let WireRequest { id, name, body, .. } = request;
        let result = match body {
            RequestBody::Plan(body) => return self.handle_plan(body, id, name, trace, slot),
            RequestBody::SnapshotPull { max_entries } => {
                let started = Arrival::now(&self.core.obs);
                let entries: Vec<CacheEntry> = self
                    .cache
                    .export_recent(max_entries)
                    .into_iter()
                    .map(|(key, result)| CacheEntry { key, result })
                    .collect();
                // A traced pull (warm-join) gets a `snapshot_serve` span
                // parented under the puller's `snapshot_pull` context, so
                // cache warming shows up in the joiner's trace tree.
                if let Some(trace) = &trace {
                    self.core.obs.record_child_span(
                        trace.client,
                        "snapshot_serve",
                        0,
                        started.epoch,
                        started.at.elapsed().as_secs_f64(),
                        &[
                            ("instance", self.core.instance.clone().into()),
                            ("entries", (entries.len() as u64).into()),
                        ],
                    );
                }
                WireResult::Snapshot(entries)
            }
            RequestBody::GossipPush { entries } => {
                let started = Arrival::now(&self.core.obs);
                let accepted = self.cache.import(
                    entries
                        .into_iter()
                        .map(|entry| (entry.key, entry.result))
                        .collect(),
                ) as u64;
                self.gossip_accepted.fetch_add(accepted, Ordering::SeqCst);
                // A traced push gets a `gossip_receive` span parented
                // under the sender's `gossip_push` context, so the warm
                // fan-out shows up in the originating request's tree.
                if let Some(trace) = &trace {
                    self.core.obs.record_child_span(
                        trace.client,
                        "gossip_receive",
                        0,
                        started.epoch,
                        started.at.elapsed().as_secs_f64(),
                        &[
                            ("instance", self.core.instance.clone().into()),
                            ("accepted", accepted.into()),
                        ],
                    );
                }
                WireResult::Ack(accepted)
            }
            _ => WireResult::error(
                ErrorCode::BadRequest,
                "FleetCheck requires a fleet router; this is a replica",
            ),
        };
        fill(&slot, &WireResponse::direct(id, name, result));
    }

    /// Pop, compute once, publish to cache + waiters + gossip.
    fn run(&self, _worker: &mut (), job: Job) {
        let queue_wait_seconds = job.enqueued.elapsed().as_secs_f64();
        let (result, timing) = match self.cache.get(&job.key) {
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
                let compute_span = self.core.obs.span("dp_compute");
                let compute_ctx = compute_span.trace_context();
                let compute_started = Instant::now();
                let (result, cacheable) = {
                    let _compute_scope = compute_ctx.map(TraceScope::enter);
                    self.compute(&job)
                };
                let compute_seconds = compute_started.elapsed().as_secs_f64();
                compute_span.finish();
                drop(leader_scope);
                if cacheable {
                    self.cache.insert(job.key.clone(), result.clone());
                    self.offer_gossip(&job.key, &result, job.trace);
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
        self.resolve_waiters(&job.key, &result, Some(&timing));
        self.refresh_metrics();
    }

    fn refuse(&self, job: Job) {
        self.resolve_waiters(&job.key, &self.shutting_down(), None);
    }

    /// Belt and braces: resolve every waiter still registered, so no slot
    /// is left unfilled when the event loop drains.
    fn refuse_stragglers(&self) {
        let keys: Vec<PlanKey> = self.waiters.lock().unwrap().keys().cloned().collect();
        for key in keys {
            self.resolve_waiters(&key, &self.shutting_down(), None);
        }
    }

    fn metrics_text(&self) -> String {
        self.refresh_metrics();
        self.core.obs.registry().snapshot().to_prometheus()
    }

    fn slow_traces(&self) -> Vec<SlowTraceEntry> {
        self.core.slow.drain()
    }

    fn health(&self) -> (bool, String) {
        let (ring_members, peers_known, vnodes) = {
            let peers = self.peers.lock().unwrap();
            (
                peers.ring.len(),
                peers.addrs.len(),
                peers.ring.vnodes_per_member(),
            )
        };
        let draining = self.core.stopping();
        let status = if draining { "draining" } else { "ok" };
        let body = format!(
            "{{\"status\":\"{status}\",\"instance\":\"{}\",\"ring_members\":{ring_members},\
             \"peers\":{peers_known},\"vnodes\":{vnodes}}}\n",
            self.core.instance
        );
        (!draining, body)
    }
}

impl Shared {
    /// The plan path: validate → cache → waiter list (coalesce or lead) →
    /// queue (or shed). Never blocks — the event loop is calling.
    fn handle_plan(
        &self,
        body: PlanBody,
        id: u64,
        name: String,
        trace: Option<RequestTrace>,
        slot: ResponseSlot,
    ) {
        let reply = |result| fill(&slot, &WireResponse::direct(id, name.clone(), result));
        if self.core.stopping() {
            return reply(self.shutting_down());
        }
        if let Err(e) = body.topology.validate() {
            let message = format!("invalid topology: {e}");
            return reply(WireResult::error(ErrorCode::InvalidTopology, message));
        }
        let key = PlanKey::of(&body);
        let lookup_started = Instant::now();
        let cached_result = self.cache.get(&key);
        let cache_lookup_seconds = lookup_started.elapsed().as_secs_f64();
        if let Some(result) = cached_result {
            let attribution = trace.as_ref().and_then(|t| {
                let attr = self.attribute(t, cache_lookup_seconds, false, None, &result);
                t.want_attribution.then_some(attr)
            });
            let response = WireResponse {
                cached: true,
                attribution,
                ..WireResponse::direct(id, name, result)
            };
            return fill(&slot, &response);
        }
        // The leader's serve_request context becomes the job's trace: the
        // worker's dp_compute span (and the planner spans under it)
        // parent there, while coalesced followers link in via
        // `compute_span_id`.
        let job_trace = trace.as_ref().map(|t| t.server);
        // Single flight via the waiter table: the first waiter for a key is
        // the leader and enqueues; later arrivals coalesce by appending.
        let is_leader = {
            let mut waiters = self.waiters.lock().unwrap();
            let list = waiters.entry(key.clone()).or_default();
            let coalesced = !list.is_empty();
            if coalesced {
                self.coalesced.fetch_add(1, Ordering::SeqCst);
            }
            list.push(Waiter {
                id,
                name: name.clone(),
                coalesced,
                slot,
                trace,
                cache_lookup_seconds,
            });
            !coalesced
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
        if let Err(refusal) = self.admit(job) {
            // Refuses the leader and anyone who coalesced meanwhile.
            self.resolve_waiters(&key, &refusal, None);
        }
    }

    /// Fill every waiter registered for `key` with `result` and drop the
    /// entry. The waiter list is the replica's single-flight: exactly one
    /// resolver wins the `remove`. Traced waiters are attributed and
    /// their `serve_request` span trees recorded here.
    fn resolve_waiters(&self, key: &PlanKey, result: &WireResult, timing: Option<&FlightTiming>) {
        let waiters = self.waiters.lock().unwrap().remove(key);
        for waiter in waiters.into_iter().flatten() {
            let attribution = waiter.trace.as_ref().and_then(|trace| {
                let attr = self.attribute(
                    trace,
                    waiter.cache_lookup_seconds,
                    waiter.coalesced,
                    timing,
                    result,
                );
                trace.want_attribution.then_some(attr)
            });
            let response = WireResponse {
                coalesced: waiter.coalesced,
                attribution,
                ..WireResponse::direct(waiter.id, waiter.name, result.clone())
            };
            fill(&waiter.slot, &response);
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
        trace: &RequestTrace,
        cache_lookup_seconds: f64,
        coalesced: bool,
        timing: Option<&FlightTiming>,
        result: &WireResult,
    ) -> AttributionRecord {
        let instance = self.core.instance.as_str();
        let mut attr = AttributionRecord::new(
            &trace.server.trace_id.to_hex(),
            &trace.server.span_id.to_hex(),
            instance,
        );
        let (queue_wait, compute) = match timing {
            Some(t) if !coalesced => (t.queue_wait_seconds, t.compute_seconds),
            _ => (0.0, 0.0),
        };
        attr.compute_span_id = timing.and_then(|t| t.compute_span_id.clone());
        let serialize_started = Instant::now();
        let _ = serde_json::to_string(result);
        let serialize = serialize_started.elapsed().as_secs_f64();
        let total = trace.arrival.at.elapsed().as_secs_f64();
        let flight_wait = total - cache_lookup_seconds - queue_wait - compute - serialize;
        attr.push_phase(PHASE_CACHE_LOOKUP, cache_lookup_seconds);
        attr.push_phase(PHASE_QUEUE_WAIT, queue_wait);
        attr.push_phase(PHASE_FLIGHT_WAIT, flight_wait);
        attr.push_phase(PHASE_DP_COMPUTE, compute);
        attr.push_phase(PHASE_SERIALIZE, serialize);
        attr.total_seconds = total;
        let registry = self.core.obs.registry();
        for phase in &attr.phases {
            registry
                .wall_histogram_with(
                    "serve_phase_seconds",
                    &[("instance", instance), ("phase", phase.phase.as_str())],
                )
                .observe(phase.seconds);
        }
        let spans = attr.to_spans(
            "serve_request",
            &trace.client.span_id.to_hex(),
            trace.arrival.epoch,
        );
        for span in &spans {
            self.core.obs.sink().record(span.clone());
        }
        self.core.slow.offer(SlowTraceEntry {
            trace_id: attr.trace_id.clone(),
            name: "serve_request".to_string(),
            instance: instance.to_string(),
            total_seconds: attr.total_seconds,
            spans,
        });
        attr
    }

    /// Run the plan service. Returns the stable answer and whether it is
    /// deterministic (plans and infeasibility verdicts are; planner errors
    /// are not and must not be cached). A panic inside the planner becomes
    /// a `PlannerError` for this key's waiters and leaves the worker
    /// running.
    fn compute(&self, job: &Job) -> (WireResult, bool) {
        self.computed.fetch_add(1, Ordering::SeqCst);
        let request = PlanRequest {
            name: job.name.clone(),
            model: job.body.model.clone(),
            topology: job.body.topology.clone(),
            budget_bytes: job.body.budget_bytes,
        };
        let Ok(submitted) = catch_unwind(AssertUnwindSafe(|| self.service.submit(&request))) else {
            self.panics.fetch_add(1, Ordering::SeqCst);
            let message = "planner panicked on this request";
            return (WireResult::error(ErrorCode::PlannerError, message), false);
        };
        match submitted {
            Ok(response) => match response.outcome {
                Some(outcome) => (WireResult::Plan(outcome.into()), true),
                None => {
                    let message = format!(
                        "no parallel configuration fits {} bytes per device",
                        job.body.budget_bytes
                    );
                    (WireResult::error(ErrorCode::Infeasible, message), true)
                }
            },
            Err(e) => {
                let message = format!("planner error: {e}");
                (WireResult::error(ErrorCode::PlannerError, message), false)
            }
        }
    }

    /// Hand a freshly computed stable answer to the gossip thread
    /// (best-effort; never blocks the worker). The leader's trace
    /// context rides along so the push shows up in the request's span
    /// tree.
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

/// Push gossiped entries to their ring successors. Runs on its own thread
/// with its own peer connections; any failure just drops that push —
/// gossip is an optimization, correctness never depends on it.
fn gossip_loop(shared: &Arc<Shared>, rx: mpsc::Receiver<GossipItem>, fanout: usize) {
    let mut conns = Pool::new();
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
            let push_index = push_index as u64;
            let pushed = call_pooled(&mut conns, peer_id, addr, |client| {
                // Propagate the originating request's trace on the push:
                // the receiver's gossip_receive span parents under this
                // gossip_push context.
                if let Some(ctx) = trace {
                    let push_ctx = ctx.child("gossip_push", push_index);
                    client.set_trace(WireTraceContext::from_context(push_ctx, false));
                }
                let started = Arrival::now(&shared.core.obs);
                let accepted = client.gossip_push(vec![entry.clone()])?;
                Ok((accepted, started))
            });
            let Ok((accepted, started)) = pushed else {
                continue;
            };
            // The ack closes the loop: record the push (with the
            // receiver's accepted count) in the originating request's
            // tree.
            if let Some(ctx) = trace {
                shared.core.obs.record_child_span(
                    ctx,
                    "gossip_push",
                    push_index,
                    started.epoch,
                    started.at.elapsed().as_secs_f64(),
                    &[
                        ("instance", shared.core.instance.clone().into()),
                        ("peer", (peer_id as u64).into()),
                        ("accepted", accepted.into()),
                    ],
                );
            }
            shared.gossip_sent.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The replica constructor. [`start`](FleetReplica::start) it, then
/// [`set_peers`](ReplicaHandle::set_peers) once the fleet's addresses are
/// known (port 0 means addresses exist only after every bind).
pub struct FleetReplica;

/// Handle to a running replica.
pub struct ReplicaHandle {
    server: Server<Shared>,
    gossip: Option<JoinHandle<()>>,
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
            config_fingerprint,
            service: PlanService::new(config.planner.clone()).with_obs(obs.clone()),
            core: Core::new(instance, obs, config.queue_capacity),
            cache,
            waiters: Mutex::new(HashMap::new()),
            peers: Mutex::new(PeerTable {
                ring: HashRing::with_members(&[config.id]),
                addrs: HashMap::new(),
            }),
            gossip_tx: Mutex::new(None),
            coalesced: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            gossip_sent: AtomicU64::new(0),
            gossip_accepted: AtomicU64::new(0),
            warm_join_imported: AtomicU64::new(0),
        });
        let server = Server::start(
            Arc::clone(&shared),
            &config.addr,
            config.max_connections,
            config.workers,
        )?;
        let gossip = (config.gossip_fanout > 0).then(|| {
            let (tx, rx) = mpsc::channel();
            *shared.gossip_tx.lock().unwrap() = Some(tx);
            let fanout = config.gossip_fanout;
            std::thread::spawn(move || gossip_loop(&shared, rx, fanout))
        });
        Ok(ReplicaHandle {
            server,
            gossip,
            persist_path: config.persist_path,
        })
    }
}

impl ReplicaHandle {
    fn shared(&self) -> &Shared {
        &self.server.role
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// This replica's fleet id.
    pub fn id(&self) -> usize {
        self.shared().id
    }

    /// The `instance` metric label (`replica-<id>` unless configured).
    pub fn instance(&self) -> String {
        self.shared().core.instance.clone()
    }

    /// Freeze the worker pool. Queued and future jobs wait; admission
    /// (cache hits, coalescing, shedding) keeps running, which is what
    /// deterministic herd and shed tests need. Once this returns, no
    /// worker pops another job until [`resume`](Self::resume).
    pub fn pause(&self) {
        self.shared().core.queue.set_paused(true);
    }

    /// Release a paused worker pool.
    pub fn resume(&self) {
        self.shared().core.queue.set_paused(false);
    }

    /// Jobs currently queued.
    pub fn queue_len(&self) -> usize {
        self.shared().core.queue.len()
    }

    /// Currently open connections on the event loop.
    pub fn connections(&self) -> usize {
        self.shared().core.connections()
    }

    /// Point-in-time serving statistics.
    pub fn stats(&self) -> ServeStats {
        self.shared().stats()
    }

    /// Gossip pushes successfully delivered to peers.
    pub fn gossip_sent(&self) -> u64 {
        self.shared().gossip_sent.load(Ordering::SeqCst)
    }

    /// Install the fleet membership: every `(id, addr)` including or
    /// excluding this replica (it is always on its own ring). Gossip
    /// targets and ring ownership update immediately.
    pub fn set_peers(&self, members: &[(usize, SocketAddr)]) {
        let id = self.id();
        let mut peers = self.shared().peers.lock().unwrap();
        let mut ids: Vec<usize> = members.iter().map(|&(id, _)| id).collect();
        ids.push(id);
        peers.ring = HashRing::with_members(&ids);
        peers.addrs = members
            .iter()
            .filter(|&&(member, _)| member != id)
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
        let shared = self.shared();
        let mut client = PlanClient::connect(peer)?;
        if let Some(ctx) = trace {
            let pull_ctx = ctx.child("snapshot_pull", 0);
            client.set_trace(WireTraceContext::from_context(pull_ctx, false));
        }
        let started = Arrival::now(&shared.core.obs);
        let entries = client.snapshot_pull(max_entries)?;
        let imported = shared.cache.import(
            entries
                .into_iter()
                .map(|entry| (entry.key, entry.result))
                .collect(),
        );
        if let Some(ctx) = trace {
            shared.core.obs.record_child_span(
                ctx,
                "snapshot_pull",
                0,
                started.epoch,
                started.at.elapsed().as_secs_f64(),
                &[
                    ("instance", shared.core.instance.clone().into()),
                    ("imported", (imported as u64).into()),
                ],
            );
        }
        shared
            .warm_join_imported
            .fetch_add(imported as u64, Ordering::SeqCst);
        shared.refresh_metrics();
        Ok(imported)
    }

    /// Graceful drain: stop admitting, finish in-flight computations,
    /// answer queued jobs and their waiters with `ShuttingDown`, flush
    /// every connection, join every thread, and (when configured) persist
    /// the response cache for a warm restart.
    pub fn shutdown(self) {
        let shared = Arc::clone(&self.server.role);
        self.server.shutdown();
        *shared.gossip_tx.lock().unwrap() = None; // ends the gossip loop
        if let Some(gossip) = self.gossip {
            let _ = gossip.join();
        }
        if let Some(path) = &self.persist_path {
            let _ = shared.cache.persist(path, &shared.config_fingerprint);
        }
    }
}
