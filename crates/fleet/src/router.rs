//! The fleet front-end: route each plan question to the replica that owns
//! its cache key, fail over transparently when a replica dies.
//!
//! The router speaks the same JSONL protocol as a replica, so clients do
//! not know (or care) whether they talk to one daemon or a fleet. It is
//! the second role on the replica's serving core (`serving.rs`) — same
//! parse prelude, control verbs, HTTP endpoints, queue consumers and drain
//! — and adds only routing. For a `Plan` request it computes the key's
//! ring position, forwards the client's **raw request line** to the
//! owning replica, and relays the replica's **raw response line** back —
//! no re-serialization anywhere on the path, so the stable-bytes contract
//! survives the hop untouched (byte-identical answers whether a client
//! asks a replica directly or through the router, cached/coalesced
//! envelope flags included).
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
//!
//! `GET /metrics` and `GET /trace/slow` federate: they pull every live
//! replica's registry or slow ring and merge them with the router's own.
//! Each pull is bounded by a fixed one-second timeout, so a member that
//! accepts connections but never answers is left out instead of freezing
//! the router's event loop.

use crate::event::ResponseSlot;
use crate::ring::{plan_key_hash, HashRing};
use crate::serving::{
    call_pooled, fill, Arrival, Core, Pool, RequestTrace, Role, Server, SLOW_RING_CAPACITY,
};
use galvatron_obs::trace::PHASE_RELAY_HOP;
use galvatron_obs::{MetricsSnapshot, Obs, SlowTraceEntry};
use galvatron_serve::{
    ErrorCode, FleetCheckReport, PlanBody, PlanClient, PlanKey, RequestBody, WireRequest,
    WireResponse, WireResult, WireTraceContext,
};
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a federated scrape waits on one replica — to connect, and
/// then for each read or write — before leaving it out. The scrape runs
/// on the event loop, so this bounds how long one silent member can stall
/// every client of the router.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(1);

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

struct RouteJob {
    /// Envelope identity for router-originated error answers.
    id: u64,
    name: String,
    kind: JobKind,
    slot: ResponseSlot,
}

enum JobKind {
    /// Relay `line` to the owner of `hash`, failing over along the ring.
    /// A traced request's trace is captured at admission, so the relay-hop
    /// slice covers router queueing, the forward and any failover.
    Forward {
        line: String,
        hash: u64,
        trace: Option<RequestTrace>,
    },
    /// `FleetCheck`: ask every live replica and compare answer bytes.
    Broadcast { body: PlanBody },
}

struct Shared {
    core: Core<RouteJob>,
    membership: Mutex<Membership>,
    forwarded: AtomicU64,
    failovers: AtomicU64,
}

impl Role for Shared {
    type Job = RouteJob;
    type Worker = Pool;
    const NAME: &'static str = "router";
    const QUEUE: &'static str = "router queue";

    fn core(&self) -> &Core<RouteJob> {
        &self.core
    }

    fn refresh_metrics(&self) {
        let live = self.membership.lock().unwrap().addrs.len();
        let load = |tally: &AtomicU64| tally.load(Ordering::SeqCst);
        self.core.publish(
            &[
                ("fleet_router_live_replicas", live as f64),
                ("serve_queue_depth", self.core.queue.len() as f64),
            ],
            &[
                ("serve_requests_total", load(&self.core.requests)),
                ("fleet_router_forwarded_total", load(&self.forwarded)),
                ("fleet_router_failovers_total", load(&self.failovers)),
                ("serve_shed_total", load(&self.core.shed)),
            ],
        );
    }

    fn handle(&self, mut request: WireRequest, line: &str, arrival: Arrival, slot: ResponseSlot) {
        let (id, name) = (request.id, request.name.clone());
        let kind = match request.body {
            RequestBody::Plan(ref body) => {
                let hash = plan_key_hash(&PlanKey::of(body));
                // Traced requests have the forwarded line re-stamped with
                // the router's `route_plan` context, so the replica's
                // serve_request span parents under the router and the
                // client sees one linked tree. Untraced requests keep the
                // raw-line relay — the v2 byte path is untouched.
                let trace = RequestTrace::start(&request, "route_plan", arrival);
                let line = match &trace {
                    Some(t) => {
                        let server = WireTraceContext::from_context(t.server, t.want_attribution);
                        request.trace = Some(server);
                        serde_json::to_string(&request).unwrap_or_else(|_| line.to_string())
                    }
                    None => line.to_string(),
                };
                JobKind::Forward { line, hash, trace }
            }
            RequestBody::FleetCheck(body) => JobKind::Broadcast { body },
            _ => {
                let message =
                    "the router holds no cache; address peer-protocol requests to a replica";
                let result = WireResult::error(ErrorCode::BadRequest, message);
                return fill(&slot, &WireResponse::direct(id, name, result));
            }
        };
        let job = RouteJob {
            id,
            name: name.clone(),
            kind,
            slot: slot.clone(),
        };
        if let Err(refusal) = self.admit(job) {
            fill(&slot, &WireResponse::direct(id, name, refusal));
        }
    }

    fn run(&self, pool: &mut Pool, job: RouteJob) {
        let response = match job.kind {
            JobKind::Forward { line, hash, trace } => {
                match self.forward(pool, &line, hash, trace.as_ref()) {
                    Some(response) => return job.slot.fill(response),
                    None => {
                        WireResult::error(ErrorCode::Unavailable, "no live replica to forward to")
                    }
                }
            }
            JobKind::Broadcast { body } => self.broadcast(pool, job.id, &job.name, body),
        };
        fill(&job.slot, &WireResponse::direct(job.id, job.name, response));
    }

    fn refuse(&self, job: RouteJob) {
        let response = WireResponse::direct(job.id, job.name, self.shutting_down());
        fill(&job.slot, &response);
    }

    /// Fleet federation: one scrape of the router answers for the whole
    /// fleet — every live replica's deterministic snapshot is pulled and
    /// merged under its instance label next to the router's own series.
    fn metrics_text(&self) -> String {
        self.refresh_metrics();
        let mut parts = vec![("router".to_string(), self.core.obs.registry().snapshot())];
        for (id, snapshot) in self.scrape(PlanClient::metrics_pull) {
            parts.push((format!("replica-{id}"), snapshot));
        }
        MetricsSnapshot::merge_labelled(&parts).to_prometheus()
    }

    /// The router's own ring merged with every live replica's, slowest
    /// first, capped at the ring capacity.
    fn slow_traces(&self) -> Vec<SlowTraceEntry> {
        let mut entries = self.core.slow.drain();
        for (_, pulled) in self.scrape(PlanClient::slow_trace_pull) {
            entries.extend(pulled);
        }
        entries.sort_by(|a, b| {
            b.total_seconds
                .partial_cmp(&a.total_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.trace_id.cmp(&b.trace_id))
        });
        entries.truncate(SLOW_RING_CAPACITY);
        entries
    }

    fn health(&self) -> (bool, String) {
        let (live, dead, vnodes) = {
            let membership = self.membership.lock().unwrap();
            (
                membership.addrs.len(),
                membership.dead.len(),
                membership.ring.len() * membership.ring.vnodes_per_member(),
            )
        };
        let status = if self.core.stopping() {
            "draining"
        } else if live == 0 {
            "unavailable"
        } else {
            "ok"
        };
        let body = format!(
            "{{\"status\":\"{status}\",\"instance\":\"router\",\"live\":{live},\
             \"dead\":{dead},\"vnodes\":{vnodes}}}\n"
        );
        (status == "ok", body)
    }
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

    /// Ask every live replica for `pull` on a fresh connection bounded by
    /// [`SCRAPE_TIMEOUT`]. A failed or timed-out scrape just omits that
    /// replica; scraping is not the failure detector.
    fn scrape<T>(&self, pull: impl Fn(&mut PlanClient) -> std::io::Result<T>) -> Vec<(usize, T)> {
        self.live_replicas()
            .into_iter()
            .filter_map(|(id, addr)| {
                let mut client = PlanClient::connect_timeout(addr, SCRAPE_TIMEOUT).ok()?;
                Some((id, pull(&mut client).ok()?))
            })
            .collect()
    }

    /// Relay `line` to the owner of `hash`; on failure mark the owner dead
    /// and retry against the next — consistent hashing guarantees the
    /// retry lands on the replica that inherited the key (and, with
    /// gossip, its warm answer). Each live replica gets at most one
    /// (reconnect-included) try per request; `None` when all are gone.
    fn forward(
        &self,
        pool: &mut Pool,
        line: &str,
        hash: u64,
        trace: Option<&RequestTrace>,
    ) -> Option<String> {
        loop {
            let (owner, addr) = {
                let membership = self.membership.lock().unwrap();
                let owner = membership.ring.route_hash(hash)?;
                (owner, *membership.addrs.get(&owner)?)
            };
            match call_pooled(pool, owner, addr, |c| c.round_trip_raw(line)) {
                Ok(response) => {
                    self.forwarded.fetch_add(1, Ordering::SeqCst);
                    return Some(match trace {
                        Some(t) => self.finish_traced_forward(t, response),
                        None => response,
                    });
                }
                // The ring now routes `hash` to the next owner.
                Err(_) => self.mark_dead(owner),
            }
        }
    }

    /// Close out a traced forward: record the router's `route_plan` span
    /// and, when the client asked for attribution, append the `relay_hop`
    /// slice (router wall time minus the replica's total — queueing,
    /// forwarding and any failover) to the replica's record and lift the
    /// total to the router-observed wall time.
    fn finish_traced_forward(&self, trace: &RequestTrace, response: String) -> String {
        // Attribution rides the parsed envelope, so parse first: the parse
        // is router work and belongs inside the router-observed wall time.
        // A response that does not parse (or carries no record) is relayed
        // untouched.
        let parsed = trace
            .want_attribution
            .then(|| serde_json::from_str::<WireResponse>(&response).ok())
            .flatten();
        let total = trace.arrival.at.elapsed().as_secs_f64();
        let obs = &self.core.obs;
        let instance = [("instance", self.core.instance.clone().into())];
        let route_span = obs.record_child_span(
            trace.client,
            "route_plan",
            0,
            trace.arrival.epoch,
            total,
            &instance,
        );
        let Some(mut parsed) = parsed else {
            return response;
        };
        let Some(mut attr) = parsed.attribution.take() else {
            return response;
        };
        let relay_hop = (total - attr.total_seconds).max(0.0);
        attr.push_phase(PHASE_RELAY_HOP, relay_hop);
        attr.total_seconds = total;
        obs.registry()
            .wall_histogram_with(
                "serve_phase_seconds",
                &[
                    ("instance", self.core.instance.as_str()),
                    ("phase", PHASE_RELAY_HOP),
                ],
            )
            .observe(relay_hop);
        // The relay slice as its own linked span, so span dumps attribute
        // every phase — the replica's sink holds the serving phases, this
        // is the one only the router can measure.
        obs.record_child_span(
            trace.server,
            PHASE_RELAY_HOP,
            0,
            trace.arrival.epoch,
            relay_hop,
            &instance,
        );
        let mut spans = vec![route_span];
        spans.extend(attr.to_spans(
            "serve_request",
            &trace.server.span_id.to_hex(),
            trace.arrival.epoch,
        ));
        self.core.slow.offer(SlowTraceEntry {
            trace_id: attr.trace_id.clone(),
            name: "route_plan".to_string(),
            instance: self.core.instance.clone(),
            total_seconds: attr.total_seconds,
            spans,
        });
        parsed.attribution = Some(attr);
        serde_json::to_string(&parsed).unwrap_or(response)
    }

    /// `FleetCheck`: ask every live replica the same plan question and
    /// compare the serialized `result` payloads byte-for-byte.
    fn broadcast(&self, pool: &mut Pool, id: u64, name: &str, body: PlanBody) -> WireResult {
        let request = WireRequest {
            id,
            name: name.to_string(),
            trace: None,
            body: RequestBody::Plan(body),
        };
        let Ok(line) = serde_json::to_string(&request) else {
            return WireResult::error(ErrorCode::BadRequest, "request does not serialize");
        };
        let mut payloads: Vec<String> = Vec::new();
        for (replica_id, addr) in self.live_replicas() {
            let parsed = call_pooled(pool, replica_id, addr, |c| c.round_trip_raw(&line))
                .ok()
                .and_then(|response| serde_json::from_str::<WireResponse>(&response).ok());
            match parsed {
                Some(parsed) => {
                    if let Ok(payload) = serde_json::to_string(&parsed.result) {
                        payloads.push(payload);
                    }
                }
                None => self.mark_dead(replica_id),
            }
        }
        if payloads.is_empty() {
            let message = "no live replica answered the fleet check";
            return WireResult::error(ErrorCode::Unavailable, message);
        }
        let byte_identical = payloads.iter().all(|p| p == &payloads[0]);
        WireResult::Fleet(FleetCheckReport {
            replicas: payloads.len(),
            byte_identical,
            answer_json: payloads.swap_remove(0),
        })
    }
}

/// The router constructor.
pub struct FleetRouter;

/// Handle to a running router.
pub struct RouterHandle {
    server: Server<Shared>,
}

impl FleetRouter {
    /// Bind and start the event loop and forwarder pool.
    pub fn start(config: RouterConfig, obs: Obs) -> std::io::Result<RouterHandle> {
        let ids: Vec<usize> = config.replicas.iter().map(|&(id, _)| id).collect();
        let shared = Arc::new(Shared {
            core: Core::new("router".to_string(), obs, config.queue_capacity),
            membership: Mutex::new(Membership {
                ring: HashRing::with_members(&ids),
                addrs: config.replicas.iter().copied().collect(),
                dead: BTreeSet::new(),
            }),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        });
        let server = Server::start(
            shared,
            &config.addr,
            config.max_connections,
            config.forwarders,
        )?;
        Ok(RouterHandle { server })
    }
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Ids of replicas currently considered live.
    pub fn live_replicas(&self) -> Vec<usize> {
        self.server
            .role
            .live_replicas()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Requests that failed over to another replica after an owner death.
    pub fn failovers(&self) -> u64 {
        self.server.role.failovers.load(Ordering::SeqCst)
    }

    /// Add (or re-add) a replica to the ring — e.g. one that just
    /// warm-joined the fleet.
    pub fn add_replica(&self, id: usize, addr: SocketAddr) {
        let mut membership = self.server.role.membership.lock().unwrap();
        membership.ring.add(id);
        membership.addrs.insert(id, addr);
        membership.dead.remove(&id);
    }

    /// Remove a replica administratively (planned drain, as opposed to the
    /// failure-driven removal forwarders do on their own).
    pub fn remove_replica(&self, id: usize) {
        self.server.role.mark_dead(id);
    }

    /// Stop accepting, answer queued requests with `ShuttingDown`, join
    /// every thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}
