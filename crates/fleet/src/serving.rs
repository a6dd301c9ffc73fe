//! The serving core both fleet roles run on.
//!
//! A replica and a router differ in what they do with a plan question —
//! compute it behind a cache, or forward it to the key's owner — but not
//! in how they serve: both accept JSONL lines on the [`event`] loop,
//! answer the same control verbs inline, hand slow work to a bounded
//! queue drained by a pool of consumer threads, and drain that queue the
//! same way at shutdown. That scaffolding lives here once:
//!
//! ```text
//! event loop ── parse (bad line ⇒ BadRequest) ──┬─ Ping / Stats / Metrics /
//!                                               │  MetricsPull / SlowTracePull ⇒ answer inline
//!                                               └─ anything else ⇒ Role::handle
//!                                                        │ Role::admit ⇒ bounded queue
//! consumers ── pop(TICK) ── Role::run (or Role::refuse once stopping)
//! ```
//!
//! A role implements [`Role`] for its shared state and is started as a
//! [`Server`]; the server's shutdown is close → join consumers → refuse
//! what is still queued → [`Role::refuse_stragglers`] → stop the event
//! loop, so no response slot is left unfilled.
//!
//! [`event`]: crate::event

use crate::event::{spawn_event_loop, EventLoopConfig, EventLoopHandle, LineHandler, ResponseSlot};
use galvatron_obs::{Obs, SlowRing, SlowTraceEntry, TraceContext};
use galvatron_serve::{
    BoundedQueue, ErrorCode, PlanClient, PushError, RequestBody, ServeStats, WireRequest,
    WireResponse, WireResult, PROTOCOL_VERSION,
};
use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a consumer blocks in `pop` before rechecking the stop flag.
const TICK: Duration = Duration::from_millis(100);

/// K-slowest traced requests each instance keeps for `/trace/slow`.
pub(crate) const SLOW_RING_CAPACITY: usize = 32;

/// The state every role serves from.
pub(crate) struct Core<J> {
    /// The `instance` label on this role's metrics and spans.
    pub(crate) instance: String,
    pub(crate) obs: Obs,
    pub(crate) slow: SlowRing,
    pub(crate) queue: BoundedQueue<J>,
    pub(crate) stop: AtomicBool,
    pub(crate) requests: AtomicU64,
    pub(crate) shed: AtomicU64,
    /// The event loop's live-connection count, wired up once it runs.
    pub(crate) connections: OnceLock<Arc<AtomicUsize>>,
}

impl<J> Core<J> {
    pub(crate) fn new(instance: String, obs: Obs, queue_capacity: usize) -> Self {
        Core {
            instance,
            obs,
            slow: SlowRing::new(SLOW_RING_CAPACITY),
            queue: BoundedQueue::new(queue_capacity),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            connections: OnceLock::new(),
        }
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Currently open connections on the event loop.
    pub(crate) fn connections(&self) -> usize {
        self.connections
            .get()
            .map_or(0, |open| open.load(Ordering::SeqCst))
    }

    /// The statistics every role reports: its queue and request tallies.
    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            paused: self.queue.is_paused(),
            shed: self.shed.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            ..ServeStats::default()
        }
    }

    /// Set `gauges` and top up the cumulative `counters` (registry
    /// counters only move forward) under this instance's label.
    pub(crate) fn publish(&self, gauges: &[(&str, f64)], counters: &[(&str, u64)]) {
        let registry = self.obs.registry();
        let labels = [("instance", self.instance.as_str())];
        for &(name, value) in gauges {
            registry.gauge_with(name, &labels).set(value);
        }
        for &(name, total) in counters {
            let counter = registry.counter_with(name, &labels);
            counter.inc_by(total.saturating_sub(counter.get()));
        }
    }
}

/// When a request line arrived, on both clocks.
#[derive(Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) at: Instant,
    /// `at` on the obs epoch clock (the span-record time base).
    pub(crate) epoch: f64,
}

impl Arrival {
    pub(crate) fn now(obs: &Obs) -> Self {
        Arrival {
            at: Instant::now(),
            epoch: obs.now_seconds(),
        }
    }
}

/// Trace state of one traced request: enough to attribute its latency
/// and record its span tree once it is answered.
pub(crate) struct RequestTrace {
    /// The sender's trace position (the parent of this role's root span).
    pub(crate) client: TraceContext,
    /// This role's root span context for the request.
    pub(crate) server: TraceContext,
    /// Whether the sender opted in to an attribution record.
    pub(crate) want_attribution: bool,
    pub(crate) arrival: Arrival,
}

impl RequestTrace {
    /// Trace `request` under a root span named `root`, if it carries a
    /// well-formed trace context.
    pub(crate) fn start(request: &WireRequest, root: &str, arrival: Arrival) -> Option<Self> {
        let (client, want_attribution) = request.trace_context()?;
        Some(RequestTrace {
            client,
            server: client.child(root, 0),
            want_attribution,
            arrival,
        })
    }
}

/// Serialize `response` into `slot`. Never leaves the slot unfilled: an
/// unserializable response (which our own types cannot produce) becomes a
/// hand-built error line.
pub(crate) fn fill(slot: &ResponseSlot, response: &WireResponse) {
    match serde_json::to_string(response) {
        Ok(line) => slot.fill(line),
        Err(_) => slot.fill(
            "{\"id\":0,\"name\":\"\",\"result\":{\"Error\":{\"code\":\"PlannerError\",\
             \"message\":\"response serialization failed\",\"retry_after_ms\":null}}}"
                .to_string(),
        ),
    }
}

/// What a role adds to the core.
pub(crate) trait Role: Send + Sync + Sized + 'static {
    /// A unit of queued work.
    type Job: Send + 'static;
    /// Per-consumer-thread state (the router's connection pool).
    type Worker: Default;
    /// `"replica"` or `"router"`, as it appears in refusals.
    const NAME: &'static str;
    /// The queue's name in `Overloaded` messages.
    const QUEUE: &'static str;

    fn core(&self) -> &Core<Self::Job>;

    /// The `Stats` answer.
    fn stats(&self) -> ServeStats {
        self.core().stats()
    }

    /// Push the role's tallies into the metrics registry.
    fn refresh_metrics(&self);

    /// Answer a parsed request other than the five control verbs the
    /// core answers itself. Runs on the event loop: never block.
    fn handle(&self, request: WireRequest, line: &str, arrival: Arrival, slot: ResponseSlot);

    /// Run one job on a consumer thread.
    fn run(&self, worker: &mut Self::Worker, job: Self::Job);

    /// Answer a job that will not run with `ShuttingDown`.
    fn refuse(&self, job: Self::Job);

    /// At shutdown, after the queue is drained and before the event loop
    /// stops: answer anything still parked outside the queue.
    fn refuse_stragglers(&self) {}

    /// `GET /metrics`: Prometheus text.
    fn metrics_text(&self) -> String;

    /// `GET /trace/slow`: the slowest traced requests, slowest first.
    fn slow_traces(&self) -> Vec<SlowTraceEntry>;

    /// `GET /healthz`: whether the role is serving, and its JSON body.
    fn health(&self) -> (bool, String);

    /// The refusal every queued or incoming request gets once the role is
    /// draining.
    fn shutting_down(&self) -> WireResult {
        WireResult::error(
            ErrorCode::ShuttingDown,
            format!("{} is shutting down", Self::NAME),
        )
    }

    /// Enqueue `job`, or say why not: `Overloaded` (counted as shed) when
    /// the queue is full, `ShuttingDown` once it is closed.
    fn admit(&self, job: Self::Job) -> Result<(), WireResult> {
        let core = self.core();
        match core.queue.try_push(job) {
            Ok(()) => Ok(()),
            Err(PushError::Full) => {
                core.shed.fetch_add(1, Ordering::SeqCst);
                let capacity = core.queue.capacity();
                let message = format!("{} full (capacity {capacity})", Self::QUEUE);
                Err(WireResult::error(ErrorCode::Overloaded, message))
            }
            Err(PushError::Closed) => Err(self.shutting_down()),
        }
    }
}

/// Pooled connections to fleet peers, one per peer id.
pub(crate) type Pool = HashMap<usize, PlanClient>;

/// Run `call` on the pooled connection to peer `id`, connecting on first
/// use. A failed call drops the connection and is retried once on a fresh
/// one — the pooled connection may have died with a peer restart; a
/// failed connect is not retried.
pub(crate) fn call_pooled<T>(
    pool: &mut Pool,
    id: usize,
    addr: SocketAddr,
    mut call: impl FnMut(&mut PlanClient) -> std::io::Result<T>,
) -> std::io::Result<T> {
    for attempt in 0..2 {
        let client = match pool.entry(id) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => entry.insert(PlanClient::connect(addr)?),
        };
        match call(client) {
            Ok(answer) => return Ok(answer),
            Err(e) => {
                pool.remove(&id);
                if attempt == 1 {
                    return Err(e);
                }
            }
        }
    }
    unreachable!("call_pooled returns within two attempts")
}

/// The event-loop face of a role: the parse prelude, the control verbs
/// and the HTTP endpoints.
struct Handler<R>(Arc<R>);

impl<R: Role> LineHandler for Handler<R> {
    fn on_line(&self, line: &str, slot: ResponseSlot) {
        let role = &*self.0;
        let core = role.core();
        let arrival = Arrival::now(&core.obs);
        core.requests.fetch_add(1, Ordering::SeqCst);
        let request: WireRequest = match serde_json::from_str(line) {
            Ok(request) => request,
            Err(e) => {
                let message = format!("unparseable request line: {e}");
                let result = WireResult::error(ErrorCode::BadRequest, message);
                return fill(&slot, &WireResponse::direct(0, String::new(), result));
            }
        };
        let answer = |result| {
            let response = WireResponse::direct(request.id, request.name.clone(), result);
            fill(&slot, &response);
        };
        match request.body {
            RequestBody::Ping => answer(WireResult::Pong(PROTOCOL_VERSION)),
            RequestBody::Stats => answer(WireResult::Stats(role.stats())),
            RequestBody::Metrics => {
                role.refresh_metrics();
                answer(WireResult::Metrics(
                    core.obs.registry().snapshot().to_prometheus(),
                ));
            }
            RequestBody::MetricsPull => {
                role.refresh_metrics();
                answer(WireResult::MetricsState(core.obs.registry().snapshot()));
            }
            RequestBody::SlowTracePull => answer(WireResult::SlowTraces(core.slow.drain())),
            _ => role.handle(request, line, arrival, slot),
        }
    }

    fn on_http_get(&self, path: &str) -> (String, String, String) {
        let role = &*self.0;
        let answer = |status: &str, content_type: &str, body: String| {
            (status.to_string(), content_type.to_string(), body)
        };
        match path {
            "/metrics" => answer("200 OK", "text/plain; version=0.0.4", role.metrics_text()),
            "/healthz" | "/health" => {
                let (healthy, body) = role.health();
                let status = if healthy {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                answer(status, "application/json", body)
            }
            "/trace/slow" => {
                let entries = role.slow_traces();
                let body = serde_json::to_string(&entries).unwrap_or_else(|_| "[]".to_string());
                answer("200 OK", "application/json", format!("{body}\n"))
            }
            _ => answer(
                "404 Not Found",
                "text/plain",
                format!("unknown path {path}; try /metrics, /healthz or /trace/slow\n"),
            ),
        }
    }
}

/// A running role: its event loop and consumer pool.
pub(crate) struct Server<R: Role> {
    pub(crate) role: Arc<R>,
    event: Option<EventLoopHandle>,
    consumers: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl<R: Role> Server<R> {
    /// Bind `addr`, start the event loop and `consumers` (minimum 1)
    /// consumer threads.
    pub(crate) fn start(
        role: Arc<R>,
        addr: &str,
        max_connections: usize,
        consumers: usize,
    ) -> std::io::Result<Self> {
        let event = spawn_event_loop(
            addr,
            Arc::new(Handler(Arc::clone(&role))),
            EventLoopConfig { max_connections },
        )?;
        let _ = role.core().connections.set(event.connections_shared());
        let addr = event.addr();
        let consumers = (0..consumers.max(1))
            .map(|_| {
                let role = Arc::clone(&role);
                std::thread::spawn(move || consume(&*role))
            })
            .collect();
        Ok(Server {
            role,
            event: Some(event),
            consumers,
            addr,
        })
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop admitting, let the consumers finish what they
    /// hold, answer everything still queued or parked with
    /// `ShuttingDown`, then flush and close every connection.
    pub(crate) fn shutdown(mut self) {
        self.signal_stop();
        for consumer in self.consumers.drain(..) {
            let _ = consumer.join();
        }
        let role = &*self.role;
        while let Some(job) = role.core().queue.pop(Duration::ZERO) {
            role.refuse(job);
        }
        role.refuse_stragglers();
        if let Some(event) = self.event.take() {
            event.stop_and_join();
        }
    }

    fn signal_stop(&self) {
        let core = self.role.core();
        core.stop.store(true, Ordering::SeqCst);
        core.queue.close();
    }
}

impl<R: Role> Drop for Server<R> {
    fn drop(&mut self) {
        self.signal_stop();
    }
}

/// A consumer thread. A job popped before the stop flag rose runs
/// normally; jobs popped after it are refused with a retryable
/// `ShuttingDown` — never a dropped socket, and never a long computation
/// between the operator and the restart.
fn consume<R: Role>(role: &R) {
    let core = role.core();
    let mut worker = R::Worker::default();
    loop {
        if core.stopping() && core.queue.is_empty() {
            return;
        }
        let Some(job) = core.queue.pop(TICK) else {
            if core.stopping() {
                return;
            }
            continue;
        };
        if core.stopping() {
            role.refuse(job);
        } else {
            role.run(&mut worker, job);
        }
    }
}
