//! `galvatron-serve`: the building blocks of plan serving.
//!
//! Galvatron's planner answers a question — *how should this model run on
//! this cluster under this budget?* — whose inputs recur constantly in a
//! fleet: every job launcher, autoscaler probe and capacity study asks
//! about the same handful of models and topologies. This crate holds the
//! parts of a plan server that do not depend on how connections are
//! handled; the server itself (and the `galvatron-served` daemon) is
//! `galvatron-fleet`'s replica, which a single daemon runs as a fleet of
//! one.
//!
//! * **Wire protocol** ([`protocol`]) — JSON lines over TCP, one request
//!   per line, one response per line. Plan answers are *stable bytes*:
//!   byte-identical whether computed, cached or coalesced. The protocol
//!   owns the envelope and error constructors every server uses
//!   ([`WireResponse::direct`], [`WireResult::error`], whose retry hint
//!   is fixed per [`ErrorCode`]) and the trace extraction
//!   ([`WireRequest::trace_context`]).
//! * **Response caching** ([`ResponseCache`]) — completed answers live in
//!   a byte-budget LRU keyed on `(model JSON, topology fingerprint,
//!   budget)` — derived in one place, [`PlanKey::of`] — optionally
//!   persisted to disk so a restarted server starts warm. The topology
//!   component relies on the stability contract of
//!   [`ClusterTopology::fingerprint`](galvatron_cluster::ClusterTopology::fingerprint).
//! * **Deterministic load shedding** ([`BoundedQueue`]) — at most
//!   `queue_capacity` distinct computations wait; beyond that, requests
//!   are refused *immediately* with a structured `Overloaded` error and a
//!   `retry_after_ms` hint instead of queueing without bound.
//! * **Client** ([`PlanClient`]) — a blocking JSONL client over
//!   `std::net`.
//!
//! ```no_run
//! use galvatron_serve::PlanClient;
//!
//! let mut client = PlanClient::connect("127.0.0.1:7070".parse().unwrap()).unwrap();
//! assert_eq!(client.ping().unwrap(), galvatron_serve::PROTOCOL_VERSION);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;

pub use cache::{CacheStats, PlanKey, ResponseCache};
pub use client::PlanClient;
pub use protocol::{
    CacheEntry, ErrorCode, FleetCheckReport, PlanBody, RequestBody, ServeError, ServeStats,
    ServedPlan, WireRequest, WireResponse, WireResult, WireTraceContext, PROTOCOL_VERSION,
    RETRY_AFTER_MS, UNAVAILABLE_RETRY_MS,
};
pub use queue::{BoundedQueue, PushError};
