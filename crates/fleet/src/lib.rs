//! `galvatron-fleet`: the plan server, sharded and replicated.
//!
//! A replica answers the [`galvatron-serve`](galvatron_serve) wire
//! protocol from its own response cache; the `galvatron-served` daemon is
//! one replica with no peers. This crate scales that out to an N-replica
//! **fleet** while keeping the wire protocol, the answers and their exact
//! bytes unchanged:
//!
//! * [`event`] — an event-driven connection layer on pure `std`
//!   (non-blocking sockets, one thread blocked in `poll(2)`, woken by a
//!   finished answer), so a replica holds thousands of idle connections
//!   without a thread each.
//! * [`ring`] — a consistent-hash ring over the response-cache key
//!   `(model JSON, topology fingerprint, budget)` with FNV-1a hashing,
//!   deterministic across processes; adding a replica to an N-replica
//!   ring remaps ~1/(N+1) of the keyspace.
//! * [`replica`] — the plan server: waiter-table single-flight, the
//!   response cache with warm restarts from disk, the planner, and the
//!   peer protocol (gossip push of fresh answers to ring successors,
//!   snapshot export for joiners).
//! * [`router`] — the front-end that owns no cache: it relays raw request
//!   and response lines between clients and key owners, marks replicas
//!   dead on forward failure and retries along the ring, answers
//!   `FleetCheck` by asking every replica and comparing answer bytes, and
//!   federates `/metrics` and `/trace/slow` under a per-replica timeout.
//!
//! Both roles run on one private serving core (`serving.rs`): the parse
//! → `BadRequest` prelude, the inline control verbs, the HTTP routes, the
//! bounded queue with deterministic shedding, the consumer loop, the
//! graceful drain, the per-request trace state and the pooled peer call
//! exist once, and each role adds only its own verbs and jobs.
//!
//! The division of labor with `galvatron-serve` is deliberate: serve owns
//! the protocol, cache and stable-bytes contract; fleet owns placement,
//! replication and connection handling. A fleet of one replica *is* the
//! daemon.
//!
//! ```no_run
//! use galvatron_fleet::{FleetReplica, FleetRouter, ReplicaConfig, RouterConfig};
//! use galvatron_obs::Obs;
//! use galvatron_serve::PlanClient;
//!
//! let replica = FleetReplica::start(ReplicaConfig::default(), Obs::noop()).unwrap();
//! let router = FleetRouter::start(
//!     RouterConfig {
//!         replicas: vec![(replica.id(), replica.addr())],
//!         ..RouterConfig::default()
//!     },
//!     Obs::noop(),
//! )
//! .unwrap();
//! let mut client = PlanClient::connect(router.addr()).unwrap();
//! assert_eq!(client.ping().unwrap(), galvatron_serve::PROTOCOL_VERSION);
//! router.shutdown();
//! replica.shutdown();
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod replica;
pub mod ring;
pub mod router;
mod serving;

pub use event::{spawn_event_loop, EventLoopConfig, EventLoopHandle, LineHandler, ResponseSlot};
pub use replica::{FleetReplica, ReplicaConfig, ReplicaHandle};
pub use ring::{plan_key_hash, stable_hash, HashRing, DEFAULT_VNODES};
pub use router::{FleetRouter, RouterConfig, RouterHandle};
