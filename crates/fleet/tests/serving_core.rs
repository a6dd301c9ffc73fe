//! Contracts the replica and the router share through their common
//! serving core, pinned over real loopback TCP:
//!
//! * **wire-error parity** — the same bad input gets the same structured
//!   error envelope (`code`, `id`, `name`, `retry_after_ms`) from either
//!   role, and the connection keeps serving afterwards;
//! * **bounded federation** — a router member that accepts connections
//!   but never answers cannot freeze the router's event loop: `/metrics`
//!   and `/trace/slow` skip it after a fixed timeout;
//! * **stable cache keys** — the key derivation that persisted caches,
//!   ring ownership and owner probes all depend on hashes to a pinned
//!   value for one paper model.

use galvatron_cluster::{rtx_titan_node, GIB};
use galvatron_core::OptimizerConfig;
use galvatron_fleet::{
    plan_key_hash, FleetReplica, FleetRouter, ReplicaConfig, ReplicaHandle, RouterConfig,
    RouterHandle,
};
use galvatron_model::{BertConfig, PaperModel};
use galvatron_obs::Obs;
use galvatron_planner::PlannerConfig;
use galvatron_serve::{
    ErrorCode, PlanBody, PlanClient, PlanKey, RequestBody, WireRequest, WireResponse, WireResult,
    PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// How long a test waits on an answer that the fixed code gives at once
/// (the router's scrape timeout included) before calling it a hang.
const HANG_DEADLINE: Duration = Duration::from_secs(15);

fn quick_planner() -> PlannerConfig {
    PlannerConfig {
        optimizer: OptimizerConfig {
            max_batch: 8,
            ..OptimizerConfig::default()
        },
        jobs: 1,
        ..PlannerConfig::default()
    }
}

fn start_replica(id: usize) -> ReplicaHandle {
    FleetReplica::start(
        ReplicaConfig {
            id,
            planner: quick_planner(),
            ..ReplicaConfig::default()
        },
        Obs::noop(),
    )
    .expect("bind loopback replica")
}

fn start_router(replicas: Vec<(usize, SocketAddr)>) -> RouterHandle {
    FleetRouter::start(
        RouterConfig {
            replicas,
            forwarders: 1,
            ..RouterConfig::default()
        },
        Obs::noop(),
    )
    .expect("bind loopback router")
}

fn tiny_plan_body() -> PlanBody {
    PlanBody {
        model: BertConfig {
            layers: 2,
            hidden: 256,
            heads: 4,
            seq: 64,
            vocab: 1000,
        }
        .build("tiny"),
        topology: rtx_titan_node(8),
        budget_bytes: 8 * GIB,
    }
}

fn line(id: u64, name: &str, body: RequestBody) -> String {
    serde_json::to_string(&WireRequest {
        id,
        name: name.to_string(),
        trace: None,
        body,
    })
    .expect("requests serialize")
}

/// Send `line` and parse the answer.
fn ask(client: &mut PlanClient, line: &str) -> WireResponse {
    let answer = client.round_trip_raw(line).expect("round trip");
    serde_json::from_str(&answer).expect("answers parse")
}

/// Assert `response` is the structured error `code` for request
/// `(id, name)`, with `message` and retry hint as given.
fn assert_error(
    response: &WireResponse,
    id: u64,
    name: &str,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) {
    assert_eq!((response.id, response.name.as_str()), (id, name));
    assert!(!response.cached && !response.coalesced);
    assert_eq!(response.attribution, None);
    match &response.result {
        WireResult::Error(e) => {
            assert_eq!(e.code, code, "{response:?}");
            assert!(e.message.starts_with(message), "{response:?}");
            assert_eq!(e.retry_after_ms, retry_after_ms, "{response:?}");
        }
        other => panic!("expected a {code:?} error, got {other:?}"),
    }
}

fn assert_pings(client: &mut PlanClient) {
    assert_eq!(client.ping().expect("ping"), PROTOCOL_VERSION);
}

/// The same bad inputs, sent to a replica and to a router, get the same
/// envelopes — and each connection answers a `Ping` afterwards.
#[test]
fn wire_errors_match_across_roles() {
    let replica = start_replica(0);
    let router = start_router(vec![(replica.id(), replica.addr())]);
    let mut to_replica = PlanClient::connect(replica.addr()).expect("connect replica");
    let mut to_router = PlanClient::connect(router.addr()).expect("connect router");

    // Malformed JSON: both roles answer id 0 with an empty name.
    for client in [&mut to_replica, &mut to_router] {
        let response = ask(client, "{\"id\":5,\"body\":");
        assert_error(
            &response,
            0,
            "",
            ErrorCode::BadRequest,
            "unparseable request line: ",
            None,
        );
        assert_pings(client);
    }

    // Peer-protocol verbs are a replica's business.
    let peer_verbs = [
        RequestBody::SnapshotPull { max_entries: 4 },
        RequestBody::GossipPush { entries: vec![] },
    ];
    for (i, body) in peer_verbs.into_iter().enumerate() {
        let id = 10 + i as u64;
        let response = ask(&mut to_router, &line(id, "peer", body));
        assert_error(
            &response,
            id,
            "peer",
            ErrorCode::BadRequest,
            "the router holds no cache; address peer-protocol requests to a replica",
            None,
        );
        assert_pings(&mut to_router);
    }

    // FleetCheck is a router's business.
    let check = line(20, "check", RequestBody::FleetCheck(tiny_plan_body()));
    let response = ask(&mut to_replica, &check);
    assert_error(
        &response,
        20,
        "check",
        ErrorCode::BadRequest,
        "FleetCheck requires a fleet router; this is a replica",
        None,
    );
    assert_pings(&mut to_replica);

    // A router with no live member refuses plans as retryable.
    for id in router.live_replicas() {
        router.remove_replica(id);
    }
    let plan = line(30, "orphan", RequestBody::Plan(tiny_plan_body()));
    let response = ask(&mut to_router, &plan);
    assert_error(
        &response,
        30,
        "orphan",
        ErrorCode::Unavailable,
        "no live replica to forward to",
        Some(200),
    );
    assert_pings(&mut to_router);

    router.shutdown();
    replica.shutdown();
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// Run `work` on its own thread and wait at most [`HANG_DEADLINE`].
fn within_deadline<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    rx.recv_timeout(HANG_DEADLINE).ok()
}

/// A member that accepts connections but never answers (a stopped
/// process, say) is skipped by the router's federated scrapes instead of
/// freezing its event loop, and plain traffic keeps flowing.
#[test]
fn federated_scrapes_skip_a_member_that_never_answers() {
    // The kernel completes handshakes into the backlog; nothing ever
    // accepts or reads, so a request to this member is never answered.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind silent member");
    let router = start_router(vec![(0, silent.local_addr().expect("silent addr"))]);
    let addr = router.addr();

    let metrics = within_deadline(move || http_get(addr, "/metrics"));
    let slow = metrics
        .as_ref()
        .and_then(|_| within_deadline(move || http_get(addr, "/trace/slow")));
    let ping = slow.as_ref().and_then(|_| {
        within_deadline(move || {
            PlanClient::connect(addr)
                .and_then(|mut client| client.ping())
                .ok()
        })
    });
    let (Some(metrics), Some(slow), Some(ping)) = (metrics, slow, ping) else {
        // The router's event loop is wedged; its handle would hang in
        // drop, so leak it and fail.
        std::mem::forget(router);
        panic!("the router stopped answering behind a silent member");
    };
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(
        metrics.contains("fleet_router_live_replicas{instance=\"router\"} 1"),
        "the router's own series must survive a failed scrape: {metrics}"
    );
    assert!(slow.starts_with("HTTP/1.1 200 OK"), "{slow}");
    assert!(slow.ends_with("[]\n"), "{slow}");
    assert_eq!(ping, Some(PROTOCOL_VERSION));

    router.shutdown();
    drop(silent);
}

/// The cache key of one paper question, hashed. Persisted caches, ring
/// ownership and the benchmark's owner probes all depend on this value;
/// it must only change on purpose.
#[test]
fn plan_key_derivation_is_pinned() {
    let body = PlanBody {
        model: PaperModel::BertHuge32.spec(),
        topology: rtx_titan_node(8),
        budget_bytes: 8 * GIB,
    };
    let key = PlanKey::of(&body);
    // The derivation the key has always had (and the one frozen copies of
    // it, such as the benchmark's, still use).
    let hand_built = PlanKey {
        model_json: serde_json::to_string(&body.model).expect("models serialize"),
        topology_fingerprint: body.topology.fingerprint(),
        budget_bytes: body.budget_bytes,
    };
    assert_eq!(key, hand_built);
    assert_eq!(plan_key_hash(&key), 0x70bb_f97c_cba5_fde5);
}
