//! End-to-end tests of the plan-serving daemon over real loopback TCP.
//!
//! These are the acceptance tests of the serving layer's three promises:
//!
//! * **fidelity** — a plan served over the wire is byte-identical to the
//!   answer a direct [`PlanService`] call gives, whether it was computed,
//!   cached, or coalesced onto another request's flight;
//! * **single-flight** — a herd of concurrent identical requests costs
//!   exactly one computation;
//! * **determinism under overload** — with queue capacity `Q`, exactly the
//!   requests beyond `Q` are refused, with a structured `Overloaded`
//!   error, while the daemon keeps answering control traffic.
//!
//! The daemon is a one-replica fleet ([`FleetReplica`] with no peers).
//! Worker pause/resume makes the concurrency deterministic: admission
//! control (caching, coalescing, shedding) runs on the replica's event
//! loop and keeps working while the compute pool is frozen, so tests can
//! build an exact backlog or herd before releasing it.

use galvatron::cluster::{rtx_titan_node, GIB};
use galvatron::core::OptimizerConfig;
use galvatron::fleet::{FleetReplica, ReplicaConfig};
use galvatron::model::{BertConfig, ModelSpec};
use galvatron::obs::Obs;
use galvatron::planner::{PlanRequest, PlanService, PlannerConfig};
use galvatron::serve::{ErrorCode, PlanClient, ServedPlan, WireResult};
use std::time::{Duration, Instant};

fn quick_planner() -> PlannerConfig {
    PlannerConfig {
        optimizer: OptimizerConfig {
            max_batch: 8,
            ..OptimizerConfig::default()
        },
        jobs: 2,
        ..PlannerConfig::default()
    }
}

fn bert(layers: usize, name: &str) -> ModelSpec {
    BertConfig {
        layers,
        hidden: 512,
        heads: 8,
        seq: 128,
        vocab: 30522,
    }
    .build(name)
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < deadline,
            "condition not reached within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// N≥8 concurrent clients over overlapping requests: every wire answer is
/// byte-identical to the direct `PlanService` answer, the herd collapses
/// to one computation per distinct question, and a second pass is served
/// from cache — still byte-identical.
#[test]
fn loopback_herd_matches_direct_service_with_single_flight() {
    let config = ReplicaConfig {
        workers: 2,
        queue_capacity: 16,
        planner: quick_planner(),
        ..ReplicaConfig::default()
    };
    let handle = FleetReplica::start(config, Obs::noop()).expect("bind loopback");
    let addr = handle.addr();
    let topology = rtx_titan_node(8);

    // 3 distinct questions × 3 clients each = 9 concurrent clients.
    let questions: Vec<(String, ModelSpec, u64)> = [(2usize, 8u64), (3, 8), (4, 12)]
        .iter()
        .map(|&(layers, gib)| {
            (
                format!("bert-{layers}@{gib}g"),
                bert(layers, &format!("bert-{layers}")),
                gib * GIB,
            )
        })
        .collect();

    // The ground truth: the same planner config, called directly.
    let direct = PlanService::new(quick_planner());
    let expected: Vec<String> = questions
        .iter()
        .map(|(name, model, budget)| {
            let response = direct
                .submit(&PlanRequest {
                    name: name.clone(),
                    model: model.clone(),
                    topology: topology.clone(),
                    budget_bytes: *budget,
                })
                .expect("direct planning succeeds");
            let outcome = response.outcome.expect("feasible question");
            serde_json::to_string(&WireResult::Plan(ServedPlan::from(outcome)))
                .expect("serializable")
        })
        .collect();

    // Freeze the workers so the whole herd demonstrably overlaps: every
    // client is admitted (leader or follower) before anything computes.
    handle.pause();
    let clients: Vec<_> = (0..9)
        .map(|i| {
            let (name, model, budget) = questions[i % 3].clone();
            let topology = topology.clone();
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                (
                    i % 3,
                    client.plan(&name, model, topology, budget).expect("answer"),
                )
            })
        })
        .collect();
    // All nine requests are past admission once 6 followers coalesced and
    // 3 leaders occupy queue slots.
    wait_until(Duration::from_secs(10), || {
        handle.stats().coalesced == 6 && handle.queue_len() == 3
    });
    handle.resume();

    let mut coalesced_flags = 0;
    for client in clients {
        let (question, response) = client.join().expect("client thread");
        assert!(!response.cached, "first pass must not be cached");
        if response.coalesced {
            coalesced_flags += 1;
        }
        let body = serde_json::to_string(&response.result).expect("serializable");
        assert_eq!(
            body, expected[question],
            "wire answer differs from direct PlanService answer"
        );
    }
    assert_eq!(
        coalesced_flags, 6,
        "9 clients over 3 questions: 6 followers"
    );

    let stats = handle.stats();
    assert_eq!(
        stats.computed, 3,
        "single-flight: one computation per question"
    );
    assert_eq!(stats.coalesced, 6);
    assert_eq!(stats.shed, 0);

    // Second pass on a fresh connection: served from cache, still
    // byte-identical.
    let mut client = PlanClient::connect(addr).expect("connect");
    for (question, (name, model, budget)) in questions.iter().enumerate() {
        let response = client
            .plan(name, model.clone(), topology.clone(), *budget)
            .expect("cached answer");
        assert!(response.cached, "second pass must hit the response cache");
        let body = serde_json::to_string(&response.result).expect("serializable");
        assert_eq!(body, expected[question]);
    }
    assert_eq!(handle.stats().computed, 3, "cache pass computed nothing");

    // The metrics surface agrees, over both transports. Every serve
    // metric carries the per-replica `instance` label.
    let text = client.metrics().expect("metrics over JSONL");
    assert!(text.contains("serve_requests_total"));
    assert!(text.contains("serve_coalesced_total{instance=\"replica-0\"} 6"));
    let http = http_get_metrics(addr);
    assert!(http.starts_with("HTTP/1.1 200 OK"));
    assert!(http.contains("serve_computed_total{instance=\"replica-0\"} 3"));

    handle.shutdown();
}

/// Queue capacity `Q`, workers frozen: exactly the requests beyond `Q`
/// are refused with a structured `Overloaded` + `retry_after_ms`, control
/// traffic keeps flowing, and the backlog drains correctly on release.
#[test]
fn load_shedding_is_deterministic_and_server_stays_responsive() {
    let queue_capacity = 3;
    let config = ReplicaConfig {
        workers: 1,
        queue_capacity,
        planner: quick_planner(),
        ..ReplicaConfig::default()
    };
    let handle = FleetReplica::start(config, Obs::noop()).expect("bind loopback");
    let addr = handle.addr();
    let topology = rtx_titan_node(8);

    handle.pause();
    // Fill the queue with exactly Q distinct computations.
    let fillers: Vec<_> = (0..queue_capacity)
        .map(|i| {
            let model = bert(2 + i, &format!("fill-{i}"));
            let topology = topology.clone();
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                client
                    .plan(&format!("fill-{i}"), model, topology, 8 * GIB)
                    .expect("filler answer")
            })
        })
        .collect();
    wait_until(Duration::from_secs(10), || {
        handle.queue_len() == queue_capacity
    });

    // Every request past capacity sheds, synchronously and structurally.
    let mut shed_client = PlanClient::connect(addr).expect("connect");
    for i in 0..4 {
        let model = bert(10 + i, &format!("excess-{i}"));
        let response = shed_client
            .plan(&format!("excess-{i}"), model, topology.clone(), 8 * GIB)
            .expect("shed response arrives");
        match response.result {
            WireResult::Error(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded, "{e:?}");
                assert!(
                    e.retry_after_ms.is_some(),
                    "shed errors must carry a retry hint"
                );
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert_eq!(handle.stats().shed, 4);
    assert_eq!(handle.queue_len(), queue_capacity, "shed must not queue");

    // The daemon still answers control traffic while saturated.
    let mut probe = PlanClient::connect(addr).expect("connect");
    assert_eq!(
        probe.ping().expect("ping"),
        galvatron::serve::PROTOCOL_VERSION
    );
    let stats = probe.stats().expect("stats");
    assert!(stats.paused);
    assert_eq!(stats.queue_depth, queue_capacity);

    // Release: the admitted backlog completes normally.
    handle.resume();
    for filler in fillers {
        let response = filler.join().expect("filler thread");
        assert!(
            matches!(response.result, WireResult::Plan(_)),
            "queued request must complete after resume, got {:?}",
            response.result
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.computed, queue_capacity as u64);
    assert_eq!(stats.shed, 4);
    handle.shutdown();
}

/// Request defects become structured wire errors — never panics, never a
/// dropped connection — and the daemon stays healthy afterwards.
#[test]
fn error_paths_produce_structured_wire_errors() {
    let config = ReplicaConfig {
        workers: 1,
        queue_capacity: 4,
        planner: quick_planner(),
        ..ReplicaConfig::default()
    };
    let handle = FleetReplica::start(config, Obs::noop()).expect("bind loopback");
    let mut client = PlanClient::connect(handle.addr()).expect("connect");
    let topology = rtx_titan_node(8);

    // Malformed JSON: answered (id 0 — there is no parseable id), not
    // disconnected.
    let raw = client.round_trip_raw("{this is not json").expect("answer");
    let response: galvatron::serve::WireResponse = serde_json::from_str(&raw).expect("parses");
    assert_eq!(response.id, 0);
    match &response.result {
        WireResult::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Structurally invalid topology (device count disagrees with the
    // level cover): serde parses it, validate() must reject it.
    let good = serde_json::to_string(&galvatron::serve::WireRequest {
        id: 41,
        name: "tampered".to_string(),
        trace: None,
        body: galvatron::serve::RequestBody::Plan(galvatron::serve::PlanBody {
            model: bert(2, "tiny"),
            topology: topology.clone(),
            budget_bytes: 8 * GIB,
        }),
    })
    .unwrap();
    let tampered = good.replace("\"n_devices\":8", "\"n_devices\":12");
    assert_ne!(good, tampered, "tampering must hit the serialized field");
    let raw = client.round_trip_raw(&tampered).expect("answer");
    let response: galvatron::serve::WireResponse = serde_json::from_str(&raw).expect("parses");
    assert_eq!(response.id, 41);
    match &response.result {
        WireResult::Error(e) => {
            assert_eq!(e.code, ErrorCode::InvalidTopology, "{e:?}");
            assert!(e.retry_after_ms.is_none(), "defects are not retryable");
        }
        other => panic!("expected InvalidTopology, got {other:?}"),
    }

    // A zero budget is answerable — deterministically infeasible.
    let response = client
        .plan("zero-budget", bert(2, "tiny"), topology.clone(), 0)
        .expect("answer");
    match &response.result {
        WireResult::Error(e) => assert_eq!(e.code, ErrorCode::Infeasible, "{e:?}"),
        other => panic!("expected Infeasible, got {other:?}"),
    }

    // So is a model nothing in the search space can fit.
    let huge = BertConfig {
        layers: 24,
        hidden: 4096,
        heads: 32,
        seq: 512,
        vocab: 30522,
    }
    .build("bert-huge");
    let response = client
        .plan("huge@1g", huge, topology.clone(), GIB / 4)
        .expect("answer");
    match &response.result {
        WireResult::Error(e) => assert_eq!(e.code, ErrorCode::Infeasible, "{e:?}"),
        other => panic!("expected Infeasible, got {other:?}"),
    }

    // After all of that, the same connection still plans successfully.
    let response = client
        .plan("ok", bert(2, "tiny"), topology, 8 * GIB)
        .expect("answer");
    assert!(matches!(response.result, WireResult::Plan(_)));
    handle.shutdown();
}

/// A request that panics inside the planner (a hidden size whose products
/// overflow the activation arithmetic under overflow checks) is answered
/// with a structured `PlannerError`, and the replica's only worker keeps
/// serving: the next valid request is computed.
#[test]
fn planner_panic_is_answered_and_the_worker_survives() {
    let config = ReplicaConfig {
        workers: 1,
        queue_capacity: 1,
        planner: quick_planner(),
        ..ReplicaConfig::default()
    };
    let handle = FleetReplica::start(config, Obs::noop()).expect("bind loopback");
    let mut client = PlanClient::connect(handle.addr()).expect("connect");
    let topology = rtx_titan_node(8);

    let request = serde_json::to_string(&galvatron::serve::WireRequest {
        id: 7,
        name: "overflow".to_string(),
        trace: None,
        body: galvatron::serve::RequestBody::Plan(galvatron::serve::PlanBody {
            model: bert(2, "overflow"),
            topology: topology.clone(),
            budget_bytes: 8 * GIB,
        }),
    })
    .unwrap();
    let overflowing = request.replace("\"hidden\":512", &format!("\"hidden\":{}", u64::MAX));
    assert_ne!(request, overflowing, "tampering must hit the hidden size");
    let raw = client.round_trip_raw(&overflowing).expect("answer");
    let response: galvatron::serve::WireResponse = serde_json::from_str(&raw).expect("parses");
    assert_eq!(response.id, 7);
    // Without overflow checks the arithmetic wraps instead of panicking,
    // and the verdict is whatever the wrapped numbers say.
    if cfg!(debug_assertions) {
        match &response.result {
            WireResult::Error(e) => assert_eq!(e.code, ErrorCode::PlannerError, "{e:?}"),
            other => panic!("expected PlannerError, got {other:?}"),
        }
        assert!(
            client
                .metrics()
                .expect("metrics")
                .contains("serve_planner_panics_total{instance=\"replica-0\"} 1"),
            "the panic must be counted"
        );
    }

    let response = client
        .plan("ok", bert(2, "tiny"), topology.clone(), 8 * GIB)
        .expect("the worker survived the panic");
    // The panic left no trace in the worker: its answer matches a fresh
    // service's byte for byte.
    let fresh = PlanService::new(quick_planner())
        .submit(&PlanRequest {
            name: "ok".to_string(),
            model: bert(2, "tiny"),
            topology,
            budget_bytes: 8 * GIB,
        })
        .expect("direct planning succeeds")
        .outcome
        .expect("feasible question");
    assert_eq!(
        serde_json::to_string(&response.result).expect("serializable"),
        serde_json::to_string(&WireResult::Plan(ServedPlan::from(fresh))).expect("serializable"),
        "the answer after a panic must match a fresh service's"
    );
    assert_eq!(handle.stats().computed, 2);
    handle.shutdown();
}

/// A daemon restarted with a persisted cache answers its first request
/// from cache — zero computations — also when only answer-neutral knobs
/// (worker count, pruning) changed, but ignores snapshots
/// written under a different optimizer configuration.
#[test]
fn persisted_cache_survives_restart_and_gates_on_config() {
    let dir = std::env::temp_dir().join(format!("galvatron-serve-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let snapshot = dir.join("cache.json");
    let topology = rtx_titan_node(8);
    let model = bert(2, "tiny");

    let config = ReplicaConfig {
        workers: 1,
        queue_capacity: 4,
        persist_path: Some(snapshot.clone()),
        planner: quick_planner(),
        ..ReplicaConfig::default()
    };

    // Cold daemon: computes, then persists at shutdown.
    let cold = FleetReplica::start(config.clone(), Obs::noop()).expect("bind");
    let mut client = PlanClient::connect(cold.addr()).expect("connect");
    let first = client
        .plan("tiny@8g", model.clone(), topology.clone(), 8 * GIB)
        .expect("answer");
    assert!(!first.cached);
    assert_eq!(cold.stats().computed, 1);
    drop(client);
    cold.shutdown();
    assert!(snapshot.exists(), "shutdown must write the snapshot");

    // Warm restart, same config: first request is a cache hit,
    // byte-identical, zero computations.
    let warm = FleetReplica::start(config.clone(), Obs::noop()).expect("bind");
    let mut client = PlanClient::connect(warm.addr()).expect("connect");
    let again = client
        .plan("tiny@8g", model.clone(), topology.clone(), 8 * GIB)
        .expect("answer");
    assert!(
        again.cached,
        "warm restart must serve from the loaded cache"
    );
    assert_eq!(
        serde_json::to_string(&again.result).unwrap(),
        serde_json::to_string(&first.result).unwrap()
    );
    assert_eq!(warm.stats().computed, 0);
    drop(client);
    warm.shutdown();

    // Knobs that cannot change an answer: the snapshot still applies.
    let mut retuned = config.clone();
    retuned.planner.jobs = 1; // `quick_planner` runs 2
    retuned.planner.prune = false;
    let retuned = FleetReplica::start(retuned, Obs::noop()).expect("bind");
    let mut client = PlanClient::connect(retuned.addr()).expect("connect");
    let reused = client
        .plan("tiny@8g", model.clone(), topology.clone(), 8 * GIB)
        .expect("answer");
    assert!(
        reused.cached,
        "jobs/prune changes must keep the persisted cache"
    );
    assert_eq!(
        serde_json::to_string(&reused.result).unwrap(),
        serde_json::to_string(&first.result).unwrap()
    );
    assert_eq!(retuned.stats().computed, 0);
    drop(client);
    retuned.shutdown();

    // Different optimizer constants: the snapshot must be ignored, not
    // served stale.
    let mut reconfigured = config;
    reconfigured.planner.optimizer.max_batch = 4;
    let fresh = FleetReplica::start(reconfigured, Obs::noop()).expect("bind");
    let mut client = PlanClient::connect(fresh.addr()).expect("connect");
    let recomputed = client
        .plan("tiny@8g", model, topology, 8 * GIB)
        .expect("answer");
    assert!(
        !recomputed.cached,
        "a snapshot from another config must not be served"
    );
    assert_eq!(fresh.stats().computed, 1);
    drop(client);
    fresh.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

/// Graceful drain: a request being computed when shutdown starts is
/// finished and answered with its plan; requests still queued are answered
/// with a structured `ShuttingDown` error — never a dropped socket.
#[test]
fn shutdown_drains_in_flight_and_answers_queued_with_shutting_down() {
    let config = ReplicaConfig {
        workers: 1,
        queue_capacity: 4,
        planner: quick_planner(),
        ..ReplicaConfig::default()
    };
    let handle = FleetReplica::start(config, Obs::noop()).expect("bind loopback");
    let addr = handle.addr();
    let topology = rtx_titan_node(8);

    // Admit job A while the worker is frozen, then release it and wait
    // until the worker has *popped* it — A is now in flight.
    handle.pause();
    let in_flight = {
        let topology = topology.clone();
        std::thread::spawn(move || {
            let mut client = PlanClient::connect(addr).expect("connect");
            client
                .plan("in-flight", bert(2, "in-flight"), topology, 8 * GIB)
                .expect("in-flight answer arrives")
        })
    };
    wait_until(Duration::from_secs(10), || handle.queue_len() == 1);
    handle.resume();
    wait_until(Duration::from_secs(10), || handle.queue_len() == 0);

    // Re-freeze pops and queue job B behind the busy worker: B cannot be
    // popped until shutdown() unpauses — by which time the stop flag is
    // already up, so B's fate is deterministic.
    handle.pause();
    let queued = std::thread::spawn(move || {
        let mut client = PlanClient::connect(addr).expect("connect");
        client
            .plan("queued", bert(4, "queued"), topology, 8 * GIB)
            .expect("queued answer arrives — the socket must not be dropped")
    });
    wait_until(Duration::from_secs(10), || handle.queue_len() == 1);

    handle.shutdown();

    let in_flight = in_flight.join().expect("in-flight client");
    assert!(
        matches!(in_flight.result, WireResult::Plan(_)),
        "in-flight computation must finish through the drain, got {:?}",
        in_flight.result
    );
    let queued = queued.join().expect("queued client");
    match queued.result {
        WireResult::Error(e) => {
            assert_eq!(e.code, ErrorCode::ShuttingDown, "{e:?}");
            assert!(
                e.retry_after_ms.is_some(),
                "shutdown answers must carry a retry hint"
            );
        }
        other => panic!("expected ShuttingDown for the queued request, got {other:?}"),
    }
}

/// `GET /healthz` answers `200 ok` with the configured instance name, and
/// unknown paths get a 404 instead of a dropped connection.
#[test]
fn healthz_reports_instance_and_unknown_paths_get_404() {
    let config = ReplicaConfig {
        workers: 1,
        queue_capacity: 4,
        planner: quick_planner(),
        instance: Some("serve-az1".to_string()),
        ..ReplicaConfig::default()
    };
    let handle = FleetReplica::start(config, Obs::noop()).expect("bind loopback");
    let addr = handle.addr();

    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(
        health.contains("\"status\":\"ok\",\"instance\":\"serve-az1\""),
        "{health}"
    );

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404 Not Found"), "{missing}");

    // The instance label reaches the metrics exposition too.
    let mut client = PlanClient::connect(addr).expect("connect");
    client.ping().expect("ping");
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("serve_requests_total{instance=\"serve-az1\"}"),
        "{metrics}"
    );
    handle.shutdown();
}

/// A raw HTTP scrape of the serving port.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .expect("send");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read");
    body
}

fn http_get_metrics(addr: std::net::SocketAddr) -> String {
    http_get(addr, "/metrics")
}
