//! `galvatron-bench-serve` — load generator for the plan-serving layer.
//!
//! **Single-daemon mode** (default) starts an in-process daemon — a
//! [`FleetReplica`] with no peers, as `galvatron-served` runs — and drives
//! five phases over real loopback TCP — cold, warm, the 64-GPU/100-layer
//! cold scaling point, thundering herd, shed — writing `BENCH_serve.json` and failing
//! unless warm-cache throughput beats cold by 5×, the scale point plans
//! exactly one cold DP and answers its warm repeat from cache, the herd
//! coalesces to one computation, and overload sheds.
//!
//! **Fleet mode** (`--fleet N`) starts N event-driven replicas plus a
//! consistent-hash router, all in-process over loopback, and drives:
//!
//! 1. **connections** — ≥1k concurrent idle connections against one
//!    replica, every one of which still answers a ping (the event-driven
//!    connection layer's reason to exist; a thread-per-connection server
//!    would need a thousand threads).
//! 2. **cold / warm** — the request zoo through the router, uncached then
//!    cached, with p50/p99 latency and requests/sec.
//! 3. **byte-identity** — `FleetCheck` per key: every replica must produce
//!    byte-identical answer payloads (this also warms every replica).
//! 4. **zipf** — a zipf(s)-distributed request mix from parallel clients
//!    through the router, the realistic hot-key workload. Every zipf
//!    client carries a seeded trace context, so the fleet's slow-trace
//!    rings fill with real span trees.
//! 5. **trace** — one cold, traced, attribution-opted request through the
//!    router. Its [`AttributionRecord`] phases must sum to within 5% of
//!    the client-observed wall time, the recorded spans must form one
//!    linked tree spanning router → replica → planner, and the router's
//!    `/trace/slow` endpoint must be non-empty after the zipf phase.
//!    Results go to `BENCH_trace.json`; every span the fleet recorded is
//!    dumped as JSONL for `galvatron-trace` to replay.
//! 6. **warm-join** — a brand-new replica pulls a peer snapshot and must
//!    answer every covered question **without a single cold DP run**.
//! 7. **kill** — one replica is shut down mid-run; re-asking every key
//!    through the router must still answer, byte-identical to before.
//!
//! Results go to `BENCH_fleet.json`; the bench exits non-zero if any gate
//! fails.

use galvatron_bench::paper::{scale_point_model, SCALE_POINT_LAYERS};
use galvatron_cluster::{rtx_titan_node, TestbedPreset, GIB};
use galvatron_core::OptimizerConfig;
use galvatron_fleet::{FleetReplica, FleetRouter, ReplicaConfig, RouterConfig};
use galvatron_model::{BertConfig, ModelSpec};
use galvatron_obs::trace::record_link;
use galvatron_obs::{
    AttributionRecord, MetricsRegistry, Obs, RingBufferSink, SampleValue, SlowTraceEntry,
    SpanRecord, TraceIdGen,
};
use galvatron_planner::PlannerConfig;
use galvatron_serve::{ErrorCode, PlanClient, WireResult, WireTraceContext};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans each fleet instance's ring-buffer sink retains for the dump.
const SPAN_SINK_CAPACITY: usize = 8192;

#[derive(Serialize)]
struct PhaseReport {
    requests: usize,
    seconds: f64,
    requests_per_sec: f64,
}

#[derive(Serialize)]
struct HerdReport {
    clients: usize,
    coalesced: u64,
    computed_delta: u64,
    seconds: f64,
}

#[derive(Serialize)]
struct ShedReport {
    queue_capacity: usize,
    offered: usize,
    shed: u64,
    accepted: usize,
}

#[derive(Serialize)]
struct ScalePointReport {
    model: String,
    layers: usize,
    devices: usize,
    budget_gib: u64,
    cold_ms: f64,
    warm_ms: f64,
    cold_computed: u64,
    warm_computed: u64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    distinct_requests: usize,
    max_batch: usize,
    cold: PhaseReport,
    warm: PhaseReport,
    warm_over_cold_speedup: f64,
    scale_point: ScalePointReport,
    herd: HerdReport,
    shed: ShedReport,
}

#[derive(Serialize)]
struct LatencyReport {
    requests: usize,
    seconds: f64,
    requests_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct ConnectionsReport {
    target: usize,
    peak: usize,
    pings_answered: usize,
    seconds: f64,
}

#[derive(Serialize)]
struct ByteIdentityReport {
    keys: usize,
    replicas: usize,
    all_identical: bool,
}

#[derive(Serialize)]
struct ZipfReport {
    clients: usize,
    s: f64,
    latency: LatencyReport,
}

#[derive(Serialize)]
struct TracePhaseReport {
    bench: &'static str,
    trace_id: String,
    client_ms: f64,
    attributed_ms: f64,
    phase_sum_ms: f64,
    phase_sum_over_client: f64,
    phases_ms: Vec<(String, f64)>,
    linked_spans: usize,
    spans_reaching_client_root: usize,
    instances_in_tree: usize,
    slow_trace_entries: usize,
}

#[derive(Serialize)]
struct SpanDumpLine {
    instance: String,
    span: SpanRecord,
}

#[derive(Serialize)]
struct WarmJoinReport {
    imported: usize,
    computed_before: u64,
    computed_after: u64,
    fleet_computed_delta_after_rejoin: u64,
}

#[derive(Serialize)]
struct KillReport {
    killed_id: usize,
    reanswered: usize,
    identical: bool,
    router_failovers: u64,
}

#[derive(Serialize)]
struct FleetBenchReport {
    bench: &'static str,
    replicas: usize,
    distinct_requests: usize,
    max_batch: usize,
    gossip_fanout: usize,
    connections: ConnectionsReport,
    cold: LatencyReport,
    warm: LatencyReport,
    byte_identity: ByteIdentityReport,
    zipf: ZipfReport,
    warm_join: WarmJoinReport,
    kill: KillReport,
    gossip_sent_total: u64,
    computed_total: u64,
}

fn workload() -> Vec<(String, ModelSpec, u64)> {
    let mut requests = Vec::new();
    for layers in [2usize, 4, 6] {
        let model = BertConfig {
            layers,
            hidden: 512,
            heads: 8,
            seq: 128,
            vocab: 30522,
        }
        .build(&format!("bert-{layers}"));
        for budget_gib in [6u64, 8] {
            requests.push((
                format!("bert-{layers}@{budget_gib}g"),
                model.clone(),
                budget_gib * GIB,
            ));
        }
    }
    requests
}

fn run_phase(
    addr: SocketAddr,
    requests: &[(String, ModelSpec, u64)],
) -> std::io::Result<PhaseReport> {
    let topology = rtx_titan_node(8);
    let mut client = PlanClient::connect(addr)?;
    let started = Instant::now();
    for (name, model, budget) in requests {
        let response = client.plan(name, model.clone(), topology.clone(), *budget)?;
        if let WireResult::Error(e) = &response.result {
            if e.code != ErrorCode::Infeasible {
                return Err(std::io::Error::other(format!(
                    "{name}: unexpected error {e:?}"
                )));
            }
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    Ok(PhaseReport {
        requests: requests.len(),
        seconds,
        requests_per_sec: requests.len() as f64 / seconds.max(1e-9),
    })
}

/// p50/p99 via the registry's bucket-interpolated
/// [`HistogramSample::quantile`](galvatron_obs::HistogramSample::quantile)
/// — the same estimator the serving fleet exports, so bench numbers and
/// production metrics agree on semantics.
fn latency_report(per_request_ms: Vec<f64>, seconds: f64) -> LatencyReport {
    let registry = MetricsRegistry::new();
    let histogram = registry.wall_histogram("bench_request_seconds");
    for ms in &per_request_ms {
        histogram.observe(ms / 1e3);
    }
    let snapshot = registry.snapshot();
    let sample = snapshot.metrics.iter().find_map(|m| match &m.value {
        SampleValue::Histogram(h) => Some(h),
        _ => None,
    });
    let quantile_ms = |q: f64| -> f64 { sample.and_then(|h| h.quantile(q)).unwrap_or(0.0) * 1e3 };
    LatencyReport {
        requests: per_request_ms.len(),
        seconds,
        requests_per_sec: per_request_ms.len() as f64 / seconds.max(1e-9),
        p50_ms: quantile_ms(0.50),
        p99_ms: quantile_ms(0.99),
    }
}

/// Run the zoo once through `addr`, timing each request.
fn run_latency_phase(
    addr: SocketAddr,
    requests: &[(String, ModelSpec, u64)],
) -> std::io::Result<LatencyReport> {
    let topology = rtx_titan_node(8);
    let mut client = PlanClient::connect(addr)?;
    let mut per_request_ms = Vec::with_capacity(requests.len());
    let started = Instant::now();
    for (name, model, budget) in requests {
        let one = Instant::now();
        let response = client.plan(name, model.clone(), topology.clone(), *budget)?;
        per_request_ms.push(one.elapsed().as_secs_f64() * 1e3);
        if let WireResult::Error(e) = &response.result {
            if e.code != ErrorCode::Infeasible {
                return Err(std::io::Error::other(format!(
                    "{name}: unexpected error {e:?}"
                )));
            }
        }
    }
    Ok(latency_report(
        per_request_ms,
        started.elapsed().as_secs_f64(),
    ))
}

struct Flags {
    out: Option<String>,
    trace_out: Option<String>,
    spans_out: Option<String>,
    max_batch: usize,
    herd_clients: usize,
    fleet: usize,
    connections: usize,
    zipf_requests: usize,
    zipf_clients: usize,
    zipf_s: f64,
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        out: None,
        trace_out: None,
        spans_out: None,
        max_batch: 16,
        herd_clients: 12,
        fleet: 0,
        connections: 1100,
        zipf_requests: 240,
        zipf_clients: 8,
        zipf_s: 1.1,
    };
    let mut args = std::env::args().skip(1);
    let next = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} requires a value"))
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => flags.out = Some(next("--out", &mut args)),
            "--trace-out" => flags.trace_out = Some(next("--trace-out", &mut args)),
            "--spans-out" => flags.spans_out = Some(next("--spans-out", &mut args)),
            "--max-batch" => {
                flags.max_batch = next("--max-batch", &mut args)
                    .parse()
                    .expect("--max-batch requires a number");
            }
            "--herd-clients" => {
                flags.herd_clients = next("--herd-clients", &mut args)
                    .parse()
                    .expect("--herd-clients requires a number");
            }
            "--fleet" => {
                flags.fleet = next("--fleet", &mut args)
                    .parse()
                    .expect("--fleet requires a replica count");
            }
            "--connections" => {
                flags.connections = next("--connections", &mut args)
                    .parse()
                    .expect("--connections requires a number");
            }
            "--zipf-requests" => {
                flags.zipf_requests = next("--zipf-requests", &mut args)
                    .parse()
                    .expect("--zipf-requests requires a number");
            }
            other => {
                eprintln!("galvatron-bench-serve: unknown flag {other}");
                eprintln!(
                    "usage: galvatron-bench-serve [--fleet N] [--out FILE] [--trace-out FILE] \
                     [--spans-out FILE] [--max-batch B] [--herd-clients C] [--connections K] \
                     [--zipf-requests Z]"
                );
                std::process::exit(2);
            }
        }
    }
    flags
}

fn main() {
    let flags = parse_flags();
    if flags.fleet > 0 {
        run_fleet_bench(&flags);
    } else {
        run_single_bench(&flags);
    }
}

// ---------------------------------------------------------------------------
// Fleet mode
// ---------------------------------------------------------------------------

fn planner(max_batch: usize) -> PlannerConfig {
    PlannerConfig {
        optimizer: OptimizerConfig {
            max_batch,
            ..OptimizerConfig::default()
        },
        ..PlannerConfig::default()
    }
}

/// The zipf(s) inverse CDF over `n` ranks (the vendored `rand` has no
/// distribution module, so the sampling is explicit).
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

fn fail(message: &str) -> ! {
    eprintln!("galvatron-bench-serve: FAIL — {message}");
    std::process::exit(1);
}

fn run_fleet_bench(flags: &Flags) {
    let n = flags.fleet;
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let gossip_fanout = 1usize;
    let requests = workload();

    // Start N replicas, introduce them to each other, front with a router.
    // Every instance gets a real span sink so the trace phase can stitch
    // the cross-process tree back together and dump it for the
    // `galvatron-trace` report.
    let mut sinks: Vec<(String, Arc<RingBufferSink>)> = Vec::new();
    let replicas: Vec<_> = (0..n)
        .map(|id| {
            let sink = Arc::new(RingBufferSink::new(SPAN_SINK_CAPACITY));
            sinks.push((format!("replica-{id}"), sink.clone()));
            FleetReplica::start(
                ReplicaConfig {
                    id,
                    workers: 1,
                    gossip_fanout,
                    planner: planner(flags.max_batch),
                    ..ReplicaConfig::default()
                },
                Obs::new(Arc::new(MetricsRegistry::new()), sink),
            )
            .expect("bind replica")
        })
        .collect();
    let members: Vec<(usize, SocketAddr)> = replicas.iter().map(|r| (r.id(), r.addr())).collect();
    for replica in &replicas {
        replica.set_peers(&members);
    }
    let router_sink = Arc::new(RingBufferSink::new(SPAN_SINK_CAPACITY));
    sinks.push(("router".to_string(), router_sink.clone()));
    let router = FleetRouter::start(
        RouterConfig {
            replicas: members.clone(),
            ..RouterConfig::default()
        },
        Obs::new(Arc::new(MetricsRegistry::new()), router_sink),
    )
    .expect("bind router");
    eprintln!(
        "galvatron-bench-serve: fleet of {n} replicas behind router {} ({} distinct requests)",
        router.addr(),
        requests.len()
    );

    // Phase 1: ≥1k concurrent idle connections on replica 0, all answering.
    let connections = connections_phase(&replicas[0], flags.connections);
    eprintln!(
        "  connections: {} open (target {}), {} pings answered ({:.2}s)",
        connections.peak, connections.target, connections.pings_answered, connections.seconds
    );
    if connections.target >= 1000 && connections.peak < 1000 {
        fail("event-driven replica did not sustain 1000 concurrent connections");
    }
    if connections.pings_answered < connections.target {
        fail("not every concurrent connection was answered");
    }

    // Phase 2: cold then warm, through the router.
    let cold = run_latency_phase(router.addr(), &requests).expect("cold phase");
    eprintln!(
        "  cold: {:.2} req/s, p50 {:.1}ms, p99 {:.1}ms",
        cold.requests_per_sec, cold.p50_ms, cold.p99_ms
    );
    let warm = run_latency_phase(router.addr(), &requests).expect("warm phase");
    eprintln!(
        "  warm: {:.2} req/s, p50 {:.1}ms, p99 {:.1}ms",
        warm.requests_per_sec, warm.p50_ms, warm.p99_ms
    );

    // Phase 3: cross-replica byte identity (also warms every replica's
    // cache with every key, which later phases rely on).
    let mut check_client = PlanClient::connect(router.addr()).expect("connect router");
    let mut identity_payloads = Vec::with_capacity(requests.len());
    let mut all_identical = true;
    for (name, model, budget) in &requests {
        let report = check_client
            .fleet_check(name, model.clone(), rtx_titan_node(8), *budget)
            .expect("fleet check");
        if report.replicas != n || !report.byte_identical {
            eprintln!(
                "  byte-identity: {name}: {} replicas, identical={}",
                report.replicas, report.byte_identical
            );
            all_identical = false;
        }
        identity_payloads.push(report.answer_json);
    }
    let byte_identity = ByteIdentityReport {
        keys: requests.len(),
        replicas: n,
        all_identical,
    };
    eprintln!(
        "  byte-identity: {} keys × {} replicas, identical={}",
        byte_identity.keys, byte_identity.replicas, byte_identity.all_identical
    );
    if !all_identical {
        fail("cross-replica answers were not byte-identical");
    }

    // Phase 4: zipf-distributed hot-key mix from parallel clients.
    let zipf = zipf_phase(router.addr(), &requests, flags);
    eprintln!(
        "  zipf(s={}): {} clients, {:.2} req/s, p50 {:.1}ms, p99 {:.1}ms",
        zipf.s,
        zipf.clients,
        zipf.latency.requests_per_sec,
        zipf.latency.p50_ms,
        zipf.latency.p99_ms
    );

    // Phase 5: one cold traced request with latency attribution, plus the
    // slow-trace federation gate. Writes BENCH_trace.json and the span
    // dump `galvatron-trace` replays.
    let trace_out = flags
        .trace_out
        .clone()
        .unwrap_or_else(|| "BENCH_trace.json".to_string());
    let trace = trace_phase(router.addr(), &sinks);
    eprintln!(
        "  trace: {} spans linked ({} reach the client root, {} instances), \
         phases {:.1}ms vs client {:.1}ms, {} slow traces",
        trace.linked_spans,
        trace.spans_reaching_client_root,
        trace.instances_in_tree,
        trace.phase_sum_ms,
        trace.client_ms,
        trace.slow_trace_entries
    );
    let trace_json = serde_json::to_string_pretty(&serde_json::to_value(&trace).unwrap()).unwrap();
    std::fs::write(&trace_out, format!("{trace_json}\n")).expect("write trace report");
    eprintln!("galvatron-bench-serve: wrote {trace_out}");

    // Phase 6: warm-join. A new replica pulls a snapshot from replica 0 and
    // must answer every covered question without a cold DP run.
    let joiner = FleetReplica::start(
        ReplicaConfig {
            id: n,
            workers: 1,
            gossip_fanout,
            planner: planner(flags.max_batch),
            ..ReplicaConfig::default()
        },
        Obs::noop(),
    )
    .expect("bind joiner");
    let mut joined_members = members.clone();
    joined_members.push((joiner.id(), joiner.addr()));
    joiner.set_peers(&joined_members);
    let imported = joiner
        .warm_join(replicas[0].addr(), usize::MAX)
        .expect("warm join");
    let computed_before = joiner.stats().computed;
    // Ask the joiner directly for every key the snapshot covered.
    let direct = run_phase(joiner.addr(), &requests).expect("joiner direct phase");
    let computed_after = joiner.stats().computed;
    eprintln!(
        "  warm-join: {imported} entries imported, {} direct answers, {} cold DP runs",
        direct.requests,
        computed_after - computed_before
    );
    if computed_after > computed_before {
        fail("warm-joined replica ran cold DP for questions its peer snapshot covered");
    }
    // Rejoin the ring: remapped keys must be served from the imported
    // cache, not recomputed, across the whole fleet.
    let fleet_computed = |replicas: &[galvatron_fleet::ReplicaHandle]| -> u64 {
        replicas.iter().map(|r| r.stats().computed).sum::<u64>() + joiner.stats().computed
    };
    let computed_before_rejoin = fleet_computed(&replicas);
    router.add_replica(joiner.id(), joiner.addr());
    run_phase(router.addr(), &requests).expect("post-join phase");
    let fleet_computed_delta = fleet_computed(&replicas) - computed_before_rejoin;
    if fleet_computed_delta > 0 {
        fail("rejoining the warm replica triggered cold DP runs the snapshot covered");
    }
    let warm_join = WarmJoinReport {
        imported,
        computed_before,
        computed_after,
        fleet_computed_delta_after_rejoin: fleet_computed_delta,
    };

    // Phase 7: kill replica 1 mid-run; every key must still answer through
    // the router, byte-identical to the fleet-check payloads.
    let gossip_sent_total: u64 =
        replicas.iter().map(|r| r.gossip_sent()).sum::<u64>() + joiner.gossip_sent();
    let mut replicas = replicas;
    let killed = replicas.remove(1);
    let killed_id = killed.id();
    killed.shutdown();
    let mut kill_client = PlanClient::connect(router.addr()).expect("connect router");
    let mut reanswered = 0usize;
    let mut identical = true;
    for ((name, model, budget), expected) in requests.iter().zip(&identity_payloads) {
        let response = kill_client
            .plan(name, model.clone(), rtx_titan_node(8), *budget)
            .expect("post-kill answer");
        let payload = serde_json::to_string(&response.result).expect("serialize payload");
        if &payload != expected {
            eprintln!("  kill: {name}: answer changed after failover");
            identical = false;
        }
        reanswered += 1;
    }
    let kill = KillReport {
        killed_id,
        reanswered,
        identical,
        router_failovers: router.failovers(),
    };
    eprintln!(
        "  kill: replica {} down, {} keys reanswered, identical={}, {} failovers",
        kill.killed_id, kill.reanswered, kill.identical, kill.router_failovers
    );
    if !identical {
        fail("answers changed after killing a replica");
    }

    let computed_total = fleet_computed(&replicas);
    router.shutdown();
    for replica in replicas {
        replica.shutdown();
    }
    joiner.shutdown();

    // Dump every span the fleet recorded, one JSONL line per span tagged
    // with its instance — the input `galvatron-trace` replays into an
    // attribution table and a merged Chrome trace.
    let spans_out = flags
        .spans_out
        .clone()
        .unwrap_or_else(|| "BENCH_trace_spans.jsonl".to_string());
    let mut dump = String::new();
    let mut dumped = 0usize;
    for (instance, sink) in &sinks {
        for span in sink.records() {
            let line = SpanDumpLine {
                instance: instance.clone(),
                span,
            };
            dump.push_str(&serde_json::to_string(&line).expect("serialize span"));
            dump.push('\n');
            dumped += 1;
        }
    }
    std::fs::write(&spans_out, dump).expect("write span dump");
    eprintln!("galvatron-bench-serve: wrote {spans_out} ({dumped} spans)");

    let report = FleetBenchReport {
        bench: "galvatron-fleet loopback",
        replicas: n,
        distinct_requests: requests.len(),
        max_batch: flags.max_batch,
        gossip_fanout,
        connections,
        cold,
        warm,
        byte_identity,
        zipf,
        warm_join,
        kill,
        gossip_sent_total,
        computed_total,
    };
    let json = serde_json::to_string_pretty(&serde_json::to_value(&report).unwrap()).unwrap();
    std::fs::write(&out, format!("{json}\n")).expect("write report");
    eprintln!("galvatron-bench-serve: wrote {out}");
}

/// Open `target` concurrent connections against one replica, verify the
/// gauge reaches the target, then round-trip a ping on every one of them.
fn connections_phase(replica: &galvatron_fleet::ReplicaHandle, target: usize) -> ConnectionsReport {
    let started = Instant::now();
    let addr = replica.addr();
    let mut streams = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(stream) => streams.push(stream),
            Err(e) => {
                eprintln!("  connections: connect {i} failed: {e}");
                break;
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut peak = replica.connections();
    while peak < streams.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        peak = peak.max(replica.connections());
    }
    // Every connection answers a ping while all of them are open.
    let ping_line = serde_json::to_string(&galvatron_serve::WireRequest {
        id: 1,
        name: "conn".to_string(),
        trace: None,
        body: galvatron_serve::RequestBody::Ping,
    })
    .unwrap();
    let mut pings_answered = 0usize;
    for stream in &mut streams {
        if stream
            .write_all(format!("{ping_line}\n").as_bytes())
            .is_err()
        {
            continue;
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok() && line.contains("Pong") {
            pings_answered += 1;
        }
        peak = peak.max(replica.connections());
    }
    ConnectionsReport {
        target,
        peak,
        pings_answered,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Zipf-distributed requests over the (cached) workload from parallel
/// clients through the router.
fn zipf_phase(
    router_addr: SocketAddr,
    requests: &[(String, ModelSpec, u64)],
    flags: &Flags,
) -> ZipfReport {
    let zipf = Zipf::new(requests.len(), flags.zipf_s);
    let per_client = flags.zipf_requests / flags.zipf_clients.max(1);
    let started = Instant::now();
    let workers: Vec<_> = (0..flags.zipf_clients.max(1))
        .map(|client_idx| {
            // Deterministic per-client schedule, sampled up front so the
            // threads only measure serving latency.
            let mut rng = StdRng::seed_from_u64(0x5eed_2026 + client_idx as u64);
            let schedule: Vec<usize> = (0..per_client).map(|_| zipf.sample(&mut rng)).collect();
            let requests: Vec<(String, ModelSpec, u64)> = schedule
                .into_iter()
                .map(|rank| requests[rank].clone())
                .collect();
            std::thread::spawn(move || -> Vec<f64> {
                let topology = rtx_titan_node(8);
                let mut client = PlanClient::connect(router_addr).expect("connect router");
                // Every zipf request is traced with attribution opted in:
                // seeded ids, so reruns mint the same trace ids and the
                // fleet's slow-trace rings fill with real span trees.
                let mut ids = TraceIdGen::new(0x7ace_0000 + client_idx as u64);
                let mut latencies = Vec::with_capacity(requests.len());
                for (name, model, budget) in requests {
                    client.set_trace(WireTraceContext::from_context(ids.next_context(), true));
                    let one = Instant::now();
                    let response = client
                        .plan(&name, model, topology.clone(), budget)
                        .expect("zipf answer");
                    latencies.push(one.elapsed().as_secs_f64() * 1e3);
                    assert!(
                        !matches!(&response.result, WireResult::Error(e)
                            if e.code != ErrorCode::Infeasible),
                        "zipf request failed: {:?}",
                        response.result
                    );
                }
                latencies
            })
        })
        .collect();
    let mut per_request_ms = Vec::new();
    for worker in workers {
        per_request_ms.extend(worker.join().expect("zipf client"));
    }
    let seconds = started.elapsed().as_secs_f64();
    ZipfReport {
        clients: flags.zipf_clients.max(1),
        s: flags.zipf_s,
        latency: latency_report(per_request_ms, seconds),
    }
}

fn http_get_body(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send http request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read http response");
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => response,
    }
}

/// One cold, traced, attribution-opted request through the router, then
/// the federation drain. Gates: the attribution phases must sum to within
/// 5% of the client-observed wall time; the recorded spans must form one
/// linked tree spanning router → replica → planner; and `/trace/slow`
/// must be non-empty after the traced zipf phase.
fn trace_phase(
    router_addr: SocketAddr,
    sinks: &[(String, Arc<RingBufferSink>)],
) -> TracePhaseReport {
    // A model absent from the workload, so the DP actually runs — and deep
    // enough that `dp_compute` dominates: socket transfer and thread
    // wake-ups on either side of the wire are a slack no server-side
    // phase can see, so the solve must dwarf it for the 5% gate to be
    // meaningful rather than noise.
    let model = BertConfig {
        layers: 128,
        hidden: 512,
        heads: 8,
        seq: 128,
        vocab: 30522,
    }
    .build("bert-traced");
    let mut ids = TraceIdGen::new(0x7ace_c01d);
    let ctx = ids.next_context();
    let mut client = PlanClient::connect(router_addr).expect("connect router");
    // Serialize before starting the clock and parse after stopping it:
    // client-observed latency is the wire round trip, the window the
    // server-side attribution can actually account for.
    let request_line = serde_json::to_string(&galvatron_serve::WireRequest {
        id: 1,
        name: "bert-traced@8g".to_string(),
        trace: Some(WireTraceContext::from_context(ctx, true)),
        body: galvatron_serve::RequestBody::Plan(galvatron_serve::PlanBody {
            model,
            topology: rtx_titan_node(8),
            budget_bytes: 8 * GIB,
        }),
    })
    .expect("serialize traced request");
    let started = Instant::now();
    let response_line = client
        .round_trip_raw(&request_line)
        .expect("traced request");
    let client_seconds = started.elapsed().as_secs_f64();
    let response: galvatron_serve::WireResponse =
        serde_json::from_str(&response_line).expect("parse traced response");
    if !matches!(response.result, WireResult::Plan(_)) {
        fail(&format!(
            "traced request did not return a plan: {:?}",
            response.result
        ));
    }
    let attr: AttributionRecord = match response.attribution {
        Some(attr) => attr,
        None => fail("traced request carried no attribution record"),
    };
    if attr.trace_id != ctx.trace_id.to_hex() {
        fail("attribution trace id does not match the client's trace context");
    }
    let phase_sum = attr.phase_sum();
    let ratio = phase_sum / client_seconds.max(1e-9);
    if (ratio - 1.0).abs() > 0.05 {
        fail(&format!(
            "attribution phases sum to {:.2}ms but the client observed {:.2}ms \
             ({:+.1}% off, gate ±5%)",
            phase_sum * 1e3,
            client_seconds * 1e3,
            (ratio - 1.0) * 1e2
        ));
    }

    // Stitch the cross-process tree: collect every trace-linked span for
    // our trace id from every instance's sink and walk parent links back
    // to the client's root span.
    let mut linked: Vec<(&str, SpanRecord)> = Vec::new();
    for (instance, sink) in sinks {
        for record in sink.records() {
            if let Some(link) = record_link(&record) {
                if link.trace_id == ctx.trace_id {
                    linked.push((instance.as_str(), record));
                }
            }
        }
    }
    let parents: HashMap<String, String> = linked
        .iter()
        .filter_map(|(_, r)| record_link(r))
        .map(|link| (link.span_id.to_hex(), link.parent_span_id.to_hex()))
        .collect();
    let root = ctx.span_id.to_hex();
    let reaches_root = |record: &SpanRecord| -> bool {
        let Some(link) = record_link(record) else {
            return false;
        };
        let mut id = link.span_id.to_hex();
        for _ in 0..linked.len() + 1 {
            if id == root {
                return true;
            }
            match parents.get(&id) {
                Some(parent) => id = parent.clone(),
                None => return false,
            }
        }
        false
    };
    let spans_reaching_client_root = linked.iter().filter(|(_, r)| reaches_root(r)).count();
    for required in ["route_plan", "serve_request", "dp_compute", "plan_request"] {
        if !linked
            .iter()
            .any(|(_, r)| r.name == required && reaches_root(r))
        {
            fail(&format!(
                "span tree is missing a linked `{required}` span reaching the client root"
            ));
        }
    }
    let mut instances: Vec<&str> = linked
        .iter()
        .filter(|(_, r)| reaches_root(r))
        .map(|(instance, _)| *instance)
        .collect();
    instances.sort_unstable();
    instances.dedup();
    if instances.len() < 2 {
        fail("span tree did not cross processes (expected router + replica)");
    }

    // Federation: the router merges every live replica's slow-trace ring;
    // after a fully traced zipf phase it must have entries.
    let slow_body = http_get_body(router_addr, "/trace/slow");
    let slow: Vec<SlowTraceEntry> = serde_json::from_str(&slow_body).unwrap_or_default();
    if slow.is_empty() {
        fail("/trace/slow returned no entries after the traced zipf phase");
    }

    TracePhaseReport {
        bench: "galvatron-trace attribution",
        trace_id: ctx.trace_id.to_hex(),
        client_ms: client_seconds * 1e3,
        attributed_ms: attr.total_seconds * 1e3,
        phase_sum_ms: phase_sum * 1e3,
        phase_sum_over_client: ratio,
        phases_ms: attr
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.seconds * 1e3))
            .collect(),
        linked_spans: linked.len(),
        spans_reaching_client_root,
        instances_in_tree: instances.len(),
        slow_trace_entries: slow.len(),
    }
}

// ---------------------------------------------------------------------------
// Single-daemon mode (the original bench, unchanged gates)
// ---------------------------------------------------------------------------

fn run_single_bench(flags: &Flags) {
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let max_batch = flags.max_batch;
    let herd_clients = flags.herd_clients;
    let queue_capacity = 4usize;
    let config = ReplicaConfig {
        workers: 2,
        queue_capacity,
        planner: planner(max_batch),
        gossip_fanout: 0,
        ..ReplicaConfig::default()
    };
    let handle = FleetReplica::start(config, Obs::noop()).expect("bind loopback");
    let addr = handle.addr();
    let requests = workload();
    eprintln!(
        "galvatron-bench-serve: {} distinct requests against {addr}",
        requests.len()
    );

    // Phase 1+2: cold, then warm (identical requests, now cached).
    let cold = run_phase(addr, &requests).expect("cold phase");
    eprintln!(
        "  cold: {:.2} req/s ({:.3}s)",
        cold.requests_per_sec, cold.seconds
    );
    let warm = run_phase(addr, &requests).expect("warm phase");
    eprintln!(
        "  warm: {:.2} req/s ({:.3}s)",
        warm.requests_per_sec, warm.seconds
    );

    // Phase 3: the 64-GPU/100-layer cold scaling point — the arena-DP
    // rebuild's serving-side face. One uncached plan of the scale model on
    // the Table-4 A100 testbed must run exactly one DP compute; its warm
    // repeat must be a pure cache hit.
    let scale_spec = scale_point_model();
    assert_eq!(scale_spec.n_layers(), SCALE_POINT_LAYERS);
    let scale_topology = TestbedPreset::A100x64.topology();
    let scale_devices = scale_topology.n_devices();
    let mut scale_client = PlanClient::connect(addr).expect("connect");
    let before_scale = handle.stats();
    let scale_started = Instant::now();
    let scale_cold_response = scale_client
        .plan(
            "scale-64gpu-100l",
            scale_spec.clone(),
            scale_topology.clone(),
            16 * GIB,
        )
        .expect("scale cold response");
    let scale_cold_ms = scale_started.elapsed().as_secs_f64() * 1e3;
    let mid_scale = handle.stats();
    let scale_started = Instant::now();
    let scale_warm_response = scale_client
        .plan(
            "scale-64gpu-100l",
            scale_spec.clone(),
            scale_topology,
            16 * GIB,
        )
        .expect("scale warm response");
    let scale_warm_ms = scale_started.elapsed().as_secs_f64() * 1e3;
    let after_scale = handle.stats();
    for (phase, response) in [
        ("cold", &scale_cold_response),
        ("warm", &scale_warm_response),
    ] {
        assert!(
            matches!(response.result, WireResult::Plan(_)),
            "scale point {phase} request got {:?}",
            response.result
        );
    }
    let scale_point = ScalePointReport {
        model: scale_spec.name.clone(),
        layers: scale_spec.n_layers(),
        devices: scale_devices,
        budget_gib: 16,
        cold_ms: scale_cold_ms,
        warm_ms: scale_warm_ms,
        cold_computed: mid_scale.computed - before_scale.computed,
        warm_computed: after_scale.computed - mid_scale.computed,
    };
    eprintln!(
        "  scale point: {} ({} layers) on {} devices — cold {:.1}ms ({} computed), warm {:.1}ms ({} computed)",
        scale_point.model,
        scale_point.layers,
        scale_point.devices,
        scale_point.cold_ms,
        scale_point.cold_computed,
        scale_point.warm_ms,
        scale_point.warm_computed
    );

    // Phase 4: thundering herd on one *uncached* key. Pause the workers so
    // every client demonstrably overlaps, then release.
    let herd_model = BertConfig {
        layers: 3,
        hidden: 512,
        heads: 8,
        seq: 128,
        vocab: 30522,
    }
    .build("bert-herd");
    let before = handle.stats();
    handle.pause();
    let herd_started = Instant::now();
    let joiners: Vec<_> = (0..herd_clients)
        .map(|i| {
            let model = herd_model.clone();
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                client
                    .plan(&format!("herd-{i}"), model, rtx_titan_node(8), 8 * GIB)
                    .expect("herd response")
            })
        })
        .collect();
    // Give the herd a moment to pile onto the flight, then release.
    std::thread::sleep(Duration::from_millis(200));
    handle.resume();
    for joiner in joiners {
        let response = joiner.join().expect("herd client");
        assert!(
            matches!(response.result, WireResult::Plan(_)),
            "herd client got {:?}",
            response.result
        );
    }
    let herd_seconds = herd_started.elapsed().as_secs_f64();
    let after = handle.stats();
    let herd = HerdReport {
        clients: herd_clients,
        coalesced: after.coalesced - before.coalesced,
        computed_delta: after.computed - before.computed,
        seconds: herd_seconds,
    };
    eprintln!(
        "  herd: {} clients, {} coalesced, {} computed ({:.3}s)",
        herd.clients, herd.coalesced, herd.computed_delta, herd.seconds
    );

    // Phase 5: offer distinct requests past the queue capacity with the
    // workers paused; the excess must shed deterministically.
    handle.pause();
    let before_shed = handle.stats();
    let offered = queue_capacity + 4;
    let shed_clients: Vec<_> = (0..offered)
        .map(|i| {
            std::thread::spawn(move || {
                let model = BertConfig {
                    layers: 2,
                    hidden: 256 + 64 * i as u64, // distinct models: no coalescing
                    heads: 8,
                    seq: 128,
                    vocab: 30522,
                }
                .build(&format!("shed-{i}"));
                let mut client = PlanClient::connect(addr).expect("connect");
                client
                    .plan(&format!("shed-{i}"), model, rtx_titan_node(8), 8 * GIB)
                    .expect("shed response")
            })
        })
        .collect();
    // Let every request reach admission control before releasing workers.
    std::thread::sleep(Duration::from_millis(500));
    handle.resume();
    let mut accepted = 0usize;
    for client in shed_clients {
        let response = client.join().expect("shed client");
        match response.result {
            WireResult::Error(e) if e.code == ErrorCode::Overloaded => {}
            _ => accepted += 1,
        }
    }
    let after_shed = handle.stats();
    let shed = ShedReport {
        queue_capacity,
        offered,
        shed: after_shed.shed - before_shed.shed,
        accepted,
    };
    eprintln!(
        "  shed: {} offered into capacity {}, {} shed, {} accepted",
        shed.offered, shed.queue_capacity, shed.shed, shed.accepted
    );
    handle.shutdown();

    let speedup = warm.requests_per_sec / cold.requests_per_sec.max(1e-9);
    let report = BenchReport {
        bench: "galvatron-serve loopback",
        distinct_requests: requests.len(),
        max_batch,
        cold,
        warm,
        warm_over_cold_speedup: speedup,
        scale_point,
        herd,
        shed,
    };
    let json = serde_json::to_string_pretty(&serde_json::to_value(&report).unwrap()).unwrap();
    std::fs::write(&out, format!("{json}\n")).expect("write report");
    eprintln!("galvatron-bench-serve: wrote {out} (warm/cold speedup {speedup:.1}×)");

    if speedup < 5.0 {
        eprintln!("galvatron-bench-serve: FAIL — warm-cache throughput below 5× cold");
        std::process::exit(1);
    }
    if report.scale_point.cold_computed != 1 || report.scale_point.warm_computed != 0 {
        eprintln!(
            "galvatron-bench-serve: FAIL — scale point computed {} cold / {} warm, expected 1 / 0",
            report.scale_point.cold_computed, report.scale_point.warm_computed
        );
        std::process::exit(1);
    }
    if report.herd.computed_delta != 1 {
        eprintln!(
            "galvatron-bench-serve: FAIL — herd computed {} times, expected 1",
            report.herd.computed_delta
        );
        std::process::exit(1);
    }
    if report.shed.shed == 0 {
        eprintln!("galvatron-bench-serve: FAIL — no request was shed past capacity");
        std::process::exit(1);
    }
}
