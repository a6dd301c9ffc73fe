//! A small blocking client for the JSONL protocol.
//!
//! One [`PlanClient`] is one TCP connection; requests are answered in
//! order, so the client is a simple send-line/read-line pair. The bench
//! load generator and the e2e tests open one client per simulated user.

use crate::protocol::{
    CacheEntry, FleetCheckReport, PlanBody, RequestBody, ServeStats, WireRequest, WireResponse,
    WireResult, WireTraceContext,
};
use galvatron_cluster::ClusterTopology;
use galvatron_model::ModelSpec;
use galvatron_obs::{MetricsSnapshot, SlowTraceEntry};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connected client.
pub struct PlanClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Trace context stamped onto the next request (one-shot; see
    /// [`PlanClient::set_trace`]).
    next_trace: Option<WireTraceContext>,
}

impl PlanClient {
    /// Connect to a daemon.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connect within `timeout`, and fail any later read or write that
    /// stalls for longer than it — for callers that must not wait on a
    /// peer that accepts but never answers.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(PlanClient {
            stream,
            reader,
            next_id: 0,
            next_trace: None,
        })
    }

    /// Stamp a trace context onto the **next** request sent through this
    /// client (one-shot — each traced request carries its own ids).
    pub fn set_trace(&mut self, trace: WireTraceContext) {
        self.next_trace = Some(trace);
    }

    /// Send one raw line and read one response line back. The escape
    /// hatch for protocol tests (malformed JSON, etc.).
    pub fn round_trip_raw(&mut self, line: &str) -> std::io::Result<String> {
        // One write for line and newline: with Nagle off, a separate
        // newline write costs the server a second wake-up per request.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.stream.write_all(&framed)?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        if response.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    fn round_trip(&mut self, body: RequestBody, name: &str) -> std::io::Result<WireResponse> {
        self.next_id += 1;
        let request = WireRequest {
            id: self.next_id,
            name: name.to_string(),
            trace: self.next_trace.take(),
            body,
        };
        let line = serde_json::to_string(&request)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let answer = self.round_trip_raw(&line)?;
        serde_json::from_str(&answer)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Ask for a plan.
    pub fn plan(
        &mut self,
        name: &str,
        model: ModelSpec,
        topology: ClusterTopology,
        budget_bytes: u64,
    ) -> std::io::Result<WireResponse> {
        self.round_trip(
            RequestBody::Plan(PlanBody {
                model,
                topology,
                budget_bytes,
            }),
            name,
        )
    }

    /// Liveness probe; returns the server's protocol version.
    pub fn ping(&mut self) -> std::io::Result<u32> {
        match self.round_trip(RequestBody::Ping, "ping")?.result {
            WireResult::Pong(version) => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch structured serving statistics.
    pub fn stats(&mut self) -> std::io::Result<ServeStats> {
        match self.round_trip(RequestBody::Stats, "stats")?.result {
            WireResult::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the Prometheus text exposition over the JSONL protocol.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        match self.round_trip(RequestBody::Metrics, "metrics")?.result {
            WireResult::Metrics(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Observability federation: pull the instance's structured metrics
    /// snapshot (the router merges these across the fleet).
    pub fn metrics_pull(&mut self) -> std::io::Result<MetricsSnapshot> {
        match self
            .round_trip(RequestBody::MetricsPull, "metrics-pull")?
            .result
        {
            WireResult::MetricsState(snapshot) => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Observability federation: drain the instance's slow-trace ring,
    /// slowest first.
    pub fn slow_trace_pull(&mut self) -> std::io::Result<Vec<SlowTraceEntry>> {
        match self
            .round_trip(RequestBody::SlowTracePull, "slow-trace-pull")?
            .result
        {
            WireResult::SlowTraces(entries) => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Fleet peer protocol: pull up to `max_entries` hot response-cache
    /// entries from this daemon (warm-join).
    pub fn snapshot_pull(&mut self, max_entries: usize) -> std::io::Result<Vec<CacheEntry>> {
        match self
            .round_trip(RequestBody::SnapshotPull { max_entries }, "snapshot-pull")?
            .result
        {
            WireResult::Snapshot(entries) => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Fleet peer protocol: push cache entries to this daemon; returns how
    /// many it accepted.
    pub fn gossip_push(&mut self, entries: Vec<CacheEntry>) -> std::io::Result<u64> {
        match self
            .round_trip(RequestBody::GossipPush { entries }, "gossip-push")?
            .result
        {
            WireResult::Ack(accepted) => Ok(accepted),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask a fleet router to put the question to every live replica and
    /// report cross-replica byte-identity.
    pub fn fleet_check(
        &mut self,
        name: &str,
        model: ModelSpec,
        topology: ClusterTopology,
        budget_bytes: u64,
    ) -> std::io::Result<FleetCheckReport> {
        match self
            .round_trip(
                RequestBody::FleetCheck(PlanBody {
                    model,
                    topology,
                    budget_bytes,
                }),
                name,
            )?
            .result
        {
            WireResult::Fleet(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(result: &WireResult) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected response variant: {result:?}"),
    )
}
