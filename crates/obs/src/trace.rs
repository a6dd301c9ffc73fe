//! Distributed trace context: seeded ids, ambient scopes, span trees, a
//! latency-attribution record, and a K-slowest flight recorder.
//!
//! Identity discipline mirrors the rest of the repo: **every id is derived
//! from explicit inputs, never from the wall clock**. A [`TraceIdGen`] is
//! seeded by the caller and walks a splitmix64 sequence; child span ids are
//! FNV-1a hashes of `(trace id, parent span id, span name, sibling index)`,
//! so two seeded runs that issue the same requests mint byte-identical
//! trees (the property `structural_digest` pins).
//!
//! Propagation inside a process is *ambient*: a server enters a
//! [`TraceScope`] around the work it does on behalf of a request, and every
//! span opened through [`crate::Obs::span`] on that thread links itself
//! into the active trace (fields [`FIELD_TRACE_ID`], [`FIELD_SPAN_ID`],
//! [`FIELD_PARENT_SPAN_ID`]) without any signature changes in the
//! instrumented code. Across processes the context rides the serve wire
//! envelope as hex strings.

use crate::span::SpanRecord;
use crate::FieldValue;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;

/// Span field carrying the 32-hex-char trace id.
pub const FIELD_TRACE_ID: &str = "trace_id";
/// Span field carrying the span's own 16-hex-char id.
pub const FIELD_SPAN_ID: &str = "span_id";
/// Span field carrying the parent span's 16-hex-char id.
pub const FIELD_PARENT_SPAN_ID: &str = "parent_span_id";

/// Attribution phase: time parked in the admission queue.
pub const PHASE_QUEUE_WAIT: &str = "queue_wait";
/// Attribution phase: time parked on another request's single-flight.
pub const PHASE_FLIGHT_WAIT: &str = "flight_wait";
/// Attribution phase: response-cache probe.
pub const PHASE_CACHE_LOOKUP: &str = "cache_lookup";
/// Attribution phase: the planner DP itself.
pub const PHASE_DP_COMPUTE: &str = "dp_compute";
/// Attribution phase: router relay overhead (forward + failover).
pub const PHASE_RELAY_HOP: &str = "relay_hop";
/// Attribution phase: response serialization.
pub const PHASE_SERIALIZE: &str = "serialize";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
    *hash ^= 0xff;
    *hash = hash.wrapping_mul(FNV_PRIME);
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 128-bit trace id, rendered as 32 lowercase hex chars on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl TraceId {
    /// Render as 32 lowercase hex characters.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse the 32-hex-char wire form.
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(TraceId { hi, lo })
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// A 64-bit span id, rendered as 16 lowercase hex chars on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Render as 16 lowercase hex characters.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the 16-hex-char wire form.
    pub fn parse_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Seeded id generator: mints root trace/span ids from a splitmix64 walk.
/// Never consults the wall clock, so a seeded client replays identical ids.
#[derive(Debug, Clone)]
pub struct TraceIdGen {
    state: u64,
}

impl TraceIdGen {
    /// A generator over the given seed.
    pub fn new(seed: u64) -> Self {
        TraceIdGen { state: seed }
    }

    /// Mint the next trace id (two sequence steps), never all-zero.
    pub fn next_trace(&mut self) -> TraceId {
        let hi = splitmix64(&mut self.state);
        let mut lo = splitmix64(&mut self.state);
        if hi == 0 && lo == 0 {
            lo = 1;
        }
        TraceId { hi, lo }
    }

    /// Mint the next root span id (one sequence step), never zero.
    pub fn next_span(&mut self) -> SpanId {
        let v = splitmix64(&mut self.state);
        SpanId(if v == 0 { 1 } else { v })
    }

    /// Mint a full root context: a fresh trace id plus its root span id.
    pub fn next_context(&mut self) -> TraceContext {
        let trace_id = self.next_trace();
        let span_id = self.next_span();
        TraceContext { trace_id, span_id }
    }
}

/// Derive a child span id from its position in the tree. Deterministic:
/// FNV-1a over `(trace id, parent span id, name, sibling index)`.
pub fn child_span_id(trace_id: TraceId, parent: SpanId, name: &str, index: u64) -> SpanId {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &trace_id.hi.to_le_bytes());
    fnv1a(&mut h, &trace_id.lo.to_le_bytes());
    fnv1a(&mut h, &parent.0.to_le_bytes());
    fnv1a(&mut h, name.as_bytes());
    fnv1a(&mut h, &index.to_le_bytes());
    SpanId(if h == 0 { FNV_OFFSET } else { h })
}

/// A propagated trace position: the trace plus the span acting as parent
/// for whatever happens next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// The span the next unit of work should parent under.
    pub span_id: SpanId,
}

impl TraceContext {
    /// The context one level down: same trace, span id derived as the
    /// `index`-th child named `name`.
    pub fn child(&self, name: &str, index: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: child_span_id(self.trace_id, self.span_id, name, index),
        }
    }
}

/// A span's resolved link into a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanLink {
    /// The trace id.
    pub trace_id: TraceId,
    /// This span's own id.
    pub span_id: SpanId,
    /// The parent span's id.
    pub parent_span_id: SpanId,
}

struct Frame {
    ctx: TraceContext,
    children: u64,
}

thread_local! {
    static SCOPE_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard making a [`TraceContext`] ambient on the current thread.
/// While held, every span opened via [`crate::Obs::span`] on this thread
/// is minted a deterministic child id and stamped with trace fields.
/// Scopes nest; dropping restores the enclosing scope.
pub struct TraceScope {
    _not_send: PhantomData<*const ()>,
}

impl TraceScope {
    /// Push `ctx` as the thread's active trace position.
    pub fn enter(ctx: TraceContext) -> TraceScope {
        SCOPE_STACK.with(|s| s.borrow_mut().push(Frame { ctx, children: 0 }));
        TraceScope {
            _not_send: PhantomData,
        }
    }

    /// The thread's active trace position, if any.
    pub fn current() -> Option<TraceContext> {
        SCOPE_STACK.with(|s| s.borrow().last().map(|f| f.ctx))
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        SCOPE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

impl fmt::Debug for TraceScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceScope({:?})", TraceScope::current())
    }
}

/// Mint a child link for a span named `name` under the thread's active
/// scope, bumping the scope's sibling counter. `None` outside any scope.
pub fn ambient_link(name: &str) -> Option<SpanLink> {
    SCOPE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let frame = stack.last_mut()?;
        let index = frame.children;
        frame.children += 1;
        let span_id = child_span_id(frame.ctx.trace_id, frame.ctx.span_id, name, index);
        Some(SpanLink {
            trace_id: frame.ctx.trace_id,
            span_id,
            parent_span_id: frame.ctx.span_id,
        })
    })
}

/// Trace-link fields for a span record.
pub(crate) fn link_fields(link: &SpanLink) -> Vec<(String, FieldValue)> {
    vec![
        (FIELD_TRACE_ID.into(), link.trace_id.to_hex().into()),
        (FIELD_SPAN_ID.into(), link.span_id.to_hex().into()),
        (
            FIELD_PARENT_SPAN_ID.into(),
            link.parent_span_id.to_hex().into(),
        ),
    ]
}

/// Extract a record's trace link, if it carries all three trace fields.
pub fn record_link(record: &SpanRecord) -> Option<SpanLink> {
    let get = |key: &str| {
        record.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    };
    Some(SpanLink {
        trace_id: TraceId::parse_hex(get(FIELD_TRACE_ID)?)?,
        span_id: SpanId::parse_hex(get(FIELD_SPAN_ID)?)?,
        parent_span_id: SpanId::parse_hex(get(FIELD_PARENT_SPAN_ID)?)?,
    })
}

/// The wall-clock-free skeleton of a set of linked spans: one line per
/// trace-linked record, `trace_id span_id parent_span_id name`, sorted.
/// Two seeded runs over the same request sequence must produce equal
/// digests — the span-layer analogue of
/// [`crate::MetricsSnapshot::deterministic`].
pub fn structural_digest(records: &[SpanRecord]) -> String {
    let mut lines: Vec<String> = records
        .iter()
        .filter_map(|r| {
            record_link(r).map(|link| {
                format!(
                    "{} {} {} {}",
                    link.trace_id.to_hex(),
                    link.span_id.to_hex(),
                    link.parent_span_id.to_hex(),
                    r.name
                )
            })
        })
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// One named slice of a request's server-side latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionPhase {
    /// Phase name (one of the `PHASE_*` constants).
    pub phase: String,
    /// Wall seconds spent in the phase.
    pub seconds: f64,
}

/// Per-request latency attribution: where a plan request's wall time went,
/// phase by phase. Returned on the wire when the client's trace context
/// opts in, and summing to within ε of the client-observed total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionRecord {
    /// The request's trace id (32 hex chars).
    pub trace_id: String,
    /// The server-side root span id (16 hex chars).
    pub span_id: String,
    /// The instance that served the request (router prepends itself).
    pub instance: String,
    /// Total server-side wall seconds (router relay included once the
    /// response crosses the router).
    pub total_seconds: f64,
    /// The single-flight leader's `dp_compute` span id, when the answer
    /// came from a DP run — coalesced followers link here.
    pub compute_span_id: Option<String>,
    /// The phases, in the order the server measured them.
    pub phases: Vec<AttributionPhase>,
}

impl AttributionRecord {
    /// An empty record for a request's server-side root span.
    pub fn new(trace_id: &str, span_id: &str, instance: &str) -> Self {
        AttributionRecord {
            trace_id: trace_id.to_string(),
            span_id: span_id.to_string(),
            instance: instance.to_string(),
            total_seconds: 0.0,
            compute_span_id: None,
            phases: Vec::new(),
        }
    }

    /// Append a phase (clamping negative residuals to zero).
    pub fn push_phase(&mut self, phase: &str, seconds: f64) {
        self.phases.push(AttributionPhase {
            phase: phase.to_string(),
            seconds: seconds.max(0.0),
        });
    }

    /// Seconds recorded for `phase`, if present.
    pub fn phase_seconds(&self, phase: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map(|p| p.seconds)
    }

    /// Sum of all phase durations.
    pub fn phase_sum(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// Synthesize the serving-path span skeleton: a root span of
    /// `total_seconds` plus one child per phase, with deterministic child
    /// ids, laid end to end from `start_seconds`. This is what the slow
    /// ring stores — self-contained, no sink required.
    pub fn to_spans(
        &self,
        root_name: &str,
        parent_span_id: &str,
        start_seconds: f64,
    ) -> Vec<SpanRecord> {
        let mut spans = Vec::with_capacity(1 + self.phases.len());
        let mut fields = vec![
            (FIELD_TRACE_ID.to_string(), self.trace_id.clone().into()),
            (FIELD_SPAN_ID.to_string(), self.span_id.clone().into()),
            (
                FIELD_PARENT_SPAN_ID.to_string(),
                parent_span_id.to_string().into(),
            ),
            ("instance".to_string(), self.instance.clone().into()),
        ];
        if let Some(compute) = &self.compute_span_id {
            fields.push(("compute_span_id".to_string(), compute.clone().into()));
        }
        spans.push(SpanRecord {
            name: root_name.to_string(),
            start_seconds,
            duration_seconds: self.total_seconds,
            fields,
        });
        let (trace, root) = match (
            TraceId::parse_hex(&self.trace_id),
            SpanId::parse_hex(&self.span_id),
        ) {
            (Some(t), Some(r)) => (t, r),
            _ => return spans,
        };
        let mut cursor = start_seconds;
        for (i, p) in self.phases.iter().enumerate() {
            let id = child_span_id(trace, root, &p.phase, i as u64);
            spans.push(SpanRecord {
                name: p.phase.clone(),
                start_seconds: cursor,
                duration_seconds: p.seconds,
                fields: vec![
                    (FIELD_TRACE_ID.to_string(), self.trace_id.clone().into()),
                    (FIELD_SPAN_ID.to_string(), id.to_hex().into()),
                    (
                        FIELD_PARENT_SPAN_ID.to_string(),
                        self.span_id.clone().into(),
                    ),
                ],
            });
            cursor += p.seconds;
        }
        spans
    }
}

/// One entry in the slow-trace flight recorder: a span tree plus its
/// total, kept for `/trace/slow`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowTraceEntry {
    /// The request's trace id (32 hex chars).
    pub trace_id: String,
    /// The root span name (e.g. `serve_request`).
    pub name: String,
    /// The instance that recorded the entry.
    pub instance: String,
    /// Total server-side seconds — the ranking key.
    pub total_seconds: f64,
    /// The span skeleton (root plus phase children).
    pub spans: Vec<SpanRecord>,
}

/// A bounded ring of the K slowest traced requests, ordered slowest
/// first. `offer` is O(K); ties break on trace id so seeded runs rank
/// identically.
#[derive(Debug)]
pub struct SlowRing {
    capacity: usize,
    entries: Mutex<Vec<SlowTraceEntry>>,
}

impl SlowRing {
    /// A recorder keeping the `capacity` slowest entries.
    pub fn new(capacity: usize) -> Self {
        SlowRing {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offer one finished trace; kept only if it ranks among the K
    /// slowest seen since the last drain.
    pub fn offer(&self, entry: SlowTraceEntry) {
        let mut entries = self.entries.lock();
        let pos = entries
            .binary_search_by(|e| {
                entry
                    .total_seconds
                    .partial_cmp(&e.total_seconds)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| e.trace_id.cmp(&entry.trace_id).reverse())
            })
            .unwrap_or_else(|p| p);
        if pos < self.capacity {
            entries.insert(pos, entry);
            entries.truncate(self.capacity);
        }
    }

    /// Entries currently held, slowest first.
    pub fn peek(&self) -> Vec<SlowTraceEntry> {
        self.entries.lock().clone()
    }

    /// Drain and return all entries, slowest first.
    pub fn drain(&self) -> Vec<SlowTraceEntry> {
        std::mem::take(&mut *self.entries.lock())
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_hex() {
        let mut gen = TraceIdGen::new(42);
        let t = gen.next_trace();
        let s = gen.next_span();
        assert_eq!(TraceId::parse_hex(&t.to_hex()), Some(t));
        assert_eq!(SpanId::parse_hex(&s.to_hex()), Some(s));
        assert_eq!(t.to_hex().len(), 32);
        assert_eq!(s.to_hex().len(), 16);
        assert!(TraceId::parse_hex("xyz").is_none());
        assert!(SpanId::parse_hex("0123").is_none());
    }

    #[test]
    fn seeded_generators_replay_identically() {
        let mut a = TraceIdGen::new(7);
        let mut b = TraceIdGen::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_context(), b.next_context());
        }
        let mut c = TraceIdGen::new(8);
        assert_ne!(TraceIdGen::new(7).next_trace(), c.next_trace());
    }

    #[test]
    fn child_ids_are_deterministic_and_distinct() {
        let trace = TraceId { hi: 1, lo: 2 };
        let parent = SpanId(3);
        let a = child_span_id(trace, parent, "dp_compute", 0);
        assert_eq!(a, child_span_id(trace, parent, "dp_compute", 0));
        assert_ne!(a, child_span_id(trace, parent, "dp_compute", 1));
        assert_ne!(a, child_span_id(trace, parent, "serialize", 0));
        assert_ne!(a, child_span_id(trace, SpanId(4), "dp_compute", 0));
    }

    #[test]
    fn ambient_scope_links_and_counts_siblings() {
        let ctx = TraceContext {
            trace_id: TraceId { hi: 9, lo: 9 },
            span_id: SpanId(5),
        };
        assert!(ambient_link("x").is_none());
        {
            let _scope = TraceScope::enter(ctx);
            let a = ambient_link("x").unwrap();
            let b = ambient_link("x").unwrap();
            assert_eq!(a.parent_span_id, SpanId(5));
            assert_ne!(a.span_id, b.span_id); // sibling index disambiguates
            assert_eq!(a.span_id, child_span_id(ctx.trace_id, ctx.span_id, "x", 0));
            {
                let inner = ctx.child("x", 0);
                let _nested = TraceScope::enter(inner);
                let c = ambient_link("y").unwrap();
                assert_eq!(c.parent_span_id, inner.span_id);
            }
            assert_eq!(TraceScope::current(), Some(ctx));
        }
        assert!(TraceScope::current().is_none());
    }

    #[test]
    fn structural_digest_ignores_wall_times() {
        let ctx = TraceContext {
            trace_id: TraceId { hi: 1, lo: 1 },
            span_id: SpanId(2),
        };
        let link = SpanLink {
            trace_id: ctx.trace_id,
            span_id: ctx.child("a", 0).span_id,
            parent_span_id: ctx.span_id,
        };
        let mk = |start: f64| SpanRecord {
            name: "a".into(),
            start_seconds: start,
            duration_seconds: start * 2.0,
            fields: link_fields(&link),
        };
        let unlinked = SpanRecord {
            name: "b".into(),
            start_seconds: 0.0,
            duration_seconds: 0.0,
            fields: vec![],
        };
        let run1 = structural_digest(&[mk(0.5), unlinked.clone()]);
        let run2 = structural_digest(&[mk(9.0), unlinked]);
        assert_eq!(run1, run2);
        assert_eq!(run1.lines().count(), 1);
    }

    #[test]
    fn attribution_sums_and_synthesizes_spans() {
        let mut attr = AttributionRecord::new(&"a".repeat(32), &"b".repeat(16), "replica-0");
        attr.push_phase(PHASE_CACHE_LOOKUP, 0.001);
        attr.push_phase(PHASE_QUEUE_WAIT, 0.002);
        attr.push_phase(PHASE_DP_COMPUTE, 0.5);
        attr.push_phase(PHASE_SERIALIZE, -0.1); // clamped
        attr.total_seconds = 0.503;
        assert!((attr.phase_sum() - 0.503).abs() < 1e-12);
        assert_eq!(attr.phase_seconds(PHASE_DP_COMPUTE), Some(0.5));

        let spans = attr.to_spans("serve_request", &"c".repeat(16), 1.0);
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].name, "serve_request");
        let digest = structural_digest(&spans);
        // Root + 4 phases all link into one trace.
        assert_eq!(digest.lines().count(), 5);
        // Children parent under the root span id.
        let root_link = record_link(&spans[0]).unwrap();
        for child in &spans[1..] {
            assert_eq!(
                record_link(child).unwrap().parent_span_id,
                root_link.span_id
            );
        }
    }

    #[test]
    fn attribution_serde_round_trips() {
        let mut attr = AttributionRecord::new(&"0".repeat(32), &"1".repeat(16), "router");
        attr.push_phase(PHASE_RELAY_HOP, 0.25);
        attr.compute_span_id = Some("2".repeat(16));
        let json = serde_json::to_string(&attr).unwrap();
        let back: AttributionRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, attr);
    }

    #[test]
    fn slow_ring_keeps_k_slowest_in_order() {
        let ring = SlowRing::new(3);
        for (i, total) in [0.1, 0.5, 0.3, 0.05, 0.9].into_iter().enumerate() {
            ring.offer(SlowTraceEntry {
                trace_id: format!("{i:032x}"),
                name: "serve_request".into(),
                instance: "replica-0".into(),
                total_seconds: total,
                spans: vec![],
            });
        }
        let held: Vec<f64> = ring.peek().iter().map(|e| e.total_seconds).collect();
        assert_eq!(held, vec![0.9, 0.5, 0.3]);
        assert_eq!(ring.len(), 3);
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn slow_ring_tie_break_is_deterministic() {
        let offer_all = |order: &[usize]| {
            let ring = SlowRing::new(2);
            for &i in order {
                ring.offer(SlowTraceEntry {
                    trace_id: format!("{i:032x}"),
                    name: "r".into(),
                    instance: "x".into(),
                    total_seconds: 0.25,
                    spans: vec![],
                });
            }
            ring.peek()
                .into_iter()
                .map(|e| e.trace_id)
                .collect::<Vec<_>>()
        };
        assert_eq!(offer_all(&[0, 1, 2]), offer_all(&[2, 1, 0]));
    }
}
