//! Structured spans and events with pluggable sinks.
//!
//! A [`Span`] is an RAII guard: [`crate::Obs::span`] opens it,
//! [`Span::field`] attaches key/value context, and dropping it records a
//! [`SpanRecord`] — start and duration relative to the `Obs` epoch — into
//! the configured [`SpanSink`]. Phases that live in *simulated* time (the
//! elastic runtime's detect/re-plan/migrate outage) bypass the wall clock
//! with [`crate::Obs::record_span`], so their records are deterministic.
//!
//! Sinks: [`NullSink`] (the no-op default), [`RingBufferSink`] (bounded
//! in-memory recorder for tests), [`ChromeSpanSink`] (collects records for
//! export through [`crate::chrome::ChromeTraceWriter`], so planner spans and
//! simulator timelines can land in one Perfetto file).

use crate::trace::{SpanLink, TraceContext};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A span field value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl FieldValue {
    /// Render as a JSON fragment (numbers and booleans bare, text quoted).
    pub fn to_json_fragment(&self) -> String {
        match self {
            FieldValue::U64(v) => format!("{v}"),
            FieldValue::I64(v) => format!("{v}"),
            FieldValue::F64(v) if v.is_finite() => format!("{v}"),
            FieldValue::F64(v) => format!("{:?}", format!("{v}")),
            FieldValue::Bool(v) => format!("{v}"),
            FieldValue::Str(v) => format!("{v:?}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A finished span (or zero-duration event) as delivered to a sink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Start, seconds since the `Obs` epoch (or simulated seconds for
    /// manually recorded spans).
    pub start_seconds: f64,
    /// Duration in the same clock, `0` for events.
    pub duration_seconds: f64,
    /// Attached fields, in attachment order.
    pub fields: Vec<(String, FieldValue)>,
}

/// Where finished spans go.
pub trait SpanSink: Send + Sync {
    /// Deliver one finished span.
    fn record(&self, span: SpanRecord);
}

/// Discards every span: the default sink.
#[derive(Debug, Default)]
pub struct NullSink;

impl SpanSink for NullSink {
    fn record(&self, _span: SpanRecord) {}
}

/// Keeps the most recent `capacity` spans in memory; the test recorder.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
}

impl RingBufferSink {
    /// A recorder bounded to `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// The recorded spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Recorded spans with a given name.
    pub fn named(&self, name: &str) -> Vec<SpanRecord> {
        self.buf
            .lock()
            .iter()
            .filter(|r| r.name == name)
            .cloned()
            .collect()
    }
}

impl SpanSink for RingBufferSink {
    fn record(&self, span: SpanRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(span);
    }
}

/// Collects spans for Chrome-trace export (see
/// [`crate::chrome::write_spans`]).
#[derive(Debug, Default)]
pub struct ChromeSpanSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl ChromeSpanSink {
    /// An empty sink.
    pub fn new() -> Self {
        ChromeSpanSink::default()
    }

    /// The collected spans, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }
}

impl SpanSink for ChromeSpanSink {
    fn record(&self, span: SpanRecord) {
        self.spans.lock().push(span);
    }
}

/// An in-flight wall-clock span. Created by [`crate::Obs::span`] (or
/// [`Span::enter`]); recorded into the sink when dropped or
/// [`Span::finish`]ed.
pub struct Span {
    sink: Arc<dyn SpanSink>,
    name: String,
    start_seconds: f64,
    started: Instant,
    fields: Vec<(String, FieldValue)>,
    ctx: Option<TraceContext>,
}

impl Span {
    pub(crate) fn new(sink: Arc<dyn SpanSink>, name: &str, start_seconds: f64) -> Self {
        Span {
            sink,
            name: name.to_string(),
            start_seconds,
            started: Instant::now(),
            fields: Vec::new(),
            ctx: None,
        }
    }

    /// Link this span into a trace: stamp the trace fields and remember
    /// the context so callers can parent further work under this span.
    pub(crate) fn set_trace_link(&mut self, link: &SpanLink) {
        self.ctx = Some(TraceContext {
            trace_id: link.trace_id,
            span_id: link.span_id,
        });
        for (k, v) in crate::trace::link_fields(link) {
            self.fields.push((k, v));
        }
    }

    /// The span's trace position (its own id as the parent for children),
    /// when it was opened under an ambient [`crate::trace::TraceScope`].
    pub fn trace_context(&self) -> Option<TraceContext> {
        self.ctx
    }

    /// Open a span on `obs` — sugar for [`crate::Obs::span`], so call
    /// sites read `Span::enter(&obs, "dp_search").field("pp_deg", 4)`.
    pub fn enter(obs: &crate::Obs, name: &str) -> Span {
        obs.span(name)
    }

    /// Attach a field (builder style).
    pub fn field(mut self, name: &str, value: impl Into<FieldValue>) -> Self {
        self.add_field(name, value);
        self
    }

    /// Attach a field in place (for spans held across statements).
    pub fn add_field(&mut self, name: &str, value: impl Into<FieldValue>) {
        self.fields.push((name.to_string(), value.into()));
    }

    /// Close the span now (otherwise it closes when dropped).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        self.sink.record(SpanRecord {
            name: std::mem::take(&mut self.name),
            start_seconds: self.start_seconds,
            duration_seconds: self.started.elapsed().as_secs_f64(),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("fields", &self.fields)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_keeps_the_newest() {
        let sink = RingBufferSink::new(2);
        for i in 0..3u64 {
            sink.record(SpanRecord {
                name: format!("s{i}"),
                start_seconds: i as f64,
                duration_seconds: 0.0,
                fields: vec![],
            });
        }
        let names: Vec<String> = sink.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["s1", "s2"]);
    }

    #[test]
    fn field_values_render_as_json_fragments() {
        assert_eq!(FieldValue::from(4usize).to_json_fragment(), "4");
        assert_eq!(FieldValue::from(true).to_json_fragment(), "true");
        assert_eq!(FieldValue::from("a\"b").to_json_fragment(), "\"a\\\"b\"");
        assert_eq!(FieldValue::from(2.5).to_json_fragment(), "2.5");
        assert_eq!(FieldValue::F64(f64::INFINITY).to_json_fragment(), "\"inf\"");
    }
}
