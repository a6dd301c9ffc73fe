//! `galvatron-obs`: the unified telemetry layer.
//!
//! Galvatron's output is a *decision* — the per-layer hybrid plan the Eq. 1
//! DP picks under Algorithm 1 — and trusting a decision requires seeing how
//! it was reached. This crate gives every layer of the stack one shared
//! vocabulary:
//!
//! * a [`MetricsRegistry`] of counters / gauges / fixed log-bucket
//!   histograms with deterministic snapshot ordering and two exporters
//!   (Prometheus text, JSON), so the planner, plan service, elastic runtime
//!   and bench binaries expose `planner_dp_cells_evaluated`,
//!   `dp_arena_solves`, `elastic_replans_total`, … uniformly;
//! * a span/event layer ([`Span`], [`SpanSink`]) with swappable sinks — a
//!   ring buffer for tests, a stderr pretty-printer for narration, and a
//!   Chrome-trace sink sharing the [`chrome::ChromeTraceWriter`] with the
//!   simulator so search spans and simulated timelines land in one
//!   Perfetto file.
//!
//! Instrumented components accept an [`Obs`] handle (registry + sink
//! pair); the default [`Obs::noop`] costs one atomic load per counter
//! bump and records nothing.
//!
//! ```
//! use galvatron_obs::{MetricsRegistry, Obs, RingBufferSink, Span};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let sink = Arc::new(RingBufferSink::new(64));
//! let obs = Obs::new(registry.clone(), sink.clone());
//!
//! obs.registry().counter("planner_dp_cells_evaluated").inc_by(96);
//! Span::enter(&obs, "dp_search").field("pp_deg", 4usize).finish();
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("planner_dp_cells_evaluated"), Some(96));
//! assert!(snapshot.to_prometheus().contains("planner_dp_cells_evaluated 96"));
//! assert_eq!(sink.named("dp_search").len(), 1);
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod registry;
pub mod span;
pub mod trace;

pub use chrome::{write_spans, ChromeTraceWriter};
pub use registry::{
    bucket_bound, BucketCount, Counter, Gauge, Histogram, HistogramSample, MetricKind,
    MetricSample, MetricsRegistry, MetricsSnapshot, SampleValue, HISTOGRAM_BUCKETS,
};
pub use span::{
    ChromeSpanSink, FanoutSink, FieldValue, NullSink, RingBufferSink, Span, SpanRecord, SpanSink,
    StderrSink,
};
pub use trace::{
    child_span_id, structural_digest, AttributionPhase, AttributionRecord, SlowRing,
    SlowTraceEntry, SpanId, SpanLink, TraceContext, TraceId, TraceIdGen, TraceScope,
};

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A telemetry handle: a metrics registry plus a span sink, cloned into
/// every instrumented component. Wall-clock span times are measured
/// relative to the handle's epoch (its creation instant), so all spans of
/// one run share a time base.
#[derive(Clone)]
pub struct Obs {
    registry: Arc<MetricsRegistry>,
    sink: Arc<dyn SpanSink>,
    epoch: Instant,
}

impl Obs {
    /// A handle over the given registry and sink.
    pub fn new(registry: Arc<MetricsRegistry>, sink: Arc<dyn SpanSink>) -> Self {
        Obs {
            registry,
            sink,
            epoch: Instant::now(),
        }
    }

    /// A handle that records metrics into a private registry and drops
    /// every span — the default for uninstrumented callers.
    pub fn noop() -> Self {
        Obs::new(Arc::new(MetricsRegistry::new()), Arc::new(NullSink))
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The shared registry handle.
    pub fn registry_arc(&self) -> Arc<MetricsRegistry> {
        self.registry.clone()
    }

    /// The span sink.
    pub fn sink(&self) -> &Arc<dyn SpanSink> {
        &self.sink
    }

    /// Open a wall-clock span starting now. When the thread holds an
    /// ambient [`TraceScope`], the span links itself into the active
    /// trace: it is minted a deterministic child span id and stamped with
    /// `trace_id` / `span_id` / `parent_span_id` fields.
    pub fn span(&self, name: &str) -> Span {
        let mut span = Span::new(self.sink.clone(), name, self.epoch.elapsed().as_secs_f64());
        if let Some(link) = trace::ambient_link(name) {
            span.set_trace_link(&link);
        }
        span
    }

    /// Seconds since the handle's epoch — the start value for manually
    /// recorded spans that should share the wall-span time base.
    pub fn now_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Record a zero-duration event at the current wall time.
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.sink.record(SpanRecord {
            name: name.to_string(),
            start_seconds: self.epoch.elapsed().as_secs_f64(),
            duration_seconds: 0.0,
            fields,
        });
    }

    /// Record a span with caller-supplied times — the path for phases that
    /// live in *simulated* time (deterministic across runs), where the
    /// wall clock would be wrong on both axes.
    pub fn record_span(
        &self,
        name: &str,
        start_seconds: f64,
        duration_seconds: f64,
        fields: Vec<(String, FieldValue)>,
    ) {
        self.sink.record(SpanRecord {
            name: name.to_string(),
            start_seconds,
            duration_seconds,
            fields,
        });
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.registry.snapshot().metrics.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_reach_the_sink_with_fields() {
        let sink = Arc::new(RingBufferSink::new(16));
        let obs = Obs::new(Arc::new(MetricsRegistry::new()), sink.clone());
        {
            let mut span = obs.span("dp_search");
            span.add_field("pp_deg", 4usize);
            span.add_field("model", "bert-8");
        }
        let records = sink.named("dp_search");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fields[0].0, "pp_deg");
        assert_eq!(records[0].fields[0].1, FieldValue::U64(4));
        assert!(records[0].duration_seconds >= 0.0);
    }

    #[test]
    fn manual_spans_keep_caller_times() {
        let sink = Arc::new(RingBufferSink::new(16));
        let obs = Obs::new(Arc::new(MetricsRegistry::new()), sink.clone());
        obs.record_span("migrate", 12.5, 3.25, vec![]);
        let r = &sink.records()[0];
        assert_eq!(r.start_seconds, 12.5);
        assert_eq!(r.duration_seconds, 3.25);
    }

    #[test]
    fn noop_handle_still_counts() {
        let obs = Obs::noop();
        obs.registry().counter("x").inc();
        assert_eq!(obs.registry().snapshot().counter("x"), Some(1));
    }
}
