//! Observability for the Shahin reproduction: see where every classifier
//! invocation and millisecond goes.
//!
//! The paper's whole value proposition is *accounting* — Figure 5 reports
//! bookkeeping overhead as a percentage of runtime and every experiment is
//! judged by classifier-invocation counts — so the repository carries a
//! first-class, zero-external-dependency metrics layer:
//!
//! * [`MetricsRegistry`] — a lock-striped, thread-safe registry of named
//!   [`Counter`]s, [`Gauge`]s and log2-bucketed latency [`Histogram`]s.
//!   Registration takes a stripe lock once; every subsequent update is a
//!   single relaxed atomic, so the hot paths never serialize on the
//!   registry.
//! * [`Span`] — a lightweight RAII timer ([`span!`]) recording wall time
//!   into a histogram when dropped (or explicitly [`Span::stop`]ped).
//!   Spans taken by parallel workers aggregate into the same histogram,
//!   so per-phase time is the *sum over workers*, the "where did the CPU
//!   go" number.
//! * [`MetricsSnapshot`] — a point-in-time copy of every metric, exported
//!   as a pretty console table ([`MetricsSnapshot::render_table`]) or
//!   machine-readable JSON ([`MetricsSnapshot::to_json`], the
//!   `--metrics-out` format of `shahin-cli` and the bench binaries).
//!
//! * [`EventSink`] — a bounded, lock-striped timeline-event buffer.
//!   Attach one with [`MetricsRegistry::attach_event_sink`] and every
//!   span also lands on a per-worker timeline, exported as Chrome
//!   trace-event JSON ([`EventSink::to_chrome_trace`], the `--trace-out`
//!   format, loadable in Perfetto).
//! * [`ProvenanceSink`] — per-explanation lineage: one
//!   [`ProvenanceRecord`] per tuple (matched itemsets, reused vs fresh
//!   samples, invocations, wall time), exported as JSONL
//!   (`--provenance-out`).
//! * [`TraceContext`] / [`RequestTrace`] / [`TraceStore`] —
//!   request-scoped tracing: a causal span tree per served request
//!   (queue wait, batch, store retrieval, classifier, explainer) with
//!   the key counters, retained in a bounded tail-sampled store (errors
//!   always, slowest K per window, sampled bulk) and renderable as
//!   single-request Chrome-trace JSON. Histogram buckets remember the
//!   last trace id that landed in them ([`Histogram::record_ns_traced`])
//!   as exemplars in both exports (see [`trace`]).
//! * [`WindowedAggregator`] / [`SloTracker`] — live views for
//!   long-running processes: a monitor thread snapshots the registry
//!   every tick and differences consecutive snapshots into a bounded
//!   ring of per-window deltas (counter rates, gauge last-values,
//!   windowed histogram quantiles), from which SLO burn-rate and
//!   error-budget gauges are derived (see [`window`]).
//! * Prometheus text exposition — [`MetricsSnapshot::to_prometheus`]
//!   renders the label-free `# TYPE`/`_total`/`_bucket` wire format for
//!   scrapers, alongside the JSON export (see [`prometheus`]).
//!
//! A registry can also be created [`MetricsRegistry::disabled`]: every
//! handle it vends is a no-op (a `None` inside, checked by one predictable
//! branch), which is how the `bench_obs` binary demonstrates that the
//! instrumentation stays inside the paper's <3% overhead budget.
//!
//! # Naming convention
//!
//! Metric names are dot-separated `phase.subphase` paths. Span histograms
//! are registered under a `span.` prefix (`span!(reg, "fim.mine")` records
//! into the histogram `span.fim.mine`), so exports can tell phase timers
//! from value histograms like `classifier.predict`.

pub mod events;
pub mod fsio;
pub mod json;
pub mod prometheus;
pub mod provenance;
pub mod registry;
pub mod snapshot;
pub mod trace;
pub mod window;

pub use events::{current_thread_id, EventRecord, EventSink, N_EVENT_STRIPES};
pub use fsio::write_atomic;
pub use json::Json;
pub use provenance::{ProvenanceRecord, ProvenanceSink, ProvenanceTotals, N_PROVENANCE_STRIPES};
pub use registry::{
    bucket_index, bucket_upper_ns, Counter, Gauge, Histogram, MetricsRegistry, Span,
    ValueHistogram, N_BUCKETS, N_STRIPES, SPAN_PREFIX,
};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use trace::{
    trace_sampled, RequestTrace, StageSpan, TraceContext, TraceCounters, TraceSpan, TraceStore,
    TraceStoreConfig, N_TRACE_STRIPES,
};
pub use window::{SloConfig, SloStatus, SloTracker, WindowDelta, WindowedAggregator};

/// Starts an RAII span timer on a registry: `span!(reg, "fim.mine")`
/// records elapsed wall time into the histogram `span.fim.mine` when the
/// returned [`Span`] is dropped or [`Span::stop`]ped.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $registry.span($name)
    };
}
