//! Request-scoped tracing: causal span trees per served request, the
//! stage spans the engine records for them, and a bounded tail-sampled
//! store of retained traces.
//!
//! The metrics registry answers "how is the service doing"; this module
//! answers "why did request #4711 take 80 ms". The model:
//!
//! * [`TraceContext`] — the identity propagated alongside a request: a
//!   process-unique trace id plus the span index the next stage should
//!   parent under. Minted at admission and carried through the queue
//!   to the worker that picks the request up; the engine records
//!   [`StageSpan`]s into that worker's own buffer while it explains.
//! * [`RequestTrace`] — the finished record: an ordered span tree
//!   (`request` → `queue`/`batch` → engine stages), the key counters
//!   (store hits/misses, samples reused/fresh, classifier invocations)
//!   and outcome flags, renderable as one JSON object or as a
//!   single-request Chrome-trace document loadable in Perfetto.
//! * [`TraceStore`] — a bounded lock-striped ring with **tail-based
//!   sampling**: every request is traced cheaply, but at retention time
//!   errors and quarantined requests are always kept, the slowest K of
//!   the current window and anything over the slow threshold are kept,
//!   and the bulk of successes is sampled down by a deterministic
//!   per-trace-id coin. Everything else increments a dropped counter.
//!
//! Sampling at the *tail* (retention) rather than the head (admission)
//! is what makes "every error has a trace" possible: the decision is
//! made after the outcome is known.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::json::escape;

/// Stripe count of the retained-trace ring.
pub const N_TRACE_STRIPES: usize = 16;

/// The identity a traced request carries through the pipeline: the
/// process-unique trace id and the span index new child spans should
/// attach under (0 is always the root `request` span).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    pub parent: u32,
}

impl TraceContext {
    /// A root context for a freshly minted trace id.
    pub fn root(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            parent: 0,
        }
    }

    /// The same trace re-parented under span `parent`.
    pub fn child(self, parent: u32) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent,
        }
    }
}

/// One node of a [`RequestTrace`]'s span tree. Offsets are relative to
/// the trace's own start, so a trace is self-contained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span names are a fixed vocabulary, so building a span allocates
    /// nothing.
    pub name: &'static str,
    /// Index of the parent span in [`RequestTrace::spans`]; `None` only
    /// for the root.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The per-request counters worth keeping on every trace: the same
/// accounting the provenance layer records, compressed to what explains
/// a latency number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounters {
    pub store_hits: u64,
    pub store_misses: u64,
    pub samples_reused: u64,
    pub samples_fresh: u64,
    pub invocations: u64,
}

impl TraceCounters {
    /// Accumulates another stage's counter deltas.
    pub fn absorb(&mut self, other: &TraceCounters) {
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.samples_reused += other.samples_reused;
        self.samples_fresh += other.samples_fresh;
        self.invocations += other.invocations;
    }
}

/// The finished trace of one served request.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    pub trace_id: u64,
    pub request_id: u64,
    /// Batch row index the request asked to explain.
    pub row: u64,
    /// Which worker pickup this request was, counting from the server's
    /// start (`None` when it never reached an engine, e.g. an expired
    /// deadline). The name predates the worker pool.
    pub batch_id: Option<u64>,
    /// Span tree; index 0 is the root `request` span.
    pub spans: Vec<TraceSpan>,
    pub counters: TraceCounters,
    /// The request was answered with an error frame.
    pub error: bool,
    /// The tuple was quarantined by the resilience boundary (a subset of
    /// `error`).
    pub quarantined: bool,
    /// The explanation was produced under duress (absorbed retries,
    /// sanitized outputs).
    pub degraded: bool,
    /// End-to-end wall time, admission to response.
    pub total_ns: u64,
    /// Tenant the request was routed to (`None` — and omitted from the
    /// JSON — for single-tenant serving).
    pub tenant: Option<Arc<str>>,
}

impl RequestTrace {
    /// Renders the trace as one JSON object (no newlines), the shape the
    /// serve `trace` admin frame embeds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        write!(
            out,
            "\"trace_id\": {}, \"request_id\": {}, \"row\": {}, \"batch_id\": ",
            self.trace_id, self.request_id, self.row
        )
        .unwrap();
        match self.batch_id {
            Some(b) => write!(out, "{b}").unwrap(),
            None => out.push_str("null"),
        }
        if let Some(tenant) = &self.tenant {
            write!(out, ", \"tenant\": \"{}\"", escape(tenant)).unwrap();
        }
        write!(
            out,
            ", \"error\": {}, \"quarantined\": {}, \"degraded\": {}, \"total_ns\": {}",
            self.error, self.quarantined, self.degraded, self.total_ns
        )
        .unwrap();
        write!(
            out,
            ", \"counters\": {{\"store_hits\": {}, \"store_misses\": {}, \
             \"samples_reused\": {}, \"samples_fresh\": {}, \"invocations\": {}}}",
            self.counters.store_hits,
            self.counters.store_misses,
            self.counters.samples_reused,
            self.counters.samples_fresh,
            self.counters.invocations
        )
        .unwrap();
        out.push_str(", \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "{{\"name\": \"{}\", \"parent\": ", escape(s.name)).unwrap();
            match s.parent {
                Some(p) => write!(out, "{p}").unwrap(),
                None => out.push_str("null"),
            }
            write!(
                out,
                ", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.start_ns, s.dur_ns
            )
            .unwrap();
        }
        out.push_str("]}");
        out
    }

    /// Renders the trace as a Chrome trace-event document (complete `X`
    /// events on one lane), loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        fn ts_us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1_000, ns % 1_000)
        }
        let mut out = String::from("{\"traceEvents\": [\n");
        write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {{\"name\": \"shahin-serve\"}}}},\n  {{\"name\": \"thread_name\", \
             \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"name\": \"trace {}\"}}}}",
            self.trace_id
        )
        .unwrap();
        for s in &self.spans {
            write!(
                out,
                ",\n  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {}, \"dur\": {}",
                escape(s.name),
                ts_us(s.start_ns),
                ts_us(s.dur_ns.max(1))
            )
            .unwrap();
            if s.parent.is_none() {
                write!(
                    out,
                    ", \"args\": {{\"trace_id\": {}, \"request_id\": {}, \"row\": {}, \
                     \"store_hits\": {}, \"store_misses\": {}, \"samples_reused\": {}, \
                     \"samples_fresh\": {}, \"invocations\": {}, \"degraded\": {}}}",
                    self.trace_id,
                    self.request_id,
                    self.row,
                    self.counters.store_hits,
                    self.counters.store_misses,
                    self.counters.samples_reused,
                    self.counters.samples_fresh,
                    self.counters.invocations,
                    self.degraded
                )
                .unwrap();
            }
            out.push('}');
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// One stage measurement recorded deep in the engine (store retrieval,
/// classifier probe, surrogate fit / anchor search) into the explaining
/// worker's buffer, and folded into the request's span tree by the
/// server once the engine returns.
#[derive(Clone, Debug)]
pub struct StageSpan {
    pub name: &'static str,
    pub start: Instant,
    pub dur: Duration,
    /// Counter deltas attributable to this stage; summed into
    /// [`RequestTrace::counters`] at assembly.
    pub counters: TraceCounters,
}

/// Retention policy knobs for a [`TraceStore`].
#[derive(Clone, Copy, Debug)]
pub struct TraceStoreConfig {
    /// Total retained traces across all stripes (ring bound).
    pub capacity: usize,
    /// Probability of retaining a bulk-success trace (`--trace-sample`).
    pub sample: f64,
    /// Wall-time threshold above which a trace is always retained
    /// (`--trace-slow-ms`).
    pub slow: Duration,
    /// The K slowest traces of each window are retained even below the
    /// threshold; the window rolls on [`TraceStore::roll_window`]
    /// (driven by the serve monitor tick).
    pub slow_k: usize,
}

impl Default for TraceStoreConfig {
    fn default() -> Self {
        TraceStoreConfig {
            capacity: 512,
            sample: 0.01,
            slow: Duration::from_millis(100),
            slow_k: 8,
        }
    }
}

/// Deterministic per-trace-id sampling coin: hash the id through
/// splitmix64 and compare the top 53 bits against `rate`. No RNG state,
/// so retention decisions are reproducible for a fixed id sequence.
pub fn trace_sampled(trace_id: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let mut x = trace_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) < rate
}

/// Rolling top-K tracker of the slowest wall times seen this window.
struct SlowWindow {
    k: usize,
    /// Ascending wall times of the current window's top-K.
    slowest: Vec<u64>,
}

impl SlowWindow {
    /// True when `total_ns` belongs to the window's top-K (and records
    /// it).
    fn qualifies(&mut self, total_ns: u64) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.slowest.len() < self.k {
            let at = self.slowest.partition_point(|&v| v < total_ns);
            self.slowest.insert(at, total_ns);
            return true;
        }
        if total_ns > self.slowest[0] {
            self.slowest.remove(0);
            let at = self.slowest.partition_point(|&v| v < total_ns);
            self.slowest.insert(at, total_ns);
            return true;
        }
        false
    }
}

/// The bounded, lock-striped ring of retained [`RequestTrace`]s with
/// tail-based sampling (see the module docs for the policy).
pub struct TraceStore {
    stripes: [Mutex<VecDeque<Arc<RequestTrace>>>; N_TRACE_STRIPES],
    per_stripe_capacity: usize,
    config: TraceStoreConfig,
    window: Mutex<SlowWindow>,
    retained: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicU64,
}

impl TraceStore {
    pub fn new(config: TraceStoreConfig) -> TraceStore {
        TraceStore {
            stripes: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            per_stripe_capacity: config.capacity.div_ceil(N_TRACE_STRIPES).max(1),
            window: Mutex::new(SlowWindow {
                k: config.slow_k,
                slowest: Vec::new(),
            }),
            config,
            retained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &TraceStoreConfig {
        &self.config
    }

    fn stripe(&self, trace_id: u64) -> &Mutex<VecDeque<Arc<RequestTrace>>> {
        &self.stripes[(trace_id as usize) % N_TRACE_STRIPES]
    }

    /// The tail-sampling decision: offers a finished trace for
    /// retention. Errors and quarantined requests are always kept;
    /// traces at or above the slow threshold and the window's slowest K
    /// are kept; the rest survive a deterministic `sample` coin. Returns
    /// whether the trace was retained.
    pub fn offer(&self, trace: RequestTrace) -> bool {
        let slow_ns = u64::try_from(self.config.slow.as_nanos()).unwrap_or(u64::MAX);
        let retain = trace.error
            || trace.quarantined
            || trace.total_ns >= slow_ns
            || self.window.lock().qualifies(trace.total_ns)
            || trace_sampled(trace.trace_id, self.config.sample);
        if !retain {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut ring = self.stripe(trace.trace_id).lock();
        if ring.len() >= self.per_stripe_capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Arc::new(trace));
        self.retained.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Rolls the slowest-K window (the serve monitor calls this each
    /// tick, so "slowest K per window" means per monitor interval).
    pub fn roll_window(&self) {
        self.window.lock().slowest.clear();
    }

    /// Fetches a retained trace by id.
    pub fn get(&self, trace_id: u64) -> Option<Arc<RequestTrace>> {
        self.stripe(trace_id)
            .lock()
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// The `n` slowest retained traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        let mut all = self.all();
        all.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.trace_id.cmp(&b.trace_id))
        });
        all.truncate(n);
        all
    }

    /// Every retained error/quarantined trace, oldest trace id first.
    pub fn errors(&self) -> Vec<Arc<RequestTrace>> {
        let mut out: Vec<Arc<RequestTrace>> = self
            .all()
            .into_iter()
            .filter(|t| t.error || t.quarantined)
            .collect();
        out.sort_by_key(|t| t.trace_id);
        out
    }

    fn all(&self) -> Vec<Arc<RequestTrace>> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(stripe.lock().iter().cloned());
        }
        out
    }

    /// Retained traces currently in the ring.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traces retained since start (monotonic, unlike `len`).
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// Traces sampled out by the tail policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained traces later pushed out by the ring bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(trace_id: u64, total_ns: u64) -> RequestTrace {
        RequestTrace {
            trace_id,
            request_id: trace_id,
            row: 3,
            batch_id: Some(1),
            spans: vec![
                TraceSpan {
                    name: "request",
                    parent: None,
                    start_ns: 0,
                    dur_ns: total_ns,
                },
                TraceSpan {
                    name: "queue",
                    parent: Some(0),
                    start_ns: 0,
                    dur_ns: total_ns / 4,
                },
            ],
            counters: TraceCounters {
                store_hits: 2,
                store_misses: 1,
                samples_reused: 10,
                samples_fresh: 5,
                invocations: 6,
            },
            error: false,
            quarantined: false,
            degraded: false,
            total_ns,
            tenant: None,
        }
    }

    fn store(sample: f64, slow_ms: u64, slow_k: usize, capacity: usize) -> TraceStore {
        TraceStore::new(TraceStoreConfig {
            capacity,
            sample,
            slow: Duration::from_millis(slow_ms),
            slow_k,
        })
    }

    #[test]
    fn errors_and_quarantined_are_always_retained() {
        let s = store(0.0, 1_000, 0, 64);
        let mut t = trace(1, 10);
        t.error = true;
        assert!(s.offer(t));
        let mut q = trace(2, 10);
        q.error = true;
        q.quarantined = true;
        assert!(s.offer(q));
        assert!(!s.offer(trace(3, 10)), "fast success sampled out at 0.0");
        assert_eq!(s.retained(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.errors().len(), 2);
        assert!(s.get(1).is_some() && s.get(2).is_some() && s.get(3).is_none());
    }

    #[test]
    fn slow_threshold_and_window_topk_retain() {
        let s = store(0.0, 1, 2, 64);
        // Above the 1ms threshold: kept.
        assert!(s.offer(trace(1, 5_000_000)));
        // Below threshold but within the window's top-2: kept.
        assert!(s.offer(trace(2, 400_000)));
        assert!(s.offer(trace(3, 500_000)));
        // Slower than the current min of the top-2: replaces it.
        assert!(s.offer(trace(4, 600_000)));
        // Faster than both retained top-K entries: dropped.
        assert!(!s.offer(trace(5, 100_000)));
        s.roll_window();
        // Fresh window: top-K fills again.
        assert!(s.offer(trace(6, 100_000)));
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_calibrated() {
        let s = store(0.25, 1_000_000, 0, 100_000);
        let mut kept = 0usize;
        for id in 1..=4_000u64 {
            if s.offer(trace(id, 10)) {
                kept += 1;
            }
            // The same id must decide the same way every time.
            assert_eq!(trace_sampled(id, 0.25), trace_sampled(id, 0.25));
        }
        let rate = kept as f64 / 4_000.0;
        assert!((0.18..0.32).contains(&rate), "sample rate {rate} off 0.25");
        assert!(trace_sampled(7, 1.0));
        assert!(!trace_sampled(7, 0.0));
    }

    #[test]
    fn ring_bound_evicts_oldest() {
        let s = store(1.0, 1_000_000, 0, 16);
        for id in 1..=200u64 {
            assert!(s.offer(trace(id, 10)));
        }
        assert!(s.len() <= 16);
        assert_eq!(s.evicted(), 200 - s.len() as u64);
        // The newest id on its stripe survives; a long-evicted one is gone.
        assert!(s.get(200).is_some());
        assert!(s.get(1).is_none());
    }

    #[test]
    fn slowest_sorts_descending() {
        let s = store(1.0, 1_000_000_000, 0, 64);
        for (id, ns) in [(1u64, 100u64), (2, 900), (3, 500)] {
            s.offer(trace(id, ns));
        }
        let got: Vec<u64> = s.slowest(2).iter().map(|t| t.trace_id).collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn trace_json_is_single_line_and_balanced() {
        let line = trace(42, 1234).to_json();
        assert!(!line.contains('\n'));
        for key in [
            "\"trace_id\": 42",
            "\"request_id\": 42",
            "\"row\": 3",
            "\"batch_id\": 1",
            "\"total_ns\": 1234",
            "\"store_hits\": 2",
            "\"invocations\": 6",
            "\"spans\": [",
            "\"name\": \"request\"",
            "\"parent\": null",
            "\"parent\": 0",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        let mut unbatched = trace(43, 1);
        unbatched.batch_id = None;
        assert!(unbatched.to_json().contains("\"batch_id\": null"));
    }

    #[test]
    fn tenant_is_serialized_only_when_present() {
        let single = trace(44, 10);
        assert!(!single.to_json().contains("\"tenant\""));
        let mut multi = trace(45, 10);
        multi.tenant = Some(Arc::from("acme"));
        let line = multi.to_json();
        assert!(line.contains("\"tenant\": \"acme\""), "got {line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn chrome_trace_has_metadata_and_one_event_per_span() {
        let doc = trace(9, 2_000_000).to_chrome_trace();
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("\"name\": \"trace 9\""));
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 2);
        // Root carries the counters; ts is microseconds with ns decimals.
        assert!(doc.contains("\"samples_reused\": 10"));
        assert!(doc.contains("\"ts\": 0.000"));
        assert!(doc.contains("\"dur\": 2000.000"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn context_reparenting_keeps_the_id() {
        let ctx = TraceContext::root(5);
        assert_eq!(ctx.parent, 0);
        let child = ctx.child(2);
        assert_eq!(child.trace_id, 5);
        assert_eq!(child.parent, 2);
    }
}
