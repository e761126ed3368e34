//! Observability wiring for the Shahin drivers.
//!
//! The primitives live in the dependency-free `shahin-obs` crate
//! (re-exported here); this module owns the *metric name schema* every
//! driver records into, so a `--metrics-out` dump always carries the same
//! keys regardless of which (method, explainer) combination ran.

pub use shahin_obs::{
    bucket_index, bucket_upper_ns, current_thread_id, trace_sampled, Counter, EventRecord,
    EventSink, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    ProvenanceRecord, ProvenanceSink, ProvenanceTotals, RequestTrace, Span, StageSpan,
    TraceContext, TraceCounters, TraceSpan, TraceStore, TraceStoreConfig, ValueHistogram,
    N_BUCKETS, SPAN_PREFIX,
};

use std::sync::Arc;
use std::time::Instant;

use shahin_explain::ReuseStats;

use crate::anchor_cache::N_SHARDS;
use crate::store::LookupStats;

/// Canonical metric names recorded by the instrumented drivers.
pub mod names {
    /// Frequent itemset mining over the batch sample (span).
    pub const SPAN_FIM_MINE: &str = "fim.mine";
    /// Materializing τ labeled perturbations per itemset (span).
    pub const SPAN_MATERIALIZE_FILL: &str = "materialize.fill";
    /// Generating + undiscretizing perturbations, excluding the classifier
    /// (span; summed over materialization workers).
    pub const SPAN_PERTURB_GENERATE: &str = "perturb.generate";
    /// Per-tuple store lookup (span; summed over workers when parallel).
    pub const SPAN_RETRIEVE_MATCH: &str = "retrieve.match";
    /// Per-tuple explainer time: sample top-up + surrogate fit (span).
    pub const SPAN_SURROGATE_FIT: &str = "surrogate.fit";
    /// One Anchor beam search (span).
    pub const SPAN_ANCHOR_SEARCH: &str = "anchor.search";
    /// Routing one streamed tuple's fresh labeled samples into the
    /// repository or the warm-up cache (span).
    pub const SPAN_STREAMING_ABSORB: &str = "streaming.absorb";

    /// Store lookups ([`crate::PerturbationStore::matching`] calls).
    pub const STORE_LOOKUPS: &str = "store.lookups";
    /// Matched itemsets that had materialized samples.
    pub const STORE_HITS: &str = "store.hits";
    /// Matched itemsets whose entries were empty (evicted or never filled).
    pub const STORE_MISSES: &str = "store.misses";
    /// Lookups that found no reusable samples at all.
    pub const STORE_EMPTY_LOOKUPS: &str = "store.empty_lookups";
    /// Materialized samples pooled into explanations (partial-reuse
    /// volume: `samples_reused / lookups` is the per-tuple reuse rate).
    pub const STORE_SAMPLES_REUSED: &str = "store.samples_reused";
    /// LRU entries evicted under byte pressure.
    pub const STORE_EVICTIONS: &str = "store.evictions";
    /// Bytes currently resident in the store (gauge).
    pub const STORE_RESIDENT_BYTES: &str = "store.resident_bytes";
    /// Peak resident bytes (gauge, high-watermark).
    pub const STORE_PEAK_BYTES: &str = "store.peak_bytes";

    /// Streaming re-mining rounds.
    pub const STREAMING_REFRESH_ROUNDS: &str = "streaming.refresh_rounds";
    /// Warm-up LRU cache bucket evictions.
    pub const STREAMING_EARLY_EVICTIONS: &str = "streaming.early_evictions";
    /// Samples carried into a rebuilt store at refresh.
    pub const STREAMING_CARRIED_SAMPLES: &str = "streaming.carried_samples";
    /// Fresh labeled samples handed to the streaming absorb step, whether
    /// routed into an entry, cached during warm-up, or dropped because
    /// every matching entry was full. `span.streaming.absorb`'s sum divided
    /// by this is the routing cost per sample.
    pub const STREAMING_ABSORBED_SAMPLES: &str = "streaming.absorbed_samples";
    /// Refresh rounds that failed (panic mid-rebuild); the stream keeps
    /// serving from the stale store and retries next window.
    pub const STREAMING_REFRESH_FAILURES: &str = "streaming.refresh_failures";

    /// Rows pushed through the classifier (TracedClassifier).
    pub const CLASSIFIER_INVOCATIONS: &str = "classifier.invocations";
    /// Batch dispatches (TracedClassifier).
    pub const CLASSIFIER_BATCH_CALLS: &str = "classifier.batch_calls";
    /// Per-row classifier latency histogram.
    pub const CLASSIFIER_PREDICT: &str = "classifier.predict";
    /// Whole-batch classifier latency histogram.
    pub const CLASSIFIER_PREDICT_BATCH: &str = "classifier.predict_batch";

    /// Anchor beam-search levels entered.
    pub const ANCHOR_LEVELS: &str = "anchor.levels";
    /// Anchor candidates surviving coverage pruning.
    pub const ANCHOR_CANDIDATES: &str = "anchor.candidates";
    /// Searches returning a precision-verified anchor.
    pub const ANCHOR_VERIFIED: &str = "anchor.verified";
    /// Searches falling back to a best-effort rule.
    pub const ANCHOR_FALLBACKS: &str = "anchor.fallbacks";

    /// Provenance records collected (gauge; set from the sink's totals so
    /// repeated runs against one registry stay idempotent).
    pub const PROVENANCE_RECORDS: &str = "provenance.records";
    /// Σ matched itemsets over all provenance records (gauge).
    pub const PROVENANCE_MATCHED_ITEMSETS: &str = "provenance.matched_itemsets";
    /// Σ per-tuple store misses (gauge).
    pub const PROVENANCE_STORE_MISSES: &str = "provenance.store_misses";
    /// Σ materialized samples available to explained tuples (gauge).
    pub const PROVENANCE_SAMPLES_AVAILABLE: &str = "provenance.samples_available";
    /// Σ samples served from the store (gauge).
    pub const PROVENANCE_SAMPLES_REUSED: &str = "provenance.samples_reused";
    /// Σ samples generated fresh (gauge).
    pub const PROVENANCE_SAMPLES_FRESH: &str = "provenance.samples_fresh";
    /// Σ classifier invocations attributed to explained tuples (gauge).
    pub const PROVENANCE_INVOCATIONS: &str = "provenance.invocations";
    /// Σ Anchor shard-cache hits attributed to tuples (gauge).
    pub const PROVENANCE_CACHE_HITS: &str = "provenance.cache_hits";
    /// Σ Anchor shard-cache misses attributed to tuples (gauge).
    pub const PROVENANCE_CACHE_MISSES: &str = "provenance.cache_misses";
    /// Records discarded by the bounded sink (gauge).
    pub const PROVENANCE_DROPPED: &str = "provenance.dropped";
    /// Records flagged degraded (gauge).
    pub const PROVENANCE_DEGRADED: &str = "provenance.degraded";

    /// Retry attempts performed by the resilient classifier boundary.
    pub const RESILIENCE_RETRIES: &str = "resilience.retries";
    /// Transient classifier errors observed (retried or not).
    pub const RESILIENCE_TRANSIENT_ERRORS: &str = "resilience.transient_errors";
    /// Per-call deadline overruns observed.
    pub const RESILIENCE_TIMEOUTS: &str = "resilience.timeouts";
    /// Non-probability outputs sanitized before surrogate fitting.
    pub const RESILIENCE_INVALID_PROBA: &str = "resilience.invalid_proba";
    /// Calls that exhausted the retry budget or failed fatally.
    pub const RESILIENCE_GIVEUPS: &str = "resilience.giveups";
    /// Circuit-breaker trips.
    pub const RESILIENCE_BREAKER_OPENS: &str = "resilience.breaker_opens";
    /// Calls short-circuited by an open breaker.
    pub const RESILIENCE_BREAKER_SHORT_CIRCUITS: &str = "resilience.breaker_short_circuits";
    /// Unwinds caught and contained by any driver (per-tuple quarantine,
    /// per-itemset materialization isolation, refresh isolation).
    pub const RESILIENCE_PANICS_ISOLATED: &str = "resilience.panics_isolated";
    /// Tuples quarantined by a batch (equals the `BatchReport` failure
    /// count of the run).
    pub const RESILIENCE_TUPLES_FAILED: &str = "resilience.tuples_failed";
    /// Tuples explained in degraded mode (equals the `BatchReport`
    /// degraded count of the run).
    pub const RESILIENCE_TUPLES_DEGRADED: &str = "resilience.tuples_degraded";

    /// Explain requests admitted by the serve front end.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Requests picked up by a worker (the name predates the worker
    /// pool, when the unit of pickup was a micro-batch).
    pub const SERVE_BATCHES: &str = "serve.batches";
    /// Requests rejected with a 429-style frame because the admission
    /// queue was full.
    pub const SERVE_REJECTED_OVERLOAD: &str = "serve.rejected_overload";
    /// Frames rejected with a 400-style frame (bad JSON, unknown method,
    /// wrong arity, out-of-range row).
    pub const SERVE_REJECTED_MALFORMED: &str = "serve.rejected_malformed";
    /// Requests rejected with a 503-style frame during shutdown drain.
    pub const SERVE_REJECTED_SHUTDOWN: &str = "serve.rejected_shutdown";
    /// Admin `shutdown` frames refused with a 403 frame because the
    /// peer is not loopback and remote shutdown is not enabled.
    pub const SERVE_REJECTED_FORBIDDEN: &str = "serve.rejected_forbidden";
    /// Requests whose deadline expired while queued (408-style frame).
    pub const SERVE_DEADLINE_EXPIRED: &str = "serve.deadline_expired";
    /// Requests answered with a 422-style frame because the tuple was
    /// quarantined by the resilience boundary.
    pub const SERVE_QUARANTINED: &str = "serve.quarantined";
    /// Connections accepted over the lifetime of the server.
    pub const SERVE_CONNECTIONS: &str = "serve.connections";
    /// Warm-store refresh rounds triggered by the serve workers.
    pub const SERVE_REFRESHES: &str = "serve.refreshes";
    /// Requests waiting in the admission queue right now (gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Requests drained (still answered) after shutdown began (gauge).
    pub const SERVE_DRAINED: &str = "serve.drained";
    /// Requests per worker pickup (unitless value histogram: one sample
    /// of 1 per pickup, so count == `serve.batches` and sum == requests
    /// picked up).
    pub const SERVE_BATCH_SIZE: &str = "serve.batch_size";
    /// Time a request spent in the admission queue before a worker
    /// picked it up (histogram, ns).
    pub const SERVE_QUEUE_WAIT: &str = "serve.queue_wait";
    /// End-to-end per-request latency, admission to response write
    /// (histogram, ns).
    pub const SERVE_REQUEST_LATENCY: &str = "serve.request_latency";
    /// Admin `metrics`/`stats` frames answered (scrapes of the live
    /// observability plane; never counted as explain traffic).
    pub const SERVE_SCRAPES: &str = "serve.scrapes";
    /// Monitor-thread ticks completed (each tick samples gauges and
    /// feeds the windowed aggregator).
    pub const SERVE_MONITOR_TICKS: &str = "serve.monitor_ticks";
    /// Reader threads currently attached to live client connections
    /// (gauge, sampled by the monitor from the server's atomic).
    pub const SERVE_LIVE_CONNECTIONS: &str = "serve.live_connections";
    /// Workers handling a request right now (gauge, 0 when the pool is
    /// idle).
    pub const SERVE_BATCH_INFLIGHT: &str = "serve.batch_inflight";
    /// Itemset entries resident in the warm perturbation store (gauge,
    /// sampled by the monitor each tick).
    pub const SERVE_WARM_ENTRIES: &str = "serve.warm_entries";
    /// Bytes resident in the warm perturbation store (gauge, sampled by
    /// the monitor each tick).
    pub const SERVE_WARM_BYTES: &str = "serve.warm_bytes";

    /// Admin `trace` frames answered (trace fetches from the tail-sampled
    /// store; counted apart from `serve.scrapes` so scrape-rate
    /// assertions stay undisturbed).
    pub const SERVE_TRACE_FETCHES: &str = "serve.trace_fetches";
    /// Request traces currently retained in the tail-sampled store
    /// (gauge, sampled by the monitor each tick).
    pub const TRACE_RETAINED: &str = "trace.retained";
    /// Request traces not retained by the tail-sampling policy (gauge,
    /// monotone within one process; sampled by the monitor).
    pub const TRACE_DROPPED: &str = "trace.dropped";
    /// Retained traces evicted by the ring bound (gauge, sampled by the
    /// monitor each tick).
    pub const TRACE_EVICTED: &str = "trace.evicted";
    /// Counter regressions detected by the windowed aggregator — a
    /// persistent scraper watched the process restart (counter,
    /// published by the monitor from the aggregator's running total).
    pub const OBS_COUNTER_RESETS: &str = "obs.counter_resets";

    /// Warm-state snapshots written successfully (periodic + on-demand).
    pub const PERSIST_SNAPSHOTS_TAKEN: &str = "persist.snapshots_taken";
    /// On-demand snapshot requests (admin `snapshot` frames + SIGUSR1).
    pub const PERSIST_SNAPSHOTS_REQUESTED: &str = "persist.snapshots_requested";
    /// Snapshot attempts that failed (I/O errors; the last good snapshot
    /// on disk is untouched thanks to the atomic write path).
    pub const PERSIST_SNAPSHOTS_FAILED: &str = "persist.snapshots_failed";
    /// Size of the most recently written snapshot (gauge, bytes).
    pub const PERSIST_SNAPSHOT_BYTES: &str = "persist.snapshot_bytes";
    /// Warm-state hydrations that passed full validation.
    pub const PERSIST_LOADS_OK: &str = "persist.loads_ok";
    /// Hydration attempts rejected by validation (bad magic, stale
    /// version, fingerprint mismatch, truncation, CRC failure, structural
    /// corruption) — each falls back to a cold start.
    pub const PERSIST_LOAD_REJECTED: &str = "persist.load_rejected";

    /// Tenants registered with the serve cluster (gauge).
    pub const TENANCY_TENANTS: &str = "tenancy.tenants";
    /// Tenants currently holding a warm repository (gauge, sampled by
    /// the monitor each tick).
    pub const TENANCY_WARM_TENANTS: &str = "tenancy.warm_tenants";
    /// Bytes resident across every warm tenant repository (gauge).
    pub const TENANCY_WARM_BYTES: &str = "tenancy.warm_bytes";
    /// The cluster's global warm-memory budget (gauge, bytes; 0 when
    /// unbounded).
    pub const TENANCY_BUDGET_BYTES: &str = "tenancy.budget_bytes";
    /// Tenant repositories materialized lazily on first request (every
    /// cold start, hydrated or not).
    pub const TENANCY_COLD_STARTS: &str = "tenancy.cold_starts";
    /// Cold starts served classifier-free from a per-tenant snapshot (a
    /// subset of `tenancy.cold_starts`).
    pub const TENANCY_HYDRATIONS: &str = "tenancy.hydrations";
    /// Tenant repositories retired (idle keepalive expiry or memory
    /// budget pressure), each with an at-evict snapshot when the tenant
    /// has a snapshot path.
    pub const TENANCY_EVICTIONS: &str = "tenancy.evictions";
    /// Explain requests rejected with a 429-style frame because the
    /// tenant was at its in-flight admission quota.
    pub const TENANCY_QUOTA_REJECTIONS: &str = "tenancy.quota_rejections";
    /// Explain requests naming a tenant the manifest does not know
    /// (answered with a 404-style frame).
    pub const TENANCY_UNKNOWN_TENANT: &str = "tenancy.unknown_tenant";
    /// Wall time of one lazy tenant materialization (histogram, ns;
    /// hydrated and cold-primed starts both record).
    pub const TENANCY_COLD_START_LATENCY: &str = "tenancy.cold_start_latency";

    /// Name of a per-shard Anchor cache counter, `anchor.shardNN.{kind}`
    /// with `kind` one of `hits`, `misses`, `contention`.
    pub fn anchor_shard(idx: usize, kind: &str) -> String {
        format!("anchor.shard{idx:02}.{kind}")
    }

    /// Name of a per-tenant metric, `tenant.<name>.<kind>` — the
    /// dynamic-name idiom [`anchor_shard`] established, applied to the
    /// serve cluster's tenants. `kind` is one of `requests`,
    /// `cold_starts`, `hydrations`, `evictions`, `quota_rejections`,
    /// `snapshots_taken`, `loads_ok`, `load_rejected`, `warm_entries`,
    /// `warm_bytes`, `state` (0 cold, 1 warming, 2 warm, 3 evicted).
    /// Only recorded when the cluster is multi-tenant, so single-tenant
    /// metric dumps keep their PR 5–9 schema exactly.
    pub fn tenant_metric(tenant: &str, kind: &str) -> String {
        format!("tenant.{tenant}.{kind}")
    }
}

/// Pre-registers the full metric schema in `reg`, so a snapshot taken
/// after any run contains every key (with zero values for phases that
/// never fired — e.g. `span.surrogate.fit` stays zero on an Anchor run).
/// Idempotent; a disabled registry is left untouched.
pub fn register_standard(reg: &MetricsRegistry) {
    if !reg.is_enabled() {
        return;
    }
    for span in [
        names::SPAN_FIM_MINE,
        names::SPAN_MATERIALIZE_FILL,
        names::SPAN_PERTURB_GENERATE,
        names::SPAN_RETRIEVE_MATCH,
        names::SPAN_SURROGATE_FIT,
        names::SPAN_ANCHOR_SEARCH,
        names::SPAN_STREAMING_ABSORB,
    ] {
        reg.span_histogram(span);
    }
    for counter in [
        names::STORE_LOOKUPS,
        names::STORE_HITS,
        names::STORE_MISSES,
        names::STORE_EMPTY_LOOKUPS,
        names::STORE_SAMPLES_REUSED,
        names::STORE_EVICTIONS,
        names::STREAMING_REFRESH_ROUNDS,
        names::STREAMING_EARLY_EVICTIONS,
        names::STREAMING_CARRIED_SAMPLES,
        names::STREAMING_ABSORBED_SAMPLES,
        names::STREAMING_REFRESH_FAILURES,
        names::CLASSIFIER_INVOCATIONS,
        names::CLASSIFIER_BATCH_CALLS,
        names::ANCHOR_LEVELS,
        names::ANCHOR_CANDIDATES,
        names::ANCHOR_VERIFIED,
        names::ANCHOR_FALLBACKS,
        names::RESILIENCE_RETRIES,
        names::RESILIENCE_TRANSIENT_ERRORS,
        names::RESILIENCE_TIMEOUTS,
        names::RESILIENCE_INVALID_PROBA,
        names::RESILIENCE_GIVEUPS,
        names::RESILIENCE_BREAKER_OPENS,
        names::RESILIENCE_BREAKER_SHORT_CIRCUITS,
        names::RESILIENCE_PANICS_ISOLATED,
        names::RESILIENCE_TUPLES_FAILED,
        names::RESILIENCE_TUPLES_DEGRADED,
        names::SERVE_REQUESTS,
        names::SERVE_BATCHES,
        names::SERVE_REJECTED_OVERLOAD,
        names::SERVE_REJECTED_MALFORMED,
        names::SERVE_REJECTED_SHUTDOWN,
        names::SERVE_REJECTED_FORBIDDEN,
        names::SERVE_DEADLINE_EXPIRED,
        names::SERVE_QUARANTINED,
        names::SERVE_CONNECTIONS,
        names::SERVE_REFRESHES,
        names::SERVE_SCRAPES,
        names::SERVE_MONITOR_TICKS,
        names::SERVE_TRACE_FETCHES,
        names::OBS_COUNTER_RESETS,
        names::PERSIST_SNAPSHOTS_TAKEN,
        names::PERSIST_SNAPSHOTS_REQUESTED,
        names::PERSIST_SNAPSHOTS_FAILED,
        names::PERSIST_LOADS_OK,
        names::PERSIST_LOAD_REJECTED,
        names::TENANCY_COLD_STARTS,
        names::TENANCY_HYDRATIONS,
        names::TENANCY_EVICTIONS,
        names::TENANCY_QUOTA_REJECTIONS,
        names::TENANCY_UNKNOWN_TENANT,
    ] {
        reg.counter(counter);
    }
    for gauge in [
        names::STORE_RESIDENT_BYTES,
        names::STORE_PEAK_BYTES,
        names::SERVE_QUEUE_DEPTH,
        names::SERVE_DRAINED,
        names::SERVE_LIVE_CONNECTIONS,
        names::SERVE_BATCH_INFLIGHT,
        names::SERVE_WARM_ENTRIES,
        names::SERVE_WARM_BYTES,
        names::TRACE_RETAINED,
        names::TRACE_DROPPED,
        names::TRACE_EVICTED,
        names::PERSIST_SNAPSHOT_BYTES,
        names::TENANCY_TENANTS,
        names::TENANCY_WARM_TENANTS,
        names::TENANCY_WARM_BYTES,
        names::TENANCY_BUDGET_BYTES,
        names::PROVENANCE_RECORDS,
        names::PROVENANCE_MATCHED_ITEMSETS,
        names::PROVENANCE_STORE_MISSES,
        names::PROVENANCE_SAMPLES_AVAILABLE,
        names::PROVENANCE_SAMPLES_REUSED,
        names::PROVENANCE_SAMPLES_FRESH,
        names::PROVENANCE_INVOCATIONS,
        names::PROVENANCE_CACHE_HITS,
        names::PROVENANCE_CACHE_MISSES,
        names::PROVENANCE_DROPPED,
        names::PROVENANCE_DEGRADED,
    ] {
        reg.gauge(gauge);
    }
    for hist in [
        names::CLASSIFIER_PREDICT,
        names::CLASSIFIER_PREDICT_BATCH,
        names::SERVE_QUEUE_WAIT,
        names::SERVE_REQUEST_LATENCY,
        names::TENANCY_COLD_START_LATENCY,
    ] {
        reg.histogram(hist);
    }
    reg.value_histogram(names::SERVE_BATCH_SIZE);
    for shard in 0..N_SHARDS {
        for kind in ["hits", "misses", "contention"] {
            reg.counter(&names::anchor_shard(shard, kind));
        }
    }
}

/// Folds the attached provenance sink's totals into the registry as
/// `provenance.*` gauges (set, not added, so re-folding is idempotent).
/// No-op when no sink is attached. Called by [`crate::run_with_obs`] after
/// every instrumented run, so `--metrics-out` summarizes the lineage next
/// to the aggregate counters it must reconcile with.
pub fn fold_provenance(reg: &MetricsRegistry) {
    let Some(sink) = reg.provenance_sink() else {
        return;
    };
    let t = sink.totals();
    reg.gauge(names::PROVENANCE_RECORDS).set(t.records);
    reg.gauge(names::PROVENANCE_MATCHED_ITEMSETS)
        .set(t.matched_itemsets);
    reg.gauge(names::PROVENANCE_STORE_MISSES)
        .set(t.store_misses);
    reg.gauge(names::PROVENANCE_SAMPLES_AVAILABLE)
        .set(t.samples_available);
    reg.gauge(names::PROVENANCE_SAMPLES_REUSED)
        .set(t.samples_reused);
    reg.gauge(names::PROVENANCE_SAMPLES_FRESH)
        .set(t.samples_fresh);
    reg.gauge(names::PROVENANCE_INVOCATIONS).set(t.invocations);
    reg.gauge(names::PROVENANCE_CACHE_HITS).set(t.cache_hits);
    reg.gauge(names::PROVENANCE_CACHE_MISSES)
        .set(t.cache_misses);
    reg.gauge(names::PROVENANCE_DROPPED).set(sink.dropped());
    reg.gauge(names::PROVENANCE_DEGRADED).set(t.degraded);
}

/// The per-driver provenance context: the attached sink (if any) plus the
/// interned method/explainer names, resolved once per run so the per-tuple
/// hot path pays one `Option` check when collection is disabled.
#[derive(Clone)]
pub(crate) struct ProvenanceCtx {
    sink: Option<Arc<ProvenanceSink>>,
    method: Arc<str>,
    explainer: Arc<str>,
    /// Serving request id stamped on every record this context emits
    /// (`None` for the offline drivers).
    request: Option<u64>,
    /// Trace id stamped on every record this context emits, joining the
    /// lineage against the request's retained [`RequestTrace`] (`None`
    /// for the offline drivers and untraced serve requests).
    trace: Option<u64>,
    /// Tenant name stamped on every record this context emits (`None`
    /// for the offline drivers and single-tenant serving, so existing
    /// provenance schemas are unchanged outside a multi-tenant cluster).
    tenant: Option<Arc<str>>,
}

impl ProvenanceCtx {
    /// Resolves the registry's sink for one `(method, explainer)` run.
    pub(crate) fn new(reg: &MetricsRegistry, method: &str, explainer: &str) -> ProvenanceCtx {
        ProvenanceCtx {
            sink: reg.provenance_sink(),
            method: Arc::from(method),
            explainer: Arc::from(explainer),
            request: None,
            trace: None,
            tenant: None,
        }
    }

    /// A copy of this context that stamps `tenant` on its records — the
    /// multi-tenant serve cluster labels each engine's lineage with the
    /// tenant it belongs to.
    pub(crate) fn with_tenant(&self, tenant: Option<Arc<str>>) -> ProvenanceCtx {
        ProvenanceCtx {
            tenant,
            ..self.clone()
        }
    }

    /// Stamps `request` (and, when present, `trace`) on every record this
    /// context emits from now on — the serve engine tags each tuple with
    /// the request that asked for it.
    pub(crate) fn tag(&mut self, request: u64, trace: Option<u64>) {
        self.request = Some(request);
        self.trace = trace;
    }

    /// Whether records carry a trace id, i.e. the tuple's stage spans are
    /// wanted.
    pub(crate) fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Starts the per-tuple wall clock — `None` (free) when disabled.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.sink.is_some().then(Instant::now)
    }

    /// Emits one tuple's record (no-op without a sink).
    pub(crate) fn record(&self, l: Lineage<'_>) {
        let Some(sink) = &self.sink else {
            return;
        };
        sink.push(ProvenanceRecord {
            tuple: l.tuple,
            method: Arc::clone(&self.method),
            explainer: Arc::clone(&self.explainer),
            epoch: l.epoch,
            thread: current_thread_id(),
            matched_itemsets: l.matched.to_vec(),
            store_misses: l.lookup.misses,
            samples_available: l.lookup.samples_available,
            samples_reused: l.reuse.reused,
            samples_fresh: l.reuse.fresh,
            tau: l.reuse.reused + l.reuse.fresh,
            invocations: l.reuse.invocations,
            cache_hits: l.cache.0,
            cache_misses: l.cache.1,
            wall_ns: l.t0.map_or(0, |t| {
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }),
            degraded: l.degraded,
            request: self.request,
            trace_id: self.trace,
            tenant: self.tenant.clone(),
        });
    }
}

/// One explained tuple's lineage, as the per-tuple kernel hands it to
/// [`ProvenanceCtx::record`].
pub(crate) struct Lineage<'a> {
    pub(crate) tuple: u32,
    pub(crate) epoch: u64,
    /// Store ids of the matched itemsets that had samples.
    pub(crate) matched: &'a [u32],
    /// The store lookup's accounting.
    pub(crate) lookup: LookupStats,
    /// Samples reused and generated fresh, and the classifier invocations
    /// spent on the tuple.
    pub(crate) reuse: ReuseStats,
    /// The Anchor sampler's shard-cache (hits, misses) for this tuple.
    pub(crate) cache: (u64, u64),
    /// Whether the resilient boundary absorbed incidents on this tuple.
    pub(crate) degraded: bool,
    /// The tuple's [`ProvenanceCtx::start`].
    pub(crate) t0: Option<Instant>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_ctx_is_free_without_a_sink_and_records_with_one() {
        let reg = MetricsRegistry::new();
        let ctx = ProvenanceCtx::new(&reg, "Shahin-Batch", "LIME");
        assert!(ctx.start().is_none());
        let lineage = |matched: &'static [u32], lookup, degraded, t0| Lineage {
            tuple: 7,
            epoch: 0,
            matched,
            lookup,
            reuse: ReuseStats {
                reused: 40,
                fresh: 59,
                invocations: 60,
                clamped: 0,
            },
            cache: (0, 0),
            degraded,
            t0,
        };
        ctx.record(lineage(&[], LookupStats::default(), false, None));

        let sink = Arc::new(ProvenanceSink::new());
        reg.attach_provenance_sink(Arc::clone(&sink));
        let ctx = ProvenanceCtx::new(&reg, "Shahin-Batch", "LIME");
        let t0 = ctx.start();
        assert!(t0.is_some());
        let lookup = LookupStats {
            hits: 2,
            misses: 1,
            samples_available: 40,
        };
        ctx.record(lineage(&[3, 9], lookup, true, t0));
        let recs = sink.records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.tuple, 7);
        assert_eq!(&*r.method, "Shahin-Batch");
        assert_eq!(&*r.explainer, "LIME");
        assert_eq!(r.matched_itemsets, vec![3, 9]);
        assert_eq!(r.samples_reused + r.samples_fresh, r.tau);
        assert_eq!(r.store_misses, 1);

        fold_provenance(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge(names::PROVENANCE_RECORDS), 1);
        assert_eq!(snap.gauge(names::PROVENANCE_SAMPLES_REUSED), 40);
        assert_eq!(snap.gauge(names::PROVENANCE_INVOCATIONS), 60);
        assert_eq!(snap.gauge(names::PROVENANCE_DEGRADED), 1);
        // Re-folding is idempotent.
        fold_provenance(&reg);
        assert_eq!(reg.snapshot().gauge(names::PROVENANCE_RECORDS), 1);
    }

    #[test]
    fn standard_schema_is_complete_and_idempotent() {
        let reg = MetricsRegistry::new();
        register_standard(&reg);
        register_standard(&reg);
        let snap = reg.snapshot();
        for key in [
            names::STORE_HITS,
            names::STORE_MISSES,
            names::STREAMING_REFRESH_ROUNDS,
            names::STREAMING_REFRESH_FAILURES,
            names::CLASSIFIER_INVOCATIONS,
            names::RESILIENCE_RETRIES,
            names::RESILIENCE_INVALID_PROBA,
            names::RESILIENCE_PANICS_ISOLATED,
            names::RESILIENCE_TUPLES_FAILED,
            names::RESILIENCE_TUPLES_DEGRADED,
            names::TENANCY_COLD_STARTS,
            names::TENANCY_EVICTIONS,
            names::TENANCY_QUOTA_REJECTIONS,
            &names::anchor_shard(0, "hits"),
            &names::anchor_shard(N_SHARDS - 1, "contention"),
        ] {
            assert!(snap.counters.contains_key(key), "missing counter {key}");
        }
        for key in ["span.fim.mine", "span.surrogate.fit", "span.anchor.search"] {
            assert!(snap.histograms.contains_key(key), "missing span {key}");
        }
        assert!(snap.gauges.contains_key(names::STORE_RESIDENT_BYTES));
        assert!(snap.gauges.contains_key(names::PROVENANCE_RECORDS));
        assert!(snap.gauges.contains_key(names::PROVENANCE_DROPPED));
        assert!(snap.histograms.contains_key(names::CLASSIFIER_PREDICT));
    }

    #[test]
    fn disabled_registry_stays_empty() {
        let reg = MetricsRegistry::disabled();
        register_standard(&reg);
        assert!(reg.snapshot().counters.is_empty());
    }
}
