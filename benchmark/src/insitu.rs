//! In-situ per-layer metrics both kinds of workload read the same way in
//! the traced repeat: from the registry snapshot and the provenance the
//! program already exposes.

use shahin::obs::{HistogramSnapshot, MetricsSnapshot, SPAN_PREFIX};
use shahin::ProvenanceSink;

use crate::report::Values;
use crate::spans::Span;

/// A latency histogram of the snapshot (empty when never registered).
pub fn hist(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    snap.histograms.get(name).cloned().unwrap_or_default()
}

/// The histogram behind the program's span `name`.
pub fn span_hist(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    hist(snap, &format!("{SPAN_PREFIX}{name}"))
}

/// Mean of a histogram's samples, 0 when it has none.
pub fn mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum_ns as f64 / h.count as f64
    }
}

/// `a / (a + b)`, 0 when both are 0.
pub fn share(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

/// Provenance summed over every sink of a traced run.
#[derive(Default)]
pub struct Lineage {
    records: u64,
    reused: u64,
    fresh: u64,
    cache_hits: u64,
    cache_misses: u64,
    wall_ns: u64,
}

impl Lineage {
    pub fn absorb(&mut self, sink: &ProvenanceSink) {
        let t = sink.totals();
        self.records += t.records;
        self.reused += t.samples_reused;
        self.fresh += t.samples_fresh;
        self.cache_hits += t.cache_hits;
        self.cache_misses += t.cache_misses;
        self.wall_ns += sink.records().iter().map(|r| r.wall_ns).sum::<u64>();
    }
}

/// Stores the metrics every traced run derives the same way.
/// `capacity_ns` is the thread time the run had: wall × worker threads.
pub fn insert_common(
    snap: &MetricsSnapshot,
    lineage: &Lineage,
    capacity_ns: f64,
    values: &mut Values,
) {
    let predict = hist(snap, "classifier.predict");
    let predict_batch = hist(snap, "classifier.predict_batch");
    let invocations = snap.counter("classifier.invocations") as f64;
    values.insert("model.invocations", invocations);
    values.insert(
        "model.rows_per_call",
        invocations / (predict.count + predict_batch.count).max(1) as f64,
    );
    values.insert(
        "model.busy_share",
        (predict.sum_ns + predict_batch.sum_ns) as f64 / capacity_ns.max(1.0),
    );
    let mine = span_hist(snap, "fim.mine");
    values.insert("fim.mine_ns_per_call", mean(&mine));
    values.insert("fim.mine_calls", mine.count as f64);
    let search = span_hist(snap, "anchor.search");
    values.insert("explain.anchor_search_ns_per_tuple", mean(&search));
    values.insert(
        "explain.anchor_candidates_per_tuple",
        snap.counter("anchor.candidates") as f64 / search.count.max(1) as f64,
    );
    values.insert(
        "core.materialize_ns",
        mean(&span_hist(snap, "materialize.fill")),
    );
    values.insert(
        "core.store_match_ns_per_row",
        mean(&span_hist(snap, "retrieve.match")),
    );
    values.insert(
        "core.store_hit_share",
        share(snap.counter("store.hits"), snap.counter("store.misses")),
    );
    values.insert(
        "core.store_evictions",
        snap.counter("store.evictions") as f64,
    );
    values.insert(
        "core.stream_refreshes",
        snap.counter("streaming.refresh_rounds") as f64,
    );
    values.insert("core.reuse_share", share(lineage.reused, lineage.fresh));
    values.insert(
        "core.anchor_cache_hit_share",
        share(lineage.cache_hits, lineage.cache_misses),
    );
    values.insert(
        "core.per_tuple_ns",
        lineage.wall_ns as f64 / lineage.records.max(1) as f64,
    );
}

/// Stores the set-up stage metrics from the benchmark's own spans: the
/// first dataset and forest built, the last engine primed.
pub fn insert_setup(spans: &[Span], values: &mut Values) {
    for span in spans {
        let secs = (span.end_ns - span.start_ns) as f64 / 1e9;
        match span.name.as_str() {
            "tabular.synth" => {
                values.entry("tabular.synth_s").or_insert(secs);
            }
            "model.fit" => {
                values.entry("model.fit_s").or_insert(secs);
            }
            "core.prime" => {
                values.insert("core.prime_s", secs);
            }
            _ => {}
        }
    }
}
