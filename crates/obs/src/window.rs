//! Windowed views of a [`crate::MetricsRegistry`] for long-running
//! processes, plus SLO error-budget tracking on top of them.
//!
//! Every metric in the registry is cumulative since process start, which
//! is the right shape for end-of-run artifacts but useless for a server
//! that never exits: "12 million requests served" says nothing about the
//! last ten seconds. A [`WindowedAggregator`] turns the cumulative
//! registry into a live view by snapshotting it every monitor tick and
//! *differencing* consecutive snapshots into [`WindowDelta`]s kept in a
//! bounded ring:
//!
//! * counters — monotonic, so `fresh - prev` is the per-window increment.
//!   A counter *below* its baseline means the process restarted under a
//!   persistent scraper: the aggregator counts the reset
//!   ([`WindowedAggregator::counter_resets`], published as the
//!   `obs.counter_resets` counter by the serve monitor), re-baselines on
//!   the fresh snapshot, and emits no bogus window for that tick;
//! * gauges — instantaneous, so the window keeps the *last value*;
//! * histograms — per-bucket counts are monotonic, so bucket-wise
//!   differencing yields a histogram of only the samples recorded inside
//!   the window, from which windowed p50/p95/p99 fall out of the same
//!   log2-bucket quantile math the cumulative export uses.
//!
//! [`SloTracker`] consumes the merged ring to maintain burn-rate and
//! budget-remaining gauges per objective (see its docs for the math).
//! Both types are plain single-threaded state — the serve monitor thread
//! owns them behind a mutex and everything else reads through it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::registry::{bucket_upper_ns, MetricsRegistry};
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// The difference between two consecutive registry snapshots: what
/// happened during one monitor window.
#[derive(Clone, Debug, Default)]
pub struct WindowDelta {
    /// Monotonic window sequence number (1 for the first differenced
    /// window).
    pub seq: u64,
    /// Wall-clock length of the window.
    pub duration: Duration,
    /// Counter increments during the window.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at the *end* of the window (last value wins).
    pub gauges: BTreeMap<String, u64>,
    /// Nanosecond histograms restricted to samples recorded during the
    /// window.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Unitless value histograms restricted to the window.
    pub value_histograms: BTreeMap<String, HistogramSnapshot>,
}

impl WindowDelta {
    /// Counter increment by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge last-value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Counter rate in events/second over this window (0 when the window
    /// has no measurable duration).
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.counter(name) as f64 / secs
    }

    /// Windowed quantile of a nanosecond histogram (`None` when the
    /// histogram recorded nothing during the window).
    pub fn quantile_ns(&self, name: &str, q: f64) -> Option<u64> {
        self.histograms.get(name).and_then(|h| h.quantile_ns(q))
    }
}

/// Bucket-wise difference `fresh - prev` of two cumulative histogram
/// snapshots. Buckets only ever grow, so saturating subtraction is exact
/// in steady state and degrades to an empty delta on reset.
fn diff_histogram(fresh: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    let mut prev_buckets: BTreeMap<usize, u64> = BTreeMap::new();
    for &(i, n) in &prev.buckets {
        prev_buckets.insert(i, n);
    }
    let mut buckets = Vec::new();
    for &(i, n) in &fresh.buckets {
        let d = n.saturating_sub(prev_buckets.get(&i).copied().unwrap_or(0));
        if d > 0 {
            buckets.push((i, d));
        }
    }
    HistogramSnapshot {
        count: fresh.count.saturating_sub(prev.count),
        sum_ns: fresh.sum_ns.saturating_sub(prev.sum_ns),
        buckets,
    }
}

fn diff_histogram_map(
    fresh: &BTreeMap<String, HistogramSnapshot>,
    prev: &BTreeMap<String, HistogramSnapshot>,
) -> BTreeMap<String, HistogramSnapshot> {
    let empty = HistogramSnapshot::default();
    let mut out = BTreeMap::new();
    for (name, f) in fresh {
        let d = diff_histogram(f, prev.get(name).unwrap_or(&empty));
        if d.count > 0 {
            out.insert(name.clone(), d);
        }
    }
    out
}

/// Merge `delta` into an accumulating histogram (bucket-wise sum).
fn merge_histogram(acc: &mut HistogramSnapshot, delta: &HistogramSnapshot) {
    acc.count += delta.count;
    acc.sum_ns = acc.sum_ns.saturating_add(delta.sum_ns);
    let mut merged: BTreeMap<usize, u64> = acc.buckets.iter().copied().collect();
    for &(i, n) in &delta.buckets {
        *merged.entry(i).or_insert(0) += n;
    }
    acc.buckets = merged.into_iter().collect();
}

/// A bounded ring of [`WindowDelta`]s fed by differencing consecutive
/// registry snapshots. See the module docs for the model.
pub struct WindowedAggregator {
    capacity: usize,
    ring: std::collections::VecDeque<WindowDelta>,
    prev: Option<(Instant, MetricsSnapshot)>,
    next_seq: u64,
    counter_resets: u64,
}

impl WindowedAggregator {
    /// A ring holding the most recent `windows` deltas (clamped to ≥ 1).
    pub fn new(windows: usize) -> Self {
        Self {
            capacity: windows.max(1),
            ring: std::collections::VecDeque::new(),
            prev: None,
            next_seq: 1,
            counter_resets: 0,
        }
    }

    /// Times a counter regressed below its baseline (process restart
    /// under a persistent scraper); each one re-baselined the aggregator.
    pub fn counter_resets(&self) -> u64 {
        self.counter_resets
    }

    /// Maximum number of windows retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of complete windows currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Feeds one monitor tick. The first call only establishes the
    /// baseline snapshot and produces no window; every later call pushes
    /// one delta (evicting the oldest past capacity) and returns a
    /// reference to it.
    pub fn tick(&mut self, snapshot: MetricsSnapshot) -> Option<&WindowDelta> {
        self.tick_at(Instant::now(), snapshot)
    }

    /// [`Self::tick`] with an explicit timestamp, for deterministic tests.
    /// A timestamp earlier than the previous tick yields a zero-length
    /// window rather than panicking.
    pub fn tick_at(&mut self, at: Instant, snapshot: MetricsSnapshot) -> Option<&WindowDelta> {
        let Some((prev_at, prev_snap)) = self.prev.take() else {
            self.prev = Some((at, snapshot));
            return None;
        };
        // A counter below its baseline can only mean the process behind
        // the snapshots restarted: re-baseline on the fresh snapshot and
        // skip the window instead of reporting a silent all-zero delta
        // (the restart gap is unknowable, not zero).
        if snapshot
            .counters
            .iter()
            .any(|(name, &v)| v < prev_snap.counter(name))
        {
            self.counter_resets += 1;
            self.prev = Some((at, snapshot));
            return None;
        }
        let mut counters = BTreeMap::new();
        for (name, &v) in &snapshot.counters {
            let d = v.saturating_sub(prev_snap.counter(name));
            if d > 0 {
                counters.insert(name.clone(), d);
            }
        }
        let delta = WindowDelta {
            seq: self.next_seq,
            duration: at.saturating_duration_since(prev_at),
            counters,
            gauges: snapshot.gauges.clone(),
            histograms: diff_histogram_map(&snapshot.histograms, &prev_snap.histograms),
            value_histograms: diff_histogram_map(
                &snapshot.value_histograms,
                &prev_snap.value_histograms,
            ),
        };
        self.next_seq += 1;
        self.prev = Some((at, snapshot));
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(delta);
        self.ring.back()
    }

    /// Iterates the retained windows oldest-first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowDelta> {
        self.ring.iter()
    }

    /// Collapses the whole ring into one delta spanning every retained
    /// window: counters and histogram buckets sum, gauges keep the most
    /// recent value, `duration` is the total covered wall time. An empty
    /// ring merges to an all-zero delta.
    pub fn merged(&self) -> WindowDelta {
        let mut out = WindowDelta::default();
        for w in &self.ring {
            out.seq = w.seq;
            out.duration += w.duration;
            for (name, &d) in &w.counters {
                *out.counters.entry(name.clone()).or_insert(0) += d;
            }
            for (name, &v) in &w.gauges {
                out.gauges.insert(name.clone(), v);
            }
            for (name, h) in &w.histograms {
                merge_histogram(out.histograms.entry(name.clone()).or_default(), h);
            }
            for (name, h) in &w.value_histograms {
                merge_histogram(out.value_histograms.entry(name.clone()).or_default(), h);
            }
        }
        out
    }
}

/// One service-level objective over a request target: a latency goal
/// ("p99 ≤ objective") and an error-rate goal ("errors / requests ≤
/// objective"), both evaluated over the aggregator's retained windows.
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// Dotted target name the gauges are published under, e.g.
    /// `serve.request` → `slo.serve.request.burn_rate`.
    pub target: String,
    /// Nanosecond histogram holding per-request latencies.
    pub latency_histogram: String,
    /// Latency objective: quantile `latency_quantile` must sit at or
    /// below this duration.
    pub latency_objective: Duration,
    /// Which quantile the latency objective constrains (e.g. 0.99).
    pub latency_quantile: f64,
    /// Counter of successfully served requests.
    pub requests_counter: String,
    /// Counters whose increments count as errors against the error
    /// budget (rejections, timeouts, quarantines).
    pub error_counters: Vec<String>,
    /// Allowed error fraction, e.g. 0.001 for a 99.9% availability goal.
    pub error_rate_objective: f64,
}

/// Computed state of one objective for one evaluation window.
#[derive(Clone, Copy, Debug, Default)]
pub struct SloStatus {
    /// Latency samples observed in the window.
    pub latency_samples: u64,
    /// Samples whose bucket upper bound exceeds the latency objective.
    pub latency_violations: u64,
    /// Served requests in the window.
    pub requests: u64,
    /// Error events in the window.
    pub errors: u64,
    /// max(latency burn, error burn): 1.0 = spending the budget exactly
    /// as fast as allowed, >1 = on track to blow the objective.
    pub burn_rate: f64,
    /// Fraction of the window's error budget left, in [0, 1].
    pub budget_remaining: f64,
}

/// Gauge name for a target's burn rate, stored in milli-units
/// (burn × 1000) because gauges are integers; 1000 means "burning the
/// budget exactly as fast as allowed".
pub fn burn_rate_gauge(target: &str) -> String {
    format!("slo.{target}.burn_rate")
}

/// Gauge name for a target's remaining error budget, stored in parts per
/// million of the window's budget (1_000_000 = untouched).
pub fn budget_remaining_gauge(target: &str) -> String {
    format!("slo.{target}.budget_remaining")
}

/// Evaluates [`SloConfig`]s against a [`WindowedAggregator`] and
/// publishes the results as `slo.*` gauges.
///
/// # The math
///
/// Over the merged ring (the whole retained look-back period):
///
/// * latency — the objective "q-th quantile ≤ T" allows a fraction
///   `1 - q` of samples to exceed T. The observed bad fraction is the
///   share of windowed samples in buckets strictly above T's bucket.
///   `burn = observed_bad_fraction / (1 - q)`.
/// * errors — the objective allows `error_rate_objective` of traffic to
///   fail. Observed fraction is `errors / (requests + errors)`.
///   `burn = observed / objective`.
///
/// The published burn rate is the worse of the two; budget remaining is
/// `max(0, 1 - burn)` — how much of this look-back period's budget is
/// still unspent. Windows with no traffic burn nothing.
pub struct SloTracker {
    configs: Vec<SloConfig>,
}

impl SloTracker {
    pub fn new(configs: Vec<SloConfig>) -> Self {
        Self { configs }
    }

    pub fn configs(&self) -> &[SloConfig] {
        &self.configs
    }

    /// Computes one objective's status from a merged window delta.
    pub fn evaluate(config: &SloConfig, merged: &WindowDelta) -> SloStatus {
        let mut status = SloStatus {
            budget_remaining: 1.0,
            ..SloStatus::default()
        };

        // Latency dimension: count samples landing in buckets whose
        // upper bound exceeds the objective. Bucket granularity means a
        // sample is only charged when its whole bucket is above the
        // objective — consistent with how the quantile export rounds up.
        let objective_ns = config
            .latency_objective
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let mut latency_burn = 0.0;
        if let Some(h) = merged.histograms.get(&config.latency_histogram) {
            status.latency_samples = h.count;
            status.latency_violations = h
                .buckets
                .iter()
                .filter(|&&(i, _)| bucket_upper_ns(i) > objective_ns)
                .map(|&(_, n)| n)
                .sum();
            let allowed = (1.0 - config.latency_quantile).max(1e-9);
            if status.latency_samples > 0 {
                let observed = status.latency_violations as f64 / status.latency_samples as f64;
                latency_burn = observed / allowed;
            }
        }

        // Error dimension: errors over total attempted traffic.
        status.requests = merged.counter(&config.requests_counter);
        status.errors = config
            .error_counters
            .iter()
            .map(|c| merged.counter(c))
            .sum();
        let mut error_burn = 0.0;
        let attempts = status.requests + status.errors;
        if attempts > 0 && config.error_rate_objective > 0.0 {
            let observed = status.errors as f64 / attempts as f64;
            error_burn = observed / config.error_rate_objective;
        }

        status.burn_rate = latency_burn.max(error_burn);
        status.budget_remaining = (1.0 - status.burn_rate).max(0.0);
        status
    }

    /// Evaluates every objective against the aggregator's merged ring and
    /// publishes `slo.<target>.burn_rate` (milli-units) and
    /// `slo.<target>.budget_remaining` (ppm) gauges on `registry`.
    /// Returns the statuses in config order.
    pub fn update(&self, agg: &WindowedAggregator, registry: &MetricsRegistry) -> Vec<SloStatus> {
        let merged = agg.merged();
        let mut out = Vec::with_capacity(self.configs.len());
        for config in &self.configs {
            let status = Self::evaluate(config, &merged);
            let burn_milli = (status.burn_rate * 1e3).min(u64::MAX as f64) as u64;
            let budget_ppm = (status.budget_remaining * 1e6).round() as u64;
            registry
                .gauge(&burn_rate_gauge(&config.target))
                .set(burn_milli);
            registry
                .gauge(&budget_remaining_gauge(&config.target))
                .set(budget_ppm);
            out.push(status);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::bucket_index;

    fn reg_with(reqs: u64, errs: u64, lat_ns: &[u64]) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(reqs);
        reg.counter("serve.rejected_overloaded").add(errs);
        let h = reg.histogram("serve.request_latency");
        for &ns in lat_ns {
            h.record_ns(ns);
        }
        reg
    }

    fn slo_config() -> SloConfig {
        SloConfig {
            target: "serve.request".into(),
            latency_histogram: "serve.request_latency".into(),
            latency_objective: Duration::from_micros(100),
            latency_quantile: 0.99,
            requests_counter: "serve.requests".into(),
            error_counters: vec!["serve.rejected_overloaded".into()],
            error_rate_objective: 0.01,
        }
    }

    #[test]
    fn first_tick_is_baseline_only() {
        let mut agg = WindowedAggregator::new(4);
        let reg = reg_with(10, 0, &[1_000]);
        assert!(agg.tick(reg.snapshot()).is_none());
        assert_eq!(agg.len(), 0);
        // Second tick with no movement: a window exists but is all-zero.
        let w = agg.tick(reg.snapshot()).unwrap();
        assert_eq!(w.counter("serve.requests"), 0);
        assert!(w.histograms.is_empty());
        assert_eq!(agg.len(), 1);
    }

    #[test]
    fn differencing_isolates_per_window_activity() {
        let mut agg = WindowedAggregator::new(4);
        let reg = reg_with(5, 0, &[1_000, 1_000]);
        let t0 = Instant::now();
        agg.tick_at(t0, reg.snapshot());

        reg.counter("serve.requests").add(7);
        reg.histogram("serve.request_latency").record_ns(1 << 20);
        reg.gauge("serve.queue_depth").set(3);
        let w = agg
            .tick_at(t0 + Duration::from_secs(2), reg.snapshot())
            .unwrap()
            .clone();
        assert_eq!(w.counter("serve.requests"), 7);
        assert_eq!(w.gauge("serve.queue_depth"), 3);
        assert!((w.rate_per_sec("serve.requests") - 3.5).abs() < 1e-9);
        let h = &w.histograms["serve.request_latency"];
        // Only the in-window sample survives the difference.
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets, vec![(bucket_index(1 << 20), 1)]);
        assert_eq!(
            w.quantile_ns("serve.request_latency", 0.99),
            Some(crate::registry::bucket_upper_ns(bucket_index(1 << 20)))
        );
        // Cumulative snapshot still sees all three samples.
        assert_eq!(reg.snapshot().histograms["serve.request_latency"].count, 3);
    }

    #[test]
    fn ring_is_bounded_and_merged_spans_it() {
        let mut agg = WindowedAggregator::new(3);
        let reg = reg_with(0, 0, &[]);
        let t0 = Instant::now();
        agg.tick_at(t0, reg.snapshot());
        for i in 1..=5u64 {
            reg.counter("serve.requests").add(10);
            reg.histogram("serve.request_latency").record_ns(1_000);
            agg.tick_at(t0 + Duration::from_secs(i), reg.snapshot());
        }
        assert_eq!(agg.len(), 3); // capacity bound held
        let merged = agg.merged();
        // Only the last 3 of 5 windows are retained.
        assert_eq!(merged.counter("serve.requests"), 30);
        assert_eq!(merged.histograms["serve.request_latency"].count, 3);
        assert_eq!(merged.duration, Duration::from_secs(3));
        let seqs: Vec<u64> = agg.windows().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
    }

    #[test]
    fn counter_reset_rebaselines_and_is_counted() {
        let mut agg = WindowedAggregator::new(2);
        let big = reg_with(100, 0, &[]);
        let t0 = Instant::now();
        agg.tick_at(t0, big.snapshot());
        assert_eq!(agg.counter_resets(), 0);
        // Simulate a restart: a fresh registry with a smaller cumulative
        // value. The tick must not produce a window (the gap is
        // unknowable), must count the reset, and must re-baseline.
        let small = reg_with(40, 0, &[]);
        assert!(agg
            .tick_at(t0 + Duration::from_secs(1), small.snapshot())
            .is_none());
        assert_eq!(agg.counter_resets(), 1);
        assert_eq!(agg.len(), 0);
        // Post-restart progress diffs against the *new* baseline.
        small.counter("serve.requests").add(5);
        let w = agg
            .tick_at(t0 + Duration::from_secs(2), small.snapshot())
            .unwrap();
        assert_eq!(w.counter("serve.requests"), 5);
        assert_eq!(agg.counter_resets(), 1);
    }

    #[test]
    fn disappearing_counter_is_not_a_reset() {
        // A restarted process that has not yet re-registered a counter
        // simply omits it from the snapshot; only an observed regression
        // (present but smaller) re-baselines.
        let mut agg = WindowedAggregator::new(2);
        let reg = reg_with(10, 0, &[]);
        let t0 = Instant::now();
        agg.tick_at(t0, reg.snapshot());
        let empty = MetricsRegistry::new();
        assert!(agg
            .tick_at(t0 + Duration::from_secs(1), empty.snapshot())
            .is_some());
        assert_eq!(agg.counter_resets(), 0);
    }

    #[test]
    fn slo_quiet_window_burns_nothing() {
        let agg = WindowedAggregator::new(2);
        let status = SloTracker::evaluate(&slo_config(), &agg.merged());
        assert_eq!(status.burn_rate, 0.0);
        assert_eq!(status.budget_remaining, 1.0);
    }

    #[test]
    fn slo_error_burn_and_gauges() {
        let mut agg = WindowedAggregator::new(4);
        let reg = reg_with(0, 0, &[]);
        let t0 = Instant::now();
        agg.tick_at(t0, reg.snapshot());
        // 98 served + 2 errors = 2% error rate against a 1% objective:
        // burn 2.0, budget exhausted.
        reg.counter("serve.requests").add(98);
        reg.counter("serve.rejected_overloaded").add(2);
        agg.tick_at(t0 + Duration::from_secs(1), reg.snapshot());

        let tracker = SloTracker::new(vec![slo_config()]);
        let statuses = tracker.update(&agg, &reg);
        assert_eq!(statuses.len(), 1);
        let s = statuses[0];
        assert_eq!(s.requests, 98);
        assert_eq!(s.errors, 2);
        assert!((s.burn_rate - 2.0).abs() < 1e-9);
        assert_eq!(s.budget_remaining, 0.0);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("slo.serve.request.burn_rate"), 2000);
        assert_eq!(snap.gauge("slo.serve.request.budget_remaining"), 0);
    }

    #[test]
    fn slo_latency_burn_counts_bucketed_violations() {
        let mut agg = WindowedAggregator::new(4);
        let reg = reg_with(0, 0, &[]);
        let t0 = Instant::now();
        agg.tick_at(t0, reg.snapshot());
        // 99 fast samples, 1 sample far above the 100µs objective: the
        // observed bad fraction 1% equals the allowed 1% → burn 1.0.
        let h = reg.histogram("serve.request_latency");
        for _ in 0..99 {
            h.record_ns(1_000);
        }
        h.record_ns(10_000_000);
        reg.counter("serve.requests").add(100);
        agg.tick_at(t0 + Duration::from_secs(1), reg.snapshot());

        let s = SloTracker::evaluate(&slo_config(), &agg.merged());
        assert_eq!(s.latency_samples, 100);
        assert_eq!(s.latency_violations, 1);
        assert!((s.burn_rate - 1.0).abs() < 1e-6, "burn={}", s.burn_rate);
        assert!(s.budget_remaining.abs() < 1e-6);
    }

    #[test]
    fn gauge_names_follow_the_slo_prefix() {
        assert_eq!(
            burn_rate_gauge("serve.request"),
            "slo.serve.request.burn_rate"
        );
        assert_eq!(
            budget_remaining_gauge("serve.request"),
            "slo.serve.request.budget_remaining"
        );
    }
}
