//! Shahin-Streaming: explanations for predictions arriving one at a time
//! (paper §3.5).
//!
//! Before enough tuples have been seen to mine anything, generated
//! perturbations are kept in a budgeted LRU cache and reused
//! opportunistically (the "no saving yet" warm-up the paper describes for
//! `t_1, t_2, …`). Every [`StreamingConfig::refresh_every`] tuples, Shahin
//! mines frequent itemsets over the recent window, keeps their **negative
//! border** so itemsets that later become frequent are promoted cheaply,
//! rebuilds the perturbation repository around the new itemset family
//! (carrying over every still-useful sample), and tops entries up to `τ`
//! materialized perturbations. Each tuple itself goes through the same
//! per-tuple [`crate::kernel`] as every other driver.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin_explain::{
    AnchorExplainer, AnchorExplanation, ExplainContext, FeatureWeights, KernelShapExplainer,
    LabeledSample, LimeExplainer,
};
use shahin_fim::{apriori, AprioriParams, Itemset, MatchScratch, Tidsets};
use shahin_model::{Classifier, CountingClassifier};
use shahin_tabular::{Dataset, DiscreteTable};

use crate::anchor_cache::SharedAnchorCaches;
use crate::baseline::RecordingClassifier;
use crate::batch::estimate_base_value_guarded;
use crate::config::StreamingConfig;
use crate::greedy_cache::TaggedLruCache;
use crate::kernel::{Kernel, Pool, Tuple, TupleWorker};
use crate::metrics::{BatchResult, OverheadBreakdown, RunMetrics};
use crate::obs::{names, ProvenanceCtx};
use crate::quarantine::collect_outcomes;
use crate::runner::{ExplainerKind, RunReport};
use crate::store::PerturbationStore;
use shahin_obs::{Counter, EventSink, Histogram, MetricsRegistry};

/// The streaming-mode optimizer.
#[derive(Clone, Debug)]
pub struct ShahinStreaming {
    /// Configuration.
    pub config: StreamingConfig,
    /// Metrics registry the drivers record into. Disabled (all handles
    /// no-ops) unless set via [`ShahinStreaming::with_obs`].
    obs: MetricsRegistry,
}

impl Default for ShahinStreaming {
    fn default() -> Self {
        ShahinStreaming::new(StreamingConfig::default())
    }
}

/// Observability handles of one stream run (all no-ops on a disabled
/// registry).
struct StreamObs {
    /// Registry kept around so rebuilt stores can attach their own handles.
    registry: MetricsRegistry,
    fim: Histogram,
    fill: Histogram,
    absorb: Histogram,
    absorbed_samples: Counter,
    refresh_rounds: Counter,
    refresh_failures: Counter,
    carried_samples: Counter,
    early_evictions: Counter,
    /// Event sink (if attached) for refresh-boundary instant events.
    events: Option<std::sync::Arc<EventSink>>,
}

impl StreamObs {
    fn new(registry: &MetricsRegistry) -> StreamObs {
        StreamObs {
            registry: registry.clone(),
            fim: registry.span_histogram(names::SPAN_FIM_MINE),
            fill: registry.span_histogram(names::SPAN_MATERIALIZE_FILL),
            absorb: registry.span_histogram(names::SPAN_STREAMING_ABSORB),
            absorbed_samples: registry.counter(names::STREAMING_ABSORBED_SAMPLES),
            refresh_rounds: registry.counter(names::STREAMING_REFRESH_ROUNDS),
            refresh_failures: registry.counter(names::STREAMING_REFRESH_FAILURES),
            carried_samples: registry.counter(names::STREAMING_CARRIED_SAMPLES),
            early_evictions: registry.counter(names::STREAMING_EARLY_EVICTIONS),
            events: registry.event_sink(),
        }
    }
}

/// Evolving stream state.
struct StreamState {
    config: StreamingConfig,
    obs: StreamObs,
    /// Warm-up evictions already forwarded to the counter.
    reported_evictions: u64,
    /// Warm-up cache (before the first refresh).
    early: TaggedLruCache,
    /// Itemset-keyed repository (after the first refresh).
    store: Option<PerturbationStore>,
    /// Negative border of the last mining round.
    negative_border: Vec<Itemset>,
    /// Discretized tuples seen since the last refresh.
    window: Vec<Vec<u32>>,
    n_attrs: usize,
    /// Per-tuple sample budget of the explainer (drives automatic τ).
    n_target: usize,
    /// τ chosen at the last refresh.
    effective_tau: usize,
    /// Completed refresh rounds — the provenance epoch of the next tuple.
    epoch: u64,
    fim_time: Duration,
    materialization_time: Duration,
    peak_bytes: usize,
}

impl StreamState {
    fn new(
        config: StreamingConfig,
        n_attrs: usize,
        n_target: usize,
        registry: &MetricsRegistry,
    ) -> StreamState {
        let early = TaggedLruCache::new(config.memory_budget_bytes);
        let tau = config.tau;
        StreamState {
            config,
            obs: StreamObs::new(registry),
            reported_evictions: 0,
            early,
            store: None,
            negative_border: Vec::new(),
            window: Vec::new(),
            n_attrs,
            n_target,
            effective_tau: tau,
            epoch: 0,
            fim_time: Duration::ZERO,
            materialization_time: Duration::ZERO,
            peak_bytes: 0,
        }
    }

    /// Routes freshly generated, already-labeled samples into the current
    /// repository.
    fn absorb(&mut self, tuple_codes: &[u32], samples: Vec<LabeledSample>) {
        let _span = self.obs.absorb.start();
        self.obs.absorbed_samples.add(samples.len() as u64);
        match &mut self.store {
            Some(store) => {
                // Fill the least-stocked tracked itemset below τ this
                // sample can serve.
                for s in samples {
                    if let Some(id) = store.route(&s.codes, self.effective_tau) {
                        store.insert(id, s);
                    }
                }
                self.peak_bytes = self.peak_bytes.max(store.peak_bytes());
            }
            None => {
                for s in samples {
                    self.early.insert(tuple_codes, s);
                }
                self.peak_bytes = self.peak_bytes.max(self.early.used_bytes());
                let evictions = self.early.evictions();
                if evictions > self.reported_evictions {
                    self.obs
                        .early_evictions
                        .add(evictions - self.reported_evictions);
                    self.reported_evictions = evictions;
                }
            }
        }
    }

    /// Mines the window and rebuilds the repository when due.
    fn maybe_refresh<C: Classifier>(&mut self, ctx: &ExplainContext, clf: &C, rng: &mut StdRng) {
        if self.window.len() < self.config.refresh_every {
            return;
        }
        self.obs.refresh_rounds.inc();
        let fim_span = self.obs.fim.start();
        let table = window_table(&self.window, self.n_attrs);
        let mined = apriori(
            &table,
            &AprioriParams {
                min_support: self.config.min_support,
                max_len: self.config.max_itemset_len,
                max_itemsets: self.config.max_itemsets,
            },
        );
        let expected_matched: f64 = (0..mined.frequent.len())
            .map(|i| mined.support(i))
            .sum::<f64>()
            .max(1e-9);
        let mut tracked: Vec<Itemset> = mined.frequent.into_iter().map(|(s, _)| s).collect();
        // Promote negative-border itemsets that turned frequent in this
        // window even if the miner's cap dropped them, in border order and
        // only up to the cap (the miner already truncated `tracked` to it).
        let cap = self.config.max_itemsets;
        if self.config.track_negative_border && tracked.len() < cap {
            let min_count =
                ((self.config.min_support * self.window.len() as f64).ceil() as u64).max(1);
            let tids = Tidsets::new(&table);
            let already: HashSet<&Itemset> = tracked.iter().collect();
            let mut promoted = Vec::new();
            for nb in &self.negative_border {
                if tracked.len() + promoted.len() == cap {
                    break;
                }
                if !already.contains(nb) && tids.support(nb) >= min_count {
                    promoted.push(nb);
                }
            }
            tracked.extend(promoted.into_iter().cloned());
        }
        self.negative_border = if self.config.track_negative_border {
            mined.negative_border
        } else {
            Vec::new()
        };
        self.negative_border.truncate(4 * self.config.max_itemsets);
        self.fim_time += fim_span.stop();

        let fill_span = self.obs.fill.start();
        let mut new_store = PerturbationStore::new(tracked, self.config.memory_budget_bytes);
        new_store.attach_obs(&self.obs.registry);
        // Carry over every sample that still serves a tracked itemset
        // ("If not, we purge that perturbation", §3.5): warm-up samples in
        // tag order, then the old store's in id order. Samples are routed
        // by reference and only the inserted ones cloned, so the live
        // repository and warm-up cache keep serving unchanged if
        // materialization fails below.
        let previous = self
            .store
            .iter()
            .flat_map(|prev| (0..prev.len() as u32).flat_map(move |id| prev.samples(id)));
        let mut carried = 0u64;
        for s in self.early.samples().chain(previous) {
            if let Some(id) = new_store.route(&s.codes, self.config.tau) {
                new_store.insert(id, s.clone());
                carried += 1;
            }
        }
        // "...use the obtained savings to generate perturbations of f ∈ F".
        // τ is auto-capped at the coverage point (see ShahinBatch::prepare)
        // and by what one refresh window can amortize.
        let coverage_tau = (1.25 * self.n_target as f64 / expected_matched).ceil() as usize;
        let tau = self
            .config
            .tau
            .min(coverage_tau.max(1))
            .min((self.config.refresh_every / 2).max(1));
        // Materialization drives the classifier, so it can panic. The old
        // state is only replaced once the rebuild succeeded; on failure we
        // keep serving the stale repository and retry at the next window.
        let refreshed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut store = new_store;
            store.materialize(ctx, clf, tau, rng);
            store
        }));
        self.materialization_time += fill_span.stop();
        self.window.clear();
        match refreshed {
            Ok(store) => {
                self.obs.carried_samples.add(carried);
                self.effective_tau = tau;
                self.peak_bytes = self.peak_bytes.max(store.peak_bytes());
                let tracked_itemsets = store.len();
                self.early.drain_samples();
                self.store = Some(store);
                self.epoch += 1;
                if let Some(sink) = &self.obs.events {
                    sink.instant(
                        "streaming.refresh",
                        &[
                            ("epoch", self.epoch.to_string()),
                            ("tracked_itemsets", tracked_itemsets.to_string()),
                            ("tau", tau.to_string()),
                        ],
                    );
                }
            }
            Err(_) => {
                self.obs.refresh_failures.inc();
                if let Some(sink) = &self.obs.events {
                    sink.instant(
                        "streaming.refresh_failed",
                        &[("epoch", self.epoch.to_string())],
                    );
                }
            }
        }
    }
}

/// Columnarizes window rows into a table for mining.
fn window_table(window: &[Vec<u32>], n_attrs: usize) -> DiscreteTable {
    let mut cols = vec![Vec::with_capacity(window.len()); n_attrs];
    for row in window {
        for (col, &c) in cols.iter_mut().zip(row) {
            col.push(c);
        }
    }
    DiscreteTable::new(cols)
}

impl ShahinStreaming {
    /// Creates a streaming optimizer (with observability disabled).
    pub fn new(config: StreamingConfig) -> ShahinStreaming {
        ShahinStreaming {
            config,
            obs: MetricsRegistry::disabled(),
        }
    }

    /// Records spans, counters and gauges into `registry` during every
    /// subsequent run (see [`crate::obs`] for the name schema).
    pub fn with_obs(mut self, registry: &MetricsRegistry) -> ShahinStreaming {
        self.obs = registry.clone();
        self
    }

    /// Explains the tuples of `stream` strictly in order, each seen only
    /// when its turn comes: per tuple, the kernel (against the repository,
    /// or the warm-up cache before the first refresh), then the tuple's
    /// fresh labels into the repository, the tuple into the mining window,
    /// and a refresh when one is due. Anchor's precision counts and
    /// coverage accumulate in its shared caches across the stream.
    pub(crate) fn explain<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        stream: &Dataset,
        explainer: &ExplainerKind,
        seed: u64,
    ) -> RunReport {
        let start_inv = clf.invocations();
        let wall0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57AE);
        let base = estimate_base_value_guarded(explainer, ctx, clf, &mut rng, &self.obs);
        let mut st = StreamState::new(
            self.config.clone(),
            ctx.n_attrs(),
            explainer.n_target(),
            &self.obs,
        );
        let caches = SharedAnchorCaches::with_obs(&self.obs);
        let explainer = explainer.clone().with_obs(&self.obs);
        // Anchor's draws are rule-conditioned evidence, kept in its shared
        // caches; only LIME's and SHAP's perturbations feed the repository.
        let absorbs = !matches!(explainer, ExplainerKind::Anchor(_));
        let recorder = RecordingClassifier::new(clf, ctx, absorbs);
        let kernel = Kernel {
            explainer: &explainer,
            ctx,
            clf: &recorder,
            caches: &caches,
            base,
            seed,
        };
        let prov = ProvenanceCtx::new(&self.obs, "Shahin-Streaming", explainer.name());
        let mut worker = TupleWorker::new(&self.obs, prov);
        let mut outcomes = Vec::with_capacity(stream.n_rows());
        for row in 0..stream.n_rows() {
            let instance = stream.instance(row);
            let codes = ctx.discretizer().encode_instance(&instance);
            let tuple = Tuple {
                row,
                codes: &codes,
                instance: &instance,
                epoch: st.epoch,
            };
            let (store, early, key) = (&mut st.store, &mut st.early, &codes[..]);
            let fetch = move |scratch: &mut MatchScratch| match (store, early) {
                (Some(store), _) => {
                    let found = store.matching_stats(key, scratch);
                    Pool::store(store, found)
                }
                (None, early) => Pool::loose(early),
            };
            outcomes.push(kernel.explain(tuple, fetch, &mut worker));
            // Labels captured before a mid-tuple panic were still paid
            // for, and the tuple was still *seen* — absorb what exists
            // (the first is the instance's own probe) and keep it in the
            // mining window either way. A flat dispatch that panicked
            // logged none of its rows, so a tuple quarantined there
            // leaves only its probe.
            st.absorb(&codes, recorder.take_log().into_iter().skip(1).collect());
            st.window.push(codes);
            st.maybe_refresh(ctx, clf, &mut rng);
        }

        let (explanations, report) = collect_outcomes(outcomes);
        RunReport {
            explanations,
            report,
            metrics: RunMetrics {
                invocations: clf.invocations() - start_inv,
                wall: wall0.elapsed(),
                overhead: OverheadBreakdown {
                    fim: st.fim_time,
                    materialization: st.materialization_time,
                    retrieval: worker.retrieval,
                },
                store_bytes: st.peak_bytes + caches.approx_bytes(),
                n_frequent: st.store.as_ref().map_or(0, PerturbationStore::len),
                n_tuples: stream.n_rows(),
            },
        }
    }

    /// Streaming LIME.
    pub fn explain_lime<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        stream: &Dataset,
        lime: &LimeExplainer,
        seed: u64,
    ) -> BatchResult<FeatureWeights> {
        let kind = ExplainerKind::Lime(lime.clone());
        self.explain(ctx, clf, stream, &kind, seed).into_weights()
    }

    /// Streaming Anchor: precision counts and coverage accumulate across
    /// the stream; the repository bootstraps rules once it exists.
    pub fn explain_anchor<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        stream: &Dataset,
        anchor: &AnchorExplainer,
        seed: u64,
    ) -> BatchResult<AnchorExplanation> {
        let kind = ExplainerKind::Anchor(anchor.clone());
        self.explain(ctx, clf, stream, &kind, seed).into_rules()
    }

    /// Streaming KernelSHAP (base value from
    /// [`crate::runner::SHAP_BASE_SAMPLES`] invocations, once per stream).
    pub fn explain_shap<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        stream: &Dataset,
        shap: &KernelShapExplainer,
        seed: u64,
    ) -> BatchResult<FeatureWeights> {
        let kind = ExplainerKind::Shap(shap.clone());
        self.explain(ctx, clf, stream, &kind, seed).into_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shahin_model::MajorityClass;
    use shahin_tabular::{train_test_split, DatasetPreset, Feature};

    fn setup(seed: u64, n: usize) -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
        let (data, labels) = DatasetPreset::CensusIncome.spec(0.03).generate(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
        let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
        let rows: Vec<usize> = (0..split.test.n_rows().min(n)).collect();
        (ctx, clf, split.test.select(&rows))
    }

    fn small_config() -> StreamingConfig {
        StreamingConfig {
            refresh_every: 25,
            tau: 30,
            ..Default::default()
        }
    }

    #[test]
    fn streaming_lime_saves_after_refresh() {
        let (ctx, clf, stream) = setup(0, 80);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let streaming = ShahinStreaming::new(small_config());
        let res = streaming.explain_lime(&ctx, &clf, &stream, &lime, 3);
        assert_eq!(res.explanations.len(), stream.n_rows());
        assert!(res.metrics.n_frequent > 0, "no refresh happened");
        let seq_cost = 100 * stream.n_rows() as u64;
        assert!(
            res.metrics.invocations < seq_cost,
            "streaming saved nothing: {} vs {seq_cost}",
            res.metrics.invocations
        );
    }

    #[test]
    fn streaming_respects_memory_budget() {
        let (ctx, clf, stream) = setup(1, 60);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 60,
            ..Default::default()
        });
        let budget = 32 * 1024;
        let streaming = ShahinStreaming::new(StreamingConfig {
            memory_budget_bytes: budget,
            refresh_every: 20,
            tau: 50,
            ..Default::default()
        });
        let res = streaming.explain_lime(&ctx, &clf, &stream, &lime, 5);
        assert!(
            res.metrics.store_bytes <= budget + 8 * 1024,
            "peak {} exceeded budget {budget}",
            res.metrics.store_bytes
        );
    }

    #[test]
    fn streaming_shap_runs_and_keeps_efficiency() {
        let (ctx, clf, stream) = setup(2, 60);
        let shap = KernelShapExplainer::new(shahin_explain::ShapParams {
            n_samples: 64,
            ..Default::default()
        });
        let streaming = ShahinStreaming::new(small_config());
        let res = streaming.explain_shap(&ctx, &clf, &stream, &shap, 7);
        assert_eq!(res.explanations.len(), stream.n_rows());
        for e in &res.explanations {
            let total: f64 = e.weights.iter().sum();
            assert!((total - (e.local_prediction - e.intercept)).abs() < 1e-6);
        }
    }

    #[test]
    fn streaming_anchor_runs() {
        let (ctx, _clf, stream) = setup(3, 50);
        struct Key;
        impl Classifier for Key {
            fn predict_proba(&self, inst: &[Feature]) -> f64 {
                f64::from(inst[0].cat().is_multiple_of(2))
            }
        }
        let clf = CountingClassifier::new(Key);
        let anchor = AnchorExplainer::default();
        let streaming = ShahinStreaming::new(small_config());
        let res = streaming.explain_anchor(&ctx, &clf, &stream, &anchor, 9);
        assert_eq!(res.explanations.len(), stream.n_rows());
        let table = ctx.discretizer().encode_dataset(&stream);
        for (row, e) in res.explanations.iter().enumerate() {
            assert!(e.rule.contained_in(&table.row(row)));
        }
    }

    #[test]
    fn obs_counts_refresh_rounds_and_carried_samples() {
        let (ctx, clf, stream) = setup(4, 80);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 80,
            ..Default::default()
        });
        let reg = MetricsRegistry::new();
        let streaming = ShahinStreaming::new(small_config()).with_obs(&reg);
        let res = streaming.explain_lime(&ctx, &clf, &stream, &lime, 11);
        let snap = reg.snapshot();
        // 80 tuples / refresh_every=25 → 3 refresh rounds.
        assert_eq!(snap.counter("streaming.refresh_rounds"), 3);
        assert_eq!(snap.histograms["span.fim.mine"].count, 3);
        assert_eq!(snap.histograms["span.materialize.fill"].count, 3);
        assert_eq!(
            snap.histograms["span.retrieve.match"].count,
            stream.n_rows() as u64
        );
        // One absorb per tuple, fed by its fresh labels.
        assert_eq!(
            snap.histograms["span.streaming.absorb"].count,
            stream.n_rows() as u64
        );
        assert!(snap.counter("streaming.absorbed_samples") > 0);
        // Warm-up samples get carried into the first rebuilt store.
        assert!(snap.counter("streaming.carried_samples") > 0);
        // Spans and RunMetrics agree on the aggregated phase times.
        assert_eq!(
            snap.histograms["span.fim.mine"].sum_ns,
            res.metrics.overhead.fim.as_nanos() as u64
        );
    }

    #[test]
    fn provenance_epochs_follow_refresh_rounds_and_refreshes_emit_instants() {
        use shahin_obs::{EventSink, ProvenanceSink};
        use std::sync::Arc;

        let (ctx, clf, stream) = setup(5, 80);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 80,
            ..Default::default()
        });
        let reg = MetricsRegistry::new();
        let prov = Arc::new(ProvenanceSink::new());
        let events = Arc::new(EventSink::new());
        reg.attach_provenance_sink(Arc::clone(&prov));
        reg.attach_event_sink(Arc::clone(&events));
        let streaming = ShahinStreaming::new(small_config()).with_obs(&reg);
        streaming.explain_lime(&ctx, &clf, &stream, &lime, 11);

        let recs = prov.records();
        assert_eq!(recs.len(), stream.n_rows());
        // refresh_every=25 over 80 tuples: epochs 0,0..,1,..,2,..,3.
        for (row, r) in recs.iter().enumerate() {
            assert_eq!(r.epoch, (row / 25) as u64, "row {row}");
            assert_eq!(&*r.method, "Shahin-Streaming");
            assert_eq!(r.samples_reused + r.samples_fresh, r.tau);
        }
        let refreshes: Vec<_> = events
            .records()
            .into_iter()
            .filter(|e| &*e.phase == "streaming.refresh")
            .collect();
        assert_eq!(refreshes.len(), 3);
        for (i, e) in refreshes.iter().enumerate() {
            assert!(e.dur_ns.is_none(), "refresh markers are instants");
            let epoch = e.args.iter().find(|(k, _)| k == "epoch").unwrap();
            assert_eq!(epoch.1, (i + 1).to_string());
        }
    }

    #[test]
    fn window_table_roundtrip() {
        let rows = vec![vec![1u32, 2, 3], vec![4, 5, 6]];
        let t = window_table(&rows, 3);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.row(0), vec![1, 2, 3]);
        assert_eq!(t.row(1), vec![4, 5, 6]);
    }
}
