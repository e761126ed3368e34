//! The per-tuple kernel: the one body every Shahin driver explains a tuple
//! through.
//!
//! Algorithms 1–3 share one per-tuple step: retrieve the materialized
//! perturbations of the frozen itemsets the tuple contains, pool them, and
//! call the unmodified explainer's reuse-aware entry point.
//! `Kernel::explain` is that step, under `guard_tuple`'s panic
//! isolation: store view → pool → explain → degraded flag → one provenance
//! record → trace stages. The drivers keep only what differs between them:
//!
//! * **How the store view is fetched.** [`crate::ShahinBatch`] and
//!   [`crate::WarmEngine`] share one store across worker threads and look
//!   it up read-only ([`PerturbationStore::matching_read_stats`]);
//!   [`crate::ShahinStreaming`] uses the LRU-touching
//!   [`PerturbationStore::matching_stats`], because its evictions depend
//!   on it, and hands over its warm-up cache (`Pool::loose`) before the
//!   first refresh. The [`crate::baseline`]s reuse nothing (`Pool::empty`)
//!   or, for Greedy, only their LRU cache (`Pool::loose`).
//! * **Whether Anchor shares evidence across tuples.** With
//!   [`SharedAnchorCaches`] a rule's precision counts and coverage carry
//!   from tuple to tuple; without them (Sequential, Dist-k) every tuple
//!   runs plain Anchor.
//! * **How rows are scheduled.** Contiguous blocks claimed by worker
//!   threads (`parallel::in_chunks`), strictly in order for a stream or a
//!   baseline, in timed shards for Dist-k, one request at a time for a
//!   serve worker.
//!
//! A tuple's RNG stream is [`per_tuple_seed`]`(run seed, row)` and the
//! shared state is only read (or, for Anchor's caches, published to under
//! shard locks), so a LIME or SHAP explanation is a function of the row
//! and the store alone — never of the thread, the order or the driver that
//! asked for it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin_explain::{ExplainContext, FeatureWeights, FreshRuleSampler, LabeledSample, ReuseStats};
use shahin_fim::MatchScratch;
use shahin_model::{Classifier, CountingClassifier};
use shahin_tabular::Feature;

use crate::anchor_cache::{CachingRuleSampler, SamplerStats, SharedAnchorCaches};
use crate::greedy_cache::TaggedLruCache;
use crate::obs::{
    names, Histogram, Lineage, MetricsRegistry, ProvenanceCtx, StageSpan, TraceCounters,
};
use crate::quarantine::{guard_tuple, QuarantineObs, TupleOutcome};
use crate::runner::{per_tuple_seed, ExplainerKind, Explanation};
use crate::shap_source::{agreement_coalitions, pool_coalitions, StoreCoalitionSource};
use crate::store::{LookupStats, PerturbationStore};

/// The run-wide inputs of the kernel, shared by every worker of a run.
pub(crate) struct Kernel<'a, C> {
    /// The explainer (Anchor's wired to the run's registry).
    pub(crate) explainer: &'a ExplainerKind,
    pub(crate) ctx: &'a ExplainContext,
    pub(crate) clf: &'a C,
    /// Anchor's invariant precision and coverage caches, shared by every
    /// tuple of the run; `None` runs plain Anchor on each tuple.
    pub(crate) caches: Option<&'a SharedAnchorCaches>,
    /// KernelSHAP's base value, estimated once per run.
    pub(crate) base: f64,
    /// The run seed every tuple's RNG stream is derived from.
    pub(crate) seed: u64,
}

/// One tuple to explain.
pub(crate) struct Tuple<'a> {
    /// Row index: the provenance tuple id and the key of its RNG stream.
    pub(crate) row: usize,
    pub(crate) codes: &'a [u32],
    pub(crate) instance: &'a [Feature],
    /// Provenance epoch (completed refresh rounds).
    pub(crate) epoch: u64,
}

/// What a tuple can reuse, as its driver fetched it: the store's samples
/// of the matched itemsets and, in streaming warm-up and Greedy, an LRU
/// cache.
pub(crate) struct Pool<'s> {
    store: &'s PerturbationStore,
    matched: Vec<u32>,
    lookup: LookupStats,
    loose: Option<&'s mut TaggedLruCache>,
}

impl<'s> Pool<'s> {
    /// The result of one of `store`'s `matching*_stats` lookups.
    pub(crate) fn store(
        store: &'s PerturbationStore,
        (matched, lookup): (Vec<u32>, LookupStats),
    ) -> Pool<'s> {
        Pool {
            store,
            matched,
            lookup,
            loose: None,
        }
    }

    /// Nothing to reuse: an empty itemset store and no cache.
    pub(crate) fn empty() -> Pool<'s> {
        static EMPTY: OnceLock<PerturbationStore> = OnceLock::new();
        Pool {
            store: EMPTY.get_or_init(|| PerturbationStore::new(Vec::new(), 0)),
            matched: Vec::new(),
            lookup: LookupStats::default(),
            loose: None,
        }
    }

    /// No itemset store, only what an LRU cache holds for the tuple:
    /// streaming before its first refresh, and Greedy.
    pub(crate) fn loose(cache: &'s mut TaggedLruCache) -> Pool<'s> {
        Pool {
            loose: Some(cache),
            ..Pool::empty()
        }
    }
}

impl<C: Classifier> Kernel<'_, C> {
    /// Explains one tuple on the calling thread. `fetch` looks the tuple
    /// up (it runs inside the tuple's `retrieve.match` span, which also
    /// covers building the explainer's pool); a panic unwinding out of any
    /// of it quarantines this tuple only.
    pub(crate) fn explain<'s>(
        &self,
        t: Tuple<'_>,
        fetch: impl FnOnce(&mut MatchScratch) -> Pool<'s>,
        worker: &mut TupleWorker,
    ) -> TupleOutcome<Explanation> {
        let TupleWorker {
            retrieve_hist,
            surrogate_hist,
            prov,
            quarantine,
            stages,
            scratch,
            retrieval,
        } = worker;
        // Stage spans are armed only for a traced request; an untraced
        // tuple pays one `Option` check per stage. Tracing takes no RNG
        // draws, so it never changes an explanation.
        stages.clear();
        let mut trace = StageTrace(prov.traced().then_some(stages));
        let (ctx, clf, seed) = (self.ctx, self.clf, per_tuple_seed(self.seed, t.row));
        guard_tuple(t.row as u32, quarantine, |incidents0| {
            let t0 = prov.start();
            let retrieve = retrieve_hist.start();
            let stage_t = trace.start();
            let budget = match self.explainer {
                ExplainerKind::Lime(lime) => lime.params.n_samples.saturating_sub(1),
                ExplainerKind::Shap(shap) => shap.params.n_samples / 2,
                // Anchor reuses rule evidence, never loose samples.
                ExplainerKind::Anchor(_) => 0,
            };
            let Pool {
                store,
                matched,
                mut lookup,
                loose,
            } = fetch(scratch);
            // Warm-up hits bypass the itemset store; only their count is
            // known.
            let loose = loose.map_or_else(Vec::new, |cache| cache.lookup(t.codes, budget));
            lookup.samples_available += loose.len() as u64;
            let retrieved = |trace: &mut StageTrace<'_>| {
                *retrieval += retrieve.stop();
                trace.push("retrieve", stage_t, |c| {
                    c.store_hits = lookup.hits;
                    c.store_misses = lookup.misses;
                });
            };
            let (explanation, reuse, cache) = match self.explainer {
                ExplainerKind::Lime(lime) => {
                    let pooled = matched
                        .iter()
                        .flat_map(|&id| store.samples(id))
                        .chain(loose);
                    retrieved(&mut trace);
                    let mut rng = StdRng::seed_from_u64(seed);
                    trace.fit(surrogate_hist, || {
                        lime.explain_with_reused_counted(ctx, clf, t.instance, pooled, &mut rng)
                    })
                }
                ExplainerKind::Shap(shap) => {
                    // Algorithm 3 lines 7–8: the matched itemsets' samples
                    // as coalitions over their attributes (round-robin,
                    // half the budget), or warm-up hits over the attributes
                    // where they agree with the tuple.
                    let mut pooled = pool_coalitions(store, &matched, budget);
                    pooled.extend(agreement_coalitions(&loose, t.codes));
                    let mut source = StoreCoalitionSource::new(store, matched.clone());
                    retrieved(&mut trace);
                    let mut rng = StdRng::seed_from_u64(seed);
                    trace.fit(surrogate_hist, || {
                        shap.explain_with_counted(
                            ctx,
                            clf,
                            t.instance,
                            self.base,
                            pooled,
                            &mut source,
                            &mut rng,
                        )
                    })
                }
                ExplainerKind::Anchor(anchor) => {
                    retrieved(&mut trace);
                    let stage_t = trace.start();
                    let target = clf.predict(t.instance);
                    trace.push("classify", stage_t, |c| c.invocations = 1);
                    let stage_t = trace.start();
                    let (explanation, stats) = match self.caches {
                        Some(caches) => {
                            let mut sampler =
                                CachingRuleSampler::new(ctx, clf, store, &matched, caches, seed);
                            let e = anchor.explain_with_sampler(t.codes, target, &mut sampler);
                            (e, sampler.stats())
                        }
                        None => {
                            // Plain Anchor, seeded as `AnchorExplainer::explain`
                            // seeds its sampler.
                            let counted = CountingClassifier::new(clf);
                            let sampler_seed = StdRng::seed_from_u64(seed).gen();
                            let mut sampler = FreshRuleSampler::new(ctx, &counted, sampler_seed);
                            let e = anchor.explain_with_sampler(t.codes, target, &mut sampler);
                            let fresh = counted.invocations();
                            (
                                e,
                                SamplerStats {
                                    fresh,
                                    ..Default::default()
                                },
                            )
                        }
                    };
                    trace.push("explain", stage_t, |c| {
                        c.samples_reused = stats.reused;
                        c.samples_fresh = stats.fresh;
                        c.invocations = stats.fresh;
                    });
                    // Attributed from the sampler's fresh draws plus the
                    // target probe: a shared classifier's counter races
                    // when workers explain concurrently.
                    let reuse = ReuseStats {
                        reused: stats.reused,
                        fresh: stats.fresh,
                        invocations: stats.fresh + 1,
                        clamped: 0,
                    };
                    let cache = (stats.cache_hits, stats.cache_misses);
                    (Explanation::Rule(explanation), reuse, cache)
                }
            };
            let degraded = reuse.clamped > 0 || shahin_model::degraded_incidents() > incidents0;
            prov.record(Lineage {
                tuple: t.row as u32,
                epoch: t.epoch,
                matched: &matched,
                lookup,
                reuse,
                cache,
                degraded,
                t0,
            });
            (explanation, degraded)
        })
    }
}

/// Wraps a classifier and records every invocation as a discretized
/// [`LabeledSample`], so Greedy and the streaming driver can keep
/// whatever perturbations the (unmodified) explainer happened to generate.
///
/// A row is logged only once its dispatch returns. The explainers label a
/// tuple's fresh rows in one flat dispatch, so a dispatch that panics logs
/// none of its rows, not the rows before the one that panicked.
pub(crate) struct RecordingClassifier<'a, C> {
    inner: &'a C,
    ctx: &'a ExplainContext,
    /// `None` when recording is off: calls pass straight through.
    log: Option<Mutex<Vec<LabeledSample>>>,
}

impl<'a, C: Classifier> RecordingClassifier<'a, C> {
    pub(crate) fn new(inner: &'a C, ctx: &'a ExplainContext, record: bool) -> Self {
        RecordingClassifier {
            inner,
            ctx,
            log: record.then(|| Mutex::new(Vec::new())),
        }
    }

    /// The samples recorded since the last call, in call order.
    pub(crate) fn take_log(&self) -> Vec<LabeledSample> {
        self.log
            .as_ref()
            .map(|log| std::mem::take(&mut *log.lock()))
            .unwrap_or_default()
    }
}

impl<C: Classifier> Classifier for RecordingClassifier<'_, C> {
    fn predict_proba(&self, instance: &[Feature]) -> f64 {
        let proba = self.inner.predict_proba(instance);
        if let Some(log) = &self.log {
            let codes = self.ctx.discretizer().encode_instance(instance);
            log.lock().push(LabeledSample {
                codes: codes.into_boxed_slice(),
                proba,
            });
        }
        proba
    }

    /// One dispatch to the inner classifier, then the rows are recorded in
    /// row order: the same log as one call per row.
    fn predict_proba_flat(&self, rows: &[Feature], n_attrs: usize) -> Vec<f64> {
        let probas = self.inner.predict_proba_flat(rows, n_attrs);
        if let (Some(log), true) = (&self.log, n_attrs > 0) {
            let mut log = log.lock();
            for (row, &proba) in rows.chunks_exact(n_attrs).zip(&probas) {
                let codes = self.ctx.discretizer().encode_instance(row);
                log.push(LabeledSample {
                    codes: codes.into_boxed_slice(),
                    proba,
                });
            }
        }
        probas
    }
}

/// What one worker thread carries from tuple to tuple, in any driver: the
/// obs handles the kernel records into, resolved once; the match scratch
/// its store lookups reuse; the stage spans of the last traced tuple; and
/// the retrieve time it has spent.
pub struct TupleWorker {
    retrieve_hist: Histogram,
    surrogate_hist: Histogram,
    pub(crate) prov: ProvenanceCtx,
    quarantine: QuarantineObs,
    stages: Vec<StageSpan>,
    scratch: MatchScratch,
    /// Σ `retrieve.match` span time over the tuples this worker explained.
    pub(crate) retrieval: Duration,
}

impl TupleWorker {
    /// A context recording into `reg`, its provenance through `prov`.
    pub(crate) fn new(reg: &MetricsRegistry, prov: ProvenanceCtx) -> TupleWorker {
        TupleWorker {
            retrieve_hist: reg.span_histogram(names::SPAN_RETRIEVE_MATCH),
            surrogate_hist: reg.span_histogram(names::SPAN_SURROGATE_FIT),
            prov,
            quarantine: QuarantineObs::new(reg),
            stages: Vec::new(),
            scratch: MatchScratch::new(),
            retrieval: Duration::ZERO,
        }
    }

    /// The per-stage spans — `retrieve`, `classify`, `explain`, in that
    /// order — of the last tuple explained on this context; empty unless
    /// that tuple was a traced request. The serve worker folds them into
    /// the request's span tree.
    pub fn stages(&self) -> &[StageSpan] {
        &self.stages
    }
}

/// A traced tuple's stage-span buffer; every method is a no-op for an
/// untraced one.
struct StageTrace<'a>(Option<&'a mut Vec<StageSpan>>);

impl StageTrace<'_> {
    /// The stage's start instant (`None`, and no clock read, when untraced).
    fn start(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Records one stage span running from `start` until now.
    fn push(
        &mut self,
        name: &'static str,
        start: Option<Instant>,
        fill: impl FnOnce(&mut TraceCounters),
    ) {
        if let (Some(stages), Some(start)) = (&mut self.0, start) {
            let mut span = StageSpan {
                name,
                start,
                dur: start.elapsed(),
                counters: TraceCounters::default(),
            };
            fill(&mut span.counters);
            stages.push(span);
        }
    }

    /// Runs one surrogate fit (LIME, SHAP) under the `surrogate.fit` span.
    /// Its stage spans are a zero-length `classify` marker carrying the
    /// classifier-invocation attribution, then an `explain` span timing the
    /// whole fit (sample top-up + regression) with the reuse counters.
    /// LIME/SHAP drive the classifier from inside the fit, so classify wall
    /// time is not separable — only Anchor's direct target probe gets a
    /// timed classify span — but the invocation *count* is exact either way.
    fn fit(
        &mut self,
        hist: &Histogram,
        explain: impl FnOnce() -> (FeatureWeights, ReuseStats),
    ) -> (Explanation, ReuseStats, (u64, u64)) {
        let start = self.start();
        let span = hist.start();
        let (weights, reuse) = explain();
        drop(span);
        if let (Some(stages), Some(start)) = (&mut self.0, start) {
            let mut classify = StageSpan {
                name: "classify",
                start,
                dur: Duration::ZERO,
                counters: TraceCounters::default(),
            };
            classify.counters.invocations = reuse.invocations;
            stages.push(classify);
        }
        self.push("explain", start, |c| {
            c.samples_reused = reuse.reused;
            c.samples_fresh = reuse.fresh;
        });
        (Explanation::Weights(weights), reuse, (0, 0))
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_explain::{KernelShapExplainer, LimeExplainer, LimeParams, ShapParams};
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::{train_test_split, DatasetPreset};

    use crate::config::{BatchConfig, StreamingConfig};
    use crate::obs::MetricsRegistry;
    use crate::runner::{run_with_obs, ExplainerKind, Method};

    #[test]
    fn retrieval_overhead_is_the_retrieve_span_total() {
        let (data, labels) = DatasetPreset::CensusIncome.spec(0.02).generate(4);
        let mut rng = StdRng::seed_from_u64(4);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let ctx = shahin_explain::ExplainContext::fit(&split.train, 300, &mut rng);
        let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
        let rows: Vec<usize> = (0..40).collect();
        let batch = split.test.select(&rows);
        let methods = [
            Method::Sequential,
            // Warm-up cache lookups only.
            Method::Greedy(usize::MAX),
            Method::Batch(BatchConfig::default()),
            Method::BatchParallel(BatchConfig {
                n_threads: Some(4),
                ..Default::default()
            }),
            // Warm-up cache lookups for the first 15 tuples, then the store.
            Method::Streaming(StreamingConfig {
                refresh_every: 15,
                tau: 30,
                ..Default::default()
            }),
        ];
        let kinds = [
            ExplainerKind::Lime(LimeExplainer::new(LimeParams {
                n_samples: 60,
                ..Default::default()
            })),
            ExplainerKind::Shap(KernelShapExplainer::new(ShapParams {
                n_samples: 48,
                ..Default::default()
            })),
        ];
        for method in &methods {
            for kind in &kinds {
                let reg = MetricsRegistry::new();
                let report = run_with_obs(method, kind, &ctx, &clf, &batch, 9, &reg);
                let snap = reg.snapshot();
                let span = &snap.histograms["span.retrieve.match"];
                let what = format!("{} {}", method.name(), kind.name());
                assert_eq!(span.count, batch.n_rows() as u64, "{what}");
                assert!(span.sum_ns > 0, "{what}");
                assert_eq!(
                    report.metrics.overhead.retrieval.as_nanos() as u64,
                    span.sum_ns,
                    "{what}"
                );
            }
        }
    }
}
