//! The paper's baseline approaches: Sequential, Dist-k, and GREEDY (§4.1).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin_explain::anchor::RuleSampler;
use shahin_explain::{
    draw_rule_labels, estimate_base_value, AnchorExplainer, AnchorExplanation, ExplainContext,
    FeatureWeights, KernelShapExplainer, LabeledSample, LimeExplainer, NoSource,
};
use shahin_fim::Itemset;
use shahin_model::{Classifier, CountingClassifier};
use shahin_tabular::{Dataset, Feature};

use crate::greedy_cache::TaggedLruCache;
use crate::metrics::{BatchReport, BatchResult, RunMetrics};
use crate::runner::per_tuple_seed;
use crate::shap_source::agreement_coalitions;

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

/// Explains the batch one tuple at a time with plain LIME.
pub fn sequential_lime<C: Classifier>(
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    lime: &LimeExplainer,
    seed: u64,
) -> BatchResult<FeatureWeights> {
    let start_inv = clf.invocations();
    let wall0 = Instant::now();
    let explanations = (0..batch.n_rows())
        .map(|row| {
            let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
            lime.explain(ctx, clf, &batch.instance(row), &mut rng)
        })
        .collect();
    BatchResult {
        explanations,
        report: BatchReport::default(),
        metrics: RunMetrics {
            invocations: clf.invocations() - start_inv,
            wall: wall0.elapsed(),
            n_tuples: batch.n_rows(),
            ..Default::default()
        },
    }
}

/// Explains the batch one tuple at a time with plain Anchor.
pub fn sequential_anchor<C: Classifier>(
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    anchor: &AnchorExplainer,
    seed: u64,
) -> BatchResult<AnchorExplanation> {
    let start_inv = clf.invocations();
    let wall0 = Instant::now();
    let explanations = (0..batch.n_rows())
        .map(|row| {
            let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
            anchor.explain(ctx, clf, &batch.instance(row), &mut rng)
        })
        .collect();
    BatchResult {
        explanations,
        report: BatchReport::default(),
        metrics: RunMetrics {
            invocations: clf.invocations() - start_inv,
            wall: wall0.elapsed(),
            n_tuples: batch.n_rows(),
            ..Default::default()
        },
    }
}

/// Explains the batch one tuple at a time with plain KernelSHAP. The base
/// value is estimated once (`base_samples` invocations), exactly as the
/// reference implementation's fixed background set.
pub fn sequential_shap<C: Classifier>(
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    shap: &KernelShapExplainer,
    base_samples: usize,
    seed: u64,
) -> BatchResult<FeatureWeights> {
    let start_inv = clf.invocations();
    let wall0 = Instant::now();
    let mut base_rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
    let base = estimate_base_value(ctx, clf, base_samples, &mut base_rng);
    let explanations = (0..batch.n_rows())
        .map(|row| {
            let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
            shap.explain(ctx, clf, &batch.instance(row), base, &mut rng)
        })
        .collect();
    BatchResult {
        explanations,
        report: BatchReport::default(),
        metrics: RunMetrics {
            invocations: clf.invocations() - start_inv,
            wall: wall0.elapsed(),
            n_tuples: batch.n_rows(),
            ..Default::default()
        },
    }
}

// ---------------------------------------------------------------------------
// Dist-k
// ---------------------------------------------------------------------------

/// Simulates spreading `work(row)` over `k` machines: the rows are split
/// into `k` contiguous shards, each shard is executed (and timed) in
/// isolation, and the *average* shard time is reported — exactly the
/// metric the paper uses ("we report the average time taken by the 8
/// machines as the runtime"). Returns the results in row order, the
/// average shard time, and the maximum (true makespan).
///
/// Executing shards one after another on this machine measures what `k`
/// isolated machines would each spend, minus any coordination overhead —
/// i.e. it *flatters* the Dist-k baseline, making Shahin's wins
/// conservative.
pub fn dist_k<T>(
    n_rows: usize,
    k: usize,
    mut work: impl FnMut(usize) -> T,
) -> (Vec<T>, Duration, Duration) {
    assert!(k >= 1, "need at least one worker");
    let k = k.min(n_rows.max(1));
    let chunk = n_rows.div_ceil(k);
    let mut results: Vec<T> = Vec::with_capacity(n_rows);
    let mut durations = Vec::with_capacity(k);
    let mut row = 0usize;
    while row < n_rows {
        let end = (row + chunk).min(n_rows);
        let t0 = Instant::now();
        for r in row..end {
            results.push(work(r));
        }
        durations.push(t0.elapsed());
        row = end;
    }
    let total: Duration = durations.iter().sum();
    let avg = total / durations.len().max(1) as u32;
    let max = durations.iter().max().copied().unwrap_or_default();
    (results, avg, max)
}

/// Dist-k LIME: the batch split over `k` threads, each running the
/// sequential algorithm on its shard.
pub fn dist_k_lime<C: Classifier>(
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    lime: &LimeExplainer,
    k: usize,
    seed: u64,
) -> BatchResult<FeatureWeights> {
    let start_inv = clf.invocations();
    let (explanations, avg, _max) = dist_k(batch.n_rows(), k, |row| {
        let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
        lime.explain(ctx, clf, &batch.instance(row), &mut rng)
    });
    BatchResult {
        explanations,
        report: BatchReport::default(),
        metrics: RunMetrics {
            invocations: clf.invocations() - start_inv,
            wall: avg,
            n_tuples: batch.n_rows(),
            ..Default::default()
        },
    }
}

/// Dist-k Anchor.
pub fn dist_k_anchor<C: Classifier>(
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    anchor: &AnchorExplainer,
    k: usize,
    seed: u64,
) -> BatchResult<AnchorExplanation> {
    let start_inv = clf.invocations();
    let (explanations, avg, _max) = dist_k(batch.n_rows(), k, |row| {
        let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
        anchor.explain(ctx, clf, &batch.instance(row), &mut rng)
    });
    BatchResult {
        explanations,
        report: BatchReport::default(),
        metrics: RunMetrics {
            invocations: clf.invocations() - start_inv,
            wall: avg,
            n_tuples: batch.n_rows(),
            ..Default::default()
        },
    }
}

/// Dist-k KernelSHAP.
pub fn dist_k_shap<C: Classifier>(
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    shap: &KernelShapExplainer,
    base_samples: usize,
    k: usize,
    seed: u64,
) -> BatchResult<FeatureWeights> {
    let start_inv = clf.invocations();
    let mut base_rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
    let base = estimate_base_value(ctx, clf, base_samples, &mut base_rng);
    let (explanations, avg, _max) = dist_k(batch.n_rows(), k, |row| {
        let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
        shap.explain(ctx, clf, &batch.instance(row), base, &mut rng)
    });
    BatchResult {
        explanations,
        report: BatchReport::default(),
        metrics: RunMetrics {
            invocations: clf.invocations() - start_inv,
            wall: avg,
            n_tuples: batch.n_rows(),
            ..Default::default()
        },
    }
}

// ---------------------------------------------------------------------------
// GREEDY
// ---------------------------------------------------------------------------

/// Wraps a classifier and records every invocation as a discretized
/// [`LabeledSample`], so GREEDY and the streaming driver can persist
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

/// The GREEDY baseline: an LRU perturbation cache with no planning. Stores
/// every perturbation any explanation generated; reuses whatever fits.
#[derive(Clone, Debug)]
pub struct Greedy {
    /// Cache byte budget (paper default: 10× the batch bytes).
    pub budget_bytes: usize,
}

impl Greedy {
    /// Creates a GREEDY baseline with the given cache budget.
    pub fn new(budget_bytes: usize) -> Greedy {
        Greedy { budget_bytes }
    }

    /// The paper's default budget: 10× the (discretized) batch size.
    pub fn default_budget(batch: &Dataset) -> usize {
        10 * batch.n_rows() * batch.n_attrs() * std::mem::size_of::<u32>()
    }

    /// GREEDY LIME: reuse cached samples, record and cache fresh ones.
    pub fn explain_lime<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        batch: &Dataset,
        lime: &LimeExplainer,
        seed: u64,
    ) -> BatchResult<FeatureWeights> {
        let start_inv = clf.invocations();
        let wall0 = Instant::now();
        let mut cache = TaggedLruCache::new(self.budget_bytes);
        let table = ctx.discretizer().encode_dataset(batch);
        let mut explanations = Vec::with_capacity(batch.n_rows());
        for row in 0..batch.n_rows() {
            let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
            let codes = table.row(row);
            let hits: Vec<LabeledSample> = cache
                .lookup(&codes, lime.params.n_samples.saturating_sub(1))
                .into_iter()
                .cloned()
                .collect();
            let recorder = RecordingClassifier::new(clf, ctx, true);
            let e = lime.explain_with_reused(
                ctx,
                &recorder,
                &batch.instance(row),
                hits.iter(),
                &mut rng,
            );
            // First recorded call is the instance itself; cache the rest.
            for s in recorder.take_log().into_iter().skip(1) {
                cache.insert(&codes, s);
            }
            explanations.push(e);
        }
        BatchResult {
            explanations,
            report: BatchReport::default(),
            metrics: RunMetrics {
                invocations: clf.invocations() - start_inv,
                wall: wall0.elapsed(),
                store_bytes: cache.used_bytes(),
                n_tuples: batch.n_rows(),
                ..Default::default()
            },
        }
    }

    /// GREEDY KernelSHAP: cached samples re-enter as coalitions over their
    /// full agreement set with the current tuple; fresh perturbations are
    /// recorded and cached.
    #[allow(clippy::too_many_arguments)]
    pub fn explain_shap<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        batch: &Dataset,
        shap: &KernelShapExplainer,
        base_samples: usize,
        seed: u64,
    ) -> BatchResult<FeatureWeights> {
        let start_inv = clf.invocations();
        let wall0 = Instant::now();
        let mut base_rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
        let base = estimate_base_value(ctx, clf, base_samples, &mut base_rng);
        let mut cache = TaggedLruCache::new(self.budget_bytes);
        let table = ctx.discretizer().encode_dataset(batch);
        let mut explanations = Vec::with_capacity(batch.n_rows());
        for row in 0..batch.n_rows() {
            let mut rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
            let codes = table.row(row);
            let pooled =
                agreement_coalitions(&cache.lookup(&codes, shap.params.n_samples / 2), &codes);
            let recorder = RecordingClassifier::new(clf, ctx, true);
            let e = shap.explain_with(
                ctx,
                &recorder,
                &batch.instance(row),
                base,
                pooled,
                &mut NoSource,
                &mut rng,
            );
            for s in recorder.take_log().into_iter().skip(1) {
                cache.insert(&codes, s);
            }
            explanations.push(e);
        }
        BatchResult {
            explanations,
            report: BatchReport::default(),
            metrics: RunMetrics {
                invocations: clf.invocations() - start_inv,
                wall: wall0.elapsed(),
                store_bytes: cache.used_bytes(),
                n_tuples: batch.n_rows(),
                ..Default::default()
            },
        }
    }

    /// GREEDY Anchor: per-rule precision counts are kept and reused across
    /// tuples, but there is no frequent-itemset bootstrap and no coverage
    /// memoization.
    pub fn explain_anchor<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        batch: &Dataset,
        anchor: &AnchorExplainer,
        seed: u64,
    ) -> BatchResult<AnchorExplanation> {
        let start_inv = clf.invocations();
        let wall0 = Instant::now();
        let table = ctx.discretizer().encode_dataset(batch);
        let mut counts = HashMap::new();
        let mut explanations = Vec::with_capacity(batch.n_rows());
        for row in 0..batch.n_rows() {
            let instance = batch.instance(row);
            let target = clf.predict(&instance);
            let codes = table.row(row);
            let mut sampler =
                GreedyRuleSampler::new(ctx, clf, &mut counts, per_tuple_seed(seed, row));
            explanations.push(anchor.explain_with_sampler(&codes, target, &mut sampler));
        }
        BatchResult {
            explanations,
            report: BatchReport::default(),
            metrics: RunMetrics {
                invocations: clf.invocations() - start_inv,
                wall: wall0.elapsed(),
                n_tuples: batch.n_rows(),
                ..Default::default()
            },
        }
    }
}

/// Greedy Anchor sampler: exact-rule count reuse only. `counts` carries
/// each rule's `(n, positive)` from tuple to tuple.
pub struct GreedyRuleSampler<'a, C> {
    ctx: &'a ExplainContext,
    clf: &'a C,
    counts: &'a mut HashMap<Itemset, (u64, u64)>,
    rng: StdRng,
    rows: Vec<Feature>,
}

impl<'a, C: Classifier> GreedyRuleSampler<'a, C> {
    /// Creates a sampler for one tuple with its own deterministic RNG.
    pub fn new(
        ctx: &'a ExplainContext,
        clf: &'a C,
        counts: &'a mut HashMap<Itemset, (u64, u64)>,
        seed: u64,
    ) -> Self {
        GreedyRuleSampler {
            ctx,
            clf,
            counts,
            rng: StdRng::seed_from_u64(seed),
            rows: Vec::new(),
        }
    }
}

impl<C: Classifier> RuleSampler for GreedyRuleSampler<'_, C> {
    fn draw(&mut self, rule: &Itemset, k: usize) -> (u64, u64) {
        let (_, pos) = draw_rule_labels(self.ctx, self.clf, rule, k, &mut self.rng, &mut self.rows);
        let e = self.counts.entry(rule.clone()).or_insert((0, 0));
        e.0 += k as u64;
        e.1 += pos;
        (k as u64, pos)
    }

    fn prior(&mut self, rule: &Itemset) -> (u64, u64) {
        self.counts.get(rule).copied().unwrap_or((0, 0))
    }

    fn coverage(&mut self, rule: &Itemset) -> f64 {
        shahin_explain::anchor::rule_coverage(self.ctx.coverage_sample(), rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shahin_model::MajorityClass;
    use shahin_tabular::{train_test_split, DatasetPreset};

    fn setup(seed: u64) -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
        let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
        let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
        let rows: Vec<usize> = (0..split.test.n_rows().min(30)).collect();
        (ctx, clf, split.test.select(&rows))
    }

    #[test]
    fn sequential_lime_costs_n_per_tuple() {
        let (ctx, clf, batch) = setup(0);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 50,
            ..Default::default()
        });
        let res = sequential_lime(&ctx, &clf, &batch, &lime, 3);
        assert_eq!(res.metrics.invocations, 50 * batch.n_rows() as u64);
        assert_eq!(res.explanations.len(), batch.n_rows());
    }

    #[test]
    fn dist_k_matches_sequential_results() {
        let (ctx, clf, batch) = setup(1);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 50,
            ..Default::default()
        });
        let seq = sequential_lime(&ctx, &clf, &batch, &lime, 5);
        let dist = dist_k_lime(&ctx, &clf, &batch, &lime, 4, 5);
        // Same per-tuple seeds → identical explanations regardless of the
        // thread split.
        assert_eq!(seq.explanations, dist.explanations);
        assert_eq!(seq.metrics.invocations, dist.metrics.invocations);
    }

    #[test]
    fn dist_k_avg_time_scales_down() {
        let (explanations, avg, max) = dist_k(100, 4, |row| {
            // Simulate uniform work.
            std::thread::sleep(Duration::from_micros(200));
            row * 2
        });
        assert_eq!(explanations.len(), 100);
        assert_eq!(explanations[7], 14);
        // Each worker slept ~25 × 200µs = 5ms; well below the 20ms a single
        // worker would take.
        assert!(avg < Duration::from_millis(16), "avg {avg:?}");
        assert!(max >= avg);
    }

    #[test]
    fn dist_k_single_worker_is_sequential() {
        let (r, avg, max) = dist_k(10, 1, |row| row);
        assert_eq!(r, (0..10).collect::<Vec<_>>());
        assert_eq!(avg, max);
    }

    #[test]
    fn greedy_lime_saves_invocations_over_sequential() {
        let (ctx, clf, batch) = setup(2);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let greedy = Greedy::new(usize::MAX);
        let res = greedy.explain_lime(&ctx, &clf, &batch, &lime, 7);
        let seq_cost = 100 * batch.n_rows() as u64;
        assert!(
            res.metrics.invocations < seq_cost,
            "greedy saved nothing: {} vs {seq_cost}",
            res.metrics.invocations
        );
        assert_eq!(res.explanations.len(), batch.n_rows());
    }

    #[test]
    fn greedy_budget_bounds_cache() {
        let (ctx, clf, batch) = setup(3);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 50,
            ..Default::default()
        });
        let budget = 8 * 1024;
        let greedy = Greedy::new(budget);
        let res = greedy.explain_lime(&ctx, &clf, &batch, &lime, 9);
        assert!(res.metrics.store_bytes <= budget);
    }

    #[test]
    fn greedy_shap_runs() {
        let (ctx, clf, batch) = setup(4);
        let shap = KernelShapExplainer::new(shahin_explain::ShapParams {
            n_samples: 64,
            ..Default::default()
        });
        let greedy = Greedy::new(usize::MAX);
        let res = greedy.explain_shap(&ctx, &clf, &batch, &shap, 20, 11);
        assert_eq!(res.explanations.len(), batch.n_rows());
        for e in &res.explanations {
            let total: f64 = e.weights.iter().sum();
            assert!((total - (e.local_prediction - e.intercept)).abs() < 1e-6);
        }
    }

    #[test]
    fn greedy_anchor_reuses_counts() {
        let (ctx, _clf, batch) = setup(5);
        struct Key;
        impl Classifier for Key {
            fn predict_proba(&self, inst: &[Feature]) -> f64 {
                f64::from(inst[0].cat().is_multiple_of(2))
            }
        }
        let clf = CountingClassifier::new(Key);
        let anchor = AnchorExplainer::default();
        let greedy = Greedy::new(usize::MAX);
        let res = greedy.explain_anchor(&ctx, &clf, &batch, &anchor, 13);
        assert_eq!(res.explanations.len(), batch.n_rows());
        // Later tuples benefit from earlier counts, so the average cost per
        // tuple must be lower than an isolated run's.
        let iso_clf = CountingClassifier::new(Key);
        let one = batch.select(&[batch.n_rows() - 1]);
        let _ = sequential_anchor(&ctx, &iso_clf, &one, &anchor, 13);
        let avg = res.metrics.invocations as f64 / batch.n_rows() as f64;
        assert!(
            avg < 1.5 * iso_clf.invocations() as f64 + 200.0,
            "no count reuse visible: avg {avg} vs isolated {}",
            iso_clf.invocations()
        );
    }
}
