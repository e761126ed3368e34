//! Unified experiment harness: one entry point running any (method,
//! explainer) combination with comparable metrics, plus the explanation
//! fidelity comparisons of §4.2.

use shahin_explain::{
    AnchorExplainer, AnchorExplanation, ExplainContext, FeatureWeights, KernelShapExplainer,
    LimeExplainer,
};
use shahin_model::{Classifier, CountingClassifier};
use shahin_tabular::Dataset;

use crate::baseline;
use crate::batch::ShahinBatch;
use crate::config::{BatchConfig, StreamingConfig};
use crate::metrics::{BatchReport, BatchResult, RunMetrics};
use crate::obs::{fold_provenance, register_standard, MetricsRegistry};
use crate::streaming::ShahinStreaming;

/// Classifier invocations spent estimating KernelSHAP's base value, once
/// per run.
pub const SHAP_BASE_SAMPLES: usize = 64;

/// Derives a per-tuple RNG seed from the run seed, so every method explains
/// tuple `idx` with identical randomness (SplitMix64 finalizer).
pub fn per_tuple_seed(base: u64, idx: usize) -> u64 {
    let mut z = base ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which explanation algorithm to run.
#[derive(Clone, Debug)]
pub enum ExplainerKind {
    /// LIME with the given parameters.
    Lime(LimeExplainer),
    /// Anchor with the given parameters.
    Anchor(AnchorExplainer),
    /// KernelSHAP with the given parameters.
    Shap(KernelShapExplainer),
}

impl ExplainerKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ExplainerKind::Lime(_) => "LIME",
            ExplainerKind::Anchor(_) => "Anchor",
            ExplainerKind::Shap(_) => "SHAP",
        }
    }

    /// The per-tuple sample budget automatic τ selection aims the store
    /// at (`n_target` of [`crate::ShahinBatch`]'s preparation).
    pub(crate) fn n_target(&self) -> usize {
        match self {
            ExplainerKind::Lime(l) => l.params.n_samples,
            // Anchor has no fixed per-tuple count; 400 approximates the
            // bandit's typical rule-conditioned draw budget per tuple.
            ExplainerKind::Anchor(_) => 400,
            ExplainerKind::Shap(s) => s.params.n_samples,
        }
    }

    /// This explainer recording its own metrics into `reg` (only Anchor
    /// has any: its beam-search spans and counters).
    pub(crate) fn with_obs(self, reg: &MetricsRegistry) -> ExplainerKind {
        match self {
            ExplainerKind::Anchor(a) => ExplainerKind::Anchor(a.with_obs(reg)),
            other => other,
        }
    }
}

/// Which execution strategy to use (the paper's methods and baselines).
#[derive(Clone, Debug)]
pub enum Method {
    /// One tuple at a time, no reuse.
    Sequential,
    /// The batch split over `k` threads ("machines"); reported time is the
    /// per-machine average, as in the paper.
    Dist(usize),
    /// The GREEDY LRU-cache baseline with the given byte budget.
    Greedy(usize),
    /// Shahin-Batch.
    Batch(BatchConfig),
    /// Shahin-Batch with preparation *and* the per-tuple phase fanned out
    /// over [`BatchConfig::n_threads`] worker threads (LIME/SHAP results
    /// are identical to [`Method::Batch`]; so are Anchor's at one thread —
    /// beyond that, threads race on the shared caches, so rules match for
    /// crisp classifiers and invocation counts vary within tolerance).
    BatchParallel(BatchConfig),
    /// Shahin-Streaming.
    Streaming(StreamingConfig),
}

impl Method {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Method::Sequential => "Sequential".into(),
            Method::Dist(k) => format!("Dist-{k}"),
            Method::Greedy(_) => "Greedy".into(),
            Method::Batch(_) => "Shahin-Batch".into(),
            Method::BatchParallel(cfg) => {
                format!("Shahin-Batch-Par{}", cfg.resolved_n_threads())
            }
            Method::Streaming(_) => "Shahin-Streaming".into(),
        }
    }
}

/// An explanation of either shape.
#[derive(Clone, Debug)]
pub enum Explanation {
    /// Feature-attribution weights (LIME, SHAP).
    Weights(FeatureWeights),
    /// An Anchor rule.
    Rule(AnchorExplanation),
}

impl Explanation {
    /// The weight vector, if this is an attribution explanation.
    pub fn weights(&self) -> Option<&FeatureWeights> {
        match self {
            Explanation::Weights(w) => Some(w),
            Explanation::Rule(_) => None,
        }
    }

    /// The rule, if this is an Anchor explanation.
    pub fn rule(&self) -> Option<&AnchorExplanation> {
        match self {
            Explanation::Rule(r) => Some(r),
            Explanation::Weights(_) => None,
        }
    }
}

/// Result of one (method, explainer, batch) run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Metrics of the run.
    pub metrics: RunMetrics,
    /// One explanation per *surviving* tuple (quarantined tuples are
    /// listed in [`RunReport::report`] instead).
    pub explanations: Vec<Explanation>,
    /// Quarantined and degraded tuples of the run.
    pub report: BatchReport,
}

impl RunReport {
    /// The run's explanations as LIME / SHAP weight vectors.
    pub(crate) fn into_weights(self) -> BatchResult<FeatureWeights> {
        self.typed(|e| match e {
            Explanation::Weights(w) => w,
            Explanation::Rule(_) => unreachable!("an attribution run produced a rule"),
        })
    }

    /// The run's explanations as Anchor rules.
    pub(crate) fn into_rules(self) -> BatchResult<AnchorExplanation> {
        self.typed(|e| match e {
            Explanation::Rule(r) => r,
            Explanation::Weights(_) => unreachable!("an Anchor run produced weights"),
        })
    }

    fn typed<T>(self, unwrap: fn(Explanation) -> T) -> BatchResult<T> {
        BatchResult {
            explanations: self.explanations.into_iter().map(unwrap).collect(),
            metrics: self.metrics,
            report: self.report,
        }
    }
}

/// Runs one (method, explainer) combination over the batch.
pub fn run<C: Classifier>(
    method: &Method,
    kind: &ExplainerKind,
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    seed: u64,
) -> RunReport {
    run_with_obs(
        method,
        kind,
        ctx,
        clf,
        batch,
        seed,
        &MetricsRegistry::disabled(),
    )
}

/// [`run`], recording spans, counters and gauges into `obs` (see
/// [`crate::obs`] for the name schema). The full standard schema is
/// pre-registered, so a snapshot taken afterwards carries every key even
/// for phases this (method, explainer) combination never enters. Every
/// method explains its tuples through the one per-tuple [`crate::kernel`],
/// so the baselines (Sequential, Dist-k, Greedy) record the same per-tuple
/// spans and provenance as Shahin's drivers; they have no mining or
/// materialization phases. To also capture classifier latency histograms,
/// wrap the model in a [`shahin_model::TracedClassifier`] bound to the
/// same registry.
pub fn run_with_obs<C: Classifier>(
    method: &Method,
    kind: &ExplainerKind,
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    seed: u64,
    obs: &MetricsRegistry,
) -> RunReport {
    register_standard(obs);
    let report = match method {
        Method::Sequential | Method::Dist(_) | Method::Greedy(_) => {
            baseline::explain(method, kind, ctx, clf, batch, seed, obs)
        }
        Method::Batch(cfg) | Method::BatchParallel(cfg) => {
            ShahinBatch::new(cfg.clone()).with_obs(obs).explain(
                ctx,
                clf,
                batch,
                kind,
                seed,
                matches!(method, Method::BatchParallel(_)),
            )
        }
        Method::Streaming(cfg) => ShahinStreaming::new(cfg.clone())
            .with_obs(obs)
            .explain(ctx, clf, batch, kind, seed),
    };
    // Summarize any collected lineage as provenance.* gauges, so a metrics
    // snapshot taken after the run reconciles against the JSONL export.
    fold_provenance(obs);
    report
}

/// Explanation fidelity between two runs of attribution explainers:
/// `(mean Euclidean distance, mean Kendall-τ)` over the batch (§4.2).
pub fn attribution_fidelity(a: &[Explanation], b: &[Explanation]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "batch size mismatch");
    assert!(!a.is_empty(), "empty batch");
    let mut dist = 0.0;
    let mut tau = 0.0;
    for (x, y) in a.iter().zip(b) {
        let (wx, wy) = (
            &x.weights().expect("attribution explanation").weights,
            &y.weights().expect("attribution explanation").weights,
        );
        dist += shahin_linalg::euclidean_distance(wx, wy);
        tau += shahin_linalg::kendall_tau(wx, wy);
    }
    let n = a.len() as f64;
    (dist / n, tau / n)
}

/// Fraction of tuples whose Anchor rules are identical between two runs.
pub fn rule_agreement(a: &[Explanation], b: &[Explanation]) -> f64 {
    assert_eq!(a.len(), b.len(), "batch size mismatch");
    assert!(!a.is_empty(), "empty batch");
    let same = a
        .iter()
        .zip(b)
        .filter(|(x, y)| {
            x.rule().expect("anchor explanation").rule == y.rule().expect("anchor").rule
        })
        .count();
    same as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tuple_seed_spreads() {
        let a = per_tuple_seed(1, 0);
        let b = per_tuple_seed(1, 1);
        let c = per_tuple_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(per_tuple_seed(1, 0), a);
    }

    #[test]
    fn explanation_accessors() {
        let w = Explanation::Weights(FeatureWeights {
            weights: vec![1.0],
            intercept: 0.0,
            local_prediction: 0.5,
        });
        assert!(w.weights().is_some());
        assert!(w.rule().is_none());
    }

    #[test]
    fn fidelity_of_identical_runs_is_perfect() {
        let e = Explanation::Weights(FeatureWeights {
            weights: vec![0.5, -0.2, 0.1],
            intercept: 0.0,
            local_prediction: 0.5,
        });
        let a = vec![e.clone(), e.clone()];
        let (d, t) = attribution_fidelity(&a, &a);
        assert_eq!(d, 0.0);
        assert_eq!(t, 1.0);
    }

    #[test]
    fn method_and_kind_names() {
        assert_eq!(Method::Dist(8).name(), "Dist-8");
        assert_eq!(Method::Sequential.name(), "Sequential");
        assert_eq!(ExplainerKind::Lime(LimeExplainer::default()).name(), "LIME");
    }
}
