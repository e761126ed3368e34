//! LIME: Local Interpretable Model-agnostic Explanations (tabular mode).
//!
//! Faithful to the reference `lime_tabular` pipeline (paper §3.1):
//!
//! 1. discretize the instance; draw `N − 1` perturbations by sampling every
//!    attribute independently from the training frequency distribution,
//! 2. invoke the black box on each perturbation (the 88%-of-runtime step),
//! 3. map each perturbation to the binary interpretable space
//!    `z_j = 1 ⇔ sampled code == instance code`, weight it by the
//!    exponential proximity kernel,
//! 4. fit weighted ridge regression; its coefficients are the explanation.
//!
//! [`LimeExplainer::explain_with_reused`] additionally accepts pre-labeled
//! samples (Algorithm 1 line 6: "retrieve reusable samples and labels"),
//! generating only the remaining `N − 1 − |S|` perturbations fresh.

use rand::Rng;

use shahin_linalg::{default_kernel_width, exponential_kernel, ridge_binary, BitDesign, RidgeFit};
use shahin_model::Classifier;
use shahin_tabular::Feature;

use crate::context::ExplainContext;
use crate::explanation::FeatureWeights;
use crate::perturb::{label_random_rows, sanitize_proba, LabeledSample, ReuseStats};

/// LIME hyperparameters.
#[derive(Clone, Debug)]
pub struct LimeParams {
    /// Total number of samples `N` (including the instance itself).
    pub n_samples: usize,
    /// Proximity kernel width; `None` uses LIME's default `0.75·√m`.
    pub kernel_width: Option<f64>,
    /// Ridge penalty for the surrogate (LIME's default is 1.0).
    pub alpha: f64,
}

impl Default for LimeParams {
    fn default() -> Self {
        LimeParams {
            n_samples: 500,
            kernel_width: None,
            alpha: 1.0,
        }
    }
}

/// The LIME explainer.
#[derive(Clone, Debug, Default)]
pub struct LimeExplainer {
    /// Hyperparameters.
    pub params: LimeParams,
}

impl LimeExplainer {
    /// Creates an explainer with the given parameters.
    pub fn new(params: LimeParams) -> LimeExplainer {
        LimeExplainer { params }
    }

    /// Explains one prediction, generating every perturbation fresh
    /// (the sequential baseline).
    pub fn explain(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        rng: &mut impl Rng,
    ) -> FeatureWeights {
        self.explain_with_reused(ctx, clf, instance, std::iter::empty(), rng)
    }

    /// Explains one prediction, pooling `reused` pre-labeled samples first
    /// and topping up with fresh perturbations to reach `N` total samples.
    ///
    /// A row drawn with itemset `f` frozen is an exact sample for a query
    /// that draws its own frozen set `S` iff `f ⊆ S` and the row agrees
    /// with the tuple on `S`. LIME's `S` is ∅, so only rows drawn with
    /// nothing frozen are exact LIME perturbations; a frozen-itemset row
    /// is not, however well it matches the instance (DESIGN §5).
    pub fn explain_with_reused<'a>(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        reused: impl IntoIterator<Item = &'a LabeledSample>,
        rng: &mut impl Rng,
    ) -> FeatureWeights {
        self.explain_with_reused_counted(ctx, clf, instance, reused, rng)
            .0
    }

    /// [`LimeExplainer::explain_with_reused`], additionally reporting the
    /// reuse accounting ([`ReuseStats`]): how many of the `N − 1`
    /// perturbation rows came from `reused` versus fresh generation, and
    /// the classifier invocations consumed. Drivers turn this into the
    /// per-tuple provenance record.
    pub fn explain_with_reused_counted<'a>(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        reused: impl IntoIterator<Item = &'a LabeledSample>,
        rng: &mut impl Rng,
    ) -> (FeatureWeights, ReuseStats) {
        let m = ctx.n_attrs();
        assert_eq!(instance.len(), m, "instance arity mismatch");
        assert!(self.params.n_samples >= 2, "need at least 2 samples");
        let inst_codes = ctx.discretizer().encode_instance(instance);
        let kernel = self.kernel_by_zeros(m);

        let n = self.params.n_samples;
        let mut z = BitDesign::with_capacity(n, m);
        let mut y = Vec::with_capacity(n);
        let mut w = Vec::with_capacity(n);

        let mut stats = ReuseStats {
            invocations: 1, // the instance probe below
            ..ReuseStats::default()
        };

        // Row 0: the instance itself (all-ones interpretable vector).
        let fx = sanitize_proba(clf.predict_proba(instance), &mut stats);
        z.push_row(|_| true);
        y.push(fx);
        w.push(kernel[0]);
        // Binary interpretable representation + distance of one row.
        let mut push = |codes: &[u32], proba: f64, stats: &mut ReuseStats| {
            let ones = z.push_row(|j| codes[j] == inst_codes[j]);
            y.push(sanitize_proba(proba, stats));
            w.push(kernel[m - ones]);
        };
        for s in reused.into_iter().take(n - 1) {
            stats.reused += 1;
            push(&s.codes, s.proba, &mut stats);
        }
        // The top-up: every remaining row generated, then labelled in one
        // dispatch.
        let fresh = n - 1 - stats.reused as usize;
        let (codes, probas) = label_random_rows(ctx, clf, fresh, rng);
        stats.fresh = fresh as u64;
        stats.invocations += fresh as u64;
        for (row, &proba) in codes.chunks_exact(m).zip(&probas) {
            push(row, proba, &mut stats);
        }

        let fit = ridge_binary(&z, &y, &w, self.params.alpha);
        (surrogate_weights(fit, m), stats)
    }

    /// Approximate LIME with adaptive early stopping (the paper's §6
    /// suggestion: "one could achieve substantial speedup by allowing
    /// certain approximation in the explanations generated").
    ///
    /// Samples in rounds of `check_every`; after each round the surrogate
    /// is refit, and sampling stops once the maximum coefficient change
    /// since the previous round drops below `tolerance` (or the `N` budget
    /// is exhausted). Returns the explanation and the number of samples
    /// actually used — the saved classifier invocations are
    /// `N − n_used`.
    pub fn explain_adaptive(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        check_every: usize,
        tolerance: f64,
        rng: &mut impl Rng,
    ) -> (FeatureWeights, usize) {
        let m = ctx.n_attrs();
        assert_eq!(instance.len(), m, "instance arity mismatch");
        assert!(check_every >= 2, "check_every must be at least 2");
        assert!(tolerance > 0.0, "tolerance must be positive");
        let inst_codes = ctx.discretizer().encode_instance(instance);
        let kernel = self.kernel_by_zeros(m);

        // Dropped on purpose: the adaptive variant returns no accounting, so
        // the count of clamped labels goes nowhere. Only the clamping matters.
        let mut stats = ReuseStats::default();
        let fx = sanitize_proba(clf.predict_proba(instance), &mut stats);
        let mut z = BitDesign::with_capacity(self.params.n_samples, m);
        z.push_row(|_| true);
        let mut y = vec![fx];
        let mut w = vec![kernel[0]];
        let mut prev: Option<Vec<f64>> = None;
        let mut fit = None;

        while y.len() < self.params.n_samples {
            let round = check_every.min(self.params.n_samples - y.len());
            let (codes, probas) = label_random_rows(ctx, clf, round, rng);
            for (row, &proba) in codes.chunks_exact(m).zip(&probas) {
                let ones = z.push_row(|j| row[j] == inst_codes[j]);
                y.push(sanitize_proba(proba, &mut stats));
                w.push(kernel[m - ones]);
            }
            let f = ridge_binary(&z, &y, &w, self.params.alpha);
            let converged = prev.as_ref().is_some_and(|p| {
                f.coefficients
                    .iter()
                    .zip(p)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
                    < tolerance
            });
            prev = Some(f.coefficients.clone());
            fit = Some(f);
            if converged {
                break;
            }
        }
        let fit = fit.expect("at least one round ran");
        (surrogate_weights(fit, m), y.len())
    }

    /// The proximity weight of a perturbation by its number of attributes
    /// that differ from the instance (its squared distance in the binary
    /// interpretable space): `m + 1` kernel evaluations per explanation
    /// instead of one per row.
    fn kernel_by_zeros(&self, m: usize) -> Vec<f64> {
        let width = self
            .params
            .kernel_width
            .unwrap_or_else(|| default_kernel_width(m));
        (0..=m)
            .map(|zeros| exponential_kernel((zeros as f64).sqrt(), width))
            .collect()
    }
}

/// The explanation a fitted surrogate stands for; the local prediction is
/// the surrogate evaluated at the instance (the all-ones vector).
fn surrogate_weights(fit: RidgeFit, m: usize) -> FeatureWeights {
    let local_prediction = fit.predict(&vec![1.0; m]);
    FeatureWeights {
        weights: fit.coefficients,
        intercept: fit.intercept,
        local_prediction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::labeled_perturbation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_fim::Itemset;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::{Attribute, Column, Dataset, DatasetPreset, Schema};
    use std::sync::Arc;

    fn small_ctx() -> (ExplainContext, Dataset) {
        let (data, _) = DatasetPreset::Recidivism.spec(0.02).generate(3);
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = ExplainContext::fit(&data, 200, &mut rng);
        (ctx, data)
    }

    /// A classifier keyed on a single categorical attribute.
    struct KeyAttr {
        attr: usize,
        code: u32,
    }
    impl Classifier for KeyAttr {
        fn predict_proba(&self, instance: &[Feature]) -> f64 {
            f64::from(instance[self.attr].cat() == self.code)
        }
    }

    #[test]
    fn classifier_invocations_equal_n_samples() {
        let (ctx, data) = small_ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        lime.explain(&ctx, &clf, &data.instance(0), &mut rng);
        // 1 for the instance + 99 perturbations.
        assert_eq!(clf.invocations(), 100);
    }

    #[test]
    fn reuse_cuts_invocations_exactly() {
        let (ctx, data) = small_ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        // Pre-label 40 samples.
        let empty = Itemset::new(vec![]);
        let reused: Vec<LabeledSample> = (0..40)
            .map(|_| labeled_perturbation(&ctx, &clf, &empty, &mut rng))
            .collect();
        clf.reset();
        lime.explain_with_reused(&ctx, &clf, &data.instance(0), &reused, &mut rng);
        // 1 (instance) + 59 fresh.
        assert_eq!(clf.invocations(), 60);
    }

    #[test]
    fn counted_variant_reports_exact_reuse_stats() {
        let (ctx, data) = small_ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let empty = Itemset::new(vec![]);
        let reused: Vec<LabeledSample> = (0..40)
            .map(|_| labeled_perturbation(&ctx, &clf, &empty, &mut rng))
            .collect();
        clf.reset();
        let (_, stats) =
            lime.explain_with_reused_counted(&ctx, &clf, &data.instance(0), &reused, &mut rng);
        assert_eq!(stats.reused, 40);
        assert_eq!(stats.fresh, 59);
        assert_eq!(stats.tau(), 99); // n_samples − 1 perturbation rows
        assert_eq!(stats.invocations, 60);
        assert_eq!(stats.invocations, clf.invocations());
    }

    #[test]
    fn key_attribute_gets_top_weight() {
        // Classifier depends only on attribute 2; LIME must rank it first.
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("a", 3),
            Attribute::categorical("b", 3),
            Attribute::categorical("c", 2),
        ]));
        let mut rng = StdRng::seed_from_u64(3);
        let n = 600;
        let cols = vec![
            Column::Cat((0..n).map(|_| rng.gen_range(0..3)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..3)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
        ];
        let data = Dataset::new(schema, cols);
        let ctx = ExplainContext::fit(&data, 200, &mut rng);
        let clf = KeyAttr { attr: 2, code: 1 };
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 400,
            ..Default::default()
        });
        let instance = vec![Feature::Cat(0), Feature::Cat(1), Feature::Cat(1)];
        let e = lime.explain(&ctx, &clf, &instance, &mut rng);
        assert_eq!(e.ranking()[0], 2, "weights: {:?}", e.weights);
        assert!(e.weights[2] > 0.0, "key weight should be positive");
    }

    #[test]
    fn weight_sign_flips_with_class() {
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("a", 2),
            Attribute::categorical("b", 2),
        ]));
        let mut rng = StdRng::seed_from_u64(4);
        let n = 400;
        let cols = vec![
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
        ];
        let data = Dataset::new(schema, cols);
        let ctx = ExplainContext::fit(&data, 100, &mut rng);
        let clf = KeyAttr { attr: 0, code: 1 };
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 300,
            ..Default::default()
        });
        // Instance whose attr0 = 1 (classifier says positive): holding
        // attr0 fixed should push toward positive → positive weight.
        let pos_inst = vec![Feature::Cat(1), Feature::Cat(0)];
        let e_pos = lime.explain(&ctx, &clf, &pos_inst, &mut rng);
        assert!(e_pos.weights[0] > 0.0, "{:?}", e_pos.weights);
        // Instance whose attr0 = 0 (negative): keeping it at 0 pushes away
        // from positive → negative weight.
        let neg_inst = vec![Feature::Cat(0), Feature::Cat(0)];
        let e_neg = lime.explain(&ctx, &clf, &neg_inst, &mut rng);
        assert!(e_neg.weights[0] < 0.0, "{:?}", e_neg.weights);
    }

    #[test]
    fn deterministic_under_seed() {
        let (ctx, data) = small_ctx();
        let clf = MajorityClass::fit(&[1, 0, 0]);
        let lime = LimeExplainer::default();
        let e1 = lime.explain(&ctx, &clf, &data.instance(5), &mut StdRng::seed_from_u64(9));
        let e2 = lime.explain(&ctx, &clf, &data.instance(5), &mut StdRng::seed_from_u64(9));
        assert_eq!(e1, e2);
    }

    #[test]
    fn adaptive_lime_stops_early_on_easy_classifiers() {
        let (ctx, data) = small_ctx();
        // Constant classifier: coefficients converge immediately.
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 2000,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(21);
        let (e, n_used) = lime.explain_adaptive(&ctx, &clf, &data.instance(0), 50, 0.01, &mut rng);
        assert!(n_used < 2000, "no early stop: used {n_used}");
        assert_eq!(clf.invocations(), n_used as u64);
        assert!(e.weights.iter().all(|v| v.abs() < 0.05), "{:?}", e.weights);
    }

    #[test]
    fn adaptive_lime_survives_a_nan_emitting_classifier() {
        /// Answers NaN on every third call, like a model that divides by
        /// an empty leaf.
        struct SometimesNan(std::sync::atomic::AtomicU64);
        impl Classifier for SometimesNan {
            fn predict_proba(&self, instance: &[Feature]) -> f64 {
                let call = self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if call % 3 == 2 {
                    f64::NAN
                } else {
                    f64::from(instance[0].cat() == 0)
                }
            }
        }
        let (ctx, data) = small_ctx();
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 400,
            ..Default::default()
        });
        let clf = SometimesNan(Default::default());
        let mut rng = StdRng::seed_from_u64(23);
        let (e, n_used) = lime.explain_adaptive(&ctx, &clf, &data.instance(0), 100, 1e-6, &mut rng);
        assert!(n_used >= 200, "needs two rounds to compare: {n_used}");
        assert!(
            e.weights.iter().all(|v| v.is_finite()) && e.intercept.is_finite(),
            "one NaN label poisoned the fit: {e:?}"
        );
    }

    #[test]
    fn adaptive_lime_agrees_with_full_lime_ranking() {
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("a", 3),
            Attribute::categorical("b", 3),
            Attribute::categorical("c", 2),
        ]));
        let mut rng = StdRng::seed_from_u64(22);
        let n = 600;
        let cols = vec![
            Column::Cat((0..n).map(|_| rng.gen_range(0..3)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..3)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
        ];
        let data = Dataset::new(schema, cols);
        let ctx = ExplainContext::fit(&data, 200, &mut rng);
        let clf = KeyAttr { attr: 2, code: 1 };
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 1500,
            ..Default::default()
        });
        let instance = vec![Feature::Cat(0), Feature::Cat(1), Feature::Cat(1)];
        let (e, n_used) = lime.explain_adaptive(&ctx, &clf, &instance, 100, 0.02, &mut rng);
        assert_eq!(e.ranking()[0], 2, "weights {:?} (used {n_used})", e.weights);
    }

    #[test]
    fn constant_classifier_gives_near_zero_weights() {
        let (ctx, data) = small_ctx();
        let clf = MajorityClass::fit(&[1, 1, 1, 1, 0, 0, 0, 0]);
        let lime = LimeExplainer::default();
        let mut rng = StdRng::seed_from_u64(10);
        let e = lime.explain(&ctx, &clf, &data.instance(0), &mut rng);
        for &w in &e.weights {
            assert!(w.abs() < 1e-9, "weights should vanish: {:?}", e.weights);
        }
        assert!((e.intercept - 0.5).abs() < 1e-9);
    }
}
