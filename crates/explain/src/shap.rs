//! KernelSHAP: Shapley value estimation via kernel-weighted regression.
//!
//! Faithful to the reference pipeline (paper §3.3):
//!
//! 1. sample `M` random coalitions (feature subsets), with subset *sizes*
//!    drawn proportionally to the SHAP kernel `π(m, s)` of Eq. 1 — the
//!    importance-sampling optimization the paper highlights,
//! 2. materialize each coalition: present attributes keep the instance's
//!    (discretized) value, absent ones resample from the training
//!    distribution; invoke the black box on the result,
//! 3. fit an equality-constrained weighted least squares; the coefficients
//!    are the Shapley value estimates.
//!
//! The reuse-aware entry point accepts pooled pre-labeled coalitions and a
//! [`CoalitionSource`] that may satisfy sampled coalitions from a
//! materialized store (Algorithm 3 lines 7–13).

use rand::seq::SliceRandom;
use rand::Rng;

use shahin_linalg::{constrained_wls_binary, shap_kernel_weight, BitDesign};
use shahin_model::Classifier;
use shahin_tabular::Feature;

use crate::context::ExplainContext;
use crate::explanation::FeatureWeights;
use crate::perturb::{push_perturbation, sanitize_proba, ReuseStats};

/// KernelSHAP hyperparameters.
#[derive(Clone, Debug)]
pub struct ShapParams {
    /// Number of coalition samples `M`.
    pub n_samples: usize,
    /// Sample coalition sizes uniformly instead of proportionally to the
    /// SHAP kernel (Eq. 1). Only for ablation: the kernel-proportional
    /// scheme is both the reference behaviour and the optimization the
    /// paper highlights (§3.3).
    pub uniform_sizes: bool,
}

impl Default for ShapParams {
    fn default() -> Self {
        ShapParams {
            n_samples: 256,
            uniform_sizes: false,
        }
    }
}

/// A coalition that has already been materialized and labeled.
#[derive(Clone, Debug)]
pub struct CoalitionSample {
    /// Present attributes (sorted).
    pub coalition: Vec<u16>,
    /// Classifier probability on the materialized perturbation.
    pub proba: f64,
}

/// A source that may satisfy a sampled coalition from cached perturbations
/// instead of a fresh classifier invocation.
pub trait CoalitionSource {
    /// Returns a cached label for a perturbation where exactly the
    /// `coalition` attributes are frozen at the instance's codes, if one is
    /// available (and consumes it). `inst_codes` identifies the instance.
    fn fetch(&mut self, inst_codes: &[u32], coalition: &[u16]) -> Option<f64>;
}

/// The no-op source: never has anything cached.
pub struct NoSource;

impl CoalitionSource for NoSource {
    fn fetch(&mut self, _inst_codes: &[u32], _coalition: &[u16]) -> Option<f64> {
        None
    }
}

/// The KernelSHAP explainer.
#[derive(Clone, Debug, Default)]
pub struct KernelShapExplainer {
    /// Hyperparameters.
    pub params: ShapParams,
}

impl KernelShapExplainer {
    /// Creates an explainer with the given parameters.
    pub fn new(params: ShapParams) -> KernelShapExplainer {
        KernelShapExplainer { params }
    }

    /// Explains one prediction from scratch (the sequential baseline).
    /// `base` is the null prediction `E[f]` (see
    /// [`crate::perturb::estimate_base_value`]).
    pub fn explain(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        base: f64,
        rng: &mut impl Rng,
    ) -> FeatureWeights {
        self.explain_with(ctx, clf, instance, base, Vec::new(), &mut NoSource, rng)
    }

    /// Explains one prediction, seeding the regression with `pooled`
    /// pre-labeled coalitions and attempting to satisfy sampled coalitions
    /// from `source` before invoking the classifier.
    #[allow(clippy::too_many_arguments)]
    pub fn explain_with(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        base: f64,
        pooled: Vec<CoalitionSample>,
        source: &mut dyn CoalitionSource,
        rng: &mut impl Rng,
    ) -> FeatureWeights {
        self.explain_with_counted(ctx, clf, instance, base, pooled, source, rng)
            .0
    }

    /// [`KernelShapExplainer::explain_with`], additionally reporting the
    /// reuse accounting ([`ReuseStats`]): coalition rows served from
    /// `pooled`/`source` count as reused, classifier-labeled rows as
    /// fresh. Drivers turn this into the per-tuple provenance record.
    #[allow(clippy::too_many_arguments)]
    pub fn explain_with_counted(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        base: f64,
        pooled: Vec<CoalitionSample>,
        source: &mut dyn CoalitionSource,
        rng: &mut impl Rng,
    ) -> (FeatureWeights, ReuseStats) {
        let m = ctx.n_attrs();
        assert_eq!(instance.len(), m, "instance arity mismatch");
        assert!(m >= 2, "KernelSHAP needs at least two attributes");
        let inst_codes = ctx.discretizer().encode_instance(instance);
        let mut stats = ReuseStats {
            invocations: 1, // the instance probe below
            ..ReuseStats::default()
        };
        let fx = sanitize_proba(clf.predict_proba(instance), &mut stats);

        // Cumulative distribution over coalition sizes 1..m−1 from Eq. 1
        // (size weights absorb the count of subsets of that size so sizes
        // are drawn by their *total* kernel mass, as the reference does).
        let size_cum = coalition_size_cdf(m);
        let n = self.params.n_samples.max(4);
        let mut samples: Vec<CoalitionSample> = Vec::with_capacity(n);
        for s in pooled {
            if samples.len() >= n {
                break;
            }
            debug_assert!(s.coalition.windows(2).all(|w| w[0] < w[1]));
            samples.push(s);
            stats.reused += 1;
        }

        let mut attrs: Vec<u16> = (0..m as u16).collect();
        // Coalitions the source could not serve: their perturbations, packed
        // row-major, and the sample slots their labels belong in.
        let mut codes = vec![0; m];
        let mut rows = Vec::new();
        let mut fresh_slots = Vec::new();
        while samples.len() < n {
            // Pick subset size via Eq. 1 (or uniformly, for the ablation),
            // then a uniform subset of it.
            let size = if self.params.uniform_sizes {
                rng.gen_range(1..m)
            } else {
                let u: f64 = rng.gen();
                size_cum.partition_point(|&c| c <= u).max(1).min(m - 1)
            };
            attrs.shuffle(rng);
            let mut coalition: Vec<u16> = attrs[..size].to_vec();
            coalition.sort_unstable();

            // `fetch` draws nothing from `rng`, so a miss's perturbation
            // draws right after its coalition, exactly where a per-row
            // `labeled_perturbation` would.
            let proba = match source.fetch(&inst_codes, &coalition) {
                Some(p) => {
                    stats.reused += 1;
                    p
                }
                None => {
                    let frozen = coalition
                        .iter()
                        .map(|&a| (a as usize, inst_codes[a as usize]));
                    push_perturbation(ctx, frozen, rng, &mut codes, &mut rows);
                    fresh_slots.push(samples.len());
                    f64::NAN // labelled below
                }
            };
            samples.push(CoalitionSample { coalition, proba });
        }
        if !fresh_slots.is_empty() {
            let probas = clf.predict_proba_flat(&rows, m);
            for (&slot, proba) in fresh_slots.iter().zip(probas) {
                samples[slot].proba = proba;
            }
        }
        stats.fresh = fresh_slots.len() as u64;
        stats.invocations += stats.fresh;

        // Regression: binary design (coalition membership). When sizes are
        // drawn by kernel mass, importance sampling makes the regression
        // weights uniform; the uniform-size ablation must instead weight
        // each row by its size's kernel mass to stay unbiased.
        let rows = samples.len();
        let mut z = BitDesign::with_capacity(rows, m);
        let mut y = Vec::with_capacity(rows);
        for s in &samples {
            z.push_row_of(s.coalition.iter().map(|&a| a as usize));
            // Sanitizing here covers pooled, source-fetched, and fresh
            // labels uniformly (each bad value counted once).
            y.push(sanitize_proba(s.proba, &mut stats));
        }
        let weights: Vec<f64> = if self.params.uniform_sizes {
            samples
                .iter()
                .map(|s| {
                    let size = s.coalition.len();
                    shap_kernel_weight(m, size) * shahin_linalg::kernel::binomial(m, size)
                })
                .collect()
        } else {
            vec![1.0; rows]
        };
        let phi = constrained_wls_binary(&z, &y, &weights, base, fx);
        (
            FeatureWeights {
                weights: phi,
                intercept: base,
                local_prediction: fx,
            },
            stats,
        )
    }
}

/// Exclusive-prefix CDF over coalition sizes `1..m−1`, each size weighted by
/// `π(m, s) · C(m, s)` (total kernel mass of that size), with a trailing 1.0
/// sentinel. Index `i` of the CDF corresponds to size `i + 1`... shifted so
/// `partition_point` lands on the size directly.
fn coalition_size_cdf(m: usize) -> Vec<f64> {
    let masses: Vec<f64> = (1..m)
        .map(|s| shap_kernel_weight(m, s) * shahin_linalg::kernel::binomial(m, s))
        .collect();
    let total: f64 = masses.iter().sum();
    let mut cum = Vec::with_capacity(m);
    let mut acc = 0.0;
    // cum[k] is the exclusive prefix for size k+1; partition_point over
    // `cum[1..]`-style shifted values gives the size directly, so store
    // shifted: entry for size s is the cumulative mass of sizes < s.
    cum.push(0.0); // size index 0 is unused (sizes start at 1)
    for w in &masses {
        acc += w / total;
        cum.push(acc);
    }
    // partition_point(|c| c <= u) over this vector returns a value in
    // 1..=m−1 that we clamp; the leading 0.0 guarantees ≥ 1.
    cum.pop();
    cum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::{Attribute, Column, Dataset, Schema};
    use std::sync::Arc;

    fn uniform_cat_ctx(n_attrs: usize, card: u32, n_rows: usize, seed: u64) -> ExplainContext {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Arc::new(Schema::new(
            (0..n_attrs)
                .map(|i| Attribute::categorical(format!("a{i}"), card))
                .collect(),
        ));
        let cols = (0..n_attrs)
            .map(|_| Column::Cat((0..n_rows).map(|_| rng.gen_range(0..card)).collect()))
            .collect();
        let data = Dataset::new(schema, cols);
        ExplainContext::fit(&data, 200, &mut rng)
    }

    /// Classifier = indicator of a single attribute's code.
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
    fn efficiency_constraint_holds() {
        let ctx = uniform_cat_ctx(5, 3, 500, 0);
        let clf = KeyAttr { attr: 1, code: 2 };
        let shap = KernelShapExplainer::default();
        let mut rng = StdRng::seed_from_u64(1);
        let inst = vec![
            Feature::Cat(0),
            Feature::Cat(2),
            Feature::Cat(1),
            Feature::Cat(0),
            Feature::Cat(2),
        ];
        let base = 1.0 / 3.0;
        let e = shap.explain(&ctx, &clf, &inst, base, &mut rng);
        let total: f64 = e.weights.iter().sum();
        let fx = clf.predict_proba(&inst);
        assert!((total - (fx - base)).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn key_attribute_dominates() {
        let ctx = uniform_cat_ctx(4, 2, 600, 2);
        let clf = KeyAttr { attr: 3, code: 1 };
        let shap = KernelShapExplainer::new(ShapParams {
            n_samples: 400,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let inst = vec![
            Feature::Cat(0),
            Feature::Cat(0),
            Feature::Cat(1),
            Feature::Cat(1),
        ];
        let e = shap.explain(&ctx, &clf, &inst, 0.5, &mut rng);
        assert_eq!(e.ranking()[0], 3, "weights {:?}", e.weights);
        assert!(e.weights[3] > 0.2, "weights {:?}", e.weights);
    }

    #[test]
    fn invocation_count_is_one_plus_samples() {
        let ctx = uniform_cat_ctx(4, 3, 300, 4);
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let shap = KernelShapExplainer::new(ShapParams {
            n_samples: 64,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        let inst = vec![Feature::Cat(0); 4];
        shap.explain(&ctx, &clf, &inst, 0.5, &mut rng);
        assert_eq!(clf.invocations(), 65);
    }

    #[test]
    fn pooled_samples_reduce_invocations() {
        let ctx = uniform_cat_ctx(4, 3, 300, 6);
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let shap = KernelShapExplainer::new(ShapParams {
            n_samples: 64,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let pooled: Vec<CoalitionSample> = (0..30)
            .map(|i| CoalitionSample {
                coalition: vec![(i % 4) as u16],
                proba: 0.5,
            })
            .collect();
        let inst = vec![Feature::Cat(0); 4];
        shap.explain_with(&ctx, &clf, &inst, 0.5, pooled, &mut NoSource, &mut rng);
        // 1 (instance) + 34 fresh.
        assert_eq!(clf.invocations(), 35);
    }

    #[test]
    fn counted_variant_reports_exact_reuse_stats() {
        let ctx = uniform_cat_ctx(4, 3, 300, 6);
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let shap = KernelShapExplainer::new(ShapParams {
            n_samples: 64,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let pooled: Vec<CoalitionSample> = (0..30)
            .map(|i| CoalitionSample {
                coalition: vec![(i % 4) as u16],
                proba: 0.5,
            })
            .collect();
        let inst = vec![Feature::Cat(0); 4];
        let (_, stats) =
            shap.explain_with_counted(&ctx, &clf, &inst, 0.5, pooled, &mut NoSource, &mut rng);
        assert_eq!(stats.reused, 30);
        assert_eq!(stats.fresh, 34);
        assert_eq!(stats.tau(), 64); // the coalition budget
        assert_eq!(stats.invocations, 35);
        assert_eq!(stats.invocations, clf.invocations());
    }

    #[test]
    fn source_hits_skip_classifier() {
        struct AlwaysCached;
        impl CoalitionSource for AlwaysCached {
            fn fetch(&mut self, _c: &[u32], _s: &[u16]) -> Option<f64> {
                Some(0.5)
            }
        }
        let ctx = uniform_cat_ctx(4, 3, 300, 8);
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let shap = KernelShapExplainer::new(ShapParams {
            n_samples: 64,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(9);
        let inst = vec![Feature::Cat(0); 4];
        shap.explain_with(
            &ctx,
            &clf,
            &inst,
            0.5,
            Vec::new(),
            &mut AlwaysCached,
            &mut rng,
        );
        // Only the instance's own prediction.
        assert_eq!(clf.invocations(), 1);
    }

    #[test]
    fn size_cdf_prefers_extremes() {
        // With the kernel of Eq. 1, sampled sizes should pile up at 1 and
        // m−1 rather than m/2.
        let m = 10;
        let cdf = coalition_size_cdf(m);
        let mut rng = StdRng::seed_from_u64(10);
        let mut hist = vec![0u32; m];
        for _ in 0..50_000 {
            let u: f64 = rng.gen();
            let size = cdf.partition_point(|&c| c <= u).max(1).min(m - 1);
            hist[size] += 1;
        }
        assert!(hist[1] > hist[5], "{hist:?}");
        assert!(hist[m - 1] > hist[5], "{hist:?}");
        assert_eq!(hist[0], 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let ctx = uniform_cat_ctx(4, 3, 300, 11);
        let clf = KeyAttr { attr: 0, code: 1 };
        let shap = KernelShapExplainer::default();
        let inst = vec![
            Feature::Cat(1),
            Feature::Cat(0),
            Feature::Cat(2),
            Feature::Cat(0),
        ];
        let e1 = shap.explain(&ctx, &clf, &inst, 0.3, &mut StdRng::seed_from_u64(12));
        let e2 = shap.explain(&ctx, &clf, &inst, 0.3, &mut StdRng::seed_from_u64(12));
        assert_eq!(e1, e2);
    }
}
