//! Local fidelity of surrogate explanations.
//!
//! A LIME/SHAP explanation is a linear surrogate of the black box in the
//! neighborhood of the instance. [`local_fidelity`] measures how well the
//! surrogate actually tracks the black box on *fresh* local samples — a
//! weighted R². This is the right lens for checking that Shahin's
//! perturbation reuse does not degrade explanation quality beyond the
//! rank/distance metrics of the paper's §4.2: identical rankings could in
//! principle hide a worse local fit, and this metric would expose it.

use rand::Rng;

use shahin_linalg::{default_kernel_width, exponential_kernel};
use shahin_model::Classifier;
use shahin_tabular::Feature;

use crate::context::ExplainContext;
use crate::explanation::FeatureWeights;
use crate::perturb::label_random_rows;

/// Weighted R² of the explanation's linear surrogate against the black box
/// on `n_eval` fresh perturbations of `instance` (proximity-weighted with
/// LIME's kernel). 1.0 is a perfect local fit; values can go negative when
/// the surrogate is worse than predicting the weighted mean.
///
/// Costs `n_eval` classifier invocations, made in one dispatch.
pub fn local_fidelity(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    instance: &[Feature],
    explanation: &FeatureWeights,
    n_eval: usize,
    rng: &mut impl Rng,
) -> f64 {
    let m = ctx.n_attrs();
    assert_eq!(instance.len(), m, "instance arity mismatch");
    assert_eq!(explanation.weights.len(), m, "explanation arity mismatch");
    assert!(n_eval >= 2, "need at least two evaluation samples");
    let inst_codes = ctx.discretizer().encode_instance(instance);
    let width = default_kernel_width(m);

    let (codes, ys) = label_random_rows(ctx, clf, n_eval, rng);
    let mut preds = Vec::with_capacity(n_eval);
    let mut ws = Vec::with_capacity(n_eval);
    for row in codes.chunks_exact(m) {
        let mut zeros = 0usize;
        let mut surrogate = explanation.intercept;
        for (j, &code) in inst_codes.iter().enumerate() {
            if row[j] == code {
                surrogate += explanation.weights[j];
            } else {
                zeros += 1;
            }
        }
        preds.push(surrogate);
        ws.push(exponential_kernel((zeros as f64).sqrt(), width));
    }

    let w_sum: f64 = ws.iter().sum();
    let mean: f64 = ys.iter().zip(&ws).map(|(y, w)| y * w).sum::<f64>() / w_sum;
    let ss_tot: f64 = ys
        .iter()
        .zip(&ws)
        .map(|(y, w)| w * (y - mean) * (y - mean))
        .sum();
    let ss_res: f64 = ys
        .iter()
        .zip(&preds)
        .zip(&ws)
        .map(|((y, p), w)| w * (y - p) * (y - p))
        .sum();
    if ss_tot <= f64::EPSILON {
        // Constant black box locally: perfect iff the surrogate is flat too.
        return if ss_res <= 1e-9 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lime::{LimeExplainer, LimeParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_model::MajorityClass;
    use shahin_tabular::{Attribute, Column, Dataset, Schema};
    use std::sync::Arc;

    struct KeyAttr;
    impl Classifier for KeyAttr {
        fn predict_proba(&self, inst: &[Feature]) -> f64 {
            f64::from(inst[0].cat() == 1)
        }
    }

    fn ctx(seed: u64) -> ExplainContext {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 500;
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("a", 2),
            Attribute::categorical("b", 3),
        ]));
        let cols = vec![
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..3)).collect()),
        ];
        ExplainContext::fit(&Dataset::new(schema, cols), 200, &mut rng)
    }

    #[test]
    fn good_explanation_scores_high() {
        let ctx = ctx(0);
        let clf = KeyAttr;
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 600,
            ..Default::default()
        });
        let inst = vec![Feature::Cat(1), Feature::Cat(0)];
        let mut rng = StdRng::seed_from_u64(1);
        let e = lime.explain(&ctx, &clf, &inst, &mut rng);
        let r2 = local_fidelity(&ctx, &clf, &inst, &e, 500, &mut rng);
        assert!(r2 > 0.6, "fidelity only {r2}");
    }

    #[test]
    fn shuffled_explanation_scores_worse() {
        let ctx = ctx(2);
        let clf = KeyAttr;
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 600,
            ..Default::default()
        });
        let inst = vec![Feature::Cat(1), Feature::Cat(0)];
        let mut rng = StdRng::seed_from_u64(3);
        let good = lime.explain(&ctx, &clf, &inst, &mut rng);
        let mut bad = good.clone();
        bad.weights.reverse();
        let r2_good = local_fidelity(&ctx, &clf, &inst, &good, 500, &mut rng);
        let r2_bad = local_fidelity(&ctx, &clf, &inst, &bad, 500, &mut rng);
        assert!(
            r2_good > r2_bad + 0.1,
            "good {r2_good} not clearly above bad {r2_bad}"
        );
    }

    #[test]
    fn constant_black_box_flat_surrogate_is_perfect() {
        let ctx = ctx(4);
        let clf = MajorityClass::fit(&[1, 1, 1, 0]);
        let e = FeatureWeights {
            weights: vec![0.0, 0.0],
            intercept: 0.75,
            local_prediction: 0.75,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let inst = vec![Feature::Cat(0), Feature::Cat(0)];
        assert_eq!(local_fidelity(&ctx, &clf, &inst, &e, 100, &mut rng), 1.0);
    }
}
