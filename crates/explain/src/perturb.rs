//! Perturbation generation shared by all explainers.

use rand::Rng;

use shahin_fim::Itemset;
use shahin_model::Classifier;
use shahin_tabular::{Feature, Instance};

use crate::context::ExplainContext;

/// A perturbation that has already been pushed through the classifier.
///
/// `codes` is the discretized representation (one code per attribute) —
/// everything the surrogate models need; the concrete feature values fed to
/// the classifier are not retained (matching what Shahin materializes).
#[derive(Clone, Debug, PartialEq)]
pub struct LabeledSample {
    /// Discretized codes, one per attribute.
    pub codes: Box<[u32]>,
    /// Classifier probability of the positive class.
    pub proba: f64,
}

impl LabeledSample {
    /// Approximate resident bytes (store budget accounting).
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<LabeledSample>() + self.codes.len() * std::mem::size_of::<u32>()
    }
}

/// Reuse accounting for one explanation: how the explainer's perturbation
/// budget was served. `reused + fresh` is the number of perturbation rows
/// the surrogate saw (the tuple's effective τ); `invocations` counts every
/// classifier call made on the tuple's behalf (fresh rows plus the probe
/// on the instance itself).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Perturbation rows served from pre-labeled samples (no classifier
    /// call).
    pub reused: u64,
    /// Perturbation rows generated and labeled fresh.
    pub fresh: u64,
    /// Classifier invocations consumed.
    pub invocations: u64,
    /// Classifier outputs that were not valid probabilities (NaN, ±∞, or
    /// outside `[0, 1]`) and were sanitized by [`sanitize_proba`] before
    /// the surrogate saw them. Non-zero marks the explanation degraded.
    pub clamped: u64,
}

impl ReuseStats {
    /// The explanation's perturbation budget: `reused + fresh`.
    #[inline]
    pub fn tau(&self) -> u64 {
        self.reused + self.fresh
    }
}

/// Clamps a classifier output into a valid probability before a surrogate
/// model sees it: finite out-of-range values clamp to `[0, 1]`, non-finite
/// values (NaN, ±∞) become the uninformative `0.5`. Every correction is
/// counted in [`ReuseStats::clamped`] so drivers can flag the explanation
/// as degraded. A well-behaved classifier never trips this.
#[inline]
pub fn sanitize_proba(p: f64, stats: &mut ReuseStats) -> f64 {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        p
    } else {
        stats.clamped += 1;
        if p.is_finite() {
            p.clamp(0.0, 1.0)
        } else {
            0.5
        }
    }
}

/// Draws the discretized codes of one perturbation: attributes in `frozen`
/// keep their dictated codes, every other attribute samples a code from the
/// training frequency distribution. Passing an empty itemset yields the
/// fully random perturbation LIME draws.
pub fn perturb_codes(ctx: &ExplainContext, frozen: &Itemset, rng: &mut impl Rng) -> Vec<u32> {
    let mut codes = vec![0; ctx.n_attrs()];
    fill_codes(ctx, frozen, rng, &mut codes);
    codes
}

/// [`perturb_codes`] into a caller-owned slice of `ctx.n_attrs()` codes.
fn fill_codes(ctx: &ExplainContext, frozen: &Itemset, rng: &mut impl Rng, codes: &mut [u32]) {
    for (attr, code) in codes.iter_mut().enumerate() {
        *code = ctx.stats().sample_code(attr, rng);
    }
    for item in frozen.items() {
        codes[item.attr as usize] = item.code;
    }
}

/// Reconstructs a concrete instance from discretized codes (categorical
/// codes pass through, numeric bins get truncated-normal draws) and labels
/// it with one classifier invocation.
pub fn label_codes(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    codes: Vec<u32>,
    rng: &mut impl Rng,
) -> LabeledSample {
    let instance: Instance = ctx.discretizer().undiscretize_instance(&codes, rng);
    let proba = clf.predict_proba(&instance);
    LabeledSample {
        codes: codes.into_boxed_slice(),
        proba,
    }
}

/// Generates and labels one perturbation with `frozen` items held fixed.
pub fn labeled_perturbation(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    frozen: &Itemset,
    rng: &mut impl Rng,
) -> LabeledSample {
    let codes = perturb_codes(ctx, frozen, rng);
    label_codes(ctx, clf, codes, rng)
}

/// Draws `k` perturbations with `frozen` held fixed, labels them through
/// one [`Classifier::predict_proba_flat`] dispatch, and returns
/// `(drawn, positive)`, where `positive` counts probabilities `>= 0.5`.
/// This is every Anchor rule sampler's draw.
///
/// The RNG is consumed exactly as by `k` calls to [`labeled_perturbation`]:
/// per row, a code for every attribute, then the frozen items, then the
/// undiscretize draws. The rows are packed into `rows`, caller-owned
/// scratch that is cleared first and reused from draw to draw; no codes are
/// kept. `k == 0` makes no classifier call.
pub fn draw_rule_labels(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    frozen: &Itemset,
    k: usize,
    rng: &mut impl Rng,
    rows: &mut Vec<Feature>,
) -> (u64, u64) {
    rows.clear();
    if k == 0 {
        return (0, 0);
    }
    let n_attrs = ctx.n_attrs();
    let mut codes = vec![0; n_attrs];
    for _ in 0..k {
        fill_codes(ctx, frozen, rng, &mut codes);
        ctx.discretizer().undiscretize_into(&codes, rng, rows);
    }
    let probas = clf.predict_proba_flat(rows, n_attrs);
    let positive = probas.iter().filter(|&&p| p >= 0.5).count();
    (k as u64, positive as u64)
}

/// Generates `count` perturbations with `frozen` held fixed and labels them
/// through a **single** [`Classifier::predict_proba_flat`] dispatch over
/// one flat row-major buffer.
///
/// The RNG is consumed in exactly the order of `count` calls to
/// [`labeled_perturbation`] (perturb then undiscretize, per sample), so the
/// returned samples are bit-identical to the one-at-a-time path — only the
/// classifier dispatch is batched. An invocation-counting wrapper still
/// observes `count` invocations.
pub fn labeled_perturbations_batch(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    frozen: &Itemset,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<LabeledSample> {
    labeled_perturbations_batch_timed(ctx, clf, frozen, count, rng).0
}

/// [`labeled_perturbations_batch`], also reporting the time spent
/// *generating* perturbations (sampling codes + undiscretizing), excluding
/// the classifier dispatch. This is the bookkeeping-vs-model split the
/// observability layer records as `span.perturb.generate`: the classifier
/// portion already has its own latency histogram via `TracedClassifier`.
pub fn labeled_perturbations_batch_timed(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    frozen: &Itemset,
    count: usize,
    rng: &mut impl Rng,
) -> (Vec<LabeledSample>, std::time::Duration) {
    let gen_start = std::time::Instant::now();
    let n_attrs = ctx.n_attrs();
    let mut codes_list = Vec::with_capacity(count);
    // One flat row-major buffer for the whole batch: no per-row
    // `Vec<Feature>` allocations, and the classifier's flat fast path
    // (e.g. `FlatForest`) consumes it without re-framing.
    let mut rows = Vec::with_capacity(count * n_attrs);
    for _ in 0..count {
        let codes = perturb_codes(ctx, frozen, rng);
        ctx.discretizer().undiscretize_into(&codes, rng, &mut rows);
        codes_list.push(codes);
    }
    let generate_time = gen_start.elapsed();
    let probas = clf.predict_proba_flat(&rows, n_attrs);
    let samples = codes_list
        .into_iter()
        .zip(probas)
        .map(|(codes, proba)| LabeledSample {
            codes: codes.into_boxed_slice(),
            proba,
        })
        .collect();
    (samples, generate_time)
}

/// Estimates the base value `E[f]` (KernelSHAP's null prediction) by
/// averaging the classifier over `n` fully random perturbations. Costs `n`
/// classifier invocations — done once per batch, which is how the
/// reference implementation amortizes its background set too.
pub fn estimate_base_value(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    n: usize,
    rng: &mut impl Rng,
) -> f64 {
    assert!(n > 0, "need at least one sample");
    let empty = Itemset::new(vec![]);
    let sum: f64 = (0..n)
        .map(|_| {
            // A single NaN here would poison the base value for the whole
            // batch; sanitize per sample like the surrogate inputs.
            let p = labeled_perturbation(ctx, clf, &empty, rng).proba;
            if p.is_finite() {
                p.clamp(0.0, 1.0)
            } else {
                0.5
            }
        })
        .sum();
    sum / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_fim::Item;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::DatasetPreset;

    fn ctx() -> ExplainContext {
        let (data, _) = DatasetPreset::Recidivism.spec(0.02).generate(3);
        let mut rng = StdRng::seed_from_u64(0);
        ExplainContext::fit(&data, 200, &mut rng)
    }

    #[test]
    fn frozen_items_are_respected() {
        let ctx = ctx();
        let frozen = Itemset::new(vec![Item::new(0, 1), Item::new(3, 0)]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let codes = perturb_codes(&ctx, &frozen, &mut rng);
            assert_eq!(codes.len(), ctx.n_attrs());
            assert_eq!(codes[0], 1);
            assert_eq!(codes[3], 0);
        }
    }

    #[test]
    fn unfrozen_attrs_vary() {
        let ctx = ctx();
        let frozen = Itemset::new(vec![]);
        let mut rng = StdRng::seed_from_u64(2);
        let draws: Vec<Vec<u32>> = (0..100)
            .map(|_| perturb_codes(&ctx, &frozen, &mut rng))
            .collect();
        // At least one attribute takes multiple values across draws.
        let varies = (0..ctx.n_attrs()).any(|a| draws.iter().any(|d| d[a] != draws[0][a]));
        assert!(varies, "perturbations are all identical");
    }

    #[test]
    fn labeling_invokes_classifier_once() {
        let ctx = ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let mut rng = StdRng::seed_from_u64(3);
        let s = labeled_perturbation(&ctx, &clf, &Itemset::new(vec![]), &mut rng);
        assert_eq!(clf.invocations(), 1);
        assert_eq!(s.proba, 0.5);
        assert_eq!(s.codes.len(), ctx.n_attrs());
    }

    #[test]
    fn base_value_of_constant_classifier() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1, 1, 1, 0]);
        let mut rng = StdRng::seed_from_u64(4);
        let base = estimate_base_value(&ctx, &clf, 20, &mut rng);
        assert!((base - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampled_codes_respect_training_support() {
        // Codes with zero training frequency must never be drawn.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let codes = perturb_codes(&ctx, &Itemset::new(vec![]), &mut rng);
            for (attr, &code) in codes.iter().enumerate() {
                assert!(
                    ctx.stats().count(attr, code) > 0,
                    "sampled unseen code {code} for attr {attr}"
                );
            }
        }
    }
}
