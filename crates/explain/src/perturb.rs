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
    fill_codes(ctx, frozen_pairs(frozen), rng, &mut codes);
    codes
}

/// [`perturb_codes`] into a caller-owned slice of `ctx.n_attrs()` codes,
/// with the frozen items given as `(attr, code)` pairs.
fn fill_codes(
    ctx: &ExplainContext,
    frozen: impl IntoIterator<Item = (usize, u32)>,
    rng: &mut impl Rng,
    codes: &mut [u32],
) {
    for (attr, code) in codes.iter_mut().enumerate() {
        *code = ctx.stats().sample_code(attr, rng);
    }
    for (attr, code) in frozen {
        codes[attr] = code;
    }
}

/// An itemset's items as the `(attr, code)` pairs [`push_perturbation`]
/// freezes.
fn frozen_pairs(frozen: &Itemset) -> impl Iterator<Item = (usize, u32)> + '_ {
    frozen.items().iter().map(|it| (it.attr as usize, it.code))
}

/// The one perturbation generator: samples a code for every attribute into
/// `codes` (`ctx.n_attrs()` long), overwrites the `frozen` `(attr, code)`
/// pairs, and appends the undiscretized row to the flat row-major buffer
/// `rows`. The RNG is consumed exactly as by one [`labeled_perturbation`]:
/// a code per attribute, then the undiscretize draws.
///
/// Every explainer packs its fresh rows with this and labels them in one
/// [`Classifier::predict_proba_flat`] dispatch.
pub(crate) fn push_perturbation(
    ctx: &ExplainContext,
    frozen: impl IntoIterator<Item = (usize, u32)>,
    rng: &mut impl Rng,
    codes: &mut [u32],
    rows: &mut Vec<Feature>,
) {
    fill_codes(ctx, frozen, rng, codes);
    ctx.discretizer().undiscretize_into(codes, rng, rows);
}

/// `count` fully random perturbations (LIME's, the base value's, the
/// fidelity check's): their codes, `count · n_attrs` long, row-major, and
/// their labels from one [`Classifier::predict_proba_flat`] dispatch.
pub(crate) fn label_random_rows(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    count: usize,
    rng: &mut impl Rng,
) -> (Vec<u32>, Vec<f64>) {
    let n_attrs = ctx.n_attrs();
    let mut codes = vec![0; count * n_attrs];
    let mut rows = Vec::with_capacity(count * n_attrs);
    for row in codes.chunks_exact_mut(n_attrs) {
        push_perturbation(ctx, [], rng, row, &mut rows);
    }
    let probas = if count == 0 {
        Vec::new()
    } else {
        clf.predict_proba_flat(&rows, n_attrs)
    };
    (codes, probas)
}

/// Generates and labels one perturbation with `frozen` items held fixed,
/// one classifier call per row. No explainer labels this way any more: it
/// is the per-row reference the batched generator is tested against.
pub fn labeled_perturbation(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    frozen: &Itemset,
    rng: &mut impl Rng,
) -> LabeledSample {
    let codes = perturb_codes(ctx, frozen, rng);
    let instance: Instance = ctx.discretizer().undiscretize_instance(&codes, rng);
    LabeledSample {
        proba: clf.predict_proba(&instance),
        codes: codes.into_boxed_slice(),
    }
}

/// Draws `k` perturbations with `frozen` held fixed, labels them through
/// one [`Classifier::predict_proba_flat`] dispatch, and returns
/// `(drawn, positive)`, where `positive` counts probabilities `>= 0.5`.
/// This is every Anchor rule sampler's draw.
///
/// The rows come from `push_perturbation`, so the RNG is consumed exactly
/// as by `k` calls to [`labeled_perturbation`]. They are packed into
/// `rows`, caller-owned scratch that is cleared first and reused from draw
/// to draw; no codes are kept. `k == 0` makes no classifier call.
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
        push_perturbation(ctx, frozen_pairs(frozen), rng, &mut codes, rows);
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
        let mut codes = vec![0; n_attrs];
        push_perturbation(ctx, frozen_pairs(frozen), rng, &mut codes, &mut rows);
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
/// averaging the classifier over `n` fully random perturbations, labelled
/// in one dispatch. Costs `n` classifier invocations — done once per batch,
/// which is how the reference implementation amortizes its background set
/// too.
pub fn estimate_base_value(
    ctx: &ExplainContext,
    clf: &impl Classifier,
    n: usize,
    rng: &mut impl Rng,
) -> f64 {
    assert!(n > 0, "need at least one sample");
    let (_, probas) = label_random_rows(ctx, clf, n, rng);
    let sum: f64 = probas
        .into_iter()
        .map(|p| {
            // A single NaN here would poison the base value for the whole
            // batch; sanitize per sample like the surrogate inputs.
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

    /// A classifier whose output depends on every feature, numeric draws
    /// included, so a reordered draw changes a label.
    struct Blend;
    impl Classifier for Blend {
        fn predict_proba(&self, instance: &[Feature]) -> f64 {
            let sum: f64 = instance
                .iter()
                .map(|f| match f {
                    Feature::Num(v) => *v,
                    Feature::Cat(c) => f64::from(*c) * 0.37,
                })
                .sum();
            sum.fract().abs()
        }
    }

    #[test]
    fn random_rows_replay_the_per_row_reference() {
        let ctx = ctx();
        let (mut a, mut b) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        let clf = CountingClassifier::new(Blend);
        let (codes, probas) = label_random_rows(&ctx, &clf, 25, &mut a);
        assert_eq!(clf.invocations(), 25);
        let empty = Itemset::new(vec![]);
        for (row, &proba) in codes.chunks_exact(ctx.n_attrs()).zip(&probas) {
            let s = labeled_perturbation(&ctx, &Blend, &empty, &mut b);
            assert_eq!((row, proba.to_bits()), (&s.codes[..], s.proba.to_bits()));
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG positions differ");
        assert_eq!(label_random_rows(&ctx, &clf, 0, &mut a), (vec![], vec![]));
        assert_eq!(clf.invocations(), 25, "an empty top-up makes no call");
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
