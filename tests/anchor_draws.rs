//! Every Anchor rule sampler labels a draw of `k` perturbations in one
//! flat classifier dispatch, and that dispatch is the same computation as
//! `k` calls to `labeled_perturbation`: the same rows reach the classifier
//! in the same order, the same positives come back, and the sampler's RNG
//! is left where the `k` single draws leave it.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::{CachingRuleSampler, PerturbationStore, SharedAnchorCaches};
use shahin_explain::{labeled_perturbation, ExplainContext, FreshRuleSampler, RuleSampler};
use shahin_fim::{Item, Itemset};
use shahin_model::{Classifier, ForestParams, RandomForest};
use shahin_tabular::{train_test_split, DatasetPreset, Feature};

/// Wraps a classifier and logs every row it labels, through either entry
/// point, and how many dispatches carried them.
struct Logged<C> {
    inner: C,
    log: Mutex<(Vec<Vec<Feature>>, usize)>,
}

impl<C> Logged<C> {
    /// The rows and dispatch count logged so far, resetting both.
    fn take(&self) -> (Vec<Vec<Feature>>, usize) {
        std::mem::take(&mut *self.log.lock().expect("log lock"))
    }
}

impl<C: Classifier> Classifier for Logged<C> {
    fn predict_proba(&self, instance: &[Feature]) -> f64 {
        let mut log = self.log.lock().expect("log lock");
        log.0.push(instance.to_vec());
        log.1 += 1;
        self.inner.predict_proba(instance)
    }

    fn predict_proba_flat(&self, rows: &[Feature], n_attrs: usize) -> Vec<f64> {
        let mut log = self.log.lock().expect("log lock");
        log.0
            .extend(rows.chunks_exact(n_attrs).map(<[Feature]>::to_vec));
        log.1 += 1;
        self.inner.predict_proba_flat(rows, n_attrs)
    }
}

/// A Census forest (numeric attributes, so undiscretizing draws from the
/// RNG too) and its explanation context.
fn world() -> (ExplainContext, Logged<RandomForest>) {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.05).generate(31);
    let mut rng = StdRng::seed_from_u64(32);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let params = ForestParams {
        n_trees: 8,
        ..Default::default()
    };
    let forest = RandomForest::fit(&split.train, &split.train_labels, &params, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let clf = Logged {
        inner: forest,
        log: Mutex::default(),
    };
    (ctx, clf)
}

/// Runs a fixed sequence of draws — rules of zero to two items, `k` of 0,
/// 1, a partial lane group, a full bandit batch — through `sampler`, and
/// each one again as `k` calls to `labeled_perturbation` on an RNG seeded
/// like the sampler's. Asserts the same counts, the same rows in the same
/// order (so each draw starts from the same RNG state), and one dispatch
/// per non-empty draw. Returns the positives seen.
fn assert_draws_are_single_draws(
    what: &str,
    ctx: &ExplainContext,
    clf: &Logged<RandomForest>,
    seed: u64,
    sampler: &mut dyn RuleSampler,
) -> u64 {
    let last = ctx.n_attrs() - 1;
    let draws = [
        (Itemset::new(vec![Item::new(0, 1)]), 16),
        (Itemset::new(vec![]), 13),
        (Itemset::new(vec![Item::new(2, 0), Item::new(last, 1)]), 1),
        (Itemset::new(vec![Item::new(0, 1)]), 0),
        (Itemset::new(vec![Item::new(last, 0)]), 23),
        (Itemset::new(vec![]), 8),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positives = 0;
    for (i, (rule, k)) in draws.iter().enumerate() {
        let got = sampler.draw(rule, *k);
        let (batched_rows, batched_calls) = clf.take();
        let positive = (0..*k)
            .filter(|_| labeled_perturbation(ctx, clf, rule, &mut rng).proba >= 0.5)
            .count() as u64;
        let (single_rows, _) = clf.take();
        assert_eq!(got, (*k as u64, positive), "{what}: draw {i} counts");
        assert_eq!(
            batched_calls,
            usize::from(*k > 0),
            "{what}: draw {i} dispatches"
        );
        assert!(batched_rows == single_rows, "{what}: draw {i} rows differ");
        positives += positive;
    }
    positives
}

#[test]
fn every_anchor_sampler_draw_is_k_single_labeled_perturbations() {
    let (ctx, clf) = world();
    let seed = 77;

    let mut fresh = FreshRuleSampler::new(&ctx, &clf, seed);
    let positives = assert_draws_are_single_draws("fresh", &ctx, &clf, seed, &mut fresh);
    // Not vacuous: the forest labels the draws both ways.
    assert!(
        positives > 0 && positives < 61,
        "{positives} of 61 positive"
    );

    let store = PerturbationStore::new(vec![], usize::MAX);
    let caches = SharedAnchorCaches::new();
    let mut caching = CachingRuleSampler::new(&ctx, &clf, &store, &[], &caches, seed);
    assert_draws_are_single_draws("caching", &ctx, &clf, seed, &mut caching);
    assert_eq!(caching.stats().fresh, 61);
    // Over an empty store (Greedy's path) a rule's prior is exactly the
    // evidence drawn for it so far: 13 + 8 rows of the empty rule.
    assert_eq!(caching.prior(&Itemset::new(vec![])).0, 21);
}
