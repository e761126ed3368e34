//! Rule-conditioned sampling behind a pluggable interface.
//!
//! All of Anchor's classifier traffic flows through [`RuleSampler`]. The
//! default [`FreshRuleSampler`] generates every sample from scratch (the
//! sequential baseline); the `shahin` crate supplies a caching
//! implementation that bootstraps counts from materialized perturbations
//! and memoizes coverage — without touching the search or bandit logic.

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin_fim::Itemset;
use shahin_model::Classifier;
use shahin_tabular::{DiscreteTable, Feature};

use crate::context::ExplainContext;
use crate::perturb::draw_rule_labels;

/// Source of rule-conditioned, classifier-labeled samples plus the
/// invariant per-rule statistics (coverage).
pub trait RuleSampler {
    /// Draws up to `k` perturbations conditioned on `rule` (rule items
    /// frozen, everything else resampled from the training distribution),
    /// invokes the classifier on each, and returns
    /// `(drawn, positive)` where `positive` counts *positive-class*
    /// predictions. May draw fewer than `k` (e.g. a budget-capped cache);
    /// returning `(0, _)` means the source is exhausted for this rule.
    fn draw(&mut self, rule: &Itemset, k: usize) -> (u64, u64);

    /// Pre-existing counts for `rule` available without any classifier
    /// invocation (Shahin's bootstrap from materialized supersets/subsets,
    /// paper §3.2). The default has none.
    fn prior(&mut self, rule: &Itemset) -> (u64, u64) {
        let _ = rule;
        (0, 0)
    }

    /// Coverage of `rule`: the fraction of data tuples satisfying its
    /// predicate. Invariant across tuples — Shahin materializes it.
    fn coverage(&mut self, rule: &Itemset) -> f64;
}

/// Exact coverage of a rule over a discretized row sample. Rows are
/// matched 64 at a time, column by column: each rule item turns its
/// column's codes into a `u64` match mask, the masks are ANDed, and the
/// hits are popcounted.
pub fn rule_coverage(table: &DiscreteTable, rule: &Itemset) -> f64 {
    let n_rows = table.n_rows();
    if n_rows == 0 {
        return 0.0;
    }
    let mut hits = 0u64;
    for start in (0..n_rows).step_by(64) {
        let len = (n_rows - start).min(64);
        let mut mask = u64::MAX >> (64 - len);
        for it in rule.items() {
            let column = &table.column(it.attr as usize)[start..start + len];
            let mut matched = 0u64;
            for (bit, &code) in column.iter().enumerate() {
                matched |= u64::from(code == it.code) << bit;
            }
            mask &= matched;
        }
        hits += u64::from(mask.count_ones());
    }
    hits as f64 / n_rows as f64
}

/// The baseline sampler: every draw generates fresh perturbations and
/// invokes the classifier; coverage is recomputed on every call.
pub struct FreshRuleSampler<'a, C> {
    ctx: &'a ExplainContext,
    clf: &'a C,
    rng: StdRng,
    rows: Vec<Feature>,
}

impl<'a, C: Classifier> FreshRuleSampler<'a, C> {
    /// Creates a sampler with its own deterministic RNG stream.
    pub fn new(ctx: &'a ExplainContext, clf: &'a C, seed: u64) -> Self {
        FreshRuleSampler {
            ctx,
            clf,
            rng: StdRng::seed_from_u64(seed),
            rows: Vec::new(),
        }
    }
}

impl<C: Classifier> RuleSampler for FreshRuleSampler<'_, C> {
    fn draw(&mut self, rule: &Itemset, k: usize) -> (u64, u64) {
        draw_rule_labels(self.ctx, self.clf, rule, k, &mut self.rng, &mut self.rows)
    }

    fn coverage(&mut self, rule: &Itemset) -> f64 {
        rule_coverage(self.ctx.coverage_sample(), rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shahin_fim::Item;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::DatasetPreset;

    fn ctx() -> ExplainContext {
        let (data, _) = DatasetPreset::Recidivism.spec(0.02).generate(1);
        let mut rng = StdRng::seed_from_u64(0);
        ExplainContext::fit(&data, 500, &mut rng)
    }

    #[test]
    fn draw_invokes_classifier_k_times() {
        let ctx = ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1]));
        let mut s = FreshRuleSampler::new(&ctx, &clf, 7);
        let (n, pos) = s.draw(&Itemset::new(vec![Item::new(0, 1)]), 25);
        assert_eq!(n, 25);
        assert_eq!(pos, 25); // classifier always says positive
        assert_eq!(clf.invocations(), 25);
    }

    #[test]
    fn default_prior_is_empty() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut s = FreshRuleSampler::new(&ctx, &clf, 7);
        assert_eq!(s.prior(&Itemset::new(vec![])), (0, 0));
    }

    #[test]
    fn coverage_of_empty_rule_is_one() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut s = FreshRuleSampler::new(&ctx, &clf, 7);
        assert_eq!(s.coverage(&Itemset::new(vec![])), 1.0);
    }

    #[test]
    fn coverage_matches_brute_force() {
        let table = DiscreteTable::new(vec![vec![0, 0, 1, 1, 0], vec![2, 2, 2, 3, 3]]);
        let rule = Itemset::new(vec![Item::new(0, 0), Item::new(1, 2)]);
        assert_eq!(rule_coverage(&table, &rule), 2.0 / 5.0);
        let rule1 = Itemset::new(vec![Item::new(1, 2)]);
        assert_eq!(rule_coverage(&table, &rule1), 3.0 / 5.0);
    }

    #[test]
    fn coverage_of_empty_table_is_zero() {
        let table = DiscreteTable::new(vec![vec![]]);
        assert_eq!(rule_coverage(&table, &Itemset::new(vec![])), 0.0);
    }

    proptest::proptest! {
        /// The column-mask count equals the plain row-by-row count on
        /// tables of any height (every 64-row remainder) and rules of up
        /// to three items.
        #[test]
        fn coverage_matches_the_row_loop(
            (cols, items) in proptest::Strategy::prop_flat_map((1usize..5, 0usize..200), |(m, n)| (
                proptest::collection::vec(proptest::collection::vec(0u32..3, n), m),
                proptest::collection::btree_map(0..m, 0u32..3, 0..=3),
            )),
        ) {
            use proptest::prelude::prop_assert_eq;
            let table = DiscreteTable::new(cols);
            let rule = Itemset::new(items.into_iter().map(|(a, c)| Item::new(a, c)).collect());
            let hits = (0..table.n_rows())
                .filter(|&r| {
                    rule.items()
                        .iter()
                        .all(|it| table.code(r, it.attr as usize) == it.code)
                })
                .count();
            let expected = if table.n_rows() == 0 {
                0.0
            } else {
                hits as f64 / table.n_rows() as f64
            };
            prop_assert_eq!(rule_coverage(&table, &rule), expected);
        }
    }
}
