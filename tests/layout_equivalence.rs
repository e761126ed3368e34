//! Equivalence tests for the cache-conscious layouts (DESIGN.md §5g): the
//! bitset containment engine must agree with the brute-force containment
//! filter, the CSR-flattened forest's multi-row kernel and threaded
//! dispatch with its single-row walk, and the end-to-end drivers must
//! produce identical explanations and invocation counts at 1/2/8 threads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::{run, BatchConfig, ExplainerKind, Explanation, Method};
use shahin_explain::{ExplainContext, KernelShapExplainer, LimeExplainer, LimeParams, ShapParams};
use shahin_fim::{BitsetDomain, Item, Itemset, MatchScratch};
use shahin_model::{Classifier, CountingClassifier, ForestParams, RandomForest};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset, Feature};

/// A random non-empty itemset over `n_attrs` attributes with codes below
/// `card`: between 1 and 3 items on distinct attributes.
fn itemset_strategy(n_attrs: usize, card: u32) -> impl Strategy<Value = Itemset> {
    proptest::collection::btree_map(0..n_attrs, 0..card, 1..=3)
        .prop_map(|m| Itemset::new(m.into_iter().map(|(a, c)| Item::new(a, c)).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bitset containment == brute force, on random families and rows. `n_attrs × card` ranges past 64 so the
    /// multi-word (`W > 1`) mask path is exercised, and rows draw codes
    /// beyond `card` so out-of-dictionary handling is covered.
    #[test]
    fn bitset_matches_brute_force(
        sets in proptest::collection::vec(itemset_strategy(12, 10), 1..24),
        rows in proptest::collection::vec(
            proptest::collection::vec(0u32..14, 12), 1..16),
    ) {
        let domain = BitsetDomain::new(&sets);
        let mut scratch = MatchScratch::new();
        for row in &rows {
            let via_bits = domain.contained_in_with(row, &mut scratch);
            let brute: Vec<u32> = sets
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contained_in(row))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(via_bits, brute, "row {:?}", row);
        }
    }

    /// A domain wider than one `u64` word: every tracked itemset is still
    /// found on a row made of exactly its items.
    #[test]
    fn wide_domains_overflow_words_correctly(
        sets in proptest::collection::vec(itemset_strategy(20, 12), 8..32),
    ) {
        let domain = BitsetDomain::new(&sets);
        if domain.n_bits() <= 64 {
            // Narrow draw; the single-word path is covered elsewhere.
            return Ok(());
        }
        prop_assert!(domain.words() >= 2);
        let mut scratch = MatchScratch::new();
        for (id, set) in sets.iter().enumerate() {
            // A row agreeing with `set` everywhere it constrains and
            // out-of-dictionary (no bits) elsewhere.
            let mut row = vec![u32::MAX; 20];
            for item in set.items() {
                row[item.attr as usize] = item.code;
            }
            let ids = domain.contained_in_with(&row, &mut scratch);
            prop_assert!(ids.contains(&(id as u32)), "itemset {id} lost");
            for &got in &ids {
                prop_assert!(sets[got as usize].contained_in(&row));
            }
        }
    }
}

fn forest_world() -> (Dataset, RandomForest, ExplainContext, Dataset) {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.05).generate(17);
    let mut rng = StdRng::seed_from_u64(17);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams {
            n_trees: 12,
            ..Default::default()
        },
        &mut rng,
    );
    let ctx = ExplainContext::fit(&split.train, 500, &mut rng);
    let rows: Vec<usize> = (0..30.min(split.test.n_rows())).collect();
    let batch = split.test.select(&rows);
    (split.train, forest, ctx, batch)
}

/// The threaded batch dispatch returns, at every worker count, exactly the
/// single-row walk's probabilities. 600 rows (the training rows, cycled),
/// so 2 and 8 workers split.
#[test]
fn flat_predictions_are_bit_identical_at_every_worker_count() {
    let (train, forest, _, _) = forest_world();
    let instances: Vec<Vec<Feature>> = (0..600)
        .map(|r| train.instance(r % train.n_rows()))
        .collect();
    let singles: Vec<f64> = instances.iter().map(|i| forest.predict_proba(i)).collect();
    for workers in [1usize, 2, 8] {
        assert_eq!(
            forest.predict_batch_with(&instances, workers),
            singles,
            "workers {workers}"
        );
    }
}

/// Two flat forests for the chunk kernel, each with rows to feed it: a
/// Census forest (numeric and categorical splits), and one fitted on
/// labels that are all 0 but one, so every bootstrap sample that misses
/// the positive row grows a single-leaf tree.
fn chunk_forests() -> &'static [(RandomForest, Dataset); 2] {
    static FORESTS: std::sync::OnceLock<[(RandomForest, Dataset); 2]> = std::sync::OnceLock::new();
    FORESTS.get_or_init(|| {
        let (train, forest, _, _) = forest_world();
        let (data, _) = DatasetPreset::CensusIncome.spec(0.01).generate(5);
        let mut labels = vec![0u8; data.n_rows()];
        labels[0] = 1;
        let params = ForestParams {
            n_trees: 16,
            ..Default::default()
        };
        let skewed = RandomForest::fit(&data, &labels, &params, &mut StdRng::seed_from_u64(6));
        let flat = skewed.flat();
        assert!(
            (0..flat.n_trees()).any(|t| flat.depth(t) == 0),
            "no single-leaf tree"
        );
        assert!((0..flat.n_trees()).any(|t| flat.depth(t) > 0));
        [(forest, train), (skewed, data)]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The branchless multi-row kernel behind `predict_proba_flat` equals
    /// the early-exit single-row walk bit for bit: every chunk size from 1
    /// to 40 (every remainder of the lane group), forests with single-leaf
    /// trees, NaN numeric features and categorical codes never seen in
    /// training.
    #[test]
    fn flat_dispatch_equals_per_row_predictions(
        which in 0usize..2,
        picks in proptest::collection::vec((0usize..100_000, 0u8..4, 0usize..64), 1..=40),
    ) {
        let (forest, data) = &chunk_forests()[which];
        let rows: Vec<Vec<Feature>> = picks
            .iter()
            .map(|&(row, kind, attr)| {
                let mut inst = data.instance(row % data.n_rows());
                let unseen = |f: &mut Feature| {
                    *f = match *f {
                        Feature::Num(_) => Feature::Num(f64::NAN),
                        Feature::Cat(c) => Feature::Cat(c + 1_000),
                    }
                };
                match kind {
                    1 => {
                        let m = inst.len();
                        unseen(&mut inst[attr % m]);
                    }
                    2 => inst.iter_mut().for_each(unseen),
                    _ => {}
                }
                inst
            })
            .collect();
        let n_attrs = rows[0].len();
        let buf: Vec<Feature> = rows.iter().flatten().copied().collect();
        let batched = forest.predict_proba_flat(&buf, n_attrs);
        prop_assert_eq!(batched.len(), rows.len());
        for (row, got) in rows.iter().zip(&batched) {
            prop_assert_eq!(got.to_bits(), forest.predict_proba(row).to_bits());
        }
    }
}

fn assert_same_explanations(a: &[Explanation], b: &[Explanation], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: tuple count");
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (Explanation::Weights(w1), Explanation::Weights(w2)) => {
                assert_eq!(w1, w2, "{what}: weights differ")
            }
            (Explanation::Rule(r1), Explanation::Rule(r2)) => {
                assert_eq!(r1, r2, "{what}: rules differ")
            }
            _ => panic!("{what}: mismatched explanation kinds"),
        }
    }
}

/// End to end: the LIME and SHAP drivers return bit-identical
/// explanations and invocation counts at 1, 2 and 8 threads, whichever
/// worker claims which block of rows.
#[test]
fn drivers_are_bit_identical_across_threads() {
    let (_, forest, ctx, batch) = forest_world();
    let clf = CountingClassifier::new(forest);
    let kinds = [
        ExplainerKind::Lime(LimeExplainer::new(LimeParams {
            n_samples: 120,
            ..Default::default()
        })),
        ExplainerKind::Shap(KernelShapExplainer::new(ShapParams {
            n_samples: 64,
            ..Default::default()
        })),
    ];
    for kind in &kinds {
        let runs = [1usize, 2, 8].map(|threads| {
            let config = BatchConfig {
                n_threads: Some(threads),
                ..Default::default()
            };
            let method = if threads == 1 {
                Method::Batch(config)
            } else {
                Method::BatchParallel(config)
            };
            clf.reset();
            let report = run(&method, kind, &ctx, &clf, &batch, 23);
            (threads, report.explanations, clf.invocations())
        });
        let (_, base, base_inv) = &runs[0];
        for (threads, explanations, inv) in &runs[1..] {
            let what = format!("{} x{threads}", kind.name());
            assert_eq!(inv, base_inv, "{what}: invocation counts differ");
            assert_same_explanations(explanations, base, &what);
        }
    }
}
