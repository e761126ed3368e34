//! The bit-packed interpretable space, end to end: LIME and KernelSHAP fit
//! their surrogates from row masks, which must change no explanation beyond
//! rounding, no RNG draw and no classifier call — and a seeded streaming
//! run, whose warm-up cache used to be walked in hash order, now repeats.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin::{run, ExplainerKind, Method, StreamingConfig};
use shahin_explain::{
    labeled_perturbation, CoalitionSample, ExplainContext, KernelShapExplainer, LabeledSample,
    LimeExplainer, LimeParams, NoSource, ReuseStats, ShapParams,
};
use shahin_fim::{Item, Itemset};
use shahin_linalg::{default_kernel_width, exponential_kernel, ridge, Matrix};
use shahin_model::{Classifier, CountingClassifier, ForestParams, RandomForest};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset};

fn census_world(seed: u64) -> (ExplainContext, CountingClassifier<RandomForest>, Dataset) {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.04).generate(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let params = ForestParams {
        n_trees: 10,
        ..Default::default()
    };
    let forest = RandomForest::fit(&split.train, &split.train_labels, &params, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 400, &mut rng);
    (ctx, CountingClassifier::new(forest), split.test)
}

#[test]
fn pooled_lime_matches_a_dense_ridge_on_the_same_samples() {
    let (ctx, clf, test) = census_world(11);
    let m = ctx.n_attrs();
    let instance = test.instance(3);
    let inst_codes = ctx.discretizer().encode_instance(&instance);
    // A pool as the store holds it: perturbations frozen on an itemset the
    // tuple contains.
    let frozen = Itemset::new(vec![
        Item::new(0, inst_codes[0]),
        Item::new(5, inst_codes[5]),
    ]);
    let mut pool_rng = StdRng::seed_from_u64(1);
    let pool: Vec<LabeledSample> = (0..200)
        .map(|_| labeled_perturbation(&ctx, &clf, &frozen, &mut pool_rng))
        .collect();

    let lime = LimeExplainer::new(LimeParams {
        n_samples: 300,
        ..Default::default()
    });
    clf.reset();
    let mut rng = StdRng::seed_from_u64(2);
    let (got, stats) = lime.explain_with_reused_counted(&ctx, &clf, &instance, &pool, &mut rng);

    // Same budget split, classifier calls and RNG draws as the dense path:
    // the probe, then one call per fresh row, each drawn in order.
    let expected = ReuseStats {
        reused: 200,
        fresh: 99,
        invocations: 100,
        clamped: 0,
    };
    assert_eq!(stats, expected);
    assert_eq!(clf.invocations(), 100);

    // The dense reference: the same rows as a 0/1 f64 matrix through the
    // generic `ridge`.
    let mut ref_rng = StdRng::seed_from_u64(2);
    let empty = Itemset::new(vec![]);
    let fresh: Vec<LabeledSample> = (0..99)
        .map(|_| labeled_perturbation(&ctx, &clf, &empty, &mut ref_rng))
        .collect();
    assert_eq!(
        rng.gen::<u64>(),
        ref_rng.gen::<u64>(),
        "the explainer drew a different number of RNG values"
    );
    let width = default_kernel_width(m);
    let mut cells = vec![1.0; m];
    let mut y = vec![clf.predict_proba(&instance)];
    let mut w = vec![1.0];
    for s in pool.iter().chain(&fresh) {
        let row: Vec<f64> = (0..m)
            .map(|j| f64::from(s.codes[j] == inst_codes[j]))
            .collect();
        let zeros = row.iter().filter(|&&v| v == 0.0).count();
        w.push(exponential_kernel((zeros as f64).sqrt(), width));
        y.push(s.proba);
        cells.extend(row);
    }
    let want = ridge(&Matrix::from_rows(300, m, cells), &y, &w, 1.0);
    for (j, (a, b)) in got.weights.iter().zip(&want.coefficients).enumerate() {
        assert!((a - b).abs() < 1e-9, "weight {j}: {a} vs {b}");
    }
    assert!((got.intercept - want.intercept).abs() < 1e-9);
    assert!((got.local_prediction - want.predict(&vec![1.0; m])).abs() < 1e-9);
    assert!(got.weights.iter().any(|v| v.abs() > 1e-4), "degenerate fit");
}

#[test]
fn pooled_shap_keeps_efficiency_and_its_invocation_count() {
    let (ctx, clf, test) = census_world(12);
    let m = ctx.n_attrs();
    let instance = test.instance(7);
    let shap = KernelShapExplainer::new(ShapParams {
        n_samples: 256,
        ..Default::default()
    });
    let mut pool_rng = StdRng::seed_from_u64(3);
    let pooled: Vec<CoalitionSample> = (0..100)
        .map(|i| {
            let mut coalition = vec![(i % m) as u16, ((i * 7 + 3) % m) as u16];
            coalition.sort_unstable();
            coalition.dedup();
            CoalitionSample {
                coalition,
                proba: pool_rng.gen(),
            }
        })
        .collect();
    clf.reset();
    let base = 0.3;
    let mut rng = StdRng::seed_from_u64(4);
    let (e, stats) =
        shap.explain_with_counted(&ctx, &clf, &instance, base, pooled, &mut NoSource, &mut rng);
    let expected = ReuseStats {
        reused: 100,
        fresh: 156,
        invocations: 157,
        clamped: 0,
    };
    assert_eq!(stats, expected);
    assert_eq!(clf.invocations(), 157);
    let total: f64 = e.weights.iter().sum();
    assert!(
        (total - (e.local_prediction - base)).abs() < 1e-6,
        "efficiency violated: {total} vs {}",
        e.local_prediction - base
    );
    assert!(e.weights.iter().all(|v| v.is_finite()));
}

#[test]
fn seeded_streaming_runs_repeat() {
    let (ctx, clf, test) = census_world(13);
    let batch = test.select(&(0..90).collect::<Vec<_>>());
    // Three refresh windows, and a warm-up cache small enough to evict, so
    // the cache's carry-over, truncated lookups and LRU ties all happen.
    let method = Method::Streaming(StreamingConfig {
        refresh_every: 30,
        memory_budget_bytes: 48 << 10,
        ..Default::default()
    });
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
        let a = run(&method, kind, &ctx, &clf, &batch, 21);
        let b = run(&method, kind, &ctx, &clf, &batch, 21);
        assert_eq!(
            a.metrics.invocations,
            b.metrics.invocations,
            "{}: invocation count differs between identical runs",
            kind.name()
        );
        let weights = |r: &shahin::RunReport| -> Vec<_> {
            r.explanations
                .iter()
                .map(|e| e.weights().cloned())
                .collect()
        };
        assert_eq!(
            weights(&a),
            weights(&b),
            "{}: explanations differ between identical runs",
            kind.name()
        );
    }
}
