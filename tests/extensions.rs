//! Integration tests for the extensions beyond the paper's core scope:
//! model-agnosticism (GBM black box), adaptive LIME, parallel drivers,
//! summarization, and CSV round-trips feeding the pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::metrics::speedup_invocations;
use shahin::{
    run, summarize_attributions, top_k_overlap, BatchConfig, ExplainerKind, Method, ShahinBatch,
};
use shahin_explain::{
    local_fidelity, ExplainContext, FeatureWeights, KernelShapExplainer, LimeExplainer, LimeParams,
    ShapParams,
};
use shahin_model::{CountingClassifier, GbmParams, GradientBoosting};
use shahin_tabular::{read_csv, train_test_split, Dataset, DatasetPreset};

fn gbm_world(
    seed: u64,
) -> (
    ExplainContext,
    CountingClassifier<GradientBoosting>,
    Dataset,
) {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.04).generate(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let gbm = GradientBoosting::fit(
        &split.train,
        &split.train_labels,
        &GbmParams {
            n_rounds: 15,
            ..Default::default()
        },
        &mut rng,
    );
    let ctx = ExplainContext::fit(&split.train, 400, &mut rng);
    let clf = CountingClassifier::new(gbm);
    let rows: Vec<usize> = (0..50.min(split.test.n_rows())).collect();
    (ctx, clf, split.test.select(&rows))
}

#[test]
fn shahin_is_model_agnostic_gbm_black_box() {
    // Same speedup story with a completely different model family — the
    // point of §4.1's "this does not materially affect the conclusions".
    let (ctx, clf, batch) = gbm_world(1);
    let kind = ExplainerKind::Lime(LimeExplainer::new(LimeParams {
        n_samples: 150,
        ..Default::default()
    }));
    let seq = run(&Method::Sequential, &kind, &ctx, &clf, &batch, 3);
    let opt = run(
        &Method::Batch(Default::default()),
        &kind,
        &ctx,
        &clf,
        &batch,
        3,
    );
    let s = speedup_invocations(&seq.metrics, &opt.metrics);
    assert!(s > 1.5, "GBM black box broke the speedup: {s:.2}");
}

#[test]
fn adaptive_lime_saves_against_full_lime_with_similar_answer() {
    let (ctx, clf, batch) = gbm_world(3);
    let lime = LimeExplainer::new(LimeParams {
        n_samples: 800,
        ..Default::default()
    });
    let inst = batch.instance(0);
    let mut rng = StdRng::seed_from_u64(5);
    let full = lime.explain(&ctx, &clf, &inst, &mut rng);
    clf.reset();
    let (approx, n_used) = lime.explain_adaptive(&ctx, &clf, &inst, 100, 0.02, &mut rng);
    assert!(n_used < 800, "no adaptive saving: {n_used}");
    assert_eq!(clf.invocations(), n_used as u64);
    // The top-3 attribute sets should mostly agree.
    let overlap = top_k_overlap(
        std::slice::from_ref(&full),
        std::slice::from_ref(&approx),
        3,
    );
    assert!(overlap >= 1.0 / 3.0, "approximation too loose: {overlap}");
}

#[test]
fn reuse_does_not_degrade_local_fidelity() {
    let (ctx, clf, batch) = gbm_world(4);
    let kind = ExplainerKind::Lime(LimeExplainer::new(LimeParams {
        n_samples: 300,
        ..Default::default()
    }));
    let seq = run(&Method::Sequential, &kind, &ctx, &clf, &batch, 9);
    let opt = run(
        &Method::Batch(Default::default()),
        &kind,
        &ctx,
        &clf,
        &batch,
        9,
    );
    let mut rng = StdRng::seed_from_u64(11);
    let mut seq_r2 = 0.0;
    let mut opt_r2 = 0.0;
    let n_probe = 10;
    for row in 0..n_probe {
        let inst = batch.instance(row);
        seq_r2 += local_fidelity(
            &ctx,
            &clf,
            &inst,
            seq.explanations[row].weights().expect("weights"),
            300,
            &mut rng,
        );
        opt_r2 += local_fidelity(
            &ctx,
            &clf,
            &inst,
            opt.explanations[row].weights().expect("weights"),
            300,
            &mut rng,
        );
    }
    seq_r2 /= n_probe as f64;
    opt_r2 /= n_probe as f64;
    assert!(
        opt_r2 > seq_r2 - 0.15,
        "reuse hurt local fidelity: shahin {opt_r2:.3} vs sequential {seq_r2:.3}"
    );
}

#[test]
fn parallel_batch_equals_serial_reference() {
    let (ctx, clf, batch) = gbm_world(5);
    let shap = ExplainerKind::Shap(KernelShapExplainer::new(ShapParams {
        n_samples: 64,
        ..Default::default()
    }));
    let with_threads = |n: usize| -> Vec<FeatureWeights> {
        let method = Method::BatchParallel(BatchConfig {
            n_threads: Some(n),
            ..Default::default()
        });
        run(&method, &shap, &ctx, &clf, &batch, 13)
            .explanations
            .iter()
            .map(|e| e.weights().expect("weights").clone())
            .collect()
    };
    assert_eq!(with_threads(1), with_threads(4));
}

#[test]
fn csv_roundtrip_feeds_the_full_pipeline() {
    // Generate → CSV → parse → train → explain: the adoption path.
    let (data, labels) = DatasetPreset::Recidivism.spec(0.03).generate(6);
    let mut buf = Vec::new();
    let dicts = vec![Vec::new(); data.n_attrs()];
    shahin_tabular::write_csv(&mut buf, &data, &dicts, Some(("label", &labels)))
        .expect("serialize");
    let csv = read_csv(buf.as_slice(), Some("label")).expect("parse");
    assert_eq!(csv.data.n_rows(), data.n_rows());
    let labels2 = csv.labels.expect("labels survive");
    let mut rng = StdRng::seed_from_u64(7);
    let split = train_test_split(&csv.data, &labels2, 1.0 / 3.0, &mut rng);
    let gbm = GradientBoosting::fit(
        &split.train,
        &split.train_labels,
        &GbmParams {
            n_rounds: 8,
            ..Default::default()
        },
        &mut rng,
    );
    let ctx = ExplainContext::fit(&split.train, 200, &mut rng);
    let clf = CountingClassifier::new(gbm);
    let batch = split.test.select(&(0..20).collect::<Vec<_>>());
    let lime = LimeExplainer::new(LimeParams {
        n_samples: 80,
        ..Default::default()
    });
    let res = ShahinBatch::default().explain_lime(&ctx, &clf, &batch, &lime, 9);
    assert_eq!(res.explanations.len(), 20);
    let summary = summarize_attributions(&res.explanations);
    assert_eq!(summary.n, 20);
    assert_eq!(summary.mean_abs_weight.len(), batch.n_attrs());
}
