//! Streaming triage: explanation requests arrive one at a time (a loan
//! officer reviewing flagged applications) and must be answered
//! immediately — the paper's streaming scenario (§3.5).
//!
//! Shahin warms up with no savings, then periodically mines frequent
//! itemsets over the recent stream and keeps a budgeted repository of
//! reusable, pre-labeled perturbations.
//!
//! ```sh
//! cargo run --release --example streaming_triage
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::baseline::sequential_shap;
use shahin::{ShahinStreaming, StreamingConfig};
use shahin_explain::{ExplainContext, KernelShapExplainer, ShapParams};
use shahin_model::{CountingClassifier, ForestParams, RandomForest};
use shahin_tabular::{train_test_split, DatasetPreset};

fn main() {
    let seed = 11;
    let mut rng = StdRng::seed_from_u64(seed);

    // A lending-club-shaped dataset: loan default prediction.
    let (data, labels) = DatasetPreset::LendingClub.spec(0.2).generate(seed);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams::default(),
        &mut rng,
    );
    let clf = CountingClassifier::new(forest);
    let ctx = ExplainContext::fit(&split.train, 1000, &mut rng);

    let stream = split
        .test
        .select(&(0..600.min(split.test.n_rows())).collect::<Vec<_>>());
    let shap = KernelShapExplainer::new(ShapParams {
        n_samples: 128,
        ..Default::default()
    });

    // Baseline: every request handled from scratch.
    let seq = sequential_shap(&ctx, &clf, &stream, &shap, 64, seed);

    // Streaming Shahin with a 4 MB repository, refreshed every 100 tuples.
    let streaming = ShahinStreaming::new(StreamingConfig {
        memory_budget_bytes: 4 << 20,
        refresh_every: 100,
        ..Default::default()
    });
    let opt = streaming.explain_shap(&ctx, &clf, &stream, &shap, seed);

    println!(
        "stream of {} requests (SHAP, lending-club shape)\n",
        stream.n_rows()
    );
    println!("method              invocations   inv/request");
    for (name, r) in [("from-scratch", &seq), ("shahin-streaming", &opt)] {
        println!(
            "{name:<18} {:>12}   {:>8.1}",
            r.metrics.invocations,
            r.metrics.invocations_per_tuple()
        );
    }
    println!(
        "\ninvocation speedup: {:.1}x  (repository peak {} KB, {} itemsets tracked)",
        seq.metrics.invocations as f64 / opt.metrics.invocations as f64,
        opt.metrics.store_bytes / 1024,
        opt.metrics.n_frequent
    );

    // The explanation for the most recent request.
    let e = opt.explanations.last().expect("non-empty stream");
    println!("\nlatest request — top-5 feature attributions:");
    for &attr in &e.top_k(5) {
        println!(
            "  {:<10} phi {:+.4}",
            stream.schema().attr(attr).name,
            e.weights[attr]
        );
    }
}
