//! Quickstart: explain a batch of predictions with Shahin and compare
//! against the one-at-a-time baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::{run, BatchConfig, ExplainerKind, Method, ShahinBatch};
use shahin_explain::{ExplainContext, LimeExplainer, LimeParams};
use shahin_model::{CountingClassifier, ForestParams, RandomForest};
use shahin_tabular::{train_test_split, DatasetPreset};

fn main() {
    let seed = 42;
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. Data: a synthetic stand-in for Census-Income with the same shape
    //    (27 categorical + 15 numeric attributes, skewed values).
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.25).generate(seed);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    println!(
        "dataset: {} train rows, {} explainable rows, schema {}",
        split.train.n_rows(),
        split.test.n_rows(),
        split.train.schema()
    );

    // 2. Black box: a Random Forest, instrumented so we can count how many
    //    times each method invokes it.
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams::default(),
        &mut rng,
    );
    let clf = CountingClassifier::new(forest);

    // 3. Explanation context: discretizer + training statistics, fitted
    //    once and shared by everything.
    let ctx = ExplainContext::fit(&split.train, 1000, &mut rng);

    // 4. Explain a batch of 500 predictions with LIME, both ways.
    let batch = split.test.select(&(0..500).collect::<Vec<_>>());
    let lime = LimeExplainer::new(LimeParams {
        n_samples: 300,
        ..Default::default()
    });

    let kind = ExplainerKind::Lime(lime.clone());
    let seq = run(&Method::Sequential, &kind, &ctx, &clf, &batch, seed);
    let shahin = ShahinBatch::new(BatchConfig::default());
    let opt = shahin.explain_lime(&ctx, &clf, &batch, &lime, seed);

    println!("\nmethod           invocations   wall      per-tuple");
    for (name, m) in [("sequential", &seq.metrics), ("shahin-batch", &opt.metrics)] {
        println!(
            "{name:<16} {:>11}   {:>7.2}s  {:.4}s",
            m.invocations,
            m.wall.as_secs_f64(),
            m.per_tuple_secs()
        );
    }
    println!(
        "\ninvocation speedup: {:.1}x  ({} frequent itemsets materialized)",
        seq.metrics.invocations as f64 / opt.metrics.invocations as f64,
        opt.metrics.n_frequent
    );

    // 5. Inspect one explanation: the top-5 attributes for tuple 0.
    let e = &opt.explanations[0];
    println!("\ntop-5 attributes for tuple 0 (positive-class weights):");
    for &attr in &e.top_k(5) {
        println!(
            "  {:<10} weight {:+.4}",
            batch.schema().attr(attr).name,
            e.weights[attr]
        );
    }
}
