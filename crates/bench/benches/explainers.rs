//! Criterion benchmarks of single-prediction explanation cost, with and
//! without reuse. The classifier here is cost-free, so these measure the
//! explainers' own overhead (sampling, kernels, solvers) — the part of
//! Shahin's runtime that is *not* classifier invocations.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::shap_source::pool_coalitions;
use shahin::{BatchConfig, PerturbationStore, StoreCoalitionSource};
use shahin_explain::{
    labeled_perturbations_batch, AnchorExplainer, ExplainContext, KernelShapExplainer,
    LabeledSample, LimeExplainer, LimeParams, ShapParams,
};
use shahin_fim::{apriori, AprioriParams, Itemset, MatchScratch};
use shahin_model::{ForestParams, RandomForest};
use shahin_tabular::{train_test_split, DatasetPreset, Instance};

struct Setup {
    ctx: ExplainContext,
    clf: RandomForest,
    instance: Instance,
    reusable: Vec<LabeledSample>,
    /// The frequent itemsets of the training split, materialized at the
    /// default `tau` as Shahin-Batch would.
    store: PerturbationStore,
}

fn setup() -> Setup {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.05).generate(1);
    let mut rng = StdRng::seed_from_u64(2);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let clf = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams::default(),
        &mut rng,
    );
    let ctx = ExplainContext::fit(&split.train, 500, &mut rng);
    let instance = split.test.instance(0);
    let reusable = labeled_perturbations_batch(&ctx, &clf, &Itemset::new(vec![]), 300, &mut rng);
    let config = BatchConfig::default();
    let mined = apriori(
        &ctx.discretizer().encode_dataset(&split.train),
        &AprioriParams {
            min_support: config.min_support,
            max_len: config.max_itemset_len,
            max_itemsets: config.max_itemsets,
        },
    );
    let itemsets = mined.frequent.into_iter().map(|(set, _)| set).collect();
    let mut store = PerturbationStore::new(itemsets, usize::MAX);
    store.materialize_parallel(&ctx, &clf, config.tau, 7, 1);
    Setup {
        ctx,
        clf,
        instance,
        reusable,
        store,
    }
}

fn bench_lime(c: &mut Criterion) {
    let s = setup();
    let lime = LimeExplainer::new(LimeParams {
        n_samples: 300,
        ..Default::default()
    });
    c.bench_function("explain/lime_fresh_300", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| lime.explain(&s.ctx, &s.clf, &s.instance, &mut rng))
    });
    c.bench_function("explain/lime_full_reuse_300", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            lime.explain_with_reused(&s.ctx, &s.clf, &s.instance, s.reusable.iter(), &mut rng)
        })
    });
}

fn bench_shap(c: &mut Criterion) {
    let s = setup();
    let shap = KernelShapExplainer::new(ShapParams {
        n_samples: 128,
        ..Default::default()
    });
    c.bench_function("explain/shap_fresh_128", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| shap.explain(&s.ctx, &s.clf, &s.instance, 0.5, &mut rng))
    });
    // Shahin's per-tuple SHAP: half the budget pooled from the matched
    // itemsets, the rest fetched from the store where a sampled coalition
    // allows it (Algorithm 3 lines 7–13), the misses labelled fresh.
    let codes = s.ctx.discretizer().encode_instance(&s.instance);
    let matched = s.store.matching_read(&codes, &mut MatchScratch::new());
    c.bench_function("explain/shap_store_source_128", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let pooled = pool_coalitions(&s.store, &matched, shap.params.n_samples / 2);
            let mut source = StoreCoalitionSource::new(&s.store, matched.clone());
            shap.explain_with(
                &s.ctx,
                &s.clf,
                &s.instance,
                0.5,
                pooled,
                &mut source,
                &mut rng,
            )
        })
    });
}

fn bench_anchor(c: &mut Criterion) {
    let s = setup();
    let anchor = AnchorExplainer::default();
    c.bench_function("explain/anchor_fresh", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| anchor.explain(&s.ctx, &s.clf, &s.instance, &mut rng))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_lime, bench_shap, bench_anchor
}
criterion_main!(benches);
