//! Criterion microbenchmarks for Shahin's hot kernels: mining,
//! perturbation generation, store retrieval, the surrogate solvers and
//! the forest.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin::PerturbationStore;
use shahin_explain::{perturb_codes, ExplainContext};
use shahin_fim::{apriori, AprioriParams, Itemset, MatchScratch};
use shahin_linalg::{
    constrained_wls, constrained_wls_binary, ridge, ridge_binary, BitDesign, Matrix,
};
use shahin_model::{Classifier, ForestParams, MajorityClass, RandomForest};
use shahin_tabular::{DatasetPreset, DiscreteTable};

fn synth_table(n_rows: usize, n_attrs: usize, seed: u64) -> DiscreteTable {
    let mut rng = StdRng::seed_from_u64(seed);
    DiscreteTable::new(
        (0..n_attrs)
            .map(|_| {
                (0..n_rows)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            0
                        } else {
                            rng.gen_range(0..8u32)
                        }
                    })
                    .collect()
            })
            .collect(),
    )
}

fn bench_apriori(c: &mut Criterion) {
    let table = synth_table(1000, 30, 0);
    let params = AprioriParams {
        min_support: 0.2,
        max_len: 3,
        max_itemsets: 200,
    };
    c.bench_function("fim/apriori_1000x30", |b| {
        b.iter(|| apriori(&table, &params))
    });
    // One streaming refresh window at `StreamingConfig`'s defaults: 100
    // discretized Census-Income rows (42 attributes).
    let (data, _) = DatasetPreset::CensusIncome.spec(0.05).generate(10);
    let mut rng = StdRng::seed_from_u64(11);
    let ctx = ExplainContext::fit(&data, 500, &mut rng);
    let rows: Vec<usize> = (0..100).collect();
    let window = ctx.discretizer().encode_dataset(&data.select(&rows));
    let params = AprioriParams {
        min_support: 0.15,
        max_len: 3,
        max_itemsets: 200,
    };
    c.bench_function("fim/apriori_100x42", |b| {
        b.iter(|| apriori(&window, &params))
    });
}

fn bench_perturbation(c: &mut Criterion) {
    let (data, _) = DatasetPreset::CensusIncome.spec(0.05).generate(2);
    let mut rng = StdRng::seed_from_u64(3);
    let ctx = ExplainContext::fit(&data, 500, &mut rng);
    let empty = Itemset::new(vec![]);
    c.bench_function("perturb/codes_42attrs", |b| {
        b.iter(|| perturb_codes(&ctx, &empty, &mut rng))
    });
    let codes = perturb_codes(&ctx, &empty, &mut rng);
    c.bench_function("perturb/undiscretize_instance", |b| {
        b.iter(|| ctx.discretizer().undiscretize_instance(&codes, &mut rng))
    });
}

fn bench_store(c: &mut Criterion) {
    let (data, _) = DatasetPreset::CensusIncome.spec(0.05).generate(4);
    let mut rng = StdRng::seed_from_u64(5);
    let ctx = ExplainContext::fit(&data, 500, &mut rng);
    let table = ctx.discretizer().encode_dataset(&data);
    let mined = apriori(
        &table,
        &AprioriParams {
            min_support: 0.15,
            max_len: 3,
            max_itemsets: 200,
        },
    );
    let sets: Vec<Itemset> = mined.frequent.into_iter().map(|(s, _)| s).collect();
    let clf = MajorityClass::fit(&[1, 0]);
    let mut store = PerturbationStore::new(sets, usize::MAX);
    store.materialize(&ctx, &clf, 20, &mut rng);
    let row = table.row(0);
    let mut scratch = MatchScratch::new();
    c.bench_function("store/matching", |b| {
        b.iter(|| store.matching(&row, &mut scratch))
    });
}

/// A random 0/1 design with the given share of ones, bit-packed.
fn binary_design(n: usize, m: usize, ones_share: f64, rng: &mut StdRng) -> BitDesign {
    let mut z = BitDesign::with_capacity(n, m);
    for _ in 0..n {
        z.push_row(|_| rng.gen_bool(ones_share));
    }
    z
}

fn bench_solvers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let (n, m) = (300, 42);
    let x = Matrix::from_rows(
        n,
        m,
        (0..n * m).map(|_| f64::from(rng.gen_bool(0.5))).collect(),
    );
    let y: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
    let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
    c.bench_function("solve/ridge_300x42", |b| b.iter(|| ridge(&x, &y, &w, 1.0)));
    c.bench_function("solve/constrained_wls_300x42", |b| {
        b.iter(|| constrained_wls(&x, &y, &w, 0.4, 0.9))
    });
    // The bit-packed fits the explainers call. Their Gram pass scales with
    // the pairs of set bits per row, so the sparsity dependence goes on
    // record: 0.25 is LIME on Census-Income, 0.9 the dense end that the
    // column complementing caps.
    for (share, tag) in [(0.25, "25"), (0.5, "50"), (0.9, "90")] {
        let z = binary_design(n, m, share, &mut rng);
        c.bench_function(&format!("solve/ridge_binary_300x42/ones_{tag}"), |b| {
            b.iter(|| ridge_binary(&z, &y, &w, 1.0))
        });
    }
    let z = binary_design(128, m, 0.5, &mut rng);
    c.bench_function("solve/wls_binary_128x42", |b| {
        b.iter(|| constrained_wls_binary(&z, &y[..128], &w[..128], 0.4, 0.9))
    });
}

fn bench_forest(c: &mut Criterion) {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.05).generate(7);
    let mut rng = StdRng::seed_from_u64(8);
    let forest = RandomForest::fit(&data, &labels, &ForestParams::default(), &mut rng);
    let inst = data.instance(0);
    c.bench_function("model/rf_predict", |b| {
        b.iter(|| forest.predict_proba(&inst))
    });
    // One Anchor-draw-sized flat dispatch: 16 rows in one row-major buffer.
    let chunk: Vec<_> = (0..16).flat_map(|r| data.instance(r)).collect();
    c.bench_function("model/rf_predict_chunk16", |b| {
        b.iter(|| forest.predict_proba_flat(&chunk, data.n_attrs()))
    });
    let rows: Vec<Vec<_>> = (0..100.min(data.n_rows()))
        .map(|r| data.instance(r))
        .collect();
    c.bench_function("model/rf_batch100", |b| {
        b.iter(|| forest.predict_batch_with(&rows, 1))
    });
    c.bench_function("model/rf_train_25trees", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(9),
            |mut r| RandomForest::fit(&data, &labels, &ForestParams::default(), &mut r),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_apriori, bench_perturbation, bench_store,
              bench_solvers, bench_forest
}
criterion_main!(benches);
