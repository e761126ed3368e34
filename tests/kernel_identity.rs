//! Every Shahin driver explains a tuple through one per-tuple kernel, so
//! the drivers may differ only in how they schedule rows and fetch the
//! store — never in what a tuple's explanation, invocation bill or
//! lineage is. On a small Census batch this pins:
//!
//! * LIME and SHAP: `Method::Batch`, `Method::BatchParallel` at 1/2/4
//!   threads and `WarmEngine::explain` over the same rows give equal
//!   explanations, invocation totals and provenance records;
//! * Anchor: `Batch` equals `BatchParallel` at one thread (more threads
//!   race on the shared caches);
//! * two seeded `Streaming` runs are equal;
//! * a `Streaming` run whose byte budget binds — so LRU eviction and
//!   budgeted carry-over both run — keeps its LIME and SHAP explanations
//!   and invocation totals;
//! * every (driver × explainer) invocation total, as an exact integer;
//! * LIME's and SHAP's explanations under `Batch` and `Streaming`, bit for
//!   bit, as fingerprints;
//! * per tuple, LIME and SHAP make one instance probe plus at most one flat
//!   dispatch for all their fresh rows, and none when every row is reused.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::{
    run_with_obs, BatchConfig, ExplainerKind, Explanation, Method, MetricsRegistry,
    PerturbationStore, ProvenanceRecord, ProvenanceSink, RunReport, StoreCoalitionSource,
    StreamingConfig, WarmEngine, WarmOutcome, WarmRequest,
};
use shahin_explain::{
    labeled_perturbations_batch, AnchorExplainer, AnchorParams, CoalitionSample, ExplainContext,
    KernelShapExplainer, LimeExplainer, LimeParams, NoSource, ReuseStats, ShapParams,
};
use shahin_fim::{Item, Itemset};
use shahin_model::{Classifier, CountingClassifier, ForestParams, RandomForest};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset, Feature};

const SEED: u64 = 17;
const ROWS: usize = 40;

struct World {
    ctx: ExplainContext,
    forest: RandomForest,
    batch: Dataset,
}

fn world() -> World {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.03).generate(SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let params = ForestParams {
        n_trees: 5,
        ..Default::default()
    };
    let forest = RandomForest::fit(&split.train, &split.train_labels, &params, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let rows: Vec<usize> = (0..ROWS.min(split.test.n_rows())).collect();
    World {
        ctx,
        forest,
        batch: split.test.select(&rows),
    }
}

fn lime() -> ExplainerKind {
    ExplainerKind::Lime(LimeExplainer::new(LimeParams {
        n_samples: 100,
        ..Default::default()
    }))
}

fn shap() -> ExplainerKind {
    ExplainerKind::Shap(KernelShapExplainer::new(ShapParams {
        n_samples: 64,
        ..Default::default()
    }))
}

fn anchor() -> ExplainerKind {
    ExplainerKind::Anchor(AnchorExplainer::new(AnchorParams {
        beam_width: 2,
        max_rule_len: 2,
        ..Default::default()
    }))
}

fn config(n_threads: usize) -> BatchConfig {
    BatchConfig {
        n_threads: Some(n_threads),
        tau: 40,
        ..Default::default()
    }
}

/// Everything a provenance record says about a tuple except who wrote
/// it and when (method label, thread, wall time, serve request id).
type Lineage = (u32, u64, Vec<u32>, [u64; 8], bool);

fn lineage(records: Vec<ProvenanceRecord>) -> Vec<Lineage> {
    records
        .into_iter()
        .map(|r| {
            (
                r.tuple,
                r.epoch,
                r.matched_itemsets,
                [
                    r.store_misses,
                    r.samples_available,
                    r.samples_reused,
                    r.samples_fresh,
                    r.tau,
                    r.invocations,
                    r.cache_hits,
                    r.cache_misses,
                ],
                r.degraded,
            )
        })
        .collect()
}

/// One driver run: its report and its provenance lineage.
fn driver(w: &World, method: &Method, kind: &ExplainerKind) -> (RunReport, Vec<Lineage>) {
    let reg = MetricsRegistry::new();
    let sink = Arc::new(ProvenanceSink::new());
    reg.attach_provenance_sink(Arc::clone(&sink));
    let clf = CountingClassifier::new(w.forest.clone());
    let report = run_with_obs(method, kind, &w.ctx, &clf, &w.batch, SEED, &reg);
    assert!(
        report.report.is_clean(),
        "{}: {}",
        method.name(),
        report.report.summary()
    );
    (report, lineage(sink.records()))
}

/// The warm engine primed over the batch and asked for every row: its
/// explanations, total invocations (prime + explain) and lineage.
fn warm(
    w: &World,
    kind: &ExplainerKind,
    n_threads: usize,
) -> (Vec<Explanation>, u64, Vec<Lineage>) {
    let reg = MetricsRegistry::new();
    let sink = Arc::new(ProvenanceSink::new());
    reg.attach_provenance_sink(Arc::clone(&sink));
    let engine = WarmEngine::prime(
        config(n_threads),
        kind.clone(),
        w.ctx.clone(),
        CountingClassifier::new(w.forest.clone()),
        w.batch.clone(),
        SEED,
        &reg,
    );
    let requests: Vec<WarmRequest> = (0..w.batch.n_rows())
        .map(|row| WarmRequest {
            row,
            request_id: row as u64,
            trace: None,
        })
        .collect();
    let explanations = engine
        .explain(&requests)
        .into_iter()
        .map(|out| match out {
            WarmOutcome::Ok { explanation, .. } => explanation,
            WarmOutcome::Failed(f) => panic!("warm row {} failed: {}", f.row, f.message),
        })
        .collect();
    (explanations, engine.invocations(), lineage(sink.records()))
}

fn weights(explanations: &[Explanation]) -> Vec<&shahin_explain::FeatureWeights> {
    explanations.iter().map(|e| e.weights().unwrap()).collect()
}

fn rules(explanations: &[Explanation]) -> Vec<&shahin_explain::AnchorExplanation> {
    explanations.iter().map(|e| e.rule().unwrap()).collect()
}

/// Invocation totals measured before the drivers shared one kernel; the
/// merge must not move any of them. The batch-shaped drivers and the warm
/// engine run the same preparation and per-tuple work, so they share one
/// total per explainer.
mod pinned {
    pub const LIME_BATCH: u64 = 754;
    pub const LIME_STREAMING: u64 = 1_544;
    pub const SHAP_BATCH: u64 = 1_669;
    pub const SHAP_STREAMING: u64 = 1_804;
    pub const ANCHOR_BATCH: u64 = 57_192;
    pub const ANCHOR_STREAMING: u64 = 63_602;
    /// [`super::fingerprint`]s measured while LIME and SHAP still labelled
    /// every fresh row with its own classifier call. Batching the top-ups
    /// must not reorder a single RNG draw, so none of these may move.
    pub const LIME_BATCH_PRINT: u64 = 0x996d_57ad_c2fb_481a;
    pub const LIME_STREAMING_PRINT: u64 = 0x6ecd_5624_eb6d_4f74;
    pub const SHAP_BATCH_PRINT: u64 = 0x1360_4999_d7b1_f9ed;
    pub const SHAP_STREAMING_PRINT: u64 = 0x755c_6123_8b44_d46c;
    /// [`super::budgeted_streaming`]'s totals and fingerprints, measured
    /// while samples were still routed by a full containment scan.
    pub const LIME_BUDGETED: u64 = 2_715;
    pub const SHAP_BUDGETED: u64 = 2_014;
    pub const LIME_BUDGETED_PRINT: u64 = 0x8da4_c0e5_84ec_6f54;
    pub const SHAP_BUDGETED_PRINT: u64 = 0x83d8_175e_fc31_6435;
}

/// FNV-1a over the bit patterns of every weight, intercept and local
/// prediction, in row order.
fn fingerprint(explanations: &[Explanation]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in weights(explanations) {
        let values = w.weights.iter().chain([&w.intercept, &w.local_prediction]);
        for byte in values.flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

fn streaming() -> Method {
    Method::Streaming(StreamingConfig {
        refresh_every: 15,
        tau: 30,
        ..Default::default()
    })
}

/// [`streaming`] under a repository budget a few dozen samples deep, so
/// absorbing fresh rows evicts entries and every refresh carries samples
/// into a store that fills up.
fn budgeted_streaming() -> Method {
    Method::Streaming(StreamingConfig {
        memory_budget_bytes: 64 << 10,
        refresh_every: 15,
        tau: 30,
        ..Default::default()
    })
}

#[test]
fn budgeted_streaming_evicts_carries_over_and_keeps_its_pins() {
    let w = world();
    for (kind, total, print) in [
        (lime(), pinned::LIME_BUDGETED, pinned::LIME_BUDGETED_PRINT),
        (shap(), pinned::SHAP_BUDGETED, pinned::SHAP_BUDGETED_PRINT),
    ] {
        let reg = MetricsRegistry::new();
        let clf = CountingClassifier::new(w.forest.clone());
        let report = run_with_obs(
            &budgeted_streaming(),
            &kind,
            &w.ctx,
            &clf,
            &w.batch,
            SEED,
            &reg,
        );
        let name = kind.name();
        assert!(
            report.report.is_clean(),
            "{name}: {}",
            report.report.summary()
        );
        let snap = reg.snapshot();
        assert!(
            snap.counter("store.evictions") > 0,
            "{name}: the budget never bound"
        );
        assert!(
            snap.counter("streaming.carried_samples") > 0,
            "{name}: nothing carried"
        );
        let got = fingerprint(&report.explanations);
        assert_eq!(report.metrics.invocations, total, "{name}");
        assert_eq!(got, print, "{name}: {got:#018x}");
    }
}

#[test]
fn lime_and_shap_explanations_are_pinned_bit_for_bit() {
    let w = world();
    for (kind, method, print) in [
        (lime(), Method::Batch(config(1)), pinned::LIME_BATCH_PRINT),
        (lime(), streaming(), pinned::LIME_STREAMING_PRINT),
        (shap(), Method::Batch(config(1)), pinned::SHAP_BATCH_PRINT),
        (shap(), streaming(), pinned::SHAP_STREAMING_PRINT),
    ] {
        let (report, _) = driver(&w, &method, &kind);
        let got = fingerprint(&report.explanations);
        assert_eq!(got, print, "{} {}: {got:#018x}", kind.name(), method.name());
    }
}

/// LIME / SHAP: every batch-shaped driver is the same computation.
fn attribution_identity(kind: ExplainerKind, total: u64) {
    let w = world();
    let (serial, serial_lineage) = driver(&w, &Method::Batch(config(1)), &kind);
    assert_eq!(serial.metrics.invocations, total, "{} Batch", kind.name());
    for n in [1, 2, 4] {
        let method = Method::BatchParallel(config(n));
        let (par, par_lineage) = driver(&w, &method, &kind);
        let what = format!("{} {}", kind.name(), method.name());
        assert_eq!(
            weights(&par.explanations),
            weights(&serial.explanations),
            "{what}"
        );
        assert_eq!(par.metrics.invocations, total, "{what}");
        assert_eq!(par_lineage, serial_lineage, "{what}");
    }
    for n in [1, 4] {
        let (served, invocations, served_lineage) = warm(&w, &kind, n);
        let what = format!("{} warm engine at {n} threads", kind.name());
        assert_eq!(weights(&served), weights(&serial.explanations), "{what}");
        assert_eq!(invocations, total, "{what}");
        assert_eq!(served_lineage, serial_lineage, "{what}");
    }
}

#[test]
fn lime_is_one_computation_under_every_batch_driver() {
    attribution_identity(lime(), pinned::LIME_BATCH);
}

#[test]
fn shap_is_one_computation_under_every_batch_driver() {
    attribution_identity(shap(), pinned::SHAP_BATCH);
}

#[test]
fn anchor_batch_equals_batch_parallel_at_one_thread() {
    let w = world();
    let kind = anchor();
    let (serial, serial_lineage) = driver(&w, &Method::Batch(config(1)), &kind);
    let (par, par_lineage) = driver(&w, &Method::BatchParallel(config(1)), &kind);
    assert_eq!(rules(&par.explanations), rules(&serial.explanations));
    assert_eq!(serial.metrics.invocations, pinned::ANCHOR_BATCH);
    assert_eq!(par.metrics.invocations, pinned::ANCHOR_BATCH);
    assert_eq!(par_lineage, serial_lineage);
    let (served, invocations, served_lineage) = warm(&w, &kind, 1);
    assert_eq!(rules(&served), rules(&serial.explanations));
    assert_eq!(invocations, pinned::ANCHOR_BATCH);
    assert_eq!(served_lineage, serial_lineage);
}

#[test]
fn seeded_streaming_runs_repeat_with_pinned_bills() {
    let w = world();
    let method = streaming();
    for (kind, total) in [
        (lime(), pinned::LIME_STREAMING),
        (shap(), pinned::SHAP_STREAMING),
        (anchor(), pinned::ANCHOR_STREAMING),
    ] {
        let (a, a_lineage) = driver(&w, &method, &kind);
        let (b, b_lineage) = driver(&w, &method, &kind);
        let name = kind.name();
        match kind {
            ExplainerKind::Anchor(_) => {
                assert_eq!(rules(&a.explanations), rules(&b.explanations), "{name}")
            }
            _ => assert_eq!(weights(&a.explanations), weights(&b.explanations), "{name}"),
        }
        assert_eq!(a_lineage, b_lineage, "{name}");
        assert_eq!(a.metrics.invocations, total, "{name} Streaming");
        assert_eq!(b.metrics.invocations, total, "{name} Streaming");
    }
}

/// Counts a classifier's single-row calls and flat dispatches apart.
struct Dispatches<'a> {
    inner: &'a RandomForest,
    single: AtomicU64,
    flat: AtomicU64,
    flat_rows: AtomicU64,
}

impl<'a> Dispatches<'a> {
    fn new(inner: &'a RandomForest) -> Self {
        Dispatches {
            inner,
            single: AtomicU64::new(0),
            flat: AtomicU64::new(0),
            flat_rows: AtomicU64::new(0),
        }
    }

    /// `(single-row calls, flat dispatches, flat rows)` since the last take.
    fn take(&self) -> (u64, u64, u64) {
        (
            self.single.swap(0, Ordering::Relaxed),
            self.flat.swap(0, Ordering::Relaxed),
            self.flat_rows.swap(0, Ordering::Relaxed),
        )
    }
}

impl Classifier for Dispatches<'_> {
    fn predict_proba(&self, instance: &[Feature]) -> f64 {
        self.single.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_proba(instance)
    }

    fn predict_proba_flat(&self, rows: &[Feature], n_attrs: usize) -> Vec<f64> {
        self.flat.fetch_add(1, Ordering::Relaxed);
        self.flat_rows
            .fetch_add((rows.len() / n_attrs) as u64, Ordering::Relaxed);
        self.inner.predict_proba_flat(rows, n_attrs)
    }
}

/// What one tuple's explanation cost in dispatches: exactly the instance
/// probe as a single-row call, and its fresh rows in one flat dispatch, or
/// in none when nothing was fresh.
fn assert_one_dispatch(what: &str, clf: &Dispatches<'_>, stats: ReuseStats) {
    let (single, flat, rows) = clf.take();
    assert_eq!(single, 1, "{what}: the instance probe only");
    assert_eq!(flat, u64::from(stats.fresh > 0), "{what}: flat dispatches");
    assert_eq!(rows, stats.fresh, "{what}: flat rows");
    assert_eq!(stats.invocations, 1 + stats.fresh, "{what}: invocations");
}

#[test]
fn each_tuple_labels_its_fresh_rows_in_at_most_one_dispatch() {
    let w = world();
    let clf = Dispatches::new(&w.forest);
    let (ExplainerKind::Lime(lime), ExplainerKind::Shap(shap)) = (lime(), shap()) else {
        unreachable!()
    };
    let (n_lime, n_shap) = (lime.params.n_samples, shap.params.n_samples);
    let mut rng = StdRng::seed_from_u64(SEED);
    for row in 0..w.batch.n_rows() {
        let instance = w.batch.instance(row);
        let codes = w.ctx.discretizer().encode_instance(&instance);
        let what = |arm: &str| format!("row {row} {arm}");

        // LIME: fresh, a partial pool, and a pool covering every row.
        let pool =
            labeled_perturbations_batch(&w.ctx, &w.forest, &Itemset::new(vec![]), n_lime, &mut rng);
        for reused in [0, n_lime / 3, n_lime - 1, n_lime] {
            let (_, stats) = lime.explain_with_reused_counted(
                &w.ctx,
                &clf,
                &instance,
                &pool[..reused],
                &mut rng,
            );
            assert_eq!(stats.reused as usize, reused.min(n_lime - 1));
            assert_one_dispatch(&what(&format!("LIME reusing {reused}")), &clf, stats);
        }

        // SHAP: no source, a store-backed source over singletons of the
        // tuple's own codes, and a pool covering every coalition.
        let (_, stats) = shap.explain_with_counted(
            &w.ctx,
            &clf,
            &instance,
            0.5,
            Vec::new(),
            &mut NoSource,
            &mut rng,
        );
        assert_eq!(stats.fresh as usize, n_shap);
        assert_one_dispatch(&what("SHAP fresh"), &clf, stats);

        let singles = (0..6).map(|a| Itemset::new(vec![Item::new(a, codes[a])]));
        let mut store = PerturbationStore::new(singles.collect(), usize::MAX);
        store.materialize(&w.ctx, &w.forest, 20, &mut rng);
        let mut source = StoreCoalitionSource::new(&store, (0..6).collect());
        let (_, stats) = shap.explain_with_counted(
            &w.ctx,
            &clf,
            &instance,
            0.5,
            Vec::new(),
            &mut source,
            &mut rng,
        );
        assert_eq!(stats.reused, source.hits());
        assert_one_dispatch(&what("SHAP from the store"), &clf, stats);

        let full: Vec<CoalitionSample> = (0..n_shap)
            .map(|i| CoalitionSample {
                coalition: vec![(i % codes.len()) as u16],
                proba: 0.5,
            })
            .collect();
        let (_, stats) =
            shap.explain_with_counted(&w.ctx, &clf, &instance, 0.5, full, &mut NoSource, &mut rng);
        assert_eq!(stats.fresh, 0);
        assert_one_dispatch(&what("SHAP fully pooled"), &clf, stats);
    }
}
