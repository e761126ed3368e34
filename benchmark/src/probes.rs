//! Layer probes: the benchmark times one public function of a layer on
//! inputs captured from the workload (its context, model and held-out
//! rows) and reports the median call. A probe stops after
//! [`PROBE_CALLS`] calls or [`PROBE_BUDGET`], whichever comes first, so
//! millisecond-scale functions cannot eat the run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin::{BatchConfig, MetricsRegistry, WarmEngine, WarmExplainer, WarmOutcome, WarmRequest};
use shahin_bench::{bench_lime, bench_shap};
use shahin_explain::{
    estimate_base_value, perturb_codes, CoalitionSample, LabeledSample, NoSource,
};
use shahin_fim::{apriori, AprioriParams, BitsetDomain, Itemset, MatchScratch};
use shahin_linalg::{constrained_wls, ridge, Matrix};
use shahin_model::{Classifier, CountingClassifier};
use shahin_obs::json::Json;
use shahin_serve::protocol::explanation_frame;
use shahin_serve::{parse_request, Admission};
use shahin_tenancy::{LifecyclePolicy, TenantConfig, TenantRegistry};

use crate::inputs::{block, Inputs};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats::median;

const PROBE_CALLS: usize = 1_000;
const PROBE_BUDGET: Duration = Duration::from_millis(100);
const PROBE_MIN_CALLS: usize = 20;

/// Median nanoseconds per call of `f`, each call doing `per_call` units
/// of work (the result is per unit).
fn probe(per_call: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm the caches the first call fills
    let started = Instant::now();
    let mut ns = Vec::with_capacity(PROBE_CALLS);
    while ns.len() < PROBE_CALLS && (ns.len() < PROBE_MIN_CALLS || started.elapsed() < PROBE_BUDGET)
    {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&ns) / per_call as f64
}

/// Runs every probe and stores the per-layer probe metrics in `values`.
pub fn run(inputs: &Inputs, values: &mut Values, rec: &mut Recorder) {
    let span = rec.open("probes", None);
    let ctx = &inputs.ctx;
    let forest = &inputs.forest;
    let m = ctx.n_attrs();
    let mut rng = StdRng::seed_from_u64(9_806);
    let sample = block(&inputs.test, 0, inputs.test.n_rows().min(1_000));
    let instance = sample.instance(0);
    let empty = Itemset::new(vec![]);

    // tabular
    values.insert(
        "tabular.encode_ns_per_row",
        probe(sample.n_rows(), || {
            black_box(ctx.discretizer().encode_dataset(black_box(&sample)));
        }),
    );
    let table = ctx.discretizer().encode_dataset(&sample);

    // model: one flat dispatch over a 4 096-row perturbation buffer, the
    // shape materialization and the explainers hand the forest.
    let mut buffer = Vec::with_capacity(4_096 * m);
    for _ in 0..4_096 {
        let codes = perturb_codes(ctx, &empty, &mut rng);
        ctx.discretizer()
            .undiscretize_into(&codes, &mut rng, &mut buffer);
    }
    values.insert(
        "model.predict_ns_per_row",
        probe(4_096, || {
            black_box(forest.predict_proba_flat(black_box(&buffer), m));
        }),
    );

    // fim: containment of a row in the mined itemsets.
    let mined = apriori(
        &table,
        &AprioriParams {
            min_support: BatchConfig::default().min_support,
            max_len: BatchConfig::default().max_itemset_len,
            max_itemsets: BatchConfig::default().max_itemsets,
        },
    );
    let itemsets: Vec<Itemset> = mined.frequent.into_iter().map(|(i, _)| i).collect();
    let domain = BitsetDomain::new(&itemsets);
    let rows: Vec<Vec<u32>> = (0..table.n_rows()).map(|r| table.row(r)).collect();
    let mut scratch = MatchScratch::new();
    values.insert(
        "fim.match_ns_per_row",
        probe(rows.len(), || {
            for row in &rows {
                black_box(domain.contained_in_with(row, &mut scratch));
            }
        }),
    );

    // explain
    let mut row_buf = Vec::with_capacity(256 * m);
    values.insert(
        "explain.perturb_ns_per_sample",
        probe(256, || {
            row_buf.clear();
            for _ in 0..256 {
                let codes = perturb_codes(ctx, &empty, &mut rng);
                ctx.discretizer()
                    .undiscretize_into(&codes, &mut rng, &mut row_buf);
            }
            black_box(&row_buf);
        }),
    );
    let lime = bench_lime();
    values.insert(
        "explain.lime_cold_ns",
        probe(1, || {
            black_box(lime.explain(ctx, forest, &instance, &mut rng));
        }),
    );
    let pool: Vec<LabeledSample> = shahin_explain::labeled_perturbations_batch(
        ctx,
        forest,
        &empty,
        lime.params.n_samples,
        &mut rng,
    );
    values.insert(
        "explain.lime_pooled_ns",
        probe(1, || {
            black_box(lime.explain_with_reused(ctx, forest, &instance, pool.iter(), &mut rng));
        }),
    );
    let shap = bench_shap();
    let base = estimate_base_value(ctx, forest, 64, &mut rng);
    let inst_codes = ctx.discretizer().encode_instance(&instance);
    // A full pool: one pre-labelled coalition per sample slot, each the
    // attributes on which a random perturbation agrees with the instance.
    let coalitions: Vec<CoalitionSample> = pool
        .iter()
        .take(shap.params.n_samples)
        .map(|s| CoalitionSample {
            coalition: (0..m)
                .filter(|&j| s.codes[j] == inst_codes[j])
                .map(|j| j as u16)
                .collect(),
            proba: s.proba,
        })
        .collect();
    values.insert(
        "explain.shap_pooled_ns",
        probe(1, || {
            black_box(shap.explain_with(
                ctx,
                forest,
                &instance,
                base,
                coalitions.clone(),
                &mut NoSource,
                &mut rng,
            ));
        }),
    );

    // linalg: the two regressions at the explainers' sizes.
    let design = |n: usize, rng: &mut StdRng| {
        let mut z = Matrix::zeros(n, m);
        for r in 0..n {
            for v in z.row_mut(r) {
                *v = f64::from(rng.gen_bool(0.5));
            }
        }
        let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let w: Vec<f64> = (0..n).map(|_| 0.05 + rng.gen::<f64>()).collect();
        (z, y, w)
    };
    let (z, y, w) = design(300, &mut rng);
    values.insert(
        "linalg.ridge_ns",
        probe(1, || {
            black_box(ridge(black_box(&z), &y, &w, 1.0));
        }),
    );
    let (z, y, w) = design(128, &mut rng);
    values.insert(
        "linalg.wls_ns",
        probe(1, || {
            black_box(constrained_wls(black_box(&z), &y, &w, 0.5, 0.7));
        }),
    );

    // core: a warm engine over 500 held-out rows, no server in front.
    let warm = block(&inputs.test, 0, inputs.test.n_rows().min(500));
    let prime = || {
        WarmEngine::prime(
            BatchConfig::default(),
            WarmExplainer::Lime(bench_lime()),
            ctx.clone(),
            CountingClassifier::new(forest.clone()),
            warm.clone(),
            7,
            &MetricsRegistry::disabled(),
        )
    };
    let t = Instant::now();
    let engine = Arc::new(prime());
    values
        .entry("core.prime_s")
        .or_insert(t.elapsed().as_secs_f64());
    let mut next_row = 0usize;
    values.insert(
        "core.warm_explain_ns_per_req",
        probe(32, || {
            let reqs: Vec<WarmRequest> = (0..32)
                .map(|i| WarmRequest {
                    row: (next_row + i) % warm.n_rows(),
                    request_id: i as u64,
                    trace: None,
                })
                .collect();
            next_row += 32;
            black_box(engine.explain(&reqs));
        }),
    );
    values.insert(
        "core.snapshot_write_ns",
        probe(1, || {
            black_box(engine.snapshot_bytes());
        }),
    );
    let snapshot = engine.snapshot_bytes();
    values.insert("core.snapshot_bytes", snapshot.len() as f64);
    values.insert(
        "core.hydrate_ns",
        probe(1, || {
            black_box(
                WarmEngine::prime_from_snapshot(
                    BatchConfig::default(),
                    WarmExplainer::Lime(bench_lime()),
                    ctx.clone(),
                    CountingClassifier::new(forest.clone()),
                    warm.clone(),
                    7,
                    &MetricsRegistry::disabled(),
                    &snapshot,
                )
                .expect("the engine's own snapshot hydrates"),
            );
        }),
    );

    // serve: wire parse, response rendering, the admission queue.
    let frames: Vec<String> = (0..256)
        .map(|i| {
            format!(
                "{{\"id\": {}, \"method\": \"explain\", \"row\": {}}}",
                1000 + i,
                i * 7
            )
        })
        .collect();
    values.insert(
        "serve.parse_ns_per_frame",
        probe(frames.len(), || {
            for f in &frames {
                black_box(parse_request(f).expect("well-formed frame"));
            }
        }),
    );
    let WarmOutcome::Ok { explanation, .. } = engine
        .explain(&[WarmRequest {
            row: 0,
            request_id: 0,
            trace: None,
        }])
        .remove(0)
    else {
        panic!("probe engine quarantined row 0");
    };
    values.insert(
        "serve.serialize_ns_per_frame",
        probe(256, || {
            for i in 0..256u64 {
                black_box(explanation_frame(i, 3, &explanation, false, 0, Some(i)));
            }
        }),
    );
    let queue: Admission<u64> = Admission::new(1024);
    values.insert(
        "serve.queue_push_pop_ns",
        probe(256, || {
            for i in 0..256u64 {
                queue.push(i).expect("queue has room");
                black_box(queue.pop_batch(1, Duration::ZERO));
            }
        }),
    );

    // tenancy: routing + quota on a four-tenant registry whose tenants
    // never materialize, and shard assignment on a warm slot.
    let obs = MetricsRegistry::new();
    let configs: Vec<TenantConfig<shahin_model::RandomForest>> = ["hot", "slow", "shap", "bursty"]
        .iter()
        .map(|name| TenantConfig {
            name: (*name).to_string(),
            n_rows: 1,
            quota: Some(64),
            snapshot_path: None,
            warm_from: None,
            factory: Box::new(|_| unreachable!("routing probes never materialize a tenant")),
        })
        .collect();
    let registry = TenantRegistry::new(configs, 0, LifecyclePolicy::default(), &obs);
    values.insert(
        "tenancy.route_ns",
        probe(256, || {
            for _ in 0..256 {
                let idx = registry.resolve(Some("shap")).expect("tenant exists");
                assert!(registry.try_admit(idx));
                registry.release(idx);
            }
        }),
    );
    let single = TenantRegistry::single(Arc::clone(&engine), None);
    let slot = single.slot(0).expect("single-tenant registries are warm");
    let reqs: Vec<WarmRequest> = (0..32)
        .map(|i| WarmRequest {
            row: (i * 13) % warm.n_rows(),
            request_id: i as u64,
            trace: None,
        })
        .collect();
    values.insert(
        "tenancy.shard_ns",
        probe(32, || {
            black_box(slot.assign(black_box(&reqs)));
        }),
    );

    // obs: the primitives every instrumented call pays for.
    let counter = obs.counter("probe.counter");
    values.insert(
        "obs.counter_inc_ns",
        probe(4_096, || {
            for _ in 0..4_096 {
                counter.inc();
            }
        }),
    );
    let hist = obs.histogram("probe.hist");
    values.insert(
        "obs.hist_record_ns",
        probe(4_096, || {
            for i in 0..4_096u64 {
                hist.record_ns(black_box(1_000 + i));
            }
        }),
    );
    shahin::register_standard(&obs);
    let doc = obs.snapshot().to_json();
    values.insert(
        "obs.json_parse_ns_per_kb",
        probe(1, || {
            black_box(Json::parse(black_box(&doc)).expect("the registry's own JSON parses"));
        }) / (doc.len() as f64 / 1024.0),
    );
    rec.close(span);
}
