//! Property test: consistent-hash sharding is pure routing. For any
//! ring size, vnode count, and request mix, explaining each request on
//! the worker its [`ShardMap`] shard names is bit-identical to the
//! engine's own chunked `explain` — per-tuple seeding depends only on
//! the global warm row, never on which worker runs it.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shahin::{BatchConfig, ExplainerKind, MetricsRegistry, WarmEngine, WarmOutcome, WarmRequest};
use shahin_explain::{ExplainContext, FeatureWeights, LimeExplainer, LimeParams};
use shahin_model::{CountingClassifier, MajorityClass};
use shahin_tabular::{train_test_split, DatasetPreset};
use shahin_tenancy::ShardMap;

const SEED: u64 = 11;
const WARM_ROWS: usize = 16;

struct Fixture {
    engine: WarmEngine<MajorityClass>,
    signatures: Vec<u64>,
    baseline: Vec<FeatureWeights>,
}

/// Primed once: proptest shrinks re-run the closure many times and a
/// fresh prime per case would dominate the run.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(5);
        let mut rng = StdRng::seed_from_u64(5);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
        let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
        let rows: Vec<usize> = (0..WARM_ROWS.min(split.test.n_rows())).collect();
        let warm = split.test.select(&rows);
        let engine = WarmEngine::prime(
            BatchConfig {
                n_threads: Some(2),
                ..Default::default()
            },
            ExplainerKind::Lime(LimeExplainer::new(LimeParams {
                n_samples: 40,
                ..Default::default()
            })),
            ctx,
            clf,
            warm,
            SEED,
            &MetricsRegistry::new(),
        );
        let signatures = engine.row_signatures();
        let baseline = explain_rows(&engine, &(0..engine.n_rows()).collect::<Vec<_>>(), None, 1);
        Fixture {
            engine,
            signatures,
            baseline,
        }
    })
}

fn requests(rows: &[usize]) -> Vec<WarmRequest> {
    rows.iter()
        .map(|&row| WarmRequest {
            row,
            request_id: row as u64,
            trace: None,
        })
        .collect()
}

/// Explains `rows`: request `i` on worker `assign[i]`'s long-lived
/// context when an assignment is given, through the engine's own
/// chunking otherwise.
fn explain_rows(
    engine: &WarmEngine<MajorityClass>,
    rows: &[usize],
    assign: Option<&[usize]>,
    n_workers: usize,
) -> Vec<FeatureWeights> {
    let reqs = requests(rows);
    let outs: Vec<WarmOutcome> = match assign {
        Some(assign) => {
            let mut workers: Vec<_> = (0..n_workers).map(|_| engine.worker()).collect();
            reqs.iter()
                .zip(assign)
                .map(|(&req, &w)| engine.explain_request(req, &mut workers[w]))
                .collect()
        }
        None => engine.explain(&reqs),
    };
    outs.into_iter()
        .map(|o| match o {
            WarmOutcome::Ok { explanation, .. } => explanation.weights().unwrap().clone(),
            WarmOutcome::Failed(f) => panic!("unexpected failure: {f:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: ShardMap routing of any request mix over
    /// any ring produces the same bits as unsharded explanation.
    #[test]
    fn sharded_explanations_are_bit_identical_to_unsharded(
        n_shards in 1usize..9,
        vnodes in (0usize..3).prop_map(|i| [1usize, 4, 64][i]),
        rows in proptest::collection::vec(0usize..WARM_ROWS, 1..40),
    ) {
        let fx = fixture();
        let map = ShardMap::with_vnodes(n_shards, vnodes);
        let assign: Vec<usize> = rows
            .iter()
            .map(|&row| map.shard_for(fx.signatures[row]))
            .collect();
        let sharded = explain_rows(&fx.engine, &rows, Some(&assign), map.n_shards());
        for (i, (&row, got)) in rows.iter().zip(&sharded).enumerate() {
            prop_assert_eq!(
                got,
                &fx.baseline[row],
                "request {} (row {}) diverged under {} shards × {} vnodes",
                i, row, n_shards, vnodes
            );
        }
    }

    /// Routing itself is a function of the signature alone: same ring →
    /// same shard, duplicate rows always co-locate.
    #[test]
    fn duplicate_rows_always_route_to_the_same_shard(
        n_shards in 1usize..9,
        row in 0usize..WARM_ROWS,
    ) {
        let fx = fixture();
        let map = ShardMap::new(n_shards);
        let a = map.shard_for(fx.signatures[row]);
        let b = map.shard_for(fx.signatures[row]);
        prop_assert_eq!(a, b);
        prop_assert!(a < n_shards.max(1));
    }
}
