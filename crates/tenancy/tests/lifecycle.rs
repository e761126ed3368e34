//! Lifecycle tests over real (small) warm engines: lazy cold starts,
//! quota gating, idle/budget eviction with at-evict snapshots, and
//! classifier-free bit-identical re-admission.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use shahin::obs::names;
use shahin::{BatchConfig, ExplainerKind, MetricsRegistry, WarmEngine, WarmOutcome, WarmRequest};
use shahin_explain::{ExplainContext, FeatureWeights, LimeExplainer, LimeParams};
use shahin_model::{CountingClassifier, MajorityClass};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset};
use shahin_tenancy::{
    EvictRefused, Lifecycle, LifecyclePolicy, TenantConfig, TenantRegistry, WarmSlot,
};

const SEED: u64 = 11;
const WARM_ROWS: usize = 18;

fn setup() -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
    let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(5);
    let mut rng = StdRng::seed_from_u64(5);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
    let rows: Vec<usize> = (0..WARM_ROWS.min(split.test.n_rows())).collect();
    (ctx, clf, split.test.select(&rows))
}

fn lime() -> LimeExplainer {
    LimeExplainer::new(LimeParams {
        n_samples: 60,
        ..Default::default()
    })
}

fn tenant_config(
    name: &str,
    quota: Option<usize>,
    snapshot_path: Option<PathBuf>,
    warm_from: Option<PathBuf>,
) -> TenantConfig<MajorityClass> {
    let (ctx, clf, warm) = setup();
    let inner = clf.inner().clone();
    let n_rows = warm.n_rows();
    let reg = MetricsRegistry::new();
    TenantConfig {
        name: name.to_string(),
        n_rows,
        quota,
        snapshot_path,
        warm_from,
        factory: Box::new(move |bytes| {
            WarmEngine::prime_warm_or_cold(
                BatchConfig {
                    n_threads: Some(2),
                    ..Default::default()
                },
                ExplainerKind::Lime(lime()),
                ctx.clone(),
                // A fresh counting wrapper per materialization, so each
                // engine's invocation count is its own.
                CountingClassifier::new(inner.clone()),
                warm.clone(),
                SEED,
                &reg,
                bytes,
            )
        }),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shahin_tenancy_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn explain_all(slot: &Arc<WarmSlot<MajorityClass>>) -> Vec<FeatureWeights> {
    let reqs: Vec<WarmRequest> = (0..slot.engine.n_rows())
        .map(|row| WarmRequest {
            row,
            request_id: row as u64,
            trace: None,
        })
        .collect();
    slot.engine
        .explain(&reqs)
        .into_iter()
        .map(|out| match out {
            WarmOutcome::Ok { explanation, .. } => explanation.weights().unwrap().clone(),
            WarmOutcome::Failed(f) => panic!("unexpected failure: {f:?}"),
        })
        .collect()
}

#[test]
fn tenants_materialize_lazily_and_exactly_once() {
    let obs = MetricsRegistry::new();
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", None, None, None),
            tenant_config("globex", None, None, None),
        ],
        0,
        LifecyclePolicy::default(),
        &obs,
    );
    assert_eq!(reg.lifecycle(0), Lifecycle::Cold);
    assert_eq!(reg.lifecycle(1), Lifecycle::Cold);
    assert_eq!(obs.counter(names::TENANCY_COLD_STARTS).get(), 0);
    assert!(reg.slot(0).is_none(), "cold tenants hold no engine");

    let (slot, cold) = reg.ensure_warm(0);
    let cold = cold.expect("first touch is a cold start");
    assert!(!cold.hydrated, "no snapshot configured");
    assert!(cold.rejection.is_none());
    assert_eq!(reg.lifecycle(0), Lifecycle::Warm);
    assert_eq!(
        reg.lifecycle(1),
        Lifecycle::Cold,
        "untouched tenant stays cold"
    );
    assert_eq!(obs.counter(names::TENANCY_COLD_STARTS).get(), 1);
    assert_eq!(obs.histogram(names::TENANCY_COLD_START_LATENCY).count(), 1);
    assert_eq!(
        obs.counter(&names::tenant_metric("acme", "cold_starts"))
            .get(),
        1
    );

    let (again, none) = reg.ensure_warm(0);
    assert!(none.is_none(), "second touch is warm");
    assert!(Arc::ptr_eq(&slot.engine, &again.engine));
    assert_eq!(obs.counter(names::TENANCY_COLD_STARTS).get(), 1);

    // The warm slot serves; its per-tenant label is set (multi-tenant).
    assert_eq!(slot.engine.tenant().map(|t| &**t), Some("acme"));
    assert_eq!(explain_all(&slot).len(), WARM_ROWS);
}

#[test]
fn quota_gates_admission_and_counts_rejections() {
    let obs = MetricsRegistry::new();
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", Some(2), None, None),
            tenant_config("globex", Some(0), None, None),
        ],
        0,
        LifecyclePolicy::default(),
        &obs,
    );
    assert!(reg.try_admit(0));
    assert!(reg.try_admit(0));
    assert!(!reg.try_admit(0), "third concurrent request is over quota");
    assert_eq!(obs.counter(names::TENANCY_QUOTA_REJECTIONS).get(), 1);
    assert_eq!(
        obs.counter(&names::tenant_metric("acme", "quota_rejections"))
            .get(),
        1
    );
    reg.release(0);
    assert!(reg.try_admit(0), "released capacity is reusable");

    // quota 0 rejects everything — the draining-tenant idiom.
    assert!(!reg.try_admit(1));
    assert_eq!(obs.counter(names::TENANCY_QUOTA_REJECTIONS).get(), 2);
    assert_eq!(
        obs.counter(&names::tenant_metric("acme", "requests")).get(),
        3,
        "only admitted requests count"
    );
}

#[test]
fn routing_resolves_default_and_counts_unknown_tenants() {
    let obs = MetricsRegistry::new();
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", None, None, None),
            tenant_config("globex", None, None, None),
        ],
        1,
        LifecyclePolicy::default(),
        &obs,
    );
    assert_eq!(reg.resolve(None), Some(1), "absent tenant → default");
    assert_eq!(reg.resolve(Some("acme")), Some(0));
    assert_eq!(reg.resolve(Some("hooli")), None);
    assert_eq!(obs.counter(names::TENANCY_UNKNOWN_TENANT).get(), 1);
}

#[test]
fn eviction_snapshots_and_readmission_is_classifier_free_and_bit_identical() {
    let dir = scratch_dir("evict");
    let snap = dir.join("acme.shws");
    let obs = MetricsRegistry::new();
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", None, Some(snap.clone()), None),
            tenant_config("globex", None, None, None),
        ],
        0,
        LifecyclePolicy::default(),
        &obs,
    );

    let (slot, _) = reg.ensure_warm(0);
    let before = explain_all(&slot);
    let invocations_before = slot.engine.invocations();
    assert!(
        invocations_before > 0,
        "cold prime must call the classifier"
    );
    drop(slot);

    assert!(!snap.exists());
    reg.evict(0).expect("idle warm tenant evicts");
    assert_eq!(reg.lifecycle(0), Lifecycle::Evicted);
    assert!(snap.exists(), "eviction leaves an at-evict snapshot");
    assert!(reg.slot(0).is_none(), "the engine is gone");
    assert_eq!(obs.counter(names::TENANCY_EVICTIONS).get(), 1);
    assert_eq!(obs.counter(names::PERSIST_SNAPSHOTS_TAKEN).get(), 1);

    // Re-admission hydrates from the at-evict snapshot: zero classifier
    // invocations, bit-identical explanations.
    let (slot, cold) = reg.ensure_warm(0);
    let cold = cold.expect("re-admission is a cold start");
    assert!(cold.hydrated, "hydrates from the at-evict snapshot");
    assert!(cold.rejection.is_none());
    assert_eq!(reg.lifecycle(0), Lifecycle::Warm);
    assert_eq!(obs.counter(names::TENANCY_HYDRATIONS).get(), 1);
    assert_eq!(
        slot.engine.invocations(),
        0,
        "hydration must not touch the classifier"
    );
    assert_eq!(
        explain_all(&slot),
        before,
        "re-admitted engine is bit-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_refuses_inflight_and_cold_tenants() {
    let obs = MetricsRegistry::new();
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", None, None, None),
            tenant_config("globex", None, None, None),
        ],
        0,
        LifecyclePolicy::default(),
        &obs,
    );
    assert_eq!(reg.evict(0), Err(EvictRefused::NotWarm), "cold tenant");
    let (_slot, _) = reg.ensure_warm(0);
    assert!(reg.try_admit(0));
    assert_eq!(reg.evict(0), Err(EvictRefused::Inflight));
    reg.release(0);
    assert!(reg.evict(0).is_ok());
    assert_eq!(obs.counter(names::TENANCY_EVICTIONS).get(), 1);
}

#[test]
fn single_tenant_wrapper_never_evicts_and_stays_unlabeled() {
    let (ctx, clf, warm) = setup();
    let reg_metrics = MetricsRegistry::new();
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig {
            n_threads: Some(1),
            ..Default::default()
        },
        ExplainerKind::Lime(lime()),
        ctx,
        clf,
        warm,
        SEED,
        &reg_metrics,
    ));
    let reg = TenantRegistry::single(Arc::clone(&engine), None);
    assert!(!reg.multi());
    assert_eq!(
        reg.lifecycle(0),
        Lifecycle::Warm,
        "wrapped engine is already warm"
    );
    assert_eq!(reg.resolve(None), Some(0));
    assert_eq!(reg.evict(0), Err(EvictRefused::NotRebuildable));
    let (slot, cold) = reg.ensure_warm(0);
    assert!(cold.is_none());
    assert!(
        slot.engine.tenant().is_none(),
        "no tenant label single-tenant"
    );
    assert!(
        reg.enforce().is_empty(),
        "lifecycle never touches the sole engine"
    );
}

#[test]
fn idle_and_budget_enforcement_evict_lru_first() {
    let dir = scratch_dir("enforce");
    let obs = MetricsRegistry::new();
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", None, Some(dir.join("acme.shws")), None),
            tenant_config("globex", None, Some(dir.join("globex.shws")), None),
        ],
        0,
        // A 1-byte budget: any warm tenant is over budget.
        LifecyclePolicy {
            memory_budget_bytes: Some(1),
            idle_evict: None,
        },
        &obs,
    );
    let (_a, _) = reg.ensure_warm(0);
    std::thread::sleep(Duration::from_millis(5));
    let (_b, _) = reg.ensure_warm(1);
    drop((_a, _b));
    let (_, bytes) = reg.warm_totals();
    assert!(bytes > 1, "warm stores hold real bytes");

    let evicted = reg.enforce();
    let order: Vec<&str> = evicted.iter().map(|(n, _)| &**n).collect();
    assert_eq!(
        order,
        ["acme", "globex"],
        "LRU (least recently used) goes first"
    );
    assert!(evicted.iter().all(|(_, why)| *why == "budget"));
    assert_eq!(reg.lifecycle(0), Lifecycle::Evicted);
    assert_eq!(reg.lifecycle(1), Lifecycle::Evicted);
    assert_eq!(obs.gauge(names::TENANCY_WARM_TENANTS).get(), 0);

    // Idle keepalive: re-warm one tenant, let it sit past the keepalive.
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", None, None, None),
            tenant_config("globex", None, None, None),
        ],
        0,
        LifecyclePolicy {
            memory_budget_bytes: None,
            idle_evict: Some(Duration::from_millis(1)),
        },
        &obs,
    );
    let (_slot, _) = reg.ensure_warm(0);
    drop(_slot);
    std::thread::sleep(Duration::from_millis(10));
    let evicted = reg.enforce();
    assert_eq!(evicted.len(), 1);
    assert_eq!(&*evicted[0].0, "acme");
    assert_eq!(evicted[0].1, "idle");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_from_overrides_the_first_hydration_only() {
    let dir = scratch_dir("warmfrom");
    let seeded = dir.join("seeded.shws");
    let snap = dir.join("acme.shws");

    // Produce a seed snapshot from a throwaway engine.
    {
        let cfg = tenant_config("seed", None, None, None);
        let (engine, _) = (cfg.factory)(None);
        engine.write_snapshot(&seeded).expect("seed snapshot");
    }

    let obs = MetricsRegistry::new();
    let reg = TenantRegistry::new(
        vec![
            tenant_config("acme", None, Some(snap.clone()), Some(seeded.clone())),
            tenant_config("globex", None, None, None),
        ],
        0,
        LifecyclePolicy::default(),
        &obs,
    );
    let (slot, cold) = reg.ensure_warm(0);
    assert!(
        cold.expect("cold start").hydrated,
        "warm_from seeds the first start"
    );
    assert_eq!(slot.engine.invocations(), 0);
    drop(slot);
    reg.evict(0).expect("evicts");
    assert!(
        snap.exists(),
        "at-evict snapshot lands in the lifecycle layout"
    );

    // Second start must use the lifecycle's own snapshot, not warm_from.
    std::fs::remove_file(&seeded).unwrap();
    let (_slot, cold) = reg.ensure_warm(0);
    assert!(cold.expect("cold start").hydrated, "hydrates from {snap:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
