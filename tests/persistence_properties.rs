//! Property-based recovery tests over the warm-snapshot subsystem: no
//! damaged snapshot — random bit flips, random truncations, any seeded
//! corruption class — may ever hydrate a warm engine, and every rejection
//! must be a typed [`shahin::SnapshotError`], never a panic. The donor
//! snapshot is built once; each case damages a copy and attempts to
//! hydrate through the same public path `shahin-cli serve --warm-from`
//! uses.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::fault::{corrupt, Corruption};
use shahin::{BatchConfig, ExplainerKind, MetricsRegistry, SnapshotError, WarmEngine};
use shahin_explain::{ExplainContext, LimeExplainer, LimeParams};
use shahin_model::{CountingClassifier, MajorityClass};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset};

const SEED: u64 = 11;

fn setup() -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
    let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(5);
    let mut rng = StdRng::seed_from_u64(5);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
    let rows: Vec<usize> = (0..20.min(split.test.n_rows())).collect();
    (ctx, clf, split.test.select(&rows))
}

fn explainer() -> ExplainerKind {
    ExplainerKind::Lime(LimeExplainer::new(LimeParams {
        n_samples: 40,
        ..Default::default()
    }))
}

/// The donor snapshot, built once per test binary.
fn donor_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (ctx, clf, warm) = setup();
        let reg = MetricsRegistry::new();
        let donor = WarmEngine::prime(
            BatchConfig::default(),
            explainer(),
            ctx,
            clf,
            warm,
            SEED,
            &reg,
        );
        donor.snapshot_bytes()
    })
}

fn hydrate(bytes: &[u8]) -> Result<WarmEngine<MajorityClass>, SnapshotError> {
    let (ctx, clf, warm) = setup();
    WarmEngine::prime_from_snapshot(
        BatchConfig::default(),
        explainer(),
        ctx,
        clf,
        warm,
        SEED,
        &MetricsRegistry::new(),
        bytes,
    )
}

#[test]
fn the_undamaged_donor_snapshot_hydrates() {
    let eng = hydrate(donor_bytes()).expect("pristine snapshot must hydrate");
    assert_eq!(eng.invocations(), 0, "hydration is classifier-free");
    assert!(eng.store_entries() > 0, "warm state came along");
}

#[test]
fn rejected_snapshots_degrade_to_a_cold_start() {
    use shahin::obs::names;
    let damaged = corrupt(donor_bytes(), Corruption::BitFlip, 7);
    let (ctx, clf, warm) = setup();
    let reg = MetricsRegistry::new();
    let (eng, rejection) = WarmEngine::prime_warm_or_cold(
        BatchConfig::default(),
        explainer(),
        ctx,
        clf,
        warm,
        SEED,
        &reg,
        Some(&damaged),
    );
    let err = rejection.expect("damaged snapshot must be rejected");
    assert!(!err.kind().is_empty());
    assert!(
        eng.invocations() > 0,
        "cold prime re-materialized the store"
    );
    assert!(eng.store_entries() > 0, "cold start still serves warm");
    let snap = reg.snapshot();
    assert_eq!(snap.counter(names::PERSIST_LOAD_REJECTED), 1);
    assert_eq!(snap.counter(names::PERSIST_LOADS_OK), 0);

    // And the pristine snapshot goes the warm way through the same API.
    let (ctx, clf, warm) = setup();
    let reg = MetricsRegistry::new();
    let (eng, rejection) = WarmEngine::prime_warm_or_cold(
        BatchConfig::default(),
        explainer(),
        ctx,
        clf,
        warm,
        SEED,
        &reg,
        Some(donor_bytes()),
    );
    assert!(rejection.is_none());
    assert_eq!(eng.invocations(), 0);
    assert_eq!(reg.snapshot().counter(names::PERSIST_LOADS_OK), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip anywhere in the file — header, framing, or
    /// payload — is caught by magic/version/fingerprint validation or a
    /// section CRC. Nothing slips through, nothing panics.
    #[test]
    fn any_single_bit_flip_is_rejected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = donor_bytes();
        let idx = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        let mut damaged = bytes.to_vec();
        damaged[idx] ^= 1u8 << bit;
        let Some(err) = hydrate(&damaged).err() else {
            panic!("flip at byte {idx} bit {bit} was accepted");
        };
        // Typed, attributable rejection — the CLI logs kind() and counts
        // persist.load_rejected off exactly this.
        prop_assert!(!err.kind().is_empty());
    }

    /// Any truncation point yields a typed rejection.
    #[test]
    fn any_truncation_is_rejected(cut_frac in 0.0f64..1.0) {
        let bytes = donor_bytes();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        let Some(err) = hydrate(&bytes[..cut]).err() else {
            panic!("truncation at byte {cut} was accepted");
        };
        prop_assert!(
            matches!(err.kind(), "truncated" | "bad_magic" | "crc_mismatch"),
            "cut at {} -> {}", cut, err.kind()
        );
    }

    /// Every seeded corruption class is rejected for every seed.
    #[test]
    fn every_corruption_class_is_rejected(class_idx in 0usize..4, seed in 0u64..u64::MAX) {
        let class = Corruption::ALL[class_idx];
        let damaged = corrupt(donor_bytes(), class, seed);
        let Some(err) = hydrate(&damaged).err() else {
            panic!("{class:?} with seed {seed} was accepted");
        };
        if class == Corruption::StaleVersion {
            prop_assert_eq!(err.kind(), "wrong_version");
        }
    }
}
