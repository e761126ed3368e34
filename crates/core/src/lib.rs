//! Shahin: faster explanation generation for multiple predictions.
//!
//! This crate implements the contribution of *"Shahin: Faster Algorithms
//! for Generating Explanations for Multiple Predictions"* (SIGMOD 2021):
//! multi-query-optimization–style batching for perturbation-based
//! explainers (LIME, Anchor, KernelSHAP).
//!
//! # How it works
//!
//! Given a batch of tuples to explain, Shahin:
//!
//! 1. mines **frequent itemsets** over a `max(1000, 1%)` sample of the
//!    batch (`shahin-fim`),
//! 2. **materializes** `τ` classifier-labeled perturbations per frequent
//!    itemset in a byte-budgeted [`PerturbationStore`],
//! 3. explains each tuple by **reusing** the materialized perturbations
//!    whose frozen itemset the tuple contains, generating (and paying
//!    classifier invocations for) only the remainder — one per-tuple
//!    [`kernel`] that every driver (batch, parallel, streaming and the
//!    serving [`WarmEngine`]) explains a tuple through,
//! 4. for Anchor, additionally caches the **invariant** per-rule precision
//!    counts and coverage ([`anchor_cache`]),
//! 5. a **streaming** variant ([`ShahinStreaming`]) maintains the store
//!    under a memory budget with LRU eviction and periodic frequent-itemset
//!    (plus negative-border) refresh.
//!
//! Baselines from the paper's evaluation — Sequential, Dist-k and the
//! Greedy LRU cache — live in [`baseline`] as configurations of that same
//! kernel (an empty pool, or Greedy's cache), and [`runner`] provides the
//! measurement harness used by every experiment ([`Method`] picks the
//! approach).
//!
//! # Quick start
//!
//! ```no_run
//! use shahin::{BatchConfig, ShahinBatch};
//! use shahin_explain::{ExplainContext, LimeExplainer};
//! use shahin_model::{CountingClassifier, ForestParams, RandomForest};
//! use shahin_tabular::{train_test_split, DatasetPreset};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let (data, labels) = DatasetPreset::CensusIncome.spec(0.1).generate(7);
//! let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
//! let forest = RandomForest::fit(&split.train, &split.train_labels,
//!                                &ForestParams::default(), &mut rng);
//! let clf = CountingClassifier::new(forest);
//! let ctx = ExplainContext::fit(&split.train, 1000, &mut rng);
//!
//! let shahin = ShahinBatch::new(BatchConfig::default());
//! let result = shahin.explain_lime(&ctx, &clf, &split.test,
//!                                  &LimeExplainer::default(), 7);
//! println!("{} explanations, {} classifier invocations",
//!          result.explanations.len(), result.metrics.invocations);
//! ```

pub mod anchor_cache;
pub mod baseline;
pub mod batch;
pub mod config;
pub mod greedy_cache;
pub mod kernel;
pub mod metrics;
pub mod obs;
pub mod parallel;
pub(crate) mod quarantine;
pub mod runner;
pub mod shap_source;
pub mod snapshot;
pub mod store;
pub mod streaming;
pub mod summarize;
pub mod warm;

pub use anchor_cache::{CachingRuleSampler, SamplerStats, SharedAnchorCaches};
pub use baseline::{dist_k, Greedy};
pub use batch::ShahinBatch;
pub use config::{BatchConfig, StreamingConfig};
pub use greedy_cache::TaggedLruCache;
pub use kernel::TupleWorker;
pub use metrics::{
    BatchReport, BatchResult, FailureKind, OverheadBreakdown, RunMetrics, TupleFailure,
};
pub use obs::{
    fold_provenance, register_standard, trace_sampled, EventSink, MetricsRegistry, MetricsSnapshot,
    ProvenanceRecord, ProvenanceSink, RequestTrace, StageSpan, TraceContext, TraceCounters,
    TraceSpan, TraceStore, TraceStoreConfig,
};
pub use parallel::chunks;
pub use runner::{
    per_tuple_seed, run, run_with_obs, ExplainerKind, Explanation, Method, RunReport,
};
pub use shap_source::StoreCoalitionSource;
pub use snapshot::{fault, SnapshotError, FORMAT_VERSION as SNAPSHOT_FORMAT_VERSION};
pub use store::{per_itemset_seed, LookupStats, PerturbationStore};
pub use streaming::ShahinStreaming;
pub use summarize::{
    summarize_attributions, summarize_rules, top_k_overlap, AttributionSummary, RuleSummary,
};
pub use warm::{WarmEngine, WarmExplainer, WarmOutcome, WarmRequest};
