//! Black-box classifiers for the Shahin reproduction.
//!
//! The paper explains predictions of a Random Forest trained on tabular
//! data; the explainers only ever see the model through a narrow
//! [`Classifier`] interface — that is the whole point of *model-agnostic*
//! explanations, and it is also what lets Shahin count and minimize
//! classifier invocations.
//!
//! Provided models:
//!
//! * [`DecisionTree`] — CART with Gini impurity, numeric threshold splits
//!   and categorical one-vs-rest splits,
//! * [`RandomForest`] — bagged trees with per-split feature subsampling
//!   (the paper's model, §4.1),
//! * [`GradientBoosting`] — a secondary black box (boosted regression
//!   trees), showing the explainers are model-agnostic,
//! * [`MajorityClass`] — the trivial baseline.
//!
//! Instrumentation:
//!
//! * [`CountingClassifier`] counts invocations (the paper's cost driver:
//!   88–92% of explanation time is classifier calls),
//! * [`TracedClassifier`] records per-call and per-batch latency
//!   histograms into a `shahin_obs::MetricsRegistry`,
//! * [`SimulatedCost`] adds a calibrated busy-wait per call so wall-clock
//!   measurements reproduce the *shape* of the paper's Python timings.
//!
//! Fault tolerance (DESIGN.md §5e):
//!
//! * [`PredictError`] — the typed error taxonomy at the boundary,
//! * [`FallibleClassifier`] — the fallible face of [`Classifier`] (every
//!   infallible classifier implements it for free),
//! * [`ResilientClassifier`] — bounded retries, deadlines, a circuit
//!   breaker and output sanitization over any fallible classifier,
//! * [`ChaosClassifier`] — seeded, reproducible fault injection for
//!   exercising every failure path in CI.

pub mod chaos;
pub mod classifier;
pub mod error;
pub mod flat;
pub mod forest;
pub mod gbm;
pub mod instrument;
pub mod metrics;
pub mod resilient;
pub mod tree;

pub use chaos::{ChaosClassifier, ChaosConfig, ChaosSnapshot};
pub use classifier::{Classifier, MajorityClass};
pub use error::PredictError;
pub use flat::FlatForest;
pub use forest::{ForestParams, RandomForest};
pub use gbm::{GbmParams, GradientBoosting};
pub use instrument::{
    CountingClassifier, InvocationSnapshot, LatencyCost, SimulatedCost, TracedClassifier,
};
pub use metrics::{accuracy, confusion_matrix};
pub use resilient::{
    degraded_incidents, payload_message, FallibleClassifier, ResilienceSnapshot,
    ResilientClassifier, RetryPolicy,
};
pub use tree::{DecisionTree, TreeParams};
