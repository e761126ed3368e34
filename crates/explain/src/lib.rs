//! Perturbation-based explanation algorithms: LIME, Anchor, KernelSHAP.
//!
//! Faithful single-prediction implementations of the three explainers the
//! paper optimizes (§3). All three share the template Shahin exploits:
//!
//! 1. generate perturbations of the input tuple by freezing some attributes
//!    and resampling the rest from the training distribution,
//! 2. invoke the black-box classifier on every perturbation (the cost
//!    bottleneck),
//! 3. post-process perturbations + predictions into an explanation.
//!
//! Each explainer therefore exposes two entry points: the classic
//! self-contained one, and a *reuse-aware* one accepting pre-labeled
//! samples ([`LabeledSample`]) or a pluggable sampling source
//! ([`anchor::RuleSampler`]) so the `shahin` crate can inject materialized
//! perturbations without touching the algorithms' internals — mirroring the
//! paper's "minimal modification" claim.

pub mod anchor;
pub mod context;
pub mod eval;
pub mod explanation;
pub mod lime;
pub mod perturb;
pub mod shap;

pub use anchor::{AnchorExplainer, AnchorParams, FreshRuleSampler, RuleSampler};
pub use context::ExplainContext;
pub use eval::local_fidelity;
pub use explanation::{AnchorExplanation, FeatureWeights};
pub use lime::{LimeExplainer, LimeParams};
pub use perturb::{
    draw_rule_labels, estimate_base_value, labeled_perturbation, labeled_perturbations_batch,
    labeled_perturbations_batch_timed, perturb_codes, sanitize_proba, LabeledSample, ReuseStats,
};
pub use shap::{CoalitionSample, CoalitionSource, KernelShapExplainer, NoSource, ShapParams};
