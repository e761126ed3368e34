//! Small dense linear algebra for the Shahin explainers.
//!
//! The surrogate models of LIME and KernelSHAP are tiny (one coefficient per
//! attribute, tens of attributes) but are fit thousands of times per batch,
//! so this crate provides exactly what they need and nothing more:
//!
//! * [`Matrix`] — row-major dense matrices with the handful of products the
//!   normal equations require,
//! * [`solve_spd`] — LDLᵀ solve for symmetric positive (semi-)definite
//!   systems with ridge jitter,
//! * [`ridge()`] — (weighted) ridge regression with an unpenalized intercept,
//!   LIME's surrogate,
//! * [`constrained_wls`] — equality-constrained weighted least squares,
//!   KernelSHAP's surrogate (the efficiency constraint
//!   `Σ φ_j = f(x) − E[f]` is eliminated analytically),
//! * [`BitDesign`], [`ridge_binary`], [`constrained_wls_binary`] — the same
//!   two fits for the explainers' 0/1 interpretable designs, from bit-packed
//!   row masks (what LIME and KernelSHAP actually call),
//! * [`kernel`] — LIME's exponential kernel and the SHAP kernel (Eq. 1 of
//!   the paper),
//! * [`fidelity`] — Euclidean-distance and Kendall-τ explanation fidelity
//!   metrics (§4.2 "Explanation Quality").

pub mod binary;
pub mod fidelity;
pub mod kernel;
pub mod matrix;
pub mod ridge;
pub mod solve;
pub mod wls;

pub use binary::{constrained_wls_binary, ridge_binary, BitDesign};
pub use fidelity::{euclidean_distance, kendall_tau, rank_by_magnitude};
pub use kernel::{binomial, default_kernel_width, exponential_kernel, shap_kernel_weight};
pub use matrix::Matrix;
pub use ridge::{ridge, RidgeFit};
pub use solve::solve_spd;
pub use wls::constrained_wls;
