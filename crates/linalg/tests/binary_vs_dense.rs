//! The bit-packed fits against their dense oracles: `ridge_binary` /
//! `constrained_wls_binary` must fit the same model as `ridge` /
//! `constrained_wls` on the same 0/1 design, for any column count (one to
//! three mask words), any sparsity, zero weights and degenerate columns.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin_linalg::{
    constrained_wls, constrained_wls_binary, ridge, ridge_binary, solve_spd, BitDesign, Matrix,
};

/// One regression problem in both representations.
struct Problem {
    dense: Matrix,
    bits: BitDesign,
    y: Vec<f64>,
    w: Vec<f64>,
}

/// What to plant in the design besides independent random columns.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Plant {
    /// Nothing: every column is independent (densities 0.05–0.95, so some
    /// columns get complemented and some do not).
    Nothing,
    /// An all-ones and an all-zeros column (zero variance).
    Constant,
    /// Two columns copied from others (exact collinearity).
    Duplicate,
}

fn problem(seed: u64, m: usize, plant: Plant) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    // Enough rows that the independent columns are well conditioned even
    // after a quarter of the weights are zeroed.
    let n = 3 * m + 30;
    let density: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..0.95)).collect();
    let mut cells: Vec<Vec<bool>> = (0..n)
        .map(|_| density.iter().map(|&p| rng.gen_bool(p)).collect())
        .collect();
    if m >= 4 {
        let (a, b) = (rng.gen_range(0..m / 2), rng.gen_range(m / 2..m));
        for row in &mut cells {
            match plant {
                Plant::Nothing => {}
                Plant::Constant => {
                    row[a] = true;
                    row[b] = false;
                }
                Plant::Duplicate => {
                    row[b] = row[a];
                    row[m - 1] = row[0];
                }
            }
        }
    }
    let mut bits = BitDesign::with_capacity(n, m);
    for row in &cells {
        bits.push_row(|j| row[j]);
    }
    let dense = Matrix::from_rows(
        n,
        m,
        cells
            .iter()
            .flat_map(|r| r.iter().map(|&b| f64::from(b)))
            .collect(),
    );
    let w = (0..n)
        .map(|_| {
            if rng.gen_bool(0.25) {
                0.0
            } else {
                rng.gen_range(0.01..1.0)
            }
        })
        .collect();
    let y = (0..n).map(|_| rng.gen()).collect();
    Problem { dense, bits, y, w }
}

fn plants() -> impl Strategy<Value = Plant> {
    (0usize..3).prop_map(|k| [Plant::Nothing, Plant::Constant, Plant::Duplicate][k])
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ridge_binary_matches_dense_ridge(
        seed in 0u64..u64::MAX,
        m in 1usize..=130,
        alpha in 1e-3f64..10.0,
        plant in plants(),
    ) {
        let p = problem(seed, m, plant);
        let dense = ridge(&p.dense, &p.y, &p.w, alpha);
        let binary = ridge_binary(&p.bits, &p.y, &p.w, alpha);
        let gap = max_abs_diff(&dense.coefficients, &binary.coefficients);
        prop_assert!(gap < 1e-9, "coefficients differ by {gap:e}");
        prop_assert!((dense.intercept - binary.intercept).abs() < 1e-9);
    }

    /// `alpha = 0` sends zero-variance columns through `solve_spd`'s pivot
    /// jitter. Both fits centre such a column to exactly zero, so it gets a
    /// zero coefficient and the rest still agree.
    #[test]
    fn ridge_binary_matches_dense_ridge_through_the_jitter(
        seed in 0u64..u64::MAX,
        m in 4usize..=130,
    ) {
        let p = problem(seed, m, Plant::Constant);
        let dense = ridge(&p.dense, &p.y, &p.w, 0.0);
        let binary = ridge_binary(&p.bits, &p.y, &p.w, 0.0);
        let gap = max_abs_diff(&dense.coefficients, &binary.coefficients);
        prop_assert!(gap < 1e-9, "coefficients differ by {gap:e}");
        prop_assert!((dense.intercept - binary.intercept).abs() < 1e-9);
        prop_assert_eq!(binary.coefficients.iter().filter(|c| **c == 0.0).count(), 2);
    }

    /// With exactly collinear columns and no penalty the split between the
    /// twins is decided by rounding noise in either fit, but the model is
    /// not: fitted values agree.
    #[test]
    fn ridge_binary_fits_the_same_model_on_collinear_columns(
        seed in 0u64..u64::MAX,
        m in 4usize..=130,
    ) {
        let p = problem(seed, m, Plant::Duplicate);
        let dense = ridge(&p.dense, &p.y, &p.w, 0.0);
        let binary = ridge_binary(&p.bits, &p.y, &p.w, 0.0);
        prop_assert!(binary.coefficients.iter().all(|c| c.is_finite()));
        for r in 0..p.dense.rows() {
            let row = p.dense.row(r);
            let gap = (dense.predict(row) - binary.predict(row)).abs();
            prop_assert!(gap < 1e-6, "row {r}: fitted values differ by {gap:e}");
        }
    }

    #[test]
    fn constrained_wls_binary_matches_dense(
        seed in 0u64..u64::MAX,
        m in 1usize..=130,
        base in -1.0f64..1.0,
        fx in -1.0f64..1.0,
        constant in 0usize..2,
    ) {
        let plant = [Plant::Nothing, Plant::Constant][constant];
        let p = problem(seed, m, plant);
        let dense = constrained_wls(&p.dense, &p.y, &p.w, base, fx);
        let binary = constrained_wls_binary(&p.bits, &p.y, &p.w, base, fx);
        let gap = max_abs_diff(&dense, &binary);
        prop_assert!(gap < 1e-9, "Shapley values differ by {gap:e}");
        let total: f64 = binary.iter().sum();
        prop_assert!((total - (fx - base)).abs() < 1e-9, "efficiency violated");
    }

    /// Duplicate coalition columns make the reduced system singular up to
    /// its 1e-10 jitter, so only the twins' joint credit is determined.
    #[test]
    fn constrained_wls_binary_fits_the_same_model_on_collinear_columns(
        seed in 0u64..u64::MAX,
        m in 4usize..=130,
        base in -1.0f64..1.0,
        fx in -1.0f64..1.0,
    ) {
        let p = problem(seed, m, Plant::Duplicate);
        let dense = constrained_wls(&p.dense, &p.y, &p.w, base, fx);
        let binary = constrained_wls_binary(&p.bits, &p.y, &p.w, base, fx);
        prop_assert!(binary.iter().all(|v| v.is_finite()));
        let total: f64 = binary.iter().sum();
        prop_assert!((total - (fx - base)).abs() < 1e-6, "efficiency violated");
        for r in 0..p.dense.rows() {
            let row = p.dense.row(r);
            let fitted = |phi: &[f64]| row.iter().zip(phi).map(|(z, v)| z * v).sum::<f64>();
            let gap = (fitted(&dense) - fitted(&binary)).abs();
            prop_assert!(gap < 1e-6, "row {r}: fitted values differ by {gap:e}");
        }
    }
}

/// The textbook LDLᵀ loops `solve_spd` used before it moved to row slices;
/// the slice version must not change a single bit.
fn solve_spd_indexed(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = a.rows();
    let max_diag = (0..n).map(|i| a[(i, i)].abs()).fold(0.0f64, f64::max);
    let eps = (max_diag.max(1.0)) * 1e-12;
    let mut l = Matrix::zeros(n, n);
    let mut d = vec![0.0; n];
    for j in 0..n {
        let mut dj = a[(j, j)];
        for k in 0..j {
            dj -= l[(j, k)] * l[(j, k)] * d[k];
        }
        if dj.abs() < eps {
            dj = eps;
        }
        d[j] = dj;
        l[(j, j)] = 1.0;
        for i in (j + 1)..n {
            let mut v = a[(i, j)];
            for k in 0..j {
                v -= l[(i, k)] * l[(j, k)] * d[k];
            }
            l[(i, j)] = v / dj;
        }
    }
    let mut z = b.to_vec();
    for i in 0..n {
        for k in 0..i {
            z[i] -= l[(i, k)] * z[k];
        }
    }
    for i in 0..n {
        z[i] /= d[i];
    }
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            z[i] -= l[(k, i)] * z[k];
        }
    }
    z
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solve_spd_is_bit_identical_to_the_indexed_loops(
        seed in 0u64..u64::MAX,
        m in 1usize..=60,
        plant in plants(),
    ) {
        // Gram matrices as the fits produce them, singular ones included.
        let p = problem(seed, m, plant);
        let gram = p.dense.weighted_gram(&p.w);
        let rhs = p.dense.weighted_tx_vec(&p.w, &p.y);
        let got = solve_spd(&gram, &rhs);
        let want = solve_spd_indexed(&gram, &rhs);
        prop_assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
