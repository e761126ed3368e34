//! Bit-packed binary designs and the surrogate fits that work on them.
//!
//! LIME's and KernelSHAP's interpretable space is binary, so a design row
//! is a mask of `ceil(m / 64)` `u64` words rather than `m` floats, and the
//! normal equations need no multiplications: for a 0/1 design
//!
//! ```text
//! A = ZᵀWZ,   A_ij = Σ_r w_r [z_ri ∧ z_rj]      (A_ii = (ZᵀW1)_i)
//! b = ZᵀWy,   b_i  = Σ_r w_r y_r [z_ri]
//! ```
//!
//! are sums over each row's *set bits* only — `k(k+1)/2` additions for a
//! row with `k` ones instead of `m(m+1)/2` multiply-adds. [`ridge_binary`]
//! then centres algebraically (`G = A − W·μμᵀ + αI`) and
//! [`constrained_wls_binary`] derives KernelSHAP's reduced system from the
//! same `A`. Both fit the same models as the dense [`crate::ridge()`] and
//! [`crate::constrained_wls`], which remain the generic API and the oracle
//! these are tested against; results differ in the last few ulps because
//! the sums run in a different order.

use crate::matrix::Matrix;
use crate::ridge::RidgeFit;
use crate::solve::solve_spd;

/// A binary design matrix: `rows × cols` bits, row-major, each row packed
/// into `ceil(cols / 64)` little-endian `u64` words (column `j` is bit
/// `j % 64` of word `j / 64`). Bits past `cols` are always zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitDesign {
    words: Vec<u64>,
    rows: usize,
    cols: usize,
    words_per_row: usize,
}

impl BitDesign {
    /// An empty design with `cols` columns and room for `rows` rows.
    pub fn with_capacity(rows: usize, cols: usize) -> BitDesign {
        let words_per_row = cols.div_ceil(64);
        BitDesign {
            words: Vec::with_capacity(rows * words_per_row),
            rows: 0,
            cols,
            words_per_row,
        }
    }

    /// Number of rows pushed so far.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends a row whose column `j` is set iff `bit(j)`; returns the
    /// number of ones in it.
    #[inline]
    pub fn push_row(&mut self, mut bit: impl FnMut(usize) -> bool) -> usize {
        self.rows += 1;
        let mut ones = 0;
        for start in (0..self.cols).step_by(64) {
            let mut word = 0u64;
            for j in start..self.cols.min(start + 64) {
                word |= u64::from(bit(j)) << (j - start);
            }
            ones += word.count_ones() as usize;
            self.words.push(word);
        }
        ones
    }

    /// Appends a row with exactly the columns in `ones` set.
    pub fn push_row_of(&mut self, ones: impl IntoIterator<Item = usize>) {
        self.rows += 1;
        let at = self.words.len();
        self.words.resize(at + self.words_per_row, 0);
        for j in ones {
            assert!(j < self.cols, "column {j} out of range");
            self.words[at + j / 64] |= 1 << (j % 64);
        }
    }

    /// The rows as word slices (empty slices for a zero-column design).
    fn row_words(&self) -> impl Iterator<Item = &[u64]> {
        let wpr = self.words_per_row;
        (0..self.rows).map(move |r| &self.words[r * wpr..(r + 1) * wpr])
    }
}

/// Writes the indices of the set bits of `row ^ flip` into `out`.
#[inline]
fn set_bits(row: &[u64], flip: &[u64], out: &mut Vec<usize>) {
    out.clear();
    for (wi, (&word, &f)) in row.iter().zip(flip).enumerate() {
        let mut bits = word ^ f;
        while bits != 0 {
            out.push(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Uncentred weighted moments `(A, b)` of the design with the `flip`
/// columns complemented (`z'_j = 1 − z_j`): `A = Z'ᵀWZ'` as the upper
/// triangle (`i ≤ j`) of a row-major `m × m` buffer, and `b = Z'ᵀWy`.
///
/// One pass over every row's set bits. Rows accumulate in order, so
/// columns that are equal as bit patterns get bit-identical sums — the
/// LDLᵀ jitter then treats exactly collinear columns the way it does for
/// the dense fit.
fn moments(z: &BitDesign, y: &[f64], weights: &[f64], flip: &[u64]) -> (Vec<f64>, Vec<f64>) {
    let m = z.cols;
    let mut a = vec![0.0; m * m];
    let mut b = vec![0.0; m];
    let mut ones = Vec::with_capacity(m);
    for ((row, &w), &yr) in z.row_words().zip(weights).zip(y) {
        if w == 0.0 {
            continue;
        }
        let wy = w * yr;
        set_bits(row, flip, &mut ones);
        for (k, &i) in ones.iter().enumerate() {
            b[i] += wy;
            let a_row = &mut a[i * m..(i + 1) * m];
            for &j in &ones[k..] {
                a_row[j] += w;
            }
        }
    }
    (a, b)
}

fn check_shapes(z: &BitDesign, y: &[f64], weights: &[f64]) {
    assert_eq!(y.len(), z.rows(), "target length mismatch");
    assert_eq!(weights.len(), z.rows(), "weight length mismatch");
}

/// [`crate::ridge()`] for a binary design: weighted ridge regression with
/// an unpenalised intercept, fit from row masks.
///
/// Columns whose weighted mean exceeds ½ are complemented internally
/// (centring makes `1 − z_j` the same regressor as `z_j` with the
/// coefficient negated), so a row never contributes more than the pairs
/// among its *minority* bits: the work is bounded by a quarter of the
/// dense Gram's however dense the design is, and a constant column
/// centres to exactly zero, as it does in the dense fit.
pub fn ridge_binary(z: &BitDesign, y: &[f64], weights: &[f64], alpha: f64) -> RidgeFit {
    let m = z.cols;
    check_shapes(z, y, weights);
    assert!(alpha >= 0.0, "alpha must be non-negative");
    assert!(z.rows() > 0, "need at least one sample");

    // Pass 1: weighted column sums decide which columns to complement.
    let mut col_w = vec![0.0; m];
    let mut w_sum = 0.0;
    let mut wy_sum = 0.0;
    let none = vec![0u64; z.words_per_row];
    let mut ones = Vec::with_capacity(m);
    for ((row, &w), &yr) in z.row_words().zip(weights).zip(y) {
        w_sum += w;
        wy_sum += w * yr;
        if w == 0.0 {
            continue;
        }
        set_bits(row, &none, &mut ones);
        for &j in &ones {
            col_w[j] += w;
        }
    }
    assert!(w_sum > 0.0, "weights must not all be zero");
    let mut flip = none;
    for (j, &c) in col_w.iter().enumerate() {
        if c > 0.5 * w_sum {
            flip[j / 64] |= 1 << (j % 64);
        }
    }

    // Pass 2: moments of the complemented design, then centre:
    // G = A − W·μμᵀ + αI,  rhs = b − W·μ·ȳ.
    let (a, b) = moments(z, y, weights, &flip);
    let y_mean = wy_sum / w_sum;
    let mean: Vec<f64> = (0..m).map(|j| a[j * m + j] / w_sum).collect();
    let rhs: Vec<f64> = (0..m).map(|j| b[j] - w_sum * mean[j] * y_mean).collect();
    let mut gram = Matrix::from_rows(m, m, a);
    for i in 0..m {
        let w_mean_i = w_sum * mean[i];
        for j in i..m {
            let g = gram[(i, j)] - w_mean_i * mean[j];
            gram[(i, j)] = g;
            gram[(j, i)] = g;
        }
        gram[(i, i)] += alpha;
    }
    let mut coefficients = solve_spd(&gram, &rhs);

    // Back to the caller's columns.
    let mut intercept = y_mean;
    for (j, c) in coefficients.iter_mut().enumerate() {
        if flip[j / 64] >> (j % 64) & 1 == 1 {
            *c = -*c;
            intercept -= *c * (1.0 - mean[j]);
        } else {
            intercept -= *c * mean[j];
        }
    }
    RidgeFit {
        coefficients,
        intercept,
    }
}

/// [`crate::constrained_wls`] for a binary design: KernelSHAP's
/// efficiency-constrained regression, fit from coalition masks.
///
/// With `L = m − 1` the eliminated column, the reduced design's columns
/// are `z_j − z_L` and its target `y − base − z_L·total`, so its normal
/// equations follow from the uncentred moments alone:
///
/// ```text
/// G_ij  = A_ij − A_iL − A_jL + A_LL
/// rhs_i = (b_i − b_L) − base·(A_ii − A_LL) − total·(A_iL − A_LL)
/// ```
pub fn constrained_wls_binary(
    z: &BitDesign,
    y: &[f64],
    weights: &[f64],
    base: f64,
    fx: f64,
) -> Vec<f64> {
    let m = z.cols;
    check_shapes(z, y, weights);
    assert!(m >= 1, "need at least one feature");
    let total = fx - base;
    if m == 1 {
        // The constraint fully determines the single value.
        return vec![total];
    }

    // Coalition columns hover around mean ½, so none is complemented.
    let (a, b) = moments(z, y, weights, &vec![0u64; z.words_per_row]);
    let a = |i: usize, j: usize| a[i.min(j) * m + i.max(j)];
    let last = m - 1;
    let a_ll = a(last, last);
    let mut gram = Matrix::zeros(last, last);
    // Tiny ridge jitter for degenerate coalition samples.
    let jitter = 1e-10;
    for i in 0..last {
        for j in i..last {
            let g = a(i, j) - a(i, last) - a(j, last) + a_ll;
            gram[(i, j)] = g;
            gram[(j, i)] = g;
        }
        gram[(i, i)] += jitter;
    }
    let rhs: Vec<f64> = (0..last)
        .map(|i| (b[i] - b[last]) - base * (a(i, i) - a_ll) - total * (a(i, last) - a_ll))
        .collect();
    let mut phi = solve_spd(&gram, &rhs);
    let sum_head: f64 = phi.iter().sum();
    phi.push(total - sum_head);
    phi
}
