//! Symmetric positive (semi-)definite linear solves.

use crate::matrix::Matrix;

/// Solves `A x = b` for symmetric positive (semi-)definite `A` via LDLᵀ
/// factorization, adding a tiny diagonal jitter when a pivot collapses
/// (rank-deficient Gram matrices are routine when perturbation samples
/// repeat rows).
///
/// Panics if `A` is not square or `b` has the wrong length.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");
    assert_eq!(b.len(), n, "rhs length mismatch");
    if n == 0 {
        return Vec::new();
    }

    // Scale-aware jitter threshold.
    let max_diag = (0..n).map(|i| a[(i, i)].abs()).fold(0.0f64, f64::max);
    let eps = (max_diag.max(1.0)) * 1e-12;

    // LDLᵀ: A = L D Lᵀ with unit lower-triangular L, stored transposed
    // (row `k` of `lt` is column `k` of L) so that column `j` is updated
    // from the finished columns `k < j` over contiguous slices. Every
    // entry still sees its subtractions in ascending `k`.
    let mut lt = vec![0.0; n * n];
    let mut d = vec![0.0; n];
    for j in 0..n {
        let (done, rest) = lt.split_at_mut(j * n);
        let col = &mut rest[j..n];
        for (v, i) in col.iter_mut().zip(j..n) {
            *v = a.row(i)[j];
        }
        for (lk, &dk) in done.chunks_exact(n).zip(&d) {
            let ljk = lk[j];
            for (v, &lik) in col.iter_mut().zip(&lk[j..]) {
                *v -= lik * ljk * dk;
            }
        }
        let mut dj = col[0];
        if dj.abs() < eps {
            dj = eps; // jitter a collapsed pivot
        }
        d[j] = dj;
        col[0] = 1.0;
        for v in &mut col[1..] {
            *v /= dj;
        }
    }

    // Forward solve L z = b.
    let mut z = b.to_vec();
    for (k, lk) in lt.chunks_exact(n).enumerate() {
        let (head, tail) = z.split_at_mut(k + 1);
        let zk = head[k];
        for (zi, &lik) in tail.iter_mut().zip(&lk[k + 1..]) {
            *zi -= lik * zk;
        }
    }
    // Diagonal solve D w = z.
    for (zi, &di) in z.iter_mut().zip(&d) {
        *zi /= di;
    }
    // Back solve Lᵀ x = w.
    for i in (0..n).rev() {
        let (head, tail) = z.split_at_mut(i + 1);
        for (&lki, &zk) in lt[i * n + i + 1..(i + 1) * n].iter().zip(&*tail) {
            head[i] -= lki * zk;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn solves_identity() {
        let a = Matrix::identity(3);
        assert_close(&solve_spd(&a, &[1.0, 2.0, 3.0]), &[1.0, 2.0, 3.0], 1e-12);
    }

    #[test]
    fn solves_known_spd_system() {
        // A = [[4, 2], [2, 3]], x = [1, -1] => b = [2, -1]
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        assert_close(&solve_spd(&a, &[2.0, -1.0]), &[1.0, -1.0], 1e-10);
    }

    #[test]
    fn residual_is_tiny_for_random_spd() {
        // Build SPD as Gram of a random-ish matrix.
        let m = Matrix::from_rows(
            4,
            3,
            vec![
                1.0, 2.0, 0.5, -1.0, 0.3, 2.2, 0.0, 1.5, -0.7, 2.0, -0.2, 1.1,
            ],
        );
        let a = m.weighted_gram(&[1.0; 4]);
        let x_true = [0.3, -1.2, 2.0];
        let b = a.mul_vec(&x_true);
        let x = solve_spd(&a, &b);
        assert_close(&x, &x_true, 1e-8);
    }

    #[test]
    fn singular_system_does_not_blow_up() {
        // Rank-1 Gram matrix.
        let a = Matrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let x = solve_spd(&a, &[2.0, 2.0]);
        assert!(x.iter().all(|v| v.is_finite()), "{x:?}");
        // Solution should still satisfy A x ≈ b in the least-squares sense.
        let r = a.mul_vec(&x);
        assert_close(&r, &[2.0, 2.0], 1e-3);
    }

    #[test]
    fn empty_system() {
        let a = Matrix::zeros(0, 0);
        assert!(solve_spd(&a, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        solve_spd(&a, &[0.0, 0.0]);
    }
}
